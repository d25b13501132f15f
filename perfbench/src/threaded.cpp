#include "threaded.hpp"

#include <cstdio>

namespace pb {

void report_e2e(ThreadedRun const& run, Report& rep) {
    rep.e("setup_s", run.setup_s, "s");
    WindowStats const w = window_stats(run.plain.log);
    rep.e("ops_per_s", w.ops_per_s, "1/s");
    rep.e("op_p50_us", w.p50_us, "us");
    rep.e("op_p90_us", w.p90_us, "us");
    rep.e("peak_rss_mib", peak_rss_mib(), "MiB");
    std::fprintf(stderr, "perfbench: %zu latency samples (%llu dropped), %ld ops in %.3f s, %d windows\n",
                 run.plain.log.n, static_cast<unsigned long long>(run.plain.log.dropped),
                 run.plain.ops, run.plain.wall_s, w.windows);
}

void report_counters(Phase const& ph, Report& rep) {
    double const ops = ph.ops > 0 ? static_cast<double>(ph.ops) : 1.0;
    CounterSnap const& d = ph.delta;
    rep.l("p2p.messages_per_op", static_cast<double>(d.messages) / ops, "count");
    rep.l("p2p.bytes_per_op", static_cast<double>(d.bytes) / ops, "B");
    rep.l("p2p.wait_ns_per_op", static_cast<double>(d.wait_ns) / ops, "ns");
    rep.l("p2p.wait_share", static_cast<double>(d.wait_ns) / (kRanks * ph.wall_s * 1e9), "ratio");
    rep.l("algorithms.schedule_builds_per_op", static_cast<double>(d.builds) / ops, "count");
    double const lookups = static_cast<double>(d.builds + d.hits);
    rep.l("algorithms.cache_hit_ratio", lookups > 0 ? static_cast<double>(d.hits) / lookups : 0,
          "ratio");
    rep.l("algorithms.peak_scratch_bytes", static_cast<double>(d.peak_scratch), "B");
    rep.l("shm.copies_per_op", static_cast<double>(d.shm_copies) / ops, "count");
    rep.l("shm.copy_bytes_per_op", static_cast<double>(d.shm_copy_bytes) / ops, "B");
    rep.l("shm.drains_per_op", static_cast<double>(d.shm_drains) / ops, "count");
    rep.l("progress.schedules_offloaded", static_cast<double>(d.offloaded), "count");
}

void report_spans(double ops, Options const& opt, Report& rep) {
    struct Group {
        char const* metric;
        double ns = 0;
    };
    Group groups[] = {{"trace.self_us.kamping"},      {"trace.self_us.mpi"},
                      {"trace.self_us.mpi_start"},    {"trace.self_us.mpi_wait"},
                      {"trace.self_us.sim_simulate"}, {"trace.self_us.sim_select"},
                      {"trace.self_us.app"}};
    for (auto const& s : spans::self_times()) {
        std::string const& n = s.name;
        int g = -1;
        if (n.rfind("kamping.", 0) == 0) g = 0;
        else if (n == "mpi.start") g = 2;
        else if (n == "mpi.wait" || n == "mpi.waitall") g = 3;
        else if (n.rfind("mpi.", 0) == 0) g = 1;
        else if (n == "sim.simulate") g = 4;
        else if (n == "sim.select_at_scale") g = 5;
        else if (n.rfind("app.", 0) == 0) g = 6;
        if (g >= 0) groups[g].ns += s.self_ns;
        std::fprintf(stderr, "span %-24s count %10llu self %12.0f ns total %12.0f ns\n",
                     n.c_str(), static_cast<unsigned long long>(s.count), s.self_ns,
                     s.total_ns);
    }
    for (auto const& g : groups) rep.l(g.metric, g.ns * 1e-3 / (ops > 0 ? ops : 1), "us");
    rep.l("trace.spans_dropped", static_cast<double>(spans::dropped()), "count");
    std::string const path =
        opt.trace_dir + "/spans-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".tsv";
    if (!spans::write_tsv(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    spans::reset();
}

void report_trace(ThreadedRun const& run, Options const& opt, Report& rep) {
    // Per op kind, so extra work the traced phase does (the apps twins)
    // does not count as tracing cost.
    LatencyLog const& a = run.plain.log;
    LatencyLog const& b = run.traced.log;
    double sum = 0;
    int kinds = 0;
    for (std::size_t k = 0; k < a.kind_names.size() && k < b.kind_names.size(); ++k) {
        double const plain = median(a.samples(static_cast<int>(k)));
        double const traced = median(b.samples(static_cast<int>(k)));
        if (plain <= 0 || traced <= 0) continue;
        sum += traced / plain - 1.0;
        ++kinds;
    }
    rep.l("trace.overhead_pct", kinds > 0 ? sum / kinds * 100.0 : 0, "%");
    report_spans(static_cast<double>(run.traced.ops) * kRanks, opt, rep);
}

}  // namespace pb

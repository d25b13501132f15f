/// @file main.cpp
/// @brief Command line of the wall-clock benchmark:
///
///   perfbench --workload <small_coll|bulk_coll|apps|sim_scale> --seed N
///             --seconds S --trace 0|1 [--trace-dir DIR] [--corrupt-expectation]
///
/// Prints one `name = value unit` line per metric, then, as the last line,
/// {"correct", "attempted", "failed", "metrics"} as JSON: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Every
/// workload reports every metric of the selected set; a layer a workload
/// does not exercise reports 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

struct Declared {
    std::string name;
    std::string unit;
};

// Keep in step with BENCHMARK.json (run.py checks the two agree).
std::vector<Declared> const kEndToEnd = {
    {"setup_s", "s"},    {"ops_per_s", "1/s"},     {"op_p50_us", "us"},
    {"op_p90_us", "us"}, {"peak_rss_mib", "MiB"},
};

/// sim_scale's simulate cases, named <family>.<shape>[.p<P>].
char const* const kSimCases[] = {
    "bcast.flat",         "reduce.flat",         "allgather.flat",
    "allreduce.flat",     "alltoall.flat",       "bcast.block-512",
    "reduce.block-512",   "allgather.block-512", "allreduce.block-512",
    "alltoall.block-512", "bcast.ragged",        "reduce.ragged",
    "allgather.ragged",   "allreduce.ragged",    "alltoall.ragged",
    "allgather.block-512.p16384",
};

std::vector<Declared> per_layer_declared() {
    std::vector<Declared> d = {
        {"kamping.overhead_ratio.allreduce", "ratio"},
        {"kamping.overhead_ratio.bcast", "ratio"},
        {"kamping.overhead_ratio.allgatherv", "ratio"},
        {"kamping.overhead_ratio.alltoallv", "ratio"},
        {"kamping.inference_us.allgatherv", "us"},
        {"kamping.binding_share.sample_sort", "ratio"},
        {"kamping.binding_share.bfs", "ratio"},
        {"kamping.binding_share.label_prop", "ratio"},
        {"algorithms.raw_p50_us.allreduce", "us"},
        {"algorithms.raw_p50_us.bcast", "us"},
        {"algorithms.raw_p50_us.allgather", "us"},
        {"algorithms.raw_p50_us.allgatherv", "us"},
        {"algorithms.raw_p50_us.alltoallv", "us"},
        {"algorithms.persistent_p50_us.allreduce", "us"},
        {"algorithms.persistent_p50_us.bcast", "us"},
        {"algorithms.persistent_p50_us.allgather", "us"},
        {"algorithms.select_probe_us.allreduce", "us"},
        {"algorithms.select_probe_us.bcast", "us"},
        {"algorithms.select_probe_us.allgather", "us"},
        {"algorithms.schedule_builds_per_op", "count"},
        {"algorithms.cache_hit_ratio", "ratio"},
        {"algorithms.cache_hit_ratio_iqr", "ratio"},
        {"algorithms.peak_scratch_bytes", "B"},
        {"algorithms.selection_flips", "count"},
        {"p2p.pingpong_p50_us", "us"},
        {"p2p.messages_per_op", "count"},
        {"p2p.bytes_per_op", "B"},
        {"p2p.wait_ns_per_op", "ns"},
        {"p2p.wait_share", "ratio"},
        {"shm.copies_per_op", "count"},
        {"shm.copy_bytes_per_op", "B"},
        {"shm.drains_per_op", "count"},
        {"bulk.achieved_gbps", "GB/s"},
        {"bulk.bw_fraction", "ratio"},
        {"bulk.overlap_efficiency", "ratio"},
        {"progress.schedules_offloaded", "count"},
        {"machine.memcpy_gbps", "GB/s"},
        {"machine.memcpy_array_mib", "MiB"},
        {"machine.llc_mib", "MiB"},
        {"machine.cores", "count"},
        {"machine.ranks", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.build_share", "ratio"},
        {"sim.select_at_scale_us", "us"},
        {"sim.events", "count"},
        {"sim.tape_steps", "count"},
        {"sim.refusals", "count"},
        {"sim.model_out_of_range", "count"},
    };
    for (char const* c : kSimCases) d.push_back({std::string("sim.makespan_ns.") + c, "ns"});
    for (char const* c : kSimCases) d.push_back({std::string("sim.model_ratio.") + c, "ratio"});
    std::vector<Declared> const tail = {
        {"sample_sort_s", "s"},
        {"bfs_s", "s"},
        {"suffix_array_s", "s"},
        {"label_prop_s", "s"},
        {"trace.overhead_pct", "%"},
        {"trace.self_us.kamping", "us"},
        {"trace.self_us.mpi", "us"},
        {"trace.self_us.mpi_start", "us"},
        {"trace.self_us.mpi_wait", "us"},
        {"trace.self_us.sim_simulate", "us"},
        {"trace.self_us.sim_select", "us"},
        {"trace.self_us.app", "us"},
        {"trace.spans_dropped", "count"},
        {"error_rate", "ratio"},
    };
    d.insert(d.end(), tail.begin(), tail.end());
    return d;
}

[[noreturn]] void usage(char const* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<small_coll|bulk_coll|apps|sim_scale> --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR] [--corrupt-expectation]\n",
                 msg);
    std::exit(2);
}

/// Orders `got` by the declared list; unknown names and non-finite values
/// are errors, undeclared gaps are reported as 0 (layer not exercised).
bool resolve(std::vector<Declared> const& declared, std::vector<pb::Metric> const& got,
             std::vector<pb::Metric>& out) {
    bool ok = true;
    for (auto const& m : got) {
        bool known = false;
        for (auto const& d : declared) known = known || m.name == d.name;
        if (!known) {
            std::fprintf(stderr, "perfbench: undeclared metric %s\n", m.name.c_str());
            ok = false;
        }
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
            ok = false;
        }
    }
    for (auto const& d : declared) {
        double v = 0;
        for (auto const& m : got) {
            if (m.name == d.name) v = m.value;
        }
        out.push_back({d.name, v, d.unit});
    }
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    pb::Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string const a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = value();
        } else if (a == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
            have_seconds = true;
        } else if (a == "--trace") {
            std::string const v = value();
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            opt.trace = v == "1";
            have_trace = true;
        } else if (a == "--trace-dir") {
            opt.trace_dir = value();
        } else if (a == "--corrupt-expectation") {
            opt.corrupt_expectation = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    if (!(opt.seconds > 0) || opt.seconds > 600) usage("--seconds must be in (0, 600]");

    bool const threaded = opt.workload != "sim_scale";
    if (threaded && pb::host_cores() < pb::kRanks) {
        std::fprintf(stderr,
                     "perfbench: %d rank threads on %d cores would oversubscribe; refusing "
                     "to report wall-clock figures\n",
                     pb::kRanks, pb::host_cores());
        return 3;
    }

    pb::Report rep;
    try {
        if (opt.workload == "small_coll") {
            pb::small_coll(opt, rep);
        } else if (opt.workload == "bulk_coll") {
            pb::bulk_coll(opt, rep);
        } else if (opt.workload == "apps") {
            pb::apps(opt, rep);
        } else if (opt.workload == "sim_scale") {
            pb::sim_scale(opt, rep);
        } else {
            usage(("unknown workload " + opt.workload).c_str());
        }
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    if (rep.attempted == 0) {
        std::fprintf(stderr, "perfbench: no op completed\n");
        return 1;
    }

    std::vector<pb::Metric> out;
    bool ok;
    if (opt.trace) {
        pb::MemcpyCal const cal = pb::calibrate_memcpy();
        rep.l("machine.memcpy_gbps", cal.gbps, "GB/s");
        rep.l("machine.memcpy_array_mib", cal.array_mib, "MiB");
        rep.l("machine.llc_mib", cal.llc_mib, "MiB");
        double achieved = 0;
        for (auto const& m : rep.layer) {
            if (m.name == "bulk.achieved_gbps") achieved = m.value;
        }
        rep.l("bulk.bw_fraction", cal.gbps > 0 ? achieved / cal.gbps : 0, "ratio");
        rep.l("machine.cores", pb::host_cores(), "count");
        rep.l("machine.ranks", threaded ? pb::kRanks : 1, "count");
        rep.l("error_rate",
              static_cast<double>(rep.failed + rep.refused) / static_cast<double>(rep.attempted),
              "ratio");
        ok = resolve(per_layer_declared(), rep.layer, out);
    } else {
        ok = resolve(kEndToEnd, rep.e2e, out);
        for (auto const& d : kEndToEnd) {
            bool found = false;
            for (auto const& m : rep.e2e) found = found || m.name == d.name;
            if (!found) {
                std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n", d.name.c_str());
                ok = false;
            }
        }
    }
    if (!ok) return 1;

    for (auto const& [family, alg] : rep.selected) {
        std::printf("selected %s %s\n", family.c_str(), alg.c_str());
    }
    for (auto const& m : out) std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                rep.failed == 0 ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    out[i].name.c_str(), out[i].value, out[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}

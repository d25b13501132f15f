/// @file sim_scale.cpp
/// @brief Workload `sim_scale`: one thread runs passes of sim::simulate for
/// the five auto-selected families on flat, block-512 and ragged (384/640
/// ranks per node) maps at p = 4096 and of sim::select_at_scale for every
/// family and shape at p = 2^12..2^20; after the passes, block-512
/// allgather at p = 16384 probes the step cap once. No rank thread runs:
/// selection and dry schedule builds do the work.
///
/// Predictions must repeat bit-exactly: a result that differs from the
/// first pass's result for the same case counts as failed. A simulator
/// refusal (an error code, such as the step cap) and a makespan more than
/// 16x off the closed-form model are known simulator defects; they are counted
/// in sim.refusals / sim.model_out_of_range and in error_rate, never
/// dropped.
#include <cmath>
#include <cstdio>
#include <random>

#include "bench/model/analytic.hpp"
#include "src/xmpi/sim/sim.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "spans.hpp"
#include "threaded.hpp"

namespace pb {
namespace {

namespace sim = xmpi::detail::sim;
namespace topo = xmpi::detail::topo;
namespace model = bench::model;
using sim::Family;

constexpr Family kFamilies[] = {Family::bcast, Family::reduce, Family::allgather,
                                Family::allreduce, Family::alltoall};
constexpr char const* kFamilyNames[] = {"bcast", "reduce", "allgather", "allreduce", "alltoall"};
constexpr int kSelectP[] = {1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20};

/// Ragged shape: nodes alternate between 3/4 and 5/4 of `mean_ppn` ranks.
std::vector<int> ragged_map(int p, int mean_ppn) {
    int const lo = mean_ppn * 3 / 4;
    int const hi = mean_ppn + (mean_ppn - lo);
    std::vector<int> sizes;
    int placed = 0;
    while (placed < p) {
        int next = (sizes.size() % 2 == 0) ? lo : hi;
        if (next > p - placed) next = p - placed;
        sizes.push_back(next);
        placed += next;
    }
    return topo::node_map_from_sizes(sizes);
}

std::vector<int> shape_map(int shape, int p) {
    if (shape == 1) return topo::block_map(p, 512);
    if (shape == 2) return ragged_map(p, 512);
    return {};
}
constexpr char const* kShapeNames[] = {"flat", "block-512", "ragged"};

model::NodeShape node_shape(std::vector<int> const& node_map, int p) {
    model::NodeShape s;
    if (node_map.empty()) {
        s.nodes = p;
        s.max_ppn = s.min_ppn = 1;
        return s;
    }
    int nodes = 0;
    for (int n : node_map) nodes = std::max(nodes, n + 1);
    std::vector<int> sizes(static_cast<std::size_t>(nodes), 0);
    for (int n : node_map) ++sizes[static_cast<std::size_t>(n)];
    s.nodes = nodes;
    s.max_ppn = *std::max_element(sizes.begin(), sizes.end());
    s.min_ppn = *std::min_element(sizes.begin(), sizes.end());
    return s;
}

/// Closed-form cost of the simulated algorithm; -1 if the model has none.
double model_cost(Family f, std::string const& alg, xmpi::Config const& cfg,
                  std::vector<int> const& node_map, double p, double bytes) {
    model::Machine m;
    m.alpha = cfg.alpha;
    m.beta = cfg.beta;
    m.o = cfg.o;
    if (alg == "hierarchical") {
        model::TwoTier t;
        t.inter = m;
        t.intra.alpha = cfg.alpha_intra;
        t.intra.beta = cfg.beta_intra;
        t.intra.o = cfg.o_intra;
        model::NodeShape const s = node_shape(node_map, static_cast<int>(p));
        switch (f) {
            case Family::bcast: return model::bcast_hier(t, s, p, bytes);
            case Family::reduce: return model::reduce_hier(t, s, p, bytes);
            case Family::allgather: return model::allgather_hier(t, s, p, bytes);
            case Family::allreduce: return model::allreduce_hier(t, s, p, bytes, true, true);
            case Family::alltoall: return model::alltoall_hier(t, s, p, bytes);
        }
    }
    switch (f) {
        case Family::bcast:
            if (alg == "flat") return model::bcast_flat(m, p, bytes);
            if (alg == "binomial") return model::bcast_binomial(m, p, bytes);
            if (alg == "ring") return model::bcast_ring_pipelined(m, p, bytes);
            break;
        case Family::reduce:
            if (alg == "flat") return model::reduce_flat(m, p, bytes);
            if (alg == "binomial") return model::reduce_binomial(m, p, bytes);
            break;
        case Family::allgather:
            if (alg == "flat") return model::allgather_flat(m, p, bytes);
            if (alg == "rdoubling") return model::allgather_rdoubling(m, p, bytes);
            if (alg == "ring") return model::allgather_ring(m, p, bytes);
            break;
        case Family::allreduce:
            if (alg == "flat") return model::allreduce_flat(m, p, bytes);
            if (alg == "binomial") return model::allreduce_binomial(m, p, bytes);
            if (alg == "rdoubling") return model::allreduce_rdoubling(m, p, bytes);
            if (alg == "rabenseifner") return model::allreduce_rabenseifner(m, p, bytes);
            if (alg == "ring") return model::allreduce_ring(m, p, bytes);
            break;
        case Family::alltoall:
            if (alg == "flat") return model::alltoall_flat(m, p, bytes);
            if (alg == "bruck") return model::alltoall_bruck(m, p, bytes);
            break;
    }
    return -1.0;
}

struct Case {
    std::string name;  ///< <family>.<shape>[.p<P>]
    int p = 4096;
    /// The step-cap probe: its tape is expected to exceed the simulator's
    /// step cap. A refusal gives no prediction, and building up to the cap
    /// is page-fault bound, so it runs once per run after the timed passes
    /// (still counted in sim.refusals and error_rate), not in every pass.
    bool probe = false;
    sim::World world;
    sim::CollSpec spec;
    // First pass's result, which every later pass must reproduce.
    bool have_first = false;
    sim::Result first;
    double ratio = 0;
};

struct SelectCase {
    sim::World world;
    sim::CollSpec spec;
};

struct Setup {
    std::vector<Case> cases;
    std::vector<SelectCase> selects;
};

Setup make_setup(std::uint64_t seed) {
    Setup s;
    std::mt19937_64 rng(seed);
    xmpi::Config const cfg;
    auto add = [&](int f, int shape, int p, std::string name) {
        Case c;
        c.name = std::move(name);
        c.p = p;
        c.world.size = p;
        c.world.node_map = shape_map(shape, p);
        c.world.cfg = cfg;
        c.spec.family = kFamilies[f];
        // The smoke sizes: 4 KiB vectors for the rooted/allreduce families,
        // 8 B blocks for the quadratic-volume families.
        bool const per_block = c.spec.family == Family::allgather || c.spec.family == Family::alltoall;
        c.spec.count = per_block ? 8 : 1024;
        c.spec.elem_size = per_block ? 1 : 4;
        c.spec.root = static_cast<int>(rng() % static_cast<std::uint64_t>(p));
        s.cases.push_back(std::move(c));
    };
    for (int shape = 0; shape < 3; ++shape) {
        for (int f = 0; f < 5; ++f) add(f, shape, 4096, std::string(kFamilyNames[f]) + "." + kShapeNames[shape]);
    }
    add(2, 1, 16384, "allgather.block-512.p16384");
    s.cases.back().probe = true;
    for (int p : kSelectP) {
        for (int shape = 0; shape < 3; ++shape) {
            for (int f = 0; f < 5; ++f) {
                SelectCase sc;
                sc.world.size = p;
                sc.world.node_map = shape_map(shape, p);
                sc.world.cfg = cfg;
                sc.spec.family = kFamilies[f];
                sc.spec.count = 1024;
                sc.spec.elem_size = 4;
                s.selects.push_back(std::move(sc));
            }
        }
    }
    return s;
}

struct PhaseStats {
    LatencyLog log;
    double build_s = 0;
    double run_s = 0;
    std::uint64_t events = 0;
    std::uint64_t steps = 0;
    long passes = 0;
    long refusals = 0;
    long out_of_range = 0;
    std::vector<double> select_us;
};

/// Simulates one case and checks it against its first result.
void run_case(Case& c, PhaseStats& ph, Oracle& oracle) {
    xmpi::Config const cfg;
    sim::Result res;
    {
        spans::Scope span("sim.simulate");
        res = sim::simulate(c.world, c.spec);
    }
    ph.build_s += res.build_seconds;
    ph.run_s += res.run_seconds;
    ph.events += res.events;
    ph.steps += res.tape_steps;
    if (!c.have_first) {
        c.first = res;
        c.have_first = true;
        double const bytes = static_cast<double>(c.spec.bytes());
        double const ref = res.error == MPI_SUCCESS
                               ? model_cost(c.spec.family, res.alg_name, cfg, c.world.node_map, c.p, bytes)
                               : -1;
        c.ratio = ref > 0 ? res.makespan / ref : 0;
    }
    bool const same = res.error == c.first.error && res.makespan == c.first.makespan &&
                      res.events == c.first.events && res.tape_steps == c.first.tape_steps;
    bool const sane = res.error != MPI_SUCCESS || (std::isfinite(res.makespan) && res.makespan > 0 && res.events > 0);
    if (!oracle.expect(same && sane)) return;
    if (res.error != MPI_SUCCESS) {
        ++ph.refusals;
    } else if (c.ratio > 0 && (c.ratio < 1.0 / 16 || c.ratio > 16)) {
        ++ph.out_of_range;
    }
}

/// One pass: every simulate case but the probe once, then the selection
/// sweep.
void pass(Setup& s, PhaseStats& ph, Oracle& oracle) {
    for (Case& c : s.cases) {
        if (!c.probe) run_case(c, ph, oracle);
    }
    for (SelectCase const& sc : s.selects) {
        std::int64_t const t0 = now_ns();
        int alg = -1;
        {
            spans::Scope span("sim.select_at_scale");
            alg = sim::select_at_scale(sc.world, sc.spec);
        }
        ph.select_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        oracle.expect(alg >= 0);
    }
    ++ph.passes;
}

/// Whole passes until `seconds` have elapsed. A pass is the workload's op:
/// its cases differ in cost by three orders of magnitude, so percentiles
/// over single calls would sit on the boundary between two cases.
void run_phase(Setup& s, PhaseStats& ph, Oracle& oracle, double seconds) {
    ph.log.prepare(std::size_t{1} << 12, std::size_t{1} << 12);
    int const kind = ph.log.kind("pass");
    std::int64_t const t0 = now_ns();
    ph.log.start_ns = t0;
    do {
        std::int64_t const p0 = now_ns();
        pass(s, ph, oracle);
        ph.log.add(kind, now_ns() - p0);
        ph.log.end_round(1);
    } while (now_ns() - t0 < static_cast<std::int64_t>(seconds * 1e9));
}

}  // namespace

void sim_scale(Options const& opt, Report& rep) {
    Oracle oracle;
    oracle.corrupt = opt.corrupt_expectation;
    // Set-up: node maps and specs, then one warm-up simulation of the
    // cheapest case.
    std::vector<double> setups;
    Setup s;
    for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
        std::int64_t const t0 = now_ns();
        s = make_setup(opt.seed);
        for (Case const& c : s.cases) {
            if (c.name == "bcast.flat") sim::simulate(c.world, c.spec);
        }
        setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    PhaseStats plain, traced;
    double const split = opt.trace ? opt.seconds / 2 : opt.seconds;
    run_phase(s, plain, oracle, split);
    if (opt.trace) {
        spans::attach(0);
        spans::set_enabled(true);
        run_phase(s, traced, oracle, split);
        spans::set_enabled(false);
        spans::detach();
    }
    PhaseStats probe;
    for (Case& c : s.cases) {
        if (c.probe) run_case(c, probe, oracle);
    }
    rep.attempted = oracle.attempted;
    rep.failed = oracle.failed;
    rep.refused = static_cast<std::uint64_t>(plain.refusals + plain.out_of_range + traced.refusals +
                                             traced.out_of_range + probe.refusals + probe.out_of_range);

    rep.e("setup_s", median(setups), "s");
    // The few passes of a run form a single window.
    WindowStats const w = window_stats(plain.log);
    rep.e("ops_per_s", w.ops_per_s, "1/s");
    rep.e("op_p50_us", w.p50_us, "us");
    rep.e("op_p90_us", w.p90_us, "us");
    rep.e("peak_rss_mib", peak_rss_mib(), "MiB");
    for (Case const& c : s.cases) {
        rep.selected.emplace_back("sim_scale." + c.name, c.first.error == MPI_SUCCESS ? c.first.alg_name : "refused");
        std::fprintf(stderr, "sim %-28s %-13s makespan %.6g s ratio %.4g %s\n", c.name.c_str(),
                     c.first.alg_name, c.first.makespan, c.ratio, c.first.detail.c_str());
    }
    if (!opt.trace) return;

    double const passes = static_cast<double>(plain.passes);
    rep.l("sim.events_per_s", plain.run_s > 0 ? static_cast<double>(plain.events) / plain.run_s : 0, "1/s");
    rep.l("sim.build_share", plain.build_s + plain.run_s > 0 ? plain.build_s / (plain.build_s + plain.run_s) : 0,
          "ratio");
    rep.l("sim.select_at_scale_us", median(plain.select_us), "us");
    rep.l("sim.events", static_cast<double>(plain.events) / passes, "count");
    rep.l("sim.tape_steps", static_cast<double>(plain.steps) / passes, "count");
    rep.l("sim.refusals", static_cast<double>(plain.refusals) / passes + static_cast<double>(probe.refusals),
          "count");
    rep.l("sim.model_out_of_range",
          static_cast<double>(plain.out_of_range) / passes + static_cast<double>(probe.out_of_range), "count");
    for (Case const& c : s.cases) {
        rep.l("sim.makespan_ns." + c.name, c.first.error == MPI_SUCCESS ? c.first.makespan * 1e9 : 0, "ns");
        rep.l("sim.model_ratio." + c.name, c.ratio, "ratio");
    }
    double const plain_p50 = median(plain.log.samples());
    double const traced_p50 = median(traced.log.samples());
    rep.l("trace.overhead_pct", plain_p50 > 0 ? (traced_p50 / plain_p50 - 1) * 100 : 0, "%");
    report_spans(static_cast<double>(traced.passes), opt, rep);
}

}  // namespace pb

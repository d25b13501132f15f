/// @file threaded.hpp
/// @brief The closed-loop harness shared by the threaded workloads: set up
/// kSetupReps universes of kRanks rank threads (the last one is kept), then
/// run the timed phase, and in a traced run a second, traced phase of the
/// same length for the span breakdown.
#pragma once

#include <array>

#include "common.hpp"
#include "spans.hpp"

namespace pb {

/// Latency-log capacity of one phase: room for a minute of small_coll.
inline constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
inline constexpr std::size_t kMaxRounds = std::size_t{1} << 18;

struct Phase {
    LatencyLog log;       ///< rank 0's op latencies and round timeline
    CounterSnap delta;    ///< summed over ranks (peak scratch: max)
    double wall_s = 0;    ///< phase wall time on rank 0
    long ops = 0;         ///< ops rank 0 completed
};

struct ThreadedRun {
    double setup_s = 0;   ///< median over kSetupReps set-ups
    Phase plain;          ///< untraced phase (all end-to-end figures)
    Phase traced;         ///< traced phase (only with --trace 1)
};

/// Times `f` into `log` as one op of `kind` (rank 0 only: log non-null).
template <typename F>
void timed(LatencyLog* log, int kind, F&& f) {
    if (log == nullptr) {
        f();
        return;
    }
    std::int64_t const t0 = now_ns();
    f();
    log->add(kind, now_ns() - t0);
}

/// `State(rank, shared)` performs one rank's set-up (inputs, references,
/// persistent inits, warm-up); `state.round(r, log)` runs one round and
/// returns the ops it completed; `state.finish()` releases MPI resources.
template <typename State, typename Shared>
ThreadedRun run_threaded(Options const& opt, xmpi::Config const& cfg, Shared& shared) {
    ThreadedRun out;
    std::vector<double> setups;
    std::array<CounterSnap, kRanks> before{}, after{};

    // Process-wide counters (shm drains, progress offloads) are read by
    // rank 0 between barriers; they include the phase's barriers.
    CounterSnap wide_before, wide_after;
    auto snapshot_wide = [&](int rank, CounterSnap& into) {
        MPI_Barrier(MPI_COMM_WORLD);
        if (rank == 0) add_process_wide(into);
        MPI_Barrier(MPI_COMM_WORLD);
    };
    auto sum = [&](Phase& ph) {
        for (std::size_t r = 0; r < kRanks; ++r) ph.delta += after[r] - before[r];
        ph.delta += wide_after - wide_before;
    };
    StopFlag stop_plain, stop_traced;
    auto phase = [&](int rank, State& st, Phase& ph, StopFlag& stop, double seconds) {
        if (rank == 0) ph.log.prepare(kMaxSamples, kMaxRounds);
        snapshot_wide(rank, wide_before);
        LatencyLog* log = rank == 0 ? &ph.log : nullptr;
        std::int64_t const t0 = now_ns();
        auto const me = static_cast<std::size_t>(rank);
        timed_loop(rank, seconds, stop, log, [&](long r) { return st.round(r, log); }, before[me],
                   after[me]);
        if (rank == 0) {
            ph.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
            ph.ops = ph.log.ops();
        }
        snapshot_wide(rank, wide_after);
        if (rank == 0) sum(ph);
    };

    for (int rep = 0; rep < kSetupReps; ++rep) {
        bool const keep = rep == kSetupReps - 1;
        std::int64_t const t0 = now_ns();
        xmpi::run(
            kRanks,
            [&](int rank) {
                State st(rank, shared);
                MPI_Barrier(MPI_COMM_WORLD);
                if (rank == 0) setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
                if (keep) {
                    double const split = opt.trace ? opt.seconds / 2 : opt.seconds;
                    phase(rank, st, out.plain, stop_plain, split);
                    if (opt.trace) {
                        spans::attach(rank);
                        MPI_Barrier(MPI_COMM_WORLD);
                        if (rank == 0) spans::set_enabled(true);
                        phase(rank, st, out.traced, stop_traced, split);
                        if (rank == 0) spans::set_enabled(false);
                        MPI_Barrier(MPI_COMM_WORLD);
                        spans::detach();
                    }
                }
                st.finish();
            },
            cfg);
    }
    out.setup_s = median(setups);
    return out;
}

/// The end-to-end metrics every threaded workload reports from its
/// untraced phase.
void report_e2e(ThreadedRun const& run, Report& rep);
/// Counter-derived per-layer metrics of a phase (per op of rank 0).
void report_counters(Phase const& ph, Report& rep);
/// Span self times per op of the traced phase, and the tracing overhead:
/// the mean over op kinds of the change of the median latency against the
/// untraced phase.
void report_trace(ThreadedRun const& run, Options const& opt, Report& rep);
/// Span self times per rank-op (`ops` counts every rank's ops; grouped by
/// layer), dropped spans, and the span
/// file written to the trace directory; forgets the recorded spans.
void report_spans(double ops, Options const& opt, Report& rep);

}  // namespace pb

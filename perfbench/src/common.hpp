/// @file common.hpp
/// @brief Shared pieces of the wall-clock benchmark: options, the metric
/// list printed as JSON, percentile helpers, the correctness oracle, the
/// closed-loop timing of rank threads, and counter snapshots taken through
/// the library's public introspection (xmpi::counters_now, XMPI_T_pvar_*).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace pb {

/// Rank threads of every threaded workload. The host must have at least
/// this many cores, or wall-clock figures are refused.
inline constexpr int kRanks = 4;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Test hook: every oracle comparison is made against a wrong expected
    /// value, so a working oracle must report failures.
    bool corrupt_expectation = false;
    /// Where the traced run writes its spans.
    std::string trace_dir = ".";
};

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Quantile by linear interpolation between closest ranks; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Ops a layer refused without a wrong result (sim_scale's simulator
    /// refusals and model disagreements); they count in error_rate.
    std::uint64_t refused = 0;
    /// End-to-end metrics (printed with --trace 0).
    std::vector<Metric> e2e;
    /// Per-layer metrics (printed with --trace 1).
    std::vector<Metric> layer;
    /// Selected algorithm per family, printed as an informational line.
    std::vector<std::pair<std::string, std::string>> selected;

    void add(std::vector<Metric>& to, std::string name, double v, std::string unit) {
        to.push_back({std::move(name), v, std::move(unit)});
    }
    void e(std::string name, double v, std::string unit) { add(e2e, std::move(name), v, std::move(unit)); }
    void l(std::string name, double v, std::string unit) { add(layer, std::move(name), v, std::move(unit)); }
};

/// Counts attempted ops and oracle failures across all rank threads.
struct Oracle {
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
    bool corrupt = false;

    /// Counts one attempted op that produced `got` where `want` was expected.
    template <typename T>
    bool expect_eq(T const& got, T const& want) {
        return expect(got == want);
    }
    /// Counts one attempted op whose check came out `ok`.
    bool expect(bool ok) {
        attempted.fetch_add(1, std::memory_order_relaxed);
        if (corrupt) ok = false;
        if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
        return ok;
    }
    /// Counts one attempted op that failed with an MPI error code.
    void mpi_error() {
        attempted.fetch_add(1, std::memory_order_relaxed);
        failed.fetch_add(1, std::memory_order_relaxed);
    }
};

/// Per-op latency samples of rank 0, tagged by op kind, plus the round
/// completion timeline the windows are cut from. Storage is allocated and
/// touched up front (prepare), so the benchmark's own memory does not grow
/// with the number of ops and peak_rss_mib measures the library.
struct LatencyLog {
    struct Round {
        std::int64_t end_ns;
        int ops;
        std::size_t samples_end;
    };
    std::vector<std::string> kind_names;
    /// Kinds whose samples are end-to-end ops (the rest are details, such
    /// as the single solutions inside an apps round).
    std::vector<char> kind_is_op;
    std::vector<float> us;
    std::vector<std::uint8_t> kinds;
    std::vector<Round> rounds;
    std::size_t n = 0;
    std::size_t n_rounds = 0;
    std::uint64_t dropped = 0;
    std::int64_t start_ns = 0;

    void prepare(std::size_t max_samples, std::size_t max_rounds);
    int kind(std::string const& name, bool op = true);
    void add(int k, std::int64_t ns) {
        if (n == us.size()) {
            ++dropped;
            return;
        }
        us[n] = static_cast<float>(static_cast<double>(ns) * 1e-3);
        kinds[n++] = static_cast<std::uint8_t>(k);
    }
    void end_round(int ops) {
        if (n_rounds < rounds.size()) rounds[n_rounds++] = {now_ns(), ops, n};
    }
    /// Samples (microseconds) of kind `k`, or of every op kind for k < 0.
    std::vector<double> samples(int k = -1) const;
    /// Median of kind `name`; 0 when absent.
    double p50(std::string const& name) const;
    long ops() const;
};

/// End-to-end figures of one phase. The phase is cut into consecutive
/// windows of whole rounds, each spanning at least 0.5 s and 16 ops.
/// Interference from other tenants of the host only ever adds time, so each
/// figure is taken from the faster quarter of the windows: the 75th
/// percentile of the window rates and the 25th percentile of the window
/// latency percentiles. A burst that covers up to three quarters of the
/// windows then does not move them.
struct WindowStats {
    double ops_per_s = 0;
    double p50_us = 0;
    double p90_us = 0;
    int windows = 0;
};
WindowStats window_stats(LatencyLog const& log);

/// Counter deltas summed over every rank of a universe. The schedule and
/// message counts come from xmpi::counters_now(); wait time from the
/// `p2p.wait_time_ns` pvar; shm and progress counts are process-wide pvars.
struct CounterSnap {
    std::uint64_t messages = 0;  ///< p2p + collective messages
    std::uint64_t bytes = 0;     ///< p2p + collective payload bytes
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
    std::uint64_t peak_scratch = 0;  ///< max, not summed
    std::uint64_t wait_ns = 0;
    std::uint64_t shm_copies = 0;
    std::uint64_t shm_copy_bytes = 0;
    std::uint64_t shm_drains = 0;
    std::uint64_t offloaded = 0;

    CounterSnap operator-(CounterSnap const& o) const;
    /// Sums every field but peak_scratch, which takes the maximum.
    CounterSnap& operator+=(CounterSnap const& o);
};

/// Reads pvar `name` (first value); 0 when it does not exist or is not
/// readable from the calling thread.
std::uint64_t pvar(char const* name);

/// The calling rank's counters (the process-wide fields stay 0;
/// add_process_wide fills them).
CounterSnap rank_counters();
void add_process_wide(CounterSnap& s);

/// Shared state of one closed-loop timed phase: rank 0 alone watches the
/// clock and publishes the round after which every rank stops.
struct StopFlag {
    std::atomic<long> stop_round{LONG_MAX};
};

/// Runs `round(r)` on every rank until rank 0 has seen `seconds` elapse.
/// Each round must contain at least one operation that needs every rank
/// (an allreduce, an alltoall or a barrier): no rank can then finish round
/// r before rank 0 has entered it, so when rank 0 publishes "stop after
/// round r" at the top of round r, no rank has passed that boundary yet.
/// Rank 0 logs round completion into `log` (when non-null). Each rank
/// reads its own counters right before its first and right after its last
/// round, so the delta holds whole rounds only and per-op counts repeat
/// exactly.
void timed_loop(int rank, double seconds, StopFlag& stop, LatencyLog* log,
                std::function<int(long)> const& round, CounterSnap& before,
                CounterSnap& after);

/// Single-thread memcpy bandwidth and the array and cache sizes behind it.
struct MemcpyCal {
    double gbps = 0;
    double array_mib = 0;
    double llc_mib = 0;
};
/// Calibrates memcpy bandwidth on arrays at least 4x the last-level cache.
MemcpyCal calibrate_memcpy();

double peak_rss_mib();
int host_cores();

inline void check_mpi(int rc, Oracle& o) {
    if (rc != MPI_SUCCESS) o.mpi_error();
}

/// A 64-bit mixer (splitmix64 finalizer): input stamps and the summands of
/// multiset checksums.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Element i of rank r's contribution to the collective stamped `base`;
/// the collective workloads check results against closed forms of it.
inline std::uint64_t val(std::uint64_t base, int r, std::size_t i) {
    return base + static_cast<std::uint64_t>(r) * 1000003u + i;
}
inline void fill_val(std::vector<std::uint64_t>& v, std::uint64_t base, int r) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = val(base, r, i);
}
inline void poison(std::vector<std::uint64_t>& v) { std::fill(v.begin(), v.end(), ~std::uint64_t{0}); }

/// The workloads. Each fills `rep` with its metrics.
void small_coll(Options const& opt, Report& rep);
void bulk_coll(Options const& opt, Report& rep);
void apps(Options const& opt, Report& rep);
void sim_scale(Options const& opt, Report& rep);

/// Untimed rounds in set-up: the collective workloads rotate the bcast
/// root per round, so after kRanks rounds every schedule is built and the
/// next round hits the cache for each of them.
inline constexpr long kWarmupRounds = kRanks + 1;

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

}  // namespace pb

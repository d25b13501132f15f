/// @file trace.hpp
/// @brief Event tracing: per-rank lock-free ring buffers of fixed-size binary
/// records, a Chrome-trace-event JSON exporter, an MPI_T-style pvar registry
/// and per-invocation critical-path attribution. The whole subsystem costs a
/// single relaxed atomic load + branch per hook site when `XMPI_TRACE` is
/// unset.
///
/// Knobs (all read lazily at the first universe launch, re-read after
/// `XMPI_T_alg_env_refresh`):
///   XMPI_TRACE=<path>         enable tracing; merged Chrome trace-event JSON
///                             is written to <path> when the universe ends.
///                             An empty value leaves tracing off.
///   XMPI_TRACE_RING_EVENTS=N  per-rank ring capacity in events (rounded up
///                             to a power of two, default 65536). A garbage
///                             value warns once and disables tracing for the
///                             run; it never aborts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "xmpi/xmpi.hpp"

namespace xmpi::detail {

struct Universe;

namespace trace {

// ---------------------------------------------------------------------------
// Event kinds. Values are stable: they appear verbatim in exported traces.
// ---------------------------------------------------------------------------
enum class Ev : std::uint8_t {
    coll_enter = 0,  ///< blocking collective entered (family/alg/bytes/seq)
    coll_exit,       ///< blocking collective returned
    send,            ///< p2p deposit priced on the wire (peer = dest world)
    post,            ///< receive posted (peer = source comm rank or ANY)
    recv_done,       ///< receive completed (peer = source world, seq = context)
    wait_begin,      ///< entering a blocking wait that actually sleeps
    wait_end,        ///< leaving that wait (bytes = wall ns spent asleep)
    sched_build,     ///< schedule compiled for a collective invocation
    sched_cache_hit, ///< schedule reused from the per-communicator cache
    sched_arm,       ///< persistent schedule re-armed by MPI_Start
    step_send,       ///< executor issued a send step (peer = dest world)
    step_post,       ///< executor issued a post_recv step (peer = src world)
    step_wait,       ///< executor blocked on a recv slot (peer = slot index)
    step_local,      ///< executor ran a local compute/copy step
    sched_done,      ///< schedule ran to completion
    tune_probe,      ///< feedback loop forced a non-preferred algorithm
    tune_demote,     ///< feedback loop demoted the model's choice
    tune_recover,    ///< feedback loop recovered a demoted algorithm
    step_copy_pub,   ///< executor published a buffer for direct peer reads
                     ///< (tag = rendezvous cell id, bytes = published size)
    step_copy_get,   ///< executor copied directly out of a peer buffer
                     ///< (peer = producer world, tag = cell id)
    prog_offload,    ///< armed schedule handed to the progress engine
                     ///< (emitted by the initiating app thread; bytes =
                     ///< schedule comm_bytes)
    prog_step,       ///< progress thread advanced an offloaded schedule
                     ///< (peer = steps advanced this pass, rank = owner)
    prog_complete,   ///< progress thread completed an offloaded schedule
                     ///< (bytes = error code, rank = owner)
};

inline constexpr int kEvKinds = 23;

/// Human-readable name for an event kind (used by the JSON exporter and
/// tests). Returns "?" for out-of-range values.
char const* ev_name(Ev kind);

// ---------------------------------------------------------------------------
// Binary record: 40 bytes, fixed layout, written by exactly one rank thread.
// ---------------------------------------------------------------------------
struct Record {
    double vtime = 0.0;        ///< recording rank's virtual clock (seconds)
    std::uint64_t seq = 0;     ///< collective seq or p2p context id
    std::uint64_t bytes = 0;   ///< payload bytes (or wall ns for wait_end)
    std::int32_t rank = -1;    ///< world rank of the recording rank
    std::int32_t peer = -1;    ///< peer world rank / wait slot; -1 if n/a
    std::int32_t tag = -1;     ///< full message tag; -1 if n/a
    std::uint8_t kind = 0;     ///< Ev
    std::uint8_t family = 0xff;///< alg::Family, 0xff if n/a
    std::uint8_t alg = 0xff;   ///< algorithm index within family, 0xff if n/a
    std::uint8_t pad = 0;
};

static_assert(sizeof(Record) == 40, "trace records are fixed-size binary");

// ---------------------------------------------------------------------------
// Per-rank ring. Single writer (the owning rank thread); snapshots are taken
// only after the rank thread has joined, so no reader synchronization is
// needed. Overflow overwrites the oldest record and is counted, never blocks.
// ---------------------------------------------------------------------------
class Ring {
public:
    explicit Ring(std::size_t capacity);

    void push(Record const& r) {
        buf_[static_cast<std::size_t>(count_ & mask_)] = r;
        ++count_;
    }

    std::size_t capacity() const { return buf_.size(); }
    /// Total events ever pushed (including overwritten ones).
    std::uint64_t recorded() const { return count_; }
    /// Events lost to overflow.
    std::uint64_t dropped() const {
        return count_ > buf_.size() ? count_ - buf_.size() : 0;
    }
    /// Retained records, oldest first.
    std::vector<Record> snapshot() const;

private:
    std::vector<Record> buf_;
    std::uint64_t mask_ = 0;
    std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Hot-path hook. `g_on` is set only while a traced universe is running, so
// with XMPI_TRACE unset every instrumented site reduces to one relaxed load
// and an untaken branch.
// ---------------------------------------------------------------------------
extern std::atomic<bool> g_on;

inline bool on() { return g_on.load(std::memory_order_relaxed); }

/// Out-of-line slow path: resolves tls_rank() and appends to its ring (or
/// to the calling thread's bound engine ring, see bind_thread_ring).
void emit(Ev kind, int peer, int tag, std::uint64_t bytes, std::uint64_t seq,
          int family = -1, int alg = -1);

/// Allocates and registers a ring for one asynchronous-progress-engine
/// thread of the running traced universe; returns nullptr when tracing is
/// off. Engine rings are merged at end_universe and exported on their own
/// "progress <idx>" lane (records still carry the *owning* rank in
/// Record::rank, so flow pairing and attribution see the same identities
/// as a synchronous run).
Ring* add_engine_ring(Universe& u, int thread_idx);

/// Marks the calling thread as an engine thread and binds its trace
/// emission to `ring` (records are tagged with lane `1 + thread_idx` in
/// Record::pad). With `ring == nullptr` the thread's events are dropped —
/// an engine thread must never write the owning rank's single-writer ring.
void bind_thread_ring(Ring* ring, int thread_idx);

/// The hook: call freely from any hot path.
inline void ev(Ev kind, int peer, int tag, std::uint64_t bytes,
               std::uint64_t seq, int family = -1, int alg = -1) {
    if (on()) emit(kind, peer, tag, bytes, seq, family, alg);
}

// ---------------------------------------------------------------------------
// Lifecycle, driven by xmpi::run().
// ---------------------------------------------------------------------------

/// Resolves the env knobs (once per refresh) and, when tracing is enabled,
/// allocates one ring per rank and raises `g_on`.
void begin_universe(Universe& u);

/// Merges the per-rank rings (all rank threads have joined), stashes the
/// merged timeline for pvar/attribution access, writes the Chrome
/// trace-event JSON if a path was configured, and lowers `g_on`.
void end_universe(Universe& u);

/// Forgets the cached env resolution; next begin_universe re-reads.
/// Called by XMPI_T_alg_env_refresh.
void refresh_env();

// ---------------------------------------------------------------------------
// Merged last-run timeline (available after end_universe; used by the pvar
// registry outside rank context, by attribution, and by tests).
// ---------------------------------------------------------------------------
struct LastRun {
    bool valid = false;
    int world_size = 0;
    std::vector<Record> records;  ///< merged, sorted by (vtime, rank)
    std::vector<int> node_of_world;
    Config cfg;
    std::uint64_t recorded = 0;  ///< sum over ranks, incl. dropped
    std::uint64_t dropped = 0;
    std::uint64_t wait_ns = 0;   ///< summed RankState::wait_time_ns
    std::uint64_t wait_parks = 0;  ///< summed RankState::wait_parks
    std::uint64_t cpu_samples = 0;  ///< summed RankState::cpu_samples
};

/// Copy of the last traced run's merged state (empty/invalid if none).
LastRun last_run();

// ---------------------------------------------------------------------------
// Latency histograms: log2-bucketed elapsed virtual time per
// (family, selected algorithm, log2 payload size). Fed by every blocking
// algorithm-backed collective regardless of XMPI_TRACE. Exposed as
// `hist.<family>.<alg>` pvars of kHistSizeBuckets * kHistLatBuckets values.
// ---------------------------------------------------------------------------
inline constexpr int kHistFamilies = 5;
inline constexpr int kHistMaxAlg = 8;
inline constexpr int kHistSizeBuckets = 25;  ///< log2(bytes), clamped to 24
inline constexpr int kHistLatBuckets = 16;   ///< log2(ns) - 6, clamped: 64ns..2ms+

/// Records one observed invocation: `elapsed` is virtual seconds.
void hist_record(int family, int alg, std::size_t bytes, double elapsed);

/// Copies the (family, alg) histogram into `out` (kHistSizeBuckets *
/// kHistLatBuckets values, size-major) / zeroes it. Bounds are the caller's
/// problem; the pvar registry only hands out in-range handles.
void hist_read(int family, int alg, unsigned long long* out);
void hist_reset(int family, int alg);

}  // namespace trace
}  // namespace xmpi::detail

/// @file xmpi.hpp
/// @brief C++ driver API for the xmpi substrate: spawn a "universe" of ranks
/// (threads), configure the virtual-time cost model, and collect statistics.
///
/// Usage:
/// @code
///   auto result = xmpi::run(8, [](int rank) {
///       // rank code; may call any MPI_* function from <xmpi/mpi.h>
///   });
///   std::cout << result.max_vtime; // modeled parallel makespan
/// @endcode
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "xmpi/mpi.h"

namespace xmpi {

/// Parameters of the LogP-style communication cost model and of the runtime.
///
/// Every message between ranks advances the receiver's virtual clock to at
/// least `sender_vtime + alpha + beta * bytes`; the sender pays `o` per
/// message. Local computation advances a rank's clock by its *thread CPU
/// time* multiplied by `compute_scale` (thread CPU time is immune to
/// oversubscribed scheduling, so a single-core host still attributes each
/// rank only its own work).
///
/// Compute is charged at MPI call boundaries, not per message: the first
/// point in an MPI call that stamps the virtual clock (a send, a posted
/// receive, a completion, a probe) charges the CPU time since the previous
/// charge, and MPI_Wtime / vtime_now always do. Library CPU spent later in
/// the same call lands at the next blocking wait, which charges before it
/// spins or parks, or at the next call. CPU burnt spinning or parked in a
/// blocking wait is never charged. With `compute_scale = 0` virtual time is
/// pure model arithmetic.
struct Config {
    /// Per-message latency in seconds (default calibrated to a 100 Gbit/s
    /// OmniPath-class interconnect as used in the paper's evaluation).
    /// On a hierarchical topology these three are the *inter-node* tier.
    double alpha = 2e-6;
    /// Per-byte transfer cost in seconds (~1.25 GB/s effective per pair).
    double beta = 8e-10;
    /// Sender-side per-message overhead in seconds.
    double o = 2e-7;
    /// @name Intra-node (shared-memory) tier, used for messages between
    /// ranks mapped to the same node by the topology subsystem. Defaults
    /// model a ~20 GB/s shared-memory transport with sub-microsecond
    /// latency. Ignored on a flat (single-tier) topology.
    /// @{
    double alpha_intra = 2e-7;
    double beta_intra = 5e-11;
    double o_intra = 5e-8;
    /// @}
    /// @name Copy tier, used by the shared-memory transport when an intra-node
    /// schedule step is a direct load/store into a peer rank's buffer instead
    /// of a simulated message. One synchronization constant per rendezvous
    /// plus a per-byte single-copy cost (~50 GB/s streaming memcpy). Disabled
    /// entirely by XMPI_SHM=0 / XMPI_T_shm_set(0).
    /// @{
    double gamma_copy = 2e-11;
    double copy_sync = 1e-7;
    /// @}
    /// Block rank->node mapping: node = world_rank / ranks_per_node (the
    /// last node may hold fewer ranks). <= 1 means a flat single-tier
    /// network. Overridable per process by XMPI_RANKS_PER_NODE / XMPI_NODES
    /// and the XMPI_T_topo_set() control call (which takes precedence).
    int ranks_per_node = 0;
    /// Multiplier applied to measured thread CPU time (charged per MPI call,
    /// see above).
    double compute_scale = 1.0;
    /// Stack size per rank thread in bytes.
    std::size_t stack_size = 1u << 20;
    /// Modeled latency (seconds) of handing a schedule to the asynchronous
    /// progress engine and waking a parked progress thread. The offload
    /// gate keeps a schedule on the synchronous path when the transfer time
    /// the engine could hide is smaller than this wakeup cost (see
    /// XMPI_ASYNC_PROGRESS / XMPI_PROGRESS_MIN_BYTES in the README).
    double progress_wakeup = 1e-5;
};

/// One statistic cell of Counters: a relaxed atomic counter that copies by
/// value and converts like the plain integer it replaces. Counters used to
/// be plain uint64_t fields written only by the owning rank thread; with the
/// asynchronous progress engine a schedule may be advanced by a progress
/// thread concurrently with the owner's own point-to-point traffic, so each
/// cell is independently atomic (relaxed: these are statistics, ordering is
/// carried by the request-completion release/acquire pair).
struct Stat {
    std::atomic<std::uint64_t> v{0};

    Stat() = default;
    Stat(std::uint64_t x) : v(x) {}
    Stat(Stat const& o) : v(o.v.load(std::memory_order_relaxed)) {}
    Stat& operator=(Stat const& o) {
        v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
        return *this;
    }
    Stat& operator=(std::uint64_t x) {
        v.store(x, std::memory_order_relaxed);
        return *this;
    }
    operator std::uint64_t() const { return v.load(std::memory_order_relaxed); }
    std::uint64_t load() const { return v.load(std::memory_order_relaxed); }
    Stat& operator+=(std::uint64_t x) {
        v.fetch_add(x, std::memory_order_relaxed);
        return *this;
    }
    Stat& operator++() {
        v.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }
    /// Monotone maximum (used by the peak-scratch statistic, which may be
    /// probed concurrently by pvar readers).
    void merge_max(std::uint64_t x) {
        std::uint64_t cur = v.load(std::memory_order_relaxed);
        while (x > cur && !v.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
        }
    }
};

/// Per-rank communication counters, aggregated into RunResult.
struct Counters {
    Stat p2p_messages;
    Stat p2p_bytes;
    Stat coll_messages;
    Stat coll_bytes;
    /// Messages/bytes between ranks on the same node of the configured
    /// topology (always 0 on a flat topology). p2p and collective combined;
    /// the inter-node share is the total minus these.
    Stat intra_node_messages;
    Stat intra_node_bytes;
    /// @name Collective schedule-compilation accounting (also exposed inside
    /// a rank via XMPI_T_sched_stats). A "build" materializes a schedule's
    /// step program and arena (one-shot miss or persistent init); a "hit"
    /// serves a blocking/nonblocking collective by re-arming a cached
    /// schedule instead; an "eviction" drops a cache entry (LRU pressure or
    /// an epoch bump from XMPI_T_alg_set / env refresh / topology change).
    /// @{
    Stat schedule_builds;
    Stat schedule_cache_hits;
    Stat schedule_cache_evictions;
    /// Largest single-schedule scratch working set seen (bytes). Aggregated
    /// by max, not sum.
    Stat schedule_peak_scratch_bytes;
    /// @}
    /// @name Shared-memory transport accounting: direct peer-buffer copies
    /// performed by `copy` schedule steps (get side; publishes are free) and
    /// the bytes they moved. Always 0 with the transport disabled.
    /// @{
    Stat shm_copies;
    Stat shm_copy_bytes;
    /// @}

    Counters& operator+=(Counters const& other) {
        p2p_messages += other.p2p_messages;
        p2p_bytes += other.p2p_bytes;
        coll_messages += other.coll_messages;
        coll_bytes += other.coll_bytes;
        intra_node_messages += other.intra_node_messages;
        intra_node_bytes += other.intra_node_bytes;
        schedule_builds += other.schedule_builds;
        schedule_cache_hits += other.schedule_cache_hits;
        schedule_cache_evictions += other.schedule_cache_evictions;
        schedule_peak_scratch_bytes.merge_max(other.schedule_peak_scratch_bytes);
        shm_copies += other.shm_copies;
        shm_copy_bytes += other.shm_copy_bytes;
        return *this;
    }
};

/// Outcome of one universe execution.
struct RunResult {
    /// Maximum over all ranks of the final virtual clock: the modeled
    /// parallel makespan of the program under the cost model.
    double max_vtime = 0.0;
    /// Wall-clock seconds the universe took on the host.
    double wall_time = 0.0;
    /// Sum of all ranks' communication counters.
    Counters total;
    /// Per-rank final virtual times.
    std::vector<double> rank_vtimes;
};

/// Runs `body(rank)` on `num_ranks` concurrently executing ranks backed by
/// OS threads. Blocks until all ranks return. Exceptions thrown by rank
/// bodies are captured; the first one (by rank order) is rethrown after all
/// threads joined. Nested/repeated calls are allowed sequentially, not
/// concurrently.
RunResult run(int num_ranks, std::function<void(int)> const& body, Config const& config = {});

/// Convenience overload for bodies that query their rank via MPI_Comm_rank.
RunResult run(int num_ranks, std::function<void()> const& body, Config const& config = {});

/// @name In-rank introspection (callable from inside a rank body)
/// @{

/// The calling rank's current virtual time in seconds.
double vtime_now();
/// Adds `seconds` of modeled local work to the calling rank's clock
/// (used by benchmarks to model workload components not executed for real).
void vtime_add(double seconds);
/// The calling rank's communication counters so far.
Counters counters_now();
/// Monotonically increasing id of the current universe; used by layers above
/// to invalidate per-universe caches (e.g. the datatype pool).
std::uint64_t universe_id();
/// True when called from inside a rank body.
bool in_rank();
/// @}

}  // namespace xmpi

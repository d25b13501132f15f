/// @file shm.hpp
/// @brief Zero-copy shared-memory transport for intra-node schedule phases.
///
/// Ranks are threads in one address space, yet intra-node schedule steps
/// historically paid the full simulated-message path: sender overhead, an
/// envelope staging copy, FIFO matching and a receive-side copy. This layer
/// lets the schedule executor's `copy` step kind load/store directly between
/// peer rank buffers instead, synchronized by per-node rendezvous cells
/// (seq-numbered epochs with acquire/release publication) rather than message
/// matching.
///
/// Protocol (single producer, `fanout` consumer acks per epoch):
///   producer:  wait acks == ready * fanout        (previous epoch drained)
///              store {ptr, bytes, arrival, fanout}  (plain stores)
///              ready.fetch_add(1, release)          (publish)
///   consumer:  wait ready.load(acquire) >= epoch    (this schedule's epoch)
///              copy/fold from ptr                   (the single data copy)
///              acks.fetch_add(1, release)           (retire)
///   producer:  drain = wait acks == ready * fanout before schedule end, so
///              the published buffer (user memory or schedule scratch) is
///              never re-written while a consumer still reads it.
///
/// The producer cannot be more than one epoch ahead of any consumer (the ack
/// gate), so a consumer that observed `ready >= epoch` always reads its own
/// epoch's fields. Cells live in per-node blocks keyed by (collective
/// context, collective seq): concurrently outstanding nonblocking collectives
/// on one communicator get distinct blocks, and a schedule re-armed for a new
/// seq (cache hit) rebinds to a fresh block while a persistent schedule keeps
/// its block and advances epochs across restarts.
///
/// Virtual time is priced by cost::copy: publication costs the producer
/// nothing, a consumer pays vnow = max(vnow, publish vnow + sync) + load,
/// and drains are wall-clock-only synchronization (no modeled cost).
///
/// Knobs: XMPI_SHM=0 disables the transport (garbage values warn once and
/// also disable — never abort); XMPI_T_shm_set(-1|0|1) pins it at runtime and
/// bumps the schedule-cache epoch so cached p2p/shm schedules never mix.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "../internal.hpp"

namespace xmpi::detail::shm {

/// One rendezvous cell: a single producer rank publishes a buffer per epoch,
/// a fixed set of same-node consumer ranks reads it directly.
struct Cell {
    std::atomic<std::uint64_t> ready{0};  ///< completed publish count (epochs)
    std::atomic<std::uint64_t> acks{0};   ///< total consumer acks, all epochs
    std::uint32_t fanout = 0;             ///< acks expected per epoch
    void const* ptr = nullptr;            ///< published buffer (producer-owned)
    std::uint64_t bytes = 0;              ///< published payload size
    double arrival = 0.0;  ///< producer vnow at publish + cfg.copy_sync
};

/// Per-(node, context, seq) cell namespace. Cell ids follow the same
/// group-scope offset discipline as schedule step tags, so hierarchical
/// phases can hand out ids without cross-phase collisions. Cells are
/// created on demand under the block mutex and have stable addresses; the
/// mutex/cv also back the slow (sleeping) half of every wait.
struct Block {
    std::mutex m;
    std::condition_variable cv;
    std::map<int, std::unique_ptr<Cell>> cells;

    /// Returns the cell for `id`, creating it if needed. Thread-safe.
    Cell* cell(int id);
};

/// Per-node shared state: the registry mapping (context, seq) to live blocks.
/// Blocks are owned by the schedules bound to them; the registry holds weak
/// references and prunes expired entries opportunistically.
struct NodeShm {
    std::mutex m;
    std::map<std::pair<int, std::uint64_t>, std::weak_ptr<Block>> registry;
};

/// Universe-scoped transport state: one NodeShm per node of the topology
/// (a single entry on a flat topology, where the transport is never used).
struct State {
    std::vector<std::unique_ptr<NodeShm>> nodes;
};

/// Builds the per-node state for a universe with `num_nodes` nodes (>= 1).
std::shared_ptr<State> make_state(int num_nodes);

/// Returns the block for (node, context, seq), creating and registering it
/// if no live one exists. All same-node participants of a collective
/// invocation resolve to the same block.
std::shared_ptr<Block> acquire_block(State& st, int node, int context, std::uint64_t seq);

// ---------------------------------------------------------------------------
// Protocol primitives, called by the schedule executor (and the tune
// calibration pass). The wait variants return 1 on success, 0 when
// `blocking` is false and the condition is not yet met, or a negative MPI
// error code when the communicator was revoked / a member died while
// waiting (pass comm == nullptr to skip failure polling).
// ---------------------------------------------------------------------------

/// Producer-side gate: the previous epoch must be fully acked.
int wait_publishable(Block& b, Cell& c, MPI_Comm comm, bool blocking);

/// Publishes `ptr`/`bytes` with `arrival` already priced (producer vnow +
/// copy_sync) and wakes waiting consumers. Call only after wait_publishable.
void publish(Block& b, Cell& c, void const* ptr, std::uint64_t bytes, std::uint32_t fanout,
             double arrival);

/// Consumer-side gate: epoch `epoch` (1-based) must have been published.
/// After success the cell's {ptr, bytes, arrival} are this epoch's values.
int wait_ready(Block& b, Cell& c, std::uint64_t epoch, MPI_Comm comm, bool blocking);

/// Retires this consumer's read of the current epoch and wakes the producer.
void ack(Block& b, Cell& c);

/// Producer-side drain: all consumer acks for every published epoch have
/// arrived; the published buffer may be reused or handed back to the user.
int wait_drained(Block& b, Cell& c, MPI_Comm comm, bool blocking);

// ---------------------------------------------------------------------------
// Enablement. The transport is on by default; XMPI_SHM=0 (or any value that
// fails strict parsing — garbage disables, never aborts) turns it off, and
// XMPI_T_shm_set pins it programmatically. Flipping the effective state bumps
// the schedule-cache epoch (registry.cpp) so stale compositions are dropped.
// ---------------------------------------------------------------------------

/// Effective enablement: control pin > environment > default(on).
bool enabled();

/// Forgets the cached environment resolution; next enabled() re-reads.
/// Wired into XMPI_T_alg_env_refresh.
void refresh_env();

/// Control-pin backend for XMPI_T_shm_set/get (-1 = follow environment).
void set_forced(int v);
int get_forced();

// ---------------------------------------------------------------------------
// Live transport statistics, exposed as `shm.*` pvars by the trace registry.
// ---------------------------------------------------------------------------
struct Stats {
    std::uint64_t publishes = 0;   ///< publish operations performed
    std::uint64_t copies = 0;      ///< consumer get operations (data copies)
    std::uint64_t copy_bytes = 0;  ///< bytes moved by consumer copies
    std::uint64_t drains = 0;      ///< producer drain gates passed
};

Stats stats();
void stats_add_publish();
void stats_add_copy(std::uint64_t bytes);
void stats_add_drain();

}  // namespace xmpi::detail::shm

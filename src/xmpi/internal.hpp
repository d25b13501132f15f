/// @file internal.hpp
/// @brief Substrate-internal data structures: universe, rank state, mailbox
/// transport with MPI matching semantics, requests, communicators, datatypes
/// and reduction ops. Shared across the xmpi translation units; not installed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "topo/topo.hpp"
#include "trace/trace.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace xmpi::detail {

struct RankState;
struct Universe;

namespace shm {
struct State;
}  // namespace shm

namespace progress {
class Engine;
}  // namespace progress

// ---------------------------------------------------------------------------
// Datatypes
// ---------------------------------------------------------------------------

/// Internal representation of an MPI datatype. Builtins are immutable
/// singletons; derived types form a DAG (children refcounted by ownership of
/// the creating code: MPI requires the user keep constituent types alive
/// until commit, we additionally snapshot what we need so frees are safe).
struct DatatypeImpl {
    enum class Kind { builtin, contiguous, vector, indexed, strct };

    Kind kind = Kind::builtin;
    /// Packed (true data) size of one element of this type, in bytes.
    int size = 0;
    /// Extent and lower bound in the caller's memory layout.
    MPI_Aint extent = 0;
    MPI_Aint lb = 0;
    bool committed = false;
    bool is_builtin = false;
    /// Identifies builtin types for reduction dispatch (index into table).
    int builtin_id = -1;

    // contiguous/vector/indexed
    int count = 0;
    int blocklength = 0;
    int stride = 0;  // in elements of child
    std::vector<int> blocklengths;
    std::vector<MPI_Aint> displacements;  // indexed: element displs; struct: byte displs
    MPI_Datatype child = nullptr;
    std::vector<MPI_Datatype> children;  // struct

    /// Packs `count` elements starting at `src` into contiguous bytes at `dst`.
    void pack(void const* src, int n, std::byte* dst) const;
    /// Unpacks `n` elements from contiguous bytes at `src` into `dst`.
    void unpack(std::byte const* src, int n, void* dst) const;
};

// ---------------------------------------------------------------------------
// Reduction ops
// ---------------------------------------------------------------------------

struct OpImpl {
    /// Applies `inout[i] = in[i] op inout[i]` reversed per MPI: the standard
    /// computes inout = in op inout with `in` being the lower-rank operand?
    /// We use the convention apply(in, inout, len): inout[i] = op(in[i],
    /// inout[i]) where `in` holds the *left* (lower-rank) operand.
    std::function<void(void*, void*, int*, MPI_Datatype*)> fn;
    bool commutative = true;
    bool builtin = false;
    int builtin_id = -1;  // index into builtin op table for fast dispatch
};

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Completion backlink for synchronous-mode sends: the sender blocks (or its
/// request stays incomplete) until a receiver matched the envelope.
struct SsendToken {
    std::atomic<bool> matched{false};
    double match_vtime = 0.0;  // written before `matched` is released
    RankState* sender = nullptr;
};

/// A message in flight (already "on the wire": xmpi is fully eager).
struct Envelope {
    int context = 0;
    int src = 0;  // comm rank of the sender within `context`'s communicator
    int tag = 0;
    std::vector<std::byte> bytes;
    double arrival = 0.0;  // virtual time at which the payload is available
    /// Latency of the link this message traveled (intra- or inter-node);
    /// prices the synchronous-mode acknowledgement hop.
    double ack_alpha = 0.0;
    std::shared_ptr<SsendToken> ssend;  // non-null for synchronous-mode sends
};

/// Request object backing MPI_Request. Lifetime: created by the initiating
/// call, destroyed by MPI_Wait*/MPI_Test* completion or MPI_Request_free.
struct xmpi_request_t_internal;

// ---------------------------------------------------------------------------
// Mailbox: per-rank matching engine. All state is guarded by `m`. Completing
// a request owned by rank R requires holding R's mailbox mutex (requests are
// completed either by R itself or by a sender currently holding R's mutex).
//
// Blocking waits of R (p2p.cpp, mailbox_wait) spin, then park on `cv`:
//   - Every event that may end a wait of R bumps `arrivals` under `m`: a
//     deposit, wake_rank (ssend match, progress-engine completion),
//     wake_all (death, revoke) and a same-node shm publish/ack.
//   - A waiter reads `arrivals` before its completion check. It spins on
//     the counter (only when the universe's threads fit the cores, see
//     Universe::spin_waits) and parks only if, re-read under `m`, the
//     counter has not moved — so no event between check and park is lost.
//   - Parked waiters are counted in `sleepers`; deposit and wake_rank
//     notify only when it is non-zero. wake_all notifies unconditionally.
// ---------------------------------------------------------------------------
/// Total spin of one blocking wait before it parks. It covers the waits of
/// a small collective among running ranks (a few µs each); a longer wait
/// parks and pays the futex sleep/wake pair.
inline constexpr std::chrono::microseconds kWaitSpinBudget{30};

struct Mailbox {
    std::mutex m;
    std::condition_variable cv;
    int sleepers = 0;  // threads parked on `cv`; guarded by `m`
    std::atomic<std::uint64_t> arrivals{0};  // written under `m`, spun on without it
    std::deque<Envelope> unexpected;
    std::vector<xmpi_request_t*> posted;  // posted receives, in post order
};

// ---------------------------------------------------------------------------
// The machine model's charges, written once: deposit(), the schedule's copy
// steps and the simulator's event loop (so also trace attribution) price
// through these, from Config; alg::machine_of's tune overlay is for selection.
// ---------------------------------------------------------------------------
namespace cost {

/// A message: the sender's clock advances by `o`; it arrives `alpha + wire`
/// later (wire = beta * bytes), on the intra tier if the ranks share a node.
struct Message { double o, alpha, wire; };
inline Message message(Config const& c, bool intra, std::uint64_t bytes) {
    double const b = static_cast<double>(bytes);
    return intra ? Message{c.o_intra, c.alpha_intra, c.beta_intra * b}
                 : Message{c.o, c.alpha, c.beta * b};
}

/// A shared-memory copy: a published cell is readable `sync` after the
/// publish (the producer's clock stays); each reader then pays `load`.
struct Copy { double sync, load; };
inline Copy copy(Config const& c, std::uint64_t bytes) {
    return {c.copy_sync, c.gamma_copy * static_cast<double>(bytes)};
}

}  // namespace cost

// ---------------------------------------------------------------------------
// Rank state
// ---------------------------------------------------------------------------

/// A rank's virtual clock. Plain double semantics at the call sites, but
/// independently atomic underneath: with the asynchronous progress engine a
/// schedule owned by rank R may be advanced by a progress thread while R's
/// own application thread keeps charging compute, so reads and updates must
/// not tear. Updates use CAS loops (no lost increments within one
/// operation); cross-thread *ordering* of clock advances during genuine
/// overlap is inherently approximate — completion values are made coherent
/// by the request's release/acquire completion flag.
struct VTime {
    std::atomic<double> v{0.0};

    operator double() const { return v.load(std::memory_order_relaxed); }
    VTime& operator=(double x) {
        v.store(x, std::memory_order_relaxed);
        return *this;
    }
    VTime& operator+=(double dt) {
        double cur = v.load(std::memory_order_relaxed);
        while (!v.compare_exchange_weak(cur, cur + dt, std::memory_order_relaxed)) {
        }
        return *this;
    }
    /// Monotone advance to at least `t` (message arrival semantics).
    void advance_to(double t) {
        double cur = v.load(std::memory_order_relaxed);
        while (t > cur && !v.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
        }
    }
};

struct RankState {
    Universe* universe = nullptr;
    int world_rank = 0;
    Mailbox mbox;

    // Virtual clock.
    VTime vnow;
    double last_cpu = 0.0;  // last sampled thread CPU time
    /// Thread-CPU clock reads made for this rank (the `vtime.cpu_samples`
    /// pvar); each one is a syscall.
    std::uint64_t cpu_samples = 0;

    std::atomic<bool> dead{false};

    Counters counters;

    /// Wall-clock nanoseconds spent in blocking waits, spinning or parked
    /// (p2p.cpp samples the steady clock only once a completion check has
    /// failed). Deliberately *not* a Counters field: Counters is a stable
    /// user-visible aggregate struct; this is exposed via the
    /// `p2p.wait_time_ns` pvar instead.
    std::uint64_t wait_time_ns = 0;

    /// Blocking waits that outlasted the spin and parked on the mailbox
    /// condition variable (the `p2p.wait_parks` pvar).
    std::uint64_t wait_parks = 0;

    /// Number of generalized-request progress invocations made from this
    /// rank's application thread (wait/test/free paths). The overlap test
    /// and `bench_overhead --progress-smoke` assert this stays zero while
    /// the asynchronous progress engine owns the armed schedules. Exposed
    /// via the `progress.app_progress_calls` pvar.
    std::uint64_t app_progress_calls = 0;

    /// Event-trace ring; non-null only while this universe is traced
    /// (XMPI_TRACE set). Written exclusively by the owning rank thread.
    std::unique_ptr<trace::Ring> trace_ring;

    // Per-rank world/self communicator objects (sentinels resolve here).
    MPI_Comm world = nullptr;
    MPI_Comm self = nullptr;

    std::exception_ptr error;
};

// ---------------------------------------------------------------------------
// Universe
// ---------------------------------------------------------------------------
struct Universe {
    Config cfg;
    int size = 0;
    std::uint64_t id = 0;
    /// world rank -> node id of the hierarchical topology; empty on a flat
    /// (single-tier) network. Resolved once at universe creation
    /// (see topo/topo.hpp) and immutable afterwards.
    std::vector<int> node_of_world;
    std::vector<std::unique_ptr<RankState>> ranks;
    /// Next free context id; communicator creation agrees on a common value
    /// via an internal allreduce-max.
    std::atomic<int> next_context{16};
    std::atomic<int> dead_count{0};
    /// Shared-memory transport state: per-node rendezvous-cell registries
    /// (see shm/shm.hpp). Built once at universe creation alongside the node
    /// map; shared_ptr for the type-erased deleter, the full type is only
    /// visible to the transport and the schedule executor.
    std::shared_ptr<shm::State> shm;
    /// Asynchronous progress engine; non-null only when XMPI_ASYNC_PROGRESS
    /// (or the XMPI_T_progress_set control) enabled it at universe start.
    /// shared_ptr for the type-erased deleter — progress::Engine is complete
    /// only inside progress.cpp and its clients.
    std::shared_ptr<progress::Engine> progress_engine;
    /// Trace rings owned by the progress-engine threads (one per engine
    /// thread, allocated via trace::add_engine_ring before rank threads
    /// exist, merged into the timeline at trace::end_universe).
    std::vector<std::unique_ptr<trace::Ring>> engine_trace_rings;
    /// True when the rank threads plus progress workers fit in
    /// std::thread::hardware_concurrency(): blocking waits then spin briefly
    /// before parking. Oversubscribed universes park at once, since a
    /// spinning rank would steal the core of the peer it waits for. Set once
    /// before the rank threads start.
    bool spin_waits = false;
};

/// Thread-local pointer to the calling rank's state (null outside ranks).
RankState*& tls_rank();

/// Samples the calling thread's CPU clock in seconds, counted in
/// `rs->cpu_samples`.
double thread_cpu_now(RankState* rs);

/// Advances the calling rank's virtual clock by the CPU time consumed since
/// the last charge.
void charge_compute(RankState* rs);

/// Re-anchors the CPU sample without charging it: CPU burnt spinning or
/// parked in a blocking wait is waiting time, not compute.
void discard_compute(RankState* rs);

/// Compute is charged once per MPI call, not once per message: reading the
/// thread-CPU clock is a syscall. Public entries that can stamp the virtual
/// clock open a CallScope; the first charge_call inside it charges, the
/// later ones in the same call are free. Nested entries (MPI_Gather →
/// MPI_Gatherv, MPI_Sendrecv → MPI_Send) join the outermost scope. Library
/// CPU spent after that charge lands at the next pre-block charge
/// (mailbox_wait) or the next call. Thread-local, not in RankState: a
/// progress worker adopts its owner's RankState.
struct CallCharge {
    int depth = 0;
    bool charged = false;  // the outermost open call has charged
};
inline constinit thread_local CallCharge tls_call{};

class CallScope {
public:
    CallScope() { ++tls_call.depth; }
    ~CallScope() {
        if (--tls_call.depth == 0) tls_call.charged = false;
    }
    CallScope(CallScope const&) = delete;
    CallScope& operator=(CallScope const&) = delete;
};

/// charge_compute, at most once per open CallScope. Outside any scope (the
/// calibration probes' internal schedules) it charges every time, as every
/// stamp point did before; on a progress worker charge_compute is a no-op.
inline void charge_call(RankState* rs) {
    if (tls_call.charged) return;
    charge_compute(rs);
    tls_call.charged = tls_call.depth > 0;
}

/// Wakes every rank blocked on its mailbox (used on rank death / revoke so
/// blocked operations re-evaluate their failure predicates).
void wake_all(Universe* u);

/// Wakes one rank blocked on its mailbox: bumps its arrival counter under
/// the mailbox mutex (so a concurrently parking waiter cannot miss it) and
/// notifies if a waiter is parked. Used for ssend matches and by the
/// progress engine to publish schedule completion.
void wake_rank(RankState* rs);

/// wake_rank for every other rank on `world_rank`'s node: a shm publish or
/// ack may be what a node-mate's nonblocking schedule is waiting for.
void wake_node(Universe* u, int world_rank);

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

struct TopoInfo {
    std::vector<int> sources;
    std::vector<int> destinations;
};

}  // namespace xmpi::detail

namespace xmpi::detail::alg {
/// Per-communicator compiled-schedule cache (algorithms/registry.cpp).
struct SchedCache;
}  // namespace xmpi::detail::alg

/// Communicator object. xmpi gives every member rank its *own* copy of the
/// communicator (same context id, identical group vector), which removes any
/// need for cross-thread synchronization on communicator state: matching
/// only ever consults the integer context id carried by messages.
struct xmpi_comm_t {
    xmpi::detail::Universe* universe = nullptr;
    /// Point-to-point context id. Collective traffic uses `context + 1`.
    int context = 0;
    /// comm rank -> world rank.
    std::vector<int> group;
    /// world rank -> comm rank (-1 if not a member).
    std::vector<int> world_to_comm;
    /// This copy's owner rank (comm rank).
    int my_rank = 0;
    /// Per-copy collective sequence number; aligned across members because
    /// collectives on a communicator are ordered.
    std::uint64_t coll_seq = 0;
    /// Revoke fast-path cache: re-checked against the global registry when
    /// the revoke epoch moves (revokes are rare; the hot path is one load).
    /// Atomic because the progress engine re-evaluates revocation on behalf
    /// of the owner while the owner may do the same on its own operations.
    std::atomic<std::uint64_t> seen_revoke_epoch{0};
    std::atomic<bool> revoked_cached{false};
    /// Acknowledged failures (ULFM): operations ignore acked dead ranks for
    /// MPI_ANY_SOURCE receives.
    std::vector<int> acked_failures;
    std::unique_ptr<xmpi::detail::TopoInfo> topo;
    /// Lazily built node structure of this communicator under the
    /// universe's topology (see topo::node_info); owned per-copy.
    std::unique_ptr<xmpi::detail::topo::NodeInfo> node_cache;
    /// Compiled-schedule reuse cache (see alg::acquire_schedule); per-copy
    /// like everything else on the communicator, so no locking. shared_ptr
    /// for the type-erased deleter — SchedCache is complete only inside the
    /// algorithms layer.
    std::shared_ptr<xmpi::detail::alg::SchedCache> sched_cache;

    int size() const { return static_cast<int>(group.size()); }
    int rank() const { return my_rank; }
    int world_of(int comm_rank) const { return group[static_cast<std::size_t>(comm_rank)]; }
};

struct xmpi_datatype_t : xmpi::detail::DatatypeImpl {};
struct xmpi_op_t : xmpi::detail::OpImpl {};

/// Request backing store; see detail::Mailbox for the locking discipline.
struct xmpi_request_t {
    enum class Kind { send, ssend, recv, generalized, null };
    Kind kind = Kind::null;

    std::atomic<bool> complete{false};
    double completion_vtime = 0.0;
    MPI_Status status{MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_SUCCESS, 0};
    int error = MPI_SUCCESS;

    // --- persistent requests (MPI_Send_init/MPI_Recv_init and the
    // MPI_*_init collectives). A persistent request cycles between
    // *inactive* (allocated, not running an operation) and *active*
    // (started). MPI_Start flips inactive -> active through `start_fn`;
    // wait/test completion flips active -> inactive *without* deallocating,
    // so the request can be started again. Only MPI_Request_free releases
    // it. Non-persistent requests are born active and are consumed by
    // completion, exactly as before.
    bool persistent = false;
    bool active = true;
    std::function<int(xmpi_request_t*)> start_fn;

    xmpi::detail::RankState* owner = nullptr;

    // --- receive matching spec (posted receives) ---
    int context = 0;
    int match_src = MPI_ANY_SOURCE;  // comm rank or wildcard
    int match_tag = MPI_ANY_TAG;
    void* buf = nullptr;
    int count = 0;
    MPI_Datatype type = nullptr;
    MPI_Comm comm = nullptr;  // communicator the op runs on (for failure checks)
    bool posted = false;      // still linked in owner's mailbox `posted` list

    // --- synchronous send ---
    std::shared_ptr<xmpi::detail::SsendToken> tok;

    // --- generalized requests (MPI_Ibarrier and the MPI_I* collectives,
    // whose algorithm schedules — see algorithms/schedule.hpp — are advanced
    // from here): progress state machine. Invoked with the owner's mailbox
    // *unlocked*; returns completion.
    std::function<bool(xmpi_request_t*)> progress;

    /// True while the asynchronous progress engine owns this generalized
    /// request's schedule: wait/test/free must NOT invoke `progress` and
    /// instead park on the completion flag (the engine wakes the owner).
    /// Written by the initiating/starting application thread before the
    /// handle can be observed by wait/test on that same thread; cleared on
    /// each persistent restart that stays synchronous.
    bool offloaded = false;
};

namespace xmpi::detail {

// ---------------------------------------------------------------------------
// Internal point-to-point engine (used by both the public p2p API and the
// collective algorithms, which pass `context + 1` and synthesized tags).
// ---------------------------------------------------------------------------

/// Packs and deposits a message at `dest_world`'s mailbox; performs
/// sender-side matching against posted receives. Returns an MPI error code.
/// `sync != nullptr` requests synchronous-mode semantics via the token.
int deposit(RankState* sender, MPI_Comm comm, int context, int dest_comm_rank, int tag,
            void const* buf, int count, MPI_Datatype type,
            std::shared_ptr<SsendToken> const& sync, bool collective);

/// Creates and posts (or immediately satisfies from the unexpected queue) a
/// receive request. The returned request is heap-allocated.
int post_recv(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf, int count,
              MPI_Datatype type, bool collective, xmpi_request_t** out);

/// Blocks until `req` completes (runs `progress` state machines as needed).
/// Consumes the request on success. Returns its error code.
int wait_one(xmpi_request_t* req, MPI_Status* status);

/// Non-blocking completion check; consumes the request when complete.
int test_one(xmpi_request_t* req, int* flag, MPI_Status* status);

/// Blocking receive convenience wrapper.
int recv_blocking(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf,
                  int count, MPI_Datatype type, bool collective, MPI_Status* status);

/// True if world rank `w` has failed.
bool rank_dead(Universe* u, int w);

/// Resolves the public sentinel handles to the calling rank's comm objects.
MPI_Comm resolve(MPI_Comm comm);

/// Checks common preconditions (inside rank, live comm, not revoked).
/// Returns MPI_SUCCESS or an error code.
int check_comm(MPI_Comm comm);

/// @name Revoked-context registry (ULFM); implemented in runtime.cpp
/// @{
void revoke_context(Universe* u, int context);
bool context_revoked_slow(int context);
std::uint64_t revoke_epoch();
void clear_revoked_registry();
/// True if `comm` (this rank's copy) refers to a revoked context.
bool comm_revoked(MPI_Comm comm);
/// @}

/// True if any unacked member of `comm` has failed; used for fail-fast
/// collective entry and MPI_ANY_SOURCE failure detection.
bool any_member_dead(MPI_Comm comm);

/// Returns an available fresh context id agreed by all members of `comm`
/// (internal allreduce-max over the collective context).
int agree_context(MPI_Comm comm);

/// Encodes collective step tags: (seq, step) -> tag.
inline int coll_tag(std::uint64_t seq, int step) {
    return static_cast<int>(((seq & 0x3FFFFu) << 10) | static_cast<unsigned>(step & 0x3FF));
}

/// Builds a fresh communicator copy for the calling rank.
MPI_Comm make_comm(Universe* u, int context, std::vector<int> group, int my_world_rank);

/// Reduction application: inout[i] = op(in[i], inout[i]) with `in` the
/// left/lower-rank operand. `len` elements of `type`.
void apply_op(MPI_Op op, void const* in, void* inout, int len, MPI_Datatype type);

}  // namespace xmpi::detail

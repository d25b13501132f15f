/// @file schedule.hpp
/// @brief Collective communication schedules: an algorithm instance is
/// materialized once (at initiation) into a linear program of send /
/// post-receive / wait-receive / local-compute steps over scratch buffers
/// owned by the schedule. The same program is then executed either to
/// completion on the calling thread (blocking collectives) or incrementally
/// from a generalized request's progress function (the MPI_I* variants), so
/// every algorithm in src/xmpi/algorithms/ is automatically available in
/// both flavors with identical semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "../internal.hpp"

namespace xmpi::detail::shm {
struct Block;
struct Cell;
}  // namespace xmpi::detail::shm

namespace xmpi::detail::alg {

/// One recorded step of a *dry-built* tape (see Schedule::begin_dry): the
/// compact, payload-free form the virtual-time simulator (src/xmpi/sim/)
/// executes at simulated communicator sizes where real buffers cannot
/// exist; trace attribution lowers traced steps into the same form. Sends
/// and posts carry only their matching key and byte count.
///
/// Shared-memory copy steps lower to the same channel algebra: a publish
/// becomes one kCopyPub pseudo-send per expected get and a get becomes
/// kPost + kCopyWait, priced by cost::copy (sync from the publish, load at
/// the wait). Drains are wall-clock-only and leave no tape record.
struct TapeStep {
    enum : std::uint8_t { kSend = 0, kPost = 1, kWait = 2, kCopyPub = 3, kCopyWait = 4 };
    std::uint64_t bytes = 0;  ///< packed message size (send / post / copy)
    std::uint32_t a = 0;      ///< send / post: peer comm rank; wait: slot
    std::uint16_t tag = 0;    ///< full step tag (scope offset + tag_step)
    std::uint8_t kind = kSend;
};
// sim::Options::max_tape_steps budgets 16 B per recorded step.
static_assert(sizeof(TapeStep) == 16, "TapeStep must stay 16 B");

/// Recorder a Schedule writes TapeSteps into while in dry-build mode. One
/// sink accumulates the tapes of many per-rank builds (steps append across
/// builds; the per-build fields are re-zeroed by begin_build). Local steps
/// are discarded — tapes carry costs, not computation — and scratch is a
/// virtual bump offset, so a dry build allocates nothing payload-sized.
struct DrySink {
    /// Step tags are truncated to 10 bits by coll_tag() at execution time;
    /// a dry-built tape whose full tag reaches this budget would silently
    /// alias another phase's matching in a real run.
    static constexpr int kTagBudget = 1024;

    std::vector<TapeStep> steps;
    std::size_t scratch_used = 0;  ///< virtual bump offset of the current build
    int nslots = 0;                ///< receive slots of the current build
    int over_tag = -1;             ///< first full tag >= kTagBudget (sticky)

    /// Re-arms the per-build fields; recorded steps are kept.
    void begin_build() {
        scratch_used = 0;
        nslots = 0;
    }
    /// Forgets every recorded step and sticky flag for a new set of tapes,
    /// keeping the step array's capacity.
    void clear() {
        steps.clear();
        over_tag = -1;
        begin_build();
    }
};

/// One step of a collective schedule. Sends complete at execution time (the
/// transport is fully eager); `wait_recv` and the shared-memory copy steps
/// are the only steps that can stall.
///
/// The copy kinds bypass the p2p deposit path entirely (see shm/shm.hpp):
/// `copy_pub` makes a buffer readable by same-node peers through a
/// rendezvous cell, `copy_get` loads directly out of the currently published
/// peer buffer (the single data copy), and `copy_drain` blocks until every
/// consumer retired the published epoch so the buffer can be reused.
struct Step {
    enum class Kind { send, post_recv, wait_recv, local, copy_pub, copy_get, copy_drain };
    Kind kind = Kind::local;
    int peer = 0;      ///< send / post_recv: partner comm rank;
                       ///< copy_pub: expected gets per epoch (fanout);
                       ///< copy_get: producer comm rank (trace only)
    int tag_step = 0;  ///< step component of the collective tag; copy steps:
                       ///< cell id (scope tag offset + builder cell id)
    int count = 0;
    int slot = -1;  ///< post_recv / wait_recv: request slot; local: index of its function
    void const* sbuf = nullptr;
    void* rbuf = nullptr;
    MPI_Datatype type = nullptr;
    long long src_off = 0;  ///< copy_get: byte offset into the published buffer
    shm::Cell* cell = nullptr;  ///< copy steps: resolved lazily per binding
};

/// A fully materialized collective algorithm instance: the step program plus
/// the scratch storage it references. Builders allocate scratch through
/// alloc() (pointers stay stable) and append steps; pointers captured in
/// steps are resolved at build time, so ping-pong accumulator schemes are
/// expressed by tracking the current buffer while building.
///
/// Scratch is arena-backed: alloc() bumps a pointer inside one contiguous
/// zero-initialized block (the first chunk is sized to fit a typical
/// builder's full working set, and overflow grows geometrically, so a
/// schedule performs O(1) heap allocations instead of one per alloc() call
/// as the former free-list-of-vectors did). The arena lives as long as the
/// schedule — which, with the per-communicator schedule cache, means a hot
/// collective loop allocates its scratch exactly once.
///
/// Schedules are *re-armable*: reset() rewinds the program to step 0 and
/// clears the request slots so the same instance can be executed again —
/// the engine behind the persistent collectives (MPI_*_init + MPI_Start)
/// and the per-communicator schedule cache. Scratch is deliberately NOT
/// re-zeroed on reset (only on first allocation): builders must write every
/// scratch region — via an input-snapshot `local` step or a received
/// message — before reading it, so a re-armed schedule never observes a
/// previous round's bytes; the equivalence harness's restart flavor
/// enforces this write-before-read invariant. Restart correctness
/// additionally relies on two invariants every builder upholds: (a) user
/// input is only ever read by execution-time steps (send steps read the
/// user buffer when they run; snapshots into scratch are emitted as `local`
/// steps, never performed at build time), so each start observes the buffer
/// contents current at that start; (b) message tags are deterministic per
/// step, and the transport matches equal (source, tag) pairs FIFO, so
/// messages of restart round k+1 can never overtake round k's matching.
class Schedule {
public:
    Schedule(MPI_Comm comm, std::uint64_t seq) : comm_(comm), seq_(seq) {}
    /// Frees any still-posted receives so the mailbox never holds requests
    /// pointing into scratch that is about to be destroyed.
    ~Schedule() { release_pending(); }

    Schedule(Schedule const&) = delete;
    Schedule& operator=(Schedule const&) = delete;

    // --- build API -----------------------------------------------------

    /// Stable scratch allocation from the schedule's arena (zero-initialized
    /// on first use); valid for the schedule's lifetime. Returns nullptr for
    /// size 0.
    std::byte* alloc(std::size_t bytes);

    /// Pre-sizes the step program and the request slots, for builders that
    /// know their shape up front (one allocation each instead of growth).
    void reserve(std::size_t steps, std::size_t slots) {
        steps_.reserve(steps);
        reqs_.reserve(slots);
    }

    /// Total scratch bytes handed out by alloc() so far (the schedule's
    /// working-set size; reported via Counters::schedule_peak_scratch_bytes).
    std::size_t scratch_bytes() const { return scratch_bytes_; }

    /// Switches this schedule into dry-build mode: build-API calls append
    /// compact TapeSteps to `sink` instead of executable steps, alloc()
    /// returns stable *virtual* addresses (builders do pointer arithmetic on
    /// them but never dereference — every buffer access lives in a `local`
    /// step, and local steps are discarded), and `local` closures are
    /// dropped. A dry schedule must not be advance()d. Dry builds touch no
    /// rank counters: XMPI_T_sched_stats' schedule_builds counts only real
    /// compilations; simulated ones are reported via XMPI_T_sim_stats.
    void begin_dry(DrySink* sink) {
        dry_ = sink;
        sink->begin_build();
    }

    // --- sub-schedule (group) scopes ------------------------------------
    //
    // While a group scope is active, builders see the subgroup as the whole
    // world: size()/rank() report the subgroup shape, peers passed to
    // send()/post()/recv() are subgroup ranks (translated to communicator
    // ranks through the scope's map at append time), and step tags are
    // offset by the scope's tag base so composed phases cannot match each
    // other's messages. This is what lets the hierarchical algorithms reuse
    // every existing builder unchanged as an intra-node or inter-node phase.

    /// Enters a subgroup: `map` lists the subgroup's members as ranks of the
    /// *enclosing* scope (ascending or any order; index = subgroup rank),
    /// `my_sub_rank` is the calling rank's position in `map`.
    void push_group(std::vector<int> map, int my_sub_rank, int tag_base) {
        scopes_.push_back(Scope{std::move(map), my_sub_rank, tag_base});
    }
    void pop_group() { scopes_.pop_back(); }

    /// Subgroup-aware communicator shape (whole communicator without scope).
    int size() const {
        return scopes_.empty() ? comm_->size() : static_cast<int>(scopes_.back().map.size());
    }
    int rank() const { return scopes_.empty() ? comm_->rank() : scopes_.back().rank; }

    void send(int peer, int tag_step, void const* buf, int count, MPI_Datatype t) {
        if (dry_ != nullptr) {
            dry_record(TapeStep::kSend, translate(peer), tag_offset() + tag_step, count, t);
            return;
        }
        Step s;
        s.kind = Step::Kind::send;
        s.peer = translate(peer);
        s.tag_step = tag_offset() + tag_step;
        s.sbuf = buf;
        s.count = count;
        s.type = t;
        comm_bytes_ += static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(t->size);
        steps_.push_back(std::move(s));
    }

    /// Posts a receive into a fresh slot; pair with wait(slot).
    int post(int peer, int tag_step, void* buf, int count, MPI_Datatype t) {
        if (dry_ != nullptr) {
            dry_record(TapeStep::kPost, translate(peer), tag_offset() + tag_step, count, t);
            return dry_->nslots++;
        }
        int const slot = static_cast<int>(reqs_.size());
        reqs_.push_back(nullptr);
        Step s;
        s.kind = Step::Kind::post_recv;
        s.peer = translate(peer);
        s.tag_step = tag_offset() + tag_step;
        s.rbuf = buf;
        s.count = count;
        s.type = t;
        s.slot = slot;
        steps_.push_back(std::move(s));
        return slot;
    }

    void wait(int slot) {
        if (dry_ != nullptr) {
            TapeStep ts;
            ts.a = static_cast<std::uint32_t>(slot);
            ts.kind = TapeStep::kWait;
            dry_->steps.push_back(ts);
            return;
        }
        Step s;
        s.kind = Step::Kind::wait_recv;
        s.slot = slot;
        steps_.push_back(std::move(s));
    }

    /// Post + wait in one go (a blocking receive within the program order).
    void recv(int peer, int tag_step, void* buf, int count, MPI_Datatype t) {
        wait(post(peer, tag_step, buf, count, t));
    }

    /// Local computation; `fn` returns an MPI error code.
    void local(std::function<int()> fn) {
        if (dry_ != nullptr) return;  // tapes carry costs, not computation
        Step s;
        s.kind = Step::Kind::local;
        s.slot = static_cast<int>(locals_.size());
        locals_.push_back(std::move(fn));
        steps_.push_back(s);
    }

    // --- shared-memory copy steps (shm/shm.hpp) -------------------------
    //
    // `cell` ids live in the same group-scope offset namespace as step tags
    // (and the same 10-bit budget), so hierarchical phases hand them out
    // with their existing tag-base discipline. All participants of a cell
    // must be ranks of the same node; the builders guarantee this by only
    // emitting copy steps inside intra-node phases.

    /// Publishes `buf` through `cell` for direct peer reads. `readers` lists
    /// one subgroup rank per expected copy_get of the epoch (a consumer
    /// performing n gets appears n times); its size is the cell's ack
    /// fanout. Pair every publish with drain_published() (or an explicit
    /// copy_drain) before the end of the build, so the buffer is never
    /// handed back to the user or overwritten by a re-run while a consumer
    /// still reads it.
    void copy_pub(int cell, void const* buf, int count, MPI_Datatype t,
                  std::vector<int> const& readers);

    /// Copies `count` elements of `t` out of the buffer published through
    /// `cell` (starting `src_byte_off` bytes in) directly into `dst`.
    /// `producer` is the publishing subgroup rank (trace/pricing identity).
    void copy_get(int cell, int producer, void* dst, long long src_byte_off, int count,
                  MPI_Datatype t);

    /// Blocks (wall clock only; no modeled cost) until every consumer
    /// retired every epoch published through `cell`.
    void copy_drain(int cell);

    /// Emits one copy_drain for every cell this build has published so far.
    /// Builders call it once after composing all phases.
    void drain_published();

    // --- execution -----------------------------------------------------

    /// Executes remaining steps in program order. With `blocking` set, stalls
    /// are waited out and the call always returns true. Otherwise the first
    /// incomplete receive returns false (call again later). On true, *err
    /// holds the first error encountered (steps after an error are skipped).
    bool advance(bool blocking, int* err);

    /// Re-arms the schedule for another execution from step 0: frees any
    /// still-posted receives, clears every request slot and forgets a
    /// previous error. Scratch is left as-is — builders write every scratch
    /// region (snapshot step or received message) before reading it, so the
    /// replay cannot observe stale bytes. Input-snapshot `local` steps
    /// re-run on the next advance(), re-reading the bound user buffers —
    /// that is what makes MPI_Start pick up buffer contents written between
    /// starts.
    void reset();

    /// Retags the schedule for a new collective sequence number. Step tags
    /// are computed at execution time (coll_tag(seq, step)), so a cached
    /// schedule re-armed with the caller's fresh coll_seq emits exactly the
    /// tags a freshly built schedule would — which is what lets one rank
    /// serve a call from its cache while a peer builds the same schedule
    /// from scratch without any tag mismatch. A schedule with copy steps
    /// additionally rebinds to the fresh (context, seq) rendezvous block —
    /// the shm analogue of the tag change: a cache-hit rank and a
    /// rebuilding peer meet in the same per-invocation cell namespace.
    void set_seq(std::uint64_t seq) {
        seq_ = seq;
        if (shm_block_ != nullptr) rebind_shm();
    }

    std::uint64_t seq() const { return seq_; }

    MPI_Comm comm() const { return comm_; }

    /// Payload bytes this rank's program puts on the wire per execution
    /// (send steps plus shared-memory gets): the transfer volume an
    /// asynchronous progress thread could hide. Input to the offload gate.
    std::uint64_t comm_bytes() const { return comm_bytes_; }

    /// Current step cursor (monotone within one execution; reset() rewinds
    /// it). The progress engine diffs it around advance() calls to account
    /// `progress.steps_advanced`.
    std::size_t pos() const { return pos_; }

    std::size_t step_count() const { return steps_.size(); }

private:
    /// Unlinks and frees every outstanding posted receive (error paths and
    /// destruction); safe to call only from the owning rank's thread.
    void release_pending();

    struct Scope {
        std::vector<int> map;  ///< subgroup rank -> enclosing-scope rank
        int rank = 0;          ///< my subgroup rank
        int tag_base = 0;
    };

    /// Resolves a subgroup rank to a communicator rank through the scope
    /// stack (innermost maps into the next scope out, and so on).
    int translate(int peer) const {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            peer = it->map[static_cast<std::size_t>(peer)];
        }
        return peer;
    }
    int tag_offset() const {
        int off = 0;
        for (auto const& sc : scopes_) off += sc.tag_base;
        return off;
    }

    /// Appends one dry send/post TapeStep, flagging (sticky) any full tag
    /// outside the 10-bit budget coll_tag() can represent.
    void dry_record(std::uint8_t kind, int peer, int tag, int count, MPI_Datatype t) {
        if ((tag < 0 || tag >= DrySink::kTagBudget) && dry_->over_tag < 0) {
            dry_->over_tag = tag;
        }
        TapeStep ts;
        ts.bytes = static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(t->size);
        ts.a = static_cast<std::uint32_t>(peer);
        ts.tag = static_cast<std::uint16_t>(tag & 0xFFFF);
        ts.kind = kind;
        dry_->steps.push_back(ts);
    }

    /// Same, for copy-step lowering: cell ids obey the tag budget but live
    /// in their own matching namespace, so the recorded tape tag carries a
    /// high marker bit — a copy channel can never alias a message channel
    /// in the simulator even when a cell id equals a step tag.
    void dry_record_copy(std::uint8_t kind, int peer, int cell_id, int count, MPI_Datatype t) {
        if ((cell_id < 0 || cell_id >= DrySink::kTagBudget) && dry_->over_tag < 0) {
            dry_->over_tag = cell_id;
        }
        TapeStep ts;
        ts.bytes = static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(t->size);
        ts.a = static_cast<std::uint32_t>(peer);
        ts.tag = static_cast<std::uint16_t>((cell_id & 0x7FFF) | 0x8000);
        ts.kind = kind;
        dry_->steps.push_back(ts);
    }

    /// One arena block. Chunks never move or shrink, so pointers handed out
    /// by alloc() stay stable for the schedule's lifetime.
    struct Chunk {
        std::unique_ptr<std::byte[]> mem;
        std::size_t cap = 0;
        std::size_t used = 0;
    };

    std::vector<Scope> scopes_;
    MPI_Comm comm_;
    std::uint64_t seq_;
    std::vector<Step> steps_;
    /// Local steps' functions, kept out of Step so steps stay trivially
    /// copyable and small.
    std::vector<std::function<int()>> locals_;
    std::size_t pos_ = 0;
    int error_ = MPI_SUCCESS;
    std::vector<Chunk> arena_;
    std::size_t arena_cap_ = 0;      ///< sum of chunk capacities
    std::size_t scratch_bytes_ = 0;  ///< sum of requested alloc() sizes
    std::uint64_t comm_bytes_ = 0;   ///< per-execution send + shm-get payload
    std::vector<xmpi_request_t*> reqs_;
    DrySink* dry_ = nullptr;  ///< non-null while in dry-build (tape) mode

    // --- shared-memory transport binding (only set when the build emitted
    // copy steps; see shm/shm.hpp for the protocol) ----------------------

    /// Binds this schedule to the (node, context, seq) rendezvous block on
    /// first copy step append; no-op afterwards.
    void bind_shm();
    /// Re-acquires the block for the current seq_ and invalidates the
    /// per-step cell caches; the next execution is epoch 1 of the new block.
    void rebind_shm();

    std::shared_ptr<shm::Block> shm_block_;
    /// 1-based execution count within the bound block: the epoch the next
    /// run's copy_get steps wait for. Advanced by reset() after a completed
    /// run (`ran_`), pinned back to 1 by rebind_shm().
    std::uint64_t shm_epoch_ = 0;
    bool ran_ = false;
    /// Cells published by this build (build-time bookkeeping for
    /// drain_published()).
    std::vector<int> published_cells_;
};

/// RAII group scope: the hierarchical builders compose existing builders as
/// sub-schedules by entering a scope around each phase.
class GroupScope {
public:
    GroupScope(Schedule& s, std::vector<int> map, int my_sub_rank, int tag_base) : s_(s) {
        s_.push_group(std::move(map), my_sub_rank, tag_base);
    }
    ~GroupScope() { s_.pop_group(); }
    GroupScope(GroupScope const&) = delete;
    GroupScope& operator=(GroupScope const&) = delete;

private:
    Schedule& s_;
};

/// Runs the whole schedule to completion on the calling rank.
int run_blocking(Schedule& s);

/// Wraps a built schedule into a progressable generalized request (the
/// engine behind the MPI_I* collectives) and runs one progress pass so
/// trivial schedules complete immediately. `init_error` short-circuits the
/// request into immediate errored completion.
int launch_nonblocking(MPI_Comm comm, std::shared_ptr<Schedule> s, int init_error,
                       MPI_Request* request);

/// Wraps a built schedule into an *inactive* persistent request (the engine
/// behind the MPI_*_init collectives): MPI_Start resets the schedule and
/// kicks off one progress pass, MPI_Wait/MPI_Test completion returns the
/// request to the inactive-but-allocated state, and MPI_Request_free
/// releases it. Algorithm and topology selection happened when the schedule
/// was built, i.e. they are frozen for the request's lifetime.
int launch_persistent(MPI_Comm comm, std::shared_ptr<Schedule> s, MPI_Request* request);

}  // namespace xmpi::detail::alg

/// @file schedule.cpp
/// @brief Schedule executor: one code path drives every collective algorithm
/// blockingly, as a one-shot generalized request, and as a re-armable
/// persistent request (see schedule.hpp).
#include "schedule.hpp"

#include <cstring>

#include "../progress.hpp"
#include "../shm/shm.hpp"

namespace xmpi::detail::alg {

namespace {

/// Layout-aware single copy between two buffers of the same datatype: a
/// straight memcpy for contiguous layouts; pack + unpack through a transient
/// staging vector otherwise (still one modeled copy — the staging detour is
/// a host-memory implementation detail, like the p2p envelope).
void copy_typed(void* dst, void const* src, int count, MPI_Datatype t) {
    if (count <= 0 || t->size == 0) return;
    std::size_t const packed =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(t->size);
    if (t->is_builtin || (t->extent == t->size && t->lb == 0)) {
        std::memcpy(dst, src, packed);
        return;
    }
    std::vector<std::byte> tmp(packed);
    t->pack(src, count, tmp.data());
    t->unpack(tmp.data(), count, dst);
}

}  // namespace

std::byte* Schedule::alloc(std::size_t bytes) {
    if (bytes == 0) return nullptr;
    // Bump allocation with 16-byte alignment. The first chunk is sized at
    // 4x the first request (builders typically allocate a handful of
    // payload-sized regions), later chunks double the arena, so the common
    // case is one contiguous block and the worst case O(log n) chunks.
    std::size_t const aligned = (bytes + 15u) & ~std::size_t{15u};
    if (dry_ != nullptr) {
        // Dry builds hand out stable *virtual* addresses from a bump offset
        // in a range no real allocation can occupy. Builders compute offsets
        // into these pointers but only dereference inside `local` steps,
        // which dry mode discards — so simulated scratch costs no memory.
        auto const base = std::uintptr_t{1} << 46;
        std::byte* const p = reinterpret_cast<std::byte*>(base + dry_->scratch_used);
        dry_->scratch_used += aligned;
        return p;
    }
    if (arena_.empty() || arena_.back().cap - arena_.back().used < aligned) {
        std::size_t cap = arena_.empty() ? aligned * 4 : std::max(aligned, arena_cap_);
        if (cap < 1024) cap = 1024;
        Chunk c;
        c.mem = std::make_unique<std::byte[]>(cap);  // value-init: zeroed
        c.cap = cap;
        arena_.push_back(std::move(c));
        arena_cap_ += cap;
    }
    Chunk& c = arena_.back();
    std::byte* const p = c.mem.get() + c.used;
    c.used += aligned;
    scratch_bytes_ += bytes;
    if (RankState* rs = tls_rank(); rs != nullptr) {
        rs->counters.schedule_peak_scratch_bytes.merge_max(scratch_bytes_);
    }
    return p;
}

void Schedule::copy_pub(int cell, void const* buf, int count, MPI_Datatype t,
                        std::vector<int> const& readers) {
    int const id = tag_offset() + cell;
    if (dry_ != nullptr) {
        // One pseudo-send per expected get, so the simulator's
        // channel-closure validation (sends == posts) holds for copy
        // channels exactly as for message channels.
        for (int const r : readers) dry_record_copy(TapeStep::kCopyPub, translate(r), id, count, t);
        return;
    }
    bind_shm();
    Step s;
    s.kind = Step::Kind::copy_pub;
    s.peer = static_cast<int>(readers.size());
    s.tag_step = id;
    s.sbuf = buf;
    s.count = count;
    s.type = t;
    steps_.push_back(std::move(s));
    published_cells_.push_back(id);
}

void Schedule::copy_get(int cell, int producer, void* dst, long long src_byte_off, int count,
                        MPI_Datatype t) {
    int const id = tag_offset() + cell;
    if (dry_ != nullptr) {
        dry_record_copy(TapeStep::kPost, translate(producer), id, count, t);
        TapeStep ts;
        ts.bytes = static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(t->size);
        ts.a = static_cast<std::uint32_t>(dry_->nslots++);
        ts.kind = TapeStep::kCopyWait;
        dry_->steps.push_back(ts);
        return;
    }
    bind_shm();
    Step s;
    s.kind = Step::Kind::copy_get;
    s.peer = translate(producer);
    s.tag_step = id;
    s.rbuf = dst;
    s.count = count;
    s.type = t;
    s.src_off = src_byte_off;
    comm_bytes_ += static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(t->size);
    steps_.push_back(std::move(s));
}

void Schedule::copy_drain(int cell) {
    if (dry_ != nullptr) return;  // wall-clock-only sync: no modeled cost
    bind_shm();
    Step s;
    s.kind = Step::Kind::copy_drain;
    s.tag_step = tag_offset() + cell;
    steps_.push_back(std::move(s));
}

void Schedule::drain_published() {
    if (dry_ != nullptr) return;
    for (int const id : published_cells_) {
        Step s;
        s.kind = Step::Kind::copy_drain;
        s.tag_step = id;  // already a full (scope-offset) cell id
        steps_.push_back(std::move(s));
    }
    published_cells_.clear();
}

void Schedule::bind_shm() {
    if (shm_block_ != nullptr) return;
    Universe* const u = comm_->universe;
    int const me_world = comm_->world_of(comm_->rank());
    int const node = u->node_of_world.empty() ? 0 : u->node_of_world[static_cast<std::size_t>(me_world)];
    shm_block_ = shm::acquire_block(*u->shm, node, comm_->context + 1, seq_);
    shm_epoch_ = 1;
    ran_ = false;
}

void Schedule::rebind_shm() {
    Universe* const u = comm_->universe;
    int const me_world = comm_->world_of(comm_->rank());
    int const node = u->node_of_world.empty() ? 0 : u->node_of_world[static_cast<std::size_t>(me_world)];
    shm_block_ = shm::acquire_block(*u->shm, node, comm_->context + 1, seq_);
    for (auto& st : steps_) {
        if (st.kind == Step::Kind::copy_pub || st.kind == Step::Kind::copy_get ||
            st.kind == Step::Kind::copy_drain)
            st.cell = nullptr;
    }
    shm_epoch_ = 1;
    ran_ = false;
}

bool Schedule::advance(bool blocking, int* err) {
    if (pos_ < steps_.size()) ran_ = true;
    while (pos_ < steps_.size()) {
        Step& st = steps_[pos_];
        int rc = MPI_SUCCESS;
        switch (st.kind) {
            case Step::Kind::send:
                trace::ev(trace::Ev::step_send, comm_->world_of(st.peer),
                          coll_tag(seq_, st.tag_step),
                          static_cast<std::size_t>(st.count) *
                              static_cast<std::size_t>(st.type->size),
                          seq_);
                rc = deposit(tls_rank(), comm_, comm_->context + 1, st.peer,
                             coll_tag(seq_, st.tag_step), st.sbuf, st.count, st.type, nullptr,
                             true);
                break;
            case Step::Kind::post_recv:
                trace::ev(trace::Ev::step_post, comm_->world_of(st.peer),
                          coll_tag(seq_, st.tag_step),
                          static_cast<std::size_t>(st.count) *
                              static_cast<std::size_t>(st.type->size),
                          seq_);
                rc = xmpi::detail::post_recv(tls_rank(), comm_, comm_->context + 1, st.peer,
                                             coll_tag(seq_, st.tag_step), st.rbuf, st.count,
                                             st.type, true, &reqs_[static_cast<std::size_t>(st.slot)]);
                break;
            case Step::Kind::wait_recv: {
                xmpi_request_t*& req = reqs_[static_cast<std::size_t>(st.slot)];
                if (blocking) {
                    rc = wait_one(req, MPI_STATUS_IGNORE);
                    req = nullptr;
                } else {
                    int flag = 0;
                    rc = test_one(req, &flag, MPI_STATUS_IGNORE);
                    if (flag == 0) return false;
                    req = nullptr;
                }
                // Emitted on completion, not issue: the nonblocking path
                // retries this step until the slot tests complete, and the
                // replayed tape must contain each wait exactly once.
                trace::ev(trace::Ev::step_wait, st.slot, -1, 0, seq_);
                break;
            }
            case Step::Kind::local:
                trace::ev(trace::Ev::step_local, -1, -1, 0, seq_);
                rc = locals_[static_cast<std::size_t>(st.slot)]();
                break;
            case Step::Kind::copy_pub: {
                if (st.cell == nullptr) st.cell = shm_block_->cell(st.tag_step);
                int const w = shm::wait_publishable(*shm_block_, *st.cell, comm_, blocking);
                if (w == 0) return false;
                if (w < 0) {
                    rc = -w;
                    break;
                }
                RankState* const rs = tls_rank();
                charge_call(rs);
                std::uint64_t const bytes = static_cast<std::uint64_t>(st.count) *
                                            static_cast<std::uint64_t>(st.type->size);
                // Publication costs the producer nothing; consumers price
                // the rendezvous (copy_sync) plus the per-byte single copy.
                trace::ev(trace::Ev::step_copy_pub, -1, st.tag_step, bytes, seq_);
                shm::publish(*shm_block_, *st.cell, st.sbuf, bytes,
                             static_cast<std::uint32_t>(st.peer),
                             rs->vnow + cost::copy(rs->universe->cfg, bytes).sync);
                shm::stats_add_publish();
                // Peer schedules parked on this cell may be engine-driven,
                // or nonblocking ones parked in a node-mate's mailbox wait.
                progress::stimulate(comm_->universe, -1);
                wake_node(comm_->universe, rs->world_rank);
                break;
            }
            case Step::Kind::copy_get: {
                if (st.cell == nullptr) st.cell = shm_block_->cell(st.tag_step);
                int const w = shm::wait_ready(*shm_block_, *st.cell, shm_epoch_, comm_, blocking);
                if (w == 0) return false;
                if (w < 0) {
                    rc = -w;
                    break;
                }
                RankState* const rs = tls_rank();
                charge_call(rs);
                // Snapshot the epoch's fields *before* acking: the ack
                // releases the producer to overwrite them.
                double const arrival = st.cell->arrival;
                std::byte const* const src =
                    static_cast<std::byte const*>(st.cell->ptr) + st.src_off;
                std::uint64_t const bytes = static_cast<std::uint64_t>(st.count) *
                                            static_cast<std::uint64_t>(st.type->size);
                copy_typed(st.rbuf, src, st.count, st.type);
                shm::ack(*shm_block_, *st.cell);
                // The producer may be parked in wait_drained on this cell
                // (engine-driven) or in its mailbox wait (nonblocking).
                progress::stimulate(comm_->universe, -1);
                wake_node(comm_->universe, rs->world_rank);
                rs->vnow.advance_to(arrival);
                rs->vnow += cost::copy(rs->universe->cfg, bytes).load;
                ++rs->counters.shm_copies;
                rs->counters.shm_copy_bytes += bytes;
                shm::stats_add_copy(bytes);
                trace::ev(trace::Ev::step_copy_get, comm_->world_of(st.peer), st.tag_step, bytes,
                          seq_);
                break;
            }
            case Step::Kind::copy_drain: {
                if (st.cell == nullptr) st.cell = shm_block_->cell(st.tag_step);
                int const w = shm::wait_drained(*shm_block_, *st.cell, comm_, blocking);
                if (w == 0) return false;
                if (w < 0) {
                    rc = -w;
                    break;
                }
                shm::stats_add_drain();
                break;
            }
        }
        if (rc != MPI_SUCCESS) {
            // Abandon the remainder of the program (error paths here mean a
            // dead rank or revoked communicator). Outstanding posted
            // receives are unlinked immediately: a straggling live peer must
            // not be able to match them later and write into freed scratch.
            error_ = rc;
            pos_ = steps_.size();
            release_pending();
            trace::ev(trace::Ev::sched_done, -1, -1, static_cast<std::uint64_t>(error_), seq_);
            *err = error_;
            return true;
        }
        ++pos_;
    }
    trace::ev(trace::Ev::sched_done, -1, -1, 0, seq_);
    *err = error_;
    return true;
}

void Schedule::release_pending() {
    if (tls_rank() == nullptr) return;  // universe already torn down
    for (auto& req : reqs_) {
        if (req == nullptr) continue;
        MPI_Request_free(&req);  // unlinks from the mailbox posted list
    }
}

void Schedule::reset() {
    release_pending();
    for (auto& req : reqs_) req = nullptr;
    pos_ = 0;
    error_ = MPI_SUCCESS;
    // Each completed execution consumed one rendezvous epoch of the bound
    // shm block; the next run's copy_get steps wait for the next one. A
    // reset before any execution (persistent init -> first MPI_Start) must
    // not advance the epoch, hence the `ran_` latch. set_seq() afterwards
    // (the cache-hit path) rebinds to a fresh block and pins epoch 1.
    if (ran_) {
        ++shm_epoch_;
        ran_ = false;
    }
    // Scratch is deliberately NOT re-zeroed: every builder writes each
    // scratch region (via an input-snapshot `local` step or a received
    // message) before reading it, so a restarted schedule cannot observe a
    // previous round's bytes — and zeroing per start would charge exactly
    // the per-iteration cost persistent collectives exist to amortize. The
    // equivalence harness's persistent flavor (restart with fresh inputs,
    // byte-compared per round) enforces this write-before-read invariant
    // for every registered builder.
}

int run_blocking(Schedule& s) {
    int err = MPI_SUCCESS;
    s.advance(/*blocking=*/true, &err);
    return err;
}

namespace {

/// The progress state machine shared by the one-shot and persistent launch
/// paths: advances the schedule until it stalls or completes.
std::function<bool(xmpi_request_t*)> schedule_progress(std::shared_ptr<Schedule> s) {
    return [s = std::move(s)](xmpi_request_t* rq) -> bool {
        int err = MPI_SUCCESS;
        if (!s->advance(/*blocking=*/false, &err)) return false;
        if (err != MPI_SUCCESS) rq->error = err;
        rq->completion_vtime = tls_rank()->vnow;
        rq->complete.store(true, std::memory_order_release);
        return true;
    };
}

}  // namespace

int launch_nonblocking(MPI_Comm comm, std::shared_ptr<Schedule> s, int init_error,
                       MPI_Request* request) {
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::generalized;
    req->owner = tls_rank();
    req->comm = comm;
    if (init_error != MPI_SUCCESS) {
        req->error = init_error;
        req->completion_vtime = tls_rank()->vnow;
        req->complete.store(true, std::memory_order_release);
        *request = req;
        return MPI_SUCCESS;
    }
    req->progress = schedule_progress(s);
    // Hand the armed schedule to the asynchronous progress engine when it is
    // running and the schedule clears the offload gate; otherwise run the
    // classic inline first pass (wait/test drive the rest).
    if (!progress::offload(req->owner, std::move(s), req)) req->progress(req);
    *request = req;
    return MPI_SUCCESS;
}

int launch_persistent(MPI_Comm comm, std::shared_ptr<Schedule> s, MPI_Request* request) {
    if (RankState* rs = tls_rank(); rs != nullptr) ++rs->counters.schedule_builds;
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::generalized;
    req->owner = tls_rank();
    req->comm = comm;
    req->persistent = true;
    req->active = false;
    req->progress = schedule_progress(s);
    req->start_fn = [s = std::move(s)](xmpi_request_t* rq) -> int {
        trace::ev(trace::Ev::sched_arm, -1, -1, 0, s->seq());
        s->reset();
        rq->error = MPI_SUCCESS;
        rq->offloaded = false;  // re-evaluated per start (controls may flip)
        rq->complete.store(false, std::memory_order_release);
        if (!progress::offload(rq->owner, s, rq)) {
            rq->progress(rq);  // one pass so trivial schedules complete at start
        }
        return MPI_SUCCESS;
    };
    *request = req;
    return MPI_SUCCESS;
}

}  // namespace xmpi::detail::alg

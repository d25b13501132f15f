/// @file p2p.cpp
/// @brief Point-to-point engine: eager deposit with sender-side matching,
/// posted-receive queue, request completion (wait/test families) and probes.
///
/// Locking discipline: all matching state of rank R lives in R's mailbox and
/// is guarded by its mutex. A thread holds at most one mailbox mutex at a
/// time; cross-rank wakeups (synchronous-send completion) are issued after
/// releasing the local mutex.
///
/// Blocking waits all go through mailbox_wait, which spins on R's arrival
/// counter and then parks on R's cv (protocol: Mailbox in internal.hpp):
///   - Every event that may end a wait bumps the counter under R's mutex;
///     the waiter parks, counted in `sleepers`, only if the counter has not
///     moved since its last check, and notifiers skip the notify while
///     nobody is parked.
///   - The spin lasts at most kWaitSpinBudget per wait and only runs when
///     the universe does not oversubscribe the cores (spin_waits).
///   - The first failed check charges the call's compute so far (the rank is
///     idle from there on, so the clock read is off the critical path). The
///     CPU burnt spinning or parked is re-anchored away afterwards
///     (discard_compute), so virtual time sees it as waiting.
#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "internal.hpp"
#include "progress.hpp"

namespace xmpi::detail {

/// Wakes a rank blocked on its own mailbox. Bumping the arrival counter
/// under the mutex closes the window between a waiter's check and its park
/// without holding two mailbox mutexes. Also used by the asynchronous
/// progress engine to wake an owner parked in wait_one on an offloaded
/// schedule.
void wake_rank(RankState* rs) {
    bool parked;
    {
        std::lock_guard<std::mutex> lock(rs->mbox.m);
        rs->mbox.arrivals.fetch_add(1, std::memory_order_relaxed);
        parked = rs->mbox.sleepers > 0;
    }
    if (parked) rs->mbox.cv.notify_all();
}

void wake_node(Universe* u, int world_rank) {
    for (int w = 0; w < u->size; ++w) {
        if (w != world_rank && topo::same_node(u, w, world_rank))
            wake_rank(u->ranks[static_cast<std::size_t>(w)].get());
    }
}

namespace {

bool match(int pctx, int psrc, int ptag, Envelope const& e) {
    return e.context == pctx && (psrc == MPI_ANY_SOURCE || psrc == e.src) &&
           (ptag == MPI_ANY_TAG || ptag == e.tag);
}

/// Completes a posted/created receive request from an envelope. The caller
/// holds the owner's mailbox mutex.
void fill_recv(xmpi_request_t* pr, Envelope& env) {
    std::size_t const cap =
        static_cast<std::size_t>(pr->count) * static_cast<std::size_t>(pr->type->size);
    std::size_t take = env.bytes.size();
    if (take > cap) {
        pr->error = MPI_ERR_TRUNCATE;
        take = cap;
    }
    if (pr->type->size > 0 && take > 0) {
        pr->type->unpack(env.bytes.data(), static_cast<int>(take / pr->type->size), pr->buf);
    }
    pr->status.MPI_SOURCE = env.src;
    pr->status.MPI_TAG = env.tag;
    pr->status.MPI_ERROR = pr->error;
    pr->status._bytes = static_cast<int>(env.bytes.size());
    pr->completion_vtime = env.arrival;
    pr->posted = false;
    pr->complete.store(true, std::memory_order_release);
}

void unlink_posted(RankState* self, xmpi_request_t* req) {
    auto& posted = self->mbox.posted;
    posted.erase(std::remove(posted.begin(), posted.end(), req), posted.end());
    req->posted = false;
}

/// Spin shape: pause between counter loads, read the clock every
/// kPausesPerCheck loads and yield every kChecksPerYield clock reads.
inline constexpr int kPausesPerCheck = 32;
inline constexpr int kChecksPerYield = 8;
/// Park slice for waits that also poll (generalized requests, Waitany).
inline constexpr auto kPollSlice = std::chrono::microseconds(200);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
}

/// Spins until `mb`'s arrival counter leaves `seen` (true) or `deadline`
/// passes (false).
bool spin_for_arrival(Mailbox& mb, std::uint64_t seen,
                      std::chrono::steady_clock::time_point deadline) {
    for (int checks = 1;; ++checks) {
        for (int i = 0; i < kPausesPerCheck; ++i) {
            if (mb.arrivals.load(std::memory_order_acquire) != seen) return true;
            cpu_relax();
        }
        if (std::chrono::steady_clock::now() >= deadline) return false;
        if (checks % kChecksPerYield == 0) std::this_thread::yield();
    }
}

/// The one blocking-wait loop of the engine. `check()` is the full
/// completion test: it may lock the mailbox and run progress, and returns
/// true once the wait is over (completed or failed). Between checks the rank
/// spins, then parks, per the file header. With `poll` each park is bounded
/// by kPollSlice.
///
/// Compute: one charge_compute before the first spin or park, and one
/// discard_compute after each spin or park (one for a spin that runs into a
/// park). The CPU of a re-check that fails again counts as waiting.
///
/// Wall-clock accounting: the steady clock is first read when a check fails,
/// so a wait whose request is already complete pays zero clock reads. The
/// wait's duration, spin included, accumulates into RankState::wait_time_ns
/// (the `p2p.wait_time_ns` pvar) between paired wait_begin/wait_end trace
/// events; a wait that parks counts once in `p2p.wait_parks`.
template <typename Check>
void mailbox_wait(RankState* self, int tag, std::uint64_t seq, bool poll, Check&& check) {
    using clock = std::chrono::steady_clock;
    Mailbox& mb = self->mbox;
    clock::time_point t0{};
    bool waited = false;
    bool parked = false;
    for (;;) {
        std::uint64_t const seen = mb.arrivals.load(std::memory_order_acquire);
        if (check()) break;
        if (!waited) {
            waited = true;
            charge_compute(self);
            t0 = clock::now();
            trace::ev(trace::Ev::wait_begin, -1, tag, 0, seq);
        }
        bool const spun = self->universe->spin_waits && !parked;
        if (spun && spin_for_arrival(mb, seen, t0 + kWaitSpinBudget)) {
            discard_compute(self);
            continue;
        }
        bool slept = false;
        {
            std::unique_lock<std::mutex> lock(mb.m);
            if (mb.arrivals.load(std::memory_order_relaxed) == seen) {
                if (!parked) {
                    parked = true;
                    ++self->wait_parks;
                }
                ++mb.sleepers;
                if (poll) {
                    mb.cv.wait_for(lock, kPollSlice);
                } else {
                    mb.cv.wait(lock);
                }
                --mb.sleepers;
                slept = true;
            }
        }
        if (spun || slept) discard_compute(self);
    }
    if (!waited) return;
    auto const ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0).count());
    self->wait_time_ns += ns;
    trace::ev(trace::Ev::wait_end, -1, tag, ns, seq);
}

/// Completion check of a generalized request: an offloaded schedule is
/// driven entirely by the progress engine, whose completion wakes the owner.
/// Otherwise the calling thread drives the schedule itself — those calls
/// are counted so the overlap tests can assert the wait side did zero
/// progress work under the engine.
bool generalized_done(RankState* self, xmpi_request_t* req) {
    if (req->complete.load(std::memory_order_acquire)) return true;
    if (req->offloaded) return false;
    ++self->app_progress_calls;
    return req->progress(req);
}

/// Failure/revocation predicate for a pending receive. Returns an MPI error
/// code or MPI_SUCCESS when the operation may keep waiting.
int recv_failure(Universe* u, xmpi_request_t* req) {
    if (comm_revoked(req->comm)) return MPIX_ERR_REVOKED;
    if (req->match_src != MPI_ANY_SOURCE) {
        if (rank_dead(u, req->comm->world_of(req->match_src))) return MPIX_ERR_PROC_FAILED;
    } else if (any_member_dead(req->comm)) {
        return MPIX_ERR_PROC_FAILED;
    }
    return MPI_SUCCESS;
}

void fill_empty_status(MPI_Status* status) {
    if (status != nullptr) *status = MPI_Status{MPI_PROC_NULL, MPI_ANY_TAG, MPI_SUCCESS, 0};
}

/// Consumes a completed (or errored) request: a persistent request returns
/// to the inactive-but-allocated state so it can be started again; a
/// one-shot request is destroyed.
void retire(xmpi_request_t* req) {
    if (req->persistent) {
        req->active = false;
    } else {
        delete req;
    }
}

/// True when wait/test on `req` must return immediately because the
/// persistent request has no operation in flight (MPI semantics: completion
/// calls on inactive requests succeed with an empty status).
bool inactive_persistent(xmpi_request_t const* req) {
    return req->persistent && !req->active;
}

/// Arms a receive request whose matching spec is already filled in: matches
/// the unexpected queue or links the request into the posted list. Shared
/// between post_recv (fresh one-shot receives) and MPI_Start on a
/// persistent receive (re-arming the same request object).
void attach_recv(RankState* self, xmpi_request_t* req) {
    charge_call(self);
    std::shared_ptr<SsendToken> tok;
    {
        std::lock_guard<std::mutex> lock(self->mbox.m);
        auto& ux = self->mbox.unexpected;
        bool matched = false;
        for (auto it = ux.begin(); it != ux.end(); ++it) {
            if (match(req->context, req->match_src, req->match_tag, *it)) {
                tok = it->ssend;
                if (tok) tok->match_vtime = std::max<double>(self->vnow, it->arrival) + it->ack_alpha;
                fill_recv(req, *it);
                ux.erase(it);
                matched = true;
                break;
            }
        }
        if (!matched) {
            req->posted = true;
            self->mbox.posted.push_back(req);
        }
    }
    if (tok) {
        tok->matched.store(true, std::memory_order_release);
        wake_rank(tok->sender);
    }
}

}  // namespace

int deposit(RankState* sender, MPI_Comm comm, int context, int dest_comm_rank, int tag,
            void const* buf, int count, MPI_Datatype type,
            std::shared_ptr<SsendToken> const& sync, bool collective) {
    Universe* u = sender->universe;
    int const dest_w = comm->world_of(dest_comm_rank);
    if (rank_dead(u, dest_w)) return MPIX_ERR_PROC_FAILED;

    // Two-tier accounting: messages between ranks on the same node use the
    // intra-node (shared-memory) machine parameters.
    bool const intra = topo::same_node(u, sender->world_rank, dest_w);
    std::size_t const bytes = static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    cost::Message const m = cost::message(u->cfg, intra, bytes);

    charge_call(sender);
    sender->vnow += m.o;

    Envelope env;
    env.context = context;
    env.src = comm->rank();
    env.tag = tag;
    env.bytes.resize(bytes);
    if (bytes > 0) type->pack(buf, count, env.bytes.data());
    env.arrival = sender->vnow + m.alpha + m.wire;
    env.ack_alpha = m.alpha;
    env.ssend = sync;

    if (collective) {
        sender->counters.coll_messages += 1;
        sender->counters.coll_bytes += bytes;
    } else {
        sender->counters.p2p_messages += 1;
        sender->counters.p2p_bytes += bytes;
    }
    if (intra) {
        sender->counters.intra_node_messages += 1;
        sender->counters.intra_node_bytes += bytes;
    }
    trace::ev(trace::Ev::send, dest_w, tag, bytes, static_cast<std::uint64_t>(context));

    RankState* dest = u->ranks[static_cast<std::size_t>(dest_w)].get();
    bool parked;
    {
        std::lock_guard<std::mutex> lock(dest->mbox.m);
        auto& posted = dest->mbox.posted;
        bool matched = false;
        for (auto it = posted.begin(); it != posted.end(); ++it) {
            xmpi_request_t* pr = *it;
            if (match(pr->context, pr->match_src, pr->match_tag, env)) {
                posted.erase(it);
                fill_recv(pr, env);
                if (sync) {
                    sync->match_vtime = env.arrival + env.ack_alpha;
                    sync->matched.store(true, std::memory_order_release);
                }
                matched = true;
                break;
            }
        }
        if (!matched) dest->mbox.unexpected.push_back(std::move(env));
        dest->mbox.arrivals.fetch_add(1, std::memory_order_relaxed);
        parked = dest->mbox.sleepers > 0;
    }
    if (parked) dest->mbox.cv.notify_all();
    // An offloaded schedule owned by the destination may be parked waiting
    // for exactly this message: nudge its progress worker (no-op when the
    // engine is off).
    progress::stimulate(u, dest_w);
    return MPI_SUCCESS;
}

int post_recv(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf, int count,
              MPI_Datatype type, bool /*collective*/, xmpi_request_t** out) {
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::recv;
    req->owner = self;
    req->context = context;
    req->match_src = src;
    req->match_tag = tag;
    req->buf = buf;
    req->count = count;
    req->type = type;
    req->comm = comm;
    trace::ev(trace::Ev::post, src, tag,
              static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size),
              static_cast<std::uint64_t>(context));
    attach_recv(self, req);
    *out = req;
    return MPI_SUCCESS;
}

int wait_one(xmpi_request_t* req, MPI_Status* status) {
    if (req == nullptr) {
        fill_empty_status(status);
        return MPI_SUCCESS;
    }
    if (inactive_persistent(req)) {
        // Waiting on an inactive persistent request returns immediately
        // with an empty status; the request stays allocated.
        fill_empty_status(status);
        return MPI_SUCCESS;
    }
    RankState* self = tls_rank();
    Universe* u = self->universe;
    charge_call(self);

    switch (req->kind) {
        case xmpi_request_t::Kind::send: {
            self->vnow.advance_to(req->completion_vtime);
            fill_empty_status(status);
            int const err = req->error;
            retire(req);
            return err;
        }
        case xmpi_request_t::Kind::recv: {
            auto const ctx = static_cast<std::uint64_t>(req->context);
            int err = MPI_SUCCESS;
            mailbox_wait(self, req->match_tag, ctx, false, [&] {
                if (req->complete.load(std::memory_order_acquire)) return true;
                int const e = recv_failure(u, req);
                if (e == MPI_SUCCESS) return false;
                // A deposit may complete the request until we hold the lock.
                std::lock_guard<std::mutex> lock(self->mbox.m);
                if (req->complete.load(std::memory_order_acquire)) return true;
                unlink_posted(self, req);
                err = e;
                return true;
            });
            if (err != MPI_SUCCESS) {
                retire(req);
                return err;
            }
            self->vnow.advance_to(req->completion_vtime);
            if (status != nullptr) *status = req->status;
            trace::ev(trace::Ev::recv_done, req->comm->world_of(req->status.MPI_SOURCE),
                      req->status.MPI_TAG, static_cast<std::uint64_t>(req->status._bytes), ctx);
            err = req->error;
            retire(req);
            return err;
        }
        case xmpi_request_t::Kind::ssend: {
            auto const ctx = static_cast<std::uint64_t>(req->context);
            int err = MPI_SUCCESS;
            mailbox_wait(self, req->match_tag, ctx, false, [&] {
                if (req->tok->matched.load(std::memory_order_acquire)) return true;
                if (comm_revoked(req->comm)) {
                    err = MPIX_ERR_REVOKED;
                } else if (rank_dead(u, req->comm->world_of(req->match_src))) {
                    err = MPIX_ERR_PROC_FAILED;
                }
                return err != MPI_SUCCESS;
            });
            if (err == MPI_SUCCESS) self->vnow.advance_to(req->tok->match_vtime);
            fill_empty_status(status);
            retire(req);
            return err;
        }
        case xmpi_request_t::Kind::generalized: {
            mailbox_wait(self, -1, static_cast<std::uint64_t>(req->context), true,
                         [&] { return generalized_done(self, req); });
            self->vnow.advance_to(req->completion_vtime);
            fill_empty_status(status);
            int const err = req->error;
            retire(req);
            return err;
        }
        case xmpi_request_t::Kind::null:
            fill_empty_status(status);
            retire(req);
            return MPI_SUCCESS;
    }
    return MPI_ERR_INTERN;
}

int test_one(xmpi_request_t* req, int* flag, MPI_Status* status) {
    if (req == nullptr) {
        *flag = 1;
        fill_empty_status(status);
        return MPI_SUCCESS;
    }
    if (inactive_persistent(req)) {
        *flag = 1;
        fill_empty_status(status);
        return MPI_SUCCESS;
    }
    RankState* self = tls_rank();
    Universe* u = self->universe;
    charge_call(self);

    auto consume_success = [&](double completion, MPI_Status const* st) {
        self->vnow.advance_to(completion);
        if (status != nullptr) {
            if (st != nullptr)
                *status = *st;
            else
                fill_empty_status(status);
        }
        *flag = 1;
    };

    switch (req->kind) {
        case xmpi_request_t::Kind::send: {
            consume_success(req->completion_vtime, nullptr);
            int const err = req->error;
            retire(req);
            return err;
        }
        case xmpi_request_t::Kind::recv: {
            auto recv_done_ev = [&] {
                trace::ev(trace::Ev::recv_done, req->comm->world_of(req->status.MPI_SOURCE),
                          req->status.MPI_TAG, static_cast<std::uint64_t>(req->status._bytes),
                          static_cast<std::uint64_t>(req->context));
            };
            if (req->complete.load(std::memory_order_acquire)) {
                consume_success(req->completion_vtime, &req->status);
                recv_done_ev();
                int const err = req->error;
                retire(req);
                return err;
            }
            int err;
            {
                std::lock_guard<std::mutex> lock(self->mbox.m);
                if (req->complete.load(std::memory_order_acquire)) {
                    // raced with a sender; fall through below
                    err = MPI_SUCCESS;
                } else {
                    err = recv_failure(u, req);
                    if (err != MPI_SUCCESS) unlink_posted(self, req);
                }
            }
            if (req->complete.load(std::memory_order_acquire)) {
                consume_success(req->completion_vtime, &req->status);
                recv_done_ev();
                int const e = req->error;
                retire(req);
                return e;
            }
            if (err != MPI_SUCCESS) {
                *flag = 1;  // completed in error
                if (status != nullptr) fill_empty_status(status);
                retire(req);
                return err;
            }
            *flag = 0;
            return MPI_SUCCESS;
        }
        case xmpi_request_t::Kind::ssend: {
            if (req->tok->matched.load(std::memory_order_acquire)) {
                consume_success(req->tok->match_vtime, nullptr);
                retire(req);
                return MPI_SUCCESS;
            }
            if (rank_dead(u, req->comm->world_of(req->match_src))) {
                *flag = 1;
                fill_empty_status(status);
                retire(req);
                return MPIX_ERR_PROC_FAILED;
            }
            *flag = 0;
            return MPI_SUCCESS;
        }
        case xmpi_request_t::Kind::generalized: {
            bool done = req->complete.load(std::memory_order_acquire);
            if (!done && !req->offloaded) {
                ++self->app_progress_calls;
                done = req->progress(req);
            }
            if (done) {
                consume_success(req->completion_vtime, nullptr);
                int const err = req->error;
                retire(req);
                return err;
            }
            *flag = 0;
            return MPI_SUCCESS;
        }
        case xmpi_request_t::Kind::null: {
            *flag = 1;
            fill_empty_status(status);
            retire(req);
            return MPI_SUCCESS;
        }
    }
    return MPI_ERR_INTERN;
}

int recv_blocking(RankState* self, MPI_Comm comm, int context, int src, int tag, void* buf,
                  int count, MPI_Datatype type, bool collective, MPI_Status* status) {
    xmpi_request_t* req = nullptr;
    int rc = post_recv(self, comm, context, src, tag, buf, count, type, collective, &req);
    if (rc != MPI_SUCCESS) return rc;
    return wait_one(req, status);
}

bool any_member_dead(MPI_Comm comm) {
    Universe* u = comm->universe;
    if (u->dead_count.load(std::memory_order_acquire) == 0) return false;
    for (int w : comm->group) {
        if (!rank_dead(u, w)) continue;
        bool acked = false;
        for (int a : comm->acked_failures) {
            if (a == w) {
                acked = true;
                break;
            }
        }
        if (!acked) return true;
    }
    return false;
}

}  // namespace xmpi::detail

// ---------------------------------------------------------------------------
// Public point-to-point API
// ---------------------------------------------------------------------------

using namespace xmpi::detail;

int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (dest == MPI_PROC_NULL) return MPI_SUCCESS;
    if (dest < 0 || dest >= comm->size()) return MPI_ERR_RANK;
    return deposit(tls_rank(), comm, comm->context, dest, tag, buf, count, type, nullptr, false);
}

int MPI_Ssend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm) {
    CallScope const call;
    MPI_Request req = MPI_REQUEST_NULL;
    if (int rc = MPI_Issend(buf, count, type, dest, tag, comm, &req); rc != MPI_SUCCESS) return rc;
    return wait_one(req, MPI_STATUS_IGNORE);
}

int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
             MPI_Status* status) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (source == MPI_PROC_NULL) {
        if (status != nullptr) *status = MPI_Status{MPI_PROC_NULL, MPI_ANY_TAG, MPI_SUCCESS, 0};
        return MPI_SUCCESS;
    }
    if (source != MPI_ANY_SOURCE && (source < 0 || source >= comm->size())) return MPI_ERR_RANK;
    return recv_blocking(tls_rank(), comm, comm->context, source, tag, buf, count, type, false,
                         status);
}

int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
              MPI_Request* request) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (request == nullptr) return MPI_ERR_REQUEST;
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::send;
    req->owner = tls_rank();
    req->comm = comm;
    if (dest != MPI_PROC_NULL) {
        req->error =
            deposit(tls_rank(), comm, comm->context, dest, tag, buf, count, type, nullptr, false);
    }
    req->completion_vtime = tls_rank()->vnow;
    req->complete.store(true, std::memory_order_release);
    *request = req;
    return req->error;
}

int MPI_Issend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
               MPI_Request* request) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (dest == MPI_PROC_NULL) return MPI_Isend(buf, count, type, dest, tag, comm, request);
    if (dest < 0 || dest >= comm->size()) return MPI_ERR_RANK;
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::ssend;
    req->owner = tls_rank();
    req->comm = comm;
    req->match_src = dest;  // reused as destination for failure checks
    req->tok = std::make_shared<SsendToken>();
    req->tok->sender = tls_rank();
    int const rc = deposit(tls_rank(), comm, comm->context, dest, tag, buf, count, type, req->tok,
                           false);
    if (rc != MPI_SUCCESS) {
        delete req;
        return rc;
    }
    *request = req;
    return MPI_SUCCESS;
}

int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
              MPI_Request* request) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (source == MPI_PROC_NULL) {
        auto* req = new xmpi_request_t();
        req->kind = xmpi_request_t::Kind::null;
        req->owner = tls_rank();
        *request = req;
        return MPI_SUCCESS;
    }
    if (source != MPI_ANY_SOURCE && (source < 0 || source >= comm->size())) return MPI_ERR_RANK;
    return post_recv(tls_rank(), comm, comm->context, source, tag, buf, count, type, false,
                     request);
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest, int sendtag,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status) {
    CallScope const call;
    MPI_Request rreq = MPI_REQUEST_NULL;
    if (int rc = MPI_Irecv(recvbuf, recvcount, recvtype, source, recvtag, comm, &rreq);
        rc != MPI_SUCCESS)
        return rc;
    if (int rc = MPI_Send(sendbuf, sendcount, sendtype, dest, sendtag, comm); rc != MPI_SUCCESS) {
        wait_one(rreq, MPI_STATUS_IGNORE);
        return rc;
    }
    return wait_one(rreq, status);
}

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status) {
    CallScope const call;
    // Blocking probe: an Iprobe scan plus failure checks per mailbox wait.
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    RankState* self = tls_rank();
    Universe* u = self->universe;
    charge_call(self);
    int rc = MPI_SUCCESS;
    mailbox_wait(self, tag, static_cast<std::uint64_t>(comm->context), false, [&] {
        std::lock_guard<std::mutex> lock(self->mbox.m);
        for (auto& env : self->mbox.unexpected) {
            if (match(comm->context, source, tag, env)) {
                if (status != nullptr) {
                    *status = MPI_Status{env.src, env.tag, MPI_SUCCESS,
                                         static_cast<int>(env.bytes.size())};
                }
                self->vnow.advance_to(env.arrival);
                return true;
            }
        }
        if (comm_revoked(comm)) {
            rc = MPIX_ERR_REVOKED;
        } else if (source != MPI_ANY_SOURCE ? rank_dead(u, comm->world_of(source))
                                            : any_member_dead(comm)) {
            rc = MPIX_ERR_PROC_FAILED;
        }
        return rc != MPI_SUCCESS;
    });
    return rc;
}

int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag, MPI_Status* status) {
    CallScope const call;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (flag == nullptr) return MPI_ERR_ARG;
    RankState* self = tls_rank();
    charge_call(self);
    std::lock_guard<std::mutex> lock(self->mbox.m);
    for (auto& env : self->mbox.unexpected) {
        if (match(comm->context, source, tag, env)) {
            // Any matched envelope is reported, and the probe advances the
            // clock to its arrival, as a receive would.
            *flag = 1;
            if (status != nullptr) {
                *status =
                    MPI_Status{env.src, env.tag, MPI_SUCCESS, static_cast<int>(env.bytes.size())};
            }
            self->vnow.advance_to(env.arrival);
            return MPI_SUCCESS;
        }
    }
    *flag = 0;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Request completion families
// ---------------------------------------------------------------------------

namespace {

/// Completion keeps persistent handles valid (they merely turn inactive);
/// one-shot handles are consumed and reset to MPI_REQUEST_NULL.
bool keeps_handle(MPI_Request req) { return req != MPI_REQUEST_NULL && req->persistent; }

}  // namespace

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
    CallScope const call;
    if (request == nullptr) return MPI_ERR_REQUEST;
    bool const keep = keeps_handle(*request);
    int const rc = wait_one(*request, status);
    if (!keep) *request = MPI_REQUEST_NULL;
    return rc;
}

int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status) {
    CallScope const call;
    if (request == nullptr || flag == nullptr) return MPI_ERR_REQUEST;
    if (*request == MPI_REQUEST_NULL) {
        *flag = 1;
        return MPI_SUCCESS;
    }
    bool const keep = keeps_handle(*request);
    int const rc = test_one(*request, flag, status);
    if (*flag != 0 && !keep) *request = MPI_REQUEST_NULL;
    return rc;
}

int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses) {
    CallScope const call;
    int first_error = MPI_SUCCESS;
    for (int i = 0; i < count; ++i) {
        MPI_Status* st = statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
        bool const keep = keeps_handle(requests[i]);
        int const rc = wait_one(requests[i], st);
        if (!keep) requests[i] = MPI_REQUEST_NULL;
        if (rc != MPI_SUCCESS && first_error == MPI_SUCCESS) first_error = rc;
    }
    return first_error;
}

int MPI_Testall(int count, MPI_Request* requests, int* flag, MPI_Status* statuses) {
    CallScope const call;
    if (flag == nullptr) return MPI_ERR_ARG;
    // All-or-nothing semantics would require non-consuming tests; xmpi
    // implements the common pattern: report true only when every request is
    // individually complete, consuming those that are.
    int done = 0;
    for (int i = 0; i < count; ++i) {
        if (requests[i] == MPI_REQUEST_NULL) {
            ++done;
            continue;
        }
        int f = 0;
        MPI_Status* st = statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[i];
        bool const keep = keeps_handle(requests[i]);
        int const rc = test_one(requests[i], &f, st);
        if (f != 0) {
            if (!keep) requests[i] = MPI_REQUEST_NULL;
            ++done;
        }
        if (rc != MPI_SUCCESS) return rc;
    }
    *flag = done == count ? 1 : 0;
    return MPI_SUCCESS;
}

int MPI_Waitany(int count, MPI_Request* requests, int* index, MPI_Status* status) {
    CallScope const call;
    if (index == nullptr) return MPI_ERR_ARG;
    // Null and inactive persistent requests are ignored (MPI semantics);
    // with nothing active there is nothing to wait for.
    bool all_inert = true;
    for (int i = 0; i < count; ++i)
        all_inert = all_inert &&
                    (requests[i] == MPI_REQUEST_NULL || inactive_persistent(requests[i]));
    if (all_inert) {
        *index = MPI_UNDEFINED;
        return MPI_SUCCESS;
    }
    int rc = MPI_SUCCESS;
    mailbox_wait(tls_rank(), -1, 0, true, [&] {
        for (int i = 0; i < count; ++i) {
            if (requests[i] == MPI_REQUEST_NULL || inactive_persistent(requests[i])) continue;
            int f = 0;
            bool const keep = keeps_handle(requests[i]);
            rc = test_one(requests[i], &f, status);
            if (f != 0) {
                if (!keep) requests[i] = MPI_REQUEST_NULL;
                *index = i;
                return true;
            }
        }
        return false;
    });
    return rc;
}

int MPI_Testany(int count, MPI_Request* requests, int* index, int* flag, MPI_Status* status) {
    CallScope const call;
    if (index == nullptr || flag == nullptr) return MPI_ERR_ARG;
    *flag = 0;
    *index = MPI_UNDEFINED;
    bool any_active = false;
    for (int i = 0; i < count; ++i) {
        if (requests[i] == MPI_REQUEST_NULL || inactive_persistent(requests[i])) continue;
        any_active = true;
        int f = 0;
        bool const keep = keeps_handle(requests[i]);
        int const rc = test_one(requests[i], &f, status);
        if (f != 0) {
            if (!keep) requests[i] = MPI_REQUEST_NULL;
            *index = i;
            *flag = 1;
            return rc;
        }
    }
    // Nothing active (all null or inactive persistent): MPI semantics are
    // flag=true with index=MPI_UNDEFINED — otherwise a poll loop over a
    // retired persistent request would spin forever.
    if (!any_active) *flag = 1;
    return MPI_SUCCESS;
}

int MPI_Waitsome(int incount, MPI_Request* requests, int* outcount, int* indices,
                 MPI_Status* statuses) {
    CallScope const call;
    if (outcount == nullptr || indices == nullptr) return MPI_ERR_ARG;
    int index = MPI_UNDEFINED;
    MPI_Status st;
    int rc = MPI_Waitany(incount, requests, &index,
                         statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &st);
    if (index == MPI_UNDEFINED) {
        *outcount = MPI_UNDEFINED;
        return rc;
    }
    int n = 0;
    indices[n] = index;
    if (statuses != MPI_STATUSES_IGNORE) statuses[n] = st;
    ++n;
    // Harvest everything else already complete. Skip the request Waitany
    // just completed: a persistent one keeps its (non-null) handle and
    // would otherwise be reported twice.
    for (int i = 0; i < incount; ++i) {
        if (i == index || requests[i] == MPI_REQUEST_NULL || inactive_persistent(requests[i]))
            continue;
        int f = 0;
        MPI_Status* stp = statuses == MPI_STATUSES_IGNORE ? MPI_STATUS_IGNORE : &statuses[n];
        bool const keep = keeps_handle(requests[i]);
        int const rc2 = test_one(requests[i], &f, stp);
        if (f != 0) {
            if (!keep) requests[i] = MPI_REQUEST_NULL;
            indices[n++] = i;
        }
        if (rc2 != MPI_SUCCESS && rc == MPI_SUCCESS) rc = rc2;
    }
    *outcount = n;
    return rc;
}

int MPI_Request_free(MPI_Request* request) {
    CallScope const call;
    if (request == nullptr) return MPI_ERR_REQUEST;
    xmpi_request_t* req = *request;
    // Freeing MPI_REQUEST_NULL is erroneous per the standard — this is what
    // makes a double free well-defined: the first free nulls the handle, the
    // second reports MPI_ERR_REQUEST instead of touching freed memory.
    if (req == nullptr) return MPI_ERR_REQUEST;
    *request = MPI_REQUEST_NULL;
    RankState* self = tls_rank();
    if (req->kind == xmpi_request_t::Kind::recv && req->posted) {
        // Cancels the pending receive, persistent or not: unlink so no
        // straggling sender can match it and write into freed storage.
        std::lock_guard<std::mutex> lock(self->mbox.m);
        unlink_posted(self, req);
    } else if (req->kind == xmpi_request_t::Kind::generalized && req->persistent && req->active &&
               !req->complete.load(std::memory_order_acquire)) {
        // A started persistent collective cannot be abandoned mid-schedule
        // (peers depend on our remaining sends); drive it to completion
        // first. Every rank freeing its started request terminates like the
        // blocking collective would.
        mailbox_wait(self, -1, static_cast<std::uint64_t>(req->context), true,
                     [&] { return generalized_done(self, req); });
    }
    delete req;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Persistent requests: MPI_Send_init / MPI_Recv_init create *inactive*
// requests whose communication spec is frozen; MPI_Start (re)runs the
// operation, completion through the wait/test families returns the request
// to the inactive state, and MPI_Request_free releases it.
// ---------------------------------------------------------------------------

int MPI_Start(MPI_Request* request) {
    CallScope const call;
    if (request == nullptr || *request == MPI_REQUEST_NULL) return MPI_ERR_REQUEST;
    xmpi_request_t* req = *request;
    // Starting a non-persistent request, or one whose previous start has not
    // completed yet, is a usage error.
    if (!req->persistent || req->active) return MPI_ERR_REQUEST;
    req->active = true;
    return req->start_fn(req);
}

int MPI_Startall(int count, MPI_Request* requests) {
    CallScope const call;
    if (count > 0 && requests == nullptr) return MPI_ERR_REQUEST;
    int first_error = MPI_SUCCESS;
    for (int i = 0; i < count; ++i) {
        int const rc = MPI_Start(&requests[i]);
        if (rc != MPI_SUCCESS && first_error == MPI_SUCCESS) first_error = rc;
    }
    return first_error;
}

int MPI_Send_init(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
                  MPI_Request* request) {
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (dest != MPI_PROC_NULL && (dest < 0 || dest >= comm->size())) return MPI_ERR_RANK;
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::send;
    req->owner = tls_rank();
    req->comm = comm;
    req->persistent = true;
    req->active = false;
    req->start_fn = [buf, count, type, dest, tag, comm](xmpi_request_t* rq) -> int {
        // The transport is fully eager: a started send completes at once
        // (possibly in error). The user buffer is re-read on every start.
        rq->error = dest == MPI_PROC_NULL
                        ? MPI_SUCCESS
                        : xmpi::detail::deposit(tls_rank(), comm, comm->context, dest, tag, buf,
                                                count, type, nullptr, false);
        rq->completion_vtime = tls_rank()->vnow;
        rq->complete.store(true, std::memory_order_release);
        return MPI_SUCCESS;
    };
    *request = req;
    return MPI_SUCCESS;
}

int MPI_Recv_init(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
                  MPI_Request* request) {
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (source != MPI_ANY_SOURCE && source != MPI_PROC_NULL &&
        (source < 0 || source >= comm->size()))
        return MPI_ERR_RANK;
    auto* req = new xmpi_request_t();
    req->owner = tls_rank();
    req->comm = comm;
    req->persistent = true;
    req->active = false;
    if (source == MPI_PROC_NULL) {
        req->kind = xmpi_request_t::Kind::null;
        req->start_fn = [](xmpi_request_t* rq) -> int {
            rq->status = MPI_Status{MPI_PROC_NULL, MPI_ANY_TAG, MPI_SUCCESS, 0};
            rq->complete.store(true, std::memory_order_release);
            return MPI_SUCCESS;
        };
        *request = req;
        return MPI_SUCCESS;
    }
    req->kind = xmpi_request_t::Kind::recv;
    req->context = comm->context;
    req->match_src = source;
    req->match_tag = tag;
    req->buf = buf;
    req->count = count;
    req->type = type;
    req->start_fn = [](xmpi_request_t* rq) -> int {
        rq->error = MPI_SUCCESS;
        rq->status = MPI_Status{MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_SUCCESS, 0};
        rq->complete.store(false, std::memory_order_release);
        attach_recv(rq->owner, rq);
        return MPI_SUCCESS;
    };
    *request = req;
    return MPI_SUCCESS;
}

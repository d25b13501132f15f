/// @file collectives.cpp
/// @brief Collective operations built on the internal point-to-point engine,
/// so the virtual-time cost model prices them by their true message patterns.
/// Bcast, reduce, allgather, allreduce and alltoall (blocking and i-variant)
/// dispatch into the selectable algorithm layer in algorithms/ (binomial
/// trees, pipelined rings, recursive doubling, Rabenseifner, Bruck — chosen
/// per call by the analytic cost model, overridable via XMPI_ALG_* /
/// XMPI_T_alg_set). The remaining collectives keep their fixed shapes:
/// dissemination barrier, linear gather(v)/scatter(v), ring allgatherv,
/// pairwise alltoallv/w, Hillis–Steele scans, and MPI_Ibarrier plus the
/// other MPI_I* as progressable generalized requests.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "internal.hpp"

namespace xmpi::detail {
namespace {

int csend(MPI_Comm c, int dest, std::uint64_t seq, int step, void const* buf, int count,
          MPI_Datatype t) {
    return deposit(tls_rank(), c, c->context + 1, dest, coll_tag(seq, step), buf, count, t, nullptr,
                   true);
}

int crecv(MPI_Comm c, int src, std::uint64_t seq, int step, void* buf, int count, MPI_Datatype t) {
    return recv_blocking(tls_rank(), c, c->context + 1, src, coll_tag(seq, step), buf, count, t,
                         true, MPI_STATUS_IGNORE);
}

int cirecv(MPI_Comm c, int src, std::uint64_t seq, int step, void* buf, int count, MPI_Datatype t,
           xmpi_request_t** req) {
    return post_recv(tls_rank(), c, c->context + 1, src, coll_tag(seq, step), buf, count, t, true,
                     req);
}

/// Exchange with one partner: post receive first, then send, then wait.
int csendrecv(MPI_Comm c, int partner_send, int partner_recv, std::uint64_t seq, int step,
              void const* sbuf, int scount, void* rbuf, int rcount, MPI_Datatype t) {
    xmpi_request_t* rreq = nullptr;
    if (int rc = cirecv(c, partner_recv, seq, step, rbuf, rcount, t, &rreq); rc != MPI_SUCCESS)
        return rc;
    if (int rc = csend(c, partner_send, seq, step, sbuf, scount, t); rc != MPI_SUCCESS) {
        wait_one(rreq, MPI_STATUS_IGNORE);
        return rc;
    }
    return wait_one(rreq, MPI_STATUS_IGNORE);
}

int coll_entry(MPI_Comm& comm) {
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (any_member_dead(comm)) return MPIX_ERR_PROC_FAILED;
    return MPI_SUCCESS;
}

}  // namespace
}  // namespace xmpi::detail

using namespace xmpi::detail;
using xmpi::detail::alg::at_offset;
using xmpi::detail::alg::local_copy;

// ---------------------------------------------------------------------------
// Barrier (dissemination) and Ibarrier (generalized request)
// ---------------------------------------------------------------------------

int MPI_Barrier(MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (p == 1) return MPI_SUCCESS;
    std::uint64_t const seq = comm->coll_seq++;
    char dummy = 0;
    for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
        int const dst = (r + dist) % p;
        int const src = (r - dist % p + p) % p;
        if (int rc = csend(comm, dst, seq, k, &dummy, 0, MPI_BYTE); rc != MPI_SUCCESS) return rc;
        if (int rc = crecv(comm, src, seq, k, &dummy, 0, MPI_BYTE); rc != MPI_SUCCESS) return rc;
    }
    return MPI_SUCCESS;
}

namespace {

struct IbarrierState {
    MPI_Comm comm = nullptr;
    std::uint64_t seq = 0;
    int round = 0;
    int nrounds = 0;
    xmpi_request_t* pending = nullptr;
    char dummy = 0;
};

}  // namespace

int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::generalized;
    req->owner = tls_rank();
    req->comm = comm;
    if (p == 1) {
        req->completion_vtime = tls_rank()->vnow;
        req->complete.store(true, std::memory_order_release);
        *request = req;
        return MPI_SUCCESS;
    }
    auto st = std::make_shared<IbarrierState>();
    st->comm = comm;
    st->seq = comm->coll_seq++;
    while ((1 << st->nrounds) < p) ++st->nrounds;

    auto launch_round = [st, p, r](xmpi_request_t* owner_req) -> int {
        int const dist = 1 << st->round;
        int const dst = (r + dist) % p;
        int const src = (r - dist % p + p) % p;
        if (int rc = cirecv(st->comm, src, st->seq, st->round, &st->dummy, 0, MPI_BYTE,
                            &st->pending);
            rc != MPI_SUCCESS)
            return rc;
        if (int rc = csend(st->comm, dst, st->seq, st->round, &st->dummy, 0, MPI_BYTE);
            rc != MPI_SUCCESS)
            return rc;
        (void)owner_req;
        return MPI_SUCCESS;
    };
    if (int rc = launch_round(req); rc != MPI_SUCCESS) {
        req->error = rc;
        req->complete.store(true, std::memory_order_release);
        *request = req;
        return MPI_SUCCESS;
    }

    req->progress = [st, launch_round](xmpi_request_t* rq) -> bool {
        for (;;) {
            int flag = 0;
            int const rc = test_one(st->pending, &flag, MPI_STATUS_IGNORE);
            if (flag == 0) return false;
            st->pending = nullptr;
            if (rc != MPI_SUCCESS) {
                rq->error = rc;
                rq->completion_vtime = tls_rank()->vnow;
                rq->complete.store(true, std::memory_order_release);
                return true;
            }
            ++st->round;
            if (st->round >= st->nrounds) {
                rq->completion_vtime = tls_rank()->vnow;
                rq->complete.store(true, std::memory_order_release);
                return true;
            }
            if (int rc2 = launch_round(rq); rc2 != MPI_SUCCESS) {
                rq->error = rc2;
                rq->completion_vtime = tls_rank()->vnow;
                rq->complete.store(true, std::memory_order_release);
                return true;
            }
        }
    };
    *request = req;
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Bcast (algorithm layer: flat / binomial / pipelined ring)
// ---------------------------------------------------------------------------

// The blocking and MPI_I* paths of the algorithm-backed collectives share
// one shape: selection runs first (its result is part of the cache key),
// alg::acquire_schedule serves the schedule from the per-communicator cache
// or builds it, and `seq` is always the caller's freshly incremented
// coll_seq so cached and fresh schedules emit identical tags.

int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    if (root < 0 || root >= p) return MPI_ERR_ROOT;
    if (p == 1) return MPI_SUCCESS;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::bcast, comm, bytes, true);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, static_cast<int>(alg::Family::bcast), idx);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::bcast, idx, count, 0, root, buf, nullptr, type, nullptr,
                       nullptr},
        &err, [&](alg::Schedule& sch) { return alg::build_bcast(idx, sch, buf, count, type, root); });
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, alg::Family::bcast, idx, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, static_cast<int>(alg::Family::bcast), idx);
    return err;
}

// ---------------------------------------------------------------------------
// Gather / Gatherv / Scatter / Scatterv (linear, as in typical v-collectives)
// ---------------------------------------------------------------------------

int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    if (r != root) {
        return csend(comm, root, seq, 0, sendbuf, sendcount, sendtype);
    }
    if (sendbuf != MPI_IN_PLACE) {
        local_copy(sendbuf, sendcount, sendtype, at_offset(recvbuf, displs[r], recvtype), recvtype);
    }
    for (int i = 0; i < p; ++i) {
        if (i == r) continue;
        if (int rc = crecv(comm, i, seq, 0, at_offset(recvbuf, displs[i], recvtype), recvcounts[i],
                           recvtype);
            rc != MPI_SUCCESS)
            return rc;
    }
    return MPI_SUCCESS;
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    CallScope const call;
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), recvcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * recvcount;
    return MPI_Gatherv(sendbuf, sendcount, sendtype, recvbuf, counts.data(), displs.data(),
                       recvtype, root, rcomm);
}

int MPI_Scatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    if (r == root) {
        for (int i = 0; i < p; ++i) {
            if (i == r) continue;
            if (int rc = csend(comm, i, seq, 0, at_offset(sendbuf, displs[i], sendtype),
                               sendcounts[i], sendtype);
                rc != MPI_SUCCESS)
                return rc;
        }
        if (recvbuf != MPI_IN_PLACE) {
            local_copy(at_offset(sendbuf, displs[r], sendtype), sendcounts[r], sendtype, recvbuf,
                       recvtype);
        }
        return MPI_SUCCESS;
    }
    return crecv(comm, root, seq, 0, recvbuf, recvcount, recvtype);
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    CallScope const call;
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), sendcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * sendcount;
    return MPI_Scatterv(sendbuf, counts.data(), displs.data(), sendtype, recvbuf, recvcount,
                        recvtype, root, rcomm);
}

// ---------------------------------------------------------------------------
// Allgather (algorithm layer: flat / recursive doubling / ring)
// and Allgatherv (ring)
// ---------------------------------------------------------------------------

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    // Own contribution into place.
    if (sendbuf != MPI_IN_PLACE) {
        local_copy(sendbuf, sendcount, sendtype,
                   at_offset(recvbuf, static_cast<long long>(r) * recvcount, recvtype), recvtype);
    }
    if (p == 1) return MPI_SUCCESS;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);
    int const idx = alg::select(alg::Family::allgather, comm, bytes, true);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, static_cast<int>(alg::Family::allgather),
              idx);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::allgather, idx, recvcount, 0, 0, recvbuf, nullptr, recvtype,
                       nullptr, nullptr},
        &err,
        [&](alg::Schedule& sch) { return alg::build_allgather(idx, sch, recvbuf, recvcount, recvtype); });
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, alg::Family::allgather, idx, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, static_cast<int>(alg::Family::allgather),
              idx);
    return err;
}

int MPI_Allgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (sendbuf != MPI_IN_PLACE) {
        local_copy(sendbuf, sendcount, sendtype, at_offset(recvbuf, displs[r], recvtype), recvtype);
    }
    if (p == 1) return MPI_SUCCESS;
    std::uint64_t const seq = comm->coll_seq++;
    // Ring: in step k, forward block (r - k) to the right neighbor and
    // receive block (r - k - 1) from the left neighbor.
    int const right = (r + 1) % p;
    int const left = (r - 1 + p) % p;
    for (int k = 0; k < p - 1; ++k) {
        int const sblock = (r - k + p) % p;
        int const rblock = (r - k - 1 + 2 * p) % p;
        if (int rc = csendrecv(comm, right, left, seq, k,
                               at_offset(recvbuf, displs[sblock], recvtype), recvcounts[sblock],
                               at_offset(recvbuf, displs[rblock], recvtype), recvcounts[rblock],
                               recvtype);
            rc != MPI_SUCCESS)
            return rc;
    }
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Alltoall family (alltoall: algorithm layer pairwise / Bruck; the v/w
// variants keep the pairwise exchange)
// ---------------------------------------------------------------------------

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    int const idx = alg::select(alg::Family::alltoall, comm, bytes, true);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, static_cast<int>(alg::Family::alltoall),
              idx);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::alltoall, idx, sendcount, recvcount, 0, sendbuf, recvbuf,
                       sendtype, recvtype, nullptr},
        &err, [&](alg::Schedule& sch) {
            return alg::build_alltoall(idx, sch, sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                       recvtype);
        });
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, alg::Family::alltoall, idx, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, static_cast<int>(alg::Family::alltoall),
              idx);
    return err;
}

int MPI_Alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                  MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    local_copy(at_offset(sendbuf, sdispls[r], sendtype), sendcounts[r], sendtype,
               at_offset(recvbuf, rdispls[r], recvtype), recvtype);
    for (int i = 1; i < p; ++i) {
        int const dst = (r + i) % p;
        int const src = (r - i + p) % p;
        xmpi_request_t* rreq = nullptr;
        if (int rc = cirecv(comm, src, seq, i, at_offset(recvbuf, rdispls[src], recvtype),
                            recvcounts[src], recvtype, &rreq);
            rc != MPI_SUCCESS)
            return rc;
        if (int rc = csend(comm, dst, seq, i, at_offset(sendbuf, sdispls[dst], sendtype),
                           sendcounts[dst], sendtype);
            rc != MPI_SUCCESS) {
            wait_one(rreq, MPI_STATUS_IGNORE);
            return rc;
        }
        if (int rc = wait_one(rreq, MPI_STATUS_IGNORE); rc != MPI_SUCCESS) return rc;
    }
    return MPI_SUCCESS;
}

int MPI_Alltoallw(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  const MPI_Datatype* sendtypes, void* recvbuf, const int* recvcounts,
                  const int* rdispls, const MPI_Datatype* recvtypes, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    // Alltoallw displacements are in *bytes*.
    auto sat = [&](int i) { return static_cast<std::byte const*>(sendbuf) + sdispls[i]; };
    auto rat = [&](int i) { return static_cast<std::byte*>(recvbuf) + rdispls[i]; };
    local_copy(sat(r), sendcounts[r], sendtypes[r], rat(r), recvtypes[r]);
    for (int i = 1; i < p; ++i) {
        int const dst = (r + i) % p;
        int const src = (r - i + p) % p;
        xmpi_request_t* rreq = nullptr;
        if (int rc = cirecv(comm, src, seq, i, rat(src), recvcounts[src], recvtypes[src], &rreq);
            rc != MPI_SUCCESS)
            return rc;
        if (int rc = csend(comm, dst, seq, i, sat(dst), sendcounts[dst], sendtypes[dst]);
            rc != MPI_SUCCESS) {
            wait_one(rreq, MPI_STATUS_IGNORE);
            return rc;
        }
        if (int rc = wait_one(rreq, MPI_STATUS_IGNORE); rc != MPI_SUCCESS) return rc;
    }
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Reductions (algorithm layer: reduce flat / binomial; allreduce flat /
// binomial / recursive doubling / Rabenseifner / ring). All rank-order
// bracketings except the ring, which the registry gates on commutativity.
// ---------------------------------------------------------------------------

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               int root, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::reduce, comm, bytes, op->commutative, op->builtin);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, static_cast<int>(alg::Family::reduce),
              idx);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::reduce, idx, count, 0, root, input, recvbuf, type, nullptr,
                       op},
        &err, [&](alg::Schedule& sch) {
            return alg::build_reduce(idx, sch, input, recvbuf, count, type, op, root);
        });
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, alg::Family::reduce, idx, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, static_cast<int>(alg::Family::reduce),
              idx);
    return err;
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                  MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::allreduce, comm, bytes, op->commutative, op->builtin);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, static_cast<int>(alg::Family::allreduce),
              idx);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::allreduce, idx, count, 0, 0, input, recvbuf, type, nullptr,
                       op},
        &err, [&](alg::Schedule& sch) {
            return alg::build_allreduce(idx, sch, input, recvbuf, count, type, op);
        });
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, alg::Family::allreduce, idx, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, static_cast<int>(alg::Family::allreduce),
              idx);
    return err;
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
             MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::size_t const bytes = static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::vector<std::byte> acc(bytes);
    std::vector<std::byte> tmp(bytes);
    if (bytes > 0) std::memcpy(acc.data(), input, bytes);
    if (p > 1) {
        std::uint64_t const seq = comm->coll_seq++;
        for (int dist = 1, k = 0; dist < p; dist <<= 1, ++k) {
            if (r + dist < p) {
                if (int rc = csend(comm, r + dist, seq, k, acc.data(), count, type);
                    rc != MPI_SUCCESS)
                    return rc;
            }
            if (r - dist >= 0) {
                if (int rc = crecv(comm, r - dist, seq, k, tmp.data(), count, type);
                    rc != MPI_SUCCESS)
                    return rc;
                // tmp covers lower ranks: left operand.
                apply_op(op, tmp.data(), acc.data(), count, type);
            }
        }
    }
    if (bytes > 0) std::memcpy(recvbuf, acc.data(), bytes);
    return MPI_SUCCESS;
}

int MPI_Exscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::size_t const bytes = static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    // Inclusive scan into a temporary, then shift right by one rank.
    std::vector<std::byte> incl(bytes);
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    if (int rc = MPI_Scan(input, incl.data(), count, type, op, comm); rc != MPI_SUCCESS)
        return rc;
    if (p == 1) return MPI_SUCCESS;  // rank 0's exscan result is undefined
    std::uint64_t const seq = comm->coll_seq++;
    if (r + 1 < p) {
        if (int rc = csend(comm, r + 1, seq, 0, incl.data(), count, type); rc != MPI_SUCCESS)
            return rc;
    }
    if (r > 0) {
        if (int rc = crecv(comm, r - 1, seq, 0, recvbuf, count, type); rc != MPI_SUCCESS) return rc;
    }
    return MPI_SUCCESS;
}

int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount, MPI_Datatype type,
                             MPI_Op op, MPI_Comm comm) {
    CallScope const call;
    if (int rc = coll_entry(comm); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::vector<std::byte> full(static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(type->extent));
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    if (int rc = MPI_Reduce(input, full.data(), recvcount * p, type, op, 0, comm);
        rc != MPI_SUCCESS)
        return rc;
    (void)r;
    return MPI_Scatter(full.data(), recvcount, type, recvbuf, recvcount, type, 0, comm);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives (generalized requests, flat algorithms).
//
// Every MPI_I* below follows one shape: at initiation all outgoing messages
// are deposited eagerly (the transport is fully eager, so sends complete
// immediately) and all expected receives are posted. The request's progress
// state machine then drains the posted receives *in a fixed order* (ascending
// source rank), running a per-receive combine action (reductions) and a final
// action (e.g. copying the accumulator into the user buffer) once the last
// receive completed. Fixed-order draining is what makes non-commutative
// reductions correct: operands are always folded in rank order, exactly like
// the blocking algorithms.
// ---------------------------------------------------------------------------

namespace {

/// State shared between initiation and the progress state machine of one
/// flat non-blocking collective.
struct NbColl {
    std::vector<xmpi_request_t*> pending;  // posted receives, drain order
    std::size_t next = 0;                  // next receive to complete
    /// Combine action for pending[i]; runs after that receive completed.
    std::function<int(std::size_t)> on_recv;
    /// Final action once every receive was drained (runs exactly once).
    std::function<int()> on_done;

    // Scratch storage owned by the operation (outlives the caller's scope).
    std::vector<std::vector<std::byte>> slots;  // one per pending receive
    std::vector<std::byte> acc;                 // reduction accumulator
    std::vector<std::byte> own;                 // copy of the local contribution
    bool own_applied = false;
};

/// Folds `contrib` (count elements of `type`, living in `slot` which may be
/// clobbered) into st->acc in rank order: acc = op(acc, contrib).
int nb_fold(NbColl* st, MPI_Op op, std::vector<std::byte>& slot, int count, MPI_Datatype type) {
    if (st->acc.empty()) {
        st->acc = std::move(slot);
        slot.clear();
        return MPI_SUCCESS;
    }
    apply_op(op, st->acc.data(), slot.data(), count, type);
    std::swap(st->acc, slot);
    return MPI_SUCCESS;
}

/// Completes `rq` with `error`, stamping the owner's current virtual time.
void nb_complete(xmpi_request_t* rq, int error) {
    if (error != MPI_SUCCESS) rq->error = error;
    rq->completion_vtime = tls_rank()->vnow;
    rq->complete.store(true, std::memory_order_release);
}

/// Wraps a fully initiated NbColl state into a generalized request and runs
/// one progress step so operations with no (or already satisfied) receives
/// complete immediately.
int nb_launch(MPI_Comm comm, std::shared_ptr<NbColl> st, int init_error, MPI_Request* request) {
    auto* req = new xmpi_request_t();
    req->kind = xmpi_request_t::Kind::generalized;
    req->owner = tls_rank();
    req->comm = comm;
    if (init_error != MPI_SUCCESS) {
        nb_complete(req, init_error);
        *request = req;
        return MPI_SUCCESS;
    }
    req->progress = [st](xmpi_request_t* rq) -> bool {
        while (st->next < st->pending.size()) {
            int flag = 0;
            int const rc = test_one(st->pending[st->next], &flag, MPI_STATUS_IGNORE);
            if (flag == 0) return false;
            st->pending[st->next] = nullptr;
            int combined = rc;
            if (combined == MPI_SUCCESS && st->on_recv) combined = st->on_recv(st->next);
            if (combined != MPI_SUCCESS) {
                nb_complete(rq, combined);
                return true;
            }
            ++st->next;
        }
        int rc = MPI_SUCCESS;
        if (st->on_done) {
            rc = st->on_done();
            st->on_done = nullptr;
        }
        nb_complete(rq, rc);
        return true;
    };
    req->progress(req);
    *request = req;
    return MPI_SUCCESS;
}

/// Common entry validation for the MPI_I* collectives.
int nb_entry(MPI_Comm& comm, MPI_Request* request) {
    if (request == nullptr) return MPI_ERR_REQUEST;
    return coll_entry(comm);
}

}  // namespace

int MPI_Ibcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm,
               MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::bcast, comm, bytes, true);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::bcast, idx, count, 0, root, buf, nullptr, type, nullptr,
                       nullptr},
        &err, [&](alg::Schedule& sch) { return alg::build_bcast(idx, sch, buf, count, type, root); });
    return alg::launch_nonblocking(comm, std::move(s), err, request);
}

int MPI_Igatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                 MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (root < 0 || root >= p) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    auto st = std::make_shared<NbColl>();
    int err = MPI_SUCCESS;
    if (r != root) {
        err = csend(comm, root, seq, 0, sendbuf, sendcount, sendtype);
    } else {
        if (sendbuf != MPI_IN_PLACE) {
            local_copy(sendbuf, sendcount, sendtype, at_offset(recvbuf, displs[r], recvtype),
                       recvtype);
        }
        for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
            if (i == r) continue;
            xmpi_request_t* rr = nullptr;
            err = cirecv(comm, i, seq, 0, at_offset(recvbuf, displs[i], recvtype), recvcounts[i],
                         recvtype, &rr);
            if (err == MPI_SUCCESS) st->pending.push_back(rr);
        }
    }
    return nb_launch(comm, std::move(st), err, request);
}

int MPI_Igather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                MPI_Request* request) {
    CallScope const call;
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), recvcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * recvcount;
    // counts/displs are only read during initiation, so stack copies suffice.
    return MPI_Igatherv(sendbuf, sendcount, sendtype, recvbuf, counts.data(), displs.data(),
                        recvtype, root, rcomm, request);
}

int MPI_Iscatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                  MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  int root, MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (root < 0 || root >= p) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    auto st = std::make_shared<NbColl>();
    int err = MPI_SUCCESS;
    if (r == root) {
        for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
            if (i == r) continue;
            err = csend(comm, i, seq, 0, at_offset(sendbuf, displs[i], sendtype), sendcounts[i],
                        sendtype);
        }
        if (err == MPI_SUCCESS && recvbuf != MPI_IN_PLACE) {
            local_copy(at_offset(sendbuf, displs[r], sendtype), sendcounts[r], sendtype, recvbuf,
                       recvtype);
        }
    } else {
        xmpi_request_t* rr = nullptr;
        err = cirecv(comm, root, seq, 0, recvbuf, recvcount, recvtype, &rr);
        if (err == MPI_SUCCESS) st->pending.push_back(rr);
    }
    return nb_launch(comm, std::move(st), err, request);
}

int MPI_Iscatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                 MPI_Request* request) {
    CallScope const call;
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), sendcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * sendcount;
    return MPI_Iscatterv(sendbuf, counts.data(), displs.data(), sendtype, recvbuf, recvcount,
                         recvtype, root, rcomm, request);
}

int MPI_Iallgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm,
                    MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    if (sendbuf != MPI_IN_PLACE) {
        local_copy(sendbuf, sendcount, sendtype, at_offset(recvbuf, displs[r], recvtype), recvtype);
    }
    auto st = std::make_shared<NbColl>();
    int err = MPI_SUCCESS;
    for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
        if (i == r) continue;
        err = csend(comm, i, seq, 0, at_offset(recvbuf, displs[r], recvtype), recvcounts[r],
                    recvtype);
    }
    for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
        if (i == r) continue;
        xmpi_request_t* rr = nullptr;
        err = cirecv(comm, i, seq, 0, at_offset(recvbuf, displs[i], recvtype), recvcounts[i],
                     recvtype, &rr);
        if (err == MPI_SUCCESS) st->pending.push_back(rr);
    }
    return nb_launch(comm, std::move(st), err, request);
}

int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    if (sendbuf != MPI_IN_PLACE) {
        local_copy(sendbuf, sendcount, sendtype,
                   at_offset(recvbuf, static_cast<long long>(r) * recvcount, recvtype), recvtype);
    }
    std::size_t const bytes =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);
    int const idx = alg::select(alg::Family::allgather, comm, bytes, true);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::allgather, idx, recvcount, 0, 0, recvbuf, nullptr, recvtype,
                       nullptr, nullptr},
        &err,
        [&](alg::Schedule& sch) { return alg::build_allgather(idx, sch, recvbuf, recvcount, recvtype); });
    return alg::launch_nonblocking(comm, std::move(s), err, request);
}

int MPI_Ialltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                   MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    local_copy(at_offset(sendbuf, sdispls[r], sendtype), sendcounts[r], sendtype,
               at_offset(recvbuf, rdispls[r], recvtype), recvtype);
    auto st = std::make_shared<NbColl>();
    int err = MPI_SUCCESS;
    for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
        if (i == r) continue;
        err = csend(comm, i, seq, 0, at_offset(sendbuf, sdispls[i], sendtype), sendcounts[i],
                    sendtype);
    }
    for (int i = 0; i < p && err == MPI_SUCCESS; ++i) {
        if (i == r) continue;
        xmpi_request_t* rr = nullptr;
        err = cirecv(comm, i, seq, 0, at_offset(recvbuf, rdispls[i], recvtype), recvcounts[i],
                     recvtype, &rr);
        if (err == MPI_SUCCESS) st->pending.push_back(rr);
    }
    return nb_launch(comm, std::move(st), err, request);
}

int MPI_Ialltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    int const idx = alg::select(alg::Family::alltoall, comm, bytes, true);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::alltoall, idx, sendcount, recvcount, 0, sendbuf, recvbuf,
                       sendtype, recvtype, nullptr},
        &err, [&](alg::Schedule& sch) {
            return alg::build_alltoall(idx, sch, sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                       recvtype);
        });
    return alg::launch_nonblocking(comm, std::move(s), err, request);
}

namespace {

/// Shared initiation of the non-blocking reduction family. Receives the
/// contributions of `sources` (ascending rank order) into scratch slots and
/// folds them — interleaving the local contribution at its rank position —
/// so operands combine in rank order (valid for non-commutative operations).
/// `on_done(acc)` consumes the final accumulator.
int nb_reduction(MPI_Comm comm, std::uint64_t seq, std::vector<int> sources, const void* input,
                 int count, MPI_Datatype type, MPI_Op op, bool include_own,
                 std::function<int(NbColl*)> on_done, std::shared_ptr<NbColl>& st_out,
                 int my_rank) {
    auto st = std::make_shared<NbColl>();
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    st->own.resize(bytes);
    if (bytes > 0) std::memcpy(st->own.data(), input, bytes);
    st->own_applied = !include_own;
    st->slots.resize(sources.size());
    int err = MPI_SUCCESS;
    for (std::size_t i = 0; i < sources.size() && err == MPI_SUCCESS; ++i) {
        st->slots[i].resize(bytes);
        xmpi_request_t* rr = nullptr;
        err = cirecv(comm, sources[i], seq, 0, st->slots[i].data(), count, type, &rr);
        if (err == MPI_SUCCESS) st->pending.push_back(rr);
    }
    NbColl* stp = st.get();
    auto fold_own_before = [stp, op, count, type, my_rank](int src) {
        if (!stp->own_applied && my_rank < src) {
            // own is consumed exactly once; nb_fold may clobber it.
            nb_fold(stp, op, stp->own, count, type);
            stp->own_applied = true;
        }
        return MPI_SUCCESS;
    };
    st->on_recv = [stp, op, count, type, sources, fold_own_before](std::size_t i) {
        fold_own_before(sources[i]);
        return nb_fold(stp, op, stp->slots[i], count, type);
    };
    st->on_done = [stp, op, count, type, on_done = std::move(on_done)]() {
        if (!stp->own_applied) {
            nb_fold(stp, op, stp->own, count, type);
            stp->own_applied = true;
        }
        return on_done(stp);
    };
    st_out = std::move(st);
    return err;
}

}  // namespace

int MPI_Ireduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                int root, MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::reduce, comm, bytes, op->commutative, op->builtin);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::reduce, idx, count, 0, root, input, recvbuf, type, nullptr,
                       op},
        &err, [&](alg::Schedule& sch) {
            return alg::build_reduce(idx, sch, input, recvbuf, count, type, op, root);
        });
    return alg::launch_nonblocking(comm, std::move(s), err, request);
}

int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                   MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    int const idx = alg::select(alg::Family::allreduce, comm, bytes, op->commutative, op->builtin);
    int err = MPI_SUCCESS;
    auto s = alg::acquire_schedule(
        comm, seq,
        alg::SchedSpec{alg::Family::allreduce, idx, count, 0, 0, input, recvbuf, type, nullptr,
                       op},
        &err, [&](alg::Schedule& sch) {
            return alg::build_allreduce(idx, sch, input, recvbuf, count, type, op);
        });
    return alg::launch_nonblocking(comm, std::move(s), err, request);
}

int MPI_Iscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    int err = MPI_SUCCESS;
    for (int i = r + 1; i < p && err == MPI_SUCCESS; ++i) {
        err = csend(comm, i, seq, 0, input, count, type);
    }
    std::vector<int> sources;
    for (int i = 0; i < r; ++i) sources.push_back(i);
    std::shared_ptr<NbColl> st;
    if (err == MPI_SUCCESS) {
        err = nb_reduction(
            comm, seq, std::move(sources), input, count, type, op, /*include_own=*/true,
            [recvbuf, bytes](NbColl* s) {
                if (bytes > 0) std::memcpy(recvbuf, s->acc.data(), bytes);
                return MPI_SUCCESS;
            },
            st, r);
    } else {
        st = std::make_shared<NbColl>();
    }
    return nb_launch(comm, std::move(st), err, request);
}

// ---------------------------------------------------------------------------
// Persistent collectives (MPI-4 *_init + MPI_Start). Initialization freezes
// everything the blocking call decides per invocation — algorithm selection
// (cost model / XMPI_ALG_* / XMPI_T_alg_set), topology composition and the
// collective sequence number — and materializes the schedule exactly once.
// MPI_Start re-arms the schedule (Schedule::reset) and replays it: bound
// user buffers are re-read by the execution-time steps, so each start
// observes the buffer contents current at that start. Rounds of one
// persistent request match each other FIFO per (source, tag); interleaved
// one-shot collectives use fresh sequence numbers and cannot interfere.
// ---------------------------------------------------------------------------

int MPI_Barrier_init(MPI_Comm comm, int /*info*/, MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    // Dissemination barrier as a schedule so it is re-armable like every
    // other persistent collective.
    std::byte* const dummy = s->alloc(1);
    for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
        int const dst = (r + dist) % p;
        int const src = (r - dist % p + p) % p;
        s->send(dst, k, dummy, 0, MPI_BYTE);
        s->recv(src, k, dummy, 0, MPI_BYTE);
    }
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Bcast_init(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm, int /*info*/,
                   MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    int const idx = alg::select(alg::Family::bcast, comm, bytes, true);
    if (int rc = alg::build_bcast(idx, *s, buf, count, type, root); rc != MPI_SUCCESS) return rc;
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Reduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                    int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    int const idx = alg::select(alg::Family::reduce, comm, bytes, op->commutative, op->builtin);
    if (int rc = alg::build_reduce(idx, *s, input, recvbuf, count, type, op, root);
        rc != MPI_SUCCESS)
        return rc;
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Allreduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                       MPI_Comm comm, int /*info*/, MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    int const idx = alg::select(alg::Family::allreduce, comm, bytes, op->commutative, op->builtin);
    if (int rc = alg::build_allreduce(idx, *s, input, recvbuf, count, type, op); rc != MPI_SUCCESS)
        return rc;
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Allgather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                       int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                       MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    // The blocking wrapper copies the caller's own block into place before
    // running the algorithm; for a restartable schedule that copy must be an
    // execution-time step so every start re-reads the send buffer.
    if (sendbuf != MPI_IN_PLACE) {
        s->local([sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, r]() {
            local_copy(sendbuf, sendcount, sendtype,
                       at_offset(recvbuf, static_cast<long long>(r) * recvcount, recvtype),
                       recvtype);
            return MPI_SUCCESS;
        });
    }
    int const idx = alg::select(alg::Family::allgather, comm, bytes, true);
    if (int rc = alg::build_allgather(idx, *s, recvbuf, recvcount, recvtype); rc != MPI_SUCCESS)
        return rc;
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Alltoall_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                      MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t const bytes =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    int const idx = alg::select(alg::Family::alltoall, comm, bytes, true);
    if (int rc = alg::build_alltoall(idx, *s, sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                     recvtype);
        rc != MPI_SUCCESS)
        return rc;
    return alg::launch_persistent(comm, std::move(s), request);
}

// Persistent gather/scatter family. The linear schedules are trivially
// re-armable: every send reads its user buffer at execution time and the
// root's own-block copy is an execution-time local step, so each start
// observes current buffer contents. The v-variants read their
// count/displacement arrays while building — i.e. the counts are frozen at
// init, matching the selection-freeze contract of every other *_init.

int MPI_Gatherv_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                     MPI_Comm comm, int /*info*/, MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (root < 0 || root >= p) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    if (r != root) {
        s->send(root, 0, sendbuf, sendcount, sendtype);
    } else {
        if (sendbuf != MPI_IN_PLACE) {
            long long const own_off = displs[r];
            s->local([sendbuf, sendcount, sendtype, recvbuf, own_off, recvtype]() {
                local_copy(sendbuf, sendcount, sendtype, at_offset(recvbuf, own_off, recvtype),
                           recvtype);
                return MPI_SUCCESS;
            });
        }
        // Post everything, then drain: the i-variant shape, re-armable.
        std::vector<int> slots;
        slots.reserve(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            if (i == r) continue;
            slots.push_back(s->post(i, 0, at_offset(recvbuf, displs[i], recvtype), recvcounts[i],
                                    recvtype));
        }
        for (int const slot : slots) s->wait(slot);
    }
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Gather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int info,
                    MPI_Request* request) {
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), recvcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * recvcount;
    // counts/displs are baked into the schedule at init; stack copies suffice.
    return MPI_Gatherv_init(sendbuf, sendcount, sendtype, recvbuf, counts.data(), displs.data(),
                            recvtype, root, rcomm, info, request);
}

int MPI_Scatterv_init(const void* sendbuf, const int* sendcounts, const int* displs,
                      MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                      int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    if (root < 0 || root >= p) return MPI_ERR_ROOT;
    std::uint64_t const seq = comm->coll_seq++;
    auto s = std::make_shared<alg::Schedule>(comm, seq);
    if (r == root) {
        for (int i = 0; i < p; ++i) {
            if (i == r) continue;
            s->send(i, 0, at_offset(sendbuf, displs[i], sendtype), sendcounts[i], sendtype);
        }
        if (recvbuf != MPI_IN_PLACE) {
            long long const own_off = displs[r];
            int const own_count = sendcounts[r];
            s->local([sendbuf, own_off, own_count, sendtype, recvbuf, recvtype]() {
                local_copy(at_offset(sendbuf, own_off, sendtype), own_count, sendtype, recvbuf,
                           recvtype);
                return MPI_SUCCESS;
            });
        }
    } else {
        s->recv(root, 0, recvbuf, recvcount, recvtype);
    }
    return alg::launch_persistent(comm, std::move(s), request);
}

int MPI_Scatter_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int info,
                     MPI_Request* request) {
    MPI_Comm const rcomm = resolve(comm);
    if (rcomm == nullptr) return MPI_ERR_COMM;
    int const p = rcomm->size();
    std::vector<int> counts(static_cast<std::size_t>(p), sendcount);
    std::vector<int> displs(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i * sendcount;
    return MPI_Scatterv_init(sendbuf, counts.data(), displs.data(), sendtype, recvbuf, recvcount,
                             recvtype, root, rcomm, info, request);
}

int MPI_Iexscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                MPI_Comm comm, MPI_Request* request) {
    CallScope const call;
    if (int rc = nb_entry(comm, request); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    int const r = comm->rank();
    std::uint64_t const seq = comm->coll_seq++;
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    int err = MPI_SUCCESS;
    for (int i = r + 1; i < p && err == MPI_SUCCESS; ++i) {
        err = csend(comm, i, seq, 0, input, count, type);
    }
    std::vector<int> sources;
    for (int i = 0; i < r; ++i) sources.push_back(i);
    std::shared_ptr<NbColl> st;
    if (err == MPI_SUCCESS && r > 0) {
        err = nb_reduction(
            comm, seq, std::move(sources), input, count, type, op, /*include_own=*/false,
            [recvbuf, bytes](NbColl* s) {
                if (bytes > 0) std::memcpy(recvbuf, s->acc.data(), bytes);
                return MPI_SUCCESS;
            },
            st, r);
    } else {
        // Rank 0's exscan result is undefined per the standard; nothing to do.
        st = std::make_shared<NbColl>();
    }
    return nb_launch(comm, std::move(st), err, request);
}

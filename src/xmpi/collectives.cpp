/// @file collectives.cpp
/// @brief The collectives of <xmpi/mpi.h> (the neighborhood ones live in
/// topology.cpp), built on the internal point-to-point engine so the
/// virtual-time cost model prices them by their true message patterns.
///
/// A collective runs one way: as an alg::Schedule. Each collective has one
/// body, shared by its flavours (blocking, MPI_I*, MPI_*_init), that checks
/// its arguments and hands a builder to start(), the single entry point
/// that runs the schedule to completion, launches it as a one-shot request,
/// or arms it as a persistent one. Bcast, reduce, allgather, allreduce and
/// alltoall select an algorithm per call (algorithms/: cost model, XMPI_ALG_*,
/// XMPI_T_alg_set) and reuse cached schedules. The rest have fixed shapes,
/// built per call and never cached: dissemination barrier, linear
/// gather(v)/scatter(v), ring allgatherv, pairwise alltoallv/w, Hillis–Steele
/// scan and scan-then-shift exscan. A wait only progresses its own request
/// and ranks may wait in different orders, so the I-variants of the
/// multi-round shapes put every block on the wire at initiation instead:
/// Iallgatherv and Ialltoallv are one all-peer exchange, and Iscan/Iexscan
/// send each input to every higher rank and fold in rank order.
#include <cstring>
#include <memory>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "internal.hpp"

namespace xmpi::detail {
namespace {

using alg::at_offset;
using alg::local_copy;
using alg::Schedule;

/// The flavours of a collective: run to completion (MPI_X), a one-shot
/// request (MPI_IX), an inactive persistent request that MPI_Start re-arms
/// (MPI_X_init).
enum class Mode { block, nb, persist };

/// Validation shared by every collective: the request handle (I- and _init
/// calls), the communicator, no unacknowledged dead member, and the root of
/// a rooted collective (the others pass the default 0).
int enter(Mode m, MPI_Comm& comm, MPI_Request* request, int root = 0) {
    if (m != Mode::block && request == nullptr) return MPI_ERR_REQUEST;
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (any_member_dead(comm)) return MPIX_ERR_PROC_FAILED;
    if (root < 0 || root >= comm->size()) return MPI_ERR_ROOT;
    return MPI_SUCCESS;
}

/// The one way a collective runs. Takes the call's sequence number (every
/// step tag derives from it), then:
/// - with a `spec` (the algorithm families), selects the algorithm into
///   spec->alg — selection sees the incremented sequence, as the tuner's
///   generations expect — and serves blocking and I- calls from the
///   communicator's schedule cache, building and offering on a miss; the
///   blocking call is traced and observed as its family;
/// - without one (fixed shapes), builds a fresh schedule per call, on the
///   stack for a blocking call.
/// Mode::block runs the schedule to completion, Mode::nb launches it as a
/// generalized request (progress engine or wait/test), Mode::persist freezes
/// selection and shape into an inactive persistent request.
template <typename Build>
int start(Mode m, MPI_Comm comm, alg::SchedSpec* spec, Build&& build, MPI_Request* request) {
    CallScope const call;
    std::uint64_t const seq = comm->coll_seq++;
    std::size_t bytes = 0;
    if (spec != nullptr) {
        bytes = static_cast<std::size_t>(spec->count) * static_cast<std::size_t>(spec->type1->size);
        MPI_Op const op = spec->op;
        spec->alg = alg::select(spec->family, comm, bytes, op == nullptr || op->commutative,
                                op == nullptr || op->builtin);
    }
    if (m == Mode::persist) {
        auto s = std::make_shared<Schedule>(comm, seq);
        if (int rc = build(*s); rc != MPI_SUCCESS) return rc;
        return alg::launch_persistent(comm, std::move(s), request);
    }
    if (spec == nullptr) {
        if (m == Mode::nb) {
            auto s = std::make_shared<Schedule>(comm, seq);
            int const rc = build(*s);
            return alg::launch_nonblocking(comm, std::move(s), rc, request);
        }
        Schedule s(comm, seq);
        int const rc = build(s);
        return rc != MPI_SUCCESS ? rc : alg::run_blocking(s);
    }
    int err = MPI_SUCCESS;
    if (m == Mode::nb) {
        auto s = alg::acquire_schedule(comm, seq, *spec, &err, build);
        return alg::launch_nonblocking(comm, std::move(s), err, request);
    }
    int const fam = static_cast<int>(spec->family);
    trace::ev(trace::Ev::coll_enter, -1, -1, bytes, seq, fam, spec->alg);
    auto s = alg::acquire_schedule(comm, seq, *spec, &err, build);
    if (err == MPI_SUCCESS) err = alg::run_observed(*s, spec->family, spec->alg, bytes);
    trace::ev(trace::Ev::coll_exit, -1, -1, bytes, seq, fam, spec->alg);
    return err;
}

/// Copies the caller's own block into place: at initiation for blocking and
/// I- calls, as an execution-time step for a persistent schedule so every
/// MPI_Start re-reads the send buffer.
template <typename Copy>
void own_block(Mode m, Schedule& s, Copy const& copy) {
    if (m == Mode::persist) {
        s.local([copy] {
            copy();
            return MPI_SUCCESS;
        });
    } else {
        copy();
    }
}

/// Position of block `i` in a v-collective buffer; null `displs` means
/// uniform blocks of `count` elements (the non-v variants).
long long displ(int const* displs, int count, int i) {
    return displs != nullptr ? displs[i] : static_cast<long long>(i) * count;
}

int count_at(int const* counts, int count, int i) { return counts != nullptr ? counts[i] : count; }

/// Peer `j` of the all-but-me peer list of rank `r`, in rank order.
int other(int r, int j) { return j < r ? j : j + 1; }

// ---------------------------------------------------------------------------
// Fixed shapes
// ---------------------------------------------------------------------------

/// Dissemination barrier: in round k every rank signals rank + 2^k and waits
/// for rank - 2^k, with zero-byte messages (which never touch the buffer).
int barrier(Mode m, MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    return start(
        m, comm, nullptr,
        [](Schedule& s) {
            static char dummy = 0;
            int const p = s.size();
            int const r = s.rank();
            std::size_t rounds = 0;
            while ((std::size_t{1} << rounds) < static_cast<std::size_t>(p)) ++rounds;
            s.reserve(3 * rounds, rounds);
            for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
                s.send((r + dist) % p, k, &dummy, 0, MPI_BYTE);
                s.recv((r - dist % p + p) % p, k, &dummy, 0, MPI_BYTE);
            }
            return MPI_SUCCESS;
        },
        request);
}

/// Linear gather(v): non-roots send their block; the root copies its own
/// into place, posts one receive per peer and drains them in rank order.
/// Null `counts`/`displs` mean uniform blocks of `rcount` (MPI_Gather).
int gatherv(Mode m, void const* sbuf, int scount, MPI_Datatype stype, void* rbuf,
            int const* counts, int const* displs, int rcount, MPI_Datatype rtype, int root,
            MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request, root); rc != MPI_SUCCESS) return rc;
    return start(
        m, comm, nullptr,
        [&](Schedule& s) {
            int const p = s.size();
            int const r = s.rank();
            if (r != root) {
                s.send(root, 0, sbuf, scount, stype);
                return MPI_SUCCESS;
            }
            if (sbuf != MPI_IN_PLACE) {
                void* const dst = at_offset(rbuf, displ(displs, rcount, r), rtype);
                own_block(m, s, [=] { local_copy(sbuf, scount, stype, dst, rtype); });
            }
            s.reserve(s.step_count() + 2 * static_cast<std::size_t>(p), static_cast<std::size_t>(p));
            for (int j = 0; j < p - 1; ++j) {
                int const i = other(r, j);
                s.post(i, 0, at_offset(rbuf, displ(displs, rcount, i), rtype),
                       count_at(counts, rcount, i), rtype);
            }
            for (int j = 0; j < p - 1; ++j) s.wait(j);  // the slots just posted
            return MPI_SUCCESS;
        },
        request);
}

/// Linear scatter(v): the root sends every peer its block and copies its
/// own; the others receive. Null `counts`/`displs` mean uniform blocks of
/// `scount` (MPI_Scatter).
int scatterv(Mode m, void const* sbuf, int const* counts, int const* displs, int scount,
             MPI_Datatype stype, void* rbuf, int rcount, MPI_Datatype rtype, int root,
             MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request, root); rc != MPI_SUCCESS) return rc;
    return start(
        m, comm, nullptr,
        [&](Schedule& s) {
            int const p = s.size();
            int const r = s.rank();
            if (r != root) {
                s.recv(root, 0, rbuf, rcount, rtype);
                return MPI_SUCCESS;
            }
            s.reserve(static_cast<std::size_t>(p), 0);
            for (int j = 0; j < p - 1; ++j) {
                int const i = other(r, j);
                s.send(i, 0, at_offset(sbuf, displ(displs, scount, i), stype),
                       count_at(counts, scount, i), stype);
            }
            if (rbuf != MPI_IN_PLACE) {
                void const* const src = at_offset(sbuf, displ(displs, scount, r), stype);
                int const n = count_at(counts, scount, r);
                own_block(m, s, [=] { local_copy(src, n, stype, rbuf, rtype); });
            }
            return MPI_SUCCESS;
        },
        request);
}

/// Allgatherv. Blocking: a ring — in step k forward block r - k to the right
/// and receive block r - k - 1 from the left. Nonblocking: one all-peer
/// exchange of the own block.
int allgatherv(Mode m, void const* sbuf, int scount, MPI_Datatype stype, void* rbuf,
               int const* counts, int const* displs, MPI_Datatype rtype, MPI_Comm comm,
               MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    return start(
        m, comm, nullptr,
        [&](Schedule& s) {
            int const p = s.size();
            int const r = s.rank();
            auto at = [&](int i) { return at_offset(rbuf, displs[i], rtype); };
            if (sbuf != MPI_IN_PLACE) local_copy(sbuf, scount, stype, at(r), rtype);
            if (m == Mode::nb) {
                alg::build_neighbor_exchange(
                    s, p - 1,
                    [&](int j) {
                        int const i = other(r, j);
                        return alg::Msg{i, at(i), counts[i], rtype};
                    },
                    p - 1, [&](int j) { return alg::Msg{other(r, j), at(r), counts[r], rtype}; });
                return MPI_SUCCESS;
            }
            s.reserve(3 * static_cast<std::size_t>(p - 1), static_cast<std::size_t>(p - 1));
            int const right = (r + 1) % p;
            int const left = (r - 1 + p) % p;
            for (int k = 0; k < p - 1; ++k) {
                int const sb = (r - k + p) % p;
                int const rb = (r - k - 1 + 2 * p) % p;
                int const slot = s.post(left, k, at(rb), counts[rb], rtype);
                s.send(right, k, at(sb), counts[sb], rtype);
                s.wait(slot);
            }
            return MPI_SUCCESS;
        },
        request);
}

/// Block addresses of an alltoallv: element displacements, one type a side.
struct VBlocks {
    void const* sbuf;
    int const* sdispls;
    MPI_Datatype stype;
    void* rbuf;
    int const* rdispls;
    MPI_Datatype rtype;
    void const* sat(int i) const { return at_offset(sbuf, sdispls[i], stype); }
    void* rat(int i) const { return at_offset(rbuf, rdispls[i], rtype); }
    MPI_Datatype st(int) const { return stype; }
    MPI_Datatype rt(int) const { return rtype; }
};

/// Block addresses of an alltoallw: byte displacements, a type per peer.
struct WBlocks {
    void const* sbuf;
    int const* sdispls;
    MPI_Datatype const* stypes;
    void* rbuf;
    int const* rdispls;
    MPI_Datatype const* rtypes;
    void const* sat(int i) const { return static_cast<std::byte const*>(sbuf) + sdispls[i]; }
    void* rat(int i) const { return static_cast<std::byte*>(rbuf) + rdispls[i]; }
    MPI_Datatype st(int i) const { return stypes[i]; }
    MPI_Datatype rt(int i) const { return rtypes[i]; }
};

/// Alltoallv/w. Blocking: pairwise — in step i send to rank + i while
/// receiving from rank - i. Nonblocking: one all-peer exchange. The own
/// block is a local copy either way.
template <typename Blocks>
int alltoallv(Mode m, int const* scounts, int const* rcounts, Blocks const& b, MPI_Comm comm,
              MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    return start(
        m, comm, nullptr,
        [&](Schedule& s) {
            int const p = s.size();
            int const r = s.rank();
            local_copy(b.sat(r), scounts[r], b.st(r), b.rat(r), b.rt(r));
            if (m == Mode::nb) {
                alg::build_neighbor_exchange(
                    s, p - 1,
                    [&](int j) {
                        int const i = other(r, j);
                        return alg::Msg{i, b.rat(i), rcounts[i], b.rt(i)};
                    },
                    p - 1,
                    [&](int j) {
                        int const i = other(r, j);
                        return alg::Msg{i, b.sat(i), scounts[i], b.st(i)};
                    });
                return MPI_SUCCESS;
            }
            s.reserve(3 * static_cast<std::size_t>(p - 1), static_cast<std::size_t>(p - 1));
            for (int i = 1; i < p; ++i) {
                int const dst = (r + i) % p;
                int const src = (r - i + p) % p;
                int const slot = s.post(src, i, b.rat(src), rcounts[src], b.rt(src));
                s.send(dst, i, b.sat(dst), scounts[dst], b.st(dst));
                s.wait(slot);
            }
            return MPI_SUCCESS;
        },
        request);
}

/// Scan and exscan, folding lower ranks as the left operand (so
/// non-commutative operations are exact). Blocking: Hillis–Steele rounds
/// over a scratch accumulator; the exclusive variant then shifts the
/// inclusive result one rank up. Nonblocking: every rank sends its input to
/// every higher rank at initiation and folds the lower ranks' inputs in
/// rank order.
int scan(Mode m, void const* sbuf, void* rbuf, int count, MPI_Datatype type, MPI_Op op,
         bool inclusive, MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    void const* const input = sbuf == MPI_IN_PLACE ? rbuf : sbuf;
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    return start(
        m, comm, nullptr,
        [&](Schedule& s) {
            int const p = s.size();
            int const r = s.rank();
            if (m == Mode::nb) {
                for (int i = r + 1; i < p; ++i) s.send(i, 0, input, count, type);
                // slot[j] receives rank j's input, then holds the fold of
                // ranks 0..j.
                std::vector<std::byte*> slot(static_cast<std::size_t>(r));
                for (int j = 0; j < r; ++j) {
                    slot[static_cast<std::size_t>(j)] = s.alloc(bytes);
                    s.post(j, 0, slot[static_cast<std::size_t>(j)], count, type);
                }
                for (int j = 0; j < r; ++j) {
                    s.wait(j);
                    if (j == 0) continue;
                    std::byte* const acc = slot[static_cast<std::size_t>(j) - 1];
                    std::byte* const in = slot[static_cast<std::size_t>(j)];
                    s.local([=] {
                        apply_op(op, acc, in, count, type);
                        return MPI_SUCCESS;
                    });
                }
                if (bytes == 0 || (!inclusive && r == 0)) return MPI_SUCCESS;
                std::byte const* const acc = r > 0 ? slot.back() : nullptr;
                s.local([=] {
                    if (!inclusive) {
                        std::memcpy(rbuf, acc, bytes);
                        return MPI_SUCCESS;
                    }
                    if (input != rbuf) std::memcpy(rbuf, input, bytes);
                    if (acc != nullptr) apply_op(op, acc, rbuf, count, type);
                    return MPI_SUCCESS;
                });
                return MPI_SUCCESS;
            }
            std::byte* const acc = s.alloc(bytes);
            std::byte* const tmp = s.alloc(bytes);
            if (bytes > 0) std::memcpy(acc, input, bytes);
            int k = 0;
            for (int dist = 1; dist < p; dist <<= 1, ++k) {
                if (r + dist < p) s.send(r + dist, k, acc, count, type);
                if (r - dist >= 0) {
                    s.recv(r - dist, k, tmp, count, type);
                    s.local([=] {
                        apply_op(op, tmp, acc, count, type);  // tmp covers lower ranks
                        return MPI_SUCCESS;
                    });
                }
            }
            if (!inclusive) {
                // Rank 0's exscan result is undefined; its buffer is untouched.
                if (r + 1 < p) s.send(r + 1, k, acc, count, type);
                if (r > 0) s.recv(r - 1, k, rbuf, count, type);
            } else if (bytes > 0) {
                s.local([=] {
                    std::memcpy(rbuf, acc, bytes);
                    return MPI_SUCCESS;
                });
            }
            return MPI_SUCCESS;
        },
        request);
}

// ---------------------------------------------------------------------------
// Algorithm families (selection + schedule cache)
// ---------------------------------------------------------------------------

int bcast(Mode m, void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm,
          MPI_Request* request) {
    if (int rc = enter(m, comm, request, root); rc != MPI_SUCCESS) return rc;
    if (m == Mode::block && comm->size() == 1) return MPI_SUCCESS;
    alg::SchedSpec spec{alg::Family::bcast, 0, count, 0, root, buf, nullptr, type, nullptr,
                        nullptr};
    return start(
        m, comm, &spec,
        [&](Schedule& s) { return alg::build_bcast(spec.alg, s, buf, count, type, root); },
        request);
}

int reduce(Mode m, void const* sbuf, void* rbuf, int count, MPI_Datatype type, MPI_Op op,
           int root, MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request, root); rc != MPI_SUCCESS) return rc;
    void const* const input = sbuf == MPI_IN_PLACE ? rbuf : sbuf;
    alg::SchedSpec spec{alg::Family::reduce, 0, count, 0, root, input, rbuf, type, nullptr, op};
    return start(
        m, comm, &spec,
        [&](Schedule& s) {
            return alg::build_reduce(spec.alg, s, input, rbuf, count, type, op, root);
        },
        request);
}

int allreduce(Mode m, void const* sbuf, void* rbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    void const* const input = sbuf == MPI_IN_PLACE ? rbuf : sbuf;
    alg::SchedSpec spec{alg::Family::allreduce, 0, count, 0, 0, input, rbuf, type, nullptr, op};
    return start(
        m, comm, &spec,
        [&](Schedule& s) { return alg::build_allreduce(spec.alg, s, input, rbuf, count, type, op); },
        request);
}

/// The own block goes into place outside the cached schedule, whose spec
/// does not key the send buffer; a persistent schedule copies it per start.
int allgather(Mode m, void const* sbuf, int scount, MPI_Datatype stype, void* rbuf, int rcount,
              MPI_Datatype rtype, MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    void* const dst = at_offset(rbuf, static_cast<long long>(comm->rank()) * rcount, rtype);
    auto const copy = [=] { local_copy(sbuf, scount, stype, dst, rtype); };
    bool const own = sbuf != MPI_IN_PLACE;
    if (own && m != Mode::persist) copy();
    if (m == Mode::block && comm->size() == 1) return MPI_SUCCESS;
    alg::SchedSpec spec{alg::Family::allgather, 0, rcount, 0, 0, rbuf, nullptr, rtype, nullptr,
                        nullptr};
    return start(
        m, comm, &spec,
        [&](Schedule& s) {
            if (own) own_block(m, s, copy);
            return alg::build_allgather(spec.alg, s, rbuf, rcount, rtype);
        },
        request);
}

int alltoall(Mode m, void const* sbuf, int scount, MPI_Datatype stype, void* rbuf, int rcount,
             MPI_Datatype rtype, MPI_Comm comm, MPI_Request* request) {
    if (int rc = enter(m, comm, request); rc != MPI_SUCCESS) return rc;
    alg::SchedSpec spec{alg::Family::alltoall, 0, scount, rcount, 0, sbuf, rbuf, stype, rtype,
                        nullptr};
    return start(
        m, comm, &spec,
        [&](Schedule& s) {
            return alg::build_alltoall(spec.alg, s, sbuf, scount, stype, rbuf, rcount, rtype);
        },
        request);
}

}  // namespace
}  // namespace xmpi::detail

using namespace xmpi::detail;

// ---------------------------------------------------------------------------
// Entry points. Persistent collectives (MPI-4 *_init + MPI_Start) freeze
// what a blocking call decides per invocation — algorithm selection,
// topology composition, the sequence number and, for the v-variants, the
// count and displacement arrays — into one schedule at init. MPI_Start
// re-arms it (Schedule::reset) and replays it; execution-time steps re-read
// the bound user buffers, so each start observes their current contents.
// Rounds of one persistent request match each other FIFO per (source, tag);
// interleaved one-shot collectives use fresh sequence numbers.
// ---------------------------------------------------------------------------

int MPI_Barrier(MPI_Comm comm) { return barrier(Mode::block, comm, nullptr); }

int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request) {
    return barrier(Mode::nb, comm, request);
}

int MPI_Barrier_init(MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return barrier(Mode::persist, comm, request);
}

int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm) {
    return bcast(Mode::block, buf, count, type, root, comm, nullptr);
}

int MPI_Ibcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm,
               MPI_Request* request) {
    return bcast(Mode::nb, buf, count, type, root, comm, request);
}

int MPI_Bcast_init(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm, int /*info*/,
                   MPI_Request* request) {
    return bcast(Mode::persist, buf, count, type, root, comm, request);
}

int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
    return gatherv(Mode::block, sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs, 0,
                   recvtype, root, comm, nullptr);
}

int MPI_Igatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                 MPI_Comm comm, MPI_Request* request) {
    return gatherv(Mode::nb, sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs, 0,
                   recvtype, root, comm, request);
}

int MPI_Gatherv_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                     MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return gatherv(Mode::persist, sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs, 0,
                   recvtype, root, comm, request);
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    return gatherv(Mode::block, sendbuf, sendcount, sendtype, recvbuf, nullptr, nullptr,
                   recvcount, recvtype, root, comm, nullptr);
}

int MPI_Igather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                MPI_Request* request) {
    return gatherv(Mode::nb, sendbuf, sendcount, sendtype, recvbuf, nullptr, nullptr, recvcount,
                   recvtype, root, comm, request);
}

int MPI_Gather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int /*info*/,
                    MPI_Request* request) {
    return gatherv(Mode::persist, sendbuf, sendcount, sendtype, recvbuf, nullptr, nullptr,
                   recvcount, recvtype, root, comm, request);
}

int MPI_Scatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
    return scatterv(Mode::block, sendbuf, sendcounts, displs, 0, sendtype, recvbuf, recvcount,
                    recvtype, root, comm, nullptr);
}

int MPI_Iscatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                  MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  int root, MPI_Comm comm, MPI_Request* request) {
    return scatterv(Mode::nb, sendbuf, sendcounts, displs, 0, sendtype, recvbuf, recvcount,
                    recvtype, root, comm, request);
}

int MPI_Scatterv_init(const void* sendbuf, const int* sendcounts, const int* displs,
                      MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                      int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return scatterv(Mode::persist, sendbuf, sendcounts, displs, 0, sendtype, recvbuf, recvcount,
                    recvtype, root, comm, request);
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
    return scatterv(Mode::block, sendbuf, nullptr, nullptr, sendcount, sendtype, recvbuf,
                    recvcount, recvtype, root, comm, nullptr);
}

int MPI_Iscatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                 MPI_Request* request) {
    return scatterv(Mode::nb, sendbuf, nullptr, nullptr, sendcount, sendtype, recvbuf, recvcount,
                    recvtype, root, comm, request);
}

int MPI_Scatter_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int /*info*/,
                     MPI_Request* request) {
    return scatterv(Mode::persist, sendbuf, nullptr, nullptr, sendcount, sendtype, recvbuf,
                    recvcount, recvtype, root, comm, request);
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    return allgather(Mode::block, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                     nullptr);
}

int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return allgather(Mode::nb, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                     request);
}

int MPI_Allgather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                       int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                       MPI_Request* request) {
    return allgather(Mode::persist, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
                     comm, request);
}

int MPI_Allgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm) {
    return allgatherv(Mode::block, sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs,
                      recvtype, comm, nullptr);
}

int MPI_Iallgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm,
                    MPI_Request* request) {
    return allgatherv(Mode::nb, sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs,
                      recvtype, comm, request);
}

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    return alltoall(Mode::block, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                    nullptr);
}

int MPI_Ialltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return alltoall(Mode::nb, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm,
                    request);
}

int MPI_Alltoall_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int /*info*/,
                      MPI_Request* request) {
    return alltoall(Mode::persist, sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype,
                    comm, request);
}

int MPI_Alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                  MPI_Datatype recvtype, MPI_Comm comm) {
    return alltoallv(Mode::block, sendcounts, recvcounts,
                     VBlocks{sendbuf, sdispls, sendtype, recvbuf, rdispls, recvtype}, comm,
                     nullptr);
}

int MPI_Ialltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                   MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request) {
    return alltoallv(Mode::nb, sendcounts, recvcounts,
                     VBlocks{sendbuf, sdispls, sendtype, recvbuf, rdispls, recvtype}, comm,
                     request);
}

int MPI_Alltoallw(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  const MPI_Datatype* sendtypes, void* recvbuf, const int* recvcounts,
                  const int* rdispls, const MPI_Datatype* recvtypes, MPI_Comm comm) {
    return alltoallv(Mode::block, sendcounts, recvcounts,
                     WBlocks{sendbuf, sdispls, sendtypes, recvbuf, rdispls, recvtypes}, comm,
                     nullptr);
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               int root, MPI_Comm comm) {
    return reduce(Mode::block, sendbuf, recvbuf, count, type, op, root, comm, nullptr);
}

int MPI_Ireduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                int root, MPI_Comm comm, MPI_Request* request) {
    return reduce(Mode::nb, sendbuf, recvbuf, count, type, op, root, comm, request);
}

int MPI_Reduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                    int root, MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return reduce(Mode::persist, sendbuf, recvbuf, count, type, op, root, comm, request);
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                  MPI_Comm comm) {
    return allreduce(Mode::block, sendbuf, recvbuf, count, type, op, comm, nullptr);
}

int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                   MPI_Comm comm, MPI_Request* request) {
    return allreduce(Mode::nb, sendbuf, recvbuf, count, type, op, comm, request);
}

int MPI_Allreduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                       MPI_Comm comm, int /*info*/, MPI_Request* request) {
    return allreduce(Mode::persist, sendbuf, recvbuf, count, type, op, comm, request);
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
             MPI_Comm comm) {
    return scan(Mode::block, sendbuf, recvbuf, count, type, op, true, comm, nullptr);
}

int MPI_Iscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, MPI_Request* request) {
    return scan(Mode::nb, sendbuf, recvbuf, count, type, op, true, comm, request);
}

int MPI_Exscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               MPI_Comm comm) {
    return scan(Mode::block, sendbuf, recvbuf, count, type, op, false, comm, nullptr);
}

int MPI_Iexscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                MPI_Comm comm, MPI_Request* request) {
    return scan(Mode::nb, sendbuf, recvbuf, count, type, op, false, comm, request);
}

/// Reduce to rank 0, then scatter the blocks.
int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount, MPI_Datatype type,
                             MPI_Op op, MPI_Comm comm) {
    CallScope const call;
    if (int rc = enter(Mode::block, comm, nullptr); rc != MPI_SUCCESS) return rc;
    int const p = comm->size();
    std::vector<std::byte> full(static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(p) *
                                static_cast<std::size_t>(type->extent));
    void const* input = sendbuf == MPI_IN_PLACE ? recvbuf : sendbuf;
    if (int rc = MPI_Reduce(input, full.data(), recvcount * p, type, op, 0, comm);
        rc != MPI_SUCCESS)
        return rc;
    return MPI_Scatter(full.data(), recvcount, type, recvbuf, recvcount, type, 0, comm);
}

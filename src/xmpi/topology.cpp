/// @file topology.cpp
/// @brief Distributed-graph topologies and neighborhood collectives. A graph
/// communicator is a dup of the parent carrying each rank's local adjacency
/// (sources it receives from, destinations it sends to). The exchanges are
/// built as schedules (algorithms/schedule.hpp), so each one runs both
/// blockingly and as a progressable generalized request (the MPI_Ineighbor_*
/// variants) from one code path.
#include <vector>

#include "algorithms/algorithms.hpp"
#include "internal.hpp"

using namespace xmpi::detail;

int MPI_Dist_graph_create_adjacent(MPI_Comm comm, int indegree, const int* sources,
                                   const int* /*sourceweights*/, int outdegree,
                                   const int* destinations, const int* /*destweights*/,
                                   int /*info*/, int /*reorder*/, MPI_Comm* newcomm) {
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (newcomm == nullptr || indegree < 0 || outdegree < 0) return MPI_ERR_ARG;
    MPI_Comm c = MPI_COMM_NULL;
    if (int rc = MPI_Comm_dup(comm, &c); rc != MPI_SUCCESS) return rc;
    c->topo = std::make_unique<TopoInfo>();
    c->topo->sources.assign(sources, sources + indegree);
    c->topo->destinations.assign(destinations, destinations + outdegree);
    // Creating a topology is a collective in real MPI; model its
    // synchronization cost (the dup above already did an allreduce).
    if (int rc = MPI_Barrier(c); rc != MPI_SUCCESS) return rc;
    *newcomm = c;
    return MPI_SUCCESS;
}

int MPI_Dist_graph_neighbors_count(MPI_Comm comm, int* indegree, int* outdegree, int* weighted) {
    comm = resolve(comm);
    if (comm == nullptr || comm->topo == nullptr) return MPI_ERR_COMM;
    if (indegree != nullptr) *indegree = static_cast<int>(comm->topo->sources.size());
    if (outdegree != nullptr) *outdegree = static_cast<int>(comm->topo->destinations.size());
    if (weighted != nullptr) *weighted = 0;
    return MPI_SUCCESS;
}

int MPI_Dist_graph_neighbors(MPI_Comm comm, int maxindegree, int* sources, int* /*sourceweights*/,
                             int maxoutdegree, int* destinations, int* /*destweights*/) {
    comm = resolve(comm);
    if (comm == nullptr || comm->topo == nullptr) return MPI_ERR_COMM;
    for (int i = 0; i < maxindegree && i < static_cast<int>(comm->topo->sources.size()); ++i) {
        sources[i] = comm->topo->sources[static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < maxoutdegree && i < static_cast<int>(comm->topo->destinations.size());
         ++i) {
        destinations[i] = comm->topo->destinations[static_cast<std::size_t>(i)];
    }
    return MPI_SUCCESS;
}

namespace {

/// Validation shared by every neighborhood collective.
int neighbor_entry(MPI_Comm& comm) {
    comm = resolve(comm);
    if (int rc = check_comm(comm); rc != MPI_SUCCESS) return rc;
    if (comm->topo == nullptr) return MPI_ERR_COMM;
    if (any_member_dead(comm)) return MPIX_ERR_PROC_FAILED;
    return MPI_SUCCESS;
}

/// The neighborhood exchange over the communicator's adjacency: count and
/// displacement arrays are indexed by position in the source/destination
/// lists.
void build_topo_exchange(alg::Schedule& s, const void* sendbuf, const int* sendcounts,
                         const int* sdispls, MPI_Datatype sendtype, void* recvbuf,
                         const int* recvcounts, const int* rdispls, MPI_Datatype recvtype) {
    auto const& topo = *s.comm()->topo;
    alg::build_neighbor_exchange(
        s, static_cast<int>(topo.sources.size()),
        [&](int j) {
            return alg::Msg{topo.sources[static_cast<std::size_t>(j)],
                            alg::at_offset(recvbuf, rdispls[j], recvtype), recvcounts[j], recvtype};
        },
        static_cast<int>(topo.destinations.size()), [&](int i) {
            return alg::Msg{topo.destinations[static_cast<std::size_t>(i)],
                            alg::at_offset(sendbuf, sdispls[i], sendtype), sendcounts[i], sendtype};
        });
}

/// Uniform-count displacements for the non-v neighborhood collectives.
/// `uniform_send` keeps every send at displacement 0 (allgather semantics:
/// the same block goes to every destination).
struct NeighborCounts {
    std::vector<int> scounts, rcounts, sdispls, rdispls;

    NeighborCounts(MPI_Comm comm, int sendcount, int recvcount, bool uniform_send) {
        auto const out_n = static_cast<int>(comm->topo->destinations.size());
        auto const in_n = static_cast<int>(comm->topo->sources.size());
        scounts.assign(static_cast<std::size_t>(out_n), sendcount);
        rcounts.assign(static_cast<std::size_t>(in_n), recvcount);
        sdispls.assign(static_cast<std::size_t>(out_n), 0);
        rdispls.assign(static_cast<std::size_t>(in_n), 0);
        if (!uniform_send) {
            for (int i = 0; i < out_n; ++i) sdispls[static_cast<std::size_t>(i)] = i * sendcount;
        }
        for (int i = 0; i < in_n; ++i) rdispls[static_cast<std::size_t>(i)] = i * recvcount;
    }
};

}  // namespace

int MPI_Neighbor_alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                           MPI_Datatype sendtype, void* recvbuf, const int* recvcounts,
                           const int* rdispls, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = neighbor_entry(comm); rc != MPI_SUCCESS) return rc;
    alg::Schedule s(comm, comm->coll_seq++);
    build_topo_exchange(s, sendbuf, sendcounts, sdispls, sendtype, recvbuf, recvcounts,
                        rdispls, recvtype);
    return alg::run_blocking(s);
}

int MPI_Neighbor_alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                          int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = neighbor_entry(comm); rc != MPI_SUCCESS) return rc;
    NeighborCounts const nc(comm, sendcount, recvcount, /*uniform_send=*/false);
    alg::Schedule s(comm, comm->coll_seq++);
    build_topo_exchange(s, sendbuf, nc.scounts.data(), nc.sdispls.data(), sendtype, recvbuf,
                        nc.rcounts.data(), nc.rdispls.data(), recvtype);
    return alg::run_blocking(s);
}

int MPI_Neighbor_allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                           void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
    CallScope const call;
    if (int rc = neighbor_entry(comm); rc != MPI_SUCCESS) return rc;
    NeighborCounts const nc(comm, sendcount, recvcount, /*uniform_send=*/true);
    alg::Schedule s(comm, comm->coll_seq++);
    build_topo_exchange(s, sendbuf, nc.scounts.data(), nc.sdispls.data(), sendtype, recvbuf,
                        nc.rcounts.data(), nc.rdispls.data(), recvtype);
    return alg::run_blocking(s);
}

int MPI_Ineighbor_alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                           void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm,
                           MPI_Request* request) {
    CallScope const call;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (int rc = neighbor_entry(comm); rc != MPI_SUCCESS) return rc;
    NeighborCounts const nc(comm, sendcount, recvcount, /*uniform_send=*/false);
    auto s = std::make_shared<alg::Schedule>(comm, comm->coll_seq++);
    build_topo_exchange(*s, sendbuf, nc.scounts.data(), nc.sdispls.data(), sendtype, recvbuf,
                        nc.rcounts.data(), nc.rdispls.data(), recvtype);
    return alg::launch_nonblocking(comm, std::move(s), MPI_SUCCESS, request);
}

int MPI_Ineighbor_allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                            void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm,
                            MPI_Request* request) {
    CallScope const call;
    if (request == nullptr) return MPI_ERR_REQUEST;
    if (int rc = neighbor_entry(comm); rc != MPI_SUCCESS) return rc;
    NeighborCounts const nc(comm, sendcount, recvcount, /*uniform_send=*/true);
    auto s = std::make_shared<alg::Schedule>(comm, comm->coll_seq++);
    build_topo_exchange(*s, sendbuf, nc.scounts.data(), nc.sdispls.data(), sendtype, recvbuf,
                        nc.rcounts.data(), nc.rdispls.data(), recvtype);
    return alg::launch_nonblocking(comm, std::move(s), MPI_SUCCESS, request);
}

/// @file mpi.h
/// @brief The classic MPI C API, implemented from scratch by the `xmpi`
/// substrate (threads-as-ranks, in-memory matching transport, virtual-time
/// cost model).
///
/// This header deliberately mirrors the signatures and semantics of the MPI
/// standard's C bindings so that (a) the KaMPIng-style C++ bindings in
/// `src/kamping/` sit on exactly the interface the paper targets and (b) the
/// "plain MPI" baseline implementations look like real MPI code.
///
/// Supported feature set (see DESIGN.md §2/§3): blocking and non-blocking
/// point-to-point communication including synchronous mode, probing, the full
/// set of collectives used by the paper (incl. v/w variants and
/// MPI_Ibarrier as a progressable request), derived datatypes with
/// pack/unpack, communicator management, distributed-graph topologies with
/// neighborhood collectives, user-defined reduction operations, and the ULFM
/// fault-tolerance extensions (MPIX_*).
#pragma once

#include <cstddef>
#include <functional>

// ---------------------------------------------------------------------------
// Handles. All handles are pointers to substrate-internal objects; the
// special constants below are sentinel values resolved at call time.
// ---------------------------------------------------------------------------
struct xmpi_comm_t;
struct xmpi_datatype_t;
struct xmpi_op_t;
struct xmpi_request_t;

using MPI_Comm = xmpi_comm_t*;
using MPI_Datatype = xmpi_datatype_t*;
using MPI_Op = xmpi_op_t*;
using MPI_Request = xmpi_request_t*;
using MPI_Aint = long long;

/// Completion/metadata record for receives and probes. `_bytes` is
/// substrate-internal (packed payload size) and consumed by MPI_Get_count.
struct MPI_Status {
    int MPI_SOURCE;
    int MPI_TAG;
    int MPI_ERROR;
    int _bytes;
};

/// Signature of user-defined reduction functions (as in the MPI standard).
using MPI_User_function = void(void* invec, void* inoutvec, int* len, MPI_Datatype* datatype);

// ---------------------------------------------------------------------------
// Special values
// ---------------------------------------------------------------------------
#define MPI_COMM_NULL ((MPI_Comm) nullptr)
#define MPI_COMM_WORLD ((MPI_Comm)0x1)
#define MPI_COMM_SELF ((MPI_Comm)0x2)

#define MPI_REQUEST_NULL ((MPI_Request) nullptr)
#define MPI_DATATYPE_NULL ((MPI_Datatype) nullptr)
#define MPI_OP_NULL ((MPI_Op) nullptr)

#define MPI_STATUS_IGNORE ((MPI_Status*) nullptr)
#define MPI_STATUSES_IGNORE ((MPI_Status*) nullptr)

#define MPI_IN_PLACE ((void*)-1)
#define MPI_BOTTOM ((void*) nullptr)

inline constexpr int MPI_ANY_SOURCE = -2;
inline constexpr int MPI_ANY_TAG = -1;
inline constexpr int MPI_PROC_NULL = -3;
inline constexpr int MPI_ROOT = -4;
inline constexpr int MPI_UNDEFINED = -32766;
inline constexpr int MPI_TAG_UB = (1 << 24);

// ---------------------------------------------------------------------------
// Error codes. xmpi always uses the "errors return" model; the C++ layers
// above translate non-success codes into exceptions.
// ---------------------------------------------------------------------------
inline constexpr int MPI_SUCCESS = 0;
inline constexpr int MPI_ERR_BUFFER = 1;
inline constexpr int MPI_ERR_COUNT = 2;
inline constexpr int MPI_ERR_TYPE = 3;
inline constexpr int MPI_ERR_TAG = 4;
inline constexpr int MPI_ERR_COMM = 5;
inline constexpr int MPI_ERR_RANK = 6;
inline constexpr int MPI_ERR_REQUEST = 7;
inline constexpr int MPI_ERR_ROOT = 8;
inline constexpr int MPI_ERR_OP = 9;
inline constexpr int MPI_ERR_ARG = 12;
inline constexpr int MPI_ERR_TRUNCATE = 15;
inline constexpr int MPI_ERR_OTHER = 16;
inline constexpr int MPI_ERR_INTERN = 17;
inline constexpr int MPI_ERR_PENDING = 18;
inline constexpr int MPI_ERR_IN_STATUS = 19;
// ULFM extension codes
inline constexpr int MPIX_ERR_PROC_FAILED = 75;
inline constexpr int MPIX_ERR_REVOKED = 76;

// ---------------------------------------------------------------------------
// Built-in datatypes (defined in datatype.cpp; immutable singletons).
// ---------------------------------------------------------------------------
extern MPI_Datatype MPI_CHAR;
extern MPI_Datatype MPI_SIGNED_CHAR;
extern MPI_Datatype MPI_UNSIGNED_CHAR;
extern MPI_Datatype MPI_BYTE;
extern MPI_Datatype MPI_SHORT;
extern MPI_Datatype MPI_UNSIGNED_SHORT;
extern MPI_Datatype MPI_INT;
extern MPI_Datatype MPI_UNSIGNED;
extern MPI_Datatype MPI_LONG;
extern MPI_Datatype MPI_UNSIGNED_LONG;
extern MPI_Datatype MPI_LONG_LONG;
extern MPI_Datatype MPI_UNSIGNED_LONG_LONG;
extern MPI_Datatype MPI_FLOAT;
extern MPI_Datatype MPI_DOUBLE;
extern MPI_Datatype MPI_LONG_DOUBLE;
extern MPI_Datatype MPI_INT8_T;
extern MPI_Datatype MPI_INT16_T;
extern MPI_Datatype MPI_INT32_T;
extern MPI_Datatype MPI_INT64_T;
extern MPI_Datatype MPI_UINT8_T;
extern MPI_Datatype MPI_UINT16_T;
extern MPI_Datatype MPI_UINT32_T;
extern MPI_Datatype MPI_UINT64_T;
extern MPI_Datatype MPI_CXX_BOOL;
extern MPI_Datatype MPI_AINT;

// ---------------------------------------------------------------------------
// Built-in reduction operations (defined in ops.cpp).
// ---------------------------------------------------------------------------
extern MPI_Op MPI_SUM;
extern MPI_Op MPI_PROD;
extern MPI_Op MPI_MAX;
extern MPI_Op MPI_MIN;
extern MPI_Op MPI_LAND;
extern MPI_Op MPI_LOR;
extern MPI_Op MPI_LXOR;
extern MPI_Op MPI_BAND;
extern MPI_Op MPI_BOR;
extern MPI_Op MPI_BXOR;

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------
int MPI_Init(int* argc, char*** argv);
int MPI_Finalize();
int MPI_Initialized(int* flag);
int MPI_Abort(MPI_Comm comm, int errorcode);
/// Returns the calling rank's *virtual* time (seconds) under the cost model.
double MPI_Wtime();

// ---------------------------------------------------------------------------
// Communicator management
// ---------------------------------------------------------------------------
int MPI_Comm_size(MPI_Comm comm, int* size);
int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm);
int MPI_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm* newcomm);
/// Splits by locality. MPI_COMM_TYPE_SHARED groups the ranks that share a
/// node of the configured hierarchical topology (every member of the result
/// can "share memory"); on a flat topology each rank ends up alone, as on a
/// machine with one process per node. `info` is accepted for signature
/// compatibility (pass MPI_INFO_NULL).
int MPI_Comm_split_type(MPI_Comm comm, int split_type, int key, int info, MPI_Comm* newcomm);
inline constexpr int MPI_COMM_TYPE_SHARED = 1;
int MPI_Comm_free(MPI_Comm* comm);
int MPI_Comm_compare(MPI_Comm c1, MPI_Comm c2, int* result);
inline constexpr int MPI_IDENT = 0;
inline constexpr int MPI_CONGRUENT = 1;
inline constexpr int MPI_SIMILAR = 2;
inline constexpr int MPI_UNEQUAL = 3;

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------
int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm);
int MPI_Ssend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm);
int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
             MPI_Status* status);
int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
              MPI_Request* request);
int MPI_Issend(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
               MPI_Request* request);
int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
              MPI_Request* request);
int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest, int sendtag,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status);
int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status);
int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag, MPI_Status* status);
int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count);

// ---------------------------------------------------------------------------
// Request completion
// ---------------------------------------------------------------------------
int MPI_Wait(MPI_Request* request, MPI_Status* status);
int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status);
int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses);
int MPI_Testall(int count, MPI_Request* requests, int* flag, MPI_Status* statuses);
int MPI_Waitany(int count, MPI_Request* requests, int* index, MPI_Status* status);
int MPI_Testany(int count, MPI_Request* requests, int* index, int* flag, MPI_Status* status);
int MPI_Waitsome(int incount, MPI_Request* requests, int* outcount, int* indices,
                 MPI_Status* statuses);
/// Releases a request. Freeing MPI_REQUEST_NULL is erroneous and returns
/// MPI_ERR_REQUEST (so a double free is well-defined: the first call nulls
/// the handle, the second reports the error). Freeing a persistent receive
/// whose current start has not matched yet cancels it; freeing a started
/// persistent collective first drives it to completion.
int MPI_Request_free(MPI_Request* request);

// ---------------------------------------------------------------------------
// Persistent communication. *_init calls create *inactive* persistent
// requests with a frozen communication spec; MPI_Start (or MPI_Startall)
// begins one occurrence of the operation, re-reading the bound user buffers.
// Completing a started persistent request through MPI_Wait*/MPI_Test*
// returns it to the inactive-but-allocated state (the handle stays valid and
// is NOT reset to MPI_REQUEST_NULL) so it can be started again;
// MPI_Request_free releases it. Waiting on or testing an inactive persistent
// request succeeds immediately with an empty status.
// ---------------------------------------------------------------------------
int MPI_Start(MPI_Request* request);
int MPI_Startall(int count, MPI_Request* requests);
int MPI_Send_init(const void* buf, int count, MPI_Datatype type, int dest, int tag, MPI_Comm comm,
                  MPI_Request* request);
int MPI_Recv_init(void* buf, int count, MPI_Datatype type, int source, int tag, MPI_Comm comm,
                  MPI_Request* request);

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------
int MPI_Barrier(MPI_Comm comm);
int MPI_Ibarrier(MPI_Comm comm, MPI_Request* request);
int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm);
int MPI_Ibcast(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm,
               MPI_Request* request);
int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);
int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                MPI_Comm comm);
int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);
int MPI_Scatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm);
int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm);
int MPI_Allgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm);
int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, MPI_Comm comm);
int MPI_Alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                  MPI_Datatype recvtype, MPI_Comm comm);
int MPI_Alltoallw(const void* sendbuf, const int* sendcounts, const int* sdispls,
                  const MPI_Datatype* sendtypes, void* recvbuf, const int* recvcounts,
                  const int* rdispls, const MPI_Datatype* recvtypes, MPI_Comm comm);
int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               int root, MPI_Comm comm);
int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                  MPI_Comm comm);
int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
             MPI_Comm comm);
int MPI_Exscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
               MPI_Comm comm);
int MPI_Reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount, MPI_Datatype type,
                             MPI_Op op, MPI_Comm comm);

// Non-blocking collectives. Each one builds the same kind of schedule as its
// blocking counterpart at initiation and wraps it in a progressable
// generalized request: MPI_Wait*/MPI_Test* (or, when enabled, the
// asynchronous progress engine) execute it step by step. Completion order
// across multiple outstanding collective requests is unconstrained (wait in
// any order, or use MPI_Waitall). Ibcast, Ireduce, Iallreduce, Iallgather
// and Ialltoall run the same selectable algorithms as the blocking calls
// (see XMPI_T_alg_* below). Ibarrier, Igather(v) and Iscatter(v) run the
// blocking shapes (dissemination, linear). A wait progresses only its own
// request, so Iallgatherv and Ialltoallv send every block at initiation in
// one all-peer exchange, and Iscan/Iexscan send each input to every higher
// rank and fold the received ones in rank order.
int MPI_Igather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                MPI_Request* request);
int MPI_Igatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                 MPI_Comm comm, MPI_Request* request);
int MPI_Iscatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm,
                 MPI_Request* request);
int MPI_Iscatterv(const void* sendbuf, const int* sendcounts, const int* displs,
                  MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  int root, MPI_Comm comm, MPI_Request* request);
int MPI_Iallgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request);
int MPI_Iallgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    const int* recvcounts, const int* displs, MPI_Datatype recvtype, MPI_Comm comm,
                    MPI_Request* request);
int MPI_Ialltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request);
int MPI_Ialltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                   MPI_Datatype sendtype, void* recvbuf, const int* recvcounts, const int* rdispls,
                   MPI_Datatype recvtype, MPI_Comm comm, MPI_Request* request);
int MPI_Ireduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                int root, MPI_Comm comm, MPI_Request* request);
int MPI_Iallreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                   MPI_Comm comm, MPI_Request* request);
int MPI_Iscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
              MPI_Comm comm, MPI_Request* request);
int MPI_Iexscan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                MPI_Comm comm, MPI_Request* request);

// Persistent collectives (MPI-4 *_init). Each call materializes the
// operation's full schedule ONCE — algorithm selection (cost model /
// XMPI_ALG_* / XMPI_T_alg_set) and topology composition are frozen at init
// time; later XMPI_T_alg_set / XMPI_T_alg_env_refresh calls do NOT affect a
// live persistent operation — and returns an inactive persistent request.
// Every MPI_Start replays the frozen step program: bound input buffers are
// re-read (input snapshots are execution-time steps, re-run per start) and
// scratch is re-armed, so starting with updated buffer contents yields the
// updated result. All ranks of the communicator must create their persistent
// collectives in the same order and start each one the same number of times
// (the operations of one request match each other round by round, FIFO).
// `info` is accepted for signature compatibility (pass MPI_INFO_NULL).
int MPI_Barrier_init(MPI_Comm comm, int info, MPI_Request* request);
int MPI_Bcast_init(void* buf, int count, MPI_Datatype type, int root, MPI_Comm comm, int info,
                   MPI_Request* request);
int MPI_Reduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                    int root, MPI_Comm comm, int info, MPI_Request* request);
int MPI_Allreduce_init(const void* sendbuf, void* recvbuf, int count, MPI_Datatype type, MPI_Op op,
                       MPI_Comm comm, int info, MPI_Request* request);
int MPI_Allgather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                       int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int info,
                       MPI_Request* request);
int MPI_Alltoall_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm, int info,
                      MPI_Request* request);
int MPI_Gather_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int info,
                    MPI_Request* request);
int MPI_Gatherv_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     const int* recvcounts, const int* displs, MPI_Datatype recvtype, int root,
                     MPI_Comm comm, int info, MPI_Request* request);
int MPI_Scatter_init(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm, int info,
                     MPI_Request* request);
/// v-variant persistent collectives freeze the count/displacement arrays at
/// init time (they are read while building the schedule, not at start), so
/// the caller's arrays need not outlive the call.
int MPI_Scatterv_init(const void* sendbuf, const int* sendcounts, const int* displs,
                      MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                      int root, MPI_Comm comm, int info, MPI_Request* request);

// ---------------------------------------------------------------------------
// Collective algorithm control (MPI_T-style substrate extension).
//
// Bcast, reduce, allgather, allreduce and alltoall each have multiple
// registered algorithms (a flat reference plus binomial-tree, pipelined-
// ring, recursive-doubling, Rabenseifner and Bruck variants as applicable).
// By default every invocation picks the cheapest valid algorithm under the
// analytic α-β cost model for the universe's configured machine parameters.
// Two override channels exist:
//  - the XMPI_ALG_<FAMILY> environment variables (e.g. XMPI_ALG_ALLREDUCE=
//    rabenseifner), resolved once per process;
//  - XMPI_T_alg_set below, which takes precedence over the environment so
//    harnesses and benchmarks can pin algorithms programmatically.
// A pinned algorithm that is invalid for a given invocation (non-power-of-
// two communicator for recursive doubling/Rabenseifner, non-commutative or
// user-defined operations for the ring/Rabenseifner allreduce) falls back
// to cost-based selection
// among the valid ones, so pinning never breaks correctness.
// ---------------------------------------------------------------------------

/// Pins `algorithm` ("flat", "binomial", ...) for `family` ("bcast",
/// "reduce", "allgather", "allreduce", "alltoall"); NULL, "" or "auto"
/// restores cost-model selection. Unknown names return MPI_ERR_ARG.
int XMPI_T_alg_set(const char* family, const char* algorithm);
/// Reports the currently pinned algorithm for `family` ("auto" when
/// selection is automatic). The returned pointer is static storage.
int XMPI_T_alg_get(const char* family, const char** algorithm);
/// Writes the comma-separated names of `family`'s registered algorithms
/// into `buf` (MPI_ERR_ARG if `buflen` is too small).
int XMPI_T_alg_list(const char* family, char* buf, int buflen);
/// Reports the algorithm the cost model chose for the calling process's
/// most recent invocation of `family` (introspection for tests/benchmarks;
/// "none" before the first invocation). The pointer is static storage.
int XMPI_T_alg_selected(const char* family, const char** algorithm);
/// Discards the cached XMPI_ALG_* environment resolutions so the variables
/// are re-read (and an unknown name warns again) on the next selection.
/// Mainly for harnesses that mutate the environment mid-process. Affects
/// only *future* selections: live persistent operations (MPI_*_init) froze
/// their algorithm at init time and are not re-selected by a refresh.
int XMPI_T_alg_env_refresh(void);

// ---------------------------------------------------------------------------
// Schedule compilation control (MPI_T-style substrate extension).
//
// Blocking and MPI_I* invocations of the algorithm-backed collectives
// compile their communication schedule once and cache it per communicator,
// keyed by (family, algorithm, counts, datatype, op, root, buffer
// addresses); a repeat invocation re-arms the cached schedule instead of
// rebuilding it (the same amortization MPI_*_init offers, transparently).
// Entries are invalidated when any schedule-affecting control moves
// (XMPI_T_alg_set, XMPI_T_alg_env_refresh, XMPI_T_topo_set, the controls
// below). The cache can be disabled with XMPI_SCHED_CACHE=0 or
// XMPI_T_sched_cache_set(0).
//
// Segment-pipelined schedules (ring bcast, pipelined hierarchical
// allgather/alltoall) size their segments from the two-tier cost model;
// XMPI_SEGMENT_BYTES or XMPI_T_segment_set overrides the segment size in
// bytes. Invalid environment values (zero, negative, garbage) warn once on
// stderr and fall back to the cost model.
// ---------------------------------------------------------------------------

/// Pins the pipeline segment size in bytes for segmented schedules; 0
/// restores automatic sizing (environment, then cost model). Negative
/// values are rejected with MPI_ERR_ARG.
int XMPI_T_segment_set(long long bytes);
/// Reports the effective segment override in bytes (0 when automatic).
int XMPI_T_segment_get(long long* bytes);
/// Enables (1) / disables (0) the schedule cache; -1 restores automatic
/// resolution (XMPI_SCHED_CACHE, then enabled by default).
int XMPI_T_sched_cache_set(int enabled);
/// Reports whether the schedule cache is effectively enabled (0/1).
int XMPI_T_sched_cache_get(int* enabled);
/// Enables (1) / disables (0) the zero-copy shared-memory transport for
/// intra-node collective phases; -1 restores automatic resolution
/// (XMPI_SHM, then enabled by default). Disabling restores bit-identical
/// message-passing schedules. Takes effect at the next schedule build
/// (cached schedules are invalidated).
int XMPI_T_shm_set(int enabled);
/// Reports whether the shm transport is effectively enabled (0/1).
int XMPI_T_shm_get(int* enabled);
/// Enables (1) / disables (0) the asynchronous progress engine for
/// universes started after the call; -1 restores automatic resolution
/// (XMPI_ASYNC_PROGRESS, then off by default). With the engine on,
/// nonblocking and started-persistent collective schedules whose payload
/// clears XMPI_PROGRESS_MIN_BYTES are advanced by dedicated progress
/// threads, so they complete without any wait/test-side progress calls.
int XMPI_T_progress_set(int enabled);
/// Reports whether the progress engine is effectively enabled (0/1).
int XMPI_T_progress_get(int* enabled);
/// Reports the calling rank's schedule accounting (any pointer may be
/// null): schedules built, cache hits, cache evictions, and the largest
/// single-schedule scratch working set in bytes. Callable only from inside
/// a rank body (MPI_ERR_OTHER otherwise).
int XMPI_T_sched_stats(unsigned long long* builds, unsigned long long* cache_hits,
                       unsigned long long* cache_evictions,
                       unsigned long long* peak_scratch_bytes);

// ---------------------------------------------------------------------------
// Hierarchical topology control (MPI_T-style substrate extension).
//
// The topology subsystem (src/xmpi/topo/) maps world ranks onto nodes with a
// block mapping node = world_rank / ranks_per_node. Messages between ranks
// on the same node are priced with the intra-node machine parameters
// (Config::{alpha,beta,o}_intra); everything else uses the inter-node tier.
// Resolution order at universe creation: XMPI_T_topo_set() control value,
// then the XMPI_RANKS_PER_NODE environment variable, then XMPI_NODES
// (ceil(p / nodes) ranks per node), then Config::ranks_per_node. A value of
// 1 (or nothing configured) is the flat single-tier network.
// ---------------------------------------------------------------------------

/// Pins `ranks_per_node` for subsequently created universes; 0 restores
/// automatic resolution (environment, then Config). Negative values are
/// rejected with MPI_ERR_ARG.
int XMPI_T_topo_set(int ranks_per_node);
/// Reports the pinned ranks-per-node (0 when resolution is automatic).
int XMPI_T_topo_get(int* ranks_per_node);

// ---------------------------------------------------------------------------
// Virtual-time simulation control (MPI_T-style substrate extension).
//
// The discrete-event simulator (src/xmpi/sim/) dry-builds collective
// schedules at virtual communicator sizes far beyond what threads-as-ranks
// can materialize (10^4..10^6 ranks) and replays the resulting payload-free
// tapes under the two-tier cost model. Resolution order for the event limit
// is control call > XMPI_SIM_EVENT_LIMIT environment variable > unlimited;
// an invalid environment value warns once on stderr and falls back, the
// same path as the XMPI_ALG_* / tuning knobs.
// ---------------------------------------------------------------------------

/// Caps the number of tape events one simulation may execute (a runaway
/// guard for scripted sweeps): > 0 sets the cap, 0 means unlimited, -1
/// restores automatic resolution (XMPI_SIM_EVENT_LIMIT, then unlimited).
/// Values below -1 are rejected with MPI_ERR_ARG.
int XMPI_T_sim_event_limit_set(long long limit);
/// Reports the *effective* event limit (0 when unlimited).
int XMPI_T_sim_event_limit_get(long long* limit);
/// Reports process-wide simulator accounting (any pointer may be null):
/// per-rank dry schedule builds (counted separately from the real
/// compilations XMPI_T_sched_stats reports), recorded tape steps, executed
/// events, and the most recent simulation's makespan in virtual seconds.
/// Callable from anywhere, including outside rank bodies.
int XMPI_T_sim_stats(unsigned long long* dry_builds, unsigned long long* tape_steps,
                     unsigned long long* events, double* last_makespan);

// ---------------------------------------------------------------------------
// Self-tuning control (MPI_T-style substrate extension).
//
// The tuning subsystem (src/xmpi/tune/) layers measured machine parameters
// over the analytic cost model and closes the selection loop with measured
// makespans. The two-tier alpha/beta/o parameters resolve, per parameter,
// as: XMPI_T_tune_set pin > calibrated fit (XMPI_T_tune_calibrate) >
// XMPI_TUNE_PROFILE machine description > Config defaults — the same
// control > environment > default precedence as the topology knobs. A
// profile is a hostfile-style text file of "inter alpha=... beta=... o=..."
// / "intra ..." lines ('#' comments); a malformed profile warns once on
// stderr and is ignored whole.
//
// Selection feedback (default off; enabled by XMPI_TUNE=1 or
// XMPI_T_tune_set("feedback", 1)) records every executed blocking
// collective's measured virtual-time makespan into a per-(family,
// comm-size-bucket, message-size-bucket) table, demotes algorithms whose
// measured time is consistently beaten by a sampled alternative, and
// epsilon-greedily re-probes so demotions can recover. Any tuning change
// that can move selection bumps the schedule-cache epoch, so stale cached
// schedules are never replayed.
// ---------------------------------------------------------------------------

/// Pins one machine parameter ("alpha", "beta", "o", "alpha_intra",
/// "beta_intra", "o_intra") to `value` seconds (resp. seconds/byte), or the
/// feedback switch ("feedback", value 0/1). A negative value restores the
/// lower-precedence layers. Unknown keys are rejected with MPI_ERR_ARG.
int XMPI_T_tune_set(const char* key, double value);
/// Reports the effective layered value of `key` as selection would see it
/// over the default machine configuration ("feedback" reports 0/1).
int XMPI_T_tune_get(const char* key, double* value);
/// Runs the calibration pass on `comm` (collective over all its ranks;
/// callable only from inside a rank body, MPI_ERR_OTHER otherwise or when
/// comm has fewer than 2 ranks): rank 0 fits alpha/beta/o per tier from
/// isolated-send and two-size ping-pong probes against the first same-node
/// and first off-node peer; absent tiers keep their previous layers.
int XMPI_T_tune_calibrate(MPI_Comm comm);
/// Writes the effective two-tier parameters to `path` in the
/// XMPI_TUNE_PROFILE format (persist once, reuse via the environment).
int XMPI_T_tune_save(const char* path);
/// Reports process-wide feedback-loop accounting (any pointer may be
/// null): recorded makespans, probe decisions, demotions and recoveries.
int XMPI_T_tune_stats(unsigned long long* records, unsigned long long* probes,
                      unsigned long long* demotions, unsigned long long* recoveries);
/// Forgets measured state (calibrated fits, the feedback table, the stats
/// counters) while keeping control pins and the environment profile.
int XMPI_T_tune_reset(void);

// ---------------------------------------------------------------------------
// Event tracing + performance variables (MPI_T-style substrate extension).
//
// Setting XMPI_TRACE=<path> records every substrate event (p2p deposits and
// completions, schedule builds/cache hits/steps, collective entry/exit, tune
// decisions) into fixed-size per-rank ring buffers
// (XMPI_TRACE_RING_EVENTS events each, default 65536; a garbage value warns
// once and disables tracing for the run) and writes the merged timeline as
// Chrome trace-event JSON — loadable in Perfetto — when the universe ends.
// With XMPI_TRACE unset every hook compiles down to one relaxed atomic load.
// Both knobs are re-read after XMPI_T_alg_env_refresh.
//
// The pvar registry enumerates every substrate counter through one uniform
// handle-based interface. Naming scheme (dot-separated, stable):
//   counters.*      the calling rank's Counters fields (in-rank only).
//                   `schedule_peak_scratch_bytes.rank` is the calling rank's
//                   own peak — the value XMPI_T_sched_stats also reports —
//                   while `.max` reduces over all ranks of the universe, the
//                   same aggregation RunResult::total applies.
//   p2p.wait_time_ns  wall nanoseconds the rank spent blocked in wait/test,
//                   spinning or parked (summed over all ranks of the last
//                   traced run when read outside a rank body).
//   p2p.wait_parks  blocking waits that outlasted the spin and parked on
//                   the mailbox condition variable (same scoping).
//   vtime.cpu_samples  thread-CPU clock reads the virtual clock made for
//                   the rank (same scoping): at most one per MPI call, plus
//                   one before a blocking wait and one per wake-up.
//   sim.* tune.*    process-wide simulator / feedback-loop accounting (the
//                   XMPI_T_sim_stats / XMPI_T_tune_stats fields).
//   trace.*         ring accounting (events recorded / dropped).
//   hist.<family>.<alg>  log2-bucketed latency histogram: 25 payload-size
//                   buckets (log2 bytes, clamped to 24) x 16 latency buckets
//                   (log2 virtual ns, first bucket < 128 ns), size-major.
// ---------------------------------------------------------------------------

/// Reports the number of performance variables.
int XMPI_T_pvar_num(int* num);
/// Copies pvar `index`'s name into `name` (truncated to `namelen` bytes,
/// always NUL-terminated) and reports how many values a read returns.
int XMPI_T_pvar_name(int index, char* name, int namelen, int* value_count);
/// Reads pvar `index`: `*count` carries the capacity of `values` in and the
/// number of values written out. Per-rank variables return MPI_ERR_OTHER
/// outside a rank body.
int XMPI_T_pvar_read(int index, unsigned long long* values, int* count);
/// Resets pvar `index` (histograms and the `p2p.*` wait pvars); MPI_ERR_OTHER
/// for read-only variables.
int XMPI_T_pvar_reset(int index);
/// Reports the last traced run's ring accounting (any pointer may be null):
/// events recorded (including overwritten), events dropped to ring
/// overflow, and events retained in the merged timeline.
int XMPI_T_trace_stats(unsigned long long* recorded, unsigned long long* dropped,
                       unsigned long long* merged);

/// Critical-path attribution of one traced collective invocation (see
/// XMPI_T_trace_attribution).
typedef struct XMPI_T_trace_attr {
    double traced_makespan;   /* max rank exit vtime - min rank enter vtime */
    double replayed_makespan; /* makespan of the replayed schedule tape */
    double attributed;        /* alpha+beta+o total on the critical path */
    double alpha_inter;
    double beta_inter;
    double o_inter;
    double alpha_intra;
    double beta_intra;
    double o_intra;
    double start_skew; /* entry-time skew carried by the path's origin rank */
    unsigned long long steps; /* replayed tape steps across all ranks */
    int family; /* alg::Family of the attributed collective, -1 unknown */
    int alg;    /* selected algorithm index within the family, -1 unknown */
} XMPI_T_trace_attr;

/// Runs the simulator's event loop over the tape traced for collective `seq`
/// of the last traced run (seq < 0: the last completed one) from each rank's
/// entry skew, and splits the finishing rank's critical path into named
/// alpha/beta/o terms per tier. Compute is not replayed, so gaps surface real
/// model divergence. MPI_ERR_OTHER when no traced run or matching collective
/// exists, or the tape cannot be replayed whole: a step names an untraced
/// rank (its ring overflowed), or the replay deadlocks or leaves a channel
/// unmatched.
int XMPI_T_trace_attribution(long long seq, XMPI_T_trace_attr* out);

// ---------------------------------------------------------------------------
// Derived datatypes
// ---------------------------------------------------------------------------
int MPI_Type_contiguous(int count, MPI_Datatype oldtype, MPI_Datatype* newtype);
int MPI_Type_vector(int count, int blocklength, int stride, MPI_Datatype oldtype,
                    MPI_Datatype* newtype);
int MPI_Type_indexed(int count, const int* blocklengths, const int* displacements,
                     MPI_Datatype oldtype, MPI_Datatype* newtype);
int MPI_Type_create_struct(int count, const int* blocklengths, const MPI_Aint* displacements,
                           const MPI_Datatype* types, MPI_Datatype* newtype);
int MPI_Type_create_resized(MPI_Datatype oldtype, MPI_Aint lb, MPI_Aint extent,
                            MPI_Datatype* newtype);
int MPI_Type_commit(MPI_Datatype* type);
int MPI_Type_free(MPI_Datatype* type);
int MPI_Type_size(MPI_Datatype type, int* size);
int MPI_Type_get_extent(MPI_Datatype type, MPI_Aint* lb, MPI_Aint* extent);

// ---------------------------------------------------------------------------
// Reduction operations
// ---------------------------------------------------------------------------
int MPI_Op_create(MPI_User_function* fn, int commute, MPI_Op* op);
int MPI_Op_free(MPI_Op* op);
/// Substrate extension: reduction op backed by an arbitrary callable (used
/// by the C++ bindings to support capturing lambdas as reduction operations).
int XMPI_Op_create_fn(std::function<void(void*, void*, int*, MPI_Datatype*)> fn, int commute,
                      MPI_Op* op);

// ---------------------------------------------------------------------------
// Distributed-graph topology and neighborhood collectives
// ---------------------------------------------------------------------------
int MPI_Dist_graph_create_adjacent(MPI_Comm comm, int indegree, const int* sources,
                                   const int* sourceweights, int outdegree, const int* destinations,
                                   const int* destweights, int info, int reorder, MPI_Comm* newcomm);
int MPI_Dist_graph_neighbors_count(MPI_Comm comm, int* indegree, int* outdegree, int* weighted);
int MPI_Dist_graph_neighbors(MPI_Comm comm, int maxindegree, int* sources, int* sourceweights,
                             int maxoutdegree, int* destinations, int* destweights);
int MPI_Neighbor_alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                          int recvcount, MPI_Datatype recvtype, MPI_Comm comm);
int MPI_Neighbor_alltoallv(const void* sendbuf, const int* sendcounts, const int* sdispls,
                           MPI_Datatype sendtype, void* recvbuf, const int* recvcounts,
                           const int* rdispls, MPI_Datatype recvtype, MPI_Comm comm);
/// Each rank sends the same `sendcount` elements to every destination and
/// receives one block per source into `recvbuf` (source order).
int MPI_Neighbor_allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                           void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm);
// Non-blocking neighborhood collectives: progressable generalized requests
// over the same schedules as the blocking calls.
int MPI_Ineighbor_allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                            void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm,
                            MPI_Request* request);
int MPI_Ineighbor_alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                           void* recvbuf, int recvcount, MPI_Datatype recvtype, MPI_Comm comm,
                           MPI_Request* request);
inline constexpr int MPI_INFO_NULL = 0;

// ---------------------------------------------------------------------------
// ULFM fault-tolerance extensions (MPI 5.0 proposal / MPIX namespace)
// ---------------------------------------------------------------------------
int MPIX_Comm_revoke(MPI_Comm comm);
int MPIX_Comm_is_revoked(MPI_Comm comm, int* flag);
int MPIX_Comm_shrink(MPI_Comm comm, MPI_Comm* newcomm);
int MPIX_Comm_agree(MPI_Comm comm, int* flag);
int MPIX_Comm_failure_ack(MPI_Comm comm);
/// Substrate extension: the calling rank fails (terminates) immediately.
/// Peers observe MPIX_ERR_PROC_FAILED on operations involving this rank.
[[noreturn]] void XMPI_Die();

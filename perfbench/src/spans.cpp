#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "xmpi/mpi.h"

namespace pb::spans {
namespace {

/// Stored spans per rank; the rest are only aggregated.
constexpr std::size_t kMaxStored = 1u << 16;

struct Span {
    char const* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint32_t op;
};

struct Frame {
    char const* name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t stored;  ///< index into Recorder::spans, -1 when not stored
};

struct Recorder {
    int rank = 0;
    std::uint32_t op = 0;
    int mpi_depth = 0;
    std::vector<Frame> stack;
    std::vector<Span> spans;
    std::vector<SelfTime> agg;
    std::uint64_t dropped = 0;

    void open(char const* name) {
        std::int32_t parent = stack.empty() ? -1 : stack.back().stored;
        std::int32_t idx = -1;
        std::int64_t const t = now_ns();
        if (spans.size() < kMaxStored) {
            idx = static_cast<std::int32_t>(spans.size());
            spans.push_back({name, t, 0, parent, op});
        } else {
            ++dropped;
        }
        stack.push_back({name, t, 0, idx});
    }

    void close() {
        std::int64_t const t = now_ns();
        Frame const f = stack.back();
        stack.pop_back();
        std::int64_t const dur = t - f.start;
        if (f.stored >= 0) spans[static_cast<std::size_t>(f.stored)].end = t;
        if (!stack.empty()) stack.back().child_ns += dur;
        SelfTime* s = nullptr;
        for (auto& a : agg) {
            if (a.name == f.name) s = &a;
        }
        if (s == nullptr) {
            agg.push_back({f.name, 0, 0, 0});
            s = &agg.back();
        }
        ++s->count;
        s->self_ns += static_cast<double>(dur - f.child_ns);
        s->total_ns += static_cast<double>(dur);
    }
};

std::atomic<bool> g_enabled{false};
thread_local std::unique_ptr<Recorder> t_rec;
std::mutex g_mutex;
std::vector<std::unique_ptr<Recorder>> g_done;  // guarded by g_mutex

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void attach(int rank) {
    t_rec = std::make_unique<Recorder>();
    t_rec->rank = rank;
}

void detach() {
    if (t_rec == nullptr) return;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_done.push_back(std::move(t_rec));
}

void set_op(std::uint32_t op) {
    if (t_rec != nullptr) t_rec->op = op;
}

Scope::Scope(char const* name) {
    if (!enabled() || t_rec == nullptr) return;
    t_rec->open(name);
    open_ = true;
}

Scope::~Scope() {
    if (open_) t_rec->close();
}

std::vector<SelfTime> self_times() {
    std::vector<SelfTime> out;
    std::lock_guard<std::mutex> lock(g_mutex);
    for (auto const& r : g_done) {
        for (auto const& a : r->agg) {
            auto it = std::find_if(out.begin(), out.end(),
                                   [&](SelfTime const& s) { return s.name == a.name; });
            if (it == out.end()) {
                out.push_back(a);
            } else {
                it->count += a.count;
                it->self_ns += a.self_ns;
                it->total_ns += a.total_ns;
            }
        }
    }
    return out;
}

std::uint64_t dropped() {
    std::uint64_t n = 0;
    std::lock_guard<std::mutex> lock(g_mutex);
    for (auto const& r : g_done) n += r->dropped;
    return n;
}

bool write_tsv(std::string const& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "rank\top\tname\tstart_ns\tend_ns\tparent\n");
    std::lock_guard<std::mutex> lock(g_mutex);
    for (auto const& r : g_done) {
        for (Span const& s : r->spans) {
            std::fprintf(f, "%d\t%u\t%s\t%lld\t%lld\t%d\n", r->rank, s.op, s.name,
                         static_cast<long long>(s.start), static_cast<long long>(s.end),
                         s.parent);
        }
    }
    return std::fclose(f) == 0;
}

void reset() {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_done.clear();
}

// --- link-time MPI interposition --------------------------------------------
//
// Only the outermost MPI_* call of a thread opens a span: calls the library
// makes to its own entry points from inside an entry are part of that
// entry's time.

namespace {
struct MpiScope {
    bool counted = false;
    bool open = false;
    explicit MpiScope(char const* name) {
        if (!enabled() || t_rec == nullptr) return;
        counted = true;
        if (t_rec->mpi_depth++ == 0) {
            t_rec->open(name);
            open = true;
        }
    }
    ~MpiScope() {
        if (!counted) return;
        --t_rec->mpi_depth;
        if (open) t_rec->close();
    }
    MpiScope(MpiScope const&) = delete;
    MpiScope& operator=(MpiScope const&) = delete;
};
}  // namespace

}  // namespace pb::spans

#define PB_WRAP(SYM, NAME, PARAMS, ARGS)                      \
    extern "C" int __real_##SYM PARAMS;                       \
    extern "C" int __wrap_##SYM PARAMS {                      \
        if (!pb::spans::enabled()) return __real_##SYM ARGS;  \
        pb::spans::MpiScope scope(NAME);                      \
        return __real_##SYM ARGS;                             \
    }

using CV = void const*;
using V = void*;
using DT = MPI_Datatype;
using CM = MPI_Comm;
using RQ = MPI_Request*;
using ST = MPI_Status*;
using CI = int const*;

PB_WRAP(_Z13MPI_AllreducePKvPviP15xmpi_datatype_tP9xmpi_op_tP11xmpi_comm_t, "mpi.allreduce",
        (CV s, V r, int n, DT t, MPI_Op op, CM c), (s, r, n, t, op, c))
PB_WRAP(_Z9MPI_BcastPviP15xmpi_datatype_tiP11xmpi_comm_t, "mpi.bcast",
        (V b, int n, DT t, int root, CM c), (b, n, t, root, c))
PB_WRAP(_Z13MPI_AllgatherPKviP15xmpi_datatype_tPviS2_P11xmpi_comm_t, "mpi.allgather",
        (CV s, int sn, DT st, V r, int rn, DT rt, CM c), (s, sn, st, r, rn, rt, c))
PB_WRAP(_Z14MPI_AllgathervPKviP15xmpi_datatype_tPvPKiS5_S2_P11xmpi_comm_t, "mpi.allgatherv",
        (CV s, int sn, DT st, V r, CI rc, CI rd, DT rt, CM c), (s, sn, st, r, rc, rd, rt, c))
PB_WRAP(_Z12MPI_AlltoallPKviP15xmpi_datatype_tPviS2_P11xmpi_comm_t, "mpi.alltoall",
        (CV s, int sn, DT st, V r, int rn, DT rt, CM c), (s, sn, st, r, rn, rt, c))
PB_WRAP(_Z13MPI_AlltoallvPKvPKiS2_P15xmpi_datatype_tPvS2_S2_S4_P11xmpi_comm_t, "mpi.alltoallv",
        (CV s, CI sc, CI sd, DT st, V r, CI rc, CI rd, DT rt, CM c),
        (s, sc, sd, st, r, rc, rd, rt, c))
PB_WRAP(_Z10MPI_ExscanPKvPviP15xmpi_datatype_tP9xmpi_op_tP11xmpi_comm_t, "mpi.exscan",
        (CV s, V r, int n, DT t, MPI_Op op, CM c), (s, r, n, t, op, c))
PB_WRAP(_Z11MPI_BarrierP11xmpi_comm_t, "mpi.barrier", (CM c), (c))
PB_WRAP(_Z8MPI_SendPKviP15xmpi_datatype_tiiP11xmpi_comm_t, "mpi.send",
        (CV b, int n, DT t, int d, int tag, CM c), (b, n, t, d, tag, c))
PB_WRAP(_Z8MPI_RecvPviP15xmpi_datatype_tiiP11xmpi_comm_tP10MPI_Status, "mpi.recv",
        (V b, int n, DT t, int s, int tag, CM c, ST st), (b, n, t, s, tag, c, st))
PB_WRAP(_Z10MPI_IssendPKviP15xmpi_datatype_tiiP11xmpi_comm_tPP14xmpi_request_t, "mpi.issend",
        (CV b, int n, DT t, int d, int tag, CM c, RQ rq), (b, n, t, d, tag, c, rq))
PB_WRAP(_Z9MPI_ProbeiiP11xmpi_comm_tP10MPI_Status, "mpi.probe", (int s, int tag, CM c, ST st),
        (s, tag, c, st))
PB_WRAP(_Z10MPI_IprobeiiP11xmpi_comm_tPiP10MPI_Status, "mpi.iprobe",
        (int s, int tag, CM c, int* f, ST st), (s, tag, c, f, st))
PB_WRAP(_Z12MPI_IbarrierP11xmpi_comm_tPP14xmpi_request_t, "mpi.ibarrier", (CM c, RQ rq), (c, rq))
PB_WRAP(_Z14MPI_IallreducePKvPviP15xmpi_datatype_tP9xmpi_op_tP11xmpi_comm_tPP14xmpi_request_t,
        "mpi.iallreduce", (CV s, V r, int n, DT t, MPI_Op op, CM c, RQ rq),
        (s, r, n, t, op, c, rq))
PB_WRAP(_Z9MPI_StartPP14xmpi_request_t, "mpi.start", (RQ rq), (rq))
PB_WRAP(_Z8MPI_WaitPP14xmpi_request_tP10MPI_Status, "mpi.wait", (RQ rq, ST st), (rq, st))
PB_WRAP(_Z11MPI_WaitalliPP14xmpi_request_tP10MPI_Status, "mpi.waitall", (int n, RQ rq, ST st),
        (n, rq, st))
PB_WRAP(_Z8MPI_TestPP14xmpi_request_tPiP10MPI_Status, "mpi.test", (RQ rq, int* f, ST st),
        (rq, f, st))
PB_WRAP(_Z11MPI_TestalliPP14xmpi_request_tPiP10MPI_Status, "mpi.testall",
        (int n, RQ rq, int* f, ST st), (n, rq, f, st))

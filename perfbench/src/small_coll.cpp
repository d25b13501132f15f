/// @file small_coll.cpp
/// @brief Workload `small_coll`: 1- and 64-element uint64 collectives on a
/// flat topology with stable buffers, each issued three ways (KaMPIng, raw
/// MPI_*, persistent MPI_Start + MPI_Wait where an _init exists), plus an
/// 8-byte ping-pong on the rank pairs (0,1) and (2,3). Transfer is
/// negligible, so the time is the software path from the binding down to
/// the wakeup.
#include <random>

#include "kamping/kamping.hpp"
#include "threaded.hpp"

namespace pb {
namespace {

using U64 = std::uint64_t;
constexpr int kSizes[] = {1, 64};
constexpr int kNumSizes = 2;

enum Kind {
    AR_K,
    AR_R,
    AR_P,
    BC_K,
    BC_R,
    BC_P,
    AGV_K,
    AGV_I,
    AGV_R,
    AG_R,
    AG_P,
    A2AV_K,
    A2AV_R,
    kPerSize
};
constexpr char const* kKindNames[kPerSize] = {
    "allreduce.kamping",  "allreduce.raw",       "allreduce.persistent", "bcast.kamping",
    "bcast.raw",          "bcast.persistent",    "allgatherv.kamping",   "allgatherv.inferred",
    "allgatherv.raw",     "allgather.raw",       "allgather.persistent", "alltoallv.kamping",
    "alltoallv.raw"};
constexpr int kPingKind = kNumSizes * kPerSize;
constexpr int kOpsPerRound = kPingKind + 1;

/// What the cost model selected for 4 flat ranks when this benchmark was
/// written; a differing selection is counted in algorithms.selection_flips.
struct Expected {
    char const* family;
    int n;
    char const* alg;
};
constexpr Expected kExpectedSelection[] = {
    {"allreduce", 1, "flat"}, {"allreduce", 64, "flat"}, {"bcast", 1, "flat"},
    {"bcast", 64, "flat"},     {"allgather", 1, "flat"},  {"allgather", 64, "flat"},
};

struct Shared {
    Oracle oracle;
    U64 seed = 1;
    std::vector<std::pair<std::string, std::string>> selected;  // written by rank 0
};

struct Bufs {
    int n = 0;
    std::vector<U64> ar_in, ar_out, bc, ag_in, ag_out, a2a_in, a2a_out;
    std::vector<int> counts, displs;
    std::vector<U64> p_ar_in, p_ar_out, p_bc, p_ag_in, p_ag_out;
    MPI_Request p_ar = MPI_REQUEST_NULL;
    MPI_Request p_bcast[kRanks] = {};  ///< one persistent bcast per root
    MPI_Request p_ag = MPI_REQUEST_NULL;
};

class State {
public:
    State(int rank, Shared& sh) : rank_(rank), sh_(sh), comm_(MPI_COMM_WORLD) {
        MPI_Datatype const T = MPI_UINT64_T;
        for (int s = 0; s < kNumSizes; ++s) {
            Bufs& b = bufs_[s];
            int const n = kSizes[s];
            auto const pn = static_cast<std::size_t>(kRanks * n);
            b.n = n;
            b.ar_in.resize(n);
            b.ar_out.resize(n);
            b.bc.resize(n);
            b.ag_in.resize(n);
            b.ag_out.resize(pn);
            b.a2a_in.resize(pn);
            b.a2a_out.resize(pn);
            b.counts.assign(kRanks, n);
            for (int r = 0; r < kRanks; ++r) b.displs.push_back(r * n);
            b.p_ar_in.resize(n);
            b.p_ar_out.resize(n);
            b.p_bc.resize(n);
            b.p_ag_in.resize(n);
            b.p_ag_out.resize(pn);
            W(MPI_Allreduce_init(b.p_ar_in.data(), b.p_ar_out.data(), n, T, MPI_SUM,
                                 MPI_COMM_WORLD, MPI_INFO_NULL, &b.p_ar));
            for (int root = 0; root < kRanks; ++root) {
                W(MPI_Bcast_init(b.p_bc.data(), n, T, root, MPI_COMM_WORLD, MPI_INFO_NULL,
                                 &b.p_bcast[root]));
            }
            W(MPI_Allgather_init(b.p_ag_in.data(), n, T, b.p_ag_out.data(), n, T,
                                 MPI_COMM_WORLD, MPI_INFO_NULL, &b.p_ag));
        }
        for (long r = -kWarmupRounds; r < 0; ++r) round(r, nullptr);
        record_selection();
    }

    void finish() {
        for (Bufs& b : bufs_) {
            MPI_Request_free(&b.p_ar);
            for (MPI_Request& req : b.p_bcast) MPI_Request_free(&req);
            MPI_Request_free(&b.p_ag);
        }
    }

    int round(long r, LatencyLog* log) {
        if (log != nullptr && log->kind_names.empty()) {
            for (int s = 0; s < kNumSizes; ++s) {
                for (int k = 0; k < kPerSize; ++k) {
                    log->kind(std::string(kKindNames[k]) + "." + std::to_string(kSizes[s]));
                }
            }
            log->kind("pingpong");
        }
        // Every rank is the bcast root in turn, so no seed favours one.
        root_ = static_cast<int>((r + kWarmupRounds) % kRanks);
        int order[kOpsPerRound];
        for (int i = 0; i < kOpsPerRound; ++i) order[i] = i;
        std::mt19937_64 rng(sh_.seed * 0x9e3779b97f4a7c15ULL + static_cast<U64>(r + kWarmupRounds));
        std::shuffle(order, order + kOpsPerRound, rng);
        for (int o = 0; o < kOpsPerRound; ++o) {
            int const id = order[o];
            U64 const base = mix64(sh_.seed ^ (static_cast<U64>(r + kWarmupRounds) << 8) ^ static_cast<U64>(id)) >> 24;
            spans::set_op(static_cast<std::uint32_t>((r + kWarmupRounds) * kOpsPerRound + o));
            try {
                if (id == kPingKind) {
                    pingpong(base, log);
                } else {
                    run_op(id % kPerSize, bufs_[id / kPerSize], base, log, id);
                }
            } catch (kamping::MpiErrorException const&) {
                sh_.oracle.mpi_error();
            }
        }
        return kOpsPerRound;
    }

private:
    void W(int rc) { check_mpi(rc, sh_.oracle); }

    void fill(std::vector<U64>& v, U64 base) { fill_val(v, base, rank_); }

    void check_sum(std::vector<U64> const& out, U64 base) {
        bool ok = true;
        for (std::size_t i = 0; i < out.size(); ++i) {
            U64 want = 0;
            for (int r = 0; r < kRanks; ++r) want += val(base, r, i);
            ok = ok && out[i] == want;
        }
        sh_.oracle.expect(ok);
    }
    void check_root(std::vector<U64> const& out, U64 base) {
        bool ok = true;
        for (std::size_t i = 0; i < out.size(); ++i) {
            ok = ok && out[i] == val(base, root_, i);
        }
        sh_.oracle.expect(ok);
    }
    /// Block j of `out` came from rank j; element i of it was produced by
    /// val(base, j, static_cast<std::size_t>(offset + i)).
    void check_blocks(std::vector<U64> const& out, int n, U64 base, int offset) {
        bool ok = out.size() == static_cast<std::size_t>(kRanks * n);
        for (int j = 0; ok && j < kRanks; ++j) {
            for (int i = 0; i < n; ++i) {
                ok = ok && out[static_cast<std::size_t>(j * n + i)] == val(base, j, static_cast<std::size_t>(offset + i));
            }
        }
        sh_.oracle.expect(ok);
    }
    void fill_bcast(std::vector<U64>& v, U64 base) {
        if (rank_ == root_) {
            fill(v, base);
        } else {
            poison(v);
        }
    }

    void run_op(int k, Bufs& b, U64 base, LatencyLog* log, int kind) {
        using namespace kamping;
        MPI_Datatype const T = MPI_UINT64_T;
        MPI_Comm const W_ = MPI_COMM_WORLD;
        int const n = b.n;
        switch (k) {
            case AR_K:
                fill(b.ar_in, base);
                poison(b.ar_out);
                timed(log, kind, [&] {
                    spans::Scope s("kamping.allreduce");
                    comm_.allreduce(send_buf(b.ar_in), recv_buf(b.ar_out), op(std::plus<>{}));
                });
                check_sum(b.ar_out, base);
                break;
            case AR_R:
                fill(b.ar_in, base);
                poison(b.ar_out);
                timed(log, kind, [&] {
                    W(MPI_Allreduce(b.ar_in.data(), b.ar_out.data(), n, T, MPI_SUM, W_));
                });
                check_sum(b.ar_out, base);
                break;
            case AR_P:
                fill(b.p_ar_in, base);
                poison(b.p_ar_out);
                timed(log, kind, [&] {
                    W(MPI_Start(&b.p_ar));
                    W(MPI_Wait(&b.p_ar, MPI_STATUS_IGNORE));
                });
                check_sum(b.p_ar_out, base);
                break;
            case BC_K:
                fill_bcast(b.bc, base);
                timed(log, kind, [&] {
                    spans::Scope s("kamping.bcast");
                    comm_.bcast(send_recv_buf(b.bc), root(root_));
                });
                check_root(b.bc, base);
                break;
            case BC_R:
                fill_bcast(b.bc, base);
                timed(log, kind, [&] { W(MPI_Bcast(b.bc.data(), n, T, root_, W_)); });
                check_root(b.bc, base);
                break;
            case BC_P:
                fill_bcast(b.p_bc, base);
                timed(log, kind, [&] {
                    W(MPI_Start(&b.p_bcast[root_]));
                    W(MPI_Wait(&b.p_bcast[root_], MPI_STATUS_IGNORE));
                });
                check_root(b.p_bc, base);
                break;
            case AGV_K:
                fill(b.ag_in, base);
                poison(b.ag_out);
                timed(log, kind, [&] {
                    spans::Scope s("kamping.allgatherv");
                    comm_.allgatherv(send_buf(b.ag_in), recv_buf(b.ag_out), recv_counts(b.counts),
                                     recv_displs(b.displs));
                });
                check_blocks(b.ag_out, n, base, 0);
                break;
            case AGV_I: {
                fill(b.ag_in, base);
                std::vector<U64> out;
                timed(log, kind, [&] {
                    spans::Scope s("kamping.allgatherv_inferred");
                    out = comm_.allgatherv(send_buf(b.ag_in));
                });
                check_blocks(out, n, base, 0);
                break;
            }
            case AGV_R:
                fill(b.ag_in, base);
                poison(b.ag_out);
                timed(log, kind, [&] {
                    W(MPI_Allgatherv(b.ag_in.data(), n, T, b.ag_out.data(), b.counts.data(),
                                     b.displs.data(), T, W_));
                });
                check_blocks(b.ag_out, n, base, 0);
                break;
            case AG_R:
                fill(b.ag_in, base);
                poison(b.ag_out);
                timed(log, kind, [&] {
                    W(MPI_Allgather(b.ag_in.data(), n, T, b.ag_out.data(), n, T, W_));
                });
                check_blocks(b.ag_out, n, base, 0);
                break;
            case AG_P:
                fill(b.p_ag_in, base);
                poison(b.p_ag_out);
                timed(log, kind, [&] {
                    W(MPI_Start(&b.p_ag));
                    W(MPI_Wait(&b.p_ag, MPI_STATUS_IGNORE));
                });
                check_blocks(b.p_ag_out, n, base, 0);
                break;
            case A2AV_K:
                fill(b.a2a_in, base);
                poison(b.a2a_out);
                timed(log, kind, [&] {
                    spans::Scope s("kamping.alltoallv");
                    comm_.alltoallv(send_buf(b.a2a_in), recv_buf(b.a2a_out),
                                    send_counts(b.counts), send_displs(b.displs),
                                    recv_counts(b.counts), recv_displs(b.displs));
                });
                check_blocks(b.a2a_out, n, base, rank_ * n);
                break;
            case A2AV_R:
                fill(b.a2a_in, base);
                poison(b.a2a_out);
                timed(log, kind, [&] {
                    W(MPI_Alltoallv(b.a2a_in.data(), b.counts.data(), b.displs.data(), T,
                                    b.a2a_out.data(), b.counts.data(), b.displs.data(), T, W_));
                });
                check_blocks(b.a2a_out, n, base, rank_ * n);
                break;
            default:
                break;
        }
    }

    /// Even ranks send 8 bytes to rank+1, which echoes them incremented.
    void pingpong(U64 base, LatencyLog* log) {
        MPI_Datatype const T = MPI_UINT64_T;
        int const partner = rank_ ^ 1;
        U64 x = base;
        U64 y = 0;
        if (rank_ % 2 == 0) {
            timed(log, kPingKind, [&] {
                W(MPI_Send(&x, 1, T, partner, 7, MPI_COMM_WORLD));
                W(MPI_Recv(&y, 1, T, partner, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE));
            });
        } else {
            W(MPI_Recv(&x, 1, T, partner, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE));
            y = x + 1;
            W(MPI_Send(&y, 1, T, partner, 7, MPI_COMM_WORLD));
        }
        sh_.oracle.expect_eq(y, base + 1);
    }

    /// Runs one raw op per family and size on every rank; rank 0 records
    /// the algorithm the cost model picked for it.
    void record_selection() {
        MPI_Datatype const T = MPI_UINT64_T;
        for (Expected const& e : kExpectedSelection) {
            Bufs& b = bufs_[e.n == 1 ? 0 : 1];
            std::string const f = e.family;
            if (f == "allreduce") {
                MPI_Allreduce(b.ar_in.data(), b.ar_out.data(), b.n, T, MPI_SUM, MPI_COMM_WORLD);
            } else if (f == "bcast") {
                MPI_Bcast(b.bc.data(), b.n, T, root_, MPI_COMM_WORLD);
            } else {
                MPI_Allgather(b.ag_in.data(), b.n, T, b.ag_out.data(), b.n, T, MPI_COMM_WORLD);
            }
            char const* alg = "none";
            XMPI_T_alg_selected(e.family, &alg);
            if (rank_ == 0 && sh_.selected.size() < std::size(kExpectedSelection)) {
                sh_.selected.emplace_back(f + "." + std::to_string(e.n), alg);
            }
        }
    }

    int rank_;
    int root_ = 0;
    Shared& sh_;
    kamping::Communicator comm_;
    Bufs bufs_[kNumSizes];
};

}  // namespace

void small_coll(Options const& opt, Report& rep) {
    Shared sh;
    sh.oracle.corrupt = opt.corrupt_expectation;
    sh.seed = opt.seed;
    xmpi::Config cfg;
    cfg.ranks_per_node = 1;  // flat
    ThreadedRun const run = run_threaded<State>(opt, cfg, sh);
    rep.attempted = sh.oracle.attempted;
    rep.failed = sh.oracle.failed;
    report_e2e(run, rep);

    int flips = 0;
    for (std::size_t i = 0; i < sh.selected.size(); ++i) {
        std::string const& got = sh.selected[i].second;
        if (got != kExpectedSelection[i].alg) ++flips;
        rep.selected.emplace_back("small_coll." + sh.selected[i].first, got);
    }
    if (!opt.trace) return;

    LatencyLog const& log = run.plain.log;
    auto both = [&](std::string const& kind) {
        return (log.p50(kind + ".1") + log.p50(kind + ".64")) / 2;
    };
    for (char const* f : {"allreduce", "bcast", "allgatherv", "alltoallv"}) {
        std::string const fam = f;
        double const raw = both(fam + ".raw");
        rep.l("kamping.overhead_ratio." + fam, raw > 0 ? both(fam + ".kamping") / raw : 0, "ratio");
    }
    rep.l("kamping.inference_us.allgatherv",
          both("allgatherv.inferred") - both("allgatherv.kamping"), "us");
    for (char const* f : {"allreduce", "bcast", "allgather", "allgatherv", "alltoallv"}) {
        rep.l(std::string("algorithms.raw_p50_us.") + f, both(std::string(f) + ".raw"), "us");
    }
    for (char const* f : {"allreduce", "bcast", "allgather"}) {
        std::string const fam = f;
        double const persistent = both(fam + ".persistent");
        rep.l("algorithms.persistent_p50_us." + fam, persistent, "us");
        rep.l("algorithms.select_probe_us." + fam, both(fam + ".raw") - persistent, "us");
    }
    rep.l("algorithms.selection_flips", flips, "count");
    rep.l("p2p.pingpong_p50_us", log.p50("pingpong") / 2, "us");
    report_counters(run.plain, rep);
    report_trace(run, opt, rep);
}

}  // namespace pb

/// @file bulk_coll.cpp
/// @brief Workload `bulk_coll`: allreduce, allgather, alltoall and bcast on
/// 256 KiB - 2 MiB buffers per rank, on 2 nodes x 2 ranks (the machine
/// shape, set through xmpi::Config::ranks_per_node), stable buffers. One
/// quarter of the ops are MPI_Iallreduce overlapped with a fixed CPU kernel,
/// then waited. Bytes dominate: fold, payload copies, shm copies and the
/// hierarchical schedules do the work.
#include <random>

#include "threaded.hpp"

namespace pb {
namespace {

using U64 = std::uint64_t;
constexpr std::size_t kBytes[] = {256u << 10, 1u << 20, 2u << 20};
constexpr int kNumSizes = 3;

enum Kind { ALLREDUCE, ALLGATHER, ALLTOALL, BCAST, IALLREDUCE, kKinds };
constexpr char const* kKindNames[kKinds] = {"allreduce", "allgather", "alltoall", "bcast",
                                            "iallreduce"};
/// Per size: the four blocking families and one overlapped allreduce; one
/// more overlapped allreduce at 1 MiB makes the nonblocking share 4 of 16.
constexpr int kOpsPerRound = kNumSizes * kKinds + 1;

/// What the cost model selected for 2 nodes x 2 ranks when this benchmark
/// was written; a differing selection is counted in
/// algorithms.selection_flips.
constexpr char const* kExpectedSelection[kNumSizes][4] = {
    {"hierarchical", "hierarchical", "flat", "hierarchical"},
    {"hierarchical", "hierarchical", "flat", "hierarchical"},
    {"hierarchical", "hierarchical", "flat", "hierarchical"},
};

/// Iterations of the overlap kernel: a dependent multiply-add chain that
/// the compiler cannot shorten.
constexpr int kKernelIters = 200000;

void kernel(U64 seed) {
    U64 x = seed | 1;
    for (int i = 0; i < kKernelIters; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : : "r"(x));  // keep the chain: its result is otherwise unused
}

struct Shared {
    Oracle oracle;
    U64 seed = 1;
    double kernel_us = 0;  ///< rank 0's median kernel time, measured in set-up
    std::vector<std::pair<std::string, std::string>> selected;  // rank 0
};

struct Bufs {
    std::size_t n = 0;  ///< uint64 elements per rank buffer
    std::vector<U64> in, out, bc, nb_in, nb_out;
};

class State {
public:
    State(int rank, Shared& sh) : rank_(rank), sh_(sh) {
        for (int s = 0; s < kNumSizes; ++s) {
            Bufs& b = bufs_[s];
            b.n = kBytes[s] / sizeof(U64);
            b.in.resize(b.n);
            b.out.resize(b.n);
            b.bc.resize(b.n);
            b.nb_in.resize(b.n);
            b.nb_out.resize(b.n);
        }
        std::vector<double> k;
        for (int i = 0; i < 5; ++i) {
            std::int64_t const t0 = now_ns();
            kernel(sh_.seed + static_cast<U64>(i));
            k.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
        if (rank_ == 0) sh_.kernel_us = median(k);
        for (long r = -kWarmupRounds; r < 0; ++r) round(r, nullptr);
        record_selection();
    }

    void finish() {}

    int round(long r, LatencyLog* log) {
        if (log != nullptr && log->kind_names.empty()) {
            for (int s = 0; s < kNumSizes; ++s) {
                for (int k = 0; k < kKinds; ++k) {
                    log->kind(std::string(kKindNames[k]) + "." + std::to_string(kBytes[s] >> 10));
                }
            }
        }
        // Every rank is the bcast root in turn, so no seed favours one.
        root_ = static_cast<int>((r + kWarmupRounds) % kRanks);
        int order[kOpsPerRound];
        for (int i = 0; i < kOpsPerRound; ++i) order[i] = i;
        std::mt19937_64 rng(sh_.seed * 0x9e3779b97f4a7c15ULL + static_cast<U64>(r + kWarmupRounds));
        std::shuffle(order, order + kOpsPerRound, rng);
        for (int o = 0; o < kOpsPerRound; ++o) {
            // The extra overlapped allreduce runs at 1 MiB.
            int const id = order[o] == kNumSizes * kKinds ? 1 * kKinds + IALLREDUCE : order[o];
            U64 const base =
                mix64(sh_.seed ^ (static_cast<U64>(r + kWarmupRounds) << 8) ^ static_cast<U64>(order[o])) >> 24;
            spans::set_op(static_cast<std::uint32_t>((r + kWarmupRounds) * kOpsPerRound + o));
            run_op(id % kKinds, bufs_[id / kKinds], base, log, id);
        }
        return kOpsPerRound;
    }

private:
    void W(int rc) { check_mpi(rc, sh_.oracle); }

    void check_sum(std::vector<U64> const& out, U64 base) {
        bool ok = true;
        U64 const sum_base = kRanks * base + 1000003u * (kRanks * (kRanks - 1) / 2);
        for (std::size_t i = 0; i < out.size(); ++i) ok &= out[i] == sum_base + kRanks * i;
        sh_.oracle.expect(ok);
    }
    /// Block j of `out` (n/p elements) came from rank j as val(base, j, offset + i).
    void check_blocks(std::vector<U64> const& out, U64 base, std::size_t offset) {
        std::size_t const blk = out.size() / kRanks;
        bool ok = true;
        for (int j = 0; j < kRanks; ++j) {
            U64 const* p = out.data() + static_cast<std::size_t>(j) * blk;
            for (std::size_t i = 0; i < blk; ++i) ok &= p[i] == val(base, j, offset + i);
        }
        sh_.oracle.expect(ok);
    }

    void run_op(int k, Bufs& b, U64 base, LatencyLog* log, int kind) {
        MPI_Datatype const T = MPI_UINT64_T;
        MPI_Comm const C = MPI_COMM_WORLD;
        int const n = static_cast<int>(b.n);
        int const blk = n / kRanks;
        switch (k) {
            case ALLREDUCE:
                fill_val(b.in, base, rank_);
                poison(b.out);
                timed(log, kind, [&] { W(MPI_Allreduce(b.in.data(), b.out.data(), n, T, MPI_SUM, C)); });
                check_sum(b.out, base);
                break;
            case ALLGATHER: {
                U64* mine = b.in.data();
                for (int i = 0; i < blk; ++i) mine[i] = val(base, rank_, static_cast<std::size_t>(i));
                poison(b.out);
                timed(log, kind, [&] { W(MPI_Allgather(mine, blk, T, b.out.data(), blk, T, C)); });
                check_blocks(b.out, base, 0);
                break;
            }
            case ALLTOALL:
                fill_val(b.in, base, rank_);
                poison(b.out);
                timed(log, kind, [&] { W(MPI_Alltoall(b.in.data(), blk, T, b.out.data(), blk, T, C)); });
                check_blocks(b.out, base, static_cast<std::size_t>(rank_) * static_cast<std::size_t>(blk));
                break;
            case BCAST: {
                if (rank_ == root_) {
                    fill_val(b.bc, base, rank_);
                } else {
                    poison(b.bc);
                }
                timed(log, kind, [&] { W(MPI_Bcast(b.bc.data(), n, T, root_, C)); });
                bool ok = true;
                for (std::size_t i = 0; i < b.bc.size(); ++i) ok &= b.bc[i] == val(base, root_, i);
                sh_.oracle.expect(ok);
                break;
            }
            case IALLREDUCE: {
                fill_val(b.nb_in, base, rank_);
                poison(b.nb_out);
                timed(log, kind, [&] {
                    MPI_Request req = MPI_REQUEST_NULL;
                    W(MPI_Iallreduce(b.nb_in.data(), b.nb_out.data(), n, T, MPI_SUM, C, &req));
                    kernel(base);
                    W(MPI_Wait(&req, MPI_STATUS_IGNORE));
                });
                check_sum(b.nb_out, base);
                break;
            }
            default:
                break;
        }
    }

    /// Runs one blocking op per family and size on every rank; rank 0
    /// records the algorithm the cost model picked.
    void record_selection() {
        for (int s = 0; s < kNumSizes; ++s) {
            for (int k = ALLREDUCE; k <= BCAST; ++k) {
                run_op(k, bufs_[s], 0, nullptr, 0);
                char const* alg = "none";
                XMPI_T_alg_selected(kKindNames[k], &alg);
                if (rank_ == 0 && sh_.selected.size() < kNumSizes * 4) {
                    sh_.selected.emplace_back(
                        std::string(kKindNames[k]) + "." + std::to_string(kBytes[s] >> 10) + "KiB",
                        alg);
                }
            }
        }
    }

    int rank_;
    int root_ = 0;
    Shared& sh_;
    Bufs bufs_[kNumSizes];
};

}  // namespace

void bulk_coll(Options const& opt, Report& rep) {
    Shared sh;
    sh.oracle.corrupt = opt.corrupt_expectation;
    sh.seed = opt.seed;
    xmpi::Config cfg;
    cfg.ranks_per_node = 2;
    ThreadedRun const run = run_threaded<State>(opt, cfg, sh);
    rep.attempted = sh.oracle.attempted;
    rep.failed = sh.oracle.failed;
    report_e2e(run, rep);

    int flips = 0;
    for (std::size_t i = 0; i < sh.selected.size(); ++i) {
        if (sh.selected[i].second != kExpectedSelection[i / 4][i % 4]) ++flips;
        rep.selected.emplace_back("bulk_coll." + sh.selected[i].first, sh.selected[i].second);
    }
    if (!opt.trace) return;

    LatencyLog const& log = run.plain.log;
    // Bytes each blocking op delivers to all ranks' output buffers, over
    // rank 0's time for it.
    double bytes = 0, us = 0;
    double overlap = 0;
    for (int s = 0; s < kNumSizes; ++s) {
        std::string const sz = "." + std::to_string(kBytes[s] >> 10);
        for (int k = ALLREDUCE; k <= BCAST; ++k) {
            std::vector<double> const v = log.samples(s * kKinds + k);
            for (double x : v) us += x;
            bytes += static_cast<double>(v.size()) * static_cast<double>(kBytes[s]) * kRanks;
        }
        double const comm = log.p50("allreduce" + sz);
        double const both = log.p50("iallreduce" + sz);
        double const hidden = comm + sh.kernel_us - both;
        overlap += std::min(comm, sh.kernel_us) > 0 ? hidden / std::min(comm, sh.kernel_us) : 0;
    }
    double const gbps = us > 0 ? bytes / (us * 1e3) : 0;
    rep.l("bulk.achieved_gbps", gbps, "GB/s");
    rep.l("bulk.overlap_efficiency", overlap / kNumSizes, "ratio");
    rep.l("algorithms.selection_flips", flips, "count");
    report_counters(run.plain, rep);
    report_trace(run, opt, rep);
}

}  // namespace pb

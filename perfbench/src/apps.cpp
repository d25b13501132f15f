/// @file apps.cpp
/// @brief Workload `apps`: one round runs the paper's application studies
/// through KaMPIng once each, timed barrier to barrier: sample sort of 2^18
/// uint64 per rank, BFS with the sparse (NBX) exchange on a GNM graph,
/// prefix-doubling suffix array of a 4-letter text, and label propagation
/// on an RGG-2D graph. Inputs and reference results come from the seed in
/// set-up. The traced phase also runs the plain-MPI twins of sort, BFS and
/// label propagation, so the binding's share of a solution can be read off
/// the span self times (time outside every MPI_* entry).
#include <array>
#include <numeric>
#include <random>

#include "apps/bfs/bfs_kamping.hpp"
#include "apps/bfs/bfs_mpi.hpp"
#include "apps/bfs/bfs_variants.hpp"
#include "apps/label_propagation/label_propagation.hpp"
#include "apps/sample_sort/sort_kamping.hpp"
#include "apps/sample_sort/sort_mpi.hpp"
#include "apps/suffix_array/prefix_doubling.hpp"
#include "kagen/kagen.hpp"
#include "threaded.hpp"

namespace pb {
namespace {

using U64 = std::uint64_t;

constexpr std::size_t kSortPerRank = std::size_t{1} << 18;
constexpr std::uint64_t kGnmVertices = 1u << 14;  // per rank
constexpr std::uint64_t kGnmEdges = 1u << 16;     // per rank
constexpr std::size_t kTextPerRank = std::size_t{1} << 14;
constexpr std::uint64_t kRggVertices = 1u << 13;  // per rank
constexpr double kRggDegree = 8.0;
constexpr std::uint64_t kMaxCluster = 64;
constexpr int kLpRounds = 5;

enum App { SORT, BFS, SA, LP, kApps };
constexpr char const* kAppNames[kApps] = {"sample_sort", "bfs", "suffix_array", "label_prop"};

struct SortSlot {
    U64 checksum = 0;
    U64 count = 0;
    U64 min = 0;
    U64 max = 0;
    bool sorted = true;
};

struct Shared {
    Oracle oracle;
    U64 seed = 1;
    std::vector<U64> sa_reference;   ///< full suffix array, built by rank 0
    U64 sort_checksum = 0;           ///< multiset checksum of all sort inputs
    U64 sort_count = 0;
    std::array<SortSlot, kRanks> slots{};
    std::array<U64, kRanks> input_sums{};
    /// Rank 0's schedule-cache hit ratio per untraced round: the ratio
    /// depends on where the allocator puts library-allocated outputs.
    std::vector<double> round_hit_ratio;
};

/// Character i of the global text: uniform random, except that a
/// kPlantedRepeat-long stretch in the middle repeats one near the start.
/// The planted repeat outlasts any chance repeat of a random 4-letter text
/// of this size, so prefix doubling takes the same number of rounds for
/// every seed.
constexpr std::size_t kPlantedRepeat = 48;
unsigned char text_at(U64 seed, std::size_t i) {
    std::size_t const copy_at = kTextPerRank * kRanks / 2;
    std::size_t const source = 1000;
    if (i >= copy_at && i < copy_at + kPlantedRepeat) i = i - copy_at + source;
    return static_cast<unsigned char>("ACGT"[mix64(seed * 0x2545F4914F6CDD1DULL + i) & 3]);
}

std::vector<U64> naive_suffix_array(std::vector<unsigned char> const& text) {
    std::vector<U64> sa(text.size());
    std::iota(sa.begin(), sa.end(), 0);
    std::sort(sa.begin(), sa.end(), [&](U64 a, U64 b) {
        return std::lexicographical_compare(text.begin() + static_cast<std::ptrdiff_t>(a), text.end(),
                                            text.begin() + static_cast<std::ptrdiff_t>(b), text.end());
    });
    return sa;
}

class State {
public:
    State(int rank, Shared& sh) : rank_(rank), sh_(sh), comm_(MPI_COMM_WORLD) {
        // Sort input and its multiset checksum.
        std::mt19937_64 gen(sh_.seed * 1000003u + static_cast<U64>(rank_));
        sort_input_.resize(kSortPerRank);
        U64 sum = 0;
        for (U64& x : sort_input_) {
            x = gen();
            sum += mix64(x);
        }
        sh_.input_sums[static_cast<std::size_t>(rank_)] = sum;
        // Graphs and the text.
        gnm_ = kagen::generate_gnm(comm_, kGnmVertices, kGnmEdges, sh_.seed);
        rgg_ = kagen::generate_rgg2d(comm_, kRggVertices, kRggDegree, sh_.seed);
        bfs_source_ = mix64(sh_.seed) % (kGnmVertices * kRanks);
        std::size_t const n = kTextPerRank * kRanks;
        text_.resize(kTextPerRank);
        for (std::size_t j = 0; j < kTextPerRank; ++j) text_[j] = text_at(sh_.seed, rank_ * kTextPerRank + j);
        if (rank_ == 0) {
            std::vector<unsigned char> full(n);
            for (std::size_t i = 0; i < n; ++i) full[i] = text_at(sh_.seed, i);
            sh_.sa_reference = naive_suffix_array(full);
        }
        // Reference results through the plain-MPI implementations.
        bfs_ref_ = apps::bfs::mpi::bfs(gnm_, bfs_source_, MPI_COMM_WORLD);
        lp_ref_ = apps::label_propagation::mpi::cluster(rgg_, kMaxCluster, kLpRounds, MPI_COMM_WORLD);
        MPI_Barrier(MPI_COMM_WORLD);
        if (rank_ == 0) {
            sh_.sort_checksum = 0;
            for (U64 s : sh_.input_sums) sh_.sort_checksum += s;
            sh_.sort_count = kSortPerRank * kRanks;
        }
        // Warm-up round: the schedules the solutions build on a first call.
        round(-1, nullptr);
    }

    void finish() {}

    int round(long r, LatencyLog* log) {
        if (log != nullptr && log->kind_names.empty()) {
            for (char const* a : kAppNames) log->kind(a, false);
            log->kind("round");
        }
        std::int64_t const t0 = now_ns();
        xmpi::Counters const c0 = xmpi::counters_now();
        spans::set_op(static_cast<std::uint32_t>(r + 1));
        sort_round(log);
        bfs_round(log);
        sa_round(log);
        lp_round(log);
        if (log != nullptr) {
            log->add(kApps, now_ns() - t0);
            xmpi::Counters const c1 = xmpi::counters_now();
            double const builds = static_cast<double>(c1.schedule_builds - c0.schedule_builds);
            double const hits = static_cast<double>(c1.schedule_cache_hits - c0.schedule_cache_hits);
            if (builds + hits > 0 && !spans::enabled()) sh_.round_hit_ratio.push_back(hits / (builds + hits));
        }
        // Every rank sees the same value: run_threaded flips it only while
        // all ranks wait in a barrier between phases.
        if (spans::enabled()) twins();
        return 1;
    }

private:
    /// Runs `solve` between two barriers; rank 0 logs the time as `kind`.
    template <typename F>
    void solution(LatencyLog* log, int kind, char const* span, F&& solve) {
        MPI_Barrier(MPI_COMM_WORLD);
        std::int64_t const t0 = now_ns();
        {
            spans::Scope s(span);
            solve();
        }
        MPI_Barrier(MPI_COMM_WORLD);
        if (log != nullptr) log->add(kind, now_ns() - t0);
    }

    void sort_round(LatencyLog* log) {
        std::vector<U64> data = sort_input_;
        solution(log, SORT, "app.sample_sort", [&] { apps::kamping_impl::sort(data, MPI_COMM_WORLD); });
        check_sort(data);
    }

    /// Global sortedness plus a multiset checksum against the input.
    void check_sort(std::vector<U64> const& data) {
        SortSlot s;
        s.count = data.size();
        s.sorted = std::is_sorted(data.begin(), data.end());
        for (U64 x : data) s.checksum += mix64(x);
        if (!data.empty()) {
            s.min = data.front();
            s.max = data.back();
        }
        sh_.slots[static_cast<std::size_t>(rank_)] = s;
        MPI_Barrier(MPI_COMM_WORLD);
        if (rank_ == 0) {
            U64 sum = 0, count = 0;
            bool ok = true;
            bool have_prev = false;
            U64 prev_max = 0;
            for (SortSlot const& slot : sh_.slots) {
                sum += slot.checksum;
                count += slot.count;
                ok = ok && slot.sorted;
                if (slot.count == 0) continue;
                ok = ok && (!have_prev || prev_max <= slot.min);
                prev_max = slot.max;
                have_prev = true;
            }
            sh_.oracle.expect(ok && sum == sh_.sort_checksum && count == sh_.sort_count);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    }

    void bfs_round(LatencyLog* log) {
        std::vector<std::size_t> dist;
        solution(log, BFS, "app.bfs", [&] { dist = apps::bfs::kamping_sparse::bfs(gnm_, bfs_source_, MPI_COMM_WORLD); });
        sh_.oracle.expect_eq(dist, bfs_ref_);
    }

    void sa_round(LatencyLog* log) {
        std::vector<U64> sa;
        solution(log, SA, "app.suffix_array", [&] { sa = apps::suffix_array::prefix_doubling(text_, MPI_COMM_WORLD); });
        auto const first = sh_.sa_reference.begin() + static_cast<std::ptrdiff_t>(rank_ * kTextPerRank);
        bool const ok = sa.size() == kTextPerRank && std::equal(sa.begin(), sa.end(), first);
        sh_.oracle.expect(ok);
    }

    void lp_round(LatencyLog* log) {
        std::vector<apps::label_propagation::Label> labels;
        solution(log, LP, "app.label_prop", [&] {
            labels = apps::label_propagation::kamping_impl::cluster(rgg_, kMaxCluster, kLpRounds, MPI_COMM_WORLD);
        });
        sh_.oracle.expect_eq(labels, lp_ref_);
    }

    /// The plain-MPI twins and the dense KaMPIng BFS (same algorithm as
    /// the MPI BFS), timed only through their spans.
    void twins() {
        std::vector<U64> data = sort_input_;
        solution(nullptr, 0, "app.twin.sample_sort_mpi", [&] { apps::mpi::sort(data, MPI_COMM_WORLD); });
        check_sort(data);
        std::vector<std::size_t> dist;
        solution(nullptr, 0, "app.twin.bfs_kamping", [&] { dist = apps::bfs::kamping_impl::bfs(gnm_, bfs_source_, MPI_COMM_WORLD); });
        sh_.oracle.expect_eq(dist, bfs_ref_);
        solution(nullptr, 0, "app.twin.bfs_mpi", [&] { dist = apps::bfs::mpi::bfs(gnm_, bfs_source_, MPI_COMM_WORLD); });
        sh_.oracle.expect_eq(dist, bfs_ref_);
        std::vector<apps::label_propagation::Label> labels;
        solution(nullptr, 0, "app.twin.label_prop_mpi", [&] {
            labels = apps::label_propagation::mpi::cluster(rgg_, kMaxCluster, kLpRounds, MPI_COMM_WORLD);
        });
        sh_.oracle.expect_eq(labels, lp_ref_);
    }

    int rank_;
    Shared& sh_;
    kamping::Communicator comm_;
    std::vector<U64> sort_input_;
    kagen::Graph gnm_;
    kagen::Graph rgg_;
    U64 bfs_source_ = 0;
    std::vector<unsigned char> text_;
    std::vector<std::size_t> bfs_ref_;
    std::vector<apps::label_propagation::Label> lp_ref_;
};

}  // namespace

void apps(Options const& opt, Report& rep) {
    Shared sh;
    sh.oracle.corrupt = opt.corrupt_expectation;
    sh.seed = opt.seed;
    xmpi::Config cfg;
    cfg.ranks_per_node = 1;
    ThreadedRun const run = run_threaded<State>(opt, cfg, sh);
    rep.attempted = sh.oracle.attempted;
    rep.failed = sh.oracle.failed;
    report_e2e(run, rep);
    if (!opt.trace) return;

    LatencyLog const& log = run.plain.log;
    for (int a = 0; a < kApps; ++a) {
        rep.l(std::string(kAppNames[a]) + "_s", log.p50(kAppNames[a]) * 1e-6, "s");
    }
    report_counters(run.plain, rep);
    rep.l("algorithms.cache_hit_ratio_iqr",
          quantile(sh.round_hit_ratio, 0.75) - quantile(sh.round_hit_ratio, 0.25), "ratio");

    // Binding share: self time outside MPI of the KaMPIng solution minus
    // that of its plain-MPI twin, over the KaMPIng solution's wall time.
    auto const spans_now = spans::self_times();
    auto find = [&](char const* name) {
        for (auto const& s : spans_now) {
            if (s.name == name) return s;
        }
        return spans::SelfTime{};
    };
    struct Pair {
        char const* metric;
        char const* kamping;
        char const* mpi;
    };
    for (Pair const& p : {Pair{"kamping.binding_share.sample_sort", "app.sample_sort", "app.twin.sample_sort_mpi"},
                          Pair{"kamping.binding_share.bfs", "app.twin.bfs_kamping", "app.twin.bfs_mpi"},
                          Pair{"kamping.binding_share.label_prop", "app.label_prop", "app.twin.label_prop_mpi"}}) {
        spans::SelfTime const k = find(p.kamping);
        spans::SelfTime const m = find(p.mpi);
        double const share = k.total_ns > 0 && k.count > 0 && m.count > 0
                                 ? (k.self_ns / static_cast<double>(k.count) - m.self_ns / static_cast<double>(m.count)) /
                                       (k.total_ns / static_cast<double>(k.count))
                                 : 0;
        rep.l(p.metric, share, "ratio");
    }
    report_trace(run, opt, rep);
}

}  // namespace pb

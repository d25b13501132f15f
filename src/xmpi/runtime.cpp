/// @file runtime.cpp
/// @brief Universe lifecycle: rank threads, virtual clocks, sentinels,
/// environment calls and in-rank introspection.
#include <limits.h>
#include <pthread.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "internal.hpp"
#include "progress.hpp"
#include "shm/shm.hpp"

namespace xmpi::detail {

namespace {

/// Exception used to unwind a rank that called XMPI_Die; never escapes run().
struct RankKilled {};

std::atomic<std::uint64_t> g_universe_counter{1};

/// Revoked-context registry (see ULFM): epoch bump invalidates the per-comm
/// fast-path cache.
struct RevokeRegistry {
    std::mutex m;
    std::unordered_set<int> contexts;
    std::atomic<std::uint64_t> epoch{0};
};
RevokeRegistry g_revoked;

}  // namespace

RankState*& tls_rank() {
    thread_local RankState* rs = nullptr;
    return rs;
}

double thread_cpu_now(RankState* rs) {
    ++rs->cpu_samples;
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void charge_compute(RankState* rs) {
    // A progress thread adopts the owner's identity (tls_rank) while it
    // advances an offloaded schedule, but its CPU clock is its *own*
    // per-thread clock: sampling it here would corrupt the owner's last_cpu
    // anchor and charge engine bookkeeping as application compute. The
    // owner's thread keeps charging its real compute at its next MPI call.
    if (progress::on_progress_thread()) return;
    double const cpu = thread_cpu_now(rs);
    rs->vnow += (cpu - rs->last_cpu) * rs->universe->cfg.compute_scale;
    rs->last_cpu = cpu;
}

void discard_compute(RankState* rs) {
    if (progress::on_progress_thread()) return;
    rs->last_cpu = thread_cpu_now(rs);
}

void wake_all(Universe* u) {
    for (auto& r : u->ranks) {
        std::lock_guard<std::mutex> lock(r->mbox.m);
        r->mbox.arrivals.fetch_add(1, std::memory_order_relaxed);
        r->mbox.cv.notify_all();
    }
    // Dead-rank / revoke predicates are also re-evaluated by parked progress
    // threads (their nonblocking protocol waits return before the failure
    // polls, so they rely on this nudge plus their park timeout).
    progress::stimulate(u, -1);
}

bool rank_dead(Universe* u, int w) {
    return u->ranks[static_cast<std::size_t>(w)]->dead.load(std::memory_order_acquire);
}

MPI_Comm resolve(MPI_Comm comm) {
    RankState* rs = tls_rank();
    if (comm == MPI_COMM_WORLD) return rs ? rs->world : nullptr;
    if (comm == MPI_COMM_SELF) return rs ? rs->self : nullptr;
    return comm;
}

int check_comm(MPI_Comm comm) {
    if (tls_rank() == nullptr) return MPI_ERR_OTHER;
    if (comm == nullptr) return MPI_ERR_COMM;
    if (comm_revoked(comm)) return MPIX_ERR_REVOKED;
    return MPI_SUCCESS;
}

MPI_Comm make_comm(Universe* u, int context, std::vector<int> group, int my_world_rank) {
    auto* c = new xmpi_comm_t();
    c->universe = u;
    c->context = context;
    c->world_to_comm.assign(static_cast<std::size_t>(u->size), -1);
    for (std::size_t i = 0; i < group.size(); ++i) {
        c->world_to_comm[static_cast<std::size_t>(group[i])] = static_cast<int>(i);
    }
    c->group = std::move(group);
    c->my_rank = c->world_to_comm[static_cast<std::size_t>(my_world_rank)];
    return c;
}

// --- revoke registry access used by ulfm.cpp and check_comm ----------------

void revoke_context(Universe*, int context) {
    {
        std::lock_guard<std::mutex> lock(g_revoked.m);
        g_revoked.contexts.insert(context);
    }
    g_revoked.epoch.fetch_add(1, std::memory_order_release);
}

bool context_revoked_slow(int context) {
    std::lock_guard<std::mutex> lock(g_revoked.m);
    return g_revoked.contexts.contains(context);
}

std::uint64_t revoke_epoch() { return g_revoked.epoch.load(std::memory_order_acquire); }

void clear_revoked_registry() {
    std::lock_guard<std::mutex> lock(g_revoked.m);
    g_revoked.contexts.clear();
}

}  // namespace xmpi::detail

namespace xmpi {

using detail::RankState;
using detail::Universe;

namespace {

struct ThreadArg {
    Universe* universe;
    int rank;
    std::function<void(int)> const* body;
};

void* rank_main(void* vp) {
    auto* arg = static_cast<ThreadArg*>(vp);
    RankState* rs = arg->universe->ranks[static_cast<std::size_t>(arg->rank)].get();
    detail::tls_rank() = rs;
    rs->last_cpu = detail::thread_cpu_now(rs);
    try {
        (*arg->body)(arg->rank);
    } catch (detail::RankKilled const&) {
        // injected failure: rank is already marked dead
    } catch (...) {
        rs->error = std::current_exception();
    }
    detail::charge_compute(rs);
    detail::tls_rank() = nullptr;
    return nullptr;
}

}  // namespace

RunResult run(int num_ranks, std::function<void(int)> const& body, Config const& config) {
    if (num_ranks < 1) throw std::invalid_argument{"xmpi::run: num_ranks must be >= 1"};
    auto universe = std::make_unique<Universe>();
    universe->cfg = config;
    universe->size = num_ranks;
    universe->id = detail::g_universe_counter.fetch_add(1);
    universe->node_of_world = detail::topo::build_node_map(num_ranks, config);
    {
        int num_nodes = 1;
        for (int const n : universe->node_of_world)
            if (n + 1 > num_nodes) num_nodes = n + 1;
        universe->shm = detail::shm::make_state(num_nodes);
    }
    universe->ranks.reserve(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
        auto rs = std::make_unique<RankState>();
        rs->universe = universe.get();
        rs->world_rank = r;
        universe->ranks.push_back(std::move(rs));
    }
    // World and self communicators, one copy per rank (see internal.hpp).
    std::vector<int> world_group(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) world_group[static_cast<std::size_t>(r)] = r;
    for (int r = 0; r < num_ranks; ++r) {
        RankState* rs = universe->ranks[static_cast<std::size_t>(r)].get();
        rs->world = detail::make_comm(universe.get(), /*context=*/0, world_group, r);
        rs->self = detail::make_comm(universe.get(), /*context=*/4, {r}, r);
    }
    universe->next_context.store(16);

    // Allocate trace rings (and raise the hot-path flag) before any rank can
    // emit; a no-op when XMPI_TRACE is unset.
    detail::trace::begin_universe(*universe);

    // Spawn the asynchronous progress engine (after trace rings exist — the
    // engine threads register their own rings — and before any rank thread
    // can arm a schedule); a no-op unless XMPI_ASYNC_PROGRESS / the
    // XMPI_T_progress_set control enabled it.
    int const progress_threads = detail::progress::start(universe.get());
    unsigned const cores = std::thread::hardware_concurrency();
    universe->spin_waits =
        cores != 0 && static_cast<unsigned>(num_ranks + progress_threads) <= cores;

    std::vector<ThreadArg> args(static_cast<std::size_t>(num_ranks));
    std::vector<pthread_t> threads(static_cast<std::size_t>(num_ranks));
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    std::size_t const min_stack = static_cast<std::size_t>(PTHREAD_STACK_MIN) * 2;
    pthread_attr_setstacksize(&attr, config.stack_size < min_stack ? min_stack : config.stack_size);

    auto const wall_start = std::chrono::steady_clock::now();
    for (int r = 0; r < num_ranks; ++r) {
        args[static_cast<std::size_t>(r)] = ThreadArg{universe.get(), r, &body};
        int const rc = pthread_create(&threads[static_cast<std::size_t>(r)], &attr, rank_main,
                                      &args[static_cast<std::size_t>(r)]);
        if (rc != 0) {
            // Join what we started before reporting.
            for (int j = 0; j < r; ++j) pthread_join(threads[static_cast<std::size_t>(j)], nullptr);
            pthread_attr_destroy(&attr);
            detail::progress::stop(universe.get());
            throw std::runtime_error{"xmpi::run: pthread_create failed"};
        }
    }
    for (int r = 0; r < num_ranks; ++r) pthread_join(threads[static_cast<std::size_t>(r)], nullptr);
    pthread_attr_destroy(&attr);
    auto const wall_end = std::chrono::steady_clock::now();

    // Stop and join the progress engine before trace export and counter
    // aggregation: after this point no thread mutates rank state.
    detail::progress::stop(universe.get());

    // All rank threads have joined: merge the per-rank rings and export the
    // Chrome trace-event JSON (MPI_Finalize is a no-op in a threads-as-ranks
    // substrate, so end-of-universe is the real finalize point).
    detail::trace::end_universe(*universe);

    RunResult result;
    result.wall_time = std::chrono::duration<double>(wall_end - wall_start).count();
    result.rank_vtimes.reserve(static_cast<std::size_t>(num_ranks));
    std::exception_ptr first_error;
    for (auto& rs : universe->ranks) {
        result.max_vtime = rs->vnow > result.max_vtime ? rs->vnow : result.max_vtime;
        result.rank_vtimes.push_back(rs->vnow);
        result.total += rs->counters;
        if (rs->error && !first_error) first_error = rs->error;
        delete rs->world;
        delete rs->self;
    }
    detail::clear_revoked_registry();
    if (first_error) std::rethrow_exception(first_error);
    return result;
}

RunResult run(int num_ranks, std::function<void()> const& body, Config const& config) {
    return run(
        num_ranks, [&body](int) { body(); }, config);
}

double vtime_now() {
    RankState* rs = detail::tls_rank();
    if (rs == nullptr) return 0.0;
    detail::charge_compute(rs);
    return rs->vnow;
}

void vtime_add(double seconds) {
    RankState* rs = detail::tls_rank();
    if (rs != nullptr) rs->vnow += seconds;
}

Counters counters_now() {
    RankState* rs = detail::tls_rank();
    return rs != nullptr ? rs->counters : Counters{};
}

std::uint64_t universe_id() {
    RankState* rs = detail::tls_rank();
    return rs != nullptr ? rs->universe->id : 0;
}

bool in_rank() { return detail::tls_rank() != nullptr; }

}  // namespace xmpi

// ---------------------------------------------------------------------------
// Environment API
// ---------------------------------------------------------------------------

int MPI_Init(int*, char***) { return MPI_SUCCESS; }

int MPI_Finalize() { return MPI_SUCCESS; }

int MPI_Initialized(int* flag) {
    if (flag != nullptr) *flag = xmpi::detail::tls_rank() != nullptr ? 1 : 0;
    return MPI_SUCCESS;
}

int MPI_Abort(MPI_Comm, int errorcode) {
    std::fprintf(stderr, "MPI_Abort called with code %d\n", errorcode);
    throw std::runtime_error{"MPI_Abort"};
}

double MPI_Wtime() { return xmpi::vtime_now(); }

[[noreturn]] void XMPI_Die() {
    using namespace xmpi::detail;
    RankState* rs = tls_rank();
    if (rs == nullptr) throw std::logic_error{"XMPI_Die called outside a rank"};
    rs->dead.store(true, std::memory_order_release);
    rs->universe->dead_count.fetch_add(1);
    wake_all(rs->universe);
    throw RankKilled{};
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
    comm = xmpi::detail::resolve(comm);
    if (comm == nullptr || size == nullptr) return MPI_ERR_COMM;
    *size = comm->size();
    return MPI_SUCCESS;
}

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
    comm = xmpi::detail::resolve(comm);
    if (comm == nullptr || rank == nullptr) return MPI_ERR_COMM;
    *rank = comm->rank();
    return MPI_SUCCESS;
}

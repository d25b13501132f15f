/// @file shm.cpp
/// @brief Shared-memory transport: per-node rendezvous cell registry,
/// publish/get/drain protocol waits, enablement resolution and live stats.
#include "shm.hpp"

#include <chrono>
#include <thread>

#include "../algorithms/algorithms.hpp"
#include "../env.hpp"

namespace xmpi::detail::shm {

namespace {

/// Bounded spin before falling back to the block's condition variable.
/// Ranks routinely oversubscribe cores (they are threads, not processes),
/// so the spin is short and yields.
inline constexpr int kSpinIters = 64;

/// Sleeping waits poll for communicator failure at this cadence so a dead
/// producer never strands its consumers (the runtime's wake_all only
/// notifies mailbox cvs, not transport cvs).
inline constexpr auto kPollInterval = std::chrono::microseconds(500);

/// Returns the MPI error that should abort the wait, or MPI_SUCCESS.
int failure_check(MPI_Comm comm) {
    if (comm == nullptr) return MPI_SUCCESS;
    if (comm_revoked(comm)) return MPIX_ERR_REVOKED;
    if (any_member_dead(comm)) return MPIX_ERR_PROC_FAILED;
    return MPI_SUCCESS;
}

/// Shared slow path for all three protocol gates: spin on `pred`, then sleep
/// on the block cv in failure-polling slices. Returns 1/0/-err per the
/// header contract.
template <typename Pred>
int wait_on(Block& b, MPI_Comm comm, bool blocking, Pred&& pred) {
    if (pred()) return 1;
    if (!blocking) return 0;
    for (int i = 0; i < kSpinIters; ++i) {
        std::this_thread::yield();
        if (pred()) return 1;
    }
    std::unique_lock<std::mutex> lock(b.m);
    for (;;) {
        if (pred()) return 1;
        if (int const err = failure_check(comm); err != MPI_SUCCESS) return -err;
        b.cv.wait_for(lock, kPollInterval);
    }
}

/// Lock-empty critical section before notify (the mailbox wake idiom): a
/// waiter that saw the predicate false either still holds the mutex (our
/// empty section serializes after its release into wait) or has not yet
/// locked it (it will re-check the predicate before sleeping).
void wake(Block& b) {
    { std::lock_guard<std::mutex> lock(b.m); }
    b.cv.notify_all();
}

struct GlobalStats {
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> copies{0};
    std::atomic<std::uint64_t> copy_bytes{0};
    std::atomic<std::uint64_t> drains{0};
};

GlobalStats& g_stats() {
    static GlobalStats s;
    return s;
}

/// Control pin (-1 follow env / 0 off / 1 on) and the lazily resolved
/// environment state (-1 unresolved). Same layering as the schedule cache's
/// XMPI_SCHED_CACHE / XMPI_T_sched_cache_set pair.
std::atomic<int> g_forced{-1};
std::atomic<int> g_env_enabled{-1};
std::mutex g_env_mutex;

int resolve_env_enabled() {
    int v = g_env_enabled.load(std::memory_order_acquire);
    if (v >= 0) return v;
    std::lock_guard<std::mutex> lock(g_env_mutex);
    v = g_env_enabled.load(std::memory_order_relaxed);
    if (v >= 0) return v;
    char const* e = std::getenv("XMPI_SHM");
    if (e == nullptr || *e == '\0') {
        v = 1;
    } else {
        // Unlike most knobs the garbage fallback is *off*, not the default:
        // a mistyped XMPI_SHM must never silently leave direct peer-buffer
        // access enabled.
        v = static_cast<int>(detail::envutil::parse_env_int(
            "XMPI_SHM", 0, 0, 1,
            "is not 0 or 1; disabling the shared-memory transport"));
    }
    g_env_enabled.store(v, std::memory_order_release);
    return v;
}

}  // namespace

Cell* Block::cell(int id) {
    std::lock_guard<std::mutex> lock(m);
    auto& slot = cells[id];
    if (!slot) slot = std::make_unique<Cell>();
    return slot.get();
}

std::shared_ptr<State> make_state(int num_nodes) {
    auto st = std::make_shared<State>();
    if (num_nodes < 1) num_nodes = 1;
    st->nodes.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) st->nodes.push_back(std::make_unique<NodeShm>());
    return st;
}

std::shared_ptr<Block> acquire_block(State& st, int node, int context, std::uint64_t seq) {
    NodeShm& ns = *st.nodes[static_cast<std::size_t>(node)];
    std::lock_guard<std::mutex> lock(ns.m);
    auto const key = std::make_pair(context, seq);
    if (auto it = ns.registry.find(key); it != ns.registry.end()) {
        if (auto live = it->second.lock()) return live;
    }
    auto block = std::make_shared<Block>();
    ns.registry[key] = block;
    // Opportunistic prune: entries expire when the last bound schedule is
    // destroyed or rebound; keep the registry from accreting one entry per
    // collective ever run.
    if (ns.registry.size() > 64) {
        for (auto it = ns.registry.begin(); it != ns.registry.end();) {
            if (it->second.expired())
                it = ns.registry.erase(it);
            else
                ++it;
        }
    }
    return block;
}

int wait_publishable(Block& b, Cell& c, MPI_Comm comm, bool blocking) {
    return wait_on(b, comm, blocking, [&c]() {
        std::uint64_t const ready = c.ready.load(std::memory_order_relaxed);
        return c.acks.load(std::memory_order_acquire) ==
               ready * static_cast<std::uint64_t>(c.fanout);
    });
}

void publish(Block& b, Cell& c, void const* ptr, std::uint64_t bytes, std::uint32_t fanout,
             double arrival) {
    c.ptr = ptr;
    c.bytes = bytes;
    c.fanout = fanout;
    c.arrival = arrival;
    c.ready.fetch_add(1, std::memory_order_release);
    wake(b);
}

int wait_ready(Block& b, Cell& c, std::uint64_t epoch, MPI_Comm comm, bool blocking) {
    return wait_on(b, comm, blocking, [&c, epoch]() {
        return c.ready.load(std::memory_order_acquire) >= epoch;
    });
}

void ack(Block& b, Cell& c) {
    c.acks.fetch_add(1, std::memory_order_release);
    wake(b);
}

int wait_drained(Block& b, Cell& c, MPI_Comm comm, bool blocking) {
    return wait_on(b, comm, blocking, [&c]() {
        std::uint64_t const ready = c.ready.load(std::memory_order_relaxed);
        return c.acks.load(std::memory_order_acquire) ==
               ready * static_cast<std::uint64_t>(c.fanout);
    });
}

bool enabled() {
    int const forced = g_forced.load(std::memory_order_acquire);
    if (forced >= 0) return forced != 0;
    return resolve_env_enabled() != 0;
}

void refresh_env() {
    g_env_enabled.store(-1, std::memory_order_release);
}

void set_forced(int v) {
    g_forced.store(v < 0 ? -1 : (v != 0 ? 1 : 0), std::memory_order_release);
    // Cached schedules compiled against the other transport are stale now.
    alg::bump_sched_epoch();
}

int get_forced() {
    return g_forced.load(std::memory_order_acquire);
}

Stats stats() {
    GlobalStats& g = g_stats();
    Stats s;
    s.publishes = g.publishes.load(std::memory_order_relaxed);
    s.copies = g.copies.load(std::memory_order_relaxed);
    s.copy_bytes = g.copy_bytes.load(std::memory_order_relaxed);
    s.drains = g.drains.load(std::memory_order_relaxed);
    return s;
}

void stats_add_publish() {
    g_stats().publishes.fetch_add(1, std::memory_order_relaxed);
}

void stats_add_copy(std::uint64_t bytes) {
    GlobalStats& g = g_stats();
    g.copies.fetch_add(1, std::memory_order_relaxed);
    g.copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void stats_add_drain() {
    g_stats().drains.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace xmpi::detail::shm

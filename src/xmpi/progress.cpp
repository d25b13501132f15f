/// @file progress.cpp
/// @brief Asynchronous progress engine (see progress.hpp for the handoff
/// protocol). One worker per XMPI_PROGRESS_THREADS; jobs route by owning
/// rank (world_rank % nthreads) so a schedule is only ever advanced by one
/// thread. Workers adopt the owning rank's identity (tls_rank) while
/// advancing so every deposit, match, virtual-time charge and counter
/// attributes to the owner — with the thread-CPU compute charge suppressed
/// (charge_compute would otherwise sample the *engine* thread's CPU clock
/// against the owner's accumulator).
#include "progress.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "algorithms/schedule.hpp"
#include "env.hpp"
#include "internal.hpp"
#include "trace/trace.hpp"

namespace xmpi::detail::progress {

namespace {

/// Workers park in failure-poll slices: the stimulate() hooks make lost
/// wakeups unlikely, the timeout makes them harmless.
inline constexpr auto kParkInterval = std::chrono::microseconds(200);

struct GlobalStats {
    std::atomic<std::uint64_t> schedules_offloaded{0};
    std::atomic<std::uint64_t> schedules_kept_sync{0};
    std::atomic<std::uint64_t> steps_advanced{0};
    std::atomic<std::uint64_t> completions{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> idle_parks{0};
    std::atomic<std::uint64_t> handoff_ns{0};

    void reset() {
        schedules_offloaded.store(0, std::memory_order_relaxed);
        schedules_kept_sync.store(0, std::memory_order_relaxed);
        steps_advanced.store(0, std::memory_order_relaxed);
        completions.store(0, std::memory_order_relaxed);
        wakeups.store(0, std::memory_order_relaxed);
        idle_parks.store(0, std::memory_order_relaxed);
        handoff_ns.store(0, std::memory_order_relaxed);
    }
};

GlobalStats& g_pstats() {
    static GlobalStats s;
    return s;
}

/// Control pin (-1 follow env / 0 off / 1 on) and lazily resolved env state
/// (-1 unresolved). Same layering as the shm transport's XMPI_SHM /
/// XMPI_T_shm_set pair; the engine itself is instantiated per universe at
/// launch, so a flipped control takes effect at the next xmpi::run.
std::atomic<int> g_forced{-1};
std::atomic<int> g_env_enabled{-1};
std::atomic<int> g_env_threads{-1};
std::atomic<long long> g_env_min_bytes{-1};
std::mutex g_env_mutex;

thread_local bool t_on_progress_thread = false;

int resolve_env_enabled() {
    int v = g_env_enabled.load(std::memory_order_acquire);
    if (v >= 0) return v;
    std::lock_guard<std::mutex> lock(g_env_mutex);
    v = g_env_enabled.load(std::memory_order_relaxed);
    if (v >= 0) return v;
    char const* e = std::getenv("XMPI_ASYNC_PROGRESS");
    if (e == nullptr || *e == '\0') {
        v = 0;  // opt-in: absent means synchronous progress, as before
    } else {
        v = static_cast<int>(envutil::parse_env_int(
            "XMPI_ASYNC_PROGRESS", 0, 0, 1,
            "is not 0 or 1; leaving asynchronous progress disabled"));
    }
    g_env_enabled.store(v, std::memory_order_release);
    return v;
}

int resolve_env_threads() {
    int v = g_env_threads.load(std::memory_order_acquire);
    if (v > 0) return v;
    std::lock_guard<std::mutex> lock(g_env_mutex);
    v = g_env_threads.load(std::memory_order_relaxed);
    if (v > 0) return v;
    v = static_cast<int>(envutil::parse_env_int(
        "XMPI_PROGRESS_THREADS", 1, 1, 16,
        "is not a thread count in [1, 16]; using 1 progress thread"));
    g_env_threads.store(v, std::memory_order_release);
    return v;
}

long long resolve_env_min_bytes() {
    long long v = g_env_min_bytes.load(std::memory_order_acquire);
    if (v >= 0) return v;
    std::lock_guard<std::mutex> lock(g_env_mutex);
    v = g_env_min_bytes.load(std::memory_order_relaxed);
    if (v >= 0) return v;
    // Default crossover: a parked-worker wakeup costs O(10us) wall latency
    // (Config::progress_wakeup); at host memcpy/mailbox bandwidth that is
    // roughly 32 KiB of payload the engine could have hidden instead.
    v = envutil::parse_env_int(
        "XMPI_PROGRESS_MIN_BYTES", 32768, 0, (1ll << 40),
        "is not a byte threshold; keeping the 32 KiB offload floor");
    g_env_min_bytes.store(v, std::memory_order_release);
    return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

class Engine {
public:
    Engine(Universe* u, int nthreads) : u_(u) {
        workers_.reserve(static_cast<std::size_t>(nthreads));
        for (int i = 0; i < nthreads; ++i) workers_.push_back(std::make_unique<Worker>());
        for (int i = 0; i < nthreads; ++i) {
            workers_[static_cast<std::size_t>(i)]->th =
                std::thread([this, i] { run(i); });
        }
    }

    ~Engine() { stop(); }

    Engine(Engine const&) = delete;
    Engine& operator=(Engine const&) = delete;

    void stop() {
        if (stop_.exchange(true, std::memory_order_seq_cst)) return;
        for (auto& w : workers_) poke(*w, /*count_wakeup=*/false);
        for (auto& w : workers_) {
            if (w->th.joinable()) w->th.join();
        }
    }

    /// Lock-free MPSC handoff: push onto the owner-routed worker's Treiber
    /// inbox, then poke it awake.
    void submit(RankState* owner, std::shared_ptr<alg::Schedule> sched, xmpi_request_t* req) {
        Worker& w = worker_of(owner->world_rank);
        Job* const j = new Job();
        j->sched = std::move(sched);
        j->req = req;
        j->owner = owner;
        j->enqueued = std::chrono::steady_clock::now();
        w.jobs.fetch_add(1, std::memory_order_seq_cst);
        Job* head = w.inbox.load(std::memory_order_relaxed);
        do {
            j->next = head;
        } while (!w.inbox.compare_exchange_weak(head, j, std::memory_order_release,
                                                std::memory_order_relaxed));
        poke(w, /*count_wakeup=*/true);
    }

    /// Deposit-side hook: a single load when the routed worker holds no
    /// in-flight job — the common case whenever the engine is armed but the
    /// traffic is below the offload gate, which must stay at synchronous-
    /// path cost. The counter rises before the submit poke and falls only
    /// after a completed job needs no further stimuli, so a skipped poke
    /// can never strand a live schedule.
    void stimulate(int world_rank) {
        if (world_rank >= 0) {
            Worker& w = worker_of(world_rank);
            if (w.jobs.load(std::memory_order_seq_cst) == 0) return;
            poke(w, /*count_wakeup=*/true);
        } else {
            for (auto& w : workers_) {
                if (w->jobs.load(std::memory_order_seq_cst) == 0) continue;
                poke(*w, /*count_wakeup=*/true);
            }
        }
    }

private:
    struct Job {
        std::shared_ptr<alg::Schedule> sched;
        xmpi_request_t* req = nullptr;
        RankState* owner = nullptr;
        std::chrono::steady_clock::time_point enqueued{};
        Job* next = nullptr;
        bool touched = false;  ///< handoff latency accounted on first touch
    };

    struct Worker {
        std::atomic<Job*> inbox{nullptr};  ///< Treiber push stack (MPSC)
        std::atomic<int> jobs{0};          ///< in-flight (inbox + active) jobs
        std::atomic<std::uint64_t> stim{0};
        std::atomic<bool> parked{false};
        std::mutex m;
        std::condition_variable cv;
        std::vector<Job*> active;  ///< worker-private round-robin set
        std::thread th;
    };

    Worker& worker_of(int world_rank) {
        return *workers_[static_cast<std::size_t>(world_rank) % workers_.size()];
    }

    /// Dekker-paired with the worker's park protocol: bump the stimulus
    /// (seq_cst), then notify only when the worker is (about to be) parked.
    /// Either the worker sees the new stimulus before sleeping or we see
    /// `parked` and take the lock-empty notify path; the park timeout
    /// backstops the remaining theoretical misses.
    void poke(Worker& w, bool count_wakeup) {
        w.stim.fetch_add(1, std::memory_order_seq_cst);
        if (w.parked.load(std::memory_order_seq_cst)) {
            if (count_wakeup) g_pstats().wakeups.fetch_add(1, std::memory_order_relaxed);
            { std::lock_guard<std::mutex> lock(w.m); }
            w.cv.notify_all();
        }
    }

    void drain_inbox(Worker& w) {
        Job* j = w.inbox.exchange(nullptr, std::memory_order_acquire);
        while (j != nullptr) {
            Job* const next = j->next;
            w.active.push_back(j);
            j = next;
        }
    }

    enum { kStalled = 0, kAdvanced = 1, kDone = 2 };

    /// Advances one job; returns kDone when it completed (and was released),
    /// kAdvanced when some steps ran but the program stalled again, kStalled
    /// when no step could run.
    int advance_job(Job* job) {
        GlobalStats& st = g_pstats();
        tls_rank() = job->owner;
        if (!job->touched) {
            job->touched = true;
            auto const dt = std::chrono::steady_clock::now() - job->enqueued;
            st.handoff_ns.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
                std::memory_order_relaxed);
        }
        int err = MPI_SUCCESS;
        std::size_t const pos0 = job->sched->pos();
        bool const done = job->sched->advance(/*blocking=*/false, &err);
        std::uint64_t const seq = job->sched->seq();
        std::size_t const adv = job->sched->pos() - pos0;
        if (adv > 0) {
            st.steps_advanced.fetch_add(adv, std::memory_order_relaxed);
            trace::ev(trace::Ev::prog_step, static_cast<int>(adv), -1, 0, seq);
        }
        if (!done) return adv > 0 ? kAdvanced : kStalled;
        trace::ev(trace::Ev::prog_complete, -1, -1, static_cast<std::uint64_t>(err), seq);
        xmpi_request_t* const rq = job->req;
        RankState* const owner = job->owner;
        // Drop the engine's schedule reference *before* publishing
        // completion: once the owner observes `complete` it may restart the
        // schedule (persistent MPI_Start) or re-arm it from the schedule
        // cache, whose use_count probe must not race a stale engine ref.
        job->sched.reset();
        delete job;
        if (err != MPI_SUCCESS) rq->error = err;
        rq->completion_vtime = owner->vnow;
        rq->complete.store(true, std::memory_order_release);
        st.completions.fetch_add(1, std::memory_order_relaxed);
        // The request may already be consumed by a concurrent test/wait at
        // this point; only the owner's rank state is touched from here on.
        wake_rank(owner);
        return kDone;
    }

    void run(int idx) {
        t_on_progress_thread = true;
        Worker& w = *workers_[static_cast<std::size_t>(idx)];
        trace::bind_thread_ring(trace::add_engine_ring(*u_, idx), idx);
        GlobalStats& st = g_pstats();
        while (!stop_.load(std::memory_order_acquire)) {
            drain_inbox(w);
            std::uint64_t const stim0 = w.stim.load(std::memory_order_seq_cst);
            bool progressed = false;
            for (std::size_t i = 0; i < w.active.size();) {
                int const r = advance_job(w.active[i]);
                if (r == kDone) {
                    w.active[i] = w.active.back();
                    w.active.pop_back();
                    w.jobs.fetch_sub(1, std::memory_order_seq_cst);
                    progressed = true;
                } else {
                    if (r == kAdvanced) progressed = true;
                    ++i;
                }
            }
            tls_rank() = nullptr;
            if (progressed) continue;
            // Every active job is stalled (or there is none): park until a
            // deposit / shm publish / submit stimulates this worker.
            std::unique_lock<std::mutex> lock(w.m);
            w.parked.store(true, std::memory_order_seq_cst);
            if (w.stim.load(std::memory_order_seq_cst) == stim0 &&
                w.inbox.load(std::memory_order_acquire) == nullptr &&
                !stop_.load(std::memory_order_acquire)) {
                st.idle_parks.fetch_add(1, std::memory_order_relaxed);
                if (w.active.empty()) {
                    // No in-flight work: park without a timeout. Waking needs
                    // a submit or stop poke, both of which always notify, so
                    // an idle engine consumes zero CPU — the failure-poll
                    // slice below exists only for *stalled* jobs, whose
                    // stimuli (deposits, shm publishes) race this park.
                    w.cv.wait(lock);
                } else {
                    w.cv.wait_for(lock, kParkInterval);
                }
            }
            w.parked.store(false, std::memory_order_seq_cst);
        }
        // Shutdown: every rank thread has joined, so normally every offloaded
        // request has completed (owners block in wait until then). Jobs left
        // here belong to dead/errored ranks whose peers are gone — release
        // them without touching mailboxes (tls is cleared, so the schedules'
        // pending-receive unlink no-ops, same as post-teardown destruction).
        drain_inbox(w);
        tls_rank() = nullptr;
        for (Job* job : w.active) delete job;
        w.active.clear();
        trace::bind_thread_ring(nullptr, idx);
    }

    Universe* u_;
    std::atomic<bool> stop_{false};
    std::vector<std::unique_ptr<Worker>> workers_;
};

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

bool enabled() {
    int const forced = g_forced.load(std::memory_order_acquire);
    if (forced >= 0) return forced != 0;
    return resolve_env_enabled() != 0;
}

int thread_count() { return resolve_env_threads(); }

std::uint64_t min_offload_bytes() {
    return static_cast<std::uint64_t>(resolve_env_min_bytes());
}

void refresh_env() {
    g_env_enabled.store(-1, std::memory_order_release);
    g_env_threads.store(-1, std::memory_order_release);
    g_env_min_bytes.store(-1, std::memory_order_release);
}

int start(Universe* u) {
    if (!enabled()) return 0;
    g_pstats().reset();
    int const n = thread_count();
    u->progress_engine = std::make_shared<Engine>(u, n);
    return n;
}

void stop(Universe* u) {
    if (u->progress_engine == nullptr) return;
    u->progress_engine->stop();
    u->progress_engine.reset();
}

bool offload(RankState* owner, std::shared_ptr<alg::Schedule> sched, xmpi_request_t* req) {
    if (owner == nullptr || sched == nullptr || req == nullptr) return false;
    Engine* const e = owner->universe->progress_engine.get();
    if (e == nullptr || !enabled()) return false;
    if (sched->comm_bytes() < min_offload_bytes()) {
        g_pstats().schedules_kept_sync.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    req->offloaded = true;
    g_pstats().schedules_offloaded.fetch_add(1, std::memory_order_relaxed);
    trace::ev(trace::Ev::prog_offload, -1, -1, sched->comm_bytes(), sched->seq());
    e->submit(owner, std::move(sched), req);
    return true;
}

void stimulate(Universe* u, int world_rank) {
    if (u == nullptr) return;
    if (Engine* const e = u->progress_engine.get(); e != nullptr) e->stimulate(world_rank);
}

bool on_progress_thread() { return t_on_progress_thread; }

Stats stats() {
    GlobalStats& g = g_pstats();
    Stats s;
    s.schedules_offloaded = g.schedules_offloaded.load(std::memory_order_relaxed);
    s.schedules_kept_sync = g.schedules_kept_sync.load(std::memory_order_relaxed);
    s.steps_advanced = g.steps_advanced.load(std::memory_order_relaxed);
    s.completions = g.completions.load(std::memory_order_relaxed);
    s.wakeups = g.wakeups.load(std::memory_order_relaxed);
    s.idle_parks = g.idle_parks.load(std::memory_order_relaxed);
    s.handoff_ns = g.handoff_ns.load(std::memory_order_relaxed);
    return s;
}

/// @name Control backends for XMPI_T_progress_set/get (registry.cpp owns
/// the public entry points alongside the other XMPI_T controls).
/// @{
void set_forced(int v) { g_forced.store(v < 0 ? -1 : (v != 0 ? 1 : 0), std::memory_order_release); }
int get_forced() { return g_forced.load(std::memory_order_acquire); }
/// @}

}  // namespace xmpi::detail::progress

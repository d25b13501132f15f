/// @file progress.hpp
/// @brief Opt-in asynchronous progress engine: a per-process pool of
/// progress threads that walks armed schedule tapes independently of the
/// application threads, the way a host controller walks a hardware frame
/// list. Enabled by XMPI_ASYNC_PROGRESS=1 (or the XMPI_T_progress_set
/// control, which takes precedence); thread count via XMPI_PROGRESS_THREADS.
///
/// Handoff protocol (arm -> engine -> completion):
///   1. The initiating application thread finishes building/resetting the
///      schedule, installs the generalized request, marks it `offloaded`,
///      and enqueues an (owner, schedule, request) job on the lock-free
///      inbox of the worker responsible for the owning rank (world_rank %
///      nthreads, so one schedule is only ever advanced by one thread).
///   2. The worker drains its inbox, adopts the owner's identity
///      (tls_rank() points at the owning RankState so deposits, matching,
///      virtual-time charges and counters attribute to the owner — the
///      thread-CPU compute charge is suppressed, see charge_compute), and
///      round-robins `Schedule::advance(blocking=false)` over its active
///      jobs. Stalled workers park on a condition variable re-armed by
///      `stimulate()` hooks in the p2p deposit and shm publish/ack paths.
///   3. On completion the worker drops its schedule reference *first* (so
///      the schedule-cache use_count probe and persistent restarts never
///      observe an engine reference after completion), then publishes
///      error + completion_vtime and flips `complete` with release
///      semantics, then wakes the owner's mailbox. Wait/test on the
///      application thread degenerate to an acquire load + cv park.
///
/// The offload gate keeps small schedules synchronous: handing a schedule
/// to the engine costs a real wakeup latency (Config::progress_wakeup),
/// which only pays for itself when the engine can hide at least that much
/// transfer time — schedules moving fewer than XMPI_PROGRESS_MIN_BYTES
/// payload bytes stay on the classic wait-side progress path.
#pragma once

#include <cstdint>
#include <memory>

#include "xmpi/mpi.h"

namespace xmpi::detail {
struct RankState;
struct Universe;
}  // namespace xmpi::detail

namespace xmpi::detail::alg {
class Schedule;
}  // namespace xmpi::detail::alg

namespace xmpi::detail::progress {

/// True when the asynchronous progress engine is enabled for new universes
/// (XMPI_T_progress_set control > XMPI_ASYNC_PROGRESS env > off).
bool enabled();

/// Number of progress threads a new engine spawns (XMPI_PROGRESS_THREADS,
/// clamped to [1, 16], default 1).
int thread_count();

/// Payload-byte threshold below which schedules stay synchronous
/// (XMPI_PROGRESS_MIN_BYTES; 0 offloads everything eligible).
std::uint64_t min_offload_bytes();

/// Re-reads the XMPI_ASYNC_PROGRESS / XMPI_PROGRESS_THREADS /
/// XMPI_PROGRESS_MIN_BYTES environment (warn-once state re-armed). Called
/// from XMPI_T_alg_env_refresh.
void refresh_env();

/// Starts the engine for `u` when enabled (no-op otherwise) and returns the
/// number of progress threads spawned (0 when off). Must run before rank
/// threads exist; pairs with stop().
int start(Universe* u);

/// Stops and joins the engine threads (no-op when none). Must run after
/// all rank threads joined and before trace/end-of-run aggregation.
void stop(Universe* u);

/// Offload gate + handoff. When the engine is running and `sched` clears
/// the synchronous-path gate, marks `req` offloaded, enqueues the job and
/// returns true — the caller must not run any inline progress. Returns
/// false when the caller should drive the schedule synchronously (engine
/// off, or schedule too small to pay the wakeup cost).
bool offload(RankState* owner, std::shared_ptr<alg::Schedule> sched, xmpi_request_t* req);

/// Wakes parked progress threads after an event they may be stalled on
/// (message deposit, shm publish/ack, rank death). One relaxed load when
/// the engine is off. `world_rank` routes the wakeup to the worker owning
/// that rank; pass -1 to wake every worker.
void stimulate(Universe* u, int world_rank);

/// True on a progress-engine thread (thread-local). charge_compute uses
/// this to suppress thread-CPU sampling against the adopted owner rank.
bool on_progress_thread();

/// Engine-global statistics (process-wide, reset when an engine starts;
/// exposed as `progress.*` pvars by the trace registry).
struct Stats {
    std::uint64_t schedules_offloaded = 0;  ///< jobs handed to the engine
    std::uint64_t schedules_kept_sync = 0;  ///< gate kept them on the app thread
    std::uint64_t steps_advanced = 0;       ///< schedule steps run on engine threads
    std::uint64_t completions = 0;          ///< schedules completed by the engine
    std::uint64_t wakeups = 0;              ///< stimulate() calls that found a parked worker
    std::uint64_t idle_parks = 0;           ///< times a worker parked with no runnable step
    std::uint64_t handoff_ns = 0;           ///< cumulative arm -> first-engine-touch latency
};
Stats stats();

/// Backend of the XMPI_T_progress_set/get control: -1 defers to the
/// environment, 0 forces the engine off, 1 forces it on (for universes
/// started after the call).
void set_forced(int v);
int get_forced();

}  // namespace xmpi::detail::progress

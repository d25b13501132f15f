/// @file trace.cpp
/// @brief Trace subsystem implementation: ring management and env resolution,
/// the merged-timeline Chrome trace-event exporter, the log2 latency
/// histograms, the MPI_T-style pvar registry, and the per-invocation
/// critical-path attribution replay.
#include "trace.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "../algorithms/algorithms.hpp"
#include "../env.hpp"
#include "../internal.hpp"
#include "../progress.hpp"
#include "../shm/shm.hpp"
#include "../sim/sim.hpp"

namespace xmpi::detail::trace {

std::atomic<bool> g_on{false};

namespace {

constexpr char kEnvTrace[] = "XMPI_TRACE";
constexpr char kEnvRing[] = "XMPI_TRACE_RING_EVENTS";
constexpr std::size_t kDefaultRingEvents = 65536;

/// Guards env resolution, the traced-universe count and the last-run state.
std::mutex& mutex() {
    static std::mutex m;
    return m;
}

bool g_resolved = false;
bool g_enabled = false;
std::string g_path;
std::size_t g_ring_events = kDefaultRingEvents;
int g_active_universes = 0;

LastRun& last_run_locked() {
    static LastRun lr;
    return lr;
}

std::size_t round_pow2(std::size_t v) {
    std::size_t cap = 16;
    while (cap < v) cap <<= 1;
    return cap;
}

/// Reads XMPI_TRACE / XMPI_TRACE_RING_EVENTS once per resolution cycle.
/// A set-but-garbage ring capacity warns once (via the shared warn-once
/// registry) and disables tracing for the run; it never aborts.
void resolve_locked() {
    if (g_resolved) return;
    g_resolved = true;
    g_enabled = false;
    g_path.clear();
    g_ring_events = kDefaultRingEvents;
    char const* const path = std::getenv(kEnvTrace);
    if (path == nullptr || *path == '\0') return;
    g_path = path;
    g_enabled = true;
    if (char const* const raw = std::getenv(kEnvRing); raw != nullptr && *raw != '\0') {
        long long const v = envutil::parse_env_int(
            kEnvRing, -1, 16, 1 << 22,
            "is not a ring capacity in [16, 4194304]; tracing disabled");
        if (v < 0) {
            g_enabled = false;
            g_path.clear();
            return;
        }
        g_ring_events = round_pow2(static_cast<std::size_t>(v));
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

Ring::Ring(std::size_t capacity) {
    std::size_t const cap = round_pow2(capacity);
    buf_.resize(cap);
    mask_ = cap - 1;
}

std::vector<Record> Ring::snapshot() const {
    std::uint64_t const n = std::min<std::uint64_t>(count_, buf_.size());
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = count_ - n; i < count_; ++i) {
        out.push_back(buf_[static_cast<std::size_t>(i & mask_)]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Hook slow path
// ---------------------------------------------------------------------------

char const* ev_name(Ev kind) {
    static constexpr std::array<char const*, kEvKinds> names = {
        "coll_enter", "coll_exit",  "send",       "post",       "recv_done",
        "wait_begin", "wait_end",   "sched_build", "sched_cache_hit", "sched_arm",
        "step.send",  "step.post",  "step.wait",  "step.local", "sched_done",
        "tune_probe", "tune_demote", "tune_recover", "step.copy_pub", "step.copy_get",
        "prog.offload", "prog.step", "prog.complete",
    };
    auto const k = static_cast<std::size_t>(kind);
    return k < names.size() ? names[k] : "?";
}

namespace {

/// Engine-thread binding: a progress thread adopts the owning rank's
/// identity (tls_rank) but must never write that rank's single-writer ring.
/// Its events go to its own ring, tagged with lane 1 + thread index in
/// Record::pad (lane 0 = the owning rank's lane).
thread_local bool t_engine_thread = false;
thread_local Ring* t_engine_ring = nullptr;
thread_local int t_engine_idx = 0;

}  // namespace

void emit(Ev kind, int peer, int tag, std::uint64_t bytes, std::uint64_t seq, int family,
          int alg) {
    RankState* const rs = tls_rank();
    if (rs == nullptr) return;
    Ring* ring = rs->trace_ring.get();
    std::uint8_t lane = 0;
    if (t_engine_thread) {
        ring = t_engine_ring;
        lane = static_cast<std::uint8_t>(1 + t_engine_idx);
    }
    if (ring == nullptr) return;
    Record r;
    r.vtime = rs->vnow;
    r.seq = seq;
    r.bytes = bytes;
    r.rank = rs->world_rank;
    r.peer = peer;
    r.tag = tag;
    r.kind = static_cast<std::uint8_t>(kind);
    r.family = family < 0 ? 0xff : static_cast<std::uint8_t>(family);
    r.alg = alg < 0 ? 0xff : static_cast<std::uint8_t>(alg);
    r.pad = lane;
    ring->push(r);
}

Ring* add_engine_ring(Universe& u, int thread_idx) {
    (void)thread_idx;
    std::lock_guard<std::mutex> lock(mutex());
    if (!g_enabled) return nullptr;
    u.engine_trace_rings.push_back(std::make_unique<Ring>(g_ring_events));
    return u.engine_trace_rings.back().get();
}

void bind_thread_ring(Ring* ring, int thread_idx) {
    t_engine_thread = true;
    t_engine_ring = ring;
    t_engine_idx = thread_idx;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void begin_universe(Universe& u) {
    std::lock_guard<std::mutex> lock(mutex());
    resolve_locked();
    if (!g_enabled) return;
    for (auto& rs : u.ranks) {
        rs->trace_ring = std::make_unique<Ring>(g_ring_events);
    }
    ++g_active_universes;
    g_on.store(true, std::memory_order_release);
}

void refresh_env() {
    std::lock_guard<std::mutex> lock(mutex());
    g_resolved = false;
}

namespace {

/// Collective-slice display name: "family/alg" when both resolve.
std::string coll_name(Record const& r) {
    if (r.family >= alg::kFamilies) return "coll";
    auto const fam = static_cast<alg::Family>(r.family);
    std::string name = alg::family_name(fam);
    auto const& table = alg::algorithms(fam);
    if (static_cast<std::size_t>(r.alg) < table.size()) {
        name += '/';
        name += table[r.alg].name;
    }
    return name;
}

/// Writes the merged timeline as Chrome trace-event JSON ("JSON object
/// format"): one lane (tid) per world rank, B/E slices for collectives and
/// waits, instants for everything else, and s/f flow pairs connecting each
/// matched send -> recv_done.
void write_chrome_json(std::string const& path, LastRun const& run) {
    std::FILE* const f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "xmpi: XMPI_TRACE=\"%s\" cannot be opened for writing\n",
                     path.c_str());
        return;
    }

    // Pass 1: pair sends with receive completions. Matching replicates the
    // transport's FIFO-per-(src, dst, context, tag) ordering; records are
    // already time-sorted, so queue order is send order.
    std::map<std::array<std::int64_t, 4>, std::deque<std::size_t>> pending;
    std::vector<std::int64_t> flow_id(run.records.size(), -1);
    std::int64_t next_flow = 1;
    for (std::size_t i = 0; i < run.records.size(); ++i) {
        Record const& r = run.records[i];
        if (r.kind == static_cast<std::uint8_t>(Ev::send)) {
            pending[{r.rank, r.peer, static_cast<std::int64_t>(r.seq), r.tag}].push_back(i);
        } else if (r.kind == static_cast<std::uint8_t>(Ev::recv_done)) {
            auto it = pending.find({r.peer, r.rank, static_cast<std::int64_t>(r.seq), r.tag});
            if (it != pending.end() && !it->second.empty()) {
                std::size_t const j = it->second.front();
                it->second.pop_front();
                std::int64_t const id = next_flow++;
                flow_id[j] = id;
                flow_id[i] = id;
            }
        }
    }

    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    auto sep = [&] {
        if (!first) std::fputc(',', f);
        first = false;
        std::fputc('\n', f);
    };

    for (int rank = 0; rank < run.world_size; ++rank) {
        int const node = rank < static_cast<int>(run.node_of_world.size())
                             ? run.node_of_world[static_cast<std::size_t>(rank)]
                             : rank;
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"rank %d (node %d)\"}}",
                     rank, rank, node);
    }
    // Progress-engine lanes follow the rank lanes (Record::pad = 1 + thread
    // index for engine-emitted records, 0 for rank-thread records).
    int max_lane = 0;
    for (Record const& r : run.records) max_lane = std::max<int>(max_lane, r.pad);
    for (int lane = 1; lane <= max_lane; ++lane) {
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"progress %d\"}}",
                     run.world_size + lane - 1, lane - 1);
    }
    auto tid_of = [&](Record const& r) {
        return r.pad == 0 ? r.rank : run.world_size + r.pad - 1;
    };

    for (std::size_t i = 0; i < run.records.size(); ++i) {
        Record const& r = run.records[i];
        int const tid = tid_of(r);
        double const ts = r.vtime * 1e6;  // trace-event timestamps are in us
        auto const kind = static_cast<Ev>(r.kind);
        switch (kind) {
            case Ev::coll_enter:
                sep();
                std::fprintf(f,
                             "{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.6f,\"name\":\"%s\","
                             "\"cat\":\"coll\",\"args\":{\"bytes\":%llu,\"seq\":%llu}}",
                             tid, ts, coll_name(r).c_str(),
                             static_cast<unsigned long long>(r.bytes),
                             static_cast<unsigned long long>(r.seq));
                break;
            case Ev::coll_exit:
                sep();
                std::fprintf(f, "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.6f}", tid, ts);
                break;
            case Ev::wait_begin:
                sep();
                std::fprintf(f,
                             "{\"ph\":\"B\",\"pid\":1,\"tid\":%d,\"ts\":%.6f,"
                             "\"name\":\"wait\",\"cat\":\"p2p\"}",
                             tid, ts);
                break;
            case Ev::wait_end:
                sep();
                std::fprintf(f,
                             "{\"ph\":\"E\",\"pid\":1,\"tid\":%d,\"ts\":%.6f,"
                             "\"args\":{\"wall_ns\":%llu}}",
                             tid, ts, static_cast<unsigned long long>(r.bytes));
                break;
            default:
                sep();
                std::fprintf(f,
                             "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%.6f,\"name\":\"%s\","
                             "\"cat\":\"%s\",\"s\":\"t\",\"args\":{\"peer\":%d,\"tag\":%d,"
                             "\"bytes\":%llu,\"seq\":%llu}}",
                             tid, ts, ev_name(kind),
                             kind == Ev::send || kind == Ev::post || kind == Ev::recv_done
                                 ? "p2p"
                                 : "sched",
                             r.peer, r.tag, static_cast<unsigned long long>(r.bytes),
                             static_cast<unsigned long long>(r.seq));
                break;
        }
        if (flow_id[i] >= 0) {
            bool const start = kind == Ev::send;
            sep();
            std::fprintf(f,
                         "{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%.6f,\"name\":\"msg\","
                         "\"cat\":\"msg\",\"id\":%lld%s}",
                         start ? "s" : "f", tid, ts,
                         static_cast<long long>(flow_id[i]), start ? "" : ",\"bp\":\"e\"");
        }
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

}  // namespace

void end_universe(Universe& u) {
    bool traced = false;
    for (auto& rs : u.ranks) {
        if (rs->trace_ring != nullptr) traced = true;
    }
    if (!traced) return;

    std::lock_guard<std::mutex> lock(mutex());
    if (--g_active_universes <= 0) {
        g_active_universes = 0;
        g_on.store(false, std::memory_order_release);
    }

    LastRun run;
    run.valid = true;
    run.world_size = u.size;
    run.node_of_world = u.node_of_world;
    run.cfg = u.cfg;
    for (auto& rs : u.ranks) {
        if (rs->trace_ring == nullptr) continue;
        run.recorded += rs->trace_ring->recorded();
        run.dropped += rs->trace_ring->dropped();
        run.wait_ns += rs->wait_time_ns;
        run.wait_parks += rs->wait_parks;
        run.cpu_samples += rs->cpu_samples;
        auto snap = rs->trace_ring->snapshot();
        run.records.insert(run.records.end(), snap.begin(), snap.end());
        rs->trace_ring.reset();
    }
    // Progress-engine rings (their threads joined in progress::stop, before
    // this runs). Records keep the owning rank in Record::rank; the exporter
    // routes them to "progress <idx>" lanes via Record::pad.
    for (auto& ring : u.engine_trace_rings) {
        run.recorded += ring->recorded();
        run.dropped += ring->dropped();
        auto snap = ring->snapshot();
        run.records.insert(run.records.end(), snap.begin(), snap.end());
    }
    u.engine_trace_rings.clear();
    // Merge lanes into one timeline. stable_sort keeps each rank's records
    // in program order across equal timestamps.
    std::stable_sort(run.records.begin(), run.records.end(),
                     [](Record const& a, Record const& b) {
                         if (a.vtime != b.vtime) return a.vtime < b.vtime;
                         return a.rank < b.rank;
                     });
    if (!g_path.empty()) write_chrome_json(g_path, run);
    last_run_locked() = std::move(run);
}

LastRun last_run() {
    std::lock_guard<std::mutex> lock(mutex());
    return last_run_locked();
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t>
    g_hist[kHistFamilies][kHistMaxAlg][kHistSizeBuckets][kHistLatBuckets];

int size_bucket(std::size_t bytes) {
    int b = 0;
    while (bytes > 1 && b < kHistSizeBuckets - 1) {
        bytes >>= 1;
        ++b;
    }
    return b;
}

int lat_bucket(double elapsed) {
    double const ns = elapsed * 1e9;
    if (ns < 128.0) return 0;  // bucket 0: < 2^7 ns
    int b = 0;
    std::uint64_t n = static_cast<std::uint64_t>(ns) >> 7;
    while (n > 0 && b < kHistLatBuckets - 1) {
        n >>= 1;
        ++b;
    }
    return b;
}

}  // namespace

void hist_record(int family, int alg, std::size_t bytes, double elapsed) {
    if (family < 0 || family >= kHistFamilies || alg < 0 || alg >= kHistMaxAlg) return;
    g_hist[family][alg][size_bucket(bytes)][lat_bucket(elapsed)].fetch_add(
        1, std::memory_order_relaxed);
}

}  // namespace xmpi::detail::trace

// ---------------------------------------------------------------------------
// MPI_T-style pvar registry (global namespace: declared in xmpi/mpi.h).
// ---------------------------------------------------------------------------

namespace {

using xmpi::Counters;
using namespace xmpi::detail;

struct Pvar {
    std::string name;
    int value_count = 1;
    /// Writes exactly `value_count` values; returns an MPI error code.
    std::function<int(unsigned long long*)> read;
    /// Null when the variable is not resettable.
    std::function<int()> reset;
};

struct CounterField {
    char const* name;
    xmpi::Stat Counters::*field;
};

/// Every Counters field, by name. The static_assert below pins the struct
/// size so adding a counter without extending this table (and the legacy
/// stats structs' documentation) fails the build.
constexpr CounterField kCounterFields[] = {
    {"counters.p2p_messages", &Counters::p2p_messages},
    {"counters.p2p_bytes", &Counters::p2p_bytes},
    {"counters.coll_messages", &Counters::coll_messages},
    {"counters.coll_bytes", &Counters::coll_bytes},
    {"counters.intra_node_messages", &Counters::intra_node_messages},
    {"counters.intra_node_bytes", &Counters::intra_node_bytes},
    {"counters.schedule_builds", &Counters::schedule_builds},
    {"counters.schedule_cache_hits", &Counters::schedule_cache_hits},
    {"counters.schedule_cache_evictions", &Counters::schedule_cache_evictions},
    {"counters.schedule_peak_scratch_bytes.rank", &Counters::schedule_peak_scratch_bytes},
    {"counters.shm_copies", &Counters::shm_copies},
    {"counters.shm_copy_bytes", &Counters::shm_copy_bytes},
};

static_assert(sizeof(Counters) == 12 * sizeof(std::uint64_t),
              "a Counters field was added or removed: extend kCounterFields, the "
              "pvar registry docs and the test_trace coverage list");

int read_in_rank(std::function<unsigned long long(RankState*)> const& get,
                 unsigned long long* out) {
    RankState* const rs = tls_rank();
    if (rs == nullptr) return MPI_ERR_OTHER;
    *out = get(rs);
    return MPI_SUCCESS;
}

std::vector<Pvar> build_pvar_table() {
    std::vector<Pvar> t;

    for (auto const& cf : kCounterFields) {
        t.push_back({cf.name, 1,
                     [field = cf.field](unsigned long long* out) {
                         return read_in_rank(
                             [field](RankState* rs) {
                                 return static_cast<unsigned long long>(rs->counters.*field);
                             },
                             out);
                     },
                     nullptr});
    }
    // Satellite of ISSUE 8: Counters::schedule_peak_scratch_bytes is per-rank
    // state that RunResult aggregates by *max*. The `.rank` pvar above and
    // XMPI_T_sched_stats both report the calling rank's own peak; `.max`
    // reduces over every rank of the calling rank's universe. The reduction
    // reads peer counters without locks, so it is exact only at quiescent
    // points (between collectives / after joins) — same contract as
    // RunResult::total.
    t.push_back({"counters.schedule_peak_scratch_bytes.max", 1,
                 [](unsigned long long* out) {
                     return read_in_rank(
                         [](RankState* rs) {
                             unsigned long long peak = 0;
                             for (auto const& peer : rs->universe->ranks) {
                                 peak = std::max<unsigned long long>(
                                     peak, peer->counters.schedule_peak_scratch_bytes);
                             }
                             return peak;
                         },
                         out);
                 },
                 nullptr});

    // Per-rank wait and clock accounting: the calling rank's value inside a
    // rank body, the last traced universe's sum outside one; resettable
    // in-rank.
    auto rank_pvar = [&t](char const* name, std::uint64_t RankState::*field,
                          std::uint64_t trace::LastRun::*sum) {
        t.push_back({name, 1,
                     [field, sum](unsigned long long* out) {
                         RankState* const rs = tls_rank();
                         *out = rs != nullptr ? rs->*field : trace::last_run().*sum;
                         return MPI_SUCCESS;
                     },
                     [field] {
                         RankState* const rs = tls_rank();
                         if (rs == nullptr) return MPI_ERR_OTHER;
                         rs->*field = 0;
                         return MPI_SUCCESS;
                     }});
    };
    rank_pvar("p2p.wait_time_ns", &RankState::wait_time_ns, &trace::LastRun::wait_ns);
    rank_pvar("p2p.wait_parks", &RankState::wait_parks, &trace::LastRun::wait_parks);
    rank_pvar("vtime.cpu_samples", &RankState::cpu_samples, &trace::LastRun::cpu_samples);

    auto sim_field = [](int idx) {
        return [idx](unsigned long long* out) {
            unsigned long long v[3] = {0, 0, 0};
            double makespan = 0.0;
            int const rc = XMPI_T_sim_stats(&v[0], &v[1], &v[2], &makespan);
            if (rc != MPI_SUCCESS) return rc;
            *out = idx < 3 ? v[idx]
                           : static_cast<unsigned long long>(makespan * 1e9);
            return MPI_SUCCESS;
        };
    };
    t.push_back({"sim.dry_builds", 1, sim_field(0), nullptr});
    t.push_back({"sim.tape_steps", 1, sim_field(1), nullptr});
    t.push_back({"sim.events", 1, sim_field(2), nullptr});
    t.push_back({"sim.last_makespan_ns", 1, sim_field(3), nullptr});

    auto tune_field = [](int idx) {
        return [idx](unsigned long long* out) {
            unsigned long long v[4] = {0, 0, 0, 0};
            int const rc = XMPI_T_tune_stats(&v[0], &v[1], &v[2], &v[3]);
            if (rc != MPI_SUCCESS) return rc;
            *out = v[idx];
            return MPI_SUCCESS;
        };
    };
    t.push_back({"tune.records", 1, tune_field(0), nullptr});
    t.push_back({"tune.probes", 1, tune_field(1), nullptr});
    t.push_back({"tune.demotions", 1, tune_field(2), nullptr});
    t.push_back({"tune.recoveries", 1, tune_field(3), nullptr});

    auto trace_field = [](bool dropped) {
        return [dropped](unsigned long long* out) {
            RankState* const rs = tls_rank();
            if (rs != nullptr && rs->trace_ring != nullptr) {
                *out = dropped ? rs->trace_ring->dropped() : rs->trace_ring->recorded();
                return MPI_SUCCESS;
            }
            auto const lr = trace::last_run();
            *out = dropped ? lr.dropped : lr.recorded;
            return MPI_SUCCESS;
        };
    };
    t.push_back({"trace.events_recorded", 1, trace_field(false), nullptr});
    t.push_back({"trace.events_dropped", 1, trace_field(true), nullptr});

    // Zero-copy shared-memory transport (src/xmpi/shm): effective
    // enablement plus the process-wide operation counts.
    t.push_back({"shm.enabled", 1,
                 [](unsigned long long* out) {
                     *out = shm::enabled() ? 1 : 0;
                     return MPI_SUCCESS;
                 },
                 nullptr});
    auto shm_field = [](int idx) {
        return [idx](unsigned long long* out) {
            shm::Stats const s = shm::stats();
            switch (idx) {
                case 0: *out = s.publishes; break;
                case 1: *out = s.copies; break;
                case 2: *out = s.copy_bytes; break;
                default: *out = s.drains; break;
            }
            return MPI_SUCCESS;
        };
    };
    t.push_back({"shm.publishes", 1, shm_field(0), nullptr});
    t.push_back({"shm.copies", 1, shm_field(1), nullptr});
    t.push_back({"shm.copy_bytes", 1, shm_field(2), nullptr});
    t.push_back({"shm.drains", 1, shm_field(3), nullptr});

    // Asynchronous progress engine (src/xmpi/progress): effective
    // enablement, the process-wide engine statistics, and the per-rank
    // count of wait/test-side progress calls (zero for a schedule the
    // engine owned — the overlap tests pin exactly that).
    t.push_back({"progress.enabled", 1,
                 [](unsigned long long* out) {
                     *out = progress::enabled() ? 1 : 0;
                     return MPI_SUCCESS;
                 },
                 nullptr});
    auto progress_field = [](int idx) {
        return [idx](unsigned long long* out) {
            progress::Stats const s = progress::stats();
            switch (idx) {
                case 0: *out = s.schedules_offloaded; break;
                case 1: *out = s.schedules_kept_sync; break;
                case 2: *out = s.steps_advanced; break;
                case 3: *out = s.completions; break;
                case 4: *out = s.wakeups; break;
                case 5: *out = s.idle_parks; break;
                default: *out = s.handoff_ns; break;
            }
            return MPI_SUCCESS;
        };
    };
    t.push_back({"progress.schedules_offloaded", 1, progress_field(0), nullptr});
    t.push_back({"progress.schedules_kept_sync", 1, progress_field(1), nullptr});
    t.push_back({"progress.steps_advanced", 1, progress_field(2), nullptr});
    t.push_back({"progress.completions", 1, progress_field(3), nullptr});
    t.push_back({"progress.wakeups", 1, progress_field(4), nullptr});
    t.push_back({"progress.idle_parks", 1, progress_field(5), nullptr});
    t.push_back({"progress.handoff_ns", 1, progress_field(6), nullptr});
    t.push_back({"progress.app_progress_calls", 1,
                 [](unsigned long long* out) {
                     return read_in_rank(
                         [](RankState* rs) {
                             return static_cast<unsigned long long>(rs->app_progress_calls);
                         },
                         out);
                 },
                 [] {
                     RankState* const rs = tls_rank();
                     if (rs == nullptr) return MPI_ERR_OTHER;
                     rs->app_progress_calls = 0;
                     return MPI_SUCCESS;
                 }});

    for (int f = 0; f < alg::kFamilies; ++f) {
        auto const fam = static_cast<alg::Family>(f);
        auto const& table = alg::algorithms(fam);
        for (std::size_t a = 0;
             a < table.size() && a < static_cast<std::size_t>(trace::kHistMaxAlg); ++a) {
            std::string name = "hist.";
            name += alg::family_name(fam);
            name += '.';
            name += table[a].name;
            t.push_back(
                {std::move(name), trace::kHistSizeBuckets * trace::kHistLatBuckets,
                 [f, a](unsigned long long* out) {
                     trace::hist_read(f, static_cast<int>(a), out);
                     return MPI_SUCCESS;
                 },
                 [f, a] {
                     trace::hist_reset(f, static_cast<int>(a));
                     return MPI_SUCCESS;
                 }});
        }
    }
    return t;
}

std::vector<Pvar> const& pvar_table() {
    static std::vector<Pvar> const t = build_pvar_table();
    return t;
}

}  // namespace

namespace xmpi::detail::trace {

void hist_read(int family, int alg, unsigned long long* out) {
    for (int s = 0; s < kHistSizeBuckets; ++s) {
        for (int l = 0; l < kHistLatBuckets; ++l) {
            *out++ = g_hist[family][alg][s][l].load(std::memory_order_relaxed);
        }
    }
}

void hist_reset(int family, int alg) {
    for (int s = 0; s < kHistSizeBuckets; ++s) {
        for (int l = 0; l < kHistLatBuckets; ++l) {
            g_hist[family][alg][s][l].store(0, std::memory_order_relaxed);
        }
    }
}

}  // namespace xmpi::detail::trace

int XMPI_T_pvar_num(int* num) {
    if (num == nullptr) return MPI_ERR_ARG;
    *num = static_cast<int>(pvar_table().size());
    return MPI_SUCCESS;
}

int XMPI_T_pvar_name(int index, char* name, int namelen, int* value_count) {
    auto const& t = pvar_table();
    if (index < 0 || index >= static_cast<int>(t.size())) return MPI_ERR_ARG;
    Pvar const& p = t[static_cast<std::size_t>(index)];
    if (name != nullptr && namelen > 0) {
        std::snprintf(name, static_cast<std::size_t>(namelen), "%s", p.name.c_str());
    }
    if (value_count != nullptr) *value_count = p.value_count;
    return MPI_SUCCESS;
}

int XMPI_T_pvar_read(int index, unsigned long long* values, int* count) {
    auto const& t = pvar_table();
    if (index < 0 || index >= static_cast<int>(t.size())) return MPI_ERR_ARG;
    if (values == nullptr || count == nullptr) return MPI_ERR_ARG;
    Pvar const& p = t[static_cast<std::size_t>(index)];
    if (*count < p.value_count) return MPI_ERR_ARG;
    int const rc = p.read(values);
    *count = rc == MPI_SUCCESS ? p.value_count : 0;
    return rc;
}

int XMPI_T_pvar_reset(int index) {
    auto const& t = pvar_table();
    if (index < 0 || index >= static_cast<int>(t.size())) return MPI_ERR_ARG;
    Pvar const& p = t[static_cast<std::size_t>(index)];
    if (!p.reset) return MPI_ERR_OTHER;
    return p.reset();
}

int XMPI_T_trace_stats(unsigned long long* recorded, unsigned long long* dropped,
                       unsigned long long* merged) {
    auto const lr = xmpi::detail::trace::last_run();
    if (recorded != nullptr) *recorded = lr.recorded;
    if (dropped != nullptr) *dropped = lr.dropped;
    if (merged != nullptr) *merged = static_cast<unsigned long long>(lr.records.size());
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Per-invocation critical-path attribution: one collective's traced steps,
// lowered to a dry-build tape, run through sim::replay from each rank's entry
// skew with provenance on; the finishing rank's chain names the terms.
// ---------------------------------------------------------------------------

int XMPI_T_trace_attribution(long long seq, XMPI_T_trace_attr* out) {
    using xmpi::detail::trace::Ev;
    using xmpi::detail::trace::Record;
    namespace alg = xmpi::detail::alg;
    namespace sim = xmpi::detail::sim;
    if (out == nullptr) return MPI_ERR_ARG;
    auto const lr = xmpi::detail::trace::last_run();
    if (!lr.valid) return MPI_ERR_OTHER;

    if (seq < 0) {  // default: the last completed traced collective
        for (auto it = lr.records.rbegin(); it != lr.records.rend(); ++it) {
            if (it->kind == static_cast<std::uint8_t>(Ev::coll_exit)) {
                seq = static_cast<long long>(it->seq);
                break;
            }
        }
        if (seq < 0) return MPI_ERR_OTHER;
    }

    std::memset(out, 0, sizeof(*out));
    out->family = -1;
    out->alg = -1;

    // Collect, per participating rank, the *last* enter/exit pair carrying
    // `seq` and the schedule steps issued between them.
    struct TracedRank {
        double enter = 0.0, exit_t = 0.0;
        std::vector<Record> steps;
    };
    std::map<int, TracedRank> ranks;
    for (Record const& r : lr.records) {
        if (r.seq != static_cast<std::uint64_t>(seq)) continue;
        auto const kind = static_cast<Ev>(r.kind);
        if (kind == Ev::coll_enter) {
            ranks[r.rank] = TracedRank{r.vtime, 0.0, {}};
            if (r.family != 0xff) out->family = r.family;
            if (r.alg != 0xff) out->alg = r.alg;
            continue;
        }
        auto const it = ranks.find(r.rank);
        if (it == ranks.end()) continue;
        if (kind == Ev::coll_exit) {
            it->second.exit_t = r.vtime;
        } else if (kind == Ev::step_send || kind == Ev::step_post || kind == Ev::step_wait ||
                   kind == Ev::step_copy_pub || kind == Ev::step_copy_get) {
            it->second.steps.push_back(r);
        }
    }
    if (ranks.empty()) return MPI_ERR_OTHER;

    // Peers become dense indices over the traced ranks. A publish is traced
    // once, but the tape pairs a pseudo-send with each get: list, per
    // (producer, cell), one reader per get, and count the publishes.
    double enter_min = std::numeric_limits<double>::infinity();
    double exit_max = 0.0;
    sim::World world;
    world.cfg = lr.cfg;
    std::map<int, std::uint32_t> dense;
    std::map<std::pair<int, int>, std::size_t> pubs;
    std::map<std::pair<int, int>, std::vector<std::uint32_t>> readers;
    for (auto const& [w, tr] : ranks) {
        enter_min = std::min(enter_min, tr.enter);
        exit_max = std::max(exit_max, tr.exit_t);
        out->steps += tr.steps.size();
        std::uint32_t const me = dense.emplace(w, world.size++).first->second;
        if (!lr.node_of_world.empty()) {  // replay only compares node ids
            world.node_map.push_back(lr.node_of_world[static_cast<std::size_t>(w)]);
        }
        for (Record const& r : tr.steps) {
            if (r.kind == static_cast<std::uint8_t>(Ev::step_copy_pub)) ++pubs[{w, r.tag}];
            if (r.kind == static_cast<std::uint8_t>(Ev::step_copy_get)) {
                readers[{r.peer, r.tag}].push_back(me);
            }
        }
    }
    out->traced_makespan = exit_max - enter_min;

    // Lower each rank's records as a dry build records them: a message keeps
    // its coll_tag() step bits, a copy cell gets the copy marker bit, and a
    // get (post + copy-wait) takes a slot that traced waits do not count.
    alg::DrySink sink;
    std::vector<std::uint32_t> step_begin{0}, slot_begin{0};
    std::vector<double> start;
    for (auto const& [w, tr] : ranks) {
        start.push_back(tr.enter - enter_min);
        std::vector<std::uint32_t> slot_of_post;
        std::uint32_t slots = 0;
        for (Record const& r : tr.steps) {
            auto const kind = static_cast<Ev>(r.kind);
            bool const copy = kind == Ev::step_copy_pub || kind == Ev::step_copy_get;
            auto const tag = static_cast<std::uint16_t>(copy ? (r.tag & 0x7FFF) | 0x8000
                                                             : r.tag & 0x3FF);
            auto const peer = dense.find(r.peer);
            if (kind == Ev::step_copy_pub) {  // readers are grouped: every pubs-th one
                auto const& rd = readers[{w, r.tag}];
                for (std::size_t k = 0; k < rd.size(); k += pubs[{w, r.tag}]) {
                    sink.steps.push_back({r.bytes, rd[k], tag, alg::TapeStep::kCopyPub});
                }
            } else if (kind == Ev::step_wait) {
                auto const k = static_cast<std::size_t>(r.peer);
                if (k >= slot_of_post.size()) return MPI_ERR_OTHER;
                sink.steps.push_back({0, slot_of_post[k], 0, alg::TapeStep::kWait});
            } else if (peer == dense.end()) {
                return MPI_ERR_OTHER;  // a rank the trace lost (its ring overflowed)
            } else if (kind == Ev::step_send) {
                sink.steps.push_back({r.bytes, peer->second, tag, alg::TapeStep::kSend});
            } else {
                sink.steps.push_back({r.bytes, peer->second, tag, alg::TapeStep::kPost});
                if (copy) {
                    sink.steps.push_back({r.bytes, slots, 0, alg::TapeStep::kCopyWait});
                } else {
                    slot_of_post.push_back(slots);
                }
                ++slots;
            }
        }
        step_begin.push_back(static_cast<std::uint32_t>(sink.steps.size()));
        slot_begin.push_back(slot_begin.back() + slots);
    }

    sim::Provenance prov;
    sim::Result const res = sim::replay(world, sink, step_begin, slot_begin, start, &prov);
    if (res.error != MPI_SUCCESS) return MPI_ERR_OTHER;  // deadlock or unmatched channels
    out->replayed_makespan = res.makespan;
    double* const sums[4][2] = {{&out->start_skew, &out->start_skew},
                                {&out->alpha_inter, &out->alpha_intra},
                                {&out->beta_inter, &out->beta_intra},
                                {&out->o_inter, &out->o_intra}};
    auto const finisher = std::max_element(res.finish.begin(), res.finish.end());
    for (int n = prov.last[static_cast<std::size_t>(finisher - res.finish.begin())]; n >= 0;
         n = prov.nodes[static_cast<std::size_t>(n)].prev) {
        sim::Provenance::Node const& node = prov.nodes[static_cast<std::size_t>(n)];
        *sums[node.term][node.intra] += node.amount;
    }
    out->attributed = out->alpha_inter + out->beta_inter + out->o_inter + out->alpha_intra +
                      out->beta_intra + out->o_intra;
    return MPI_SUCCESS;
}

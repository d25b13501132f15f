/// @file sim.cpp
/// @brief The virtual-time executor: synthesizes a payload-free communicator
/// at the simulated size, dry-builds every rank's schedule through the real
/// builders (Schedule::begin_dry), pairs each send with its post up front,
/// and replays the tapes in a single-threaded event loop whose arithmetic
/// mirrors the p2p engine's deposit()/wait_one() clock updates term for
/// term — so at small p the simulator's per-rank finish times reproduce the
/// threaded executor's (the equivalence gate in tests/xmpi/test_sim.cpp),
/// and at large p the tape is the ground truth for the closed-form model.
#include "sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <climits>
#include <limits>
#include <cstring>
#include <mutex>
#include <numeric>

#include "../env.hpp"
#include "../internal.hpp"
#include "../topo/topo.hpp"

namespace xmpi::detail::sim {
namespace {

// ---------------------------------------------------------------------------
// XMPI_T_sim_* state: event-limit knob (control > XMPI_SIM_EVENT_LIMIT env >
// unlimited, invalid env warns once — the XMPI_ALG_* discipline) and the
// process-wide accounting XMPI_T_sim_stats reports.
// ---------------------------------------------------------------------------

std::atomic<long long> g_forced_event_limit{-1};  ///< -1 = automatic
std::atomic<bool> g_sim_env_resolved{false};
std::atomic<long long> g_env_event_limit{0};  ///< 0 = unset/invalid = unlimited
std::mutex g_sim_env_mutex;

std::atomic<unsigned long long> g_dry_builds{0};
std::atomic<unsigned long long> g_tape_steps{0};
std::atomic<unsigned long long> g_events{0};
std::atomic<double> g_last_makespan{0.0};

void resolve_sim_env_locked() {
    long long const limit = envutil::parse_env_int(
        "XMPI_SIM_EVENT_LIMIT", 0, 0, std::numeric_limits<long long>::max(),
        "is not a non-negative event count; the simulator runs unlimited");
    g_env_event_limit.store(limit, std::memory_order_relaxed);
    g_sim_env_resolved.store(true, std::memory_order_release);
}

long long effective_event_limit() {
    if (long long const forced = g_forced_event_limit.load(std::memory_order_relaxed);
        forced >= 0)
        return forced;
    if (!g_sim_env_resolved.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(g_sim_env_mutex);
        if (!g_sim_env_resolved.load(std::memory_order_relaxed)) resolve_sim_env_locked();
    }
    return g_env_event_limit.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// The synthetic communicator: a stack universe whose topology is the
// caller's explicit node map (no threads, no rank states) plus one
// communicator copy whose my_rank is repointed per simulated rank. The
// registry's select() and every builder see exactly the objects they see in
// a real run — which is the point: the simulator must not reimplement them.
// ---------------------------------------------------------------------------

struct FakeComm {
    Universe uni;
    xmpi_comm_t comm;

    explicit FakeComm(World const& w) {
        uni.cfg = w.cfg;
        uni.size = w.size;
        uni.node_of_world = w.node_map;
        comm.universe = &uni;
        comm.context = 0;
        comm.group.resize(static_cast<std::size_t>(w.size));
        std::iota(comm.group.begin(), comm.group.end(), 0);
        comm.world_to_comm = comm.group;
        comm.my_rank = 0;
    }

    /// Repoints the copy at simulated rank `r` (the node cache is shared
    /// across ranks; only the my_node shortcut is per-rank).
    void set_rank(int r) {
        comm.my_rank = r;
        if (comm.node_cache != nullptr) {
            comm.node_cache->my_node = comm.node_cache->node_of[static_cast<std::size_t>(r)];
        }
    }
};

/// Builtin datatype of one simulated element (tapes carry only byte counts,
/// but builders compute element offsets, so the type must be real).
MPI_Datatype type_of(int elem_size) {
    switch (elem_size) {
        case 1: return MPI_BYTE;
        case 4: return MPI_INT;
        case 8: return MPI_DOUBLE;
        default: return nullptr;
    }
}

/// Reduction-op stand-in matching the spec's (commutative, elementwise)
/// properties. Element-wise commutative reductions use the real MPI_SUM
/// singleton; user-op stand-ins carry a function that can never run (dry
/// builds discard local steps).
MPI_Op op_of(bool commutative, bool elementwise) {
    if (elementwise) return commutative ? MPI_SUM : nullptr;
    static xmpi_op_t user_commutative = [] {
        xmpi_op_t op;
        op.fn = [](void*, void*, int*, MPI_Datatype*) {};
        op.commutative = true;
        op.builtin = false;
        return op;
    }();
    static xmpi_op_t user_noncommutative = [] {
        xmpi_op_t op;
        op.fn = [](void*, void*, int*, MPI_Datatype*) {};
        op.commutative = false;
        op.builtin = false;
        return op;
    }();
    return commutative ? &user_commutative : &user_noncommutative;
}

bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

/// Flat, or one node id in [0, size) per rank (topo::node_info indexes by it).
bool valid_world(World const& w) {
    return w.size >= 1 && (w.node_map.empty() ||
                           (static_cast<int>(w.node_map.size()) == w.size &&
                            std::all_of(w.node_map.begin(), w.node_map.end(),
                                        [&](int n) { return n >= 0 && n < w.size; })));
}

/// Largest per-message element count a builder of this algorithm computes,
/// as a multiple of the spec's count. Builders form these counts as ints
/// (the real substrate never sees a communicator this large), so infeasible
/// combinations must be refused *before* building — skipped and reported,
/// never silently mis-built.
long long count_multiplier(Family f, alg::AlgInfo const& a, int p, int max_ppn) {
    if (f == Family::allgather) {
        if (a.hier) return p;  // phase-C bcast of the full p-block vector
        if (std::strcmp(a.name, "rdoubling") == 0) return p / 2;  // doubling windows
        return 1;  // flat / ring move single blocks
    }
    if (f == Family::alltoall) {
        if (a.hier)  // node-pair bundles of up to ppn^2 blocks, p-block tapes
            return std::max<long long>(p, static_cast<long long>(max_ppn) * max_ppn);
        if (std::strcmp(a.name, "bruck") == 0) return (p + 1) / 2;  // round bundles
        return 1;  // pairwise moves single blocks
    }
    return 1;  // bcast / reduce / allreduce counts never exceed the vector
}

/// Fake user buffers live in address ranges no real allocation (or the dry
/// scratch base at 1 << 46) can occupy; builders offset into them but only
/// dereference inside discarded local steps.
void* fake_sendbuf() { return reinterpret_cast<void*>(std::uintptr_t{1} << 44); }
void* fake_recvbuf() { return reinterpret_cast<void*>(std::uintptr_t{3} << 44); }

int dry_build_one(Family f, int alg_idx, alg::Schedule& s, CollSpec const& spec, MPI_Datatype type,
                  MPI_Op op) {
    switch (f) {
        case Family::bcast:
            return alg::build_bcast(alg_idx, s, fake_recvbuf(), spec.count, type, spec.root);
        case Family::reduce:
            return alg::build_reduce(alg_idx, s, fake_sendbuf(), fake_recvbuf(), spec.count,
                                     type, op, spec.root);
        case Family::allgather:
            return alg::build_allgather(alg_idx, s, fake_recvbuf(), spec.count, type);
        case Family::allreduce:
            return alg::build_allreduce(alg_idx, s, fake_sendbuf(), fake_recvbuf(), spec.count,
                                        type, op);
        case Family::alltoall:
            return alg::build_alltoall(alg_idx, s, fake_sendbuf(), spec.count, type,
                                       fake_recvbuf(), spec.count, type);
    }
    return MPI_ERR_ARG;  // unreachable
}

Result fail(Result res, int err, std::string detail) {
    res.error = err;
    res.detail = std::move(detail);
    return res;
}

// ---------------------------------------------------------------------------
// Replay with static matching. A channel (dst, src, tag) has one sender and
// one receiver, each running its own tape in order, so the k-th send on a
// channel pairs with the k-th post on it (the mailbox's FIFO discipline;
// collective tags are unique per (seq, step)), whatever the timing. match()
// pairs them all before the loop runs.
//
// The loop is run-to-block: a ready rank executes steps, one event each,
// until it finishes or blocks on a wait whose send has not happened yet;
// that send re-readies it. State is one arrival time and sent flag per post
// and one "blocked on post g" word per rank. Clocks start at the caller's
// start clocks and take the transport's own cost:: charges (no compute):
//   send: vnow += o; arrival = vnow + alpha + wire      (cost::message)
//   post: free (a plain step)
//   wait: vnow = max(vnow, arrival of the matched send)
// Shared-memory copy steps use the same channels (their tape tags carry a
// high marker bit, so they never alias a message channel) and the copy tier:
//   copy_pub:  publisher's clock unchanged; arrival = vnow + sync  (cost::copy)
//   copy_wait: vnow = max(vnow, arrival) + load
// ---------------------------------------------------------------------------

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

bool is_send(alg::TapeStep const& st) {
    return st.kind == alg::TapeStep::kSend || st.kind == alg::TapeStep::kCopyPub;
}

/// One thread's simulator working memory: the tape sink and every match and
/// replay array. A call clears it but keeps its capacity, so a steady-state
/// call faults in no page and never regrows its tape. Each thread keeps the
/// capacity of the largest tape it simulated until the thread exits.
struct Workspace {
    struct Entry { std::uint64_t key; std::uint32_t head, tail; };
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    alg::DrySink sink;
    std::vector<std::uint32_t> step_begin, slot_begin;
    // match(): sends bucketed by destination, one destination's table.
    std::vector<std::uint32_t> post_of, in_begin, fill, in_step, next;
    std::vector<std::uint64_t> in_key;
    std::vector<Entry> table;  ///< every key kEmpty between destinations
    // The event loop.
    std::vector<double> arrival, finish;
    std::vector<std::uint8_t> sent;
    std::vector<std::uint32_t> blocked_on, pos, ready;
};

Workspace& workspace() {
    thread_local Workspace ws;
    return ws;
}

/// Grows `v` to at least `n` elements and never shrinks it; the caller
/// uses the first n, which it overwrites before reading.
template <typename T>
void at_least(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
}

/// Sets ws.post_of[i] to the global slot the send at step i pairs with
/// (kNone if none). A counting sort buckets the sends by destination; each
/// destination's posts and incoming sends meet in a table sized to that one
/// rank, so it stays in cache. Returns the number of channels whose send and
/// post counts differ, or -1 if a step names a rank or slot out of range.
long long match(std::vector<alg::TapeStep> const& steps,
                std::vector<std::uint32_t> const& step_begin,
                std::vector<std::uint32_t> const& slot_begin, Workspace& ws) {
    using Entry = Workspace::Entry;
    constexpr std::uint64_t kEmpty = Workspace::kEmpty;
    std::size_t const p = step_begin.size() - 1;
    ws.post_of.assign(steps.size(), kNone);
    std::vector<std::uint32_t>& in_begin = ws.in_begin;
    in_begin.assign(p + 1, 0);
    for (std::size_t r = 0; r < p; ++r) {
        for (std::uint32_t i = step_begin[r]; i < step_begin[r + 1]; ++i) {
            alg::TapeStep const& st = steps[i];
            // A send names its destination rank, a wait its own receive slot.
            std::size_t const bound = is_send(st) ? p : slot_begin[r + 1] - slot_begin[r];
            if (st.kind != alg::TapeStep::kPost && st.a >= bound) return -1;
            if (is_send(st)) ++in_begin[st.a + 1];
        }
    }
    std::partial_sum(in_begin.begin(), in_begin.end(), in_begin.begin());
    ws.fill.assign(in_begin.begin(), in_begin.end() - 1);
    at_least(ws.in_key, in_begin[p]);  // (src << 16) | tag
    at_least(ws.in_step, in_begin[p]);
    for (std::size_t r = 0; r < p; ++r) {
        for (std::uint32_t i = step_begin[r]; i < step_begin[r + 1]; ++i) {
            if (!is_send(steps[i])) continue;
            std::uint32_t const j = ws.fill[steps[i].a]++;
            ws.in_key[j] = (std::uint64_t{r} << 16) | steps[i].tag;
            ws.in_step[j] = i;
        }
    }
    // Per destination: chain its posts FIFO per key, then let its incoming
    // sends (in sender tape order) pop them. A key that runs out of posts
    // gets tail = kNone; one with posts left keeps a head.
    std::vector<Entry>& table = ws.table;
    std::vector<std::uint32_t>& next = ws.next;
    long long unmatched = 0;
    for (std::size_t d = 0; d < p; ++d) {
        std::uint32_t const nposts = slot_begin[d + 1] - slot_begin[d];
        std::size_t const want = 2 * (std::size_t{nposts} + in_begin[d + 1] - in_begin[d]);
        int const bits = std::max(4, static_cast<int>(std::bit_width(want)));
        std::size_t const mask = (std::size_t{1} << bits) - 1;
        if (table.size() <= mask) table.resize(mask + 1, Entry{kEmpty, kNone, kNone});
        at_least(next, nposts);
        auto find = [&](std::uint64_t key) -> Entry& {
            // High bits of the product: its low bits see only the key's low bits.
            std::size_t h = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
            while (table[h].key != key && table[h].key != kEmpty) h = (h + 1) & mask;
            if (table[h].key == kEmpty) table[h] = {key, kNone, kNone};
            return table[h];
        };
        // Empties this destination's table for the next one (and the next
        // call: the table outlives it), counting the keys left unmatched.
        auto drain = [&] {
            for (std::size_t h = 0; h <= mask; ++h) {
                Entry& e = table[h];
                unmatched += e.key != kEmpty && (e.head != kNone || e.tail == kNone);
                e.key = kEmpty;
            }
        };
        std::uint32_t k = 0;
        for (std::uint32_t i = step_begin[d]; i < step_begin[d + 1]; ++i) {
            if (steps[i].kind != alg::TapeStep::kPost) continue;
            if (k == nposts) {
                drain();
                return -1;
            }
            Entry& e = find((std::uint64_t{steps[i].a} << 16) | steps[i].tag);
            (e.head == kNone ? e.head : next[e.tail]) = k;
            e.tail = k;
            next[k++] = kNone;
        }
        for (std::uint32_t j = in_begin[d]; j < in_begin[d + 1]; ++j) {
            Entry& e = find(ws.in_key[j]);
            if (e.head == kNone) {
                e.tail = kNone;
                continue;
            }
            ws.post_of[ws.in_step[j]] = slot_begin[d] + e.head;
            e.head = next[e.head];
        }
        drain();
    }
    return unmatched;
}

/// The event loop over tapes already in the workspace's shape (see
/// replay()); rank r's clock starts at start[r] (0 if `start` is empty), and
/// per-rank finish times are copied out only if `keep_finish`. Only the
/// kProvenance instantiation calls the observer; simulate() runs the other.
template <bool kProvenance>
Result run_tapes(World const& w, alg::DrySink const& sink,
                 std::vector<std::uint32_t> const& step_begin,
                 std::vector<std::uint32_t> const& slot_begin, std::vector<double> const& start,
                 bool keep_finish, Workspace& ws, Provenance* prov) {
    Result res;
    std::size_t const p = static_cast<std::size_t>(w.size);
    auto const& steps = sink.steps;
    Config const& cfg = w.cfg;
    long long const unmatched = match(steps, step_begin, slot_begin, ws);
    if (unmatched < 0) {
        return fail(std::move(res), MPI_ERR_ARG,
                    "malformed tape: a step names a rank or receive slot out of range");
    }
    std::vector<std::uint32_t> const& post_of = ws.post_of;
    std::vector<double>& arrival = ws.arrival;  // read only once sent[g] is set
    at_least(arrival, slot_begin[p]);
    std::vector<std::uint8_t>& sent = ws.sent;
    sent.assign(slot_begin[p], 0);
    std::vector<std::uint32_t>& blocked_on = ws.blocked_on;
    blocked_on.assign(p, kNone);
    std::vector<std::uint32_t>& pos = ws.pos;
    pos.assign(step_begin.begin(), step_begin.end() - 1);
    std::vector<std::uint32_t>& ready = ws.ready;  // a stack: rank 0 runs first
    ready.resize(p);
    std::iota(ready.rbegin(), ready.rend(), 0u);
    std::vector<double>& finish = ws.finish;
    finish.assign(p, 0.0);
    std::copy(start.begin(), start.end(), finish.begin());
    if constexpr (kProvenance) prov->begin(finish, slot_begin[p]);
    long long const limit = effective_event_limit();
    std::size_t finished = 0;
    while (!ready.empty()) {
        std::uint32_t const r = ready.back();
        ready.pop_back();
        std::uint32_t const end = step_begin[r + 1];
        double t = finish[r];
        for (; pos[r] < end; ++pos[r]) {
            alg::TapeStep const& st = steps[pos[r]];
            if (st.kind == alg::TapeStep::kWait || st.kind == alg::TapeStep::kCopyWait) {
                std::uint32_t const g = slot_begin[r] + st.a;
                if (!sent[g]) {
                    blocked_on[r] = g;
                    break;
                }
                bool const gated = arrival[g] > t;
                if (gated) t = arrival[g];
                double const load =
                    st.kind == alg::TapeStep::kCopyWait ? cost::copy(cfg, st.bytes).load : 0.0;
                t += load;
                if constexpr (kProvenance) prov->wait(r, g, gated, load);
            } else if (is_send(st)) {
                std::uint32_t const dst = st.a;
                std::uint32_t const g = post_of[pos[r]];
                double a;
                if (st.kind == alg::TapeStep::kCopyPub) {
                    // Rendezvous publish: the cell becomes visible one sync
                    // constant later; the consumer's kCopyWait pays per byte.
                    double const sync = cost::copy(cfg, st.bytes).sync;
                    a = t + sync;
                    if constexpr (kProvenance) prov->send(r, g, true, 0.0, sync, 0.0);
                } else {
                    bool const intra = !w.node_map.empty() && w.node_map[r] == w.node_map[dst];
                    cost::Message const m = cost::message(cfg, intra, st.bytes);
                    t += m.o;
                    a = t + m.alpha + m.wire;
                    if constexpr (kProvenance) prov->send(r, g, intra, m.o, m.alpha, m.wire);
                }
                if (g != kNone) {
                    arrival[g] = a;
                    sent[g] = 1;
                    if (blocked_on[dst] == g) {
                        ready.push_back(dst);
                        blocked_on[dst] = kNone;
                    }
                }
            }
            ++res.events;
            if (limit > 0 && res.events > static_cast<std::uint64_t>(limit)) {
                return fail(std::move(res), MPI_ERR_OTHER,
                            "event limit (" + std::to_string(limit) +
                                ") exceeded; raise it via XMPI_T_sim_event_limit_set or "
                                "XMPI_SIM_EVENT_LIMIT");
            }
        }
        finish[r] = t;
        if (pos[r] == end) ++finished;
    }
    if (finished < p) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    "simulated deadlock: " + std::to_string(p - finished) + " of " +
                        std::to_string(p) + " ranks blocked on receives no send covers");
    }
    if (unmatched != 0) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    std::to_string(unmatched) +
                        " channels with unmatched sends/posts (tape is not a closed "
                        "collective exchange)");
    }
    res.makespan = *std::max_element(finish.begin(), finish.end());
    if (keep_finish) res.finish.assign(finish.begin(), finish.end());
    return res;
}

/// Dry-builds per-rank tapes into the workspace's sink through the real
/// builders, for one (spec, algorithm) on the fake communicator.
struct RankBuilder {
    FakeComm& fc;
    CollSpec const& spec;
    int alg_idx;
    char const* alg_name;
    MPI_Datatype type;
    MPI_Op op;
    Workspace& ws;

    /// Appends rank r's tape to the sink. On failure, returns the error
    /// code and sets `detail`.
    int build(int r, std::string& detail) {
        fc.set_rank(r);
        alg::Schedule s(&fc.comm, /*seq=*/0);
        s.begin_dry(&ws.sink);
        int const rc = dry_build_one(spec.family, alg_idx, s, spec, type, op);
        g_dry_builds.fetch_add(1, std::memory_order_relaxed);
        if (rc != MPI_SUCCESS) {
            detail = std::string("builder \"") + alg_name + "\" failed at rank " +
                     std::to_string(r);
            return rc;
        }
        if (ws.sink.over_tag >= 0) {
            detail = std::string("dry-built tape for \"") + alg_name +
                     "\" exceeds the 10-bit step-tag budget (tag " +
                     std::to_string(ws.sink.over_tag) +
                     " >= 1024): messages of distinct phases would alias under coll_tag(); "
                     "raise the pipeline segment size via XMPI_SEGMENT_BYTES / "
                     "XMPI_T_segment_set, or coarsen the topology via XMPI_RANKS_PER_NODE / "
                     "XMPI_T_topo_set";
            return MPI_ERR_OTHER;
        }
        return MPI_SUCCESS;
    }

    /// build(), keeping the tape as rank r's: records where its steps and
    /// receive slots begin and end.
    int store(int r, std::string& detail) {
        auto const ur = static_cast<std::size_t>(r);
        ws.step_begin[ur] = static_cast<std::uint32_t>(ws.sink.steps.size());
        int const rc = build(r, detail);
        ws.step_begin[ur + 1] = static_cast<std::uint32_t>(ws.sink.steps.size());
        ws.slot_begin[ur + 1] = ws.slot_begin[ur] + static_cast<std::uint32_t>(ws.sink.nslots);
        return rc;
    }
};

}  // namespace

char const* alg_name(Family f, int alg) {
    auto const& t = alg::algorithms(f);
    if (alg < 0 || alg >= static_cast<int>(t.size())) return "?";
    return t[static_cast<std::size_t>(alg)].name;
}

int select_at_scale(World const& w, CollSpec const& spec) {
    if (!valid_world(w)) return -1;
    if (spec.force_alg >= 0) return spec.force_alg;
    FakeComm fc(w);
    return alg::select(spec.family, &fc.comm, spec.bytes(), spec.commutative, spec.elementwise);
}

Result simulate(World const& w, CollSpec const& spec, Options const& opt) {
    Result res;
    if (!valid_world(w) || spec.count < 0 || spec.root < 0 || spec.root >= w.size) {
        return fail(std::move(res), MPI_ERR_ARG, "malformed simulated world / spec");
    }
    MPI_Datatype const type = type_of(spec.elem_size);
    if (type == nullptr) {
        return fail(std::move(res), MPI_ERR_ARG, "elem_size must be 1, 4 or 8");
    }
    MPI_Op const op = op_of(spec.commutative, spec.elementwise);
    bool const needs_op = spec.family == Family::reduce || spec.family == Family::allreduce;
    if (needs_op && op == nullptr) {
        return fail(std::move(res), MPI_ERR_ARG,
                    "non-commutative element-wise reductions have no builtin stand-in");
    }

    FakeComm fc(w);
    MPI_Comm const comm = &fc.comm;
    int const p = w.size;
    auto const& table = alg::algorithms(spec.family);
    topo::NodeInfo const& ni = topo::node_info(comm);

    int alg_idx;
    if (spec.force_alg >= 0) {
        if (spec.force_alg >= static_cast<int>(table.size())) {
            return fail(std::move(res), MPI_ERR_ARG, "force_alg out of range");
        }
        alg::AlgInfo const& a = table[static_cast<std::size_t>(spec.force_alg)];
        if ((a.needs_pow2 && !is_pow2(p)) || (a.needs_commutative && !spec.commutative) ||
            (a.needs_elementwise && !spec.elementwise) || (a.hier && !ni.is_hierarchical())) {
            return fail(std::move(res), MPI_ERR_ARG,
                        std::string("algorithm \"") + a.name +
                            "\" is invalid for this (p, op, topology) combination");
        }
        alg_idx = spec.force_alg;
    } else {
        alg_idx = alg::select(spec.family, comm, spec.bytes(), spec.commutative,
                              spec.elementwise);
    }
    res.alg = alg_idx;
    res.alg_name = table[static_cast<std::size_t>(alg_idx)].name;

    // Feasibility before building: builders form per-message element counts
    // as ints, and fake buffer offsets must stay inside their 16 TiB ranges.
    long long const mult =
        count_multiplier(spec.family, table[static_cast<std::size_t>(alg_idx)], p, ni.max_ppn);
    if (static_cast<long long>(spec.count) * mult > INT_MAX) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    std::string("infeasible: algorithm \"") + res.alg_name +
                        "\" would form per-message int counts above INT_MAX at p = " +
                        std::to_string(p) + " (count * " + std::to_string(mult) + ")");
    }
    if ((spec.family == Family::allgather || spec.family == Family::alltoall) &&
        static_cast<double>(spec.bytes()) * static_cast<double>(p) > 8e12) {
        return fail(std::move(res), MPI_ERR_OTHER,
                    "infeasible: aggregate buffer span exceeds the fake address range");
    }

    // Dry-build one tape per simulated rank through the real builders. Once
    // the stored tape passes cap / 8 and its per-rank average projects it
    // past the cap, the remaining ranks are counted, not stored: each is
    // built, its length added to the count and its steps dropped. A count
    // past the cap refuses the tape, so a tape is refused exactly when its
    // true length exceeds the cap; a count within it builds the counted
    // ranks again, keeping them.
    auto const t_build0 = std::chrono::steady_clock::now();
    Workspace& ws = workspace();
    alg::DrySink& sink = ws.sink;
    sink.clear();
    ws.step_begin.assign(static_cast<std::size_t>(p) + 1, 0);
    ws.slot_begin.assign(static_cast<std::size_t>(p) + 1, 0);
    RankBuilder rb{fc, spec, alg_idx, res.alg_name, type, op, ws};
    std::uint64_t const cap = opt.max_tape_steps;
    auto refuse_cap = [&] {
        return fail(std::move(res), MPI_ERR_OTHER,
                    std::string("tape exceeds the step cap (") + std::to_string(cap) +
                        " steps) — combination skipped, not truncated");
    };
    std::string detail;
    int counted_from = p;  // first rank built only to count its steps
    for (int r = 0; r < p && counted_from == p; ++r) {
        if (int const rc = rb.store(r, detail); rc != MPI_SUCCESS) {
            return fail(std::move(res), rc, std::move(detail));
        }
        std::uint64_t const stored = sink.steps.size();
        if (stored > cap) return refuse_cap();
        if (stored > cap / 8 &&
            static_cast<double>(stored) / (r + 1) * p > static_cast<double>(cap)) {
            counted_from = r + 1;
        }
    }
    if (counted_from < p) {
        std::size_t const base = sink.steps.size();
        std::uint64_t count = base;
        for (int r = counted_from; r < p; ++r) {
            if (int const rc = rb.build(r, detail); rc != MPI_SUCCESS) {
                return fail(std::move(res), rc, std::move(detail));
            }
            count += sink.steps.size() - base;
            sink.steps.resize(base);
            if (count > cap) return refuse_cap();
        }
        for (int r = counted_from; r < p; ++r) {
            if (int const rc = rb.store(r, detail); rc != MPI_SUCCESS) {
                return fail(std::move(res), rc, std::move(detail));
            }
        }
    }
    res.tape_steps = sink.steps.size();
    g_tape_steps.fetch_add(res.tape_steps, std::memory_order_relaxed);
    auto const t_build1 = std::chrono::steady_clock::now();
    res.build_seconds = std::chrono::duration<double>(t_build1 - t_build0).count();

    Result run =
        run_tapes<false>(w, sink, ws.step_begin, ws.slot_begin, {}, opt.keep_finish, ws, nullptr);
    g_events.fetch_add(run.events, std::memory_order_relaxed);
    res.events = run.events;
    res.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_build1).count();
    if (run.error != MPI_SUCCESS) return fail(std::move(res), run.error, std::move(run.detail));
    res.makespan = run.makespan;
    g_last_makespan.store(res.makespan, std::memory_order_relaxed);
    if (opt.keep_finish) res.finish = std::move(run.finish);
    return res;
}

Result replay(World const& w, alg::DrySink const& sink,
              std::vector<std::uint32_t> const& step_begin,
              std::vector<std::uint32_t> const& slot_begin, std::vector<double> const& start,
              Provenance* provenance) {
    if (!start.empty() && start.size() + 1 != step_begin.size()) {
        return fail(Result{}, MPI_ERR_ARG, "malformed tape: one start clock per rank");
    }
    Workspace& ws = workspace();
    if (provenance != nullptr) {
        return run_tapes<true>(w, sink, step_begin, slot_begin, start, true, ws, provenance);
    }
    return run_tapes<false>(w, sink, step_begin, slot_begin, start, true, ws, nullptr);
}

void reset_sim_env_cache_for_testing() {
    envutil::reset_warnings();  // a fresh resolution re-warns on invalid values
    std::lock_guard<std::mutex> lock(g_sim_env_mutex);
    g_sim_env_resolved.store(false, std::memory_order_release);
}

}  // namespace xmpi::detail::sim

// ---------------------------------------------------------------------------
// Control API (declared in <xmpi/mpi.h>).
// ---------------------------------------------------------------------------

int XMPI_T_sim_event_limit_set(long long limit) {
    if (limit < -1) return MPI_ERR_ARG;
    xmpi::detail::sim::g_forced_event_limit.store(limit, std::memory_order_relaxed);
    return MPI_SUCCESS;
}

int XMPI_T_sim_event_limit_get(long long* limit) {
    if (limit == nullptr) return MPI_ERR_ARG;
    *limit = xmpi::detail::sim::effective_event_limit();
    return MPI_SUCCESS;
}

int XMPI_T_sim_stats(unsigned long long* dry_builds, unsigned long long* tape_steps,
                     unsigned long long* events, double* last_makespan) {
    using namespace xmpi::detail::sim;
    if (dry_builds != nullptr) *dry_builds = g_dry_builds.load(std::memory_order_relaxed);
    if (tape_steps != nullptr) *tape_steps = g_tape_steps.load(std::memory_order_relaxed);
    if (events != nullptr) *events = g_events.load(std::memory_order_relaxed);
    if (last_makespan != nullptr) *last_makespan = g_last_makespan.load(std::memory_order_relaxed);
    return MPI_SUCCESS;
}

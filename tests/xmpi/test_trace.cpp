/// @file test_trace.cpp
/// @brief Event tracing and the pvar registry: ring overflow semantics, the
/// traced event stream of a hierarchical allreduce checked step-for-step
/// against its dry-built schedule tape, Chrome trace-event export
/// well-formedness and send/recv flow pairing, pvar enumeration coverage of
/// every counter reachable through the legacy stats structs, byte-identity
/// of counters between traced and untraced runs, blocking-wait wall-time
/// accounting, thread-CPU clock reads per MPI call, warn-once validation of
/// the trace environment knobs, and the per-invocation critical-path
/// attribution replay.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "src/xmpi/algorithms/algorithms.hpp"
#include "src/xmpi/internal.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

namespace xd = xmpi::detail;
namespace xt = xmpi::detail::trace;

using testing_utils::AlgPin;
using testing_utils::EnvVar;
using testing_utils::TopoPin;

/// Adding a Counters field must extend kExpectedPvars below (and the
/// registry table in trace.cpp, which carries the same assert).
static_assert(sizeof(xmpi::Counters) == 12 * sizeof(std::uint64_t),
              "Counters changed: update the pvar coverage list in this test");

/// Guarantees a variable is unset for the scope.
struct EnvUnset {
    explicit EnvUnset(char const* name) : name_(name) {
        char const* const old = std::getenv(name);
        had_ = old != nullptr;
        if (had_) old_ = old;
        unsetenv(name);
        XMPI_T_alg_env_refresh();
    }
    ~EnvUnset() {
        if (had_) setenv(name_, old_.c_str(), 1);
        XMPI_T_alg_env_refresh();
    }
    EnvUnset(EnvUnset const&) = delete;
    EnvUnset& operator=(EnvUnset const&) = delete;

private:
    char const* name_;
    bool had_ = false;
    std::string old_;
};

int pvar_index(std::string const& name) {
    int num = 0;
    if (XMPI_T_pvar_num(&num) != MPI_SUCCESS) return -1;
    char buf[128];
    for (int i = 0; i < num; ++i) {
        if (XMPI_T_pvar_name(i, buf, sizeof(buf), nullptr) != MPI_SUCCESS) return -1;
        if (name == buf) return i;
    }
    return -1;
}

unsigned long long pvar_read_scalar(int index) {
    unsigned long long v = 0;
    int count = 1;
    EXPECT_EQ(XMPI_T_pvar_read(index, &v, &count), MPI_SUCCESS) << "pvar " << index;
    EXPECT_EQ(count, 1);
    return v;
}

bool file_exists(std::string const& path) {
    std::FILE* const f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return false;
    std::fclose(f);
    return true;
}

std::string read_file(std::string const& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t count_occurrences(std::string const& hay, std::string const& needle) {
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/// Minimal recursive-descent JSON well-formedness checker — enough to assert
/// the exporter emits something a real trace viewer's parser will accept.
class JsonChecker {
public:
    explicit JsonChecker(std::string const& s) : s_(s) {}
    bool valid() {
        skip();
        if (!value()) return false;
        skip();
        return pos_ == s_.size();
    }

private:
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skip() {
        while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                    s_[pos_] == '\r'))
            ++pos_;
    }
    bool lit(char const* w) {
        std::size_t const n = std::strlen(w);
        if (s_.compare(pos_, n, w) != 0) return false;
        pos_ += n;
        return true;
    }
    bool string_lit() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;
        return true;
    }
    bool number() {
        std::size_t const start = pos_;
        if (peek() == '-') ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        if (peek() == '.') {
            ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
        }
        return pos_ > start;
    }
    bool array() {
        ++pos_;  // '['
        skip();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skip();
            if (!value()) return false;
            skip();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skip();
            if (!string_lit()) return false;
            skip();
            if (peek() != ':') return false;
            ++pos_;
            skip();
            if (!value()) return false;
            skip();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }
    bool value() {
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return string_lit();
            case 't': return lit("true");
            case 'f': return lit("false");
            case 'n': return lit("null");
            default: return number();
        }
    }

    std::string const& s_;
    std::size_t pos_ = 0;
};

bool is_step_event(xt::Record const& r) {
    auto const k = static_cast<xt::Ev>(r.kind);
    return k == xt::Ev::step_send || k == xt::Ev::step_post || k == xt::Ev::step_wait;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring semantics
// ---------------------------------------------------------------------------

TEST(Trace, RingOverflowKeepsNewestAndCountsDrops) {
    EXPECT_EQ(xt::Ring(1).capacity(), 16u);   // floor
    EXPECT_EQ(xt::Ring(40).capacity(), 64u);  // rounds up to a power of two

    xt::Ring ring(16);
    ASSERT_EQ(ring.capacity(), 16u);
    for (std::uint64_t i = 0; i < 40; ++i) {
        xt::Record r;
        r.seq = i;
        ring.push(r);
    }
    EXPECT_EQ(ring.recorded(), 40u);
    EXPECT_EQ(ring.dropped(), 24u);
    auto const snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 16u);
    EXPECT_EQ(snap.front().seq, 24u);  // oldest retained is the 25th push
    EXPECT_EQ(snap.back().seq, 39u);
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, snap[i - 1].seq + 1);
    }
}

// ---------------------------------------------------------------------------
// Traced events vs. the dry-built schedule tape
// ---------------------------------------------------------------------------

TEST(Trace, HierarchicalAllreduceEventsMatchDryTape) {
    TopoPin const topo(2);
    // The p2p step stream is what this test pins byte-for-byte; the shm
    // transport replaces intra phases with copy steps whose dry lowering is
    // intentionally different (one pseudo-send per reader), so pin it off.
    testing_utils::ShmPin const shm(0);
    AlgPin const pin("allreduce", "hierarchical");
    std::string const path = "trace_hier_allreduce.json";
    std::remove(path.c_str());
    EnvVar const env("XMPI_TRACE", path);

    constexpr int kRanks = 4;
    constexpr int kCount = 96;
    std::vector<std::vector<xd::alg::TapeStep>> tapes(kRanks);

    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    xmpi::run(
        kRanks,
        [&](int r) {
            std::vector<int> in(kCount, r + 1);
            std::vector<int> out(kCount, -1);
            MPI_Comm const world = xd::tls_rank()->world;
            int const idx = xd::alg::select(xd::alg::Family::allreduce, world,
                                            kCount * sizeof(int), true, true);
            ASSERT_STREQ(
                xd::alg::algorithms(xd::alg::Family::allreduce)[static_cast<std::size_t>(idx)]
                    .name,
                "hierarchical");
            // Dry-build the exact tape this invocation will execute.
            xd::alg::DrySink sink;
            sink.begin_build();
            xd::alg::Schedule dry(world, 0);
            dry.begin_dry(&sink);
            ASSERT_EQ(xd::alg::build_allreduce(idx, dry, in.data(), out.data(), kCount,
                                               MPI_INT, MPI_SUM),
                      MPI_SUCCESS);
            tapes[static_cast<std::size_t>(r)] = sink.steps;

            ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), kCount, MPI_INT, MPI_SUM,
                                    MPI_COMM_WORLD),
                      MPI_SUCCESS);
            for (int v : out) ASSERT_EQ(v, 1 + 2 + 3 + 4);
        },
        cfg);

    auto const lr = xt::last_run();
    ASSERT_TRUE(lr.valid);
    EXPECT_EQ(lr.world_size, kRanks);
    EXPECT_EQ(lr.dropped, 0u);

    // The traced collective's sequence number, from its enter event.
    std::uint64_t seq = ~0ull;
    for (auto const& rec : lr.records) {
        if (static_cast<xt::Ev>(rec.kind) == xt::Ev::coll_enter &&
            rec.family == static_cast<std::uint8_t>(xd::alg::Family::allreduce)) {
            seq = rec.seq;
            break;
        }
    }
    ASSERT_NE(seq, ~0ull);

    for (int r = 0; r < kRanks; ++r) {
        std::vector<xt::Record> got;
        for (auto const& rec : lr.records) {
            if (rec.rank == r && rec.seq == seq && is_step_event(rec)) got.push_back(rec);
        }
        auto const& tape = tapes[static_cast<std::size_t>(r)];
        ASSERT_EQ(got.size(), tape.size()) << "rank " << r;
        std::size_t sends = 0;
        for (std::size_t i = 0; i < tape.size(); ++i) {
            auto const& ts = tape[i];
            auto const& rec = got[i];
            switch (ts.kind) {
                case xd::alg::TapeStep::kSend:
                    ++sends;
                    EXPECT_EQ(static_cast<xt::Ev>(rec.kind), xt::Ev::step_send)
                        << "rank " << r << " step " << i;
                    // MPI_COMM_WORLD: comm rank == world rank.
                    EXPECT_EQ(rec.peer, static_cast<int>(ts.a));
                    EXPECT_EQ(rec.tag, xd::coll_tag(seq, ts.tag));
                    EXPECT_EQ(rec.bytes, ts.bytes);
                    break;
                case xd::alg::TapeStep::kPost:
                    EXPECT_EQ(static_cast<xt::Ev>(rec.kind), xt::Ev::step_post)
                        << "rank " << r << " step " << i;
                    EXPECT_EQ(rec.peer, static_cast<int>(ts.a));
                    EXPECT_EQ(rec.tag, xd::coll_tag(seq, ts.tag));
                    EXPECT_EQ(rec.bytes, ts.bytes);
                    break;
                case xd::alg::TapeStep::kWait:
                    EXPECT_EQ(static_cast<xt::Ev>(rec.kind), xt::Ev::step_wait)
                        << "rank " << r << " step " << i;
                    EXPECT_EQ(rec.peer, static_cast<int>(ts.a));  // slot index
                    break;
                default:
                    FAIL() << "unknown tape step kind";
            }
        }
        EXPECT_GT(sends, 0u) << "rank " << r;
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

TEST(Trace, ChromeJsonExportIsWellFormedWithPairedFlows) {
    std::string const path = "trace_export.json";
    std::remove(path.c_str());
    EnvVar const env("XMPI_TRACE", path);

    xmpi::run(4, [](int r) {
        std::vector<int> in(64, r + 1);
        std::vector<int> out(64, 0);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 64, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (r == 0) {
            ASSERT_EQ(MPI_Send(in.data(), 64, MPI_INT, 1, 5, MPI_COMM_WORLD), MPI_SUCCESS);
        } else if (r == 1) {
            ASSERT_EQ(
                MPI_Recv(out.data(), 64, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
        }
    });

    ASSERT_TRUE(file_exists(path));
    std::string const text = read_file(path);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(JsonChecker(text).valid()) << "exporter wrote malformed JSON";

    auto const lr = xt::last_run();
    ASSERT_TRUE(lr.valid);
    ASSERT_EQ(lr.dropped, 0u);
    std::size_t n_send = 0;
    std::size_t n_recv = 0;
    for (auto const& rec : lr.records) {
        if (static_cast<xt::Ev>(rec.kind) == xt::Ev::send) ++n_send;
        if (static_cast<xt::Ev>(rec.kind) == xt::Ev::recv_done) ++n_recv;
    }
    EXPECT_GT(n_send, 0u);
    EXPECT_EQ(n_send, n_recv);  // a completed blocking run consumes every message
    // Every send has a flow start and every matched receive a flow finish.
    EXPECT_EQ(count_occurrences(text, "\"ph\":\"s\""), n_send);
    EXPECT_EQ(count_occurrences(text, "\"ph\":\"f\""), n_send);
    // One lane of metadata per rank.
    EXPECT_EQ(count_occurrences(text, "\"thread_name\""), 4u);
    // Collective slices open (one enter per rank).
    EXPECT_GT(count_occurrences(text, "\"ph\":\"B\""), 0u);
    EXPECT_EQ(count_occurrences(text, "\"cat\":\"coll\""), 4u);
}

// ---------------------------------------------------------------------------
// Pvar registry
// ---------------------------------------------------------------------------

TEST(Trace, PvarRegistryCoversStatsStructs) {
    int num = 0;
    ASSERT_EQ(XMPI_T_pvar_num(&num), MPI_SUCCESS);
    EXPECT_GE(num, 27);  // 22 scalars + at least one histogram per family

    std::set<std::string> names;
    char buf[128];
    for (int i = 0; i < num; ++i) {
        int value_count = 0;
        ASSERT_EQ(XMPI_T_pvar_name(i, buf, sizeof(buf), &value_count), MPI_SUCCESS);
        EXPECT_GE(value_count, 1);
        names.insert(buf);
    }
    EXPECT_EQ(static_cast<int>(names.size()), num) << "duplicate pvar names";

    // Every counter reachable through Counters / XMPI_T_sched_stats /
    // XMPI_T_sim_stats / XMPI_T_tune_stats must be enumerable. The
    // static_assert at the top of this file pins the Counters field count.
    char const* const expected[] = {
        "counters.p2p_messages",
        "counters.p2p_bytes",
        "counters.coll_messages",
        "counters.coll_bytes",
        "counters.intra_node_messages",
        "counters.intra_node_bytes",
        "counters.schedule_builds",
        "counters.schedule_cache_hits",
        "counters.schedule_cache_evictions",
        "counters.shm_copies",
        "counters.shm_copy_bytes",
        "counters.schedule_peak_scratch_bytes.rank",
        "counters.schedule_peak_scratch_bytes.max",
        "p2p.wait_time_ns",
        "p2p.wait_parks",
        "vtime.cpu_samples",
        "sim.dry_builds",
        "sim.tape_steps",
        "sim.events",
        "sim.last_makespan_ns",
        "tune.records",
        "tune.probes",
        "tune.demotions",
        "tune.recoveries",
        "trace.events_recorded",
        "trace.events_dropped",
    };
    for (char const* name : expected) {
        EXPECT_EQ(names.count(name), 1u) << "missing pvar: " << name;
    }

    // Histogram pvars exist per (family, algorithm) with the full bucket grid.
    int const hist = pvar_index("hist.allreduce.hierarchical");
    ASSERT_GE(hist, 0);
    int value_count = 0;
    ASSERT_EQ(XMPI_T_pvar_name(hist, buf, sizeof(buf), &value_count), MPI_SUCCESS);
    EXPECT_EQ(value_count, xt::kHistSizeBuckets * xt::kHistLatBuckets);

    // Argument validation and out-of-rank behavior.
    EXPECT_EQ(XMPI_T_pvar_num(nullptr), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_pvar_name(-1, buf, sizeof(buf), &value_count), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_pvar_name(num, buf, sizeof(buf), &value_count), MPI_ERR_ARG);
    int const cm = pvar_index("counters.coll_messages");
    ASSERT_GE(cm, 0);
    unsigned long long v = 0;
    int count = 0;  // capacity too small
    EXPECT_EQ(XMPI_T_pvar_read(cm, &v, &count), MPI_ERR_ARG);
    count = 1;
    EXPECT_EQ(XMPI_T_pvar_read(cm, &v, &count), MPI_ERR_OTHER);  // outside a rank
    EXPECT_EQ(count, 0);
    EXPECT_EQ(XMPI_T_pvar_reset(cm), MPI_ERR_OTHER);  // counters are read-only

    // In-rank reads agree with the legacy structs.
    xmpi::run(2, [&](int) {
        std::vector<int> b(16, 1);
        ASSERT_EQ(MPI_Bcast(b.data(), 16, MPI_INT, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_EQ(pvar_read_scalar(cm), xmpi::counters_now().coll_messages);
        int const rank_peak = pvar_index("counters.schedule_peak_scratch_bytes.rank");
        int const max_peak = pvar_index("counters.schedule_peak_scratch_bytes.max");
        ASSERT_GE(rank_peak, 0);
        ASSERT_GE(max_peak, 0);
        EXPECT_GE(pvar_read_scalar(max_peak), pvar_read_scalar(rank_peak));
        unsigned long long builds = 0, hits = 0, evictions = 0, peak = 0;
        ASSERT_EQ(XMPI_T_sched_stats(&builds, &hits, &evictions, &peak), MPI_SUCCESS);
        EXPECT_EQ(pvar_read_scalar(pvar_index("counters.schedule_builds")), builds);
        EXPECT_EQ(pvar_read_scalar(rank_peak), peak);
    });
}

TEST(Trace, HistogramPvarRecordsInvocations) {
    // Reset every allreduce histogram, run a known number of collectives,
    // and expect exactly one sample per rank per invocation.
    int num = 0;
    ASSERT_EQ(XMPI_T_pvar_num(&num), MPI_SUCCESS);
    std::vector<int> hist_indices;
    char buf[128];
    for (int i = 0; i < num; ++i) {
        ASSERT_EQ(XMPI_T_pvar_name(i, buf, sizeof(buf), nullptr), MPI_SUCCESS);
        if (std::string(buf).rfind("hist.allreduce.", 0) == 0) hist_indices.push_back(i);
    }
    ASSERT_FALSE(hist_indices.empty());
    for (int i : hist_indices) ASSERT_EQ(XMPI_T_pvar_reset(i), MPI_SUCCESS);

    constexpr int kRanks = 2;
    constexpr int kCalls = 3;
    xmpi::run(kRanks, [](int r) {
        std::vector<int> in(256, r);
        std::vector<int> out(256, 0);
        for (int i = 0; i < kCalls; ++i) {
            ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), 256, MPI_INT, MPI_SUM,
                                    MPI_COMM_WORLD),
                      MPI_SUCCESS);
        }
    });

    std::vector<unsigned long long> values(
        static_cast<std::size_t>(xt::kHistSizeBuckets * xt::kHistLatBuckets));
    unsigned long long total = 0;
    for (int i : hist_indices) {
        int count = static_cast<int>(values.size());
        ASSERT_EQ(XMPI_T_pvar_read(i, values.data(), &count), MPI_SUCCESS);
        ASSERT_EQ(count, static_cast<int>(values.size()));
        for (auto x : values) total += x;
    }
    EXPECT_EQ(total, static_cast<unsigned long long>(kRanks * kCalls));

    for (int i : hist_indices) ASSERT_EQ(XMPI_T_pvar_reset(i), MPI_SUCCESS);
    total = 0;
    for (int i : hist_indices) {
        int count = static_cast<int>(values.size());
        ASSERT_EQ(XMPI_T_pvar_read(i, values.data(), &count), MPI_SUCCESS);
        for (auto x : values) total += x;
    }
    EXPECT_EQ(total, 0u);
}

// ---------------------------------------------------------------------------
// Tracing must not perturb the run
// ---------------------------------------------------------------------------

TEST(Trace, UntracedRunCountersIdenticalToTraced) {
    auto const workload = [](int r) {
        std::vector<int> a(64, r + 1);
        std::vector<int> b(64, 0);
        ASSERT_EQ(MPI_Allreduce(a.data(), b.data(), 64, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Bcast(b.data(), 64, MPI_INT, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        if (r == 0) {
            ASSERT_EQ(MPI_Send(a.data(), 64, MPI_INT, 1, 3, MPI_COMM_WORLD), MPI_SUCCESS);
        } else if (r == 1) {
            ASSERT_EQ(
                MPI_Recv(b.data(), 64, MPI_INT, 0, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
        }
    };

    // compute_scale = 0 makes the virtual clock pure model arithmetic; with
    // CPU time charged (the default), recording events costs real cycles and
    // the clocks legitimately differ.
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    xmpi::RunResult off;
    {
        EnvUnset const no_trace("XMPI_TRACE");
        off = xmpi::run(4, workload, cfg);
    }
    xmpi::RunResult on;
    {
        std::string const path = "trace_counters.json";
        std::remove(path.c_str());
        EnvVar const env("XMPI_TRACE", path);
        on = xmpi::run(4, workload, cfg);
        EXPECT_TRUE(file_exists(path));
    }
    EXPECT_EQ(std::memcmp(&off.total, &on.total, sizeof(xmpi::Counters)), 0)
        << "tracing changed the counters";
    EXPECT_EQ(off.max_vtime, on.max_vtime) << "tracing changed virtual time";
}

// ---------------------------------------------------------------------------
// Blocking-wait wall-time accounting (satellite bugfix)
// ---------------------------------------------------------------------------

TEST(Trace, WaitTimeAccountedAndResettable) {
    int const wi = pvar_index("p2p.wait_time_ns");
    ASSERT_GE(wi, 0);
    // Outside a rank this reads the last traced run's sum; it must not fail.
    unsigned long long v = 0;
    int count = 1;
    EXPECT_EQ(XMPI_T_pvar_read(wi, &v, &count), MPI_SUCCESS);

    xmpi::run(2, [&](int r) {
        std::vector<int> buf(4, r);
        if (r == 0) {
            // Handshake so the peer's delay overlaps our blocking receive.
            ASSERT_EQ(MPI_Send(buf.data(), 4, MPI_INT, 1, 6, MPI_COMM_WORLD), MPI_SUCCESS);
            ASSERT_EQ(
                MPI_Recv(buf.data(), 4, MPI_INT, 1, 7, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
            EXPECT_GE(pvar_read_scalar(wi), 1000000ull)
                << "a ~5ms-delayed receive must account >= 1ms of wait";
            ASSERT_EQ(XMPI_T_pvar_reset(wi), MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(wi), 0ull);
        } else {
            ASSERT_EQ(
                MPI_Recv(buf.data(), 4, MPI_INT, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
            usleep(5000);
            ASSERT_EQ(MPI_Send(buf.data(), 4, MPI_INT, 0, 7, MPI_COMM_WORLD), MPI_SUCCESS);
        }
    });

    // The receive is posted before the handshake and its reply comes a few
    // µs later, so the wait usually ends inside the spin without parking;
    // the spin still counts as waiting.
    xmpi::run(2, [&](int r) {
        std::vector<int> buf(4, r);
        if (r == 0) {
            ASSERT_EQ(XMPI_T_pvar_reset(wi), MPI_SUCCESS);
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Irecv(buf.data(), 4, MPI_INT, 1, 9, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Send(buf.data(), 4, MPI_INT, 1, 8, MPI_COMM_WORLD), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_GT(pvar_read_scalar(wi), 0ull) << "a wait that ends in the spin is still a wait";
        } else {
            ASSERT_EQ(
                MPI_Recv(buf.data(), 4, MPI_INT, 0, 8, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                MPI_SUCCESS);
            auto const until = std::chrono::steady_clock::now() + std::chrono::microseconds(5);
            while (std::chrono::steady_clock::now() < until) {
            }
            ASSERT_EQ(MPI_Send(buf.data(), 4, MPI_INT, 0, 9, MPI_COMM_WORLD), MPI_SUCCESS);
        }
    });
}

/// Returns once world rank `w` is parked on its mailbox condition variable.
/// A fixed sleep is no proof: under load the sleeper can wake before the
/// peer even reaches its wait.
void wait_until_parked(int w) {
    xd::RankState* const peer = xd::tls_rank()->universe->ranks[static_cast<std::size_t>(w)].get();
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(peer->mbox.m);
            if (peer->mbox.sleepers > 0) return;
        }
        usleep(100);
    }
}

TEST(Trace, WaitParksCountsOnlyWaitsThatReachTheConditionVariable) {
    int const pi = pvar_index("p2p.wait_parks");
    ASSERT_GE(pi, 0);
    xmpi::run(2, [&](int r) {
        int v = r;
        if (r == 0) {
            // Both ranks are running once this returns; count from here.
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            ASSERT_EQ(XMPI_T_pvar_reset(pi), MPI_SUCCESS);
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 1, 2, MPI_COMM_WORLD), MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(pi), 0ull) << "a send never waits";
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 1, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(pi), 1ull) << "one 5 ms wait parks exactly once";
        } else {
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 1, MPI_COMM_WORLD), MPI_SUCCESS);
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 0, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            wait_until_parked(0);
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 3, MPI_COMM_WORLD), MPI_SUCCESS);
        }
    });
}

// The virtual clock reads the thread-CPU clock (a syscall) at most once per
// MPI call, nested entries included, plus once before a blocking wait and
// once per wake-up.
TEST(Trace, CpuClockIsReadOncePerCall) {
    int const ci = pvar_index("vtime.cpu_samples");
    ASSERT_GE(ci, 0);
    xmpi::run(2, [&](int r) {
        int v = r;
        if (r == 0) {
            ASSERT_EQ(XMPI_T_pvar_reset(ci), MPI_SUCCESS);
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 1, 1, MPI_COMM_WORLD), MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(ci), 1ull) << "eager MPI_Send";

            ASSERT_EQ(MPI_Probe(1, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE), MPI_SUCCESS);
            ASSERT_EQ(XMPI_T_pvar_reset(ci), MPI_SUCCESS);
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 1, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(ci), 1ull) << "MPI_Recv of a queued message";

            ASSERT_EQ(XMPI_T_pvar_reset(ci), MPI_SUCCESS);
            int flag = 0;
            ASSERT_EQ(MPI_Iprobe(1, 9, MPI_COMM_WORLD, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(ci), 1ull) << "MPI_Iprobe";

            ASSERT_EQ(XMPI_T_pvar_reset(ci), MPI_SUCCESS);
            ASSERT_EQ(MPI_Gather(&v, 1, MPI_INT, nullptr, 1, MPI_INT, 1, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(ci), 1ull) << "MPI_Gather (-> MPI_Gatherv) on a non-root";

            ASSERT_EQ(XMPI_T_pvar_reset(ci), MPI_SUCCESS);
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 1, 3, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            EXPECT_EQ(pvar_read_scalar(ci), 3ull)
                << "a receive that parks once: entry, pre-block charge, one wake-up";
        } else {
            ASSERT_EQ(MPI_Recv(&v, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                      MPI_SUCCESS);
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 2, MPI_COMM_WORLD), MPI_SUCCESS);
            std::vector<int> all(2);
            ASSERT_EQ(MPI_Gather(&v, 1, MPI_INT, all.data(), 1, MPI_INT, 1, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            wait_until_parked(0);
            ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, 3, MPI_COMM_WORLD), MPI_SUCCESS);
        }
    });
}

// Spinning burns thread CPU, which the virtual clock would otherwise charge
// as compute: a receiver that spun and then parked must come out of the
// wait at the message's arrival time, not one spin budget later.
TEST(Trace, SpinningIsNotChargedAsCompute) {
    TopoPin const flat(1);
    xmpi::Config cfg;
    cfg.compute_scale = 1.0;
    double excess = 0.0;
    xmpi::run(
        2,
        [&](int r) {
            double t = 0.0;
            // Warm-up round trip, so no first-call costs land in the
            // measured exchange.
            for (int i = 0; i < 2; ++i) {
                if (r == i) {
                    ASSERT_EQ(MPI_Send(&t, 1, MPI_DOUBLE, 1 - r, 1, MPI_COMM_WORLD), MPI_SUCCESS);
                } else {
                    ASSERT_EQ(MPI_Recv(&t, 1, MPI_DOUBLE, 1 - r, 1, MPI_COMM_WORLD,
                                       MPI_STATUS_IGNORE),
                              MPI_SUCCESS);
                }
            }
            if (r == 0) {
                ASSERT_EQ(MPI_Recv(&t, 1, MPI_DOUBLE, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                          MPI_SUCCESS);
                double const done = MPI_Wtime();
                ASSERT_EQ(MPI_Recv(&t, 1, MPI_DOUBLE, 1, 2, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                          MPI_SUCCESS);
                // `t` was read just after the deposit that priced the
                // message, so t + alpha + beta * 8 is at or just past its
                // arrival: the difference bounds the receiver's own time
                // after the arrival from below.
                excess = done - (t + cfg.alpha + cfg.beta * sizeof(double));
            } else {
                // Hold the receiver in its wait for ~5 ms of wall time, and
                // put the send well ahead of its virtual clock.
                usleep(5000);
                xmpi::vtime_add(5e-3);
                ASSERT_EQ(MPI_Send(&t, 1, MPI_DOUBLE, 0, 0, MPI_COMM_WORLD), MPI_SUCCESS);
                t = MPI_Wtime();
                ASSERT_EQ(MPI_Send(&t, 1, MPI_DOUBLE, 0, 2, MPI_COMM_WORLD), MPI_SUCCESS);
            }
        },
        cfg);
    double const budget = std::chrono::duration<double>(xd::kWaitSpinBudget).count();
    EXPECT_LT(excess, budget / 2) << "the spin's CPU time leaked into the virtual clock";
}

// ---------------------------------------------------------------------------
// Environment validation
// ---------------------------------------------------------------------------

TEST(Trace, GarbageRingEnvWarnsAndDisablesTracing) {
    std::string const path = "trace_garbage.json";
    std::remove(path.c_str());
    {
        EnvVar const trace("XMPI_TRACE", path);
        EnvVar const ring("XMPI_TRACE_RING_EVENTS", "banana");
        xmpi::run(2, [](int r) {
            std::vector<int> a(8, r), b(8, 0);
            ASSERT_EQ(MPI_Allreduce(a.data(), b.data(), 8, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                      MPI_SUCCESS);
        });
        EXPECT_FALSE(file_exists(path)) << "garbage ring capacity must disable tracing";
    }
    {
        // A valid tiny capacity traces with overflow accounted.
        std::string const tiny = "trace_tiny_ring.json";
        std::remove(tiny.c_str());
        EnvVar const trace("XMPI_TRACE", tiny);
        EnvVar const ring("XMPI_TRACE_RING_EVENTS", "17");  // rounds up to 32
        xmpi::run(2, [](int r) {
            std::vector<int> a(16, r), b(16, 0);
            for (int i = 0; i < 64; ++i) {
                ASSERT_EQ(MPI_Allreduce(a.data(), b.data(), 16, MPI_INT, MPI_SUM,
                                        MPI_COMM_WORLD),
                          MPI_SUCCESS);
            }
        });
        EXPECT_TRUE(file_exists(tiny));
        auto const lr = xt::last_run();
        ASSERT_TRUE(lr.valid);
        EXPECT_GT(lr.dropped, 0u);
        EXPECT_GT(lr.recorded, lr.dropped);
        EXPECT_LE(lr.records.size(), 2u * 32u);  // at most one ring per rank survives
    }
}

// ---------------------------------------------------------------------------
// Critical-path attribution
// ---------------------------------------------------------------------------

// Two inputs: 4096 ints and 8192 uint64s.
TEST(Trace, AttributionCoversTracedMakespan) {
    TopoPin const topo(2);
    AlgPin const pin("allreduce", "hierarchical");
    std::string const path = "trace_attr.json";
    std::remove(path.c_str());
    EnvVar const env("XMPI_TRACE", path);

    xmpi::Config cfg;
    cfg.compute_scale = 0.0;  // pure communication: the replay models no compute
    struct Input {
        MPI_Datatype type;
        int count;
    };
    for (auto const [type, count] : {Input{MPI_INT, 4096}, Input{MPI_UINT64_T, 8192}}) {
        xmpi::run(
            4,
            [&](int r) {
                // Sized for the wider type; MPI_INT uses the first half.
                std::vector<std::uint64_t> in(static_cast<std::size_t>(count),
                                              static_cast<std::uint64_t>(r + 1));
                std::vector<std::uint64_t> out(static_cast<std::size_t>(count), 0);
                ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), count, type, MPI_SUM,
                                        MPI_COMM_WORLD),
                          MPI_SUCCESS);
            },
            cfg);

        XMPI_T_trace_attr attr;
        ASSERT_EQ(XMPI_T_trace_attribution(-1, &attr), MPI_SUCCESS) << count;
        EXPECT_EQ(attr.family, static_cast<int>(xd::alg::Family::allreduce));
        EXPECT_GT(attr.steps, 0ull);
        ASSERT_GT(attr.traced_makespan, 0.0);
        EXPECT_NEAR(attr.replayed_makespan, attr.traced_makespan, attr.traced_makespan * 0.05);

        double const ratio = attr.attributed / attr.traced_makespan;
        EXPECT_GE(ratio, 0.95) << "attribution must explain >= 95% of the traced makespan ("
                               << count << " elements)";
        EXPECT_LE(ratio, 1.05) << count;
        // A hierarchical run crosses both tiers.
        EXPECT_GT(attr.alpha_inter + attr.beta_inter + attr.o_inter, 0.0);
        EXPECT_GT(attr.alpha_intra + attr.beta_intra + attr.o_intra, 0.0);

        EXPECT_EQ(XMPI_T_trace_attribution(-1, nullptr), MPI_ERR_ARG);
        EXPECT_EQ(XMPI_T_trace_attribution(123456, &attr), MPI_ERR_OTHER);
    }
}

namespace {

/// Every XMPI_T_trace_attr field of one traced collective, bit for bit.
struct AttrGolden {
    char const* key;
    double traced_makespan, replayed_makespan, attributed;
    double alpha_inter, beta_inter, o_inter, alpha_intra, beta_intra, o_intra, start_skew;
    unsigned long long steps;
    int family, alg;
};

// Recorded with compute_scale = 0 on 4 ranks. A failure prints the new
// value as a ready-to-paste row; re-record a row only when a traced tape or
// the cost model is meant to change, and say so in CHANGES.md.
// clang-format off
constexpr AttrGolden kAttrGoldens[] = {
    {"allreduce/hierarchical/shm", 0x1.376d968fb0aep-17, 0x1.376d968fb0aep-17, 0x1.376d968fb0aep-17, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-18, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-23, 0x1.5fd7fe1796495p-22, 0x0p+0, 0x0p+0, 28, 3, 5},
    {"allreduce/hierarchical/p2p", 0x1.51fcb172d27b2p-17, 0x1.51fcb172d27b2p-17, 0x1.51fcb172d27b3p-17, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-18, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-22, 0x1.b7cdfd9d7bdbbp-21, 0x1.ad7f29abcaf48p-24, 0x0p+0, 36, 3, 5},
    {"allreduce/ring", 0x1.13a807d958c57p-15, 0x1.13a807d958c57p-15, 0x1.13a807d958c57p-15, 0x1.92a737110e453p-17, 0x1.49da7e361ce4cp-16, 0x1.421f5f40d8376p-20, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 72, 3, 4},
    {"allreduce/rdoubling", 0x1.00cfec63815eep-15, 0x1.00cfec63815eep-15, 0x1.00cfec63815eep-15, 0x1.0c6f7a0b5ed8dp-18, 0x1.b7cdfd9d7bdbbp-16, 0x1.ad7f29abcaf48p-22, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 24, 3, 2},
    {"allgather/hierarchical/shm", 0x1.813f71b9378ffp-18, 0x1.813f71b9378ffp-18, 0x1.813f71b9379p-18, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-19, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-24, 0x1.5fd7fe1796495p-23, 0x0p+0, 0x0p+0, 24, 2, 3},
    {"bcast/hierarchical/shm", 0x1.07fccb858b82fp-16, 0x1.07fccb858b82fp-16, 0x1.07fccb858b82fp-16, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-17, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-24, 0x1.5fd7fe1796495p-22, 0x0p+0, 0x0p+0, 7, 0, 3},
    {"reduce/hierarchical/shm", 0x1.07fccb858b82fp-16, 0x1.07fccb858b82fp-16, 0x1.07fccb858b82fp-16, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-17, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-24, 0x1.5fd7fe1796495p-22, 0x0p+0, 0x0p+0, 7, 1, 2},
    {"alltoall/hierarchical/shm", 0x1.24b0480db4137p-16, 0x1.24b0480db4137p-16, 0x1.24b0480db4136p-16, 0x1.0c6f7a0b5ed8dp-19, 0x1.b7cdfd9d7bdbbp-17, 0x1.ad7f29abcaf48p-23, 0x1.ad7f29abcaf48p-22, 0x1.b7cdfd9d7bdbbp-20, 0x1.ad7f29abcaf48p-24, 0x0p+0, 18, 4, 2},
    {"bcast/binomial", 0x1.00cfec63815eep-15, 0x1.00cfec63815eep-15, 0x1.00cfec63815eep-15, 0x1.0c6f7a0b5ed8dp-18, 0x1.b7cdfd9d7bdbbp-16, 0x1.ad7f29abcaf48p-22, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 9, 0, 1},
    {"alltoall/bruck", 0x1.25b8d9f844cfep-16, 0x1.25b8d9f844cfep-16, 0x1.25b8d9f844cfep-16, 0x1.0c6f7a0b5ed8dp-18, 0x1.b7cdfd9d7bdbbp-17, 0x1.ad7f29abcaf48p-22, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 24, 4, 1},
    {"allreduce/ring/after-bcast", 0x1.088e7af4c1474p-14, 0x1.088e7af4c1474p-14, 0x1.13a807d958c57p-15, 0x1.92a737110e453p-17, 0x1.49da7e361ce4cp-16, 0x1.421f5f40d8376p-20, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.fae9dc205391fp-16, 72, 3, 4},
};
// clang-format on

constexpr int kAttrCount = 2048;  ///< uint64 elements: 16 KiB vectors

void attr_bcast(int) {
    std::vector<std::uint64_t> buf(kAttrCount, 7);
    ASSERT_EQ(MPI_Bcast(buf.data(), kAttrCount, MPI_UINT64_T, 0, MPI_COMM_WORLD), MPI_SUCCESS);
}
void attr_reduce(int r) {
    std::vector<std::uint64_t> in(kAttrCount, static_cast<std::uint64_t>(r + 1));
    std::vector<std::uint64_t> out(kAttrCount, 0);
    ASSERT_EQ(MPI_Reduce(in.data(), out.data(), kAttrCount, MPI_UINT64_T, MPI_SUM, 0,
                         MPI_COMM_WORLD),
              MPI_SUCCESS);
}
void attr_allgather(int r) {
    std::vector<std::uint64_t> in(kAttrCount / 4, static_cast<std::uint64_t>(r + 1));
    std::vector<std::uint64_t> out(kAttrCount, 0);
    ASSERT_EQ(MPI_Allgather(in.data(), kAttrCount / 4, MPI_UINT64_T, out.data(),
                            kAttrCount / 4, MPI_UINT64_T, MPI_COMM_WORLD),
              MPI_SUCCESS);
}
void attr_allreduce(int r) {
    std::vector<std::uint64_t> in(kAttrCount, static_cast<std::uint64_t>(r + 1));
    std::vector<std::uint64_t> out(kAttrCount, 0);
    ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), kAttrCount, MPI_UINT64_T, MPI_SUM,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
}
void attr_alltoall(int r) {
    std::vector<std::uint64_t> in(kAttrCount, static_cast<std::uint64_t>(r + 1));
    std::vector<std::uint64_t> out(kAttrCount, 0);
    ASSERT_EQ(MPI_Alltoall(in.data(), kAttrCount / 4, MPI_UINT64_T, out.data(),
                           kAttrCount / 4, MPI_UINT64_T, MPI_COMM_WORLD),
              MPI_SUCCESS);
}

struct AttrCase {
    char const* key;
    int ranks_per_node;  ///< TopoPin
    int shm;             ///< ShmPin
    char const* family;
    char const* alg;
    void (*body)(int);
    void (*before)(int) = nullptr;  ///< binomial bcast run first, to skew the entry
};

}  // namespace

TEST(Trace, AttributionGoldens) {
    testing_utils::ScrubEnv const knobs{{"XMPI_SEGMENT_BYTES"}};
    testing_utils::ProgressPin const engine(0);
    std::string const path = "trace_attr_goldens.json";
    EnvVar const env("XMPI_TRACE", path);
    AttrCase const cases[] = {
        {"allreduce/hierarchical/shm", 2, 1, "allreduce", "hierarchical", attr_allreduce},
        {"allreduce/hierarchical/p2p", 2, 0, "allreduce", "hierarchical", attr_allreduce},
        {"allreduce/ring", 1, 0, "allreduce", "ring", attr_allreduce},
        {"allreduce/rdoubling", 1, 0, "allreduce", "rdoubling", attr_allreduce},
        {"allgather/hierarchical/shm", 2, 1, "allgather", "hierarchical", attr_allgather},
        {"bcast/hierarchical/shm", 2, 1, "bcast", "hierarchical", attr_bcast},
        {"reduce/hierarchical/shm", 2, 1, "reduce", "hierarchical", attr_reduce},
        {"alltoall/hierarchical/shm", 2, 1, "alltoall", "hierarchical", attr_alltoall},
        {"bcast/binomial", 1, 0, "bcast", "binomial", attr_bcast},
        {"alltoall/bruck", 1, 0, "alltoall", "bruck", attr_alltoall},
        // The allreduce starts where an imbalanced binomial bcast left each
        // rank, so its path carries start skew.
        {"allreduce/ring/after-bcast", 1, 0, "allreduce", "ring", attr_allreduce, attr_bcast},
    };
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    for (AttrCase const& c : cases) {
        TopoPin const topo(c.ranks_per_node);
        testing_utils::ShmPin const shm(c.shm);
        AlgPin const pin(c.family, c.alg);
        std::optional<AlgPin> lead;
        if (c.before != nullptr) lead.emplace("bcast", "binomial");
        xmpi::run(
            4,
            [&c](int r) {
                if (c.before != nullptr) c.before(r);
                c.body(r);
            },
            cfg);
        XMPI_T_trace_attr a;
        ASSERT_EQ(XMPI_T_trace_attribution(-1, &a), MPI_SUCCESS) << c.key;
        char row[512];
        std::snprintf(row, sizeof row,
                      "{\"%s\", %a, %a, %a, %a, %a, %a, %a, %a, %a, %a, %llu, %d, %d},", c.key,
                      a.traced_makespan, a.replayed_makespan, a.attributed, a.alpha_inter,
                      a.beta_inter, a.o_inter, a.alpha_intra, a.beta_intra, a.o_intra,
                      a.start_skew, a.steps, a.family, a.alg);
        AttrGolden const* g = nullptr;
        for (AttrGolden const& k : kAttrGoldens) {
            if (std::string(c.key) == k.key) g = &k;
        }
        if (g == nullptr) {
            ADD_FAILURE() << "no golden for " << row;
            continue;
        }
        EXPECT_EQ(g->traced_makespan, a.traced_makespan) << row;
        EXPECT_EQ(g->replayed_makespan, a.replayed_makespan) << row;
        EXPECT_EQ(g->attributed, a.attributed) << row;
        EXPECT_EQ(g->alpha_inter, a.alpha_inter) << row;
        EXPECT_EQ(g->beta_inter, a.beta_inter) << row;
        EXPECT_EQ(g->o_inter, a.o_inter) << row;
        EXPECT_EQ(g->alpha_intra, a.alpha_intra) << row;
        EXPECT_EQ(g->beta_intra, a.beta_intra) << row;
        EXPECT_EQ(g->o_intra, a.o_intra) << row;
        EXPECT_EQ(g->start_skew, a.start_skew) << row;
        EXPECT_EQ(g->steps, a.steps) << row;
        EXPECT_EQ(g->family, a.family) << row;
        EXPECT_EQ(g->alg, a.alg) << row;
        if (c.before != nullptr) {
            EXPECT_GT(a.start_skew, 0.0) << row;
        }
    }
    std::remove(path.c_str());
}

// A ring too small for the root's 39 sends overwrites its coll_enter, so
// the traced tape misses a rank the others name: an error, not a partial
// decomposition.
TEST(Trace, AttributionRefusesATruncatedTrace) {
    TopoPin const flat(1);
    AlgPin const pin("bcast", "flat");
    std::string const path = "trace_attr_truncated.json";
    EnvVar const env("XMPI_TRACE", path);
    EnvVar const ring("XMPI_TRACE_RING_EVENTS", "32");
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    xmpi::run(40, [](int) { attr_bcast(0); }, cfg);
    ASSERT_GT(xt::last_run().dropped, 0u);
    XMPI_T_trace_attr attr;
    EXPECT_EQ(XMPI_T_trace_attribution(-1, &attr), MPI_ERR_OTHER);
    std::remove(path.c_str());
}

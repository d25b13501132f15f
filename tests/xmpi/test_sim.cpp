/// @file test_sim.cpp
/// @brief Virtual-time simulator tests: the small-p equivalence gate against
/// the threaded executor (same builders, same cost arithmetic — per-rank
/// virtual finish times must agree), the tag-budget hard check, the
/// dry-build / real-build counter separation, the XMPI_T_sim_* knob
/// validation, a small-scale model-match assertion mirroring the bench
/// acceptance criterion, the replay's failure paths on hand-written tapes,
/// and bit-exact goldens of the replay's predictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/model/analytic.hpp"
#include "src/xmpi/sim/sim.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

#include "../testing_utils.hpp"

namespace sim = xmpi::detail::sim;
namespace alg = xmpi::detail::alg;
namespace topo = xmpi::detail::topo;
namespace model = bench::model;

using sim::Family;
using testing_utils::AlgPin;
using testing_utils::ScrubAlgEnv;
using testing_utils::SeededRng;
using testing_utils::SegPin;
using testing_utils::TopoPin;

namespace {

xmpi::Config pure_comm_config() {
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;  // deterministic: virtual time advances only by
                              // the modeled message costs, on both executors
    return cfg;
}

/// Validity of algorithm `a` for a block topology (p, rpn) with a builtin
/// commutative op — the registry's flag gates plus is_hierarchical.
bool alg_valid(alg::AlgInfo const& a, int p, int rpn) {
    if (a.needs_pow2 && (p & (p - 1)) != 0) return false;
    if (a.hier && !(rpn >= 2 && p > rpn)) return false;
    return true;
}

/// Runs `family` once on every rank of the threaded executor and returns the
/// per-rank virtual finish times (plus the auto-selected algorithm name).
xmpi::RunResult run_threaded(Family family, int p, int count, int root, xmpi::Config const& cfg,
                             std::string* selected) {
    return xmpi::run(
        p,
        [&](int rank) {
            std::vector<int> send(static_cast<std::size_t>(count) * static_cast<std::size_t>(p),
                                  rank);
            std::vector<int> recv(static_cast<std::size_t>(count) * static_cast<std::size_t>(p),
                                  0);
            switch (family) {
                case Family::bcast:
                    MPI_Bcast(recv.data(), count, MPI_INT, root, MPI_COMM_WORLD);
                    break;
                case Family::reduce:
                    MPI_Reduce(send.data(), recv.data(), count, MPI_INT, MPI_SUM, root,
                               MPI_COMM_WORLD);
                    break;
                case Family::allgather:
                    MPI_Allgather(send.data(), count, MPI_INT, recv.data(), count, MPI_INT,
                                  MPI_COMM_WORLD);
                    break;
                case Family::allreduce:
                    MPI_Allreduce(send.data(), recv.data(), count, MPI_INT, MPI_SUM,
                                  MPI_COMM_WORLD);
                    break;
                case Family::alltoall:
                    MPI_Alltoall(send.data(), count, MPI_INT, recv.data(), count, MPI_INT,
                                 MPI_COMM_WORLD);
                    break;
            }
            if (rank == 0 && selected != nullptr) {
                char const* name = nullptr;
                XMPI_T_alg_selected(alg::family_name(family), &name);
                *selected = name;
            }
        },
        cfg);
}

/// One equivalence trial: simulate and thread-execute the same collective on
/// the same (p, rpn, count, root) and compare per-rank virtual finish times.
void check_equivalence(Family family, int alg_idx, int p, int rpn, int count, int root) {
    SCOPED_TRACE("family=" + std::string(alg::family_name(family)) +
                 " alg=" + (alg_idx < 0 ? "auto" : sim::alg_name(family, alg_idx)) +
                 " p=" + std::to_string(p) + " rpn=" + std::to_string(rpn) +
                 " count=" + std::to_string(count) + " root=" + std::to_string(root));
    xmpi::Config const cfg = pure_comm_config();

    sim::World w;
    w.size = p;
    w.node_map = topo::block_map(p, rpn);
    w.cfg = cfg;
    sim::CollSpec spec;
    spec.family = family;
    spec.count = count;
    spec.elem_size = 4;  // MPI_INT on both sides
    spec.root = root;
    spec.force_alg = alg_idx;
    sim::Options opt;
    opt.keep_finish = true;
    sim::Result const res = sim::simulate(w, spec, opt);
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    ASSERT_EQ(static_cast<std::size_t>(p), res.finish.size());

    TopoPin topo_pin(rpn);
    std::string selected;
    xmpi::RunResult threaded;
    if (alg_idx >= 0) {
        AlgPin pin(alg::family_name(family), sim::alg_name(family, alg_idx));
        threaded = run_threaded(family, p, count, root, cfg, nullptr);
    } else {
        threaded = run_threaded(family, p, count, root, cfg, &selected);
        // Same cost model, same topology: auto-selection must agree.
        EXPECT_EQ(selected, res.alg_name);
    }
    ASSERT_EQ(static_cast<std::size_t>(p), threaded.rank_vtimes.size());
    for (int r = 0; r < p; ++r) {
        double const want = threaded.rank_vtimes[static_cast<std::size_t>(r)];
        double const got = res.finish[static_cast<std::size_t>(r)];
        EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)) + 1e-15)
            << "rank " << r << " sim=" << got << " threaded=" << want;
    }
}

}  // namespace

TEST(SimEquivalence, MatchesThreadedExecutorAcrossShapes) {
    SeededRng rng;
    int const kRpns[] = {1, 2, 3, 4, 8};
    int const kCounts[] = {1, 13, 257};
    for (int trial = 0; trial < 3; ++trial) {
        int const p = rng.uniform(2, 16);
        int const rpn = rng.pick(kRpns);
        int const count = rng.pick(kCounts);
        int const root = rng.uniform(0, p - 1);
        for (int fi = 0; fi < alg::kFamilies; ++fi) {
            auto const family = static_cast<Family>(fi);
            check_equivalence(family, -1, p, rpn, count, root);
            auto const& table = alg::algorithms(family);
            for (int a = 0; a < static_cast<int>(table.size()); ++a) {
                if (!alg_valid(table[static_cast<std::size_t>(a)], p, rpn)) continue;
                check_equivalence(family, a, p, rpn, count, root);
            }
        }
    }
}

TEST(SimTagBudget, HierarchicalAtManyNodesWithTinySegmentsIsRefused) {
    // 4100 ranks at 4 per node = 1025 nodes: the inter-node phase alone
    // needs more step tags than coll_tag() can encode (and a non-pow2 node
    // count keeps the phase on a linear-tag algorithm); tiny pipeline
    // segments maximize tag pressure on the segmented phases.
    SegPin seg(64);
    sim::World w;
    w.size = 4100;
    w.node_map = topo::block_map(w.size, 4);
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allgather;
    spec.count = 4096;
    spec.elem_size = 1;
    spec.force_alg = 3;  // hierarchical
    sim::Result const res = sim::simulate(w, spec);
    ASSERT_EQ(MPI_ERR_OTHER, res.error);
    // The error must name both escape hatches.
    EXPECT_NE(res.detail.find("tag budget"), std::string::npos) << res.detail;
    EXPECT_NE(res.detail.find("XMPI_SEGMENT_BYTES"), std::string::npos) << res.detail;
    EXPECT_NE(res.detail.find("XMPI_RANKS_PER_NODE"), std::string::npos) << res.detail;

    // Control: the same collective on a coarser topology (65 nodes) fits the
    // budget and simulates cleanly.
    w.node_map = topo::block_map(w.size, 64);
    sim::Result const ok = sim::simulate(w, spec);
    EXPECT_EQ(MPI_SUCCESS, ok.error) << ok.detail;
    EXPECT_GT(ok.makespan, 0.0);
}

TEST(SimCounters, DryBuildsAreAccountedSeparatelyFromRealBuilds) {
    xmpi::Config const cfg = pure_comm_config();
    xmpi::run(
        4,
        [&](int rank) {
            std::vector<int> buf(128, rank);
            std::vector<int> out(128, 0);
            MPI_Allreduce(buf.data(), out.data(), 128, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
            if (rank != 0) return;

            unsigned long long builds0 = 0, hits0 = 0, dry0 = 0, steps0 = 0;
            ASSERT_EQ(MPI_SUCCESS, XMPI_T_sched_stats(&builds0, &hits0, nullptr, nullptr));
            ASSERT_EQ(MPI_SUCCESS, XMPI_T_sim_stats(&dry0, &steps0, nullptr, nullptr));
            EXPECT_GE(builds0, 1ull);  // the real allreduce above compiled a schedule

            sim::World w;
            w.size = 64;
            w.cfg = cfg;
            sim::CollSpec spec;
            spec.family = Family::allreduce;
            spec.count = 128;
            spec.elem_size = 4;
            sim::Result const res = sim::simulate(w, spec);
            ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;

            unsigned long long builds1 = 0, hits1 = 0, dry1 = 0, steps1 = 0, events1 = 0;
            double last = 0.0;
            ASSERT_EQ(MPI_SUCCESS, XMPI_T_sched_stats(&builds1, &hits1, nullptr, nullptr));
            ASSERT_EQ(MPI_SUCCESS, XMPI_T_sim_stats(&dry1, &steps1, &events1, &last));
            // 64 per-rank dry builds land in the sim counters only; the
            // rank's real schedule accounting must not move.
            EXPECT_EQ(builds1, builds0);
            EXPECT_EQ(hits1, hits0);
            EXPECT_EQ(dry1, dry0 + 64);
            EXPECT_EQ(steps1, steps0 + res.tape_steps);
            EXPECT_EQ(last, res.makespan);
        },
        cfg);
}

TEST(SimKnobs, EventLimitValidationEnvFallbackAndEnforcement) {
    long long limit = -99;
    EXPECT_EQ(MPI_ERR_ARG, XMPI_T_sim_event_limit_set(-2));
    EXPECT_EQ(MPI_ERR_ARG, XMPI_T_sim_event_limit_get(nullptr));

    // Control channel: explicit cap, unlimited, back to automatic.
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(123));
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(123, limit);
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(0));
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(0, limit);

    // Environment channel: invalid warns (once) and falls back to unlimited;
    // a valid value is picked up; the control pin beats it.
    ::setenv("XMPI_SIM_EVENT_LIMIT", "banana", 1);
    sim::reset_sim_env_cache_for_testing();
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(-1));
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(0, limit);
    ::setenv("XMPI_SIM_EVENT_LIMIT", "5000", 1);
    sim::reset_sim_env_cache_for_testing();
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(5000, limit);
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(7));
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_get(&limit));
    EXPECT_EQ(7, limit);

    // Enforcement: a 64-rank allreduce needs far more than 7 events.
    sim::World w;
    w.size = 64;
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allreduce;
    spec.count = 16;
    spec.elem_size = 4;
    sim::Result const res = sim::simulate(w, spec);
    EXPECT_EQ(MPI_ERR_OTHER, res.error);
    EXPECT_NE(res.detail.find("event limit"), std::string::npos) << res.detail;

    ::unsetenv("XMPI_SIM_EVENT_LIMIT");
    sim::reset_sim_env_cache_for_testing();
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(-1));
}

TEST(SimModelMatch, AutoSelectedFlatAlgorithmsWithinFivePercent) {
    // The bench acceptance criterion at unit-test scale: on a flat pow2
    // world the auto-selected algorithm of every family is a lock-step
    // round-structured schedule whose tape reproduces the closed-form
    // two-tier model. This asserts *automatic* selection, so any
    // forced-algorithms environment from the CI matrix is scrubbed.
    ScrubAlgEnv const scrub;
    xmpi::Config const cfg = pure_comm_config();
    model::Machine m;
    m.alpha = cfg.alpha;
    m.beta = cfg.beta;
    m.o = cfg.o;
    int const p = 1024;
    struct Case {
        Family family;
        int count;  // MPI_INT elements
    };
    Case const cases[] = {{Family::bcast, 1024},     {Family::reduce, 1024},
                          {Family::allgather, 1024}, {Family::allreduce, 1024},
                          {Family::alltoall, 64}};
    for (auto const& c : cases) {
        sim::World w;
        w.size = p;
        w.cfg = cfg;
        sim::CollSpec spec;
        spec.family = c.family;
        spec.count = c.count;
        spec.elem_size = 4;
        sim::Result const res = sim::simulate(w, spec);
        ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
        double const bytes = static_cast<double>(spec.bytes());
        double const dp = static_cast<double>(p);
        std::string const name = res.alg_name;
        double want = 0.0;
        if (name == "binomial" && c.family == Family::bcast) {
            want = model::bcast_binomial(m, dp, bytes);
        } else if (name == "binomial" && c.family == Family::reduce) {
            want = model::reduce_binomial(m, dp, bytes);
        } else if (name == "rdoubling" && c.family == Family::allgather) {
            want = model::allgather_rdoubling(m, dp, bytes);
        } else if (c.family == Family::allreduce &&
                   (name == "rdoubling" || name == "rabenseifner")) {
            want = name == "rdoubling" ? model::allreduce_rdoubling(m, dp, bytes)
                                       : model::allreduce_rabenseifner(m, dp, bytes);
        } else if (name == "bruck" && c.family == Family::alltoall) {
            want = model::alltoall_bruck(m, dp, bytes);
        } else {
            FAIL() << "unexpected auto selection \"" << name << "\" for family "
                   << alg::family_name(c.family);
        }
        double const rel = std::abs(res.makespan - want) / want;
        EXPECT_LT(rel, 0.05) << alg::family_name(c.family) << "/" << name
                             << " sim=" << res.makespan << " model=" << want;
    }
}

TEST(SimShapes, RaggedNodeSizesSimulateCleanly) {
    std::vector<int> sizes;
    for (int n = 0; n < 250; ++n) sizes.push_back(n % 2 == 0 ? 3 : 5);
    sim::World w;
    w.node_map = topo::node_map_from_sizes(sizes);
    w.size = static_cast<int>(w.node_map.size());
    ASSERT_EQ(1000, w.size);
    w.cfg = pure_comm_config();
    sim::CollSpec spec;
    spec.family = Family::allreduce;
    spec.count = 100;
    spec.elem_size = 8;
    sim::Options opt;
    opt.keep_finish = true;
    sim::Result const res = sim::simulate(w, spec, opt);
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    EXPECT_EQ(1000u, res.finish.size());
    EXPECT_GT(res.makespan, 0.0);
    EXPECT_GT(res.events, 0u);
}

namespace {

alg::TapeStep tape_step(std::uint8_t kind, std::uint32_t a, std::uint16_t tag,
                        std::uint64_t bytes) {
    alg::TapeStep st;
    st.kind = kind;
    st.a = a;
    st.tag = tag;
    st.bytes = bytes;
    return st;
}
alg::TapeStep t_send(std::uint32_t dst, std::uint16_t tag, std::uint64_t bytes) {
    return tape_step(alg::TapeStep::kSend, dst, tag, bytes);
}
alg::TapeStep t_post(std::uint32_t src, std::uint16_t tag, std::uint64_t bytes) {
    return tape_step(alg::TapeStep::kPost, src, tag, bytes);
}
alg::TapeStep t_wait(std::uint32_t slot) { return tape_step(alg::TapeStep::kWait, slot, 0, 0); }

/// Hand-written per-rank tapes for sim::replay on a flat world: each
/// add_rank() appends one rank, whose posts take its receive slots in order.
struct HandTapes {
    sim::World w;
    alg::DrySink sink;
    std::vector<std::uint32_t> step_begin{0};
    std::vector<std::uint32_t> slot_begin{0};

    void add_rank(std::vector<alg::TapeStep> const& tape) {
        std::uint32_t posts = 0;
        for (alg::TapeStep const& st : tape) {
            sink.steps.push_back(st);
            if (st.kind == alg::TapeStep::kPost) ++posts;
        }
        step_begin.push_back(static_cast<std::uint32_t>(sink.steps.size()));
        slot_begin.push_back(slot_begin.back() + posts);
    }
    sim::Result run(std::vector<double> const& start = {},
                    sim::Provenance* provenance = nullptr) {
        w.size = static_cast<int>(step_begin.size()) - 1;
        return sim::replay(w, sink, step_begin, slot_begin, start, provenance);
    }
};

constexpr std::uint64_t kMiB = std::uint64_t{1} << 20;

}  // namespace

TEST(SimReplay, PostNoSendCoversIsASimulatedDeadlock) {
    HandTapes t;
    t.add_rank({t_post(1, 0, 8), t_wait(0)});
    t.add_rank({});
    sim::Result const res = t.run();
    EXPECT_EQ(MPI_ERR_OTHER, res.error);
    EXPECT_EQ(res.detail.rfind("simulated deadlock: 1 of 2 ranks blocked", 0), 0u) << res.detail;
    EXPECT_EQ(1u, res.events);  // the post ran; the wait never did
}

TEST(SimReplay, UnmatchedChannelsAreCountedOncePerKey) {
    {  // a send no post takes
        HandTapes t;
        t.add_rank({t_send(1, 3, 8)});
        t.add_rank({});
        sim::Result const res = t.run();
        EXPECT_EQ(MPI_ERR_OTHER, res.error);
        EXPECT_EQ(res.detail.rfind("1 channels with unmatched sends/posts", 0), 0u)
            << res.detail;
    }
    {  // two excess sends on one key, and a post no send covers nor wait reads
        HandTapes t;
        t.add_rank({t_send(1, 3, 8), t_send(1, 3, 8), t_post(1, 4, 8)});
        t.add_rank({});
        sim::Result const res = t.run();
        EXPECT_EQ(MPI_ERR_OTHER, res.error);
        EXPECT_EQ(res.detail.rfind("2 channels with unmatched sends/posts", 0), 0u)
            << res.detail;
        EXPECT_EQ(3u, res.events);
    }
}

TEST(SimReplay, MalformedTapesAreRefused) {
    auto const refused = [](HandTapes& t) {
        sim::Result const res = t.run();
        EXPECT_EQ(MPI_ERR_ARG, res.error);
        EXPECT_EQ(res.detail.rfind("malformed tape", 0), 0u) << res.detail;
    };
    HandTapes to_nowhere;  // a send to a rank the world does not have
    to_nowhere.add_rank({t_send(2, 0, 8)});
    to_nowhere.add_rank({});
    refused(to_nowhere);
    HandTapes unposted;  // a wait on a slot its rank never posted
    unposted.add_rank({t_post(1, 0, 8), t_wait(1)});
    unposted.add_rank({t_send(0, 0, 8)});
    refused(unposted);
    HandTapes overposted;  // more posts than the rank's slot bounds hold
    overposted.add_rank({t_post(1, 0, 8), t_post(1, 0, 8)});
    overposted.add_rank({t_send(0, 0, 8), t_send(0, 0, 8)});
    overposted.slot_begin = {0, 1, 1};
    refused(overposted);
}

TEST(SimReplay, SendsOnOneChannelPairWithPostsInOrder) {
    // Rank 0 posts twice on (src 1, tag 5) and waits on one slot; rank 1
    // sends 8 B, then 1 MiB. Slot k must see the k-th send's arrival.
    xmpi::Config const cfg;
    double t = cfg.o;
    double const small = t + cfg.alpha + cfg.beta * 8.0;
    t += cfg.o;
    double const large = t + cfg.alpha + cfg.beta * static_cast<double>(kMiB);
    double const want[] = {small, large};
    for (std::uint32_t slot : {0u, 1u}) {
        HandTapes h;
        h.add_rank({t_post(1, 5, 8), t_post(1, 5, kMiB), t_wait(slot)});
        h.add_rank({t_send(0, 5, 8), t_send(0, 5, kMiB)});
        sim::Result const res = h.run();
        ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
        ASSERT_EQ(2u, res.finish.size());
        EXPECT_EQ(want[slot], res.finish[0]) << "slot " << slot;
        EXPECT_EQ(2.0 * cfg.o, res.finish[1]);
        EXPECT_EQ(5u, res.events);
    }
}

TEST(SimReplay, WaitsInReversePostOrder) {
    // Rank 0 blocks on its second slot first; rank 1's first send fills the
    // other slot and must not wake it, the second send must.
    xmpi::Config const cfg;
    double t = cfg.o;
    double const first = t + cfg.alpha + cfg.beta * static_cast<double>(kMiB);
    t += cfg.o;
    double const second = t + cfg.alpha + cfg.beta * 8.0;
    HandTapes h;
    h.add_rank({t_post(1, 1, kMiB), t_post(1, 2, 8), t_wait(1), t_wait(0)});
    h.add_rank({t_send(0, 1, kMiB), t_send(0, 2, 8)});
    sim::Result const res = h.run();
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    EXPECT_EQ(std::max(first, second), res.finish[0]);
    EXPECT_EQ(res.finish[0], res.makespan);
    EXPECT_EQ(6u, res.events);
}

TEST(SimReplay, StartClocksOffsetEachRank) {
    // Rank 0 starts late and sends to rank 1, which starts earlier and waits;
    // rank 2 starts after the arrival and only waits for rank 0's second send.
    xmpi::Config const cfg;
    double const t0 = 5e-6, t1 = 1e-6, t2 = 1e-3;
    double const first = t0 + cfg.o + cfg.alpha + cfg.beta * 8.0;
    HandTapes h;
    h.add_rank({t_send(1, 1, 8), t_send(2, 1, 8)});
    h.add_rank({t_post(0, 1, 8), t_wait(0)});
    h.add_rank({t_post(0, 1, 8), t_wait(0)});
    h.add_rank({});
    sim::Result const res = h.run({t0, t1, t2, 7e-6});
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    ASSERT_EQ(4u, res.finish.size());
    EXPECT_EQ(t0 + cfg.o + cfg.o, res.finish[0]);
    EXPECT_EQ(first, res.finish[1]);
    EXPECT_EQ(t2, res.finish[2]);  // its message arrived long before it started
    EXPECT_EQ(7e-6, res.finish[3]);
    EXPECT_EQ(t2, res.makespan);

    HandTapes bad;
    bad.add_rank({});
    EXPECT_EQ(MPI_ERR_ARG, bad.run({0.0, 1.0}).error);
}

TEST(SimReplay, ProvenanceTermsSumToEachFinishTime) {
    // Two nodes of two ranks; both tiers, a shared-memory copy and start
    // skew all land on the critical path.
    HandTapes h;
    h.w.node_map = {0, 0, 1, 1};
    std::uint16_t const cell = 0x8001;
    h.add_rank({t_send(2, 1, kMiB), tape_step(alg::TapeStep::kCopyPub, 1, cell, 4096)});
    h.add_rank({t_post(0, cell, 4096), tape_step(alg::TapeStep::kCopyWait, 0, 0, 4096),
                t_send(3, 2, 64)});
    h.add_rank({t_post(0, 1, kMiB), t_wait(0), t_send(3, 3, kMiB)});
    h.add_rank({t_post(1, 2, 64), t_post(2, 3, kMiB), t_wait(0), t_wait(1)});
    sim::Provenance prov;
    sim::Result const res = h.run({2e-6, 0.0, 1e-6, 0.0}, &prov);
    ASSERT_EQ(MPI_SUCCESS, res.error) << res.detail;
    ASSERT_EQ(4u, prov.last.size());
    double terms[4][2] = {};
    for (std::size_t r = 0; r < 4; ++r) {
        double sum = 0.0;
        for (int n = prov.last[r]; n >= 0; n = prov.nodes[static_cast<std::size_t>(n)].prev) {
            sim::Provenance::Node const& node = prov.nodes[static_cast<std::size_t>(n)];
            sum += node.amount;
            if (res.finish[r] == res.makespan) terms[node.term][node.intra] += node.amount;
        }
        EXPECT_NEAR(res.finish[r], sum, 1e-12 * res.finish[r]) << "rank " << r;
    }
    // The finisher (rank 3) waits on rank 2's intra-node MiB, which waited
    // on rank 0's inter-node MiB, which started 2 us late.
    EXPECT_EQ(res.finish[3], res.makespan);
    EXPECT_EQ(2e-6, terms[sim::Provenance::kSkew][0]);
    EXPECT_GT(terms[sim::Provenance::kBeta][0], 0.0);
    EXPECT_GT(terms[sim::Provenance::kBeta][1], 0.0);
    EXPECT_GT(terms[sim::Provenance::kO][1], 0.0);
}

TEST(SimReplay, EventLimitHitMidRunReportsIt) {
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(3));
    HandTapes h;
    h.add_rank({t_post(1, 1, kMiB), t_post(1, 2, 8), t_wait(1), t_wait(0)});
    h.add_rank({t_send(0, 1, kMiB), t_send(0, 2, 8)});
    sim::Result const res = h.run();
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(-1));
    EXPECT_EQ(MPI_ERR_OTHER, res.error);
    EXPECT_EQ(res.detail.rfind("event limit (3) exceeded", 0), 0u) << res.detail;
    EXPECT_EQ(4u, res.events);  // two posts, one send, then the send that crossed it
}

namespace {

struct SimGolden {
    char const* key;
    double makespan;
    std::uint64_t events;
    std::uint64_t tape_steps;
};

// Recorded with the default machine model and automatic selection. A
// failure prints the new value as a ready-to-paste row; re-record a row
// only when a tape is meant to change, and say so in CHANGES.md.
constexpr SimGolden kSimGoldens[] = {
    {"bcast/flat/4096B", 0x1.cb6d626a3e9e7p-15, 3069, 3069},
    {"bcast/flat/1048576B", 0x1.13994b26553a7p-7, 3069, 3069},
    {"reduce/flat/4096B", 0x1.cb6d626a3e9e7p-15, 3069, 3069},
    {"reduce/flat/1048576B", 0x1.13994b26553a7p-7, 3069, 3069},
    {"allgather/flat/8B", 0x1.def14a5727897p-16, 30720, 30720},
    {"allreduce/flat/4096B", 0x1.a805491364f9dp-15, 61440, 61440},
    {"allreduce/flat/1048576B", 0x1.c2e8d45c91903p-10, 61440, 61440},
    {"alltoall/flat/8B", 0x1.cb6d626a3e9e7p-15, 30720, 30720},
    {"bcast/block-64/4096B", 0x1.72980c498f132p-16, 3069, 3069},
    {"bcast/block-64/1048576B", 0x1.b8aa790b69cb8p-11, 49104, 49104},
    {"reduce/block-64/4096B", 0x1.81dac0105ff96p-16, 3069, 3069},
    {"reduce/block-64/1048576B", 0x1.c98786e931103p-9, 3069, 3069},
    {"allgather/block-64/8B", 0x1.144eace671715p-16, 30720, 30720},
    {"allreduce/block-64/4096B", 0x1.6b39b2c7c99cap-18, 433152, 433152},
    {"allreduce/block-64/1048576B", 0x1.5ee9313ee1c8cp-14, 411648, 411648},
    {"alltoall/block-64/8B", 0x1.f19423db48ddfp-16, 30720, 30720},
    {"bcast/ragged-48-80/4096B", 0x1.72980c498f132p-16, 3069, 3069},
    {"bcast/ragged-48-80/1048576B", 0x1.b8aa790b69cb8p-11, 49104, 49104},
    {"reduce/ragged-48-80/4096B", 0x1.833a980e778fap-16, 3069, 3069},
    {"reduce/ragged-48-80/1048576B", 0x1.cc4736e5603ccp-9, 3069, 3069},
    {"allgather/ragged-48-80/8B", 0x1.5a91ff98e848fp-16, 30720, 30720},
    {"allreduce/ragged-48-80/4096B", 0x1.7084d8b070769p-18, 324864, 324864},
    {"allreduce/ragged-48-80/1048576B", 0x1.bd0f58a3304c2p-14, 308736, 308736},
    {"alltoall/ragged-48-80/8B", 0x1.f19423db48ddfp-16, 30720, 30720},
    {"allreduce/flat-p1000000/4096B", 0x1.b4e016e28cd62p-13, 5999994, 5999994},
};

/// One golden row's world and spec.
struct GoldenCase {
    std::string key;
    sim::World w;
    sim::CollSpec spec;
};

/// Every family on three p = 1024 node shapes, plus the p = 10^6 allreduce.
std::vector<GoldenCase> golden_cases() {
    std::vector<int> ragged;
    for (int n = 0; n < 16; ++n) ragged.push_back(n % 2 == 0 ? 48 : 80);
    struct Shape {
        char const* name;
        std::vector<int> node_map;
    };
    Shape const shapes[] = {{"flat", {}},
                            {"block-64", topo::block_map(1024, 64)},
                            {"ragged-48-80", topo::node_map_from_sizes(ragged)}};
    std::vector<GoldenCase> cases;
    auto add = [&](std::string key, int p, std::vector<int> const& node_map, Family family,
                   int count, int elem_size) {
        GoldenCase c;
        c.key = std::move(key);
        c.w.size = p;
        c.w.node_map = node_map;
        c.spec.family = family;
        c.spec.count = count;
        c.spec.elem_size = elem_size;
        cases.push_back(std::move(c));
    };
    for (Shape const& sh : shapes) {
        for (int fi = 0; fi < alg::kFamilies; ++fi) {
            auto const family = static_cast<Family>(fi);
            bool const per_block = family == Family::allgather || family == Family::alltoall;
            std::vector<int> const counts =
                per_block ? std::vector<int>{8} : std::vector<int>{1024, 1 << 18};
            for (int const count : counts) {
                int const elem = per_block ? 1 : 4;
                add(std::string(alg::family_name(family)) + "/" + sh.name + "/" +
                        std::to_string(count * elem) + "B",
                    1024, sh.node_map, family, count, elem);
            }
        }
    }
    add("allreduce/flat-p1000000/4096B", 1'000'000, {}, Family::allreduce, 1024, 4);
    return cases;
}

GoldenCase golden_case(std::string const& key) {
    for (GoldenCase& c : golden_cases()) {
        if (c.key == key) return std::move(c);
    }
    ADD_FAILURE() << "no golden case " << key;
    return {};
}

/// Simulates `c` and checks the result against its golden row.
void expect_golden(GoldenCase const& c) {
    sim::Result const res = sim::simulate(c.w, c.spec);
    ASSERT_EQ(MPI_SUCCESS, res.error) << c.key << ": " << res.detail;
    char row[256];
    std::snprintf(row, sizeof row, "{\"%s\", %a, %llu, %llu},", c.key.c_str(), res.makespan,
                  static_cast<unsigned long long>(res.events),
                  static_cast<unsigned long long>(res.tape_steps));
    SimGolden const* g = nullptr;
    for (SimGolden const& k : kSimGoldens) {
        if (c.key == k.key) g = &k;
    }
    ASSERT_NE(g, nullptr) << "no golden for " << row;
    EXPECT_EQ(g->makespan, res.makespan) << row;
    EXPECT_EQ(g->events, res.events) << row;
    EXPECT_EQ(g->tape_steps, res.tape_steps) << row;
}

/// Every CI leg must see the default tapes: no forced algorithm, segment
/// size, shm switch or hierarchical fit from the environment.
struct DefaultTapes {
    ScrubAlgEnv const algs;
    testing_utils::ScrubEnv const knobs{{"XMPI_SEGMENT_BYTES", "XMPI_SHM", "XMPI_HIER_FIT"}};
};

}  // namespace

TEST(SimGoldens, PredictionsAreBitIdentical) {
    DefaultTapes const scrub;
    for (GoldenCase const& c : golden_cases()) expect_golden(c);
}

namespace {

int alg_index(Family f, char const* name) {
    auto const& table = alg::algorithms(f);
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (std::string(table[i].name) == name) return static_cast<int>(i);
    }
    ADD_FAILURE() << "no algorithm " << name;
    return -1;
}

/// The flat bcast on a flat p = 1024 world: the root sends 1023 messages,
/// every other rank posts and waits once, 3 * 1023 steps in all.
sim::World flat_world() {
    sim::World w;
    w.size = 1024;
    return w;
}
sim::CollSpec flat_bcast(int root) {
    sim::CollSpec spec;
    spec.family = Family::bcast;
    spec.count = 16;
    spec.elem_size = 4;
    spec.root = root;
    spec.force_alg = alg_index(Family::bcast, "flat");
    return spec;
}
constexpr std::uint64_t kFlatBcastSteps = 3 * 1023;

sim::Result simulate_capped(sim::World const& w, sim::CollSpec const& spec, std::uint64_t cap,
                            bool keep_finish = false) {
    sim::Options opt;
    opt.max_tape_steps = cap;
    opt.keep_finish = keep_finish;
    return sim::simulate(w, spec, opt);
}

void expect_cap_refusal(sim::Result const& res, std::uint64_t cap) {
    EXPECT_EQ(MPI_ERR_OTHER, res.error);
    EXPECT_EQ("tape exceeds the step cap (" + std::to_string(cap) +
                  " steps) — combination skipped, not truncated",
              res.detail);
    EXPECT_EQ(0u, res.tape_steps);
}

unsigned long long dry_builds() {
    unsigned long long n = 0;
    EXPECT_EQ(MPI_SUCCESS, XMPI_T_sim_stats(&n, nullptr, nullptr, nullptr));
    return n;
}

}  // namespace

TEST(SimStepCap, StoredTapeAtTheCapSimulatesAndOneStepLessRefuses) {
    // Rooted at the last rank, every stored prefix averages 2 steps per
    // rank, so the tape is never projected past the cap: the root's 1023
    // sends push the stored tape over it.
    sim::World const w = flat_world();
    sim::CollSpec const spec = flat_bcast(1023);
    unsigned long long const b0 = dry_builds();
    sim::Result const ok = simulate_capped(w, spec, kFlatBcastSteps);
    ASSERT_EQ(MPI_SUCCESS, ok.error) << ok.detail;
    EXPECT_EQ(kFlatBcastSteps, ok.tape_steps);
    EXPECT_EQ(b0 + 1024, dry_builds());  // every rank built once
    expect_cap_refusal(simulate_capped(w, spec, kFlatBcastSteps - 1), kFlatBcastSteps - 1);
}

TEST(SimStepCap, CountedTapeAtTheCapIsRebuiltBitIdenticallyAndOneStepLessRefuses) {
    // Rooted at rank 0, the root's 1023 steps alone pass cap / 8 and project
    // to about 1023 * 1024 steps, so ranks 1..1023 are counted, not stored.
    sim::World const w = flat_world();
    sim::CollSpec const spec = flat_bcast(0);
    sim::Result const uncapped = simulate_capped(w, spec, 60'000'000, /*keep_finish=*/true);
    ASSERT_EQ(MPI_SUCCESS, uncapped.error) << uncapped.detail;
    ASSERT_EQ(kFlatBcastSteps, uncapped.tape_steps);

    unsigned long long const b0 = dry_builds();
    sim::Result const capped = simulate_capped(w, spec, kFlatBcastSteps, /*keep_finish=*/true);
    ASSERT_EQ(MPI_SUCCESS, capped.error) << capped.detail;
    // The count ended within the cap, so the counted ranks were built again
    // to store them: 1024 + 1023 builds.
    EXPECT_EQ(b0 + 2047, dry_builds());
    EXPECT_EQ(uncapped.makespan, capped.makespan);
    EXPECT_EQ(uncapped.events, capped.events);
    EXPECT_EQ(uncapped.tape_steps, capped.tape_steps);
    EXPECT_EQ(uncapped.finish, capped.finish);

    unsigned long long const b1 = dry_builds();
    expect_cap_refusal(simulate_capped(w, spec, kFlatBcastSteps - 1), kFlatBcastSteps - 1);
    EXPECT_EQ(b1 + 1024, dry_builds());  // refused at the last count, no rebuild
}

TEST(SimStepCap, UniformTapeCountedPastTheCapRefusesWithoutStoringIt) {
    // The flat allgather: every rank sends, posts and waits 1023 times. One
    // step below its length, the tape passes cap / 8 after about 128 ranks
    // with an exact projection past the cap, and the count refuses it.
    sim::World const w = flat_world();
    sim::CollSpec spec;
    spec.family = Family::allgather;
    spec.count = 8;
    spec.elem_size = 1;
    spec.force_alg = alg_index(Family::allgather, "flat");
    std::uint64_t const steps = 1024ull * 3 * 1023;
    sim::Result const ok = simulate_capped(w, spec, steps);
    ASSERT_EQ(MPI_SUCCESS, ok.error) << ok.detail;
    EXPECT_EQ(steps, ok.tape_steps);
    expect_cap_refusal(simulate_capped(w, spec, steps - 1), steps - 1);
}

TEST(SimWorkspace, GoldenRowsReproduceAfterRefusedAndLargerCalls) {
    DefaultTapes const scrub;
    GoldenCase const small = golden_case("reduce/ragged-48-80/4096B");
    GoldenCase const large = golden_case("allreduce/block-64/4096B");
    expect_golden(small);
    // A step-cap refusal midway through counting, a malformed tape refused
    // midway through matching, and an event-limit refusal midway through
    // the loop each leave the workspace dirty.
    expect_cap_refusal(simulate_capped(flat_world(), flat_bcast(0), kFlatBcastSteps - 1),
                       kFlatBcastSteps - 1);
    expect_golden(small);
    HandTapes overposted;
    overposted.add_rank({t_send(1, 0, 8), t_post(1, 0, 8), t_post(1, 0, 8)});
    overposted.add_rank({t_send(0, 0, 8), t_send(0, 0, 8), t_post(0, 0, 8)});
    overposted.slot_begin = {0, 1, 2};
    EXPECT_EQ(MPI_ERR_ARG, overposted.run().error);
    expect_golden(small);
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(1000));
    EXPECT_EQ(MPI_ERR_OTHER, sim::simulate(large.w, large.spec).error);
    ASSERT_EQ(MPI_SUCCESS, XMPI_T_sim_event_limit_set(-1));
    expect_golden(small);
    // A larger call, then the smaller row again on the grown workspace.
    expect_golden(large);
    expect_golden(small);
}

TEST(SimWorkspace, ConcurrentThreadsEachReproduceTheirRow) {
    DefaultTapes const scrub;
    GoldenCase const rows[] = {golden_case("allreduce/block-64/4096B"),
                               golden_case("alltoall/ragged-48-80/8B")};
    std::vector<std::thread> threads;
    for (GoldenCase const& row : rows) {
        threads.emplace_back([&row] {
            for (int i = 0; i < 3; ++i) expect_golden(row);
        });
    }
    for (std::thread& t : threads) t.join();
}

TEST(SimSelect, PicksAtScaleArePinned) {
    // select_at_scale at p = 2^12..2^20 on flat, block-512 and ragged
    // (384/640 ranks per node) maps for a 4 KiB payload, as sim_scale runs it.
    DefaultTapes const scrub;
    auto ragged = [](int p) {
        std::vector<int> sizes;
        for (int placed = 0; placed < p;) {
            int const next = std::min(sizes.size() % 2 == 0 ? 384 : 640, p - placed);
            sizes.push_back(next);
            placed += next;
        }
        return topo::node_map_from_sizes(sizes);
    };
    // Per shape: the bcast, reduce, allgather, allreduce, alltoall picks.
    char const* const flat = "binomial binomial rdoubling rabenseifner flat";
    char const* const hier = "hierarchical hierarchical hierarchical hierarchical flat";
    char const* const hier_rd = "hierarchical hierarchical rdoubling hierarchical flat";
    for (int p = 1 << 12; p <= 1 << 20; p <<= 2) {
        struct Shape {
            std::vector<int> node_map;
            char const* want;
        };
        Shape const shapes[] = {{{}, flat},
                                {topo::block_map(p, 512), p < (1 << 20) ? hier : hier_rd},
                                {ragged(p), hier_rd}};
        for (Shape const& sh : shapes) {
            sim::World w;
            w.size = p;
            w.node_map = sh.node_map;
            std::string got;
            for (int fi = 0; fi < alg::kFamilies; ++fi) {
                sim::CollSpec spec;
                spec.family = static_cast<Family>(fi);
                spec.count = 1024;
                spec.elem_size = 4;
                if (fi > 0) got += " ";
                got += sim::alg_name(spec.family, sim::select_at_scale(w, spec));
            }
            EXPECT_EQ(sh.want, got) << "p = " << p << ", " << sh.node_map.size() << " map entries";
        }
    }
}

TEST(SimShapes, NodeIdsOutsideTheWorldAreRefused) {
    sim::World w;
    w.size = 4;
    sim::CollSpec spec;
    spec.family = Family::allreduce;
    spec.count = 4;
    spec.elem_size = 4;
    for (std::vector<int> const& map : {std::vector<int>{0, 0, 1, 4}, std::vector<int>{0, -1, 1, 1},
                                        std::vector<int>{0, 0, 1}}) {
        w.node_map = map;
        EXPECT_EQ(MPI_ERR_ARG, sim::simulate(w, spec).error);
        EXPECT_EQ(-1, sim::select_at_scale(w, spec));
    }
    w.node_map = {1, 1, 3, 3};  // sparse ids below the world size are fine
    EXPECT_EQ(MPI_SUCCESS, sim::simulate(w, spec).error);
    EXPECT_GE(sim::select_at_scale(w, spec), 0);
}

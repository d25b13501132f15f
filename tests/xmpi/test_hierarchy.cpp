/// @file test_hierarchy.cpp
/// @brief The hierarchical topology subsystem: rank->node resolution
/// (control / env / config), the per-communicator node structure,
/// MPI_Comm_split_type + MPI_COMM_TYPE_SHARED and
/// the KaMPIng split_by_node() wrapper, two-tier p2p cost accounting and
/// counters, topology-aware algorithm selection (hierarchical on multi-node
/// shapes, unchanged from the flat registry on degenerate ones), and the
/// acceptance property: auto-selected hierarchical allreduce/bcast beat
/// every pinned single-tier algorithm on the modeled makespan at large
/// message sizes on a multi-node shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "kamping/communicator.hpp"
#include "src/xmpi/internal.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace {

using testing_utils::AlgPin;
using testing_utils::TopoPin;

bool env_pins(char const* name) { return std::getenv(name) != nullptr; }

std::string selected(char const* family) {
    char const* s = nullptr;
    EXPECT_EQ(XMPI_T_alg_selected(family, &s), MPI_SUCCESS);
    return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Topology resolution and Comm_split_type
// ---------------------------------------------------------------------------

namespace {

namespace topo = xmpi::detail::topo;

/// The node structure of a communicator over `group` (comm rank -> world
/// rank) in a universe with world node map `map`, seen from comm rank `me`.
struct MapComm {
    xmpi::detail::Universe uni;
    xmpi_comm_t comm;
    MapComm(std::vector<int> const& map, std::vector<int> const& group, int me) {
        uni.size = static_cast<int>(group.size());
        uni.node_of_world = map;
        comm.universe = &uni;
        comm.group = group;
        comm.world_to_comm.assign(group.size(), -1);
        for (std::size_t r = 0; r < group.size(); ++r) {
            comm.world_to_comm[static_cast<std::size_t>(group[r])] = static_cast<int>(r);
        }
        comm.my_rank = me;
    }
};

}  // namespace

TEST(TopoNodeInfo, MatchesAReferenceBuiltFromTheMap) {
    int const p = 12;
    std::vector<int> identity(p);
    std::iota(identity.begin(), identity.end(), 0);
    std::vector<int> reversed(identity.rbegin(), identity.rend());
    struct Map {
        char const* name;
        std::vector<int> node_of_world;
    };
    Map const maps[] = {{"flat", {}},
                        {"block-4", {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}},
                        {"ragged-5-2-5", {0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2}},
                        {"interleaved", {0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}},
                        {"sparse-ids", {7, 7, 3, 3, 3, 3, 3, 3, 7, 7, 7, 7}}};
    for (Map const& m : maps) {
        for (std::vector<int> const* group : {&identity, &reversed}) {
            // Reference: nodes in order of first appearance over ascending
            // comm ranks, members ascending.
            std::vector<std::vector<int>> members;
            std::vector<int> node_of(p);
            std::vector<int> ids;
            for (int r = 0; r < p; ++r) {
                int const w = (*group)[static_cast<std::size_t>(r)];
                int const id =
                    m.node_of_world.empty() ? w : m.node_of_world[static_cast<std::size_t>(w)];
                auto const it = std::find(ids.begin(), ids.end(), id);
                int const g = static_cast<int>(it - ids.begin());
                if (it == ids.end()) {
                    ids.push_back(id);
                    members.emplace_back();
                }
                node_of[static_cast<std::size_t>(r)] = g;
                members[static_cast<std::size_t>(g)].push_back(r);
            }
            int min_ppn = p, max_ppn = 0;
            bool contiguous = true;
            for (auto const& mem : members) {
                int const sz = static_cast<int>(mem.size());
                min_ppn = std::min(min_ppn, sz);
                max_ppn = std::max(max_ppn, sz);
                contiguous = contiguous && mem.back() - mem.front() + 1 == sz;
            }
            for (int me : {0, p - 1}) {
                SCOPED_TRACE(std::string(m.name) + (group == &identity ? "" : ", reversed group") +
                             ", rank " + std::to_string(me));
                MapComm mc(m.node_of_world, *group, me);
                topo::NodeInfo const& ni = topo::node_info(&mc.comm);
                ASSERT_EQ(static_cast<int>(members.size()), ni.num_nodes());
                for (int g = 0; g < ni.num_nodes(); ++g) {
                    auto const got = ni.members(g);
                    EXPECT_EQ(members[static_cast<std::size_t>(g)],
                              std::vector<int>(got.begin(), got.end()))
                        << "node " << g;
                    EXPECT_EQ(members[static_cast<std::size_t>(g)].front(), ni.leader(g));
                }
                EXPECT_EQ(node_of, ni.node_of);
                EXPECT_EQ(node_of[static_cast<std::size_t>(me)], ni.my_node);
                EXPECT_EQ(min_ppn, ni.min_ppn);
                EXPECT_EQ(max_ppn, ni.max_ppn);
                EXPECT_EQ(contiguous, ni.contiguous);
                EXPECT_EQ(&ni, &topo::node_info(&mc.comm));  // cached
            }
        }
    }
}

TEST(Topo, ControlRoundTrip) {
    int rpn = -1;
    ASSERT_EQ(XMPI_T_topo_get(&rpn), MPI_SUCCESS);
    EXPECT_EQ(rpn, 0);
    ASSERT_EQ(XMPI_T_topo_set(4), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_get(&rpn), MPI_SUCCESS);
    EXPECT_EQ(rpn, 4);
    ASSERT_EQ(XMPI_T_topo_set(0), MPI_SUCCESS);
    EXPECT_EQ(XMPI_T_topo_set(-2), MPI_ERR_ARG);
    EXPECT_EQ(XMPI_T_topo_get(nullptr), MPI_ERR_ARG);
}

TEST(Topo, SplitTypeSharedGroupsNodePeers) {
    TopoPin pin(4);  // 10 ranks -> nodes {0..3}, {4..7}, {8,9}
    xmpi::run(10, [](int rank) {
        MPI_Comm node = MPI_COMM_NULL;
        ASSERT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, rank, MPI_INFO_NULL,
                                      &node),
                  MPI_SUCCESS);
        int size = 0, r = -1;
        MPI_Comm_size(node, &size);
        MPI_Comm_rank(node, &r);
        EXPECT_EQ(size, rank < 8 ? 4 : 2);
        EXPECT_EQ(r, rank % 4);
        // All members really share one node: world ranks span < 4.
        int lo = rank, hi = rank;
        ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, &lo, 1, MPI_INT, MPI_MIN, node), MPI_SUCCESS);
        ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, &hi, 1, MPI_INT, MPI_MAX, node), MPI_SUCCESS);
        EXPECT_EQ(lo / 4, hi / 4);
        MPI_Comm_free(&node);
    });
}

TEST(Topo, SplitTypeUndefinedYieldsNull) {
    TopoPin pin(2);
    xmpi::run(4, [](int rank) {
        MPI_Comm c = MPI_COMM_NULL;
        int const type = rank == 0 ? MPI_UNDEFINED : MPI_COMM_TYPE_SHARED;
        ASSERT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, type, 0, MPI_INFO_NULL, &c), MPI_SUCCESS);
        if (rank == 0) {
            EXPECT_EQ(c, MPI_COMM_NULL);
        } else {
            int size = 0;
            MPI_Comm_size(c, &size);
            EXPECT_EQ(size, rank < 2 ? 1 : 2);
            MPI_Comm_free(&c);
        }
    });
    xmpi::run(2, [](int) {
        MPI_Comm c = MPI_COMM_NULL;
        EXPECT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, 1234, 0, MPI_INFO_NULL, &c), MPI_ERR_ARG);
    });
}

TEST(Topo, SplitTypeOnFlatTopologyIsSelfSized) {
    TopoPin pin(1);  // explicit flat network
    xmpi::run(3, [](int) {
        MPI_Comm node = MPI_COMM_NULL;
        ASSERT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, 0, MPI_INFO_NULL,
                                      &node),
                  MPI_SUCCESS);
        int size = 0;
        MPI_Comm_size(node, &size);
        EXPECT_EQ(size, 1);
        MPI_Comm_free(&node);
    });
}

TEST(Topo, EnvironmentRanksPerNode) {
    if (env_pins("XMPI_RANKS_PER_NODE") || env_pins("XMPI_NODES")) {
        GTEST_SKIP() << "topology environment pinned externally";
    }
    setenv("XMPI_RANKS_PER_NODE", "2", 1);
    xmpi::run(5, [](int rank) {
        MPI_Comm node = MPI_COMM_NULL;
        MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, 0, MPI_INFO_NULL, &node);
        int size = 0;
        MPI_Comm_size(node, &size);
        EXPECT_EQ(size, rank < 4 ? 2 : 1);  // ragged last node
        MPI_Comm_free(&node);
    });
    unsetenv("XMPI_RANKS_PER_NODE");
    // XMPI_NODES divides the world into ceil(p / nodes) blocks.
    setenv("XMPI_NODES", "3", 1);
    xmpi::run(8, [](int rank) {
        MPI_Comm node = MPI_COMM_NULL;
        MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, 0, MPI_INFO_NULL, &node);
        int size = 0;
        MPI_Comm_size(node, &size);
        EXPECT_EQ(size, rank < 6 ? 3 : 2);
        MPI_Comm_free(&node);
    });
    unsetenv("XMPI_NODES");
}

TEST(Topo, ConfigRanksPerNodeField) {
    if (env_pins("XMPI_RANKS_PER_NODE") || env_pins("XMPI_NODES")) {
        GTEST_SKIP() << "environment outranks Config::ranks_per_node";
    }
    xmpi::Config cfg;
    cfg.ranks_per_node = 3;
    xmpi::run(
        7,
        [](int rank) {
            MPI_Comm node = MPI_COMM_NULL;
            MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, 0, MPI_INFO_NULL, &node);
            int size = 0;
            MPI_Comm_size(node, &size);
            EXPECT_EQ(size, rank < 6 ? 3 : 1);
            MPI_Comm_free(&node);
        },
        cfg);
}

TEST(Topo, KampingSplitByNode) {
    TopoPin pin(2);
    xmpi::run(6, [](int rank) {
        kamping::Communicator comm;
        auto node = comm.split_by_node();
        EXPECT_EQ(node.size(), 2u);
        EXPECT_EQ(node.rank(), static_cast<std::size_t>(rank % 2));
        auto shared = comm.split_to_shared_memory();
        EXPECT_EQ(shared.size(), 2u);
    });
}

// ---------------------------------------------------------------------------
// Two-tier cost accounting
// ---------------------------------------------------------------------------

namespace {

double pingpong_vtime(int rpn, int rounds, int bytes, xmpi::Config cfg = {}) {
    TopoPin pin(rpn);
    cfg.compute_scale = 0.0;
    return xmpi::run(
               2,
               [&](int rank) {
                   std::vector<char> buf(static_cast<std::size_t>(bytes));
                   for (int i = 0; i < rounds; ++i) {
                       if (rank == 0) {
                           MPI_Send(buf.data(), bytes, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
                           MPI_Recv(buf.data(), bytes, MPI_CHAR, 1, 0, MPI_COMM_WORLD,
                                    MPI_STATUS_IGNORE);
                       } else {
                           MPI_Recv(buf.data(), bytes, MPI_CHAR, 0, 0, MPI_COMM_WORLD,
                                    MPI_STATUS_IGNORE);
                           MPI_Send(buf.data(), bytes, MPI_CHAR, 0, 0, MPI_COMM_WORLD);
                       }
                   }
               },
               cfg)
        .max_vtime;
}

}  // namespace

TEST(TopoCost, IntraNodeLatencyIsCheaper) {
    double const t_inter = pingpong_vtime(/*rpn=*/1, 200, 1);
    double const t_intra = pingpong_vtime(/*rpn=*/2, 200, 1);
    // alpha + o = 2.2us inter vs 0.25us intra: ~8.8x.
    EXPECT_GT(t_inter / t_intra, 4.0);
    EXPECT_LT(t_inter / t_intra, 14.0);
}

TEST(TopoCost, IntraNodeBandwidthIsCheaper) {
    xmpi::Config cfg;
    cfg.alpha = cfg.alpha_intra = 0.0;
    cfg.o = cfg.o_intra = 0.0;
    double const t_inter = pingpong_vtime(1, 20, 1 << 20, cfg);
    double const t_intra = pingpong_vtime(2, 20, 1 << 20, cfg);
    EXPECT_NEAR(t_inter / t_intra, cfg.beta / cfg.beta_intra, 2.0);
}

TEST(TopoCost, CountersSplitIntraFromInter) {
    TopoPin pin(2);  // ranks {0,1} on node 0, {2,3} on node 1
    auto result = xmpi::run(4, [](int rank) {
        std::vector<char> buf(64);
        if (rank == 0) {
            MPI_Send(buf.data(), 64, MPI_CHAR, 1, 0, MPI_COMM_WORLD);  // intra
            MPI_Send(buf.data(), 64, MPI_CHAR, 2, 0, MPI_COMM_WORLD);  // inter
        } else if (rank == 1) {
            MPI_Recv(buf.data(), 64, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        } else if (rank == 2) {
            MPI_Recv(buf.data(), 64, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        }
    });
    EXPECT_EQ(result.total.p2p_messages, 2u);
    EXPECT_EQ(result.total.intra_node_messages, 1u);
    EXPECT_EQ(result.total.intra_node_bytes, 64u);
}

TEST(TopoCost, FlatTopologyCountsNoIntraTraffic) {
    TopoPin pin(1);
    auto result = xmpi::run(4, [](int) {
        int v = 1, s = 0;
        MPI_Allreduce(&v, &s, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
    });
    EXPECT_EQ(result.total.intra_node_messages, 0u);
}

// ---------------------------------------------------------------------------
// Topology-aware selection
// ---------------------------------------------------------------------------

namespace {

double collective_vtime(int p, int rpn, char const* family, char const* alg, int count,
                        bool bcast_family) {
    TopoPin pin(rpn);
    AlgPin apin(family, alg);
    // Makespan-ratio assertions are segmentation-sensitive: pin the default
    // 64 KiB pipeline target so the forced-segment CI legs (which disable
    // or shrink pipelining process-wide) exercise correctness elsewhere
    // without inverting these modeled-cost comparisons.
    testing_utils::SegPin const spin(64 * 1024);
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    return xmpi::run(
               p,
               [&](int rank) {
                   std::vector<long long> a(static_cast<std::size_t>(count), rank);
                   if (bcast_family) {
                       MPI_Bcast(a.data(), count, MPI_INT64_T, 0, MPI_COMM_WORLD);
                   } else {
                       std::vector<long long> out(static_cast<std::size_t>(count));
                       MPI_Allreduce(a.data(), out.data(), count, MPI_INT64_T, MPI_SUM,
                                     MPI_COMM_WORLD);
                   }
               },
               cfg)
        .max_vtime;
}

}  // namespace

TEST(TopoSelection, MultiNodeLargeMessagesSelectHierarchical) {
    if (env_pins("XMPI_ALG_ALLREDUCE") || env_pins("XMPI_ALG_BCAST")) {
        GTEST_SKIP() << "algorithm environment pinned externally";
    }
    collective_vtime(16, 4, "allreduce", "auto", 262144, false);
    EXPECT_EQ(selected("allreduce"), "hierarchical");
    collective_vtime(16, 4, "bcast", "auto", 262144, true);
    EXPECT_EQ(selected("bcast"), "hierarchical");
}

TEST(TopoSelection, SingleNodeTopologySelectionUnchangedFromFlat) {
    // Acceptance regression: a topology without a hierarchy (all ranks on
    // one node, or one rank per node) must select exactly what the PR-2
    // flat registry selects, for every probed size.
    if (env_pins("XMPI_ALG_ALLREDUCE") || env_pins("XMPI_ALG_BCAST")) {
        GTEST_SKIP() << "algorithm environment pinned externally";
    }
    for (int count : {1, 512, 4096, 262144}) {
        for (bool bcast_family : {false, true}) {
            char const* family = bcast_family ? "bcast" : "allreduce";
            collective_vtime(16, 1, family, "auto", count, bcast_family);
            std::string const flat_choice = selected(family);
            collective_vtime(16, 64, family, "auto", count, bcast_family);  // one node
            EXPECT_EQ(selected(family), flat_choice)
                << family << " count=" << count << " (single-node vs flat)";
            EXPECT_NE(flat_choice, "hierarchical") << family << " count=" << count;
        }
    }
}

TEST(TopoSelection, HierarchicalReducesInterNodeTraffic) {
    TopoPin pin(4);
    auto traffic = [](char const* alg) {
        AlgPin apin("allreduce", alg);
        auto result = xmpi::run(16, [](int rank) {
            std::vector<int> in(4096, rank), out(4096);
            MPI_Allreduce(in.data(), out.data(), 4096, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
        });
        return result.total;
    };
    auto const hier = traffic("hierarchical");
    auto const flat = traffic("flat");
    std::uint64_t const hier_inter = hier.coll_bytes - hier.intra_node_bytes;
    std::uint64_t const flat_inter = flat.coll_bytes - flat.intra_node_bytes;
    // Intra-node phases ride either eager messages or, when the zero-copy
    // shm transport is enabled, rendezvous-cell copies.
    EXPECT_GT(hier.intra_node_messages + hier.shm_copies, 0u);
    // Leader-based composition moves < half the flat algorithm's bytes over
    // the network tier.
    EXPECT_LT(hier_inter * 2, flat_inter);
}

// ---------------------------------------------------------------------------
// Acceptance: on a modeled 5 nodes x 4 ranks topology, auto-selected
// hierarchical allreduce and bcast beat every single-tier algorithm on the
// modeled makespan at large message sizes (recorded in BENCH_hierarchy.json).
// ---------------------------------------------------------------------------

TEST(TopoAcceptance, AutoAllreduceBeatsEveryFlatAlgorithmAtScale) {
    if (env_pins("XMPI_ALG_ALLREDUCE")) GTEST_SKIP() << "algorithm environment pinned";
    int const p = 20, rpn = 4, count = 262144;  // 5x4 ranks, 2 MiB vectors
    double const t_auto = collective_vtime(p, rpn, "allreduce", "auto", count, false);
    EXPECT_EQ(selected("allreduce"), "hierarchical");
    for (char const* alg : {"flat", "binomial", "ring"}) {  // pow2-only ones invalid at p=20
        double const t_alg = collective_vtime(p, rpn, "allreduce", alg, count, false);
        EXPECT_LT(t_auto, t_alg) << "allreduce auto vs pinned " << alg;
    }
}

TEST(TopoAcceptance, AutoBcastBeatsEveryFlatAlgorithmAtScale) {
    if (env_pins("XMPI_ALG_BCAST")) GTEST_SKIP() << "algorithm environment pinned";
    int const p = 20, rpn = 4, count = 262144;
    double const t_auto = collective_vtime(p, rpn, "bcast", "auto", count, true);
    EXPECT_EQ(selected("bcast"), "hierarchical");
    for (char const* alg : {"flat", "binomial", "ring"}) {
        double const t_alg = collective_vtime(p, rpn, "bcast", alg, count, true);
        EXPECT_LT(t_auto, t_alg) << "bcast auto vs pinned " << alg;
    }
}

// ---------------------------------------------------------------------------
// Hierarchical algorithms on irregular communicators
// ---------------------------------------------------------------------------

TEST(TopoHier, NonContiguousNodeMembershipStaysCorrect) {
    TopoPin pin(4);  // 8 ranks -> nodes {0..3}, {4..7}
    xmpi::run(8, [](int rank) {
        // Interleave the nodes in the subcommunicator's rank order:
        // comm order 0,2,4,6,1,3,5,7 -> node pattern 0,0,1,1,0,0,1,1.
        MPI_Comm mixed;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, 0, (rank % 2) * 10 + rank, &mixed), MPI_SUCCESS);
        {
            // Element-wise path: legal for any membership pattern.
            AlgPin apin("allreduce", "hierarchical");
            int v = rank + 1, sum = 0;
            ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, mixed), MPI_SUCCESS);
            EXPECT_EQ(sum, 36);
        }
        MPI_Comm_free(&mixed);
    });
}

TEST(TopoHier, SubcommunicatorOfOneNodeFallsBackToFlatRegistry) {
    if (env_pins("XMPI_ALG_ALLREDUCE")) GTEST_SKIP() << "algorithm environment pinned";
    TopoPin pin(4);
    xmpi::run(8, [](int rank) {
        MPI_Comm node;
        ASSERT_EQ(MPI_Comm_split_type(MPI_COMM_WORLD, MPI_COMM_TYPE_SHARED, 0, MPI_INFO_NULL,
                                      &node),
                  MPI_SUCCESS);
        // Pinning hierarchical on an all-intra communicator is invalid and
        // must fall back to a correct flat-registry algorithm.
        AlgPin apin("allreduce", "hierarchical");
        int v = rank, sum = -1;
        ASSERT_EQ(MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, node), MPI_SUCCESS);
        int expect = 0;
        for (int i = (rank / 4) * 4; i < (rank / 4) * 4 + 4; ++i) expect += i;
        EXPECT_EQ(sum, expect);
        EXPECT_NE(selected("allreduce"), "hierarchical");
        MPI_Comm_free(&node);
    });
}

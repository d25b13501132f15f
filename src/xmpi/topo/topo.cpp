/// @file topo.cpp
/// @brief Topology resolution (control > env > config), the per-communicator
/// node structure cache, and the XMPI_T_topo_* control API.
#include "topo.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "../env.hpp"
#include "../internal.hpp"

namespace xmpi::detail::topo {
namespace {

/// Control-API override: >0 pins a block mapping, 0 means automatic
/// (environment, then Config).
std::atomic<int> g_forced_ranks_per_node{0};

/// Parses a positive integer environment variable; 0 when unset. Invalid
/// values (trailing garbage, non-positive) warn once and fall back — the
/// same validated parse as every other xmpi env knob (the old strtol path
/// accepted trailing garbage and silently ignored bad values).
int env_int(char const* name) {
    return static_cast<int>(envutil::parse_env_int(
        name, 0, 1, std::numeric_limits<int>::max(),
        "is not a positive rank count; falling back to the configured topology"));
}

}  // namespace

int resolve_ranks_per_node(int world_size, Config const& cfg) {
    int rpn = g_forced_ranks_per_node.load(std::memory_order_relaxed);
    if (rpn <= 0) rpn = env_int("XMPI_RANKS_PER_NODE");
    if (rpn <= 0) {
        if (int const nodes = env_int("XMPI_NODES"); nodes > 0) {
            rpn = (world_size + nodes - 1) / nodes;
        }
    }
    if (rpn <= 0) rpn = cfg.ranks_per_node;
    return rpn <= 0 ? 1 : rpn;
}

std::vector<int> block_map(int world_size, int ranks_per_node) {
    if (ranks_per_node <= 1) return {};  // flat: every rank its own node
    std::vector<int> map(static_cast<std::size_t>(world_size));
    for (int r = 0; r < world_size; ++r) {
        map[static_cast<std::size_t>(r)] = r / ranks_per_node;
    }
    return map;
}

std::vector<int> node_map_from_sizes(std::vector<int> const& node_sizes) {
    std::vector<int> map;
    for (std::size_t n = 0; n < node_sizes.size(); ++n) {
        for (int i = 0; i < node_sizes[n]; ++i) map.push_back(static_cast<int>(n));
    }
    return map;
}

std::vector<int> build_node_map(int world_size, Config const& cfg) {
    return block_map(world_size, resolve_ranks_per_node(world_size, cfg));
}

bool same_node(Universe const* u, int wa, int wb) {
    if (u->node_of_world.empty()) return false;
    return u->node_of_world[static_cast<std::size_t>(wa)] ==
           u->node_of_world[static_cast<std::size_t>(wb)];
}

NodeInfo const& node_info(MPI_Comm comm) {
    if (comm->node_cache != nullptr) return *comm->node_cache;
    auto ni = std::make_unique<NodeInfo>();
    int const p = comm->size();
    auto const np = static_cast<std::size_t>(p);
    ni->node_of.resize(np);
    ni->ranks.resize(np);
    auto const& world_map = comm->universe->node_of_world;
    if (world_map.empty()) {
        // Flat topology: every rank is its own node.
        std::iota(ni->node_of.begin(), ni->node_of.end(), 0);
        std::iota(ni->ranks.begin(), ni->ranks.end(), 0);
        ni->offsets.resize(np + 1);
        std::iota(ni->offsets.begin(), ni->offsets.end(), 0);
        ni->my_node = comm->rank();
        comm->node_cache = std::move(ni);
        return *comm->node_cache;
    }
    // Dense node ids in order of first appearance over ascending comm ranks.
    // Universe node ids are small non-negative ints (dense for every map the
    // runtime builds), so a vector indexed by the id densifies them in O(p).
    std::size_t const ids =
        static_cast<std::size_t>(*std::max_element(world_map.begin(), world_map.end())) + 1;
    std::vector<int> dense_of(ids, -1);  // universe node id -> dense node
    ni->offsets.assign(std::min(ids, np) + 1, 0);
    int nodes = 0;
    for (std::size_t r = 0; r < np; ++r) {
        int& dense = dense_of[static_cast<std::size_t>(
            world_map[static_cast<std::size_t>(comm->world_of(static_cast<int>(r)))])];
        if (dense < 0) dense = nodes++;
        ni->node_of[r] = dense;
        ++ni->offsets[static_cast<std::size_t>(dense) + 1];
    }
    // Counting sort of the ranks by node; dense_of becomes the fill cursor.
    ni->offsets.resize(static_cast<std::size_t>(nodes) + 1);
    std::partial_sum(ni->offsets.begin(), ni->offsets.end(), ni->offsets.begin());
    std::copy(ni->offsets.begin(), ni->offsets.end() - 1, dense_of.begin());
    for (std::size_t r = 0; r < np; ++r) {
        ni->ranks[static_cast<std::size_t>(dense_of[static_cast<std::size_t>(ni->node_of[r])]++)] =
            static_cast<int>(r);
    }
    ni->my_node = ni->node_of[static_cast<std::size_t>(comm->rank())];
    ni->max_ppn = 1;
    ni->min_ppn = p;
    ni->contiguous = true;
    for (int g = 0; g < nodes; ++g) {
        std::span<int const> const m = ni->members(g);
        int const sz = static_cast<int>(m.size());
        if (sz > ni->max_ppn) ni->max_ppn = sz;
        if (sz < ni->min_ppn) ni->min_ppn = sz;
        if (m.back() - m.front() + 1 != sz) ni->contiguous = false;
    }
    comm->node_cache = std::move(ni);
    return *comm->node_cache;
}

}  // namespace xmpi::detail::topo

// ---------------------------------------------------------------------------
// Control API (declared in <xmpi/mpi.h>). Takes effect for universes created
// after the call; a running universe's topology is immutable.
// ---------------------------------------------------------------------------

namespace xmpi::detail::alg {
void bump_sched_epoch();  // algorithms/registry.cpp
}

int XMPI_T_topo_set(int ranks_per_node) {
    if (ranks_per_node < 0) return MPI_ERR_ARG;
    xmpi::detail::topo::g_forced_ranks_per_node.store(ranks_per_node, std::memory_order_relaxed);
    // A topology change re-shapes hierarchical compositions; cached
    // schedules from the previous shape must not be replayed.
    xmpi::detail::alg::bump_sched_epoch();
    return MPI_SUCCESS;
}

int XMPI_T_topo_get(int* ranks_per_node) {
    if (ranks_per_node == nullptr) return MPI_ERR_ARG;
    *ranks_per_node =
        xmpi::detail::topo::g_forced_ranks_per_node.load(std::memory_order_relaxed);
    return MPI_SUCCESS;
}

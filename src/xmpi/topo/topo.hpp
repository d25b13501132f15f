/// @file topo.hpp
/// @brief The hierarchical-topology subsystem: maps world ranks to nodes so
/// the virtual-time cost model can price intra-node links (shared memory)
/// differently from inter-node links (network), and so the collective
/// algorithm layer can build leader-based hierarchical schedules.
///
/// A topology is fixed per universe at xmpi::run() time from, in order of
/// precedence: the XMPI_T_topo_set() control call, the XMPI_RANKS_PER_NODE /
/// XMPI_NODES environment variables, and Config::ranks_per_node. All sources
/// describe a block mapping node = world_rank / ranks_per_node (the last node
/// may be ragged). ranks_per_node <= 1 degenerates to the flat single-tier
/// network of PR 2: no two ranks share a node, every message is inter-node.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "xmpi/mpi.h"

namespace xmpi {
struct Config;
}

namespace xmpi::detail {
struct Universe;
}

namespace xmpi::detail::topo {

/// Resolves the effective ranks-per-node for a universe of `world_size`
/// ranks (control > env > config). Returns 1 for a flat topology.
int resolve_ranks_per_node(int world_size, Config const& cfg);

/// The block mapping node = world_rank / ranks_per_node over `world_size`
/// ranks. Empty result means flat (ranks_per_node <= 1: single tier, every
/// rank its own node).
std::vector<int> block_map(int world_size, int ranks_per_node);

/// Synthesizes a node map from an explicit per-node size list (node n holds
/// node_sizes[n] consecutive world ranks) — the shape source the virtual-
/// time simulator uses for ragged / randomized topologies that no block
/// mapping can describe.
std::vector<int> node_map_from_sizes(std::vector<int> const& node_sizes);

/// Builds the world-rank -> node-id map. Empty result means flat (single
/// tier, every rank its own node).
std::vector<int> build_node_map(int world_size, Config const& cfg);

/// True when world ranks `wa` and `wb` are on the same node of `u`'s
/// topology (always false on a flat topology).
bool same_node(Universe const* u, int wa, int wb);

// ---------------------------------------------------------------------------
// Per-communicator node structure, computed lazily and cached in the
// communicator copy (each rank owns its copy, so no locking is needed).
// ---------------------------------------------------------------------------

struct NodeInfo {
    /// Member comm ranks grouped by dense node index (nodes ordered by
    /// smallest member comm rank, members ascending within a node): node g
    /// owns ranks[offsets[g], offsets[g + 1]). One flat array, so building
    /// the structure costs a fixed number of allocations on any map.
    std::vector<int> ranks;
    std::vector<int> offsets;  ///< num_nodes() + 1 entries
    /// comm rank -> dense node index.
    std::vector<int> node_of;
    int my_node = 0;
    int max_ppn = 1;
    int min_ppn = 1;
    /// True when every node's members form a contiguous comm-rank range (in
    /// which case intra-node-then-inter-node folds are rank-order
    /// bracketings, so hierarchical reductions stay exact for
    /// non-commutative operations).
    bool contiguous = true;

    int num_nodes() const { return static_cast<int>(offsets.size()) - 1; }
    /// Member comm ranks of dense node `node`, ascending. The view stays
    /// valid as long as this NodeInfo (the communicator's node cache) does.
    std::span<int const> members(int node) const {
        auto const g = static_cast<std::size_t>(node);
        return std::span<int const>(ranks).subspan(
            static_cast<std::size_t>(offsets[g]),
            static_cast<std::size_t>(offsets[g + 1] - offsets[g]));
    }
    int leader(int node) const { return members(node).front(); }
    /// A topology is worth exploiting when there are >= 2 nodes and at least
    /// one node hosts >= 2 ranks.
    bool is_hierarchical() const { return num_nodes() >= 2 && max_ppn >= 2; }
};

/// The node structure of `comm` under its universe's topology (cached).
NodeInfo const& node_info(MPI_Comm comm);

}  // namespace xmpi::detail::topo

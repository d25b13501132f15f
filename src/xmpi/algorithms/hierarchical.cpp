/// @file hierarchical.cpp
/// @brief Leader-based hierarchical collective algorithms. Every builder
/// composes existing schedule builders as sub-schedules over group scopes
/// (see Schedule::push_group): an intra-node phase priced on the cheap
/// shared-memory tier, an inter-node phase among node leaders (or slice peer
/// groups), and an intra-node redistribution. Inner-phase algorithms are
/// chosen by the same cost formulas the registry uses (select_flat /
/// bench::model::*_hier), so the selection crossovers, the builders and the
/// analytic curves stay consistent.
///
/// Tag layout within one collective sequence number: intra-node phases use
/// tag bases 0 (up) and 512 (down), inter-node phases use 256. Phases can
/// never match each other's messages (distinct bases), and concurrent
/// subgroups of one phase are disjoint rank sets.
///
/// Fold-order discipline: intra-node reductions fold members in comm-rank
/// order and inter-node phases fold nodes in dense node order (ascending
/// first member), so when every node's members are a contiguous comm-rank
/// range the whole composition is a rank-order bracketing and
/// non-commutative operations stay exact; the registry only selects
/// hierarchical reductions for non-commutative operations in that case.
#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "../shm/shm.hpp"
#include "../topo/topo.hpp"
#include "algorithms.hpp"
#include "fold.hpp"

namespace xmpi::detail::alg {
namespace {

using topo::NodeInfo;

int const kIntraUp = 0;     ///< tag base: intra-node gather/reduce phase
int const kInter = 256;     ///< tag base: inter-node phase
int const kIntraDown = 512; ///< tag base: intra-node bcast/scatter phase

bench::model::NodeShape shape_of(NodeInfo const& ni) {
    return {static_cast<double>(ni.num_nodes()), static_cast<double>(ni.max_ppn),
            static_cast<double>(ni.min_ppn)};
}

// ---------------------------------------------------------------------------
// Segmented-phase composer. A pipelined hierarchical collective splits its
// payload into near-even element segments and emits its phases once per
// segment, seg-major: because the transport is eager and receives are
// posted per phase, segment k+1's cheap phases execute while segment k's
// expensive phase is still in flight — the intra gather of segment k+1
// overlaps the inter-node exchange of segment k, which overlaps the intra
// share-back of segment k-1. The bcast builder's per-segment relay (PR 3)
// is the original instance of this shape; allgather and alltoall now reuse
// the same machinery.
// ---------------------------------------------------------------------------

/// Emits `phase(k, elem_off, elem_len)` for each of `nseg` near-even
/// segments of `count` elements (earlier segments take the remainder, so
/// segment 0 is the largest — size scratch for it).
template <typename Phase>
void compose_segments(int count, int nseg, Phase&& phase) {
    int const base = count / nseg;
    int const rem = count % nseg;
    long long off = 0;
    for (int k = 0; k < nseg; ++k) {
        int const len = base + (k < rem ? 1 : 0);
        phase(k, off, len);
        off += len;
    }
}

/// Largest segment's element count under compose_segments' split.
int max_seg_len(int count, int nseg) { return count / nseg + (count % nseg != 0 ? 1 : 0); }

/// True when the caller pinned a segment size (XMPI_SEGMENT_BYTES /
/// XMPI_T_segment_set): a pin engages the pipelined composition whenever it
/// yields more than one segment, bypassing the cost-model comparison, so
/// harnesses can exercise the pipeline at any granularity. A pin of at
/// least the message size yields one segment and degenerates to the
/// unpipelined composition.
bool segment_forced() {
    return bench::model::forced_segment_bytes().load(std::memory_order_relaxed) > 0;
}

/// The calling rank's index within its node's member list.
int my_member_index(NodeInfo const& ni, int r) {
    auto const mem = ni.members(ni.my_node);
    for (std::size_t i = 0; i < mem.size(); ++i) {
        if (mem[i] == r) return static_cast<int>(i);
    }
    return 0;  // unreachable: r is always a member of its own node
}

/// Node-leader comm ranks in dense node order (the inter-phase group map).
std::vector<int> leader_map(NodeInfo const& ni) {
    std::vector<int> leaders;
    leaders.reserve(static_cast<std::size_t>(ni.num_nodes()));
    for (int g = 0; g < ni.num_nodes(); ++g) leaders.push_back(ni.leader(g));
    return leaders;
}

// ---------------------------------------------------------------------------
// Zero-copy intra-node phases (src/xmpi/shm). Copy steps are emitted
// *outside* group scopes — peers are comm ranks and cell ids use the same
// tag bases the message phases use, so copy cells and message tags keep the
// phase-separation discipline. Every builder that publishes ends with
// drain_published(), so no user or scratch buffer is handed back (or
// overwritten by a restart) while a same-node peer still reads it.
// ---------------------------------------------------------------------------

/// Shm mirror of append_binomial_reduce over this node's member list
/// (root = member 0, the leader): the same binomial tree with each
/// (send, recv) pair replaced by a (copy_pub, copy_get) rendezvous, and
/// byte-identical results — FoldChain emits the exact apply_op bracketing
/// append_binomial_reduce does. Ranks that never fold (odd member index)
/// publish the user input itself: zero copies on the way up, safe because
/// the parent's read completes (ack) before the leader can publish onward,
/// and the final drain precedes any buffer reuse.
void append_shm_tree_reduce(Schedule& s, std::span<int const> mem, int mi, void const* input,
                            void* out, int count, MPI_Datatype type, MPI_Op op, int cell_base) {
    int const m = static_cast<int>(mem.size());
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);
    if ((mi & 1) != 0) {
        s.copy_pub(cell_base + mi, input, count, type, {mem[static_cast<std::size_t>(mi) - 1]});
        return;
    }
    std::byte* const acc = s.alloc(bytes);
    if (bytes > 0) {
        s.local([acc, input, bytes]() {
            std::memcpy(acc, input, bytes);
            return MPI_SUCCESS;
        });
    }
    FoldChain chain{s, op, count, type};
    chain.cur = acc;
    chain.free = {s.alloc(bytes)};
    for (int mask = 1; mask < m; mask <<= 1) {
        if ((mi & mask) != 0) {
            s.copy_pub(cell_base + mi, chain.cur, count, type,
                       {mem[static_cast<std::size_t>(mi - mask)]});
            return;
        }
        if (mi + mask < m) {
            std::byte* const target = chain.take();
            s.copy_get(cell_base + mi + mask, mem[static_cast<std::size_t>(mi + mask)], target,
                       0, count, type);
            chain.fold_right(target);
        }
    }
    // Only member 0 (the leader) reaches this point with the node result.
    chain.emit_copy_out(out, bytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// Bcast: root -> node leaders (segment-pipelined ring or binomial tree among
// leaders, whichever the cost model prefers) with per-segment binomial relay
// into each node. The root acts as its own node's leader so the payload
// never takes a detour.
// ---------------------------------------------------------------------------

int build_hier_bcast(Schedule& s, void* buf, int count, MPI_Datatype type, int root) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const r = s.rank();
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->size);

    // Leaders in ring order starting at the root's node, with the root
    // standing in as its node's leader.
    int const root_node = ni.node_of[static_cast<std::size_t>(root)];
    std::vector<int> leaders(static_cast<std::size_t>(n));
    int my_lrank = -1;
    for (int j = 0; j < n; ++j) {
        int const g = (root_node + j) % n;
        leaders[static_cast<std::size_t>(j)] = g == root_node ? root : ni.leader(g);
        if (leaders[static_cast<std::size_t>(j)] == r) my_lrank = j;
    }

    auto const t = machine_of(c);
    auto const shape = shape_of(ni);
    double const c_ring = bench::model::bcast_hier_ring(t, shape, static_cast<double>(bytes));
    double const c_tree = bench::model::bcast_hier_tree(t, shape, static_cast<double>(bytes));
    double const c_ring_shm =
        bench::model::bcast_hier_ring_shm(t, shape, static_cast<double>(bytes));
    double const c_tree_shm =
        bench::model::bcast_hier_tree_shm(t, shape, static_cast<double>(bytes));
    // Zero-copy intra relay: the leader publishes each arrived segment once
    // and the other members read it concurrently (p-1 direct loads instead
    // of a log(m)-deep message relay). Same decision inputs as the registry
    // (machine_of carries the copy tier), so selection and emission agree.
    bool const shm_intra = shm::enabled() && ni.max_ppn > 1 &&
                           std::min(c_ring_shm, c_tree_shm) < std::min(c_ring, c_tree);
    bool const use_ring = shm_intra ? c_ring_shm <= c_tree_shm : c_ring <= c_tree;
    int nseg = 1;
    if (use_ring) nseg = clamp_segments_to_count(ring_segments(bytes), count);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const node_leader = ni.my_node == root_node ? root : ni.leader(ni.my_node);
    int my_mrank = 0, leader_mrank = 0;
    for (int i = 0; i < m; ++i) {
        if (mem[static_cast<std::size_t>(i)] == r) my_mrank = i;
        if (mem[static_cast<std::size_t>(i)] == node_leader) leader_mrank = i;
    }

    compose_segments(count, nseg, [&](int k, long long off, int len) {
        std::byte* const seg = at_offset(buf, off, type);
        if (my_lrank >= 0 && n > 1) {
            GroupScope scope(s, leaders, my_lrank, kInter);
            if (use_ring) {
                if (my_lrank != 0) s.recv(my_lrank - 1, k, seg, len, type);
                if (my_lrank != n - 1) s.send(my_lrank + 1, k, seg, len, type);
            } else {
                append_binomial_bcast(s, seg, len, type, /*root=*/0, /*tag_base=*/k);
            }
        }
        if (m > 1) {
            if (shm_intra) {
                if (r == node_leader) {
                    std::vector<int> readers;
                    readers.reserve(static_cast<std::size_t>(m) - 1);
                    for (int w : mem) {
                        if (w != r) readers.push_back(w);
                    }
                    s.copy_pub(kIntraDown + k, seg, len, type, readers);
                } else {
                    s.copy_get(kIntraDown + k, node_leader, seg, /*src_byte_off=*/0, len, type);
                }
            } else {
                GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraUp);
                append_binomial_bcast(s, seg, len, type, leader_mrank, /*tag_base=*/k);
            }
        }
    });
    if (shm_intra) s.drain_published();
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Reduce: intra-node binomial reduce to each node's first member, binomial
// reduce among leaders in dense node order (a rank-order bracketing on
// node-contiguous communicators), then one intra-node hop to the root when
// the root is not its node's leader.
// ---------------------------------------------------------------------------

int build_hier_reduce(Schedule& s, void const* input, void* recvbuf, int count, MPI_Datatype type,
                      MPI_Op op, int root) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const r = s.rank();
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;

    int const root_node = ni.node_of[static_cast<std::size_t>(root)];
    int const root_leader = ni.leader(root_node);

    auto const t = machine_of(c);
    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(s.size());
    bool const use_shm =
        shm::enabled() &&
        bench::model::reduce_hier(t, shape_of(ni), pd, mb, /*shm=*/true) <
            bench::model::reduce_hier(t, shape_of(ni), pd, mb, /*shm=*/false);

    // Phase A: reduce this node's contributions to its leader.
    std::byte* node_acc = s.alloc(bytes);
    if (m > 1) {
        if (use_shm) {
            append_shm_tree_reduce(s, mem, my_mrank, input, node_acc, count, type, op, kIntraUp);
        } else {
            GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraUp);
            append_binomial_reduce(s, input, node_acc, count, type, op, /*root=*/0,
                                   /*tag_base=*/0);
        }
    } else if (bytes > 0) {
        // Snapshot as a schedule step (not at build time): keeps this
        // builder composable with execution-produced inputs, like the flat
        // reduction builders.
        s.local([node_acc, input, bytes]() {
            std::memcpy(node_acc, input, bytes);
            return MPI_SUCCESS;
        });
    }

    // Phase B: reduce the node results among leaders toward the root node's
    // leader (dense node order keeps the fold a bracketing). Phase C hands
    // the result from that leader to the root when they differ.
    if (n > 1) {
        if (node_leader) {
            void* const out = r == root ? recvbuf
                                        : (ni.my_node == root_node
                                               ? static_cast<void*>(s.alloc(bytes))
                                               : nullptr);  // never dereferenced elsewhere
            {
                GroupScope scope(s, leader_map(ni), ni.my_node, kInter);
                append_binomial_reduce(s, node_acc, out, count, type, op, root_node,
                                       /*tag_base=*/0);
                if (root_node != 0 && s.rank() == root_node) s.recv(0, 1, out, count, type);
            }
            if (ni.my_node == root_node && r != root) {
                if (use_shm) {
                    s.copy_pub(kIntraDown, out, count, type, {root});
                } else {
                    s.send(root, kIntraDown, out, count, type);
                }
            }
        }
        if (r == root && root_leader != root) {
            if (use_shm) {
                s.copy_get(kIntraDown, root_leader, recvbuf, /*src_byte_off=*/0, count, type);
            } else {
                s.recv(root_leader, kIntraDown, recvbuf, count, type);
            }
        }
    } else {
        // Degenerate single-node topology (never auto-selected): the node
        // result is already final at the leader.
        if (node_leader && r != root) s.send(root, kIntraDown, node_acc, count, type);
        if (r == root) {
            if (root_leader != root) {
                s.recv(root_leader, kIntraDown, recvbuf, count, type);
            } else if (bytes > 0) {
                std::byte* const acc = node_acc;
                s.local([recvbuf, acc, bytes]() {
                    std::memcpy(recvbuf, acc, bytes);
                    return MPI_SUCCESS;
                });
            }
        }
    }
    if (use_shm) s.drain_published();
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Allreduce. Element-wise (builtin) operations use the "2D" composition:
// a flat intra-node reduce-scatter over S = min_ppn slices, S *parallel*
// inter-node allreduces (slice peer groups: the j-th member of every node),
// and a flat intra-node share-back. Splitting the inter-node work across the
// node's members divides the expensive-tier traffic per critical path by S,
// which is where hierarchy genuinely beats the best flat algorithm at scale.
// Non-element-wise user operations fall back to the leader composition
// (intra reduce, allreduce among leaders, intra bcast), which keeps whole
// vectors intact and rank-order bracketings exact.
// ---------------------------------------------------------------------------

namespace {

void build_hier_allreduce_2d(Schedule& s, void const* input, void* recvbuf, int count,
                             MPI_Datatype type, MPI_Op op) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const r = s.rank();
    std::size_t const extent = static_cast<std::size_t>(type->extent);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);

    int const S = ni.min_ppn;
    auto const off = block_offsets(count, S);
    auto slice_count = [&](int j) {
        return static_cast<int>(off[static_cast<std::size_t>(j) + 1] -
                                off[static_cast<std::size_t>(j)]);
    };
    bool const owner = my_mrank < S;
    int const my_slice = my_mrank;  // meaningful only when owner

    auto const t = machine_of(c);
    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(s.size());
    bool const use_shm =
        shm::enabled() && m > 1 &&
        bench::model::allreduce_hier(t, shape_of(ni), pd, mb, /*commutative=*/true,
                                     /*elementwise=*/true, /*shm=*/true) <
            bench::model::allreduce_hier(t, shape_of(ni), pd, mb, /*commutative=*/true,
                                         /*elementwise=*/true, /*shm=*/false);

    // Phase A: flat intra-node reduce-scatter. With shm, each member
    // publishes its whole input once and every slice owner loads just its
    // slice out of it (src_off selects the slice): one data copy per
    // contribution, no per-slice messages. Safe under MPI_IN_PLACE because
    // every later write to recvbuf slice j is gated on owner j's phase C
    // publish, which happens after owner j — the sole reader of slice j —
    // acked every phase A cell. Without shm: all sends first (the transport
    // is eager, so no emission order can deadlock), then each slice owner
    // drains contributions in member order.
    if (use_shm) {
        std::vector<int> readers;
        readers.reserve(static_cast<std::size_t>(S));
        for (int j = 0; j < S; ++j) {
            if (mem[static_cast<std::size_t>(j)] == r) continue;
            readers.push_back(mem[static_cast<std::size_t>(j)]);
        }
        if (!readers.empty()) s.copy_pub(kIntraUp + my_mrank, input, count, type, readers);
    } else {
        for (int j = 0; j < S; ++j) {
            if (mem[static_cast<std::size_t>(j)] == r) continue;
            s.send(mem[static_cast<std::size_t>(j)], kIntraUp + j,
                   at_offset(input, off[static_cast<std::size_t>(j)], type), slice_count(j), type);
        }
    }
    FoldChain chain{s, op, owner ? slice_count(my_slice) : 0, type};
    if (owner) {
        std::size_t const sbytes = static_cast<std::size_t>(slice_count(my_slice)) * extent;
        std::byte* const own = s.alloc(sbytes);
        if (sbytes > 0) {
            std::byte const* const src =
                at_offset(input, off[static_cast<std::size_t>(my_slice)], type);
            s.local([own, src, sbytes]() {
                std::memcpy(own, src, sbytes);
                return MPI_SUCCESS;
            });
        }
        chain.free = {s.alloc(sbytes), s.alloc(sbytes)};
        for (int i = 0; i < m; ++i) {
            if (i == my_mrank) {
                chain.fold_right(own);
                continue;
            }
            std::byte* const target = chain.take();
            if (use_shm) {
                s.copy_get(kIntraUp + i, mem[static_cast<std::size_t>(i)], target,
                           static_cast<long long>(off[static_cast<std::size_t>(my_slice)]) *
                               static_cast<long long>(extent),
                           slice_count(my_slice), type);
            } else {
                s.recv(mem[static_cast<std::size_t>(i)], kIntraUp + my_slice, target,
                       slice_count(my_slice), type);
            }
            chain.fold_right(target);
        }
    }

    // Phase B: inter-node allreduce of each slice within its peer group
    // (the j-th member of every node; S groups run concurrently on disjoint
    // ranks). The inner algorithm is the cost model's best single-tier
    // choice for n ranks on a slice.
    std::byte* result = nullptr;
    if (owner) {
        int const cnt = slice_count(my_slice);
        std::size_t const sbytes = static_cast<std::size_t>(cnt) * extent;
        result = s.alloc(sbytes);
        if (n > 1) {
            std::vector<int> peers;
            peers.reserve(static_cast<std::size_t>(n));
            for (int g = 0; g < n; ++g)
                peers.push_back(ni.members(g)[static_cast<std::size_t>(my_slice)]);
            int const inner = select_flat(Family::allreduce, n,
                                          static_cast<std::size_t>(cnt) *
                                              static_cast<std::size_t>(type->size),
                                          /*commutative=*/true, /*elementwise=*/true, t.inter);
            GroupScope scope(s, std::move(peers), ni.my_node, kInter);
            build_allreduce(inner, s, chain.cur, result, cnt, type, op);
        } else if (sbytes > 0) {
            std::byte* const acc = chain.cur;
            s.local([result, acc, sbytes]() {
                std::memcpy(result, acc, sbytes);
                return MPI_SUCCESS;
            });
        }
    }

    // Phase C: flat intra-node share-back of the reduced slices (with shm,
    // each owner publishes its reduced slice once and the other m-1 members
    // read it concurrently).
    if (owner) {
        int const cnt = slice_count(my_slice);
        if (use_shm) {
            std::vector<int> readers;
            readers.reserve(static_cast<std::size_t>(m) - 1);
            for (int i = 0; i < m; ++i) {
                if (i == my_mrank) continue;
                readers.push_back(mem[static_cast<std::size_t>(i)]);
            }
            if (!readers.empty()) s.copy_pub(kIntraDown + my_mrank, result, cnt, type, readers);
        } else {
            for (int i = 0; i < m; ++i) {
                if (i == my_mrank) continue;
                s.send(mem[static_cast<std::size_t>(i)], kIntraDown + my_slice, result, cnt, type);
            }
        }
        std::size_t const sbytes = static_cast<std::size_t>(cnt) * extent;
        if (sbytes > 0) {
            std::byte* const dst =
                at_offset(recvbuf, off[static_cast<std::size_t>(my_slice)], type);
            s.local([dst, result, sbytes]() {
                std::memcpy(dst, result, sbytes);
                return MPI_SUCCESS;
            });
        }
    }
    for (int j = 0; j < S; ++j) {
        if (owner && j == my_slice) continue;
        if (use_shm) {
            s.copy_get(kIntraDown + j, mem[static_cast<std::size_t>(j)],
                       at_offset(recvbuf, off[static_cast<std::size_t>(j)], type),
                       /*src_byte_off=*/0, slice_count(j), type);
        } else {
            s.recv(mem[static_cast<std::size_t>(j)], kIntraDown + j,
                   at_offset(recvbuf, off[static_cast<std::size_t>(j)], type), slice_count(j),
                   type);
        }
    }
    if (use_shm) s.drain_published();
}

void build_hier_allreduce_leader(Schedule& s, void const* input, void* recvbuf, int count,
                                 MPI_Datatype type, MPI_Op op) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const r = s.rank();
    std::size_t const bytes =
        static_cast<std::size_t>(count) * static_cast<std::size_t>(type->extent);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;

    auto const t = machine_of(c);
    double const mb = static_cast<double>(count) * static_cast<double>(type->size);
    double const pd = static_cast<double>(s.size());
    bool const use_shm =
        shm::enabled() && m > 1 &&
        bench::model::allreduce_hier(t, shape_of(ni), pd, mb, op->commutative,
                                     /*elementwise=*/false, /*shm=*/true) <
            bench::model::allreduce_hier(t, shape_of(ni), pd, mb, op->commutative,
                                         /*elementwise=*/false, /*shm=*/false);

    // Phase A: intra-node reduce to the leader (zero-copy tree when the
    // copy tier wins; byte-identical fold bracketing either way).
    std::byte* const node_acc = s.alloc(bytes);
    if (m > 1) {
        if (use_shm) {
            append_shm_tree_reduce(s, mem, my_mrank, input, node_acc, count, type, op, kIntraUp);
        } else {
            GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraUp);
            append_binomial_reduce(s, input, node_acc, count, type, op, /*root=*/0,
                                   /*tag_base=*/0);
        }
    } else if (bytes > 0) {
        s.local([node_acc, input, bytes]() {
            std::memcpy(node_acc, input, bytes);
            return MPI_SUCCESS;
        });
    }

    // Phase B: allreduce among leaders (rank-order-safe inner algorithm for
    // non-commutative operations; select_flat filters by the flags).
    if (node_leader) {
        if (n > 1) {
            int const inner = select_flat(Family::allreduce, n,
                                          static_cast<std::size_t>(count) *
                                              static_cast<std::size_t>(type->size),
                                          op->commutative, /*elementwise=*/false, t.inter);
            GroupScope scope(s, leader_map(ni), ni.my_node, kInter);
            build_allreduce(inner, s, node_acc, recvbuf, count, type, op);
        } else if (bytes > 0) {
            s.local([recvbuf, node_acc, bytes]() {
                std::memcpy(recvbuf, node_acc, bytes);
                return MPI_SUCCESS;
            });
        }
    }

    // Phase C: the final vector leaves the leader — a single publish read
    // concurrently by the other m-1 members under shm, a binomial relay
    // otherwise.
    if (m > 1) {
        if (use_shm) {
            if (node_leader) {
                std::vector<int> readers(mem.begin() + 1, mem.end());
                s.copy_pub(kIntraDown, recvbuf, count, type, readers);
            } else {
                s.copy_get(kIntraDown, mem.front(), recvbuf, /*src_byte_off=*/0, count, type);
            }
        } else {
            GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraDown);
            append_binomial_bcast(s, recvbuf, count, type, /*root=*/0, /*tag_base=*/0);
        }
    }
    if (use_shm) s.drain_published();
}

}  // namespace

int build_hier_allreduce(Schedule& s, void const* input, void* recvbuf, int count,
                         MPI_Datatype type, MPI_Op op) {
    // Builtin operations are element-wise (and commutative) by construction,
    // which is what makes slicing the vector across node members legal.
    if (op->builtin) {
        build_hier_allreduce_2d(s, input, recvbuf, count, type, op);
    } else {
        build_hier_allreduce_leader(s, input, recvbuf, count, type, op);
    }
    return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Allgather: intra-node gather to the leader (blocks land directly at their
// comm-rank offsets), a leader ring forwarding packed per-node bundles, and
// an intra-node binomial bcast of the assembled result. Two compositions:
// the PR-3 unpipelined one (each phase completes before the next starts)
// and a segment-pipelined one that interleaves the three phases per
// segment; build_hier_allgather picks by the shared cost model (or by the
// segment-size pin).
// ---------------------------------------------------------------------------

namespace {

int build_hier_allgather_unpipelined(Schedule& s, void* recvbuf, int recvcount,
                                     MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();
    std::size_t const bb =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;

    // Phase A: members deposit their block at the leader, directly at its
    // final comm-rank offset in the leader's recvbuf.
    if (!node_leader) {
        s.send(mem.front(), kIntraUp,
               at_offset(recvbuf, static_cast<long long>(r) * recvcount, recvtype), recvcount,
               recvtype);
    } else {
        for (int i = 1; i < m; ++i) {
            int const w = mem[static_cast<std::size_t>(i)];
            s.recv(w, kIntraUp, at_offset(recvbuf, static_cast<long long>(w) * recvcount, recvtype),
                   recvcount, recvtype);
        }
    }

    // Phase B: leader ring. Round k forwards the bundle of node
    // (my_node - k) to the next leader; bundles are packed because a node's
    // blocks need not be contiguous in recvbuf.
    if (node_leader && n > 1) {
        auto node_size = [&](int g) {
            return static_cast<int>(ni.members(g).size());
        };
        std::size_t const max_bundle = static_cast<std::size_t>(ni.max_ppn) * bb;
        std::byte* cur = s.alloc(max_bundle);
        std::byte* next = s.alloc(max_bundle);
        // Pack this node's bundle (a local step: phase A receives must have
        // landed first, and step order guarantees that).
        if (bb > 0) {
            auto const members = ni.members(ni.my_node);
            s.local([cur, members, recvbuf, recvcount, recvtype, bb]() {
                for (std::size_t i = 0; i < members.size(); ++i) {
                    recvtype->pack(
                        at_offset(recvbuf,
                                  static_cast<long long>(members[i]) * recvcount, recvtype),
                        recvcount, cur + i * bb);
                }
                return MPI_SUCCESS;
            });
        }
        int const right = (ni.my_node + 1) % n;
        int const left = (ni.my_node - 1 + n) % n;
        std::vector<int> const leaders = leader_map(ni);
        for (int k = 0; k < n - 1; ++k) {
            int const send_node = (ni.my_node - k + n) % n;
            int const recv_node = (ni.my_node - k - 1 + n) % n;
            int const slot = s.post(leaders[static_cast<std::size_t>(left)], kInter + k, next,
                                    static_cast<int>(static_cast<std::size_t>(node_size(recv_node)) * bb),
                                    MPI_BYTE);
            s.send(leaders[static_cast<std::size_t>(right)], kInter + k, cur,
                   static_cast<int>(static_cast<std::size_t>(node_size(send_node)) * bb),
                   MPI_BYTE);
            s.wait(slot);
            if (bb > 0) {
                auto const members = ni.members(recv_node);
                s.local([next, members, recvbuf, recvcount, recvtype, bb]() {
                    for (std::size_t i = 0; i < members.size(); ++i) {
                        recvtype->unpack(
                            next + i * bb, recvcount,
                            at_offset(recvbuf,
                                      static_cast<long long>(members[i]) * recvcount,
                                      recvtype));
                    }
                    return MPI_SUCCESS;
                });
            }
            std::swap(cur, next);
        }
    }

    // Phase C: the leader broadcasts the assembled result into its node.
    if (m > 1) {
        GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraDown);
        append_binomial_bcast(s, recvbuf, p * recvcount, recvtype, /*root=*/0, /*tag_base=*/0);
    }
    return MPI_SUCCESS;
}

/// Segment-pipelined composition. Per segment k of every rank's block:
/// members deposit their slice at the leader (phase A, all segments emitted
/// up front — eager sends make every slice available as soon as the member
/// reaches it), the leader rings the node bundles of segment k (phase B),
/// packs the assembled segment and relays it binomially into the node
/// (phase C). Segment-major emission order pipelines: while the leader sits
/// in segment k's ring waits, the members relay and unpack segment k-1, and
/// segment k+1's slices are already en route.
int build_hier_allgather_pipelined(Schedule& s, void* recvbuf, int recvcount,
                                   MPI_Datatype recvtype, int nseg) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();
    std::size_t const esz = static_cast<std::size_t>(recvtype->size);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;
    std::size_t const sb_max = static_cast<std::size_t>(max_seg_len(recvcount, nseg)) * esz;

    // Phase A, all segments up front: the slice [off, off+len) of our block
    // goes to the leader at its final recvbuf offset.
    if (!node_leader) {
        compose_segments(recvcount, nseg, [&](int k, long long off, int len) {
            s.send(mem.front(), kIntraUp + k,
                   at_offset(recvbuf, static_cast<long long>(r) * recvcount + off, recvtype), len,
                   recvtype);
        });
    }

    // Shared per-rank scratch, reused across segments (program order makes
    // each buffer's previous use complete before its next: sends copy into
    // the transport eagerly and unpacks precede the next segment's receive).
    std::byte* ring_cur = nullptr;
    std::byte* ring_next = nullptr;
    std::vector<int> leaders;
    if (node_leader && n > 1) {
        std::size_t const max_bundle = static_cast<std::size_t>(ni.max_ppn) * sb_max;
        ring_cur = s.alloc(max_bundle);
        ring_next = s.alloc(max_bundle);
        leaders = leader_map(ni);
    }
    std::byte* const c_bundle = m > 1 ? s.alloc(static_cast<std::size_t>(p) * sb_max) : nullptr;

    NodeInfo const* const nip = &ni;
    compose_segments(recvcount, nseg, [&](int k, long long off, int len) {
        std::size_t const sb = static_cast<std::size_t>(len) * esz;
        if (node_leader) {
            // Phase A receives for this segment (slices land in place).
            for (int i = 1; i < m; ++i) {
                int const w = mem[static_cast<std::size_t>(i)];
                s.recv(w, kIntraUp + k,
                       at_offset(recvbuf, static_cast<long long>(w) * recvcount + off, recvtype),
                       len, recvtype);
            }
            // Phase B: ring the per-node bundles of this segment. Round j
            // reuses tag kInter + j across segments — matching is FIFO per
            // (source, tag) and both sides emit segments in ascending order.
            if (n > 1) {
                auto node_size = [&](int g) {
                    return static_cast<int>(nip->members(g).size());
                };
                if (sb > 0) {
                    auto const members = nip->members(ni.my_node);
                    std::byte* const cur = ring_cur;
                    s.local([cur, members, recvbuf, recvcount, recvtype, off, len, sb]() {
                        for (std::size_t i = 0; i < members.size(); ++i) {
                            recvtype->pack(
                                at_offset(recvbuf,
                                          static_cast<long long>(members[i]) * recvcount + off,
                                          recvtype),
                                len, cur + i * sb);
                        }
                        return MPI_SUCCESS;
                    });
                }
                int const right = (ni.my_node + 1) % n;
                int const left = (ni.my_node - 1 + n) % n;
                for (int j = 0; j < n - 1; ++j) {
                    int const send_node = (ni.my_node - j + n) % n;
                    int const recv_node = (ni.my_node - j - 1 + n) % n;
                    int const slot =
                        s.post(leaders[static_cast<std::size_t>(left)], kInter + j, ring_next,
                               static_cast<int>(static_cast<std::size_t>(node_size(recv_node)) * sb),
                               MPI_BYTE);
                    s.send(leaders[static_cast<std::size_t>(right)], kInter + j, ring_cur,
                           static_cast<int>(static_cast<std::size_t>(node_size(send_node)) * sb),
                           MPI_BYTE);
                    s.wait(slot);
                    if (sb > 0) {
                        auto const members = nip->members(recv_node);
                        std::byte* const arrived = ring_next;
                        s.local([arrived, members, recvbuf, recvcount, recvtype, off, len, sb]() {
                            for (std::size_t i = 0; i < members.size(); ++i) {
                                recvtype->unpack(
                                    arrived + i * sb, len,
                                    at_offset(recvbuf,
                                              static_cast<long long>(members[i]) * recvcount +
                                                  off,
                                              recvtype));
                            }
                            return MPI_SUCCESS;
                        });
                    }
                    std::swap(ring_cur, ring_next);
                }
            }
            // Phase C: pack the assembled segment (p strided slices) into
            // one contiguous bundle for the intra-node relay.
            if (m > 1 && sb > 0) {
                s.local([c_bundle, recvbuf, recvcount, recvtype, off, len, sb, p]() {
                    for (int q = 0; q < p; ++q) {
                        recvtype->pack(
                            at_offset(recvbuf, static_cast<long long>(q) * recvcount + off,
                                      recvtype),
                            len, c_bundle + static_cast<std::size_t>(q) * sb);
                    }
                    return MPI_SUCCESS;
                });
            }
        }
        if (m > 1) {
            {
                GroupScope scope(s, std::vector<int>(mem.begin(), mem.end()), my_mrank, kIntraDown);
                append_binomial_bcast(s, c_bundle, static_cast<int>(static_cast<std::size_t>(p) * sb),
                                      MPI_BYTE, /*root=*/0, /*tag_base=*/k);
            }
            if (!node_leader && sb > 0) {
                s.local([c_bundle, recvbuf, recvcount, recvtype, off, len, sb, p]() {
                    for (int q = 0; q < p; ++q) {
                        recvtype->unpack(
                            c_bundle + static_cast<std::size_t>(q) * sb, len,
                            at_offset(recvbuf, static_cast<long long>(q) * recvcount + off,
                                      recvtype));
                    }
                    return MPI_SUCCESS;
                });
            }
        }
    });
    return MPI_SUCCESS;
}

/// Leader composition with zero-copy intra phases: members publish their
/// block once and the leader loads each directly into its final recvbuf
/// offset (phase A), the packed leader ring runs unchanged (phase B), and
/// the assembled result is published once and read concurrently by the
/// other m-1 members (phase C — one epoch of p·B-byte reads instead of a
/// log(m)-deep message relay).
int build_hier_allgather_leader_shm(Schedule& s, void* recvbuf, int recvcount,
                                    MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();
    std::size_t const bb =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;

    // Phase A: each member publishes its block (already sitting at its own
    // comm-rank offset in its recvbuf); the leader is the sole reader and
    // lands it at the same offset in the leader's recvbuf. Safe against the
    // phase C overwrite of the member's whole recvbuf: that copy_get waits
    // on the leader's publish, which follows the leader's phase A reads.
    if (!node_leader) {
        s.copy_pub(kIntraUp + my_mrank,
                   at_offset(recvbuf, static_cast<long long>(r) * recvcount, recvtype), recvcount,
                   recvtype, {mem.front()});
    } else {
        for (int i = 1; i < m; ++i) {
            int const w = mem[static_cast<std::size_t>(i)];
            s.copy_get(kIntraUp + i, w,
                       at_offset(recvbuf, static_cast<long long>(w) * recvcount, recvtype),
                       /*src_byte_off=*/0, recvcount, recvtype);
        }
    }

    // Phase B: leader ring, identical to the unpipelined composition.
    if (node_leader && n > 1) {
        auto node_size = [&](int g) {
            return static_cast<int>(ni.members(g).size());
        };
        std::size_t const max_bundle = static_cast<std::size_t>(ni.max_ppn) * bb;
        std::byte* cur = s.alloc(max_bundle);
        std::byte* next = s.alloc(max_bundle);
        if (bb > 0) {
            auto const members = ni.members(ni.my_node);
            s.local([cur, members, recvbuf, recvcount, recvtype, bb]() {
                for (std::size_t i = 0; i < members.size(); ++i) {
                    recvtype->pack(
                        at_offset(recvbuf,
                                  static_cast<long long>(members[i]) * recvcount, recvtype),
                        recvcount, cur + i * bb);
                }
                return MPI_SUCCESS;
            });
        }
        int const right = (ni.my_node + 1) % n;
        int const left = (ni.my_node - 1 + n) % n;
        std::vector<int> const leaders = leader_map(ni);
        for (int k = 0; k < n - 1; ++k) {
            int const send_node = (ni.my_node - k + n) % n;
            int const recv_node = (ni.my_node - k - 1 + n) % n;
            int const slot = s.post(leaders[static_cast<std::size_t>(left)], kInter + k, next,
                                    static_cast<int>(static_cast<std::size_t>(node_size(recv_node)) * bb),
                                    MPI_BYTE);
            s.send(leaders[static_cast<std::size_t>(right)], kInter + k, cur,
                   static_cast<int>(static_cast<std::size_t>(node_size(send_node)) * bb),
                   MPI_BYTE);
            s.wait(slot);
            if (bb > 0) {
                auto const members = ni.members(recv_node);
                s.local([next, members, recvbuf, recvcount, recvtype, bb]() {
                    for (std::size_t i = 0; i < members.size(); ++i) {
                        recvtype->unpack(
                            next + i * bb, recvcount,
                            at_offset(recvbuf,
                                      static_cast<long long>(members[i]) * recvcount,
                                      recvtype));
                    }
                    return MPI_SUCCESS;
                });
            }
            std::swap(cur, next);
        }
    }

    // Phase C: one publish of the assembled result, m-1 concurrent reads.
    if (m > 1) {
        if (node_leader) {
            std::vector<int> const readers(mem.begin() + 1, mem.end());
            s.copy_pub(kIntraDown, recvbuf, p * recvcount, recvtype, readers);
        } else {
            s.copy_get(kIntraDown, mem.front(), recvbuf, /*src_byte_off=*/0, p * recvcount,
                       recvtype);
        }
    }
    s.drain_published();
    return MPI_SUCCESS;
}

/// "2D" zero-copy composition, uniform node shapes only (min_ppn ==
/// max_ppn): the m-th members of all nodes form m concurrent inter-node
/// rings moving single blocks (B bytes per hop instead of the leader ring's
/// m·B packed bundles) directly into their final recvbuf offsets, then each
/// member publishes its assembled ring column once and loads the other m-1
/// columns — (m-1)·n strided reads — straight out of its same-node peers'
/// recvbufs. Writes during the publish window touch only columns no reader
/// of this rank's cell loads, so the concurrency is race-free.
int build_hier_allgather_shm2d(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const mi = my_member_index(ni, r);

    // Phase B directly (no gather phase: every block already sits at its
    // final offset): ring among the mi-th members of all nodes. Concurrent
    // rings share tags kInter + k but are disjoint rank sets, so matching
    // is unambiguous.
    if (n > 1) {
        int const right = ni.members((ni.my_node + 1) % n)[static_cast<std::size_t>(mi)];
        int const left = ni.members((ni.my_node - 1 + n) % n)[static_cast<std::size_t>(mi)];
        for (int k = 0; k < n - 1; ++k) {
            int const send_node = (ni.my_node - k + n) % n;
            int const recv_node = (ni.my_node - k - 1 + n) % n;
            int const sw = ni.members(send_node)[static_cast<std::size_t>(mi)];
            int const rw = ni.members(recv_node)[static_cast<std::size_t>(mi)];
            int const slot =
                s.post(left, kInter + k,
                       at_offset(recvbuf, static_cast<long long>(rw) * recvcount, recvtype),
                       recvcount, recvtype);
            s.send(right, kInter + k,
                   at_offset(recvbuf, static_cast<long long>(sw) * recvcount, recvtype),
                   recvcount, recvtype);
            s.wait(slot);
        }
    }

    // Phase C: column share within the node. Reader lists repeat each peer
    // n times — one expected get per block of this rank's column.
    if (m > 1) {
        std::vector<int> readers;
        readers.reserve(static_cast<std::size_t>(m - 1) * static_cast<std::size_t>(n));
        for (int i = 0; i < m; ++i) {
            if (i == mi) continue;
            for (int g = 0; g < n; ++g) readers.push_back(mem[static_cast<std::size_t>(i)]);
        }
        s.copy_pub(kIntraUp + mi, recvbuf, p * recvcount, recvtype, readers);
        for (int i = 0; i < m; ++i) {
            if (i == mi) continue;
            for (int g = 0; g < n; ++g) {
                int const w = ni.members(g)[static_cast<std::size_t>(i)];
                s.copy_get(kIntraUp + i, mem[static_cast<std::size_t>(i)],
                           at_offset(recvbuf, static_cast<long long>(w) * recvcount, recvtype),
                           static_cast<long long>(w) * recvcount *
                               static_cast<long long>(recvtype->extent),
                           recvcount, recvtype);
            }
        }
        s.drain_published();
    }
    return MPI_SUCCESS;
}

}  // namespace

int build_hier_allgather(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    std::size_t const bb =
        static_cast<std::size_t>(recvcount) * static_cast<std::size_t>(recvtype->size);
    auto const t = machine_of(c);
    auto const shape = shape_of(ni);
    // The model segments by bytes; emission additionally clamps to the
    // element count (no empty segments). For blocks with fewer elements
    // than the model's segment count the pipelined cost below was priced
    // with more segments than get emitted — at such tiny sizes the two
    // compositions' costs converge, so the decision error is bounded and
    // correctness is unaffected.
    int const nseg = clamp_segments_to_count(
        static_cast<int>(bench::model::allgather_hier_segments(
            t, shape, static_cast<double>(s.size()), static_cast<double>(bb))),
        recvcount);
    bool pipelined = nseg > 1;
    if (pipelined && !segment_forced()) {
        pipelined = bench::model::allgather_hier_pipelined(t, shape,
                                                           static_cast<double>(s.size()),
                                                           static_cast<double>(bb)) <
                    bench::model::allgather_hier_unpipelined(t, shape,
                                                            static_cast<double>(s.size()),
                                                            static_cast<double>(bb));
    }
    // Zero-copy compositions, keyed on the same formulas the registry
    // prices hierarchical allgather with. A segment-size pin keeps the
    // pipelined p2p composition so segmentation harnesses stay exercised.
    if (shm::enabled() && !(segment_forced() && nseg > 1)) {
        double const pd = static_cast<double>(s.size());
        double const c_leader =
            bench::model::allgather_hier_leader_shm(t, shape, pd, static_cast<double>(bb));
        double const c_2d = ni.min_ppn == ni.max_ppn
                                ? bench::model::allgather_hier_shm2d(t, shape, pd,
                                                                    static_cast<double>(bb))
                                : std::numeric_limits<double>::infinity();
        double const c_p2p =
            std::min(bench::model::allgather_hier_unpipelined(t, shape, pd,
                                                              static_cast<double>(bb)),
                     bench::model::allgather_hier_pipelined(t, shape, pd,
                                                            static_cast<double>(bb)));
        if (std::min(c_leader, c_2d) < c_p2p) {
            return c_2d <= c_leader
                       ? build_hier_allgather_shm2d(s, recvbuf, recvcount, recvtype)
                       : build_hier_allgather_leader_shm(s, recvbuf, recvcount, recvtype);
        }
    }
    return pipelined ? build_hier_allgather_pipelined(s, recvbuf, recvcount, recvtype, nseg)
                     : build_hier_allgather_unpipelined(s, recvbuf, recvcount, recvtype);
}

// ---------------------------------------------------------------------------
// Alltoall: members ship their whole send row to the leader, leaders
// exchange one packed bundle per node pair (pairwise order), and leaders
// ship each member its reassembled result row. Aggregation trades bandwidth
// on the leader for an (n-1)-message network phase, so the cost model picks
// this in the latency-bound regime. As with allgather, a segment-pipelined
// composition interleaves the three phases per segment of the
// per-destination block; build_hier_alltoall picks by the shared cost model
// (or the segment-size pin).
// ---------------------------------------------------------------------------

namespace {

int build_hier_alltoall_unpipelined(Schedule& s, void const* sendbuf, int sendcount,
                                    MPI_Datatype sendtype, void* recvbuf, int recvcount,
                                    MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();
    std::size_t const bb =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    std::size_t const row = static_cast<std::size_t>(p) * bb;

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;

    if (!node_leader) {
        // Send the full row up, receive the reassembled result row back.
        s.send(mem.front(), kIntraUp, sendbuf, p * sendcount, sendtype);
        s.recv(mem.front(), kIntraDown, recvbuf, p * recvcount, recvtype);
        return MPI_SUCCESS;
    }

    // rows[i]: member i's packed send row (blocks by destination comm rank).
    std::byte* const rows = s.alloc(static_cast<std::size_t>(m) * row);
    if (bb > 0) {
        // Own row (member 0), packed as a schedule step for composability.
        s.local([rows, sendbuf, sendcount, sendtype, p]() {
            sendtype->pack(sendbuf, p * sendcount, rows);
            return MPI_SUCCESS;
        });
    }
    for (int i = 1; i < m; ++i) {
        s.recv(mem[static_cast<std::size_t>(i)], kIntraUp,
               rows + static_cast<std::size_t>(i) * row, static_cast<int>(row), MPI_BYTE);
    }

    // Inter phase: pairwise bundle exchange. The bundle for node d holds
    // blocks (sender member i, destination member w) in that order.
    std::vector<int> const leaders = leader_map(ni);
    std::vector<std::byte*> inbound(static_cast<std::size_t>(n), nullptr);
    for (int i = 1; i < n; ++i) {
        int const dst = (ni.my_node + i) % n;
        int const src = (ni.my_node - i + n) % n;
        auto const dmem = ni.members(dst);
        auto const smem = ni.members(src);
        std::size_t const out_bytes = static_cast<std::size_t>(m) * dmem.size() * bb;
        std::size_t const in_bytes = smem.size() * static_cast<std::size_t>(m) * bb;
        std::byte* const out = s.alloc(out_bytes);
        std::byte* const in = s.alloc(in_bytes);
        inbound[static_cast<std::size_t>(src)] = in;
        int const slot = s.post(leaders[static_cast<std::size_t>(src)], kInter + i, in,
                                static_cast<int>(in_bytes), MPI_BYTE);
        if (bb > 0) {
            s.local([out, rows, dmem, row, bb, m]() {
                std::size_t pos = 0;
                for (int i2 = 0; i2 < m; ++i2) {
                    for (int w : dmem) {
                        std::memcpy(out + pos,
                                    rows + static_cast<std::size_t>(i2) * row +
                                        static_cast<std::size_t>(w) * bb,
                                    bb);
                        pos += bb;
                    }
                }
                return MPI_SUCCESS;
            });
        }
        s.send(leaders[static_cast<std::size_t>(dst)], kInter + i, out,
               static_cast<int>(out_bytes), MPI_BYTE);
        s.wait(slot);
    }

    // Reassemble one result row per member (blocks ordered by source comm
    // rank, exactly the alltoall receive layout), ship it down, and unpack
    // our own. Runs after every phase B wait by program order.
    NodeInfo const* const nip = &ni;
    for (int w = 0; w < m; ++w) {
        std::byte* const out_row = s.alloc(row);
        int const dest_comm_rank = mem[static_cast<std::size_t>(w)];
        if (bb > 0) {
            s.local([out_row, nip, inbound, rows, row, bb, w, p, m, dest_comm_rank]() {
                for (int q = 0; q < p; ++q) {
                    int const g = nip->node_of[static_cast<std::size_t>(q)];
                    auto const gm = nip->members(g);
                    std::size_t j = 0;
                    while (gm[j] != q) ++j;  // q's index within its node
                    std::byte const* const src =
                        g == nip->my_node
                            // Member j's row, block destined to comm rank
                            // `dest_comm_rank` (rows are indexed by
                            // destination comm rank).
                            ? rows + j * row + static_cast<std::size_t>(dest_comm_rank) * bb
                            // Remote bundle order: (sender member j,
                            // destination member index w).
                            : inbound[static_cast<std::size_t>(g)] +
                                  (j * static_cast<std::size_t>(m) + static_cast<std::size_t>(w)) *
                                      bb;
                    std::memcpy(out_row + static_cast<std::size_t>(q) * bb, src, bb);
                }
                return MPI_SUCCESS;
            });
        }
        if (w == my_mrank) {
            if (bb > 0) {
                s.local([out_row, recvbuf, recvcount, recvtype, p]() {
                    recvtype->unpack(out_row, p * recvcount, recvbuf);
                    return MPI_SUCCESS;
                });
            }
        } else {
            s.send(dest_comm_rank, kIntraDown, out_row, static_cast<int>(row), MPI_BYTE);
        }
    }
    return MPI_SUCCESS;
}

/// Segment-pipelined composition over segments of the per-destination
/// block. Per segment k: members pack and ship the row segment (one slice
/// per destination comm rank) to the leader, leaders exchange per-node-pair
/// bundle segments pairwise, and leaders ship each member its reassembled
/// result-row segment. Requires element-aligned segmentation on both sides
/// (the dispatcher gates on sendcount == recvcount with equal type sizes).
int build_hier_alltoall_pipelined(Schedule& s, void const* sendbuf, int sendcount,
                                  MPI_Datatype sendtype, void* recvbuf, int recvcount,
                                  MPI_Datatype recvtype, int nseg) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    int const n = ni.num_nodes();
    int const p = s.size();
    int const r = s.rank();
    std::size_t const esz = static_cast<std::size_t>(sendtype->size);
    std::size_t const sb_max = static_cast<std::size_t>(max_seg_len(sendcount, nseg)) * esz;
    std::size_t const rowseg_max = static_cast<std::size_t>(p) * sb_max;

    auto const mem = ni.members(ni.my_node);
    int const m = static_cast<int>(mem.size());
    int const my_mrank = my_member_index(ni, r);
    bool const node_leader = mem.front() == r;
    NodeInfo const* const nip = &ni;

    if (!node_leader) {
        // One shared row buffer each way, reused across segments: the
        // upstream send copies into the transport eagerly, and the
        // downstream unpack completes before the next segment's receive.
        std::byte* const up = s.alloc(rowseg_max);
        std::byte* const down = s.alloc(rowseg_max);
        compose_segments(sendcount, nseg, [&](int k, long long off, int len) {
            std::size_t const sb = static_cast<std::size_t>(len) * esz;
            if (sb > 0) {
                s.local([up, sendbuf, sendcount, sendtype, off, len, sb, p]() {
                    for (int q = 0; q < p; ++q) {
                        sendtype->pack(
                            at_offset(sendbuf, static_cast<long long>(q) * sendcount + off,
                                      sendtype),
                            len, up + static_cast<std::size_t>(q) * sb);
                    }
                    return MPI_SUCCESS;
                });
            }
            s.send(mem.front(), kIntraUp + k, up,
                   static_cast<int>(static_cast<std::size_t>(p) * sb), MPI_BYTE);
        });
        compose_segments(recvcount, nseg, [&](int k, long long off, int len) {
            std::size_t const sb = static_cast<std::size_t>(len) * esz;
            s.recv(mem.front(), kIntraDown + k, down,
                   static_cast<int>(static_cast<std::size_t>(p) * sb), MPI_BYTE);
            if (sb > 0) {
                s.local([down, recvbuf, recvcount, recvtype, off, len, sb, p]() {
                    for (int q = 0; q < p; ++q) {
                        recvtype->unpack(
                            down + static_cast<std::size_t>(q) * sb, len,
                            at_offset(recvbuf, static_cast<long long>(q) * recvcount + off,
                                      recvtype));
                    }
                    return MPI_SUCCESS;
                });
            }
        });
        return MPI_SUCCESS;
    }

    // Leader scratch, all reused across segments. rows: one packed row
    // segment per member (stride rowseg_max, blocks by destination comm
    // rank); per-pair in/out bundles; one result-row buffer per member.
    std::byte* const rows = s.alloc(static_cast<std::size_t>(m) * rowseg_max);
    std::vector<int> const leaders = leader_map(ni);
    std::vector<std::byte*> outb(static_cast<std::size_t>(n), nullptr);
    std::vector<std::byte*> inb(static_cast<std::size_t>(n), nullptr);
    for (int i = 1; i < n; ++i) {
        int const dst = (ni.my_node + i) % n;
        int const src = (ni.my_node - i + n) % n;
        outb[static_cast<std::size_t>(dst)] = s.alloc(
            static_cast<std::size_t>(m) * ni.members(dst).size() *
            sb_max);
        inb[static_cast<std::size_t>(src)] = s.alloc(
            ni.members(src).size() * static_cast<std::size_t>(m) *
            sb_max);
    }
    std::vector<std::byte*> out_rows(static_cast<std::size_t>(m), nullptr);
    for (int w = 0; w < m; ++w) out_rows[static_cast<std::size_t>(w)] = s.alloc(rowseg_max);

    compose_segments(sendcount, nseg, [&](int k, long long off, int len) {
        std::size_t const sb = static_cast<std::size_t>(len) * esz;
        std::size_t const rowseg = static_cast<std::size_t>(p) * sb;
        // Phase A: own row segment packed in place; member row segments
        // received as packed bytes.
        if (sb > 0) {
            s.local([rows, sendbuf, sendcount, sendtype, off, len, sb, p]() {
                for (int q = 0; q < p; ++q) {
                    sendtype->pack(
                        at_offset(sendbuf, static_cast<long long>(q) * sendcount + off, sendtype),
                        len, rows + static_cast<std::size_t>(q) * sb);
                }
                return MPI_SUCCESS;
            });
        }
        for (int i = 1; i < m; ++i) {
            s.recv(mem[static_cast<std::size_t>(i)], kIntraUp + k,
                   rows + static_cast<std::size_t>(i) * rowseg_max, static_cast<int>(rowseg),
                   MPI_BYTE);
        }

        // Phase B: pairwise bundle-segment exchange. Tag kInter + i is
        // reused across segments (FIFO per source; both sides emit segments
        // in ascending order).
        for (int i = 1; i < n; ++i) {
            int const dst = (ni.my_node + i) % n;
            int const src = (ni.my_node - i + n) % n;
            auto const dmem = ni.members(dst);
            auto const smem = ni.members(src);
            std::size_t const out_bytes = static_cast<std::size_t>(m) * dmem.size() * sb;
            std::size_t const in_bytes = smem.size() * static_cast<std::size_t>(m) * sb;
            std::byte* const out = outb[static_cast<std::size_t>(dst)];
            std::byte* const in = inb[static_cast<std::size_t>(src)];
            int const slot = s.post(leaders[static_cast<std::size_t>(src)], kInter + i, in,
                                    static_cast<int>(in_bytes), MPI_BYTE);
            if (sb > 0) {
                s.local([out, rows, dmem, rowseg_max, sb, m]() {
                    std::size_t pos = 0;
                    for (int i2 = 0; i2 < m; ++i2) {
                        for (int w : dmem) {
                            std::memcpy(out + pos,
                                        rows + static_cast<std::size_t>(i2) * rowseg_max +
                                            static_cast<std::size_t>(w) * sb,
                                        sb);
                            pos += sb;
                        }
                    }
                    return MPI_SUCCESS;
                });
            }
            s.send(leaders[static_cast<std::size_t>(dst)], kInter + i, out,
                   static_cast<int>(out_bytes), MPI_BYTE);
            s.wait(slot);
        }

        // Phase C: reassemble each member's result-row segment (blocks by
        // source comm rank) and ship it down; unpack our own.
        for (int w = 0; w < m; ++w) {
            std::byte* const out_row = out_rows[static_cast<std::size_t>(w)];
            int const dest_comm_rank = mem[static_cast<std::size_t>(w)];
            if (sb > 0) {
                s.local([out_row, nip, inb, rows, rowseg_max, sb, w, p, m, dest_comm_rank]() {
                    for (int q = 0; q < p; ++q) {
                        int const g = nip->node_of[static_cast<std::size_t>(q)];
                        auto const gm = nip->members(g);
                        std::size_t j = 0;
                        while (gm[j] != q) ++j;  // q's index within its node
                        std::byte const* const src =
                            g == nip->my_node
                                ? rows + j * rowseg_max +
                                      static_cast<std::size_t>(dest_comm_rank) * sb
                                : inb[static_cast<std::size_t>(g)] +
                                      (j * static_cast<std::size_t>(m) +
                                       static_cast<std::size_t>(w)) *
                                          sb;
                        std::memcpy(out_row + static_cast<std::size_t>(q) * sb, src, sb);
                    }
                    return MPI_SUCCESS;
                });
            }
            if (w == my_mrank) {
                if (sb > 0) {
                    s.local([out_row, recvbuf, recvcount, recvtype, off, len, sb, p]() {
                        for (int q = 0; q < p; ++q) {
                            recvtype->unpack(
                                out_row + static_cast<std::size_t>(q) * sb, len,
                                at_offset(recvbuf, static_cast<long long>(q) * recvcount + off,
                                          recvtype));
                        }
                        return MPI_SUCCESS;
                    });
                }
            } else {
                s.send(dest_comm_rank, kIntraDown + k, out_row, static_cast<int>(rowseg),
                       MPI_BYTE);
            }
        }
    });
    return MPI_SUCCESS;
}

}  // namespace

int build_hier_alltoall(Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                        void* recvbuf, int recvcount, MPI_Datatype recvtype) {
    MPI_Comm const c = s.comm();
    NodeInfo const& ni = topo::node_info(c);
    std::size_t const bb =
        static_cast<std::size_t>(sendcount) * static_cast<std::size_t>(sendtype->size);
    // Element-aligned segmentation needs the same block shape on both
    // sides; mixed-shape (but signature-compatible) type pairs keep the
    // unpipelined composition. As in build_hier_allgather, the element
    // clamp below can emit fewer segments than the model priced for tiny
    // blocks — bounded decision error, no correctness impact.
    bool pipelined = sendcount == recvcount && sendtype->size == recvtype->size;
    int nseg = 1;
    if (pipelined) {
        auto const t = machine_of(c);
        auto const shape = shape_of(ni);
        nseg = clamp_segments_to_count(
            static_cast<int>(bench::model::alltoall_hier_segments(
                t, shape, static_cast<double>(s.size()), static_cast<double>(bb))),
            sendcount);
        pipelined = nseg > 1;
        if (pipelined && !segment_forced()) {
            pipelined = bench::model::alltoall_hier_pipelined(t, shape,
                                                              static_cast<double>(s.size()),
                                                              static_cast<double>(bb)) <
                        bench::model::alltoall_hier_unpipelined(t, shape,
                                                               static_cast<double>(s.size()),
                                                               static_cast<double>(bb));
        }
    }
    return pipelined ? build_hier_alltoall_pipelined(s, sendbuf, sendcount, sendtype, recvbuf,
                                                     recvcount, recvtype, nseg)
                     : build_hier_alltoall_unpipelined(s, sendbuf, sendcount, sendtype, recvbuf,
                                                       recvcount, recvtype);
}

}  // namespace xmpi::detail::alg

/// @file algorithms.hpp
/// @brief The pluggable collective-algorithm layer: per-family registries of
/// selectable algorithms (flat reference plus tree/ring/recursive-doubling/
/// Bruck/Rabenseifner variants), and the selection logic that picks one per
/// invocation from the analytic α-β cost model — overridable per family via
/// the XMPI_ALG_<FAMILY> environment variables and the XMPI_T_alg_* control
/// API in <xmpi/mpi.h>.
///
/// Every algorithm is expressed as a Schedule builder (see schedule.hpp), so
/// each one serves both the blocking collective and its generalized-request
/// i-variant. Non-commutative reductions keep rank-order (bracketing-only)
/// combine semantics in every tree variant; algorithms that cannot (ring
/// allreduce) declare needs_commutative and are skipped for such ops.
#pragma once

#include <cstddef>
#include <vector>

#include "bench/model/analytic.hpp"
#include "../tune/tune.hpp"
#include "schedule.hpp"

namespace xmpi::detail::alg {

enum class Family : int { bcast = 0, reduce, allgather, allreduce, alltoall };
inline constexpr int kFamilies = 5;

/// Registry entry for one algorithm of one collective family.
struct AlgInfo {
    char const* name;
    bool needs_pow2 = false;         ///< valid only for power-of-two comm sizes
    bool needs_commutative = false;  ///< combine order is not a rank-order bracketing
    /// Splits the element vector across ranks (reduce-scatter shapes).
    /// Builtin operations are element-wise by construction; user-defined
    /// operations may treat element groups as one logical unit (PR-1's
    /// rank-order matrix folds do), so such algorithms only apply to
    /// builtin ops.
    bool needs_elementwise = false;
    /// Modeled completion time under the two-tier machine model; `bytes` is
    /// the family's characteristic per-rank message size. Used for automatic
    /// selection. Single-tier algorithms read only the inter tier (exactly
    /// the PR-2 pricing, so selection on a flat topology is unchanged);
    /// null for hierarchical entries, whose cost depends on the operation's
    /// properties and is computed by select() via the bench::model
    /// *_hier compositions.
    double (*cost)(bench::model::TwoTier const& machine, bench::model::NodeShape const& shape,
                   double p, double bytes);
    /// Leader-based hierarchical composition: valid only when the
    /// communicator spans >= 2 nodes with >= 2 ranks on some node; for
    /// reductions with non-commutative operations additionally requires
    /// every node's members to be a contiguous comm-rank range (so the
    /// intra-then-inter fold stays a rank-order bracketing).
    bool hier = false;
};

/// The registered algorithms of `f`; index into this table identifies the
/// algorithm everywhere below. Index 0 is always the flat reference.
std::vector<AlgInfo> const& algorithms(Family f);

/// Lower-case family name as used by the control API ("bcast", ...).
char const* family_name(Family f);

/// Selects the algorithm index for one invocation on `comm`: an XMPI_T_alg
/// forced choice wins, then the XMPI_ALG_<FAMILY> environment variable, then
/// the cheapest valid algorithm under the communicator universe's configured
/// α-β machine parameters. A forced/env choice that is invalid for this
/// (p, op) combination falls back to cost-based selection among the valid
/// ones, so pinning an algorithm never breaks correctness. `elementwise`
/// is true for data movement and builtin reduction operations.
int select(Family f, MPI_Comm comm, std::size_t bytes, bool commutative, bool elementwise = true);

/// Pure cost minimization over the *single-tier* algorithms of `f` for a
/// subgroup of `p` ranks whose links all use machine `m` — how the
/// hierarchical builders choose their inter-node (and intra-node) phase
/// algorithms. Ignores the override channels: pinning applies to the
/// user-visible collective, not to phases of a composition.
int select_flat(Family f, int p, std::size_t bytes, bool commutative, bool elementwise,
                bench::model::Machine const& m);

/// run_blocking with measured-selection feedback: when tuning feedback is
/// enabled, captures the schedule's per-rank virtual-time makespan (two
/// clock reads around the run — behind the same counters infrastructure as
/// the schedule-build stats) and records it into the tune feedback table
/// under (family, comm size, `bytes`). With feedback off this is exactly
/// run_blocking.
int run_observed(Schedule& s, Family f, int alg, std::size_t bytes);

/// Testing hook: forgets the cached XMPI_ALG_* environment resolutions (and
/// re-arms the one-time unknown-name warning) so tests can exercise the env
/// channel after mutating the environment.
void reset_env_cache_for_testing();

// ---------------------------------------------------------------------------
// Schedule cache. Repeated blocking and MPI_I* collectives with identical
// arguments re-arm a cached compiled schedule (reset + fresh sequence
// number) instead of rebuilding the step program and reallocating scratch —
// the same amortization MPI_*_init offers, made transparent.
// ---------------------------------------------------------------------------

/// Cache key of one compiled schedule. Buffer addresses are part of the key
/// because schedules bind them at build time; counts/types/op/root pin the
/// step program's shape. Only builtin datatypes and builtin (or absent)
/// reduction operations are cacheable: user handles can be freed and
/// reallocated at the same address mid-process, which would alias a stale
/// entry (buffer-address reuse is harmless — schedules re-read buffers at
/// execution time).
struct SchedSpec {
    Family family{};
    int alg = 0;
    int count = 0;
    int count2 = 0;
    int root = 0;
    void const* buf1 = nullptr;
    void const* buf2 = nullptr;
    MPI_Datatype type1 = nullptr;
    MPI_Datatype type2 = nullptr;
    MPI_Op op = nullptr;

    bool operator==(SchedSpec const&) const = default;
};

/// Handle-lifetime gate: true when `spec` may be cached at all — the cache
/// is enabled and every handle in the key is a builtin singleton (derived
/// datatypes and user-defined ops can be freed and recreated at the same
/// address, which would alias a stale entry).
bool spec_cacheable(SchedSpec const& spec);

/// Cache probe: when `spec` is cacheable, the communicator's cache holds a
/// matching idle entry and the epoch is current, returns that schedule
/// reset and retagged with `seq` (counted as a hit); otherwise null.
/// Entries are dropped when the control epoch moves (XMPI_T_alg_set,
/// XMPI_T_alg_env_refresh, XMPI_T_topo_set, cache/segment control writes)
/// and under LRU pressure; an entry still referenced by an in-flight
/// nonblocking request is skipped, not reused concurrently.
std::shared_ptr<Schedule> cache_take(MPI_Comm comm, std::uint64_t seq, SchedSpec const& spec);

/// Offers a freshly built schedule to the communicator's cache (no-op when
/// `spec` is not cacheable or the cache is disabled). Evicts LRU at
/// capacity.
void cache_insert(MPI_Comm comm, SchedSpec const& spec, std::shared_ptr<Schedule> const& s);

/// Returns a ready-to-run schedule for `spec` on `comm`: a cached instance
/// when one is available, otherwise a fresh one built by `build` (counted
/// as a build) and offered to the cache. `*err` receives the builder's
/// error code (the schedule must not run on error). Inline and templated so
/// the hot path pays no std::function materialization.
template <typename Build>
std::shared_ptr<Schedule> acquire_schedule(MPI_Comm comm, std::uint64_t seq,
                                           SchedSpec const& spec, int* err, Build&& build) {
    bool const cacheable = spec_cacheable(spec);
    if (cacheable) {
        if (auto cached = cache_take(comm, seq, spec)) {
            *err = MPI_SUCCESS;
            return cached;
        }
    }
    auto s = std::make_shared<Schedule>(comm, seq);
    if (RankState* rs = tls_rank(); rs != nullptr) ++rs->counters.schedule_builds;
    trace::ev(trace::Ev::sched_build, -1, -1, 0, seq, static_cast<int>(spec.family), spec.alg);
    *err = build(*s);
    if (cacheable && *err == MPI_SUCCESS) cache_insert(comm, spec, s);
    return s;
}

/// True when the schedule cache is active (XMPI_T_sched_cache_set control,
/// then the XMPI_SCHED_CACHE environment variable, then on by default).
bool sched_cache_enabled();

/// Bumps the schedule-control epoch, invalidating every communicator's
/// cached schedules on their next use. Called by the XMPI_T alg/topo/cache/
/// segment control writes and the env refresh.
void bump_sched_epoch();

/// Re-resolves the XMPI_SEGMENT_BYTES / XMPI_SCHED_CACHE environment knobs
/// (warn-once state re-armed) and publishes the segment override to
/// bench::model::forced_segment_bytes(). Called at first use and from
/// XMPI_T_alg_env_refresh.
void refresh_tuning_env();

// ---------------------------------------------------------------------------
// Builders. Each appends the selected algorithm's step program to `s`.
// Wrapper-level normalization has already happened: `input` has MPI_IN_PLACE
// resolved, and for allgather the caller's own block is already in recvbuf.
// Returns an MPI error code (building never communicates; errors are
// argument-shaped only).
// ---------------------------------------------------------------------------

int build_bcast(int alg, Schedule& s, void* buf, int count, MPI_Datatype type, int root);
int build_reduce(int alg, Schedule& s, void const* input, void* recvbuf, int count,
                 MPI_Datatype type, MPI_Op op, int root);
int build_allgather(int alg, Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype);
int build_allreduce(int alg, Schedule& s, void const* input, void* recvbuf, int count,
                    MPI_Datatype type, MPI_Op op);
int build_alltoall(int alg, Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                   void* recvbuf, int recvcount, MPI_Datatype recvtype);

// Hierarchical (leader-based) builders, defined in hierarchical.cpp. Each
// composes existing builders as sub-schedules over group scopes: an
// intra-node phase, an inter-node phase among node leaders (or slice peer
// groups), and an intra-node redistribution. Dispatched from the build_*
// functions above when the registry's "hierarchical" entry is selected.
int build_hier_bcast(Schedule& s, void* buf, int count, MPI_Datatype type, int root);
int build_hier_reduce(Schedule& s, void const* input, void* recvbuf, int count, MPI_Datatype type,
                      MPI_Op op, int root);
int build_hier_allreduce(Schedule& s, void const* input, void* recvbuf, int count,
                         MPI_Datatype type, MPI_Op op);
int build_hier_allgather(Schedule& s, void* recvbuf, int recvcount, MPI_Datatype recvtype);
int build_hier_alltoall(Schedule& s, void const* sendbuf, int sendcount, MPI_Datatype sendtype,
                        void* recvbuf, int recvcount, MPI_Datatype recvtype);

// Append-style building blocks shared between families (composites). The
// `tag_base` offsets the step tags so composed phases cannot match each
// other's messages within one collective sequence number.
void append_binomial_bcast(Schedule& s, void* buf, int count, MPI_Datatype type, int root,
                           int tag_base);
/// Rank-order-preserving binomial reduce toward rank 0 (true rank space),
/// then a transfer 0 -> root when root != 0. Uses tags [tag_base, tag_base+1].
void append_binomial_reduce(Schedule& s, void const* input, void* recvbuf, int count,
                            MPI_Datatype type, MPI_Op op, int root, int tag_base);

/// One message of build_neighbor_exchange: partner rank, buffer, count, type.
struct Msg {
    int peer;
    void const* buf;
    int count;
    MPI_Datatype type;
};

/// Appends a one-round exchange: posts a receive per source (`recv(j)`,
/// j < nrecv), deposits a send per destination (`send(i)`, i < nsend), then
/// drains the receives in source order, all at step tag 0. Self-loops work
/// because the receives are posted before the sends run. This is the
/// neighborhood collectives' shape, and that of the I-variants that put
/// every block on the wire at initiation.
template <typename Recv, typename Send>
void build_neighbor_exchange(Schedule& s, int nrecv, Recv const& recv, int nsend,
                             Send const& send) {
    s.reserve(s.step_count() + 2 * static_cast<std::size_t>(nrecv) + static_cast<std::size_t>(nsend),
              static_cast<std::size_t>(nrecv));
    int first = 0;
    for (int j = 0; j < nrecv; ++j) {
        Msg const m = recv(j);
        // Receive buffers are the caller's writable ones; Msg is shared with
        // the send side.
        int const slot = s.post(m.peer, 0, const_cast<void*>(m.buf), m.count, m.type);
        if (j == 0) first = slot;
    }
    for (int i = 0; i < nsend; ++i) {
        Msg const m = send(i);
        s.send(m.peer, 0, m.buf, m.count, m.type);
    }
    for (int j = 0; j < nrecv; ++j) s.wait(first + j);  // post() hands out consecutive slots
}

// ---------------------------------------------------------------------------
// Shared datatype helpers (also used by collectives.cpp).
// ---------------------------------------------------------------------------

inline std::byte* at_offset(void* base, long long elements, MPI_Datatype t) {
    return static_cast<std::byte*>(base) + elements * t->extent;
}
inline std::byte const* at_offset(void const* base, long long elements, MPI_Datatype t) {
    return static_cast<std::byte const*>(base) + elements * t->extent;
}

/// Copies `scount` elements of `stype` between (possibly differently typed
/// but signature-compatible) user buffers via pack/unpack.
inline void local_copy(void const* src, int scount, MPI_Datatype stype, void* dst,
                       MPI_Datatype rtype) {
    std::size_t const bytes =
        static_cast<std::size_t>(scount) * static_cast<std::size_t>(stype->size);
    if (bytes == 0) return;
    std::vector<std::byte> tmp(bytes);
    stype->pack(src, scount, tmp.data());
    rtype->unpack(tmp.data(), rtype->size > 0 ? static_cast<int>(bytes / rtype->size) : 0, dst);
}

/// The communicator universe's Config as a two-tier bench machine, with the
/// tuning overlay (control pins > calibrated fit > XMPI_TUNE_PROFILE)
/// applied on top. Shared by the registry's selection and the hierarchical
/// builders' inner-phase choices, so their cost decisions cannot drift.
inline bench::model::TwoTier machine_of(MPI_Comm comm) {
    auto const& cfg = comm->universe->cfg;
    bench::model::TwoTier t;
    t.inter.alpha = cfg.alpha;
    t.inter.beta = cfg.beta;
    t.inter.o = cfg.o;
    t.intra.alpha = cfg.alpha_intra;
    t.intra.beta = cfg.beta_intra;
    t.intra.o = cfg.o_intra;
    t.gamma_copy = cfg.gamma_copy;
    t.copy_sync = cfg.copy_sync;
    tune::overlay(t);
    return t;
}

/// Near-even partition of `count` elements into `k` blocks (earlier blocks
/// get the remainder); returns the k+1 exclusive prefix sums. Shared by the
/// vector-splitting allreduce builders and the hierarchical 2D composition,
/// which must agree on the block layout.
inline std::vector<long long> block_offsets(int count, int k) {
    std::vector<long long> off(static_cast<std::size_t>(k) + 1, 0);
    int const base = count / k;
    int const rem = count % k;
    for (int i = 0; i < k; ++i)
        off[static_cast<std::size_t>(i) + 1] =
            off[static_cast<std::size_t>(i)] + base + (i < rem ? 1 : 0);
    return off;
}

/// Number of pipeline segments the ring bcast splits `bytes` into — the
/// model's formula verbatim (one definition, so the builder and
/// bench::model::bcast_ring_pipelined cannot drift), which also honors the
/// XMPI_SEGMENT_BYTES / XMPI_T_segment_set override.
inline int ring_segments(std::size_t bytes) {
    return static_cast<int>(bench::model::ring_pipeline_segments(static_cast<double>(bytes)));
}

/// Clamps a model segment count to the actual element count (no empty
/// segments; count 0 collapses to one segment of nothing).
inline int clamp_segments_to_count(int nseg, int count) {
    if (count <= 0) return 1;
    return nseg > count ? count : (nseg < 1 ? 1 : nseg);
}

}  // namespace xmpi::detail::alg

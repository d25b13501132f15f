/// @file sim.hpp
/// @brief Virtual-time discrete-event executor: dry-builds the *same*
/// collective schedule builders the threaded substrate runs — but against a
/// synthetic communicator of 10^4..10^6 virtual ranks — and replays the
/// resulting payload-free tapes through a single-threaded event loop with a
/// per-rank virtual clock, FIFO per-(source, tag) matching identical to the
/// p2p engine's semantics (resolved once, before the loop), and per-message
/// costs drawn from the two-tier machine model by the cost:: helpers
/// deposit() itself uses.
///
/// Tapes carry byte counts, not payloads: no threads run, no user or
/// scratch buffer is allocated (Schedule::begin_dry hands builders stable
/// *virtual* addresses), and `local` computation steps are discarded. What
/// the simulator reports is therefore the communication makespan — the same
/// quantity the closed-form model in bench/model/analytic.hpp prices — with
/// the compiled tape as ground truth where compositions (hierarchical,
/// pipelined) deviate from their formulas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "../algorithms/algorithms.hpp"
#include "xmpi/xmpi.hpp"

namespace xmpi::detail::sim {

using alg::Family;

/// The simulated machine: a world size, a node map, and the cost
/// parameters. Unlike a real universe, the topology is explicit — callers
/// synthesize it (topo::block_map / topo::node_map_from_sizes), so randomized
/// node shapes at scale need no environment plumbing.
struct World {
    int size = 0;
    /// world rank -> node id (>= 0); empty = flat (every rank its own node).
    std::vector<int> node_map;
    /// Supplies alpha/beta/o (+_intra). Compute is not simulated: tapes have
    /// no local steps, which corresponds to Config::compute_scale = 0.
    Config cfg;
};

/// One collective invocation to simulate.
struct CollSpec {
    Family family = Family::bcast;
    /// Element count in the family's own argument position (bcast/reduce/
    /// allreduce: total vector; allgather: per-rank block; alltoall:
    /// per-pair block).
    int count = 0;
    /// Element size in bytes: 1, 4 or 8 (MPI_BYTE / MPI_INT / MPI_DOUBLE).
    int elem_size = 1;
    int root = 0;            ///< bcast / reduce
    bool commutative = true; ///< reduction-operation property fed to selection
    bool elementwise = true; ///< builtin (element-wise) op; false = user op
    /// >= 0 pins the algorithm index (bypassing selection, like a control
    /// pin, but *without* its never-breaks fallback: an invalid pin is an
    /// error so sweeps cannot silently measure a different algorithm).
    int force_alg = -1;

    std::size_t bytes() const {
        return static_cast<std::size_t>(count) * static_cast<std::size_t>(elem_size);
    }
};

struct Options {
    /// Record per-rank virtual finish times in Result::finish (the small-p
    /// equivalence gate compares them against the threaded executor).
    bool keep_finish = false;
    /// Refuse tapes above this many steps (16 B each; replaying adds 4 B per
    /// step, and 12 B per send while matching): O(p^2) algorithm/size
    /// combinations are *skipped and reported*, never stored to exhaustion.
    /// A tape is refused exactly when its true length exceeds the cap, but
    /// it is counted, not stored: once the stored part passes cap / 8 and
    /// its per-rank average projects past the cap, each remaining rank is
    /// built, counted and dropped. If the count ends within the cap, those
    /// ranks are built again and stored, and XMPI_T_sim_stats counts both
    /// builds.
    std::uint64_t max_tape_steps = 60'000'000;
};

struct Result {
    int error = MPI_SUCCESS;
    /// Human-readable failure detail (tag budget, int-count overflow, step
    /// cap, deadlock, event limit); empty on success.
    std::string detail;
    int alg = -1;                ///< algorithm index actually simulated
    char const* alg_name = "";   ///< its registry name
    double makespan = 0.0;       ///< max over ranks of virtual finish time
    std::vector<double> finish;  ///< per-rank finish times (Options::keep_finish)
    std::uint64_t tape_steps = 0;
    std::uint64_t events = 0;
    double build_seconds = 0.0;  ///< wall time spent dry-building the tapes
    double run_seconds = 0.0;    ///< wall time of the replay: matching + event loop
};

/// Dry-builds and executes one collective on the simulated world. The tapes
/// and every replay array live in a per-thread workspace that a call clears
/// but does not free, so repeated calls fault in no new memory; each thread
/// keeps the capacity of the largest tape it simulated until the thread
/// exits. Threads may simulate concurrently.
Result simulate(World const& w, CollSpec const& spec, Options const& opt = {});

/// Critical-path provenance of a replay, after LogGOPSim (Hoefler et al.,
/// HPDC 2010): each charge is a node chained to the one before it, and a
/// wait whose arrival set the clock continues the sender's chain. The chain
/// back from a rank's last node sums to its finish time: a start clock, then
/// alpha (a copy rendezvous too), beta (wire, copy load) and o, per tier.
struct Provenance {
    enum Term : std::uint8_t { kSkew, kAlpha, kBeta, kO };
    struct Node {
        int prev;  ///< the charge before this one; -1 at a start clock
        Term term;
        bool intra;
        double amount;
    };
    std::vector<Node> nodes;
    std::vector<int> last;          ///< per rank: its newest node
    std::vector<int> arrival_node;  ///< per receive slot: its message's last node

    // The replay's hooks; a send no post takes has slot ~0u.
    void begin(std::vector<double> const& start, std::size_t slots) {
        nodes.clear();
        last.clear();
        for (double const t : start) last.push_back(push(-1, kSkew, false, t));
        arrival_node.assign(slots, -1);
    }
    void send(std::uint32_t r, std::uint32_t slot, bool intra, double o, double alpha,
              double wire) {
        last[r] = push(last[r], kO, intra, o);
        if (slot == ~0u) return;
        arrival_node[slot] = push(push(last[r], kAlpha, intra, alpha), kBeta, intra, wire);
    }
    void wait(std::uint32_t r, std::uint32_t slot, bool gated, double load) {
        if (gated) last[r] = arrival_node[slot];  // the arrival set the clock
        if (load > 0.0) last[r] = push(last[r], kBeta, /*intra=*/true, load);
    }
    int push(int prev, Term term, bool intra, double amount) {
        nodes.push_back({prev, term, intra, amount});
        return static_cast<int>(nodes.size()) - 1;
    }
};

/// Replays per-rank tapes on `w` through simulate()'s event loop. Rank r runs
/// sink.steps[step_begin[r], step_begin[r + 1]), owns receive slots
/// [slot_begin[r], slot_begin[r + 1]) and starts its clock at start[r] (0 if
/// `start` is empty); a non-null `provenance` records the critical path.
/// XMPI_T_trace_attribution feeds it traced tapes, tests hand-written ones.
Result replay(World const& w, alg::DrySink const& sink,
              std::vector<std::uint32_t> const& step_begin,
              std::vector<std::uint32_t> const& slot_begin,
              std::vector<double> const& start = {}, Provenance* provenance = nullptr);

/// Selection only — which algorithm the registry would pick for this
/// (family, p, size, shape); no tape is built. Drives the selection-at-scale
/// tables across p = 2^10..2^20 where building every tape is infeasible.
int select_at_scale(World const& w, CollSpec const& spec);

/// Registry name of algorithm `alg` of `f` ("?" when out of range).
char const* alg_name(Family f, int alg);

/// Testing hook mirroring alg::reset_env_cache_for_testing: forgets the
/// cached XMPI_SIM_EVENT_LIMIT resolution (re-arming its one-time warning).
void reset_sim_env_cache_for_testing();

}  // namespace xmpi::detail::sim

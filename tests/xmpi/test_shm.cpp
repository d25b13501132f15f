/// @file test_shm.cpp
/// @brief Zero-copy shared-memory transport: the XMPI_SHM / XMPI_T_shm_set
/// enablement layering (control pin beats environment, garbage disables
/// with a warn-once), the per-rank shm copy counters and the shm.* pvar
/// protocol statistics, the schedule-cache epoch interaction of the control
/// pin, and the virtual-time simulator's pricing of copy tapes (the shm
/// hierarchical allgather must beat the p2p composition by the recorded
/// BENCH_shm margin at 2 MiB on 2x8).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "bench/model/analytic.hpp"
#include "src/xmpi/algorithms/algorithms.hpp"
#include "src/xmpi/sim/sim.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

namespace sim = xmpi::detail::sim;
namespace alg = xmpi::detail::alg;
namespace topo = xmpi::detail::topo;

namespace {

using testing_utils::AlgPin;
using testing_utils::ShmPin;
using testing_utils::TopoPin;

/// setenv/unsetenv + env-refresh RAII (same idiom as the trace/tune tests)
/// so a failing assertion cannot leak an shm environment into later tests.
struct EnvVar {
    EnvVar(char const* name, std::string const& value) : name_(name) {
        char const* const old = std::getenv(name);
        had_ = old != nullptr;
        if (had_) old_ = old;
        setenv(name, value.c_str(), 1);
        XMPI_T_alg_env_refresh();
    }
    ~EnvVar() {
        if (had_) {
            setenv(name_, old_.c_str(), 1);
        } else {
            unsetenv(name_);
        }
        XMPI_T_alg_env_refresh();
    }
    EnvVar(EnvVar const&) = delete;
    EnvVar& operator=(EnvVar const&) = delete;

private:
    char const* name_;
    bool had_ = false;
    std::string old_;
};

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

std::size_t count_occurrences(std::string const& hay, std::string const& needle) {
    std::size_t n = 0;
    for (std::size_t at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size()))
        ++n;
    return n;
}

/// One pinned hierarchical allreduce; returns the aggregated run counters.
xmpi::Counters run_hier_allreduce(int p, int count) {
    AlgPin const pin("allreduce", "hierarchical");
    auto const result = xmpi::run(p, [&](int rank) {
        std::vector<int> in(static_cast<std::size_t>(count), rank + 1);
        std::vector<int> out(static_cast<std::size_t>(count), 0);
        ASSERT_EQ(MPI_Allreduce(in.data(), out.data(), count, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        ASSERT_EQ(out.front(), p * (p + 1) / 2);
    });
    return result.total;
}

}  // namespace

TEST(Shm, ControlPinBeatsEnvironment) {
    int v = -2;
    {
        EnvUnset const clear("XMPI_SHM");
        ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);
        EXPECT_EQ(v, 1) << "unset XMPI_SHM defaults to enabled";
    }
    {
        EnvVar const env("XMPI_SHM", "0");
        ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);
        EXPECT_EQ(v, 0);
        {
            ShmPin const pin(1);
            ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);
            EXPECT_EQ(v, 1) << "control pin beats XMPI_SHM=0";
        }
        ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);
        EXPECT_EQ(v, 0) << "clearing the pin re-exposes the environment";
    }
    EXPECT_EQ(XMPI_T_shm_get(nullptr), MPI_ERR_ARG);
}

TEST(Shm, GarbageEnvWarnsOnceAndDisables) {
    // Unlike most knobs the garbage fallback is *off*: a mistyped XMPI_SHM
    // must never silently leave direct peer-buffer access enabled.
    ::testing::internal::CaptureStderr();
    EnvVar const env("XMPI_SHM", "banana");
    int v = -2;
    ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_shm_get(&v), MPI_SUCCESS);  // second read: no second warning
    std::string const err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(v, 0);
    EXPECT_EQ(count_occurrences(err, "XMPI_SHM"), 1u) << err;
}

TEST(Shm, CountersCountCopiesOnlyWhenEnabled) {
    TopoPin const topo(4);
    int const p = 16;
    int const count = 8192;
    {
        ShmPin const on(1);
        xmpi::Counters const c = run_hier_allreduce(p, count);
        EXPECT_GT(c.shm_copies, 0u);
        EXPECT_GT(c.shm_copy_bytes, 0u);
    }
    {
        ShmPin const off(0);
        xmpi::Counters const c = run_hier_allreduce(p, count);
        EXPECT_EQ(c.shm_copies, 0u);
        EXPECT_EQ(c.shm_copy_bytes, 0u);
        EXPECT_GT(c.intra_node_messages, 0u) << "p2p fallback rides the mailbox";
    }
}

TEST(Shm, PvarsExposeProtocolStats) {
    int const enabled_idx = pvar_index("shm.enabled");
    int const pub_idx = pvar_index("shm.publishes");
    int const copy_idx = pvar_index("shm.copies");
    int const bytes_idx = pvar_index("shm.copy_bytes");
    int const drain_idx = pvar_index("shm.drains");
    ASSERT_GE(enabled_idx, 0);
    ASSERT_GE(pub_idx, 0);
    ASSERT_GE(copy_idx, 0);
    ASSERT_GE(bytes_idx, 0);
    ASSERT_GE(drain_idx, 0);

    {
        ShmPin const off(0);
        EXPECT_EQ(pvar_read_scalar(enabled_idx), 0u);
    }
    ShmPin const on(1);
    EXPECT_EQ(pvar_read_scalar(enabled_idx), 1u);

    TopoPin const topo(4);
    unsigned long long const pub0 = pvar_read_scalar(pub_idx);
    unsigned long long const copy0 = pvar_read_scalar(copy_idx);
    unsigned long long const bytes0 = pvar_read_scalar(bytes_idx);
    unsigned long long const drain0 = pvar_read_scalar(drain_idx);
    xmpi::Counters const c = run_hier_allreduce(16, 8192);
    EXPECT_GT(pvar_read_scalar(pub_idx), pub0);
    EXPECT_GT(pvar_read_scalar(copy_idx), copy0);
    EXPECT_GT(pvar_read_scalar(bytes_idx), bytes0);
    EXPECT_GT(pvar_read_scalar(drain_idx), drain0);
    // The process-global protocol stats and the per-rank counters agree on
    // the copy count of this isolated run.
    EXPECT_EQ(pvar_read_scalar(copy_idx) - copy0, c.shm_copies);
    EXPECT_EQ(pvar_read_scalar(bytes_idx) - bytes0, c.shm_copy_bytes);
}

TEST(Shm, TogglePinRebuildsCachedSchedules) {
    // Flipping the transport changes the emitted schedule: a cached p2p
    // schedule must not be replayed as an shm one or vice versa.
    TopoPin const topo(4);
    AlgPin const pin("allreduce", "hierarchical");
    xmpi::run(16, [](int) {
        auto builds = [] {
            unsigned long long b = 0;
            EXPECT_EQ(XMPI_T_sched_stats(&b, nullptr, nullptr, nullptr), MPI_SUCCESS);
            return b;
        };
        std::vector<int> in(4096, 1), out(4096, 0);
        auto coll = [&] {
            ASSERT_EQ(
                MPI_Allreduce(in.data(), out.data(), 4096, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                MPI_SUCCESS);
        };
        ASSERT_EQ(XMPI_T_shm_set(1), MPI_SUCCESS);
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        coll();
        unsigned long long const b1 = builds();
        ASSERT_EQ(XMPI_T_shm_set(0), MPI_SUCCESS);
        ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        coll();
        unsigned long long const b2 = builds();
        EXPECT_GT(b2, b1) << "shm flip must invalidate cached schedules";
        ASSERT_EQ(XMPI_T_shm_set(-1), MPI_SUCCESS);
    });
}

TEST(Shm, SimPricesCopyTapesAndShmWins) {
    // The virtual-time simulator executes kCopyPub/kCopyWait tape steps with
    // the copy-tier pricing; on the BENCH_shm acceptance shape (2 nodes x 8
    // ranks, 2 MiB allgather) the zero-copy composition must beat the p2p
    // hierarchical one by at least 1.2x of simulated makespan. A segment pin
    // from the environment (the tiny-segments CI leg) would make the builder
    // skip the shm compositions, so the test scrubs it.
    testing_utils::ScrubAlgEnv const scrub;
    testing_utils::ScrubEnv const segments({"XMPI_SEGMENT_BYTES"});
    int const p = 16, rpn = 8;
    int const count = 524288;  // x4 bytes = 2 MiB
    int hier_idx = -1;
    auto const& table = alg::algorithms(alg::Family::allgather);
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (std::string(table[i].name) == "hierarchical") hier_idx = static_cast<int>(i);
    }
    ASSERT_GE(hier_idx, 0);
    auto makespan = [&](int shm_on) {
        ShmPin const pin(shm_on);
        sim::World w;
        w.size = p;
        w.node_map = topo::block_map(p, rpn);
        w.cfg.compute_scale = 0.0;
        sim::CollSpec spec;
        spec.family = sim::Family::allgather;
        spec.count = count;
        spec.elem_size = 4;
        spec.force_alg = hier_idx;
        sim::Result const res = sim::simulate(w, spec);
        EXPECT_EQ(res.error, MPI_SUCCESS) << res.detail;
        EXPECT_GT(res.makespan, 0.0);
        return res.makespan;
    };
    double const t_shm = makespan(1);
    double const t_p2p = makespan(0);
    EXPECT_LT(t_shm * 1.2, t_p2p) << "shm=" << t_shm << " p2p=" << t_p2p;
}

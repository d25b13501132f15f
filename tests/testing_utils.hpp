/// @file testing_utils.hpp
/// @brief Shared helpers for randomized tests: a seeded RNG that announces
/// its seed in the test log (and as a gtest property) so any failure can be
/// replayed deterministically with XMPI_TEST_SEED=<seed>.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "xmpi/mpi.h"

namespace testing_utils {

/// Pins ranks-per-node for the scope via the XMPI_T_topo_set control
/// channel (which beats the environment, so tests behave identically under
/// the forced-topology CI matrix). TopoPin(1) forces the flat single-tier
/// network; the destructor restores automatic resolution.
struct TopoPin {
    explicit TopoPin(int rpn) { XMPI_T_topo_set(rpn); }
    ~TopoPin() { XMPI_T_topo_set(0); }
    TopoPin(TopoPin const&) = delete;
    TopoPin& operator=(TopoPin const&) = delete;
};

/// Pins one family's algorithm for the scope via the XMPI_T_alg_set control
/// channel (which beats XMPI_ALG_*); the destructor restores automatic
/// selection.
struct AlgPin {
    AlgPin(char const* family, char const* algorithm) : family_(family) {
        EXPECT_EQ(XMPI_T_alg_set(family, algorithm), MPI_SUCCESS);
    }
    ~AlgPin() { XMPI_T_alg_set(family_, nullptr); }
    AlgPin(AlgPin const&) = delete;
    AlgPin& operator=(AlgPin const&) = delete;

private:
    char const* family_;
};

/// Pins the zero-copy shared-memory transport on (1) or off (0) for the
/// scope via the XMPI_T_shm_set control channel (beats XMPI_SHM, so tests
/// behave identically under the shm-off CI leg). The destructor restores
/// automatic resolution from the environment.
struct ShmPin {
    explicit ShmPin(int on) { XMPI_T_shm_set(on); }
    ~ShmPin() { XMPI_T_shm_set(-1); }
    ShmPin(ShmPin const&) = delete;
    ShmPin& operator=(ShmPin const&) = delete;
};

/// Pins the asynchronous progress engine on (1) or off (0) for the scope
/// via the XMPI_T_progress_set control channel (beats XMPI_ASYNC_PROGRESS,
/// so tests behave identically under the progress-on CI leg). The
/// destructor restores automatic resolution from the environment.
struct ProgressPin {
    explicit ProgressPin(int on) { XMPI_T_progress_set(on); }
    ~ProgressPin() { XMPI_T_progress_set(-1); }
    ProgressPin(ProgressPin const&) = delete;
    ProgressPin& operator=(ProgressPin const&) = delete;
};

/// Pins the pipeline segment size (bytes) for the scope via the
/// XMPI_T_segment_set control channel (beats XMPI_SEGMENT_BYTES, so tests
/// behave identically under the forced-segment CI matrix). The destructor
/// restores automatic sizing.
struct SegPin {
    explicit SegPin(long long bytes) { XMPI_T_segment_set(bytes); }
    ~SegPin() { XMPI_T_segment_set(0); }
    SegPin(SegPin const&) = delete;
    SegPin& operator=(SegPin const&) = delete;
};

/// Sets an environment variable for the scope and re-resolves every cached
/// environment knob (XMPI_T_alg_env_refresh); the destructor restores the
/// previous value (or unsets it) and re-resolves again.
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

/// Unsets the named environment variables for a scope and re-resolves every
/// cached environment knob; the destructor restores the variables and
/// re-resolves again.
struct ScrubEnv {
    explicit ScrubEnv(std::initializer_list<char const*> names) {
        for (char const* name : names) {
            char const* const v = std::getenv(name);
            saved.push_back({name, v != nullptr, v != nullptr ? v : ""});
            unsetenv(name);
        }
        XMPI_T_alg_env_refresh();
    }
    ~ScrubEnv() {
        for (Saved const& sv : saved) {
            if (sv.had) setenv(sv.name, sv.value.c_str(), 1);
        }
        XMPI_T_alg_env_refresh();
    }
    ScrubEnv(ScrubEnv const&) = delete;
    ScrubEnv& operator=(ScrubEnv const&) = delete;

private:
    struct Saved {
        char const* name;
        bool had;
        std::string value;
    };
    std::vector<Saved> saved;
};

/// Clears every XMPI_ALG_* pin for a scope, so tests of *automatic*
/// selection behave identically under the forced-algorithms CI matrix
/// (there is no control value meaning "ignore the environment" — an
/// XMPI_T_alg_set "auto" defers to the environment by design).
struct ScrubAlgEnv : ScrubEnv {
    ScrubAlgEnv()
        : ScrubEnv({"XMPI_ALG_BCAST", "XMPI_ALG_REDUCE", "XMPI_ALG_ALLGATHER",
                    "XMPI_ALG_ALLREDUCE", "XMPI_ALG_ALLTOALL"}) {}
};

/// The seed for this test's randomness: XMPI_TEST_SEED if set (replay),
/// otherwise a fresh nondeterministic one.
inline std::uint64_t pick_seed() {
    if (char const* env = std::getenv("XMPI_TEST_SEED")) {
        return std::strtoull(env, nullptr, 10);
    }
    return std::random_device{}();
}

/// Construct one per randomized test body. Logs the seed up front so a
/// failing run's output always contains the replay command.
class SeededRng {
public:
    SeededRng() : seed_(pick_seed()), engine_(seed_) {
        std::cerr << "[   SEED   ] replay with XMPI_TEST_SEED=" << seed_ << "\n";
        ::testing::Test::RecordProperty("xmpi_test_seed", std::to_string(seed_));
    }

    std::uint64_t seed() const { return seed_; }
    std::mt19937_64& engine() { return engine_; }

    /// Uniform integer in [lo, hi].
    int uniform(int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(engine_);
    }

    /// One element of a fixed candidate list.
    template <typename T, std::size_t N>
    T const& pick(T const (&candidates)[N]) {
        return candidates[static_cast<std::size_t>(uniform(0, static_cast<int>(N) - 1))];
    }

private:
    std::uint64_t seed_;
    std::mt19937_64 engine_;
};

}  // namespace testing_utils

/// @file test_p2p.cpp
/// @brief Point-to-point semantics of the xmpi substrate: matching order,
/// wildcards, non-blocking completion, synchronous mode, probes, statuses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "../testing_utils.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

TEST(P2P, SendRecvRoundTrip) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> data(100);
            std::iota(data.begin(), data.end(), 0);
            ASSERT_EQ(MPI_Send(data.data(), 100, MPI_INT, 1, 7, MPI_COMM_WORLD), MPI_SUCCESS);
        } else {
            std::vector<int> data(100, -1);
            MPI_Status st;
            ASSERT_EQ(MPI_Recv(data.data(), 100, MPI_INT, 0, 7, MPI_COMM_WORLD, &st), MPI_SUCCESS);
            EXPECT_EQ(st.MPI_SOURCE, 0);
            EXPECT_EQ(st.MPI_TAG, 7);
            int count = 0;
            MPI_Get_count(&st, MPI_INT, &count);
            EXPECT_EQ(count, 100);
            for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
        }
    });
}

TEST(P2P, NonOvertakingSameSourceTag) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int a = 1, b = 2;
            MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
            MPI_Send(&b, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else {
            int x = 0, y = 0;
            MPI_Recv(&x, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            MPI_Recv(&y, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(x, 1);
            EXPECT_EQ(y, 2);
        }
    });
}

TEST(P2P, AnySourceAnyTag) {
    xmpi::run(4, [](int rank) {
        if (rank == 0) {
            int seen = 0;
            for (int i = 1; i < 4; ++i) {
                int v = 0;
                MPI_Status st;
                MPI_Recv(&v, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &st);
                EXPECT_EQ(v, st.MPI_SOURCE * 10);
                EXPECT_EQ(st.MPI_TAG, st.MPI_SOURCE);
                seen |= 1 << st.MPI_SOURCE;
            }
            EXPECT_EQ(seen, 0b1110);
        } else {
            int const v = rank * 10;
            MPI_Send(&v, 1, MPI_INT, 0, rank, MPI_COMM_WORLD);
        }
    });
}

TEST(P2P, IsendIrecvWaitall) {
    xmpi::run(2, [](int rank) {
        int const peer = 1 - rank;
        std::vector<double> out(64, rank + 0.5);
        std::vector<double> in(64, -1);
        MPI_Request reqs[2];
        MPI_Irecv(in.data(), 64, MPI_DOUBLE, peer, 3, MPI_COMM_WORLD, &reqs[0]);
        MPI_Isend(out.data(), 64, MPI_DOUBLE, peer, 3, MPI_COMM_WORLD, &reqs[1]);
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
        for (double v : in) EXPECT_DOUBLE_EQ(v, peer + 0.5);
    });
}

TEST(P2P, SsendCompletesAfterMatch) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = 42;
            ASSERT_EQ(MPI_Ssend(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        } else {
            int v = 0;
            MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 42);
        }
    });
}

TEST(P2P, IssendTestReflectsMatch) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = 9;
            MPI_Request req;
            MPI_Issend(&v, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, &req);
            // Signal readiness, then wait for the match.
            int go = 1;
            MPI_Send(&go, 1, MPI_INT, 1, 6, MPI_COMM_WORLD);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        } else {
            int go = 0;
            MPI_Recv(&go, 1, MPI_INT, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            int v = 0;
            MPI_Recv(&v, 1, MPI_INT, 0, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 9);
        }
    });
}

TEST(P2P, ProbeThenRecvSizedBuffer) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> payload(37, 5);
            MPI_Send(payload.data(), 37, MPI_INT, 1, 11, MPI_COMM_WORLD);
        } else {
            MPI_Status st;
            ASSERT_EQ(MPI_Probe(0, 11, MPI_COMM_WORLD, &st), MPI_SUCCESS);
            int count = 0;
            MPI_Get_count(&st, MPI_INT, &count);
            ASSERT_EQ(count, 37);
            std::vector<int> data(static_cast<std::size_t>(count));
            MPI_Recv(data.data(), count, MPI_INT, 0, 11, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            for (int v : data) EXPECT_EQ(v, 5);
        }
    });
}

TEST(P2P, IprobeNoMessage) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int flag = 1;
            MPI_Iprobe(1, 99, MPI_COMM_WORLD, &flag, MPI_STATUS_IGNORE);
            EXPECT_EQ(flag, 0);
        }
        MPI_Barrier(MPI_COMM_WORLD);
    });
}

TEST(P2P, TruncationReportsError) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            std::vector<int> big(10, 1);
            MPI_Send(big.data(), 10, MPI_INT, 1, 0, MPI_COMM_WORLD);
        } else {
            std::vector<int> small(4, 0);
            MPI_Status st;
            int const rc = MPI_Recv(small.data(), 4, MPI_INT, 0, 0, MPI_COMM_WORLD, &st);
            EXPECT_EQ(rc, MPI_ERR_TRUNCATE);
            // The first four elements are delivered.
            for (int v : small) EXPECT_EQ(v, 1);
        }
    });
}

TEST(P2P, SendrecvExchange) {
    xmpi::run(2, [](int rank) {
        int const peer = 1 - rank;
        int out = rank + 100;
        int in = -1;
        MPI_Sendrecv(&out, 1, MPI_INT, peer, 0, &in, 1, MPI_INT, peer, 0, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
        EXPECT_EQ(in, peer + 100);
    });
}

TEST(P2P, ProcNullIsNoop) {
    xmpi::run(1, [](int) {
        int v = 3;
        EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD), MPI_SUCCESS);
        MPI_Status st;
        EXPECT_EQ(MPI_Recv(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        EXPECT_EQ(v, 3);  // untouched
    });
}

TEST(P2P, SelfCommunication) {
    xmpi::run(3, [](int rank) {
        int out = rank;
        int in = -1;
        MPI_Request req;
        MPI_Irecv(&in, 1, MPI_INT, 0, 0, MPI_COMM_SELF, &req);
        MPI_Send(&out, 1, MPI_INT, 0, 0, MPI_COMM_SELF);
        MPI_Wait(&req, MPI_STATUS_IGNORE);
        EXPECT_EQ(in, rank);
    });
}

TEST(P2P, WaitanyFindsCompleted) {
    xmpi::run(3, [](int rank) {
        if (rank == 0) {
            MPI_Request reqs[2];
            int a = -1, b = -1;
            MPI_Irecv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]);
            MPI_Irecv(&b, 1, MPI_INT, 2, 0, MPI_COMM_WORLD, &reqs[1]);
            int idx1 = -1, idx2 = -1;
            MPI_Waitany(2, reqs, &idx1, MPI_STATUS_IGNORE);
            MPI_Waitany(2, reqs, &idx2, MPI_STATUS_IGNORE);
            EXPECT_NE(idx1, idx2);
            EXPECT_EQ(a, 10);
            EXPECT_EQ(b, 20);
            int idx3 = -1;
            MPI_Waitany(2, reqs, &idx3, MPI_STATUS_IGNORE);
            EXPECT_EQ(idx3, MPI_UNDEFINED);
        } else {
            int const v = rank * 10;
            MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
        }
    });
}

TEST(P2P, VirtualTimeAdvancesWithMessages) {
    // Pin the flat single-tier topology: the asserted latency is alpha per
    // hop, which a forced XMPI_RANKS_PER_NODE >= 2 would replace with the
    // cheaper intra-node tier.
    XMPI_T_topo_set(1);
    auto result = xmpi::run(2, [](int rank) {
        for (int i = 0; i < 100; ++i) {
            int v = i;
            if (rank == 0) {
                MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD);
                MPI_Recv(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            } else {
                MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
                MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
            }
        }
    });
    XMPI_T_topo_set(0);
    // 200 messages in a ping-pong chain: at least 200 * alpha of modeled time.
    EXPECT_GE(result.max_vtime, 200 * 2e-6);
    EXPECT_EQ(result.total.p2p_messages, 200u);
}

TEST(P2P, CountersTrackBytes) {
    auto result = xmpi::run(2, [](int rank) {
        std::vector<char> buf(1024);
        if (rank == 0) {
            MPI_Send(buf.data(), 1024, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
        } else {
            MPI_Recv(buf.data(), 1024, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        }
    });
    EXPECT_EQ(result.total.p2p_bytes, 1024u);
}

// ---------------------------------------------------------------------------
// Persistent point-to-point (MPI_Send_init / MPI_Recv_init / MPI_Start).
// ---------------------------------------------------------------------------

TEST(Persistent, SendRecvRestartLoop) {
    xmpi::run(2, [](int rank) {
        int const rounds = 5;
        if (rank == 0) {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, 1, 3, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            for (int i = 0; i < rounds; ++i) {
                v = 10 * i;  // the bound buffer is re-read on every start
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                EXPECT_NE(req, MPI_REQUEST_NULL);  // persistent handles survive completion
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
        } else {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, 0, 3, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            for (int i = 0; i < rounds; ++i) {
                v = -1;
                ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
                MPI_Status st;
                ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
                EXPECT_EQ(v, 10 * i);
                EXPECT_EQ(st.MPI_SOURCE, 0);
                EXPECT_EQ(st.MPI_TAG, 3);
            }
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        }
    });
}

TEST(Persistent, StartallAndTestDrivenCompletion) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int a = 1, b = 2;
            MPI_Request reqs[2];
            ASSERT_EQ(MPI_Send_init(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Send_init(&b, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, &reqs[1]), MPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                a = round;
                b = round + 100;
                ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
                ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
                ASSERT_NE(reqs[0], MPI_REQUEST_NULL);
                ASSERT_NE(reqs[1], MPI_REQUEST_NULL);
            }
            ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
        } else {
            int a = -1, b = -1;
            MPI_Request reqs[2];
            ASSERT_EQ(MPI_Recv_init(&a, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, &reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Recv_init(&b, 1, MPI_INT, 0, 1, MPI_COMM_WORLD, &reqs[1]), MPI_SUCCESS);
            for (int round = 0; round < 3; ++round) {
                ASSERT_EQ(MPI_Startall(2, reqs), MPI_SUCCESS);
                // Drive completion purely through MPI_Test.
                for (bool done0 = false, done1 = false; !done0 || !done1;) {
                    int f = 0;
                    if (!done0) {
                        ASSERT_EQ(MPI_Test(&reqs[0], &f, MPI_STATUS_IGNORE), MPI_SUCCESS);
                        done0 = f != 0;
                    }
                    f = 0;
                    if (!done1) {
                        ASSERT_EQ(MPI_Test(&reqs[1], &f, MPI_STATUS_IGNORE), MPI_SUCCESS);
                        done1 = f != 0;
                    }
                }
                EXPECT_EQ(a, round);
                EXPECT_EQ(b, round + 100);
            }
            ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
            ASSERT_EQ(MPI_Request_free(&reqs[1]), MPI_SUCCESS);
        }
    });
}

TEST(Persistent, InactiveSemanticsAndErrors) {
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        // Wait/Test on an inactive persistent request return immediately
        // with an empty status; the handle stays valid.
        ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        MPI_Status st;
        ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
        EXPECT_NE(req, MPI_REQUEST_NULL);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
        int flag = 0;
        ASSERT_EQ(MPI_Test(&req, &flag, &st), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_NE(req, MPI_REQUEST_NULL);
        // Starting a started-but-uncompleted request is rejected; here:
        // start a PROC_NULL send (completes instantly), complete, restart.
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        EXPECT_EQ(MPI_Start(&req), MPI_ERR_REQUEST);  // still active
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);  // restart after completion
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        // Free while inactive releases the request.
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        // Starting a non-persistent or null request is an error.
        EXPECT_EQ(MPI_Start(&req), MPI_ERR_REQUEST);
        MPI_Request oneshot = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Isend(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &oneshot),
                  MPI_SUCCESS);
        EXPECT_EQ(MPI_Start(&oneshot), MPI_ERR_REQUEST);
        ASSERT_EQ(MPI_Wait(&oneshot, MPI_STATUS_IGNORE), MPI_SUCCESS);
    });
}

TEST(Persistent, FreeWhileActiveCancelsRecvAndPreservesMatching) {
    xmpi::run(2, [](int rank) {
        if (rank == 0) {
            int v = -1;
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, 1, 99, MPI_COMM_WORLD, &req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            // Free while the started receive is still unmatched: cancels it.
            ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
            EXPECT_EQ(req, MPI_REQUEST_NULL);
            // The canceled receive must not consume the later tag-1 message.
            MPI_Recv(&v, 1, MPI_INT, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
            EXPECT_EQ(v, 7);
        } else {
            int const v = 7;
            MPI_Send(&v, 1, MPI_INT, 0, 1, MPI_COMM_WORLD);
        }
    });
}

TEST(Persistent, TestanyOverInactivePersistentRequestsReportsDone) {
    // A poll loop over a set whose every member is null or a retired
    // (inactive) persistent request must terminate: MPI semantics are
    // flag=1 with index=MPI_UNDEFINED, not an eternal flag=0.
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request reqs[2] = {MPI_REQUEST_NULL, MPI_REQUEST_NULL};
        ASSERT_EQ(MPI_Send_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &reqs[0]),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&reqs[0]), MPI_SUCCESS);
        int flag = 0, index = -1;
        ASSERT_EQ(MPI_Testany(2, reqs, &index, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(index, 0);  // completes and retires the persistent request
        // The retired request is inactive: a second poll reports done with
        // MPI_UNDEFINED instead of spinning.
        flag = 0;
        index = -1;
        ASSERT_EQ(MPI_Testany(2, reqs, &index, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        EXPECT_EQ(index, MPI_UNDEFINED);
        ASSERT_EQ(MPI_Request_free(&reqs[0]), MPI_SUCCESS);
    });
}

TEST(Persistent, RecvInitFromProcNull) {
    xmpi::run(1, [](int) {
        int v = 42;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Recv_init(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 2; ++round) {
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            MPI_Status st;
            ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
            EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);
            EXPECT_EQ(v, 42);  // untouched
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Request-lifecycle hardening: completion calls on MPI_REQUEST_NULL and
// double frees have well-defined results.
// ---------------------------------------------------------------------------

TEST(RequestLifecycle, WaitAndTestOnNullRequest) {
    xmpi::run(1, [](int) {
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Status st;
        st.MPI_SOURCE = -42;
        ASSERT_EQ(MPI_Wait(&req, &st), MPI_SUCCESS);
        EXPECT_EQ(st.MPI_SOURCE, MPI_PROC_NULL);  // empty status
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        int flag = 0;
        ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(flag, 1);
        // Null request *pointers* are rejected.
        EXPECT_EQ(MPI_Wait(nullptr, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
        EXPECT_EQ(MPI_Test(nullptr, &flag, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
    });
}

TEST(RequestLifecycle, DoubleFreeIsWellDefined) {
    xmpi::run(1, [](int) {
        int v = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Isend(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(req, MPI_REQUEST_NULL);
        // The second free sees MPI_REQUEST_NULL: erroneous per the standard,
        // reported as MPI_ERR_REQUEST instead of touching freed memory.
        EXPECT_EQ(MPI_Request_free(&req), MPI_ERR_REQUEST);
        EXPECT_EQ(MPI_Request_free(nullptr), MPI_ERR_REQUEST);
    });
}

// ---------------------------------------------------------------------------
// Lost-wakeup stress: blocking waits spin, then park on the mailbox
// condition variable. Every wait kind runs against seeded peer jitter, so
// the events that end a wait land before, during and after the spin and
// the park. A missed wakeup hangs an indefinite wait (or costs a poll slice
// on a polling one); the watchdog turns a hang into a failure.
// ---------------------------------------------------------------------------

namespace {

/// Aborts the test binary if the scope runs longer than `limit`, so a
/// hung wait fails in seconds instead of at the ctest timeout.
class Watchdog {
public:
    Watchdog(char const* what, std::chrono::seconds limit)
        : th_([this, what, limit] {
              std::unique_lock<std::mutex> lock(m_);
              if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
                  std::fprintf(stderr, "watchdog: %s still running after %lld s\n", what,
                               static_cast<long long>(limit.count()));
                  std::abort();
              }
          }) {}
    ~Watchdog() {
        {
            std::lock_guard<std::mutex> lock(m_);
            done_ = true;
        }
        cv_.notify_all();
        th_.join();
    }
    Watchdog(Watchdog const&) = delete;
    Watchdog& operator=(Watchdog const&) = delete;

private:
    std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread th_;
};

/// Sleeps or busy-waits a seeded 0..60 µs, or not at all.
void jitter(std::mt19937_64& rng) {
    int const us = static_cast<int>(rng() % 80);
    if (us >= 60) return;
    if (us % 2 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
    } else {
        auto const until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
        while (std::chrono::steady_clock::now() < until) {
        }
    }
}

void wait_kind_stress(int nranks, int rounds, std::uint64_t seed) {
    xmpi::run(nranks, [&](int rank) {
        int const p = nranks;
        int const next = (rank + 1) % p;
        int const prev = (rank + p - 1) % p;
        std::mt19937_64 jit(seed * 1000003u + static_cast<std::uint64_t>(rank));
        std::int64_t sum_in = rank;
        std::int64_t sum_out = -1;
        MPI_Request coll = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&sum_in, &sum_out, 1, MPI_INT64_T, MPI_SUM, MPI_COMM_WORLD,
                                     MPI_INFO_NULL, &coll),
                  MPI_SUCCESS);
        std::int64_t const total = static_cast<std::int64_t>(p) * (p - 1) / 2;
        for (int round = 0; round < rounds; ++round) {
            // Every rank draws the same op sequence from the shared seed.
            std::mt19937_64 pick(seed + static_cast<std::uint64_t>(round));
            int const op = static_cast<int>(pick() % 5);
            int const v = round * 1000 + rank;
            jitter(jit);
            switch (op) {
                case 0: {  // token ring of blocking receives: one message in flight
                    int tok = -1;
                    if (rank != 0) {
                        ASSERT_EQ(MPI_Recv(&tok, 1, MPI_INT, prev, round, MPI_COMM_WORLD,
                                           MPI_STATUS_IGNORE),
                                  MPI_SUCCESS);
                        ASSERT_EQ(tok, round + rank - 1);
                        ++tok;
                        jitter(jit);
                    } else {
                        tok = round;
                    }
                    ASSERT_EQ(MPI_Send(&tok, 1, MPI_INT, next, round, MPI_COMM_WORLD), MPI_SUCCESS);
                    if (rank == 0) {
                        ASSERT_EQ(MPI_Recv(&tok, 1, MPI_INT, prev, round, MPI_COMM_WORLD,
                                           MPI_STATUS_IGNORE),
                                  MPI_SUCCESS);
                        ASSERT_EQ(tok, round + p - 1);
                    }
                    break;
                }
                case 1: {  // MPI_ANY_SOURCE probe at rank 0
                    if (rank != 0) {
                        ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, 0, round, MPI_COMM_WORLD), MPI_SUCCESS);
                        break;
                    }
                    int seen = 0;
                    for (int i = 1; i < p; ++i) {
                        MPI_Status st;
                        ASSERT_EQ(MPI_Probe(MPI_ANY_SOURCE, round, MPI_COMM_WORLD, &st),
                                  MPI_SUCCESS);
                        int got = -1;
                        ASSERT_EQ(MPI_Recv(&got, 1, MPI_INT, st.MPI_SOURCE, round,
                                           MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                                  MPI_SUCCESS);
                        ASSERT_EQ(got, round * 1000 + st.MPI_SOURCE);
                        ++seen;
                    }
                    ASSERT_EQ(seen, p - 1);
                    break;
                }
                case 2: {  // token ring of synchronous sends, each waiting for its match
                    int tok = -1;
                    if (rank != 0) {
                        jitter(jit);
                        ASSERT_EQ(MPI_Recv(&tok, 1, MPI_INT, prev, round, MPI_COMM_WORLD,
                                           MPI_STATUS_IGNORE),
                                  MPI_SUCCESS);
                        ASSERT_EQ(tok, round + rank - 1);
                        ++tok;
                    } else {
                        tok = round;
                    }
                    MPI_Request req = MPI_REQUEST_NULL;
                    ASSERT_EQ(MPI_Issend(&tok, 1, MPI_INT, next, round, MPI_COMM_WORLD, &req),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
                    if (rank == 0) {
                        jitter(jit);
                        ASSERT_EQ(MPI_Recv(&tok, 1, MPI_INT, prev, round, MPI_COMM_WORLD,
                                           MPI_STATUS_IGNORE),
                                  MPI_SUCCESS);
                        ASSERT_EQ(tok, round + p - 1);
                    }
                    break;
                }
                case 3: {  // persistent collective: generalized wait
                    sum_out = -1;
                    ASSERT_EQ(MPI_Start(&coll), MPI_SUCCESS);
                    jitter(jit);
                    ASSERT_EQ(MPI_Wait(&coll, MPI_STATUS_IGNORE), MPI_SUCCESS);
                    ASSERT_EQ(sum_out, total);
                    break;
                }
                case 4: {  // Waitany over receives from both neighbours
                    int got[2] = {-1, -1};
                    MPI_Request reqs[2];
                    ASSERT_EQ(MPI_Irecv(&got[0], 1, MPI_INT, prev, 2 * round, MPI_COMM_WORLD,
                                        &reqs[0]),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Irecv(&got[1], 1, MPI_INT, next, 2 * round + 1,
                                        MPI_COMM_WORLD, &reqs[1]),
                              MPI_SUCCESS);
                    ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, next, 2 * round, MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    jitter(jit);
                    ASSERT_EQ(MPI_Send(&v, 1, MPI_INT, prev, 2 * round + 1, MPI_COMM_WORLD),
                              MPI_SUCCESS);
                    int done = 0;
                    for (int k = 0; k < 2; ++k) {
                        int idx = MPI_UNDEFINED;
                        ASSERT_EQ(MPI_Waitany(2, reqs, &idx, MPI_STATUS_IGNORE), MPI_SUCCESS);
                        ASSERT_TRUE(idx == 0 || idx == 1);
                        done |= 1 << idx;
                    }
                    ASSERT_EQ(done, 3);
                    ASSERT_EQ(got[0], round * 1000 + prev);
                    ASSERT_EQ(got[1], round * 1000 + next);
                    break;
                }
            }
        }
        ASSERT_EQ(MPI_Request_free(&coll), MPI_SUCCESS);
    });
}

int oversubscribed_ranks() {
    unsigned const cores = std::thread::hardware_concurrency();
    return 2 * static_cast<int>(cores == 0 ? 4 : cores);
}

}  // namespace

TEST(WaitStress, AllWaitKindsUnderJitterSpinPath) {
    testing_utils::SeededRng rng;
    Watchdog const dog("WaitStress spin path", std::chrono::seconds(30));
    wait_kind_stress(4, 2000, rng.seed());
}

TEST(WaitStress, AllWaitKindsUnderJitterParkAtOncePath) {
    testing_utils::SeededRng rng;
    Watchdog const dog("WaitStress park-at-once path", std::chrono::seconds(30));
    wait_kind_stress(oversubscribed_ranks(), 600, rng.seed());
}

// A rank killed while its peers are mid-wait (parked well past the spin)
// must turn each wait into MPIX_ERR_PROC_FAILED, never a hang.
TEST(WaitStress, KilledPeerEndsParkedWaitsWithProcFailed) {
    Watchdog const dog("KilledPeerEndsParkedWaits", std::chrono::seconds(30));
    xmpi::run(4, [](int rank) {
        int v = 0;
        switch (rank) {
            case 0:  // blocking receive from the victim
                EXPECT_EQ(MPI_Recv(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                          MPIX_ERR_PROC_FAILED);
                break;
            case 1:
                usleep(3000);
                XMPI_Die();
            case 2:  // wildcard probe
                EXPECT_EQ(MPI_Probe(MPI_ANY_SOURCE, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE),
                          MPIX_ERR_PROC_FAILED);
                break;
            case 3: {  // synchronous send the victim never matches
                MPI_Request req = MPI_REQUEST_NULL;
                int rc = MPI_Issend(&v, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
                if (rc == MPI_SUCCESS) rc = MPI_Wait(&req, MPI_STATUS_IGNORE);
                EXPECT_EQ(rc, MPIX_ERR_PROC_FAILED);
                break;
            }
        }
    });
}

/// @file test_collectives.cpp
/// @brief Every xmpi collective against a sequential oracle, across a sweep
/// of communicator sizes (powers of two and odd sizes exercise both the
/// recursive-doubling and composite code paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "../testing_utils.hpp"
#include "xmpi/mpi.h"
#include "xmpi/xmpi.hpp"

class CollectiveP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST_P(CollectiveP, Barrier) {
    xmpi::run(GetParam(), [](int) { ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS); });
}

TEST_P(CollectiveP, BcastFromEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> data(16, rank == root ? root + 1 : -1);
            ASSERT_EQ(MPI_Bcast(data.data(), 16, MPI_INT, root, MPI_COMM_WORLD), MPI_SUCCESS);
            for (int v : data) EXPECT_EQ(v, root + 1);
        }
    });
}

TEST_P(CollectiveP, GatherToEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> send{rank * 2, rank * 2 + 1};
            std::vector<int> recv(static_cast<std::size_t>(2 * p), -1);
            ASSERT_EQ(MPI_Gather(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, root,
                                 MPI_COMM_WORLD),
                      MPI_SUCCESS);
            if (rank == root) {
                for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i);
            }
        }
    });
}

TEST_P(CollectiveP, GathervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r contributes r+1 copies of r.
        std::vector<int> send(static_cast<std::size_t>(rank + 1), rank);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i + 1;
            displs[static_cast<std::size_t>(i)] = total;
            total += i + 1;
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Gatherv(send.data(), rank + 1, MPI_INT, recv.data(), counts.data(),
                              displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            std::size_t k = 0;
            for (int i = 0; i < p; ++i) {
                for (int j = 0; j <= i; ++j) {
                    EXPECT_EQ(recv[k++], i);
                }
            }
        }
    });
}

TEST_P(CollectiveP, ScatterFromRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(3 * p));
            std::iota(send.begin(), send.end(), 0);
        }
        std::vector<int> recv(3, -1);
        ASSERT_EQ(MPI_Scatter(send.data(), 3, MPI_INT, recv.data(), 3, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < 3; ++j) EXPECT_EQ(recv[static_cast<std::size_t>(j)], rank * 3 + j);
    });
}

TEST_P(CollectiveP, ScattervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 3;
            displs[static_cast<std::size_t>(i)] = total;
            total += i % 3;
        }
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(total));
            std::iota(send.begin(), send.end(), 100);
        }
        std::vector<int> recv(static_cast<std::size_t>(rank % 3), -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                               rank % 3, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < rank % 3; ++j)
            EXPECT_EQ(recv[static_cast<std::size_t>(j)], 100 + displs[static_cast<std::size_t>(rank)] + j);
    });
}

TEST_P(CollectiveP, ScattervEmptySegments) {
    int const p = GetParam();
    // Every odd rank (and the root) receives nothing; counts of 0 must
    // neither send garbage nor desynchronize the pattern.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = (i % 2 == 0 && i != 0) ? 2 : 0;
            displs[static_cast<std::size_t>(i)] = total;
            total += counts[static_cast<std::size_t>(i)];
        }
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(total));
            std::iota(send.begin(), send.end(), 500);
        }
        int const mine = counts[static_cast<std::size_t>(rank)];
        std::vector<int> recv(static_cast<std::size_t>(mine), -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                               mine, MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int j = 0; j < mine; ++j)
            EXPECT_EQ(recv[static_cast<std::size_t>(j)],
                      500 + displs[static_cast<std::size_t>(rank)] + j);
    });
}

TEST_P(CollectiveP, GathervEmptySegments) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank % 2;  // odd ranks contribute one element
        std::vector<int> send(static_cast<std::size_t>(mine), rank + 40);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 2;
            displs[static_cast<std::size_t>(i)] = total;
            total += i % 2;
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Gatherv(send.data(), mine, MPI_INT, recv.data(), counts.data(),
                              displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < p; ++i) {
                if (i % 2 == 0) continue;
                EXPECT_EQ(recv[static_cast<std::size_t>(displs[static_cast<std::size_t>(i)])],
                          i + 40);
            }
        }
    });
}

TEST_P(CollectiveP, ScattervOverlappingSourceSegmentsOnRoot) {
    int const p = GetParam();
    // Scatterv only reads the root's send buffer, so several destination
    // ranks may legally be served from the same (overlapping) region.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 3);
        std::vector<int> displs(static_cast<std::size_t>(p), 0);  // all overlap at offset 0
        std::vector<int> send;
        if (rank == 0) send = {11, 22, 33, 44};
        std::vector<int> recv(3, -1);
        ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(), 3,
                               MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        EXPECT_EQ(recv[0], 11);
        EXPECT_EQ(recv[1], 22);
        EXPECT_EQ(recv[2], 33);
    });
}

TEST_P(CollectiveP, GathervReversedDisplacementsOnRoot) {
    int const p = GetParam();
    // Non-monotone displacements: rank i's segment lands at slot p-1-i.
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 1000;
        std::vector<int> counts(static_cast<std::size_t>(p), 1);
        std::vector<int> displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = p - 1 - i;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        ASSERT_EQ(MPI_Gatherv(&mine, 1, MPI_INT, recv.data(), counts.data(), displs.data(),
                              MPI_INT, 0, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < p; ++i)
                EXPECT_EQ(recv[static_cast<std::size_t>(p - 1 - i)], i + 1000);
        }
    });
}

TEST_P(CollectiveP, ScattervInPlaceOnRoot) {
    int const p = GetParam();
    // MPI_IN_PLACE as the root's recvbuf: the root's own segment stays in
    // the send buffer untouched.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 2), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = 2 * i;
        std::vector<int> send;
        if (rank == 0) {
            send.resize(static_cast<std::size_t>(2 * p));
            std::iota(send.begin(), send.end(), 0);
        }
        if (rank == 0) {
            ASSERT_EQ(MPI_Scatterv(send.data(), counts.data(), displs.data(), MPI_INT,
                                   MPI_IN_PLACE, 2, MPI_INT, 0, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            EXPECT_EQ(send[0], 0);
            EXPECT_EQ(send[1], 1);
        } else {
            std::vector<int> recv(2, -1);
            ASSERT_EQ(MPI_Scatterv(nullptr, nullptr, nullptr, MPI_INT, recv.data(), 2, MPI_INT, 0,
                                   MPI_COMM_WORLD),
                      MPI_SUCCESS);
            EXPECT_EQ(recv[0], 2 * rank);
            EXPECT_EQ(recv[1], 2 * rank + 1);
        }
    });
}

TEST_P(CollectiveP, GathervInPlaceOnRoot) {
    int const p = GetParam();
    // MPI_IN_PLACE as the root's sendbuf: the root's contribution is
    // already in place in the receive buffer.
    xmpi::run(p, [p](int rank) {
        std::vector<int> counts(static_cast<std::size_t>(p), 1), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) displs[static_cast<std::size_t>(i)] = i;
        if (rank == 0) {
            std::vector<int> recv(static_cast<std::size_t>(p), -1);
            recv[0] = 70;  // root's own contribution, pre-placed
            ASSERT_EQ(MPI_Gatherv(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, recv.data(), counts.data(),
                                  displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
                      MPI_SUCCESS);
            for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i + 70);
        } else {
            int const mine = rank + 70;
            ASSERT_EQ(MPI_Gatherv(&mine, 1, MPI_INT, nullptr, nullptr, nullptr, MPI_INT, 0,
                                  MPI_COMM_WORLD),
                      MPI_SUCCESS);
        }
    });
}

TEST_P(CollectiveP, AllgatherUniform) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<long> send{rank * 10L, rank * 10L + 1};
        std::vector<long> recv(static_cast<std::size_t>(2 * p), -1);
        ASSERT_EQ(
            MPI_Allgather(send.data(), 2, MPI_LONG, recv.data(), 2, MPI_LONG, MPI_COMM_WORLD),
            MPI_SUCCESS);
        for (int i = 0; i < p; ++i) {
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i)], i * 10L);
            EXPECT_EQ(recv[static_cast<std::size_t>(2 * i + 1)], i * 10L + 1);
        }
    });
}

TEST_P(CollectiveP, AllgatherInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> buf(static_cast<std::size_t>(p), -1);
        buf[static_cast<std::size_t>(rank)] = rank + 7;
        ASSERT_EQ(MPI_Allgather(MPI_IN_PLACE, 0, MPI_DATATYPE_NULL, buf.data(), 1, MPI_INT,
                                MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(buf[static_cast<std::size_t>(i)], i + 7);
    });
}

TEST_P(CollectiveP, AllgathervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(rank % 4 + 1), rank);
        std::vector<int> counts(static_cast<std::size_t>(p)), displs(static_cast<std::size_t>(p));
        int total = 0;
        for (int i = 0; i < p; ++i) {
            counts[static_cast<std::size_t>(i)] = i % 4 + 1;
            displs[static_cast<std::size_t>(i)] = total;
            total += counts[static_cast<std::size_t>(i)];
        }
        std::vector<int> recv(static_cast<std::size_t>(total), -1);
        ASSERT_EQ(MPI_Allgatherv(send.data(), static_cast<int>(send.size()), MPI_INT, recv.data(),
                                 counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        std::size_t k = 0;
        for (int i = 0; i < p; ++i) {
            for (int j = 0; j < i % 4 + 1; ++j) {
                EXPECT_EQ(recv[k++], i);
            }
        }
    });
}

TEST_P(CollectiveP, AlltoallUniform) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) send[static_cast<std::size_t>(i)] = rank * 100 + i;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        ASSERT_EQ(MPI_Alltoall(send.data(), 1, MPI_INT, recv.data(), 1, MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * 100 + rank);
    });
}

TEST_P(CollectiveP, AlltoallvTriangular) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r sends i+1 copies of (r*1000 + i) to rank i.
        std::vector<int> scounts(static_cast<std::size_t>(p)), sdispls(static_cast<std::size_t>(p));
        int stotal = 0;
        for (int i = 0; i < p; ++i) {
            scounts[static_cast<std::size_t>(i)] = i + 1;
            sdispls[static_cast<std::size_t>(i)] = stotal;
            stotal += i + 1;
        }
        std::vector<int> send(static_cast<std::size_t>(stotal));
        for (int i = 0; i < p; ++i)
            for (int j = 0; j <= i; ++j)
                send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(i)] + j)] =
                    rank * 1000 + i;
        std::vector<int> rcounts(static_cast<std::size_t>(p), rank + 1);
        std::vector<int> rdispls(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) rdispls[static_cast<std::size_t>(i)] = i * (rank + 1);
        std::vector<int> recv(static_cast<std::size_t>(p * (rank + 1)), -1);
        ASSERT_EQ(MPI_Alltoallv(send.data(), scounts.data(), sdispls.data(), MPI_INT, recv.data(),
                                rcounts.data(), rdispls.data(), MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int i = 0; i < p; ++i) {
            for (int j = 0; j <= rank; ++j) {
                EXPECT_EQ(recv[static_cast<std::size_t>(i * (rank + 1) + j)], i * 1000 + rank);
            }
        }
    });
}

TEST_P(CollectiveP, ReduceSumToEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> send(8);
            for (int i = 0; i < 8; ++i) send[static_cast<std::size_t>(i)] = rank + i;
            std::vector<int> recv(8, -1);
            ASSERT_EQ(
                MPI_Reduce(send.data(), recv.data(), 8, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD),
                MPI_SUCCESS);
            if (rank == root) {
                int const ranksum = p * (p - 1) / 2;
                for (int i = 0; i < 8; ++i) {
                    EXPECT_EQ(recv[static_cast<std::size_t>(i)], ranksum + p * i);
                }
            }
        }
    });
}

TEST_P(CollectiveP, AllreduceMinMax) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        double v = 100.0 - rank;
        double mn = 0, mx = 0;
        ASSERT_EQ(MPI_Allreduce(&v, &mn, 1, MPI_DOUBLE, MPI_MIN, MPI_COMM_WORLD), MPI_SUCCESS);
        ASSERT_EQ(MPI_Allreduce(&v, &mx, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_DOUBLE_EQ(mn, 100.0 - (p - 1));
        EXPECT_DOUBLE_EQ(mx, 100.0);
    });
}

TEST_P(CollectiveP, AllreduceInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> buf(4, rank + 1);
        ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, buf.data(), 4, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int v : buf) EXPECT_EQ(v, p * (p + 1) / 2);
    });
}

namespace {
/// 2x2 int64 matrix product c = a * b (associative, non-commutative).
void matmul2(long long const* a, long long const* b, long long* c) {
    c[0] = a[0] * b[0] + a[1] * b[2];
    c[1] = a[0] * b[1] + a[1] * b[3];
    c[2] = a[2] * b[0] + a[3] * b[2];
    c[3] = a[2] * b[1] + a[3] * b[3];
}
}  // namespace

TEST_P(CollectiveP, AllreduceUserOpNonCommutative) {
    int const p = GetParam();
    // Matrix multiplication is associative but not commutative; the result
    // must equal the rank-ordered product M_0 * M_1 * ... * M_{p-1}.
    xmpi::run(p, [p](int rank) {
        MPI_Op op;
        ASSERT_EQ(MPI_Op_create(
                      [](void* in, void* inout, int* len, MPI_Datatype*) {
                          auto* a = static_cast<long long*>(in);     // left operand
                          auto* b = static_cast<long long*>(inout);  // right operand
                          for (int i = 0; i + 3 < *len; i += 4) {
                              long long c[4];
                              matmul2(a + i, b + i, c);
                              for (int j = 0; j < 4; ++j) b[i + j] = c[j];
                          }
                      },
                      /*commute=*/0, &op),
                  MPI_SUCCESS);
        long long mine[4] = {rank + 1, 1, 0, 1};
        long long out[4] = {0, 0, 0, 0};
        ASSERT_EQ(MPI_Allreduce(mine, out, 4, MPI_INT64_T, op, MPI_COMM_WORLD), MPI_SUCCESS);
        long long expect[4] = {1, 1, 0, 1};
        for (int i = 1; i < p; ++i) {
            long long m[4] = {i + 1, 1, 0, 1};
            long long c[4];
            matmul2(expect, m, c);
            for (int j = 0; j < 4; ++j) expect[j] = c[j];
        }
        for (int j = 0; j < 4; ++j) EXPECT_EQ(out[j], expect[j]);
        MPI_Op_free(&op);
    });
}

TEST_P(CollectiveP, ScanPrefixSums) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int v = rank + 1;
        int out = -1;
        ASSERT_EQ(MPI_Scan(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        EXPECT_EQ(out, (rank + 1) * (rank + 2) / 2);
    });
}

TEST_P(CollectiveP, ExscanPrefixSums) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int v = rank + 1;
        int out = -1;
        ASSERT_EQ(MPI_Exscan(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
        if (rank > 0) {
            EXPECT_EQ(out, rank * (rank + 1) / 2);
        }
    });
}

TEST_P(CollectiveP, ReduceScatterBlock) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(2 * p));
        for (int i = 0; i < 2 * p; ++i) send[static_cast<std::size_t>(i)] = rank + i;
        std::vector<int> recv(2, -1);
        ASSERT_EQ(MPI_Reduce_scatter_block(send.data(), recv.data(), 2, MPI_INT, MPI_SUM,
                                           MPI_COMM_WORLD),
                  MPI_SUCCESS);
        int const ranksum = p * (p - 1) / 2;
        EXPECT_EQ(recv[0], ranksum + p * (2 * rank));
        EXPECT_EQ(recv[1], ranksum + p * (2 * rank + 1));
    });
}

TEST_P(CollectiveP, IbarrierCompletes) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req;
        ASSERT_EQ(MPI_Ibarrier(MPI_COMM_WORLD, &req), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, IbarrierViaTestLoop) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req;
        ASSERT_EQ(MPI_Ibarrier(MPI_COMM_WORLD, &req), MPI_SUCCESS);
        int flag = 0;
        while (flag == 0) {
            ASSERT_EQ(MPI_Test(&req, &flag, MPI_STATUS_IGNORE), MPI_SUCCESS);
        }
    });
}

TEST(Collective, ConcurrentCollectivesOnDifferentComms) {
    xmpi::run(4, [](int rank) {
        MPI_Comm half;
        ASSERT_EQ(MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &half), MPI_SUCCESS);
        int v = rank;
        int sum_half = 0, sum_world = 0;
        MPI_Allreduce(&v, &sum_half, 1, MPI_INT, MPI_SUM, half);
        MPI_Allreduce(&v, &sum_world, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
        EXPECT_EQ(sum_world, 6);
        EXPECT_EQ(sum_half, rank % 2 == 0 ? 2 : 4);
        MPI_Comm_free(&half);
    });
}

TEST(Collective, BcastLatencyIsLogarithmic) {
    // Under the cost model, a binomial bcast of 1 byte over p ranks costs
    // ~ceil(log2 p) * alpha on the critical path, not p * alpha. Pin the
    // binomial algorithm: the property being asserted is its tree shape,
    // independent of a forced XMPI_ALG_BCAST environment.
    ASSERT_EQ(XMPI_T_alg_set("bcast", "binomial"), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_set(1), MPI_SUCCESS);  // flat: single-tier latency
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;  // isolate the network terms from CPU noise
    auto t8 = xmpi::run(
        8,
        [](int) {
            char c = 1;
            MPI_Bcast(&c, 1, MPI_CHAR, 0, MPI_COMM_WORLD);
        },
        cfg);
    auto t64 = xmpi::run(
        64,
        [](int) {
            char c = 1;
            MPI_Bcast(&c, 1, MPI_CHAR, 0, MPI_COMM_WORLD);
        },
        cfg);
    ASSERT_EQ(XMPI_T_alg_set("bcast", "auto"), MPI_SUCCESS);
    ASSERT_EQ(XMPI_T_topo_set(0), MPI_SUCCESS);
    // log2 ratio is 2x, allow generous slack for compute noise.
    EXPECT_LT(t64.max_vtime, t8.max_vtime * 4.0);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives: every MPI_I* against the same oracles as its
// blocking counterpart, plus completion-order robustness.
// ---------------------------------------------------------------------------

TEST_P(CollectiveP, IbcastFromEveryRoot) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        for (int root = 0; root < p; ++root) {
            std::vector<int> data(16, rank == root ? root + 1 : -1);
            MPI_Request req = MPI_REQUEST_NULL;
            ASSERT_EQ(MPI_Ibcast(data.data(), 16, MPI_INT, root, MPI_COMM_WORLD, &req),
                      MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int v : data) EXPECT_EQ(v, root + 1);
        }
    });
}

TEST_P(CollectiveP, IgatherMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send{rank * 2, rank * 2 + 1};
        std::vector<int> recv(static_cast<std::size_t>(2 * p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Igather(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, 0, MPI_COMM_WORLD,
                              &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        if (rank == 0) {
            for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i);
        }
    });
}

TEST_P(CollectiveP, IscattervVaryingCounts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send, counts(static_cast<std::size_t>(p)),
            displs(static_cast<std::size_t>(p));
        if (rank == 0) {
            int off = 0;
            for (int i = 0; i < p; ++i) {
                counts[static_cast<std::size_t>(i)] = i + 1;
                displs[static_cast<std::size_t>(i)] = off;
                for (int j = 0; j <= i; ++j) send.push_back(i);
                off += i + 1;
            }
        }
        std::vector<int> recv(static_cast<std::size_t>(rank + 1), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iscatterv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                                rank + 1, MPI_INT, 0, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int v : recv) EXPECT_EQ(v, rank);
    });
}

TEST_P(CollectiveP, IallgatherMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 7;
        std::vector<int> recv(static_cast<std::size_t>(p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(
            MPI_Iallgather(&mine, 1, MPI_INT, recv.data(), 1, MPI_INT, MPI_COMM_WORLD, &req),
            MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i + 7);
    });
}

TEST_P(CollectiveP, IalltoallvMatchesOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Rank r sends one element (r*p + dest) to every destination.
        std::vector<int> send(static_cast<std::size_t>(p)), recv(static_cast<std::size_t>(p), -1);
        std::vector<int> counts(static_cast<std::size_t>(p), 1), displs(static_cast<std::size_t>(p));
        for (int i = 0; i < p; ++i) {
            send[static_cast<std::size_t>(i)] = rank * p + i;
            displs[static_cast<std::size_t>(i)] = i;
        }
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ialltoallv(send.data(), counts.data(), displs.data(), MPI_INT, recv.data(),
                                 counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        for (int i = 0; i < p; ++i) EXPECT_EQ(recv[static_cast<std::size_t>(i)], i * p + rank);
    });
}

TEST_P(CollectiveP, IreduceAndIallreduceMatchOracle) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int const mine = rank + 1;
        int reduced = -1, allreduced = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Ireduce(&mine, &reduced, 1, MPI_INT, MPI_SUM, 0, MPI_COMM_WORLD, &r1),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Iallreduce(&mine, &allreduced, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        MPI_Request reqs[2] = {r1, r2};
        ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
        int const expect = p * (p + 1) / 2;
        if (rank == 0) EXPECT_EQ(reduced, expect);
        EXPECT_EQ(allreduced, expect);
    });
}

TEST_P(CollectiveP, IscanAndIexscanMatchOracle) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        int const mine = rank + 1;
        int incl = -1, excl = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iscan(&mine, &incl, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r1), MPI_SUCCESS);
        ASSERT_EQ(MPI_Iexscan(&mine, &excl, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r1, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r2, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(incl, (rank + 1) * (rank + 2) / 2);
        if (rank > 0) EXPECT_EQ(excl, rank * (rank + 1) / 2);
    });
}

TEST_P(CollectiveP, NonblockingCollectivesCompleteOutOfOrder) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        // Initiate two collectives, wait for the second before the first.
        std::vector<int> a(static_cast<std::size_t>(p), -1);
        int const mine = rank;
        int sum = -1;
        MPI_Request r1 = MPI_REQUEST_NULL, r2 = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iallgather(&mine, 1, MPI_INT, a.data(), 1, MPI_INT, MPI_COMM_WORLD, &r1),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Iallreduce(&mine, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &r2),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r2, MPI_STATUS_IGNORE), MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&r1, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(sum, p * (p - 1) / 2);
        for (int i = 0; i < p; ++i) EXPECT_EQ(a[static_cast<std::size_t>(i)], i);
    });
}

TEST_P(CollectiveP, IallreduceInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int value = rank + 1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Iallreduce(MPI_IN_PLACE, &value, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
        EXPECT_EQ(value, p * (p + 1) / 2);
    });
}

// ---------------------------------------------------------------------------
// Persistent collectives (MPI_*_init + MPI_Start): restartable schedules
// with selection frozen at init. Input buffers are re-read on every start.
// ---------------------------------------------------------------------------

TEST_P(CollectiveP, BarrierInitRestarts) {
    int const p = GetParam();
    xmpi::run(p, [](int) {
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Barrier_init(MPI_COMM_WORLD, MPI_INFO_NULL, &req), MPI_SUCCESS);
        for (int round = 0; round < 4; ++round) {
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            ASSERT_NE(req, MPI_REQUEST_NULL);
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, BcastInitRereadsRootBufferEachStart) {
    int const p = GetParam();
    xmpi::run(p, [](int rank) {
        std::vector<int> buf(8, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Bcast_init(buf.data(), 8, MPI_INT, 0, MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            // Root rewrites the bound buffer per round; non-roots clobber it
            // so stale contents cannot masquerade as a fresh broadcast.
            std::fill(buf.begin(), buf.end(), rank == 0 ? round * 7 + 1 : -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int v : buf) EXPECT_EQ(v, round * 7 + 1) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllreduceInitRestartsWithFreshInputs) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<long long> send(5), recv(5, -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(send.data(), recv.data(), 5, MPI_INT64_T, MPI_SUM,
                                     MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 5; ++i)
                send[static_cast<std::size_t>(i)] = (round + 1) * (rank + 1) + i;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int i = 0; i < 5; ++i) {
                long long expect = 0;
                for (int r = 0; r < p; ++r) expect += (round + 1) * (r + 1) + i;
                EXPECT_EQ(recv[static_cast<std::size_t>(i)], expect)
                    << "round " << round << " i " << i;
            }
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllreduceInitInPlace) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        int value = 0;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(MPI_IN_PLACE, &value, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                     MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 1; round <= 3; ++round) {
            value = round * (rank + 1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(value, round * p * (p + 1) / 2) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, ReduceInitToNonzeroRoot) {
    int const p = GetParam();
    int const root = p - 1;
    xmpi::run(p, [p, root](int rank) {
        int v = 0, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Reduce_init(&v, &out, 1, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD,
                                  MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 1; round <= 3; ++round) {
            v = round + rank;
            out = -1;
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            if (rank == root) EXPECT_EQ(out, p * round + p * (p - 1) / 2) << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AllgatherInitRereadsSendBuffer) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(3), recv(static_cast<std::size_t>(3 * p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allgather_init(send.data(), 3, MPI_INT, recv.data(), 3, MPI_INT,
                                     MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int i = 0; i < 3; ++i) send[static_cast<std::size_t>(i)] = 100 * round + 10 * rank + i;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int r = 0; r < p; ++r)
                for (int i = 0; i < 3; ++i)
                    EXPECT_EQ(recv[static_cast<std::size_t>(3 * r + i)], 100 * round + 10 * r + i)
                        << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST_P(CollectiveP, AlltoallInitRestarts) {
    int const p = GetParam();
    xmpi::run(p, [p](int rank) {
        std::vector<int> send(static_cast<std::size_t>(p)), recv(static_cast<std::size_t>(p), -1);
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Alltoall_init(send.data(), 1, MPI_INT, recv.data(), 1, MPI_INT,
                                    MPI_COMM_WORLD, MPI_INFO_NULL, &req),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            for (int d = 0; d < p; ++d)
                send[static_cast<std::size_t>(d)] = 1000 * round + 10 * rank + d;
            std::fill(recv.begin(), recv.end(), -1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            for (int s = 0; s < p; ++s)
                EXPECT_EQ(recv[static_cast<std::size_t>(s)], 1000 * round + 10 * s + rank)
                    << "round " << round;
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
}

TEST(PersistentCollective, SelectionFrozenAtInit) {
    // Pinning a different algorithm after init must not affect a live
    // persistent operation: the schedule was materialized at init time.
    XMPI_T_topo_set(1);
    ASSERT_EQ(XMPI_T_alg_set("allreduce", "binomial"), MPI_SUCCESS);
    xmpi::run(4, [](int rank) {
        int v = 0, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, MPI_INFO_NULL,
                                     &req),
                  MPI_SUCCESS);
        char const* selected = nullptr;
        ASSERT_EQ(XMPI_T_alg_selected("allreduce", &selected), MPI_SUCCESS);
        EXPECT_STREQ(selected, "binomial");
        // Every rank must have frozen its schedule before the (global) pin
        // changes, otherwise ranks would init mismatched algorithms.
        MPI_Barrier(MPI_COMM_WORLD);
        // Re-pin mid-life: the live request keeps its frozen binomial
        // schedule and must stay correct across restarts.
        if (rank == 0) XMPI_T_alg_set("allreduce", "flat");
        MPI_Barrier(MPI_COMM_WORLD);
        for (int round = 1; round <= 3; ++round) {
            v = round * (rank + 1);
            ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
            ASSERT_EQ(MPI_Wait(&req, MPI_STATUS_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(out, round * 10);  // 1+2+3+4 = 10
        }
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
    });
    XMPI_T_alg_set("allreduce", "auto");
    XMPI_T_topo_set(0);
}

TEST(PersistentCollective, TwoOutstandingPersistentOpsInterleave) {
    // Two persistent collectives on the same communicator, started in the
    // same order by every rank, must not cross-match (distinct frozen
    // sequence numbers).
    xmpi::run(3, [](int rank) {
        int a = 0, asum = -1;
        std::vector<int> bbuf(4, -1);
        MPI_Request ra = MPI_REQUEST_NULL, rb = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&a, &asum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD,
                                     MPI_INFO_NULL, &ra),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Bcast_init(bbuf.data(), 4, MPI_INT, 0, MPI_COMM_WORLD, MPI_INFO_NULL, &rb),
                  MPI_SUCCESS);
        for (int round = 0; round < 3; ++round) {
            a = rank + round;
            std::fill(bbuf.begin(), bbuf.end(), rank == 0 ? 5 * round : -1);
            // Start both before completing either.
            MPI_Request both[2] = {ra, rb};
            ASSERT_EQ(MPI_Startall(2, both), MPI_SUCCESS);
            ASSERT_EQ(MPI_Waitall(2, both, MPI_STATUSES_IGNORE), MPI_SUCCESS);
            EXPECT_EQ(asum, 3 * round + 3);  // 0+1+2 + 3*round
            for (int v : bbuf) EXPECT_EQ(v, 5 * round);
        }
        ASSERT_EQ(MPI_Request_free(&ra), MPI_SUCCESS);
        ASSERT_EQ(MPI_Request_free(&rb), MPI_SUCCESS);
    });
}

TEST(PersistentCollective, FreeWhileStartedDrivesToCompletion) {
    xmpi::run(4, [](int rank) {
        int v = rank, out = -1;
        MPI_Request req = MPI_REQUEST_NULL;
        ASSERT_EQ(MPI_Allreduce_init(&v, &out, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD, MPI_INFO_NULL,
                                     &req),
                  MPI_SUCCESS);
        ASSERT_EQ(MPI_Start(&req), MPI_SUCCESS);
        // Freeing a started persistent collective first drives it to
        // completion on every rank (so peers cannot deadlock).
        ASSERT_EQ(MPI_Request_free(&req), MPI_SUCCESS);
        EXPECT_EQ(out, 6);
    });
}

// ---------------------------------------------------------------------------
// Flavour parity. Every collective that runs a fixed-shape schedule, in each
// flavour mpi.h offers (blocking, MPI_I*, *_init + MPI_Start), against a
// sequential oracle, byte for byte: seeded random counts with zero-length
// blocks and gaps between blocks, MPI_IN_PLACE where the standard allows it,
// and a non-commutative user op for the scans.
// ---------------------------------------------------------------------------

namespace {

using testing_utils::EnvVar;
using testing_utils::ProgressPin;

enum class Flavour { blocking, nonblocking, persistent };

char const* flavour_name(Flavour f) {
    switch (f) {
        case Flavour::blocking: return "blocking";
        case Flavour::nonblocking: return "nonblocking";
        case Flavour::persistent: return "persistent";
    }
    return "?";
}

/// The entry points of one collective; an empty member is a flavour mpi.h
/// does not offer.
struct Calls {
    std::function<int()> blocking;
    std::function<int(MPI_Request*)> nonblocking;
    std::function<int(MPI_Request*)> persistent;
};

/// Issues the collective in `f` and drives it to completion. A persistent
/// request is started twice (its inputs are unchanged, so the result is the
/// same) and freed.
int drive(Flavour f, Calls const& c) {
    MPI_Request req = MPI_REQUEST_NULL;
    switch (f) {
        case Flavour::blocking: return c.blocking();
        case Flavour::nonblocking:
            if (int rc = c.nonblocking(&req); rc != MPI_SUCCESS) return rc;
            return MPI_Wait(&req, MPI_STATUS_IGNORE);
        case Flavour::persistent:
            if (int rc = c.persistent(&req); rc != MPI_SUCCESS) return rc;
            for (int k = 0; k < 2; ++k) {
                if (int rc = MPI_Start(&req); rc != MPI_SUCCESS) return rc;
                if (int rc = MPI_Wait(&req, MPI_STATUS_IGNORE); rc != MPI_SUCCESS) return rc;
            }
            return MPI_Request_free(&req);
    }
    return MPI_ERR_OTHER;
}

/// splitmix64: a portable hash, so every rank (and every standard library)
/// derives the same counts and payloads from one seed.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t draw(std::uint64_t seed, int a, int b) {
    return mix(seed ^ mix(static_cast<std::uint64_t>(a) * 1000003u + static_cast<std::uint64_t>(b)));
}

/// Length of the block rank `i` sends toward `j` (or of slot `i` of a table
/// `j`): 0..3 elements, so zero-length blocks are common.
int count_of(std::uint64_t seed, int i, int j) { return static_cast<int>(draw(seed, i, j) % 4); }

/// Element `k` of the block rank `i` contributes toward `j`.
std::uint64_t value_of(std::uint64_t seed, int i, int j, int k) {
    return draw(seed, i * 4099 + j + 17, k);
}

constexpr std::uint64_t kSentinel = 0xABABABABABABABABull;

std::size_t idx(int i) { return static_cast<std::size_t>(i); }

/// counts[i] = count_of(seed, i, table) and displacements with a 0/1-element
/// gap before each block; returns the buffer length (elements).
int layout(std::uint64_t seed, int p, int table, std::vector<int>& counts,
           std::vector<int>& displs) {
    counts.assign(idx(p), 0);
    displs.assign(idx(p), 0);
    int at = 0;
    for (int i = 0; i < p; ++i) {
        at += static_cast<int>(draw(seed, i, table + 100) % 2);
        counts[idx(i)] = count_of(seed, i, table);
        displs[idx(i)] = at;
        at += counts[idx(i)];
    }
    return at + 1;
}

std::vector<std::uint64_t> block(std::uint64_t seed, int i, int j, int n) {
    std::vector<std::uint64_t> b(idx(n));
    for (int k = 0; k < n; ++k) b[idx(k)] = value_of(seed, i, j, k);
    return b;
}

int root_of(std::uint64_t seed, int p) { return static_cast<int>(draw(seed, 7, 7) % static_cast<std::uint64_t>(p)); }

MPI_Datatype const& U64 = MPI_UINT64_T;

/// Affine maps x -> a*x + b as (a, b) pairs of uint64: composition is
/// associative but not commutative. `in` is the lower-rank (left) operand,
/// applied first.
void compose(std::uint64_t const* f, std::uint64_t* g) {
    std::uint64_t const a = g[0] * f[0];
    std::uint64_t const b = g[0] * f[1] + g[1];
    g[0] = a;
    g[1] = b;
}

MPI_Op affine_op() {
    static MPI_Op op = [] {
        MPI_Op o = MPI_OP_NULL;
        MPI_Op_create(
            [](void* in, void* inout, int* len, MPI_Datatype*) {
                for (int i = 0; i + 1 < *len; i += 2) {
                    compose(static_cast<std::uint64_t const*>(in) + i,
                            static_cast<std::uint64_t*>(inout) + i);
                }
            },
            /*commute=*/0, &o);
        return o;
    }();
    return op;
}

using Body = void (*)(int rank, int p, Flavour f, std::uint64_t seed, bool in_place);

void barrier_body(int rank, int p, Flavour f, std::uint64_t, bool) {
    // Virtual time is causal: nobody leaves before the last rank arrived.
    xmpi::vtime_add(1e-3 * rank);
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls const c{[&] { return MPI_Barrier(W); }, [&](MPI_Request* r) { return MPI_Ibarrier(W, r); },
                  [&](MPI_Request* r) { return MPI_Barrier_init(W, MPI_INFO_NULL, r); }};
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    EXPECT_GE(xmpi::vtime_now(), 1e-3 * (p - 1));
}

void gatherv_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place, bool uniform) {
    std::vector<int> counts, displs;
    int len = layout(seed, p, 0, counts, displs);
    if (uniform) {
        for (int i = 0; i < p; ++i) {
            counts[idx(i)] = counts[0];
            displs[idx(i)] = i * counts[0];
        }
        len = p * counts[0] + 1;
    }
    int const root = root_of(seed, p);
    auto const mine = block(seed, rank, 0, counts[idx(rank)]);
    std::vector<std::uint64_t> recv(idx(len), kSentinel);
    void const* sbuf = mine.data();
    if (in_place && rank == root) {
        std::copy(mine.begin(), mine.end(), recv.begin() + displs[idx(rank)]);
        sbuf = MPI_IN_PLACE;
    }
    int const n = counts[idx(rank)];
    int const* rc = counts.data();
    int const* rd = displs.data();
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls c;
    if (uniform) {
        c = {[&] { return MPI_Gather(sbuf, n, U64, recv.data(), n, U64, root, W); },
             [&](MPI_Request* r) { return MPI_Igather(sbuf, n, U64, recv.data(), n, U64, root, W, r); },
             [&](MPI_Request* r) {
                 return MPI_Gather_init(sbuf, n, U64, recv.data(), n, U64, root, W, MPI_INFO_NULL, r);
             }};
    } else {
        c = {[&] { return MPI_Gatherv(sbuf, n, U64, recv.data(), rc, rd, U64, root, W); },
             [&](MPI_Request* r) {
                 return MPI_Igatherv(sbuf, n, U64, recv.data(), rc, rd, U64, root, W, r);
             },
             [&](MPI_Request* r) {
                 return MPI_Gatherv_init(sbuf, n, U64, recv.data(), rc, rd, U64, root, W,
                                         MPI_INFO_NULL, r);
             }};
    }
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    if (rank != root) return;
    std::vector<std::uint64_t> expect(idx(len), kSentinel);
    for (int i = 0; i < p; ++i) {
        auto const b = block(seed, i, 0, counts[idx(i)]);
        std::copy(b.begin(), b.end(), expect.begin() + displs[idx(i)]);
    }
    EXPECT_EQ(recv, expect);
}

void gather_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    gatherv_body(rank, p, f, seed, in_place, true);
}
void gatherv_var_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    gatherv_body(rank, p, f, seed, in_place, false);
}

void scatterv_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place, bool uniform) {
    std::vector<int> counts, displs;
    int len = layout(seed, p, 1, counts, displs);
    if (uniform) {
        for (int i = 0; i < p; ++i) {
            counts[idx(i)] = counts[0];
            displs[idx(i)] = i * counts[0];
        }
        len = p * counts[0] + 1;
    }
    int const root = root_of(seed, p);
    std::vector<std::uint64_t> send(idx(len), kSentinel);
    if (rank == root) {
        for (int i = 0; i < p; ++i) {
            auto const b = block(seed, i, 1, counts[idx(i)]);
            std::copy(b.begin(), b.end(), send.begin() + displs[idx(i)]);
        }
    }
    int const n = counts[idx(rank)];
    std::vector<std::uint64_t> recv(idx(n) + 1, kSentinel);
    void* rbuf = in_place && rank == root ? MPI_IN_PLACE : recv.data();
    int const* sc = counts.data();
    int const* sd = displs.data();
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls c;
    if (uniform) {
        c = {[&] { return MPI_Scatter(send.data(), n, U64, rbuf, n, U64, root, W); },
             [&](MPI_Request* r) {
                 return MPI_Iscatter(send.data(), n, U64, rbuf, n, U64, root, W, r);
             },
             [&](MPI_Request* r) {
                 return MPI_Scatter_init(send.data(), n, U64, rbuf, n, U64, root, W, MPI_INFO_NULL,
                                         r);
             }};
    } else {
        c = {[&] { return MPI_Scatterv(send.data(), sc, sd, U64, rbuf, n, U64, root, W); },
             [&](MPI_Request* r) {
                 return MPI_Iscatterv(send.data(), sc, sd, U64, rbuf, n, U64, root, W, r);
             },
             [&](MPI_Request* r) {
                 return MPI_Scatterv_init(send.data(), sc, sd, U64, rbuf, n, U64, root, W,
                                          MPI_INFO_NULL, r);
             }};
    }
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    std::vector<std::uint64_t> expect(idx(n) + 1, kSentinel);
    if (rbuf != MPI_IN_PLACE) {
        auto const b = block(seed, rank, 1, n);
        std::copy(b.begin(), b.end(), expect.begin());
    }
    EXPECT_EQ(recv, expect);
}

void scatter_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    scatterv_body(rank, p, f, seed, in_place, true);
}
void scatterv_var_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    scatterv_body(rank, p, f, seed, in_place, false);
}

void allgatherv_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    std::vector<int> counts, displs;
    int const len = layout(seed, p, 2, counts, displs);
    auto const mine = block(seed, rank, 2, counts[idx(rank)]);
    std::vector<std::uint64_t> recv(idx(len), kSentinel);
    void const* sbuf = mine.data();
    if (in_place) {
        std::copy(mine.begin(), mine.end(), recv.begin() + displs[idx(rank)]);
        sbuf = MPI_IN_PLACE;
    }
    int const n = counts[idx(rank)];
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls const c{
        [&] { return MPI_Allgatherv(sbuf, n, U64, recv.data(), counts.data(), displs.data(), U64, W); },
        [&](MPI_Request* r) {
            return MPI_Iallgatherv(sbuf, n, U64, recv.data(), counts.data(), displs.data(), U64, W,
                                   r);
        },
        {}};
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    std::vector<std::uint64_t> expect(idx(len), kSentinel);
    for (int i = 0; i < p; ++i) {
        auto const b = block(seed, i, 2, counts[idx(i)]);
        std::copy(b.begin(), b.end(), expect.begin() + displs[idx(i)]);
    }
    EXPECT_EQ(recv, expect);
}

/// Per-peer layouts of an all-to-all exchange: block i->j has
/// count_of(seed, i, j + 8) elements; each side packs its blocks with
/// 0/1-element gaps.
struct A2aLayout {
    std::vector<int> scounts, sdispls, rcounts, rdispls;
    int slen = 1, rlen = 1;
    A2aLayout(std::uint64_t seed, int p, int rank) {
        for (int j = 0; j < p; ++j) {
            slen += static_cast<int>(draw(seed, rank, j + 200) % 2);
            scounts.push_back(count_of(seed, rank, j + 8));
            sdispls.push_back(slen - 1);
            slen += scounts.back();
            rlen += static_cast<int>(draw(seed, j, rank + 300) % 2);
            rcounts.push_back(count_of(seed, j, rank + 8));
            rdispls.push_back(rlen - 1);
            rlen += rcounts.back();
        }
    }
};

void alltoallv_body(int rank, int p, Flavour f, std::uint64_t seed, bool) {
    A2aLayout const l(seed, p, rank);
    std::vector<std::uint64_t> send(idx(l.slen), kSentinel);
    for (int j = 0; j < p; ++j) {
        auto const b = block(seed, rank, j + 8, l.scounts[idx(j)]);
        std::copy(b.begin(), b.end(), send.begin() + l.sdispls[idx(j)]);
    }
    std::vector<std::uint64_t> recv(idx(l.rlen), kSentinel);
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls const c{[&] {
                      return MPI_Alltoallv(send.data(), l.scounts.data(), l.sdispls.data(), U64,
                                           recv.data(), l.rcounts.data(), l.rdispls.data(), U64, W);
                  },
                  [&](MPI_Request* r) {
                      return MPI_Ialltoallv(send.data(), l.scounts.data(), l.sdispls.data(), U64,
                                            recv.data(), l.rcounts.data(), l.rdispls.data(), U64,
                                            W, r);
                  },
                  {}};
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    std::vector<std::uint64_t> expect(idx(l.rlen), kSentinel);
    for (int i = 0; i < p; ++i) {
        auto const b = block(seed, i, rank + 8, l.rcounts[idx(i)]);
        std::copy(b.begin(), b.end(), expect.begin() + l.rdispls[idx(i)]);
    }
    EXPECT_EQ(recv, expect);
}

void alltoallw_body(int rank, int p, Flavour f, std::uint64_t seed, bool) {
    // Pairs with an odd rank sum move pairs of uint64 (a derived type); the
    // rest move plain uint64. Displacements are in bytes.
    MPI_Datatype pair = MPI_DATATYPE_NULL;
    ASSERT_EQ(MPI_Type_contiguous(2, U64, &pair), MPI_SUCCESS);
    ASSERT_EQ(MPI_Type_commit(&pair), MPI_SUCCESS);
    auto width = [](int i, int j) { return (i + j) % 2 == 1 ? 2 : 1; };
    A2aLayout const l(seed, p, rank);
    std::vector<MPI_Datatype> stypes, rtypes;
    std::vector<int> sbytes, rbytes;
    for (int j = 0; j < p; ++j) {
        stypes.push_back(width(rank, j) == 2 ? pair : U64);
        rtypes.push_back(width(j, rank) == 2 ? pair : U64);
    }
    // Element offsets scale by the widest type so blocks cannot overlap.
    std::vector<std::uint64_t> send(idx(2 * l.slen), kSentinel);
    std::vector<std::uint64_t> recv(idx(2 * l.rlen), kSentinel);
    std::vector<std::uint64_t> expect(idx(2 * l.rlen), kSentinel);
    for (int j = 0; j < p; ++j) {
        auto const b = block(seed, rank, j + 8, l.scounts[idx(j)] * width(rank, j));
        std::copy(b.begin(), b.end(), send.begin() + 2 * l.sdispls[idx(j)]);
        sbytes.push_back(2 * l.sdispls[idx(j)] * 8);
        auto const e = block(seed, j, rank + 8, l.rcounts[idx(j)] * width(j, rank));
        std::copy(e.begin(), e.end(), expect.begin() + 2 * l.rdispls[idx(j)]);
        rbytes.push_back(2 * l.rdispls[idx(j)] * 8);
    }
    ASSERT_EQ(f, Flavour::blocking);
    ASSERT_EQ(MPI_Alltoallw(send.data(), l.scounts.data(), sbytes.data(), stypes.data(),
                            recv.data(), l.rcounts.data(), rbytes.data(), rtypes.data(),
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(recv, expect);
    MPI_Type_free(&pair);
}

void scan_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place, bool inclusive) {
    (void)p;
    int const n = 2 * count_of(seed, 0, 4);  // affine pairs; may be empty
    auto const mine = block(seed, rank, 4, n);
    std::vector<std::uint64_t> recv(idx(n) + 1, kSentinel);
    void const* sbuf = mine.data();
    if (in_place) {
        std::copy(mine.begin(), mine.end(), recv.begin());
        sbuf = MPI_IN_PLACE;
    }
    MPI_Op const op = affine_op();
    MPI_Comm const W = MPI_COMM_WORLD;
    Calls const c =
        inclusive
            ? Calls{[&] { return MPI_Scan(sbuf, recv.data(), n, U64, op, W); },
                    [&](MPI_Request* r) { return MPI_Iscan(sbuf, recv.data(), n, U64, op, W, r); },
                    {}}
            : Calls{[&] { return MPI_Exscan(sbuf, recv.data(), n, U64, op, W); },
                    [&](MPI_Request* r) { return MPI_Iexscan(sbuf, recv.data(), n, U64, op, W, r); },
                    {}};
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
    int const last = inclusive ? rank : rank - 1;
    if (last < 0) return;  // rank 0's exscan result is undefined
    std::vector<std::uint64_t> expect = block(seed, 0, 4, n);
    for (int i = 1; i <= last; ++i) {
        auto b = block(seed, i, 4, n);
        for (int k = 0; k + 1 < n; k += 2) compose(&expect[idx(k)], &b[idx(k)]);
        expect = b;
    }
    expect.push_back(kSentinel);
    EXPECT_EQ(recv, expect);
}

void scan_incl_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    scan_body(rank, p, f, seed, in_place, true);
}
void exscan_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    scan_body(rank, p, f, seed, in_place, false);
}

void reduce_scatter_block_body(int rank, int p, Flavour f, std::uint64_t seed, bool in_place) {
    int const n = count_of(seed, 0, 5);
    auto const mine = block(seed, rank, 5, n * p);
    // In place, the input is the first n*p elements of the receive buffer.
    std::vector<std::uint64_t> recv(idx(in_place ? n * p : n) + 1, kSentinel);
    void const* sbuf = mine.data();
    if (in_place) {
        std::copy(mine.begin(), mine.end(), recv.begin());
        sbuf = MPI_IN_PLACE;
    }
    ASSERT_EQ(f, Flavour::blocking);
    ASSERT_EQ(MPI_Reduce_scatter_block(sbuf, recv.data(), n, U64, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    recv.resize(idx(n));
    std::vector<std::uint64_t> expect(idx(n), 0);
    for (int i = 0; i < p; ++i) {
        auto const b = block(seed, i, 5, n * p);
        for (int k = 0; k < n; ++k) expect[idx(k)] += b[idx(rank * n + k)];
    }
    EXPECT_EQ(recv, expect);
}

struct Case {
    char const* name;
    Body body;
    std::vector<Flavour> flavours;
    bool in_place;  ///< MPI_IN_PLACE is allowed
};

std::vector<Case> const& fixed_shape_cases() {
    using F = Flavour;
    static std::vector<Case> const cases = {
        {"barrier", barrier_body, {F::blocking, F::nonblocking, F::persistent}, false},
        {"gather", gather_body, {F::blocking, F::nonblocking, F::persistent}, true},
        {"gatherv", gatherv_var_body, {F::blocking, F::nonblocking, F::persistent}, true},
        {"scatter", scatter_body, {F::blocking, F::nonblocking, F::persistent}, true},
        {"scatterv", scatterv_var_body, {F::blocking, F::nonblocking, F::persistent}, true},
        {"allgatherv", allgatherv_body, {F::blocking, F::nonblocking}, true},
        {"alltoallv", alltoallv_body, {F::blocking, F::nonblocking}, false},
        {"alltoallw", alltoallw_body, {F::blocking}, false},
        {"scan", scan_incl_body, {F::blocking, F::nonblocking}, true},
        {"exscan", exscan_body, {F::blocking, F::nonblocking}, true},
        {"reduce_scatter_block", reduce_scatter_block_body, {F::blocking}, true},
    };
    return cases;
}

/// Runs every case in every flavour (and in place where allowed) on each
/// size, each draw from its own seed.
void run_parity(testing_utils::SeededRng& rng) {
    for (int const p : {1, 2, 3, 4, 5, 8}) {
        for (Case const& c : fixed_shape_cases()) {
            for (Flavour const f : c.flavours) {
                for (bool const in_place : {false, true}) {
                    if (in_place && !c.in_place) continue;
                    std::uint64_t const seed = rng.engine()();
                    SCOPED_TRACE(std::string(c.name) + " " + flavour_name(f) +
                                 (in_place ? " in-place" : "") + " p=" + std::to_string(p) +
                                 " seed=" + std::to_string(seed));
                    xmpi::run(p, [&](int rank) { c.body(rank, p, f, seed, in_place); });
                }
            }
        }
    }
}

}  // namespace

TEST(FlavourParity, FixedShapeCollectivesMatchOracle) {
    testing_utils::SeededRng rng;
    run_parity(rng);
}

TEST(FlavourParity, FixedShapeCollectivesMatchOracleUnderForcedOffload) {
    // Every nonblocking and started-persistent schedule goes to a progress
    // worker.
    ProgressPin const engine(1);
    EnvVar const gate("XMPI_PROGRESS_MIN_BYTES", "0");
    testing_utils::SeededRng rng;
    run_parity(rng);
}

// Out-of-range roots fail with MPI_ERR_ROOT on every rank, in every flavour,
// before any message moves (so nobody hangs).
TEST(FlavourParity, OutOfRangeRootIsRejected) {
    int const p = 4;
    xmpi::run(p, [p](int rank) {
        std::vector<std::uint64_t> buf(idx(2 * p), 0);
        std::vector<int> counts(idx(p), 1), displs(idx(p));
        for (int i = 0; i < p; ++i) displs[idx(i)] = i;
        void* b = buf.data();
        MPI_Comm const W = MPI_COMM_WORLD;
        int const* c = counts.data();
        int const* d = displs.data();
        for (int const root : {-1, p}) {
            using Issue = std::function<int(MPI_Request*)>;
            struct Rooted {
                char const* name;
                Issue blocking, nonblocking, persistent;
            };
            Rooted const calls[] = {
                {"bcast", [&](MPI_Request*) { return MPI_Bcast(b, 1, U64, root, W); },
                 [&](MPI_Request* r) { return MPI_Ibcast(b, 1, U64, root, W, r); },
                 [&](MPI_Request* r) { return MPI_Bcast_init(b, 1, U64, root, W, 0, r); }},
                {"reduce",
                 [&](MPI_Request*) { return MPI_Reduce(b, b, 1, U64, MPI_SUM, root, W); },
                 [&](MPI_Request* r) { return MPI_Ireduce(b, b, 1, U64, MPI_SUM, root, W, r); },
                 [&](MPI_Request* r) {
                     return MPI_Reduce_init(b, b, 1, U64, MPI_SUM, root, W, 0, r);
                 }},
                {"gather",
                 [&](MPI_Request*) { return MPI_Gather(b, 1, U64, b, 1, U64, root, W); },
                 [&](MPI_Request* r) { return MPI_Igather(b, 1, U64, b, 1, U64, root, W, r); },
                 [&](MPI_Request* r) {
                     return MPI_Gather_init(b, 1, U64, b, 1, U64, root, W, 0, r);
                 }},
                {"gatherv",
                 [&](MPI_Request*) { return MPI_Gatherv(b, 1, U64, b, c, d, U64, root, W); },
                 [&](MPI_Request* r) {
                     return MPI_Igatherv(b, 1, U64, b, c, d, U64, root, W, r);
                 },
                 [&](MPI_Request* r) {
                     return MPI_Gatherv_init(b, 1, U64, b, c, d, U64, root, W, 0, r);
                 }},
                {"scatter",
                 [&](MPI_Request*) { return MPI_Scatter(b, 1, U64, b, 1, U64, root, W); },
                 [&](MPI_Request* r) { return MPI_Iscatter(b, 1, U64, b, 1, U64, root, W, r); },
                 [&](MPI_Request* r) {
                     return MPI_Scatter_init(b, 1, U64, b, 1, U64, root, W, 0, r);
                 }},
                {"scatterv",
                 [&](MPI_Request*) { return MPI_Scatterv(b, c, d, U64, b, 1, U64, root, W); },
                 [&](MPI_Request* r) {
                     return MPI_Iscatterv(b, c, d, U64, b, 1, U64, root, W, r);
                 },
                 [&](MPI_Request* r) {
                     return MPI_Scatterv_init(b, c, d, U64, b, 1, U64, root, W, 0, r);
                 }},
            };
            for (Rooted const& call : calls) {
                SCOPED_TRACE(std::string(call.name) + " root=" + std::to_string(root) +
                             " rank=" + std::to_string(rank));
                MPI_Request req = MPI_REQUEST_NULL;
                EXPECT_EQ(call.blocking(nullptr), MPI_ERR_ROOT);
                EXPECT_EQ(call.nonblocking(&req), MPI_ERR_ROOT);
                EXPECT_EQ(req, MPI_REQUEST_NULL);
                EXPECT_EQ(call.persistent(&req), MPI_ERR_ROOT);
                EXPECT_EQ(req, MPI_REQUEST_NULL);
            }
        }
        // The communicator is still usable: nothing was left in flight.
        ASSERT_EQ(MPI_Barrier(W), MPI_SUCCESS);
    });
}

// ---------------------------------------------------------------------------
// Virtual-time goldens. With compute charging off (compute_scale = 0) a
// collective's makespan is pure cost-model arithmetic over its messages, so
// it pins the exact message pattern: sends, their order and their sizes.
// Any change to a shape shows up here bit for bit; re-record a value only
// when a message pattern is meant to change. Topology, progress engine,
// segment size and the algorithm-backed families are pinned, so the
// environment of any CI leg cannot move them.
// ---------------------------------------------------------------------------

namespace {

struct Golden {
    char const* key;
    double vtime;
};

// clang-format off
Golden const kGoldenVtime[] = {
    {"barrier/blocking/3", 0x1.06b880e56dad8p-9},
    {"barrier/nonblocking/3", 0x1.06b880e56dad8p-9},
    {"barrier/persistent/3", 0x1.074c249bc0bb4p-9},
    {"gather/blocking/3", 0x1.28ff3aa3b904p-19},
    {"gather/nonblocking/3", 0x1.28ff3aa3b904p-19},
    {"gather/persistent/3", 0x1.43d72d3e75b34p-19},
    {"gatherv/blocking/3", 0x1.27476ca61b882p-19},
    {"gatherv/nonblocking/3", 0x1.27476ca61b882p-19},
    {"gatherv/persistent/3", 0x1.421f5f40d8376p-19},
    {"scatter/blocking/3", 0x1.43d72d3e75b34p-19},
    {"scatter/nonblocking/3", 0x1.43d72d3e75b34p-19},
    {"scatter/persistent/3", 0x1.79871273ef11dp-19},
    {"scatterv/blocking/3", 0x1.421f5f40d8376p-19},
    {"scatterv/nonblocking/3", 0x1.421f5f40d8376p-19},
    {"scatterv/persistent/3", 0x1.77cf44765195fp-19},
    {"allgatherv/blocking/3", 0x1.29db21a287c1ep-18},
    {"allgatherv/nonblocking/3", 0x1.44b3143d44713p-19},
    {"alltoallv/blocking/3", 0x1.29db21a287c1ep-18},
    {"alltoallv/nonblocking/3", 0x1.44b3143d44713p-19},
    {"alltoallw/blocking/3", 0x1.29db21a287c1ep-18},
    {"scan/blocking/3", 0x1.421f5f40d8376p-19},
    {"scan/nonblocking/3", 0x1.421f5f40d8376p-19},
    {"exscan/blocking/3", 0x1.27476ca61b882p-18},
    {"exscan/nonblocking/3", 0x1.421f5f40d8376p-19},
    {"reduce_scatter_block/blocking/3", 0x1.382301eeb4d77p-18},
    {"bcast/blocking/3", 0x1.44b3143d44713p-19},
    {"bcast/nonblocking/3", 0x1.44b3143d44713p-19},
    {"bcast/persistent/3", 0x1.7a62f972bdcfcp-19},
    {"reduce/blocking/3", 0x1.29db21a287c1fp-19},
    {"reduce/nonblocking/3", 0x1.29db21a287c1fp-19},
    {"reduce/persistent/3", 0x1.44b3143d44713p-19},
    {"allgather/blocking/3", 0x1.29db21a287c1ep-18},
    {"allgather/nonblocking/3", 0x1.29db21a287c1ep-18},
    {"allgather/persistent/3", 0x1.29db21a287c1dp-17},
    {"allreduce/blocking/3", 0x1.37471aefe6198p-18},
    {"allreduce/nonblocking/3", 0x1.37471aefe6198p-18},
    {"allreduce/persistent/3", 0x1.37471aefe6197p-17},
    {"alltoall/blocking/3", 0x1.29db21a287c1ep-18},
    {"alltoall/nonblocking/3", 0x1.29db21a287c1ep-18},
    {"alltoall/persistent/3", 0x1.29db21a287c1dp-17},
    {"barrier/blocking/4", 0x1.89caef7cfafd6p-9},
    {"barrier/nonblocking/4", 0x1.89caef7cfafd6p-9},
    {"barrier/persistent/4", 0x1.8a5e93334e0b2p-9},
    {"gather/blocking/4", 0x1.28ff3aa3b904p-19},
    {"gather/nonblocking/4", 0x1.28ff3aa3b904p-19},
    {"gather/persistent/4", 0x1.43d72d3e75b34p-19},
    {"gatherv/blocking/4", 0x1.28ff3aa3b904p-19},
    {"gatherv/nonblocking/4", 0x1.28ff3aa3b904p-19},
    {"gatherv/persistent/4", 0x1.43d72d3e75b34p-19},
    {"scatter/blocking/4", 0x1.5eaf1fd932628p-19},
    {"scatter/nonblocking/4", 0x1.5eaf1fd932628p-19},
    {"scatter/persistent/4", 0x1.af36f7a968706p-19},
    {"scatterv/blocking/4", 0x1.5cf751db94e6ap-19},
    {"scatterv/nonblocking/4", 0x1.5cf751db94e6ap-19},
    {"scatterv/persistent/4", 0x1.ad7f29abcaf48p-19},
    {"allgatherv/blocking/4", 0x1.bec8b273cba2cp-18},
    {"allgatherv/nonblocking/4", 0x1.5f8b06d801207p-19},
    {"alltoallv/blocking/4", 0x1.bd10e4762e26fp-18},
    {"alltoallv/nonblocking/4", 0x1.5eaf1fd932628p-19},
    {"alltoallw/blocking/4", 0x1.bdeccb74fce4ep-18},
    {"scan/blocking/4", 0x1.27476ca61b882p-18},
    {"scan/nonblocking/4", 0x1.5cf751db94e6ap-19},
    {"exscan/blocking/4", 0x1.34b365f379dfcp-18},
    {"exscan/nonblocking/4", 0x1.5cf751db94e6ap-19},
    {"reduce_scatter_block/blocking/4", 0x1.dd7e34892aa8dp-18},
    {"bcast/blocking/4", 0x1.29db21a287c1ep-18},
    {"bcast/nonblocking/4", 0x1.29db21a287c1ep-18},
    {"bcast/persistent/4", 0x1.44b3143d44712p-18},
    {"reduce/blocking/4", 0x1.bec8b273cba2cp-18},
    {"reduce/nonblocking/4", 0x1.bec8b273cba2cp-18},
    {"reduce/persistent/4", 0x1.bec8b273cba2bp-17},
    {"allgather/blocking/4", 0x1.bec8b273cba2cp-18},
    {"allgather/nonblocking/4", 0x1.bec8b273cba2cp-18},
    {"allgather/persistent/4", 0x1.bec8b273cba2bp-17},
    {"allreduce/blocking/4", 0x1.29db21a287c1dp-17},
    {"allreduce/nonblocking/4", 0x1.29db21a287c1dp-17},
    {"allreduce/persistent/4", 0x1.29db21a287c1fp-16},
    {"alltoall/blocking/4", 0x1.2c6ed69ef3fbbp-18},
    {"alltoall/nonblocking/4", 0x1.2c6ed69ef3fbbp-18},
    {"alltoall/persistent/4", 0x1.2c6ed69ef3fbbp-17},
    {"barrier/blocking/8", 0x1.cb2f3ddb2ce1ep-8},
    {"barrier/nonblocking/8", 0x1.cb2f3ddb2ce1ep-8},
    {"barrier/persistent/8", 0x1.cb9df8a3eb2c3p-8},
    {"gather/blocking/8", 0x1.28ff3aa3b904p-19},
    {"gather/nonblocking/8", 0x1.28ff3aa3b904p-19},
    {"gather/persistent/8", 0x1.43d72d3e75b34p-19},
    {"gatherv/blocking/8", 0x1.29db21a287c1fp-19},
    {"gatherv/nonblocking/8", 0x1.29db21a287c1fp-19},
    {"gatherv/persistent/8", 0x1.44b3143d44713p-19},
    {"scatter/blocking/8", 0x1.ca0eea44251fap-19},
    {"scatter/nonblocking/8", 0x1.ca0eea44251fap-19},
    {"scatter/persistent/8", 0x1.42fb463fa6f55p-18},
    {"scatterv/blocking/8", 0x1.caead142f3dd9p-19},
    {"scatterv/nonblocking/8", 0x1.caead142f3dd9p-19},
    {"scatterv/persistent/8", 0x1.436939bf0e544p-18},
    {"allgatherv/blocking/8", 0x1.049fbd6e36c9ap-16},
    {"allgatherv/nonblocking/8", 0x1.caead142f3dd9p-19},
    {"alltoallv/blocking/8", 0x1.04164d0ef592fp-16},
    {"alltoallv/nonblocking/8", 0x1.caead142f3dd9p-19},
    {"alltoallw/blocking/8", 0x1.050db0ed9e289p-16},
    {"scan/blocking/8", 0x1.baeb22f9294c2p-18},
    {"scan/nonblocking/8", 0x1.c8571c4687a3cp-19},
    {"exscan/blocking/8", 0x1.c8571c4687a3cp-18},
    {"exscan/nonblocking/8", 0x1.c8571c4687a3cp-19},
    {"reduce_scatter_block/blocking/8", 0x1.5a481fff4ed51p-17},
    {"bcast/blocking/8", 0x1.bec8b273cba2cp-18},
    {"bcast/nonblocking/8", 0x1.bec8b273cba2cp-18},
    {"bcast/persistent/8", 0x1.e70c9e5be6a9ap-18},
    {"reduce/blocking/8", 0x1.29db21a287c1dp-17},
    {"reduce/nonblocking/8", 0x1.29db21a287c1dp-17},
    {"reduce/persistent/8", 0x1.29db21a287c1fp-16},
    {"allgather/blocking/8", 0x1.049fbd6e36c9ap-16},
    {"allgather/nonblocking/8", 0x1.049fbd6e36c9ap-16},
    {"allgather/persistent/8", 0x1.049fbd6e36c9ep-15},
    {"allreduce/blocking/8", 0x1.bec8b273cba2bp-17},
    {"allreduce/nonblocking/8", 0x1.bec8b273cba2bp-17},
    {"allreduce/persistent/8", 0x1.bec8b273cba33p-16},
    {"alltoall/blocking/8", 0x1.ca6160e3b2a6dp-18},
    {"alltoall/nonblocking/8", 0x1.ca6160e3b2a6dp-18},
    {"alltoall/persistent/8", 0x1.ca6160e3b2a6ep-17},
};
// clang-format on

/// The algorithm-backed families in their three flavours, one fixed
/// algorithm each.
void family_body(int rank, int p, Flavour f, std::uint64_t seed, int family) {
    int const n = 1 + count_of(seed, 0, 6);
    int const root = root_of(seed, p);
    std::vector<std::uint64_t> in = block(seed, rank, 6, n * p);
    std::vector<std::uint64_t> out(idx(n * p), 0);
    MPI_Comm const W = MPI_COMM_WORLD;
    void* o = out.data();
    void const* i = in.data();
    Calls c;
    switch (family) {
        case 0:
            c = {[&] { return MPI_Bcast(in.data(), n, U64, root, W); },
                 [&](MPI_Request* r) { return MPI_Ibcast(in.data(), n, U64, root, W, r); },
                 [&](MPI_Request* r) { return MPI_Bcast_init(in.data(), n, U64, root, W, 0, r); }};
            break;
        case 1:
            c = {[&] { return MPI_Reduce(i, o, n, U64, MPI_SUM, root, W); },
                 [&](MPI_Request* r) { return MPI_Ireduce(i, o, n, U64, MPI_SUM, root, W, r); },
                 [&](MPI_Request* r) {
                     return MPI_Reduce_init(i, o, n, U64, MPI_SUM, root, W, 0, r);
                 }};
            break;
        case 2:
            c = {[&] { return MPI_Allgather(i, n, U64, o, n, U64, W); },
                 [&](MPI_Request* r) { return MPI_Iallgather(i, n, U64, o, n, U64, W, r); },
                 [&](MPI_Request* r) { return MPI_Allgather_init(i, n, U64, o, n, U64, W, 0, r); }};
            break;
        case 3:
            c = {[&] { return MPI_Allreduce(i, o, n, U64, MPI_SUM, W); },
                 [&](MPI_Request* r) { return MPI_Iallreduce(i, o, n, U64, MPI_SUM, W, r); },
                 [&](MPI_Request* r) {
                     return MPI_Allreduce_init(i, o, n, U64, MPI_SUM, W, 0, r);
                 }};
            break;
        default:
            c = {[&] { return MPI_Alltoall(i, n, U64, o, n, U64, W); },
                 [&](MPI_Request* r) { return MPI_Ialltoall(i, n, U64, o, n, U64, W, r); },
                 [&](MPI_Request* r) { return MPI_Alltoall_init(i, n, U64, o, n, U64, W, 0, r); }};
            break;
    }
    ASSERT_EQ(drive(f, c), MPI_SUCCESS);
}

/// Pins everything that can move a makespan for the scope.
struct VtimePins {
    testing_utils::TopoPin topo{1};
    ProgressPin engine{0};
    testing_utils::SegPin seg{1 << 20};
    VtimePins() {
        XMPI_T_alg_set("bcast", "binomial");
        XMPI_T_alg_set("reduce", "binomial");
        XMPI_T_alg_set("allgather", "ring");
        XMPI_T_alg_set("allreduce", "binomial");
        XMPI_T_alg_set("alltoall", "bruck");
    }
    ~VtimePins() {
        for (char const* fam : {"bcast", "reduce", "allgather", "allreduce", "alltoall"})
            XMPI_T_alg_set(fam, nullptr);
    }
};

}  // namespace

TEST(FlavourParity, VirtualTimeMatchesGoldens) {
    VtimePins const pins;
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    std::uint64_t const seed = 2024;
    char const* const kFamilies[] = {"bcast", "reduce", "allgather", "allreduce", "alltoall"};
    std::vector<std::pair<std::string, std::function<void(int, int)>>> cases;
    for (Case const& c : fixed_shape_cases()) {
        for (Flavour const f : c.flavours) {
            cases.emplace_back(std::string(c.name) + "/" + flavour_name(f),
                               [&c, f, seed](int rank, int p) { c.body(rank, p, f, seed, false); });
        }
    }
    for (int fam = 0; fam < 5; ++fam) {
        for (Flavour const f : {Flavour::blocking, Flavour::nonblocking, Flavour::persistent}) {
            cases.emplace_back(std::string(kFamilies[fam]) + "/" + flavour_name(f),
                               [fam, f, seed](int rank, int p) { family_body(rank, p, f, seed, fam); });
        }
    }
    for (int const p : {3, 4, 8}) {
        for (auto const& [name, body] : cases) {
            std::string const key = name + "/" + std::to_string(p);
            double const vt =
                xmpi::run(p, [&](int rank) { body(rank, p); }, cfg).max_vtime;
            double const* expect = nullptr;
            for (Golden const& g : kGoldenVtime) {
                if (key == g.key) expect = &g.vtime;
            }
            char hex[64];
            std::snprintf(hex, sizeof hex, "%a", vt);
            if (expect == nullptr) {
                ADD_FAILURE() << "no golden for {\"" << key << "\", " << hex << "},";
            } else {
                EXPECT_EQ(vt, *expect) << "{\"" << key << "\", " << hex << "},";
            }
        }
    }
}

// Fixed shapes are built per call: a loop of them counts no schedule build
// and no cache hit. On 4 ranks each iteration sends 12 ring allgatherv, 12
// pairwise alltoallv and 8 dissemination-barrier messages.
TEST(FlavourParity, BlockingFixedShapeCountersUnchanged) {
    xmpi::RunResult const res = xmpi::run(4, [](int rank) {
        std::uint64_t const seed = 99;
        for (int k = 0; k < 5; ++k) {
            allgatherv_body(rank, 4, Flavour::blocking, seed, false);
            alltoallv_body(rank, 4, Flavour::blocking, seed, false);
            ASSERT_EQ(MPI_Barrier(MPI_COMM_WORLD), MPI_SUCCESS);
        }
    });
    EXPECT_EQ(res.total.schedule_builds.load(), 0u);
    EXPECT_EQ(res.total.schedule_cache_hits.load(), 0u);
    EXPECT_EQ(res.total.coll_messages.load(), 160u);
    EXPECT_EQ(res.total.p2p_messages.load(), 0u);
}

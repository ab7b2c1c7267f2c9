// Tests for pdc::mp: point-to-point semantics (matching, ordering,
// wildcards, probe, nonblocking), the matched receive (take/try_take) and
// the receive ledger every path feeds, every collective against a
// sequential reference, communicator split, and SPMD launch behaviour.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "mp/world.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace {

using namespace pdc::mp;

// ------------------------------------------------------------ point-to-point

TEST(P2P, SendRecvValue) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1234, 1, 7);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 1234);
    }
  });
}

TEST(P2P, SendRecvArray) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(100);
      std::iota(data.begin(), data.end(), 0.0);
      comm.send(data.data(), data.size(), 1);
    } else {
      std::vector<double> data(100, -1.0);
      const RecvInfo info = comm.recv(data.data(), data.size(), 0);
      EXPECT_EQ(info.count<double>(), 100u);
      EXPECT_EQ(info.source, 0);
      for (std::size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(data[i], double(i));
    }
  });
}

TEST(P2P, NonOvertakingSameSourceTag) {
  World world(2);
  world.run([](Communicator& comm) {
    constexpr int kN = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send_value(i, 1, 5);
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
    }
  });
}

TEST(P2P, TagSelectsMessage) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(111, 1, /*tag=*/1);
      comm.send_value(222, 1, /*tag=*/2);
    } else {
      // Receive in reverse tag order: matching is by tag, not arrival.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

TEST(P2P, WildcardSourceReceivesFromAnyone) {
  World world(4);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      long sum = 0;
      for (int i = 0; i < 3; ++i) sum += comm.recv_value<long>(kAnySource, 3);
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      comm.send_value(long{comm.rank()}, 0, 3);
    }
  });
}

TEST(P2P, ProbeReportsSizeAndSource) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data(17, 9);
      comm.send_vector(data, 1, 4);
    } else {
      const RecvInfo info = comm.probe(kAnySource, kAnyTag);
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 4);
      EXPECT_EQ(info.count<int>(), 17u);
      const auto data = comm.recv_vector<int>(info.source, info.tag);
      EXPECT_EQ(data.size(), 17u);
      EXPECT_EQ(data[16], 9);
    }
  });
}

TEST(P2P, RecvVectorSizesFromPayload) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<std::uint8_t> bytes(321, 0xAB);
      comm.send_vector(bytes, 1);
    } else {
      const auto bytes = comm.recv_vector<std::uint8_t>(0);
      EXPECT_EQ(bytes.size(), 321u);
    }
  });
}

TEST(P2P, IrecvTestPollsUntilArrival) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      const int token = comm.recv_value<int>(1, 1);  // rendezvous
      comm.send_value(token * 2, 1, 2);
    } else {
      int result = 0;
      Request request = comm.irecv(&result, 1, 0, 2);
      EXPECT_FALSE(request.test());  // nothing sent yet
      comm.send_value(21, 0, 1);
      const RecvInfo info = request.wait();
      EXPECT_EQ(result, 42);
      EXPECT_EQ(info.source, 0);
    }
  });
}

TEST(P2P, IsendCompletesImmediately) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      const double x = 2.5;
      Request request = comm.isend(&x, 1, 1);
      EXPECT_TRUE(request.test());
      request.wait();
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0), 2.5);
    }
  });
}

TEST(P2P, SendrecvRingRotation) {
  World world(5);
  world.run([](Communicator& comm) {
    const int p = comm.size();
    const int right = (comm.rank() + 1) % p;
    const int left = (comm.rank() - 1 + p) % p;
    const int mine = comm.rank() * 10;
    int received = -1;
    comm.sendrecv(&mine, 1, right, 0, &received, 1, left, 0);
    EXPECT_EQ(received, left * 10);
  });
}

TEST(P2P, HeadToHeadExchangeCompletes) {
  // Eager sends make the classic symmetric-deadlock pattern safe here;
  // this pins that documented behaviour.
  World world(2);
  world.run([](Communicator& comm) {
    const int other = 1 - comm.rank();
    comm.send_value(comm.rank(), other, 0);
    EXPECT_EQ(comm.recv_value<int>(other, 0), other);
  });
}

// ---------------------------------------------------------- matched receive

std::string text(const Message& message) {
  return {message.payload.begin(), message.payload.end()};
}

TEST(Take, TryTakeOnEmptyMailboxIsNullopt) {
  World world(1);
  world.run([](Communicator& comm) {
    EXPECT_FALSE(comm.try_take(kAnySource, kAnyTag).has_value());
  });
}

TEST(Take, TryTakeMatchesSourceAndTagInArrivalOrder) {
  World world(1);
  world.run([](Communicator& comm) {
    comm.send("a", 1, 0, 1);
    comm.send("b", 1, 0, 2);
    comm.send("c", 1, 0, 1);
    auto first = comm.try_take(0, 1);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(text(*first), "a");
    auto second = comm.try_take(0, 1);  // overtakes "b": matching is by tag
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(text(*second), "c");
    auto third = comm.try_take(kAnySource, 2);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(text(*third), "b");
    EXPECT_EQ(third->envelope.source, 0);
    EXPECT_EQ(third->envelope.tag, 2);
    EXPECT_FALSE(comm.try_take(kAnySource, kAnyTag).has_value());
  });
}

TEST(Take, TakeBlocksAndDecodesInPlace) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_vector(std::vector<double>{1.5, 2.5}, 1, 9);
    } else {
      const Message message = comm.take(kAnySource, kAnyTag);
      EXPECT_EQ(message.envelope.source, 0);
      EXPECT_EQ(message.envelope.tag, 9);
      EXPECT_EQ(message.as_vector<double>(), (std::vector<double>{1.5, 2.5}));
    }
  });
}

TEST(Take, DecodingTheWrongSizeThrows) {
  Message message;
  message.payload = {1, 2, 3};
  EXPECT_THROW((void)message.as<int>(), pdc::support::CheckFailure);
  EXPECT_THROW((void)message.as_vector<int>(), pdc::support::CheckFailure);
  EXPECT_EQ(message.as_vector<std::uint8_t>().size(), 3u);
}

// Every receive path ends in one accept step. A run that drains each
// message through a different path must move pdc.mp.received exactly as
// far as pdc.mp.sent, and each rank's labeled series by exactly the
// messages addressed to that rank.
TEST(Take, EveryReceivePathFeedsTheReceiveLedger) {
  if (!pdc::obs::kObsEnabled) GTEST_SKIP() << "built with PDCKIT_OBS_NOOP";
  constexpr int kRanks = 4;
  auto& registry = pdc::obs::MetricsRegistry::instance();
  auto& sent = registry.counter("pdc.mp.sent");
  auto& received = registry.counter("pdc.mp.received");
  std::array<pdc::obs::Counter*, kRanks> rank_received{};
  std::array<std::uint64_t, kRanks> before{};
  for (int r = 0; r < kRanks; ++r) {
    rank_received[r] = &registry.counter("pdc.mp.rank_received",
                                         {{"rank", std::to_string(r)}});
    before[r] = rank_received[r]->total();
  }
  const std::uint64_t sent_before = sent.total();
  const std::uint64_t received_before = received.total();

  World world(kRanks);
  world.run([](Communicator& comm) {
    switch (comm.rank()) {
      case 0: {
        int sum = 0;
        for (int i = 1; i < kRanks; ++i) {
          sum += comm.recv_value<int>(kAnySource, 1);
        }
        EXPECT_EQ(sum, 1 + 2 + 3);
        const int pair[2] = {7, 8};
        comm.send(pair, 2, 1, 2);
        comm.send_vector(std::vector<int>{1, 2, 3}, 2, 3);
        comm.send_value(4, 3, 4);
        comm.send_value(5, 3, 4);
        break;
      }
      case 1: {
        comm.send_value(1, 0, 1);
        int pair[2] = {};
        EXPECT_EQ(comm.recv(pair, 2, 0, 2).count<int>(), 2u);
        comm.send_value(6, 2, 5);
        break;
      }
      case 2: {
        comm.send_value(2, 0, 1);
        EXPECT_EQ(comm.recv_vector<int>(0, 3).size(), 3u);
        EXPECT_EQ(comm.take(1, 5).as<int>(), 6);
        comm.send_value(7, 3, 6);
        break;
      }
      case 3: {
        comm.send_value(3, 0, 1);
        int a = 0;
        int b = 0;
        Request polled = comm.irecv(&a, 1, 0, 4);
        while (!polled.test()) std::this_thread::yield();
        Request waited = comm.irecv(&b, 1, 0, 4);
        waited.wait();
        EXPECT_EQ(a + b, 9);
        std::optional<Message> last;
        while (!(last = comm.try_take(2, 6))) std::this_thread::yield();
        EXPECT_EQ(last->as<int>(), 7);
        break;
      }
    }
    comm.barrier();
    (void)comm.split(comm.rank() % 2, comm.rank());
  });

  // Point-to-point as addressed above; the dissemination barrier delivers
  // log2(4) = 2 tokens to every rank; split gathers one entry per peer at
  // rank 0 and sends every other rank its assignment.
  constexpr std::array<std::uint64_t, kRanks> kP2p = {3, 1, 2, 3};
  constexpr std::uint64_t kBarrier = 2;
  constexpr std::array<std::uint64_t, kRanks> kSplit = {3, 1, 1, 1};
  std::uint64_t addressed_total = 0;
  for (int r = 0; r < kRanks; ++r) {
    const std::uint64_t addressed = kP2p[r] + kBarrier + kSplit[r];
    EXPECT_EQ(rank_received[r]->total() - before[r], addressed) << "rank " << r;
    addressed_total += addressed;
  }
  EXPECT_EQ(sent.total() - sent_before, addressed_total);
  EXPECT_EQ(received.total() - received_before, addressed_total);
}

// ----------------------------------------------------------------- spmd run

TEST(World, SizeOneRuns) {
  World world(1);
  int visits = 0;
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    int v = 3;
    comm.broadcast(&v, 1, 0);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(World, RankExceptionPropagates) {
  World world(3);
  EXPECT_THROW(world.run([](Communicator& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
  }),
               std::runtime_error);
}

TEST(World, ConsecutiveRunsAreIsolated) {
  World world(2);
  world.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value(1, 1);
    // rank 1 deliberately does not receive: the message must not leak
  });
  world.run([](Communicator& comm) {
    if (comm.rank() == 1) {
      int x = 0;
      Request r = comm.irecv(&x, 1, 0, kAnyTag);
      EXPECT_FALSE(r.test());  // fresh fabric: nothing pending
    }
  });
}

TEST(World, WtimeIsMonotonic) {
  const double a = Communicator::wtime();
  const double b = Communicator::wtime();
  EXPECT_GE(b, a);
}

// -------------------------------------------------------------- collectives

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletes) {
  World world(GetParam());
  std::atomic<int> arrivals{0};
  world.run([&](Communicator& comm) {
    ++arrivals;
    comm.barrier();
    // After the barrier every rank must have arrived.
    EXPECT_EQ(arrivals.load(), comm.size());
  });
}

TEST_P(CollectiveTest, BroadcastFromEveryRoot) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::vector<int> data(10, comm.rank() == root ? root + 100 : -1);
      comm.broadcast(data.data(), data.size(), root);
      for (int v : data) EXPECT_EQ(v, root + 100);
    }
  });
}

TEST_P(CollectiveTest, ReduceSumAtRoot) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<long> mine(5);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = comm.rank() + static_cast<long>(i) * 1000;
    }
    std::vector<long> result(5, -1);
    comm.reduce(mine.data(), result.data(), mine.size(), std::plus<long>{}, 0);
    if (comm.rank() == 0) {
      const long ranks = long{p} * (p - 1) / 2;
      for (std::size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i], ranks + static_cast<long>(i) * 1000 * p);
      }
    }
  });
}

TEST_P(CollectiveTest, ReduceMax) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int mine = (comm.rank() * 7919) % 101;  // scrambled
    int top = -1;
    comm.reduce(&mine, &top, 1, [](int a, int b) { return std::max(a, b); },
                comm.size() - 1);
    if (comm.rank() == comm.size() - 1) {
      int expected = 0;
      for (int r = 0; r < comm.size(); ++r) {
        expected = std::max(expected, (r * 7919) % 101);
      }
      EXPECT_EQ(top, expected);
    }
  });
}

TEST_P(CollectiveTest, AllreduceTreeMatchesReference) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<int> mine(7, comm.rank() + 1);
    std::vector<int> out(7);
    comm.allreduce(mine.data(), out.data(), mine.size(), std::plus<int>{});
    for (int v : out) EXPECT_EQ(v, p * (p + 1) / 2);
  });
}

TEST_P(CollectiveTest, AllreduceRingMatchesReference) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    // Deliberately not divisible by p, plus a count smaller than p.
    for (std::size_t count : {std::size_t{1}, std::size_t{13}, std::size_t{64}}) {
      std::vector<long> mine(count);
      for (std::size_t i = 0; i < count; ++i) {
        mine[i] = comm.rank() * 100 + static_cast<long>(i);
      }
      std::vector<long> out(count);
      comm.allreduce_ring(mine.data(), out.data(), count, std::plus<long>{});
      for (std::size_t i = 0; i < count; ++i) {
        const long expected =
            100L * p * (p - 1) / 2 + static_cast<long>(i) * p;
        EXPECT_EQ(out[i], expected) << "count=" << count << " i=" << i;
      }
    }
  });
}

TEST_P(CollectiveTest, ScatterDistributesBlocks) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<int> all;
    if (comm.rank() == 1 % p) {
      all.resize(static_cast<std::size_t>(p) * 3);
      std::iota(all.begin(), all.end(), 0);
    }
    std::vector<int> mine(3, -1);
    comm.scatter(all.data(), mine.data(), 3, 1 % p);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(mine[static_cast<std::size_t>(i)], comm.rank() * 3 + i);
  });
}

TEST_P(CollectiveTest, GatherCollectsBlocks) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<int> mine{comm.rank(), comm.rank() * 2};
    std::vector<int> all(static_cast<std::size_t>(p) * 2, -1);
    comm.gather(mine.data(), all.data(), 2, 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r) * 2], r);
        EXPECT_EQ(all[static_cast<std::size_t>(r) * 2 + 1], r * 2);
      }
    }
  });
}

TEST_P(CollectiveTest, AllgatherEveryRankSeesAll) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    const double mine = comm.rank() * 1.5;
    std::vector<double> all(static_cast<std::size_t>(p), -1.0);
    comm.allgather(&mine, all.data(), 1);
    for (int r = 0; r < p; ++r) {
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r * 1.5);
    }
  });
}

TEST_P(CollectiveTest, AlltoallTransposesBlocks) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<int> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] = comm.rank() * 1000 + d;
    }
    std::vector<int> recv(static_cast<std::size_t>(p), -1);
    comm.alltoall(send.data(), recv.data(), 1);
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(recv[static_cast<std::size_t>(s)], s * 1000 + comm.rank());
    }
  });
}

TEST_P(CollectiveTest, GathervCollectsUnevenBlocks) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    // Rank r contributes r+1 elements, each valued r.
    const auto mine_count = static_cast<std::size_t>(comm.rank() + 1);
    std::vector<int> mine(mine_count, comm.rank());
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(r + 1);
      total += static_cast<std::size_t>(r + 1);
    }
    std::vector<int> all(total, -1);
    comm.gatherv(mine.data(), mine_count, all.data(), counts, 0);
    if (comm.rank() == 0) {
      std::size_t offset = 0;
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          EXPECT_EQ(all[offset++], r);
        }
      }
    }
  });
}

TEST_P(CollectiveTest, ScattervDistributesUnevenBlocks) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const int p = comm.size();
    std::vector<std::size_t> counts(static_cast<std::size_t>(p));
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[static_cast<std::size_t>(r)] = static_cast<std::size_t>(2 * r + 1);
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<long> all;
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
          all.push_back(r * 100 + static_cast<long>(i));
        }
      }
    }
    const std::size_t mine_count = counts[static_cast<std::size_t>(comm.rank())];
    std::vector<long> mine(mine_count, -1);
    comm.scatterv(all.data(), counts, mine.data(), mine_count, 0);
    for (std::size_t i = 0; i < mine_count; ++i) {
      EXPECT_EQ(mine[i], comm.rank() * 100 + static_cast<long>(i));
    }
  });
}

TEST_P(CollectiveTest, InclusiveScanPrefixSums) {
  World world(GetParam());
  world.run([](Communicator& comm) {
    const long mine = comm.rank() + 1;
    long prefix = 0;
    comm.scan(&mine, &prefix, 1, std::plus<long>{});
    const long r = comm.rank() + 1;
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(CollectiveTest, ScanWithNonCommutativeOp) {
  // Affine-map composition: associative but non-commutative, so this
  // catches any operand-order mistake in the doubling algorithm.
  struct Affine {
    long a, b;  // x -> a*x + b
  };
  auto compose = [](Affine lower, Affine mine) {
    // Apply `lower` first, then `mine`.
    return Affine{mine.a * lower.a, mine.a * lower.b + mine.b};
  };
  World world(GetParam());
  world.run([&](Communicator& comm) {
    const Affine mine{2, long{comm.rank()}};
    Affine folded{1, 0};
    comm.scan(&mine, &folded, 1, compose);
    Affine expected{1, 0};
    for (int r = 0; r <= comm.rank(); ++r) {
      expected = compose(expected, Affine{2, long{r}});
    }
    EXPECT_EQ(folded.a, expected.a);
    EXPECT_EQ(folded.b, expected.b);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

// -------------------------------------------------------------------- split

TEST(Split, EvenOddGroups) {
  World world(6);
  world.run([](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // Collectives work inside the sub-communicator and stay isolated.
    int sum = 0;
    const int mine = comm.rank();
    sub.allreduce(&mine, &sum, 1, std::plus<int>{});
    const int expected = comm.rank() % 2 == 0 ? 0 + 2 + 4 : 1 + 3 + 5;
    EXPECT_EQ(sum, expected);
  });
}

TEST(Split, KeyReversesRankOrder) {
  World world(4);
  world.run([](Communicator& comm) {
    Communicator sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Split, PointToPointWithinGroup) {
  World world(4);
  world.run([](Communicator& comm) {
    Communicator sub = comm.split(comm.rank() / 2, comm.rank());
    ASSERT_EQ(sub.size(), 2);
    if (sub.rank() == 0) {
      sub.send_value(comm.rank() * 11, 1);
    } else {
      // The message must come from the group peer, carrying its world id.
      const int peer_world = comm.rank() - 1;
      EXPECT_EQ(sub.recv_value<int>(0), peer_world * 11);
    }
  });
}

TEST(Split, SingletonGroups) {
  World world(3);
  world.run([](Communicator& comm) {
    Communicator sub = comm.split(comm.rank(), 0);
    EXPECT_EQ(sub.size(), 1);
    EXPECT_EQ(sub.rank(), 0);
    int v = comm.rank();
    sub.broadcast(&v, 1, 0);
    EXPECT_EQ(v, comm.rank());
  });
}

}  // namespace

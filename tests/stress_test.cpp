// Stress tier (ctest -L stress; registered only with PDCKIT_STRESS=ON).
//
// Longer-running schedule exploration and fault-injection campaigns than
// the unit tier affords: wide seed sweeps, more logical threads, larger
// transfers at higher loss. These keep the default tier fast while still
// existing as a buildable target everywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "concurrency/bounded_queue.hpp"
#include "dist/mutex.hpp"
#include "dist/two_phase_commit.hpp"
#include "mp/world.hpp"
#include "net/arq.hpp"
#include "net/loadgen.hpp"
#include "net/network.hpp"
#include "net/server.hpp"
#include "parallel/chase_lev.hpp"
#include "parallel/thread_pool.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/hooks.hpp"
#include "testkit/schedule_explorer.hpp"
#include "testkit/sim_scheduler.hpp"

namespace {

using namespace pdc;
using namespace pdc::testkit;

struct RacyCounter {
  int counter = 0;
  void increment() {
    const int loaded = counter;
    testkit::yield_point("racy.between-load-and-store");
    counter = loaded + 1;
  }
};

// Every policy must find the lost-update race in a wide sweep, and the
// failing seed must replay identically.
TEST(StressExplorer, AllPoliciesFindTheRace) {
  for (const auto policy :
       {SchedulePolicy::kRoundRobin, SchedulePolicy::kRandom,
        SchedulePolicy::kPreemptionBounded}) {
    ExplorerConfig config;
    config.policy = policy;
    config.iterations = 2000;
    config.base_seed = 1;
    ScheduleExplorer explorer(config);
    auto make_run = [] {
      auto state = std::make_shared<RacyCounter>();
      RunPlan plan;
      for (int t = 0; t < 4; ++t) {
        plan.threads.push_back([state] {
          for (int i = 0; i < 3; ++i) state->increment();
        });
      }
      plan.check = [state]() -> std::string {
        return state->counter == 12
                   ? ""
                   : "lost update: " + std::to_string(state->counter);
      };
      return plan;
    };
    const auto result = explorer.explore(make_run);
    ASSERT_TRUE(result.failure_found) << to_string(policy);
    std::string replay_failure;
    (void)explorer.replay(result.failing_seed, make_run, &replay_failure);
    EXPECT_EQ(replay_failure, result.failure) << to_string(policy);
  }
}

// MPMC queue invariant sweep: across many seeds, every pushed item is
// popped exactly once and shutdown is always orderly.
TEST(StressExplorer, BoundedQueueMpmcInvariantsAcrossSeeds) {
  ExplorerConfig config;
  config.policy = SchedulePolicy::kRandom;
  config.iterations = 400;
  config.base_seed = 1337;
  ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    struct State {
      concurrency::BoundedQueue<int> queue{2};
      std::atomic<int> popped_sum{0};
      std::atomic<int> popped_count{0};
    };
    auto state = std::make_shared<State>();
    RunPlan plan;
    for (int producer = 0; producer < 2; ++producer) {
      plan.threads.push_back([state, producer] {
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(state->queue.push(producer * 3 + i).is_ok());
        }
      });
    }
    for (int consumer = 0; consumer < 2; ++consumer) {
      plan.threads.push_back([state] {
        for (int i = 0; i < 3; ++i) {
          auto item = state->queue.pop();
          ASSERT_TRUE(item.is_ok());
          state->popped_sum += item.value();
          ++state->popped_count;
        }
      });
    }
    plan.check = [state]() -> std::string {
      if (state->popped_count.load() != 6) {
        return "popped " + std::to_string(state->popped_count.load()) +
               " items, expected 6";
      }
      if (state->popped_sum.load() != 0 + 1 + 2 + 3 + 4 + 5) {
        return "popped sum " + std::to_string(state->popped_sum.load()) +
               ", expected 15 (item lost or duplicated)";
      }
      return "";
    };
    return plan;
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

// Chase–Lev deque under exhaustive seed exploration: one owner pushing and
// popping, two thieves stealing, with a capacity-2 buffer so growth races
// the steals. The deque's cl.* yield points let the SimScheduler interleave
// the claim sequences (including the last-element CAS race) seed by seed;
// the invariant is exactly-once delivery of every element.
TEST(StressExplorer, ChaseLevDequeExactlyOnceAcrossSeeds) {
  ExplorerConfig config;
  config.policy = SchedulePolicy::kRandom;
  config.iterations = 400;
  config.base_seed = 4242;
  ScheduleExplorer explorer(config);
  const auto result = explorer.explore([] {
    struct State {
      parallel::ChaseLevDeque<int> deque{/*initial_capacity=*/2};
      std::atomic<int> claimed_sum{0};
      std::atomic<int> claimed_count{0};
    };
    auto state = std::make_shared<State>();
    RunPlan plan;
    plan.threads.push_back([state] {  // owner: pushes, then drains
      for (int i = 1; i <= 8; ++i) state->deque.push(i);
      int got = 0;
      while (state->deque.pop(got)) {
        state->claimed_sum += got;
        ++state->claimed_count;
      }
    });
    for (int thief = 0; thief < 2; ++thief) {
      plan.threads.push_back([state] {
        int got = 0;
        for (int attempt = 0; attempt < 24; ++attempt) {
          if (state->deque.steal(got) == parallel::StealResult::kStolen) {
            state->claimed_sum += got;
            ++state->claimed_count;
          }
        }
      });
    }
    plan.check = [state]() -> std::string {
      // The owner's drain loop empties whatever the thieves left, so all 8
      // elements are claimed exactly once between the three threads.
      if (state->claimed_count.load() != 8) {
        return "claimed " + std::to_string(state->claimed_count.load()) +
               " elements, expected 8 (lost or duplicated claim)";
      }
      if (state->claimed_sum.load() != 36) {
        return "claimed sum " + std::to_string(state->claimed_sum.load()) +
               ", expected 36";
      }
      return "";
    };
    return plan;
  });
  EXPECT_FALSE(result.failure_found) << result.describe();
}

// Ricart–Agrawala across a seed sweep with 4 ranks.
TEST(StressSim, RicartAgrawalaSeedSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    mp::World world(4);
    struct Shared {
      std::atomic<int> inside{0};
      std::atomic<int> max_inside{0};
    };
    auto shared = std::make_shared<Shared>();
    auto bodies = world.rank_bodies([shared](mp::Communicator& comm) {
      dist::RicartAgrawala mutex(comm);
      for (int i = 0; i < 2; ++i) {
        mutex.enter();
        const int now = ++shared->inside;
        int expected = shared->max_inside.load();
        while (now > expected &&
               !shared->max_inside.compare_exchange_weak(expected, now)) {
        }
        testkit::yield_point("ra.cs");
        --shared->inside;
        mutex.leave();
      }
      mutex.finish();
    });
    SchedulerOptions options;
    options.policy = SchedulePolicy::kRandom;
    options.seed = seed;
    options.max_steps = 1u << 22;
    options.record_trace = false;
    SimScheduler scheduler(options);
    auto report = scheduler.run(std::move(bodies));
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.error;
    EXPECT_EQ(shared->max_inside.load(), 1) << "seed " << seed;
  }
}

// 2PC at heavy loss across several injector seeds.
TEST(StressFaults, TwoPhaseCommitSeedSweepUnderLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    mp::World world(4);
    FaultConfig faults;
    faults.drop = 0.4;
    faults.duplicate = 0.1;
    faults.seed = seed;
    world.set_fault_injector(std::make_shared<FaultInjector>(faults));
    std::vector<dist::TpcStats> stats(4);
    world.run([&](mp::Communicator& comm) {
      stats[static_cast<std::size_t>(comm.rank())] =
          comm.rank() == 0
              ? dist::run_2pc_coordinator(comm)
              : dist::run_2pc_participant(comm, /*vote_commit=*/true,
                                          std::chrono::milliseconds(5000));
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(stats[static_cast<std::size_t>(r)].decision,
                dist::TxnDecision::kCommitted)
          << "seed " << seed << " rank " << r;
    }
  }
}

// Large ARQ transfer at 40% injected loss plus duplication and reordering.
TEST(StressFaults, GoBackNLargeTransferUnderHeavyImpairment) {
  net::NetConfig config;
  config.latency_ms = 0.05;
  net::Network net(2, config);
  FaultConfig faults;
  faults.drop = 0.4;
  faults.duplicate = 0.15;
  faults.reorder = 0.1;
  faults.reorder_ms = 1.0;
  faults.seed = 24601;
  net.set_fault_injector(std::make_shared<FaultInjector>(faults));

  auto tx = net.open_datagram(0, 1);
  auto rx = net.open_datagram(1, 2);
  net::Bytes data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 31) & 0xff);
  }

  std::thread receiver([&] {
    auto received = net::arq_receive(*rx, std::chrono::milliseconds(10000));
    ASSERT_TRUE(received.is_ok());
    EXPECT_EQ(received.value(), data);
  });
  net::ArqConfig arq;
  arq.window = 8;
  arq.max_retries = 5000;
  auto stats = net::arq_send_go_back_n(*tx, rx->local(), data, arq);
  receiver.join();
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().bytes_delivered, data.size());
}

// ThreadPool churn: posts racing shutdown must never crash; every status
// is either ok or kClosed.
TEST(StressPool, PostsRacingShutdownAreOrderly) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<parallel::ThreadPool>(2);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::thread poster([&] {
      for (int i = 0; i < 200; ++i) {
        if (pool->post([&] { ++executed; }).is_ok()) ++accepted;
      }
    });
    std::this_thread::yield();
    pool->shutdown();
    poster.join();
    EXPECT_EQ(executed.load(), accepted.load());
    pool.reset();
  }
}

// The fault-injected load test at a scale worth pointing TSan at: tens of
// thousands of open-loop requests over thousands of connections exercise
// every cross-thread edge at once — dispatcher -> ReadySet wakeups, the
// event engine's workers taking turns to lead the poll and handing each
// connection to its next owner through rearm(), and the generator's
// driver threads. CI's tsan job runs it on every push (the binary builds
// in every preset; -DPDCKIT_STRESS=ON registers it with ctest).
TEST(StressServer, EventDrivenLoadWithFaultsConservesRequests) {
  net::NetConfig net_config;
  net_config.latency_ms = 0.01;
  net_config.impair_streams = true;
  net_config.seed = 0xbead;
  net::Network net(4, net_config);
  FaultConfig fault_config;
  fault_config.drop = 0.05;
  fault_config.reorder = 0.05;
  fault_config.reorder_ms = 0.3;
  fault_config.seed = 0xbead;
  auto injector = std::make_shared<FaultInjector>(fault_config);
  net.set_fault_injector(injector);

  net::ServerConfig server_config;
  server_config.model = net::ThreadingModel::kEventDriven;
  server_config.workers = 3;
  server_config.view_handler = [](net::BytesView request) {
    return request.to_owned();
  };
  net::Server server(net, 0, 80, nullptr, server_config);

  net::LoadGenConfig load;
  load.connections = 4000;
  load.requests = 40000;
  load.duration_s = 1.0;
  load.curve = net::ArrivalCurve::kThunderingHerd;
  load.drivers = 2;
  load.first_client_host = 1;
  load.client_hosts = 3;
  net::LoadGen gen(net, server.address());
  const auto report = gen.run(load);
  server.stop();
  EXPECT_EQ(report.connect_failures, 0u);
  EXPECT_EQ(report.closed_early, 0u);
  EXPECT_EQ(report.sent, 40000u);
  EXPECT_EQ(report.received, report.sent);
  EXPECT_EQ(server.requests_served(), report.sent);
  EXPECT_EQ(injector->stats().messages, 2u * report.sent);
}

}  // namespace

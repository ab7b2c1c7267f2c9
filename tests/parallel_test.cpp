// Tests for pdc::parallel: thread pool, work stealing, parallel_for
// schedules, reductions, scans, task graph analytics, parallel sorts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "concurrency/barrier.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/sort.hpp"
#include "parallel/task.hpp"
#include "parallel/task_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"
#include "support/rng.hpp"

namespace {

using namespace pdc::parallel;

// --------------------------------------------------------------------- Task

TEST(Task, InvokesHeldCallable) {
  int hits = 0;
  Task task([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(task));
  task();
  EXPECT_EQ(hits, 1);
}

TEST(Task, DefaultConstructedIsEmpty) {
  Task task;
  EXPECT_FALSE(static_cast<bool>(task));
}

TEST(Task, MoveTransfersOwnership) {
  int hits = 0;
  Task a([&hits] { ++hits; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(Task, CarriesMoveOnlyState) {
  // std::function could never hold this closure (it requires copyability).
  auto value = std::make_unique<int>(41);
  std::atomic<int> seen{0};
  Task task([v = std::move(value), &seen] { seen = *v + 1; });
  task();
  EXPECT_EQ(seen.load(), 42);
}

TEST(Task, SmallClosuresStayInline) {
  auto small = [] {};
  struct Big {
    std::array<std::byte, Task::kInlineBytes + 8> payload;
    void operator()() const {}
  };
  EXPECT_TRUE(Task::stored_inline<decltype(small)>());
  EXPECT_FALSE(Task::stored_inline<Big>());
}

TEST(Task, OversizedClosureFallsBackToHeapAndStillRuns) {
  struct Big {
    std::array<std::int64_t, 16> values{};
    std::atomic<std::int64_t>* out;
    void operator()() {
      std::int64_t sum = 0;
      for (auto v : values) sum += v;
      out->store(sum);
    }
  };
  static_assert(sizeof(Big) > Task::kInlineBytes);
  std::atomic<std::int64_t> out{0};
  Big big;
  big.values.fill(3);
  big.out = &out;
  Task task(std::move(big));
  Task moved(std::move(task));  // heap target must survive relocation
  moved();
  EXPECT_EQ(out.load(), 48);
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, SubmitReturnsFutureResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, InsideWorkerDetection) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.inside_worker());
  auto f = pool.submit([&] { return pool.inside_worker(); });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.post([&] { ++count; });
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultPoolIsUsable) {
  auto f = default_pool().submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, PostFireAndForgetSynchronizedByLatch) {
  ThreadPool pool(2);
  pdc::concurrency::CountdownLatch latch(64);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.post([&] {
      ++count;
      latch.count_down();
    }).is_ok());
  }
  latch.wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PostedWorkRunsInsideWorker) {
  ThreadPool pool(1);
  pdc::concurrency::CountdownLatch latch(1);
  std::atomic<bool> inside{false};
  ASSERT_TRUE(pool.post([&] {
    inside = pool.inside_worker();
    latch.count_down();
  }).is_ok());
  latch.wait();
  EXPECT_TRUE(inside.load());
  EXPECT_FALSE(pool.inside_worker());
}

TEST(ThreadPool, ShutdownIsIdempotentAndDrains) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) (void)pool.post([&] { ++count; });
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a crash
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownThrowsDocumentedError) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 1; }),
               pdc::support::CheckFailure);
}

TEST(ThreadPool, PostAfterShutdownReturnsClosed) {
  ThreadPool pool(1);
  pool.shutdown();
  const auto status = pool.post([] {});
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), pdc::support::StatusCode::kClosed);
}

// ------------------------------------------------------------ work stealing

TEST(WorkStealing, RunsAllSpawnedTasks) {
  WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.spawn([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(WorkStealing, NestedSpawnsComplete) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.spawn([&] {
      for (int j = 0; j < 10; ++j) pool.spawn([&] { ++count; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealing, SizeOnePoolStillJoinsForks) {
  WorkStealingPool pool(1);
  std::vector<int> v(20000);
  pdc::support::Rng rng(3);
  for (auto& x : v) x = static_cast<int>(rng.uniform_int(0, 1 << 20));
  parallel_merge_sort(pool, v, 256);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

// ------------------------------------------------------------- parallel_for

class ScheduleTest : public ::testing::TestWithParam<Schedule> {};

TEST_P(ScheduleTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, [&](std::size_t i) { ++hits[i]; },
               {.schedule = GetParam()});
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(ScheduleTest, RespectsExplicitChunk) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for_chunks(
      pool, 10, 110,
      [&](std::size_t lo, std::size_t hi) {
        if (GetParam() == Schedule::kGuided) {
          // For guided, `chunk` is the minimum grab (OpenMP semantics);
          // only the final chunk may be smaller.
          EXPECT_TRUE(hi - lo >= 7u || hi == 110u);
        } else {
          EXPECT_LE(hi - lo, 7u);
        }
        for (std::size_t i = lo; i < hi; ++i) sum += static_cast<long>(i);
      },
      {.schedule = GetParam(), .chunk = 7});
  EXPECT_EQ(sum.load(), (10 + 109) * 100 / 2);
}

TEST_P(ScheduleTest, HandlesEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; },
               {.schedule = GetParam()});
  EXPECT_FALSE(ran);
}

TEST_P(ScheduleTest, SingleIteration) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  parallel_for(pool, 7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  }, {.schedule = GetParam()});
  EXPECT_EQ(count.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ScheduleTest,
                         ::testing::Values(Schedule::kStatic,
                                           Schedule::kDynamic,
                                           Schedule::kGuided),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, WorksFromInsideAWorker) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  auto f = outer.submit([&] {
    std::atomic<int> n{0};
    parallel_for(inner, 0, 100, [&](std::size_t) { ++n; });
    return n.load();
  });
  EXPECT_EQ(f.get(), 100);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const auto sum = parallel_reduce<long>(
      pool, 1, 100001, 0, [](std::size_t i) { return static_cast<long>(i); },
      [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 100000L * 100001 / 2);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(4);
  std::vector<int> v(5000);
  pdc::support::Rng rng(5);
  for (auto& x : v) x = static_cast<int>(rng.uniform_int(0, 1 << 30));
  v[3777] = (1 << 30) + 5;
  const int top = parallel_reduce<int>(
      pool, 0, v.size(), 0, [&](std::size_t i) { return v[i]; },
      [](int a, int b) { return std::max(a, b); },
      {.schedule = Schedule::kDynamic, .chunk = 64});
  EXPECT_EQ(top, (1 << 30) + 5);
}

TEST(ParallelScan, MatchesSerialPrefixSum) {
  ThreadPool pool(4);
  std::vector<long> v(12345);
  std::iota(v.begin(), v.end(), 1);
  auto expected = v;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  parallel_inclusive_scan(pool, v, [](long a, long b) { return a + b; });
  EXPECT_EQ(v, expected);
}

TEST(ParallelScan, SingleElementAndEmpty) {
  ThreadPool pool(2);
  std::vector<int> empty;
  parallel_inclusive_scan(pool, empty, [](int a, int b) { return a + b; });
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  parallel_inclusive_scan(pool, one, [](int a, int b) { return a + b; });
  EXPECT_EQ(one[0], 9);
}

TEST(ParallelTransform, MapsEveryElement) {
  ThreadPool pool(3);
  std::vector<int> in(1000);
  std::iota(in.begin(), in.end(), 0);
  std::vector<long> out;
  parallel_transform(pool, in, out, [](int x) { return long{x} * x; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<long>(i) * static_cast<long>(i));
  }
}

// --------------------------------------------------------------- task graph

TEST(TaskGraph, RunsRespectingDependencies) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::atomic<int> stage{0};
  const auto a = graph.add_task("a", 1, [&] { EXPECT_EQ(stage.exchange(1), 0); });
  const auto b = graph.add_task("b", 1, [&] { EXPECT_GE(stage.load(), 1); });
  const auto c = graph.add_task("c", 1, [&] { EXPECT_GE(stage.load(), 1); });
  const auto d = graph.add_task("d", 1, [&] { stage.store(2); });
  graph.add_dependency(a, b);
  graph.add_dependency(a, c);
  graph.add_dependency(b, d);
  graph.add_dependency(c, d);
  ASSERT_TRUE(graph.run(pool).is_ok());
  EXPECT_EQ(stage.load(), 2);
  // Completion order is a topological order.
  const auto order = graph.last_completion_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), a);
  EXPECT_EQ(order.back(), d);
}

TEST(TaskGraph, DetectsCycle) {
  ThreadPool pool(2);
  TaskGraph graph;
  const auto a = graph.add_task("a");
  const auto b = graph.add_task("b");
  graph.add_dependency(a, b);
  graph.add_dependency(b, a);
  EXPECT_FALSE(graph.is_acyclic());
  EXPECT_EQ(graph.run(pool).code(), pdc::support::StatusCode::kFailedPrecondition);
}

TEST(TaskGraph, WorkSpanParallelism) {
  TaskGraph graph;
  // Diamond: a(2) -> {b(3), c(5)} -> d(1).
  const auto a = graph.add_task("a", 2);
  const auto b = graph.add_task("b", 3);
  const auto c = graph.add_task("c", 5);
  const auto d = graph.add_task("d", 1);
  graph.add_dependency(a, b);
  graph.add_dependency(a, c);
  graph.add_dependency(b, d);
  graph.add_dependency(c, d);
  EXPECT_DOUBLE_EQ(graph.work(), 11.0);
  EXPECT_DOUBLE_EQ(graph.span(), 8.0);  // a -> c -> d
  EXPECT_DOUBLE_EQ(graph.parallelism(), 11.0 / 8.0);
  const auto path = graph.critical_path();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], a);
  EXPECT_EQ(path[1], c);
  EXPECT_EQ(path[2], d);
}

TEST(TaskGraph, ChainHasParallelismOne) {
  TaskGraph graph;
  TaskId prev = graph.add_task("t0", 1);
  for (int i = 1; i < 10; ++i) {
    const TaskId next = graph.add_task("t" + std::to_string(i), 1);
    graph.add_dependency(prev, next);
    prev = next;
  }
  EXPECT_DOUBLE_EQ(graph.parallelism(), 1.0);
  EXPECT_EQ(graph.critical_path().size(), 10u);
}

TEST(TaskGraph, IndependentTasksFullyParallel) {
  TaskGraph graph;
  for (int i = 0; i < 8; ++i) graph.add_task("t", 2);
  EXPECT_DOUBLE_EQ(graph.work(), 16.0);
  EXPECT_DOUBLE_EQ(graph.span(), 2.0);
  EXPECT_DOUBLE_EQ(graph.parallelism(), 8.0);
}

TEST(TaskGraph, SimulatedMakespanRespectsBrentBounds) {
  TaskGraph graph;
  pdc::support::Rng rng(9);
  // Random layered DAG.
  std::vector<TaskId> previous_layer;
  for (int layer = 0; layer < 6; ++layer) {
    std::vector<TaskId> current;
    for (int i = 0; i < 8; ++i) {
      current.push_back(graph.add_task("t", rng.uniform(0.5, 2.0)));
    }
    for (TaskId task : current) {
      for (TaskId prev : previous_layer) {
        if (rng.bernoulli(0.3)) graph.add_dependency(prev, task);
      }
    }
    previous_layer = current;
  }
  const double work = graph.work();
  const double span = graph.span();
  for (std::size_t p : {1, 2, 4, 8, 64}) {
    const double makespan = graph.simulated_makespan(p);
    EXPECT_GE(makespan + 1e-9, std::max(work / static_cast<double>(p), span));
    EXPECT_LE(makespan, work / static_cast<double>(p) + span + 1e-9);
  }
  // One processor executes exactly the total work; infinite processors hit
  // the span.
  EXPECT_DOUBLE_EQ(graph.simulated_makespan(1), work);
  EXPECT_DOUBLE_EQ(graph.simulated_makespan(1000), span);
}

TEST(TaskGraph, SimulatedMakespanMonotoneInProcessors) {
  TaskGraph graph;
  for (int i = 0; i < 16; ++i) graph.add_task("t", 1.0 + i % 3);
  double previous = graph.simulated_makespan(1);
  for (std::size_t p : {2, 3, 4, 8}) {
    const double makespan = graph.simulated_makespan(p);
    EXPECT_LE(makespan, previous + 1e-9);
    previous = makespan;
  }
}

TEST(TaskGraph, TaskExceptionPropagates) {
  ThreadPool pool(2);
  TaskGraph graph;
  graph.add_task("ok", 1, [] {});
  graph.add_task("bad", 1, [] { throw std::runtime_error("task failed"); });
  EXPECT_THROW((void)graph.run(pool), std::runtime_error);
}

TEST(TaskGraph, WideGraphRuns) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::atomic<int> ran{0};
  const auto root = graph.add_task("root", 1, [&] { ++ran; });
  const auto sink = graph.add_task("sink", 1, [&] { ++ran; });
  for (int i = 0; i < 200; ++i) {
    const auto mid = graph.add_task("m", 1, [&] { ++ran; });
    graph.add_dependency(root, mid);
    graph.add_dependency(mid, sink);
  }
  ASSERT_TRUE(graph.run(pool).is_ok());
  EXPECT_EQ(ran.load(), 202);
}

// ----------------------------------------------------------------- pipeline

TEST(Pipeline, AppliesStagesInOrder) {
  Pipeline<int> pipeline;
  pipeline.add_stage([](int x) { return x + 1; })
      .add_stage([](int x) { return x * 10; })
      .add_stage([](int x) { return x - 3; });
  std::vector<int> inputs{0, 1, 2, 3};
  const auto outputs = pipeline.run(inputs);
  EXPECT_EQ(outputs, (std::vector<int>{7, 17, 27, 37}));  // ((x+1)*10)-3
}

TEST(Pipeline, PreservesItemOrder) {
  Pipeline<int> pipeline(4);
  pipeline.add_stage([](int x) { return x; }).add_stage([](int x) { return x; });
  std::vector<int> inputs(500);
  std::iota(inputs.begin(), inputs.end(), 0);
  const auto outputs = pipeline.run(inputs);
  EXPECT_EQ(outputs, inputs);
}

TEST(Pipeline, StagesRunConcurrently) {
  // With sleep-bound stages, pipelined wall time approaches the slowest
  // stage's total rather than the sum of all stages.
  using namespace std::chrono_literals;
  Pipeline<int> pipeline;
  pipeline.add_stage([](int x) {
    std::this_thread::sleep_for(2ms);
    return x;
  });
  pipeline.add_stage([](int x) {
    std::this_thread::sleep_for(2ms);
    return x;
  });
  std::vector<int> inputs(20, 1);
  pdc::support::Stopwatch clock;
  (void)pipeline.run(inputs);
  const double elapsed = clock.elapsed_millis();
  ASSERT_EQ(pipeline.stage_busy_seconds().size(), 2u);
  const double busy0_ms = pipeline.stage_busy_seconds()[0] * 1e3;
  const double busy1_ms = pipeline.stage_busy_seconds()[1] * 1e3;
  EXPECT_GT(busy0_ms, 0.0);
  EXPECT_GT(busy1_ms, 0.0);
  // Stages run one after another can finish no sooner than the sum of
  // their busy times; overlapped stages beat it. The bound comes from
  // this run's own sleeps, so an oversleeping host raises both sides.
  EXPECT_LT(elapsed, busy0_ms + busy1_ms);
}

TEST(Pipeline, StringsAndEmptyInput) {
  Pipeline<std::string> pipeline;
  pipeline.add_stage([](std::string s) { return s + "!"; });
  EXPECT_TRUE(pipeline.run({}).empty());
  const auto out = pipeline.run({"a", "b"});
  EXPECT_EQ(out, (std::vector<std::string>{"a!", "b!"}));
}

TEST(Pipeline, NoStagesIsACheckFailure) {
  Pipeline<int> pipeline;
  EXPECT_THROW((void)pipeline.run({1}), pdc::support::CheckFailure);
}

// -------------------------------------------------------------------- sorts

struct SortCase {
  const char* name;
  std::size_t n;
  std::size_t cutoff;
};

class ParallelSortTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(ParallelSortTest, MergeSortSorts) {
  const auto [name, n, cutoff] = GetParam();
  WorkStealingPool pool(3);
  pdc::support::Rng rng(42);
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.uniform_int(-1000000, 1000000));
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_merge_sort(pool, v, cutoff);
  EXPECT_EQ(v, expected);
}

TEST_P(ParallelSortTest, QuickSortSorts) {
  const auto [name, n, cutoff] = GetParam();
  WorkStealingPool pool(3);
  pdc::support::Rng rng(43);
  std::vector<int> v(n);
  for (auto& x : v) x = static_cast<int>(rng.uniform_int(-1000000, 1000000));
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_quick_sort(pool, v, cutoff);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ParallelSortTest,
    ::testing::Values(SortCase{"tiny", 10, 4}, SortCase{"small", 1000, 64},
                      SortCase{"medium", 50000, 512},
                      SortCase{"fine_grain", 20000, 32}),
    [](const auto& info) { return info.param.name; });

TEST(ParallelSort, HandlesDuplicatesAndSortedInput) {
  WorkStealingPool pool(2);
  std::vector<int> dup(10000, 7);
  parallel_quick_sort(pool, dup, 128);
  EXPECT_TRUE(std::is_sorted(dup.begin(), dup.end()));

  std::vector<int> sorted(10000);
  std::iota(sorted.begin(), sorted.end(), 0);
  auto expected = sorted;
  parallel_merge_sort(pool, sorted, 128);
  EXPECT_EQ(sorted, expected);

  std::vector<int> reverse(10000);
  std::iota(reverse.begin(), reverse.end(), 0);
  std::reverse(reverse.begin(), reverse.end());
  parallel_quick_sort(pool, reverse, 128);
  EXPECT_TRUE(std::is_sorted(reverse.begin(), reverse.end()));
}

TEST(ParallelSort, CustomComparator) {
  WorkStealingPool pool(2);
  std::vector<int> v{5, 3, 9, 1, 4};
  parallel_merge_sort(pool, v, 2, std::greater<int>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int>{}));
}

// ------------------------------------------------- lock-free scheduler path

// External (non-worker) posts travel through the bounded injection queue;
// flooding it far past its capacity must apply backpressure, not drop work.
TEST(ThreadPool, ExternalFloodBeyondInjectionCapacityRunsEverything) {
  ThreadPool pool(2);
  constexpr int kTasks = 10000;  // > injection capacity (4096)
  std::atomic<int> count{0};
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.post([&count] { count.fetch_add(1); }).is_ok());
  }
  pool.shutdown();  // drains before joining
  EXPECT_EQ(count.load(), kTasks);
}

// Worker-side posts go to the poster's own deque (unbounded), so recursive
// task trees can always make progress even on a single worker.
TEST(ThreadPool, RecursivePostsFromWorkersComplete) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::function<void(int)> spawn_tree = [&](int depth) {
    count.fetch_add(1);
    if (depth == 0) return;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(pool.post([&, depth] { spawn_tree(depth - 1); }).is_ok());
    }
  };
  ASSERT_TRUE(pool.post([&] { spawn_tree(9); }).is_ok());
  // Wait for the tree before shutdown: posts from workers after close are
  // refused (kClosed), exactly like the old pool's closed queue.
  constexpr int kExpected = (1 << 10) - 1;  // full binary tree, 10 levels
  while (count.load() < kExpected) std::this_thread::yield();
  pool.shutdown();
  EXPECT_EQ(count.load(), kExpected);
}

TEST(WorkStealing, ExternalSpawnFloodBeyondInjectionCapacity) {
  WorkStealingPool pool(2);
  constexpr int kTasks = 10000;  // > injection capacity (4096)
  std::atomic<int> count{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.spawn([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), kTasks);
}

TEST(WorkStealing, ParkedWorkersGaugeReturnsToZeroAfterWork) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.spawn([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
  // Workers may be parked (idle) or mid-ladder, but never more than exist.
  EXPECT_LE(pool.parked_workers(), pool.size());
}

TEST(Task, MoveOnlyClosureRunsOnThePool) {
  ThreadPool pool(2);
  auto payload = std::make_unique<int>(123);
  std::atomic<int> seen{0};
  ASSERT_TRUE(
      pool.post([p = std::move(payload), &seen] { seen = *p; }).is_ok());
  pool.shutdown();
  EXPECT_EQ(seen.load(), 123);
}

}  // namespace

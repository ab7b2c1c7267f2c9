#include "testkit/sim_scheduler.hpp"

#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "testkit/hooks.hpp"
#include "testkit/virtual_clock.hpp"

namespace pdc::testkit {

namespace detail {
std::atomic<bool> g_sim_active{false};
}  // namespace detail

namespace {

/// Thrown through a logical thread's stack to unwind it when the run is
/// aborted (deadlock, step limit). Caught in the thread trampoline only.
struct AbortRun {};

enum class ThreadState : std::uint8_t { kReady, kRunning, kParked, kFinished };

struct ThreadRec {
  std::size_t id = 0;
  ThreadState state = ThreadState::kReady;
  bool notified = false;       // a notify arrived while parked
  bool has_deadline = false;   // parked with a virtual-clock deadline
  double deadline = 0.0;
  std::thread os;
};

/// All mutable scheduling state for one run. Exactly one Engine is live
/// process-wide while SimScheduler::run executes (enforced below).
struct Engine {
  explicit Engine(const SchedulerOptions& options)
      : opts(options), rng(options.seed) {}

  const SchedulerOptions& opts;
  pdc::support::Rng rng;
  VirtualClock clock;

  std::mutex m;
  std::condition_variable cv;  // every handoff and the final join wait
  std::vector<std::unique_ptr<ThreadRec>> recs;
  std::size_t running = kNoThread;
  std::size_t last_running = kNoThread;
  std::size_t finished = 0;
  bool aborting = false;
  int preemptions_used = 0;

  RunReport report;

  // ------------------------------------------------------------- tracing

  void trace(TraceKind kind, std::size_t thread, const char* label) {
    if (!opts.record_trace) return;
    if (report.trace.size() >= opts.max_trace_events) {
      report.trace_truncated = true;
      return;
    }
    report.trace.push_back(
        TraceEvent{report.steps, thread, kind, label, clock.now()});
  }

  // ---------------------------------------------------------- scheduling

  [[nodiscard]] bool runnable(const ThreadRec& rec) const {
    if (rec.state == ThreadState::kReady) return true;
    if (rec.state != ThreadState::kParked) return false;
    return rec.notified || (rec.has_deadline && rec.deadline <= clock.now());
  }

  [[nodiscard]] std::vector<std::size_t> collect_runnable() const {
    std::vector<std::size_t> ids;
    for (const auto& rec : recs) {
      if (runnable(*rec)) ids.push_back(rec->id);
    }
    return ids;
  }

  /// Next runnable id strictly after `current` in cyclic id order.
  [[nodiscard]] std::size_t after(const std::vector<std::size_t>& ids,
                                  std::size_t current) const {
    for (std::size_t id : ids) {
      if (id > current) return id;
    }
    return ids.front();
  }

  /// Policy decision at a preemption point. `current` is the yielding
  /// thread when it remains runnable, kNoThread otherwise. `force_switch`
  /// models a spin loop: never re-pick the spinner while others can run.
  [[nodiscard]] std::size_t choose(const std::vector<std::size_t>& ids,
                                   std::size_t current, bool force_switch) {
    PDC_CHECK(!ids.empty());
    if (ids.size() == 1) return ids.front();
    if (force_switch && current != kNoThread) {
      return after(ids, current);  // deterministic rotation off the spinner
    }
    switch (opts.policy) {
      case SchedulePolicy::kRoundRobin:
        return current == kNoThread ? ids.front() : after(ids, current);
      case SchedulePolicy::kRandom:
        return ids[rng.index(ids.size())];
      case SchedulePolicy::kPreemptionBounded: {
        if (current == kNoThread) return ids[rng.index(ids.size())];
        if (preemptions_used >= opts.preemption_bound) return current;
        if (!rng.bernoulli(0.25)) return current;
        // Spend one preemption: pick uniformly among the other threads.
        std::vector<std::size_t> others;
        for (std::size_t id : ids) {
          if (id != current) others.push_back(id);
        }
        ++preemptions_used;
        return others[rng.index(others.size())];
      }
    }
    return ids.front();  // unreachable
  }

  /// Advances the virtual clock to the earliest parked deadline, if any.
  /// Returns true when that made at least one thread runnable.
  bool advance_clock() {
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& rec : recs) {
      if (rec->state == ThreadState::kParked && rec->has_deadline) {
        earliest = std::min(earliest, rec->deadline);
      }
    }
    if (earliest == std::numeric_limits<double>::infinity()) return false;
    clock.advance_to(earliest);
    trace(TraceKind::kClockAdvance, kNoThread, "clock");
    return true;
  }

  void initiate_abort() {
    aborting = true;
    cv.notify_all();
  }

  /// Picks and dispatches the next thread, advancing the clock when every
  /// runnable thread is exhausted; declares deadlock when nothing can ever
  /// run again. Must be called with `m` held by a thread that is no longer
  /// kRunning (it parked, yielded, or finished).
  void dispatch(std::size_t current, bool force_switch) {
    auto ids = collect_runnable();
    if (ids.empty() && advance_clock()) ids = collect_runnable();
    if (ids.empty()) {
      if (finished == recs.size()) return;  // run complete; main cv-waits
      report.deadlocked = true;
      trace(TraceKind::kDeadlock, kNoThread, "deadlock");
      initiate_abort();
      return;
    }
    const std::size_t next = choose(ids, current, force_switch);
    auto& rec = *recs[next];
    rec.state = ThreadState::kRunning;
    rec.notified = false;
    rec.has_deadline = false;
    running = next;
    if (next != last_running) {
      ++report.context_switches;
      trace(TraceKind::kSchedule, next, "run");
    }
    last_running = next;
    cv.notify_all();
  }

  /// Blocks the calling logical thread until it is scheduled again.
  /// Throws AbortRun when the run is being torn down instead.
  void wait_for_turn(ThreadRec& rec, std::unique_lock<std::mutex>& lock) {
    cv.wait(lock, [&] { return running == rec.id || aborting; });
    if (running != rec.id) throw AbortRun{};
    if (aborting) throw AbortRun{};
  }

  void bump_step() {
    if (++report.steps > opts.max_steps && !report.step_limit_hit) {
      report.step_limit_hit = true;
      initiate_abort();
      throw AbortRun{};
    }
  }

  // ------------------------------------------------- hook implementations

  void yield(ThreadRec& rec, const char* label, bool force_switch) {
    std::unique_lock lock(m);
    if (aborting) throw AbortRun{};
    bump_step();
    trace(TraceKind::kSchedule, rec.id, label);
    rec.state = ThreadState::kReady;
    dispatch(rec.id, force_switch);
    if (running == rec.id) {
      rec.state = ThreadState::kRunning;  // policy kept us running
      return;
    }
    wait_for_turn(rec, lock);
  }

  void park(ThreadRec& rec, const char* label, bool has_deadline,
            double deadline) {
    std::unique_lock lock(m);
    if (aborting) throw AbortRun{};
    bump_step();
    rec.state = ThreadState::kParked;
    rec.notified = false;
    rec.has_deadline = has_deadline;
    rec.deadline = deadline;
    trace(TraceKind::kBlock, rec.id, label);
    dispatch(kNoThread, false);
    wait_for_turn(rec, lock);
  }

  void notify() {
    std::unique_lock lock(m);
    bool woke_any = false;
    for (auto& rec : recs) {
      if (rec->state == ThreadState::kParked && !rec->notified) {
        rec->notified = true;
        woke_any = true;
      }
    }
    if (woke_any) trace(TraceKind::kNotify, running, "notify");
  }

  void set_error(const std::string& message) {
    std::unique_lock lock(m);
    if (report.error.empty()) report.error = message;
  }

  void finish_thread(ThreadRec& rec) {
    std::unique_lock lock(m);
    rec.state = ThreadState::kFinished;
    ++finished;
    trace(TraceKind::kFinish, rec.id, "exit");
    if (finished == recs.size()) {
      running = kNoThread;
      cv.notify_all();
      return;
    }
    if (aborting) {
      cv.notify_all();  // let the remaining parked threads unwind
      return;
    }
    dispatch(kNoThread, false);
  }
};

/// The active engine, guarded for cross-thread notify during teardown.
std::mutex g_engine_mutex;
Engine* g_engine = nullptr;

struct ThreadCtx {
  Engine* engine = nullptr;
  ThreadRec* rec = nullptr;
  // The thread's own clock (clock-rate fault): it read `clock_base` at
  // virtual time `virtual_base` and runs at `clock_rate` since then.
  double clock_rate = 1.0;
  double virtual_base = 0.0;
  double clock_base = 0.0;
};
thread_local ThreadCtx t_ctx;

void thread_trampoline(Engine& engine, ThreadRec& rec,
                       const std::function<void()>& body) {
  t_ctx = ThreadCtx{&engine, &rec};
  bool run_body = true;
  {
    std::unique_lock lock(engine.m);
    try {
      engine.wait_for_turn(rec, lock);
    } catch (const AbortRun&) {
      run_body = false;
    }
  }
  if (run_body) {
    try {
      body();
    } catch (const AbortRun&) {
      // Torn down mid-run (deadlock or step limit); already reported.
    } catch (const std::exception& e) {
      engine.set_error(e.what());
    } catch (...) {
      engine.set_error("unknown exception escaped a logical thread");
    }
  }
  engine.finish_thread(rec);
  t_ctx = ThreadCtx{};
}

}  // namespace

namespace detail {

bool current_thread_is_sim() noexcept { return t_ctx.rec != nullptr; }

void yield_slow(const char* label) {
  if (t_ctx.rec == nullptr) return;  // foreign thread during a sim run
  t_ctx.engine->yield(*t_ctx.rec, label, /*force_switch=*/false);
}

void spin_slow(const char* label) {
  if (t_ctx.rec == nullptr) return;
  t_ctx.engine->yield(*t_ctx.rec, label, /*force_switch=*/true);
}

void block_slow(const char* label) {
  PDC_CHECK(t_ctx.rec != nullptr);
  t_ctx.engine->park(*t_ctx.rec, label, /*has_deadline=*/false, 0.0);
}

bool block_until_slow(const char* label, double deadline) {
  PDC_CHECK(t_ctx.rec != nullptr);
  t_ctx.engine->park(*t_ctx.rec, label, /*has_deadline=*/true, deadline);
  std::unique_lock lock(t_ctx.engine->m);
  return t_ctx.engine->clock.now() >= deadline;
}

void notify_slow() {
  // May be called by any thread (sim or not) while a run is active, and
  // may race with run teardown — hence the registry lock.
  std::scoped_lock registry(g_engine_mutex);
  if (g_engine != nullptr) g_engine->notify();
}

double clock_now_slow() {
  if (t_ctx.engine == nullptr) return 0.0;
  std::unique_lock lock(t_ctx.engine->m);
  return t_ctx.engine->clock.now();
}

}  // namespace detail

void set_clock_rate(double rate) {
  PDC_CHECK_MSG(t_ctx.rec != nullptr, "set_clock_rate outside a sim thread");
  PDC_CHECK(rate > 0.0);
  const double now = detail::clock_now_slow();
  t_ctx.clock_base += (now - t_ctx.virtual_base) * t_ctx.clock_rate;
  t_ctx.virtual_base = now;
  t_ctx.clock_rate = rate;
}

double thread_clock_now() {
  if (t_ctx.engine == nullptr) return 0.0;
  return t_ctx.clock_base +
         (detail::clock_now_slow() - t_ctx.virtual_base) * t_ctx.clock_rate;
}

const char* to_string(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kRoundRobin: return "round-robin";
    case SchedulePolicy::kRandom: return "random";
    case SchedulePolicy::kPreemptionBounded: return "preemption-bounded";
  }
  return "?";
}

namespace {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSchedule: return "run";
    case TraceKind::kBlock: return "park";
    case TraceKind::kNotify: return "notify";
    case TraceKind::kClockAdvance: return "clock";
    case TraceKind::kFinish: return "exit";
    case TraceKind::kDeadlock: return "DEADLOCK";
  }
  return "?";
}

void format_event(std::ostringstream& os, const TraceEvent& event) {
  os << '#' << event.step << '\t';
  if (event.thread == kNoThread) {
    os << "--";
  } else {
    os << 't' << event.thread;
  }
  os << '\t' << trace_kind_name(event.kind) << '\t' << event.label << "\t@"
     << event.sim_time << '\n';
}

}  // namespace

std::string RunReport::format_trace() const {
  std::ostringstream os;
  os << "seed " << seed << ", " << steps << " steps, " << context_switches
     << " switches\n";
  for (const auto& event : trace) format_event(os, event);
  if (trace_truncated) os << "... (trace truncated)\n";
  return os.str();
}

std::string RunReport::format_minimal_trace() const {
  std::ostringstream os;
  os << "seed " << seed << " minimal interleaving:\n";
  for (const auto& event : trace) {
    switch (event.kind) {
      case TraceKind::kSchedule:
      case TraceKind::kClockAdvance:
      case TraceKind::kDeadlock:
      case TraceKind::kFinish:
        format_event(os, event);
        break;
      default:
        break;
    }
  }
  if (trace_truncated) os << "... (trace truncated)\n";
  return os.str();
}

SimScheduler::SimScheduler(SchedulerOptions options) : options_(options) {
  PDC_CHECK(options_.max_steps > 0);
  PDC_CHECK(options_.preemption_bound >= 0);
}

SimScheduler::~SimScheduler() = default;

RunReport SimScheduler::run(std::vector<std::function<void()>> threads) {
  PDC_CHECK_MSG(!threads.empty(), "SimScheduler::run needs at least one thread");
  PDC_CHECK_MSG(!detail::g_sim_active.load(),
                "only one SimScheduler may be running at a time");

  Engine engine(options_);
  engine.report.seed = options_.seed;
  engine.recs.reserve(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    auto rec = std::make_unique<ThreadRec>();
    rec->id = i;
    engine.recs.push_back(std::move(rec));
  }

  {
    std::scoped_lock registry(g_engine_mutex);
    g_engine = &engine;
    detail::g_sim_active.store(true);
  }

  for (std::size_t i = 0; i < threads.size(); ++i) {
    ThreadRec& rec = *engine.recs[i];
    rec.os = std::thread(
        [&engine, &rec, body = std::move(threads[i])] {
          thread_trampoline(engine, rec, body);
        });
  }

  {
    std::unique_lock lock(engine.m);
    engine.dispatch(kNoThread, false);  // schedule the first thread
    engine.cv.wait(lock, [&] { return engine.finished == engine.recs.size(); });
  }
  for (auto& rec : engine.recs) rec->os.join();

  {
    std::scoped_lock registry(g_engine_mutex);
    g_engine = nullptr;
    detail::g_sim_active.store(false);
  }

  RunReport report = std::move(engine.report);
  report.completed =
      !report.deadlocked && !report.step_limit_hit;
  report.sim_duration = engine.clock.now();
  return report;
}

}  // namespace pdc::testkit

// The four workloads. Each run is a sequence of rounds; a round builds a
// fresh system (fabric, servers and, for KV, a cluster with an elected
// leader), warms it up, then times a fixed number of operations and tears
// the system down. Fixed-size rounds keep memory and set-up cost
// independent of throughput; the run repeats rounds for --seconds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.hpp"
#include "refbench.hpp"

namespace refbench {

enum class Workload { kEcho, kKvMixed, kKvReadMostly, kKvObserved };

struct RoundEnv {
  std::uint64_t index = 0;          // round number within the run
  std::vector<std::int64_t>* latencies = nullptr;  // timed window, ns
  std::vector<std::int64_t>* slice_ends = nullptr;  // see kSlicesPerRound
  SpanTable* spans = nullptr;       // non-null in a traced round
  bool inject_fault = false;        // corrupt one timed request (self-test)
};

/// The timed window of a round is cut into this many slices of equal
/// request count; ops_per_s is the median rate over the slices of the
/// run's quiet rounds, so a stall (a Raft election) moves it as little as
/// it moves the median latency.
constexpr std::uint64_t kSlicesPerRound = 16;

struct RoundResult {
  double setup_s = 0;
  PhaseStats timed;
  std::uint64_t attempted = 0;  // every request of every phase
  std::uint64_t failed = 0;
  Counters delta;               // pdc.* counters over the timed window
  CpuTicks cpu;                 // host ticks over the timed window
  double resident_mb = 0;       // at the end of the timed window
  ObsTimes obs;
  std::vector<std::string> violations;  // failed checks and ledgers

  /// Adds a phase's requests to the run's failure accounting and checks
  /// its request ledger.
  void count(const PhaseStats& phase);
  /// Runs the timed phase: fills in what `env` asks to record, arms the
  /// span table, and reads the pdc.* counters and host CPU ticks before
  /// and after it and the resident set at its end.
  void run_timed(ClosedLoopClient& client, Traffic& traffic, Phase phase,
                 const RoundEnv& env, Tracing& tracing);
  /// The frame ledger: the servers parsed exactly the timed requests.
  void check_frames();
};

class Bench {
 public:
  virtual ~Bench() = default;
  /// Requests timed per round (the span table's size).
  [[nodiscard]] virtual std::uint64_t timed_requests() const = 0;
  virtual RoundResult round(const RoundEnv& env) = 0;
};

std::unique_ptr<Bench> make_echo(std::uint64_t seed, bool smoke);
std::unique_ptr<Bench> make_kv(Workload workload, std::uint64_t seed,
                               bool smoke);

}  // namespace refbench

// ReplicatedKV: a linearizable key-value store replicated with dist::Raft.
//
// Every rank of the communicator runs one ReplicatedKV node: a KvMachine
// (the Raft state machine) plus the client/server glue. Writes (put, cas)
// are routed to the leader, appended to the replicated log, and
// acknowledged only after commit + apply; reads are served from the
// leader's applied state without writing the log: at once while the
// leader holds its lease (Raft thesis §6.4.1), otherwise after one
// confirmed heartbeat round (read-index, §6.4). RaftNode::begin_read_round
// makes that choice; the KV layer only queues the read behind its round.
// Both paths give the store linearizability, which tests/raft_stress_test
// checks directly with testkit::LinearizabilityChecker under fault
// injection.
//
// Exactly-once semantics: a client retries a timed-out request with the
// same sequence number, and a retry may land after the original committed
// (duplicate log entries). The state machine keeps a per-client session
// {last applied seq, cached reply}; a duplicate seq returns the cached
// reply without re-applying. This is the standard Raft session trick
// (§6.3) and is what makes "resend until acked" safe for non-idempotent
// cas.
//
// Client calls (put/get/cas) block, pumping this node's own step() and
// testkit::poll_pause so they compose with the sim scheduler's virtual
// clock; a call that exhausts `op_timeout_ms` returns status kTimeout and
// — when a testkit::HistoryRecorder is attached — leaves the recorded
// operation pending, exactly the ambiguity a crashed client leaves.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dist/raft.hpp"
#include "obs/slo.hpp"
#include "testkit/linearizability.hpp"

namespace pdc::dist {

/// Raft state machine: string map plus client sessions for exactly-once
/// application of retried commands. Both are part of the snapshot image.
class KvMachine : public StateMachine {
 public:
  std::vector<std::uint8_t> apply(
      std::uint64_t index, const std::vector<std::uint8_t>& command) override;
  std::vector<std::uint8_t> snapshot_image() override;
  void restore(const std::vector<std::uint8_t>& image) override;

  [[nodiscard]] const std::map<std::string, std::string>& data() const {
    return data_;
  }

 private:
  struct Session {
    std::uint64_t last_seq = 0;
    std::vector<std::uint8_t> reply;  // reply to last_seq
  };

  std::map<std::string, std::string> data_;
  std::map<std::int32_t, Session> sessions_;
};

struct KvConfig {
  RaftOptions raft;
  double retry_ms = 8.0;       // client resend cadence
  double op_timeout_ms = 400.0;  // client gives up (op recorded as pending)
  double poll_ms = 0.2;        // virtual-clock pause per client poll turn
  /// First client sequence numbers start above this value. A rank that
  /// crashes and rejoins must pass the number of ops it already issued,
  /// or the session layer would treat its new ops as duplicates.
  std::uint64_t base_seq = 0;
};

struct KvResult {
  enum class Status : std::uint8_t {
    kOk,       // put applied / get hit / cas swapped
    kAbsent,   // get: key not present
    kFailed,   // cas: compare failed
    kTimeout,  // no acknowledgement within op_timeout_ms
  };

  Status status = Status::kTimeout;
  std::string value;  // get: the observed value

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  [[nodiscard]] bool timed_out() const { return status == Status::kTimeout; }
};

const char* to_string(KvResult::Status status);

class ReplicatedKV {
 public:
  /// `storage` is the rank's durable Raft state (caller-owned, survives
  /// node destruction — see RaftPersistentState).
  ReplicatedKV(mp::Communicator& comm, RaftPersistentState& storage,
               KvConfig config = {});

  ReplicatedKV(const ReplicatedKV&) = delete;
  ReplicatedKV& operator=(const ReplicatedKV&) = delete;

  /// One service-loop turn: Raft tick, client-request intake, pending
  /// write/read resolution. Pump from the rank body; client calls pump it
  /// too while blocked.
  void step();

  // Blocking client operations (issued from this rank, routed to the
  // current leader, retried on the retry cadence until op_timeout_ms).
  KvResult put(const std::string& key, const std::string& value);
  KvResult get(const std::string& key);
  KvResult cas(const std::string& key, const std::string& expected,
               const std::string& desired);

  /// Attach a recorder: every client op is bracketed invoke/complete, and
  /// timed-out ops stay pending for the checker to reason about.
  void set_recorder(testkit::HistoryRecorder* recorder) { recorder_ = recorder; }

  /// The KV plane's default SLO rules for an obs::SloMonitor:
  ///   kv.availability  burn rate of pdc.kv.ops_ok over pdc.kv.ops
  ///                    against `objective` (kAbsent counts as good;
  ///                    retries/timeouts burn budget)
  ///   kv.put.p99       windowed p99 of pdc.kv.put_us against
  ///                    `put_p99_us`
  /// Canonical burn-rate windows scale by `window_scale` so the same
  /// rules run against seconds of sim time (see obs::availability_slo).
  [[nodiscard]] static std::vector<obs::SloRule> default_slo_rules(
      double window_scale = 1.0, double objective = 0.999,
      double put_p99_us = 50'000.0);

  [[nodiscard]] const RaftNode& raft() const { return raft_; }
  [[nodiscard]] RaftNode& raft() { return raft_; }
  [[nodiscard]] bool is_leader() const { return raft_.role() == RaftRole::kLeader; }
  [[nodiscard]] const KvMachine& machine() const { return machine_; }

 private:
  // Client-facing tags, after Raft's one tag (70, kind byte first).
  static constexpr int kTagClientRequest = 76;
  static constexpr int kTagClientReply = 77;

  enum class OpKind : std::uint8_t { kPut = 1, kGet = 2, kCas = 3 };
  enum class WireStatus : std::uint8_t {
    kRetry = 0,  // not the leader (value carries no data; hint attached)
    kOk = 1,
    kAbsent = 2,
    kFailed = 3,
  };

  struct PendingWrite {
    std::uint64_t index = 0;  // log index the command was submitted at
    std::uint64_t term = 0;   // term it was submitted in
    int client = -1;
    std::uint64_t seq = 0;
    obs::ActiveSpan span;     // "server.drain": intake -> reply sent
  };

  struct PendingRead {
    int client = -1;
    std::uint64_t seq = 0;
    std::string key;
    std::uint64_t read_index = 0;  // max(commit index, term-start barrier) at arrival
    std::uint64_t round = 0;       // heartbeat round that must be confirmed
    obs::ActiveSpan span;          // "server.drain": intake -> reply sent
  };

  void serve_requests();
  void resolve_reads();
  void flush_pending_retry();
  void on_applied(std::uint64_t index, std::uint64_t term,
                  const std::vector<std::uint8_t>& command,
                  const std::vector<std::uint8_t>& reply);
  void reply_to(int client, std::uint64_t seq, WireStatus status,
                const std::string& value = {});
  KvResult run_op(OpKind kind, const std::string& key, const std::string& arg,
                  const std::string& expected);

  mp::Communicator& comm_;
  KvConfig config_;
  KvMachine machine_;
  RaftNode raft_;
  testkit::HistoryRecorder* recorder_ = nullptr;

  std::deque<PendingWrite> pending_writes_;
  std::deque<PendingRead> pending_reads_;
  std::uint64_t next_seq_;
};

}  // namespace pdc::dist

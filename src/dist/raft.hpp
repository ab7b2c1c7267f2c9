// Raft replicated log over the message-passing runtime (Ongaro &
// Ousterhout, "In Search of an Understandable Consensus Algorithm").
//
// One RaftNode runs per rank of an mp::Communicator. The protocol maps
// onto the runtime the way the other dist lessons do: RPCs are eager
// messages (one tag, a kind byte first), timers run on dist::RetryClock
// (virtual clock under testkit::SimScheduler, wall clock otherwise), and
// every message may be dropped / duplicated / reordered / partitioned by
// a testkit::FaultInjector attached to the World.
//
// What is implemented, in paper terms:
//  - leader election with randomized timeouts (§5.2), the election-safety
//    and log-completeness vote rule (§5.4.1);
//  - log replication with the AppendEntries consistency check, conflict
//    truncation, and quorum match-index commit advancement restricted to
//    current-term entries (§5.3, Figure 8 rule);
//  - a no-op barrier entry appended the moment a leader takes office, so
//    the new term commits (and therefore exposes) the previous terms'
//    entries without waiting for client traffic;
//  - snapshot-based log compaction and InstallSnapshot for followers
//    whose next entry was already compacted away (§7), reusing the
//    dist::snapshot idea of a state image plus a cut index;
//  - linearizable reads without a log write, surfaced as
//    begin_read_round()/confirmed_round(): while the leader holds a lease
//    (thesis §6.4.1) it serves at its commit index at once; otherwise it
//    first confirms it is still the leader with one heartbeat round
//    (read-index, §6.4). The lease runs from the send time of the newest
//    quorum-acknowledged round for W / kLeaseClockDrift on the leader's
//    clock, and followers make it sound by ignoring every RequestVote
//    within W = election_timeout_min_ms / kLeaseClockDrift of their last
//    AppendEntries/InstallSnapshot or of their own start (§4.2.3), so no
//    other leader can form while it holds;
//  - crash recovery: all durable state lives in a caller-owned
//    RaftPersistentState, so destroying a node and constructing a new one
//    over the same storage is exactly a crash + rejoin.
//
// `RaftOptions::unsafe_early_commit` deliberately breaks the commit rule
// (entries "commit" the moment the leader appends them, before any
// quorum), and `RaftOptions::unsafe_lease_ignores_drift` stretches the
// lease to the full election_timeout_min_ms, as if clocks never drifted.
// They exist so the testkit::LinearizabilityChecker sweeps in
// tests/raft_test and tests/raft_stress_test can demonstrate that the
// harness catches a real protocol bug — never enable them otherwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dist/retry_clock.hpp"
#include "mp/comm.hpp"
#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace pdc::dist {

namespace wire {

/// Minimal byte codec for the variable-length Raft and KV messages (the
/// fixed-size trivially-copyable structs the other dist protocols send
/// don't fit log entries and string keys).
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}
  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{buf_[pos_++]} << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(static_cast<std::uint32_t>(u64())); }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
  }
  [[nodiscard]] bool done() const { return pos_ == buf_.size(); }

 private:
  /// Checks that `n` more bytes remain. Compares against the remainder —
  /// `pos_ + n` would wrap on a corrupt length near 2^64 and pass.
  void need(std::uint64_t n) const {
    PDC_CHECK_MSG(n <= buf_.size() - pos_, "truncated raft message");
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace wire

enum class RaftRole : std::uint8_t { kFollower, kCandidate, kLeader };

/// ρ, the clock-drift bound of the leader lease: the lease stays sound
/// while no rank's clock runs more than this factor faster than
/// another's. Every rank in this library reads one clock (steady_clock,
/// or the SimScheduler's virtual clock), so only the testkit clock-rate
/// fault ever skews them.
inline constexpr double kLeaseClockDrift = 1.25;

const char* to_string(RaftRole role);

struct RaftLogEntry {
  std::uint64_t term = 0;
  std::vector<std::uint8_t> command;  // empty = the term-start no-op entry
};

/// Everything a rank must not lose across a crash (Figure 2's persistent
/// state plus the compaction snapshot). Owned by the caller: construct a
/// RaftNode over it, destroy the node to "crash" the rank, construct a
/// fresh node over the same struct to rejoin.
struct RaftPersistentState {
  std::uint64_t current_term = 0;
  int voted_for = -1;
  std::uint64_t snapshot_index = 0;  // last index covered by `snapshot`
  std::uint64_t snapshot_term = 0;
  std::vector<std::uint8_t> snapshot;  // state-machine image at snapshot_index
  std::vector<RaftLogEntry> log;       // entries snapshot_index+1 .. onward
};

/// The replicated service: commands are applied in log order, exactly
/// once per index, on every rank.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  /// Applies one committed command; the return value is the client reply
  /// (delivered by the apply listener on the rank that accepted the
  /// command).
  virtual std::vector<std::uint8_t> apply(
      std::uint64_t index, const std::vector<std::uint8_t>& command) = 0;
  /// Serializes the full state (for compaction / InstallSnapshot).
  virtual std::vector<std::uint8_t> snapshot_image() = 0;
  /// Replaces the state with a serialized image.
  virtual void restore(const std::vector<std::uint8_t>& image) = 0;
};

struct RaftOptions {
  double election_timeout_min_ms = 12.0;
  double election_timeout_max_ms = 24.0;
  double heartbeat_ms = 3.0;
  std::uint64_t seed = 0x7af7;  // mixed with the rank for timeout jitter
  std::size_t snapshot_threshold = 0;  // compact when log exceeds this (0 = never)
  std::size_t max_entries_per_append = 16;
  bool unsafe_early_commit = false;  // see file comment — tests only
  bool unsafe_lease_ignores_drift = false;  // see file comment — tests only
};

class RaftNode {
 public:
  using ApplyListener = std::function<void(
      std::uint64_t index, std::uint64_t term,
      const std::vector<std::uint8_t>& command,
      const std::vector<std::uint8_t>& reply)>;

  RaftNode(mp::Communicator& comm, StateMachine& machine,
           RaftPersistentState& storage, RaftOptions options = {});

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// One event-loop turn: drain Raft traffic, fire timers, apply newly
  /// committed entries. Callers pump this from their service loop
  /// (interleaved with testkit::poll_pause so the virtual clock advances).
  void tick();

  /// Leader: appends a command and returns its log index (committed and
  /// applied later, reported through the apply listener). Followers and
  /// candidates return nullopt — redirect the client at `leader_hint()`.
  /// A valid `trace` joins the entry to a request trace: a raft.replicate
  /// span covers submit -> commit (AppendEntries carrying the entry are
  /// stamped with it, so follower raft.append spans nest under it) and a
  /// raft.apply span brackets the state-machine apply.
  std::optional<std::uint64_t> submit(std::vector<std::uint8_t> command,
                                      obs::SpanContext trace = {});

  /// Invoked once per applied entry, in index order (no-op entries
  /// included, with an empty command and reply).
  void set_apply_listener(ApplyListener listener) {
    listener_ = std::move(listener);
  }

  /// Read support (leader only). Once `confirmed_round() >=` the return
  /// value, this node was still the leader after the read arrived, so its
  /// commit index is a valid read snapshot. While the lease holds, the
  /// return is the round that is already confirmed and nothing is sent
  /// (counted in pdc.raft.lease_reads). Otherwise it stamps and
  /// broadcasts a new heartbeat round (read-index), confirmed once a
  /// quorum acks it.
  std::uint64_t begin_read_round();
  [[nodiscard]] std::uint64_t confirmed_round() const { return confirmed_round_; }
  /// Index of this term's no-op barrier entry (leader only). A new
  /// leader's commit index may lag the true committed prefix until the
  /// barrier commits (§8), so reads (lease or read-index) must wait for
  /// `last_applied() >= term_start_index()` before serving.
  [[nodiscard]] std::uint64_t term_start_index() const { return term_start_index_; }

  // ---------------------------------------------------- introspection
  [[nodiscard]] RaftRole role() const { return role_; }
  [[nodiscard]] std::uint64_t current_term() const { return storage_.current_term; }
  [[nodiscard]] int leader_hint() const { return leader_hint_; }
  [[nodiscard]] std::uint64_t commit_index() const { return commit_index_; }
  [[nodiscard]] std::uint64_t last_applied() const { return last_applied_; }
  [[nodiscard]] std::uint64_t last_index() const {
    return storage_.snapshot_index + storage_.log.size();
  }
  /// Term of `index` (0 for index 0). Checked: the index must not be
  /// compacted away or beyond the log.
  [[nodiscard]] std::uint64_t term_at(std::uint64_t index) const;
  /// Entry at `index`, or nullptr when compacted / beyond the log.
  [[nodiscard]] const RaftLogEntry* entry(std::uint64_t index) const;
  [[nodiscard]] std::uint64_t snapshots_installed() const {
    return snapshots_installed_;
  }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  // All six RPCs travel on one tag (dist-wide tag map: 2PC 40s, clock-sync
  // 60s, raft 70, kv 76/77), so a tick drains them in arrival order. The
  // first payload byte is the RPC kind: its index in drain_messages()'s
  // handler table.
  static constexpr int kTagRaft = 70;
  enum Rpc : std::uint8_t {
    kRequestVote, kVoteReply, kAppend, kAppendReply, kInstallSnapshot,
    kSnapshotReply,
  };

  void drain_messages();
  // Each handler reads its RPC's body; the kind byte is already consumed.
  void handle_request_vote(int src, wire::Reader& r);
  void handle_vote_reply(int src, wire::Reader& r);
  void handle_append(int src, wire::Reader& r);
  void handle_append_reply(int src, wire::Reader& r);
  void handle_install_snapshot(int src, wire::Reader& r);
  void handle_snapshot_reply(int src, wire::Reader& r);

  void start_election();
  void become_leader();
  void step_down(std::uint64_t term);
  void reset_election_timer();
  void broadcast_heartbeats();
  void replicate(int peer);
  void advance_commit();
  void apply_committed();
  void maybe_compact();
  void update_confirmed_round();
  /// An accepted AppendEntries/InstallSnapshot: records the gap since the
  /// previous one and restarts the vote-refusal window.
  void heard_from_leader();
  [[nodiscard]] bool lease_held() const;
  void drop_lease();
  void send(int dest, const std::vector<std::uint8_t>& payload);

  [[nodiscard]] int quorum() const { return comm_.size() / 2 + 1; }
  [[nodiscard]] int granted_votes() const {
    return static_cast<int>(
        std::count(vote_granted_.begin(), vote_granted_.end(), true));
  }
  void export_gauges();

  mp::Communicator& comm_;
  StateMachine& machine_;
  RaftPersistentState& storage_;
  RaftOptions options_;
  support::Rng rng_;

  RaftRole role_ = RaftRole::kFollower;
  int leader_hint_ = -1;
  std::uint64_t commit_index_ = 0;
  std::uint64_t last_applied_ = 0;
  ApplyListener listener_;

  // Candidate state: which ranks granted us a vote this election. A set
  // (not a counter) so duplicated VoteReply deliveries from the fault
  // injector stay idempotent — a candidate must count distinct voters.
  std::vector<bool> vote_granted_;

  // Leader state (reinitialized each term).
  std::vector<std::uint64_t> next_index_;
  std::vector<std::uint64_t> match_index_;
  std::vector<std::uint64_t> acked_round_;
  std::uint64_t round_ = 0;            // heartbeat round counter (this term)
  std::uint64_t confirmed_round_ = 0;  // highest quorum-acked round
  std::uint64_t term_start_index_ = 0; // index of this term's no-op barrier
  std::vector<std::pair<std::uint64_t, double>> submit_ms_;  // index -> submit time
  // Leader lease (§6.4.1), on the age_ clock. round_sent_ms_ holds the
  // send time of each round not yet confirmed and younger than a lease;
  // the lease runs from the newest confirmed one's send time (-1: none).
  std::deque<std::pair<std::uint64_t, double>> round_sent_ms_;
  double lease_start_ms_ = -1.0;

  /// Uncommitted traced entries (leader only, cleared like submit_ms_ on
  /// step-down): the replicate span ends when the entry commits; the
  /// submitted context parents the raft.apply span.
  struct TracedEntry {
    std::uint64_t index = 0;
    obs::SpanContext ctx;         // the submitter's span (parents apply)
    obs::ActiveSpan replicate;    // submit -> commit
  };
  std::vector<TracedEntry> traced_;

  RetryClock election_timer_;
  RetryClock heartbeat_timer_;
  RetryClock age_;  // time base for the commit-latency histogram and lease
  // Since the last accepted AppendEntries/InstallSnapshot, or since
  // construction: a rank ignores RequestVote while this reads below
  // refusal_window_ms_ (§4.2.3).
  RetryClock leader_contact_;
  double election_timeout_ms_ = 0.0;
  double refusal_window_ms_ = 0.0;  // W = election_timeout_min_ms / ρ
  double lease_ms_ = 0.0;           // W / ρ (unsafe variant: the full min)

  std::uint64_t snapshots_installed_ = 0;
  std::uint64_t messages_sent_ = 0;

  // Per-rank labeled series, cached once (see mp::Communicator's rank
  // counters for the pattern). Gauges are additive, so the last exported
  // value is kept to emit deltas.
  obs::Gauge* term_gauge_ = nullptr;      // pdc.raft.term{rank=}
  obs::Gauge* commit_gauge_ = nullptr;    // pdc.raft.commit_index{rank=}
  obs::Histogram* append_hist_ = nullptr; // pdc.raft.append_us{rank=}
  obs::Histogram* gap_hist_ = nullptr;    // pdc.raft.heartbeat_gap_us{rank=}
  std::int64_t exported_term_ = 0;
  std::int64_t exported_commit_ = 0;
};

}  // namespace pdc::dist

#include "dist/raft.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pdc::dist {

namespace {
/// A writer for one Raft message, its kind byte already written.
wire::Writer rpc(std::uint8_t kind) {
  wire::Writer w;
  w.u8(kind);
  return w;
}
}  // namespace

const char* to_string(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower: return "follower";
    case RaftRole::kCandidate: return "candidate";
    case RaftRole::kLeader: return "leader";
  }
  return "?";
}

RaftNode::RaftNode(mp::Communicator& comm, StateMachine& machine,
                   RaftPersistentState& storage, RaftOptions options)
    : comm_(comm), machine_(machine), storage_(storage), options_(options),
      rng_(options.seed ^ (0x9e3779b97f4a7c15ull *
                           static_cast<std::uint64_t>(comm.rank() + 1))),
      // W is shorter than the minimum election timeout: a candidate whose
      // timer fires at the minimum is still granted by a peer that heard
      // the last heartbeat, or started, up to min - W later. The lease is
      // W / ρ on the leader's clock, so it ends before the W of any voter
      // whose clock runs up to ρ times faster.
      refusal_window_ms_(options.election_timeout_min_ms / kLeaseClockDrift),
      lease_ms_(options.unsafe_lease_ignores_drift
                    ? options.election_timeout_min_ms
                    : refusal_window_ms_ / kLeaseClockDrift) {
  PDC_CHECK(options_.election_timeout_min_ms > 0.0 &&
            options_.election_timeout_max_ms >= options_.election_timeout_min_ms);
  PDC_CHECK(options_.heartbeat_ms > 0.0 && options_.max_entries_per_append > 0);
  if (storage_.snapshot_index > 0) {
    // Crash recovery: rebuild the state machine from the compaction
    // snapshot; entries after it are re-applied once a leader re-derives
    // the commit index (commit index is volatile state in Raft).
    machine_.restore(storage_.snapshot);
    commit_index_ = storage_.snapshot_index;
    last_applied_ = storage_.snapshot_index;
  }
  reset_election_timer();
  if constexpr (obs::kObsEnabled) {
    const std::string r = std::to_string(comm.rank());
    auto& registry = obs::MetricsRegistry::instance();
    term_gauge_ = &registry.gauge("pdc.raft.term", {{"rank", r}});
    commit_gauge_ = &registry.gauge("pdc.raft.commit_index", {{"rank", r}});
    append_hist_ = &registry.histogram("pdc.raft.append_us", {{"rank", r}});
    gap_hist_ = &registry.histogram("pdc.raft.heartbeat_gap_us", {{"rank", r}});
    // A rejoining node re-creates these series; roll the exported value
    // back to what the registry already holds so deltas stay consistent.
    exported_term_ = term_gauge_->value();
    exported_commit_ = commit_gauge_->value();
  }
}

void RaftNode::export_gauges() {
  if (term_gauge_ != nullptr) {
    const auto term = static_cast<std::int64_t>(storage_.current_term);
    if (term != exported_term_) {
      term_gauge_->add(term - exported_term_);
      exported_term_ = term;
    }
  }
  if (commit_gauge_ != nullptr) {
    const auto commit = static_cast<std::int64_t>(commit_index_);
    if (commit != exported_commit_) {
      commit_gauge_->add(commit - exported_commit_);
      exported_commit_ = commit;
    }
  }
}

std::uint64_t RaftNode::term_at(std::uint64_t index) const {
  if (index == 0) return 0;
  if (index == storage_.snapshot_index) return storage_.snapshot_term;
  PDC_CHECK_MSG(index > storage_.snapshot_index && index <= last_index(),
                "term_at: index compacted away or beyond the log");
  return storage_.log[static_cast<std::size_t>(index - storage_.snapshot_index - 1)].term;
}

const RaftLogEntry* RaftNode::entry(std::uint64_t index) const {
  if (index <= storage_.snapshot_index || index > last_index()) return nullptr;
  return &storage_.log[static_cast<std::size_t>(index - storage_.snapshot_index - 1)];
}

void RaftNode::reset_election_timer() {
  election_timer_.reset();
  election_timeout_ms_ = rng_.uniform(options_.election_timeout_min_ms,
                                      options_.election_timeout_max_ms);
}

void RaftNode::send(int dest, const std::vector<std::uint8_t>& payload) {
  comm_.send_vector(payload, dest, kTagRaft);
  ++messages_sent_;
}

void RaftNode::tick() {
  drain_messages();
  if (role_ == RaftRole::kLeader) {
    if (heartbeat_timer_.elapsed_millis() >= options_.heartbeat_ms) {
      broadcast_heartbeats();
    }
  } else if (election_timer_.elapsed_millis() >= election_timeout_ms_) {
    start_election();
  }
  export_gauges();
}

void RaftNode::drain_messages() {
  using Handler = void (RaftNode::*)(int, wire::Reader&);
  static constexpr Handler kHandlers[] = {  // indexed by Rpc
      &RaftNode::handle_request_vote,     &RaftNode::handle_vote_reply,
      &RaftNode::handle_append,           &RaftNode::handle_append_reply,
      &RaftNode::handle_install_snapshot, &RaftNode::handle_snapshot_reply,
  };
  static_assert(std::size(kHandlers) == kSnapshotReply + 1);
  while (auto message = comm_.try_take(mp::kAnySource, kTagRaft)) {
    const mp::Payload& payload = message->payload;
    // No kind byte, or one past the table: drop it rather than let a
    // peer's garbage index the handler table.
    if (payload.empty() || payload[0] >= std::size(kHandlers)) {
      PDC_OBS_COUNT("pdc.raft.malformed");
      continue;
    }
    wire::Reader r(payload);
    (this->*kHandlers[r.u8()])(message->envelope.source, r);
  }
}

void RaftNode::step_down(std::uint64_t term) {
  if (term > storage_.current_term) {
    storage_.current_term = term;
    storage_.voted_for = -1;  // a new term means a fresh vote
    // Whoever led the old term is deposed; handlers that hear from the
    // new leader (append, snapshot) re-set the hint right after. Keeping
    // the old hint would have an ex-leader redirect clients to itself.
    leader_hint_ = -1;
  }
  if (role_ != RaftRole::kFollower) {
    PDC_OBS_COUNT("pdc.raft.step_down");
    obs::trace_instant("raft.step_down", storage_.current_term);
  }
  role_ = RaftRole::kFollower;
  vote_granted_.clear();
  round_ = 0;
  confirmed_round_ = 0;
  drop_lease();
  term_start_index_ = 0;
  submit_ms_.clear();
  // Entries this node was replicating may still commit under the next
  // leader, but *this* replication attempt is over — close the spans as
  // errors so the traces survive tail sampling.
  for (TracedEntry& traced : traced_) {
    obs::span_end(traced.replicate, /*error=*/true);
  }
  traced_.clear();
  reset_election_timer();
}

void RaftNode::start_election() {
  ++storage_.current_term;
  storage_.voted_for = comm_.rank();
  role_ = RaftRole::kCandidate;
  vote_granted_.assign(static_cast<std::size_t>(comm_.size()), false);
  vote_granted_[static_cast<std::size_t>(comm_.rank())] = true;
  leader_hint_ = -1;
  reset_election_timer();
  PDC_OBS_COUNT("pdc.raft.elections");
  obs::trace_instant("raft.election", storage_.current_term);
  if (granted_votes() >= quorum()) {  // single-node cluster
    become_leader();
    return;
  }
  wire::Writer w = rpc(kRequestVote);
  w.u64(storage_.current_term);
  w.u64(last_index());
  w.u64(term_at(last_index()));
  const auto payload = w.take();
  for (int peer = 0; peer < comm_.size(); ++peer) {
    if (peer != comm_.rank()) send(peer, payload);
  }
}

void RaftNode::become_leader() {
  role_ = RaftRole::kLeader;
  leader_hint_ = comm_.rank();
  const auto p = static_cast<std::size_t>(comm_.size());
  next_index_.assign(p, last_index() + 1);
  match_index_.assign(p, 0);
  acked_round_.assign(p, 0);
  round_ = 0;
  confirmed_round_ = 0;
  drop_lease();
  PDC_OBS_COUNT("pdc.raft.leader_elected");
  obs::trace_instant("raft.elected", storage_.current_term);
  // Term-start no-op barrier entry (§8): commits — and therefore makes
  // visible to reads — every entry from previous terms without
  // waiting for client traffic.
  storage_.log.push_back(RaftLogEntry{storage_.current_term, {}});
  term_start_index_ = last_index();
  match_index_[static_cast<std::size_t>(comm_.rank())] = last_index();
  submit_ms_.emplace_back(last_index(), age_.elapsed_millis());
  if (options_.unsafe_early_commit) {
    commit_index_ = last_index();
  }
  advance_commit();
  apply_committed();
  broadcast_heartbeats();
}

std::optional<std::uint64_t> RaftNode::submit(std::vector<std::uint8_t> command,
                                              obs::SpanContext trace) {
  if (role_ != RaftRole::kLeader) return std::nullopt;
  storage_.log.push_back(RaftLogEntry{storage_.current_term, std::move(command)});
  const std::uint64_t index = last_index();
  match_index_[static_cast<std::size_t>(comm_.rank())] = index;
  submit_ms_.emplace_back(index, age_.elapsed_millis());
  if (trace.valid() && obs::span_enabled()) {
    TracedEntry traced;
    traced.index = index;
    traced.ctx = trace;
    traced.replicate = obs::span_begin("raft.replicate", trace);
    traced_.push_back(std::move(traced));
  }
  PDC_OBS_COUNT("pdc.raft.submitted");
  if (options_.unsafe_early_commit) {
    // The teaching bug: "commit" without a quorum. The entry is applied
    // and acknowledged now, yet a leader change can still truncate it.
    commit_index_ = index;
  }
  advance_commit();
  apply_committed();
  broadcast_heartbeats();
  return index;
}

std::uint64_t RaftNode::begin_read_round() {
  PDC_CHECK_MSG(role_ == RaftRole::kLeader,
                "read rounds are initiated by the leader");
  if (lease_held()) {
    PDC_OBS_COUNT("pdc.raft.lease_reads");
    return confirmed_round_;
  }
  broadcast_heartbeats();
  return round_;
}

bool RaftNode::lease_held() const {
  return lease_start_ms_ >= 0.0 &&
         age_.elapsed_millis() < lease_start_ms_ + lease_ms_;
}

void RaftNode::drop_lease() {
  round_sent_ms_.clear();
  lease_start_ms_ = -1.0;
}

void RaftNode::broadcast_heartbeats() {
  ++round_;
  heartbeat_timer_.reset();
  // A round sent a lease ago can no longer start a live lease, so an
  // isolated leader keeps at most a lease's worth of send times.
  const double now_ms = age_.elapsed_millis();
  while (!round_sent_ms_.empty() &&
         round_sent_ms_.front().second + lease_ms_ <= now_ms) {
    round_sent_ms_.pop_front();
  }
  round_sent_ms_.emplace_back(round_, now_ms);
  for (int peer = 0; peer < comm_.size(); ++peer) {
    if (peer != comm_.rank()) replicate(peer);
  }
  update_confirmed_round();  // single-node clusters confirm instantly
}

void RaftNode::replicate(int peer) {
  const auto p = static_cast<std::size_t>(peer);
  if (next_index_[p] <= storage_.snapshot_index) {
    // The follower's next entry was compacted away: ship the snapshot.
    wire::Writer w = rpc(kInstallSnapshot);
    w.u64(storage_.current_term);
    w.u64(storage_.snapshot_index);
    w.u64(storage_.snapshot_term);
    w.u64(round_);
    w.bytes(storage_.snapshot);
    send(peer, w.take());
    PDC_OBS_COUNT("pdc.raft.snapshot_sent");
    return;
  }
  const std::uint64_t prev = next_index_[p] - 1;
  const std::uint64_t first = next_index_[p];
  const std::uint64_t last =
      std::min(last_index(), first + options_.max_entries_per_append - 1);
  wire::Writer w = rpc(kAppend);
  w.u64(storage_.current_term);
  w.u64(prev);
  w.u64(term_at(prev));
  w.u64(commit_index_);
  w.u64(round_);
  const std::uint64_t n = last >= first ? last - first + 1 : 0;
  w.u64(n);
  for (std::uint64_t i = first; i < first + n; ++i) {
    const RaftLogEntry* e = entry(i);
    w.u64(e->term);
    w.bytes(e->command);
  }
  // Ship the first traced entry's replicate-span context as the ambient
  // scope: the envelope's piggyback carries it, so the follower's
  // raft.append span nests under raft.replicate in the request's trace.
  obs::SpanContext append_ctx{};
  if (obs::span_enabled()) {
    for (const TracedEntry& traced : traced_) {
      if (traced.index >= first && traced.index <= last) {
        append_ctx = traced.replicate.context();
        break;
      }
    }
  }
  obs::SpanScope scope(append_ctx.valid() ? append_ctx : obs::current_span());
  send(peer, w.take());
  PDC_OBS_COUNT("pdc.raft.append_sent");
}

void RaftNode::handle_request_vote(int src, wire::Reader& r) {
  // §4.2.3: within W of hearing from a leader (or of starting), ignore the
  // request outright: adopting its term would depose that leader, and a
  // vote could elect a second one while the first still holds its lease.
  // A restarted rank may have acked the lease-granting round just before
  // it crashed, hence the window from construction.
  if (leader_contact_.elapsed_millis() < refusal_window_ms_) return;
  const std::uint64_t term = r.u64();
  const std::uint64_t cand_last_index = r.u64();
  const std::uint64_t cand_last_term = r.u64();
  if (term > storage_.current_term) step_down(term);
  bool granted = false;
  if (term == storage_.current_term) {
    const std::uint64_t my_last_term = term_at(last_index());
    const bool up_to_date =
        cand_last_term > my_last_term ||
        (cand_last_term == my_last_term && cand_last_index >= last_index());
    if ((storage_.voted_for == -1 || storage_.voted_for == src) && up_to_date) {
      granted = true;
      storage_.voted_for = src;
      reset_election_timer();
    }
  }
  wire::Writer w = rpc(kVoteReply);
  w.u64(storage_.current_term);
  w.u8(granted ? 1 : 0);
  send(src, w.take());
}

void RaftNode::handle_vote_reply(int src, wire::Reader& r) {
  const std::uint64_t term = r.u64();
  const bool granted = r.u8() != 0;
  if (term > storage_.current_term) {
    step_down(term);
    return;
  }
  if (role_ != RaftRole::kCandidate || term != storage_.current_term || !granted) {
    return;
  }
  // Per-rank, not a counter: the fabric may deliver a duplicated copy of
  // this reply, and a double-counted voter would elect a leader without a
  // true majority (split brain).
  if (vote_granted_[static_cast<std::size_t>(src)]) return;
  vote_granted_[static_cast<std::size_t>(src)] = true;
  if (granted_votes() >= quorum()) become_leader();
}

void RaftNode::handle_append(int src, wire::Reader& r) {
  // Traced AppendEntries (stamped by the leader's replicate scope) get a
  // follower-side span; untraced ones make this a no-op guard.
  obs::SpanGuard append_span("raft.append", obs::take_incoming_span());
  const std::uint64_t term = r.u64();
  const std::uint64_t prev_index = r.u64();
  const std::uint64_t prev_term = r.u64();
  const std::uint64_t leader_commit = r.u64();
  const std::uint64_t round = r.u64();
  const std::uint64_t n = r.u64();

  auto reply = [&](bool success, std::uint64_t match_or_hint) {
    wire::Writer w = rpc(kAppendReply);
    w.u64(storage_.current_term);
    w.u8(success ? 1 : 0);
    w.u64(match_or_hint);
    w.u64(round);
    send(src, w.take());
  };

  if (term < storage_.current_term) {
    // Stale leader: our reply carries the higher term, deposing it.
    PDC_OBS_COUNT("pdc.raft.stale_append_rejected");
    reply(false, 0);
    return;
  }
  if (term == storage_.current_term && role_ == RaftRole::kLeader) {
    // Two leaders in one term would need two disjoint quorums; a message
    // claiming so is a protocol-violation artifact. Drop it loudly.
    PDC_OBS_COUNT("pdc.raft.anomaly");
    return;
  }
  step_down(term);
  leader_hint_ = src;
  reset_election_timer();
  heard_from_leader();

  if (prev_index > last_index()) {
    // Log gap: tell the leader where our log actually ends.
    reply(false, last_index() + 1);
    return;
  }
  if (prev_index >= storage_.snapshot_index && term_at(prev_index) != prev_term) {
    // Conflict at prev: leader backs up (consistency check, §5.3).
    PDC_OBS_COUNT("pdc.raft.append_conflict");
    reply(false, prev_index);
    return;
  }

  std::uint64_t index = prev_index;
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t entry_term = r.u64();
    auto command = r.bytes();
    ++index;
    if (index <= storage_.snapshot_index) continue;  // covered by snapshot
    if (index <= last_index()) {
      if (term_at(index) == entry_term) continue;  // already have it
      // Conflict: truncate our tail — it belongs to a deposed leader.
      storage_.log.resize(static_cast<std::size_t>(index - storage_.snapshot_index - 1));
      PDC_OBS_COUNT("pdc.raft.entries_truncated");
    }
    storage_.log.push_back(RaftLogEntry{entry_term, std::move(command)});
  }
  const std::uint64_t match = prev_index + n;
  // Everything up to `match` now provably equals the leader's log, so the
  // leader's commit index is safe to adopt up to there.
  if (leader_commit > commit_index_) {
    commit_index_ = std::max(commit_index_, std::min(leader_commit, match));
    apply_committed();
  }
  reply(true, match);
}

void RaftNode::handle_append_reply(int src, wire::Reader& r) {
  const std::uint64_t term = r.u64();
  const bool success = r.u8() != 0;
  const std::uint64_t match_or_hint = r.u64();
  const std::uint64_t round = r.u64();
  if (term > storage_.current_term) {
    step_down(term);
    return;
  }
  if (role_ != RaftRole::kLeader || term != storage_.current_term) return;
  const auto p = static_cast<std::size_t>(src);
  if (success) {
    match_index_[p] = std::max(match_index_[p], match_or_hint);
    next_index_[p] = std::max(next_index_[p], match_or_hint + 1);
    acked_round_[p] = std::max(acked_round_[p], round);
    advance_commit();
    apply_committed();
    update_confirmed_round();
    if (next_index_[p] <= last_index()) replicate(src);
  } else {
    // Back up; a hint of 0 means "you are stale", which step_down above
    // already handled via the term check — here it is just a floor.
    next_index_[p] = std::max<std::uint64_t>(
        1, std::min(next_index_[p], std::max<std::uint64_t>(match_or_hint, 1)));
    // A same-term rejection still proves the follower recognizes this
    // leader, so it counts toward read-round confirmation — otherwise
    // reads stall behind log repair.
    acked_round_[p] = std::max(acked_round_[p], round);
    update_confirmed_round();
    PDC_OBS_COUNT("pdc.raft.append_rejected");
    replicate(src);
  }
}

void RaftNode::handle_install_snapshot(int src, wire::Reader& r) {
  const std::uint64_t term = r.u64();
  const std::uint64_t snap_index = r.u64();
  const std::uint64_t snap_term = r.u64();
  const std::uint64_t round = r.u64();
  auto image = r.bytes();
  if (term < storage_.current_term) {
    wire::Writer w = rpc(kSnapshotReply);
    w.u64(storage_.current_term);
    w.u64(0);
    w.u64(round);
    send(src, w.take());
    return;
  }
  step_down(term);
  leader_hint_ = src;
  reset_election_timer();
  heard_from_leader();

  if (snap_index > last_applied_) {
    // Retain a suffix only when our entry at snap_index matches the
    // snapshot's last included term; otherwise the whole log is suspect.
    const bool keep_suffix = snap_index >= storage_.snapshot_index &&
                             snap_index <= last_index() &&
                             term_at(snap_index) == snap_term;
    if (keep_suffix) {
      storage_.log.erase(
          storage_.log.begin(),
          storage_.log.begin() +
              static_cast<std::ptrdiff_t>(snap_index - storage_.snapshot_index));
    } else {
      storage_.log.clear();
    }
    machine_.restore(image);
    storage_.snapshot = std::move(image);
    storage_.snapshot_index = snap_index;
    storage_.snapshot_term = snap_term;
    last_applied_ = snap_index;
    commit_index_ = std::max(commit_index_, snap_index);
    ++snapshots_installed_;
    PDC_OBS_COUNT("pdc.raft.snapshot_installed");
    obs::trace_instant("raft.snapshot_installed", snap_index);
    apply_committed();
  }
  wire::Writer w = rpc(kSnapshotReply);
  w.u64(storage_.current_term);
  w.u64(snap_index);
  w.u64(round);
  send(src, w.take());
}

void RaftNode::handle_snapshot_reply(int src, wire::Reader& r) {
  const std::uint64_t term = r.u64();
  const std::uint64_t snap_index = r.u64();
  const std::uint64_t round = r.u64();
  if (term > storage_.current_term) {
    step_down(term);
    return;
  }
  if (role_ != RaftRole::kLeader || term != storage_.current_term) return;
  const auto p = static_cast<std::size_t>(src);
  match_index_[p] = std::max(match_index_[p], snap_index);
  next_index_[p] = std::max(next_index_[p], snap_index + 1);
  // Like append replies, a snapshot ack proves leadership recognition.
  acked_round_[p] = std::max(acked_round_[p], round);
  update_confirmed_round();
  if (next_index_[p] <= last_index()) replicate(src);
}

void RaftNode::advance_commit() {
  if (role_ != RaftRole::kLeader) return;
  for (std::uint64_t n = last_index(); n > commit_index_; --n) {
    if (term_at(n) != storage_.current_term) break;  // Figure 8: only own term
    int count = 0;
    for (const std::uint64_t match : match_index_) {
      if (match >= n) ++count;
    }
    if (count >= quorum()) {
      commit_index_ = n;
      break;
    }
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    const std::uint64_t index = ++last_applied_;
    const RaftLogEntry* e = entry(index);
    PDC_CHECK_MSG(e != nullptr, "committed entry compacted before apply");
    const std::uint64_t entry_term = e->term;
    // Commit point for a traced entry: its raft.replicate span ends here,
    // and the apply below runs under a sibling raft.apply span (both
    // children of the submitted context, so critical-path attribution
    // separates replication wait from apply work).
    obs::SpanContext trace_ctx{};
    for (auto it = traced_.begin(); it != traced_.end(); ++it) {
      if (it->index == index) {
        trace_ctx = it->ctx;
        obs::span_end(it->replicate);
        traced_.erase(it);
        break;
      }
    }
    std::vector<std::uint8_t> reply;
    if (!e->command.empty()) {
      obs::ActiveSpan apply_span = obs::span_begin("raft.apply", trace_ctx);
      reply = machine_.apply(index, e->command);
      obs::span_end(apply_span);
      PDC_OBS_COUNT("pdc.raft.applied");
    }
    // The entry pointer may dangle after apply/compaction below — copy
    // what the listener needs first.
    const std::vector<std::uint8_t> command = e->command;
    if (!submit_ms_.empty() && append_hist_ != nullptr) {
      for (auto it = submit_ms_.begin(); it != submit_ms_.end(); ++it) {
        if (it->first == index) {
          append_hist_->record((age_.elapsed_millis() - it->second) * 1e3);
          submit_ms_.erase(it);
          break;
        }
      }
    }
    if (listener_) listener_(index, entry_term, command, reply);
    maybe_compact();
  }
  export_gauges();
}

void RaftNode::maybe_compact() {
  if (options_.snapshot_threshold == 0) return;
  if (storage_.log.size() <= options_.snapshot_threshold) return;
  if (last_applied_ <= storage_.snapshot_index) return;
  const std::uint64_t cut = last_applied_;
  const std::uint64_t cut_term = term_at(cut);
  storage_.snapshot = machine_.snapshot_image();
  storage_.log.erase(
      storage_.log.begin(),
      storage_.log.begin() +
          static_cast<std::ptrdiff_t>(cut - storage_.snapshot_index));
  storage_.snapshot_index = cut;
  storage_.snapshot_term = cut_term;
  PDC_OBS_COUNT("pdc.raft.compactions");
  obs::trace_instant("raft.compacted", cut);
}

void RaftNode::update_confirmed_round() {
  if (role_ != RaftRole::kLeader) return;
  std::vector<std::uint64_t> rounds = acked_round_;
  rounds[static_cast<std::size_t>(comm_.rank())] = round_;
  std::sort(rounds.begin(), rounds.end(), std::greater<>());
  confirmed_round_ =
      std::max(confirmed_round_, rounds[static_cast<std::size_t>(quorum() - 1)]);
  // The lease starts at the newest confirmed round's *send* time: every
  // voter that acked it heard from this leader no earlier than that.
  while (!round_sent_ms_.empty() &&
         round_sent_ms_.front().first <= confirmed_round_) {
    lease_start_ms_ = round_sent_ms_.front().second;
    round_sent_ms_.pop_front();
  }
}

void RaftNode::heard_from_leader() {
  if (gap_hist_ != nullptr) {
    gap_hist_->record(leader_contact_.elapsed_millis() * 1e3);
  }
  leader_contact_.reset();
}

}  // namespace pdc::dist

#include "dist/replicated_kv.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "testkit/hooks.hpp"

namespace pdc::dist {

const char* to_string(KvResult::Status status) {
  switch (status) {
    case KvResult::Status::kOk: return "ok";
    case KvResult::Status::kAbsent: return "absent";
    case KvResult::Status::kFailed: return "failed";
    case KvResult::Status::kTimeout: return "timeout";
  }
  return "?";
}

// ------------------------------------------------------------- KvMachine

std::vector<std::uint8_t> KvMachine::apply(
    std::uint64_t index, const std::vector<std::uint8_t>& command) {
  (void)index;
  wire::Reader r(command);
  const auto kind = r.u8();
  const std::int32_t client = r.i32();
  const std::uint64_t seq = r.u64();
  const std::string key = r.str();
  const std::string arg = r.str();
  const std::string expected = r.str();
  PDC_CHECK_MSG(r.done(), "trailing bytes in kv command");

  // Session dedup (§6.3): a retried command that already applied must not
  // apply twice — return the reply the first application produced.
  auto& session = sessions_[client];
  if (seq <= session.last_seq) {
    PDC_OBS_COUNT("pdc.kv.deduplicated");
    return session.reply;
  }

  wire::Writer w;
  if (kind == 1) {  // put
    data_[key] = arg;
    w.u8(1);  // ok
    w.str("");
  } else {  // cas
    auto it = data_.find(key);
    const bool swapped = it != data_.end() && it->second == expected;
    if (swapped) it->second = arg;
    w.u8(swapped ? 1 : 3);  // ok / failed
    w.str("");
  }
  session.last_seq = seq;
  session.reply = w.take();
  return session.reply;
}

std::vector<std::uint8_t> KvMachine::snapshot_image() {
  wire::Writer w;
  w.u64(data_.size());
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.str(value);
  }
  w.u64(sessions_.size());
  for (const auto& [client, session] : sessions_) {
    w.i32(client);
    w.u64(session.last_seq);
    w.bytes(session.reply);
  }
  return w.take();
}

void KvMachine::restore(const std::vector<std::uint8_t>& image) {
  data_.clear();
  sessions_.clear();
  if (image.empty()) return;  // empty image = empty store
  wire::Reader r(image);
  const std::uint64_t entries = r.u64();
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::string key = r.str();
    data_[key] = r.str();
  }
  const std::uint64_t clients = r.u64();
  for (std::uint64_t i = 0; i < clients; ++i) {
    const std::int32_t client = r.i32();
    auto& session = sessions_[client];
    session.last_seq = r.u64();
    session.reply = r.bytes();
  }
  PDC_CHECK_MSG(r.done(), "trailing bytes in kv snapshot");
}

// ----------------------------------------------------------- ReplicatedKV

ReplicatedKV::ReplicatedKV(mp::Communicator& comm, RaftPersistentState& storage,
                           KvConfig config)
    : comm_(comm), config_(config), raft_(comm, machine_, storage, config.raft),
      next_seq_(config.base_seq) {
  raft_.set_apply_listener(
      [this](std::uint64_t index, std::uint64_t term,
             const std::vector<std::uint8_t>& command,
             const std::vector<std::uint8_t>& reply) {
        on_applied(index, term, command, reply);
      });
}

void ReplicatedKV::step() {
  raft_.tick();
  serve_requests();
  if (!is_leader()) flush_pending_retry();
  resolve_reads();
}

void ReplicatedKV::serve_requests() {
  while (auto request = comm_.try_take(mp::kAnySource, kTagClientRequest)) {
    const int src = request->envelope.source;
    // The take parked the request's trace context (if any) in the incoming
    // slot; claim it now so it cannot leak onto an unrelated message.
    const obs::SpanContext incoming = obs::take_incoming_span();
    wire::Reader r(request->payload);
    const auto kind = static_cast<OpKind>(r.u8());
    const std::uint64_t seq = r.u64();
    const std::string key = r.str();
    const std::string arg = r.str();
    const std::string expected = r.str();
    PDC_OBS_COUNT("pdc.kv.requests");

    if (!is_leader()) {
      reply_to(src, seq, WireStatus::kRetry);
      continue;
    }
    if (kind == OpKind::kGet) {
      // Snapshot the commit index, then require a quorum-confirmed
      // heartbeat round before serving — proves this node was still the
      // leader after the read arrived. Under the lease that round is
      // already confirmed; otherwise begin_read_round() sends one
      // (read-index, §6.4). Floor the snapshot at the term-start barrier:
      // a fresh leader's commit index can lag the true committed prefix
      // until its no-op commits (Figure 8), and serving below the barrier
      // could miss an acknowledged write from a prior term.
      const std::uint64_t read_index =
          std::max(raft_.commit_index(), raft_.term_start_index());
      const std::uint64_t round = raft_.begin_read_round();
      pending_reads_.push_back(PendingRead{src, seq, key, read_index, round,
                                           obs::span_begin("server.drain",
                                                           incoming)});
      continue;
    }
    wire::Writer w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.i32(src);
    w.u64(seq);
    w.str(key);
    w.str(arg);
    w.str(expected);
    // Register the pending write under the index submit() will assign
    // BEFORE submitting: a synchronously-committing entry (single-node
    // cluster, unsafe_early_commit) fires the apply listener from inside
    // submit(), and the listener must find this record to send the reply.
    const std::uint64_t predicted = raft_.last_index() + 1;
    pending_writes_.push_back(
        PendingWrite{predicted, raft_.current_term(), src, seq,
                     obs::span_begin("server.drain", incoming)});
    const auto index =
        raft_.submit(w.take(), pending_writes_.back().span.context());
    if (!index) {
      obs::span_end(pending_writes_.back().span, /*error=*/true);
      pending_writes_.pop_back();
      reply_to(src, seq, WireStatus::kRetry);
      continue;
    }
    PDC_CHECK(*index == predicted);
  }
}

void ReplicatedKV::on_applied(std::uint64_t index, std::uint64_t term,
                              const std::vector<std::uint8_t>& command,
                              const std::vector<std::uint8_t>& reply) {
  (void)command;
  for (auto it = pending_writes_.begin(); it != pending_writes_.end(); ++it) {
    if (it->index != index) continue;
    if (it->term != term) {
      // A different entry (from a newer leader) landed at our index: the
      // submitted command was truncated away. Tell the client to retry.
      reply_to(it->client, it->seq, WireStatus::kRetry);
      obs::span_end(it->span, /*error=*/true);
    } else {
      wire::Reader r(reply);
      const auto status = static_cast<WireStatus>(r.u8());
      const std::string value = r.str();
      reply_to(it->client, it->seq, status, value);
      obs::span_end(it->span);
    }
    pending_writes_.erase(it);
    return;
  }
}

void ReplicatedKV::resolve_reads() {
  // FIFO: reads are answered in arrival order. A lease read queued
  // behind a read whose round is still out waits for it; that is safe,
  // since the lease proved leadership when it arrived and serving later
  // only reads a newer applied state.
  while (!pending_reads_.empty()) {
    PendingRead& read = pending_reads_.front();
    if (raft_.confirmed_round() < read.round ||
        raft_.last_applied() < read.read_index) {
      break;
    }
    const auto& data = machine_.data();
    const auto it = data.find(read.key);
    if (it != data.end()) {
      reply_to(read.client, read.seq, WireStatus::kOk, it->second);
    } else {
      reply_to(read.client, read.seq, WireStatus::kAbsent);
    }
    obs::span_end(read.span);
    PDC_OBS_COUNT("pdc.kv.reads_served");
    pending_reads_.pop_front();
  }
}

void ReplicatedKV::flush_pending_retry() {
  for (PendingWrite& w : pending_writes_) {
    reply_to(w.client, w.seq, WireStatus::kRetry);
    obs::span_end(w.span, /*error=*/true);
  }
  for (PendingRead& read : pending_reads_) {
    reply_to(read.client, read.seq, WireStatus::kRetry);
    obs::span_end(read.span, /*error=*/true);
  }
  pending_writes_.clear();
  pending_reads_.clear();
}

void ReplicatedKV::reply_to(int client, std::uint64_t seq, WireStatus status,
                            const std::string& value) {
  wire::Writer w;
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(status));
  w.i32(raft_.leader_hint());
  w.str(value);
  comm_.send_vector(w.take(), client, kTagClientReply);
}

KvResult ReplicatedKV::put(const std::string& key, const std::string& value) {
  return run_op(OpKind::kPut, key, value, "");
}

KvResult ReplicatedKV::get(const std::string& key) {
  return run_op(OpKind::kGet, key, "", "");
}

KvResult ReplicatedKV::cas(const std::string& key, const std::string& expected,
                           const std::string& desired) {
  return run_op(OpKind::kCas, key, desired, expected);
}

std::vector<obs::SloRule> ReplicatedKV::default_slo_rules(double window_scale,
                                                          double objective,
                                                          double put_p99_us) {
  return {
      obs::availability_slo("kv.availability", "pdc.kv.ops_ok", "pdc.kv.ops",
                            objective, window_scale),
      obs::latency_slo("kv.put.p99", "pdc.kv.put_us", 0.99, put_p99_us,
                       window_scale),
  };
}

KvResult ReplicatedKV::run_op(OpKind kind, const std::string& key,
                              const std::string& arg,
                              const std::string& expected) {
  const std::uint64_t seq = ++next_seq_;
  std::size_t ticket = 0;
  if (recorder_ != nullptr) {
    testkit::KvOp op;
    op.kind = kind == OpKind::kPut   ? testkit::KvOp::Kind::kPut
              : kind == OpKind::kGet ? testkit::KvOp::Kind::kGet
                                     : testkit::KvOp::Kind::kCas;
    op.key = key;
    op.arg = arg;
    op.expected = expected;
    op.client = comm_.rank();
    ticket = recorder_->invoke(std::move(op));
  }

  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(seq);
  w.str(key);
  w.str(arg);
  w.str(expected);
  const auto request = w.take();

  auto send_to = [&](int target) {
    comm_.send_vector(request, target, kTagClientRequest);
  };
  int target = raft_.leader_hint() >= 0 ? raft_.leader_hint() : comm_.rank();
  send_to(target);
  const std::uint64_t op_start_us = obs::kObsEnabled ? obs::now_us() : 0;

  RetryClock deadline;
  RetryClock retry;
  KvResult out;
  bool done = false;
  auto retarget = [&](int hint) {
    if (hint >= 0 && hint != target) {
      target = hint;
    } else {
      target = (target + 1) % comm_.size();  // probe the ring for a leader
    }
  };
  while (!done) {
    step();
    while (auto reply = comm_.try_take(mp::kAnySource, kTagClientReply)) {
      wire::Reader r(reply->payload);
      const std::uint64_t rseq = r.u64();
      const auto status = static_cast<WireStatus>(r.u8());
      const int hint = r.i32();
      std::string value = r.str();
      if (rseq != seq) continue;  // reply to an op we already gave up on
      if (status == WireStatus::kRetry) {
        retarget(hint);
        // A redirect hop pays one poll interval before the resend. During
        // a leaderless window followers bounce the client between each
        // other; free hops would ping-pong infinitely fast on the virtual
        // clock and starve the election timers that end the outage.
        testkit::poll_pause("kv.redirect", config_.poll_ms * 1e-3);
        send_to(target);
        retry.reset();
        PDC_OBS_COUNT("pdc.kv.redirects");
        continue;
      }
      out.status = status == WireStatus::kOk       ? KvResult::Status::kOk
                   : status == WireStatus::kAbsent ? KvResult::Status::kAbsent
                                                   : KvResult::Status::kFailed;
      out.value = std::move(value);
      done = true;
      break;
    }
    if (done) break;
    if (deadline.elapsed_millis() >= config_.op_timeout_ms) {
      out.status = KvResult::Status::kTimeout;
      PDC_OBS_COUNT("pdc.kv.timeouts");
      break;
    }
    if (retry.elapsed_millis() >= config_.retry_ms) {
      // Same seq on every resend: the session layer deduplicates, so a
      // retry landing after the original applied is harmless.
      retarget(raft_.leader_hint());
      send_to(target);
      retry.reset();
      PDC_OBS_COUNT("pdc.kv.retransmits");
    }
    testkit::poll_pause("kv.client", config_.poll_ms * 1e-3);
  }

  // SLO inputs: the good/total availability pair is pdc.kv.ops_ok over
  // pdc.kv.ops (kAbsent is a correct answer, not an error), and put
  // latency feeds the kv.put.p99 latency rule. Both counters tick at op
  // completion so a windowed good/total ratio never reads an in-flight
  // op as an error — at tight objectives that skew alone can breach the
  // fast burn window during perfectly healthy traffic.
  PDC_OBS_COUNT("pdc.kv.ops");
  if (out.status == KvResult::Status::kOk ||
      out.status == KvResult::Status::kAbsent) {
    PDC_OBS_COUNT("pdc.kv.ops_ok");
  }
  if (kind == OpKind::kPut) {
    PDC_OBS_HIST("pdc.kv.put_us", obs::now_us() - op_start_us);
  }

  if (recorder_ != nullptr) {
    if (out.status == KvResult::Status::kOk) {
      recorder_->complete(ticket, true,
                          kind == OpKind::kGet ? out.value : std::string{});
    } else if (out.status != KvResult::Status::kTimeout) {
      recorder_->complete(ticket, false);
    }
    // Timeout: the op stays pending — it may still apply later.
  }
  return out;
}

}  // namespace pdc::dist

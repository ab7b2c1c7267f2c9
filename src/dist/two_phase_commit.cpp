#include "dist/two_phase_commit.hpp"

#include <thread>
#include <vector>

#include "dist/retry_clock.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "testkit/hooks.hpp"

namespace pdc::dist {

namespace {
constexpr int kTagPrepare = 40;
constexpr int kTagVote = 41;
constexpr int kTagDecision = 42;
constexpr int kTagAck = 43;

// Retransmission cadence and bound. Retries make every protocol message
// survive a lossy fabric (testkit::FaultInjector); the bound keeps the
// coordinator's final ack-collection terminating even if a participant's
// ack is lost forever (two-generals: after kMaxRounds it presumes
// delivery).
constexpr double kRetryMillis = 2.0;
constexpr int kMaxRounds = 250;
}  // namespace

const char* to_string(TxnDecision d) {
  return d == TxnDecision::kCommitted ? "committed" : "aborted";
}

TpcStats run_2pc_coordinator(mp::Communicator& comm,
                             bool crash_before_decision) {
  PDC_CHECK_MSG(comm.rank() == 0, "coordinator must be rank 0");
  obs::set_trace_thread_name("2pc.coordinator", 0);
  obs::ScopedSpan txn("2pc.coordinator");
  TpcStats stats;
  const int p = comm.size();

  // Phase 1: solicit votes, retransmitting PREPARE to silent peers so a
  // dropped solicitation (or a dropped vote — participants re-vote until
  // they hear a decision) cannot wedge the protocol.
  std::vector<char> voted(static_cast<std::size_t>(p), 0);
  std::vector<char> votes(static_cast<std::size_t>(p), 0);
  int pending = p - 1;
  RetryClock retry;
  {
    obs::ScopedSpan phase("2pc.prepare");
    for (int peer = 1; peer < p; ++peer) {
      comm.send_value(char{1}, peer, kTagPrepare);
      ++stats.messages_sent;
      PDC_OBS_COUNT("pdc.2pc.prepare_sent");
    }
    while (pending > 0) {
      testkit::yield_point("2pc.coord.collect");
      for (int peer = 1; peer < p; ++peer) {
        if (voted[static_cast<std::size_t>(peer)]) continue;
        if (auto vote = comm.try_take(peer, kTagVote)) {
          votes[static_cast<std::size_t>(peer)] = vote->as<char>();
          voted[static_cast<std::size_t>(peer)] = 1;
          --pending;
        }
      }
      if (pending > 0 && retry.elapsed_millis() >= kRetryMillis) {
        for (int peer = 1; peer < p; ++peer) {
          if (voted[static_cast<std::size_t>(peer)]) continue;
          comm.send_value(char{1}, peer, kTagPrepare);
          ++stats.messages_sent;
          PDC_OBS_COUNT("pdc.2pc.prepare_sent");
          PDC_OBS_COUNT("pdc.2pc.retransmit");
        }
        retry.reset();
      }
      testkit::poll_pause("2pc.coord.collect");
    }
  }
  bool all_commit = true;
  for (int peer = 1; peer < p; ++peer) {
    all_commit &= votes[static_cast<std::size_t>(peer)] != 0;
  }

  if (crash_before_decision) {
    // The injected failure: votes collected, decision never sent. The
    // "recovered" coordinator must abort (it cannot know whether any
    // participant already presumed abort).
    stats.decision = TxnDecision::kAborted;
    obs::trace_instant("2pc.coordinator_crash");
    PDC_OBS_COUNT("pdc.2pc.abort");
    return stats;
  }

  // Phase 2: distribute the decision until every participant acknowledges
  // it (bounded rounds; see kMaxRounds above).
  stats.decision = all_commit ? TxnDecision::kCommitted : TxnDecision::kAborted;
  if (stats.decision == TxnDecision::kCommitted) {
    obs::trace_instant("2pc.decide_commit");
    PDC_OBS_COUNT("pdc.2pc.commit");
  } else {
    obs::trace_instant("2pc.decide_abort");
    PDC_OBS_COUNT("pdc.2pc.abort");
  }
  obs::ScopedSpan phase("2pc.decide");
  const char wire = stats.decision == TxnDecision::kCommitted ? 1 : 0;
  std::vector<char> acked(static_cast<std::size_t>(p), 0);
  pending = p - 1;
  for (int round = 0; pending > 0 && round < kMaxRounds; ++round) {
    testkit::yield_point("2pc.coord.decide");
    for (int peer = 1; peer < p; ++peer) {
      if (acked[static_cast<std::size_t>(peer)]) continue;
      comm.send_value(wire, peer, kTagDecision);
      ++stats.messages_sent;
      PDC_OBS_COUNT("pdc.2pc.decision_sent");
      if (round > 0) PDC_OBS_COUNT("pdc.2pc.retransmit");
    }
    retry.reset();
    while (pending > 0 && retry.elapsed_millis() < kRetryMillis) {
      for (int peer = 1; peer < p; ++peer) {
        if (acked[static_cast<std::size_t>(peer)]) continue;
        if (comm.try_take(peer, kTagAck)) {
          acked[static_cast<std::size_t>(peer)] = 1;
          --pending;
        }
      }
      testkit::poll_pause("2pc.coord.decide");
    }
  }
  return stats;
}

TpcStats run_2pc_participant(mp::Communicator& comm, bool vote_commit,
                             std::chrono::milliseconds decision_timeout) {
  PDC_CHECK_MSG(comm.rank() != 0, "participants are ranks 1..p-1");
  obs::set_trace_thread_name("2pc.participant",
                             static_cast<std::uint64_t>(comm.rank()));
  obs::ScopedSpan txn("2pc.participant",
                      static_cast<std::uint64_t>(comm.rank()));
  TpcStats stats;

  (void)comm.recv_value<char>(0, kTagPrepare);
  comm.send_value(static_cast<char>(vote_commit ? 1 : 0), 0, kTagVote);
  ++stats.messages_sent;
  PDC_OBS_COUNT("pdc.2pc.vote_sent");

  // Await the decision; re-vote on a retry cadence (our vote may have been
  // lost); presume abort on timeout (termination protocol).
  obs::ScopedSpan phase("2pc.await_decision");
  RetryClock clock;
  RetryClock retry;
  for (;;) {
    testkit::yield_point("2pc.part.await");
    if (auto decision = comm.try_take(0, kTagDecision)) {
      const char wire = decision->as<char>();
      stats.decision = wire != 0 ? TxnDecision::kCommitted : TxnDecision::kAborted;
      obs::trace_instant(stats.decision == TxnDecision::kCommitted
                             ? "2pc.learned_commit"
                             : "2pc.learned_abort");
      comm.send_value(char{1}, 0, kTagAck);
      ++stats.messages_sent;
      PDC_OBS_COUNT("pdc.2pc.ack_sent");
      // Linger briefly, re-acking retransmitted decisions: our ack may be
      // lost, and once we return nobody answers the coordinator.
      RetryClock quiet;
      while (quiet.elapsed_millis() < 5.0 * kRetryMillis) {
        if (comm.try_take(0, kTagDecision)) {
          comm.send_value(char{1}, 0, kTagAck);
          ++stats.messages_sent;
          PDC_OBS_COUNT("pdc.2pc.ack_sent");
          PDC_OBS_COUNT("pdc.2pc.retransmit");
          quiet.reset();
        }
        testkit::poll_pause("2pc.part.quiet");
      }
      return stats;
    }
    if (clock.elapsed_millis() >= static_cast<double>(decision_timeout.count())) {
      stats.decision = TxnDecision::kAborted;
      stats.timed_out = true;
      obs::trace_instant("2pc.presumed_abort");
      PDC_OBS_COUNT("pdc.2pc.timeout");
      PDC_OBS_COUNT("pdc.2pc.abort");
      return stats;
    }
    if (retry.elapsed_millis() >= kRetryMillis) {
      comm.send_value(static_cast<char>(vote_commit ? 1 : 0), 0, kTagVote);
      ++stats.messages_sent;
      PDC_OBS_COUNT("pdc.2pc.vote_sent");
      PDC_OBS_COUNT("pdc.2pc.retransmit");
      retry.reset();
    }
    testkit::poll_pause("2pc.part.await");
  }
}

}  // namespace pdc::dist

#include "dist/election.hpp"

#include <thread>

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "testkit/hooks.hpp"

namespace pdc::dist {

namespace {
constexpr int kTagElect = 20;
constexpr int kTagCoord = 21;
constexpr int kTagElection = 30;
constexpr int kTagOk = 31;
constexpr int kTagCoordinator = 32;

int next_alive(const std::vector<bool>& alive, int from) {
  const int p = static_cast<int>(alive.size());
  for (int step = 1; step <= p; ++step) {
    const int candidate = (from + step) % p;
    if (alive[static_cast<std::size_t>(candidate)]) return candidate;
  }
  PDC_CHECK_MSG(false, "no alive rank in the ring");
  return -1;
}
}  // namespace

ElectionResult ring_election(mp::Communicator& comm,
                             const std::vector<bool>& alive, bool initiate) {
  PDC_CHECK(static_cast<int>(alive.size()) == comm.size());
  ElectionResult result;
  const int me = comm.rank();
  if (!alive[static_cast<std::size_t>(me)]) return result;  // dead: not playing
  obs::set_trace_thread_name("election.rank", static_cast<std::uint64_t>(me));
  obs::ScopedSpan span("election.ring", static_cast<std::uint64_t>(me));

  const int successor = next_alive(alive, me);
  bool participated = false;

  if (initiate) {
    comm.send_value(me, successor, kTagElect);
    ++result.messages_sent;
    PDC_OBS_COUNT("pdc.election.messages");
    participated = true;
  }

  for (;;) {
    testkit::yield_point("ring_election.pump");
    const mp::Message message = comm.take(mp::kAnySource, mp::kAnyTag);
    if (message.envelope.tag == kTagElect) {
      const int candidate = message.as<int>();
      if (candidate == me) {
        // My own id came all the way around: I have the highest id.
        result.leader = me;
        comm.send_value(me, successor, kTagCoord);
        ++result.messages_sent;
        PDC_OBS_COUNT("pdc.election.messages");
        obs::trace_instant("election.elected", static_cast<std::uint64_t>(me));
        PDC_OBS_COUNT("pdc.election.won");
        return result;
      }
      if (candidate > me) {
        comm.send_value(candidate, successor, kTagElect);
        ++result.messages_sent;
        PDC_OBS_COUNT("pdc.election.messages");
        participated = true;
      } else if (!participated) {
        // Replace the weaker candidacy with my own.
        comm.send_value(me, successor, kTagElect);
        ++result.messages_sent;
        PDC_OBS_COUNT("pdc.election.messages");
        participated = true;
      }
      // candidate < me && participated: swallow (my candidacy is ahead).
    } else if (message.envelope.tag == kTagCoord) {
      const int leader = message.as<int>();
      result.leader = leader;
      if (leader != me) {
        comm.send_value(leader, successor, kTagCoord);
        ++result.messages_sent;
        PDC_OBS_COUNT("pdc.election.messages");
      }
      obs::trace_instant("election.elected",
                         static_cast<std::uint64_t>(leader));
      return result;
    } else {
      PDC_CHECK_MSG(false, "unexpected tag in ring_election");
    }
  }
}

ElectionResult bully_election(mp::Communicator& comm,
                              const std::vector<bool>& alive, int initiator,
                              std::chrono::milliseconds timeout) {
  PDC_CHECK(static_cast<int>(alive.size()) == comm.size());
  ElectionResult result;
  const int me = comm.rank();
  const int p = comm.size();
  if (!alive[static_cast<std::size_t>(me)]) return result;
  obs::set_trace_thread_name("election.rank", static_cast<std::uint64_t>(me));
  obs::ScopedSpan span("election.bully", static_cast<std::uint64_t>(me));

  bool electing = me == initiator;
  int retries = 0;

  auto broadcast_victory = [&] {
    for (int peer = 0; peer < p; ++peer) {
      if (peer == me) continue;
      comm.send_value(me, peer, kTagCoordinator);
      ++result.messages_sent;
      PDC_OBS_COUNT("pdc.election.messages");
    }
    result.leader = me;
    obs::trace_instant("election.elected", static_cast<std::uint64_t>(me));
    PDC_OBS_COUNT("pdc.election.won");
  };

  auto challenge_higher = [&] {
    int sent = 0;
    for (int peer = me + 1; peer < p; ++peer) {
      comm.send_value(me, peer, kTagElection);
      ++result.messages_sent;
      PDC_OBS_COUNT("pdc.election.messages");
      ++sent;
    }
    return sent;
  };

  // Pump handling shared by all wait states. Returns true when a
  // coordinator announcement ended the election.
  auto drain_one = [&](const mp::Message& message, bool* saw_ok) {
    const int tag = message.envelope.tag;
    if (tag == kTagElection) {
      const int challenger = message.as<int>();
      comm.send_value(me, challenger, kTagOk);
      ++result.messages_sent;
      PDC_OBS_COUNT("pdc.election.messages");
      electing = true;  // a lower rank is electing: I must bully upward too
      return false;
    }
    if (tag == kTagOk) {
      if (saw_ok) *saw_ok = true;
      return false;
    }
    if (tag == kTagCoordinator) {
      result.leader = message.as<int>();
      obs::trace_instant("election.elected",
                         static_cast<std::uint64_t>(result.leader));
      return true;
    }
    PDC_CHECK_MSG(false, "unexpected tag in bully_election");
    return false;
  };

  for (;;) {
    testkit::yield_point("bully.pump");
    if (electing) {
      electing = false;
      if (challenge_higher() == 0) {
        broadcast_victory();
        return result;
      }
      // Wait for any OK (a live superior) within the timeout.
      bool saw_ok = false;
      support::Stopwatch clock;
      while (clock.elapsed_millis() < static_cast<double>(timeout.count())) {
        if (auto message = comm.try_take(mp::kAnySource, mp::kAnyTag)) {
          if (drain_one(*message, &saw_ok)) return result;
          if (saw_ok) break;
        } else {
          std::this_thread::yield();
        }
      }
      if (!saw_ok) {
        broadcast_victory();
        return result;
      }
      // A superior took over: await its coordinator announcement, bounded.
      support::Stopwatch coord_clock;
      const double coord_budget =
          static_cast<double>(timeout.count()) * (p + 2);
      while (coord_clock.elapsed_millis() < coord_budget) {
        if (auto message = comm.try_take(mp::kAnySource, mp::kAnyTag)) {
          if (drain_one(*message, nullptr)) return result;
        } else {
          std::this_thread::yield();
        }
      }
      PDC_CHECK_MSG(++retries < 5, "bully election failed to converge");
      electing = true;  // superior vanished: restart
      continue;
    }

    // Passive: serve challenges until a coordinator emerges (or a
    // challenge flips us into electing mode).
    if (auto message = comm.try_take(mp::kAnySource, mp::kAnyTag)) {
      if (drain_one(*message, nullptr)) return result;
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace pdc::dist

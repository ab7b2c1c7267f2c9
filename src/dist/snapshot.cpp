#include "dist/snapshot.hpp"

#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pdc::dist {

namespace {
constexpr int kTagTraffic = 50;  // one tag for tokens AND markers: a channel
                                 // is FIFO across both, as the algorithm
                                 // requires
constexpr int kTagDone = 51;

struct TrafficMsg {
  std::uint8_t is_marker;
  std::int64_t amount;
};
}  // namespace

SnapshotResult run_token_snapshot(mp::Communicator& comm,
                                  std::int64_t initial_tokens,
                                  std::size_t sends, bool initiator,
                                  std::uint64_t seed) {
  PDC_CHECK(initial_tokens >= 0);
  const int p = comm.size();
  const int me = comm.rank();
  support::Rng rng(seed + static_cast<std::uint64_t>(me) * 7919);
  obs::set_trace_thread_name("snapshot.rank", static_cast<std::uint64_t>(me));
  obs::ScopedSpan span("snapshot.run", static_cast<std::uint64_t>(me));

  SnapshotResult result;
  std::int64_t tokens = initial_tokens;
  bool recorded = false;
  // recording[c]: inbound channel from rank c is being recorded.
  std::vector<bool> recording(static_cast<std::size_t>(p), false);
  int open_channels = 0;
  std::size_t sends_done = 0;
  bool done_sent = false;
  int done_received = 0;

  auto record_state = [&](int skip_channel) {
    recorded = true;
    result.recorded_local = tokens;
    obs::trace_instant("snapshot.record_state",
                       static_cast<std::uint64_t>(tokens));
    for (int c = 0; c < p; ++c) {
      if (c == me || c == skip_channel) continue;
      recording[static_cast<std::size_t>(c)] = true;
      ++open_channels;
    }
    const TrafficMsg marker{1, 0};
    for (int peer = 0; peer < p; ++peer) {
      if (peer == me) continue;
      comm.send_value(marker, peer, kTagTraffic);
      ++result.markers_sent;
      PDC_OBS_COUNT("pdc.snapshot.markers");
    }
    if (open_channels == 0) obs::trace_instant("snapshot.complete");
  };

  auto snapshot_complete = [&] { return recorded && open_channels == 0; };

  auto handle_pending = [&] {
    bool handled = false;
    while (auto message = comm.try_take(mp::kAnySource, mp::kAnyTag)) {
      handled = true;
      if (message->envelope.tag == kTagDone) {
        ++done_received;
        continue;
      }
      const int src = message->envelope.source;
      const auto msg = message->as<TrafficMsg>();
      if (msg.is_marker) {
        if (!recorded) {
          // First marker: record state; the delivering channel is empty.
          record_state(src);
        } else if (recording[static_cast<std::size_t>(src)]) {
          recording[static_cast<std::size_t>(src)] = false;
          --open_channels;
          if (recorded && open_channels == 0) {
            obs::trace_instant("snapshot.complete");
          }
        }
      } else {
        tokens += msg.amount;
        if (recorded && recording[static_cast<std::size_t>(src)]) {
          result.recorded_in_flight += msg.amount;
        }
      }
    }
    return handled;
  };

  while (sends_done < sends || !snapshot_complete() ||
         done_received < p - 1 || !done_sent) {
    const bool handled = handle_pending();

    if (p > 1 && sends_done < sends) {
      if (initiator && !recorded && sends_done >= sends / 2) {
        record_state(/*skip_channel=*/-1);
      }
      if (tokens > 0) {
        int peer = static_cast<int>(rng.index(static_cast<std::size_t>(p)));
        if (peer == me) peer = (peer + 1) % p;
        --tokens;
        comm.send_value(TrafficMsg{0, 1}, peer, kTagTraffic);
      }
      ++sends_done;  // a send attempt with no tokens is a skipped turn
      continue;
    }
    if (p == 1) {
      // Degenerate single-process world: snapshot is just the local state.
      if (!recorded) record_state(-1);
      sends_done = sends;
    }

    if (sends_done >= sends && snapshot_complete() && !done_sent) {
      for (int peer = 0; peer < p; ++peer) {
        if (peer == me) continue;
        comm.send_value(char{1}, peer, kTagDone);
      }
      done_sent = true;
      continue;
    }
    if (!handled) std::this_thread::yield();
  }

  result.final_tokens = tokens;
  PDC_OBS_COUNT("pdc.snapshot.recorded_in_flight",
                static_cast<std::uint64_t>(result.recorded_in_flight));
  return result;
}

}  // namespace pdc::dist

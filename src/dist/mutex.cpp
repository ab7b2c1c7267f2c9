#include "dist/mutex.hpp"

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "testkit/hooks.hpp"

namespace pdc::dist {

RicartAgrawala::RicartAgrawala(mp::Communicator& comm) : comm_(comm) {
  obs::set_trace_thread_name("mutex.rank",
                             static_cast<std::uint64_t>(comm.rank()));
}

bool RicartAgrawala::theirs_wins(const RequestMsg& theirs) const {
  if (!requesting_) return true;  // I don't want it: always grant
  if (theirs.timestamp != my_timestamp_) {
    return theirs.timestamp < my_timestamp_;
  }
  return theirs.rank < comm_.rank();  // rank breaks timestamp ties
}

void RicartAgrawala::pump_one() {
  testkit::yield_point("ra.pump");
  // Wildcard take keeps per-sender FIFO order across message kinds.
  const mp::Message message = comm_.take(mp::kAnySource, mp::kAnyTag);
  switch (message.envelope.tag) {
    case kTagRequest: {
      const auto request = message.as<RequestMsg>();
      clock_.merge(request.timestamp);
      if (theirs_wins(request)) {
        comm_.send_value(char{1}, request.rank, kTagReply);
        ++messages_sent_;
        PDC_OBS_COUNT("pdc.mutex.replies");
      } else {
        deferred_.push_back(request.rank);
        PDC_OBS_COUNT("pdc.mutex.deferred");
      }
      return;
    }
    case kTagReply:
      --replies_pending_;
      return;
    case kTagDone:
      ++done_received_;
      return;
    default:
      PDC_CHECK_MSG(false, "unexpected message tag in RicartAgrawala");
  }
}

void RicartAgrawala::enter() {
  testkit::yield_point("ra.enter");
  PDC_CHECK_MSG(!requesting_, "enter() while already holding/awaiting the CS");
  obs::ScopedSpan span("mutex.acquire",
                       static_cast<std::uint64_t>(comm_.rank()));
  requesting_ = true;
  my_timestamp_ = clock_.tick();
  const RequestMsg request{my_timestamp_, comm_.rank()};
  replies_pending_ = comm_.size() - 1;
  for (int peer = 0; peer < comm_.size(); ++peer) {
    if (peer == comm_.rank()) continue;
    comm_.send_value(request, peer, kTagRequest);
    ++messages_sent_;
    PDC_OBS_COUNT("pdc.mutex.requests");
  }
  while (replies_pending_ > 0) pump_one();
  obs::trace_instant("mutex.enter", static_cast<std::uint64_t>(my_timestamp_));
}

void RicartAgrawala::leave() {
  testkit::yield_point("ra.leave");
  PDC_CHECK_MSG(requesting_, "leave() without enter()");
  requesting_ = false;
  obs::trace_instant("mutex.release");
  for (int peer : deferred_) {
    comm_.send_value(char{1}, peer, kTagReply);
    ++messages_sent_;
    PDC_OBS_COUNT("pdc.mutex.replies");
  }
  deferred_.clear();
}

void RicartAgrawala::finish() {
  for (int peer = 0; peer < comm_.size(); ++peer) {
    if (peer == comm_.rank()) continue;
    comm_.send_value(char{1}, peer, kTagDone);
    ++messages_sent_;
  }
  // Keep serving requests until everyone announced completion; per-sender
  // FIFO guarantees no request can arrive after its sender's DONE.
  while (done_received_ < comm_.size() - 1) pump_one();
}

std::uint64_t run_token_ring(mp::Communicator& comm, std::size_t entries,
                             const std::function<void()>& critical_section) {
  constexpr int kTagToken = 10;
  constexpr std::uint64_t kStop = UINT64_MAX;

  const int p = comm.size();
  const int next = (comm.rank() + 1) % p;
  obs::set_trace_thread_name("mutex.rank",
                             static_cast<std::uint64_t>(comm.rank()));
  obs::ScopedSpan span("mutex.token_ring",
                       static_cast<std::uint64_t>(comm.rank()));
  const std::uint64_t total_needed = static_cast<std::uint64_t>(p) * entries;
  std::size_t mine_left = entries;
  std::uint64_t hops = 0;

  if (p == 1) {
    for (std::size_t i = 0; i < entries; ++i) critical_section();
    return 0;
  }

  // Token value = critical sections completed so far. Rank 0 mints it.
  std::uint64_t token = 0;
  bool holding = comm.rank() == 0;
  for (;;) {
    testkit::yield_point("token_ring.hop");
    if (!holding) {
      token = comm.recv_value<std::uint64_t>((comm.rank() - 1 + p) % p, kTagToken);
      if (token == kStop) {
        // Forward the stop marker once, then leave the ring.
        comm.send_value(kStop, next, kTagToken);
        ++hops;
        PDC_OBS_COUNT("pdc.mutex.token_hops", hops);
        return hops;
      }
    }
    holding = false;
    if (mine_left > 0) {
      critical_section();
      --mine_left;
      ++token;
    }
    if (token == total_needed) {
      comm.send_value(kStop, next, kTagToken);
      ++hops;
      PDC_OBS_COUNT("pdc.mutex.token_hops", hops);
      return hops;  // originator exits; the marker circles the ring once
    }
    comm.send_value(token, next, kTagToken);
    ++hops;
  }
}

}  // namespace pdc::dist

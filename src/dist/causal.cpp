#include "dist/causal.hpp"

#include "support/check.hpp"

namespace pdc::dist {

CausalOrderBuffer::CausalOrderBuffer(std::size_t processes, std::size_t self)
    : self_(self), seen_(processes, 0) {
  PDC_CHECK(self < processes);
}

std::vector<std::uint64_t> CausalOrderBuffer::stamp_send() {
  ++seen_[self_];  // own broadcasts are "delivered" locally at send time
  return seen_;
}

bool CausalOrderBuffer::deliverable(const CausalMessage& message) const {
  const auto sender = static_cast<std::size_t>(message.source);
  PDC_CHECK(message.stamp.size() == seen_.size());
  if (message.stamp[sender] != seen_[sender] + 1) return false;  // FIFO gap
  for (std::size_t k = 0; k < seen_.size(); ++k) {
    if (k == sender) continue;
    if (message.stamp[k] > seen_[k]) return false;  // causal past missing
  }
  return true;
}

void CausalOrderBuffer::mark_delivered(const CausalMessage& message) {
  seen_[static_cast<std::size_t>(message.source)] += 1;
}

std::vector<CausalMessage> CausalOrderBuffer::offer(CausalMessage message) {
  pending_.push_back(std::move(message));
  std::vector<CausalMessage> released;
  // Repeatedly sweep: one delivery can unblock others.
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (deliverable(pending_[i])) {
        mark_delivered(pending_[i]);
        released.push_back(std::move(pending_[i]));
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
        break;
      }
    }
  }
  return released;
}

CausalBroadcast::CausalBroadcast(mp::Communicator& comm)
    : comm_(comm),
      buffer_(static_cast<std::size_t>(comm.size()),
              static_cast<std::size_t>(comm.rank())) {}

void CausalBroadcast::broadcast(std::int64_t payload) {
  const auto stamp = buffer_.stamp_send();
  // Wire format: payload followed by the stamp.
  std::vector<std::int64_t> wire;
  wire.push_back(payload);
  for (std::uint64_t v : stamp) wire.push_back(static_cast<std::int64_t>(v));
  for (int peer = 0; peer < comm_.size(); ++peer) {
    if (peer == comm_.rank()) continue;
    comm_.send_vector(wire, peer, kTagCausal);
  }
}

std::vector<CausalMessage> CausalBroadcast::poll() {
  std::vector<CausalMessage> delivered;
  while (auto taken = comm_.try_take(mp::kAnySource, kTagCausal)) {
    const auto wire = taken->as_vector<std::int64_t>();
    PDC_CHECK(wire.size() == 1 + static_cast<std::size_t>(comm_.size()));
    CausalMessage message;
    message.source = taken->envelope.source;
    message.payload = wire[0];
    message.stamp.assign(wire.begin() + 1, wire.end());
    auto released = buffer_.offer(std::move(message));
    delivered.insert(delivered.end(), released.begin(), released.end());
  }
  return delivered;
}

}  // namespace pdc::dist

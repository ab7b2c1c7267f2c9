#include "mp/comm.hpp"

#include <algorithm>
#include <chrono>

#include "obs/obs.hpp"
#include "testkit/fault_injector.hpp"
#include "testkit/hooks.hpp"

namespace pdc::mp {

namespace detail {

void Fabric::deliver(std::size_t box, Message message, int src) {
  // Collective/internal contexts (odd) and un-instrumented fabrics take
  // the direct path.
  if (!injector || message.envelope.context % 2 != 0) {
    boxes[box]->deliver(std::move(message));
    return;
  }
  const testkit::FaultDecision decision =
      injector->next(src, static_cast<int>(box));
  if (decision.drop) PDC_OBS_COUNT("pdc.mp.dropped");
  if (decision.copies > 1) PDC_OBS_COUNT("pdc.mp.duplicated");
  if (decision.reordered) PDC_OBS_COUNT("pdc.mp.reordered");
  std::vector<HeldMessage> due;
  {
    std::scoped_lock lock(held_mutex_);
    // Age previously held (reordered) messages first so the current one
    // cannot release itself.
    for (auto it = held_.begin(); it != held_.end();) {
      if (--it->remaining <= 0) {
        due.push_back(std::move(*it));
        it = held_.erase(it);
      } else {
        ++it;
      }
    }
    if (!decision.drop && decision.reordered) {
      held_.push_back(HeldMessage{box, std::move(message),
                                  injector->config().reorder_after});
    }
  }
  if (!decision.drop && !decision.reordered) {
    for (std::size_t copy = 1; copy < decision.copies; ++copy) {
      boxes[box]->deliver(message);  // duplicate: deliver a copy first
    }
    boxes[box]->deliver(std::move(message));
  }
  for (auto& held : due) {
    boxes[held.box]->deliver(std::move(held.message));
  }
}

}  // namespace detail

std::optional<Message> Communicator::try_take(int source, int tag) {
  auto message = mailbox().try_match(user_context_, source, tag);
  if (message) accept(*message);
  return message;
}

Message Communicator::receive(std::uint32_t context, int source, int tag) {
  Message message = mailbox().match(context, source, tag);
  accept(message);
  return message;
}

void Communicator::accept(const Message& message) {
  PDC_OBS_COUNT("pdc.mp.received");
  if (rank_received_ != nullptr) rank_received_->inc();
  obs::wire_accept(message.envelope.trace, "mp.recv",
                   static_cast<std::uint64_t>(message.envelope.source),
                   message.payload.size());
}

double Communicator::wtime() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Communicator::barrier() {
  const int p = size();
  char token = 0;
  int round = 0;
  // Dissemination: in round k each rank signals rank+2^k and waits for
  // rank-2^k; after ceil(log2 p) rounds every rank transitively heard from
  // every other.
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    coll_send(&token, 1, (rank_ + dist) % p, kTagBarrier + round);
    coll_recv(&token, 1, (rank_ - dist + p) % p, kTagBarrier + round);
  }
}

Communicator Communicator::split(int color, int key) {
  const int p = size();
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  // Gather everyone's (color, key) at rank 0.
  std::vector<Entry> entries(static_cast<std::size_t>(p));
  const Entry mine{color, key, rank_};
  gather(&mine, entries.data(), 1, 0);

  // Assignment message sent back to each rank: its new context, its new
  // rank, the group size, followed by the group's world ranks.
  std::vector<std::int64_t> assignment;
  if (rank_ == 0) {
    // Group entries by color, order each group by (key, old_rank).
    std::vector<Entry> sorted = entries;
    std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
      if (a.color != b.color) return a.color < b.color;
      if (a.key != b.key) return a.key < b.key;
      return a.old_rank < b.old_rank;
    });
    std::size_t i = 0;
    while (i < sorted.size()) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j].color == sorted[i].color) ++j;
      const auto group_context = fabric_->next_context.fetch_add(2);
      // Member list in new-rank order, as world ranks.
      std::vector<std::int64_t> world_ranks;
      for (std::size_t k = i; k < j; ++k) {
        world_ranks.push_back(members_[static_cast<std::size_t>(sorted[k].old_rank)]);
      }
      for (std::size_t k = i; k < j; ++k) {
        std::vector<std::int64_t> message;
        message.push_back(group_context);
        message.push_back(static_cast<std::int64_t>(k - i));  // new rank
        message.push_back(static_cast<std::int64_t>(world_ranks.size()));
        message.insert(message.end(), world_ranks.begin(), world_ranks.end());
        if (sorted[k].old_rank == 0) {
          assignment = message;
        } else {
          coll_send(message.data(), message.size(), sorted[k].old_rank,
                    kTagSplit);
        }
      }
      i = j;
    }
  } else {
    assignment =
        receive(user_context_ + 1, 0, kTagSplit).as_vector<std::int64_t>();
  }

  PDC_CHECK(assignment.size() >= 3);
  const auto new_context = static_cast<std::uint32_t>(assignment[0]);
  const int new_rank = static_cast<int>(assignment[1]);
  const auto group_size = static_cast<std::size_t>(assignment[2]);
  PDC_CHECK(assignment.size() == 3 + group_size);
  std::vector<int> new_members(group_size);
  for (std::size_t k = 0; k < group_size; ++k) {
    new_members[k] = static_cast<int>(assignment[3 + k]);
  }
  return Communicator(fabric_, std::move(new_members), new_rank, new_context);
}

}  // namespace pdc::mp

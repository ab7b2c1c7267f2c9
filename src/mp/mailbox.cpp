#include "mp/mailbox.hpp"

#include "testkit/hooks.hpp"

namespace pdc::mp {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool matches(const Envelope& envelope, std::uint32_t context, int source,
             int tag) {
  return envelope.context == context &&
         (source == kAnySource || envelope.source == source) &&
         (tag == kAnyTag || envelope.tag == tag);
}
}  // namespace

void Mailbox::deliver(Message message) {
  std::scoped_lock lock(mutex_);
  queue_.push_back(std::move(message));
  // Notify under the lock: the unlock-then-notify variant races with a
  // matcher that drains the queue and destroys the mailbox (see
  // concurrency/bounded_queue.hpp), and testkit's scheduler needs the
  // notification ordered with the state change.
  testkit::notify_all(arrived_);
}

std::size_t Mailbox::find_locked(std::uint32_t context, int source,
                                 int tag) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (matches(queue_[i].envelope, context, source, tag)) return i;
  }
  return kNpos;
}

std::size_t Mailbox::await_locked(std::unique_lock<std::mutex>& lock,
                                  std::uint32_t context, int source, int tag,
                                  const char* label) {
  std::size_t idx = kNpos;
  testkit::wait(lock, arrived_,
                [&] {
                  idx = find_locked(context, source, tag);
                  return idx != kNpos;
                },
                label);
  return idx;
}

Message Mailbox::remove_locked(std::size_t idx) {
  Message message = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  return message;
}

Message Mailbox::match(std::uint32_t context, int source, int tag) {
  testkit::yield_point("mailbox.match");
  std::unique_lock lock(mutex_);
  return remove_locked(
      await_locked(lock, context, source, tag, "mailbox.match.wait"));
}

std::optional<Message> Mailbox::try_match(std::uint32_t context, int source,
                                          int tag) {
  testkit::yield_point("mailbox.try_match");
  std::scoped_lock lock(mutex_);
  const std::size_t idx = find_locked(context, source, tag);
  if (idx == kNpos) return std::nullopt;
  return remove_locked(idx);
}

RecvInfo Mailbox::probe(std::uint32_t context, int source, int tag) {
  testkit::yield_point("mailbox.probe");
  std::unique_lock lock(mutex_);
  return queue_[await_locked(lock, context, source, tag, "mailbox.probe.wait")]
      .info();
}

}  // namespace pdc::mp

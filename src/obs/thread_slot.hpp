// Per-thread, per-session recording slots: the registration both
// collectors that record on the calling thread share (trace.cpp's event
// rings, span.cpp's span buffers). Internal to src/obs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace pdc::obs::detail {

/// The calling thread's Slot for the current session, made on first touch
/// in each session. A session's start() bumps `epoch`, which tells every
/// thread that its cached slot belongs to a dead session; the next touch
/// makes a fresh slot and hands it to `enroll`, which adds it to the
/// collector's list under the collector's lock. Registration order is
/// therefore deterministic under SimScheduler (one thread runs at a time).
/// The thread_local holds shared ownership, so a slot stays valid for a
/// thread that outlives its session, and the collector's list keeps the
/// slot of a thread that exited until the collector drops it.
template <typename Slot>
Slot& thread_slot(const std::atomic<std::uint64_t>& epoch,
                  void (*enroll)(const std::shared_ptr<Slot>&)) {
  thread_local std::shared_ptr<Slot> slot;
  thread_local std::uint64_t slot_epoch = 0;
  const std::uint64_t current = epoch.load(std::memory_order_acquire);
  if (!slot || slot_epoch != current) {
    slot = std::make_shared<Slot>();
    enroll(slot);
    slot_epoch = current;
  }
  return *slot;
}

}  // namespace pdc::obs::detail

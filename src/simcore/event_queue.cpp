#include "simcore/event_queue.h"

#include <cassert>
#include <utility>

namespace asman::sim {

static constexpr std::size_t kArity = 4;

EventId EventQueue::schedule(Cycles at, Callback cb) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const Key key{at, next_seq_++, slot};
  slots_[slot] = Slot{key.seq, std::move(cb)};
  // Sift up: move parents down into the hole until the key fits.
  std::size_t i = heap_.size();
  heap_.emplace_back();
  for (std::size_t p; i > 0 && key < heap_[p = (i - 1) / kArity]; i = p)
    heap_[i] = heap_[p];
  heap_[i] = key;
  return EventId{key.seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  slots_[id.slot].cb = nullptr;
  release(id.slot);
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
  // Pop every stale key off the top, so the top is always live.
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq) {
    // Sift the last key down from the root over the other n keys: move the
    // least child up into the hole until `last` fits, then drop the tail.
    const Key last = heap_.back();
    const std::size_t n = heap_.size() - 1;
    std::size_t i = 0;
    for (std::size_t first; (first = i * kArity + 1) < n;) {
      std::size_t least = first;
      for (std::size_t c = first + 1; c < first + kArity && c < n; ++c)
        if (heap_[c] < heap_[least]) least = c;
      if (!(heap_[least] < last)) break;
      heap_[i] = heap_[least];
      i = least;
    }
    heap_[i] = last;
    heap_.pop_back();
  }
}

Cycles EventQueue::pop_and_run() {
  assert(!heap_.empty());
  const Key top = heap_.front();
  // Releasing the slot pops the now stale top key. The callback runs from a
  // local: re-entrant schedule() calls may reuse the slot or grow the pool.
  const Callback cb = std::move(slots_[top.slot].cb);
  release(top.slot);
  cb();
  return top.at;
}

}  // namespace asman::sim

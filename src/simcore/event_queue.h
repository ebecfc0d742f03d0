// Cancellable discrete-event queue with deterministic ordering.
//
// Events at equal timestamps fire in insertion order (a dense sequence
// number from 1 breaks ties), so whole simulations are bit-reproducible.
// A slot pool owns the callbacks and a 4-ary min-heap orders POD
// {at, seq, slot} keys into it: a sift never moves a callback. A slot holds
// the seq of its event (0 when free), so pending() and cancel() compare it
// with the EventId's {seq, slot} in O(1). A fired or cancelled event frees
// its slot at once; keys whose slot no longer carries their seq are popped
// as soon as they reach the top, so the top key is always live.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/time.h"

namespace asman::sim {

/// Opaque handle identifying a scheduled event; may be used to cancel it.
struct EventId {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  constexpr bool valid() const { return seq != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `cb` to fire at absolute time `at`. `at` must not precede the
  /// last popped event time (checked by the Simulator layer).
  EventId schedule(Cycles at, Callback cb);

  /// Cancel a previously scheduled event. Returns true if the event was
  /// still pending (false if already fired or cancelled).
  bool cancel(EventId id);

  /// True while `id` is scheduled and neither fired nor cancelled.
  bool pending(EventId id) const {
    return id.valid() && id.slot < slots_.size() &&
           slots_[id.slot].seq == id.seq;
  }

  // The top key is always live; a slot off the free list is pending.
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return slots_.size() - free_slots_.size(); }

  /// Timestamp of the earliest pending event; Cycles::max() when empty.
  Cycles next_time() const {
    return heap_.empty() ? Cycles::max() : heap_.front().at;
  }

  /// Pop and run the earliest pending event. Returns its timestamp.
  /// Precondition: !empty().
  Cycles pop_and_run();

 private:
  struct Key {
    Cycles at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const Key& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };
  struct Slot {
    std::uint64_t seq{0};
    Callback cb;
  };

  /// Free `slot` (its event fired or was cancelled) and pop stale keys.
  void release(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{1};
};

}  // namespace asman::sim

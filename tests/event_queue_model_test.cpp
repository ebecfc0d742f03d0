// Model-checking fuzz for the event queue: random interleavings of
// schedule/cancel/pop are compared against a trivially-correct reference
// (ordered multimap), plus slot-reuse, forged-id and re-entrancy cases for
// the slot pool.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"

namespace asman::sim {
namespace {

class Reference {
 public:
  std::uint64_t schedule(Cycles at) {
    const std::uint64_t id = next_++;
    items_.emplace(std::pair{at.v, id}, id);
    return id;
  }
  bool cancel(std::uint64_t id) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->second == id) {
        items_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::uint64_t pop() {
    const auto it = items_.begin();
    const std::uint64_t id = it->second;
    items_.erase(it);
    return id;
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> items_;
  std::uint64_t next_{1};
};

class EventQueueModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  EventQueue q;
  Reference ref;
  // Parallel id spaces: EventQueue seq numbers match the reference's ids
  // because both allocate densely from 1 in the same order.
  std::vector<EventId> live;
  // Fired and cancelled ids: their slots are reused by later events, so
  // every one of them must stay dead.
  std::vector<EventId> dead;
  std::vector<std::uint64_t> fired;
  std::uint64_t last_popped_ref = 0;
  const auto fire = [&fired](std::uint64_t id) { fired.push_back(id); };

  Cycles clock{0};
  for (int step = 0; step < 5000; ++step) {
    const auto r = rng.next_below(100);
    if (r < 55) {
      const Cycles at{clock.v + rng.next_below(1000)};
      const EventId id =
          q.schedule(at, [&fire, n = ref.schedule(at)] { fire(n); });
      live.push_back(id);
    } else if (r < 80 && !live.empty()) {
      const auto idx = rng.next_below(live.size());
      const EventId id = live[idx];
      const bool a = q.cancel(id);
      const bool b = ref.cancel(id.seq);
      ASSERT_EQ(a, b) << "cancel divergence at step " << step;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      dead.push_back(id);
    } else if (r < 85 && !dead.empty()) {
      const EventId id = dead[rng.next_below(dead.size())];
      ASSERT_FALSE(q.pending(id)) << "dead id pending at step " << step;
      ASSERT_FALSE(q.cancel(id)) << "dead id cancelled at step " << step;
    } else if (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      const Cycles t = q.next_time();
      ASSERT_GE(t, clock);
      clock = t;
      fired.clear();
      q.pop_and_run();
      ASSERT_EQ(fired.size(), 1u);
      last_popped_ref = ref.pop();
      ASSERT_EQ(fired[0], last_popped_ref) << "order divergence at " << step;
      // Remove from live if present (it has fired).
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->seq == fired[0]) {
          dead.push_back(*it);
          live.erase(it);
          break;
        }
      }
    }
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.size(), ref.size());
  }
  // Drain and compare the tails.
  while (!q.empty()) {
    fired.clear();
    q.pop_and_run();
    ASSERT_EQ(fired.size(), 1u);
    ASSERT_EQ(fired[0], ref.pop());
  }
  ASSERT_TRUE(ref.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// A fired or cancelled event frees its slot at once and the next schedule
// reuses it: the old id must stay dead while the new one is live, and a
// cancelled key left in the heap must not fire the slot's new event.
TEST(EventQueueSlots, StaleIdOnReusedSlotIsDead) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(Cycles{1}, [&] { order.push_back(1); });
  q.pop_and_run();
  const EventId b = q.schedule(Cycles{5}, [&] { order.push_back(5); });
  ASSERT_EQ(b.slot, a.slot);  // reused after a fired
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.pending(b));
  q.schedule(Cycles{2}, [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(b));  // b's key stays in the heap under t=2
  const EventId c = q.schedule(Cycles{9}, [&] { order.push_back(9); });
  ASSERT_EQ(c.slot, b.slot);  // reused after b was cancelled
  EXPECT_FALSE(q.pending(b));
  EXPECT_FALSE(q.cancel(b));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_TRUE(q.pending(c));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_and_run(), Cycles{2});
  EXPECT_EQ(q.next_time(), Cycles{9});  // b's stale key was skipped
  EXPECT_EQ(q.pop_and_run(), Cycles{9});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(EventQueueSlots, ForgedIdsAreRejected) {
  EventQueue q;
  int fired = 0;
  const EventId x = q.schedule(Cycles{5}, [&] { ++fired; });
  const EventId y = q.schedule(Cycles{6}, [&] { ++fired; });
  ASSERT_NE(x.slot, y.slot);
  const EventId forged[] = {
      EventId{x.seq, y.slot},        // live seq, another live slot
      EventId{y.seq, x.slot},        // likewise, swapped
      EventId{x.seq + 100, x.slot},  // never-issued seq on a live slot
      EventId{x.seq, 1u << 20},      // slot beyond the pool
      EventId{0, x.slot},            // invalid seq on a live slot
  };
  for (const EventId id : forged) {
    EXPECT_FALSE(q.pending(id)) << id.seq << "/" << id.slot;
    EXPECT_FALSE(q.cancel(id)) << id.seq << "/" << id.slot;
  }
  EXPECT_TRUE(q.cancel(x));
  // x's slot is free now: seq 0 must not match the free slot's cleared seq.
  EXPECT_FALSE(q.pending(EventId{0, x.slot}));
  EXPECT_FALSE(q.cancel(EventId{0, x.slot}));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 1);
}

// A callback that schedules and cancels from inside itself: its own id is
// already dead, events it schedules at the current time run after the
// ones already queued there, and an event it schedules and cancels at
// once never runs.
TEST(EventQueueSlots, CallbackSchedulesAndCancelsReentrantly) {
  EventQueue q;
  std::vector<int> order;
  EventId self;
  EventId victim;
  self = q.schedule(Cycles{10}, [&] {
    order.push_back(1);
    EXPECT_FALSE(q.pending(self));
    EXPECT_FALSE(q.cancel(self));
    EXPECT_TRUE(q.cancel(victim));
    const EventId undo = q.schedule(Cycles{10}, [&] { order.push_back(99); });
    EXPECT_TRUE(q.cancel(undo));
    // Reuses a freed slot (self's, victim's or undo's) and must still run
    // after event 2, which was queued at t=10 first.
    q.schedule(Cycles{10}, [&] { order.push_back(3); });
    for (int i = 0; i < 64; ++i)  // grow the pool while a callback runs
      q.schedule(Cycles{20 + static_cast<std::uint64_t>(i)}, [] {});
  });
  q.schedule(Cycles{10}, [&] { order.push_back(2); });
  victim = q.schedule(Cycles{15}, [&] { order.push_back(98); });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_and_run(), Cycles{10});
  EXPECT_EQ(q.size(), 1u + 1u + 64u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace asman::sim

#include "simcore/simulator.h"

#include <gtest/gtest.h>

namespace asman::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator s;
  Cycles seen{0};
  s.after(Cycles{100}, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, Cycles{100});
  EXPECT_EQ(s.now(), Cycles{100});
}

TEST(Simulator, RunUntilInclusiveBoundary) {
  Simulator s;
  int fired = 0;
  s.after(Cycles{50}, [&] { ++fired; });
  s.after(Cycles{100}, [&] { ++fired; });
  s.after(Cycles{101}, [&] { ++fired; });
  s.run_until(Cycles{100});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), Cycles{100});  // clock lands on the deadline
  s.run_all();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator s;
  Cycles when{0};
  s.after(Cycles{10}, [&] { s.after(Cycles{10}, [&] { when = s.now(); }); });
  s.run_all();
  EXPECT_EQ(when, Cycles{20});
}

TEST(Simulator, CancelStopsEvent) {
  Simulator s;
  bool fired = false;
  const EventId id = s.after(Cycles{10}, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunWhileStopsOnPredicate) {
  Simulator s;
  int count = 0;
  // Self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    s.after(Cycles{10}, tick);
  };
  s.after(Cycles{10}, tick);
  s.run_while(Cycles::max(), [&] { return count < 5; });
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), Cycles{50});
}

TEST(Simulator, EventsProcessedCounts) {
  Simulator s;
  for (int i = 1; i <= 7; ++i) s.after(Cycles{static_cast<unsigned>(i)}, [] {});
  s.run_all();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Simulator, PendingEvents) {
  Simulator s;
  s.after(Cycles{5}, [] {});
  s.after(Cycles{6}, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  s.run_all();
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, FastForwardAdvancesClock) {
  Simulator s;
  s.fast_forward(Cycles{1000});
  EXPECT_EQ(s.now(), Cycles{1000});
}

TEST(Simulator, RunUntilWithNoEventsAdvancesToDeadline) {
  Simulator s;
  s.run_until(Cycles{500});
  EXPECT_EQ(s.now(), Cycles{500});
}

TEST(Simulator, ZeroDelayEventRunsAtSameTime) {
  Simulator s;
  std::vector<int> order;
  s.after(Cycles{10}, [&] {
    order.push_back(1);
    s.after(Cycles{0}, [&] { order.push_back(2); });
  });
  s.after(Cycles{10}, [&] { order.push_back(3); });
  s.run_all();
  // The zero-delay event was inserted after the second 10-cycle event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(s.now(), Cycles{10});
}

// The run_while predicate contract that event-boundary tracers rely on:
// one call before each event, no call once the queue runs dry, the call
// comes before the deadline check, and pending_events() never counts a
// cancelled event.
TEST(Simulator, RunWhilePredicateContract) {
  Simulator s;
  std::vector<std::size_t> pending_at_call;
  const auto pred = [&] {
    pending_at_call.push_back(s.pending_events());
    return true;
  };
  EXPECT_EQ(s.run_while(Cycles::max(), pred), 0u);
  EXPECT_TRUE(pending_at_call.empty());  // empty queue: no call at all

  s.after(Cycles{10}, [] {});
  const EventId dropped = s.after(Cycles{15}, [] {});
  s.after(Cycles{20}, [] {});
  const EventId last = s.after(Cycles{40}, [] {});
  EXPECT_TRUE(s.cancel(dropped));
  EXPECT_EQ(s.pending_events(), 3u);
  // Deadline 20: the call before the t=40 event still happens, then the
  // deadline stops the loop.
  EXPECT_EQ(s.run_while(Cycles{20}, pred), 2u);
  EXPECT_EQ(pending_at_call, (std::vector<std::size_t>{3, 2, 1}));
  EXPECT_EQ(s.now(), Cycles{20});

  // A cancelled event queued after the last live one must not cost a call.
  EXPECT_TRUE(s.cancel(s.at(Cycles{60}, [] {})));
  EXPECT_TRUE(s.pending(last));
  pending_at_call.clear();
  EXPECT_EQ(s.run_while(Cycles::max(), pred), 1u);
  EXPECT_EQ(pending_at_call, (std::vector<std::size_t>{1}));
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.events_processed(), 3u);
}

}  // namespace
}  // namespace asman::sim

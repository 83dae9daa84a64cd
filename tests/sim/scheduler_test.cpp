#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "scheduler_differential.hpp"
#include "sim/rng.hpp"

namespace mip6 {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(Time::sec(3), [&] { order.push_back(3); });
  s.schedule_at(Time::sec(1), [&] { order.push_back(1); });
  s.schedule_at(Time::sec(2), [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Time::sec(3));
}

TEST(Scheduler, SameTimeTiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(Time::sec(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, RunUntilExecutesInclusiveBoundary) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(Time::sec(5), [&] { ++ran; });
  s.schedule_at(Time::sec(6), [&] { ++ran; });
  EXPECT_EQ(s.run_until(Time::sec(5)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), Time::sec(5));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, RunUntilAdvancesClockWithoutEvents) {
  Scheduler s;
  s.run_until(Time::sec(42));
  EXPECT_EQ(s.now(), Time::sec(42));
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  s.run_until(Time::sec(10));
  Time fired = Time::never();
  s.schedule_in(Time::sec(5), [&] { fired = s.now(); });
  s.run();
  EXPECT_EQ(fired, Time::sec(15));
}

TEST(Scheduler, SchedulingIntoThePastThrows) {
  Scheduler s;
  s.run_until(Time::sec(10));
  EXPECT_THROW(s.schedule_at(Time::sec(9), [] {}), LogicError);
  EXPECT_THROW(s.schedule_in(Time::zero() - Time::sec(1), [] {}), LogicError);
  EXPECT_THROW(s.schedule_at(Time::never(), [] {}), LogicError);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int ran = 0;
  EventHandle h = s.schedule_at(Time::sec(1), [&] { ++ran; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_EQ(ran, 0);
}

TEST(Scheduler, CancelAfterExecutionIsNoop) {
  Scheduler s;
  int ran = 0;
  EventHandle h = s.schedule_at(Time::sec(1), [&] { ++ran; });
  s.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or affect anything
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  std::vector<Time> fire_times;
  std::function<void()> chain = [&] {
    fire_times.push_back(s.now());
    if (fire_times.size() < 5) s.schedule_in(Time::sec(1), chain);
  };
  s.schedule_at(Time::sec(1), chain);
  s.run();
  ASSERT_EQ(fire_times.size(), 5u);
  EXPECT_EQ(fire_times.back(), Time::sec(5));
}

TEST(Scheduler, InertHandleIsSafe) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, ExecutedEventsCounterAccumulates) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Time::sec(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

// Regression: cancelled events used to sit in the queue until their expiry
// time surfaced at the top, so the re-arm pattern (schedule far-future,
// cancel, repeat — what every Timer::arm does) grew the heap without bound.
// Compaction must keep the heap proportional to the LIVE event count.
// The bound holds with deliveries in flight too: they sit in their own
// heap, so they neither dilute the timer heap's cancelled share nor delay
// its compaction.
TEST(Scheduler, TenThousandCancelsKeepQueueBounded) {
  for (std::size_t in_flight : {0u, 1000u}) {
    SCOPED_TRACE("deliveries in flight: " + std::to_string(in_flight));
    Scheduler s;
    const Domain d = s.add_domain();
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      s.post_in(Time::sec(1), [&delivered] { ++delivered; }, d);
    }
    for (int i = 0; i < 10000; ++i) {
      EventHandle h = s.schedule_at(Time::sec(1000 + i), [] {});
      h.cancel();
    }
    EXPECT_EQ(s.live_events(), in_flight);
    EXPECT_EQ(s.live_events() + s.cancelled_events(), s.pending_events());
    EXPECT_LT(s.pending_events(), in_flight + 2 * Scheduler::kCompactMin);
    EXPECT_GT(s.compactions(), 0u);
    EXPECT_EQ(s.run(), in_flight);
    EXPECT_EQ(delivered, in_flight);
  }
}

TEST(Scheduler, CompactionPreservesLiveEventsAndOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(Time::sec(i + 1), [&order, i] { order.push_back(i); });
  }
  // Interleave enough schedule+cancel churn to force several compactions
  // while the live events above are still in the heap.
  for (int i = 0; i < 1000; ++i) {
    EventHandle h = s.schedule_at(Time::sec(5000), [] {});
    h.cancel();
  }
  EXPECT_GT(s.compactions(), 0u);
  EXPECT_EQ(s.live_events(), 100u);
  s.run_until(Time::sec(200));
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, HandleOutlivesSchedulerSafely) {
  EventHandle h;
  {
    Scheduler s;
    h = s.schedule_at(Time::sec(1), [] {});
  }
  EXPECT_TRUE(h.pending());  // never ran, never cancelled
  h.cancel();                // must not touch the destroyed scheduler
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, RecycledStatesDoNotConfuseOldHandles) {
  Scheduler s;
  EventHandle stale = s.schedule_at(Time::sec(1), [] {});
  s.run_until(Time::sec(1));
  EXPECT_FALSE(stale.pending());
  // The executed event's state cannot be recycled while `stale` holds it,
  // so a burst of new events must not flip `stale` back to pending.
  for (int i = 0; i < 50; ++i) s.schedule_at(Time::sec(10), [] {});
  EXPECT_FALSE(stale.pending());
}

// Replays one random event tree: each event logs (time, id) and spawns one
// or two children at small random delays into random domains, so many
// events tie on their execution time. With `post`, the children drawn as
// deliveries go through post_in instead of schedule_in.
std::vector<std::pair<Time, int>> run_event_tree(bool post) {
  Scheduler s;
  const Domain domains[] = {kWorldDomain, s.add_domain(), s.add_domain()};
  Rng rng(11);
  std::vector<std::pair<Time, int>> log;
  int next_id = 0;
  std::function<void(int)> fire;
  auto spawn = [&] {
    const int id = next_id++;
    const Time delay = Time::us(static_cast<std::int64_t>(rng.uniform_int(10)));
    const Domain exec = domains[rng.uniform_int(3)];
    const bool delivery = rng.bernoulli(0.5);
    if (post && delivery) {
      s.post_in(delay, [&fire, id] { fire(id); }, exec);
    } else {
      s.schedule_in(delay, [&fire, id] { fire(id); }, exec);
    }
  };
  fire = [&](int id) {
    log.emplace_back(s.now(), id);
    if (next_id >= 5000) return;
    for (std::uint64_t k = 1 + rng.uniform_int(2); k > 0; --k) spawn();
  };
  for (int i = 0; i < 20; ++i) spawn();
  s.run();
  return log;
}

TEST(Scheduler, PostedEventsKeepTheCanonicalOrder) {
  const auto with_handles = run_event_tree(false);
  const auto posted = run_event_tree(true);
  ASSERT_EQ(with_handles.size(), 5000u);
  EXPECT_EQ(posted, with_handles);
}

TEST(Scheduler, PostedEventsAreNeverCancelled) {
  Scheduler s;
  const Domain d = s.add_domain();
  int ran = 0;
  for (int i = 0; i < 40; ++i) {
    s.post_in(Time::ms(i), [&ran] { ++ran; }, d);
    s.schedule_in(Time::ms(i), [] {}, d).cancel();
  }
  EXPECT_EQ(s.cancelled_events(), 40u);  // only the schedule_in events
  EXPECT_EQ(s.live_events(), 40u);
  EXPECT_EQ(s.run(), 40u);
  EXPECT_EQ(ran, 40);
  EXPECT_EQ(s.cancelled_events(), 0u);
  EXPECT_THROW(s.post_in(Time::zero() - Time::sec(1), [] {}, d), LogicError);
}

// Differential against a single-queue reference (scheduler_differential.hpp):
// random deliveries, timers, cancels, extends and same-instant ties across
// four node domains and the world domain must execute in the reference's
// (key, exec domain) order, with the same live count at every quiesce point.
TEST(SchedulerDifferential, TwoHeapsPopInSingleQueueOrder) {
  using namespace difftest;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scheduler sched;
    RefScheduler ref;
    Program<Scheduler> real(sched, seed, 1000, /*global_log=*/true);
    Program<RefScheduler> model(ref, seed, 1000, /*global_log=*/true);
    real.start();
    model.start();
    drive(sched, real, ref, model, [&](int) {
      ASSERT_EQ(sched.live_events(), ref.live_events());
      EXPECT_EQ(sched.live_events() + sched.cancelled_events(),
                sched.pending_events());
    });
    EXPECT_EQ(first_difference(real.global, model.global), -1);
    EXPECT_EQ(sched.executed_events(), ref.executed_events());
    EXPECT_EQ(sched.live_events(), 0u);
    ASSERT_GT(real.global.size(), 1500u);
    // The program must actually tie: consecutive events at one instant.
    std::size_t ties = 0;
    for (std::size_t i = 1; i < real.global.size(); ++i) {
      if (real.global[i].key.at == real.global[i - 1].key.at) ++ties;
    }
    EXPECT_GT(ties, 200u);
  }
}

}  // namespace
}  // namespace mip6

#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scheduler_differential.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

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

TEST(Scheduler, ExecutedEventsCounterAccumulates) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_in(Time::sec(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

// Regression: cancelled events used to sit in the queue until their expiry
// time surfaced at the top, so the re-arm pattern (arm far-future, cancel,
// repeat) grew the heap without bound. Compaction must keep the heap
// proportional to the LIVE event count. The bound holds with deliveries in
// flight too: deliveries of one delay sit in the lane, so they neither
// dilute the heap's cancelled share nor delay its compaction.
TEST(Scheduler, TenThousandCancelsKeepQueueBounded) {
  for (std::size_t in_flight : {0u, 1000u}) {
    SCOPED_TRACE("deliveries in flight: " + std::to_string(in_flight));
    Scheduler s;
    const Domain d = s.add_domain();
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      s.schedule_in(Time::sec(1), [&delivered] { ++delivered; }, d);
    }
    Timer t(s, [] {});
    for (int i = 0; i < 10000; ++i) {
      t.arm(Time::sec(1000 + i));
      t.cancel();
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
  std::vector<std::unique_ptr<Timer>> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(
        std::make_unique<Timer>(s, [&order, i] { order.push_back(i); }));
    live.back()->arm(Time::sec(i + 1));
  }
  // Interleave enough arm+cancel churn to force several compactions while
  // the live timers above are still in the heap.
  Timer churn(s, [] {});
  for (int i = 0; i < 1000; ++i) {
    churn.arm(Time::sec(5000));
    churn.cancel();
  }
  EXPECT_GT(s.compactions(), 0u);
  EXPECT_EQ(s.live_events(), 100u);
  // Compaction reorders heap entries but never moves an event's slot, so
  // every live timer still cancels its own expiry.
  live[50]->cancel();
  s.run_until(Time::sec(200));
  ASSERT_EQ(order.size(), 99u);
  for (int i = 0; i < 99; ++i) EXPECT_EQ(order[i], i < 50 ? i : i + 1);
}

// A Timer that outlives its scheduler: the scheduler's destructor empties
// the timer's slot, so the timer reports idle and its cancel() (and its
// destructor) touch nothing.
TEST(Scheduler, HandleOutlivesSchedulerSafely) {
  std::unique_ptr<Timer> t;
  {
    Scheduler s;
    t = std::make_unique<Timer>(s, [] {});
    t->arm(Time::sec(1));
    EXPECT_TRUE(t->running());
  }
  EXPECT_FALSE(t->running());
  t->cancel();  // must not touch the destroyed scheduler
  EXPECT_FALSE(t->running());
}

// An expired timer's arena slot is reused by the next event. The idle
// timer must not still name it: cancelling the timer must leave every new
// event queued.
TEST(Scheduler, RecycledStatesDoNotConfuseOldHandles) {
  Scheduler s;
  Timer stale(s, [] {});
  stale.arm(Time::sec(1));
  s.run_until(Time::sec(1));
  EXPECT_FALSE(stale.running());
  int ran = 0;
  Timer fresh(s, [&ran] { ++ran; });
  fresh.arm(Time::sec(10));  // takes the freed slot
  for (int i = 0; i < 49; ++i) s.schedule_at(Time::sec(10), [&ran] { ++ran; });
  EXPECT_FALSE(stale.running());
  stale.cancel();
  EXPECT_TRUE(fresh.running());
  EXPECT_EQ(s.cancelled_events(), 0u);
  EXPECT_EQ(s.live_events(), 50u);
  EXPECT_EQ(s.run(), 50u);
  EXPECT_EQ(ran, 50);
}

// Replays one random event tree: each event logs (time, id) and spawns one
// or two children at small random delays into random domains, so many
// events tie on their execution time. With `timers`, the children drawn as
// timers are a Timer's expiry (the timer heap) instead of a plain event.
std::vector<std::pair<Time, int>> run_event_tree(bool timers) {
  Scheduler s;
  const Domain domains[] = {kWorldDomain, s.add_domain(), s.add_domain()};
  Rng rng(11);
  std::vector<std::pair<Time, int>> log;
  std::vector<std::unique_ptr<Timer>> armed;
  int next_id = 0;
  std::function<void(int)> fire;
  auto spawn = [&] {
    const int id = next_id++;
    const Time delay = Time::us(static_cast<std::int64_t>(rng.uniform_int(10)));
    const Domain exec = domains[rng.uniform_int(3)];
    const bool timer = rng.bernoulli(0.5);
    if (timers && timer) {
      armed.push_back(
          std::make_unique<Timer>(s, [&fire, id] { fire(id); }, exec));
      armed.back()->arm(delay);
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

// Plain events sit in the lane or the heap, timer expiries in the heap; the
// pops must still follow the canonical key, exactly as with plain events
// alone.
TEST(Scheduler, PostedEventsKeepTheCanonicalOrder) {
  const auto plain = run_event_tree(false);
  const auto with_timers = run_event_tree(true);
  ASSERT_EQ(plain.size(), 5000u);
  EXPECT_EQ(with_timers, plain);
}

// Only a Timer's expiry can be cancelled; plain events always run.
TEST(Scheduler, PostedEventsAreNeverCancelled) {
  Scheduler s;
  const Domain d = s.add_domain();
  int ran = 0;
  Timer t(s, [] {}, d);
  for (int i = 0; i < 40; ++i) {
    s.schedule_in(Time::ms(i), [&ran] { ++ran; }, d);
    t.arm(Time::ms(i));
    t.cancel();
  }
  EXPECT_EQ(s.cancelled_events(), 40u);  // only the timer's expiries
  EXPECT_EQ(s.live_events(), 40u);
  EXPECT_EQ(s.run(), 40u);
  EXPECT_EQ(ran, 40);
  EXPECT_EQ(s.cancelled_events(), 0u);
  EXPECT_THROW(s.schedule_in(Time::zero() - Time::sec(1), [] {}, d),
               LogicError);
}

// The lane takes the smallest positive delay its sub-queue has seen, not
// the first: an event 5 s ahead pushed at setup, then link sends 37 us
// ahead, then, from inside the sorted run those sends form, sends 10 us
// ahead. Each smaller delay moves the lane's entries into the heap and
// takes the lane over, and every event still runs in key order.
TEST(Scheduler, LaneTakesTheSmallestPositiveDelay) {
  Scheduler s;
  std::vector<Domain> d;
  for (int i = 0; i < 3; ++i) d.push_back(s.add_domain());
  std::vector<std::string> order;
  s.schedule_at(Time::sec(5), [&order] { order.push_back("late"); });
  EXPECT_EQ(s.lane_events(), 1u);
  // Timer expiries never enter the lane, so only the sends move it.
  std::vector<std::unique_ptr<Timer>> kicks;
  for (int i = 0; i < 3; ++i) {
    const Domain to = d[(i + 1) % 3];
    const std::string tag = std::to_string(i);
    kicks.push_back(std::make_unique<Timer>(
        s,
        [&s, &order, to, tag] {
          s.schedule_in(
              Time::us(37),
              [&s, &order, tag] {
                order.push_back("37/" + tag);
                s.schedule_in(Time::us(10),
                              [&order, tag] { order.push_back("10/" + tag); });
              },
              to);
        },
        d[i]));
    kicks.back()->arm(Time::us(1));
  }
  s.run_until(Time::us(1));
  EXPECT_EQ(s.lane_events(), 3u);  // one run at 38 us; the 5 s event left
  EXPECT_EQ(s.pending_events(), 4u);
  s.run_until(Time::us(38));
  EXPECT_EQ(s.lane_events(), 3u);  // one run at 48 us
  EXPECT_EQ(s.pending_events(), 4u);
  s.run();
  // At 38 us the senders' domains order the run; at 48 us the domains the
  // 37 us sends ran in (d[1], d[2], d[0]) do.
  EXPECT_EQ(order, (std::vector<std::string>{"37/0", "37/1", "37/2", "10/2",
                                             "10/0", "10/1", "late"}));
  EXPECT_EQ(s.lane_events(), 0u);
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

// The delivery lane against the same reference, with link-shaped traffic
// (scheduler_differential.hpp, Mix::kLinks): equal-delay bursts from many
// domains at one instant, a second delay, jittered delays and zero-delay
// schedules into the instant being consumed.
TEST(SchedulerDifferential, DeliveryLanePopsInSingleQueueOrder) {
  using namespace difftest;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scheduler sched;
    RefScheduler ref;
    Program<Scheduler> real(sched, seed, 1500, /*global_log=*/true,
                            Mix::kLinks);
    Program<RefScheduler> model(ref, seed, 1500, /*global_log=*/true,
                                Mix::kLinks);
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
    const LogStats st = log_stats(real.per_domain);
    EXPECT_GT(st.multi_domain_runs, 50u);
    EXPECT_GT(st.second_delay, 300u);
    EXPECT_GT(st.zero_delay, 150u);
  }
}

// Serial, then two shards, then serial again, in the middle of a run: the
// lane's entries migrate into the new sub-queues' heaps and back.
TEST(SchedulerDifferential, SerialShardedSerialMigrationMidRun) {
  using namespace difftest;
  constexpr std::uint32_t kS = Scheduler::kStructuralShard;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scheduler sched;
    RefScheduler ref;
    Program<Scheduler> real(sched, seed, 1500, /*global_log=*/false,
                            Mix::kLinks);
    Program<RefScheduler> model(ref, seed, 1500, /*global_log=*/false,
                                Mix::kLinks);
    real.start();
    model.start();
    drive(sched, real, ref, model, [&](int step) {
      ASSERT_EQ(sched.live_events(), ref.live_events());
      if (step == kSteps / 3) {
        sched.configure_shards({kS, 0, 1, 0, 1}, 2, kLookahead);
      }
      if (step == 2 * kSteps / 3) sched.configure_serial();
    });
    EXPECT_GT(sched.windows(), 0u);
    for (Domain d = 0; d <= kNodeDomains; ++d) {
      SCOPED_TRACE("domain " + std::to_string(d));
      EXPECT_EQ(first_difference(real.per_domain[d], model.per_domain[d]),
                -1);
    }
    EXPECT_EQ(sched.executed_events(), ref.executed_events());
    EXPECT_EQ(sched.live_events(), 0u);
  }
}

}  // namespace
}  // namespace mip6

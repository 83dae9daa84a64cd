#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace mip6 {
namespace {

TEST(Timer, FiresOnceAtExpiry) {
  Scheduler s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.arm(Time::sec(2));
  EXPECT_TRUE(t.running());
  EXPECT_EQ(t.expiry(), Time::sec(2));
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.running());
  EXPECT_TRUE(t.expiry().is_never());
}

TEST(Timer, RearmReplacesPreviousExpiry) {
  Scheduler s;
  Time fired_at = Time::never();
  Timer t(s, [&] { fired_at = s.now(); });
  t.arm(Time::sec(2));
  t.arm(Time::sec(10));  // re-arm later: the 2 s expiry must not fire
  s.run();
  EXPECT_EQ(fired_at, Time::sec(10));
}

TEST(Timer, CancelStopsExpiry) {
  Scheduler s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.arm(Time::sec(1));
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Timer, ArmIfIdleOnlyWhenStopped) {
  Scheduler s;
  Timer t(s, [] {});
  t.arm(Time::sec(5));
  t.arm_if_idle(Time::sec(1));  // ignored, already running
  EXPECT_EQ(t.expiry(), Time::sec(5));
  t.cancel();
  t.arm_if_idle(Time::sec(1));
  EXPECT_EQ(t.expiry(), Time::sec(1));
}

TEST(Timer, ArmToEarlierOnlyShortens) {
  Scheduler s;
  Timer t(s, [] {});
  t.arm(Time::sec(5));
  t.arm_to_earlier(Time::sec(10));  // later: ignored
  EXPECT_EQ(t.expiry(), Time::sec(5));
  t.arm_to_earlier(Time::sec(2));  // earlier: taken
  EXPECT_EQ(t.expiry(), Time::sec(2));
  t.cancel();
  t.arm_to_earlier(Time::sec(7));  // idle: arms
  EXPECT_EQ(t.expiry(), Time::sec(7));
}

TEST(Timer, RemainingTracksClock) {
  Scheduler s;
  Timer t(s, [] {});
  t.arm(Time::sec(10));
  s.run_until(Time::sec(4));
  EXPECT_EQ(t.remaining(), Time::sec(6));
  t.cancel();
  EXPECT_TRUE(t.remaining().is_never());
}

TEST(Timer, CanRearmFromItsOwnCallback) {
  Scheduler s;
  int fired = 0;
  Timer* self = nullptr;
  Timer t(s, [&] {
    if (++fired < 3) self->arm(Time::sec(1));
  });
  self = &t;
  t.arm(Time::sec(1));
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), Time::sec(3));
}

TEST(Timer, DestructorCancels) {
  Scheduler s;
  int fired = 0;
  {
    Timer t(s, [&] { ++fired; });
    t.arm(Time::sec(1));
  }
  s.run();
  EXPECT_EQ(fired, 0);
}

// Expiry handlers erase the state that owns their Timer (listener entries,
// (S,G) entries, neighbor records). The handler below destroys its own
// Timer and then reads its captures, which must still be alive; under ASan
// (par-smoke-asan) a handler destroyed mid-call shows as a use after free.
TEST(Timer, HandlerMayDestroyItsOwnTimer) {
  Scheduler s;
  std::vector<std::string> log;
  std::unique_ptr<Timer> owner;
  const std::string tag(40, 'x');  // too large for an inline std::function
  owner = std::make_unique<Timer>(s, [&owner, &log, &s, tag] {
    owner.reset();
    log.push_back(tag + "@" + s.now().str());
  });
  owner->arm(Time::sec(1));
  s.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], tag + "@" + Time::sec(1).str());
  EXPECT_EQ(owner, nullptr);

  // A survivor keeps its handler: it fires again after the call, and a
  // Timer destroyed by another's handler is simply gone.
  int fired = 0;
  Timer survivor(s, [&] { ++fired; });
  auto victim = std::make_unique<Timer>(s, [&] { ++fired; });
  Timer killer(s, [&] { victim.reset(); });
  victim->arm(Time::sec(3));
  killer.arm(Time::sec(1));
  survivor.arm(Time::sec(1));
  s.run();
  survivor.arm(Time::sec(1));
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(victim, nullptr);
}

TEST(Timer, ExtendOnIdleTimerArms) {
  Scheduler s;
  std::vector<Time> fired;
  Timer t(s, [&] { fired.push_back(s.now()); });
  t.extend(Time::sec(3));
  EXPECT_TRUE(t.running());
  EXPECT_EQ(t.expiry(), Time::sec(3));
  s.run();
  EXPECT_EQ(fired, std::vector<Time>{Time::sec(3)});
}

TEST(Timer, ExtendLaterOnlyStoresTheDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  Timer t(s, [&] { fired.push_back(s.now()); });
  t.arm(Time::sec(10));
  const std::size_t pending = s.pending_events();
  s.run_until(Time::sec(4));
  t.extend(Time::sec(10));
  EXPECT_EQ(s.pending_events(), pending);
  EXPECT_EQ(s.cancelled_events(), 0u);
  s.run();
  EXPECT_EQ(fired, std::vector<Time>{Time::sec(14)});
}

TEST(Timer, ExtendEarlierBehavesLikeArm) {
  Scheduler s;
  std::vector<Time> fired;
  Timer t(s, [&] { fired.push_back(s.now()); });
  t.arm(Time::sec(10));
  t.extend(Time::sec(2));
  EXPECT_EQ(t.expiry(), Time::sec(2));
  EXPECT_EQ(s.cancelled_events(), 1u);  // the 10 s expiry, as arm() leaves it
  s.run();
  EXPECT_EQ(fired, std::vector<Time>{Time::sec(2)});
}

TEST(Timer, CancelAfterExtendStopsTheTimer) {
  // Before and after the pending event's wake-up at 5 s.
  for (Time cancel_at : {Time::sec(3), Time::sec(7)}) {
    Scheduler s;
    int fired = 0;
    Timer t(s, [&] { ++fired; });
    t.arm(Time::sec(5));
    s.run_until(Time::sec(1));
    t.extend(Time::sec(10));
    s.run_until(cancel_at);
    EXPECT_TRUE(t.running());
    t.cancel();
    EXPECT_FALSE(t.running());
    EXPECT_TRUE(t.expiry().is_never());
    s.run();
    EXPECT_EQ(fired, 0);
  }
}

TEST(Timer, RepeatedExtendsAcrossWakeUpsFireOnceAtTheLastDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  Timer t(s, [&] { fired.push_back(s.now()); });
  t.arm(Time::sec(1));
  // A refresh every 300 ms for 6 s: the event wakes about once a second
  // and sleeps on, with one heap entry throughout.
  for (int i = 1; i <= 20; ++i) {
    s.run_until(Time::ms(300 * i));
    t.extend(Time::sec(1));
    EXPECT_EQ(s.pending_events(), 1u);
  }
  EXPECT_TRUE(fired.empty());
  EXPECT_GT(s.executed_events(), 1u);  // the wake-ups
  s.run();
  EXPECT_EQ(fired, std::vector<Time>{Time::sec(7)});
}

TEST(Timer, CanExtendFromItsOwnCallback) {
  Scheduler s;
  std::vector<Time> fired;
  Timer* self = nullptr;
  Timer t(s, [&] {
    fired.push_back(s.now());
    if (fired.size() < 3) self->extend(Time::sec(1));
  });
  self = &t;
  t.extend(Time::sec(1));
  s.run();
  EXPECT_EQ(fired,
            (std::vector<Time>{Time::sec(1), Time::sec(2), Time::sec(3)}));
}

TEST(Timer, ExpiryAndRemainingReportTheExtendedDeadline) {
  Scheduler s;
  Timer t(s, [] {});
  t.arm(Time::sec(5));
  s.run_until(Time::sec(2));
  t.extend(Time::sec(5));
  EXPECT_EQ(t.expiry(), Time::sec(7));
  EXPECT_EQ(t.remaining(), Time::sec(5));
  s.run_until(Time::sec(6));  // past the wake-up at 5 s
  EXPECT_TRUE(t.running());
  EXPECT_EQ(t.expiry(), Time::sec(7));
  EXPECT_EQ(t.remaining(), Time::sec(1));
}

// extend() against the eager reference: under random interleavings of
// every Timer operation, a timer refreshed with extend() is
// indistinguishable from one that calls arm() in its place.
TEST(TimerDifferential, ExtendMatchesArmReference) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    Scheduler s;
    Rng rng(seed);
    std::vector<Time> lazy_fires;
    std::vector<Time> eager_fires;
    Timer* lazy_self = nullptr;
    Timer* eager_self = nullptr;
    // Every third expiry refreshes from inside its own callback.
    Timer lazy(s, [&] {
      lazy_fires.push_back(s.now());
      if (lazy_fires.size() % 3 == 0) lazy_self->extend(Time::ms(7));
    });
    Timer eager(s, [&] {
      eager_fires.push_back(s.now());
      if (eager_fires.size() % 3 == 0) eager_self->arm(Time::ms(7));
    });
    lazy_self = &lazy;
    eager_self = &eager;
    for (int step = 0; step < 10000; ++step) {
      const Time d = Time::ms(static_cast<std::int64_t>(rng.uniform_int(20)));
      switch (rng.uniform_int(10)) {
        case 0: lazy.arm(d); eager.arm(d); break;
        case 1: case 2: case 3: lazy.extend(d); eager.arm(d); break;
        case 4: lazy.cancel(); eager.cancel(); break;
        case 5: lazy.arm_if_idle(d); eager.arm_if_idle(d); break;
        case 6: lazy.arm_to_earlier(d); eager.arm_to_earlier(d); break;
        default: s.run_until(s.now() + d); break;
      }
      ASSERT_EQ(lazy_fires.size(), eager_fires.size())
          << "seed " << seed << " step " << step;
      if (!lazy_fires.empty()) {
        ASSERT_EQ(lazy_fires.back(), eager_fires.back())
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(lazy.running(), eager.running())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(lazy.expiry(), eager.expiry())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(lazy.remaining(), eager.remaining())
          << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(lazy_fires, eager_fires) << "seed " << seed;
    EXPECT_GT(lazy_fires.size(), 1000u) << "seed " << seed;
    // Wake-ups happened: more events ran than the two timers' expiries.
    EXPECT_GT(s.executed_events(), lazy_fires.size() + eager_fires.size())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mip6

// Allocation-discipline guards for the simulation hot path.
//
// This TU overrides global operator new/delete with counting wrappers so the
// tests can assert an exact allocation count over a code window. It must stay
// its own test binary: the override is process-wide.
//
// Guarded invariants (see src/sim/scheduler.hpp):
//  * steady-state Timer::arm -> cancel -> arm cycles allocate nothing — a
//    Timer records its expiry's arena slot in its own TimerSlot, so arming
//    takes no shared state, and the arm lambda fits SchedFn's inline
//    buffer. That holds for any number of timers expiring before they are
//    re-armed;
//  * so do Timer::extend -> wake-up -> reschedule -> expire cycles and
//    plain Scheduler::schedule_in events, in the delivery lane or not, and
//    expiries of handlers too large for std::function's inline buffer
//    (the handler is moved out for the call, not copied);
//  * Trace::emit with no sink installed allocates nothing — detail strings
//    are built lazily, only when a sink will consume them.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"
#include "stats/counters.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mip6 {
namespace {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(AllocGuard, SteadyStateTimerRearmDoesNotAllocate) {
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&fired] { ++fired; });

  // Warm-up: grow the heap vector and the slot arena to steady state. Each
  // arm() cancels the previous expiry; the dead entry drains lazily ~9 pops
  // later and its slot returns to the free list.
  for (int i = 0; i < 256; ++i) {
    timer.arm(Time::ms(10));
    sched.run_until(sched.now() + Time::ms(1));
  }
  sched.run_until(sched.now() + Time::ms(20));  // drain the last expiry
  ASSERT_EQ(fired, 1);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    timer.arm(Time::ms(10));
    sched.run_until(sched.now() + Time::ms(1));
  }
  EXPECT_EQ(allocations(), before)
      << "Timer::arm re-arm cycle allocated on the hot path";
}

TEST(AllocGuard, ExpiringTimersDoNotAllocateAtSteadyState) {
  Scheduler sched;
  std::uint64_t fired = 0;
  Timer timer(sched, [&fired] { ++fired; });

  for (int i = 0; i < 256; ++i) {
    timer.arm(Time::ms(1));
    sched.run_until(sched.now() + Time::ms(2));
  }
  ASSERT_EQ(fired, 256u);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    timer.arm(Time::ms(1));
    sched.run_until(sched.now() + Time::ms(2));
  }
  EXPECT_EQ(allocations(), before)
      << "arm -> expire cycle allocated on the hot path";
  EXPECT_EQ(fired, 10256u);
}

// Many timers that all expire before any is re-armed: every expiry leaves
// its timer idle until the next cycle re-arms it.
TEST(AllocGuard, ManyTimersExpiringBeforeRearmDoNotAllocate) {
  constexpr int kTimers = 4096;
  Scheduler sched;
  std::uint64_t fired = 0;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(sched, [&fired] { ++fired; }));
  }
  // Timer i is armed for i + 1 us; each cycle runs past all of them.
  auto cycle = [&] {
    for (int i = 0; i < kTimers; ++i) timers[i]->arm(Time::us(i + 1));
    sched.run_until(sched.now() + Time::us(kTimers + 1));
  };
  for (int i = 0; i < 4; ++i) cycle();
  ASSERT_EQ(fired, 4u * kTimers);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 16; ++i) cycle();
  EXPECT_EQ(allocations() - before, 0u)
      << "re-arming expired timers allocated on the hot path";
  EXPECT_EQ(fired, 20u * kTimers);
}

TEST(AllocGuard, ExtendWakeUpCycleDoesNotAllocateAtSteadyState) {
  Scheduler sched;
  std::uint64_t fired = 0;
  Timer timer(sched, [&fired] { ++fired; });
  // Armed for 10 ms and extended by 10 ms at 5 ms: the event wakes at
  // 10 ms, reschedules itself to 15 ms and expires there.
  auto cycle = [&] {
    timer.arm(Time::ms(10));
    sched.run_until(sched.now() + Time::ms(5));
    timer.extend(Time::ms(10));
    sched.run_until(sched.now() + Time::ms(20));
  };
  for (int i = 0; i < 256; ++i) cycle();
  ASSERT_EQ(fired, 256u);
  ASSERT_EQ(sched.executed_events(), 2u * 256u);  // a wake-up per expiry

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) cycle();
  EXPECT_EQ(allocations(), before)
      << "extend -> wake-up -> expire cycle allocated on the hot path";
  EXPECT_EQ(fired, 10256u);
}

TEST(AllocGuard, PostedEventsDoNotAllocateAtSteadyState) {
  Scheduler sched;
  const Domain d = sched.add_domain();
  std::uint64_t ran = 0;
  auto burst = [&] {
    for (int k = 0; k < 8; ++k) {
      sched.schedule_in(Time::us(10 * k), [&ran] { ++ran; }, d);
    }
    sched.run_until(sched.now() + Time::ms(1));
  };
  for (int i = 0; i < 256; ++i) burst();

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) burst();
  EXPECT_EQ(allocations(), before)
      << "schedule_in allocated on the hot path";
  EXPECT_EQ(ran, 8u * 10256u);
}

// Protocol timers capture more than std::function's 16-byte inline buffer
// (PIM-DM's [this, key] with a 32-byte (S,G) key, the MLD host's
// [this, iface, group]). Expiring one must not copy the handler.
TEST(AllocGuard, LargeCaptureExpiriesDoNotAllocate) {
  Scheduler sched;
  std::uint64_t sum = 0;
  const std::array<std::uint64_t, 4> payload{1, 2, 3, 4};
  auto handler = [&sum, payload] { sum += payload[0] + payload[3]; };
  static_assert(sizeof(handler) == 40);
  Timer timer(sched, handler);
  for (int i = 0; i < 16; ++i) {
    timer.arm(Time::ms(1));
    sched.run_until(sched.now() + Time::ms(2));
  }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    timer.arm(Time::ms(1));
    sched.run_until(sched.now() + Time::ms(2));
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "expiring a timer with a large capture allocated";
  EXPECT_EQ(sum, 5u * 1016u);
}

// Frames forwarded hop by hop: every hop re-sends one delay later from its
// own domain, so one instant's sends form one run of the delivery lane, and
// the lane never empties. Two delays keep both busy: the lane takes the
// smaller, 37 us, and the 100 us hops sift through the heap beside it. Once
// the lane and the heap have grown to the frames in flight, nothing
// allocates.
TEST(AllocGuard, DeliveryLaneSteadyStateDoesNotAllocate) {
  struct Relay {
    Scheduler sched;
    std::vector<Domain> domains;
    std::uint64_t hops = 0;

    void hop(std::size_t at, Time delay) {
      ++hops;
      const std::size_t next = (at + 1) % domains.size();
      sched.schedule_in(delay, [this, next, delay] { hop(next, delay); },
                        domains[next]);
    }
  };
  Relay relay;
  for (int i = 0; i < 4; ++i) relay.domains.push_back(relay.sched.add_domain());
  for (std::size_t k = 0; k < 24; ++k) {
    const Time delay = k % 6 == 5 ? Time::us(37) : Time::us(100);
    relay.sched.schedule_in(
        delay, [&relay, k, delay] { relay.hop(k % 4, delay); },
        relay.domains[k % 4]);
  }
  relay.sched.run_until(Time::ms(50));

  const std::uint64_t before = allocations();
  const std::uint64_t hops_before = relay.hops;
  relay.sched.run_until(Time::ms(250));
  EXPECT_EQ(allocations() - before, 0u)
      << "steady-state deliveries allocated";
  // 20 frames every 100 us and 4 every 37 us.
  EXPECT_GT(relay.hops - hops_before, 60000u);
}

TEST(AllocGuard, DisabledTraceEmitDoesNotAllocate) {
  Trace trace;
  ASSERT_FALSE(trace.enabled());

  const std::uint64_t before = allocations();
  for (int i = 0; i < 10000; ++i) {
    trace.emit(Time::ms(i), "pimdm", "graft-tx", [&] {
      // This detail builder must never run while no sink is installed.
      return std::string(64, 'x') + std::to_string(i);
    });
  }
  EXPECT_EQ(allocations(), before)
      << "Trace::emit allocated with tracing disabled";
}

// Two self-rearming timers pinned to two worker shards: every handler
// invocation runs on a worker thread with current_shard_slot() >= 0, the
// exact context where sharded Trace/CounterRegistry divert to per-shard
// buffers. The steady-state window loop (dispatch, barrier, outbox drain)
// must be allocation-free too, or these guards trip on the scheduler
// rather than the instrumented call.
struct ShardedFixture {
  Scheduler sched;
  Domain d1, d2;
  // The test bodies live in these out-of-line functions, which the timer
  // handlers call.
  std::function<void()> body1, body2;
  std::unique_ptr<Timer> t1, t2;
  std::atomic<std::uint64_t> fired{0};

  ShardedFixture(std::function<void()> b1, std::function<void()> b2)
      : body1(std::move(b1)), body2(std::move(b2)) {
    d1 = sched.add_domain();
    d2 = sched.add_domain();
    t1 = std::make_unique<Timer>(sched, [this] {
      body1();
      fired.fetch_add(1, std::memory_order_relaxed);
      t1->arm(Time::ms(1));
    }, d1);
    t2 = std::make_unique<Timer>(sched, [this] {
      body2();
      fired.fetch_add(1, std::memory_order_relaxed);
      t2->arm(Time::ms(1));
    }, d2);
    // Domain 0 is the structural world domain; d1 -> shard 0, d2 -> shard 1.
    sched.configure_shards({Scheduler::kStructuralShard, 0, 1}, 2,
                           Time::us(100));
    t1->arm(Time::ms(1));
    t2->arm(Time::ms(1));
  }
};

TEST(AllocGuard, DisabledTraceEmitFromWorkerShardsDoesNotAllocate) {
  Trace trace;
  ASSERT_FALSE(trace.enabled());
  trace.enable_shards(2);

  ShardedFixture f(
      [&] {
        trace.emit(f.sched.now(), "pimdm/Shard0", "tick", [] {
          // Must never run: no sink is installed.
          return std::string(64, 'x');
        });
      },
      [&] {
        trace.emit(f.sched.now(), "pimdm/Shard1", "tick", [] {
          return std::string(64, 'y');
        });
      });

  // Warm-up: grow heaps, worker-pool scratch and window bookkeeping to
  // steady state.
  f.sched.run_until(Time::ms(256));
  ASSERT_GE(f.fired.load(), 256u);

  const std::uint64_t before = allocations();
  f.sched.run_until(Time::ms(1256));
  EXPECT_EQ(allocations(), before)
      << "disabled Trace::emit allocated from a worker shard";
  ASSERT_GE(f.fired.load(), 2000u);
}

TEST(AllocGuard, ShardedCounterCellAddFromWorkersDoesNotAllocate) {
  CounterRegistry reg;
  // Resolve before enabling shards: cell creation is build-time work.
  CounterCell c1 = reg.cell("guard/shard0");
  CounterCell c2 = reg.cell("guard/shard1");
  reg.enable_shards(2);

  ShardedFixture f([&] { c1.add(); }, [&] { c2.add(); });

  f.sched.run_until(Time::ms(256));
  const std::uint64_t warm1 = reg.get("guard/shard0");
  const std::uint64_t warm2 = reg.get("guard/shard1");
  ASSERT_GT(warm1, 0u);
  ASSERT_GT(warm2, 0u);

  const std::uint64_t before = allocations();
  f.sched.run_until(Time::ms(1256));
  EXPECT_EQ(allocations(), before)
      << "sharded CounterCell::add allocated from a worker shard";
  // get() folds every overlay increment into the base store.
  EXPECT_GT(reg.get("guard/shard0"), warm1);
  EXPECT_GT(reg.get("guard/shard1"), warm2);
}

TEST(AllocGuard, EnabledTraceStillInvokesDetailBuilder) {
  Trace trace;
  std::vector<TraceRecord> records;
  trace.set_sink(Trace::recorder(records));
  trace.emit(Time::sec(1), "mld", "listener-added", [] {
    return std::string("group=ff1e::1");
  });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].component, "mld");
  EXPECT_EQ(records[0].event, "listener-added");
  EXPECT_EQ(records[0].detail, "group=ff1e::1");
}

}  // namespace
}  // namespace mip6

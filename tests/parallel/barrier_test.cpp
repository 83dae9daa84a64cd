// What a window barrier must leave behind, at two shards.
//
//  * The scheduler's sub-queues (a heap and a delivery lane each,
//    cross-shard events staged in outboxes and merged at the barrier)
//    execute every domain's events in the order of a single-queue
//    reference, across migrations into and out of sharded mode.
//  * A CounterRegistry written from worker shards reads the same as a
//    serial twin through every reader, between run_until calls, after a
//    re-shard and at the end. The barrier folds no counters; each reader
//    folds first.
//  * Per-shard BufferPools, whose barrier re-checks only the slots lent
//    since the last one, never lend a buffer someone still holds, and after
//    every barrier offer exactly the buffers a full walk finds sole-owned.
//  * RIBs that share one RouteTable answer lookups from two shards that
//    ask for the same unbuilt rows in one window as a serial twin's do.
//
// Carries the par-smoke label, so the par-smoke-tsan and par-smoke-asan
// presets run these under ThreadSanitizer and ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "../sim/scheduler_differential.hpp"
#include "core/random_topology.hpp"
#include "net/buffer_pool.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "stats/counters.hpp"

namespace mip6 {
namespace {

constexpr std::uint32_t kS = Scheduler::kStructuralShard;

TEST(BarrierDifferential, ShardedSubQueuesMatchSingleQueueReference) {
  using namespace difftest;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scheduler sched;
    RefScheduler ref;
    Program<Scheduler> real(sched, seed, 1000, /*global_log=*/false);
    Program<RefScheduler> model(ref, seed, 1000, /*global_log=*/false);
    real.start();
    model.start();
    // The seeded events migrate into the shard sub-queues; a third of the
    // way in they migrate back to one queue, and later out again under a
    // different split.
    sched.configure_shards({kS, 0, 0, 1, 1}, 2, kLookahead);
    drive(sched, real, ref, model, [&](int step) {
      ASSERT_EQ(sched.live_events(), ref.live_events());
      if (step == kSteps / 3) sched.configure_serial();
      if (step == 2 * kSteps / 3) {
        sched.configure_shards({kS, 1, 0, 1, 0}, 2, kLookahead);
      }
    });
    EXPECT_GT(sched.windows(), 0u);
    EXPECT_GT(sched.structural_instants(), 0u);
    for (Domain d = 0; d <= kNodeDomains; ++d) {
      SCOPED_TRACE("domain " + std::to_string(d));
      // Only the world domain schedules into the world domain.
      EXPECT_GT(real.per_domain[d].size(), d == kWorldDomain ? 10u : 100u);
      EXPECT_EQ(first_difference(real.per_domain[d], model.per_domain[d]),
                -1);
    }
    EXPECT_EQ(sched.executed_events(), ref.executed_events());
    EXPECT_EQ(sched.live_events(), 0u);
  }
}

// The same with link-shaped traffic (Mix::kLinks): each shard's delivery
// lane also takes the cross-shard deliveries its barrier drains, and the
// lane entries migrate into heaps at each re-shard.
TEST(BarrierDifferential, DeliveryLaneShardsMatchSingleQueueReference) {
  using namespace difftest;
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
    sched.configure_shards({kS, 0, 0, 1, 1}, 2, kLookahead);
    drive(sched, real, ref, model, [&](int step) {
      ASSERT_EQ(sched.live_events(), ref.live_events());
      if (step == kSteps / 3) sched.configure_serial();
      if (step == 2 * kSteps / 3) {
        sched.configure_shards({kS, 1, 0, 1, 0}, 2, kLookahead);
      }
    });
    EXPECT_GT(sched.windows(), 0u);
    EXPECT_GT(sched.structural_instants(), 0u);
    for (Domain d = 0; d <= kNodeDomains; ++d) {
      SCOPED_TRACE("domain " + std::to_string(d));
      EXPECT_EQ(first_difference(real.per_domain[d], model.per_domain[d]),
                -1);
    }
    EXPECT_EQ(sched.executed_events(), ref.executed_events());
    EXPECT_EQ(sched.live_events(), 0u);
    EXPECT_GT(log_stats(real.per_domain).multi_domain_runs, 50u);
  }
}

// A structural instant runs its events on one thread and asks every
// sub-queue for its earliest entry between them, which sorts a lane run as
// soon as it is that sub-queue's earliest. Here domain 2's own delivery
// starts a run that is sorted before domain 1 and the world, later in the
// same instant, send into it at the same link delay: theirs go to the
// heap, and domain 2 still receives all three in key order.
TEST(BarrierDifferential, DeliveriesIntoASortedLaneRunPopInKeyOrder) {
  Scheduler sched;
  const Domain d1 = sched.add_domain();
  const Domain d2 = sched.add_domain();
  sched.configure_shards({kS, 0, 1}, 2, difftest::kLookahead);
  const Time delay = difftest::kLinkDelay;
  const Time t = Time::us(100);
  std::vector<int> received;  // written only by domain 2's shard
  // Sub-queue 1's smallest positive delay, and so its lane's, is `delay`.
  sched.schedule_at(delay, [] {}, d2);
  sched.schedule_at(t, [&] {
    sched.schedule_in(delay, [&] { received.push_back(2); }, d2);
  }, d2);
  sched.schedule_at(t, [&] {
    sched.schedule_in(delay, [&] { received.push_back(1); }, d2);
  }, d1);
  sched.schedule_at(t, [&] {
    sched.schedule_in(delay, [&] { received.push_back(0); }, d2);
  }, kWorldDomain);
  sched.run_until(t + delay);
  EXPECT_EQ(sched.structural_instants(), 1u);
  // Keys at t + delay differ only in the sender's domain: 1, then 2, then
  // the world, which sorts last.
  EXPECT_EQ(received, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(sched.live_events(), 0u);
}

// Three node domains tick on self-rearming timers and write counters:
// pre-resolved cells (zero deltas included), a cell that only ever gets
// zero, named counters the base store has never seen, and a cell
// registered mid-run. Sharded, domain 1 runs on shard 0 and domains 2 and
// 3 on shard 1, a worker thread.
struct CounterProgram {
  static constexpr Domain kDomains = 3;

  Scheduler sched;
  CounterRegistry reg;
  std::vector<CounterCell> cells;
  CounterCell zero_only;
  CounterCell late;
  bool late_ready = false;  // written only between run_until calls
  std::array<std::array<std::string, 3>, kDomains + 1> names;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Timer>> timers;

  explicit CounterProgram(bool sharded) {
    for (int i = 0; i < 6; ++i) {
      cells.push_back(reg.cell("cell/" + std::to_string(i)));
    }
    zero_only = reg.cell("zero/only");
    rngs.resize(kDomains + 1);
    timers.resize(kDomains + 1);
    for (Domain d = 1; d <= kDomains; ++d) {
      if (sched.add_domain() != d) throw LogicError("domain ids");
      for (std::size_t k = 0; k < names[d].size(); ++k) {
        names[d][k] = "named/" + std::to_string(d) + "/" + std::to_string(k);
      }
      rngs[d] = std::make_unique<Rng>(Rng::derive_seed(17, d));
      timers[d] = std::make_unique<Timer>(sched, [this, d] { tick(d); }, d);
    }
    if (sharded) {
      reg.enable_shards(2);
      sched.configure_shards({kS, 0, 1, 1}, 2, Time::us(100));
    }
    for (Domain d = 1; d <= kDomains; ++d) timers[d]->arm(Time::us(100));
  }

  void tick(Domain d) {
    static constexpr std::uint64_t kDeltas[] = {0, 1, 2, 7};
    Rng& rng = *rngs[d];
    cells[rng.uniform_int(cells.size())].add(kDeltas[rng.uniform_int(4)]);
    zero_only.add(0);
    reg.add(names[d][rng.uniform_int(names[d].size())],
            kDeltas[rng.uniform_int(4)]);
    if (late_ready) late.add(d);
    timers[d]->arm(Time::us(50 * static_cast<std::int64_t>(
                                     1 + rng.uniform_int(3))));
  }

  std::vector<std::string> all_names() const {
    std::vector<std::string> out{"zero/only", "late/cell", "never/seen"};
    for (int i = 0; i < 6; ++i) out.push_back("cell/" + std::to_string(i));
    for (Domain d = 1; d <= kDomains; ++d) {
      out.insert(out.end(), names[d].begin(), names[d].end());
    }
    return out;
  }
};

// Reads `par` through one reader first (so that reader's fold is the one
// under test), then compares every reader against the serial twin.
void expect_same_reads(CounterProgram& par, CounterProgram& ser,
                       int first_reader) {
  switch (first_reader % 4) {
    case 0:
      EXPECT_EQ(par.cells[3].value(), ser.cells[3].value());
      break;
    case 1:
      EXPECT_EQ(par.reg.get("named/2/1"), ser.reg.get("named/2/1"));
      break;
    case 2:
      EXPECT_EQ(par.reg.sum_prefix("named/"), ser.reg.sum_prefix("named/"));
      break;
    default:
      EXPECT_EQ(par.reg.snapshot(), ser.reg.snapshot());
      break;
  }
  for (std::size_t i = 0; i < par.cells.size(); ++i) {
    EXPECT_EQ(par.cells[i].value(), ser.cells[i].value()) << "cell " << i;
  }
  EXPECT_EQ(par.zero_only.value(), 0u);
  EXPECT_EQ(par.late.value(), ser.late.value());
  for (const std::string& name : ser.all_names()) {
    EXPECT_EQ(par.reg.get(name), ser.reg.get(name)) << name;
  }
  for (const char* prefix :
       {"", "cell/", "named/", "named/2/", "named/3", "late/", "zero/"}) {
    EXPECT_EQ(par.reg.sum_prefix(prefix), ser.reg.sum_prefix(prefix))
        << prefix;
  }
  EXPECT_EQ(par.reg.snapshot(), ser.reg.snapshot());
}

TEST(BarrierCounters, WorkerShardWritesReadLikeASerialTwin) {
  CounterProgram par(/*sharded=*/true);
  CounterProgram ser(/*sharded=*/false);
  for (int step = 1; step <= 16; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Time until = Time::ms(step);
    par.sched.run_until(until);
    ser.sched.run_until(until);
    if (step == 5) {
      // Registered while sharded, and written from the workers from now on.
      for (CounterProgram* p : {&par, &ser}) {
        p->late = p->reg.cell("late/cell");
        p->late_ready = true;
      }
    }
    // Reset straight after a window, with unfolded worker writes pending.
    if (step == 9) {
      par.reg.reset();
      ser.reg.reset();
    }
    expect_same_reads(par, ser, step);
  }
  EXPECT_GT(par.sched.windows(), 0u);
  EXPECT_GT(ser.reg.get("late/cell"), 0u);
  EXPECT_GT(ser.reg.sum_prefix("named/2/"), 0u);
  EXPECT_GT(ser.reg.sum_prefix("named/3/"), 0u);
  // The end of the run, after the worker pool is gone.
  par.sched.configure_serial();
  par.reg.disable_shards();
  expect_same_reads(par, ser, 3);
}

// Re-sharding with worker writes not yet folded (no read since the run
// began) must keep them: enable_shards folds the old overlays before it
// replaces them.
TEST(BarrierCounters, ReshardingKeepsUnfoldedWorkerWrites) {
  CounterProgram par(/*sharded=*/true);
  CounterProgram ser(/*sharded=*/false);
  par.sched.run_until(Time::ms(6));
  ser.sched.run_until(Time::ms(6));
  EXPECT_GT(par.sched.windows(), 0u);
  // Three shards now, each node domain on its own; shards 1 and 2 are
  // worker threads.
  par.reg.enable_shards(3);
  par.sched.configure_shards({kS, 0, 1, 2}, 3, Time::us(100));
  par.sched.run_until(Time::ms(12));
  ser.sched.run_until(Time::ms(12));
  par.reg.enable_shards(3);
  expect_same_reads(par, ser, 1);
  EXPECT_GT(ser.reg.sum_prefix("named/2/"), 0u);
  EXPECT_GT(ser.reg.sum_prefix("cell/"), 0u);
}

// Four node domains, two per shard, lend buffers from their shard's pool
// (the controller context uses pool 0, as Network::buffer_pool() does).
// Each tick checks a few out, tags them, and either holds them or hands
// them to a random domain, possibly on the other shard, in a cross-shard
// event; held buffers are released in random order. The barrier hook runs
// mark_safe() and compares each pool's reusable buffers with a full walk
// over every buffer it ever lent.
struct PoolProgram {
  static constexpr Domain kDomains = 4;

  struct Held {
    std::shared_ptr<Bytes> buf;
    std::uint64_t tag = 0;
  };

  Scheduler sched;
  std::array<BufferPool, 2> pools;
  /// Every buffer each pool lent; written by the pool's shard, read by the
  /// controller at barriers.
  std::array<std::vector<std::weak_ptr<Bytes>>, 2> lent;
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<std::deque<Held>> held;
  std::vector<std::uint64_t> next_tag;
  // Written by each domain's own events.
  std::vector<std::uint64_t> shared_checkouts;
  std::vector<std::uint64_t> clobbered;
  // Written by the controller, once per pool per barrier.
  std::uint64_t checks = 0;
  std::uint64_t checks_with_reuse = 0;
  std::uint64_t set_mismatches = 0;

  explicit PoolProgram(std::uint64_t seed)
      : held(kDomains + 1), next_tag(kDomains + 1),
        shared_checkouts(kDomains + 1), clobbered(kDomains + 1) {
    rngs.resize(kDomains + 1);
    timers.resize(kDomains + 1);
    for (Domain d = 1; d <= kDomains; ++d) {
      if (sched.add_domain() != d) throw LogicError("domain ids");
      rngs[d] = std::make_unique<Rng>(Rng::derive_seed(seed, d));
      timers[d] = std::make_unique<Timer>(sched, [this, d] { tick(d); }, d);
    }
    sched.set_barrier_hook([this] { check_barrier(); });
    for (Domain d = 1; d <= kDomains; ++d) timers[d]->arm(Time::us(100));
  }

  void shard(bool on) {
    if (on) {
      sched.configure_shards({kS, 0, 0, 1, 1}, 2, Time::us(100));
    } else {
      sched.configure_serial();
    }
    for (BufferPool& p : pools) p.set_parallel(on);
  }

  static std::size_t pool_slot() {
    return static_cast<std::size_t>(
        std::max(Scheduler::current_shard_slot(), 0));
  }

  static Bytes tag_bytes(std::uint64_t tag) {
    Bytes b(8);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(tag >> (8 * i));
    }
    return b;
  }

  void release(Domain d, Held& h) {
    if (*h.buf != tag_bytes(h.tag)) ++clobbered[d];
    h.buf.reset();
  }

  void tick(Domain d) {
    Rng& rng = *rngs[d];
    const std::size_t p = pool_slot();
    for (std::uint64_t n = rng.uniform_int(4); n > 0; --n) {
      std::shared_ptr<Bytes> buf = pools[p].checkout();
      // Held by the pool and this checkout only, and cleared.
      if (buf.use_count() != 2 || !buf->empty()) ++shared_checkouts[d];
      if (pools[p].fresh() > lent[p].size()) lent[p].push_back(buf);
      const std::uint64_t tag = (std::uint64_t{d} << 32) | next_tag[d]++;
      *buf = tag_bytes(tag);
      if (rng.uniform_int(3) == 0) {
        const auto to = static_cast<Domain>(1 + rng.uniform_int(kDomains));
        sched.schedule_in(
            Time::us(100 * static_cast<std::int64_t>(1 + rng.uniform_int(3))),
            [this, to, buf, tag] { held[to].push_back(Held{buf, tag}); }, to);
      } else {
        held[d].push_back(Held{std::move(buf), tag});
      }
    }
    // Release a few, mostly oldest first, sometimes from the middle.
    for (std::uint64_t n = rng.uniform_int(4); n > 0 && !held[d].empty();
         --n) {
      auto it = held[d].begin();
      if (rng.uniform_int(4) == 0) it += rng.uniform_int(held[d].size());
      release(d, *it);
      held[d].erase(it);
    }
    timers[d]->arm(Time::us(50 * static_cast<std::int64_t>(
                                     1 + rng.uniform_int(3))));
  }

  void check_barrier() {
    for (std::size_t p = 0; p < pools.size(); ++p) {
      ++checks;
      pools[p].mark_safe();
      std::vector<const Bytes*> want;
      for (const auto& w : lent[p]) {
        if (w.use_count() == 1) want.push_back(w.lock().get());
      }
      std::vector<const Bytes*> got = pools[p].reusable_buffers();
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      if (got != want) ++set_mismatches;
      if (!want.empty()) ++checks_with_reuse;
    }
  }
};

TEST(BarrierBufferPool, LentListMarkSafeMatchesAFullWalk) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PoolProgram prog(seed);
    prog.shard(true);
    prog.sched.run_until(Time::ms(20));
    // Back to serial (every buffer reusable the moment it is free), then
    // sharded again: entering parallel mode re-checks every slot.
    prog.shard(false);
    prog.sched.run_until(Time::ms(25));
    prog.shard(true);
    prog.sched.run_until(Time::ms(45));
    EXPECT_GT(prog.sched.windows(), 100u);
    EXPECT_EQ(prog.set_mismatches, 0u);
    // The comparison has something to compare at most barriers.
    EXPECT_GT(prog.checks_with_reuse, prog.checks / 2);
    for (Domain d = 1; d <= PoolProgram::kDomains; ++d) {
      EXPECT_EQ(prog.shared_checkouts[d], 0u) << "domain " << d;
      EXPECT_EQ(prog.clobbered[d], 0u) << "domain " << d;
    }
    for (const BufferPool& p : prog.pools) {
      EXPECT_GT(p.reused(), 5 * p.fresh());
    }
    prog.shard(false);
  }
}

// Two node domains, one per shard, each with a router of one random world.
// Every tick both look up the same next five link prefixes, so in each
// window two threads may build the same row. Between run_until calls the
// routes are recomputed, and the new table's rows are all unbuilt again.
struct LookupProgram {
  static constexpr Domain kDomains = 2;

  RandomTopology topo;
  std::vector<Prefix> prefixes;
  Scheduler sched;
  std::vector<std::unique_ptr<Timer>> timers;
  // Written by each domain's own events.
  std::array<std::vector<Route>, kDomains + 1> found;
  std::array<std::size_t, kDomains + 1> next{};

  explicit LookupProgram(bool sharded) {
    RandomTopologyParams params;
    params.routers = 16;
    params.extra_links = 6;
    params.seed = 5;
    topo = build_random_topology(params);
    topo.world->finalize();
    for (const auto& link : topo.world->net().links()) {
      if (topo.world->plan().has_prefix(link->id())) {
        prefixes.push_back(topo.world->plan().prefix_of(link->id()));
      }
    }
    timers.resize(kDomains + 1);
    for (Domain d = 1; d <= kDomains; ++d) {
      if (sched.add_domain() != d) throw LogicError("domain ids");
      timers[d] = std::make_unique<Timer>(sched, [this, d] { tick(d); }, d);
    }
    if (sharded) sched.configure_shards({kS, 0, 1}, 2, Time::us(100));
    for (Domain d = 1; d <= kDomains; ++d) timers[d]->arm(Time::us(100));
  }

  const Rib& rib(Domain d) const {
    return topo.routers[(d - 1) * 5]->stack->rib();
  }

  void tick(Domain d) {
    for (int k = 0; k < 5; ++k) {
      const Prefix& p = prefixes[next[d]++ % prefixes.size()];
      const Route* r = rib(d).lookup(p.network());
      found[d].push_back(r != nullptr ? *r : Route{});
    }
    timers[d]->arm(Time::us(100));
  }
};

TEST(BarrierRouteTable, TwoShardsBuildingOneRowReadLikeASerialTwin) {
  LookupProgram par(/*sharded=*/true);
  LookupProgram ser(/*sharded=*/false);
  for (int step = 1; step <= 6; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Both routers read one table, none of whose rows is built yet.
    ASSERT_NE(par.rib(1).table(), nullptr);
    ASSERT_EQ(par.rib(1).table(), par.rib(2).table());
    ASSERT_EQ(par.rib(1).table()->rows_built(), 0u);
    const Time until = Time::ms(step);
    par.sched.run_until(until);
    ser.sched.run_until(until);
    // Nine or ten ticks of five lookups cover every prefix.
    EXPECT_EQ(par.rib(1).table()->rows_built(), par.prefixes.size());
    par.topo.world->routing().recompute();
    ser.topo.world->routing().recompute();
  }
  EXPECT_GT(par.sched.windows(), 50u);
  for (Domain d = 1; d <= LookupProgram::kDomains; ++d) {
    SCOPED_TRACE("domain " + std::to_string(d));
    ASSERT_EQ(par.found[d].size(), ser.found[d].size());
    EXPECT_GT(par.found[d].size(), 200u);
    for (std::size_t i = 0; i < par.found[d].size(); ++i) {
      const Route& got = par.found[d][i];
      const Route& want = ser.found[d][i];
      EXPECT_EQ(got.prefix, want.prefix) << i;
      EXPECT_EQ(got.out_iface, want.out_iface) << i;
      EXPECT_EQ(got.next_hop, want.next_hop) << i;
      EXPECT_EQ(got.metric, want.metric) << i;
    }
  }
  par.sched.configure_serial();
}

}  // namespace
}  // namespace mip6

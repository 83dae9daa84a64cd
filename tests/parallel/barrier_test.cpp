// What a window barrier must leave behind, at two shards.
//
//  * The scheduler's sub-queues (a timer heap and a delivery heap each,
//    cross-shard events staged in outboxes and merged at the barrier)
//    execute every domain's events in the order of a single-queue
//    reference, across migrations into and out of sharded mode.
//  * A CounterRegistry written from worker shards reads the same as a
//    serial twin through every reader, between run_until calls, after a
//    re-shard and at the end. The barrier folds no counters; each reader
//    folds first.
//
// Carries the par-smoke label, so the par-smoke-tsan and par-smoke-asan
// presets run these under ThreadSanitizer and ASan+UBSan.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "../sim/scheduler_differential.hpp"
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

}  // namespace
}  // namespace mip6

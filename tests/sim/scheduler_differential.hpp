// Differential workload for the scheduler's two-heap sub-queues.
//
// One seeded random program — schedule_at/schedule_in events, Timer arms,
// extends and cancels, and many same-instant ties — runs over the world
// domain plus kNodeDomains node domains, once on mip6::Scheduler (serial or
// sharded) and once on RefScheduler, a single-queue reference kept in
// canonical-key order. Every executed event the program sees logs its
// (key, exec domain); both runs must log the same sequence. Each domain
// draws from its own Rng and touches only its own timers, so the same
// program is legal at any shard count.
// Node domains schedule into other domains at least kLookahead ahead and
// never into the world domain, which sharded execution requires.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mip6::difftest {

inline constexpr Domain kNodeDomains = 4;
inline constexpr Time kLookahead = Time::us(10);

struct Exec {
  EventKey key;
  Domain exec = kWorldDomain;

  friend bool operator==(const Exec& a, const Exec& b) {
    return a.key.at == b.key.at && a.key.ptime == b.key.ptime &&
           a.key.pdomain == b.key.pdomain && a.key.pseq == b.key.pseq &&
           a.exec == b.exec;
  }
};

/// Single-queue reference: one std::map in canonical-key order, keys
/// assigned exactly as Scheduler::schedule_impl assigns them. Every event
/// gets a shared cancellation handle, a mechanism independent of the real
/// scheduler's per-Timer slots.
class RefScheduler {
 public:
  struct State {
    bool cancelled = false;
    bool executed = false;
  };
  class Handle {
   public:
    void cancel() {
      if (state_ && !state_->executed) state_->cancelled = true;
    }
    bool pending() const {
      return state_ && !state_->cancelled && !state_->executed;
    }

   private:
    friend class RefScheduler;
    std::shared_ptr<State> state_;
  };

  RefScheduler() : seq_(1, 0) {}

  Domain add_domain() {
    seq_.push_back(0);
    return static_cast<Domain>(seq_.size() - 1);
  }
  Time now() const { return now_; }
  Domain current_domain() const { return key_ ? exec_ : kWorldDomain; }
  const EventKey* current_key() const { return key_; }

  Handle schedule_at(Time at, std::function<void()> fn, Domain exec) {
    Handle h;
    h.state_ = std::make_shared<State>();
    push(at, std::move(fn), exec, h.state_);
    return h;
  }
  Handle schedule_in(Time delay, std::function<void()> fn, Domain exec) {
    return schedule_at(now_ + delay, std::move(fn), exec);
  }

  void run_until(Time until) {
    while (!queue_.empty() && queue_.begin()->first.at <= until) {
      auto node = queue_.extract(queue_.begin());
      Entry& e = node.mapped();
      if (e.state->cancelled) continue;
      e.state->executed = true;
      now_ = node.key().at;
      exec_ = e.exec;
      key_ = &node.key();
      e.fn();
      key_ = nullptr;
      ++executed_;
    }
    if (now_ < until) now_ = until;
  }

  std::uint64_t executed_events() const { return executed_; }
  std::size_t live_events() const {
    std::size_t n = 0;
    for (const auto& [key, e] : queue_) {
      if (!e.state->cancelled) ++n;
    }
    return n;
  }

 private:
  struct Entry {
    std::function<void()> fn;
    Domain exec;
    std::shared_ptr<State> state;
  };
  void push(Time at, std::function<void()> fn, Domain exec,
            std::shared_ptr<State> state) {
    const Domain pd = current_domain();
    queue_.emplace(EventKey{at, now_, pd, ++seq_[pd]},
                   Entry{std::move(fn), exec, std::move(state)});
  }

  std::map<EventKey, Entry> queue_;
  std::vector<std::uint64_t> seq_;
  Time now_ = Time::zero();
  Domain exec_ = kWorldDomain;
  const EventKey* key_ = nullptr;
  std::uint64_t executed_ = 0;
};

/// Timer over RefScheduler with mip6::Timer's arm/extend/cancel semantics.
class RefTimer {
 public:
  RefTimer(RefScheduler& sched, std::function<void()> on_expire, Domain d)
      : sched_(&sched), domain_(d), on_expire_(std::move(on_expire)) {}

  void arm(Time delay) {
    cancel();
    expiry_ = sched_->now() + delay;
    handle_ = sched_->schedule_in(delay, [this] { on_event(); }, domain_);
  }
  void extend(Time delay) {
    const Time candidate = sched_->now() + delay;
    if (running() && candidate >= expiry_) {
      expiry_ = candidate;
      return;
    }
    arm(delay);
  }
  void cancel() {
    handle_.cancel();
    expiry_ = Time::never();
  }
  bool running() const { return handle_.pending(); }

 private:
  void on_event() {
    if (sched_->now() < expiry_) {
      handle_ = sched_->schedule_at(expiry_, [this] { on_event(); }, domain_);
      return;
    }
    expiry_ = Time::never();
    on_expire_();
  }

  RefScheduler* sched_;
  Domain domain_;
  std::function<void()> on_expire_;
  RefScheduler::Handle handle_;
  Time expiry_ = Time::never();
};

template <class Sched>
struct Traits;
template <>
struct Traits<Scheduler> {
  using TimerT = Timer;
};
template <>
struct Traits<RefScheduler> {
  using TimerT = RefTimer;
};

/// The random program. Construct it before any sharding so the initial
/// events and timers exercise the migration path too.
template <class Sched>
class Program {
 public:
  using TimerT = typename Traits<Sched>::TimerT;

  static constexpr int kTimersPerDomain = 6;
  static constexpr std::uint64_t kMaxDelayUs = 12;
  static constexpr std::uint64_t kTimerMaxUs = 120;

  /// `budget` bounds the actions each domain takes; `global_log` also
  /// records the interleaved sequence (single-threaded runs only).
  Program(Sched& sched, std::uint64_t seed, int budget, bool global_log)
      : sched_(sched), global_log_(global_log) {
    lps_.resize(kNodeDomains + 1);
    for (Domain d = 1; d <= kNodeDomains; ++d) {
      if (sched_.add_domain() != d) throw LogicError("domain ids");
    }
    for (Domain d = 0; d <= kNodeDomains; ++d) {
      Lp& lp = lps_[d];
      lp.rng = std::make_unique<Rng>(Rng::derive_seed(seed, d));
      lp.budget = budget;
      for (int i = 0; i < kTimersPerDomain; ++i) {
        lp.timers.push_back(
            std::make_unique<TimerT>(sched_, [this, d] { fire(d); }, d));
      }
    }
    per_domain.resize(kNodeDomains + 1);
  }

  /// Seeds every domain with events and timers from the world context,
  /// and cancels one timer per domain before anything runs.
  void start() {
    Rng rng(lps_[0].rng->next_u64());
    for (Domain d = 0; d <= kNodeDomains; ++d) {
      for (int i = 0; i < 3; ++i) {
        const Time delay = Time::us(static_cast<std::int64_t>(
            rng.uniform_int(kMaxDelayUs)));
        sched_.schedule_in(delay, [this, d] { fire(d); }, d);
        sched_.schedule_at(sched_.now() + delay, [this, d] { fire(d); }, d);
      }
      for (auto& t : lps_[d].timers) {
        t->arm(Time::us(1 + static_cast<std::int64_t>(
                                rng.uniform_int(kTimerMaxUs))));
      }
      lps_[d].timers.front()->cancel();
    }
  }

  /// Between run_until calls: a delivery with world provenance, as
  /// structural code after a run_until makes one.
  void poke(Domain d) {
    sched_.schedule_in(Time::zero(), [this, d] { fire(d); }, d);
  }

  std::vector<std::vector<Exec>> per_domain;
  std::vector<Exec> global;

 private:
  struct Lp {
    std::unique_ptr<Rng> rng;
    int budget = 0;
    std::vector<std::unique_ptr<TimerT>> timers;
  };

  void fire(Domain d) {
    const Exec e{*sched_.current_key(), sched_.current_domain()};
    per_domain[d].push_back(e);
    if (global_log_) global.push_back(e);
    act(d);
  }

  // Where a new event may go from domain d, and how far ahead.
  Domain pick_target(Domain d, Rng& rng, Time& delay) {
    const auto jitter = static_cast<std::int64_t>(rng.uniform_int(kMaxDelayUs));
    if (d == kWorldDomain) {
      delay = Time::us(jitter);
      return static_cast<Domain>(rng.uniform_int(kNodeDomains + 1));
    }
    if (rng.bernoulli(0.5)) {
      delay = Time::us(jitter);  // own domain: same-instant ties allowed
      return d;
    }
    delay = kLookahead + Time::us(jitter);
    return 1 + static_cast<Domain>(rng.uniform_int(kNodeDomains));
  }

  void act(Domain d) {
    Lp& lp = lps_[d];
    Rng& rng = *lp.rng;
    for (std::uint64_t k = 1 + rng.uniform_int(2); k > 0; --k) {
      if (lp.budget-- <= 0) return;
      Time delay;
      switch (rng.uniform_int(8)) {
        case 0:
        case 1:
        case 2: {
          const Domain to = pick_target(d, rng, delay);
          sched_.schedule_in(delay, [this, to] { fire(to); }, to);
          break;
        }
        case 3: {
          const Domain to = pick_target(d, rng, delay);
          sched_.schedule_at(sched_.now() + delay, [this, to] { fire(to); },
                             to);
          break;
        }
        case 4:
          timer(lp).cancel();
          break;
        case 5:
          timer(lp).arm(timer_delay(rng));
          break;
        case 6:
          timer(lp).extend(timer_delay(rng));
          break;
        default:
          if (rng.bernoulli(0.25)) {
            timer(lp).cancel();
          } else {
            timer(lp).extend(timer_delay(rng));
          }
          break;
      }
    }
  }

  TimerT& timer(Lp& lp) {
    return *lp.timers[lp.rng->uniform_int(lp.timers.size())];
  }
  static Time timer_delay(Rng& rng) {
    return Time::us(1 + static_cast<std::int64_t>(rng.uniform_int(kTimerMaxUs)));
  }

  Sched& sched_;
  bool global_log_;
  std::vector<Lp> lps_;
};

/// Index of the first entry where the logs differ (the shorter length if
/// one is a prefix of the other), or -1 when they are equal.
inline long first_difference(const std::vector<Exec>& a,
                             const std::vector<Exec>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

inline constexpr int kSteps = 48;
inline constexpr Time kStep = Time::us(37);
inline constexpr Time kHorizon = Time::sec(1);

/// Steps both schedulers through the same run_until horizons, pokes the
/// same domain between steps, and calls `between(step)` at each quiesce
/// point (after both have stopped) before draining to kHorizon.
template <class Between>
void drive(Scheduler& sched, Program<Scheduler>& real, RefScheduler& ref,
           Program<RefScheduler>& model, Between&& between) {
  for (int step = 1; step <= kSteps; ++step) {
    sched.run_until(kStep * step);
    ref.run_until(kStep * step);
    between(step);
    const auto d = static_cast<Domain>(step % (kNodeDomains + 1));
    real.poke(d);
    model.poke(d);
  }
  sched.run_until(kHorizon);
  ref.run_until(kHorizon);
}

}  // namespace mip6::difftest

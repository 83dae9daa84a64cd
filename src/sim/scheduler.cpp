#include "sim/scheduler.hpp"

#include <algorithm>

namespace mip6 {
namespace {

// Spins before a waiter falls back to atomic wait/yield. Windows are tens of
// microseconds of real work, so the barrier almost always resolves in the
// spin phase; the fallback only matters between run_until calls.
constexpr int kSpinBudget = 1 << 14;

// When threads outnumber cores, spinning is pure waste: the thread being
// waited on cannot run while the waiter burns its timeslice. Go straight
// to the futex in that case.
inline int spin_budget(std::uint32_t shard_count) {
  const unsigned cores = std::thread::hardware_concurrency();
  return (cores != 0 && cores < shard_count) ? 1 : kSpinBudget;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

thread_local Scheduler::ExecCtx Scheduler::tls_;

Scheduler::Scheduler() {
  domain_seq_.push_back(0);  // kWorldDomain
  domain_sub_.push_back(0);
  subs_.push_back(std::make_unique<SubQueue>());
}

Scheduler::~Scheduler() {
  stop_workers();
  // Timers may outlive the scheduler: leave none pointing into it.
  for (auto& sub : subs_) {
    for (const HeapEntry& entry : sub->timers) {
      if (TimerSlot* timer = sub->slots[entry.slot].timer) *timer = {};
    }
  }
}

Time Scheduler::now() const {
  if (tls_.sched == this && tls_.sub != nullptr) return tls_.sub->now;
  return now_;
}

Domain Scheduler::add_domain() {
  auto d = static_cast<Domain>(domain_seq_.size());
  domain_seq_.push_back(0);
  // New domains run serially (sub 0) until configure_shards assigns them.
  domain_sub_.push_back(shard_count_ > 1 ? structural_sub_ : 0);
  return d;
}

Domain Scheduler::current_domain() const {
  if (tls_.sched == this && tls_.key != nullptr) return tls_.domain;
  if (!ambient_.empty()) return ambient_.back();
  return kWorldDomain;
}

Domain Scheduler::binding_domain() const {
  // An explicit ambient scope (module construction) wins over event context.
  if (!ambient_.empty()) return ambient_.back();
  if (tls_.sched == this && tls_.key != nullptr) return tls_.domain;
  return kWorldDomain;
}

int Scheduler::current_shard_slot() { return tls_.shard; }

const EventKey* Scheduler::current_key() { return tls_.key; }

std::uint64_t Scheduler::next_emit_seq() {
  return tls_.sub != nullptr ? tls_.sub->emit_seq++ : 0;
}

// --- SubQueue ---------------------------------------------------------------

std::vector<Scheduler::HeapEntry>* Scheduler::SubQueue::front_heap() {
  if (timers.empty()) return deliveries.empty() ? nullptr : &deliveries;
  if (deliveries.empty() || timers.front().key < deliveries.front().key) {
    return &timers;
  }
  return &deliveries;
}

Scheduler::HeapEntry Scheduler::SubQueue::pop(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Later{});
  const HeapEntry entry = heap.back();
  heap.pop_back();
  return entry;
}

EventKey Scheduler::SubQueue::min_key() {
  // Shed cancelled timers from the top so the controller's window planning
  // never keys off a dead event. Deliveries are never cancelled.
  while (!timers.empty() && slots[timers.front().slot].cancelled) {
    --cancelled;
    release_slot(pop(timers).slot);
  }
  const std::vector<HeapEntry>* heap = front_heap();
  if (heap == nullptr) return EventKey{Time::never(), Time::never(), 0, 0};
  return heap->front().key;
}

void Scheduler::SubQueue::push(const EventKey& key, SchedFn&& fn, Domain exec,
                               TimerSlot* timer) {
  std::vector<HeapEntry>& heap = timer != nullptr ? timers : deliveries;
  const std::uint32_t slot = acquire_slot(std::move(fn), timer, exec);
  heap.push_back(HeapEntry{key, slot});
  std::push_heap(heap.begin(), heap.end(), Later{});
  if (timer != nullptr) *timer = TimerSlot{this, slot};
}

std::uint32_t Scheduler::SubQueue::acquire_slot(SchedFn&& fn, TimerSlot* timer,
                                                Domain exec) {
  if (!free_slots.empty()) {
    std::uint32_t slot = free_slots.back();
    free_slots.pop_back();
    slots[slot].fn = std::move(fn);
    slots[slot].timer = timer;
    slots[slot].exec = exec;
    slots[slot].cancelled = false;
    return slot;
  }
  slots.push_back(Event{std::move(fn), timer, exec, false});
  return static_cast<std::uint32_t>(slots.size() - 1);
}

void Scheduler::SubQueue::release_slot(std::uint32_t slot) {
  slots[slot].fn = SchedFn();
  slots[slot].timer = nullptr;
  free_slots.push_back(slot);
}

void Scheduler::SubQueue::maybe_compact() {
  if (cancelled < Scheduler::kCompactMin || cancelled * 2 < timers.size()) {
    return;
  }
  std::size_t keep = 0;
  for (std::size_t i = 0; i < timers.size(); ++i) {
    if (slots[timers[i].slot].cancelled) {
      release_slot(timers[i].slot);
      continue;
    }
    timers[keep] = timers[i];
    ++keep;
  }
  timers.resize(keep);
  cancelled = 0;
  std::make_heap(timers.begin(), timers.end(), Later{});
  ++compactions;
}

// --- Scheduling -------------------------------------------------------------

void Scheduler::schedule_impl(Time at, SchedFn&& fn, Domain exec,
                              TimerSlot* timer) {
  const Time pnow = now();
  if (at < pnow) {
    throw LogicError("schedule_at into the past: " + at.str() + " < " +
                     pnow.str());
  }
  if (at.is_never()) {
    throw LogicError("schedule_at(never)");
  }
  const Domain pd = (tls_.sched == this && tls_.key != nullptr)
                        ? tls_.domain
                        : (!ambient_.empty() ? ambient_.back() : kWorldDomain);
  const EventKey key{at, pnow, pd, ++domain_seq_[pd]};
  const std::uint32_t target =
      exec < domain_sub_.size() ? domain_sub_[exec] : structural_sub_;
  SubQueue& target_sub = *subs_[target];

  if (tls_.sched == this && tls_.shard >= 0 && &target_sub != tls_.sub) {
    // Cross-shard from inside a window: stage in the sender's outbox; the
    // controller merges it into the target heap at the barrier. The
    // lookahead guarantee is what makes the barrier late enough.
    if (target == structural_sub_) {
      throw LogicError("structural event scheduled from a shard context "
                       "(domain " + std::to_string(pd) + " at " + pnow.str() +
                       " scheduling exec domain " + std::to_string(exec) +
                       " for " + at.str() + ")");
    }
    if (at < pnow + lookahead_) {
      throw LogicError("cross-shard event inside the lookahead window: " +
                       at.str() + " < " + (pnow + lookahead_).str());
    }
    tls_.sub->outbox[target].push_back(Staged{key, exec, std::move(fn)});
    return;  // staged events are not cancellable: `timer` stays empty
  }

  target_sub.maybe_compact();
  target_sub.push(key, std::move(fn), exec, timer);
}

void Scheduler::schedule_at(Time at, SchedFn fn) {
  const Domain exec = (tls_.sched == this && tls_.key != nullptr)
                          ? tls_.domain
                          : (!ambient_.empty() ? ambient_.back() : kWorldDomain);
  schedule_impl(at, std::move(fn), exec, nullptr);
}

void Scheduler::schedule_at(Time at, SchedFn fn, Domain exec) {
  schedule_impl(at, std::move(fn), exec, nullptr);
}

void Scheduler::schedule_in(Time delay, SchedFn fn) {
  if (delay < Time::zero()) {
    throw LogicError("schedule_in negative delay: " + delay.str());
  }
  schedule_at(now() + delay, std::move(fn));
}

void Scheduler::schedule_in(Time delay, SchedFn fn, Domain exec) {
  if (delay < Time::zero()) {
    throw LogicError("schedule_in negative delay: " + delay.str());
  }
  schedule_impl(now() + delay, std::move(fn), exec, nullptr);
}

void Scheduler::schedule_timer(TimerSlot& slot, Time at, SchedFn fn,
                               Domain exec) {
  schedule_impl(at, std::move(fn), exec, &slot);
}

void Scheduler::cancel(TimerSlot& slot) {
  if (slot.sub == nullptr) return;
  Event& ev = slot.sub->slots[slot.index];
  ev.cancelled = true;
  ev.timer = nullptr;
  ++slot.sub->cancelled;
  slot = {};
}

// --- Execution --------------------------------------------------------------

void Scheduler::execute_entry(SubQueue& sub, int shard, const HeapEntry& entry,
                              std::uint64_t& count) {
  Event& ev = sub.slots[entry.slot];
  if (ev.cancelled) {
    --sub.cancelled;
    sub.release_slot(entry.slot);
    return;
  }
  sub.now = entry.key.at;
  tls_.domain = ev.exec;
  tls_.key = &entry.key;
  tls_.shard = shard;
  tls_.sub = &sub;
  // The expiry runs: its Timer no longer has one queued.
  if (ev.timer != nullptr) *ev.timer = {};
  // Move the callback out and free the slot before invoking: the callback
  // may schedule (growing slots, invalidating `ev`) and can even reuse
  // this very slot.
  SchedFn fn = std::move(ev.fn);
  sub.release_slot(entry.slot);
  fn();
  tls_.key = nullptr;
  ++count;
  ++sub.executed;
}

std::uint64_t Scheduler::run_serial(Time until) {
  SubQueue& sub = *subs_[0];
  // run_until is inclusive of `until`; nothing is ever scheduled at never().
  const std::uint64_t n = run_shard_before(
      sub, -1, until.is_never() ? Time::never() : until + Time::ns(1));
  // run() passes never() as the horizon; leave now at the last event then.
  if (!until.is_never() && sub.now < until) sub.now = until;
  now_ = sub.now;
  return n;
}

std::uint64_t Scheduler::run_shard_before(SubQueue& sub, int shard, Time end) {
  ExecCtx saved = tls_;
  tls_ = ExecCtx{this, &sub, shard, kWorldDomain, nullptr};
  std::uint64_t n = 0;
  while (std::vector<HeapEntry>* heap = sub.front_heap()) {
    if (heap->front().key.at >= end) break;
    const HeapEntry entry = SubQueue::pop(*heap);
    execute_entry(sub, shard, entry, n);
  }
  tls_ = saved;
  return n;
}

std::uint64_t Scheduler::run_instant(Time ts) {
  // Serialized instant: every due event at exactly `ts`, across all shards
  // and the structural queue, in canonical order, on this thread. Shards are
  // quiesced, so structural events may mutate cross-shard state (moves,
  // crashes, route recomputes) and same-instant shard events interleave with
  // them exactly as a serial run would.
  ExecCtx saved = tls_;
  // execute_entry fills sub/key/shard/domain per event, but now()/provenance
  // also require tls_.sched to recognize this scheduler — without it every
  // schedule made by an instant's handlers reads the stale global clock and
  // collapses to world provenance (events land keyed near t=0 mid-run).
  tls_ = ExecCtx{this, nullptr, -1, kWorldDomain, nullptr};
  std::uint64_t n = 0;
  for (;;) {
    SubQueue* best = nullptr;
    EventKey best_key{Time::never(), Time::never(), 0, 0};
    for (auto& sub : subs_) {
      EventKey k = sub->min_key();
      if (k.at.is_never()) continue;
      if (best == nullptr || k < best_key) {
        best = sub.get();
        best_key = k;
      }
    }
    if (best == nullptr || best_key.at != ts) break;
    const HeapEntry entry = SubQueue::pop(*best->front_heap());
    // shard = -1: trace/counter writes go straight to the merged stores.
    execute_entry(*best, -1, entry, n);
    tls_.key = nullptr;
  }
  tls_ = saved;
  return n;
}

void Scheduler::drain_outboxes() {
  for (auto& src : subs_) {
    for (std::size_t dst = 0; dst < src->outbox.size(); ++dst) {
      auto& staged = src->outbox[dst];
      if (staged.empty()) continue;
      SubQueue& target = *subs_[dst];
      for (auto& s : staged) {
        target.push(s.key, std::move(s.fn), s.exec, nullptr);
      }
      staged.clear();
    }
  }
}

std::uint64_t Scheduler::run_parallel(Time until) {
  std::uint64_t n = 0;
  SubQueue& structural = *subs_[structural_sub_];
  for (;;) {
    EventKey gmin{Time::never(), Time::never(), 0, 0};
    for (auto& sub : subs_) {
      EventKey k = sub->min_key();
      if (!k.at.is_never() && (gmin.at.is_never() || k < gmin)) gmin = k;
    }
    if (gmin.at.is_never() || gmin.at > until) break;
    const Time ts = structural.min_key().at;
    if (ts == gmin.at) {
      // The next event anywhere shares its instant with a structural event:
      // run the whole instant single-threaded in canonical order.
      n += run_instant(ts);
      ++structural_instants_;
      if (barrier_hook_) barrier_hook_();
      continue;
    }
    Time wend = gmin.at + lookahead_;  // exclusive window end
    if (ts < wend) wend = ts;
    // run_until is inclusive of `until`, so the last window ends just past it.
    if (!until.is_never() && until + Time::ns(1) < wend) {
      wend = until + Time::ns(1);
    }
    // Dispatch the window: workers run shards 1..S-1, we run shard 0.
    cmd_->executed.store(0, std::memory_order_relaxed);
    cmd_->done.store(0, std::memory_order_relaxed);
    cmd_->end_ns.store(wend.nanos(), std::memory_order_relaxed);
    cmd_->gen.fetch_add(1, std::memory_order_release);
    cmd_->gen.notify_all();
    n += run_shard_before(*subs_[0], 0, wend);
    const std::uint32_t others = shard_count_ - 1;
    const int budget = spin_budget(shard_count_);
    int spins = 0;
    std::uint32_t d;
    while ((d = cmd_->done.load(std::memory_order_acquire)) < others) {
      if (++spins < budget) {
        cpu_relax();
      } else {
        cmd_->done.wait(d, std::memory_order_acquire);
      }
    }
    n += cmd_->executed.load(std::memory_order_relaxed);
    ++windows_;
    drain_outboxes();
    if (barrier_hook_) barrier_hook_();
  }
  Time end = until;
  if (until.is_never()) {
    end = Time::zero();
    for (auto& sub : subs_) end = std::max(end, sub->now);
  }
  for (auto& sub : subs_) {
    if (sub->now < end) sub->now = end;
  }
  now_ = end;
  return n;
}

std::uint64_t Scheduler::run_until(Time until) {
  if (sharded()) return run_parallel(until);
  return run_serial(until);
}

std::uint64_t Scheduler::run() { return run_until(Time::never()); }

// --- Sharding ---------------------------------------------------------------

void Scheduler::migrate_all_to(const std::vector<std::uint32_t>& new_map,
                               std::uint32_t new_count) {
  const std::size_t total = static_cast<std::size_t>(new_count) + 1;
  std::vector<std::unique_ptr<SubQueue>> fresh;
  fresh.reserve(total);
  Time cur = now_;
  for (auto& sub : subs_) cur = std::max(cur, sub->now);
  for (std::size_t i = 0; i < total; ++i) {
    auto sub = std::make_unique<SubQueue>();
    sub->now = cur;
    sub->outbox.resize(total);
    fresh.push_back(std::move(sub));
  }
  std::uint64_t executed = 0;
  std::uint64_t compactions = 0;
  for (auto& old : subs_) {
    executed += old->executed;
    compactions += old->compactions;
    for (const auto* heap : {&old->timers, &old->deliveries}) {
      for (const HeapEntry& entry : *heap) {
        Event& ev = old->slots[entry.slot];
        if (ev.cancelled) continue;  // dead: drop instead of migrating
        const std::uint32_t dst =
            ev.exec < new_map.size() ? new_map[ev.exec] : new_count;
        SubQueue& target = *fresh[dst];
        const std::uint32_t slot =
            target.acquire_slot(std::move(ev.fn), ev.timer, ev.exec);
        if (ev.timer != nullptr) {
          target.timers.push_back(HeapEntry{entry.key, slot});
          *ev.timer = TimerSlot{&target, slot};  // the Timer follows its event
        } else {
          target.deliveries.push_back(HeapEntry{entry.key, slot});
        }
      }
    }
  }
  for (auto& sub : fresh) {
    std::make_heap(sub->timers.begin(), sub->timers.end(), Later{});
    std::make_heap(sub->deliveries.begin(), sub->deliveries.end(), Later{});
  }
  fresh[0]->executed = executed;
  fresh[0]->compactions = compactions;
  subs_ = std::move(fresh);
  now_ = cur;
}

void Scheduler::configure_shards(std::vector<std::uint32_t> domain_shard,
                                 std::uint32_t shards, Time lookahead) {
  if (tls_.sched == this && tls_.key != nullptr) {
    throw LogicError("configure_shards from inside an event");
  }
  if (shards <= 1) {
    configure_serial();
    return;
  }
  if (lookahead <= Time::zero()) {
    throw LogicError("configure_shards needs a positive lookahead");
  }
  stop_workers();
  domain_shard.resize(domain_seq_.size(), kStructuralShard);
  std::vector<std::uint32_t> new_map(domain_seq_.size(), shards);
  for (std::size_t d = 1; d < domain_shard.size(); ++d) {
    if (domain_shard[d] != kStructuralShard) {
      if (domain_shard[d] >= shards) {
        throw LogicError("configure_shards: shard index out of range");
      }
      new_map[d] = domain_shard[d];
    }
  }
  new_map[kWorldDomain] = shards;  // structural sub is the last one
  migrate_all_to(new_map, shards);
  domain_sub_ = std::move(new_map);
  shard_count_ = shards;
  structural_sub_ = shards;
  lookahead_ = lookahead;
  start_workers();
}

void Scheduler::configure_serial() {
  if (tls_.sched == this && tls_.key != nullptr) {
    throw LogicError("configure_serial from inside an event");
  }
  stop_workers();
  if (shard_count_ == 1 && subs_.size() == 1) return;
  // With new_count 0 there is exactly one sub: shard 0 == structural.
  std::vector<std::uint32_t> new_map(domain_seq_.size(), 0);
  migrate_all_to(new_map, 0);
  subs_[0]->outbox.clear();
  domain_sub_.assign(domain_seq_.size(), 0);
  shard_count_ = 1;
  structural_sub_ = 0;
  lookahead_ = Time::zero();
}

void Scheduler::start_workers() {
  cmd_ = std::make_unique<WorkerCmd>();
  workers_.reserve(shard_count_ - 1);
  for (std::uint32_t s = 1; s < shard_count_; ++s) {
    workers_.emplace_back([this, s] { worker_main(s); });
  }
}

void Scheduler::stop_workers() {
  if (!cmd_) return;
  cmd_->quit.store(true, std::memory_order_release);
  cmd_->gen.fetch_add(1, std::memory_order_release);
  cmd_->gen.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
  cmd_.reset();
}

void Scheduler::worker_main(std::uint32_t shard) {
  std::uint64_t last_gen = 0;
  const int budget = spin_budget(shard_count_);
  for (;;) {
    std::uint64_t gen;
    int spins = 0;
    while ((gen = cmd_->gen.load(std::memory_order_acquire)) == last_gen) {
      if (++spins < budget) {
        cpu_relax();
      } else {
        cmd_->gen.wait(last_gen, std::memory_order_acquire);
      }
    }
    last_gen = gen;
    if (cmd_->quit.load(std::memory_order_acquire)) return;
    const Time end = Time::ns(cmd_->end_ns.load(std::memory_order_relaxed));
    const std::uint64_t n = run_shard_before(*subs_[shard], shard, end);
    cmd_->executed.fetch_add(n, std::memory_order_relaxed);
    cmd_->done.fetch_add(1, std::memory_order_release);
    cmd_->done.notify_all();
  }
}

// --- Introspection ----------------------------------------------------------

std::size_t Scheduler::pending_events() const {
  std::size_t n = 0;
  for (auto& sub : subs_) n += sub->size();
  return n;
}

std::size_t Scheduler::live_events() const {
  std::size_t n = 0;
  for (auto& sub : subs_) n += sub->size() - sub->cancelled;
  return n;
}

std::size_t Scheduler::cancelled_events() const {
  std::size_t n = 0;
  for (auto& sub : subs_) n += sub->cancelled;
  return n;
}

std::uint64_t Scheduler::executed_events() const {
  std::uint64_t n = 0;
  for (auto& sub : subs_) n += sub->executed;
  return n;
}

std::uint64_t Scheduler::compactions() const {
  std::uint64_t n = 0;
  for (auto& sub : subs_) n += sub->compactions;
  return n;
}

}  // namespace mip6

// Discrete-event scheduler with conservative parallel (sharded) execution.
//
// Ordering contract. Every event is ordered by a *canonical key*
//   (at, ptime, pdomain, pseq)
// where `at` is the execution time and the remaining fields are the event's
// provenance: the simulation time of the schedule call, the *domain* that
// made it, and that domain's own schedule counter. A domain is one logical
// process — node N is domain N+1, and domain 0 (kWorldDomain) is the
// world/structural context (topology construction, chaos engine, mobility
// itineraries, cross-node probes). Because a domain always executes
// sequentially, its schedule calls — and therefore every canonical key —
// are identical no matter how the domains are divided among shards. That is
// the whole determinism story: a serial run and an 8-thread run execute the
// same events in the same canonical order and are byte-identical.
//
// Each sub-queue keeps two binary heaps over one slot arena: one for Timer
// expiries (the only cancellable events) and one for every other event
// (link deliveries, plain schedule_at/schedule_in calls and the cross-shard
// events merged at barriers). Nearly every executed event is a delivery,
// and the deliveries in flight number hundreds where the long-lived timers
// (210 s data timeouts, holdtimes, query timers) number thousands, so a
// delivery sifts through the short heap. A pop takes whichever top is
// smaller by the full canonical key; keys are unique, so that is exactly
// the order a single heap would give.
//
// Sharded execution (configure_shards) partitions domains into per-shard
// sub-queues, each an independent indirect-heap scheduler over its own slot
// arena. Shards advance in lockstep time windows no longer than the
// configured lookahead (the minimum link propagation delay): within one
// window no cross-shard event can affect another shard, so shards run on
// worker threads without synchronization. An event scheduled for a domain
// on another shard (a packet crossing a cut link) is staged in a per-edge
// outbox and merged into the target's delivery heap at the window barrier
// (a staged Timer expiry is not cancellable) — its canonical key was fixed
// at schedule time, so it lands exactly where a serial run would have put
// it. Events executed by domain 0 are *structural*: they may mutate
// cross-shard state (move a host, crash a router, recompute routes), so the
// controller runs them with every shard quiesced, interleaved with
// same-instant shard events in canonical order.
// Structural events may only be scheduled from the world context (build
// time or another structural event) or through a structurally-bound Timer.
//
// Cancellation is O(1): a Timer holds a TimerSlot naming the sub-queue and
// arena slot of its queued expiry, and cancel() flags that slot. Cancelled
// expiries (only ever in a timer heap) are skipped when they surface at its
// top AND reclaimed in bulk by threshold-based compaction. The scheduler
// keeps every TimerSlot current: it fills it when it queues the expiry,
// rewrites it when resharding moves the event, and empties it when the
// expiry runs or is cancelled and when the scheduler is destroyed, so a
// Timer never holds a stale index and arming one allocates nothing beyond
// the arena's steady-state capacity (tests/sim/alloc_guard_test.cpp).
// Per-packet deadline refreshes move a stored expiry (Timer::extend)
// instead of cancelling, so compaction is a backstop for control-plane
// re-arms.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/func.hpp"
#include "sim/time.hpp"
#include "util/errors.hpp"

namespace mip6 {

/// Logical-process id: 0 is the world/structural context, node N is N+1.
using Domain = std::uint32_t;
inline constexpr Domain kWorldDomain = 0;

/// Canonical event key; see the file comment. Strictly totally ordered
/// (pseq is unique per pdomain), which makes every heap pop deterministic.
struct EventKey {
  Time at;
  Time ptime;          // simulation time of the schedule call
  Domain pdomain = 0;  // domain whose context made the schedule call
  std::uint64_t pseq = 0;  // that domain's schedule-call counter

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.ptime != b.ptime) return a.ptime < b.ptime;
    if (a.pdomain != b.pdomain) {
      // At equal provenance time the structural context sorts LAST: it only
      // runs at quiesce points, i.e. causally after the shard events of that
      // same instant. (Concretely: a host transmits a frame at t from its
      // own event, then structural code called after run_until(t) transmits
      // another — wire FIFO demands the host's frame arrives first even
      // though both deliveries carry ptime == t.)
      const Domain ra = a.pdomain == kWorldDomain ? ~Domain{0} : a.pdomain;
      const Domain rb = b.pdomain == kWorldDomain ? ~Domain{0} : b.pdomain;
      return ra < rb;
    }
    return a.pseq < b.pseq;
  }
};

class Scheduler {
  struct SubQueue;

 public:
  /// Where a Timer's queued expiry sits; see the file comment. Only the
  /// scheduler writes it. An empty slot (sub == nullptr) means no expiry is
  /// queued for the timer.
  struct TimerSlot {
    SubQueue* sub = nullptr;
    std::uint32_t index = 0;
  };

  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Simulation time of the calling context: the executing shard's clock
  /// from inside an event, the controller clock otherwise.
  Time now() const;

  /// Registers a new domain (one per node); returns its id.
  Domain add_domain();
  std::size_t domain_count() const { return domain_seq_.size(); }
  /// Domain of the event being executed by the calling context
  /// (kWorldDomain outside event execution, or under an ambient scope).
  Domain current_domain() const;
  /// Domain new Timers bind to: current_domain(), or the innermost ambient
  /// scope pushed by DomainScope during construction phases.
  Domain binding_domain() const;

  /// Schedules `fn` to run at absolute time `at` (must be >= now()), in the
  /// context of `exec` (defaults to the scheduling domain). SchedFn stores
  /// closures up to 48 bytes without heap allocation. Nothing cancels
  /// these events; a cancellable expiry is a Timer.
  void schedule_at(Time at, SchedFn fn);
  void schedule_at(Time at, SchedFn fn, Domain exec);
  /// Schedules `fn` to run `delay` from now (delay must be >= 0).
  void schedule_in(Time delay, SchedFn fn);
  void schedule_in(Time delay, SchedFn fn, Domain exec);
  /// schedule_at for a Timer's expiry: records where the event sits in
  /// `slot`, which must be empty. An expiry staged for another shard leaves
  /// `slot` empty and cannot be cancelled.
  void schedule_timer(TimerSlot& slot, Time at, SchedFn fn, Domain exec);
  /// Flags the expiry in `slot` cancelled and empties the slot. An empty
  /// slot is a no-op that touches nothing, which makes a Timer safe to
  /// cancel after its scheduler is gone (the destructor empties every slot).
  static void cancel(TimerSlot& slot);

  /// Runs events until the queues are empty or `until` is reached; events
  /// at exactly `until` are executed. Returns the number executed.
  std::uint64_t run_until(Time until);
  /// Runs to queue exhaustion.
  std::uint64_t run();

  // --- Sharded execution -------------------------------------------------

  /// Partitions domains into `shards` per-thread sub-queues and starts the
  /// worker pool. `domain_shard[d]` names the shard of domain d; domain 0
  /// (and every domain mapped to kStructuralShard) executes structurally.
  /// `lookahead` is the synchronization window (the minimum propagation
  /// delay of any link); must be > 0. Already-scheduled events migrate to
  /// their shard's sub-queue. Call only while quiesced (not from an event).
  static constexpr std::uint32_t kStructuralShard = 0xffffffff;
  void configure_shards(std::vector<std::uint32_t> domain_shard,
                        std::uint32_t shards, Time lookahead);
  /// Back to single-queue serial execution (events migrate back).
  void configure_serial();
  std::uint32_t shards() const { return shard_count_; }
  bool sharded() const { return shard_count_ > 1; }
  /// Shard of the calling worker thread, or -1 (serial, controller or
  /// structural context). Used to route trace/counter/pool accesses.
  static int current_shard_slot();
  /// Canonical key of the event being executed by this thread (null outside
  /// event execution). Valid only during the event's execution.
  static const EventKey* current_key();
  /// Monotone per-shard emit counter for deterministic trace merging.
  static std::uint64_t next_emit_seq();

  /// Hook run by the controller after every window barrier and structural
  /// instant, with all shards quiesced. The Network uses it to merge
  /// per-shard trace buffers into the user sink in canonical order and to
  /// mark pooled buffers reusable.
  using BarrierHook = std::function<void()>;
  void set_barrier_hook(BarrierHook hook) { barrier_hook_ = std::move(hook); }

  /// Windows executed by the sharded controller (0 when serial).
  std::uint64_t windows() const { return windows_; }
  /// Structural instants serialized by the controller.
  std::uint64_t structural_instants() const { return structural_instants_; }

  // --- Introspection -----------------------------------------------------
  /// Entries in both heaps, including not-yet-reclaimed cancelled timers
  /// (compaction keeps those below about the live timer count).
  std::size_t pending_events() const;
  /// Entries scheduled and not yet executed or cancelled.
  std::size_t live_events() const;
  /// Cancelled entries still occupying heap slots.
  std::size_t cancelled_events() const;
  std::uint64_t executed_events() const;
  /// Times a heap was rebuilt to shed cancelled entries.
  std::uint64_t compactions() const;

  /// Cancelled count at or above which a sub-queue's timer heap is
  /// compacted, once the cancelled entries are also half of that heap.
  static constexpr std::size_t kCompactMin = 64;

 private:
  friend class DomainScope;

  /// Event payloads live in slots and never move; the binary heaps order
  /// trivially-copyable 40-byte entries (32-byte key plus slot), so
  /// push_heap/pop_heap sifts are plain memcpys instead of type-erased
  /// closure relocations.
  struct Event {
    SchedFn fn;
    TimerSlot* timer = nullptr;  // the Timer whose queued expiry this is
    Domain exec = kWorldDomain;
    bool cancelled = false;
  };
  struct HeapEntry {
    EventKey key;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return b.key < a.key;
    }
  };
  /// A cross-shard event staged in the sender's outbox until the barrier.
  struct Staged {
    EventKey key;
    Domain exec;
    SchedFn fn;
  };

  struct SubQueue {
    /// Binary heaps ordered by Later, both over `slots`: Timer expiries,
    /// and every other event. Only `timers` can hold cancelled entries.
    std::vector<HeapEntry> timers;
    std::vector<HeapEntry> deliveries;
    std::vector<Event> slots;
    std::vector<std::uint32_t> free_slots;
    /// Cancelled entries still in `timers`.
    std::uint64_t cancelled = 0;
    /// One outbox per target shard (staged cross-shard events).
    std::vector<std::vector<Staged>> outbox;
    Time now = Time::zero();
    std::uint64_t executed = 0;
    std::uint64_t compactions = 0;
    std::uint64_t emit_seq = 0;

    std::size_t size() const { return timers.size() + deliveries.size(); }
    /// The heap whose top is the earliest entry, or null when both are
    /// empty. Keys are unique, so popping it gives the one-heap order.
    std::vector<HeapEntry>* front_heap();
    static HeapEntry pop(std::vector<HeapEntry>& heap);
    /// Key of the earliest live entry, or at == never() when empty.
    EventKey min_key();
    /// Queues an event; a `timer` puts it in the timer heap and records
    /// its place there.
    void push(const EventKey& key, SchedFn&& fn, Domain exec,
              TimerSlot* timer);
    std::uint32_t acquire_slot(SchedFn&& fn, TimerSlot* timer, Domain exec);
    void release_slot(std::uint32_t slot);
    void maybe_compact();
  };

  /// Per-thread execution context (what current_shard_slot()/now() read).
  struct ExecCtx {
    Scheduler* sched = nullptr;
    SubQueue* sub = nullptr;
    int shard = -1;  // -1: serial/controller/structural
    Domain domain = kWorldDomain;
    const EventKey* key = nullptr;
  };
  static thread_local ExecCtx tls_;

  void schedule_impl(Time at, SchedFn&& fn, Domain exec, TimerSlot* timer);
  /// Executes one popped entry on `sub` with the exec context set up.
  void execute_entry(SubQueue& sub, int shard, const HeapEntry& entry,
                     std::uint64_t& count);
  /// Pops and runs sub's events with key.at < end: one shard's window, or
  /// (shard -1) a whole serial run.
  std::uint64_t run_shard_before(SubQueue& sub, int shard, Time end);
  /// Runs every due event at exactly `ts`, across all sub-queues, in
  /// canonical order, on the controller thread (structural instants).
  std::uint64_t run_instant(Time ts);
  void drain_outboxes();
  std::uint64_t run_serial(Time until);
  std::uint64_t run_parallel(Time until);
  void migrate_all_to(const std::vector<std::uint32_t>& new_map,
                      std::uint32_t new_count);
  void start_workers();
  void stop_workers();
  void worker_main(std::uint32_t shard);

  // Domains. domain_seq_ cells are only bumped by the context that owns the
  // domain (its shard, or the quiesced controller), so no synchronization
  // is needed.
  std::vector<std::uint64_t> domain_seq_;  // per-domain schedule counters
  std::vector<std::uint32_t> domain_sub_;  // domain -> sub-queue index
  std::vector<Domain> ambient_;            // DomainScope stack (build time)

  std::vector<std::unique_ptr<SubQueue>> subs_;  // [0..shard_count_) +
                                                 // structural sub last
  std::uint32_t shard_count_ = 1;
  std::uint32_t structural_sub_ = 0;  // == shard sub 0 in serial mode
  Time lookahead_ = Time::zero();
  Time now_ = Time::zero();  // controller clock (max of finished windows)
  BarrierHook barrier_hook_;
  std::uint64_t windows_ = 0;
  std::uint64_t structural_instants_ = 0;

  // Worker pool (sharded mode only). The controller publishes a command
  // generation + window end; workers run their shard and report done.
  struct WorkerCmd {
    std::atomic<std::uint64_t> gen{0};
    std::atomic<std::int64_t> end_ns{0};
    std::atomic<bool> quit{false};
    std::atomic<std::uint32_t> done{0};
    std::atomic<std::uint64_t> executed{0};
  };
  std::unique_ptr<WorkerCmd> cmd_;
  std::vector<std::thread> workers_;
};

/// RAII ambient-domain scope: Timers constructed (and events scheduled)
/// inside the scope bind to `d` instead of the world domain. NodeRuntime
/// wraps module construction with the node's domain so every protocol timer
/// executes on its node's shard.
class DomainScope {
 public:
  DomainScope(Scheduler& sched, Domain d) : sched_(&sched) {
    sched_->ambient_.push_back(d);
  }
  ~DomainScope() { sched_->ambient_.pop_back(); }
  DomainScope(const DomainScope&) = delete;
  DomainScope& operator=(const DomainScope&) = delete;

 private:
  Scheduler* sched_;
};

}  // namespace mip6

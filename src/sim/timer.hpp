// Restartable protocol timer.
//
// Every MLD/PIM/MIPv6 timer in the paper (query interval, listener interval,
// prune delay, data timeout, binding lifetime...) is a Timer: arm it with a
// duration, re-arming cancels the previous expiry, expiry invokes a fixed
// callback. The callback is set once at construction, which mirrors how
// protocol specs describe timers ("when the timer expires, do X").
//
// A Timer owns its cancellation: the scheduler records in the Timer's
// TimerSlot where its expiry is queued and empties the slot when the expiry
// runs, so running() reads the slot and cancel() flags that one event,
// with no shared state between them. A Timer therefore cannot be moved, and
// it may outlive its scheduler (it then reports not running).
//
// A per-packet refresh (the (S,G) data timeout) uses extend() instead of
// arm(): moving the deadline later only stores it, and the pending event
// wakes at the old expiry and sleeps on to the stored one. The timer still
// expires at the last refresh plus its duration, with one heap entry in
// flight instead of a cancel and a push per packet.
//
// A Timer is bound to a domain. Prefer passing it explicitly: protocol
// state (and its timers) is routinely created both from the owning node's
// own packet events and from structural entry points (initial subscribe,
// module restart after a crash), and only an explicit binding puts the
// expiry on the node's shard in both cases. Without the argument the
// binding is captured from the scheduler's context at construction
// (NodeRuntime wraps module construction in a DomainScope, so ctor-created
// timers land on their node). bind_domain() rebinds after the fact —
// kWorldDomain for expiries that mutate cross-shard state and must run
// structurally (e.g. MobileNode attachment completion).
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "sim/scheduler.hpp"

namespace mip6 {

class Timer {
 public:
  Timer(Scheduler& sched, std::function<void()> on_expire,
        std::optional<Domain> bind = std::nullopt)
      : sched_(&sched),
        domain_(bind ? *bind : sched.binding_domain()),
        on_expire_(std::move(on_expire)) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() {
    // Destroyed by its own expiry handler: the handler keeps running from
    // the moved-out copy, which must not be moved back.
    for (Firing* f = Firing::current; f != nullptr; f = f->outer) {
      if (f->timer == this) f->timer = nullptr;
    }
    cancel();
  }

  /// Rebinds the expiry's execution domain (kWorldDomain = structural).
  void bind_domain(Domain d) { domain_ = d; }
  Domain domain() const { return domain_; }

  /// (Re)arms to fire `delay` from now.
  void arm(Time delay) {
    cancel();
    expiry_ = sched_->now() + delay;
    sched_->schedule_timer(slot_, expiry_, [this] { on_event(); }, domain_);
  }

  /// Moves the expiry to `delay` from now. On a running timer a deadline at
  /// or after the current one is only stored; anything else is arm().
  void extend(Time delay) {
    const Time candidate = sched_->now() + delay;
    if (running() && candidate >= expiry_) {
      expiry_ = candidate;
      return;
    }
    arm(delay);
  }

  /// Arms only if not already running (used for "set if not set" semantics).
  void arm_if_idle(Time delay) {
    if (!running()) arm(delay);
  }

  /// Re-arms only if the new expiry would be earlier than the current one.
  void arm_to_earlier(Time delay) {
    Time candidate = sched_->now() + delay;
    if (!running() || candidate < expiry_) arm(delay);
  }

  void cancel() {
    Scheduler::cancel(slot_);
    expiry_ = Time::never();
  }

  bool running() const { return slot_.sub != nullptr; }
  /// Absolute expiry time, or Time::never() when idle.
  Time expiry() const { return running() ? expiry_ : Time::never(); }
  /// Time remaining until expiry; never() when idle.
  Time remaining() const {
    return running() ? expiry_ - sched_->now() : Time::never();
  }

 private:
  void on_event() {
    if (sched_->now() < expiry_) {
      // extend() moved the deadline since this event was scheduled.
      sched_->schedule_timer(slot_, expiry_, [this] { on_event(); }, domain_);
      return;
    }
    expiry_ = Time::never();
    // Expiry handlers routinely destroy the state that owns this Timer
    // (listener entries, (S,G) entries, neighbor records erase themselves),
    // and destroying a std::function during its own invocation is undefined
    // behaviour. So the handler is moved out for the call, which allocates
    // nothing however large its captures, and back in if the Timer lives.
    Firing firing(*this);
    firing.fn();
  }

  /// The expiry handler this thread is running, moved out of its Timer.
  /// Handlers run one at a time per thread; `outer` chains the previous
  /// one should a handler ever run another scheduler's events.
  struct Firing {
    explicit Firing(Timer& t)
        : timer(&t), fn(std::move(t.on_expire_)),
          outer(std::exchange(current, this)) {}
    ~Firing() {
      current = outer;
      if (timer != nullptr) timer->on_expire_ = std::move(fn);
    }
    Firing(const Firing&) = delete;
    Firing& operator=(const Firing&) = delete;

    Timer* timer;  // null once the handler has destroyed its Timer
    std::function<void()> fn;
    Firing* outer;
    static inline thread_local Firing* current = nullptr;
  };

  Scheduler* sched_;
  Domain domain_;
  std::function<void()> on_expire_;
  Scheduler::TimerSlot slot_;
  Time expiry_ = Time::never();
};

}  // namespace mip6

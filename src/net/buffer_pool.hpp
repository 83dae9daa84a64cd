// Recycling pool for packet byte buffers.
//
// Forwarding a datagram needs a mutated copy of its octets (hop-limit
// decrement), and with tens of routers relaying CBR streams that is the
// single biggest source of allocator traffic in a run. The pool keeps a
// strong reference to every buffer it has made; a slot whose reference
// count has dropped back to 1 (every Packet that shared it is gone) is
// handed out again with its heap capacity intact, so the steady-state
// forwarding path does vector::assign into recycled storage instead of
// malloc/free per hop.
//
// A checkout looks at no more than kProbeBudget slots from a round-robin
// cursor and adds a slot when none of them is free. Packets mostly leave
// the world in the order they entered it, so the slots the cursor reaches
// are the ones lent longest ago: the pool settles at the peak number of
// buffers in flight, at little more than one probe per checkout.
//
// Consumers receive shared_ptr<Bytes> but typically store it as a Packet's
// shared_ptr<const Bytes>: the pool keeps the only mutable handle, and it
// only mutates (clears) a buffer after proving no one else holds it. There
// is no custom deleter — slots are plain strong references — so pool
// lifetime is decoupled from buffer lifetime and destruction order between
// the pool, the scheduler, and in-flight packets cannot dangle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/buffer.hpp"

namespace mip6 {

class BufferPool {
 public:
  /// Slots a checkout looks at before it adds a new one.
  static constexpr std::size_t kProbeBudget = 8;

  /// Returns an empty buffer, reusing a retired slot's capacity when one of
  /// the next kProbeBudget slots is free.
  std::shared_ptr<Bytes> checkout() {
    const std::size_t n = slots_.size();
    const std::size_t budget = n < kProbeBudget ? n : kProbeBudget;
    for (std::size_t probe = 0; probe < budget; ++probe) {
      const std::size_t i = cursor_;
      cursor_ = (cursor_ + 1 == n) ? 0 : cursor_ + 1;
      ++probes_;
      if (!reusable(i)) continue;
      ++reused_;
      lend(i);
      slots_[i]->clear();
      return slots_[i];
    }
    ++fresh_;
    slots_.push_back(std::make_shared<Bytes>());
    if (parallel_) safe_.push_back(0);
    lend(slots_.size() - 1);
    return slots_.back();
  }

  /// Enters/leaves barrier-gated reuse (one pool per shard under parallel
  /// execution; serial pools skip the safe-slot bookkeeping entirely).
  /// Entering counts every slot as lent, so the next barrier re-checks all.
  void set_parallel(bool on) {
    parallel_ = on;
    safe_.assign(on ? slots_.size() : 0, 0);
    lent_.clear();
    if (on) {
      for (std::size_t i = 0; i < slots_.size(); ++i) lent_.push_back(i);
    }
  }

  /// Controller-side, at every window barrier: records which slots lent
  /// since they were last proven sole-owned are sole-owned now. The
  /// barrier's synchronization makes any prior cross-shard release
  /// happen-before the next reuse. A slot proven sole-owned stays so until
  /// this pool lends it again, so only the lent slots need a look.
  void mark_safe() {
    std::size_t held = 0;
    for (const std::size_t i : lent_) {
      if (slots_[i].use_count() == 1) {
        safe_[i] = 1;
      } else {
        lent_[held++] = i;
      }
    }
    lent_.resize(held);
  }

  /// Checkout pre-filled with a copy of `src` (the common forward-path use).
  std::shared_ptr<Bytes> checkout_copy(const Bytes& src) {
    auto buf = checkout();
    buf->assign(src.begin(), src.end());
    return buf;
  }

  /// The buffers a checkout may hand out now, in slot order (for tests).
  std::vector<const Bytes*> reusable_buffers() const {
    std::vector<const Bytes*> out;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (reusable(i)) out.push_back(slots_[i].get());
    }
    return out;
  }

  std::size_t slots() const { return slots_.size(); }
  std::uint64_t reused() const { return reused_; }
  std::uint64_t fresh() const { return fresh_; }
  /// Slots looked at by every checkout so far.
  std::uint64_t probes() const { return probes_; }

 private:
  /// Parallel mode: only slots proven sole-owned at the last window
  /// barrier. A relaxed use_count()==1 alone would not order the remote
  /// shard's release before our reuse; the barrier does. A slot safe at
  /// the barrier is sole-owned by this pool and can only be handed out
  /// again by this shard's own thread.
  bool reusable(std::size_t i) const {
    return parallel_ ? safe_[i] != 0 : slots_[i].use_count() == 1;
  }

  void lend(std::size_t i) {
    if (!parallel_) return;
    safe_[i] = 0;
    lent_.push_back(i);
  }

  std::vector<std::shared_ptr<Bytes>> slots_;
  std::vector<std::uint8_t> safe_;  // parallel mode: barrier-proven sole-owned
  /// Parallel mode: slots lent since they were last proven sole-owned.
  std::vector<std::size_t> lent_;
  bool parallel_ = false;
  std::size_t cursor_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace mip6

// Compact multicast forwarding cache (MFC) primitives, modelled on the
// kernel mroute6 idiom: interfaces get small dense `mifi` indices, a
// per-(S,G) entry precomputes its outgoing set as a fixed-width bitmap, and
// a hash-keyed flow cache lets the data path forward without consulting the
// protocol state machines at all.
//
// Division of labour: this layer is pure bookkeeping — it never decides
// *what* the oif set is. The dense-mode data plane (pimdm/dense_data_plane)
// installs bitmaps the engines describe, and every control-plane transition
// that can change an oif set invalidates the affected entries (or the whole
// cache). Stale entries are invisible to find(), so a missed refill only
// costs a slow-path packet, never a wrong forwarding decision — but a missed
// *invalidation* is a stale-cache misforward, which is why a coherence check
// compares every fresh entry with the engine state at every frame of the
// regression runs (docs/PERF.md "The multicast data plane forwards through
// the MFC").
//
// Determinism contract: MifTable keeps its dense indices sorted by IfaceId
// (insertions renumber, legal because any insertion already forces a cache
// flush), so iterating a bitmap in mifi order transmits in ascending
// IfaceId order — byte-identical traces vs the pre-cache std::map walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/interface.hpp"

namespace mip6 {

class Timer;

/// Dense per-router interface index ("mifi_t"): the bit position of an
/// interface in an IfSet.
using Mifi = std::uint16_t;
inline constexpr Mifi kNoMif = 0xffff;

/// Fixed-width interface bitmap (the kernel's `if_set` word array).
class IfSet {
 public:
  static constexpr std::size_t kBits = 256;
  static constexpr std::size_t kWords = kBits / 64;

  void set(Mifi i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void clear(Mifi i) { words_[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
  bool test(Mifi i) const {
    return (words_[i / 64] >> (i % 64)) & std::uint64_t{1};
  }
  bool empty() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }
  std::size_t count() const;
  void reset() { words_[0] = words_[1] = words_[2] = words_[3] = 0; }
  /// Raw word access for set-bit iteration (see forward_out_many).
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  friend bool operator==(const IfSet&, const IfSet&) = default;

 private:
  std::uint64_t words_[kWords] = {};
};

/// Dense interface index assignment, sorted by IfaceId. lookup() is a
/// binary search over a flat array (at most a handful of entries per
/// router); add() keeps the array sorted, renumbering later indices — the
/// caller must flush any bitmaps built under the old numbering.
class MifTable {
 public:
  /// `max_ifaces` is the fail-fast width budget: registering more
  /// interfaces than this (or than IfSet::kBits) throws LogicError rather
  /// than silently truncating the oif set.
  explicit MifTable(std::size_t max_ifaces = IfSet::kBits);

  /// Registers `iface` (idempotent); returns its mifi. Throws LogicError
  /// when the width budget is exhausted.
  Mifi add(IfaceId iface);
  /// kNoMif when the interface was never registered.
  Mifi lookup(IfaceId iface) const;
  IfaceId iface(Mifi m) const { return ifaces_[m]; }
  std::size_t size() const { return ifaces_.size(); }

 private:
  std::vector<IfaceId> ifaces_;  // sorted ascending; index == mifi
  std::size_t max_;
};

/// (S,G) cache key as raw 64-bit halves of the two addresses — keeps this
/// layer independent of the IPv6 address type above it.
struct FlowKey {
  std::uint64_t w[4] = {};

  friend bool operator==(const FlowKey& a, const FlowKey& b) {
    return a.w[0] == b.w[0] && a.w[1] == b.w[1] && a.w[2] == b.w[2] &&
           a.w[3] == b.w[3];
  }
};

/// One precomputed forwarding decision: everything the data path needs to
/// replicate a datagram without touching protocol state. `data_timeout` is
/// the owning (S,G) entry's data-timeout timer, restarted per forwarded
/// datagram; it is only dereferenced on fresh entries, and every path that
/// can destroy an entry invalidates or clears the cache first.
struct MfcEntry {
  FlowKey key;
  std::uint64_t epoch = 0;  // 0 = never valid; != cache epoch = stale
  IfaceId iif = 0;
  IfSet oifs;
  Timer* data_timeout = nullptr;
};

/// Open-addressed (S,G) -> MfcEntry map with epoch invalidation: slots are
/// never erased, invalidate() zeroes one entry's epoch and
/// invalidate_all() bumps the cache epoch so every entry goes stale at
/// once. find() is allocation-free; insertion (slow path only) may grow
/// the table.
class FlowCache {
 public:
  explicit FlowCache(std::size_t initial_slots = 16);

  /// The fresh entry for `k`, or nullptr (absent or stale).
  MfcEntry* find(const FlowKey& k);
  /// Finds-or-creates the slot for `k` and marks it fresh; the caller
  /// overwrites the payload fields.
  MfcEntry& insert(const FlowKey& k);
  void invalidate(const FlowKey& k);
  void invalidate_all() { ++epoch_; }
  /// Drops every slot (entry pointers are about to dangle: engine
  /// shutdown/crash).
  void clear();
  /// Occupied slots, stale ones included.
  std::size_t size() const { return used_; }
  /// Calls `fn(entry)` for every fresh entry (audits; not a data path).
  template <typename Fn>
  void for_each_fresh(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used && s.entry.epoch == epoch_) fn(s.entry);
    }
  }

 private:
  struct Slot {
    MfcEntry entry;
    bool used = false;
  };

  static std::uint64_t hash(const FlowKey& k);
  Slot& probe(const FlowKey& k);
  void grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::uint64_t epoch_ = 1;  // entries start at epoch 0 = stale
};

}  // namespace mip6

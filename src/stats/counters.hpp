// Named counter registry.
//
// Protocol engines account control/data traffic and processing events
// (encapsulations, tree rebuilds, asserts...) against hierarchical names
// like "pimdm/tx/graft" or "ha/encap". Scenario code reads them back by
// exact name or by prefix sum, which is how the Section 4.3 criteria
// (protocol overhead, system load) are computed.
//
// Sharded operation: under parallel execution every write from a worker
// shard lands in that shard's overlay — an indexed array for pre-resolved
// CounterCells plus a name-keyed map for cold, lazily-named counters — and
// the overlays are folded into the base store when a reader asks (get,
// sum_prefix, snapshot, CounterCell::value), never at window barriers.
// Sums are commutative, so the merged totals are identical to a serial
// run's; the overlay arrays are retained across folds, keeping the
// steady-state write path allocation-free.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scheduler.hpp"

namespace mip6 {

class CounterRegistry;

/// Shard-safe handle to one counter: resolves the name once, then every
/// add() routes to the calling shard's overlay (or straight to the base
/// store in serial/structural contexts). Hot paths hold one of these
/// instead of a raw cell reference, which a shard overlay could not
/// intercept.
class CounterCell {
 public:
  CounterCell() = default;
  inline void add(std::uint64_t delta = 1) const;
  /// Merged value; call only from quiesced contexts (between windows).
  inline std::uint64_t value() const;

 private:
  friend class CounterRegistry;
  CounterCell(CounterRegistry* reg, std::uint64_t* base, std::uint32_t idx)
      : reg_(reg), base_(base), idx_(idx) {}
  CounterRegistry* reg_ = nullptr;
  std::uint64_t* base_ = nullptr;
  std::uint32_t idx_ = 0;
};

class CounterRegistry {
 public:
  /// Lookups are heterogeneous (std::less<> map): bumping an existing
  /// counter from a string literal or string_view never materializes a
  /// std::string, so count sites on the data path stay allocation-free
  /// once the name has been registered.
  void add(std::string_view name, std::uint64_t delta = 1);
  std::uint64_t get(std::string_view name) const;
  /// Shard-safe handle (see CounterCell), created at zero if absent.
  /// Resolve at construction time; the handle stays valid for the
  /// registry's lifetime (reset() zeroes values in place).
  CounterCell cell(std::string_view name);
  /// Sum of all counters whose name starts with `prefix`.
  std::uint64_t sum_prefix(std::string_view prefix) const;
  /// All (name, value) pairs with a non-zero count, name-ordered.
  /// (Zero-valued cells are pre-registered hot counters that never fired.)
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;
  void reset();

  // --- Sharded operation -------------------------------------------------
  /// Allocates one overlay per shard; writes from worker contexts divert
  /// there until merge_shards() folds them into the base store. Called
  /// again while sharded, it folds the old overlays first.
  void enable_shards(std::size_t shards);
  /// Merges and drops the overlays (back to serial operation).
  void disable_shards();
  /// Folds every overlay into the base store, zeroing the overlays in
  /// place. Every reader calls it first; call it only with the shards
  /// quiesced.
  void merge_shards() const;
  bool sharded() const { return sharded_; }

 private:
  friend class CounterCell;

  struct Overlay {
    std::vector<std::uint64_t> vals;  // indexed by CounterCell idx
    std::map<std::string, std::uint64_t, std::less<>> by_name;
  };

  void cell_add(const CounterCell& c, std::uint64_t delta) {
    if (sharded_) {
      const int s = Scheduler::current_shard_slot();
      if (s >= 0) {
        overlays_[static_cast<std::size_t>(s)].vals[c.idx_] += delta;
        return;
      }
    }
    *c.base_ += delta;
  }

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  /// idx -> base cell, for folding overlay arrays back in.
  std::vector<std::uint64_t*> cell_base_;
  std::map<std::string, std::uint32_t, std::less<>> cell_idx_;
  mutable std::vector<Overlay> overlays_;
  bool sharded_ = false;
};

inline void CounterCell::add(std::uint64_t delta) const {
  if (reg_ != nullptr) reg_->cell_add(*this, delta);
}

inline std::uint64_t CounterCell::value() const {
  if (reg_ == nullptr) return 0;
  if (reg_->sharded()) reg_->merge_shards();
  return *base_;
}

}  // namespace mip6

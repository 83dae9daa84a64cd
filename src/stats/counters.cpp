#include "stats/counters.hpp"

namespace mip6 {

void CounterRegistry::add(std::string_view name, std::uint64_t delta) {
  if (sharded_) {
    const int s = Scheduler::current_shard_slot();
    if (s >= 0) {
      // Shard-local by-name overlay: no shared map mutation from workers.
      auto& by_name = overlays_[static_cast<std::size_t>(s)].by_name;
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        by_name.emplace(std::string(name), delta);
      } else {
        it->second += delta;
      }
      return;
    }
  }
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t CounterRegistry::get(std::string_view name) const {
  if (sharded_) merge_shards();
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

CounterCell CounterRegistry::cell(std::string_view name) {
  auto base_it = counters_.find(name);
  if (base_it == counters_.end()) {
    base_it = counters_.emplace(std::string(name), 0).first;
  }
  std::uint64_t& base = base_it->second;
  auto it = cell_idx_.find(name);
  if (it == cell_idx_.end()) {
    it = cell_idx_.emplace(std::string(name),
                           static_cast<std::uint32_t>(cell_base_.size()))
             .first;
    cell_base_.push_back(&base);
    for (auto& o : overlays_) o.vals.resize(cell_base_.size(), 0);
  }
  return CounterCell(this, &base, it->second);
}

std::uint64_t CounterRegistry::sum_prefix(std::string_view prefix) const {
  if (sharded_) merge_shards();
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (std::string_view(it->first).substr(0, prefix.size()) != prefix) break;
    total += it->second;
  }
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>> CounterRegistry::snapshot()
    const {
  if (sharded_) merge_shards();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    if (value != 0) out.emplace_back(name, value);
  }
  return out;
}

// Zero in place instead of erasing: cells point into counters_.
void CounterRegistry::reset() {
  for (auto& [name, value] : counters_) value = 0;
  for (auto& o : overlays_) {
    for (auto& v : o.vals) v = 0;
    o.by_name.clear();
  }
}

void CounterRegistry::enable_shards(std::size_t shards) {
  if (sharded_) merge_shards();
  overlays_.assign(shards, Overlay{});
  for (auto& o : overlays_) o.vals.resize(cell_base_.size(), 0);
  sharded_ = true;
}

void CounterRegistry::disable_shards() {
  if (!sharded_) return;
  merge_shards();
  overlays_.clear();
  sharded_ = false;
}

void CounterRegistry::merge_shards() const {
  // Controller-side: all shards quiesced. Sums are commutative, so folding
  // lazily before a read produces the serial totals.
  auto* self = const_cast<CounterRegistry*>(this);
  for (auto& o : overlays_) {
    for (std::size_t i = 0; i < o.vals.size(); ++i) {
      if (o.vals[i] != 0) {
        *self->cell_base_[i] += o.vals[i];
        o.vals[i] = 0;
      }
    }
    if (!o.by_name.empty()) {
      for (const auto& [name, value] : o.by_name) {
        auto it = self->counters_.find(name);
        if (it == self->counters_.end()) {
          self->counters_.emplace(name, value);
        } else {
          it->second += value;
        }
      }
      o.by_name.clear();
    }
  }
}

}  // namespace mip6

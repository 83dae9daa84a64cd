#include "sim/trace.hpp"

namespace mip6 {

std::string TraceRecord::str() const {
  return at.str() + " [" + component + "] " + event +
         (detail.empty() ? "" : (" " + detail));
}

Trace::Sink Trace::recorder(std::vector<TraceRecord>& out) {
  return [&out](const TraceRecord& r) { out.push_back(r); };
}

void Trace::enable_shards(std::size_t shards) {
  buffers_.assign(shards, {});
  sharded_ = true;
}

void Trace::disable_shards() {
  if (!sharded_) return;
  merge_shards();
  buffers_.clear();
  sharded_ = false;
}

void Trace::merge_shards() const {
  if (!sink_) {
    for (auto& b : buffers_) b.clear();
    return;
  }
  // Each buffer is already in canonical order (a shard executes its events
  // in key order), so a k-way head merge reproduces the global order.
  std::vector<std::size_t> pos(buffers_.size(), 0);
  for (;;) {
    const Tagged* best = nullptr;
    std::size_t best_b = 0;
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      if (pos[b] >= buffers_[b].size()) continue;
      const Tagged& cand = buffers_[b][pos[b]];
      if (best == nullptr || cand.key < best->key ||
          (!(best->key < cand.key) && cand.emit < best->emit)) {
        best = &cand;
        best_b = b;
      }
    }
    if (best == nullptr) break;
    sink_(best->rec);
    ++pos[best_b];
  }
  for (auto& b : buffers_) b.clear();
}

}  // namespace mip6

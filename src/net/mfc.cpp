#include "net/mfc.hpp"

#include <algorithm>
#include <bit>

#include "util/errors.hpp"

namespace mip6 {

std::size_t IfSet::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

MifTable::MifTable(std::size_t max_ifaces)
    : max_(std::min(max_ifaces, IfSet::kBits)) {}

Mifi MifTable::add(IfaceId iface) {
  auto it = std::lower_bound(ifaces_.begin(), ifaces_.end(), iface);
  if (it != ifaces_.end() && *it == iface) {
    return static_cast<Mifi>(it - ifaces_.begin());
  }
  if (ifaces_.size() >= max_) {
    throw LogicError("MifTable: interface count exceeds configured width");
  }
  it = ifaces_.insert(it, iface);
  return static_cast<Mifi>(it - ifaces_.begin());
}

Mifi MifTable::lookup(IfaceId iface) const {
  auto it = std::lower_bound(ifaces_.begin(), ifaces_.end(), iface);
  if (it == ifaces_.end() || *it != iface) return kNoMif;
  return static_cast<Mifi>(it - ifaces_.begin());
}

FlowCache::FlowCache(std::size_t initial_slots) {
  std::size_t n = 1;
  while (n < initial_slots) n <<= 1;
  slots_.resize(n);
}

std::uint64_t FlowCache::hash(const FlowKey& k) {
  // splitmix64-style mix over the four words; deterministic by design
  // (same seed, same probe order, byte-identical traces).
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t w : k.w) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
  }
  return h;
}

FlowCache::Slot& FlowCache::probe(const FlowKey& k) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash(k)) & mask;
  for (;;) {
    Slot& s = slots_[i];
    if (!s.used || s.entry.key == k) return s;
    i = (i + 1) & mask;
  }
}

MfcEntry* FlowCache::find(const FlowKey& k) {
  Slot& s = probe(k);
  if (!s.used || s.entry.epoch != epoch_) return nullptr;
  return &s.entry;
}

MfcEntry& FlowCache::insert(const FlowKey& k) {
  // Slots are never erased, so growth keyed on occupancy keeps probe
  // chains short even when most slots are stale.
  if ((used_ + 1) * 10 >= slots_.size() * 7) grow();
  Slot& s = probe(k);
  if (!s.used) {
    s.used = true;
    s.entry.key = k;
    ++used_;
  }
  s.entry.epoch = epoch_;
  return s.entry;
}

void FlowCache::invalidate(const FlowKey& k) {
  Slot& s = probe(k);
  if (s.used) s.entry.epoch = 0;
}

void FlowCache::clear() {
  for (Slot& s : slots_) s = Slot{};
  used_ = 0;
  ++epoch_;
}

void FlowCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  used_ = 0;
  for (Slot& s : old) {
    if (!s.used) continue;
    Slot& dst = probe(s.entry.key);
    dst.used = true;
    dst.entry = s.entry;  // keeps the slot's own epoch (stale stays stale)
    ++used_;
  }
}

}  // namespace mip6

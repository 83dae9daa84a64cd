#include "ipv6/routing.hpp"

#include <algorithm>
#include <functional>

namespace mip6 {
namespace {

/// The RIB's order: longer prefixes first, then ascending network.
bool longest_first(const Prefix& a, const Prefix& b) {
  if (a.length() != b.length()) return a.length() > b.length();
  return a.network() < b.network();
}

/// The network of the /len prefix containing the address (hi, lo).
Address masked(std::uint64_t hi, std::uint64_t lo, unsigned len) {
  const std::uint64_t hi_mask =
      len >= 64 ? ~0ULL : len == 0 ? 0 : ~0ULL << (64 - len);
  const std::uint64_t lo_mask =
      len <= 64 ? 0 : len >= 128 ? ~0ULL : ~0ULL << (128 - len);
  return Address::from_halves(hi & hi_mask, lo & lo_mask);
}

}  // namespace

void Rib::add(Route route) {
  if (routes_.empty() || !longest_first(route.prefix, routes_.back().prefix)) {
    routes_.push_back(std::move(route));
    return;
  }
  auto at = std::ranges::upper_bound(routes_, route.prefix, longest_first,
                                     &Route::prefix);
  routes_.insert(at, std::move(route));
}

void Rib::remove_prefix(const Prefix& prefix) {
  auto [first, last] = std::ranges::equal_range(routes_, prefix, longest_first,
                                                &Route::prefix);
  routes_.erase(first, last);
}

void Rib::clear() { routes_.clear(); }

const Route* Rib::lookup(const Address& dst) const {
  const std::uint64_t hi = dst.high64();
  const std::uint64_t lo = dst.low64();
  auto first = routes_.begin();
  const auto end = routes_.end();
  while (first != end) {
    // [first, last) holds every route of this length.
    const std::uint8_t len = first->prefix.length();
    const auto last =
        routes_.back().prefix.length() == len
            ? end
            : std::partition_point(first, end, [len](const Route& r) {
                return r.prefix.length() == len;
              });
    const Address key = masked(hi, lo, len);
    auto it = std::ranges::lower_bound(
        first, last, key, std::less<>{},
        [](const Route& r) -> const Address& { return r.prefix.network(); });
    const Route* best = nullptr;
    for (; it != last && it->prefix.network() == key; ++it) {
      if (best == nullptr || it->metric < best->metric) best = &*it;
    }
    if (best != nullptr) return best;
    first = last;
  }
  return nullptr;
}

void Rib::set_default(IfaceId out_iface, const Address& next_hop,
                      std::uint32_t metric) {
  Prefix def(Address(), 0);
  remove_prefix(def);
  add(Route{def, out_iface, next_hop, metric});
}

std::string Rib::str() const {
  std::string out;
  for (const auto& r : routes_) {
    out += r.prefix.str() + " -> if" + std::to_string(r.out_iface) +
           (r.on_link() ? " on-link" : (" via " + r.next_hop.str())) +
           " metric " + std::to_string(r.metric) + "\n";
  }
  return out;
}

}  // namespace mip6

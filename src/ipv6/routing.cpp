#include "ipv6/routing.hpp"

#include <algorithm>
#include <optional>

#include "util/errors.hpp"

namespace mip6 {
namespace {

/// The network of the /len prefix containing the address (hi, lo).
Address masked(std::uint64_t hi, std::uint64_t lo, unsigned len) {
  const std::uint64_t hi_mask =
      len >= 64 ? ~0ULL : len == 0 ? 0 : ~0ULL << (64 - len);
  const std::uint64_t lo_mask =
      len <= 64 ? 0 : len >= 128 ? ~0ULL : ~0ULL << (128 - len);
  return Address::from_halves(hi & hi_mask, lo & lo_mask);
}

/// The first index in [first, last) where `pred`, true on a prefix of the
/// range, is false.
template <class Pred>
std::size_t partition_point(std::size_t first, std::size_t last, Pred pred) {
  while (first < last) {
    const std::size_t mid = first + (last - first) / 2;
    if (pred(mid)) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  return first;
}

/// Longest-prefix match over `n` entries in rib_order, for both storages.
/// `prefix_at(i)` is entry i's prefix and `metric_at(i)` its metric, or
/// nullopt where this RIB has no route. Returns the match with the lowest
/// metric, the first one on a tie, or n if nothing matches.
template <class PrefixAt, class MetricAt>
std::size_t longest_match(std::size_t n, const Address& dst,
                          PrefixAt prefix_at, MetricAt metric_at) {
  const std::uint64_t hi = dst.high64();
  const std::uint64_t lo = dst.low64();
  std::size_t first = 0;
  while (first < n) {
    // [first, last) holds every entry of this length.
    const std::uint8_t len = prefix_at(first).length();
    const std::size_t last =
        prefix_at(n - 1).length() == len
            ? n
            : partition_point(first, n, [&](std::size_t k) {
                return prefix_at(k).length() == len;
              });
    const Address key = masked(hi, lo, len);
    std::size_t i = partition_point(first, last, [&](std::size_t k) {
      return prefix_at(k).network() < key;
    });
    std::size_t best = n;
    std::uint32_t best_metric = 0;
    for (; i < last && prefix_at(i).network() == key; ++i) {
      const std::optional<std::uint32_t> metric = metric_at(i);
      if (metric && (best == n || *metric < best_metric)) {
        best = i;
        best_metric = *metric;
      }
    }
    if (best != n) return best;
    first = last;
  }
  return n;
}

std::string format(const std::vector<Route>& routes) {
  std::string out;
  for (const auto& r : routes) {
    out += r.prefix.str() + " -> if" + std::to_string(r.out_iface) +
           (r.on_link() ? " on-link" : (" via " + r.next_hop.str())) +
           " metric " + std::to_string(r.metric) + "\n";
  }
  return out;
}

}  // namespace

bool rib_order(const Prefix& a, const Prefix& b) {
  if (a.length() != b.length()) return a.length() > b.length();
  return a.network() < b.network();
}

// --- RouteTable --------------------------------------------------------------

RouteTable::RouteTable(std::vector<Prefix> prefixes, std::uint32_t slots,
                       std::vector<Hop> hops, std::vector<Address> next_hops,
                       std::vector<std::uint32_t> routes)
    : prefixes_(std::move(prefixes)), slots_(slots), hops_(std::move(hops)),
      next_hops_(std::move(next_hops)), routes_(std::move(routes)),
      rows_(std::make_unique<Row[]>(prefixes_.size())) {
  if (hops_.size() != prefixes_.size() * slots_ || routes_.size() != slots_ ||
      next_hops_.empty() || !next_hops_[0].is_unspecified() ||
      !std::ranges::is_sorted(prefixes_, rib_order)) {
    throw LogicError("RouteTable: inconsistent shape");
  }
}

Route RouteTable::route(std::size_t prefix, std::uint32_t slot) const {
  const Hop& h = hop(prefix, slot);
  return Route{prefixes_[prefix], h.out_iface, next_hops_[h.next_hop],
               h.metric};
}

const Route* RouteTable::row(std::size_t prefix) const {
  // Rows are built by const lookups, possibly on two shards at once.
  Row& r = rows_[prefix];
  std::call_once(r.built, [&] {
    auto routes = std::make_unique<Route[]>(slots_);
    for (std::uint32_t s = 0; s < slots_; ++s) routes[s] = route(prefix, s);
    r.routes = std::move(routes);
    rows_built_.fetch_add(1, std::memory_order_relaxed);
  });
  return r.routes.get();
}

const Route* RouteTable::lookup(std::uint32_t slot, const Address& dst) const {
  const std::size_t i = longest_match(
      prefixes_.size(), dst,
      [&](std::size_t k) -> const Prefix& { return prefixes_[k]; },
      [&](std::size_t k) -> std::optional<std::uint32_t> {
        const std::uint32_t metric = hop(k, slot).metric;
        if (metric == 0) return std::nullopt;
        return metric;
      });
  return i == prefixes_.size() ? nullptr : &row(i)[slot];
}

void RouteTable::append_routes(std::uint32_t slot,
                               std::vector<Route>& out) const {
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (hop(i, slot).metric != 0) out.push_back(route(i, slot));
  }
}

// --- Rib ---------------------------------------------------------------------

void Rib::detach() {
  if (table_ == nullptr) return;
  routes_.reserve(table_->routes(slot_));
  table_->append_routes(slot_, routes_);
  table_.reset();
}

void Rib::add(Route route) {
  detach();
  if (routes_.empty() || !rib_order(route.prefix, routes_.back().prefix)) {
    routes_.push_back(std::move(route));
    return;
  }
  auto at = std::ranges::upper_bound(routes_, route.prefix, rib_order,
                                     &Route::prefix);
  routes_.insert(at, std::move(route));
}

void Rib::remove_prefix(const Prefix& prefix) {
  detach();
  auto [first, last] =
      std::ranges::equal_range(routes_, prefix, rib_order, &Route::prefix);
  routes_.erase(first, last);
}

void Rib::clear() {
  table_.reset();
  routes_.clear();
}

void Rib::assign(std::shared_ptr<const RouteTable> table, std::uint32_t slot) {
  if (table == nullptr || slot >= table->slots()) {
    throw LogicError("Rib::assign: no such slot");
  }
  routes_.clear();
  table_ = std::move(table);
  slot_ = slot;
}

const Route* Rib::lookup(const Address& dst) const {
  if (table_ != nullptr) return table_->lookup(slot_, dst);
  const std::size_t i = longest_match(
      routes_.size(), dst,
      [&](std::size_t k) -> const Prefix& { return routes_[k].prefix; },
      [&](std::size_t k) -> std::optional<std::uint32_t> {
        return routes_[k].metric;
      });
  return i == routes_.size() ? nullptr : &routes_[i];
}

void Rib::set_default(IfaceId out_iface, const Address& next_hop,
                      std::uint32_t metric) {
  Prefix def(Address(), 0);
  remove_prefix(def);
  add(Route{def, out_iface, next_hop, metric});
}

std::string Rib::str() const {
  if (table_ == nullptr) return format(routes_);
  std::vector<Route> routes;
  table_->append_routes(slot_, routes);
  return format(routes);
}

}  // namespace mip6

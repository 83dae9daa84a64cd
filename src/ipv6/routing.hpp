// Unicast RIB: longest-prefix-match routing table.
//
// PIM-DM is "protocol independent" because it consumes whatever unicast RIB
// exists — the RPF check (incoming interface and metric toward a source) is
// a lookup here. Routes are installed either statically or by GlobalRouting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ipv6/address.hpp"
#include "net/interface.hpp"

namespace mip6 {

struct Route {
  Prefix prefix;
  IfaceId out_iface = 0;
  /// Next-hop router address; unspecified ("::") means on-link delivery.
  Address next_hop;
  /// Hop-count metric; used by PIM Assert comparison.
  std::uint32_t metric = 0;

  bool on_link() const { return next_hop.is_unspecified(); }
};

class Rib {
 public:
  /// Routes with an equal prefix keep their insertion order. O(1) when the
  /// route sorts last, as GlobalRouting's ascending link prefixes do.
  void add(Route route);
  /// Removes all routes with exactly this prefix.
  void remove_prefix(const Prefix& prefix);
  void clear();
  /// Makes room for `routes` routes, so adding that many copies none.
  void reserve(std::size_t routes) { routes_.reserve(routes); }

  /// Longest-prefix match; ties broken by lowest metric, then by the route
  /// added first. nullptr = no route. Any change to the RIB invalidates the
  /// returned pointer.
  const Route* lookup(const Address& dst) const;

  /// Sets/replaces the default route (::/0).
  void set_default(IfaceId out_iface, const Address& next_hop,
                   std::uint32_t metric = 16);

  std::size_t size() const { return routes_.size(); }

  /// One line per route, longest prefix first.
  std::string str() const;

 private:
  /// Sorted by prefix length (longest first), then by network, so each
  /// length is one binary-searchable run.
  std::vector<Route> routes_;
};

}  // namespace mip6

// Unicast RIB: longest-prefix-match routing table.
//
// PIM-DM is "protocol independent" because it consumes whatever unicast RIB
// exists — the RPF check (incoming interface and metric toward a source) is
// a lookup here. Routes are installed either statically or by GlobalRouting,
// whose routers all read one shared RouteTable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// The RIB's order: longer prefixes first, then ascending network.
bool rib_order(const Prefix& a, const Prefix& b);

/// One route computation's routes for every router, shared by their RIBs.
/// Each prefix is held once, in RIB order, with one compact Hop per router
/// slot. A prefix's full Route row is built on its first lookup by any
/// router, safely when several shards ask at once, and never moves.
class RouteTable {
 public:
  /// A slot's route to one prefix.
  struct Hop {
    IfaceId out_iface = 0;
    /// Hop-count metric; 0 = the slot has no route to this prefix.
    std::uint32_t metric = 0;
    /// Index into the next-hop addresses; 0 is "::", on-link delivery.
    std::uint32_t next_hop = 0;
  };

  /// `prefixes` in RIB order (equal prefixes in the order their routes
  /// were found); `hops` prefix-major, one per (prefix, slot);
  /// `next_hops[0]` the unspecified address; `routes[s]` the number of
  /// slot s's hops that have a route.
  RouteTable(std::vector<Prefix> prefixes, std::uint32_t slots,
             std::vector<Hop> hops, std::vector<Address> next_hops,
             std::vector<std::uint32_t> routes);

  std::uint32_t slots() const { return slots_; }
  std::size_t routes(std::uint32_t slot) const { return routes_[slot]; }
  /// Rib::lookup for a slot.
  const Route* lookup(std::uint32_t slot, const Address& dst) const;
  /// Appends the slot's routes, in RIB order.
  void append_routes(std::uint32_t slot, std::vector<Route>& out) const;
  /// Prefixes whose Route row some lookup has built.
  std::size_t rows_built() const {
    return rows_built_.load(std::memory_order_relaxed);
  }

 private:
  struct Row {
    std::once_flag built;
    std::unique_ptr<Route[]> routes;
  };

  const Hop& hop(std::size_t prefix, std::uint32_t slot) const {
    return hops_[prefix * slots_ + slot];
  }
  Route route(std::size_t prefix, std::uint32_t slot) const;
  /// The prefix's routes, one per slot; built on the first call.
  const Route* row(std::size_t prefix) const;

  std::vector<Prefix> prefixes_;
  std::uint32_t slots_;
  std::vector<Hop> hops_;
  std::vector<Address> next_hops_;
  std::vector<std::uint32_t> routes_;
  std::unique_ptr<Row[]> rows_;
  mutable std::atomic<std::size_t> rows_built_{0};
};

class Rib {
 public:
  /// Routes with an equal prefix keep their insertion order. O(1) when the
  /// route sorts last.
  void add(Route route);
  /// Removes all routes with exactly this prefix.
  void remove_prefix(const Prefix& prefix);
  void clear();
  /// Replaces every route with `slot`'s routes in `table`. A later add,
  /// remove_prefix or set_default first copies them into this RIB.
  void assign(std::shared_ptr<const RouteTable> table, std::uint32_t slot);

  /// Longest-prefix match; ties broken by lowest metric, then by the route
  /// added first. nullptr = no route. Any change to the RIB invalidates the
  /// returned pointer.
  const Route* lookup(const Address& dst) const;

  /// Sets/replaces the default route (::/0).
  void set_default(IfaceId out_iface, const Address& next_hop,
                   std::uint32_t metric = 16);

  std::size_t size() const {
    return table_ != nullptr ? table_->routes(slot_) : routes_.size();
  }
  /// The shared table this RIB reads, or nullptr if it holds its own routes.
  const RouteTable* table() const { return table_.get(); }

  /// One line per route, longest prefix first.
  std::string str() const;

 private:
  /// Copies the table's routes into routes_ and lets go of the table.
  void detach();

  std::shared_ptr<const RouteTable> table_;
  std::uint32_t slot_ = 0;
  /// Without a table: sorted in rib_order, so each length is one
  /// binary-searchable run.
  std::vector<Route> routes_;
};

}  // namespace mip6

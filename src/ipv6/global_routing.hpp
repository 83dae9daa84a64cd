// Global unicast route computation (the "oracle" counterpart of an instantly
// converged link-state IGP, in the spirit of ns-3's GlobalRouting).
//
// For every link prefix, a breadth-first search over the router graph
// computes each router's hop distance and next hop, into one RouteTable
// that every router's RIB reads; hosts receive their default route from
// the addressing plan via Ipv6Stack::autoconfigure. The hop-count metrics
// installed here are the values PIM-DM uses in its RPF checks and Assert
// comparisons.
#pragma once

#include <vector>

#include "ipv6/stack.hpp"
#include "net/network.hpp"

namespace mip6 {

class GlobalRouting {
 public:
  GlobalRouting(Network& net, AddressingPlan& plan)
      : net_(&net), plan_(&plan) {}

  /// All stacks must be registered (routers and hosts) before recompute().
  void register_stack(Ipv6Stack& stack);

  /// Replaces the routes of every forwarding stack with its slot of a new
  /// shared RouteTable, and autoconfigures every registered host
  /// interface. Call after topology construction and after any
  /// router-level topology change.
  void recompute();

  /// Autoconfigures every registered host interface without touching
  /// router RIBs (used when a real routing protocol owns those).
  void autoconfigure_hosts();

  /// Hop count between two links over the router graph (number of router
  /// traversals + 1, i.e. links on the path); 0 if same link; negative if
  /// unreachable. Exposed for metrics (optimal-tree computation).
  int link_distance(LinkId from, LinkId to) const;

  /// The links on a shortest path tree from `root` spanning `leaves`
  /// (union of shortest link paths). Used for routing-optimality metrics.
  std::vector<LinkId> shortest_path_tree(LinkId root,
                                         const std::vector<LinkId>& leaves) const;

 private:
  struct LinkHop {
    int dist;       // links crossed from the root; negative = unreachable
    LinkId parent;  // previous link on the path (the root's is itself)
  };
  /// BFS over links only (for distance/tree queries), indexed by LinkId.
  std::vector<LinkHop> link_bfs(LinkId root) const;

  Network* net_;
  AddressingPlan* plan_;
  std::vector<Ipv6Stack*> stacks_;
};

}  // namespace mip6

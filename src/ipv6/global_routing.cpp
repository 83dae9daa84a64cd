#include "ipv6/global_routing.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

namespace mip6 {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// A router interface attached to a link.
struct Attachment {
  std::uint32_t router;  // router slot
  IfaceId iface;
};

/// A hop of the route computation's walk: from a router over one of its
/// up links to a peer router, which then routes through the first router.
struct Arc {
  std::uint32_t peer;  // router slot
  IfaceId peer_iface;
  std::uint32_t next_hop;  // index of the first router's address
};

/// The first global unicast address on the interface, else the first
/// link-local one (links without a global prefix).
std::optional<Address> advertised_address(const Ipv6Stack& s, IfaceId iface) {
  const std::vector<Address> addrs = s.addresses(iface);
  for (const Address& a : addrs) {
    if (!a.is_link_local_unicast() && !a.is_multicast()) return a;
  }
  for (const Address& a : addrs) {
    if (a.is_link_local_unicast()) return a;
  }
  return std::nullopt;
}

}  // namespace

void GlobalRouting::register_stack(Ipv6Stack& stack) {
  if (std::find(stacks_.begin(), stacks_.end(), &stack) == stacks_.end()) {
    stacks_.push_back(&stack);
  }
}

void GlobalRouting::recompute() {
  // Router slots: a node's first registered forwarding stack routes for it.
  // Clearing the RIBs first lets the previous table go before this one is
  // built.
  std::vector<std::uint32_t> slot_of_node(net_->nodes().size(), kNone);
  std::vector<Ipv6Stack*> routers;
  for (Ipv6Stack* s : stacks_) {
    if (!s->forwarding()) continue;
    s->rib().clear();
    std::uint32_t& slot = slot_of_node[s->node().id()];
    if (slot != kNone) continue;
    slot = static_cast<std::uint32_t>(routers.size());
    routers.push_back(s);
  }
  const auto slots = static_cast<std::uint32_t>(routers.size());

  // Router interfaces per link, in attachment order: link l's are
  // attached[attached_at[l], attached_at[l + 1]).
  const auto& links = net_->links();
  std::vector<std::size_t> attached_at(links.size() + 1, 0);
  std::vector<Attachment> attached;
  for (const auto& link : links) {
    for (const Interface* iface : link->attached()) {
      const std::uint32_t r = slot_of_node[iface->node().id()];
      if (r != kNone) attached.push_back({r, iface->id()});
    }
    attached_at[link->id() + 1] = attached.size();
  }

  // Per router, in interface order, the arcs over its up links: router r's
  // are arcs[arcs_at[r], arcs_at[r + 1]).
  std::vector<Address> next_hops{Address()};  // 0: on-link
  std::vector<std::size_t> arcs_at(slots + 1, 0);
  std::vector<Arc> arcs;
  for (std::uint32_t r = 0; r < slots; ++r) {
    for (const auto& iface : routers[r]->node().interfaces()) {
      if (!iface->attached()) continue;
      const Link* l = iface->link();
      if (!l->up()) continue;  // down links carry nothing
      const auto addr = advertised_address(*routers[r], iface->id());
      if (!addr) continue;
      const auto next_hop = static_cast<std::uint32_t>(next_hops.size());
      next_hops.push_back(*addr);
      for (std::size_t k = attached_at[l->id()]; k < attached_at[l->id() + 1];
           ++k) {
        if (attached[k].iface != iface->id()) {
          arcs.push_back({attached[k].router, attached[k].iface, next_hop});
        }
      }
    }
    arcs_at[r + 1] = arcs.size();
  }

  // The table holds the link prefixes in RIB order; equal prefixes keep
  // link order, as adding each link's routes in turn would.
  std::vector<LinkId> dsts;
  for (const auto& link : links) {
    if (plan_->has_prefix(link->id())) dsts.push_back(link->id());
  }
  std::ranges::stable_sort(dsts, rib_order, [&](LinkId l) -> const Prefix& {
    return plan_->prefix_of(l);
  });
  std::vector<Prefix> prefixes;
  prefixes.reserve(dsts.size());
  for (LinkId l : dsts) prefixes.push_back(plan_->prefix_of(l));

  // One BFS per link prefix, writing that prefix's hops. A router's route
  // is fixed when the BFS first reaches it (its hop gets a nonzero metric),
  // so the visit order decides equal-cost next hops.
  std::vector<RouteTable::Hop> hops(prefixes.size() * slots);
  std::vector<std::uint32_t> routes(slots, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(slots);
  for (std::size_t pos = 0; pos < dsts.size(); ++pos) {
    const LinkId dst = dsts[pos];
    RouteTable::Hop* row = hops.data() + pos * slots;
    auto reach = [&](std::uint32_t r, std::uint32_t metric, IfaceId out,
                     std::uint32_t next_hop) {
      row[r] = {out, metric, next_hop};
      ++routes[r];
      queue.push_back(r);
    };
    queue.clear();
    // Routers directly on the destination link deliver on-link.
    for (std::size_t k = attached_at[dst]; k < attached_at[dst + 1]; ++k) {
      const Attachment& a = attached[k];
      if (row[a.router].metric == 0) reach(a.router, 1, a.iface, 0);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t cur = queue[head];
      const std::uint32_t metric = row[cur].metric + 1;
      for (std::size_t k = arcs_at[cur]; k < arcs_at[cur + 1]; ++k) {
        const Arc& a = arcs[k];
        if (row[a.peer].metric == 0) {
          reach(a.peer, metric, a.peer_iface, a.next_hop);
        }
      }
    }
  }

  auto table = std::make_shared<const RouteTable>(
      std::move(prefixes), slots, std::move(hops), std::move(next_hops),
      std::move(routes));
  for (std::uint32_t r = 0; r < slots; ++r) routers[r]->rib().assign(table, r);
  autoconfigure_hosts();
}

void GlobalRouting::autoconfigure_hosts() {
  // Host autoconfiguration (link-local + SLAAC + default route).
  for (Ipv6Stack* s : stacks_) {
    if (s->forwarding()) continue;
    for (const auto& iface : s->node().interfaces()) {
      s->autoconfigure(iface->id());
    }
  }
}

std::vector<GlobalRouting::LinkHop> GlobalRouting::link_bfs(
    LinkId root) const {
  // dist/parent over the link graph; two links are adjacent if a forwarding
  // stack has interfaces attached to both.
  std::vector<LinkHop> hops(net_->links().size(), LinkHop{-1, root});
  hops.at(root) = {0, root};
  std::vector<LinkId> queue{root};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const LinkId cur = queue[head];
    const int d = hops[cur].dist;
    for (Ipv6Stack* s : stacks_) {
      if (!s->forwarding()) continue;
      const auto& ifaces = s->node().interfaces();
      if (std::none_of(ifaces.begin(), ifaces.end(), [cur](const auto& i) {
            return i->attached() && i->link()->id() == cur;
          })) {
        continue;
      }
      for (const auto& iface : ifaces) {
        if (!iface->attached() || !iface->link()->up()) continue;
        LinkHop& next = hops[iface->link()->id()];
        if (next.dist >= 0) continue;
        next = {d + 1, cur};
        queue.push_back(iface->link()->id());
      }
    }
  }
  return hops;
}

int GlobalRouting::link_distance(LinkId from, LinkId to) const {
  const auto hops = link_bfs(from);
  return to < hops.size() ? hops[to].dist : -1;
}

std::vector<LinkId> GlobalRouting::shortest_path_tree(
    LinkId root, const std::vector<LinkId>& leaves) const {
  const auto hops = link_bfs(root);
  std::vector<LinkId> tree;
  auto add_unique = [&](LinkId l) {
    if (std::find(tree.begin(), tree.end(), l) == tree.end())
      tree.push_back(l);
  };
  for (LinkId leaf : leaves) {
    if (leaf >= hops.size() || hops[leaf].dist < 0) continue;
    LinkId cur = leaf;
    while (true) {
      add_unique(cur);
      if (cur == root) break;
      cur = hops[cur].parent;
    }
  }
  std::sort(tree.begin(), tree.end());
  return tree;
}

}  // namespace mip6

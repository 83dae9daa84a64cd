#include "ipv6/global_routing.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace mip6 {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// A router interface attached to a link.
struct Attachment {
  std::uint32_t router;  // router slot
  IfaceId iface;
};

/// A link a router can expand over, and the address its neighbours there
/// use as next hop toward it.
struct Expansion {
  LinkId link;
  IfaceId iface;
  Address addr;
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
  // Each router gets at most one route per link prefix: reserving that
  // many writes every RIB once, at its final size.
  const auto& links = net_->links();
  const auto prefixes = static_cast<std::size_t>(
      std::count_if(links.begin(), links.end(), [&](const auto& link) {
        return plan_->has_prefix(link->id());
      }));

  // Router slots: a node's first registered forwarding stack routes for it.
  std::vector<std::uint32_t> slot_of_node(net_->nodes().size(), kNone);
  std::vector<Ipv6Stack*> routers;
  for (Ipv6Stack* s : stacks_) {
    if (!s->forwarding()) continue;
    s->rib().clear();
    std::uint32_t& slot = slot_of_node[s->node().id()];
    if (slot != kNone) continue;
    slot = static_cast<std::uint32_t>(routers.size());
    routers.push_back(s);
    s->rib().reserve(prefixes);
  }

  // Router interfaces per link (indexed by LinkId), in attachment order.
  std::vector<std::vector<Attachment>> attached(links.size());
  for (const auto& link : links) {
    for (const Interface* iface : link->attached()) {
      const std::uint32_t r = slot_of_node[iface->node().id()];
      if (r != kNone) attached[link->id()].push_back({r, iface->id()});
    }
  }

  // Per router, in interface order, the up links it expands over.
  std::vector<std::vector<Expansion>> expansions(routers.size());
  for (std::uint32_t r = 0; r < routers.size(); ++r) {
    for (const auto& iface : routers[r]->node().interfaces()) {
      if (!iface->attached()) continue;
      const Link* l = iface->link();
      if (!l->up()) continue;  // down links carry nothing
      if (auto addr = advertised_address(*routers[r], iface->id())) {
        expansions[r].push_back({l->id(), iface->id(), *addr});
      }
    }
  }

  // One BFS per link prefix. A router's route is fixed when the BFS first
  // reaches it, so the visit order decides equal-cost next hops.
  std::vector<LinkId> visited(routers.size(), kNone);
  std::vector<std::uint32_t> dist(routers.size());
  std::vector<std::uint32_t> queue;
  queue.reserve(routers.size());
  for (const auto& link : links) {
    const LinkId dst = link->id();
    if (!plan_->has_prefix(dst)) continue;
    const Prefix& prefix = plan_->prefix_of(dst);
    auto reach = [&](std::uint32_t r, std::uint32_t d, IfaceId out,
                     const Address& next_hop) {
      visited[r] = dst;
      dist[r] = d;
      queue.push_back(r);
      routers[r]->rib().add(Route{prefix, out, next_hop, d});
    };
    queue.clear();
    // Routers directly on the destination link deliver on-link.
    for (const Attachment& a : attached[dst]) {
      if (visited[a.router] != dst) reach(a.router, 1, a.iface, Address());
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t cur = queue[head];
      for (const Expansion& x : expansions[cur]) {
        for (const Attachment& peer : attached[x.link]) {
          if (peer.iface == x.iface || visited[peer.router] == dst) continue;
          reach(peer.router, dist[cur] + 1, peer.iface, x.addr);
        }
      }
    }
  }
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

// GlobalRouting::recompute against a reference kept in this file: one
// std::map/std::deque breadth-first search per link that re-scans every
// stack for every neighbour. Equal-cost next hops depend on the visit
// order, so every router must get exactly the reference's routes.
#include "ipv6/global_routing.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>

#include "core/random_topology.hpp"
#include "sim/rng.hpp"

namespace mip6 {
namespace {

/// Per forwarding stack, its route per prefixed link.
using ExpectedRoutes = std::map<Ipv6Stack*, std::map<LinkId, Route>>;

ExpectedRoutes reference_routes(World& w) {
  std::vector<Ipv6Stack*> stacks;
  for (const auto& r : w.routers()) stacks.push_back(r->stack);
  for (const auto& h : w.hosts()) stacks.push_back(h->stack);
  auto stack_of_iface = [&](const Interface* iface) -> Ipv6Stack* {
    for (Ipv6Stack* s : stacks) {
      if (&s->node() == &iface->node() && s->forwarding()) return s;
    }
    return nullptr;
  };

  ExpectedRoutes out;
  for (Ipv6Stack* s : stacks) {
    if (s->forwarding()) out[s];  // a router may end up with no route
  }
  for (const auto& link : w.net().links()) {
    if (!w.plan().has_prefix(link->id())) continue;
    const Prefix& prefix = w.plan().prefix_of(link->id());
    std::map<Ipv6Stack*, Route> result;
    std::deque<Ipv6Stack*> queue;
    for (const Interface* iface : link->attached()) {
      Ipv6Stack* s = stack_of_iface(iface);
      if (s == nullptr) continue;
      auto [it, fresh] =
          result.try_emplace(s, Route{prefix, iface->id(), Address(), 1});
      if (fresh) queue.push_back(s);
    }
    while (!queue.empty()) {
      Ipv6Stack* cur = queue.front();
      queue.pop_front();
      const std::uint32_t dist = result.at(cur).metric;
      for (const auto& iface : cur->node().interfaces()) {
        if (!iface->attached()) continue;
        Link* l = iface->link();
        if (!l->up()) continue;
        Address cur_addr;
        bool have_addr = false;
        for (const Address& a : cur->addresses(iface->id())) {
          if (!a.is_link_local_unicast() && !a.is_multicast()) {
            cur_addr = a;
            have_addr = true;
            break;
          }
        }
        if (!have_addr) {
          for (const Address& a : cur->addresses(iface->id())) {
            if (a.is_link_local_unicast()) {
              cur_addr = a;
              have_addr = true;
              break;
            }
          }
        }
        if (!have_addr) continue;
        for (const Interface* peer_iface : l->attached()) {
          if (peer_iface == iface.get()) continue;
          Ipv6Stack* peer = stack_of_iface(peer_iface);
          if (peer == nullptr || result.contains(peer)) continue;
          result.emplace(peer,
                         Route{prefix, peer_iface->id(), cur_addr, dist + 1});
          queue.push_back(peer);
        }
      }
    }
    for (const auto& [s, route] : result) out[s][link->id()] = route;
  }
  return out;
}

/// Recomputes `w`'s routes and compares every router's RIB with the
/// reference.
void expect_recompute_matches_reference(World& w, const std::string& what) {
  const ExpectedRoutes want = reference_routes(w);
  w.routing().recompute();
  for (const auto& [stack, routes] : want) {
    SCOPED_TRACE(what + ", " + stack->node().name());
    const Rib& rib = stack->rib();
    EXPECT_EQ(rib.size(), routes.size());
    for (const auto& link : w.net().links()) {
      if (!w.plan().has_prefix(link->id())) continue;
      const Prefix& prefix = w.plan().prefix_of(link->id());
      const Route* got = rib.lookup(prefix.network());
      auto it = routes.find(link->id());
      if (it == routes.end()) {
        EXPECT_EQ(got, nullptr) << prefix.str();
        continue;
      }
      ASSERT_NE(got, nullptr) << prefix.str();
      EXPECT_EQ(got->prefix, prefix);
      EXPECT_EQ(got->out_iface, it->second.out_iface) << prefix.str();
      EXPECT_EQ(got->next_hop, it->second.next_hop) << prefix.str();
      EXPECT_EQ(got->metric, it->second.metric) << prefix.str();
    }
  }
}

/// Checks a finalized world intact, with every fourth link down, with one
/// router crashed, and after its restart.
void expect_matches_through_faults(World& w, std::uint64_t seed,
                                   const std::string& tag) {
  expect_recompute_matches_reference(w, tag + ", intact");

  // A down destination link still seeds on-link routes; down links are
  // never crossed.
  const auto& links = w.net().links();
  for (std::size_t k = seed % 4; k < links.size(); k += 4) {
    links[k]->set_up(false);
  }
  expect_recompute_matches_reference(w, tag + ", links down");

  Node& victim = *w.routers()[(seed * 7) % w.routers().size()]->node;
  victim.crash();
  expect_recompute_matches_reference(w, tag + ", crashed router");
  // Restarting re-attaches the victim last on each of its links.
  victim.restart();
  expect_recompute_matches_reference(w, tag + ", restarted router");
}

TEST(GlobalRoutingDifferential, MatchesMapBfsOnRandomTopologies) {
  for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u}) {
    for (std::size_t fanout : {0u, 3u}) {
      RandomTopologyParams params;
      params.routers = 24;
      params.extra_links = 10;
      params.seed = seed;
      params.max_fanout = fanout;
      RandomTopology t = build_random_topology(params);
      World& w = *t.world;
      for (std::size_t i = 0; i < 6; ++i) {
        w.add_host("H" + std::to_string(i),
                   *t.stub_links[(i * 5 + seed) % t.stub_links.size()]);
      }
      w.finalize();
      expect_matches_through_faults(w, seed,
                                    "seed " + std::to_string(seed) +
                                        " max_fanout " + std::to_string(fanout));
    }
  }
}

TEST(GlobalRoutingDifferential, MatchesMapBfsOnSharedLans) {
  // Generated topologies join routers by point-to-point transit links. Here
  // every link is a LAN shared by several routers, so equal-cost paths are
  // everywhere and the visit order decides the next hops.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    World w(seed);
    Rng rng(seed);
    std::vector<Link*> lans;
    for (int i = 0; i < 10; ++i) {
      lans.push_back(&w.add_link("Lan" + std::to_string(i)));
    }
    for (int r = 0; r < 24; ++r) {
      // Random draws may repeat a LAN: two interfaces on one link.
      std::vector<Link*> attach{lans[static_cast<std::size_t>(r) % lans.size()]};
      for (std::uint64_t k = 0, n = 1 + rng.uniform_int(3); k < n; ++k) {
        attach.push_back(lans[rng.uniform_int(lans.size())]);
      }
      w.add_router("R" + std::to_string(r), attach);
    }
    // Next hops fall back to the link-local address on an interface without
    // a global one, and an interface with no address is not expanded.
    Ipv6Stack& r1 = *w.routers()[1]->stack;
    const IfaceId global_less = r1.node().iface(0).id();
    r1.remove_address(global_less, r1.global_address(global_less));
    Ipv6Stack& r2 = *w.routers()[2]->stack;
    const IfaceId bare = r2.node().iface(1).id();
    for (const Address& a : r2.addresses(bare)) r2.remove_address(bare, a);
    for (std::size_t i = 0; i < 5; ++i) {
      w.add_host("H" + std::to_string(i), *lans[(i * 3 + seed) % lans.size()]);
    }
    w.finalize();
    expect_matches_through_faults(w, seed, "seed " + std::to_string(seed));
  }
}

TEST(GlobalRoutingDifferential, ThousandRouterWorldHoldsEveryPrefix) {
  // The flood-1k benchmark graph.
  RandomTopologyParams params;
  params.routers = 1024;
  params.max_fanout = 32;
  params.extra_links = 256;
  params.seed = 1;
  RandomTopology t = build_random_topology(params);
  World& w = *t.world;
  w.finalize();
  const auto& links = w.net().links();
  ASSERT_EQ(links.size(), 2303u);
  for (NodeRuntime* r : t.routers) {
    const Rib& rib = r->stack->rib();
    ASSERT_EQ(rib.size(), 2303u) << r->node->name();
    for (const auto& link : links) {
      const Prefix& prefix = w.plan().prefix_of(link->id());
      const Route* route = rib.lookup(prefix.network());
      ASSERT_NE(route, nullptr) << r->node->name() << " " << prefix.str();
      ASSERT_EQ(route->prefix, prefix) << r->node->name();
    }
  }
}

}  // namespace
}  // namespace mip6

// Ipv6Stack behaviour: address ownership, neighbor resolution, unicast
// forwarding across a router, multicast delivery rules, intercepts, and the
// autoconfiguration used for mobility.
#include "ipv6/stack.hpp"

#include <gtest/gtest.h>

#include "ipv6/global_routing.hpp"
#include "ipv6/icmpv6.hpp"
#include "ipv6/udp.hpp"

namespace mip6 {
namespace {

// Two-LAN topology: hostA -- lan1 -- router -- lan2 -- hostB.
struct TwoLan {
  Network net{1};
  AddressingPlan plan;
  Link& lan1;
  Link& lan2;
  Node& host_a_node;
  Node& router_node;
  Node& host_b_node;
  std::unique_ptr<Ipv6Stack> host_a;
  std::unique_ptr<Ipv6Stack> router;
  std::unique_ptr<Ipv6Stack> host_b;
  GlobalRouting routing{net, plan};

  TwoLan()
      : lan1(net.add_link("lan1", Time::us(10))),
        lan2(net.add_link("lan2", Time::us(10))),
        host_a_node(net.add_node("hostA")),
        router_node(net.add_node("router")),
        host_b_node(net.add_node("hostB")) {
    plan.set_link_prefix(lan1.id(), Prefix::parse("2001:db8:1::/64"));
    plan.set_link_prefix(lan2.id(), Prefix::parse("2001:db8:2::/64"));

    host_a_node.add_interface().attach(lan1);
    router_node.add_interface().attach(lan1);
    router_node.add_interface().attach(lan2);
    host_b_node.add_interface().attach(lan2);

    host_a = std::make_unique<Ipv6Stack>(host_a_node, plan, false);
    router = std::make_unique<Ipv6Stack>(router_node, plan, true);
    host_b = std::make_unique<Ipv6Stack>(host_b_node, plan, false);

    // Router addresses.
    for (const auto& iface : router_node.interfaces()) {
      router->add_address(iface->id(),
                          Address::from_prefix_iid(Address::parse("fe80::"),
                                                   router->iid()));
      router->add_address(
          iface->id(),
          Address::from_prefix_iid(
              plan.prefix_of(iface->link()->id()).network(), router->iid()));
    }
    plan.set_default_router(lan1.id(),
                            router->global_address(router_iface(lan1)));
    plan.set_default_router(lan2.id(),
                            router->global_address(router_iface(lan2)));
    routing.register_stack(*host_a);
    routing.register_stack(*router);
    routing.register_stack(*host_b);
    routing.recompute();
  }

  IfaceId router_iface(const Link& link) const {
    for (const auto& iface : router_node.interfaces()) {
      if (iface->link() == &link) return iface->id();
    }
    throw LogicError("router not on link");
  }
  IfaceId a_iface() const { return host_a_node.iface(0).id(); }
  IfaceId b_iface() const { return host_b_node.iface(0).id(); }
};

TEST(Stack, AutoconfigureAssignsSlaacAndLinkLocal) {
  TwoLan t;
  EXPECT_TRUE(t.host_a->has_link_local(t.a_iface()));
  Address global = t.host_a->global_address(t.a_iface());
  EXPECT_TRUE(Prefix::parse("2001:db8:1::/64").contains(global));
  EXPECT_TRUE(t.host_a->owns_address(global));
}

TEST(Stack, UnicastAcrossRouter) {
  TwoLan t;
  Address a = t.host_a->global_address(t.a_iface());
  Address b = t.host_b->global_address(t.b_iface());

  int delivered = 0;
  t.host_b->set_proto_handler(
      proto::kUdp, [&](const ParsedDatagram& d, const Packet&, IfaceId) {
        ++delivered;
        EXPECT_EQ(d.hdr.src, a);
        // One router hop decrements the hop limit once.
        EXPECT_EQ(d.hdr.hop_limit, Ipv6Header::kDefaultHopLimit - 1);
      });

  DatagramSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{1, 2, Bytes{1}}.serialize(a, b);
  EXPECT_TRUE(t.host_a->send(spec));
  t.net.scheduler().run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(t.net.counters().get("ipv6/fwd"), 1u);
}

TEST(Stack, NoRouteDropsAndCounts) {
  TwoLan t;
  DatagramSpec spec;
  spec.src = t.host_a->global_address(t.a_iface());
  spec.dst = Address::parse("2001:dead::1");
  spec.protocol = proto::kNoNext;
  // Host has a default route, so the host sends; the router drops.
  EXPECT_TRUE(t.host_a->send(spec));
  t.net.scheduler().run();
  EXPECT_EQ(t.net.counters().get("ipv6/fwd-drop/no-route"), 1u);
}

TEST(Stack, HopLimitExhaustionDropped) {
  TwoLan t;
  DatagramSpec spec;
  spec.src = t.host_a->global_address(t.a_iface());
  spec.dst = t.host_b->global_address(t.b_iface());
  spec.hop_limit = 1;
  spec.protocol = proto::kNoNext;
  EXPECT_TRUE(t.host_a->send(spec));
  t.net.scheduler().run();
  EXPECT_EQ(t.net.counters().get("ipv6/fwd-drop/hop-limit"), 1u);
}

TEST(Stack, MulticastDeliveredOnlyToMembers) {
  TwoLan t;
  Address group = Address::parse("ff1e::7");
  int a_rx = 0, b_rx = 0;
  t.host_a->set_proto_handler(
      proto::kUdp,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++a_rx; });
  t.host_b->set_proto_handler(
      proto::kUdp,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++b_rx; });

  // host_b joins; host_a does not. Send from the router onto both LANs.
  t.host_b->join_local_group(t.b_iface(), group);
  for (const auto& iface : t.router_node.interfaces()) {
    DatagramSpec spec;
    spec.src = t.router->global_address(iface->id());
    spec.dst = group;
    spec.protocol = proto::kUdp;
    spec.payload = UdpDatagram{1, 2, Bytes{1}}.serialize(spec.src, group);
    t.router->send_on_iface(iface->id(), spec);
  }
  t.net.scheduler().run();
  EXPECT_EQ(a_rx, 0);
  EXPECT_EQ(b_rx, 1);
}

TEST(Stack, AllNodesAlwaysDelivered) {
  TwoLan t;
  int got = 0;
  t.host_a->set_proto_handler(
      proto::kIcmpv6,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++got; });
  DatagramSpec spec;
  spec.src = t.router->link_local_address(t.router_iface(t.lan1));
  spec.dst = Address::all_nodes();
  spec.hop_limit = 1;
  spec.protocol = proto::kIcmpv6;
  Icmpv6Message m;
  m.type = 200;  // arbitrary type; raw proto handler sees it regardless
  spec.payload = m.serialize(spec.src, spec.dst);
  t.router->send_on_iface(t.router_iface(t.lan1), spec);
  t.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(Stack, LinkScopeMulticastNeverForwarded) {
  TwoLan t;
  int forwarded = 0;
  t.router->set_mcast_forwarder(
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++forwarded; });
  DatagramSpec spec;
  spec.src = t.host_a->link_local_address(t.a_iface());
  spec.dst = Address::parse("ff02::99");
  spec.hop_limit = 1;
  spec.protocol = proto::kNoNext;
  t.host_a->send_on_iface(t.a_iface(), spec);
  t.net.scheduler().run();
  EXPECT_EQ(forwarded, 0);

  // Routable scope reaches the forwarder.
  spec.dst = Address::parse("ff1e::99");
  t.host_a->send_on_iface(t.a_iface(), spec);
  t.net.scheduler().run();
  EXPECT_EQ(forwarded, 1);
}

TEST(Stack, InterceptDivertsToHandler) {
  TwoLan t;
  Address phantom =
      Address::from_prefix_iid(Address::parse("2001:db8:2::"), 0x7777);
  int intercepted = 0;
  t.router->add_intercept(phantom);
  t.router->set_intercept_handler(
      [&](const ParsedDatagram& d, const Packet&) {
        ++intercepted;
        EXPECT_EQ(d.hdr.dst, phantom);
      });
  DatagramSpec spec;
  spec.src = t.host_a->global_address(t.a_iface());
  spec.dst = phantom;
  spec.protocol = proto::kNoNext;
  t.host_a->send(spec);
  t.net.scheduler().run();
  EXPECT_EQ(intercepted, 1);

  t.router->remove_intercept(phantom);
  t.host_a->send(spec);
  t.net.scheduler().run();
  EXPECT_EQ(intercepted, 1);  // now silently dropped at neighbor resolution
}

TEST(Stack, PinnedAddressSurvivesAutoconfigure) {
  TwoLan t;
  Address home = Address::parse("2001:db8:9::99");
  t.host_a->add_address(t.a_iface(), home, /*pinned=*/true);
  t.host_a->autoconfigure(t.a_iface());
  EXPECT_TRUE(t.host_a->owns_address(home));
  // Non-pinned SLAAC address was re-derived for the same link.
  EXPECT_TRUE(t.host_a->owns_address(
      Address::from_prefix_iid(Address::parse("2001:db8:1::"),
                               t.host_a->iid())));
}

TEST(Stack, AutoconfigureAfterMoveSwitchesPrefix) {
  TwoLan t;
  Interface& iface = t.host_a_node.iface(0);
  Address old_global = t.host_a->global_address(t.a_iface());
  iface.detach();
  iface.attach(t.lan2);
  t.host_a->autoconfigure(t.a_iface());
  Address new_global = t.host_a->global_address(t.a_iface());
  EXPECT_TRUE(Prefix::parse("2001:db8:2::/64").contains(new_global));
  EXPECT_FALSE(t.host_a->owns_address(old_global));
}

TEST(Stack, OptionHandlerInvokedOnLocalDelivery) {
  TwoLan t;
  int seen = 0;
  t.host_b->set_option_handler(
      opt::kBindingRequest,
      [&](const DestOption& o, const ParsedDatagram&, IfaceId) {
        ++seen;
        EXPECT_EQ(o.data.size(), 2u);
      });
  DatagramSpec spec;
  spec.src = t.host_a->global_address(t.a_iface());
  spec.dst = t.host_b->global_address(t.b_iface());
  spec.dest_options.push_back(DestOption{opt::kBindingRequest, Bytes{1, 2}});
  spec.protocol = proto::kNoNext;
  t.host_a->send(spec);
  t.net.scheduler().run();
  EXPECT_EQ(seen, 1);
}

TEST(Stack, ReceiveAsIfRunsFullPath) {
  TwoLan t;
  int got = 0;
  t.host_a->set_proto_handler(
      proto::kUdp,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++got; });
  Address a = t.host_a->global_address(t.a_iface());
  DatagramSpec spec;
  spec.src = a;
  spec.dst = a;
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{5, 6, Bytes{}}.serialize(a, a);
  t.host_a->receive_as_if(t.a_iface(), Packet(build_datagram(spec)));
  EXPECT_EQ(got, 1);
}

TEST(Stack, MalformedPacketCounted) {
  TwoLan t;
  Interface& iface = t.host_a_node.iface(0);
  Packet junk(Bytes{1, 2, 3});
  iface.send(junk);  // router + nothing else on lan1 receive it
  t.net.scheduler().run();
  EXPECT_GE(t.net.counters().get("ipv6/rx-drop/parse-error"), 1u);
}

TEST(Stack, RawSendOfNonIpv6OctetsThrowsNamingCaller) {
  TwoLan t;
  auto error_of = [](auto&& send) -> std::string {
    try {
      send();
    } catch (const LogicError& e) {
      return e.what();
    }
    return "no LogicError";
  };
  // Too short for a fixed header; then a whole header with version 0.
  EXPECT_EQ(error_of([&] { t.host_a->send_raw(Packet(Bytes{1, 2, 3})); }),
            "send_raw on a malformed datagram: truncated: IPv6 fixed header");
  EXPECT_EQ(error_of([&] {
              t.host_a->send_raw_on_iface(t.a_iface(), Packet(Bytes(40, 0)));
            }),
            "send_raw_on_iface on a malformed datagram: bad-type: IPv6 "
            "version field is not 6");
  EXPECT_EQ(t.lan1.tx_packets(), 0u);
}

TEST(Stack, GlobalRoutingMetricsAreHopCounts) {
  TwoLan t;
  const Route* r = t.router->rib().lookup(Address::parse("2001:db8:1::5"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->metric, 1u);  // directly attached
  EXPECT_TRUE(r->on_link());
}

TEST(GlobalRouting, LinkDistanceAndTree) {
  TwoLan t;
  EXPECT_EQ(t.routing.link_distance(t.lan1.id(), t.lan1.id()), 0);
  EXPECT_EQ(t.routing.link_distance(t.lan1.id(), t.lan2.id()), 1);
  auto tree = t.routing.shortest_path_tree(t.lan1.id(), {t.lan2.id()});
  EXPECT_EQ(tree.size(), 2u);  // both links on the path
}

}  // namespace
}  // namespace mip6

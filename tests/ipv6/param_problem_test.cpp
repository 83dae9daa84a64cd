// ICMPv6 Parameter Problem origination (RFC 2463 §3.4 / RFC 2460 §4.2):
// the two high-order bits of an unrecognized destination option's type
// select skip / discard / discard+report, and an unrecognized final Next
// Header earns a code-1 report pointing at the selecting octet.
#include <gtest/gtest.h>

#include <optional>

#include "ipv6/datagram.hpp"
#include "ipv6/global_routing.hpp"
#include "ipv6/icmpv6.hpp"
#include "ipv6/stack.hpp"

namespace mip6 {
namespace {

// hostA -- lan -- hostB, single link, default router unset (on-link only).
struct OneLan {
  Network net{3};
  AddressingPlan plan;
  Link& lan;
  Node& a_node;
  Node& b_node;
  std::unique_ptr<Ipv6Stack> a;
  std::unique_ptr<Ipv6Stack> b;
  GlobalRouting routing{net, plan};

  // Last Parameter Problem delivered to hostA.
  std::optional<Icmpv6Message> reported;

  OneLan()
      : lan(net.add_link("lan", Time::us(10))),
        a_node(net.add_node("hostA")),
        b_node(net.add_node("hostB")) {
    plan.set_link_prefix(lan.id(), Prefix::parse("2001:db8:1::/64"));
    a_node.add_interface().attach(lan);
    b_node.add_interface().attach(lan);
    a = std::make_unique<Ipv6Stack>(a_node, plan, false);
    b = std::make_unique<Ipv6Stack>(b_node, plan, false);
    routing.register_stack(*a);
    routing.register_stack(*b);
    routing.recompute();
    a->set_proto_handler(
        proto::kIcmpv6,
        [this](const ParsedDatagram& d, const Packet&, IfaceId) {
          auto msg = Icmpv6Message::try_parse(d.payload, d.hdr.src, d.hdr.dst);
          ASSERT_TRUE(msg.ok());
          if (msg.value().type == icmpv6::kParamProblem) {
            reported = msg.value();
          }
        });
  }

  IfaceId a_iface() const { return a_node.iface(0).id(); }
  IfaceId b_iface() const { return b_node.iface(0).id(); }

  /// Sends a datagram from A to B carrying one destination option.
  void send_with_option(std::uint8_t opt_type) {
    DatagramSpec spec;
    spec.src = a->global_address(a_iface());
    spec.dst = b->global_address(b_iface());
    spec.dest_options.push_back(DestOption{opt_type, Bytes(4, 0xee), 0});
    ASSERT_TRUE(a->send(spec));
    net.scheduler().run();
  }

  std::uint32_t reported_pointer() const {
    if (!reported || reported->body.size() < 4) return 0xffffffff;
    const Bytes& b4 = reported->body;
    return (std::uint32_t(b4[0]) << 24) | (std::uint32_t(b4[1]) << 16) |
           (std::uint32_t(b4[2]) << 8) | std::uint32_t(b4[3]);
  }
};

TEST(ParamProblem, SkipActionDeliversWithoutReport) {
  OneLan t;
  bool delivered = false;
  t.b->set_proto_handler(proto::kNoNext,
                         [&](const ParsedDatagram&, const Packet&, IfaceId) {
                           delivered = true;
                         });
  t.send_with_option(0x3e);  // action bits 00: skip
  EXPECT_TRUE(delivered);
  EXPECT_FALSE(t.reported.has_value());
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 0u);
}

TEST(ParamProblem, DiscardActionStaysSilent) {
  OneLan t;
  t.send_with_option(0x7e);  // action bits 01: silent discard
  EXPECT_FALSE(t.reported.has_value());
  EXPECT_EQ(t.net.counters().get("ipv6/rx-drop/unrecognized-option"), 1u);
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 0u);
}

TEST(ParamProblem, ReportActionSendsCode2PointingAtOption) {
  OneLan t;
  t.send_with_option(0xbe);  // action bits 10: discard + report
  ASSERT_TRUE(t.reported.has_value());
  EXPECT_EQ(t.reported->code, icmpv6::kCodeUnrecognizedOption);
  // Fixed header (40) + dest-opts next-header/length (2) = first option's
  // type octet.
  EXPECT_EQ(t.reported_pointer(), 42u);
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 1u);
  // The invoking datagram rides along after the 4-octet pointer.
  EXPECT_GT(t.reported->body.size(), 4u + 40u);
}

TEST(ParamProblem, ReportUnlessMulticastSuppressedForGroupDst) {
  OneLan t;
  const Address group = Address::parse("ff1e::99");
  t.b->join_local_group(t.b_iface(), group);
  DatagramSpec spec;
  spec.src = t.a->global_address(t.a_iface());
  spec.dst = group;
  spec.hop_limit = 1;
  spec.dest_options.push_back(DestOption{0xfe, Bytes(4, 0xee), 0});
  ASSERT_TRUE(t.a->send_on_iface(t.a_iface(), spec));
  t.net.scheduler().run();
  // Action bits 11: dropped, but no report because the destination was
  // multicast.
  EXPECT_EQ(t.net.counters().get("ipv6/rx-drop/unrecognized-option"), 1u);
  EXPECT_FALSE(t.reported.has_value());
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 0u);
}

TEST(ParamProblem, UnknownNextHeaderSendsCode1) {
  OneLan t;
  DatagramSpec spec;
  spec.src = t.a->global_address(t.a_iface());
  spec.dst = t.b->global_address(t.b_iface());
  spec.protocol = 200;  // no handler registered
  spec.payload = Bytes(8, 0x42);
  ASSERT_TRUE(t.a->send(spec));
  t.net.scheduler().run();
  ASSERT_TRUE(t.reported.has_value());
  EXPECT_EQ(t.reported->code, icmpv6::kCodeUnrecognizedNextHeader);
  // No extension headers: the selecting Next Header octet is fixed-header
  // offset 6.
  EXPECT_EQ(t.reported_pointer(), 6u);
}

TEST(ParamProblem, MobilityOptionsAreExemptWithoutHandlers) {
  OneLan t;
  // Hosts with no mobility handlers must not Parameter-Problem the mobility
  // options themselves (opt::kBindingUpdate carries action bits 11).
  t.send_with_option(opt::kBindingUpdate);
  EXPECT_FALSE(t.reported.has_value());
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 0u);
}

TEST(ParamProblem, NeverRepliesToUnreplyableSource) {
  OneLan t;
  DatagramSpec spec;
  spec.src = Address();  // unspecified
  spec.dst = t.b->global_address(t.b_iface());
  spec.dest_options.push_back(DestOption{0xbe, Bytes(4, 0xee), 0});
  t.b->receive_as_if(t.b_iface(), Packet(build_datagram(spec)));
  spec.src = Address::parse("ff02::1");  // multicast source
  t.b->receive_as_if(t.b_iface(), Packet(build_datagram(spec)));
  t.net.scheduler().run();
  EXPECT_EQ(t.net.counters().get("ipv6/rx-drop/unrecognized-option"), 2u);
  EXPECT_EQ(t.net.counters().get("icmpv6/tx/param-problem"), 0u);
}

}  // namespace
}  // namespace mip6

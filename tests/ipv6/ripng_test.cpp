// RIPng distance-vector routing: wire format, route propagation with
// metric accumulation, split horizon with poisoned reverse, route timeout
// and convergence after failures — and the headline: PIM-DM multicast
// running over RIPng-computed RPF state instead of the oracle.
#include "ipv6/ripng.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/world.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::40");
constexpr std::uint16_t kPort = 9000;

TEST(RipngMessages, PayloadRoundTrip) {
  std::vector<RipngRte> rtes{
      {Prefix::parse("2001:db8:1::/64"), 1},
      {Prefix::parse("2001:db8:2::/64"), 7},
      {Prefix::parse("::/0"), 16},
  };
  Bytes payload = ripng_response_payload(rtes);
  EXPECT_EQ(payload.size(), 4 + 3 * 20);
  ParseResult<std::vector<RipngRte>> parsed = try_parse_ripng_response(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const std::vector<RipngRte>& back = parsed.value();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].prefix, rtes[0].prefix);
  EXPECT_EQ(back[1].metric, 7);
  EXPECT_EQ(back[2].metric, 16);
}

TEST(RipngMessages, ParseRejectsMalformed) {
  Bytes bad{1, 1, 0, 0};  // command=Request (unsupported)
  ParseResult<std::vector<RipngRte>> request = try_parse_ripng_response(bad);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.failure().reason, ParseReason::kBadType);
  Bytes trunc = ripng_response_payload({{Prefix::parse("::/0"), 1}});
  trunc.pop_back();
  ParseResult<std::vector<RipngRte>> cut = try_parse_ripng_response(trunc);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.failure().reason, ParseReason::kTruncated);
}

WorldConfig ripng_world_config() {
  WorldConfig config;
  config.unicast = UnicastRouting::kRipng;
  return config;
}

/// h0 -- L0 -- R0 -- L1 -- R1 -- L2 -- R2 -- L3 -- h1
struct Chain {
  World world{1, ripng_world_config()};
  Link& l0;
  Link& l1;
  Link& l2;
  Link& l3;
  NodeRuntime& r0;
  NodeRuntime& r1;
  NodeRuntime& r2;
  NodeRuntime& h0;
  NodeRuntime& h1;

  Chain()
      : l0(world.add_link("L0")), l1(world.add_link("L1")),
        l2(world.add_link("L2")), l3(world.add_link("L3")),
        r0(world.add_router("R0", {&l0, &l1})),
        r1(world.add_router("R1", {&l1, &l2})),
        r2(world.add_router("R2", {&l2, &l3})),
        h0(world.add_host("H0", l0)), h1(world.add_host("H1", l3)) {
    world.finalize();
  }
};

TEST(Ripng, RoutesPropagateWithMetricAccumulation) {
  Chain t;
  // Give it a few update cycles to converge across 3 hops.
  t.world.run_until(Time::sec(95));
  // R0 learned L3 (3 hops away: connected at R2=1, +1 per hop).
  EXPECT_EQ(t.r0.ripng->metric_of(Prefix::parse("2001:db8:4::/64")), 3);
  EXPECT_EQ(t.r1.ripng->metric_of(Prefix::parse("2001:db8:4::/64")), 2);
  EXPECT_EQ(t.r2.ripng->metric_of(Prefix::parse("2001:db8:4::/64")), 1);
  // And the RIB agrees.
  const Route* route =
      t.r0.stack->rib().lookup(Address::parse("2001:db8:4::1"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->metric, 3u);
  EXPECT_FALSE(route->on_link());
}

TEST(Ripng, EndToEndUnicastOverConvergedRoutes) {
  Chain t;
  t.world.run_until(Time::sec(95));
  int delivered = 0;
  GroupReceiverApp app(*t.h1.stack, kPort);  // reuses the UDP consumer
  (void)app;
  t.h1.stack->set_proto_handler(
      proto::kNoNext,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++delivered; });
  DatagramSpec spec;
  spec.src = t.h0.stack->global_address(t.h0.iface());
  spec.dst = t.h1.stack->global_address(t.h1.iface());
  spec.protocol = proto::kNoNext;
  EXPECT_TRUE(t.h0.stack->send(spec));
  t.world.run_until(Time::sec(96));
  EXPECT_EQ(delivered, 1);
}

TEST(Ripng, SplitHorizonPreventsCountToInfinityBounce) {
  Chain t;
  t.world.run_until(Time::sec(95));
  // R2 vanishes. Without poisoned reverse, R0/R1 would bounce the L3 route
  // between each other, slowly counting to 16. With it, the route simply
  // times out (180 s) and is withdrawn.
  for (const auto& iface : t.r2.node->interfaces()) iface->detach();
  t.world.run_until(Time::sec(95) + Time::sec(200));
  EXPECT_EQ(t.r0.ripng->metric_of(Prefix::parse("2001:db8:4::/64")), 16);
  EXPECT_EQ(t.r0.stack->rib().lookup(Address::parse("2001:db8:4::1")),
            nullptr);
  EXPECT_GT(t.world.net().counters().get("ripng/route-expired"), 0u);
}

TEST(Ripng, ReconvergesToAlternatePathAfterFailure) {
  // Diamond: L-src -- A -- {top, bottom} -- D -- L-dst, with B on top and
  // C on bottom. Kill B; routes re-converge via C.
  WorldConfig config = ripng_world_config();
  World world(3, config);
  Link& lsrc = world.add_link("Lsrc");
  Link& top = world.add_link("Top");
  Link& bottom = world.add_link("Bottom");
  Link& ldst = world.add_link("Ldst");
  NodeRuntime& a = world.add_router("A", {&lsrc, &top, &bottom});
  NodeRuntime& b = world.add_router("B", {&top, &ldst});
  NodeRuntime& c = world.add_router("C", {&bottom, &ldst});
  world.add_host("H", lsrc);
  world.finalize();
  world.run_until(Time::sec(95));

  Prefix dst = world.plan().prefix_of(ldst.id());
  const Route* before_ptr = a.stack->rib().lookup(dst.network());
  ASSERT_NE(before_ptr, nullptr);
  const Route before = *before_ptr;  // lookup pointers don't survive churn
  EXPECT_EQ(before.metric, 2u);

  // Kill whichever router A currently routes through.
  NodeRuntime& victim = before.out_iface == a.iface_on(top) ? b : c;
  for (const auto& iface : victim.node->interfaces()) iface->detach();

  // Route via the victim times out after 180 s, then the alternative is
  // learned from the next periodic update.
  world.run_until(Time::sec(95) + Time::sec(220));
  const Route* after = a.stack->rib().lookup(dst.network());
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->metric, 2u);
  EXPECT_NE(after->out_iface, before.out_iface);
}

TEST(Ripng, MulticastRunsOverRipngRpf) {
  // The paper's protocol-independence point: the same PIM-DM engine works
  // unchanged over a real routing protocol.
  Chain t;
  GroupReceiverApp app(*t.h1.stack, kPort);
  t.h1.service->subscribe(kGroup);
  CbrSource source(
      t.world.scheduler(),
      [&](Bytes p) {
        t.h0.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  // Start after RIPng has converged (a few 30 s update cycles).
  source.start(Time::sec(100));
  t.world.run_until(Time::sec(160));
  EXPECT_GT(app.unique_received(), 550u);

  // RPF interfaces come from RIPng-installed routes.
  const Address s = t.h0.mn->home_address();
  ASSERT_TRUE(t.r1.pim->has_entry(s, kGroup));
  const Route* rpf = t.r1.stack->rib().lookup(s);
  ASSERT_NE(rpf, nullptr);
  EXPECT_EQ(t.r1.pim->incoming(s, kGroup), rpf->out_iface);
  // Next hops learned from RIPng are link-local neighbor addresses.
  EXPECT_TRUE(rpf->next_hop.is_link_local_unicast());
}

TEST(Ripng, MulticastDuringConvergenceSelfHeals) {
  // Traffic started *before* RIPng converges is dropped (RPF failures),
  // then picks up on its own once routes exist.
  Chain t;
  GroupReceiverApp app(*t.h1.stack, kPort);
  t.h1.service->subscribe(kGroup);
  CbrSource source(
      t.world.scheduler(),
      [&](Bytes p) {
        t.h0.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::ms(200));
  t.world.run_until(Time::sec(120));
  EXPECT_GT(t.world.net().counters().get("pimdm/rpf-fail"), 0u);
  // Received steadily in the second minute.
  EXPECT_GT(app.received_in(Time::sec(60), Time::sec(120)), 550u);
}

}  // namespace
}  // namespace mip6

// Edge cases across modules: API contracts, idempotency, and protocol
// corners not covered by the scenario suites. The dense-mode engines'
// introspection and local-receiver contract is in dense_engine_test.cpp.
#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "core/world.hpp"
#include "mipv6/ha_redundancy.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::e0");
constexpr std::uint16_t kPort = 9000;

TEST(EdgeCases, EnableIfaceTwiceIsIdempotent) {
  World world(1);
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  world.finalize();
  IfaceId iface = r.iface_on(lan);
  r.pim->enable_iface(iface);  // already enabled by add_router
  r.mld->enable_iface(iface);
  world.run_until(Time::sec(70));
  // Exactly one hello stream (t=0, 30, 60) — not doubled.
  EXPECT_EQ(world.net().counters().get("pimdm/tx/hello"), 3u);
}

TEST(EdgeCases, HostOutOfCoverageThenBack) {
  World world(3);
  Link& l1 = world.add_link("L1");
  Link& l2 = world.add_link("L2");
  world.add_router("R", {&l1, &l2});
  NodeRuntime& h = world.add_host("H", l1);
  NodeRuntime& src = world.add_host("S", l1);
  world.finalize();

  GroupReceiverApp app(*h.stack, kPort);
  h.service->subscribe(kGroup);
  CbrSource source(
      world.scheduler(),
      [&](Bytes p) {
        src.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));
  world.run_until(Time::sec(5));
  std::uint64_t before = app.unique_received();
  ASSERT_GT(before, 30u);

  // Radio silence: detach entirely for 10 s, then reattach to L2.
  h.node->iface(0).detach();
  world.scheduler().schedule_at(Time::sec(15), [&] {
    h.node->iface(0).attach(l2);
  });
  world.run_until(Time::sec(14));
  EXPECT_EQ(app.unique_received(), before);  // nothing while detached
  world.run_until(Time::sec(30));
  EXPECT_GT(app.received_in(Time::sec(16), Time::sec(30)), 100u);
  EXPECT_TRUE(h.mn->away_from_home());
}

TEST(EdgeCases, HomeAgentAdoptAndDropBindingDirectly) {
  World world(1);
  Link& hl = world.add_link("HL");
  Link& fl = world.add_link("FL");
  NodeRuntime& r = world.add_router("R", {&hl, &fl});
  world.add_host("H", hl);
  world.finalize();

  Address home = Address::parse("2001:db8:1:0:abc::1");
  Address coa = Address::parse("2001:db8:2:0:abc::1");
  r.ha->adopt_binding(home, coa, 1, Time::sec(100), {kGroup});
  EXPECT_EQ(r.ha->cache().size(), 1u);
  EXPECT_TRUE(r.ha->represents(kGroup));
  EXPECT_TRUE(r.stack->intercepts(home));
  EXPECT_TRUE(r.pim->is_local_receiver(kGroup));

  r.ha->drop_binding(home);
  EXPECT_EQ(r.ha->cache().size(), 0u);
  EXPECT_FALSE(r.ha->represents(kGroup));
  EXPECT_FALSE(r.stack->intercepts(home));
  EXPECT_FALSE(r.pim->is_local_receiver(kGroup));
  r.ha->drop_binding(home);  // idempotent
}

TEST(EdgeCases, AdoptedBindingExpiresLikeAnyOther) {
  World world(1);
  Link& hl = world.add_link("HL");
  NodeRuntime& r = world.add_router("R", {&hl});
  world.add_host("H", hl);
  world.finalize();
  Address home = Address::parse("2001:db8:1:0:abc::1");
  r.ha->adopt_binding(home, Address::parse("2001:db8:2::9"), 1,
                      Time::sec(50), {kGroup});
  world.run_until(Time::sec(51));
  EXPECT_EQ(r.ha->cache().size(), 0u);
  EXPECT_FALSE(r.ha->represents(kGroup));
}

TEST(EdgeCases, HaRedundancyWorksOverRipng) {
  // The extensions compose: failover with a live routing protocol.
  WorldConfig config;
  config.unicast = UnicastRouting::kRipng;
  World world(1, config);
  Link& hl = world.add_link("HL");
  Link& tl = world.add_link("TL");
  Link& fl = world.add_link("FL");
  NodeRuntime& ha1 = world.add_router("HA1", {&hl, &tl});
  NodeRuntime& ha2 = world.add_router("HA2", {&hl, &tl});
  world.add_router("FR", {&tl, &fl});
  NodeRuntime& mn = world.add_host(
      "MN", hl, {McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu});
  NodeRuntime& src = world.add_host("SRC", hl);
  world.finalize();

  HaRedundancy red2(*ha2.stack, *ha2.ha, *ha2.udp, ha2.iface_on(hl),
                    ha2.address_on(hl));
  red2.add_peer(ha1.address_on(hl),
                {ha1.address_on(hl), ha1.address_on(tl)});
  HaRedundancy red1(*ha1.stack, *ha1.ha, *ha1.udp, ha1.iface_on(hl),
                    ha1.address_on(hl));

  GroupReceiverApp app(*mn.stack, kPort);
  mn.service->subscribe(kGroup);
  CbrSource source(
      world.scheduler(),
      [&](Bytes p) {
        src.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(2));  // after RIPng converges
  world.scheduler().schedule_at(Time::sec(5), [&] { mn.mn->move_to(fl); });
  world.run_until(Time::sec(20));
  ASSERT_GT(app.unique_received(), 80u);

  const Address ha1_id = ha1.address_on(hl);
  for (const auto& iface : ha1.node->interfaces()) iface->detach();
  world.run_until(Time::sec(60));
  EXPECT_TRUE(red2.has_taken_over(ha1_id));
  EXPECT_GT(app.received_in(Time::sec(35), Time::sec(60)), 200u);
}

TEST(EdgeCases, SchedulerRunAfterRunUntil) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(Time::sec(1), [&] { ++ran; });
  s.schedule_at(Time::sec(100), [&] { ++ran; });
  s.run_until(Time::sec(1));
  EXPECT_EQ(ran, 1);
  s.run();  // drains the rest; clock ends at the last event, not never()
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), Time::sec(100));
  EXPECT_FALSE(s.now().is_never());
}

}  // namespace
}  // namespace mip6

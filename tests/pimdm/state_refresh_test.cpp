// PIM-DM State Refresh extension (RFC 3973 semantics, off by default to
// match the paper's draft-03 baseline): refresh waves from the first-hop
// router keep prune state alive in place, eliminating the periodic
// re-flood; grafting through refreshed state must still work.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/world.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::5");
constexpr std::uint16_t kPort = 9000;

struct Chain {
  World world;
  Link& l0;
  Link& l1;
  Link& l2;
  Link& l3;
  NodeRuntime& r0;
  NodeRuntime& r1;
  NodeRuntime& r2;
  NodeRuntime& sender;
  NodeRuntime& host;
  McastMetrics metrics;
  std::unique_ptr<CbrSource> source;

  explicit Chain(bool state_refresh)
      : world(1,
              [&] {
                WorldConfig c;
                c.pim.state_refresh = state_refresh;
                return c;
              }()),
        l0(world.add_link("L0")), l1(world.add_link("L1")),
        l2(world.add_link("L2")), l3(world.add_link("L3")),
        r0(world.add_router("R0", {&l0, &l1})),
        r1(world.add_router("R1", {&l1, &l2})),
        r2(world.add_router("R2", {&l2, &l3})),
        sender(world.add_host("S", l0)), host(world.add_host("H", l3)),
        metrics(world.net(), world.routing(), kGroup, kPort) {
    world.finalize();
    source = std::make_unique<CbrSource>(
        world.scheduler(),
        [this](Bytes p) {
          sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
        },
        Time::ms(100), 64);
  }
};

TEST(StateRefresh, SuppressesPeriodicReflood) {
  Chain off(false), on(true);
  std::uint64_t off_l2_after_initial = 0, on_l2_after_initial = 0;
  for (Chain* t : {&off, &on}) {
    t->source->start(Time::ms(100));
    // Let the initial flood + T_PruneDel window pass (the paper's expected
    // flood: ~T_PruneDel * data rate onto each to-be-pruned link).
    t->world.run_until(Time::sec(60));
    (t == &off ? off_l2_after_initial : on_l2_after_initial) =
        t->metrics.data_tx_count_on(t->l2.id());
    t->world.run_until(Time::sec(700));  // several prune lifetimes
  }
  // Baseline draft-03: prunes expire and data re-floods periodically.
  EXPECT_GT(off.world.net().counters().get("pimdm/prune-expired"), 0u);
  std::uint64_t off_refloods =
      off.metrics.data_tx_count_on(off.l2.id()) - off_l2_after_initial;
  EXPECT_GT(off_refloods, 30u);

  // With state refresh: prunes are refreshed in place — after the initial
  // flood not a single datagram crosses the pruned L2 again.
  EXPECT_EQ(on.world.net().counters().get("pimdm/prune-expired"), 0u);
  EXPECT_GT(on.world.net().counters().get("pimdm/tx/state-refresh"), 5u);
  EXPECT_GT(on.world.net().counters().get("pimdm/prune-refreshed"), 5u);
  EXPECT_EQ(on.metrics.data_tx_count_on(on.l2.id()), on_l2_after_initial);
  // And the initial flood itself is bounded by the prune-delay window.
  EXPECT_LT(on_l2_after_initial, 50u);
}

TEST(StateRefresh, EntryKeptAliveByWavesNotOnlyData) {
  Chain t(true);
  t.source->start(Time::ms(100));
  t.world.run_until(Time::sec(30));
  // R1 pruned itself but its (S,G) entry must survive well past the 210 s
  // data timeout, because refresh waves keep arriving.
  const Address s = t.sender.mn->home_address();
  ASSERT_TRUE(t.r1.pim->has_entry(s, kGroup));
  t.world.run_until(Time::sec(500));
  EXPECT_TRUE(t.r1.pim->has_entry(s, kGroup));

  // When the source stops, origination stops at the first hop after its
  // data timeout, and downstream state drains one refresh lifetime later.
  t.source->stop();
  t.world.run_until(Time::sec(500) + Time::sec(250));
  EXPECT_FALSE(t.r0.pim->has_entry(s, kGroup));  // 210 s after last data
  t.world.run_until(Time::sec(500) + Time::sec(500));
  EXPECT_FALSE(t.r1.pim->has_entry(s, kGroup));  // 210 s after last wave
  EXPECT_FALSE(t.r2.pim->has_entry(s, kGroup));
}

TEST(StateRefresh, GraftStillWorksThroughRefreshedPrunes) {
  Chain t(true);
  GroupReceiverApp app(*t.host.stack, kPort);
  t.source->start(Time::ms(100));
  t.world.run_until(Time::sec(300));  // long-held (refreshed) prunes
  ASSERT_EQ(app.unique_received(), 0u);

  t.host.mld_host->join(t.host.iface(), kGroup);
  t.world.run_until(Time::sec(310));
  auto first = app.first_rx_at_or_after(Time::sec(300));
  ASSERT_TRUE(first.has_value());
  EXPECT_LT(*first, Time::sec(301));
  EXPECT_GT(app.unique_received(), 80u);
}

TEST(StateRefresh, MessageRoundTrip) {
  PimStateRefresh sr;
  sr.group = Address::parse("ff1e::1");
  sr.source = Address::parse("2001:db8:1::10");
  sr.originator = Address::parse("2001:db8:1::1");
  sr.metric_preference = 101;
  sr.metric = 2;
  sr.ttl = 7;
  sr.prune_indicator = true;
  sr.interval_s = 60;
  ParseResult<PimStateRefresh> parsed = PimStateRefresh::try_parse(sr.body());
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const PimStateRefresh& back = parsed.value();
  EXPECT_EQ(back.group, sr.group);
  EXPECT_EQ(back.source, sr.source);
  EXPECT_EQ(back.originator, sr.originator);
  EXPECT_EQ(back.metric, 2u);
  EXPECT_EQ(back.ttl, 7);
  EXPECT_TRUE(back.prune_indicator);
  EXPECT_EQ(back.interval_s, 60);
}

TEST(StateRefresh, ParseRejectsTruncation) {
  PimStateRefresh sr;
  sr.group = Address::parse("ff1e::1");
  sr.source = Address::parse("2001:db8::1");
  sr.originator = Address::parse("2001:db8::2");
  Bytes body = sr.body();
  body.pop_back();
  ParseResult<PimStateRefresh> parsed = PimStateRefresh::try_parse(body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.failure().reason, ParseReason::kTruncated);
}

}  // namespace
}  // namespace mip6

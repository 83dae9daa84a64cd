// The contract both dense-mode engines share through DenseModeEngine, run
// once per engine through `NodeRuntime::dense` and the `<kind>/` counters:
// the Assert election between two forwarders on one LAN, introspection on a
// missing (S,G) entry, the local-receiver refcount, and an Assert loser
// that lets the winner stop flooding a LAN nobody behind it wants.
#include <gtest/gtest.h>

#include <string>

#include "core/traffic.hpp"
#include "core/world.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::5");
constexpr std::uint16_t kPort = 9000;

class DenseEngineContract : public ::testing::TestWithParam<DenseEngineKind> {
 protected:
  static WorldConfig config() {
    WorldConfig c;
    c.dense_engine = GetParam();
    return c;
  }
  /// "<kind>/<name>" for the engine under test.
  static std::string counter(const std::string& name) {
    return (GetParam() == DenseEngineKind::kPimDm ? "pimdm/" : "hpimdm/") +
           name;
  }
};

/// Two equal-cost routers bridge the source LAN and the receiver LAN.
struct Diamond {
  World world;
  Link& top;
  Link& bottom;
  NodeRuntime& left;
  NodeRuntime& right;
  NodeRuntime& sender;
  NodeRuntime& member;

  explicit Diamond(WorldConfig config)
      : world(3, config), top(world.add_link("Top")),
        bottom(world.add_link("Bottom")),
        left(world.add_router("Left", {&top, &bottom})),
        right(world.add_router("Right", {&top, &bottom})),
        sender(world.add_host("S", top)), member(world.add_host("M", bottom)) {
    world.finalize();
  }
};

TEST_P(DenseEngineContract, AssertElectsSingleForwarder) {
  Diamond t(config());
  t.member.mld_host->join(t.member.iface(), kGroup);
  GroupReceiverApp app(*t.member.stack, kPort);
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(500));
  t.world.run_until(Time::sec(30));

  // Both forwarded the first datagram -> duplicate -> assert -> one loser.
  const auto& counters = t.world.net().counters();
  EXPECT_GE(counters.get(counter("tx/assert")), 1u);
  EXPECT_EQ(counters.get(counter("assert-lost")), 1u);
  // Only the first datagram(s) are duplicated.
  EXPECT_LE(app.duplicates(), 3u);
  EXPECT_GT(app.unique_received(), 250u);

  // Exactly one of the two routers still forwards onto the bottom LAN.
  const Address s = t.sender.mn->home_address();
  int forwarders = 0;
  for (NodeRuntime* r : {&t.left, &t.right}) {
    if (!r->dense->outgoing(s, kGroup).empty()) ++forwarders;
  }
  EXPECT_EQ(forwarders, 1);
}

TEST_P(DenseEngineContract, IntrospectionThrowsOnMissingEntry) {
  World world(1, config());
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  world.add_host("H", lan);
  world.finalize();
  Address s = Address::parse("2001:db8:9::1");
  EXPECT_FALSE(r.dense->has_entry(s, kGroup));
  EXPECT_TRUE(r.dense->outgoing(s, kGroup).empty());
  EXPECT_THROW(r.dense->incoming(s, kGroup), LogicError);
  EXPECT_THROW(r.dense->rpf_neighbor_of(s, kGroup), LogicError);
  if (r.pim != nullptr) {
    EXPECT_THROW(r.pim->downstream_state(s, kGroup, 0), LogicError);
  }
}

TEST_P(DenseEngineContract, LocalReceiverRefCounting) {
  World world(1, config());
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  world.finalize();
  r.dense->add_local_receiver(kGroup);
  r.dense->add_local_receiver(kGroup);
  r.dense->remove_local_receiver(kGroup);
  EXPECT_TRUE(r.dense->is_local_receiver(kGroup));  // one ref left
  r.dense->remove_local_receiver(kGroup);
  EXPECT_FALSE(r.dense->is_local_receiver(kGroup));
  r.dense->remove_local_receiver(kGroup);  // extra remove is harmless
  EXPECT_FALSE(r.dense->is_local_receiver(kGroup));
}

/// The Diamond with one more hop: Left and Right bridge the source LAN
/// (Top) and a transit LAN (Mid); Down links Mid to the member's LAN
/// (Bottom).
struct ThreeLans {
  World world;
  Link& top;
  Link& mid;
  Link& bottom;
  NodeRuntime& left;
  NodeRuntime& right;
  NodeRuntime& down;
  NodeRuntime& sender;
  NodeRuntime& member;

  explicit ThreeLans(WorldConfig config)
      : world(3, config), top(world.add_link("Top")),
        mid(world.add_link("Mid")), bottom(world.add_link("Bottom")),
        left(world.add_router("Left", {&top, &mid})),
        right(world.add_router("Right", {&top, &mid})),
        down(world.add_router("Down", {&mid, &bottom})),
        sender(world.add_host("S", top)), member(world.add_host("M", bottom)) {
    world.finalize();
  }
};

TEST_P(DenseEngineContract, AssertLoserLetsWinnerQuitIdleLan) {
  ThreeLans t(config());
  std::uint64_t mid_frames = 0;
  const auto hook = t.world.net().add_tx_hook(
      [&](const Link& link, const Interface&, const Packet&) {
        const Time now = t.world.now();
        if (&link == &t.mid && now >= Time::sec(40) && now < Time::sec(140)) {
          ++mid_frames;
        }
      });
  GroupReceiverApp app(*t.member.stack, kPort);
  t.member.mld_host->join(t.member.iface(), kGroup);
  t.world.scheduler().schedule_at(Time::sec(20), [&t] {
    t.member.mld_host->leave(t.member.iface(), kGroup);
  });
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(500));
  t.world.run_until(Time::sec(140));
  t.world.net().remove_tx_hook(hook);

  EXPECT_GT(app.unique_received(), 150u);
  EXPECT_EQ(t.world.net().counters().get(counter("assert-lost")), 1u);
  // Once Down loses interest, Mid carries only protocol chatter (a few
  // hellos per router); the 1,000 datagrams of the window stay off it.
  EXPECT_LE(mid_frames, 20u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, DenseEngineContract,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         [](const auto& param_info) {
                           return param_info.param == DenseEngineKind::kPimDm
                                      ? "pimdm"
                                      : "hpimdm";
                         });

}  // namespace
}  // namespace mip6

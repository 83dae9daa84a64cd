// Flow-cache coherence regression: the (S,G) MFC must never hold a fresh
// entry its engine would not install now. A Network tx hook runs
// DenseDataPlane::first_incoherent() at every frame of a serial run, on
// every router except the frame's sender — a sender can be mid-handler,
// between a state change and a later entry's invalidation (e.g. a Prune
// sent from inside a per-(S,G) loop). A dropped invalidation therefore
// fails at the first frame after the transition it missed, named by
// router, (S,G) and what differs: live entry, RPF interface, cacheability
// or oif bitmap.
//
// The seeded Figure 1 run exercises MLD join and leave (prune + graft),
// asserts on the looped links, a RouterD crash and restart, and neighbor
// expiry (shortened holdtime, outage longer than it). A 3-router line
// unpins a local receiver at a leaf whose only reason to cache was the
// pin. A PIM-DM shared LAN gets a Join after its prune took effect. The
// 16-router random topologies add roaming senders and receivers, a
// bidirectional-tunnel group whose home agents pin local receivers, a
// leave and rejoin, a router crash, a transit link outage, and short
// data-timeout, prune and assert timers. All but the LAN run both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/figure1.hpp"
#include "core/mobility.hpp"
#include "core/random_topology.hpp"
#include "core/traffic.hpp"
#include "fault/chaos.hpp"

namespace mip6 {
namespace {

constexpr std::uint16_t kPort = Figure1::kDataPort;

/// Runs the coherence check at every frame transmitted in `world`.
class CoherenceCheck {
 public:
  explicit CoherenceCheck(World& world)
      : world_(&world),
        hook_(world.net().add_tx_hook(
            [this](const Link&, const Interface& from, const Packet&) {
              check(from.node());
            })) {}
  ~CoherenceCheck() { world_->net().remove_tx_hook(hook_); }
  CoherenceCheck(const CoherenceCheck&) = delete;
  CoherenceCheck& operator=(const CoherenceCheck&) = delete;

  std::uint64_t frames() const { return frames_; }
  /// Empty while every check passed; else the first incoherence found.
  const std::string& first_mismatch() const { return mismatch_; }

 private:
  void check(const Node& sender) {
    if (!mismatch_.empty()) return;
    ++frames_;
    for (const auto& rt : world_->routers()) {
      if (rt->dense == nullptr || rt->node == &sender) continue;
      std::string bad = rt->dense->data_plane().first_incoherent();
      if (!bad.empty()) {
        mismatch_ = rt->node->name() + " at " + world_->net().now().str() +
                    ", frame " + std::to_string(frames_) + ": " + bad;
        return;
      }
    }
  }

  World* world_;
  Network::TxHookId hook_;
  std::uint64_t frames_ = 0;
  std::string mismatch_;
};

std::uint64_t mfc_hits(World& world) {
  const auto& counters = world.net().counters();
  return counters.get("pimdm/mfc-hit") + counters.get("hpimdm/mfc-hit");
}

std::string engine_name(DenseEngineKind engine) {
  return engine == DenseEngineKind::kPimDm ? "pimdm" : "hpimdm";
}

class MfcCoherence : public ::testing::TestWithParam<DenseEngineKind> {};

TEST_P(MfcCoherence, Figure1MembershipCrashAndNeighborExpiry) {
  WorldConfig config;
  config.dense_engine = GetParam();
  // Fast hellos + a holdtime shorter than the outage below, so the crash
  // also exercises the neighbor-expiry invalidation path on RouterD's
  // peers (default holdtime would outlive the test).
  config.pim.hello_period = Time::sec(5);
  config.pim.hello_holdtime = Time::sec(16);
  config.hpim.hello_period = Time::sec(5);
  config.hpim.hello_holdtime_s = 16;

  Figure1 f = build_figure1(71, config);
  World& world = *f.world;
  CoherenceCheck check(world);

  Address group = Figure1::group();
  GroupReceiverApp app3(*f.recv3->stack, kPort);
  GroupReceiverApp app1(*f.recv1->stack, kPort);
  f.recv3->service->subscribe(group);
  auto* sender = f.sender;
  CbrSource source(
      world.scheduler(),
      [sender, group](Bytes p) {
        sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));

  // Mid-run membership churn: a join (graft / interest flip toward the
  // sender) and a late leave (prune) while data keeps flowing.
  NodeRuntime* recv1 = f.recv1;
  world.scheduler().schedule_at(Time::sec(12), [recv1, group] {
    recv1->service->subscribe(group);
  });
  world.scheduler().schedule_at(Time::sec(48), [recv1, group] {
    recv1->service->unsubscribe(group);
  });

  // Crash RouterD long enough for its neighbors' holdtimes to expire,
  // then bring it back (entry/cache rebuild + resync).
  FaultPlan plan;
  plan.router_crash(Time::sec(20), "RouterD")
      .router_restart(Time::sec(40), "RouterD");
  ChaosEngine chaos(world, plan);
  chaos.arm();

  world.run_until(Time::sec(60));

  EXPECT_EQ(check.first_mismatch(), "");
  EXPECT_GT(check.frames(), 0u);
  // The cache actually engaged — otherwise this proves nothing.
  EXPECT_GT(mfc_hits(world), 0u);
  EXPECT_GT(app3.unique_received() + app1.unique_received(), 0u);
  EXPECT_TRUE(chaos.all_audits_ok());
}

// A router pinned as a local receiver (a home agent joining on behalf of
// its mobile nodes) with nothing downstream caches an entry with an empty
// oif set. Unpinning must make that entry uncacheable again: a stale one
// would keep swallowing the datagrams that drive the upstream prune.
TEST_P(MfcCoherence, UnpinnedLeafStopsCaching) {
  WorldConfig config;
  config.dense_engine = GetParam();
  RandomTopology topo = build_line_topology(3, config, /*seed=*/7);
  World& world = *topo.world;
  NodeRuntime* sender = &world.add_host("S", *topo.stub_links[0]);
  world.finalize();
  CoherenceCheck check(world);

  const Address group = Address::parse("ff1e::1");
  DenseModeEngine* leaf = topo.routers[2]->dense;
  leaf->add_local_receiver(group);
  CbrSource source(
      world.scheduler(),
      [sender, group](Bytes p) {
        sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));
  world.scheduler().schedule_at(Time::sec(5), [leaf, group] {
    leaf->remove_local_receiver(group);
  });

  world.run_until(Time::sec(8));

  EXPECT_EQ(check.first_mismatch(), "");
  EXPECT_GT(mfc_hits(world), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, MfcCoherence,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         [](const auto& param_info) {
                           return engine_name(param_info.param);
                         });

// PIM-DM shared LAN (source--U--LB--{D1,D2}, member behind D2, nothing
// behind D1, a member on U's own LE so its entry stays cacheable) with a
// prune delay shorter than the join-override window, as the ABL1 bench
// sweeps: D2's Join reaches U after D1's prune took effect and must put LB
// back into U's cached oif set.
TEST(MfcCoherencePimDm, JoinAfterLanPruneTookEffect) {
  WorldConfig config;
  config.pim.prune_delay = Time::ms(100);
  World world(1, config);
  Link& la = world.add_link("LA");
  Link& lb = world.add_link("LB");
  Link& lc = world.add_link("LC");
  Link& ld = world.add_link("LD");
  Link& le = world.add_link("LE");
  world.add_router("U", {&la, &lb, &le});
  world.add_router("D1", {&lb, &lc});
  world.add_router("D2", {&lb, &ld});
  NodeRuntime* sender = &world.add_host("S", la);
  NodeRuntime& member_d2 = world.add_host("M2", ld);
  NodeRuntime& member_u = world.add_host("MU", le);
  world.finalize();
  CoherenceCheck check(world);

  const Address group = Address::parse("ff1e::1");
  member_d2.service->subscribe(group);
  member_u.service->subscribe(group);
  CbrSource source(
      world.scheduler(),
      [sender, group](Bytes p) {
        sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(50), 64);
  source.start(Time::sec(1));

  world.run_until(Time::sec(20));

  EXPECT_EQ(check.first_mismatch(), "");
  EXPECT_GT(mfc_hits(world), 0u);
}

using EngineAndSeed = std::tuple<DenseEngineKind, std::uint64_t>;

class MfcCoherenceRandom : public ::testing::TestWithParam<EngineAndSeed> {};

TEST_P(MfcCoherenceRandom, RoamingChurnAndFaults) {
  const auto [engine, seed] = GetParam();
  const Time horizon = Time::sec(60);

  WorldConfig config;
  config.dense_engine = engine;
  // Short timers so entries expire, prunes lapse and assert state times
  // out inside the horizon.
  config.pim.hello_period = Time::sec(5);
  config.pim.hello_holdtime = Time::sec(16);
  config.pim.data_timeout = Time::sec(8);
  config.pim.prune_hold_time = Time::sec(12);
  config.pim.assert_time = Time::sec(10);
  config.hpim.hello_period = Time::sec(5);
  config.hpim.hello_holdtime_s = 16;
  config.hpim.data_timeout = Time::sec(8);
  config.hpim.assert_time = Time::sec(10);

  RandomTopologyParams params;
  params.routers = 16;
  params.extra_links = 5;
  params.seed = seed;
  RandomTopology topo = build_random_topology(params, config);
  World& world = *topo.world;
  const std::vector<Link*>& stubs = topo.stub_links;

  // Three groups of one sender and three receivers on seeded stubs. Group
  // 1 rides bidirectional HA tunnels, so home agents pin local receivers.
  struct Group {
    Address group;
    NodeRuntime* sender = nullptr;
    std::vector<NodeRuntime*> receivers;
  };
  Rng place(Rng::derive_seed(seed, 1));
  std::vector<Group> groups(3);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const HostOptions opts(g == 1 ? McastStrategy::kBidirTunnel
                                  : McastStrategy::kLocalMembership,
                           HaRegistration::kGroupListBu);
    const std::string n = std::to_string(g);
    groups[g].group = Address::parse("ff1e::" + std::to_string(0x100 + g));
    groups[g].sender = &world.add_host(
        "S" + n, *stubs[place.uniform_int(stubs.size())], opts);
    for (int r = 0; r < 3; ++r) {
      groups[g].receivers.push_back(&world.add_host(
          "R" + n + "_" + std::to_string(r),
          *stubs[place.uniform_int(stubs.size())], opts));
    }
  }
  world.finalize();
  CoherenceCheck check(world);

  // Each host roams to another seeded stub once per dwell period, from a
  // seeded phase: receivers every 6 s, senders every 15 s.
  Rng move_rng(Rng::derive_seed(seed, 2));
  std::vector<std::unique_ptr<ItineraryMover>> movers;
  auto add_mover = [&](NodeRuntime& host, Time dwell) {
    const Link* home = host.node->iface_by_id(host.iface()).link();
    std::uint64_t at = static_cast<std::uint64_t>(
        std::find(stubs.begin(), stubs.end(), home) - stubs.begin());
    auto mover = std::make_unique<ItineraryMover>(*host.mn, world.scheduler());
    for (Time t = Time::sec(2) + Time::ns(static_cast<std::int64_t>(
                                     move_rng.uniform_int(dwell.nanos())));
         t <= horizon; t += dwell) {
      std::uint64_t to = move_rng.uniform_int(stubs.size() - 1);
      if (to >= at) ++to;
      mover->add_step(t, *stubs[to]);
      at = to;
    }
    movers.push_back(std::move(mover));
  };
  std::vector<std::unique_ptr<GroupReceiverApp>> apps;
  std::vector<std::unique_ptr<CbrSource>> sources;
  for (Group& grp : groups) {
    for (NodeRuntime* r : grp.receivers) {
      apps.push_back(std::make_unique<GroupReceiverApp>(*r->stack, kPort));
      r->service->subscribe(grp.group);
      add_mover(*r, Time::sec(6));
    }
    NodeRuntime* sender = grp.sender;
    const Address group = grp.group;
    sources.push_back(std::make_unique<CbrSource>(
        world.scheduler(),
        [sender, group](Bytes p) {
          sender->service->send_multicast(group, kPort, kPort, std::move(p));
        },
        Time::ms(100), 64));
    sources.back()->start(Time::sec(1));
    add_mover(*sender, Time::sec(15));
  }

  // One leave and rejoin, a router crash and a transit link outage.
  NodeRuntime* leaver = groups[0].receivers[0];
  const Address g0 = groups[0].group;
  world.scheduler().schedule_at(Time::sec(20), [leaver, g0] {
    leaver->service->unsubscribe(g0);
  });
  world.scheduler().schedule_at(Time::sec(35), [leaver, g0] {
    leaver->service->subscribe(g0);
  });
  FaultPlan plan;
  plan.router_crash(Time::sec(25), "Router3")
      .router_restart(Time::sec(45), "Router3")
      .link_down(Time::sec(30), topo.transit_links[0]->name())
      .link_up(Time::sec(40), topo.transit_links[0]->name());
  ChaosEngine chaos(world, plan);
  chaos.arm();

  world.run_until(horizon);

  EXPECT_EQ(check.first_mismatch(), "");
  EXPECT_GT(check.frames(), 0u);
  EXPECT_GT(mfc_hits(world), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSeeds, MfcCoherenceRandom,
    ::testing::Combine(::testing::Values(DenseEngineKind::kPimDm,
                                         DenseEngineKind::kHpimDm),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7},
                                         std::uint64_t{42}, std::uint64_t{99})),
    [](const auto& param_info) {
      return engine_name(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace mip6

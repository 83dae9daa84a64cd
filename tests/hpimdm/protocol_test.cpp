// HPIM-DM engine behavior on the Figure 1 world: interest replaces
// flood-and-prune (leave/rejoin react through acknowledged declarations, not
// timer cycles), control messages retransmit with backoff until acked,
// silent neighbors expire and interest is recomputed without them, a crash
// keeps the hard state so a restart forwards again without a re-flood, and
// an (S,G) entry lives exactly one data timeout past its last datagram.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/figure1.hpp"
#include "core/traffic.hpp"
#include "core/world.hpp"
#include "fault/chaos.hpp"

namespace mip6 {
namespace {

constexpr std::uint16_t kPort = Figure1::kDataPort;

WorldConfig hpim_world() {
  WorldConfig config;
  config.dense_engine = DenseEngineKind::kHpimDm;
  return config;
}

/// Figure 1 under HPIM-DM with a CBR sender (100 ms) started at t=1s and a
/// receiver app on each host; subscriptions are up to the test.
struct Harness {
  Figure1 f;
  std::unique_ptr<GroupReceiverApp> app1;
  std::unique_ptr<GroupReceiverApp> app2;
  std::unique_ptr<GroupReceiverApp> app3;
  std::unique_ptr<CbrSource> source;

  explicit Harness(std::uint64_t seed, WorldConfig config = hpim_world())
      : f(build_figure1(seed, config)) {
    app1 = std::make_unique<GroupReceiverApp>(*f.recv1->stack, kPort);
    app2 = std::make_unique<GroupReceiverApp>(*f.recv2->stack, kPort);
    app3 = std::make_unique<GroupReceiverApp>(*f.recv3->stack, kPort);
    Address group = Figure1::group();
    auto* sender = f.sender;
    source = std::make_unique<CbrSource>(
        f.world->scheduler(),
        [sender, group](Bytes p) {
          sender->service->send_multicast(group, kPort, kPort, std::move(p));
        },
        Time::ms(100), 64);
    source->start(Time::sec(1));
  }

  std::uint64_t counter(const std::string& name) const {
    return f.world->net().counters().get(name);
  }
  void at(Time t, std::function<void()> fn) {
    f.world->scheduler().schedule_at(t, std::move(fn));
  }
};

TEST(HpimProtocol, DeliversToAllReceiversAndBuildsHardState) {
  Harness h(21);
  h.f.recv1->service->subscribe(Figure1::group());
  h.f.recv2->service->subscribe(Figure1::group());
  h.f.recv3->service->subscribe(Figure1::group());
  h.f.world->run_until(Time::sec(20));

  EXPECT_GT(h.app1->unique_received(), 150u);
  EXPECT_GT(h.app2->unique_received(), 150u);
  EXPECT_GT(h.app3->unique_received(), 150u);

  const Address s = h.f.sender->mn->home_address();
  const Address g = Figure1::group();
  for (NodeRuntime* r : {h.f.a, h.f.b, h.f.c, h.f.d, h.f.e}) {
    ASSERT_NE(r->hpim, nullptr);
    EXPECT_EQ(r->dense, r->hpim);
    EXPECT_TRUE(r->hpim->has_entry(s, g)) << r->node->name();
  }
  // RouterA is the first-hop router: no upstream neighbor.
  EXPECT_TRUE(h.f.a->hpim->rpf_neighbor_of(s, g).is_unspecified());
  EXPECT_FALSE(h.f.d->hpim->rpf_neighbor_of(s, g).is_unspecified());
  // Reliable control actually ran: interest declarations and acks flowed.
  EXPECT_GT(h.counter("hpimdm/tx/interest"), 0u);
  EXPECT_GT(h.counter("hpimdm/tx/ack"), 0u);
}

TEST(HpimProtocol, LeaveStopsStreamAndRejoinRestoresItQuickly) {
  Harness h(23);
  h.f.recv3->service->subscribe(Figure1::group());
  h.at(Time::sec(10),
       [&] { h.f.recv3->service->unsubscribe(Figure1::group()); });
  h.at(Time::sec(18),
       [&] { h.f.recv3->service->subscribe(Figure1::group()); });
  h.f.world->run_until(Time::sec(25));

  // Flowing before the leave, silent after the uninterest propagated (give
  // it one second), flowing again right after the rejoin — no PIM-DM
  // flood/prune/graft cycle in between.
  EXPECT_GT(h.app3->received_in(Time::sec(2), Time::sec(10)), 60u);
  EXPECT_EQ(h.app3->received_in(Time::sec(12), Time::sec(18)), 0u);
  EXPECT_GT(h.app3->received_in(Time::sec(19), Time::sec(25)), 40u);
  EXPECT_GT(h.counter("hpimdm/tx/interest"), 0u);
}

TEST(HpimProtocol, ControlLossRetransmitsWithBackoffUntilAcked) {
  Harness h(25);
  // Kill every frame on Link3 while Receiver3 joins below it: the interest
  // RouterD declares to its upstream is lost and must be retransmitted with
  // backoff until the link heals and the cumulative ack arrives.
  FaultPlan plan;
  plan.degrade(Time::sec(5), "Link3", LinkImpairment{1.0, 0.0, Time::zero()})
      .restore(Time::sec(8), "Link3");
  ChaosEngine chaos(*h.f.world, plan);
  chaos.arm();
  h.at(Time::sec(6), [&] { h.f.recv3->service->subscribe(Figure1::group()); });
  h.f.world->run_until(Time::sec(15));

  // Several backoff rounds fit in the 2 s outage (rto 200ms doubling).
  EXPECT_GE(h.counter("hpimdm/retx"), 2u);
  // The declaration eventually got through: the stream reached Receiver3.
  EXPECT_GT(h.app3->received_in(Time::sec(9), Time::sec(15)), 40u);
}

TEST(HpimProtocol, CrashKeepsHardStateAndRestartAvoidsReflood) {
  Harness h(27);
  h.f.recv3->service->subscribe(Figure1::group());
  FaultPlan plan;
  plan.router_crash(Time::sec(20), "RouterD")
      .router_restart(Time::sec(22), "RouterD");
  ChaosEngine chaos(*h.f.world, plan);
  chaos.arm();

  const Address s = h.f.sender->mn->home_address();
  std::uint64_t sg_created_before = 0;
  h.at(Time::sec(19), [&] { sg_created_before = h.counter("hpimdm/sg-created"); });

  h.f.world->run_until(Time::sec(21));
  // Crashed, but the (S,G) entry survived: that is the hard state (PIM-DM
  // wipes it — see Chaos.RouterCrashWipesStateAndRestartReconverges).
  EXPECT_FALSE(h.f.d->node->up());
  EXPECT_GT(h.f.d->hpim->entry_count(), 0u);
  EXPECT_TRUE(h.f.d->hpim->has_entry(s, Figure1::group()));

  h.f.world->run_until(Time::sec(40));
  EXPECT_TRUE(chaos.all_audits_ok());
  // No re-flood happened anywhere: not a single new (S,G) entry was created
  // by the crash/restart cycle.
  EXPECT_EQ(h.counter("hpimdm/sg-created"), sg_created_before);
  // The rebooted generation id forced the neighbors to re-sync reliably.
  EXPECT_GT(h.counter("hpimdm/neighbor-resync"), 0u);
  // Forwarding resumed on the first datagrams after restart — well inside
  // the MLD query window PIM-DM needs to relearn the leaf.
  auto recs = chaos.recoveries(*h.app3);
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_TRUE(recs[0].recovered_at.has_value());
  EXPECT_LT(*recs[0].recovered_at, Time::sec(23));
  EXPECT_GT(h.app3->received_in(Time::sec(23), Time::sec(40)), 150u);
}

TEST(HpimProtocol, SilentNeighborExpiresAndRecoversThroughSync) {
  WorldConfig config = hpim_world();
  config.hpim.hello_period = Time::sec(1);
  config.hpim.hello_holdtime_s = 4;
  Harness h(29, config);
  h.f.recv3->service->subscribe(Figure1::group());
  FaultPlan plan;
  plan.link_down(Time::sec(20), "Link3").link_up(Time::sec(28), "Link3");
  ChaosEngine chaos(*h.f.world, plan);
  chaos.arm();
  h.f.world->run_until(Time::sec(40));

  // The outage outlived the holdtime: the Link3 routers declared each other
  // failed and dropped the dead channels...
  EXPECT_GE(h.counter("hpimdm/neighbor-expired"), 2u);
  EXPECT_EQ(h.app3->received_in(Time::sec(21), Time::sec(28)), 0u);
  // ...and the reliable sync on neighbor re-up restored the tree without
  // waiting for a new flood cycle.
  EXPECT_GT(h.counter("hpimdm/tx/sync"), 0u);
  EXPECT_GT(h.app3->received_in(Time::sec(31), Time::sec(40)), 50u);
}

TEST(HpimProtocol, SyncStormIsDampedToOnePerInterval) {
  WorldConfig config = hpim_world();
  config.hpim.sync_min_interval = Time::sec(5);
  Harness h(31, config);
  h.f.recv3->service->subscribe(Figure1::group());
  // Two reboot-driven resync triggers inside one damping interval: the
  // second must coalesce into the deferred transmission, not send again.
  FaultPlan plan;
  plan.router_crash(Time::sec(20), "RouterD")
      .router_restart(Time::sec(21), "RouterD")
      .router_crash(Time::sec(23), "RouterD")
      .router_restart(Time::sec(24), "RouterD");
  ChaosEngine chaos(*h.f.world, plan);
  chaos.arm();
  h.f.world->run_until(Time::sec(35));

  EXPECT_GE(h.counter("hpimdm/neighbor-resync"), 2u);
  EXPECT_GT(h.counter("hpimdm/sync-damped"), 0u);
  // Damping must not cost correctness: the stream is back at the end.
  EXPECT_GT(h.app3->received_in(Time::sec(30), Time::sec(35)), 40u);
}

/// sender -- L0 -- R0 -- L1 -- R1 -- L2 -- R2 -- L3 -- member, under
/// HPIM-DM with a short data timeout and a CBR flow, recording when each
/// router last received a datagram of the flow.
struct TimedChain {
  static constexpr Time kDataTimeout = Time::sec(3);
  const Address group = Address::parse("ff1e::5");
  // Declared before the world, which traces into them until it is gone.
  std::vector<TraceRecord> records;
  std::map<std::string, Time> last_rx;  // router name -> last arrival
  World world{1, [] {
                WorldConfig c = hpim_world();
                c.hpim.data_timeout = kDataTimeout;
                return c;
              }()};
  Link& l0 = world.add_link("L0");
  Link& l1 = world.add_link("L1");
  Link& l2 = world.add_link("L2");
  Link& l3 = world.add_link("L3");
  NodeRuntime& r0 = world.add_router("R0", {&l0, &l1});
  NodeRuntime& r1 = world.add_router("R1", {&l1, &l2});
  NodeRuntime& r2 = world.add_router("R2", {&l2, &l3});
  NodeRuntime& sender = world.add_host("S", l0);
  NodeRuntime& member = world.add_host("H", l3);
  std::unique_ptr<CbrSource> source;

  TimedChain() {
    world.finalize();
    world.net().trace().set_sink(Trace::recorder(records));
    for (Link* l : {&l0, &l1, &l2}) {
      l->set_drop_fn([this](const Packet& pkt, const Interface& to) {
        const ParseResult<ParsedDatagram> d = try_parse_datagram(pkt.view());
        if (d.ok() && d.value().hdr.dst == group &&
            d.value().protocol == proto::kUdp) {
          last_rx[to.node().name()] = world.scheduler().now();
        }
        return false;
      });
    }
    member.mld_host->join(member.iface(), group);
    source = std::make_unique<CbrSource>(
        world.scheduler(),
        [this](Bytes p) {
          sender.service->send_multicast(group, kPort, kPort, std::move(p));
        },
        Time::ms(100), 32);
    source->start(Time::ms(100));
  }

  std::uint64_t expired() {
    return world.net().counters().get("hpimdm/sg-expired");
  }
};

TEST(HpimProtocol, LiveFlowOutlivesManyDataTimeouts) {
  TimedChain c;
  // Every datagram refreshes the entry; the flow runs over 3 timeouts.
  c.world.run_until(TimedChain::kDataTimeout * 3 + Time::sec(1));
  EXPECT_EQ(c.expired(), 0u);
  for (NodeRuntime* r : {&c.r0, &c.r1, &c.r2}) {
    EXPECT_EQ(r->hpim->entry_count(), 1u) << r->node->name();
  }
}

TEST(HpimProtocol, EntryExpiresOneDataTimeoutAfterItsLastDatagram) {
  TimedChain c;
  c.world.run_until(TimedChain::kDataTimeout * 2 + Time::ms(550));
  c.source->stop();
  c.world.run_until(TimedChain::kDataTimeout * 5);
  EXPECT_EQ(c.expired(), 3u);
  for (NodeRuntime* r : {&c.r0, &c.r1, &c.r2}) {
    const std::string& name = r->node->name();
    EXPECT_EQ(r->hpim->entry_count(), 0u) << name;
    ASSERT_TRUE(c.last_rx.count(name)) << name;
    auto rec = std::find_if(
        c.records.begin(), c.records.end(), [&](const TraceRecord& tr) {
          return tr.event == "sg-expired" && tr.component == "hpimdm/" + name;
        });
    ASSERT_NE(rec, c.records.end()) << name;
    EXPECT_EQ(rec->at, c.last_rx[name] + TimedChain::kDataTimeout) << name;
  }
}

}  // namespace
}  // namespace mip6

// PIM-DM protocol behaviour: flood-and-prune, graft (with retransmission),
// LAN prune delay with Join override, data timeout, and the local-receiver
// pinning used by PIM-capable home agents. The Assert election both engines
// share is in tests/integration/dense_engine_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/world.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::5");
constexpr std::uint16_t kPort = 9000;

void send_data(NodeRuntime& host, const Address& group, std::uint32_t seq) {
  CbrPayload p;
  p.seq = seq;
  p.sent_at = host.stack->scheduler().now();
  host.service->send_multicast(group, kPort, kPort, p.encode(32));
}

/// sender -- L0 -- R0 -- L1 -- R1 -- L2 -- R2 -- L3 -- host
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

  explicit Chain(WorldConfig config = {})
      : world(1, config), l0(world.add_link("L0")), l1(world.add_link("L1")),
        l2(world.add_link("L2")), l3(world.add_link("L3")),
        r0(world.add_router("R0", {&l0, &l1})),
        r1(world.add_router("R1", {&l1, &l2})),
        r2(world.add_router("R2", {&l2, &l3})),
        sender(world.add_host("S", l0)), host(world.add_host("H", l3)),
        metrics(world.net(), world.routing(), kGroup, kPort) {
    world.finalize();
  }
};

TEST(PimDm, FloodThenPruneBackToSource) {
  Chain t;
  // No members anywhere: data is flooded, then pruned back.
  std::uint32_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    t.world.scheduler().schedule_at(Time::ms(100 * (i + 1)),
                                    [&t, &seq] { send_data(t.sender, kGroup, seq++); });
  }
  t.world.run_until(Time::sec(2));
  // Early packets flooded through all transit links.
  EXPECT_GT(t.metrics.data_tx_count_on(t.l1.id()), 0u);
  EXPECT_GT(t.metrics.data_tx_count_on(t.l2.id()), 0u);
  // L3 is a stub with no members and no downstream PIM routers: dense mode
  // never floods onto it.
  EXPECT_EQ(t.metrics.data_tx_count_on(t.l3.id()), 0u);

  t.world.run_until(Time::sec(10));
  std::uint64_t l1_after_prune = t.metrics.data_tx_count_on(t.l1.id());
  std::uint64_t l2_after_prune = t.metrics.data_tx_count_on(t.l2.id());
  EXPECT_GT(t.world.net().counters().get("pimdm/tx/prune"), 0u);
  EXPECT_GT(t.world.net().counters().get("pimdm/iface-pruned"), 0u);

  // Keep sending: no further growth on pruned links.
  t.world.run_until(Time::sec(11));
  EXPECT_EQ(t.metrics.data_tx_count_on(t.l1.id()), l1_after_prune);
  EXPECT_EQ(t.metrics.data_tx_count_on(t.l2.id()), l2_after_prune);
}

TEST(PimDm, MemberJoinGraftsCascade) {
  Chain t;
  GroupReceiverApp app(*t.host.stack, kPort);
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(100));

  // Let the tree get fully pruned first.
  t.world.run_until(Time::sec(20));
  ASSERT_EQ(app.unique_received(), 0u);

  // Host joins: R2 needs the MLD report, then grafts; R1 cascades.
  t.host.mld_host->join(t.host.iface(), kGroup);
  t.world.run_until(Time::sec(30));
  EXPECT_GT(app.unique_received(), 50u);
  EXPECT_GE(t.world.net().counters().get("pimdm/tx/graft"), 2u);
  EXPECT_GE(t.world.net().counters().get("pimdm/tx/graft-ack"), 2u);
  // Join delay after the graft is small: the first datagram arrives within
  // a CBR interval or two of the join.
  auto first = app.first_rx_at_or_after(Time::sec(20));
  ASSERT_TRUE(first.has_value());
  EXPECT_LT(*first, Time::sec(21));
}

TEST(PimDm, GraftRetransmittedUntilAcked) {
  Chain t;
  // Drop all Graft-Acks on L2 (towards R2).
  t.l2.set_drop_fn([&t](const Packet& pkt, const Interface& to) {
    if (&to.node() != t.r2.node) return false;
    try {
      ParsedDatagram d = parse_datagram(pkt.view());
      if (d.protocol != proto::kPim) return false;
      PimHeader h = parse_pim(d.payload, d.hdr.src, d.hdr.dst);
      return h.type == PimType::kGraftAck;
    } catch (const ParseError&) {
      return false;
    }
  });

  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(100));
  t.world.run_until(Time::sec(20));  // prune settles
  t.host.mld_host->join(t.host.iface(), kGroup);
  t.world.run_until(Time::sec(40));
  // Graft keeps being retransmitted every 3 s while unacknowledged.
  EXPECT_GE(t.world.net().counters().get("pimdm/graft-retry"), 3u);
}

TEST(PimDm, DataTimeoutExpiresSilentSource) {
  Chain t;
  t.host.mld_host->join(t.host.iface(), kGroup);
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(100));
  t.world.run_until(Time::sec(10));
  source.stop();
  EXPECT_GT(t.r0.pim->entry_count(), 0u);
  EXPECT_GT(t.r2.pim->entry_count(), 0u);
  // The (S,G) state lives for the 210 s data timeout, then is deleted.
  t.world.run_until(Time::sec(10) + Time::sec(209));
  EXPECT_GT(t.r0.pim->entry_count(), 0u);
  t.world.run_until(Time::sec(10) + Time::sec(215));
  EXPECT_EQ(t.r0.pim->entry_count(), 0u);
  EXPECT_EQ(t.r2.pim->entry_count(), 0u);
  EXPECT_GT(t.world.net().counters().get("pimdm/sg-expired"), 0u);
}

/// The Chain with a member behind R2, a short data timeout, a CBR flow and
/// a record of when each router last received a datagram of the flow.
struct TimedChain {
  static constexpr Time kDataTimeout = Time::sec(3);
  // Declared before the world, which traces into them until it is gone.
  std::vector<TraceRecord> records;
  std::map<std::string, Time> last_rx;  // router name -> last arrival
  Chain t{[] {
    WorldConfig c;
    c.pim.data_timeout = kDataTimeout;
    return c;
  }()};
  CbrSource source{t.world.scheduler(),
                   [this](Bytes p) {
                     t.sender.service->send_multicast(kGroup, kPort, kPort,
                                                      std::move(p));
                   },
                   Time::ms(100), 32};

  TimedChain() {
    t.world.net().trace().set_sink(Trace::recorder(records));
    for (Link* l : {&t.l0, &t.l1, &t.l2}) {
      l->set_drop_fn([this](const Packet& pkt, const Interface& to) {
        ParsedDatagram d = parse_datagram(pkt.view());
        if (d.hdr.dst == kGroup && d.protocol == proto::kUdp) {
          last_rx[to.node().name()] = t.world.scheduler().now();
        }
        return false;
      });
    }
    t.host.mld_host->join(t.host.iface(), kGroup);
    source.start(Time::ms(100));
  }

  std::uint64_t expired() {
    return t.world.net().counters().get("pimdm/sg-expired");
  }
};

TEST(PimDm, LiveFlowOutlivesManyDataTimeouts) {
  TimedChain c;
  // Every datagram refreshes the entry; the flow runs over 3 timeouts.
  c.t.world.run_until(TimedChain::kDataTimeout * 3 + Time::sec(1));
  EXPECT_EQ(c.expired(), 0u);
  for (NodeRuntime* r : {&c.t.r0, &c.t.r1, &c.t.r2}) {
    EXPECT_EQ(r->pim->entry_count(), 1u) << r->node->name();
  }
}

TEST(PimDm, EntryExpiresOneDataTimeoutAfterItsLastDatagram) {
  TimedChain c;
  c.t.world.run_until(TimedChain::kDataTimeout * 2 + Time::ms(550));
  c.source.stop();
  c.t.world.run_until(TimedChain::kDataTimeout * 5);
  EXPECT_EQ(c.expired(), 3u);
  for (NodeRuntime* r : {&c.t.r0, &c.t.r1, &c.t.r2}) {
    const std::string& name = r->node->name();
    EXPECT_EQ(r->pim->entry_count(), 0u) << name;
    ASSERT_TRUE(c.last_rx.count(name)) << name;
    auto rec = std::find_if(
        c.records.begin(), c.records.end(), [&](const TraceRecord& tr) {
          return tr.event == "sg-expired" && tr.component == "pimdm/" + name;
        });
    ASSERT_NE(rec, c.records.end()) << name;
    EXPECT_EQ(rec->at, c.last_rx[name] + TimedChain::kDataTimeout) << name;
  }
}

/// Shared-LAN topology for prune-override and assert tests:
///
///   sender -- LA -- U -- LB -- D1 -- LC (no member)
///                        \--- D2 -- LD (member)
struct SharedLan {
  World world;
  Link& la;
  Link& lb;
  Link& lc;
  Link& ld;
  NodeRuntime& u;
  NodeRuntime& d1;
  NodeRuntime& d2;
  NodeRuntime& sender;
  NodeRuntime& member;
  McastMetrics metrics;

  SharedLan()
      : world(7), la(world.add_link("LA")), lb(world.add_link("LB")),
        lc(world.add_link("LC")), ld(world.add_link("LD")),
        u(world.add_router("U", {&la, &lb})),
        d1(world.add_router("D1", {&lb, &lc})),
        d2(world.add_router("D2", {&lb, &ld})),
        sender(world.add_host("S", la)), member(world.add_host("M", ld)),
        metrics(world.net(), world.routing(), kGroup, kPort) {
    world.finalize();
  }
};

TEST(PimDm, JoinOverridesPruneOnSharedLan) {
  SharedLan t;
  t.member.mld_host->join(t.member.iface(), kGroup);
  GroupReceiverApp app(*t.member.stack, kPort);
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(100));
  t.world.run_until(Time::sec(60));

  // D1 pruned (nothing downstream), D2 overrode with a Join.
  EXPECT_GT(t.world.net().counters().get("pimdm/tx/prune"), 0u);
  EXPECT_GT(t.world.net().counters().get("pimdm/tx/join-override"), 0u);
  EXPECT_GT(t.world.net().counters().get("pimdm/prune-overridden"), 0u);
  // The member kept receiving throughout (~10 datagrams/s).
  EXPECT_GT(app.unique_received(), 550u);
  // And the memberless stub LC never saw data.
  EXPECT_EQ(t.metrics.data_tx_count_on(t.lc.id()), 0u);
}

TEST(PimDm, LocalReceiverPreventsPrune) {
  Chain t;
  // R2 represents a mobile node (home-agent style): it must stay on the
  // tree despite having no downstream members.
  t.r2.pim->add_local_receiver(kGroup);
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(100), 32);
  source.start(Time::ms(100));
  t.world.run_until(Time::sec(30));
  // Data still flows over L2 to reach R2 (not pruned away).
  std::uint64_t l2_count = t.metrics.data_tx_count_on(t.l2.id());
  EXPECT_GT(l2_count, 250u);

  // Dropping the local receiver prunes the branch.
  t.r2.pim->remove_local_receiver(kGroup);
  t.world.run_until(Time::sec(40));
  std::uint64_t l2_settled = t.metrics.data_tx_count_on(t.l2.id());
  t.world.run_until(Time::sec(50));
  EXPECT_LE(t.metrics.data_tx_count_on(t.l2.id()), l2_settled + 2);
}

TEST(PimDm, HelloNeighborDiscoveryAndExpiry) {
  Chain t;
  t.world.run_until(Time::sec(5));
  // R1 sees R0 and R2 (one neighbor on each transit LAN).
  EXPECT_EQ(t.r1.pim->neighbors(t.r1.iface_on(t.l1)).size(), 1u);
  EXPECT_EQ(t.r1.pim->neighbors(t.r1.iface_on(t.l2)).size(), 1u);

  // R2 leaves: its neighbor entry at R1 expires after the 105 s holdtime.
  t.r2.node->iface(0).detach();
  t.world.run_until(Time::sec(5) + Time::sec(106));
  EXPECT_TRUE(t.r1.pim->neighbors(t.r1.iface_on(t.l2)).empty());
  EXPECT_GT(t.world.net().counters().get("pimdm/neighbor-expired"), 0u);
}

TEST(PimDm, PruneExpiresAndRefloods) {
  Chain t;
  CbrSource source(
      t.world.scheduler(),
      [&t](Bytes p) {
        t.sender.service->send_multicast(kGroup, kPort, kPort, std::move(p));
      },
      Time::ms(200), 32);
  source.start(Time::ms(100));
  t.world.run_until(Time::sec(30));
  std::uint64_t pruned_l1 = t.metrics.data_tx_count_on(t.l1.id());
  ASSERT_GT(pruned_l1, 0u);

  // After the 210 s prune holdtime the prune state expires and dense mode
  // floods again (then re-prunes).
  t.world.run_until(Time::sec(230));
  EXPECT_GT(t.world.net().counters().get("pimdm/prune-expired"), 0u);
  EXPECT_GT(t.metrics.data_tx_count_on(t.l1.id()), pruned_l1);
}

}  // namespace
}  // namespace mip6

// Mobile IPv6 behaviour: binding lifecycle, home-agent interception and
// tunneling, BU retransmission, returning home, binding expiry — and the
// paper's two multicast registration mechanisms at the HA.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/traffic.hpp"
#include "core/world.hpp"
#include "mipv6/binding_cache.hpp"
#include "mipv6/messages.hpp"
#include "sim/trace.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::9");
constexpr std::uint16_t kPort = 9000;

/// home -- HL -- HA-router -- TL -- FR-router -- FL (foreign)
struct Roam {
  World world;
  Link& hl;
  Link& tl;
  Link& fl;
  NodeRuntime& ha;
  NodeRuntime& fr;
  NodeRuntime& mn;
  NodeRuntime& peer;  // a static host on the home link

  explicit Roam(WorldConfig config = {})
      : world(1, config), hl(world.add_link("HL")), tl(world.add_link("TL")),
        fl(world.add_link("FL")), ha(world.add_router("HA", {&hl, &tl})),
        fr(world.add_router("FR", {&tl, &fl})),
        mn(world.add_host("MN", hl)), peer(world.add_host("Peer", hl)) {
    world.finalize();
  }
};

TEST(Mipv6, BindingEstablishedAfterMove) {
  Roam t;
  t.world.run_until(Time::sec(1));
  EXPECT_FALSE(t.mn.mn->away_from_home());
  EXPECT_EQ(t.ha.ha->cache().size(), 0u);

  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(3));
  EXPECT_TRUE(t.mn.mn->away_from_home());
  EXPECT_TRUE(t.mn.mn->binding_acked());
  const BindingCache::Entry* e =
      t.ha.ha->cache().find(t.mn.mn->home_address());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->care_of, t.mn.mn->care_of());
  EXPECT_TRUE(Prefix::parse("2001:db8:3::/64").contains(e->care_of));
}

TEST(Mipv6, CareOfAddressFormsAfterMovementDetectionDelay) {
  WorldConfig config;
  config.mipv6.movement_detection_delay = Time::sec(2);
  Roam t(config);
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(1));
  // Still detecting movement: stale source, no care-of address.
  EXPECT_FALSE(t.mn.mn->away_from_home());
  EXPECT_EQ(t.mn.mn->current_source(), t.mn.mn->home_address());
  t.world.run_until(Time::sec(3));
  EXPECT_TRUE(t.mn.mn->away_from_home());
  EXPECT_NE(t.mn.mn->current_source(), t.mn.mn->home_address());
}

TEST(Mipv6, InterceptedUnicastTunneledToCareOf) {
  Roam t;
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));

  // Peer sends to the MN's *home address*; the HA must intercept + tunnel.
  int delivered = 0;
  t.mn.stack->set_proto_handler(
      proto::kUdp, [&](const ParsedDatagram& d, const Packet&, IfaceId) {
        ++delivered;
        EXPECT_EQ(d.hdr.dst, t.mn.mn->home_address());
      });
  Address src = t.peer.stack->global_address(t.peer.iface());
  DatagramSpec spec;
  spec.src = src;
  spec.dst = t.mn.mn->home_address();
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{1, 2, Bytes{9}}.serialize(src, spec.dst);
  t.peer.stack->send(spec);
  t.world.run_until(Time::sec(3));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(t.world.net().counters().get("ha/encap-unicast"), 1u);
  EXPECT_EQ(t.world.net().counters().get("mn/decap"), 1u);
}

TEST(Mipv6, TraceRecordsRegistrationAndTunneling) {
  Roam t;
  std::vector<TraceRecord> records;
  t.world.net().trace().set_sink(Trace::recorder(records));

  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  Address src = t.peer.stack->global_address(t.peer.iface());
  DatagramSpec spec;
  spec.src = src;
  spec.dst = t.mn.mn->home_address();
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{1, 2, Bytes{9}}.serialize(src, spec.dst);
  t.peer.stack->send(spec);
  t.world.run_until(Time::sec(3));

  auto find = [&](const char* event) {
    return std::find_if(records.begin(), records.end(),
                        [&](const TraceRecord& r) {
                          return r.component == "ha/HA" && r.event == event;
                        });
  };
  auto bu = find("rx-bu");
  ASSERT_NE(bu, records.end());
  EXPECT_NE(bu->detail.find(t.mn.mn->home_address().str()),
            std::string::npos);
  auto intercept = find("intercept");
  ASSERT_NE(intercept, records.end());
  EXPECT_NE(intercept->detail.find(t.mn.mn->care_of().str()),
            std::string::npos);
}

TEST(Mipv6, BindingUpdateRetransmittedWhenAckLost) {
  Roam t;
  // Drop every Binding Ack (packets from HA to the MN carrying the option).
  int dropped = 0;
  t.fl.set_drop_fn([&](const Packet& pkt, const Interface& to) {
    if (&to.node() != t.mn.node) return false;
    const ParseResult<ParsedDatagram> d = try_parse_datagram(pkt.view());
    if (d.ok() && d.value().has_option(opt::kBindingAck)) {
      ++dropped;
      return true;
    }
    return false;
  });
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(10));
  EXPECT_FALSE(t.mn.mn->binding_acked());
  EXPECT_GE(t.world.net().counters().get("mn/bu-retransmit"), 2u);
  EXPECT_GE(dropped, 2);
  // The binding itself exists at the HA (BUs got through).
  EXPECT_EQ(t.ha.ha->cache().size(), 1u);
}

TEST(Mipv6, BuRetransmissionBacksOffExponentiallyToCap) {
  WorldConfig config;
  config.mipv6.bu_retransmit_max = Time::sec(4);
  config.mipv6.bu_max_retransmits = 5;
  Roam t(config);
  // Record every BU reaching the HA across the transit link; drop every
  // Binding Ack so the retransmission machinery runs its whole budget.
  std::vector<Time> bu_times;
  std::vector<std::uint16_t> bu_sequences;
  t.tl.set_drop_fn([&](const Packet& pkt, const Interface& to) {
    if (&to.node() == t.ha.node) {
      const ParseResult<ParsedDatagram> d = try_parse_datagram(pkt.view());
      const DestOption* o =
          d.ok() ? d.value().find_option(opt::kBindingUpdate) : nullptr;
      if (o != nullptr) {
        bu_times.push_back(t.world.now());
        const ParseResult<BindingUpdateOption> bu =
            BindingUpdateOption::try_decode(*o);
        if (bu.ok()) bu_sequences.push_back(bu.value().sequence);
      }
    }
    return false;
  });
  t.fl.set_drop_fn([&](const Packet& pkt, const Interface& to) {
    if (&to.node() != t.mn.node) return false;
    const ParseResult<ParsedDatagram> d = try_parse_datagram(pkt.view());
    return d.ok() && d.value().has_option(opt::kBindingAck);
  });

  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(40));
  EXPECT_FALSE(t.mn.mn->binding_acked());

  // Fresh BU + 5 retransmissions of the identical message (same sequence —
  // a retransmission is a resend, not a new registration).
  ASSERT_EQ(bu_times.size(), 6u);
  for (std::uint16_t seq : bu_sequences) EXPECT_EQ(seq, bu_sequences[0]);

  // Gaps double from the initial 1 s and clamp at the 4 s ceiling.
  const Time expected[] = {Time::sec(1), Time::sec(2), Time::sec(4),
                           Time::sec(4), Time::sec(4)};
  for (std::size_t i = 0; i + 1 < bu_times.size(); ++i) {
    EXPECT_EQ(bu_times[i + 1] - bu_times[i], expected[i]) << "gap " << i;
  }
  EXPECT_EQ(t.world.net().counters().get("mn/bu-retransmit"), 5u);
  EXPECT_EQ(t.world.net().counters().get("mn/bu-backoff-step"), 5u);
  // Budget exhausted: no further BUs until the next refresh cycle.
  std::size_t settled = bu_times.size();
  t.world.run_until(Time::sec(60));
  EXPECT_EQ(bu_times.size(), settled);
}

TEST(Mipv6, BindingRefreshKeepsCacheAlive) {
  Roam t;  // lifetime 256 s, refresh 128 s
  t.mn.mn->move_to(t.fl);
  // Far beyond the lifetime: periodic refreshes must keep it bound.
  t.world.run_until(Time::sec(800));
  EXPECT_EQ(t.ha.ha->cache().size(), 1u);
  EXPECT_EQ(t.world.net().counters().get("ha/binding-expired"), 0u);
  EXPECT_GE(t.world.net().counters().get("mn/tx/bu"), 3u);
}

TEST(Mipv6, BindingExpiresWhenMnFallsSilent) {
  Roam t;
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  ASSERT_EQ(t.ha.ha->cache().size(), 1u);

  // MN drops off the network entirely (no deregistration).
  t.world.net().node_by_name("MN").iface(0).detach();
  t.world.run_until(Time::sec(2) + Time::sec(257));
  EXPECT_EQ(t.ha.ha->cache().size(), 0u);
  EXPECT_EQ(t.world.net().counters().get("ha/binding-expired"), 1u);
}

TEST(Mipv6, ReturningHomeDeregisters) {
  Roam t;
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  ASSERT_EQ(t.ha.ha->cache().size(), 1u);

  t.mn.mn->move_to(t.hl);
  t.world.run_until(Time::sec(4));
  EXPECT_FALSE(t.mn.mn->away_from_home());
  EXPECT_EQ(t.ha.ha->cache().size(), 0u);
  // Packets to the home address now reach the MN natively.
  int delivered = 0;
  t.mn.stack->set_proto_handler(
      proto::kUdp,
      [&](const ParsedDatagram&, const Packet&, IfaceId) { ++delivered; });
  Address src = t.peer.stack->global_address(t.peer.iface());
  DatagramSpec spec;
  spec.src = src;
  spec.dst = t.mn.mn->home_address();
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{1, 2, Bytes{}}.serialize(src, spec.dst);
  t.peer.stack->send(spec);
  t.world.run_until(Time::sec(5));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(t.world.net().counters().get("ha/encap-unicast"), 0u);
}

TEST(Mipv6, GroupListBuRegistersMembershipAtHa) {
  Roam t;
  t.mn.service->set_strategy(
      {McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu});
  t.mn.service->subscribe(kGroup);
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  EXPECT_TRUE(t.ha.ha->represents(kGroup));
  EXPECT_TRUE(t.ha.pim->is_local_receiver(kGroup));
  EXPECT_GE(t.world.net().counters().get("ha/rx/bu-group-list"), 1u);

  // Unsubscribing (next BU with an empty group list) releases the
  // registration.
  t.mn.service->unsubscribe(kGroup);
  t.world.run_until(Time::sec(3));
  EXPECT_FALSE(t.ha.ha->represents(kGroup));
  EXPECT_FALSE(t.ha.pim->is_local_receiver(kGroup));
}

TEST(Mipv6, TunneledMldReportsRegisterAndExpire) {
  Roam t;
  t.mn.mn->subscribe(kGroup);
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  ASSERT_TRUE(t.mn.mn->away_from_home());

  // Tunnel-as-interface variant: periodic Reports through the tunnel.
  t.mn.mn->start_tunneled_reports(kGroup, Time::sec(50));
  t.world.run_until(Time::sec(4));
  EXPECT_TRUE(t.ha.ha->represents(kGroup));
  EXPECT_GE(t.world.net().counters().get("ha/rx/tunneled-mld-report"), 1u);

  // Stop refreshing: the HA listener state expires after its 260 s
  // lifetime (the paper's T_MLI default).
  t.mn.mn->stop_tunneled_reports(kGroup);
  t.world.run_until(Time::sec(4) + Time::sec(261));
  EXPECT_FALSE(t.ha.ha->represents(kGroup));
  EXPECT_GE(t.world.net().counters().get("ha/tunnel-membership-expired"), 1u);
}

TEST(Mipv6, BindingExpiryReleasesGroupRepresentation) {
  Roam t;
  t.mn.mn->subscribe(kGroup);
  t.mn.mn->set_group_list_in_bu(true);
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));
  ASSERT_TRUE(t.ha.ha->represents(kGroup));

  t.world.net().node_by_name("MN").iface(0).detach();
  t.world.run_until(Time::sec(2) + Time::sec(257));
  // The paper: missing extended BUs let the HA "give up the representation
  // of the host as member of its multicast group".
  EXPECT_FALSE(t.ha.ha->represents(kGroup));
}

TEST(Mipv6, ReverseTunnelDeliversMulticastFromHomeLink) {
  Roam t;
  t.peer.mld_host->join(t.peer.iface(), kGroup);
  GroupReceiverApp app(*t.peer.stack, kPort);
  t.mn.mn->move_to(t.fl);
  t.world.run_until(Time::sec(2));

  // MN sends group traffic through the reverse tunnel; the peer on the
  // home link must receive it with the *home address* as source.
  DatagramSpec inner;
  inner.src = t.mn.mn->home_address();
  inner.dst = kGroup;
  inner.protocol = proto::kUdp;
  CbrPayload p;
  p.seq = 1;
  p.sent_at = t.world.now();
  inner.payload =
      UdpDatagram{kPort, kPort, p.encode(32)}.serialize(inner.src, inner.dst);
  t.mn.mn->tunnel_to_ha(build_datagram(inner));
  t.world.run_until(Time::sec(3));
  EXPECT_EQ(app.unique_received(), 1u);
  EXPECT_EQ(t.world.net().counters().get("ha/decap-multicast"), 1u);
}

TEST(BindingCacheUnit, UpdateRefreshExpire) {
  Scheduler sched;
  BindingCache cache(sched);
  std::vector<Address> expired;
  cache.set_expiry_callback(
      [&](const BindingCache::Entry& e) { expired.push_back(e.home); });

  Address home = Address::parse("2001:db8:1::99");
  Address coa1 = Address::parse("2001:db8:3::99");
  Address coa2 = Address::parse("2001:db8:4::99");
  cache.update(home, coa1, 1, Time::sec(10));
  EXPECT_EQ(cache.find(home)->care_of, coa1);

  sched.run_until(Time::sec(5));
  cache.update(home, coa2, 2, Time::sec(10));  // refresh with new CoA
  sched.run_until(Time::sec(12));              // old expiry must not fire
  ASSERT_NE(cache.find(home), nullptr);
  EXPECT_EQ(cache.find(home)->care_of, coa2);

  sched.run_until(Time::sec(20));
  EXPECT_EQ(cache.find(home), nullptr);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], home);
}

TEST(BindingCacheUnit, RemoveCancelsExpiry) {
  Scheduler sched;
  BindingCache cache(sched);
  int expirations = 0;
  cache.set_expiry_callback(
      [&](const BindingCache::Entry&) { ++expirations; });
  Address home = Address::parse("2001:db8:1::99");
  cache.update(home, Address::parse("2001:db8:3::99"), 1, Time::sec(10));
  cache.remove(home);
  sched.run_until(Time::sec(20));
  EXPECT_EQ(expirations, 0);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace mip6

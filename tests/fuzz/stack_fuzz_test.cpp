// Full receive-path fuzz: mutated datagrams are injected into live router
// and host stacks (all engines wired: PIM-DM, MLD, home agent, UDP demux)
// and must be classified — never crash, never corrupt the node. Afterwards
// the network still forwards multicast end-to-end, and every rejection is
// attributed to exactly one taxonomy counter.
#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "core/world.hpp"
#include "fuzz/harness.hpp"
#include "hpimdm/messages.hpp"
#include "ipv6/datagram.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

const Address kGroup = Address::parse("ff1e::77");
constexpr std::uint16_t kPort = 9000;
const Address kAllPimRouters = Address::parse("ff02::d");

/// S -- L0 -- R -- L1 -- H
struct FuzzWorld {
  World world;
  Link& l0;
  Link& l1;
  NodeRuntime& r;
  NodeRuntime& sender;
  NodeRuntime& host;

  FuzzWorld()
      : world(7), l0(world.add_link("L0")), l1(world.add_link("L1")),
        r(world.add_router("R", {&l0, &l1})), sender(world.add_host("S", l0)),
        host(world.add_host("H", l1)) {
    world.finalize();
  }
};

/// Hostile templates aimed at the router's L0 interface: every protocol the
/// paper's router role actually terminates (PIM, MLD, BU-at-HA, UDP,
/// plain forwarding).
std::vector<FuzzFrame> router_templates(FuzzWorld& t) {
  Address src = t.sender.stack->global_address(t.sender.iface());
  Address router = t.r.address_on(t.l0);
  std::vector<FuzzFrame> out;

  {
    PimJoinPrune jp = PimJoinPrune::join(router, src, kGroup);
    DatagramSpec spec;
    spec.src = src;
    spec.dst = kAllPimRouters;
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload = serialize_pim(PimType::kJoinPrune, jp.body(), src,
                                 kAllPimRouters);
    out.push_back(FuzzFrame{"pim-jp", build_datagram(spec), {4, 5, 63, 86}});
  }
  {
    MldMessage rep;
    rep.type = MldType::kReport;
    rep.group = kGroup;
    DatagramSpec spec;
    spec.src = src;
    spec.dst = kGroup;
    spec.hop_limit = 1;
    spec.protocol = proto::kIcmpv6;
    spec.payload = rep.to_icmpv6().serialize(src, kGroup);
    out.push_back(FuzzFrame{"mld-report", build_datagram(spec), {4, 5}});
  }
  {
    BindingUpdateOption bu;
    bu.ack_requested = true;
    bu.home_registration = true;
    bu.sequence = 9;
    bu.lifetime_s = 64;
    MulticastGroupListSubOption mgl;
    mgl.groups = {kGroup};
    bu.sub_options.push_back(mgl.encode());
    DatagramSpec spec;
    spec.src = src;
    spec.dst = router;
    spec.dest_options.push_back(bu.encode());
    spec.dest_options.push_back(HomeAddressOption{src}.encode());
    spec.protocol = proto::kNoNext;
    out.push_back(FuzzFrame{"bu-to-ha", build_datagram(spec), {4, 5, 41}});
  }
  {
    UdpDatagram udp;
    udp.src_port = 40000;
    udp.dst_port = 521;
    udp.payload = Bytes(16, 0x5a);
    DatagramSpec spec;
    spec.src = src;
    spec.dst = router;
    spec.protocol = proto::kUdp;
    spec.payload = udp.serialize(src, router);
    out.push_back(FuzzFrame{"udp-to-router", build_datagram(spec), {4, 5, 44, 45}});
  }
  return out;
}

TEST(StackFuzz, BombardmentIsClassifiedAndServiceSurvives) {
  FuzzWorld t;
  t.host.service->subscribe(kGroup);
  t.world.run_until(Time::sec(1));

  std::vector<FuzzFrame> templates = router_templates(t);
  IfaceId rx = t.r.iface_on(t.l0);
  constexpr std::uint64_t kSeedCount = 10;
  constexpr int kCasesPerSeed = 200;
  for (std::uint64_t s = 0; s < kSeedCount; ++s) {
    Rng rng(Rng::derive_seed(0xFEEDFACE, s));
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const FuzzFrame& base = templates[rng.uniform_int(templates.size())];
      t.r.stack->receive_as_if(rx, Packet(mutate_frame(base, rng)));
      // Drain any response traffic (Parameter Problems, acks, prunes).
      if (i % 50 == 0) {
        t.world.run_until(t.world.now() + Time::ms(10));
      }
    }
    t.world.run_until(t.world.now() + Time::ms(100));
  }

  const CounterRegistry& counters = t.world.net().counters();
  // The bombardment actually exercised the reject paths...
  EXPECT_GT(counters.sum_prefix("parse/"), 0u);
  // ...and every rejection landed in exactly one taxonomy bucket.
  std::string detail;
  EXPECT_TRUE(reject_counters_consistent(counters, &detail)) << detail;

  // The router survived: multicast data still flows sender -> host.
  GroupReceiverApp app(*t.host.stack, kPort);
  Time start = t.world.now();
  for (int i = 0; i < 20; ++i) {
    t.world.scheduler().schedule_at(start + Time::ms(50 * (i + 1)), [&t, i] {
      CbrPayload p;
      p.seq = static_cast<std::uint32_t>(i);
      p.sent_at = t.world.now();
      t.sender.service->send_multicast(kGroup, kPort, kPort, p.encode(32));
    });
  }
  t.world.run_until(start + Time::sec(3));
  EXPECT_GT(app.unique_received(), 0u);
}

/// Both dense-mode engines on one link: S0 -- L0 -- RP -- LX -- RH -- L1 -- S1
/// with a listener H1 on the shared link. RP runs PIM-DM, RH runs HPIM-DM;
/// they share IP protocol 103, so each sees every control frame the other
/// emits plus whatever the bombardment injects.
struct CrossEngineWorld {
  World world;
  Link& l0;
  Link& lx;
  Link& l1;
  NodeRuntime& rp;
  NodeRuntime& rh;
  NodeRuntime& s0;
  NodeRuntime& s1;
  NodeRuntime& h1;

  static RouterOptions hpim_opts() {
    RouterOptions o;
    o.engine = DenseEngineKind::kHpimDm;
    return o;
  }

  CrossEngineWorld()
      : world(11), l0(world.add_link("L0")), lx(world.add_link("LX")),
        l1(world.add_link("L1")), rp(world.add_router("RP", {&l0, &lx})),
        rh(world.add_router("RH", {&lx, &l1}, hpim_opts())),
        s0(world.add_host("S0", l0)), s1(world.add_host("S1", l1)),
        h1(world.add_host("H1", lx)) {
    world.finalize();
  }
};

/// Valid control frames of both engines aimed at the shared link.
std::vector<FuzzFrame> cross_engine_templates(CrossEngineWorld& t) {
  Address src = t.h1.stack->global_address(t.h1.iface());
  std::vector<FuzzFrame> out;
  {
    PimHello hello;
    hello.holdtime = 105;
    DatagramSpec spec;
    spec.src = src;
    spec.dst = kAllPimRouters;
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload = serialize_pim(PimType::kHello, hello.body(), src,
                                 kAllPimRouters);
    out.push_back(FuzzFrame{"pim-hello", build_datagram(spec), {4, 5}});
  }
  {
    HpimHello hello;
    hello.holdtime = 105;
    hello.generation_id = 0xabad1dea;
    DatagramSpec spec;
    spec.src = src;
    spec.dst = kAllPimRouters;
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload = serialize_hpim(HpimType::kHello, hello.body(), src,
                                  kAllPimRouters);
    out.push_back(FuzzFrame{"hpim-hello", build_datagram(spec), {4, 5}});
  }
  {
    HpimSync sync;
    sync.seq = 1;
    sync.entries.push_back(
        {t.s1.stack->global_address(t.s1.iface()), kGroup, true});
    DatagramSpec spec;
    spec.src = src;
    spec.dst = t.rh.address_on(t.lx);
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload =
        serialize_hpim(HpimType::kSync, sync.body(), src, spec.dst);
    // Offsets 49-50: the sync entry-count field inside the datagram
    // (40 IPv6 header + 4 HPIM header + 5 into the body).
    out.push_back(FuzzFrame{"hpim-sync", build_datagram(spec), {4, 5, 49, 50}});
  }
  {
    HpimInterest interest;
    interest.seq = 2;
    interest.source = t.s1.stack->global_address(t.s1.iface());
    interest.group = kGroup;
    interest.interested = true;
    DatagramSpec spec;
    spec.src = src;
    spec.dst = t.rh.address_on(t.lx);
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload =
        serialize_hpim(HpimType::kInterest, interest.body(), src, spec.dst);
    out.push_back(FuzzFrame{"hpim-interest", build_datagram(spec), {4, 5}});
  }
  {
    HpimAck ack;
    ack.seq = 3;
    DatagramSpec spec;
    spec.src = src;
    spec.dst = t.rp.address_on(t.lx);  // an Ack at the PIM-DM router
    spec.hop_limit = 1;
    spec.protocol = proto::kPim;
    spec.payload = serialize_hpim(HpimType::kAck, ack.body(), src, spec.dst);
    out.push_back(FuzzFrame{"hpim-ack-to-pim", build_datagram(spec), {4, 5}});
  }
  return out;
}

TEST(StackFuzz, CrossEngineBombardmentRejectsByNameAndBothEnginesSurvive) {
  CrossEngineWorld t;
  t.h1.service->subscribe(kGroup);
  t.world.run_until(Time::sec(2));

  // Organic coexistence alone produces cross-engine rejects: each engine's
  // hellos land in the other's decoder and bounce off the version nibble.
  const CounterRegistry& counters = t.world.net().counters();
  EXPECT_GT(counters.get("parse/pimdm/reject/bad-type"), 0u);
  EXPECT_GT(counters.get("parse/hpimdm/reject/bad-type"), 0u);

  // Bombard both routers' shared-link interfaces with mixed, mutated frames
  // of both dialects.
  std::vector<FuzzFrame> templates = cross_engine_templates(t);
  IfaceId rp_rx = t.rp.iface_on(t.lx);
  IfaceId rh_rx = t.rh.iface_on(t.lx);
  for (std::uint64_t s = 0; s < 5; ++s) {
    Rng rng(Rng::derive_seed(0xC0E71517, s));
    for (int i = 0; i < 200; ++i) {
      const FuzzFrame& base = templates[rng.uniform_int(templates.size())];
      const Packet mutated(mutate_frame(base, rng));
      t.rp.stack->receive_as_if(rp_rx, mutated);
      t.rh.stack->receive_as_if(rh_rx, mutated);
      if (i % 50 == 0) t.world.run_until(t.world.now() + Time::ms(10));
    }
    t.world.run_until(t.world.now() + Time::ms(100));
  }

  // Every rejection is attributed to exactly one named taxonomy bucket.
  std::string detail;
  EXPECT_TRUE(reject_counters_consistent(counters, &detail)) << detail;

  // Both engines still forward: S0 -> H1 crosses the PIM-DM router, S1 -> H1
  // crosses the HPIM-DM router.
  GroupReceiverApp app(*t.h1.stack, kPort);
  Time start = t.world.now();
  for (int i = 0; i < 20; ++i) {
    t.world.scheduler().schedule_at(start + Time::ms(50 * (i + 1)), [&t, i] {
      CbrPayload p;
      p.seq = static_cast<std::uint32_t>(i);
      p.sent_at = t.world.now();
      t.s0.service->send_multicast(kGroup, kPort, kPort, p.encode(32));
      CbrPayload q;
      q.seq = static_cast<std::uint32_t>(100 + i);
      q.sent_at = t.world.now();
      t.s1.service->send_multicast(kGroup, kPort, kPort, q.encode(32));
    });
  }
  t.world.run_until(start + Time::sec(3));
  EXPECT_GT(app.unique_received(), 20u)
      << "expected traffic from both sides of the mixed-engine link";
}

TEST(StackFuzz, ValidTemplatesAreAcceptedUnmutated) {
  FuzzWorld t;
  t.world.run_until(Time::sec(1));
  std::uint64_t parse_errors_before =
      t.world.net().counters().get("ipv6/rx-drop/parse-error");
  for (const FuzzFrame& f : router_templates(t)) {
    t.r.stack->receive_as_if(t.r.iface_on(t.l0), Packet(f.octets));
  }
  t.world.run_until(t.world.now() + Time::ms(100));
  EXPECT_EQ(t.world.net().counters().get("ipv6/rx-drop/parse-error"),
            parse_errors_before);
}

}  // namespace
}  // namespace mip6

#include "ipv6/udp_demux.hpp"

#include <gtest/gtest.h>

#include "core/world.hpp"

namespace mip6 {
namespace {

TEST(UdpDemux, DispatchesByDestinationPort) {
  World world(1);
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();

  int on_100 = 0, on_200 = 0;
  r.udp->bind(100, [&](const UdpDatagram&, const ParsedDatagram&, IfaceId) {
    ++on_100;
  });
  r.udp->bind(200, [&](const UdpDatagram& u, const ParsedDatagram&, IfaceId) {
    ++on_200;
    EXPECT_EQ(u.payload.size(), 3u);
  });

  auto send = [&](std::uint16_t port) {
    DatagramSpec spec;
    spec.src = h.stack->global_address(h.iface());
    spec.dst = r.address_on(lan);
    spec.protocol = proto::kUdp;
    spec.payload =
        UdpDatagram{55, port, Bytes{1, 2, 3}}.serialize(spec.src, spec.dst);
    h.stack->send(spec);
  };
  send(100);
  send(200);
  send(200);
  send(999);  // unbound
  world.run_until(Time::sec(1));
  EXPECT_EQ(on_100, 1);
  EXPECT_EQ(on_200, 2);
  EXPECT_EQ(world.net().counters().get("udp/rx-drop/no-listener"), 1u);
}

TEST(UdpDemux, MalformedUdpCounted) {
  World world(1);
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  (void)r;

  DatagramSpec spec;
  spec.src = h.stack->global_address(h.iface());
  spec.dst = r.address_on(lan);
  spec.protocol = proto::kUdp;
  spec.payload = Bytes{1, 2, 3};  // shorter than a UDP header
  h.stack->send(spec);
  world.run_until(Time::sec(1));
  EXPECT_EQ(world.net().counters().get("udp/rx-drop/parse-error"), 1u);
}

// One datagram to an unbound port and one with a corrupted UDP checksum,
// from H to the router R. Sharded, R runs on shard 1, a worker thread, and
// its drop counters are written through the shard's overlay.
void expect_each_drop_counted_once(bool sharded) {
  World world(1);
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  int rx_shard = -2;
  r.udp->bind(7, [&](const UdpDatagram&, const ParsedDatagram&, IfaceId) {
    rx_shard = Scheduler::current_shard_slot();
  });
  if (sharded) {
    std::vector<std::uint32_t> shard_of(world.scheduler().domain_count(), 0);
    shard_of[kWorldDomain] = Scheduler::kStructuralShard;
    shard_of[r.node->domain()] = 1;
    world.net().enable_sharding(std::move(shard_of), 2, lan.delay());
  }

  auto send = [&](std::uint16_t port, bool corrupt) {
    DatagramSpec spec;
    spec.src = h.stack->global_address(h.iface());
    spec.dst = r.address_on(lan);
    spec.protocol = proto::kUdp;
    spec.payload = UdpDatagram{55, port, Bytes{1, 2}}.serialize(spec.src,
                                                                  spec.dst);
    if (corrupt) spec.payload[6] ^= 0x5a;  // checksum field
    h.stack->send(spec);
  };
  CounterRegistry& c = world.net().counters();
  const std::uint64_t no_listener = c.get("udp/rx-drop/no-listener");
  const std::uint64_t parse_error = c.get("udp/rx-drop/parse-error");
  send(7, false);
  send(999, false);
  world.run_until(Time::sec(1));
  EXPECT_EQ(rx_shard, sharded ? 1 : -1);
  EXPECT_EQ(c.get("udp/rx-drop/no-listener"), no_listener + 1);
  EXPECT_EQ(c.get("udp/rx-drop/parse-error"), parse_error);
  send(7, true);
  world.run_until(Time::sec(2));
  EXPECT_EQ(c.get("udp/rx-drop/no-listener"), no_listener + 1);
  EXPECT_EQ(c.get("udp/rx-drop/parse-error"), parse_error + 1);
  world.stop();
}

TEST(UdpDemux, EachDropCountedOnceSerially) {
  expect_each_drop_counted_once(false);
}

TEST(UdpDemux, EachDropCountedOnceFromAWorkerShard) {
  expect_each_drop_counted_once(true);
}

TEST(UdpDemux, RebindReplacesHandler) {
  World world(1);
  Link& lan = world.add_link("lan");
  NodeRuntime& r = world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();

  int first = 0, second = 0;
  r.udp->bind(42, [&](const UdpDatagram&, const ParsedDatagram&, IfaceId) {
    ++first;
  });
  r.udp->bind(42, [&](const UdpDatagram&, const ParsedDatagram&, IfaceId) {
    ++second;
  });
  DatagramSpec spec;
  spec.src = h.stack->global_address(h.iface());
  spec.dst = r.address_on(lan);
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{1, 42, Bytes{}}.serialize(spec.src, spec.dst);
  h.stack->send(spec);
  world.run_until(Time::sec(1));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace
}  // namespace mip6

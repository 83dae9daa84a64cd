#include "core/traffic.hpp"

#include <gtest/gtest.h>

#include "core/world.hpp"

namespace mip6 {
namespace {

TEST(CbrPayload, RoundTrip) {
  CbrPayload p;
  p.seq = 12345;
  p.sent_at = Time::ms(6789);
  Bytes wire = p.encode(64);
  EXPECT_EQ(wire.size(), 64u);
  ParseResult<CbrPayload> back = CbrPayload::try_decode(wire);
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().seq, 12345u);
  EXPECT_EQ(back.value().sent_at, Time::ms(6789));
}

TEST(CbrPayload, MinimumSizeEnforced) {
  CbrPayload p;
  Bytes wire = p.encode(1);
  EXPECT_EQ(wire.size(), CbrPayload::kMinSize);
}

TEST(CbrPayload, DecodeRejectsTruncation) {
  Bytes wire(CbrPayload::kMinSize - 1);
  ParseResult<CbrPayload> back = CbrPayload::try_decode(wire);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kTruncated);
}

TEST(CbrPayload, TryDecodeFailsExactlyWhereDecodeThrows) {
  CbrPayload p;
  p.seq = 77;
  p.sent_at = Time::us(5);
  const Bytes full = p.encode(64);
  for (std::size_t n : {0u, 4u, 11u, 12u, 64u}) {
    const BytesView wire(full.data(), n);
    const ParseResult<CbrPayload> got = CbrPayload::try_decode(wire);
    if (n < CbrPayload::kMinSize) {
      ASSERT_FALSE(got.ok()) << n;
      EXPECT_EQ(got.failure().reason, ParseReason::kTruncated) << n;
      continue;
    }
    ASSERT_TRUE(got.ok()) << n;
    EXPECT_EQ(got.value().seq, 77u);
    EXPECT_EQ(got.value().sent_at, Time::us(5));
  }
}

TEST(CbrSource, EmitsAtConfiguredRate) {
  Scheduler sched;
  std::vector<Time> sends;
  CbrSource src(
      sched, [&](Bytes) { sends.push_back(sched.now()); }, Time::ms(250), 32);
  src.start(Time::sec(1));
  sched.run_until(Time::sec(2));
  // t = 1.0, 1.25, 1.5, 1.75, 2.0
  ASSERT_EQ(sends.size(), 5u);
  EXPECT_EQ(sends[0], Time::sec(1));
  EXPECT_EQ(sends[4], Time::sec(2));
  EXPECT_EQ(src.sent(), 5u);
}

TEST(CbrSource, StopHalts) {
  Scheduler sched;
  int sends = 0;
  CbrSource src(sched, [&](Bytes) { ++sends; }, Time::ms(100), 32);
  src.start(Time::zero());
  sched.run_until(Time::ms(450));
  src.stop();
  sched.run_until(Time::sec(10));
  EXPECT_EQ(sends, 5);
}

TEST(CbrSource, SequenceNumbersIncrease) {
  Scheduler sched;
  std::vector<std::uint32_t> seqs;
  CbrSource src(
      sched,
      [&](Bytes b) {
        const ParseResult<CbrPayload> p = CbrPayload::try_decode(b);
        ASSERT_TRUE(p.ok()) << p.failure().str();
        seqs.push_back(p.value().seq);
      },
      Time::ms(100), 32);
  src.start(Time::zero());
  sched.run_until(Time::ms(300));
  ASSERT_EQ(seqs.size(), 4u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
}

TEST(GroupReceiverApp, DeduplicatesBySequence) {
  World world(1);
  Link& lan = world.add_link("lan");
  world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  GroupReceiverApp app(*h.stack, 9000);

  Address group = Address::parse("ff1e::3");
  h.stack->join_local_group(h.iface(), group);

  auto make = [&](std::uint32_t seq) {
    CbrPayload p;
    p.seq = seq;
    p.sent_at = world.now();
    DatagramSpec spec;
    spec.src = Address::parse("2001:db8:9::1");
    spec.dst = group;
    spec.protocol = proto::kUdp;
    spec.payload =
        UdpDatagram{9000, 9000, p.encode(32)}.serialize(spec.src, spec.dst);
    return build_datagram(spec);
  };
  h.stack->receive_as_if(h.iface(), Packet(make(1)));
  h.stack->receive_as_if(h.iface(), Packet(make(1)));
  h.stack->receive_as_if(h.iface(), Packet(make(2)));
  EXPECT_EQ(app.unique_received(), 2u);
  EXPECT_EQ(app.duplicates(), 1u);
}

TEST(GroupReceiverApp, DeduplicatesOutOfOrderArrivals) {
  World world(1);
  Link& lan = world.add_link("lan");
  world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  GroupReceiverApp app(*h.stack, 9000);

  Address group = Address::parse("ff1e::3");
  h.stack->join_local_group(h.iface(), group);
  auto receive = [&](std::uint32_t seq) {
    CbrPayload p;
    p.seq = seq;
    DatagramSpec spec;
    spec.src = Address::parse("2001:db8:9::1");
    spec.dst = group;
    spec.protocol = proto::kUdp;
    spec.payload =
        UdpDatagram{9000, 9000, p.encode(32)}.serialize(spec.src, spec.dst);
    h.stack->receive_as_if(h.iface(), Packet(build_datagram(spec)));
  };
  // Late, early and repeated sequence numbers around a gap, as a handoff
  // that switches between two delivery paths produces.
  for (std::uint32_t seq : {5u, 1u, 3u, 1u, 5u, 0u, 2u, 3u, 4u, 0u, 6u}) {
    receive(seq);
  }
  EXPECT_EQ(app.unique_received(), 7u);
  EXPECT_EQ(app.duplicates(), 4u);
  std::vector<std::uint32_t> order;
  for (const auto& rx : app.log()) order.push_back(rx.seq);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 1, 3, 0, 2, 4, 6}));
}

TEST(GroupReceiverApp, FiltersByPort) {
  World world(1);
  Link& lan = world.add_link("lan");
  world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  GroupReceiverApp app(*h.stack, 9000);

  Address group = Address::parse("ff1e::3");
  h.stack->join_local_group(h.iface(), group);
  CbrPayload p;
  p.seq = 7;
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:9::1");
  spec.dst = group;
  spec.protocol = proto::kUdp;
  spec.payload =
      UdpDatagram{1, 8888, p.encode(32)}.serialize(spec.src, spec.dst);
  h.stack->receive_as_if(h.iface(), Packet(build_datagram(spec)));
  EXPECT_EQ(app.unique_received(), 0u);
}

TEST(GroupReceiverApp, TimeQueries) {
  World world(1);
  Link& lan = world.add_link("lan");
  world.add_router("R", {&lan});
  NodeRuntime& h = world.add_host("H", lan);
  world.finalize();
  GroupReceiverApp app(*h.stack, 9000);
  Address group = Address::parse("ff1e::3");
  h.stack->join_local_group(h.iface(), group);

  auto deliver_at = [&](Time at, std::uint32_t seq) {
    world.scheduler().schedule_at(at, [&, seq] {
      CbrPayload p;
      p.seq = seq;
      p.sent_at = world.now();
      DatagramSpec spec;
      spec.src = Address::parse("2001:db8:9::1");
      spec.dst = group;
      spec.protocol = proto::kUdp;
      spec.payload =
          UdpDatagram{9000, 9000, p.encode(32)}.serialize(spec.src, spec.dst);
      h.stack->receive_as_if(h.iface(), Packet(build_datagram(spec)));
    });
  };
  deliver_at(Time::sec(1), 1);
  deliver_at(Time::sec(5), 2);
  deliver_at(Time::sec(9), 3);
  world.run_until(Time::sec(10));

  EXPECT_EQ(app.first_rx_at_or_after(Time::sec(2)), Time::sec(5));
  EXPECT_EQ(app.last_rx(), Time::sec(9));
  EXPECT_EQ(app.received_in(Time::sec(0), Time::sec(6)), 2u);
  EXPECT_EQ(app.received_in(Time::sec(5), Time::sec(5)), 0u);
  EXPECT_FALSE(app.first_rx_at_or_after(Time::sec(10)).has_value());
}

}  // namespace
}  // namespace mip6

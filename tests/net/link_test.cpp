#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hpp"

namespace mip6 {
namespace {

struct Fixture {
  Network net{1};
  Link& lan;
  Node& n1;
  Node& n2;
  Node& n3;
  Interface& i1;
  Interface& i2;
  Interface& i3;
  std::vector<std::size_t> rx1, rx2, rx3;

  Fixture()
      : lan(net.add_link("lan", Time::ms(1))),
        n1(net.add_node("n1")), n2(net.add_node("n2")), n3(net.add_node("n3")),
        i1(n1.add_interface()), i2(n2.add_interface()),
        i3(n3.add_interface()) {
    i1.attach(lan);
    i2.attach(lan);
    i3.attach(lan);
    i1.set_rx_handler([this](const Packet& p) { rx1.push_back(p.size()); });
    i2.set_rx_handler([this](const Packet& p) { rx2.push_back(p.size()); });
    i3.set_rx_handler([this](const Packet& p) { rx3.push_back(p.size()); });
  }

  Packet packet(std::size_t size = 10) { return Packet(Bytes(size)); }
};

TEST(Link, BroadcastReachesAllButSender) {
  Fixture f;
  f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx1.empty());
  EXPECT_EQ(f.rx2.size(), 1u);
  EXPECT_EQ(f.rx3.size(), 1u);
}

TEST(Link, UnicastReachesOnlyTarget) {
  Fixture f;
  f.i1.send_to(f.packet(), f.i3.id());
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx1.empty());
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_EQ(f.rx3.size(), 1u);
}

TEST(Link, DeliveryDelayedByPropagation) {
  Fixture f;
  f.i1.send(f.packet());
  f.net.scheduler().run_until(Time::us(999));
  EXPECT_TRUE(f.rx2.empty());
  f.net.scheduler().run_until(Time::ms(1));
  EXPECT_EQ(f.rx2.size(), 1u);
}

TEST(Link, SerializationDelayFromBitRate) {
  Network net(1);
  // 1 Mbit/s, zero propagation: 1000-byte packet = 8 ms on the wire.
  Link& lan = net.add_link("lan", Time::zero(), 1'000'000);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Interface& ia = a.add_interface();
  Interface& ib = b.add_interface();
  ia.attach(lan);
  ib.attach(lan);
  Time arrival = Time::never();
  ib.set_rx_handler([&](const Packet&) { arrival = net.now(); });
  ia.send(Packet(Bytes(1000)));
  net.scheduler().run();
  EXPECT_EQ(arrival, Time::ms(8));
}

TEST(Link, ReceiverThatLeftMidFlightMissesPacket) {
  Fixture f;
  f.i1.send(f.packet());
  // i2 detaches before the 1 ms delivery.
  f.i2.detach();
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_EQ(f.rx3.size(), 1u);
}

TEST(Link, SendWhileDetachedIsDropped) {
  Fixture f;
  f.i1.detach();
  f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_TRUE(f.rx3.empty());
}

TEST(Link, ByteAndPacketCountersAccumulate) {
  Fixture f;
  f.i1.send(f.packet(100));
  f.i2.send(f.packet(50));
  f.net.scheduler().run();
  EXPECT_EQ(f.lan.tx_packets(), 2u);
  EXPECT_EQ(f.lan.tx_bytes(), 150u);
}

TEST(Link, DropFunctionInjectsLoss) {
  Fixture f;
  f.lan.set_drop_fn([&](const Packet&, const Interface& to) {
    return to.id() == f.i2.id();  // i2 is deaf
  });
  f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_EQ(f.rx3.size(), 1u);
}

TEST(Link, TxHookObservesTransmissions) {
  Fixture f;
  int hooked = 0;
  int kept = 0;
  const Network::TxHookId id = f.net.add_tx_hook(
      [&](const Link&, const Interface&, const Packet&) { ++hooked; });
  f.net.add_tx_hook(
      [&](const Link&, const Interface&, const Packet&) { ++kept; });
  f.i1.send(f.packet());
  f.i1.send(f.packet());
  EXPECT_EQ(hooked, 2);
  // A removed hook is never called again; the others keep observing.
  f.net.remove_tx_hook(id);
  f.i1.send(f.packet());
  EXPECT_EQ(hooked, 2);
  EXPECT_EQ(kept, 3);
}

TEST(Link, ReattachToSameLinkIsNoop) {
  Fixture f;
  f.i1.attach(f.lan);  // already attached: must not duplicate
  EXPECT_EQ(f.lan.attached().size(), 3u);
  f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_EQ(f.rx2.size(), 1u);  // still exactly one delivery
}

TEST(Link, ResolveFindsAnsweringInterface) {
  Fixture f;
  Bytes addr{1, 2, 3};
  f.i2.set_address_filter(
      [&](BytesView a) { return a.size() == 3 && a[0] == 1; });
  Interface* found = f.lan.resolve(addr, &f.i1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id(), f.i2.id());
  // The asker itself is skipped.
  f.i1.set_address_filter([](BytesView) { return true; });
  EXPECT_EQ(f.lan.resolve(addr, &f.i1)->id(), f.i2.id());
  // No answer -> nullptr.
  Bytes other{9};
  EXPECT_EQ(f.lan.resolve(other, &f.i1), nullptr);
}

TEST(Link, DownLinkDropsAtSenderAndInFlight) {
  Fixture f;
  f.i1.send(f.packet());  // two deliveries in flight
  f.lan.set_up(false);
  f.i1.send(f.packet());  // carrier lost: never placed on the wire
  f.net.scheduler().run();
  EXPECT_FALSE(f.lan.up());
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_TRUE(f.rx3.empty());
  EXPECT_EQ(f.lan.tx_packets(), 1u);
  EXPECT_EQ(f.lan.rx_packets(), 0u);
  // Two in-flight deliveries plus one transmission dropped at the sender.
  EXPECT_EQ(f.lan.dropped_packets(), 3u);

  f.lan.set_up(true);
  f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_EQ(f.rx2.size(), 1u);
  EXPECT_EQ(f.rx3.size(), 1u);
  EXPECT_EQ(f.lan.dropped_packets(), 3u);
}

TEST(Link, FullLossDropsEveryDelivery) {
  Fixture f;
  f.lan.set_impairment(LinkImpairment{.loss = 1.0});
  for (int i = 0; i < 5; ++i) f.i1.send(f.packet());
  f.net.scheduler().run();
  EXPECT_TRUE(f.rx2.empty());
  EXPECT_TRUE(f.rx3.empty());
  EXPECT_EQ(f.lan.tx_packets(), 5u);
  EXPECT_EQ(f.lan.rx_packets(), 0u);
  EXPECT_EQ(f.lan.dropped_packets(), 10u);  // per receiver
}

TEST(Link, FullCorruptionFlipsExactlyOneOctet) {
  Fixture f;
  std::vector<Bytes> got;
  f.i2.set_rx_handler([&](const Packet& p) { got.push_back(p.data()); });
  f.i3.set_rx_handler([&](const Packet& p) { got.push_back(p.data()); });
  f.lan.set_impairment(LinkImpairment{.corrupt = 1.0});
  Bytes original(64);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i);
  }
  const Packet sent(original);
  for (int i = 0; i < 10; ++i) f.i1.send(sent);
  f.net.scheduler().run();

  ASSERT_EQ(got.size(), 20u);
  for (const Bytes& b : got) {
    ASSERT_EQ(b.size(), original.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < b.size(); ++i) differing += b[i] != original[i];
    EXPECT_EQ(differing, 1u);
  }
  EXPECT_EQ(sent.data(), original);  // the sender's buffer is untouched
  EXPECT_EQ(f.lan.corrupted_packets(), 20u);
  EXPECT_EQ(f.lan.rx_packets(), 20u);
  EXPECT_EQ(f.lan.dropped_packets(), 0u);
}

TEST(Link, JitterKeepsArrivalsWithinBound) {
  Fixture f;
  const Time jitter = Time::us(500);
  std::vector<Time> arrivals;
  f.i2.set_rx_handler([&](const Packet&) { arrivals.push_back(f.net.now()); });
  f.i3.set_rx_handler([&](const Packet&) { arrivals.push_back(f.net.now()); });
  f.lan.set_impairment(LinkImpairment{.jitter = jitter});
  for (int i = 0; i < 50; ++i) f.i1.send(f.packet());
  f.net.scheduler().run();

  ASSERT_EQ(arrivals.size(), 100u);
  Time latest = Time::zero();
  for (Time t : arrivals) {
    EXPECT_GE(t, f.lan.delay());
    EXPECT_LE(t, f.lan.delay() + jitter);
    latest = std::max(latest, t);
  }
  EXPECT_GT(latest, f.lan.delay());  // the jitter was applied at all
}

TEST(Link, ClearImpairmentsRestoresCleanDelivery) {
  Fixture f;
  std::vector<Time> arrivals;
  std::vector<Bytes> got;
  f.i2.set_rx_handler([&](const Packet& p) {
    arrivals.push_back(f.net.now());
    got.push_back(p.data());
  });
  f.lan.set_impairment(
      LinkImpairment{.loss = 1.0, .corrupt = 1.0, .jitter = Time::ms(5)});
  f.lan.clear_impairments();
  EXPECT_FALSE(f.lan.impairment().any());
  const Packet sent = f.packet();
  for (int i = 0; i < 5; ++i) f.i1.send(sent);
  f.net.scheduler().run();

  ASSERT_EQ(got.size(), 5u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(arrivals[i], f.lan.delay());
    EXPECT_EQ(got[i], sent.data());
  }
  EXPECT_EQ(f.rx3.size(), 5u);
  EXPECT_EQ(f.lan.rx_packets(), 10u);
  EXPECT_EQ(f.lan.dropped_packets(), 0u);
  EXPECT_EQ(f.lan.corrupted_packets(), 0u);
}

TEST(Interface, LinkChangeHandlerFires) {
  Network net(1);
  Link& l1 = net.add_link("l1");
  Link& l2 = net.add_link("l2");
  Node& n = net.add_node("n");
  Interface& i = n.add_interface();
  std::vector<Link*> changes;
  i.set_link_change_handler([&](Link* l) { changes.push_back(l); });
  i.attach(l1);
  i.attach(l2);  // implicit detach + attach
  i.detach();
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[0], &l1);
  EXPECT_EQ(changes[1], &l2);
  EXPECT_EQ(changes[2], nullptr);
}

}  // namespace
}  // namespace mip6

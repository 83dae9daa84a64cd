#include "net/link.hpp"

#include <gtest/gtest.h>

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
  std::vector<std::uint64_t> rx1, rx2, rx3;

  Fixture()
      : lan(net.add_link("lan", Time::ms(1))),
        n1(net.add_node("n1")), n2(net.add_node("n2")), n3(net.add_node("n3")),
        i1(n1.add_interface()), i2(n2.add_interface()),
        i3(n3.add_interface()) {
    i1.attach(lan);
    i2.attach(lan);
    i3.attach(lan);
    i1.set_rx_handler([this](const Packet& p) { rx1.push_back(p.uid()); });
    i2.set_rx_handler([this](const Packet& p) { rx2.push_back(p.uid()); });
    i3.set_rx_handler([this](const Packet& p) { rx3.push_back(p.uid()); });
  }

  Packet packet(std::size_t size = 10) { return net.make_packet(Bytes(size)); }
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
  ia.send(net.make_packet(Bytes(1000)));
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

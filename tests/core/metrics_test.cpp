#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "core/figure1.hpp"
#include "core/traffic.hpp"
#include "ipv6/datagram.hpp"

namespace mip6 {
namespace {

constexpr std::uint16_t kPort = Figure1::kDataPort;

struct Fixture {
  Figure1 f = build_figure1();
  Address group = Figure1::group();
  McastMetrics metrics{f.world->net(), f.world->routing(), group, kPort};
  std::unique_ptr<CbrSource> source;

  Fixture() {
    source = std::make_unique<CbrSource>(
        f.world->scheduler(),
        [this](Bytes p) {
          f.sender->service->send_multicast(group, kPort, kPort,
                                            std::move(p));
        },
        Time::ms(100), 64);
  }
};

TEST(McastMetrics, SteadyTreeHasUnitStretch) {
  Fixture t;
  t.f.recv3->service->subscribe(t.group);
  // Reference: source on L1, member on L4.
  t.metrics.update_reference_tree(
      t.f.link1->id(), {t.f.link4->id()});
  // Let the tree settle before measuring (flood already pruned).
  t.f.world->run_until(Time::sec(30));
  t.source->start(Time::sec(30));
  t.f.world->run_until(Time::sec(60));
  t.source->stop();
  t.f.world->run_until(Time::sec(61));

  // Path L1->L2->L3->L4 = 4 links including the source LAN. The very first
  // datagram is duplicated once (both Routers B and C forward until the
  // data-triggered Assert elects one of them), so allow that sliver.
  EXPECT_GT(t.metrics.distinct_datagrams(), 250u);
  EXPECT_NEAR(t.metrics.stretch(), 1.0, 0.01);
  EXPECT_LT(t.metrics.wasted_bytes(), 500u);
  EXPECT_EQ(t.metrics.tunneled_bytes(), 0u);
}

TEST(McastMetrics, FloodCountsAsWaste) {
  Fixture t;
  t.f.recv3->service->subscribe(t.group);
  t.metrics.update_reference_tree(t.f.link1->id(), {t.f.link4->id()});
  // Start sending immediately: the initial flood reaches links outside the
  // reference tree and duplicate forwarders are active until asserts.
  t.source->start(Time::ms(10));
  t.f.world->run_until(Time::sec(30));
  EXPECT_GT(t.metrics.wasted_bytes(), 0u);
  EXPECT_GT(t.metrics.stretch(), 1.0);
}

TEST(McastMetrics, TunnelBytesTrackedAndStretchAboveOne) {
  // Receiver 3 on a bidirectional tunnel after moving to Link 6: traffic
  // goes L1..L4 natively, then is tunneled D -> Link6 (crossing L3 again).
  Figure1 f = build_figure1(1, {}, StrategyOptions{
      McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu});
  Address group = Figure1::group();
  McastMetrics metrics(f.world->net(), f.world->routing(), group, kPort);
  f.recv3->service->subscribe(group);
  f.world->run_until(Time::sec(30));
  f.recv3->mn->move_to(*f.link6);
  f.world->run_until(Time::sec(40));
  metrics.update_reference_tree(f.link1->id(), {f.link6->id()});

  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(40));
  f.world->run_until(Time::sec(70));
  source.stop();
  f.world->run_until(Time::sec(71));

  EXPECT_GT(metrics.tunneled_bytes(), 0u);
  // Tunnel detour beats the optimal native tree: stretch strictly > 1.
  EXPECT_GT(metrics.stretch(), 1.0);
}

TEST(McastMetrics, PerLinkLastTxSupportsLeaveDelay) {
  Fixture t;
  t.f.recv3->service->subscribe(t.group);
  t.metrics.update_reference_tree(t.f.link1->id(), {t.f.link4->id()});
  t.source->start(Time::ms(10));
  t.f.world->run_until(Time::sec(10));
  EXPECT_GT(t.metrics.data_tx_count_on(t.f.link4->id()), 0u);
  Time last_before = t.metrics.last_data_tx_on(t.f.link4->id());
  EXPECT_FALSE(last_before.is_never());
  EXPECT_LE(last_before, Time::sec(10));
  EXPECT_GT(t.metrics.data_bytes_on(t.f.link4->id()), 0u);
  // A link with no data has never-valued last tx.
  EXPECT_TRUE(t.metrics.last_data_tx_on(t.f.link5->id()).is_never());
}

// --- Differential check against the throwing parse ---------------------------

/// The reference: McastMetrics' accounting with the throwing parsers, a
/// copied UDP payload and a std::set of sequence numbers.
class ReferenceMetrics {
 public:
  ReferenceMetrics(Network& net, Address group, std::uint16_t port)
      : net_(&net), group_(group), port_(port) {
    hook_ = net.add_tx_hook(
        [this](const Link& link, const Interface&, const Packet& pkt) {
          on_tx(link, pkt);
        });
  }
  ~ReferenceMetrics() { net_->remove_tx_hook(hook_); }

  void on_tx(const Link& link, const Packet& pkt) {
    ParsedDatagram d;
    try {
      d = parse_datagram(pkt.view());
    } catch (const ParseError&) {
      ++rejected;
      return;
    }
    bool tunneled = false;
    const ParsedDatagram* data = &d;
    ParsedDatagram inner;
    if (d.protocol == proto::kIpv6) {
      try {
        inner = parse_datagram(d.payload);
      } catch (const ParseError&) {
        ++rejected;
        return;
      }
      data = &inner;
      tunneled = true;
    }
    if (!(data->hdr.dst == group_) || data->protocol != proto::kUdp) return;
    CbrPayload payload;
    try {
      UdpDatagram udp =
          UdpDatagram::parse(data->payload, data->hdr.src, data->hdr.dst);
      if (udp.dst_port != port_) return;
      payload = CbrPayload::decode(udp.payload);
    } catch (const ParseError&) {
      ++rejected;
      return;
    }
    ++data_tx;
    actual_bytes += pkt.size();
    if (tunneled) tunneled_bytes += pkt.size();
    if (!seqs.empty() && payload.seq < *seqs.rbegin() &&
        !seqs.contains(payload.seq)) {
      ++late;
    }
    if (seqs.insert(payload.seq).second) {
      optimal_bytes += (Ipv6Header::kSize + data->payload.size()) * tree_links;
    }
    auto& [tx, bytes, last] = per_link[link.id()];
    ++tx;
    bytes += pkt.size();
    last = std::max(last, net_->now());
  }

  std::size_t tree_links = 0;
  std::uint64_t actual_bytes = 0, optimal_bytes = 0, tunneled_bytes = 0;
  std::uint64_t data_tx = 0, rejected = 0, late = 0;
  std::set<std::uint32_t> seqs;
  std::map<LinkId, std::tuple<std::uint64_t, std::uint64_t, Time>> per_link;

 private:
  Network* net_;
  Network::TxHookId hook_;
  Address group_;
  std::uint16_t port_;
};

TEST(McastMetrics, MatchesThrowingParseOnCorruptedTunnel) {
  // Receiver 3 on a bidirectional tunnel from Link 6, with Link 3, which
  // carries both the native tree and the tunnel, flipping a byte in a
  // fifth of its deliveries: downstream links carry frames that fail the
  // outer parse, the inner parse and the UDP checksum.
  Figure1 f = build_figure1(1, {}, StrategyOptions{
      McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu});
  const Address group = Figure1::group();
  McastMetrics metrics(f.world->net(), f.world->routing(), group, kPort);
  ReferenceMetrics ref(f.world->net(), group, kPort);
  auto set_tree = [&](std::vector<LinkId> members) {
    metrics.update_reference_tree(f.link1->id(), members);
    ref.tree_links =
        f.world->routing().shortest_path_tree(f.link1->id(), members).size();
  };
  set_tree({f.link4->id()});
  f.recv1->service->subscribe(group);
  f.recv3->service->subscribe(group);
  f.link3->set_impairment(LinkImpairment{0.0, 0.2, Time::zero()});
  auto send = [&](std::uint32_t seq) {
    f.sender->service->send_multicast(
        group, kPort, kPort, CbrPayload{seq, f.world->now()}.encode(64));
  };
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, kPort, kPort, std::move(p));
      },
      Time::ms(100), 64);
  source.start(Time::sec(1));
  f.world->run_until(Time::sec(20));
  f.recv3->mn->move_to(*f.link6);
  f.world->run_until(Time::sec(30));
  set_tree({f.link4->id(), f.link6->id()});
  f.world->run_until(Time::sec(50));
  source.stop();
  // Late, repeated and far-ahead sequence numbers, sent out of order.
  for (std::uint32_t seq : {100000u, 7u, 50000u, 7u, 99999u, 100001u}) {
    send(seq);
  }
  f.world->run_until(Time::sec(52));

  // The run exercised every path the comparison is about.
  EXPECT_GT(ref.rejected, 20u);
  EXPECT_GT(ref.tunneled_bytes, 0u);
  EXPECT_GT(ref.late, 0u);

  EXPECT_EQ(metrics.actual_bytes(), ref.actual_bytes);
  EXPECT_EQ(metrics.optimal_bytes(), ref.optimal_bytes);
  EXPECT_EQ(metrics.wasted_bytes(), ref.actual_bytes > ref.optimal_bytes
                                        ? ref.actual_bytes - ref.optimal_bytes
                                        : 0u);
  EXPECT_DOUBLE_EQ(metrics.stretch(),
                   static_cast<double>(ref.actual_bytes) /
                       static_cast<double>(ref.optimal_bytes));
  EXPECT_EQ(metrics.tunneled_bytes(), ref.tunneled_bytes);
  EXPECT_EQ(metrics.data_transmissions(), ref.data_tx);
  EXPECT_EQ(metrics.distinct_datagrams(), ref.seqs.size());
  for (const auto& link : f.world->net().links()) {
    SCOPED_TRACE(link->name());
    auto it = ref.per_link.find(link->id());
    if (it == ref.per_link.end()) {
      EXPECT_EQ(metrics.data_tx_count_on(link->id()), 0u);
      EXPECT_EQ(metrics.data_bytes_on(link->id()), 0u);
      EXPECT_TRUE(metrics.last_data_tx_on(link->id()).is_never());
      continue;
    }
    const auto& [tx, bytes, last] = it->second;
    EXPECT_EQ(metrics.data_tx_count_on(link->id()), tx);
    EXPECT_EQ(metrics.data_bytes_on(link->id()), bytes);
    EXPECT_EQ(metrics.last_data_tx_on(link->id()), last);
  }
}

}  // namespace
}  // namespace mip6

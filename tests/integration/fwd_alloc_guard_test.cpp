// Allocation guard for the steady-state multicast data plane.
//
// This TU overrides global operator new/delete with counting wrappers (its
// own test binary — the override is process-wide) and drives pre-built
// datagrams through a converged 3-router line, asserting that forwarding a
// packet end-to-end across every router allocates NOTHING once warm. This
// is the invariant the MFC flow cache exists for: the per-packet oiflist
// std::vector is gone, replicas share one pooled hop-limit-decremented
// buffer, counters are pre-resolved cells, timers recycle through the
// scheduler free list and each router verifies the UDP datagram it finds
// no listener for in place. The datagrams carry the benchmark's 128-byte
// CBR payload, so a payload copy at any hop shows. Covers both dense-mode
// engines, one datagram at a time and in bursts that keep more buffers in
// flight than a small fixed pool would hold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/random_topology.hpp"
#include "core/traffic.hpp"
#include "ipv6/header.hpp"
#include "ipv6/udp.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mip6 {
namespace {

std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// A converged 3-router line whose far router is pinned as a local
/// receiver, and a datagram from a host on the first stub.
class FwdAllocGuard : public ::testing::TestWithParam<DenseEngineKind> {
 protected:
  void SetUp() override {
    WorldConfig config;
    config.dense_engine = GetParam();
    topo_ = build_line_topology(3, config, /*seed=*/7);
    World& world = *topo_.world;

    // A real host on the first stub provides the source address (so every
    // router's RPF check points back along the line).
    NodeRuntime& sender = world.add_host("S", *topo_.stub_links[0]);
    world.finalize();

    // Pin the far router as a local receiver (the home-agent "join on
    // behalf" path): the tree stays up end-to-end with no end-host delivery
    // in the measured window — receiver apps keep per-packet logs, which is
    // their allocation, not the data plane's.
    Address group = Address::parse("ff1e::1");
    topo_.routers[2]->dense->add_local_receiver(group);

    // Converge: addresses assigned, first hellos exchanged, MLD startup
    // burst done. 8 s sits in the protocol-quiet window (next hellos at
    // 30 s), so the measured loop sees data events only.
    world.run_until(Time::sec(8));

    const auto& ifaces = sender.stack->node().interfaces();
    ASSERT_FALSE(ifaces.empty());
    IfaceId sender_if = ifaces[0]->id();
    ASSERT_TRUE(sender.stack->has_global_address(sender_if));

    // A well-formed UDP datagram (valid checksum, a port nobody listens
    // on): MLD routers are multicast-promiscuous, so every hop also
    // attempts local delivery — it must take the silent no-listener path,
    // not the parse-reject path (which builds taxonomy counter names).
    Address src = sender.stack->global_address(sender_if);
    UdpDatagram udp;
    udp.src_port = 9000;
    udp.dst_port = 9000;
    udp.payload = CbrPayload{7, Time::sec(8)}.encode(128);
    Bytes udp_wire = udp.serialize(src, group);

    Ipv6Header hdr;
    hdr.src = src;
    hdr.dst = group;
    hdr.next_header = proto::kUdp;
    hdr.hop_limit = 64;
    hdr.payload_length = static_cast<std::uint16_t>(udp_wire.size());
    BufferWriter w(Ipv6Header::kSize + udp_wire.size());
    hdr.write(w);
    w.raw(udp_wire);
    // One immutable packet reused for every injection: the data plane never
    // mutates a received buffer (forwarding installs a pooled decremented
    // copy), so identity-reuse is safe and keeps the injector itself silent.
    pkt_ = Packet(std::move(w).take());

    // The first router's interface on the sender stub; deliver() runs the
    // full receive + forward path synchronously.
    for (const auto& i : topo_.routers[0]->stack->node().interfaces()) {
      if (i->link() == topo_.stub_links[0]) rx_if_ = i.get();
    }
    ASSERT_NE(rx_if_, nullptr);
  }

  /// Delivers `burst` copies of the datagram at once, then runs until
  /// every hop has forwarded them.
  void inject_and_drain(int burst) {
    for (int i = 0; i < burst; ++i) rx_if_->deliver(pkt_);
    World& world = *topo_.world;
    world.run_until(world.net().now() + Time::ms(2));
  }

  RandomTopology topo_;
  Packet pkt_;
  const Interface* rx_if_ = nullptr;
};

TEST_P(FwdAllocGuard, SteadyStateForwardingDoesNotAllocate) {
  // Warm-up: create the (S,G) entries down the line, fill the flow
  // caches, grow the event heap / free lists / buffer pool to steady
  // state.
  for (int i = 0; i < 128; ++i) inject_and_drain(1);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) inject_and_drain(1);
  EXPECT_EQ(allocations() - before, 0u)
      << "forwarding a multicast datagram allocated on the steady-state "
         "data path";
}

TEST_P(FwdAllocGuard, BurstForwardingDoesNotAllocate) {
  // 300 datagrams at one instant keep 300 pooled buffers in flight on the
  // first link alone. Warm-up grows the pool to that population.
  constexpr int kBurst = 300;
  for (int i = 0; i < 8; ++i) inject_and_drain(kBurst);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) inject_and_drain(kBurst);
  EXPECT_EQ(allocations() - before, 0u)
      << "a burst of multicast datagrams allocated on the data path";
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FwdAllocGuard,
                         ::testing::Values(DenseEngineKind::kPimDm,
                                           DenseEngineKind::kHpimDm),
                         [](const auto& param_info) {
                           return param_info.param == DenseEngineKind::kPimDm
                                      ? "pimdm"
                                      : "hpimdm";
                         });

}  // namespace
}  // namespace mip6

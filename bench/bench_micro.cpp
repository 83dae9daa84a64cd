// MICRO — google-benchmark microbenchmarks of the substrate: event
// scheduler throughput, link deliveries over a large timer heap,
// wire-format serialize/parse rates, checksum, a pooled forwarding copy
// with a few or many buffers in flight, RIB lookup in one RIB and across
// a 1024-router world, routing recomputation at 1024 routers, and a full
// Figure-1 simulated second.
// These bound how large the scenario sweeps can go.
#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <vector>

#include "core/figure1.hpp"
#include "core/random_topology.hpp"
#include "core/traffic.hpp"
#include "ipv6/datagram.hpp"
#include "ipv6/routing.hpp"
#include "mipv6/messages.hpp"
#include "net/buffer_pool.hpp"
#include "pimdm/messages.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "util/checksum.hpp"

namespace mip6 {
namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler s;
    for (int i = 0; i < n; ++i) {
      s.schedule_in(Time::us(i % 997), [] {});
    }
    benchmark::DoNotOptimize(s.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
  Scheduler s;
  Timer t(s, [] {});
  for (auto _ : state) {
    t.arm(Time::sec(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm);

// Link deliveries over a heap of long-lived timers: 16k armed 210 s timers
// (about churn-par's timer heap) and 250 deliveries in flight, one due
// every microsecond over a 250 us link. Each iteration advances one
// microsecond, which delivers one packet that posts the next, so the time
// per iteration is the cost of one post_in delivery.
void BM_SchedulerDeliveriesOverTimers(benchmark::State& state) {
  Scheduler s;
  const Domain d = s.add_domain();
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 16000; ++i) {
    timers.push_back(std::make_unique<Timer>(s, [] {}, d));
    timers.back()->arm(Time::sec(210) + Time::us(i));
  }
  struct Hop {
    Scheduler* s;
    Domain d;
    std::uint64_t delivered = 0;
    void arrive() {
      ++delivered;
      s->post_in(Time::us(250), [this] { arrive(); }, d);
    }
  } hop{&s, d};
  for (int k = 1; k <= 250; ++k) {
    s.post_in(Time::us(k), [&hop] { hop.arrive(); }, d);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.run_until(s.now() + Time::us(1)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hop.delivered));
}
BENCHMARK(BM_SchedulerDeliveriesOverTimers);

void BM_DatagramBuild(benchmark::State& state) {
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:1::1");
  spec.dst = Address::parse("ff1e::1");
  spec.protocol = proto::kUdp;
  spec.payload = Bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_datagram(spec));
  }
  state.SetBytesProcessed(state.iterations() *
                          (40 + state.range(0)));
}
BENCHMARK(BM_DatagramBuild)->Arg(64)->Arg(512)->Arg(1400);

void BM_DatagramParse(benchmark::State& state) {
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:1::1");
  spec.dst = Address::parse("ff1e::1");
  spec.dest_options.push_back(
      HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
  spec.protocol = proto::kUdp;
  spec.payload = Bytes(static_cast<std::size_t>(state.range(0)));
  Bytes wire = build_datagram(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(try_parse_datagram(wire));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DatagramParse)->Arg(64)->Arg(1400);

void BM_InternetChecksum(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1400);

void BM_AddressParseFormat(benchmark::State& state) {
  for (auto _ : state) {
    Address a = Address::parse("2001:db8:1:2:3:4:5:6");
    benchmark::DoNotOptimize(a.str());
  }
}
BENCHMARK(BM_AddressParseFormat);

void BM_PimJoinPruneRoundTrip(benchmark::State& state) {
  PimJoinPrune m = PimJoinPrune::prune(Address::parse("fe80::1"),
                                       Address::parse("2001:db8::1"),
                                       Address::parse("ff1e::1"), 210);
  for (auto _ : state) {
    Bytes body = m.body();
    benchmark::DoNotOptimize(PimJoinPrune::try_parse(body));
  }
}
BENCHMARK(BM_PimJoinPruneRoundTrip);

// One forwarding checkout with `range(0)` pooled buffers in flight, held
// in FIFO order: each iteration releases the oldest and checks one out with
// a 176-byte datagram copied in (IPv6 header, UDP header, 128-byte CBR
// payload). The cost of one hop's hop-limit-decremented copy.
void BM_BufferPoolCheckout(benchmark::State& state) {
  const auto in_flight = static_cast<std::size_t>(state.range(0));
  const Bytes datagram(176, 0x5a);
  BufferPool pool;
  std::deque<std::shared_ptr<Bytes>> fifo;
  for (std::size_t i = 0; i < in_flight; ++i) {
    fifo.push_back(pool.checkout_copy(datagram));
  }
  for (auto _ : state) {
    fifo.pop_front();
    fifo.push_back(pool.checkout_copy(datagram));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["slots"] = static_cast<double>(pool.slots());
}
BENCHMARK(BM_BufferPoolCheckout)->Arg(64)->Arg(1024);

void BM_RibLookup(benchmark::State& state) {
  // A router's RIB in the 1024-router world: one /64 per link, prefixes
  // numbered as World::add_link numbers them.
  constexpr int kRoutes = 2303;
  Rib rib;
  std::vector<Address> dsts;
  for (int i = 1; i <= kRoutes; ++i) {
    Prefix p = Prefix::parse("2001:db8:" + std::to_string(i) + "::/64");
    rib.add(Route{p, static_cast<IfaceId>(i % 32), Address(), 1});
    dsts.push_back(Address::from_prefix_iid(p.network(), 0x42));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rib.lookup(dsts[i]));
    i = (i + 97) % dsts.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibLookup);

void BM_RibLookupShared(benchmark::State& state) {
  // RPF lookups as flood-1k makes them: its graph after recompute, every
  // router in turn looking up 16 sources on stub LANs.
  RandomTopologyParams params;
  params.routers = 1024;
  params.max_fanout = 32;
  params.extra_links = 256;
  RandomTopology t = build_random_topology(params);
  t.world->finalize();
  std::vector<Address> dsts;
  for (std::size_t i = 0; i < 16; ++i) {
    const Link& stub = *t.stub_links[i * t.stub_links.size() / 16];
    dsts.push_back(Address::from_prefix_iid(
        t.world->plan().prefix_of(stub.id()).network(), 0x42));
  }
  std::size_t router = 0, dst = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.routers[router]->stack->rib().lookup(dsts[dst]));
    if (++dst == dsts.size()) {
      dst = 0;
      if (++router == t.routers.size()) router = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibLookupShared);

void BM_GlobalRoutingRecompute(benchmark::State& state) {
  // The flood-1k benchmark graph: 1024 routers, 2303 links.
  RandomTopologyParams params;
  params.routers = 1024;
  params.max_fanout = 32;
  params.extra_links = 256;
  RandomTopology t = build_random_topology(params);
  t.world->finalize();
  for (auto _ : state) {
    t.world->routing().recompute();
  }
}
BENCHMARK(BM_GlobalRoutingRecompute)->Unit(benchmark::kMillisecond);

void BM_Figure1SimulatedSecond(benchmark::State& state) {
  // Full-stack cost: one simulated second of the Figure 1 scenario at
  // 100 datagrams/s with all three receivers subscribed.
  Figure1 f = build_figure1();
  const Address group = Figure1::group();
  for (NodeRuntime* r : {f.recv1, f.recv2, f.recv3}) {
    r->service->subscribe(group);
  }
  CbrSource source(
      f.world->scheduler(),
      [&](Bytes p) {
        f.sender->service->send_multicast(group, Figure1::kDataPort,
                                          Figure1::kDataPort, std::move(p));
      },
      Time::ms(10), 64);
  source.start(Time::ms(1));
  Time horizon = Time::sec(1);
  for (auto _ : state) {
    f.world->run_until(horizon);
    horizon += Time::sec(1);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_Figure1SimulatedSecond);

}  // namespace
}  // namespace mip6

BENCHMARK_MAIN();

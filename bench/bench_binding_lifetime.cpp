// ABL2 — ablation on the Mobile IPv6 binding lifetime for the tunnel
// approaches. The paper notes (Section 4.3.2) that if extended Binding
// Updates stop arriving, the HA deletes the binding after the default
// lifetime (256 s) and "gives up the representation of the host as member
// of its multicast group". This bench injects Binding Update loss on the
// mobile node's foreign link and sweeps the lifetime, measuring multicast
// interruption for a bidirectional-tunnel receiver.
#include "common.hpp"
#include "runner/parallel.hpp"

using namespace mip6;
using namespace mip6::bench;

namespace {

ReplicationResult run(std::uint64_t seed, Time lifetime, double bu_loss) {
  WorldConfig config;
  config.mipv6.binding_lifetime = lifetime;
  config.mipv6.bu_refresh_interval = Time::ns(lifetime.nanos() / 2);
  Fig1Harness h({McastStrategy::kBidirTunnel, HaRegistration::kGroupListBu},
                seed, config);
  World& world = h.world();
  h.subscribe_all();
  h.source->start(Time::sec(1));

  // Drop a fraction of the MN's Binding Updates on its foreign link.
  Rng drop_rng(Rng::derive_seed(seed, 0xdead));
  h.f.link6->set_drop_fn([&](const Packet& pkt, const Interface&) {
    const ParseResult<ParsedDatagram> d = try_parse_datagram(pkt.view());
    if (d.ok() && d.value().has_option(opt::kBindingUpdate)) {
      return drop_rng.uniform() < bu_loss;
    }
    return false;
  });

  world.scheduler().schedule_at(Time::sec(20), [&] {
    h.f.recv3->mn->move_to(*h.f.link6);
  });
  const Time horizon = Time::sec(1500);
  world.run_until(horizon);

  // Interruption: longest gap between consecutive deliveries after t=30 s.
  double longest_gap = 0;
  Time prev = Time::sec(30);
  for (const auto& rx : h.app3->log()) {
    if (rx.received_at < Time::sec(30)) continue;
    double gap = (rx.received_at - prev).to_seconds();
    longest_gap = std::max(longest_gap, gap);
    prev = rx.received_at;
  }
  longest_gap = std::max(longest_gap, (horizon - prev).to_seconds());

  double window_s = (horizon - Time::sec(30)).to_seconds();
  double expected = window_s / 0.1;  // 10 dgram/s
  ReplicationResult r;
  r["longest_gap_s"] = longest_gap;
  r["loss_pct"] =
      100.0 *
      (expected - static_cast<double>(
                      h.app3->received_in(Time::sec(30), horizon))) /
      expected;
  r["binding_expiries"] = static_cast<double>(
      world.net().counters().get("ha/binding-expired"));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 6;
  header("ABL2: binding lifetime vs multicast interruption (tunnel receiver)",
         "bidir-tunnel receiver on Link6, 40% of its BUs lost, 1500 s "
         "horizon");

  Table t({"binding lifetime", "refresh", "longest outage", "loss",
           "binding expiries"});
  for (int life_s : {64, 128, 256, 512}) {
    ReplicationOptions opts;
    opts.replications = reps;
    opts.base_seed = 2718;
    auto m = run_replications(opts, [&](std::uint64_t seed) {
      return run(seed, Time::sec(life_s), 0.4);
    });
    t.add_row({std::to_string(life_s) + " s",
               std::to_string(life_s / 2) + " s",
               fmt_double(m.at("longest_gap_s").mean(), 1) + " s",
               fmt_double(m.at("loss_pct").mean(), 1) + " %",
               fmt_double(m.at("binding_expiries").mean(), 1)});
  }
  std::printf("%s\n", t.str().c_str());

  paper_note(
      "Section 4.3.2: \"missing extended BINDING UPDATES would let the "
      "home agent delete its binding cache entry (default 256 s) and, "
      "thus, give up the representation of the host as member of its "
      "multicast group\" — shorter lifetimes bound the outage after losing "
      "refreshes but multiply signalling; the BU retransmission machinery "
      "masks most individual losses.");
  return 0;
}

#include "ipv6/ripng.hpp"

#include "net/wire_stats.hpp"

namespace mip6 {
namespace {

constexpr std::uint8_t kCommandResponse = 2;
constexpr std::uint8_t kVersion = 1;

}  // namespace

Address ripng_group() {
  static const Address kAddr = Address::parse("ff02::9");
  return kAddr;
}

Bytes ripng_response_payload(const std::vector<RipngRte>& rtes) {
  BufferWriter w(4 + rtes.size() * 20);
  w.u8(kCommandResponse);
  w.u8(kVersion);
  w.u16(0);
  for (const auto& rte : rtes) {
    rte.prefix.network().write(w);
    w.u16(0);  // route tag
    w.u8(rte.prefix.length());
    w.u8(rte.metric);
  }
  return std::move(w).take();
}

ParseResult<std::vector<RipngRte>> try_parse_ripng_response(
    BytesView payload) {
  WireCursor c(payload);
  std::uint8_t command = c.u8();
  std::uint8_t version = c.u8();
  c.skip(2);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "RIPng header"};
  }
  if (command != kCommandResponse) {
    return ParseFailure{ParseReason::kBadType, "RIPng: not a Response"};
  }
  if (version != kVersion) {
    return ParseFailure{ParseReason::kBadType, "RIPng: bad version"};
  }
  if (c.remaining() % 20 != 0) {
    return ParseFailure{ParseReason::kTruncated,
                        "RIPng: truncated route entries"};
  }
  if (c.remaining() / 20 > bound::kMaxRipngRtes) {
    return ParseFailure{ParseReason::kBoundExceeded,
                        "RIPng route entries per response"};
  }
  std::vector<RipngRte> rtes;
  while (!c.empty()) {
    Address addr = Address::read(c);
    c.skip(2);  // route tag
    std::uint8_t len = c.u8();
    std::uint8_t metric = c.u8();
    if (c.failed()) {
      return ParseFailure{ParseReason::kTruncated, "RIPng route entry"};
    }
    if (len > 128) {
      return ParseFailure{ParseReason::kSemantic,
                          "RIPng: prefix length > 128"};
    }
    rtes.push_back(RipngRte{Prefix(addr, len), metric});
  }
  return rtes;
}

Ripng::Ripng(Ipv6Stack& stack, UdpDemux& udp, RipngConfig config)
    : stack_(&stack), udp_(&udp), config_(config),
      update_timer_(stack.scheduler(), [this] {
        send_periodic_update();
        update_timer_.arm(config_.update_interval);
      }),
      triggered_timer_(stack.scheduler(), [this] {
        if (!triggered_pending_) return;
        triggered_pending_ = false;
        for (IfaceId iface : ifaces_) send_update_on(iface, true);
        for (auto& [prefix, r] : routes_) r->changed = false;
      }) {
  udp.bind(kRipngPort,
           [this](const UdpDatagram& u, const ParsedDatagram& d,
                  IfaceId iface) { on_response(u, d, iface); });
  // First full update shortly after start (jitter avoided: deterministic).
  update_timer_.arm(Time::ms(100));
}

void Ripng::start() {
  for (const auto& ifp : stack_->node().interfaces()) {
    if (ifp->attached() && configured_.contains(ifp->id())) {
      enable_iface(ifp->id());
    }
  }
}

void Ripng::stop() {
  shutdown();
  udp_->unbind(kRipngPort);
}

void Ripng::enable_iface(IfaceId iface) {
  configured_.insert(iface);
  ifaces_.push_back(iface);
  stack_->join_local_group(iface, ripng_group());
  // Re-arm the update cycle if a shutdown() stopped it.
  if (!update_timer_.running()) update_timer_.arm(Time::ms(100));

  Interface& i = stack_->node().iface_by_id(iface);
  if (i.link() != nullptr && stack_->plan().has_prefix(i.link()->id())) {
    const Prefix& prefix = stack_->plan().prefix_of(i.link()->id());
    auto r = std::make_unique<RouteState>();
    r->prefix = prefix;
    r->iface = iface;
    r->metric = 1;
    r->connected = true;
    r->changed = true;
    sync_rib(*r, false);
    routes_[prefix] = std::move(r);
  }
}

void Ripng::shutdown() {
  for (const auto& [prefix, r] : routes_) sync_rib(*r, /*removed=*/true);
  routes_.clear();  // cancels timeout / gc timers
  ifaces_.clear();
  update_timer_.cancel();
  triggered_timer_.cancel();
  triggered_pending_ = false;
  count("ripng/shutdown");
}

std::uint8_t Ripng::metric_of(const Prefix& prefix) const {
  auto it = routes_.find(prefix);
  return it == routes_.end() ? config_.infinity : it->second->metric;
}

void Ripng::on_response(const UdpDatagram& udp, const ParsedDatagram& d,
                        IfaceId iface) {
  // RFC 2080: updates must come from a link-local source on this link.
  if (!d.hdr.src.is_link_local_unicast()) {
    count("ripng/rx-drop/not-link-local");
    return;
  }
  if (stack_->has_link_local(iface) &&
      d.hdr.src == stack_->link_local_address(iface)) {
    return;  // our own update echoed back
  }
  ParseResult<std::vector<RipngRte>> rtes =
      try_parse_ripng_response(udp.payload);
  if (!rtes.ok()) {
    count("ripng/rx-drop/parse-error");
    note_parse_reject(stack_->network(), "ripng", rtes.failure());
    return;
  }
  count("ripng/rx/response");
  for (const auto& rte : rtes.value()) process_rte(rte, d.hdr.src, iface);
}

void Ripng::process_rte(const RipngRte& rte, const Address& from,
                        IfaceId iface) {
  std::uint8_t metric = static_cast<std::uint8_t>(
      std::min<int>(rte.metric + 1, config_.infinity));
  auto it = routes_.find(rte.prefix);
  if (it == routes_.end()) {
    if (metric >= config_.infinity) return;  // unreachable, nothing to add
    auto r = std::make_unique<RouteState>();
    r->prefix = rte.prefix;
    r->iface = iface;
    r->next_hop = from;
    r->metric = metric;
    r->changed = true;
    start_timeout(*r);
    sync_rib(*r, false);
    routes_[rte.prefix] = std::move(r);
    count("ripng/route-added");
    schedule_triggered_update();
    return;
  }
  RouteState& r = *it->second;
  if (r.connected) return;  // connected routes never learned over the wire
  bool same_gw = (r.next_hop == from && r.iface == iface);
  if (same_gw) {
    // Refresh; adopt whatever the gateway now says (including worse news).
    if (metric != r.metric) {
      r.metric = metric;
      r.changed = true;
      if (metric >= config_.infinity) {
        expire_route(r.prefix);
      } else {
        sync_rib(r, false);
        start_timeout(r);
      }
      schedule_triggered_update();
    } else if (metric < config_.infinity) {
      start_timeout(r);
    }
  } else if (metric < r.metric) {
    // Strictly better path via a different gateway.
    r.iface = iface;
    r.next_hop = from;
    r.metric = metric;
    r.changed = true;
    start_timeout(r);
    sync_rib(r, false);
    schedule_triggered_update();
  }
}

void Ripng::start_timeout(RouteState& r) {
  Prefix prefix = r.prefix;
  if (!r.timeout) {
    r.timeout = std::make_unique<Timer>(
        stack_->scheduler(), [this, prefix] { expire_route(prefix); }, stack_->node().domain());
  }
  r.timeout->arm(config_.route_timeout);
  if (r.gc) r.gc->cancel();
}

void Ripng::expire_route(const Prefix& prefix) {
  auto it = routes_.find(prefix);
  if (it == routes_.end()) return;
  RouteState& r = *it->second;
  if (r.connected) return;
  count("ripng/route-expired");
  r.metric = config_.infinity;
  r.changed = true;
  if (r.timeout) r.timeout->cancel();
  sync_rib(r, /*removed=*/true);
  if (!r.gc) {
    r.gc = std::make_unique<Timer>(
        stack_->scheduler(), [this, prefix] { delete_route(prefix); }, stack_->node().domain());
  }
  r.gc->arm(config_.gc_interval);
  schedule_triggered_update();
}

void Ripng::delete_route(const Prefix& prefix) { routes_.erase(prefix); }

void Ripng::send_periodic_update() {
  for (IfaceId iface : ifaces_) send_update_on(iface, false);
  for (auto& [prefix, r] : routes_) r->changed = false;
}

void Ripng::send_update_on(IfaceId iface, bool changed_only) {
  if (!stack_->has_link_local(iface)) return;
  std::vector<RipngRte> rtes;
  for (const auto& [prefix, r] : routes_) {
    if (changed_only && !r->changed) continue;
    // Split horizon with poisoned reverse: routes learned over this
    // interface are advertised back with infinity.
    std::uint8_t metric =
        (!r->connected && r->iface == iface) ? config_.infinity : r->metric;
    rtes.push_back(RipngRte{prefix, metric});
  }
  if (rtes.empty()) return;

  DatagramSpec spec;
  spec.src = stack_->link_local_address(iface);
  spec.dst = ripng_group();
  spec.hop_limit = 255;
  spec.protocol = proto::kUdp;
  UdpDatagram udp;
  udp.src_port = kRipngPort;
  udp.dst_port = kRipngPort;
  udp.payload = ripng_response_payload(rtes);
  spec.payload = udp.serialize(spec.src, spec.dst);
  std::size_t wire = Ipv6Header::kSize + spec.payload.size();
  stack_->send_on_iface(iface, spec);
  count("ripng/tx/response");
  stack_->network().counters().add("ripng/tx-bytes", wire);
}

void Ripng::schedule_triggered_update() {
  triggered_pending_ = true;
  triggered_timer_.arm_if_idle(config_.triggered_update_delay);
}

void Ripng::sync_rib(const RouteState& r, bool removed) {
  stack_->rib().remove_prefix(r.prefix);
  if (!removed) {
    stack_->rib().add(Route{r.prefix, r.iface,
                            r.connected ? Address() : r.next_hop, r.metric});
  }
}

void Ripng::count(std::string_view name) {
  stack_->network().counters().add(name);
}

}  // namespace mip6

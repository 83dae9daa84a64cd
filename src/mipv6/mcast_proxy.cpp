#include "mipv6/mcast_proxy.hpp"

#include "ipv6/tunnel.hpp"
#include "net/wire_stats.hpp"

namespace mip6 {

MulticastProxy::MulticastProxy(Ipv6Stack& stack, UdpDemux& udp,
                               DenseModeEngine& dense, Config config)
    : stack_(&stack), udp_(&udp), dense_(&dense),
      component_("proxy/" + stack.node().name()), config_(config) {
  udp.bind(kMcastProxyPort,
           [this](const UdpDatagram& u, const ParsedDatagram& d,
                  IfaceId iface) { on_ctrl(u, d, iface); });
  group_hook_token_ = stack.add_group_delivery_hook(
      [this](const ParsedDatagram& d, const Packet& pkt, IfaceId) {
        on_group_delivery(d, pkt);
      });
}

void MulticastProxy::stop() {
  for (auto& [home, reg] : regs_) {
    for (const Address& g : reg.groups) unref_group(g);
  }
  regs_.clear();
  udp_->unbind(kMcastProxyPort);
  stack_->remove_group_delivery_hook(group_hook_token_);
}

void MulticastProxy::on_crash() {
  // Silent: no counters, no wire traffic — corpus replays must see a
  // crashing idle proxy as a no-op.
  for (auto& [home, reg] : regs_) {
    for (const Address& g : reg.groups) {
      auto it = group_refs_.find(g);
      if (it != group_refs_.end() && --it->second <= 0) {
        group_refs_.erase(it);
        dense_->remove_local_receiver(g);
      }
    }
  }
  regs_.clear();
}

std::vector<Address> MulticastProxy::represented_groups() const {
  std::vector<Address> out;
  for (const auto& [g, refs] : group_refs_) out.push_back(g);
  return out;
}

void MulticastProxy::on_ctrl(const UdpDatagram& udp, const ParsedDatagram& d,
                             IfaceId iface) {
  (void)iface;
  ParseResult<MobilityCtrlMessage> msg =
      MobilityCtrlMessage::try_parse(udp.payload);
  if (!msg.ok()) {
    count("proxy/rx-drop/bad-ctrl");
    note_parse_reject(stack_->network(), "mipv6", msg.failure());
    return;
  }
  const MobilityCtrlMessage& m = msg.value();
  switch (m.kind) {
    case MobilityCtrlKind::kProxyRegister: {
      count("proxy/rx/register");
      trace_event("register", [&] {
        return "home=" + m.home.str() + " coa=" + d.hdr.src.str() +
               " groups=" + std::to_string(m.groups.size());
      });
      Registration& reg = regs_[m.home];
      // The care-of address is the datagram's source, not a field the MN
      // could desynchronize from its actual attachment.
      reg.care_of = d.hdr.src;
      set_groups(reg, std::set<Address>(m.groups.begin(), m.groups.end()));
      if (!reg.lifetime) {
        reg.lifetime = std::make_unique<Timer>(
            stack_->scheduler(), [this, home = m.home] { expire(home); },
            stack_->node().domain());
      }
      reg.lifetime->arm(config_.registration_lifetime);
      return;
    }
    case MobilityCtrlKind::kProxyDeregister: {
      count("proxy/rx/dereg");
      trace_event("deregister", [&] { return "home=" + m.home.str(); });
      remove_registration(m.home);
      return;
    }
    default:
      // AR join/prune landed on the proxy port — misdirected.
      count("proxy/rx-drop/bad-kind");
      return;
  }
}

void MulticastProxy::set_groups(Registration& reg, std::set<Address> groups) {
  for (const Address& g : groups) {
    if (!reg.groups.contains(g)) ref_group(g);
  }
  for (const Address& g : reg.groups) {
    if (!groups.contains(g)) unref_group(g);
  }
  reg.groups = std::move(groups);
}

void MulticastProxy::remove_registration(const Address& home) {
  auto it = regs_.find(home);
  if (it == regs_.end()) return;
  for (const Address& g : it->second.groups) unref_group(g);
  regs_.erase(it);
}

void MulticastProxy::expire(const Address& home) {
  count("proxy/expired");
  trace_event("registration-expired", [&] { return "home=" + home.str(); });
  remove_registration(home);
}

void MulticastProxy::ref_group(const Address& group) {
  if (++group_refs_[group] == 1) dense_->add_local_receiver(group);
}

void MulticastProxy::unref_group(const Address& group) {
  auto it = group_refs_.find(group);
  if (it == group_refs_.end()) return;
  if (--it->second <= 0) {
    group_refs_.erase(it);
    dense_->remove_local_receiver(group);
  }
}

void MulticastProxy::on_group_delivery(const ParsedDatagram& d,
                                       const Packet& pkt) {
  const Address& group = d.hdr.dst;
  if (!group_refs_.contains(group)) return;
  const Address src = proxy_source();
  if (src.is_unspecified()) {
    count("proxy/drop/no-tunnel-source");
    return;
  }
  for (const auto& [home, reg] : regs_) {
    if (!reg.groups.contains(group)) continue;
    count("proxy/encap-multicast");
    trace_event("tunnel-multicast", [&] {
      return "group=" + group.str() + " home=" + home.str() + " coa=" +
             reg.care_of.str();
    });
    Bytes outer = encapsulate(pkt.view(), src, reg.care_of);
    stack_->network().counters().add("proxy/tunnel-bytes", outer.size());
    stack_->send_raw(Packet(std::move(outer)));
  }
}

Address MulticastProxy::proxy_source() const {
  for (const auto& iface : stack_->node().interfaces()) {
    if (iface->attached() && stack_->has_global_address(iface->id())) {
      return stack_->global_address(iface->id());
    }
  }
  return Address();
}

void MulticastProxy::count(std::string_view name, std::uint64_t delta) {
  stack_->network().counters().add(name, delta);
}

}  // namespace mip6

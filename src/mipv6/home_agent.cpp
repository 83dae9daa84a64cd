#include "mipv6/home_agent.hpp"

#include <algorithm>

#include "ipv6/icmpv6.hpp"
#include "ipv6/tunnel.hpp"
#include "mld/messages.hpp"
#include "net/wire_stats.hpp"
#include "pimdm/dense_engine.hpp"

namespace mip6 {
namespace {

// Lifetime of tunnel-MLD listener state: the MLD Multicast Listener
// Interval the paper quotes.
constexpr Time kTunnelMembershipLifetime = Time::sec(260);

}  // namespace

HomeAgent::HomeAgent(Ipv6Stack& stack, DenseModeEngine& dense,
                     Mipv6Config config)
    : stack_(&stack), component_("ha/" + stack.node().name()), dense_(&dense),
      config_(config), cache_(stack.scheduler()),
      c_tunnel_bytes_(stack.network().counters().cell("ha/tunnel-bytes")),
      c_encap_multicast_(
          stack.network().counters().cell("ha/encap-multicast")),
      c_decap_(stack.network().counters().cell("ha/decap")),
      c_decap_multicast_(
          stack.network().counters().cell("ha/decap-multicast")) {
  stack.set_option_handler(
      opt::kBindingUpdate,
      [this](const DestOption& o, const ParsedDatagram& d, IfaceId) {
        ParseResult<BindingUpdateOption> bu =
            BindingUpdateOption::try_decode(o);
        if (!bu.ok()) {
          count("ha/rx-drop/bad-bu");
          note_parse_reject(stack_->network(), "mipv6", bu.failure());
          return;
        }
        on_binding_update(bu.value(), d);
      });
  stack.set_intercept_handler(
      [this](const ParsedDatagram& d, const Packet& pkt) {
        on_intercepted(d, pkt);
      });
  stack.set_proto_handler(
      proto::kIpv6,
      [this](const ParsedDatagram& d, const Packet&, IfaceId) {
        on_tunneled(d);
      });
  group_hook_token_ = stack.add_group_delivery_hook(
      [this](const ParsedDatagram& d, const Packet& pkt, IfaceId) {
        on_group_delivery(d, pkt);
      });
  cache_.set_expiry_callback(
      [this](const BindingCache::Entry& e) { on_binding_expired(e); });
}

void HomeAgent::stop() {
  clear_bindings();
  stack_->clear_option_handler(opt::kBindingUpdate);
  stack_->clear_intercept_handler();
  stack_->clear_proto_handler(proto::kIpv6);
  stack_->remove_group_delivery_hook(group_hook_token_);
}

// ---------------------------------------------------------------------------
// Binding management

void HomeAgent::on_binding_update(const BindingUpdateOption& bu,
                                  const ParsedDatagram& d) {
  if (!enabled_) {
    count("ha/drop/disabled-bu");
    return;
  }
  if (!bu.home_registration) return;
  // Draft-10: a BU from a roaming MN arrives with the care-of address as
  // IPv6 source and the home address in a Home Address destination option;
  // a deregistration sent from home carries the home address as plain
  // source. effective_src covers both.
  const Address home = d.effective_src;
  const Address care_of = d.hdr.src;
  count("ha/rx/bu");
  trace_event("rx-bu", [&] {
    return "home=" + home.str() + " coa=" + care_of.str() + " lifetime=" +
           std::to_string(bu.lifetime_s);
  });

  if (bu.lifetime_s == 0 || care_of == home) {
    // Deregistration (mobile node returned home).
    trace_event("dereg", [&] { return "home=" + home.str(); });
    BindingCache::Entry* old = cache_.find(home);
    if (old != nullptr && on_binding_change_) on_binding_change_(*old, true);
    set_binding_groups(home, {});
    cache_.remove(home);
    stack_->remove_intercept(home);
    if (bu.ack_requested) send_binding_ack(home, care_of, bu.sequence);
    return;
  }

  BindingCache::Entry& entry =
      cache_.update(home, care_of, bu.sequence, Time::sec(bu.lifetime_s));
  stack_->add_intercept(home);

  if (const BuSubOption* sub =
          bu.find_sub_option(subopt::kMulticastGroupList)) {
    ParseResult<MulticastGroupListSubOption> mgl =
        MulticastGroupListSubOption::try_decode(*sub);
    if (mgl.ok()) {
      set_binding_groups(home, std::move(mgl).value().groups);
      count("ha/rx/bu-group-list");
    } else {
      count("ha/rx-drop/bad-group-list");
      note_parse_reject(stack_->network(), "mipv6", mgl.failure());
    }
  }
  if (const BuSubOption* sub = bu.find_sub_option(subopt::kMulticastCareOf)) {
    ParseResult<MulticastCareOfSubOption> mc =
        MulticastCareOfSubOption::try_decode(*sub);
    if (mc.ok()) {
      entry.mcast_care_of = mc.value().group;
      count("ha/rx/bu-mcast-coa");
    } else {
      count("ha/rx-drop/bad-mcast-coa");
      note_parse_reject(stack_->network(), "mipv6", mc.failure());
    }
  } else {
    // Sub-option absent: fall back to the unicast tunnel (an MN that
    // switched strategies must not keep its old relay mode).
    entry.mcast_care_of = Address();
  }
  if (bu.ack_requested) send_binding_ack(home, care_of, bu.sequence);
  if (on_binding_change_) {
    if (const BindingCache::Entry* e = cache_.find(home)) {
      on_binding_change_(*e, false);
    }
  }
}

void HomeAgent::adopt_binding(const Address& home, const Address& care_of,
                              std::uint16_t sequence, Time lifetime,
                              std::vector<Address> groups) {
  cache_.update(home, care_of, sequence, lifetime);
  stack_->add_intercept(home);
  set_binding_groups(home, std::move(groups));
  count("ha/binding-adopted");
}

void HomeAgent::clear_bindings() {
  for (const BindingCache::Entry* e : cache_.entries()) {
    stack_->remove_intercept(e->home);
    for (const Address& g : e->groups) unref_group(g);
  }
  for (const auto& [key, timer] : tunnel_memberships_) {
    unref_group(key.second);
  }
  tunnel_memberships_.clear();
  cache_.clear();
  count("ha/bindings-cleared");
}

void HomeAgent::set_enabled(bool enabled) {
  if (enabled_ == enabled) return;
  enabled_ = enabled;
  count(enabled ? "ha/enabled" : "ha/disabled");
}

void HomeAgent::drop_binding(const Address& home) {
  if (cache_.find(home) == nullptr) return;
  set_binding_groups(home, {});
  cache_.remove(home);
  stack_->remove_intercept(home);
  count("ha/binding-dropped");
}

void HomeAgent::on_binding_expired(const BindingCache::Entry& expired) {
  count("ha/binding-expired");
  trace_event("binding-expired",
              [&] { return "home=" + expired.home.str(); });
  const Address& home = expired.home;
  stack_->remove_intercept(home);
  // Give up multicast representation for this MN: both the BU-registered
  // groups and any tunnel-MLD listener state.
  for (const Address& g : expired.groups) unref_group(g);
  for (auto it = tunnel_memberships_.begin();
       it != tunnel_memberships_.end();) {
    if (it->first.first == home) {
      unref_group(it->first.second);
      it = tunnel_memberships_.erase(it);
    } else {
      ++it;
    }
  }
}

void HomeAgent::set_binding_groups(const Address& home,
                                   std::vector<Address> groups) {
  BindingCache::Entry* e = cache_.find(home);
  std::vector<Address> old;
  if (e != nullptr) old = e->groups;
  for (const auto& g : groups) {
    if (std::find(old.begin(), old.end(), g) == old.end()) ref_group(g);
  }
  for (const auto& g : old) {
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      unref_group(g);
    }
  }
  if (e != nullptr) e->groups = std::move(groups);
}

// ---------------------------------------------------------------------------
// Group membership on behalf of mobile nodes

void HomeAgent::ref_group(const Address& group) {
  if (++group_refs_[group] == 1) dense_->add_local_receiver(group);
}

void HomeAgent::unref_group(const Address& group) {
  auto it = group_refs_.find(group);
  if (it == group_refs_.end()) return;
  if (--it->second <= 0) {
    group_refs_.erase(it);
    dense_->remove_local_receiver(group);
  }
}

void HomeAgent::register_tunnel_membership(const Address& home,
                                           const Address& group) {
  auto key = std::make_pair(home, group);
  auto it = tunnel_memberships_.find(key);
  if (it == tunnel_memberships_.end()) {
    auto timer = std::make_unique<Timer>(
        stack_->scheduler(),
        [this, home, group] { expire_tunnel_membership(home, group); }, stack_->node().domain());
    timer->arm(kTunnelMembershipLifetime);
    tunnel_memberships_.emplace(key, std::move(timer));
    ref_group(group);
    count("ha/tunnel-membership-added");
  } else {
    it->second->arm(kTunnelMembershipLifetime);
  }
}

void HomeAgent::expire_tunnel_membership(const Address& home,
                                         const Address& group) {
  if (tunnel_memberships_.erase({home, group}) > 0) {
    unref_group(group);
    count("ha/tunnel-membership-expired");
  }
}

// ---------------------------------------------------------------------------
// Data plane

void HomeAgent::on_intercepted(const ParsedDatagram& d, const Packet& pkt) {
  if (!enabled_) {
    count("ha/drop/disabled-intercept");
    return;
  }
  const BindingCache::Entry* e = cache_.find(d.hdr.dst);
  if (e == nullptr) {
    count("ha/drop/intercept-without-binding");
    return;
  }
  count("ha/encap-unicast");
  trace_event("intercept", [&] {
    return "home=" + e->home.str() + " coa=" + e->care_of.str() + " bytes=" +
           std::to_string(pkt.size());
  });
  tunnel_to(e->home, e->care_of, pkt.view());
}

void HomeAgent::on_group_delivery(const ParsedDatagram& d, const Packet& pkt) {
  if (!enabled_) return;
  const Address& group = d.hdr.dst;
  if (!group_refs_.contains(group)) return;
  // In place: the sends below schedule link transmissions, and the
  // mcast-mobility relay re-enters receive_as_if with an encapsulated
  // datagram that carries no Binding Update, so no binding comes or goes.
  cache_.for_each([&](const BindingCache::Entry& e) {
    bool in_bu_list =
        std::find(e.groups.begin(), e.groups.end(), group) != e.groups.end();
    bool in_tunnel_mld = tunnel_memberships_.contains({e.home, group});
    if (!in_bu_list && !in_tunnel_mld) return;
    if (!e.mcast_care_of.is_unspecified()) {
      // mcast-mobility: relay into the MN's reachability group G_mn; the
      // dense-mode tree rooted here delivers to whichever access routers
      // have joined on the MN's behalf.
      count("ha/encap-mcast-coa");
      trace_event("relay-mcast-coa", [&] {
        return "group=" + group.str() + " home=" + e.home.str() + " gmn=" +
               e.mcast_care_of.str();
      });
      relay_to_mcast_care_of(e.home, e.mcast_care_of, pkt.view());
      return;
    }
    c_encap_multicast_.add();
    trace_event("tunnel-multicast", [&] {
      return "group=" + group.str() + " home=" + e.home.str() + " coa=" +
             e.care_of.str();
    });
    tunnel_to(e.home, e.care_of, pkt.view());
  });
}

void HomeAgent::on_tunneled(const ParsedDatagram& outer) {
  // Encapsulated traffic addressed to a multicast group (a relay into an
  // mcast-mobility reachability group) is for the *member MNs*, not for
  // every promiscuous router that happens to run a home agent — decapsulate
  // only what is unicast-addressed to us. Silent: this is normal transit
  // traffic, not an error.
  if (outer.hdr.dst.is_multicast()) return;
  if (!enabled_) {
    count("ha/drop/disabled-tunnel");
    return;
  }
  ParseResult<InnerDatagram> decap = try_decapsulate(outer);
  if (!decap.ok()) {
    count("ha/rx-drop/bad-tunnel");
    note_parse_reject(stack_->network(), "mipv6", decap.failure());
    return;
  }
  // Every path below hands on this one buffer and its parse.
  const Packet& inner = decap.value().packet;
  const ParsedDatagram& in = decap.value().datagram;
  c_decap_.add();
  trace_event("decap", [&] {
    return "src=" + in.hdr.src.str() + " dst=" + in.hdr.dst.str();
  });

  // MLD Report through the tunnel (tunnel-as-interface variant): the MN
  // maintains its home-link group membership via the tunnel.
  if (in.protocol == proto::kIcmpv6 && in.hdr.dst.is_multicast()) {
    ParseResult<Icmpv6Message> icmp =
        Icmpv6Message::try_parse(in.payload, in.hdr.src, in.hdr.dst);
    if (!icmp.ok()) {
      count("ha/rx-drop/bad-tunneled-mld");
      note_parse_reject(stack_->network(), "mipv6", icmp.failure());
      return;
    }
    if (icmp.value().type == icmpv6::kMldReport) {
      ParseResult<MldMessage> rep = MldMessage::try_from_icmpv6(icmp.value());
      if (!rep.ok()) {
        count("ha/rx-drop/bad-tunneled-mld");
        note_parse_reject(stack_->network(), "mipv6", rep.failure());
        return;
      }
      register_tunnel_membership(in.hdr.src, rep.value().group);
      count("ha/rx/tunneled-mld-report");
      trace_event("tunneled-mld-report", [&] {
        return "home=" + in.hdr.src.str() + " group=" + rep.value().group.str();
      });
      // Also place the Report on the home link so an MLD querier other
      // than ourselves learns the membership.
      if (auto hi = iface_for_home(in.hdr.src)) {
        stack_->send_raw_on_iface(*hi, inner);
      }
      return;
    }
  }

  if (in.hdr.dst.is_multicast()) {
    // Reverse-tunneled multicast from a mobile sender: re-originate on the
    // home link (paper Figure 4) and run it through our own forwarding
    // plane so the source-rooted tree rooted at the home link is used.
    c_decap_multicast_.add();
    auto hi = iface_for_home(in.hdr.src);
    if (!hi) {
      count("ha/drop/unknown-home-link");
      return;
    }
    stack_->send_raw_on_iface(*hi, inner);
    stack_->receive_as_if(*hi, in, inner);
    return;
  }

  // Reverse-tunneled unicast: forward like a freshly received datagram.
  if (auto hi = iface_for_home(in.hdr.src)) {
    stack_->receive_as_if(*hi, in, inner);
  }
}

std::optional<IfaceId> HomeAgent::iface_for_home(const Address& home) const {
  if (auto link = stack_->plan().link_of(home)) {
    for (const auto& iface : stack_->node().interfaces()) {
      if (iface->attached() && iface->link()->id() == *link) {
        return iface->id();
      }
    }
  }
  // Fallback: any interface with a global address.
  for (const auto& iface : stack_->node().interfaces()) {
    if (stack_->has_global_address(iface->id())) return iface->id();
  }
  return std::nullopt;
}

void HomeAgent::tunnel_to(const Address& home, const Address& care_of,
                          BytesView inner) {
  auto hi = iface_for_home(home);
  if (!hi || !stack_->has_global_address(*hi)) {
    count("ha/drop/no-tunnel-source");
    return;
  }
  Address src = stack_->global_address(*hi);
  Bytes outer = encapsulate(inner, src, care_of);
  c_tunnel_bytes_.add(outer.size());
  stack_->send_raw(Packet(std::move(outer)));
}

void HomeAgent::relay_to_mcast_care_of(const Address& home,
                                       const Address& group_coa,
                                       BytesView inner) {
  auto hi = iface_for_home(home);
  if (!hi || !stack_->has_global_address(*hi)) {
    count("ha/drop/no-tunnel-source");
    return;
  }
  // Re-originate the encapsulated copy on the home interface (RPF-
  // consistent: the (HA, G_mn) dense-mode tree roots at the home link) and
  // run it through our own forwarding plane so downstream routers flood it.
  const Packet outer(
      encapsulate(inner, stack_->global_address(*hi), group_coa));
  c_tunnel_bytes_.add(outer.size());
  stack_->send_raw_on_iface(*hi, outer);
  stack_->receive_as_if(*hi, outer);
}

void HomeAgent::send_binding_ack(const Address& home, const Address& care_of,
                                 std::uint16_t sequence) {
  BindingAckOption ack;
  ack.status = 0;
  ack.sequence = sequence;
  ack.lifetime_s =
      static_cast<std::uint32_t>(config_.binding_lifetime.to_seconds());
  ack.refresh_s =
      static_cast<std::uint32_t>(config_.bu_refresh_interval.to_seconds());
  DatagramSpec spec;
  auto hi = iface_for_home(home);
  if (!hi || !stack_->has_global_address(*hi)) return;
  spec.src = stack_->global_address(*hi);
  spec.dst = care_of;
  spec.dest_options.push_back(ack.encode());
  spec.protocol = proto::kNoNext;
  (void)home;
  count("ha/tx/back");
  stack_->send(spec);
}

void HomeAgent::count(std::string_view name, std::uint64_t delta) {
  stack_->network().counters().add(name, delta);
}

}  // namespace mip6

#include "mipv6/mobile_node.hpp"

#include "ipv6/icmpv6.hpp"
#include "ipv6/tunnel.hpp"
#include "mld/messages.hpp"
#include "net/wire_stats.hpp"

namespace mip6 {

MobileNode::MobileNode(Ipv6Stack& stack, IfaceId iface, Address home_address,
                       Address home_agent, Mipv6Config config)
    : stack_(&stack), iface_(iface), home_address_(home_address),
      home_agent_(home_agent), config_(config),
      c_decap_(stack.network().counters().cell("mn/decap")),
      c_encap_(stack.network().counters().cell("mn/encap")),
      c_tunnel_bytes_(stack.network().counters().cell("mn/tunnel-bytes")) {
  // The home address belongs to the MN permanently.
  stack.add_address(iface, home_address, /*pinned=*/true);

  movement_timer_ = std::make_unique<Timer>(
      stack.scheduler(), [this] { complete_attachment(); });
  // Attachment completion autoconfigures addresses and filters that
  // neighbor resolution on other shards reads; it must run structurally
  // (all shards quiesced), like the move that armed it.
  movement_timer_->bind_domain(kWorldDomain);
  bu_refresh_timer_ = std::make_unique<Timer>(
      stack.scheduler(), [this] {
        if (away_from_home()) {
          send_binding_update();
          bu_refresh_timer_->arm(config_.bu_refresh_interval);
        }
      }, stack.node().domain());
  bu_retransmit_timer_ = std::make_unique<Timer>(
      stack.scheduler(), [this] { retransmit_binding_update(); }, stack.node().domain());

  Interface& i = stack.node().iface_by_id(iface);
  i.set_link_change_handler([this](Link* link) { on_link_changed(link); });

  // Binding Acknowledgements arrive as destination options.
  stack.set_option_handler(
      opt::kBindingAck,
      [this](const DestOption& o, const ParsedDatagram&, IfaceId) {
        ParseResult<BindingAckOption> ack = BindingAckOption::try_decode(o);
        if (!ack.ok()) {
          count("mn/rx-drop/bad-back");
          note_parse_reject(stack_->network(), "mipv6", ack.failure());
          return;
        }
        on_binding_ack(ack.value());
      });

  // Tunneled traffic from the home agent: decapsulate and re-process the
  // inner datagram as if it had arrived natively.
  stack.set_proto_handler(
      proto::kIpv6,
      [this](const ParsedDatagram& d, const Packet&, IfaceId rx_iface) {
        ParseResult<InnerDatagram> inner = try_decapsulate(d);
        if (!inner.ok()) {
          count("mn/rx-drop/bad-tunnel");
          note_parse_reject(stack_->network(), "mipv6", inner.failure());
          return;
        }
        c_decap_.add();
        stack_->receive_as_if(rx_iface, inner.value().datagram,
                              inner.value().packet);
      });
}

Address MobileNode::current_source() const {
  return care_of_.is_unspecified() ? home_address_ : care_of_;
}

void MobileNode::subscribe(const Address& group) {
  subscriptions_.insert(group);
  stack_->join_local_group(iface_, group);
}

void MobileNode::unsubscribe(const Address& group) {
  subscriptions_.erase(group);
  stack_->leave_local_group(iface_, group);
  stop_tunneled_reports(group);
}

void MobileNode::move_to(Link& target) {
  Interface& i = stack_->node().iface_by_id(iface_);
  i.detach();
  i.attach(target);
}

void MobileNode::reset_soft_state() {
  care_of_ = Address();
  binding_acked_ = false;
  bu_retransmits_left_ = 0;
  bu_retransmit_current_ = Time::zero();
  last_bu_ = Packet();
  movement_timer_->cancel();
  bu_refresh_timer_->cancel();
  bu_retransmit_timer_->cancel();
  tunneled_reports_.clear();  // cancels the report timers
  count("mn/soft-state-reset");
}

void MobileNode::stop() {
  reset_soft_state();
  stack_->clear_option_handler(opt::kBindingAck);
  stack_->clear_proto_handler(proto::kIpv6);
  stack_->node().iface_by_id(iface_).set_link_change_handler(nullptr);
}

void MobileNode::on_link_changed(Link* link) {
  movement_timer_->cancel();
  if (on_link_change_) on_link_change_();
  if (link == nullptr) return;  // out of coverage
  // Movement detection + address configuration takes a while; until it
  // completes, outgoing traffic keeps the stale source address.
  movement_timer_->arm(config_.movement_detection_delay);
}

void MobileNode::complete_attachment() {
  stack_->autoconfigure(iface_);
  Interface& i = stack_->node().iface_by_id(iface_);
  if (i.link() == nullptr) return;

  bool at_home = false;
  if (stack_->plan().has_prefix(i.link()->id())) {
    at_home = stack_->plan().prefix_of(i.link()->id()).contains(home_address_);
  }
  if (at_home) {
    // Returning home: deregister the binding (lifetime 0 BU).
    care_of_ = Address();
    binding_acked_ = false;
    bu_refresh_timer_->cancel();
    send_binding_update();
  } else {
    // The care-of address is the SLAAC address of the *visited* link (the
    // pinned home address also lives on the interface, so "any global
    // address" would be wrong here).
    care_of_ = Address();
    if (stack_->plan().has_prefix(i.link()->id())) {
      care_of_ = Address::from_prefix_iid(
          stack_->plan().prefix_of(i.link()->id()).network(), stack_->iid());
    }
    // With no prefix on the foreign link there is no care-of address and
    // no connectivity; stay silent until the next move.
    binding_acked_ = false;
    if (!care_of_.is_unspecified()) {
      send_binding_update();
      bu_refresh_timer_->arm(config_.bu_refresh_interval);
    }
  }
  count("mn/attached");
  if (on_attached_) on_attached_();
}

void MobileNode::send_binding_update() {
  std::optional<std::vector<Address>> groups;
  if (group_list_in_bu_ && away_from_home()) {
    groups.emplace(subscriptions_.begin(), subscriptions_.end());
  }
  send_bu_impl(std::move(groups));
}

void MobileNode::send_binding_update_with_group_list(
    std::vector<Address> groups) {
  send_bu_impl(std::move(groups));
}

void MobileNode::send_bu_impl(std::optional<std::vector<Address>> groups) {
  ++bu_sequence_;
  BindingUpdateOption bu;
  bu.home_registration = true;
  bu.ack_requested = config_.request_ack;
  bu.sequence = bu_sequence_;
  bu.lifetime_s = away_from_home()
                      ? static_cast<std::uint32_t>(
                            config_.binding_lifetime.to_seconds())
                      : 0;
  if (groups.has_value() && away_from_home()) {
    MulticastGroupListSubOption list;
    list.groups = std::move(*groups);
    bu.sub_options.push_back(list.encode());
  }
  if (!mcast_care_of_.is_unspecified() && away_from_home()) {
    bu.sub_options.push_back(MulticastCareOfSubOption{mcast_care_of_}.encode());
  }

  DatagramSpec spec;
  spec.src = current_source();
  spec.dst = home_agent_;
  spec.dest_options.push_back(bu.encode());
  // Draft-10: packets sent while away carry the Home Address option so the
  // recipient can identify the mobile node.
  if (away_from_home()) {
    spec.dest_options.push_back(HomeAddressOption{home_address_}.encode());
  }
  spec.protocol = proto::kNoNext;
  const Packet wire(build_datagram(spec));
  stack_->network().counters().add("mn/bu-bytes", wire.size());
  count("mn/tx/bu");

  if (config_.request_ack) {
    // A fresh BU (new sequence number) restarts the retransmission budget
    // and resets the backoff to the initial interval.
    last_bu_ = wire;
    bu_retransmits_left_ = config_.bu_max_retransmits;
    bu_retransmit_current_ = config_.bu_retransmit_interval;
    bu_retransmit_timer_->arm(bu_retransmit_current_);
  }
  stack_->send_raw(wire);
}

void MobileNode::retransmit_binding_update() {
  if (binding_acked_ || bu_retransmits_left_ <= 0 || last_bu_.size() == 0) {
    return;
  }
  --bu_retransmits_left_;
  count("mn/bu-retransmit");
  stack_->network().counters().add("mn/bu-bytes", last_bu_.size());
  count("mn/tx/bu");
  stack_->send_raw(last_bu_);
  // Exponential backoff (draft-10 §5.5.5): double up to the ceiling. A dead
  // home agent costs O(log) signaling, not a fixed-rate stream.
  Time next = bu_retransmit_current_ * 2;
  if (next > config_.bu_retransmit_max) next = config_.bu_retransmit_max;
  bu_retransmit_current_ = next;
  count("mn/bu-backoff-step");
  if (bu_retransmits_left_ > 0) bu_retransmit_timer_->arm(bu_retransmit_current_);
}

void MobileNode::on_binding_ack(const BindingAckOption& ack) {
  if (ack.sequence != bu_sequence_) return;  // stale ack
  count("mn/rx/back");
  if (ack.status == 0) {
    binding_acked_ = true;
    bu_retransmit_timer_->cancel();
  }
}

bool MobileNode::tunnel_to_ha(Bytes inner) {
  Bytes outer = encapsulate(inner, current_source(), home_agent_);
  c_tunnel_bytes_.add(outer.size());
  c_encap_.add();
  return stack_->send_raw(Packet(std::move(outer)));
}

void MobileNode::start_tunneled_reports(const Address& group, Time interval) {
  auto [it, fresh] = tunneled_reports_.try_emplace(group);
  it->second.interval = interval;
  if (fresh) {
    it->second.timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, group] {
          send_tunneled_report(group);
          auto rit = tunneled_reports_.find(group);
          if (rit != tunneled_reports_.end()) {
            rit->second.timer->arm(rit->second.interval);
          }
        }, stack_->node().domain());
  }
  send_tunneled_report(group);
  it->second.timer->arm(interval);
}

void MobileNode::stop_tunneled_reports(const Address& group) {
  tunneled_reports_.erase(group);
}

void MobileNode::send_tunneled_report(const Address& group) {
  if (!away_from_home()) return;
  MldMessage rep;
  rep.type = MldType::kReport;
  rep.group = group;
  DatagramSpec inner;
  // Inner source is the home address: through the tunnel the MN is
  // virtually present on its home link.
  inner.src = home_address_;
  inner.dst = group;
  inner.hop_limit = 1;
  inner.protocol = proto::kIcmpv6;
  inner.payload = rep.to_icmpv6().serialize(inner.src, inner.dst);
  count("mn/tx/tunneled-report");
  tunnel_to_ha(build_datagram(inner));
}

void MobileNode::count(std::string_view name, std::uint64_t delta) {
  stack_->network().counters().add(name, delta);
}

}  // namespace mip6

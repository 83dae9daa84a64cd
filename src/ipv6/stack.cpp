#include "ipv6/stack.hpp"

#include <algorithm>
#include <bit>

#include "ipv6/icmpv6.hpp"
#include "net/wire_stats.hpp"
#include "util/errors.hpp"

namespace mip6 {

Ipv6Stack::Ipv6Stack(Node& node, AddressingPlan& plan, bool forwarding)
    : node_(&node), plan_(&plan), forwarding_(forwarding),
      c_fwd_(node.network().counters().cell("ipv6/fwd")) {
  for (const auto& iface : node.interfaces()) register_iface(*iface);
}

void Ipv6Stack::register_iface(Interface& iface) {
  IfaceId id = iface.id();
  iface.set_rx_handler([this, id](const Packet& pkt) { on_rx(id, pkt); });
  iface.set_address_filter([this](BytesView octets) {
    Address a = Address::from_bytes(octets);
    return owns_address(a) || intercepts(a);
  });
  addrs_.try_emplace(id);
  groups_.try_emplace(id);
}

// ---------------------------------------------------------------------------
// Addresses

void Ipv6Stack::add_address(IfaceId iface, const Address& addr, bool pinned) {
  auto& list = addrs_[iface];
  for (auto& e : list) {
    if (e.addr == addr) {
      e.pinned = e.pinned || pinned;
      return;
    }
  }
  list.push_back(AddrEntry{addr, pinned});
}

void Ipv6Stack::remove_address(IfaceId iface, const Address& addr) {
  auto it = addrs_.find(iface);
  if (it == addrs_.end()) return;
  std::erase_if(it->second,
                [&](const AddrEntry& e) { return e.addr == addr; });
}

bool Ipv6Stack::owns_address(const Address& addr) const {
  for (const auto& [id, list] : addrs_) {
    for (const auto& e : list) {
      if (e.addr == addr) return true;
    }
  }
  return false;
}

std::vector<Address> Ipv6Stack::addresses(IfaceId iface) const {
  std::vector<Address> out;
  auto it = addrs_.find(iface);
  if (it != addrs_.end()) {
    for (const auto& e : it->second) out.push_back(e.addr);
  }
  return out;
}

Address Ipv6Stack::global_address(IfaceId iface) const {
  auto it = addrs_.find(iface);
  if (it != addrs_.end()) {
    for (const auto& e : it->second) {
      if (!e.addr.is_link_local_unicast() && !e.addr.is_multicast()) {
        return e.addr;
      }
    }
  }
  throw LogicError(node_->name() + "/if" + std::to_string(iface) +
                   " has no global address");
}

bool Ipv6Stack::has_global_address(IfaceId iface) const {
  auto it = addrs_.find(iface);
  if (it == addrs_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [](const AddrEntry& e) {
                       return !e.addr.is_link_local_unicast() &&
                              !e.addr.is_multicast();
                     });
}

Address Ipv6Stack::link_local_address(IfaceId iface) const {
  auto it = addrs_.find(iface);
  if (it != addrs_.end()) {
    for (const auto& e : it->second) {
      if (e.addr.is_link_local_unicast()) return e.addr;
    }
  }
  throw LogicError(node_->name() + "/if" + std::to_string(iface) +
                   " has no link-local address");
}

bool Ipv6Stack::has_link_local(IfaceId iface) const {
  auto it = addrs_.find(iface);
  if (it == addrs_.end()) return false;
  return std::any_of(
      it->second.begin(), it->second.end(),
      [](const AddrEntry& e) { return e.addr.is_link_local_unicast(); });
}

void Ipv6Stack::autoconfigure(IfaceId iface) {
  auto& list = addrs_[iface];
  std::erase_if(list, [](const AddrEntry& e) { return !e.pinned; });
  // Hosts keep only autoconfigured routes; flush stale on-link/default
  // entries from the previous attachment.
  if (!forwarding_) rib_.clear();

  Interface& i = node_->iface_by_id(iface);
  // fe80::/64 + iid
  add_address(iface,
              Address::from_prefix_iid(Address::parse("fe80::"), iid()));
  if (i.link() == nullptr) return;
  LinkId lid = i.link()->id();
  if (plan_->has_prefix(lid)) {
    add_address(iface, Address::from_prefix_iid(
                           plan_->prefix_of(lid).network(), iid()));
    if (!forwarding_) {
      // Hosts: on-link route for the local prefix, default via the router.
      rib_.remove_prefix(plan_->prefix_of(lid));
      rib_.add(Route{plan_->prefix_of(lid), iface, Address(), 0});
      if (auto gw = plan_->default_router(lid)) {
        rib_.set_default(iface, *gw);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Groups

void Ipv6Stack::join_local_group(IfaceId iface, const Address& group) {
  groups_[iface].insert(group);
}

void Ipv6Stack::leave_local_group(IfaceId iface, const Address& group) {
  auto it = groups_.find(iface);
  if (it != groups_.end()) it->second.erase(group);
}

bool Ipv6Stack::in_group(IfaceId iface, const Address& group) const {
  auto it = groups_.find(iface);
  return it != groups_.end() && it->second.contains(group);
}

// ---------------------------------------------------------------------------
// Sending

Interface* Ipv6Stack::iface_ptr(IfaceId id) const {
  return &node_->iface_by_id(id);
}

bool Ipv6Stack::transmit_unicast_on(IfaceId iface, const Address& l2_target,
                                    const Packet& pkt) {
  Interface* i = iface_ptr(iface);
  if (!i->attached()) {
    count("ipv6/tx-drop/detached");
    return false;
  }
  Interface* peer = i->link()->resolve(BytesView(l2_target.bytes()), i);
  if (peer == nullptr) {
    count("ipv6/tx-drop/neighbor-unresolved");
    return false;
  }
  i->send_to(pkt, peer->id());
  return true;
}

bool Ipv6Stack::send(const DatagramSpec& spec) {
  return send_raw(build_datagram(spec));
}

bool Ipv6Stack::send_raw(Bytes datagram) {
  // The octets were built or already verified by this node: a parse
  // failure is a caller bug.
  const ParseResult<ParsedDatagram> d = try_parse_datagram(datagram);
  if (!d.ok()) {
    throw LogicError("send_raw on a malformed datagram: " + d.failure().str());
  }
  const Address& dst = d.value().hdr.dst;
  Packet pkt = network().make_packet(std::move(datagram));
  if (dst.is_multicast()) {
    throw LogicError("send_raw with multicast destination; use send_on_iface");
  }
  const Route* route = rib_.lookup(dst);
  if (route == nullptr) {
    count("ipv6/tx-drop/no-route");
    return false;
  }
  const Address& target = route->on_link() ? dst : route->next_hop;
  return transmit_unicast_on(route->out_iface, target, pkt);
}

bool Ipv6Stack::send_on_iface(IfaceId iface, const DatagramSpec& spec) {
  return send_raw_on_iface(iface, build_datagram(spec));
}

bool Ipv6Stack::send_raw_on_iface(IfaceId iface, Bytes datagram) {
  const ParseResult<ParsedDatagram> d = try_parse_datagram(datagram);
  if (!d.ok()) {
    throw LogicError("send_raw_on_iface on a malformed datagram: " +
                     d.failure().str());
  }
  const Address& dst = d.value().hdr.dst;
  Packet pkt = network().make_packet(std::move(datagram));
  Interface* i = iface_ptr(iface);
  if (!i->attached()) {
    count("ipv6/tx-drop/detached");
    return false;
  }
  if (dst.is_multicast()) {
    i->send(pkt);
    return true;
  }
  return transmit_unicast_on(iface, dst, pkt);
}

void Ipv6Stack::receive_as_if(IfaceId iface, Bytes datagram) {
  Packet pkt = network().make_packet(std::move(datagram));
  process(iface, pkt);
}

// ---------------------------------------------------------------------------
// Handlers

void Ipv6Stack::set_proto_handler(std::uint8_t protocol, ProtoHandler h) {
  proto_handlers_[protocol] = std::move(h);
}

void Ipv6Stack::clear_proto_handler(std::uint8_t protocol) {
  proto_handlers_.erase(protocol);
}

void Ipv6Stack::set_option_handler(std::uint8_t type, OptionHandler h) {
  option_handlers_[type] = std::move(h);
}

void Ipv6Stack::clear_option_handler(std::uint8_t type) {
  option_handlers_.erase(type);
}

std::size_t Ipv6Stack::add_group_delivery_hook(GroupDeliveryHook h) {
  group_hooks_.push_back(std::move(h));
  return group_hooks_.size() - 1;
}

void Ipv6Stack::remove_group_delivery_hook(std::size_t token) {
  if (token < group_hooks_.size()) group_hooks_[token] = nullptr;
}

void Ipv6Stack::stop() {
  proto_handlers_.clear();
  option_handlers_.clear();
  group_hooks_.clear();
  mcast_forwarder_ = nullptr;
  intercept_ = nullptr;
}

// ---------------------------------------------------------------------------
// Intercepts

void Ipv6Stack::add_intercept(const Address& home_addr) {
  intercepts_.insert(home_addr);
}

void Ipv6Stack::remove_intercept(const Address& home_addr) {
  intercepts_.erase(home_addr);
}

bool Ipv6Stack::intercepts(const Address& addr) const {
  return intercepts_.contains(addr);
}

// ---------------------------------------------------------------------------
// Receive path

void Ipv6Stack::on_rx(IfaceId iface, const Packet& pkt) {
  process(iface, pkt);
}

void Ipv6Stack::process(IfaceId iface, const Packet& pkt) {
  ParseResult<ParsedDatagram> parsed = try_parse_datagram(pkt.view());
  if (!parsed.ok()) {
    count("ipv6/rx-drop/parse-error");
    note_parse_reject(network(), "ipv6", parsed.failure());
    return;
  }
  ParsedDatagram d = std::move(parsed).value();

  if (d.hdr.dst.is_multicast()) {
    bool local = d.hdr.dst == Address::all_nodes() ||
                 (forwarding_ && d.hdr.dst == Address::all_routers()) ||
                 mcast_promiscuous_ || in_group(iface, d.hdr.dst);
    if (local) deliver_local(d, pkt, iface);
    // Link-scope multicast is never forwarded off-link; wider scopes go to
    // the multicast routing protocol if one is attached.
    if (forwarding_ && !d.hdr.dst.is_link_scope_multicast() &&
        mcast_forwarder_) {
      mcast_forwarder_(d, pkt, iface);
    }
    return;
  }

  if (owns_address(d.hdr.dst)) {
    deliver_local(d, pkt, iface);
    return;
  }
  if (intercepts(d.hdr.dst)) {
    count("ipv6/intercepted");
    if (intercept_) intercept_(d, pkt);
    return;
  }
  if (forwarding_) {
    forward_unicast(d, pkt);
    return;
  }
  count("ipv6/rx-drop/not-mine");
}

namespace {

// Option types this implementation knows structurally, even on nodes that
// registered no handler for them (a host ignoring a Binding Update must not
// start Parameter-Probleming mobility traffic). Pad1/PadN never surface in
// dest_options — the parser consumes them.
bool recognized_option(std::uint8_t type) {
  return type == opt::kBindingUpdate || type == opt::kBindingAck ||
         type == opt::kBindingRequest || type == opt::kHomeAddress;
}

}  // namespace

void Ipv6Stack::deliver_local(const ParsedDatagram& d, const Packet& pkt,
                              IfaceId iface) {
  for (const auto& o : d.dest_options) {
    auto it = option_handlers_.find(o.type);
    if (it != option_handlers_.end()) {
      it->second(o, d, iface);
      continue;
    }
    if (recognized_option(o.type)) continue;
    // RFC 2460 §4.2: the two high-order bits of an unrecognized option's
    // type select the action.
    switch (o.type >> 6) {
      case 0:  // skip over the option
        break;
      case 1:  // silently discard the datagram
        count("ipv6/rx-drop/unrecognized-option");
        return;
      case 2:  // discard + Parameter Problem, even for multicast dst
        count("ipv6/rx-drop/unrecognized-option");
        send_param_problem(d, pkt, iface, icmpv6::kCodeUnrecognizedOption,
                           o.wire_offset);
        return;
      case 3:  // discard + Parameter Problem only for non-multicast dst
        count("ipv6/rx-drop/unrecognized-option");
        if (!d.hdr.dst.is_multicast()) {
          send_param_problem(d, pkt, iface, icmpv6::kCodeUnrecognizedOption,
                             o.wire_offset);
        }
        return;
    }
  }
  if (d.hdr.dst.is_multicast()) {
    for (const auto& hook : group_hooks_) {
      if (hook) hook(d, pkt, iface);
    }
  }
  auto it = proto_handlers_.find(d.protocol);
  if (it != proto_handlers_.end()) {
    it->second(d, pkt, iface);
  } else if (d.protocol != proto::kNoNext && !d.hdr.dst.is_multicast()) {
    count("ipv6/rx-drop/no-proto-handler");
    // RFC 2463 §3.4, code 1: unrecognized Next Header. The pointer names
    // the Next Header octet that selected the unknown protocol.
    send_param_problem(d, pkt, iface, icmpv6::kCodeUnrecognizedNextHeader,
                       d.next_header_offset);
  }
}

void Ipv6Stack::send_param_problem(const ParsedDatagram& d, const Packet& pkt,
                                   IfaceId iface, std::uint8_t code,
                                   std::uint32_t pointer) {
  // RFC 2463 §2.4(e): never answer a source that cannot be replied to.
  if (d.hdr.src.is_unspecified() || d.hdr.src.is_multicast()) return;
  Address src;
  if (d.hdr.src.is_link_local_unicast() && has_link_local(iface)) {
    src = link_local_address(iface);
  } else if (has_global_address(iface)) {
    src = global_address(iface);
  } else if (has_link_local(iface)) {
    src = link_local_address(iface);
  } else {
    return;
  }
  Icmpv6Message msg = make_param_problem(code, pointer, pkt.view());
  DatagramSpec spec;
  spec.src = src;
  spec.dst = d.hdr.src;
  spec.protocol = proto::kIcmpv6;
  spec.payload = msg.serialize(src, d.hdr.src);
  count("icmpv6/tx/param-problem");
  if (d.hdr.src.is_link_local_unicast()) {
    send_on_iface(iface, spec);
  } else {
    send(spec);
  }
}

void Ipv6Stack::forward_unicast(const ParsedDatagram& d, const Packet& pkt) {
  // Route first: a routing miss must not burn a pooled buffer copy.
  const Route* route = rib_.lookup(d.hdr.dst);
  if (route == nullptr) {
    count("ipv6/fwd-drop/no-route");
    return;
  }
  Packet fwd = pkt;
  if (!rewrite_decremented(fwd)) {
    count("ipv6/fwd-drop/hop-limit");
    return;
  }
  c_fwd_.add();
  const Address& target = route->on_link() ? d.hdr.dst : route->next_hop;
  transmit_unicast_on(route->out_iface, target, fwd);
}

bool Ipv6Stack::rewrite_decremented(Packet& pkt) {
  auto buf = network().buffer_pool().checkout_copy(pkt.data());
  if (!decrement_hop_limit(*buf)) return false;
  pkt.set_buffer(std::move(buf));
  return true;
}

bool Ipv6Stack::forward_out(const Packet& pkt, IfaceId out_iface) {
  Interface* i = iface_ptr(out_iface);
  if (!i->attached()) {
    count("ipv6/tx-drop/detached");
    return false;
  }
  Packet fwd = pkt;
  if (!rewrite_decremented(fwd)) {
    count("ipv6/fwd-drop/hop-limit");
    return false;
  }
  i->send(fwd);
  return true;
}

std::size_t Ipv6Stack::forward_out_many(const Packet& pkt, const IfSet& oifs,
                                        const MifTable& mifs) {
  if (oifs.empty()) return 0;
  // One decremented copy shared by every outgoing replica: each interface's
  // transmit only bumps the buffer's reference count.
  Packet fwd = pkt;
  if (!rewrite_decremented(fwd)) {
    count("ipv6/fwd-drop/hop-limit");
    return 0;
  }
  std::size_t sent = 0;
  for (std::size_t w = 0; w < IfSet::kWords; ++w) {
    std::uint64_t bits = oifs.word(w);
    while (bits != 0) {
      auto b = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      Interface* i = iface_ptr(mifs.iface(static_cast<Mifi>(w * 64 + b)));
      if (!i->attached()) {
        count("ipv6/tx-drop/detached");
        continue;
      }
      i->send(fwd);
      ++sent;
    }
  }
  return sent;
}

void Ipv6Stack::count(std::string_view name, std::uint64_t delta) const {
  network().counters().add(name, delta);
}

}  // namespace mip6

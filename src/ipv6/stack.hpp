// Per-node IPv6 stack: address ownership, neighbor-resolution filters,
// sending (with unicast routing), receiving (local delivery, option and
// protocol dispatch), router forwarding, and the hooks the multicast and
// mobility engines plug into.
//
// Division of labour: the stack moves serialized datagrams and enforces the
// generic IPv6 rules (hop limit, link-scope multicast never forwarded,
// destination-option dispatch). Everything protocol-specific — MLD, PIM-DM,
// Mobile IPv6 — registers handlers.
#pragma once

#include <string_view>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ipv6/addressing.hpp"
#include "ipv6/datagram.hpp"
#include "ipv6/routing.hpp"
#include "net/mfc.hpp"
#include "net/network.hpp"
#include "net/protocol_module.hpp"

namespace mip6 {

class Ipv6Stack : public ProtocolModule {
 public:
  /// `forwarding` true makes this node a router.
  Ipv6Stack(Node& node, AddressingPlan& plan, bool forwarding);
  Ipv6Stack(const Ipv6Stack&) = delete;
  Ipv6Stack& operator=(const Ipv6Stack&) = delete;

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "ipv6"; }
  /// Forgets every learned route (crash: the RIB is soft state; addresses
  /// and handler registrations belong to configuration and survive).
  void reset() override { rib_.clear(); }
  /// Deterministic teardown: drops every registered handler so dependent
  /// modules can be destroyed in any order after stop().
  void stop() override;

  Node& node() const { return *node_; }
  Network& network() const { return node_->network(); }
  Scheduler& scheduler() const { return network().scheduler(); }
  AddressingPlan& plan() const { return *plan_; }
  bool forwarding() const { return forwarding_; }

  /// Hooks a (possibly later-added) interface into the stack. The stack
  /// constructor registers all interfaces existing at that moment.
  void register_iface(Interface& iface);

  // --- Address configuration -----------------------------------------
  /// `pinned` addresses survive autoconfigure() (the mobile node's home
  /// address is pinned; care-of addresses are not).
  void add_address(IfaceId iface, const Address& addr, bool pinned = false);
  void remove_address(IfaceId iface, const Address& addr);
  bool owns_address(const Address& addr) const;
  std::vector<Address> addresses(IfaceId iface) const;
  /// First global (non-link-local) address on the interface; throws if none.
  Address global_address(IfaceId iface) const;
  bool has_global_address(IfaceId iface) const;
  Address link_local_address(IfaceId iface) const;
  bool has_link_local(IfaceId iface) const;
  std::uint64_t iid() const { return AddressingPlan::iid_for_node(node_->id()); }

  /// SLAAC against the addressing plan for the currently attached link:
  /// removes non-pinned addresses, assigns fe80::iid plus prefix:iid (if the
  /// link has a prefix), and — on hosts — installs the default route via the
  /// link's default router. No-op address-wise if detached (addresses are
  /// still flushed).
  void autoconfigure(IfaceId iface);

  // --- Multicast group membership (receive filter) --------------------
  void join_local_group(IfaceId iface, const Address& group);
  void leave_local_group(IfaceId iface, const Address& group);
  bool in_group(IfaceId iface, const Address& group) const;
  /// Routers running MLD/PIM listen to all multicast on their links.
  void set_mcast_promiscuous(bool on) { mcast_promiscuous_ = on; }

  // --- Sending ---------------------------------------------------------
  /// Builds and routes a unicast datagram. Returns false if no route or the
  /// output interface is detached / neighbor resolution fails.
  bool send(const DatagramSpec& spec);
  /// Routes pre-serialized octets (tunnel outer packets, forwarded inners).
  /// Reads only the fixed header; octets that do not start with one throw
  /// LogicError.
  bool send_raw(const Packet& datagram);
  /// Transmits on a specific interface without routing; multicast and
  /// link-local destinations go out as broadcast frames, unicast resolves
  /// the neighbor on that link.
  bool send_on_iface(IfaceId iface, const DatagramSpec& spec);
  bool send_raw_on_iface(IfaceId iface, const Packet& datagram);

  /// Feeds a serialized datagram through the full receive path as if it had
  /// just arrived on `iface` — used by tunnel endpoints to process inner
  /// datagrams (decapsulated traffic re-enters the stack here).
  void receive_as_if(IfaceId iface, const Packet& datagram);
  /// The receive path after the parse, for `d` already parsed from `pkt`.
  void receive_as_if(IfaceId iface, const ParsedDatagram& d,
                     const Packet& pkt);

  // --- Local delivery handlers ----------------------------------------
  using ProtoHandler =
      std::function<void(const ParsedDatagram&, const Packet&, IfaceId)>;
  void set_proto_handler(std::uint8_t protocol, ProtoHandler h);
  void clear_proto_handler(std::uint8_t protocol);

  using OptionHandler =
      std::function<void(const DestOption&, const ParsedDatagram&, IfaceId)>;
  void set_option_handler(std::uint8_t type, OptionHandler h);
  void clear_option_handler(std::uint8_t type);

  /// Invoked whenever a multicast datagram is accepted locally (any group).
  /// The home agent hooks this to relay group traffic into MN tunnels.
  /// Returns a token for remove_group_delivery_hook.
  using GroupDeliveryHook =
      std::function<void(const ParsedDatagram&, const Packet&, IfaceId)>;
  std::size_t add_group_delivery_hook(GroupDeliveryHook h);
  void remove_group_delivery_hook(std::size_t token);

  // --- Router-side hooks -------------------------------------------------
  Rib& rib() { return rib_; }
  const Rib& rib() const { return rib_; }

  /// Installed by the dense-mode data plane: called for every
  /// non-link-scope multicast datagram received on a forwarding node.
  using McastForwarder =
      std::function<void(const ParsedDatagram&, const Packet&, IfaceId)>;
  void set_mcast_forwarder(McastForwarder f) { mcast_forwarder_ = std::move(f); }
  void clear_mcast_forwarder() { mcast_forwarder_ = nullptr; }

  /// Replicates `pkt` out of every interface in `oifs` (a precomputed MFC
  /// entry's oif set): decrements the hop limit ONCE and shares the
  /// rewritten buffer across them, so replicating to N links costs one
  /// buffer copy instead of N.
  /// Set bits are visited in mifi order, which is ascending IfaceId order
  /// by MifTable contract. Returns the number of interfaces actually
  /// transmitted on (detached ones are skipped). Allocation-free.
  std::size_t forward_out_many(const Packet& pkt, const IfSet& oifs,
                               const MifTable& mifs);

  // --- Home-agent intercept (proxy for away-from-home addresses) -------
  void add_intercept(const Address& home_addr);
  void remove_intercept(const Address& home_addr);
  bool intercepts(const Address& addr) const;
  /// Receives datagrams whose destination is an intercepted address.
  using InterceptHandler = std::function<void(const ParsedDatagram&, const Packet&)>;
  void set_intercept_handler(InterceptHandler h) { intercept_ = std::move(h); }
  void clear_intercept_handler() { intercept_ = nullptr; }

 private:
  struct AddrEntry {
    Address addr;
    bool pinned;
  };

  void deliver_local(const ParsedDatagram& d, const Packet& pkt,
                     IfaceId iface);
  /// Originates an ICMPv6 Parameter Problem (RFC 2463 §3.4) back at the
  /// offending datagram's source, unless that source is unanswerable
  /// (multicast / unspecified) or no usable local address exists.
  void send_param_problem(const ParsedDatagram& d, const Packet& pkt,
                          IfaceId iface, std::uint8_t code,
                          std::uint32_t pointer);
  void forward_unicast(const ParsedDatagram& d, const Packet& pkt);
  /// Installs a pooled, hop-limit-decremented copy of pkt's octets into
  /// `pkt`; false (pkt untouched semantically) when the hop limit ran out.
  bool rewrite_decremented(Packet& pkt);
  bool transmit_unicast_on(IfaceId iface, const Address& l2_target,
                           const Packet& pkt);
  Interface* iface_ptr(IfaceId id) const;
  void count(std::string_view name, std::uint64_t delta = 1) const;

  Node* node_;
  AddressingPlan* plan_;
  bool forwarding_;
  /// Cell for the per-packet "ipv6/fwd" counter, resolved once (the string
  /// lookup per forwarded datagram showed up in profiles).
  CounterCell c_fwd_;
  bool mcast_promiscuous_ = false;

  std::map<IfaceId, std::vector<AddrEntry>> addrs_;
  std::map<IfaceId, std::set<Address>> groups_;
  std::set<Address> intercepts_;
  Rib rib_;

  std::map<std::uint8_t, ProtoHandler> proto_handlers_;
  std::map<std::uint8_t, OptionHandler> option_handlers_;
  std::vector<GroupDeliveryHook> group_hooks_;
  McastForwarder mcast_forwarder_;
  InterceptHandler intercept_;
};

}  // namespace mip6

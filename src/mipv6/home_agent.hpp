// Mobile IPv6 home agent with the paper's multicast extensions.
//
// Core draft-10 duties: process Binding Updates (home registration), defend
// the mobile node's home address on the home link (proxy intercept), tunnel
// intercepted traffic to the care-of address, answer with Binding
// Acknowledgements, expire bindings.
//
// Paper extensions, both Section 4.3.2 variants:
//  * Multicast Group List Sub-Option (Figure 5): the BU carries the MN's
//    subscribed groups; the HA becomes a member on the MN's behalf and
//    relays every matching multicast datagram into the tunnel.
//  * Tunnel-as-interface (HA is a PIM router): the MN sends ordinary MLD
//    Reports *through the tunnel*; the HA keeps per-(MN, group) listener
//    state with the Multicast Listener Interval lifetime, exactly like an
//    MLD router would on a real interface.
// The HA "becomes a member" on its router's dense-mode engine (PIM-DM or
// HPIM-DM): the first mobile node to want a group pins it with
// DenseModeEngine::add_local_receiver, the last one to drop it releases it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "ipv6/icmpv6_dispatch.hpp"
#include "ipv6/stack.hpp"
#include "mipv6/binding_cache.hpp"
#include "mipv6/config.hpp"
#include "mipv6/messages.hpp"
#include "net/protocol_module.hpp"

namespace mip6 {

class DenseModeEngine;

class HomeAgent : public ProtocolModule {
 public:
  HomeAgent(Ipv6Stack& stack, DenseModeEngine& dense, Mipv6Config config);

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "ha"; }
  /// Crash semantics: loses the binding cache (soft state the mobile nodes
  /// must re-register) and goes disabled until on_restart().
  void on_crash() override {
    clear_bindings();
    set_enabled(false);
  }
  void on_restart() override { set_enabled(true); }
  /// Teardown: drops bindings and releases every stack registration.
  void stop() override;

  BindingCache& cache() { return cache_; }
  const BindingCache& cache() const { return cache_; }

  /// Invoked whenever a binding is created/refreshed (deleted=false) or
  /// deregistered (deleted=true) by Binding Update processing. Redundancy
  /// peers subscribe to replicate state.
  using BindingChangeCallback =
      std::function<void(const BindingCache::Entry&, bool deleted)>;
  void set_binding_change_callback(BindingChangeCallback cb) {
    on_binding_change_ = std::move(cb);
  }

  /// Installs a binding received from a redundancy peer (same effects as a
  /// locally processed Binding Update: cache entry, intercept, group
  /// membership on behalf of the mobile node).
  void adopt_binding(const Address& home, const Address& care_of,
                     std::uint16_t sequence, Time lifetime,
                     std::vector<Address> groups);
  /// Drops a binding and everything attached to it (failback cleanup).
  void drop_binding(const Address& home);
  /// Drops every binding, tunnel membership, and represented group (the
  /// dense-mode engine sees the releases). Used by crash / outage injection.
  void clear_bindings();
  /// A disabled home agent ignores Binding Updates, intercepts, tunneled
  /// traffic and group deliveries — the data-plane face of an HA outage.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }
  bool represents(const Address& group) const {
    return group_refs_.contains(group);
  }

 private:
  void on_binding_update(const BindingUpdateOption& bu,
                         const ParsedDatagram& d);
  void on_intercepted(const ParsedDatagram& d, const Packet& pkt);
  void on_tunneled(const ParsedDatagram& outer);
  void on_group_delivery(const ParsedDatagram& d, const Packet& pkt);
  void on_binding_expired(const BindingCache::Entry& expired);

  void set_binding_groups(const Address& home, std::vector<Address> groups);
  void register_tunnel_membership(const Address& home, const Address& group);
  void expire_tunnel_membership(const Address& home, const Address& group);
  void ref_group(const Address& group);
  void unref_group(const Address& group);
  void tunnel_to(const Address& home, const Address& care_of,
                 BytesView inner);
  /// mcast-mobility: re-originates `inner` encapsulated to the MN's
  /// reachability group on the home interface (the root of the G_mn tree).
  void relay_to_mcast_care_of(const Address& home, const Address& group_coa,
                              BytesView inner);
  void send_binding_ack(const Address& home, const Address& care_of,
                        std::uint16_t sequence);
  /// The router interface on the link owning `home`'s prefix (a router can
  /// be home agent on several links at once, e.g. Router D for Links 4 and
  /// 5 in the paper's topology). Falls back to any interface with a global
  /// address.
  std::optional<IfaceId> iface_for_home(const Address& home) const;
  void count(std::string_view name, std::uint64_t delta = 1);
  /// Lazy protocol-event trace; `detail_fn` only runs when a sink is
  /// installed, so this is free in benches.
  template <typename DetailFn>
  void trace_event(const char* event, DetailFn&& detail_fn) const {
    stack_->network().trace().emit(stack_->network().now(), component_, event,
                                   std::forward<DetailFn>(detail_fn));
  }

  Ipv6Stack* stack_;
  std::size_t group_hook_token_;  // for stop()
  std::string component_;  // "ha/<node>", cached for trace records
  DenseModeEngine* dense_;
  Mipv6Config config_;
  BindingCache cache_;
  // (home, group) -> listener lifetime timer (tunnel-as-interface variant).
  std::map<std::pair<Address, Address>, std::unique_ptr<Timer>>
      tunnel_memberships_;
  std::map<Address, int> group_refs_;
  BindingChangeCallback on_binding_change_;
  bool enabled_ = true;
  // Data-path counters, resolved once (docs/PERF.md rule 4).
  CounterCell c_tunnel_bytes_;
  CounterCell c_encap_multicast_;
  CounterCell c_decap_;
  CounterCell c_decap_multicast_;
};

}  // namespace mip6

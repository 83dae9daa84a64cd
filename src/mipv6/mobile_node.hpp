// Mobile IPv6 mobile-node engine.
//
// Owns the mobility lifecycle on one interface: link change -> movement
// detection delay -> care-of address via SLAAC -> Binding Update to the home
// agent (retransmitted until acknowledged) -> periodic refresh. The home
// address stays pinned on the interface (packets tunneled from the HA are
// addressed to it after decapsulation).
//
// The multicast delivery strategies of the paper are glued on top through
// three mechanisms exposed here: the BU's optional Multicast Group List
// sub-option, reverse tunneling (tunnel_to_ha), and the attach callback that
// strategies use to re-join groups locally / re-report through the tunnel.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "ipv6/icmpv6_dispatch.hpp"
#include "ipv6/stack.hpp"
#include "mipv6/config.hpp"
#include "mipv6/messages.hpp"
#include "net/protocol_module.hpp"
#include "sim/timer.hpp"

namespace mip6 {

class MobileNode : public ProtocolModule {
 public:
  MobileNode(Ipv6Stack& stack, IfaceId iface, Address home_address,
             Address home_agent, Mipv6Config config);

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "mn"; }
  /// Crash semantics: reset_soft_state() — binding and care-of address are
  /// lost; the restart path re-runs attachment and re-registers.
  void reset() override { reset_soft_state(); }
  /// Restart is driven by the interface re-attaching (link-change handler
  /// fires movement detection); nothing extra to do here.
  void on_restart() override {}
  /// Teardown: reset_soft_state() plus releasing the stack registrations
  /// and the interface's link-change handler.
  void stop() override;

  // --- Identity / state -------------------------------------------------
  const Address& home_address() const { return home_address_; }
  const Address& home_agent() const { return home_agent_; }
  IfaceId iface() const { return iface_; }
  /// Care-of address; unspecified while at home or before configuration.
  const Address& care_of() const { return care_of_; }
  bool away_from_home() const { return !care_of_.is_unspecified(); }
  /// True once the current binding was acknowledged by the home agent.
  bool binding_acked() const { return binding_acked_; }
  /// Source address current outgoing datagrams carry: the care-of address
  /// once formed; until then the previous (stale) one — exactly the window
  /// in which the paper's spurious-assert problem occurs.
  Address current_source() const;

  // --- Group subscriptions ----------------------------------------------
  /// Application-level subscription: installs the local receive filter.
  /// What *signaling* results (local MLD, group list in BUs, tunneled MLD
  /// reports) is the delivery strategy's choice.
  void subscribe(const Address& group);
  void unsubscribe(const Address& group);
  const std::set<Address>& subscriptions() const { return subscriptions_; }

  /// Include the Multicast Group List sub-option (paper Figure 5) in BUs.
  void set_group_list_in_bu(bool on) { group_list_in_bu_ = on; }

  /// Include the Multicast Care-of sub-option in BUs: asks the HA to relay
  /// subscribed-group traffic into `group` (the mcast-mobility reachability
  /// group) instead of tunneling to the unicast care-of address.
  /// Unspecified disables the sub-option. Configuration, not soft state —
  /// survives reset_soft_state() like group_list_in_bu_.
  void set_mcast_care_of(const Address& group) { mcast_care_of_ = group; }
  const Address& mcast_care_of() const { return mcast_care_of_; }

  // --- Mechanisms used by the strategies ---------------------------------
  /// (Re)sends a Binding Update now.
  void send_binding_update();
  /// Sends a Binding Update carrying an explicit Multicast Group List with
  /// exactly `groups` (an empty list deregisters all groups at the HA).
  void send_binding_update_with_group_list(std::vector<Address> groups);
  /// Encapsulates `inner` to the home agent (reverse tunnel). Uses the
  /// current source as outer source. Returns false if unroutable.
  bool tunnel_to_ha(Bytes inner);
  /// Sends an MLD Report for `group` through the tunnel with the home
  /// address as inner source (tunnel-as-interface variant). `periodic`
  /// re-sends every `interval` to keep the HA's listener state alive.
  void start_tunneled_reports(const Address& group, Time interval);
  void stop_tunneled_reports(const Address& group);

  /// Invoked after each movement once the care-of address is configured and
  /// the Binding Update has been sent.
  void set_on_attached(std::function<void()> cb) { on_attached_ = std::move(cb); }
  /// Invoked immediately on attach (before movement detection completes).
  void set_on_link_change(std::function<void()> cb) {
    on_link_change_ = std::move(cb);
  }

  /// Simulation-side mobility command: detach and re-attach to `target`.
  void move_to(Link& target);

  /// Crash support: forgets the care-of address, the acked binding, and any
  /// tunneled-report schedule, and cancels every timer. Application-level
  /// subscriptions survive (the app still wants them after restart); the
  /// restart path re-runs attachment and re-registers with the home agent.
  void reset_soft_state();

  Ipv6Stack& stack() const { return *stack_; }

 private:
  void on_link_changed(Link* link);
  void complete_attachment();
  void on_binding_ack(const BindingAckOption& ack);
  void send_bu_impl(std::optional<std::vector<Address>> groups);
  /// Re-sends the last BU wire image (same sequence number) and doubles the
  /// retransmission interval, capped at config.bu_retransmit_max.
  void retransmit_binding_update();
  void send_tunneled_report(const Address& group);
  void count(std::string_view name, std::uint64_t delta = 1);

  Ipv6Stack* stack_;
  IfaceId iface_;
  Address home_address_;
  Address home_agent_;
  Mipv6Config config_;

  Address care_of_;
  std::uint16_t bu_sequence_ = 0;
  bool binding_acked_ = false;
  int bu_retransmits_left_ = 0;
  /// Current backoff interval; reset to config.bu_retransmit_interval on
  /// every fresh BU, doubled (capped) per retransmission.
  Time bu_retransmit_current_ = Time::zero();
  /// The last BU as sent, kept so retransmissions reuse the same sequence
  /// number instead of minting a new binding attempt.
  Packet last_bu_;
  std::unique_ptr<Timer> movement_timer_;
  std::unique_ptr<Timer> bu_refresh_timer_;
  std::unique_ptr<Timer> bu_retransmit_timer_;

  bool group_list_in_bu_ = false;
  Address mcast_care_of_;
  std::set<Address> subscriptions_;
  struct TunneledReportState {
    Time interval;
    std::unique_ptr<Timer> timer;
  };
  std::map<Address, TunneledReportState> tunneled_reports_;

  std::function<void()> on_attached_;
  std::function<void()> on_link_change_;
};

}  // namespace mip6

// MLD host side (RFC 2710 §4, host behaviour): joining sends unsolicited
// Reports (configurably — the paper compares "wait for next Query" against
// the unsolicited-Report recommendation for mobile hosts), Queries start a
// random delay timer per joined group, hearing another member's Report
// suppresses the pending one, leaving sends Done if we were the last
// reporter.
//
// reset_link_state(): a mobile receiver leaving a link sends nothing (the
// paper: "mobile hosts cannot use the Done message when they leave a link")
// — the router only notices via the listener timeout. announce_all(): what
// the mobile receiver does after attaching elsewhere.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "ipv6/icmpv6_dispatch.hpp"
#include "ipv6/stack.hpp"
#include "mld/config.hpp"
#include "mld/messages.hpp"
#include "net/protocol_module.hpp"
#include "sim/timer.hpp"

namespace mip6 {

struct MldHostPolicy {
  /// Send unsolicited Reports when joining / after moving to a new link.
  /// RFC behaviour is true; the paper's "wait for the next Query" baseline
  /// is false.
  bool unsolicited_reports = true;
  /// Send Done on an explicit leave() (not on detach).
  bool send_done_on_leave = true;
};

class MldHost : public ProtocolModule {
 public:
  MldHost(Ipv6Stack& stack, Icmpv6Dispatcher& dispatch, MldConfig config,
          MldHostPolicy policy = {});

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "mld-host"; }
  /// Crash semantics: shutdown() — the application re-joins after restart.
  void reset() override { shutdown(); }
  /// Teardown: shutdown() plus unsubscribing from the ICMPv6 dispatcher.
  void stop() override;

  /// Application-level join: installs the receive filter and (per policy)
  /// transmits unsolicited Reports.
  void join(IfaceId iface, const Address& group);
  /// Application-level leave: removes the filter, sends Done per policy.
  void leave(IfaceId iface, const Address& group);
  bool joined(IfaceId iface, const Address& group) const;

  /// Re-announces all joined groups (unsolicited Reports per policy);
  /// called by mobility logic after attaching to a new link.
  void announce_all(IfaceId iface);

  /// Cancels pending response timers (link went away). Group membership is
  /// kept — the application is still subscribed; it just has no link.
  void cancel_pending(IfaceId iface);

  /// cancel_pending() plus forgetting last-reporter status: after a silent
  /// link change the old link's suppression state must not leak onto the
  /// new link (a spurious Done there would be wrong).
  void reset_link_state(IfaceId iface);

  /// Crash support: forgets every joined group and cancels all timers (the
  /// receive filters in the stack are left to the caller). The application
  /// re-joins after restart.
  void shutdown();

  const MldHostPolicy& policy() const { return policy_; }

 private:
  struct GroupState {
    std::unique_ptr<Timer> response_timer;
    bool we_were_last_reporter = false;
    int pending_unsolicited = 0;
  };

  void on_message(const MldMessage& msg, const ParsedDatagram& d,
                  IfaceId iface);
  void send_report(IfaceId iface, const Address& group);
  void send_done(IfaceId iface, const Address& group);
  void start_unsolicited(IfaceId iface, const Address& group);
  void count(std::string_view name);

  Ipv6Stack* stack_;
  Icmpv6Dispatcher* dispatch_;
  std::vector<std::pair<std::uint8_t, std::size_t>> subs_;  // for stop()
  MldConfig config_;
  MldHostPolicy policy_;
  std::map<std::pair<IfaceId, Address>, GroupState> groups_;
};

}  // namespace mip6

// RIPng-style distance-vector unicast routing (RFC 2080 subset).
//
// PIM is "protocol independent": its RPF checks consume whatever unicast
// RIB exists. The default substrate here is the instantly-converged
// GlobalRouting oracle; this module provides the alternative the paper's
// setting would actually have run — a real routing protocol with periodic
// and triggered updates, split horizon with poisoned reverse, route
// timeout/garbage-collection, and metric-16 infinity — so convergence
// transients (and their effect on multicast) are simulated, not assumed.
//
// Wire format per RFC 2080: UDP port 521, Response messages to ff02::9,
// 20-octet route entries (prefix, tag, prefix-len, metric).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "ipv6/stack.hpp"
#include "ipv6/udp.hpp"
#include "ipv6/udp_demux.hpp"
#include "net/protocol_module.hpp"
#include "sim/timer.hpp"

namespace mip6 {

struct RipngConfig {
  Time update_interval = Time::sec(30);
  /// A route not refreshed within this window starts deletion.
  Time route_timeout = Time::sec(180);
  /// After timing out, a route is advertised with metric 16 for this long.
  Time gc_interval = Time::sec(120);
  /// Triggered updates are batched/rate-limited by this delay.
  Time triggered_update_delay = Time::sec(1);
  std::uint8_t infinity = 16;
};

struct RipngRte {
  Prefix prefix;
  std::uint8_t metric = 16;
};

/// Serialized RIPng Response carrying route entries.
Bytes ripng_response_payload(const std::vector<RipngRte>& rtes);
/// No-throw parse of a RIPng Response; bounds the route-entry count.
ParseResult<std::vector<RipngRte>> try_parse_ripng_response(BytesView payload);

inline constexpr std::uint16_t kRipngPort = 521;
/// All-RIP-routers link-scope group.
Address ripng_group();

class Ripng : public ProtocolModule {
 public:
  Ripng(Ipv6Stack& stack, UdpDemux& udp, RipngConfig config = {});

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "ripng"; }
  /// Re-enables RIPng on every configured interface that is currently
  /// attached (cold boot after a restart).
  void start() override;
  /// Crash semantics: shutdown(), keeping the configured-interface set.
  void reset() override { shutdown(); }
  /// Teardown: shutdown() plus releasing the UDP port binding.
  void stop() override;

  /// Starts RIPng on an interface and installs the connected prefix (from
  /// the addressing plan) at metric 1. Remembered for start() after a
  /// crash/restart cycle.
  void enable_iface(IfaceId iface);

  /// Crash support: forgets every route (and its RIB entry), all enabled
  /// interfaces, and stops the update timers. enable_iface() after a
  /// restart brings the protocol back from scratch.
  void shutdown();
  /// The interfaces RIPng is currently enabled on (for restart wiring).
  const std::vector<IfaceId>& enabled_ifaces() const { return ifaces_; }

  std::size_t route_count() const { return routes_.size(); }
  /// Metric toward `prefix`, or infinity if unknown.
  std::uint8_t metric_of(const Prefix& prefix) const;

 private:
  struct RouteState {
    Prefix prefix;
    IfaceId iface = 0;
    Address next_hop;  // unspecified = connected
    std::uint8_t metric = 16;
    bool connected = false;
    bool changed = false;
    std::unique_ptr<Timer> timeout;
    std::unique_ptr<Timer> gc;
  };

  void on_response(const UdpDatagram& udp, const ParsedDatagram& d,
                   IfaceId iface);
  void process_rte(const RipngRte& rte, const Address& from, IfaceId iface);
  void start_timeout(RouteState& r);
  void expire_route(const Prefix& prefix);
  void delete_route(const Prefix& prefix);
  void send_periodic_update();
  void send_update_on(IfaceId iface, bool changed_only);
  void schedule_triggered_update();
  void sync_rib(const RouteState& r, bool removed);
  void count(std::string_view name);

  Ipv6Stack* stack_;
  UdpDemux* udp_;
  RipngConfig config_;
  /// Every interface enable_iface() was ever called for (restart wiring).
  std::set<IfaceId> configured_;
  std::vector<IfaceId> ifaces_;
  std::map<Prefix, std::unique_ptr<RouteState>> routes_;
  Timer update_timer_;
  Timer triggered_timer_;
  bool triggered_pending_ = false;
};

}  // namespace mip6

// PIM-DM protocol timer configuration (draft-ietf-pim-v2-dm-03, the version
// the paper cites). Defaults are the draft/paper values: (S,G) data timeout
// 210 s (paper §3.1), Prune Delay Time 3 s (paper §4.3.1), etc.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mip6 {

struct PimDmConfig {
  /// Hello period / holdtime for neighbor liveness.
  Time hello_period = Time::sec(30);
  Time hello_holdtime = Time::sec(105);
  /// (S,G) entry lifetime for a silent source ("data timeout", default 210 s;
  /// restarted when the router forwards a datagram for the entry).
  Time data_timeout = Time::sec(210);
  /// How long a received Prune keeps an interface pruned (holdtime field).
  Time prune_hold_time = Time::sec(210);
  /// T_PruneDel: LAN prune delay — the window in which another downstream
  /// router may send a Join to override the prune.
  Time prune_delay = Time::sec(3);
  /// Join override is scheduled uniformly in [0, join_override_window];
  /// must be below prune_delay.
  Time join_override_window = Time::ms(2500);
  /// Graft retransmission period until a Graft-Ack arrives.
  Time graft_retry_period = Time::sec(3);
  /// Assert state lifetime at the losing router.
  Time assert_time = Time::sec(180);
  /// Minimum spacing of repeated Asserts / re-Prunes for one (S,G,iface).
  Time assert_rate_limit = Time::sec(3);
  /// Metric preference advertised in Asserts (administrative distance of
  /// the unicast protocol feeding the RPF checks).
  std::uint32_t metric_preference = 101;

  /// State Refresh extension (adopted by later PIM-DM drafts / RFC 3973,
  /// after the version the paper analyzed): the first-hop router
  /// periodically floods a control message down the broadcast tree so
  /// prune state is refreshed in place instead of expiring into a periodic
  /// data re-flood. Off by default to match the paper's draft-03 baseline;
  /// the ABL3 bench quantifies what it buys.
  bool state_refresh = false;
  Time state_refresh_interval = Time::sec(60);
};

}  // namespace mip6

// Tunables for the HPIM-DM hard-state engine. Timer defaults mirror the
// PIM-DM ones where a knob has a direct counterpart (hello, data timeout,
// assert) so A/B runs differ by mechanism, not by calendar.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace mip6 {

struct HpimDmConfig {
  // --- Neighbor discovery ------------------------------------------------
  Time hello_period = Time::sec(30);
  std::uint16_t hello_holdtime_s = 105;

  // --- (S,G) entry lifetime ----------------------------------------------
  /// Entry for a silent source expires (same calendar as PIM-DM).
  Time data_timeout = Time::sec(210);

  // --- Reliable control channel -------------------------------------------
  /// Initial retransmit timeout for unacked sequenced messages.
  Time ack_timeout = Time::ms(200);
  /// Exponential backoff cap for the retransmit timeout.
  Time ack_timeout_max = Time::sec(5);
  /// Unacked sequenced messages queued per neighbor before the channel is
  /// declared failed (same consequence as a holdtime expiry).
  std::size_t max_retransmit_queue = 64;

  // --- Tree-state sync ------------------------------------------------------
  /// Storm damping: at most one Sync transmission per neighbor per this
  /// interval; triggers inside the window coalesce into one deferred send.
  Time sync_min_interval = Time::sec(1);
  /// (S,G) entries per Sync fragment (wire bound is
  /// bound::kMaxHpimSyncEntries).
  std::size_t sync_fragment_entries = 100;

  // --- Assert (same election as PIM-DM) ------------------------------------
  Time assert_time = Time::sec(180);
  /// Minimum spacing of asserts / not-interested declarations triggered by
  /// data arrival on the wrong interface.
  Time assert_rate_limit = Time::sec(3);
  std::uint32_t metric_preference = 101;

  // --- Crash recovery -------------------------------------------------------
  /// After a restart the surviving leaf-group state is reconciled against
  /// live MLD state once this grace period elapses: groups MLD no longer
  /// reports are dropped. Long enough for listeners to re-report.
  Time leaf_reconcile_delay = Time::sec(25);
};

}  // namespace mip6

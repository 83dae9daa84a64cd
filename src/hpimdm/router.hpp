// HPIM-DM router engine (arXiv 2002.06635 semantics, adapted to this
// simulator): a hard-state redesign of dense-mode multicast.
//
// Where PIM-DM periodically re-floods and re-prunes (soft state that decays
// and must be refreshed), HPIM-DM keeps explicit per-neighbor interest
// state and synchronizes it reliably:
//
//   * Every Interest ("I do/don't want (S,G) through you") and Sync message
//     is sequence-numbered per neighbor, acknowledged, and retransmitted
//     with exponential backoff until acked — control state cannot be lost
//     to a dropped frame.
//   * When a neighbor (re)appears — first hello, or a hello carrying a new
//     generation id after a reboot — the full relevant tree state is
//     re-synchronized immediately in one acknowledged Sync exchange instead
//     of waiting out a flood-and-prune cycle. Sync transmissions are storm
//     damped (at most one per neighbor per sync_min_interval).
//   * A neighbor silent past holdtime (or whose retransmit queue overflows)
//     is declared failed: its interest state is dropped and interest is
//     recomputed, degrading gracefully instead of blackholing.
//
// Crash semantics differ deliberately from PIM-DM: on_crash() keeps the
// (S,G) entries, the recorded downstream interest and the leaf (MLD)
// groups — that is the hard state — and only discards the live channel
// machinery (timers, sequence numbers, unacked queues). After on_restart()
// the router forwards again on the first arriving datagram, while its new
// generation id makes every neighbor re-sync so residual divergence heals.
//
// The (S,G) table, the Assert election, the RPF re-anchor and the local
// receivers are DenseModeEngine's; this class adds the reliable channels,
// Interest/Sync, the crash hard state and the leaf groups.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "hpimdm/config.hpp"
#include "hpimdm/messages.hpp"
#include "ipv6/stack.hpp"
#include "mld/router.hpp"
#include "pimdm/dense_engine.hpp"
#include "sim/timer.hpp"

namespace mip6 {

class HpimDmRouter : public DenseModeEngine {
 public:
  HpimDmRouter(Ipv6Stack& stack, MldRouter& mld, HpimDmConfig config);

  // --- ProtocolModule ----------------------------------------------------
  /// Deliberate reset: everything DenseModeEngine::reset() drops, plus the
  /// hard state (leaf groups).
  void reset() override;
  /// Crash: drop channels, timers and local-receiver pins but KEEP (S,G)
  /// entries, downstream interest and leaf groups (the hard state).
  void on_crash() override;
  /// Restart: new generation id, cold-start the interfaces, re-arm entry
  /// lifetimes, and reconcile surviving leaf state against MLD after a
  /// grace period.
  void on_restart() override;

  // --- DenseModeEngine ----------------------------------------------------
  /// Unacked control messages queued across every neighbor channel. A
  /// healthy channel drains to zero after convergence; the chaos-search
  /// retx-backlog watchdog samples this.
  std::size_t retransmit_backlog() const;
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  const HpimDmConfig& config() const { return config_; }

 private:
  /// One sequenced, unacked message awaiting its cumulative ack.
  struct Pending {
    std::uint32_t seq = 0;
    HpimType type = HpimType::kInterest;
    Bytes body;  // serialized body, seq included — retransmitted verbatim
  };
  /// Reliable control channel to one neighbor on one interface; its
  /// liveness timer is the holdtime.
  struct NeighborChannel : Neighbor {
    std::uint32_t generation_id = 0;
    /// False for channels adopted from a sequenced message before any
    /// hello: the first hello then just records the generation id instead
    /// of being mistaken for a reboot.
    bool generation_known = false;
    // Sender side.
    std::uint32_t tx_seq = 0;  // last assigned
    std::deque<Pending> pending;
    std::unique_ptr<Timer> retx_timer;
    Time rto = Time::zero();
    // Receiver side.
    std::uint32_t rx_expected = 1;
    // Sync storm damping.
    Time last_sync_tx = Time::never();
    std::unique_ptr<Timer> sync_timer;
    bool sync_pending = false;
  };
  struct HpimDownstream : Downstream {
    /// Per-neighbor declared interest. A neighbor with no record is
    /// *unknown* and keeps the interface forwarding (dense-mode default).
    std::map<Address, bool> declared;
  };
  struct HpimEntry : SgEntry {
    /// Last interest declared to the upstream neighbor; absent until the
    /// first declaration (and again after crash/upstream loss, forcing a
    /// re-declaration once a channel exists).
    std::optional<bool> my_interest;
  };
  static HpimEntry& hpim(SgEntry& e) { return static_cast<HpimEntry&>(e); }
  static const HpimEntry& hpim(const SgEntry& e) {
    return static_cast<const HpimEntry&>(e);
  }
  static HpimDownstream& hpim(Downstream& d) {
    return static_cast<HpimDownstream&>(d);
  }
  static const HpimDownstream& hpim(const Downstream& d) {
    return static_cast<const HpimDownstream&>(d);
  }

  // DenseModeEngine hooks.
  std::unique_ptr<SgEntry> make_entry(const SgKey& key,
                                      const Route& route) override;
  std::unique_ptr<Downstream> make_downstream() const override;
  bool downstream_wants(const SgEntry& e, IfaceId iface,
                        const Downstream& d) const override;
  /// Declares interest upstream iff the wanted state flipped (or was never
  /// declared). The hard-state replacement for prune/graft/join-override.
  void update_upstream(SgEntry& e, bool wants) override;
  void decline_nonrpf(SgEntry& e, IfaceId iface) override;
  void emit_hello(IfaceId iface) override;
  void emit_assert(const SgEntry& e, IfaceId iface) override;
  /// Global preferred (it is what unicast routes — and therefore
  /// rpf_neighbor — name), link-local fallback.
  Address control_source(IfaceId iface) const override;
  void on_assert_lost(SgEntry& e, IfaceId iface,
                      const Address& winner) override;
  void adopt_assert_winner(SgEntry& e, const AssertMetric& winner) override;
  void on_upstream_moved(SgEntry& e) override;
  /// Mirrors the change into the leaf groups, then re-evaluates.
  void on_mld_change(IfaceId iface, const Address& group,
                     bool present) override;

  // Entry points.
  void on_hpim_message(const ParsedDatagram& d, IfaceId iface);
  void on_hello(const HpimHello& hello, const Address& from, IfaceId iface);
  void on_ack(const HpimAck& ack, const Address& from, IfaceId iface);
  void on_interest(const HpimInterest& m, const Address& from, IfaceId iface);
  void on_sync(const HpimSync& m, const Address& from, IfaceId iface);
  void apply_interest(const Address& from, IfaceId iface, const Address& src,
                      const Address& group, bool interested);

  // Neighbor channel machinery.
  NeighborChannel* channel(IfaceId iface, const Address& nbr);
  NeighborChannel& ensure_channel(IfaceId iface, const Address& nbr,
                                  std::uint16_t holdtime_s,
                                  std::uint32_t generation_id,
                                  bool generation_known);
  /// The channel Interest for `e` travels on; exact rpf_neighbor match,
  /// falling back to a lone neighbor on the incoming interface.
  NeighborChannel* upstream_channel(SgEntry& e, Address* nbr_out);
  void neighbor_failed(IfaceId iface, const Address& nbr, const char* why);
  /// True when the sequenced message is in order (advances rx_expected and
  /// acks); duplicates/gaps are re-acked at the last in-order point.
  bool accept_sequenced(IfaceId iface, const Address& from, std::uint32_t seq);
  void send_reliable(IfaceId iface, const Address& nbr, HpimType type,
                     Bytes body_with_seq, std::uint32_t seq);
  std::uint32_t next_seq(IfaceId iface, const Address& nbr);
  void schedule_sync(IfaceId iface, const Address& nbr);
  void send_sync(IfaceId iface, const Address& nbr);

  // Message emission.
  void send_ack(IfaceId iface, const Address& to, std::uint32_t seq);
  void send_interest(HpimEntry& e, bool interested);
  void emit(IfaceId iface, HpimType type, BytesView body, const Address& dst);

  std::uint32_t fresh_generation_id();
  void reconcile_leaf_groups();

  HpimDmConfig config_;
  std::uint32_t generation_id_ = 0;
  /// Hard-state mirror of MLD listener state; survives crashes where the
  /// MLD module's own soft state is lost, and is reconciled against live
  /// MLD reports leaf_reconcile_delay after a restart.
  std::map<IfaceId, std::set<Address>> leaf_groups_;
  std::unique_ptr<Timer> leaf_reconcile_timer_;
};

}  // namespace mip6

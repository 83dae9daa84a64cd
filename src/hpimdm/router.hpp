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
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
  const char* module_kind() const override { return "hpimdm"; }
  /// Re-enables HPIM on every configured interface that is currently
  /// attached (cold boot after a restart).
  void start() override;
  /// Deliberate reset: full shutdown, hard state included.
  void reset() override { shutdown(); }
  /// Teardown: shutdown() plus releasing the stack hooks.
  void stop() override;
  /// Crash: drop channels, timers and local-receiver pins but KEEP (S,G)
  /// entries, downstream interest and leaf groups (the hard state).
  void on_crash() override;
  /// Restart: new generation id, cold-start the interfaces, re-arm entry
  /// lifetimes, and reconcile surviving leaf state against MLD after a
  /// grace period.
  void on_restart() override;

  // --- DenseModeEngine ----------------------------------------------------
  void enable_iface(IfaceId iface) override;
  std::vector<IfaceId> enabled_ifaces() const override;
  void add_local_receiver(const Address& group) override;
  void remove_local_receiver(const Address& group) override;
  bool is_local_receiver(const Address& group) const override;

  std::size_t entry_count() const override { return entries_.size(); }
  /// Unacked control messages queued across every neighbor channel. A
  /// healthy channel drains to zero after convergence; the chaos-search
  /// retx-backlog watchdog samples this.
  std::size_t retransmit_backlog() const;
  std::vector<SgKey> sg_keys() const override;
  bool has_entry(const Address& src, const Address& group) const override;
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  Address rpf_neighbor_of(const Address& src,
                          const Address& group) const override;
  bool assert_loser(const Address& src, const Address& group,
                    IfaceId iface) const override;
  std::vector<IfaceId> outgoing(const Address& src,
                                const Address& group) const override;
  IfaceId incoming(const Address& src, const Address& group) const override;
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  std::vector<Address> neighbors(IfaceId iface) const override;

  /// Full shutdown including hard state (used by reset()/stop()).
  void shutdown();
  const HpimDmConfig& config() const { return config_; }

 private:
  /// One sequenced, unacked message awaiting its cumulative ack.
  struct Pending {
    std::uint32_t seq = 0;
    HpimType type = HpimType::kInterest;
    Bytes body;  // serialized body, seq included — retransmitted verbatim
  };
  /// Reliable control channel to one neighbor on one interface.
  struct NeighborChannel {
    std::uint32_t generation_id = 0;
    /// False for channels adopted from a sequenced message before any
    /// hello: the first hello then just records the generation id instead
    /// of being mistaken for a reboot.
    bool generation_known = false;
    std::unique_ptr<Timer> liveness;
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
  struct IfaceState {
    std::unique_ptr<Timer> hello_timer;
    std::map<Address, NeighborChannel> neighbors;
  };
  struct Downstream {
    /// Per-neighbor declared interest. A neighbor with no record is
    /// *unknown* and keeps the interface forwarding (dense-mode default).
    std::map<Address, bool> declared;
    bool assert_loser = false;
    std::unique_ptr<Timer> assert_timer;
    Time last_assert_tx = Time::never();
    /// Rate limiter for not-interested declarations triggered by data
    /// arriving on a non-RPF interface.
    Time last_nonrpf_tx = Time::never();
  };
  struct SgEntry {
    Address source;
    Address group;
    IfaceId incoming = 0;
    Address rpf_neighbor;  // unspecified when we are the first-hop router
    std::uint32_t rpf_metric = 0;
    std::uint32_t assert_winner_pref = 0;
    std::uint32_t assert_winner_metric = 0;
    Address assert_winner_addr;
    std::map<IfaceId, std::unique_ptr<Downstream>> downstream;
    /// Last interest declared to the upstream neighbor; absent until the
    /// first declaration (and again after crash/upstream loss, forcing a
    /// re-declaration once a channel exists).
    std::optional<bool> my_interest;
    std::unique_ptr<Timer> entry_timer;  // data timeout
  };

  // DenseDataPlane::Engine: the data plane's slow path and oif walk.
  void on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                     IfaceId iface) override;
  bool describe_flow(const Address& src, const Address& group,
                     DenseDataPlane::Flow& flow) const override;

  // Entry points.
  void on_hpim_message(const ParsedDatagram& d, IfaceId iface);
  void on_hello(const HpimHello& hello, const Address& from, IfaceId iface);
  void on_ack(const HpimAck& ack, const Address& from, IfaceId iface);
  void on_interest(const HpimInterest& m, const Address& from, IfaceId iface);
  void on_sync(const HpimSync& m, const Address& from, IfaceId iface);
  void on_assert(const HpimAssert& a, const Address& from, IfaceId iface);
  void on_mld_change(IfaceId iface, const Address& group, bool present);

  // Entry management.
  SgEntry* find_entry(const Address& src, const Address& group);
  const SgEntry* find_entry(const Address& src, const Address& group) const;
  SgEntry* create_entry(const Address& src, const Address& group);
  void delete_entry(const SgKey& key);
  Downstream& downstream(SgEntry& e, IfaceId iface);
  /// Whether the entry forwards onto one downstream interface.
  bool oif_active(const SgEntry& e, IfaceId iface, const Downstream& d) const;
  /// Allocation-free "is this interface in the entry's oif set?".
  bool in_oiflist(const SgEntry& e, IfaceId iface) const;
  bool wants_traffic(const SgEntry& e) const;
  /// Declares interest upstream iff the wanted state flipped (or was never
  /// declared). The hard-state replacement for prune/graft/join-override.
  void recompute_interest(SgEntry& e);
  /// Variant taking the already-computed wants_traffic() result so the
  /// data path never evaluates the oif set twice for one packet.
  void recompute_interest(SgEntry& e, bool wants);
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
  void send_hello(IfaceId iface);
  void send_ack(IfaceId iface, const Address& to, std::uint32_t seq);
  void send_interest(SgEntry& e, bool interested);
  void send_uninterest_nonrpf(SgEntry& e, IfaceId iface);
  void send_assert(SgEntry& e, IfaceId iface);
  void emit(IfaceId iface, HpimType type, BytesView body, const Address& dst);
  /// Control source address: global preferred (it is what unicast routes —
  /// and therefore rpf_neighbor — name), link-local fallback.
  Address source_address(IfaceId iface) const;

  bool hpim_enabled(IfaceId iface) const { return ifaces_.contains(iface); }
  bool has_neighbors(IfaceId iface) const;
  std::uint32_t fresh_generation_id();
  void reconcile_leaf_groups();
  void count(std::string_view name, std::uint64_t delta = 1);
  Time now() const { return stack_->network().now(); }
  Trace& trace() const { return stack_->network().trace(); }
  template <typename DetailFn>
  void trace_event(const char* event, DetailFn&& detail_fn) const {
    trace().emit(now(), component_, event, std::forward<DetailFn>(detail_fn));
  }

  Ipv6Stack* stack_;
  MldRouter* mld_;
  HpimDmConfig config_;
  std::string component_;  // "hpimdm/<node>", cached for trace records
  /// "hpimdm/rx-wrong-iface": every data arrival off the RPF interface.
  CounterCell c_wrong_iface_;
  std::uint32_t generation_id_ = 0;
  /// Every interface enable_iface() was ever called for (restart wiring).
  std::set<IfaceId> configured_;
  std::map<IfaceId, IfaceState> ifaces_;
  std::map<SgKey, std::unique_ptr<SgEntry>> entries_;
  /// Hard-state mirror of MLD listener state; survives crashes where the
  /// MLD module's own soft state is lost, and is reconciled against live
  /// MLD reports leaf_reconcile_delay after a restart.
  std::map<IfaceId, std::set<Address>> leaf_groups_;
  std::unique_ptr<Timer> leaf_reconcile_timer_;
  std::map<Address, int> local_receivers_;
};

}  // namespace mip6

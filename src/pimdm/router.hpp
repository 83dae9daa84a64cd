// PIM Dense Mode router engine (draft-ietf-pim-v2-dm-03 semantics).
//
// Broadcast-and-prune: the first datagram of a source creates an (S,G)
// entry whose outgoing list is every PIM interface with neighbors plus every
// interface with MLD listeners; routers with nothing downstream prune
// upstream (after which the upstream interface stays pruned for the prune
// holdtime, subject to a 3 s LAN prune delay during which another downstream
// router can send an overriding Join); new listeners trigger Grafts (reliable
// via Graft-Ack); duplicate forwarders on a LAN are resolved by Asserts; an
// (S,G) entry for a silent source expires after the 210 s data timeout.
//
// The (S,G) table, the Assert election, the RPF re-anchor and the local
// receivers are DenseModeEngine's; this class adds the soft-state signalling
// (Prune, Graft, Join override, State Refresh, neighbor liveness).
//
// The paper's mobile-sender pathologies fall out of these rules: a moved
// sender's new care-of address creates a brand-new flooded tree, its stale
// packets on the new link hit forwarding outgoing interfaces and trigger
// Asserts, and the old tree lingers until the data timeout.
#pragma once

#include <memory>

#include "ipv6/stack.hpp"
#include "mld/router.hpp"
#include "pimdm/config.hpp"
#include "pimdm/dense_engine.hpp"
#include "pimdm/messages.hpp"
#include "sim/timer.hpp"

namespace mip6 {

class PimDmRouter : public DenseModeEngine {
 public:
  PimDmRouter(Ipv6Stack& stack, MldRouter& mld, PimDmConfig config);

  // --- Introspection for tests, metrics and benches ---------------------
  enum class DownstreamState { kForwarding, kPrunePending, kPruned };

  /// True if this router pruned itself off the (S,G) tree upstream.
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  DownstreamState downstream_state(const Address& src, const Address& group,
                                   IfaceId iface) const;
  /// Engine-neutral form of downstream_state(): true iff kPruned.
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  const PimDmConfig& config() const { return config_; }

 private:
  struct PimDownstream : Downstream {
    DownstreamState state = DownstreamState::kForwarding;
    std::unique_ptr<Timer> prune_pending_timer;  // LAN prune delay
    std::unique_ptr<Timer> prune_expiry_timer;   // prune holdtime
  };
  struct PimEntry : SgEntry {
    bool upstream_pruned = false;  // we pruned ourselves off upstream
    Time last_prune_tx = Time::never();
    bool graft_pending = false;
    std::unique_ptr<Timer> graft_retry_timer;
    std::unique_ptr<Timer> join_override_timer;
    /// The upstream neighbor named by the prune we are overriding (may
    /// differ from rpf_neighbor when our RPF information is stale).
    Address join_override_target;
    /// Periodic State Refresh origination (first-hop routers only).
    std::unique_ptr<Timer> state_refresh_timer;
  };
  static PimEntry& pim(SgEntry& e) { return static_cast<PimEntry&>(e); }
  static const PimEntry& pim(const SgEntry& e) {
    return static_cast<const PimEntry&>(e);
  }
  static PimDownstream& pim(Downstream& d) {
    return static_cast<PimDownstream&>(d);
  }
  static const PimDownstream& pim(const Downstream& d) {
    return static_cast<const PimDownstream&>(d);
  }

  // DenseModeEngine hooks.
  std::unique_ptr<SgEntry> make_entry(const SgKey& key,
                                      const Route& route) override;
  std::unique_ptr<Downstream> make_downstream() const override;
  bool downstream_wants(const SgEntry& e, IfaceId iface,
                        const Downstream& d) const override;
  void update_upstream(SgEntry& e, bool wants) override;
  void on_unwanted_data(SgEntry& e) override;
  void decline_nonrpf(SgEntry& e, IfaceId iface) override;
  void emit_hello(IfaceId iface) override;
  void emit_assert(const SgEntry& e, IfaceId iface) override;
  Address control_source(IfaceId iface) const override;
  void on_assert_lost(SgEntry& e, IfaceId iface,
                      const Address& winner) override;
  bool contests_assert(const Downstream& d) const override;

  // Entry points.
  void on_pim_message(const ParsedDatagram& d, IfaceId iface);
  void on_hello(const PimHello& hello, const Address& from, IfaceId iface);
  void on_join_prune(const PimJoinPrune& jp, IfaceId iface);
  void on_graft(const PimJoinPrune& graft, const Address& from,
                IfaceId iface);
  void on_graft_ack(const PimJoinPrune& ack);
  void on_state_refresh(const PimStateRefresh& sr, IfaceId iface);

  // Message emission.
  void send_prune_upstream(PimEntry& e);
  void send_graft_upstream(PimEntry& e);
  void send_join_override(PimEntry& e, const Address& upstream);
  void send_graft_ack(const PimJoinPrune& graft, const Address& to,
                      IfaceId iface);
  void originate_state_refresh(PimEntry& e);
  void forward_state_refresh(PimEntry& e, const PimStateRefresh& sr);
  void emit(IfaceId iface, PimType type, BytesView body, const Address& dst);

  PimDmConfig config_;
};

}  // namespace mip6

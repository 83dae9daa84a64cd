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
// The paper's mobile-sender pathologies fall out of these rules: a moved
// sender's new care-of address creates a brand-new flooded tree, its stale
// packets on the new link hit forwarding outgoing interfaces and trigger
// Asserts, and the old tree lingers until the data timeout.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return "pimdm"; }
  /// Re-enables PIM on every configured interface that is currently
  /// attached (cold boot after a restart).
  void start() override;
  /// Crash semantics: shutdown(), keeping the configured-interface set.
  void reset() override { shutdown(); }
  /// Teardown: shutdown() plus releasing the stack hooks (multicast
  /// forwarder + PIM protocol handler) this router installed.
  void stop() override;

  /// Enables PIM on an interface: Hello emission + neighbor tracking.
  /// Remembered for start() after a crash/restart cycle.
  void enable_iface(IfaceId iface) override;

  /// Crash support: drops every (S,G) entry, every neighbor, all timers and
  /// all local-receiver pins — the router forgets everything it learned.
  /// Re-enable interfaces (enable_iface) to bring the protocol back up.
  void shutdown();
  /// The interfaces PIM is currently enabled on (for restart wiring).
  std::vector<IfaceId> enabled_ifaces() const override;

  /// Marks this router node itself as a receiver for `group` (the home
  /// agent "joins on behalf of" mobile nodes this way): the router will not
  /// prune itself off the (S,G) trees of the group even with an empty
  /// outgoing list. Reference-counted per caller tag.
  void add_local_receiver(const Address& group) override;
  void remove_local_receiver(const Address& group) override;
  bool is_local_receiver(const Address& group) const override;

  // --- Introspection for tests, metrics and benches ---------------------
  // SgKey comes from DenseModeEngine; PimDmRouter::SgKey stays valid at
  // every historical call site via inheritance.
  enum class DownstreamState { kForwarding, kPrunePending, kPruned };

  std::size_t entry_count() const override { return entries_.size(); }
  /// Keys of every live (S,G) entry (auditor walks these).
  std::vector<SgKey> sg_keys() const override;
  bool has_entry(const Address& src, const Address& group) const override;
  /// True if this router pruned itself off the (S,G) tree upstream.
  bool upstream_pruned(const Address& src,
                       const Address& group) const override;
  /// The upstream RPF neighbor (unspecified when first-hop router).
  Address rpf_neighbor_of(const Address& src,
                          const Address& group) const override;
  /// True if this router lost the Assert election on `iface`.
  bool assert_loser(const Address& src, const Address& group,
                    IfaceId iface) const override;
  /// Interfaces the entry currently forwards onto (the "oif list").
  std::vector<IfaceId> outgoing(const Address& src,
                                const Address& group) const override;
  IfaceId incoming(const Address& src, const Address& group) const override;
  DownstreamState downstream_state(const Address& src, const Address& group,
                                   IfaceId iface) const;
  /// Engine-neutral form of downstream_state(): true iff kPruned.
  bool downstream_pruned(const Address& src, const Address& group,
                         IfaceId iface) const override;
  std::vector<Address> neighbors(IfaceId iface) const override;
  const PimDmConfig& config() const { return config_; }

 private:
  struct Downstream {
    DownstreamState state = DownstreamState::kForwarding;
    std::unique_ptr<Timer> prune_pending_timer;  // LAN prune delay
    std::unique_ptr<Timer> prune_expiry_timer;   // prune holdtime
    bool assert_loser = false;
    std::unique_ptr<Timer> assert_timer;
    Time last_assert_tx = Time::never();
    /// Rate limiter for prunes sent in response to non-RPF data arrivals.
    Time last_nonrpf_prune_tx = Time::never();
  };
  struct SgEntry {
    Address source;
    Address group;
    IfaceId incoming = 0;
    Address rpf_neighbor;  // unspecified when we are the first-hop router
    std::uint32_t rpf_metric = 0;
    // Best assert heard on the incoming interface so far; the winner of
    // the election becomes the RPF neighbor (order-independent).
    std::uint32_t assert_winner_pref = 0;
    std::uint32_t assert_winner_metric = 0;
    Address assert_winner_addr;
    std::map<IfaceId, std::unique_ptr<Downstream>> downstream;
    bool upstream_pruned = false;  // we pruned ourselves off upstream
    Time last_prune_tx = Time::never();
    bool graft_pending = false;
    std::unique_ptr<Timer> graft_retry_timer;
    std::unique_ptr<Timer> entry_timer;  // data timeout
    std::unique_ptr<Timer> join_override_timer;
    /// The upstream neighbor named by the prune we are overriding (may
    /// differ from rpf_neighbor when our RPF information is stale).
    Address join_override_target;
    /// Periodic State Refresh origination (first-hop routers only).
    std::unique_ptr<Timer> state_refresh_timer;
  };
  struct IfaceState {
    std::unique_ptr<Timer> hello_timer;
    // neighbor address -> liveness timer
    std::map<Address, std::unique_ptr<Timer>> neighbors;
  };

  // DenseDataPlane::Engine: the data plane's slow path and oif walk.
  void on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                     IfaceId iface) override;
  bool describe_flow(const Address& src, const Address& group,
                     DenseDataPlane::Flow& flow) const override;

  // Entry points.
  void on_pim_message(const ParsedDatagram& d, IfaceId iface);
  void on_hello(const PimHello& hello, const Address& from, IfaceId iface);
  void on_join_prune(const PimJoinPrune& jp, const Address& from,
                     IfaceId iface);
  void on_graft(const PimJoinPrune& graft, const Address& from,
                IfaceId iface);
  void on_graft_ack(const PimJoinPrune& ack, IfaceId iface);
  void on_assert(const PimAssert& a, const Address& from, IfaceId iface);
  void on_state_refresh(const PimStateRefresh& sr, IfaceId iface);
  void on_mld_change(IfaceId iface, const Address& group, bool present);

  // State machinery.
  SgEntry* find_entry(const Address& src, const Address& group);
  const SgEntry* find_entry(const Address& src, const Address& group) const;
  SgEntry* create_entry(const Address& src, const Address& group);
  void delete_entry(const SgKey& key);
  /// Whether the entry forwards onto one downstream interface.
  bool oif_active(const SgEntry& e, IfaceId iface, const Downstream& d) const;
  /// Allocation-free "is this interface in the entry's oif set?".
  bool in_oiflist(const SgEntry& e, IfaceId iface) const;
  bool wants_traffic(const SgEntry& e) const;
  void check_upstream(SgEntry& e);
  /// Variant taking the already-computed wants_traffic() result so the
  /// data path never evaluates the oif set twice for one packet.
  void check_upstream(SgEntry& e, bool wants);

  // Message emission.
  void send_hello(IfaceId iface);
  void send_prune_upstream(SgEntry& e);
  void send_graft_upstream(SgEntry& e);
  void send_join_override(SgEntry& e, const Address& upstream);
  void send_assert(SgEntry& e, IfaceId iface);
  void send_graft_ack(const PimJoinPrune& graft, const Address& to,
                      IfaceId iface);
  void originate_state_refresh(SgEntry& e);
  void forward_state_refresh(SgEntry& e, const PimStateRefresh& sr);
  void emit(IfaceId iface, PimType type, BytesView body, const Address& dst);

  Downstream& downstream(SgEntry& e, IfaceId iface);
  bool pim_enabled(IfaceId iface) const { return ifaces_.contains(iface); }
  bool has_neighbors(IfaceId iface) const;
  void count(std::string_view name, std::uint64_t delta = 1);
  Time now() const { return stack_->network().now(); }
  Trace& trace() const { return stack_->network().trace(); }
  /// Lazy protocol-event trace; `detail_fn` only runs when a sink is
  /// installed, so this is free in benches.
  template <typename DetailFn>
  void trace_event(const char* event, DetailFn&& detail_fn) const {
    trace().emit(now(), component_, event, std::forward<DetailFn>(detail_fn));
  }

  Ipv6Stack* stack_;
  MldRouter* mld_;
  PimDmConfig config_;
  std::string component_;  // "pimdm/<node>", cached for trace records
  /// "pimdm/rx-wrong-iface": every data arrival off the RPF interface.
  CounterCell c_wrong_iface_;
  /// Every interface enable_iface() was ever called for (restart wiring).
  std::set<IfaceId> configured_;
  std::map<IfaceId, IfaceState> ifaces_;
  std::map<SgKey, std::unique_ptr<SgEntry>> entries_;
  std::map<Address, int> local_receivers_;
};

}  // namespace mip6

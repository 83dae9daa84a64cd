// The control-plane core both dense-mode multicast engines share.
//
// Two engines derive from it: PimDmRouter (soft-state flood-and-prune,
// draft-ietf-pim-v2-dm-03) and HpimDmRouter (hard-state reliable sync,
// arXiv 2002.06635). Everything engine-agnostic — the World wiring, the
// home agent's membership backend, the Auditor's invariant checks, metrics
// and benches — talks to this class so a ScenarioSpec can swap engines
// without touching the rest of the simulation.
//
// The core owns what both engines do the same way:
//   * the (S,G) table: incoming interface, RPF neighbor and metric, the
//     Assert winner heard upstream, the data timeout, and per-interface
//     downstream records that carry the Assert state;
//   * entry creation from the RIB, expiry at the data timeout, and the RPF
//     re-anchor when data arrives on the interface the RIB now names;
//   * the Assert election (one tuple comparison, one rate limit) and the
//     lose-Assert transition with its timer;
//   * the local-receiver refcount and the MLD-change loop;
//   * the enabled interfaces with their hello timers and neighbor records;
//   * the DenseDataPlane both engines forward through, and its slow path.
// An engine keeps its own signalling (PIM-DM: Prune, Graft, Join override,
// State Refresh; HPIM-DM: reliable channels, Interest/Sync, crash hard
// state, leaf groups), adds its fields by deriving SgEntry, Downstream and
// Neighbor, and answers the protected hooks below. The core never asks
// which engine it serves.
//
// The data path is not behind virtuals: the DenseDataPlane installs the
// multicast-forwarder hook on the Ipv6Stack and serves cache hits without
// calling into the engine. Every state change that can alter a forwarding
// decision invalidates the cache (data_plane_.invalidate*()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipv6/address.hpp"
#include "ipv6/stack.hpp"
#include "mld/router.hpp"
#include "net/interface.hpp"
#include "net/protocol_module.hpp"
#include "pimdm/dense_data_plane.hpp"
#include "sim/timer.hpp"

namespace mip6 {

class DenseModeEngine : public ProtocolModule,
                        private DenseDataPlane::Engine {
 public:
  /// Key of one (S,G) forwarding entry. Shared by both engines so auditor
  /// maps and bench tables can mix keys from different routers.
  struct SgKey {
    Address source;
    Address group;
    friend auto operator<=>(const SgKey&, const SgKey&) = default;
  };

  // --- ProtocolModule ----------------------------------------------------
  const char* module_kind() const override { return kind_.c_str(); }
  /// Re-enables every configured interface that is currently attached
  /// (cold boot after a restart).
  void start() override;
  /// Drops every (S,G) entry, every neighbor, all timers and all
  /// local-receiver pins — the router forgets everything it learned — but
  /// keeps the configured-interface set for start().
  void reset() override;
  /// Teardown: reset() plus releasing the hooks the engine installed on
  /// the stack (multicast forwarder, PIM protocol handler) and on MLD.
  void stop() override;

  // --- Interfaces ----------------------------------------------------------
  /// Enables the engine on an interface: hello emission and neighbor
  /// tracking. Remembered for start() after a crash/restart cycle.
  void enable_iface(IfaceId iface);
  /// The interfaces the engine is currently enabled on.
  std::vector<IfaceId> enabled_ifaces() const;
  std::vector<Address> neighbors(IfaceId iface) const;

  // --- Local receivers (home agent "joins on behalf of" mobile nodes) ----
  /// Marks this router itself as a receiver for `group`: it stays on the
  /// group's (S,G) trees even with an empty outgoing list. Reference-
  /// counted; removing an absent group is harmless.
  void add_local_receiver(const Address& group);
  void remove_local_receiver(const Address& group);
  bool is_local_receiver(const Address& group) const;

  // --- Introspection for the auditor, metrics and benches ----------------
  std::size_t entry_count() const { return entries_.size(); }
  /// The data plane the engine forwards through (coherence checks).
  const DenseDataPlane& data_plane() const { return data_plane_; }
  /// Occupied (S,G) flow-cache slots, stale entries included — the chaos
  /// watchdogs compare this against a fault-free oracle to catch leaks.
  std::size_t mfc_entries() const { return data_plane_.cache_slots(); }
  /// Keys of every live (S,G) entry (auditor walks these).
  std::vector<SgKey> sg_keys() const;
  bool has_entry(const Address& src, const Address& group) const;
  /// The upstream RPF neighbor (unspecified when first-hop router). Throws
  /// LogicError when there is no such entry, as incoming() does.
  Address rpf_neighbor_of(const Address& src, const Address& group) const;
  /// Interfaces the entry currently forwards onto (the "oif list").
  std::vector<IfaceId> outgoing(const Address& src,
                                const Address& group) const;
  IfaceId incoming(const Address& src, const Address& group) const;
  /// True if this router took itself off the (S,G) tree upstream (pruned
  /// in PIM-DM; declared not-interested in HPIM-DM).
  virtual bool upstream_pruned(const Address& src,
                               const Address& group) const = 0;
  /// True when the engine has positively concluded no downstream router on
  /// `iface` wants (S,G) traffic — a pruned oif in PIM-DM, an all-neighbors-
  /// declared-uninterested oif in HPIM-DM. The auditor's prune-coherence
  /// check keys off this.
  virtual bool downstream_pruned(const Address& src, const Address& group,
                                 IfaceId iface) const = 0;

 protected:
  /// An Assert's election tuple: lower preference wins, then lower metric,
  /// then the higher address.
  struct AssertMetric {
    std::uint32_t preference = 0;
    std::uint32_t metric = 0;
    Address addr;
  };
  /// One downstream interface of an (S,G) entry.
  struct Downstream {
    virtual ~Downstream() = default;
    bool assert_loser = false;
    std::unique_ptr<Timer> assert_timer;
    Time last_assert_tx = Time::never();
    /// Rate limiter for what data arriving on this non-RPF interface makes
    /// the engine send.
    Time last_nonrpf_tx = Time::never();
  };
  struct SgEntry {
    virtual ~SgEntry() = default;
    Address source;
    Address group;
    IfaceId incoming = 0;
    Address rpf_neighbor;  // unspecified when we are the first-hop router
    std::uint32_t rpf_metric = 0;
    /// Best Assert heard on the incoming interface so far; the winner of
    /// the election becomes the RPF neighbor (order-independent).
    AssertMetric assert_winner;
    std::map<IfaceId, std::unique_ptr<Downstream>> downstream;
    std::unique_ptr<Timer> entry_timer;  // data timeout
  };
  /// A neighbor heard on an enabled interface.
  struct Neighbor {
    virtual ~Neighbor() = default;
    std::unique_ptr<Timer> liveness;
  };
  struct Iface {
    std::unique_ptr<Timer> hello_timer;
    std::map<Address, std::unique_ptr<Neighbor>> neighbors;
  };
  /// The settings both engines' configs carry under the same names.
  struct CoreConfig {
    Time hello_period;
    Time data_timeout;
    Time assert_time;
    Time assert_rate_limit;
    std::uint32_t metric_preference = 0;
  };

  /// `kind` names the engine: module kind, counter prefix ("<kind>/..."),
  /// trace component ("<kind>/<node>"). Installs the multicast forwarder
  /// and the MLD group callback.
  template <class Config>
  DenseModeEngine(Ipv6Stack& stack, MldRouter& mld, std::string_view kind,
                  const Config& c)
      : DenseModeEngine(stack, mld, kind,
                        CoreConfig{c.hello_period, c.data_timeout,
                                   c.assert_time, c.assert_rate_limit,
                                   c.metric_preference}) {}
  DenseModeEngine(Ipv6Stack& stack, MldRouter& mld, std::string_view kind,
                  CoreConfig config);

  // --- Hooks: what each engine answers ------------------------------------
  /// A new entry or downstream record with the engine's own fields. The
  /// core has armed the entry's data timeout before make_entry() runs, and
  /// fills in the core fields after it returns.
  virtual std::unique_ptr<SgEntry> make_entry(const SgKey& key,
                                              const Route& route) = 0;
  virtual std::unique_ptr<Downstream> make_downstream() const = 0;
  /// Whether listeners or neighbors on downstream `iface` want the entry's
  /// traffic (the RPF interface and Assert losers are already excluded).
  virtual bool downstream_wants(const SgEntry& e, IfaceId iface,
                                const Downstream& d) const = 0;
  /// Tells the upstream neighbor whether the entry `wants` traffic, when
  /// that differs from what it last said (PIM-DM: Prune/Graft; HPIM-DM:
  /// Interest).
  virtual void update_upstream(SgEntry& e, bool wants) = 0;
  /// A datagram arrived on the RPF interface and nothing wants it; by
  /// default the upstream hears so once.
  virtual void on_unwanted_data(SgEntry& e) { update_upstream(e, false); }
  /// Data arrived on `iface`, neither the RPF interface nor an oif: tell
  /// the forwarders there that this router does not need it. The core has
  /// applied the Assert rate limit and skips Assert losers.
  virtual void decline_nonrpf(SgEntry& e, IfaceId iface) = 0;
  virtual void emit_hello(IfaceId iface) = 0;
  virtual void emit_assert(const SgEntry& e, IfaceId iface) = 0;
  /// Source address of the engine's control messages on `iface`; an Assert
  /// tie compares it.
  virtual Address control_source(IfaceId iface) const = 0;
  /// This router just lost the Assert on `iface` to `winner`; the core
  /// re-evaluates the upstream right after.
  virtual void on_assert_lost(SgEntry& e, IfaceId iface,
                              const Address& winner) = 0;
  /// Whether a downstream record takes part in Assert elections.
  virtual bool contests_assert(const Downstream&) const { return true; }
  /// An Assert heard on the RPF interface beats the recorded winner: record
  /// it and make its sender the RPF neighbor.
  virtual void adopt_assert_winner(SgEntry& e, const AssertMetric& winner);
  /// The RPF re-anchor moved the entry to a new upstream.
  virtual void on_upstream_moved(SgEntry&) {}
  /// MLD listener change on `iface`: re-evaluates the group's entries.
  virtual void on_mld_change(IfaceId iface, const Address& group,
                             bool present);

  // --- The (S,G) table ------------------------------------------------------
  SgEntry* find_entry(const Address& src, const Address& group);
  const SgEntry* find_entry(const Address& src, const Address& group) const;
  /// Creates the entry from the RIB route toward `src`; nullptr (counted as
  /// "<kind>/rpf-fail") when there is none.
  SgEntry* create_entry(const Address& src, const Address& group);
  void delete_entry(const SgKey& key);
  /// The downstream record for `iface`, created on first use.
  Downstream& downstream(SgEntry& e, IfaceId iface);
  /// Allocation-free "is this interface in the entry's oif set?".
  bool in_oiflist(const SgEntry& e, IfaceId iface) const;
  bool wants_traffic(const SgEntry& e) const;
  /// update_upstream() with the entry's current wants_traffic().
  void check_upstream(SgEntry& e) { update_upstream(e, wants_traffic(e)); }

  // --- Assert --------------------------------------------------------------
  /// A received Assert; PimAssert and HpimAssert carry the same fields.
  template <class AssertMsg>
  void on_assert(const AssertMsg& a, const Address& from, IfaceId iface) {
    on_assert(a.source, a.group,
              AssertMetric{a.metric_preference, a.metric, from}, iface);
  }
  void on_assert(const Address& src, const Address& group,
                 const AssertMetric& theirs, IfaceId iface);
  /// Emits an Assert on `iface` unless one went out within the rate limit.
  void send_assert(SgEntry& e, IfaceId iface);
  /// The Assert rate limit: false when `last` is within assert_rate_limit
  /// of now; otherwise restarts `last` and returns true.
  bool rate_allows(Time& last);

  // --- Interfaces and helpers --------------------------------------------
  bool enabled(IfaceId iface) const { return ifaces_.contains(iface); }
  bool has_neighbors(IfaceId iface) const;
  /// Emits a hello on `iface` (periodic, or triggered by a new neighbor).
  void send_hello(IfaceId iface);
  void count(std::string_view name, std::uint64_t delta = 1) {
    stack_->network().counters().add(name, delta);
  }
  Time now() const { return stack_->network().now(); }
  /// Lazy protocol-event trace; `detail_fn` only runs when a sink is
  /// installed, so this is free in benches.
  template <typename DetailFn>
  void trace_event(const char* event, DetailFn&& detail_fn) const {
    stack_->network().trace().emit(now(), component_, event,
                                   std::forward<DetailFn>(detail_fn));
  }

  Ipv6Stack* stack_;
  MldRouter* mld_;
  DenseDataPlane data_plane_;
  std::map<IfaceId, Iface> ifaces_;
  std::map<SgKey, std::unique_ptr<SgEntry>> entries_;
  std::map<Address, int> local_receivers_;

 private:
  // DenseDataPlane::Engine: the data plane's slow path and oif walk.
  void on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                     IfaceId iface) override;
  bool describe_flow(const Address& src, const Address& group,
                     DenseDataPlane::Flow& flow) const override;
  bool oif_active(const SgEntry& e, IfaceId iface, const Downstream& d) const {
    return iface != e.incoming && !d.assert_loser &&
           downstream_wants(e, iface, d);
  }
  /// count("<kind>/<what>") without building a string per call.
  void count_own(std::string_view what);
  /// True when Assert tuple `a` beats `b`; an unspecified `b.addr` (no
  /// winner recorded yet) loses every tie.
  static bool beats(const AssertMetric& a, const AssertMetric& b);

  std::string kind_;
  CoreConfig core_;
  std::string component_;     // "<kind>/<node>", cached for trace records
  std::string counter_name_;  // count_own()'s "<kind>/..." scratch
  /// "<kind>/rx-wrong-iface": every data arrival off the RPF interface.
  CounterCell c_wrong_iface_;
  /// Every interface enable_iface() was ever called for (restart wiring).
  std::set<IfaceId> configured_;
};

}  // namespace mip6

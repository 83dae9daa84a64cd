// Engine-neutral interface over a dense-mode multicast routing engine.
//
// Two engines implement it: PimDmRouter (soft-state flood-and-prune,
// draft-ietf-pim-v2-dm-03) and HpimDmRouter (hard-state reliable sync,
// arXiv 2002.06635). Everything engine-agnostic — the World wiring, the
// home agent's membership backend, the Auditor's invariant checks, metrics
// and benches — talks to this interface so a ScenarioSpec can swap engines
// without touching the rest of the simulation.
//
// The data path is NOT behind these virtuals: the base owns the one
// DenseDataPlane both engines forward through, which installs the
// multicast-forwarder hook directly on the Ipv6Stack and serves cache hits
// without calling into the engine. An engine implements the data plane's
// miss dispatch and oif walk (DenseDataPlane::Engine) and invalidates the
// cache on every state change that can alter a forwarding decision.
#pragma once

#include <cstddef>
#include <vector>

#include "ipv6/address.hpp"
#include "net/interface.hpp"
#include "net/protocol_module.hpp"
#include "pimdm/dense_data_plane.hpp"

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

  // --- Lifecycle beyond ProtocolModule -----------------------------------
  /// Enables the engine on an interface (hello emission, neighbor
  /// tracking). Remembered for start() after a crash/restart cycle.
  virtual void enable_iface(IfaceId iface) = 0;
  /// The interfaces the engine is currently enabled on.
  virtual std::vector<IfaceId> enabled_ifaces() const = 0;

  // --- Local receivers (home agent "joins on behalf of" mobile nodes) ----
  virtual void add_local_receiver(const Address& group) = 0;
  virtual void remove_local_receiver(const Address& group) = 0;
  virtual bool is_local_receiver(const Address& group) const = 0;

  // --- Introspection for the auditor, metrics and benches ----------------
  virtual std::size_t entry_count() const = 0;
  /// The data plane the engine forwards through (coherence checks).
  const DenseDataPlane& data_plane() const { return data_plane_; }
  /// Occupied (S,G) flow-cache slots, stale entries included — the chaos
  /// watchdogs compare this against a fault-free oracle to catch leaks.
  std::size_t mfc_entries() const { return data_plane_.cache_slots(); }
  /// Keys of every live (S,G) entry (auditor walks these).
  virtual std::vector<SgKey> sg_keys() const = 0;
  virtual bool has_entry(const Address& src, const Address& group) const = 0;
  /// True if this router took itself off the (S,G) tree upstream (pruned
  /// in PIM-DM; declared not-interested in HPIM-DM).
  virtual bool upstream_pruned(const Address& src,
                               const Address& group) const = 0;
  /// The upstream RPF neighbor (unspecified when first-hop router).
  virtual Address rpf_neighbor_of(const Address& src,
                                  const Address& group) const = 0;
  /// True if this router lost the Assert election on `iface`.
  virtual bool assert_loser(const Address& src, const Address& group,
                            IfaceId iface) const = 0;
  /// Interfaces the entry currently forwards onto (the "oif list").
  virtual std::vector<IfaceId> outgoing(const Address& src,
                                        const Address& group) const = 0;
  virtual IfaceId incoming(const Address& src, const Address& group) const = 0;
  /// True when the engine has positively concluded no downstream router on
  /// `iface` wants (S,G) traffic — a pruned oif in PIM-DM, an all-neighbors-
  /// declared-uninterested oif in HPIM-DM. The auditor's prune-coherence
  /// check keys off this.
  virtual bool downstream_pruned(const Address& src, const Address& group,
                                 IfaceId iface) const = 0;
  virtual std::vector<Address> neighbors(IfaceId iface) const = 0;

 protected:
  /// `kind` prefixes the data plane's counters; `data_timeout` is what a
  /// forwarded datagram restarts an entry's data timeout to.
  DenseModeEngine(Ipv6Stack& stack, std::string_view kind, Time data_timeout)
      : data_plane_(stack, *this, kind, data_timeout) {}

  DenseDataPlane data_plane_;
};

}  // namespace mip6

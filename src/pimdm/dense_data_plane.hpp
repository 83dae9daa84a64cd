// The multicast data plane both dense-mode engines forward through,
// modelled on Linux mroute6: one multicast forwarding cache that the routing
// daemon fills on miss upcalls. It owns the dense interface indices, the
// (S,G) flow cache, the forwarding counters and the forwarder hook on the
// stack. The control plane (DenseModeEngine, the core PIM-DM and HPIM-DM
// share) answers two questions behind DenseDataPlane::Engine: what to do
// with a datagram the cache did not serve, and which interfaces an (S,G)
// entry forwards onto.
//
// The control plane is the cache invalidator: every transition that
// can change an entry's oif set, RPF interface or cacheability calls
// invalidate(), or invalidate_all() when it touches every entry (neighbor
// set, crash). A missed invalidation forwards from a stale entry;
// first_incoherent() finds one by comparing every reachable fresh entry with
// what refill would install now, and the regression runs in
// tests/integration/mfc_invalidation_test.cpp call it at every frame.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipv6/stack.hpp"
#include "net/mfc.hpp"
#include "sim/time.hpp"

namespace mip6 {

class DenseDataPlane {
 public:
  /// One (S,G) entry's forwarding state as its engine sees it now.
  struct Flow {
    IfaceId iif = 0;
    /// Restarted by every datagram forwarded for the entry.
    Timer* data_timeout = nullptr;
    /// The router itself receives the group (a home agent's pin).
    bool local_receiver = false;
    /// Every interface the entry keeps downstream state for, ascending,
    /// with whether the entry forwards onto it.
    std::vector<std::pair<IfaceId, bool>> downstream;
  };

  /// The engine side of the data plane; neither call is on the hit path.
  class Engine {
   public:
    /// Slow path for a datagram the cache did not serve.
    virtual void on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                               IfaceId iface) = 0;
    /// Appends the live (src, group) entry's state to `flow`; false when
    /// the engine has no such entry.
    virtual bool describe_flow(const Address& src, const Address& group,
                               Flow& flow) const = 0;

   protected:
    ~Engine() = default;
  };

  /// Installs the multicast forwarder on `stack`. Counters are named
  /// "<kind>/mfc-hit", "<kind>/mfc-miss" (plus ".if<id>" per arrival
  /// interface) and "<kind>/data-fwd".
  DenseDataPlane(Ipv6Stack& stack, Engine& engine, std::string_view kind,
                 Time data_timeout);
  /// The stack's forwarder hook holds `this`.
  DenseDataPlane(const DenseDataPlane&) = delete;
  DenseDataPlane& operator=(const DenseDataPlane&) = delete;

  /// Registers an interface the engine runs on; throws LogicError beyond
  /// IfSet::kBits interfaces.
  void add_iface(IfaceId iface) { (void)mif_of(iface); }
  /// Miss path: installs (src, group)'s oif bitmap from the engine and
  /// forwards `pkt` through it. False, forwarding nothing, when the entry
  /// is not cacheable (no oif and no local receiver): that state carries
  /// the engine's upstream self-prune, which must see every datagram.
  bool refill_and_forward(const Packet& pkt, const Address& src,
                          const Address& group);
  void invalidate(const Address& src, const Address& group) {
    cache_.invalidate(flow_key(src, group));
  }
  void invalidate_all() { cache_.invalidate_all(); }
  /// Drops every entry (the engine is destroying its (S,G) entries).
  void clear() { cache_.clear(); }

  /// Occupied flow-cache slots, stale ones included.
  std::size_t cache_slots() const { return cache_.size(); }
  /// The first reachable fresh entry that differs from what refill would
  /// install from the engine's state now (live entry, RPF interface,
  /// cacheability, oif bitmap), described; empty when the cache is
  /// coherent. Cost is linear in the cache: for tests and audits.
  std::string first_incoherent() const;

 private:
  static FlowKey flow_key(const Address& src, const Address& group) {
    return FlowKey{{src.high64(), src.low64(), group.high64(), group.low64()}};
  }
  void on_data(const ParsedDatagram& d, const Packet& pkt, IfaceId iface);
  /// Registers `iface`; a renumbering insertion flushes the whole cache
  /// (bitmaps built under the old numbering are garbage).
  Mifi mif_of(IfaceId iface);
  /// Re-resolves the per-arrival-interface hit/miss cells after a
  /// mif-table change (cold path: string work happens here, never per
  /// packet).
  void rebuild_cells();
  /// `flow`'s oif bitmap under the current numbering; false when one of
  /// its oifs has no mifi.
  bool oif_bitmap(const Flow& flow, IfSet& out) const;

  Ipv6Stack* stack_;
  Engine* engine_;
  std::string kind_;
  Time data_timeout_;
  CounterCell c_data_fwd_;
  CounterCell c_hit_;
  CounterCell c_miss_;
  /// Per-arrival-interface hit/miss cells, index = mifi.
  std::vector<CounterCell> c_if_hit_;
  std::vector<CounterCell> c_if_miss_;
  MifTable mifs_;
  FlowCache cache_;
  /// Refill's scratch: keeps its capacity, so a refill does not allocate.
  Flow flow_;
};

}  // namespace mip6

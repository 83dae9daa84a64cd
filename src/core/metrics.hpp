// Quantification of the paper's Section 4.3 comparison criteria.
//
// A network-wide transmission hook classifies every frame placed on every
// link. For the tracked group, each transmission carrying group data —
// natively or inside a Mobile IPv6 tunnel — is charged to the link; per
// distinct application datagram the metric also charges the *optimal* cost
// (bytes × links of the current shortest-path tree from the source link to
// the member links). The difference is exactly the bandwidth the paper
// calls wasted — flooding before prunes, leave-delay forwarding onto
// memberless links, and tunnel detours — and the ratio is the routing
// stretch ("datagrams crossing some links and routers twice").
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "ipv6/global_routing.hpp"
#include "ipv6/udp.hpp"
#include "net/network.hpp"

namespace mip6 {

class McastMetrics {
 public:
  /// Starts observing `net` for UDP datagrams to `group` on `data_port`.
  McastMetrics(Network& net, GlobalRouting& routing, Address group,
               std::uint16_t data_port);
  /// Stops observing: owners destroy the metrics before the world, whose
  /// teardown still transmits.
  ~McastMetrics();
  McastMetrics(const McastMetrics&) = delete;
  McastMetrics& operator=(const McastMetrics&) = delete;

  /// Declares the current source link and member links; called by the
  /// scenario whenever membership or positions change. The optimal tree is
  /// recomputed from the unicast topology.
  void update_reference_tree(LinkId source_link,
                             const std::vector<LinkId>& member_links);

  // --- Aggregates -------------------------------------------------------
  /// Total group-data octets placed on links (native + tunneled).
  std::uint64_t actual_bytes() const { return actual_bytes_; }
  /// Octets an ideal shortest-path tree would have placed.
  std::uint64_t optimal_bytes() const { return optimal_bytes_; }
  /// actual - optimal, clamped at zero.
  std::uint64_t wasted_bytes() const {
    return actual_bytes_ > optimal_bytes_ ? actual_bytes_ - optimal_bytes_
                                          : 0;
  }
  double stretch() const {
    return optimal_bytes_ == 0
               ? 0.0
               : static_cast<double>(actual_bytes_) /
                     static_cast<double>(optimal_bytes_);
  }
  /// Octets of group data tunneled (unicast encapsulated) rather than
  /// natively multicast.
  std::uint64_t tunneled_bytes() const { return tunneled_bytes_; }
  std::uint64_t data_transmissions() const { return data_tx_; }
  std::uint64_t distinct_datagrams() const { return seen_seqs_.size(); }

  // --- Per-link views (leave-delay measurements) -------------------------
  Time last_data_tx_on(LinkId link) const;
  std::uint64_t data_tx_count_on(LinkId link) const;
  std::uint64_t data_bytes_on(LinkId link) const;

 private:
  struct LinkStats {
    std::uint64_t tx = 0;
    std::uint64_t bytes = 0;
    Time last_tx = Time::never();
  };

  void on_tx(const Link& link, const Packet& pkt);

  // on_tx runs on whichever shard transmits, so the accumulators are
  // guarded; aggregate reads are for quiesced contexts (structural probes,
  // post-run assertions), same contract as the Link counters.
  mutable std::mutex mu_;
  Network* net_;
  Network::TxHookId tx_hook_;
  GlobalRouting* routing_;
  Address group_;
  std::uint16_t data_port_;

  std::size_t reference_tree_links_ = 0;
  std::uint64_t actual_bytes_ = 0;
  std::uint64_t optimal_bytes_ = 0;
  std::uint64_t tunneled_bytes_ = 0;
  std::uint64_t data_tx_ = 0;
  /// Sorted; one entry per distinct application datagram.
  std::vector<std::uint32_t> seen_seqs_;
  std::map<LinkId, LinkStats> per_link_;
};

}  // namespace mip6

// Multi-access link (LAN segment / "Link N" in the paper's Figure 1).
//
// A transmission by one attached interface is delivered to every other
// attached interface after serialization delay (size/bit-rate) plus
// propagation delay. Per-link byte counters feed the bandwidth-consumption
// metrics of Section 4.3; an optional drop function injects loss (used by
// the binding-lifetime ablation).
//
// Fault-injection surface (chaos engine): a link can be administratively
// down (transmissions and in-flight deliveries are dropped and counted) and
// can carry impairments on every delivery — random loss, random single-byte
// corruption (the corrupted frame is still delivered, so every parser above
// must reject it), and bounded delay jitter. All randomness comes from the
// owning Network's RNG, so a seeded run is bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/interface.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "stats/counters.hpp"

namespace mip6 {

class Network;

using LinkId = std::uint32_t;

/// Degradation applied to deliveries (chaos engine "degrade" windows).
struct LinkImpairment {
  /// Probability a delivery is silently lost.
  double loss = 0.0;
  /// Probability a delivered frame has one random byte flipped.
  double corrupt = 0.0;
  /// Extra per-delivery delay, uniform in [0, jitter].
  Time jitter = Time::zero();

  bool any() const {
    return loss > 0.0 || corrupt > 0.0 || jitter > Time::zero();
  }
};

class Link {
 public:
  /// Returns true if the packet should be dropped on delivery to `to`.
  using DropFn = std::function<bool(const Packet&, const Interface& to)>;

  Link(Network& net, LinkId id, std::string name, Time delay,
       std::uint64_t bit_rate_bps);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  LinkId id() const { return id_; }
  const std::string& name() const { return name_; }
  Time delay() const { return delay_; }

  /// Transmits from `from`. Without `l2_dst`: delivered to all other
  /// attached interfaces (broadcast/multicast frame). With `l2_dst`:
  /// delivered only to that interface (link-layer unicast).
  void transmit(const Interface& from, const Packet& pkt,
                std::optional<IfaceId> l2_dst = std::nullopt);

  /// Neighbor resolution on this link: the attached interface (other than
  /// `asker`) answering for `addr_octets`, or nullptr.
  Interface* resolve(BytesView addr_octets, const Interface* asker) const;

  const std::vector<Interface*>& attached() const { return ifaces_; }

  // --- Administrative state (fault injection) ---------------------------
  bool up() const { return up_; }
  /// Takes the link down / brings it back up. While down, transmissions
  /// are dropped at the sender and frames already in flight are dropped on
  /// delivery (both counted under dropped()).
  void set_up(bool up);

  /// Applies `imp` to every delivery on this link (both directions).
  void set_impairment(LinkImpairment imp) { impairment_ = imp; }
  void clear_impairments() { impairment_ = LinkImpairment{}; }
  const LinkImpairment& impairment() const { return impairment_; }

  // --- Counters ---------------------------------------------------------
  // Backed by shard-safe registry cells (transmit and delivery run on the
  // endpoints' shards); reads merge outstanding shard overlays, so they are
  // for quiesced contexts (tests, metrics probes) — not packet events.
  std::uint64_t tx_packets() const { return c_tx_.value(); }
  /// Octets placed onto the link (counted once per transmission, not per
  /// receiver — a LAN carries the frame once).
  std::uint64_t tx_bytes() const { return c_tx_bytes_.value(); }
  /// Per-receiver deliveries that reached an interface's rx handler.
  std::uint64_t rx_packets() const { return c_rx_.value(); }
  /// Per-receiver deliveries lost: drop_fn hits, loss impairment, link-down
  /// drops (in-flight and at the sender).
  std::uint64_t dropped_packets() const { return c_dropped_.value(); }
  /// Deliveries that arrived with an injected byte flip.
  std::uint64_t corrupted_packets() const { return c_corrupted_.value(); }

  void set_drop_fn(DropFn fn) { drop_ = std::move(fn); }

 private:
  friend class Interface;
  void do_attach(Interface& iface);
  void do_detach(Interface& iface);

  void deliver_one(IfaceId to_id, const Packet& pkt);
  void count(const char* what, std::uint64_t delta = 1);

  Network* net_;
  LinkId id_;
  std::string name_;
  Time delay_;
  std::uint64_t bit_rate_bps_;  // 0 = infinitely fast serialization
  std::vector<Interface*> ifaces_;
  DropFn drop_;
  bool up_ = true;
  LinkImpairment impairment_;
  std::string counter_prefix_;
  // Shard-routing cells for the per-transmission / per-delivery counters,
  // resolved once at construction. count() stays for the cold names.
  CounterCell c_tx_;
  CounterCell c_tx_bytes_;
  CounterCell c_rx_;
  CounterCell c_dropped_;
  CounterCell c_corrupted_;
};

}  // namespace mip6

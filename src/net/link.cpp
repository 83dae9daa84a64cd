#include "net/link.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "util/errors.hpp"

namespace mip6 {

Link::Link(Network& net, LinkId id, std::string name, Time delay,
           std::uint64_t bit_rate_bps)
    : net_(&net), id_(id), name_(std::move(name)), delay_(delay),
      bit_rate_bps_(bit_rate_bps), counter_prefix_("link/" + name_ + "/") {
  auto& counters = net_->counters();
  c_tx_ = counters.cell(counter_prefix_ + "tx");
  c_tx_bytes_ = counters.cell(counter_prefix_ + "tx-bytes");
  c_rx_ = counters.cell(counter_prefix_ + "rx");
  c_dropped_ = counters.cell(counter_prefix_ + "dropped");
  c_corrupted_ = counters.cell(counter_prefix_ + "corrupted");
}

void Link::do_attach(Interface& iface) {
  if (std::find(ifaces_.begin(), ifaces_.end(), &iface) != ifaces_.end()) {
    throw LogicError("interface attached twice to link " + name_);
  }
  ifaces_.push_back(&iface);
}

void Link::do_detach(Interface& iface) {
  auto it = std::find(ifaces_.begin(), ifaces_.end(), &iface);
  if (it == ifaces_.end()) {
    throw LogicError("detach of unattached interface from link " + name_);
  }
  ifaces_.erase(it);
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  count(up ? "up" : "down");
}

void Link::count(const char* what, std::uint64_t delta) {
  net_->counters().add(counter_prefix_ + what, delta);
}

void Link::transmit(const Interface& from, const Packet& pkt,
                    std::optional<IfaceId> l2_dst) {
  if (!up_) {
    // Carrier lost: the frame never makes it onto the wire.
    c_dropped_.add();
    return;
  }
  c_tx_.add();
  c_tx_bytes_.add(pkt.size());
  net_->notify_tx(*this, from, pkt);

  Time ser = Time::zero();
  if (bit_rate_bps_ > 0) {
    // bits / (bits per second) -> seconds; keep integer ns arithmetic.
    ser = Time::ns(static_cast<std::int64_t>(
        (static_cast<__int128>(pkt.size()) * 8 * 1'000'000'000) /
        bit_rate_bps_));
  }
  Time arrival_delay = ser + delay_;

  // Snapshot receivers by interface id; delivery is skipped if the receiver
  // has left the link in the meantime (it moved away mid-flight).
  for (Interface* to : ifaces_) {
    if (to == &from) continue;
    if (l2_dst && to->id() != *l2_dst) continue;
    IfaceId to_id = to->id();
    Time extra = Time::zero();
    if (impairment_.jitter > Time::zero()) {
      // Sampled at transmit time so the event order (and with it the whole
      // run) stays deterministic for a given seed.
      extra = Time::ns(static_cast<std::int64_t>(
          net_->rng().uniform_int(
              static_cast<std::uint64_t>(impairment_.jitter.nanos()) + 1)));
    }
    // The delivery executes in the receiving node's domain: under parallel
    // execution that is the receiver's shard, with the event staged across
    // the shard boundary when sender and receiver are partitioned apart.
    // The loss/corrupt draws below then come from the receiver's own rng
    // stream, independent of how other nodes' events interleave.
    net_->scheduler().schedule_in(
        arrival_delay + extra,
        [this, to_id, pkt] { deliver_one(to_id, pkt); },
        to->node().domain());
  }
}

void Link::deliver_one(IfaceId to_id, const Packet& pkt) {
  if (!up_) {
    // Link went down while the frame was in flight.
    c_dropped_.add();
    return;
  }
  for (Interface* candidate : ifaces_) {
    if (candidate->id() != to_id) continue;
    if (drop_ && drop_(pkt, *candidate)) {
      c_dropped_.add();
      return;
    }
    if (impairment_.loss > 0.0 && net_->rng().bernoulli(impairment_.loss)) {
      c_dropped_.add();
      return;
    }
    if (impairment_.corrupt > 0.0 &&
        net_->rng().bernoulli(impairment_.corrupt) && pkt.size() > 0) {
      Bytes bytes = pkt.data();
      std::size_t idx = net_->rng().uniform_int(bytes.size());
      // Flip at least one bit (xor with a non-zero mask).
      bytes[idx] ^= static_cast<std::uint8_t>(
          1 + net_->rng().uniform_int(255));
      c_corrupted_.add();
      c_rx_.add();
      candidate->deliver(Packet(std::move(bytes)));
      return;
    }
    c_rx_.add();
    candidate->deliver(pkt);
    return;
  }
}

Interface* Link::resolve(BytesView addr_octets, const Interface* asker) const {
  for (Interface* i : ifaces_) {
    if (i == asker) continue;
    if (i->answers_for(addr_octets)) return i;
  }
  return nullptr;
}

}  // namespace mip6

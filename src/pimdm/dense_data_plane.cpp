#include "pimdm/dense_data_plane.hpp"

#include "sim/timer.hpp"

namespace mip6 {

DenseDataPlane::DenseDataPlane(Ipv6Stack& stack, Engine& engine,
                               std::string_view kind, Time data_timeout)
    : stack_(&stack), engine_(&engine), kind_(kind),
      data_timeout_(data_timeout),
      c_data_fwd_(stack.network().counters().cell(kind_ + "/data-fwd")),
      c_hit_(stack.network().counters().cell(kind_ + "/mfc-hit")),
      c_miss_(stack.network().counters().cell(kind_ + "/mfc-miss")) {
  stack.set_mcast_forwarder(
      [this](const ParsedDatagram& d, const Packet& pkt, IfaceId iface) {
        on_data(d, pkt, iface);
      });
}

void DenseDataPlane::on_data(const ParsedDatagram& d, const Packet& pkt,
                             IfaceId iface) {
  // Engine control traffic is multicast too (ff02::d), but link-scope
  // groups are filtered before the forwarder hook; only routable group
  // data reaches this point.
  const Address& src = d.hdr.src;
  if (src.is_multicast() || src.is_unspecified()) return;
  // A fresh entry holds the whole forwarding decision for arrivals on its
  // RPF interface; wrong-interface arrivals miss and fall through to the
  // engine (assert and non-RPF prune handling are control-plane work).
  // An unregistered interface is no entry's RPF interface.
  const Mifi mif = mifs_.lookup(iface);
  MfcEntry* m =
      mif != kNoMif ? cache_.find(flow_key(src, d.hdr.dst)) : nullptr;
  if (m != nullptr && iface == m->iif) {
    c_hit_.add();
    c_if_hit_[mif].add();
    m->data_timeout->extend(data_timeout_);
    c_data_fwd_.add(stack_->forward_out_many(pkt, m->oifs, mifs_));
    return;
  }
  c_miss_.add();
  if (mif != kNoMif) c_if_miss_[mif].add();
  engine_->on_cache_miss(d, pkt, iface);
}

bool DenseDataPlane::refill_and_forward(const Packet& pkt, const Address& src,
                                        const Address& group) {
  const FlowKey key = flow_key(src, group);
  flow_.downstream.clear();
  if (!engine_->describe_flow(src, group, flow_)) {
    cache_.invalidate(key);
    return false;
  }
  // Register every candidate interface before building the bitmap:
  // registration can renumber and flush the cache. The RPF interface is
  // registered too; the fast path only probes for registered arrivals.
  for (const auto& [iface, forwards] : flow_.downstream) (void)mif_of(iface);
  (void)mif_of(flow_.iif);
  IfSet oifs;
  (void)oif_bitmap(flow_, oifs);
  if (oifs.empty() && !flow_.local_receiver) {
    cache_.invalidate(key);
    return false;
  }
  MfcEntry& m = cache_.insert(key);
  m.iif = flow_.iif;
  m.oifs = oifs;
  m.data_timeout = flow_.data_timeout;
  c_data_fwd_.add(stack_->forward_out_many(pkt, oifs, mifs_));
  return true;
}

bool DenseDataPlane::oif_bitmap(const Flow& flow, IfSet& out) const {
  for (const auto& [iface, forwards] : flow.downstream) {
    if (!forwards) continue;
    const Mifi m = mifs_.lookup(iface);
    if (m == kNoMif) return false;
    out.set(m);
  }
  return true;
}

Mifi DenseDataPlane::mif_of(IfaceId iface) {
  Mifi m = mifs_.lookup(iface);
  if (m != kNoMif) return m;
  m = mifs_.add(iface);
  // The insertion renumbered every later index: bitmaps built under the
  // old numbering would transmit out the wrong interfaces, and the
  // per-mifi counter cells point at the wrong interface's counters.
  cache_.invalidate_all();
  rebuild_cells();
  return m;
}

void DenseDataPlane::rebuild_cells() {
  c_if_hit_.clear();
  c_if_miss_.clear();
  auto& reg = stack_->network().counters();
  for (Mifi m = 0; m < mifs_.size(); ++m) {
    const std::string suffix = ".if" + std::to_string(mifs_.iface(m));
    c_if_hit_.push_back(reg.cell(kind_ + "/mfc-hit" + suffix));
    c_if_miss_.push_back(reg.cell(kind_ + "/mfc-miss" + suffix));
  }
}

std::string DenseDataPlane::first_incoherent() const {
  std::string found;
  Flow flow;
  cache_.for_each_fresh([&](const MfcEntry& m) {
    if (!found.empty()) return;
    const Address src = Address::from_halves(m.key.w[0], m.key.w[1]);
    const Address group = Address::from_halves(m.key.w[2], m.key.w[3]);
    flow.downstream.clear();
    IfSet oifs;
    const char* why = nullptr;
    if (!engine_->describe_flow(src, group, flow) ||
        flow.data_timeout != m.data_timeout) {
      why = "no live entry";
    } else if (flow.iif != m.iif) {
      why = "RPF interface moved";
    } else if (!oif_bitmap(flow, oifs) || oifs != m.oifs) {
      why = "oif set changed";
    } else if (oifs.empty() && !flow.local_receiver) {
      why = "not cacheable";
    }
    if (why != nullptr) {
      found = kind_ + " (" + src.str() + ", " + group.str() + ") iif " +
              std::to_string(m.iif) + ": " + why;
    }
  });
  return found;
}

}  // namespace mip6

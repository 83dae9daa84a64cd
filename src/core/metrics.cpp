#include "core/metrics.hpp"

#include <algorithm>

#include "core/traffic.hpp"
#include "ipv6/datagram.hpp"

namespace mip6 {

McastMetrics::McastMetrics(Network& net, GlobalRouting& routing, Address group,
                           std::uint16_t data_port)
    : net_(&net), routing_(&routing), group_(group), data_port_(data_port) {
  tx_hook_ = net.add_tx_hook(
      [this](const Link& link, const Interface&, const Packet& pkt) {
        on_tx(link, pkt);
      });
}

McastMetrics::~McastMetrics() { net_->remove_tx_hook(tx_hook_); }

void McastMetrics::update_reference_tree(
    LinkId source_link, const std::vector<LinkId>& member_links) {
  std::size_t tree =
      routing_->shortest_path_tree(source_link, member_links).size();
  std::lock_guard<std::mutex> lock(mu_);
  reference_tree_links_ = tree;
  // The tree includes the source link itself; data already exists there, so
  // the cost in *additional* transmissions excludes it — but the source's
  // own transmission onto its link is counted in actual_bytes_, so keep the
  // source link in the reference for a like-for-like comparison.
}

void McastMetrics::on_tx(const Link& link, const Packet& pkt) {
  ParseResult<ParsedDatagram> parsed = try_parse_datagram(pkt.view());
  if (!parsed.ok()) return;
  const bool tunneled = parsed.value().protocol == proto::kIpv6;
  if (tunneled) {
    // The inner datagram's views point into pkt, as the outer's do.
    parsed = try_parse_datagram(parsed.value().payload);
    if (!parsed.ok()) return;
  }
  const ParsedDatagram& data = parsed.value();
  if (!(data.hdr.dst == group_) || data.protocol != proto::kUdp) return;

  const ParseResult<UdpView> udp =
      UdpDatagram::try_view(data.payload, data.hdr.src, data.hdr.dst);
  if (!udp.ok() || udp.value().dst_port != data_port_) return;
  const std::optional<CbrPayload> payload =
      CbrPayload::try_decode(udp.value().payload);
  if (!payload) return;
  const std::uint32_t seq = payload->seq;

  const Time now = net_->now();
  std::lock_guard<std::mutex> lock(mu_);
  ++data_tx_;
  actual_bytes_ += pkt.size();
  if (tunneled) tunneled_bytes_ += pkt.size();

  // Sequence numbers mostly arrive in order: append, else insert in place.
  auto at = seen_seqs_.empty() || seen_seqs_.back() < seq
                ? seen_seqs_.end()
                : std::lower_bound(seen_seqs_.begin(), seen_seqs_.end(), seq);
  if (at == seen_seqs_.end() || *at != seq) {
    seen_seqs_.insert(at, seq);
    // First appearance of this application datagram anywhere: charge the
    // ideal tree cost using the native (untunneled) wire size.
    std::size_t native_size = Ipv6Header::kSize + data.payload.size();
    optimal_bytes_ +=
        static_cast<std::uint64_t>(native_size) * reference_tree_links_;
  }

  LinkStats& ls = per_link_[link.id()];
  ls.tx += 1;
  ls.bytes += pkt.size();
  // Shards inside one window advance time independently; keep the maximum
  // so "last transmission" is monotone regardless of hook arrival order.
  if (ls.last_tx.is_never() || now > ls.last_tx) ls.last_tx = now;
}

Time McastMetrics::last_data_tx_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? Time::never() : it->second.last_tx;
}

std::uint64_t McastMetrics::data_tx_count_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? 0 : it->second.tx;
}

std::uint64_t McastMetrics::data_bytes_on(LinkId link) const {
  auto it = per_link_.find(link);
  return it == per_link_.end() ? 0 : it->second.bytes;
}

}  // namespace mip6

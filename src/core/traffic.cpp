#include "core/traffic.hpp"

#include <algorithm>

namespace mip6 {

Bytes CbrPayload::encode(std::size_t total_size) const {
  if (total_size < kMinSize) total_size = kMinSize;
  BufferWriter w(total_size);
  w.u32(seq);
  w.u64(static_cast<std::uint64_t>(sent_at.nanos()));
  w.zeros(total_size - kMinSize);
  return std::move(w).take();
}

ParseResult<CbrPayload> CbrPayload::try_decode(BytesView payload) {
  WireCursor c(payload);
  CbrPayload p;
  p.seq = c.u32();
  p.sent_at = Time::ns(static_cast<std::int64_t>(c.u64()));
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "CBR payload"};
  }
  return p;
}

CbrSource::CbrSource(Scheduler& sched, SendFn send, Time interval,
                     std::size_t payload_size, std::optional<Domain> domain)
    : sched_(&sched), send_(std::move(send)), interval_(interval),
      payload_size_(payload_size), timer_(sched, [this] { tick(); }) {
  if (domain) timer_.bind_domain(*domain);
}

void CbrSource::start(Time at) {
  Time delay = at - sched_->now();
  if (delay < Time::zero()) delay = Time::zero();
  timer_.arm(delay);
}

void CbrSource::stop() { timer_.cancel(); }

void CbrSource::tick() {
  CbrPayload p;
  p.seq = next_seq_++;
  p.sent_at = sched_->now();
  send_(p.encode(payload_size_));
  timer_.arm(interval_);
}

GroupReceiverApp::GroupReceiverApp(Ipv6Stack& stack, std::uint16_t port)
    : sched_(&stack.scheduler()), port_(port) {
  stack.set_proto_handler(
      proto::kUdp,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_udp(d, iface);
      });
}

void GroupReceiverApp::on_udp(const ParsedDatagram& d, IfaceId iface) {
  (void)iface;
  const ParseResult<UdpView> udp =
      UdpDatagram::try_view(d.payload, d.hdr.src, d.hdr.dst);
  if (!udp.ok() || udp.value().dst_port != port_) return;
  const ParseResult<CbrPayload> p =
      CbrPayload::try_decode(udp.value().payload);
  if (!p.ok()) return;
  const std::uint32_t seq = p.value().seq;
  auto it = std::lower_bound(seen_.begin(), seen_.end(), seq);
  if (it != seen_.end() && *it == seq) {
    ++duplicates_;
    return;
  }
  seen_.insert(it, seq);
  log_.push_back(Rx{seq, p.value().sent_at, sched_->now()});
}

std::optional<Time> GroupReceiverApp::first_rx_at_or_after(Time t) const {
  std::optional<Time> best;
  for (const auto& rx : log_) {
    if (rx.received_at >= t && (!best || rx.received_at < *best)) {
      best = rx.received_at;
    }
  }
  return best;
}

std::optional<Time> GroupReceiverApp::last_rx() const {
  std::optional<Time> best;
  for (const auto& rx : log_) {
    if (!best || rx.received_at > *best) best = rx.received_at;
  }
  return best;
}

std::uint64_t GroupReceiverApp::received_in(Time from, Time to) const {
  std::uint64_t n = 0;
  for (const auto& rx : log_) {
    if (rx.received_at >= from && rx.received_at < to) ++n;
  }
  return n;
}

}  // namespace mip6

#include "ipv6/udp_demux.hpp"

#include "net/wire_stats.hpp"

namespace mip6 {

UdpDemux::UdpDemux(Ipv6Stack& stack)
    : stack_(&stack),
      c_parse_error_(
          stack.network().counters().cell("udp/rx-drop/parse-error")),
      c_no_listener_(
          stack.network().counters().cell("udp/rx-drop/no-listener")) {
  stack.set_proto_handler(
      proto::kUdp,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_udp(d, iface);
      });
}

void UdpDemux::bind(std::uint16_t port, Handler h) {
  handlers_[port] = std::move(h);
}

void UdpDemux::unbind(std::uint16_t port) { handlers_.erase(port); }

void UdpDemux::stop() {
  handlers_.clear();
  stack_->clear_proto_handler(proto::kUdp);
}

void UdpDemux::on_udp(const ParsedDatagram& d, IfaceId iface) {
  // Verified in place: transit data on a multicast-promiscuous router
  // finds no listener, and is not copied to learn that.
  const ParseResult<UdpView> parsed =
      UdpDatagram::try_view(d.payload, d.hdr.src, d.hdr.dst);
  if (!parsed.ok()) {
    c_parse_error_.add();
    note_parse_reject(stack_->network(), "udp", parsed.failure());
    return;
  }
  const UdpView& v = parsed.value();
  auto it = handlers_.find(v.dst_port);
  if (it == handlers_.end()) {
    c_no_listener_.add();
    return;
  }
  const UdpDatagram udp{v.src_port, v.dst_port,
                        Bytes(v.payload.begin(), v.payload.end())};
  it->second(udp, d, iface);
}

}  // namespace mip6

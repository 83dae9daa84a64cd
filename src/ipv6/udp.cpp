#include "ipv6/udp.hpp"

#include "ipv6/header.hpp"
#include "ipv6/icmpv6.hpp"

namespace mip6 {

Bytes UdpDatagram::serialize(const Address& src, const Address& dst) const {
  BufferWriter w(kHeaderSize + payload.size());
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(static_cast<std::uint16_t>(kHeaderSize + payload.size()));
  w.u16(0);  // checksum placeholder
  w.raw(payload);
  std::uint16_t ck = pseudo_header_checksum(
      src, dst, static_cast<std::uint32_t>(w.size()), proto::kUdp, w.bytes());
  if (ck == 0) ck = 0xffff;  // RFC 768: zero is "no checksum"
  w.patch_u16(6, ck);
  return std::move(w).take();
}

ParseResult<UdpView> UdpDatagram::try_view(BytesView bytes,
                                           const Address& src,
                                           const Address& dst) {
  if (bytes.size() < kHeaderSize) {
    return ParseFailure{ParseReason::kTruncated, "UDP datagram too short"};
  }
  if (pseudo_header_checksum(src, dst,
                             static_cast<std::uint32_t>(bytes.size()),
                             proto::kUdp, bytes) != 0) {
    return ParseFailure{ParseReason::kBadChecksum, "UDP checksum"};
  }
  WireCursor c(bytes);
  UdpView v;
  v.src_port = c.u16();
  v.dst_port = c.u16();
  std::uint16_t len = c.u16();
  if (len > bytes.size()) {
    return ParseFailure{ParseReason::kTruncated,
                        "UDP length field exceeds received octets"};
  }
  if (len < bytes.size()) {
    return ParseFailure{ParseReason::kOverlength,
                        "octets beyond UDP length field"};
  }
  c.skip(2);  // checksum
  v.payload = c.view(c.remaining());
  return v;
}

ParseResult<UdpDatagram> UdpDatagram::try_parse(BytesView bytes,
                                                const Address& src,
                                                const Address& dst) {
  ParseResult<UdpView> v = try_view(bytes, src, dst);
  if (!v.ok()) return v.failure();
  return UdpDatagram{v.value().src_port, v.value().dst_port,
                     Bytes(v.value().payload.begin(), v.value().payload.end())};
}

UdpDatagram UdpDatagram::parse(BytesView bytes, const Address& src,
                               const Address& dst) {
  return try_parse(bytes, src, dst).take_or_throw();
}

}  // namespace mip6

// Minimal UDP (RFC 768 over IPv6): enough to carry the CBR application
// payload with ports and a verified checksum, so data traffic on the wire is
// structurally real.
#pragma once

#include <cstdint>

#include "ipv6/address.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

/// A verified UDP datagram read in place: the ports, and the payload as a
/// view into the received octets (valid only as long as they are).
struct UdpView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  BytesView payload;
};

struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Bytes payload;

  Bytes serialize(const Address& src, const Address& dst) const;
  /// No-throw checksum/length verification without copying the payload.
  static ParseResult<UdpView> try_view(BytesView bytes, const Address& src,
                                       const Address& dst);

  static constexpr std::size_t kHeaderSize = 8;
};

}  // namespace mip6

#include "ipv6/tunnel.hpp"

namespace mip6 {

Bytes encapsulate(BytesView inner, const Address& tunnel_src,
                  const Address& tunnel_dst, std::uint8_t hop_limit) {
  DatagramSpec outer;
  outer.src = tunnel_src;
  outer.dst = tunnel_dst;
  outer.hop_limit = hop_limit;
  outer.protocol = proto::kIpv6;
  outer.payload.assign(inner.begin(), inner.end());
  return build_datagram(outer);
}

ParseResult<ParsedDatagram> try_decapsulate(const ParsedDatagram& outer) {
  if (outer.protocol != proto::kIpv6) {
    return ParseFailure{ParseReason::kBadType,
                        "outer protocol is not IPv6-in-IPv6"};
  }
  return try_parse_datagram(outer.payload);
}

}  // namespace mip6

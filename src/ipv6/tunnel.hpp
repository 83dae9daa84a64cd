// RFC 2473 generic packet tunneling: the entire inner IPv6 datagram becomes
// the payload of an outer datagram with next-header 41 (IPv6). Mobile IPv6
// home agents and mobile nodes use this for every tunneled packet in
// approaches 2-4 of the paper. Decapsulation parses the inner datagram in
// place: its views point into the outer datagram's payload.
#pragma once

#include "ipv6/address.hpp"
#include "ipv6/datagram.hpp"
#include "util/buffer.hpp"

namespace mip6 {

/// Wraps `inner` (a complete serialized datagram) for transport from
/// `tunnel_src` to `tunnel_dst`.
Bytes encapsulate(BytesView inner, const Address& tunnel_src,
                  const Address& tunnel_dst,
                  std::uint8_t hop_limit = Ipv6Header::kDefaultHopLimit);

/// Per-packet tunneling overhead on the wire.
inline constexpr std::size_t kTunnelOverhead = Ipv6Header::kSize;

/// No-throw parse of the inner datagram of a parsed outer datagram whose
/// protocol is proto::kIpv6; fails if the outer protocol is wrong or the
/// payload is not itself a well-formed datagram. The result views
/// `outer.payload`: its octets are the inner datagram, and must outlive it.
ParseResult<ParsedDatagram> try_decapsulate(const ParsedDatagram& outer);

}  // namespace mip6

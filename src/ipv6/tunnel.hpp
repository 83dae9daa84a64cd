// RFC 2473 generic packet tunneling: the entire inner IPv6 datagram becomes
// the payload of an outer datagram with next-header 41 (IPv6). Mobile IPv6
// home agents and mobile nodes use this for every tunneled packet in
// approaches 2-4 of the paper. Decapsulation copies the inner datagram once
// into its own Packet and parses it there, so the tunnel endpoint can hand
// the same buffer and parse on (transmit it, re-enter its own stack).
#pragma once

#include "ipv6/address.hpp"
#include "ipv6/datagram.hpp"
#include "net/packet.hpp"
#include "util/buffer.hpp"

namespace mip6 {

/// Wraps `inner` (a complete serialized datagram) for transport from
/// `tunnel_src` to `tunnel_dst`.
Bytes encapsulate(BytesView inner, const Address& tunnel_src,
                  const Address& tunnel_dst,
                  std::uint8_t hop_limit = Ipv6Header::kDefaultHopLimit);

/// Per-packet tunneling overhead on the wire.
inline constexpr std::size_t kTunnelOverhead = Ipv6Header::kSize;

/// A decapsulated datagram: its own copy of the inner octets, and their
/// parse, which views `packet`'s buffer (moving the pair keeps it valid).
struct InnerDatagram {
  Packet packet;
  ParsedDatagram datagram;
};

/// No-throw decapsulation of a parsed outer datagram whose protocol is
/// proto::kIpv6; fails if the outer protocol is wrong or the payload is not
/// itself a well-formed datagram.
ParseResult<InnerDatagram> try_decapsulate(const ParsedDatagram& outer);

}  // namespace mip6

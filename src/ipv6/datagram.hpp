// Whole-datagram composition and parsing.
//
// A datagram here is the fixed IPv6 header, zero or more destination-options
// headers, and a final upper-layer payload (UDP, ICMPv6, PIM, an encapsulated
// IPv6 datagram, or nothing). build_datagram() produces the wire octets;
// try_parse_datagram() walks the chain back without throwing and exposes the
// pieces every engine needs, including the Mobile IPv6 "effective source"
// (the Home Address destination option overrides the IPv6 source for upper
// layers).
#pragma once

#include <optional>
#include <vector>

#include "ipv6/address.hpp"
#include "ipv6/ext_headers.hpp"
#include "ipv6/header.hpp"
#include "util/buffer.hpp"

namespace mip6 {

struct DatagramSpec {
  Address src;
  Address dst;
  std::uint8_t hop_limit = Ipv6Header::kDefaultHopLimit;
  /// Destination options inserted before the payload (empty = none).
  std::vector<DestOption> dest_options;
  /// Final next-header value (proto::kUdp, kIcmpv6, kPim, kIpv6, kNoNext...).
  std::uint8_t protocol = proto::kNoNext;
  Bytes payload;
};

Bytes build_datagram(const DatagramSpec& spec);

struct ParsedDatagram {
  Ipv6Header hdr;
  std::vector<DestOption> dest_options;
  std::uint8_t protocol = proto::kNoNext;  // final next-header
  /// Final upper-layer octets, viewing into the parsed buffer: a
  /// ParsedDatagram must not outlive the octets it was parsed from.
  /// Zero-copy keeps the per-hop receive path allocation-free; every
  /// consumer is a synchronous handler holding the backing Packet.
  BytesView payload;
  /// hdr.src unless a Home Address option is present, then the home address.
  Address effective_src;
  /// Offset within the datagram of the Next Header octet that selected
  /// `protocol` (6 in the fixed header, or inside the last extension
  /// header). Feeds the ICMPv6 Parameter Problem code-1 pointer.
  std::uint16_t next_header_offset = 6;

  bool has_option(std::uint8_t type) const;
  const DestOption* find_option(std::uint8_t type) const;
};

/// No-throw whole-datagram parse: bad version, truncation, payload-length
/// mismatch, extension-chain/option bounds, and Home Address option
/// malformations all come back as taxonomy failures instead of exceptions.
ParseResult<ParsedDatagram> try_parse_datagram(BytesView bytes);

/// In-place hop-limit decrement on serialized octets (offset 7).
/// Returns false (and leaves the octets alone) if the hop limit is already
/// <= 1 and the packet must be discarded instead of forwarded. Throws
/// LogicError on octets shorter than the fixed header: callers pass a
/// datagram they have already parsed.
bool decrement_hop_limit(Bytes& datagram);

}  // namespace mip6

// IPv6 Destination Options extension header framing (RFC 2460 §4.6).
//
// Mobile IPv6 (draft-10, the version the paper builds on) carries Binding
// Update / Binding Acknowledgement / Binding Request / Home Address as
// *destination options*; the mipv6 library defines those option bodies while
// this file owns the TLV container: option encoding, Pad1/PadN insertion to
// reach a multiple of 8 octets, and tolerant parsing (unknown options with
// the "skip" action bits are ignored, as the spec requires).
#pragma once

#include <cstdint>
#include <vector>

#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

/// One TLV option inside a destination-options header.
struct DestOption {
  std::uint8_t type = 0;
  Bytes data;
  /// Offset of the option's type octet from the start of the datagram (set
  /// by parsing; ignored when writing). Feeds the ICMPv6 Parameter Problem
  /// pointer for unrecognized options.
  std::uint16_t wire_offset = 0;
};

namespace opt {
inline constexpr std::uint8_t kPad1 = 0;
inline constexpr std::uint8_t kPadN = 1;
// Mobile IPv6 draft option types. The two high bits of the type encode the
// unrecognized-option action; 0xC6 = "discard + ICMP if not multicast".
inline constexpr std::uint8_t kBindingUpdate = 0xC6;
inline constexpr std::uint8_t kBindingAck = 0x07;
inline constexpr std::uint8_t kBindingRequest = 0x08;
inline constexpr std::uint8_t kHomeAddress = 0xC9;
}  // namespace opt

struct DestOptionsHeader {
  std::uint8_t next_header = 0;
  std::vector<DestOption> options;

  /// Serializes with PadN so the header length is a multiple of 8 octets.
  void write(BufferWriter& w) const;
  /// No-throw parse of one destination-options header; consumes exactly its
  /// length. `base_offset` is the header's offset within the datagram, used
  /// to stamp each option's wire_offset.
  static ParseResult<DestOptionsHeader> try_read(WireCursor& c,
                                                 std::size_t base_offset = 0);

  /// Returns the first option of `type`, or nullptr.
  const DestOption* find(std::uint8_t type) const;

  /// Size on the wire after padding.
  std::size_t wire_size() const;
};

}  // namespace mip6

// ICMPv6 (RFC 2463) message framing with the pseudo-header checksum.
// MLD messages (RFC 2710) are ICMPv6 types 130-132 and are built on this.
#pragma once

#include <cstdint>

#include "ipv6/address.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

namespace icmpv6 {
/// Parameter Problem (RFC 2463 §3.4).
inline constexpr std::uint8_t kParamProblem = 4;
inline constexpr std::uint8_t kCodeErroneousField = 0;
inline constexpr std::uint8_t kCodeUnrecognizedNextHeader = 1;
inline constexpr std::uint8_t kCodeUnrecognizedOption = 2;
inline constexpr std::uint8_t kMldQuery = 130;
inline constexpr std::uint8_t kMldReport = 131;
inline constexpr std::uint8_t kMldDone = 132;
}  // namespace icmpv6

struct Icmpv6Message {
  std::uint8_t type = 0;
  std::uint8_t code = 0;
  Bytes body;  // everything after the 4-octet type/code/checksum header

  /// Serializes with the checksum computed over the IPv6 pseudo-header
  /// (src, dst, upper-layer length, next-header 58) plus the message.
  Bytes serialize(const Address& src, const Address& dst) const;

  /// No-throw parse + checksum verification.
  static ParseResult<Icmpv6Message> try_parse(BytesView payload,
                                              const Address& src,
                                              const Address& dst);
};

/// Builds a Parameter Problem message: 4-octet pointer into the invoking
/// datagram, then as much of the invoking datagram as fits under the
/// minimum-MTU error-size budget (RFC 2463 §2.4(c)).
Icmpv6Message make_param_problem(std::uint8_t code, std::uint32_t pointer,
                                 BytesView invoking);

/// Computes the RFC 2460 §8.1 upper-layer checksum.
std::uint16_t pseudo_header_checksum(const Address& src, const Address& dst,
                                     std::uint32_t upper_len,
                                     std::uint8_t next_header,
                                     BytesView upper_bytes);

}  // namespace mip6

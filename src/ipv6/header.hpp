// IPv6 fixed header (RFC 2460) wire format and the IP protocol numbers used
// in this codebase.
#pragma once

#include <cstdint>

#include "ipv6/address.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

/// Next-header / protocol numbers (IANA).
namespace proto {
inline constexpr std::uint8_t kHopByHop = 0;
inline constexpr std::uint8_t kUdp = 17;
inline constexpr std::uint8_t kIpv6 = 41;    // IPv6-in-IPv6 encapsulation
inline constexpr std::uint8_t kRouting = 43;
inline constexpr std::uint8_t kIcmpv6 = 58;
inline constexpr std::uint8_t kNoNext = 59;
inline constexpr std::uint8_t kDestOpts = 60;
inline constexpr std::uint8_t kPim = 103;
}  // namespace proto

struct Ipv6Header {
  static constexpr std::size_t kSize = 40;
  static constexpr std::uint8_t kDefaultHopLimit = 64;

  std::uint8_t traffic_class = 0;
  std::uint32_t flow_label = 0;      // 20 bits
  std::uint16_t payload_length = 0;  // octets following this header
  std::uint8_t next_header = proto::kNoNext;
  std::uint8_t hop_limit = kDefaultHopLimit;
  Address src;
  Address dst;

  void write(BufferWriter& w) const;
  /// No-throw parse; validates the version field.
  static ParseResult<Ipv6Header> try_read(WireCursor& c);
};

}  // namespace mip6

// MLD message wire format (RFC 2710 §3): all three message types share one
// 24-octet ICMPv6 body layout.
//
//    | Maximum Response Delay (16) | Reserved (16) | Multicast Address (128)|
#pragma once

#include <cstdint>

#include "ipv6/address.hpp"
#include "ipv6/icmpv6.hpp"

namespace mip6 {

enum class MldType : std::uint8_t {
  kQuery = icmpv6::kMldQuery,    // 130
  kReport = icmpv6::kMldReport,  // 131
  kDone = icmpv6::kMldDone,      // 132
};

struct MldMessage {
  MldType type = MldType::kQuery;
  /// Milliseconds; only meaningful in Queries.
  std::uint16_t max_response_delay_ms = 0;
  /// Unspecified ("::") in a General Query.
  Address group;

  /// True for a General Query (group is unspecified).
  bool is_general_query() const {
    return type == MldType::kQuery && group.is_unspecified();
  }

  Icmpv6Message to_icmpv6() const;
  /// No-throw parse from an ICMPv6 message of type 130-132.
  static ParseResult<MldMessage> try_from_icmpv6(const Icmpv6Message& msg);

  /// Wire size of the full IPv6 datagram carrying an MLD message (fixed
  /// header + ICMPv6 header + body); used for overhead accounting.
  static constexpr std::size_t kDatagramSize = 40 + 4 + 20;
};

}  // namespace mip6

// Mobile IPv6 destination-option bodies (draft-ietf-mobileip-ipv6-10):
// Binding Update, Binding Acknowledgement, Home Address — plus the paper's
// proposed Multicast Group List Sub-Option (Figure 5 of the paper):
//
//    |Sub-Option Type| Sub-Option Len|  then N * 128-bit group addresses,
//    with Sub-Option Len = 16 * N.
#pragma once

#include <cstdint>
#include <vector>

#include "ipv6/address.hpp"
#include "ipv6/ext_headers.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

/// Sub-option TLV carried inside a Binding Update.
struct BuSubOption {
  std::uint8_t type = 0;
  Bytes data;
};

namespace subopt {
inline constexpr std::uint8_t kUniqueIdentifier = 1;
inline constexpr std::uint8_t kAlternateCoa = 2;
/// The paper's proposal; "valid only in a BINDING UPDATE sent to a home
/// agent (Home Registration (H) is set)".
inline constexpr std::uint8_t kMulticastGroupList = 5;
/// mcast-mobility (Helmy): asks the HA to relay group traffic into the
/// MN's reachability multicast group instead of the unicast care-of tunnel.
inline constexpr std::uint8_t kMulticastCareOf = 6;
}  // namespace subopt

struct BindingUpdateOption {
  bool ack_requested = false;    // A
  bool home_registration = false;  // H
  std::uint16_t sequence = 0;
  std::uint32_t lifetime_s = 0;  // 0 = delete binding
  std::vector<BuSubOption> sub_options;

  DestOption encode() const;
  /// No-throw decode; bounds the sub-option count.
  static ParseResult<BindingUpdateOption> try_decode(const DestOption& opt);

  const BuSubOption* find_sub_option(std::uint8_t type) const;
};

struct BindingAckOption {
  std::uint8_t status = 0;  // 0 = accepted
  std::uint16_t sequence = 0;
  std::uint32_t lifetime_s = 0;
  std::uint32_t refresh_s = 0;

  DestOption encode() const;
  static ParseResult<BindingAckOption> try_decode(const DestOption& opt);
};

struct HomeAddressOption {
  Address home_address;

  DestOption encode() const;
  static ParseResult<HomeAddressOption> try_decode(const DestOption& opt);
};

/// Figure 5: the group list as a BU sub-option, Sub-Option Len = 16*N.
struct MulticastGroupListSubOption {
  std::vector<Address> groups;

  BuSubOption encode() const;
  /// No-throw decode; length must be a multiple of 16 and every address a
  /// multicast group.
  static ParseResult<MulticastGroupListSubOption> try_decode(
      const BuSubOption& sub);
};

/// The multicast care-of address (mcast-mobility reachability group) as a
/// BU sub-option, Sub-Option Len = 16.
struct MulticastCareOfSubOption {
  Address group;

  BuSubOption encode() const;
  /// No-throw decode; length must be exactly 16 and the address multicast.
  static ParseResult<MulticastCareOfSubOption> try_decode(
      const BuSubOption& sub);
};

}  // namespace mip6

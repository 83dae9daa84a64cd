// 128-bit IPv6 addresses and prefixes (RFC 4291 textual forms, including
// "::" zero compression), plus the classification predicates and well-known
// addresses the protocol engines need.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

class Address {
 public:
  static constexpr std::size_t kBytes = 16;

  /// The unspecified address "::".
  constexpr Address() : b_{} {}

  /// Parses textual form; throws ParseError on malformed input.
  static Address parse(const std::string& text);
  /// From 16 raw octets.
  static Address from_bytes(BytesView bytes);
  /// Prefix (high 64 bits of `prefix_bits`) + interface identifier.
  static Address from_prefix_iid(const Address& prefix_bits,
                                 std::uint64_t iid);
  /// The inverse of high64()/low64().
  static Address from_halves(std::uint64_t high, std::uint64_t low);

  // Well-known addresses.
  static Address all_nodes();         // ff02::1
  static Address all_routers();       // ff02::2
  static Address all_pim_routers();   // ff02::d
  static Address loopback();          // ::1

  bool is_unspecified() const;
  bool is_loopback() const;
  bool is_multicast() const;          // ff00::/8
  bool is_link_local_unicast() const; // fe80::/10
  /// RFC 4291 multicast scope nibble; only meaningful if is_multicast().
  std::uint8_t multicast_scope() const;
  /// Multicast with link-local scope (ff02::/16): never forwarded.
  bool is_link_scope_multicast() const;

  const std::array<std::uint8_t, kBytes>& bytes() const { return b_; }
  std::uint64_t high64() const;
  std::uint64_t low64() const;

  void write(BufferWriter& w) const;
  static Address read(BufferReader& r);
  /// No-throw read: returns the unspecified address and fails the cursor on
  /// underrun (callers check c.failed() once after reading a whole layout).
  static Address read(WireCursor& c);

  /// Canonical textual form with longest-zero-run compression.
  std::string str() const;

  friend constexpr auto operator<=>(const Address&, const Address&) = default;

 private:
  std::array<std::uint8_t, kBytes> b_;
};

/// An address prefix (network). Host bits are zeroed on construction so
/// equal networks compare equal regardless of how they were written.
class Prefix {
 public:
  Prefix() : len_(0) {}
  Prefix(const Address& addr, std::uint8_t len);
  /// Parses "2001:db8:1::/64"; throws ParseError.
  static Prefix parse(const std::string& text);

  const Address& network() const { return net_; }
  std::uint8_t length() const { return len_; }
  bool contains(const Address& a) const;

  std::string str() const;

  friend auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  Address net_;
  std::uint8_t len_;
};

}  // namespace mip6

template <>
struct std::hash<mip6::Address> {
  std::size_t operator()(const mip6::Address& a) const noexcept {
    return std::hash<std::uint64_t>()(a.high64() * 0x9e3779b97f4a7c15ULL ^
                                      a.low64());
  }
};

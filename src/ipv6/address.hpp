// 128-bit IPv6 addresses and prefixes (RFC 4291 textual forms, including
// "::" zero compression), plus the classification predicates and well-known
// addresses the protocol engines need.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
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
                                 std::uint64_t iid) {
    return from_halves(prefix_bits.high64(), iid);
  }
  /// The inverse of high64()/low64().
  static Address from_halves(std::uint64_t high, std::uint64_t low) {
    Address a;
    store_be64(a.b_.data(), high);
    store_be64(a.b_.data() + 8, low);
    return a;
  }

  // Well-known addresses.
  static Address all_nodes() { return from_halves(kFf02, 0x1); }
  static Address all_routers() { return from_halves(kFf02, 0x2); }
  static Address all_pim_routers() { return from_halves(kFf02, 0xd); }
  static Address loopback() { return from_halves(0, 0x1); }

  bool is_unspecified() const { return (high64() | low64()) == 0; }
  bool is_loopback() const { return high64() == 0 && low64() == 1; }
  bool is_multicast() const { return b_[0] == 0xff; }  // ff00::/8
  bool is_link_local_unicast() const {  // fe80::/10
    return (high64() >> 54) == (0xfe80ULL >> 6);
  }
  /// RFC 4291 multicast scope nibble; only meaningful if is_multicast().
  std::uint8_t multicast_scope() const { return b_[1] & 0x0f; }
  /// Multicast with link-local scope (ff02::/16): never forwarded.
  bool is_link_scope_multicast() const {
    return is_multicast() && multicast_scope() == 0x2;
  }

  const std::array<std::uint8_t, kBytes>& bytes() const { return b_; }
  /// Octets 0-7 and 8-15 as big-endian words: one load and a byte swap.
  std::uint64_t high64() const { return load_be64(b_.data()); }
  std::uint64_t low64() const { return load_be64(b_.data() + 8); }

  void write(BufferWriter& w) const;
  /// No-throw read: returns the unspecified address and fails the cursor on
  /// underrun (callers check c.failed() once after reading a whole layout).
  static Address read(WireCursor& c);

  /// Canonical textual form with longest-zero-run compression.
  std::string str() const;

  /// Two word compares instead of a byte loop. Comparing (high64, low64)
  /// as big-endian words is the lexicographic order of the 16 octets, so
  /// every ordered container walks addresses in byte order.
  friend bool operator==(const Address& a, const Address& b) {
    return ((a.raw(0) ^ b.raw(0)) | (a.raw(8) ^ b.raw(8))) == 0;
  }
  friend std::strong_ordering operator<=>(const Address& a,
                                          const Address& b) {
    const std::uint64_t ah = a.high64(), bh = b.high64();
    if (ah != bh) return ah <=> bh;
    return a.low64() <=> b.low64();
  }

 private:
  static constexpr std::uint64_t kFf02 = 0xff02'0000'0000'0000ULL;

  std::uint64_t raw(std::size_t at) const {
    std::uint64_t v;
    std::memcpy(&v, b_.data() + at, sizeof v);
    return v;
  }
  static std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  static void store_be64(std::uint8_t* p, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    std::memcpy(p, &v, sizeof v);
  }

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
  /// Word-wise: the network's host bits are zero, so a masked compare of
  /// each half decides it.
  bool contains(const Address& a) const {
    if (len_ <= 64) {
      return len_ == 0 || ((a.high64() ^ net_.high64()) >> (64 - len_)) == 0;
    }
    return a.high64() == net_.high64() &&
           ((a.low64() ^ net_.low64()) >> (128 - len_)) == 0;
  }

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

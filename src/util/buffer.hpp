// Byte-order-safe serialization primitives.
//
// All protocol messages in this codebase are serialized to real octet
// sequences in network byte order and parsed back on receive, mirroring what
// an implementation on a wire would do. BufferWriter appends to a growable
// byte vector; the decoders read back through WireCursor
// (util/parse_result.hpp), which latches a failure on underrun instead of
// throwing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/errors.hpp"

namespace mip6 {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends integers (network byte order) and raw octets to a byte vector.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(BytesView bytes);
  /// Appends `n` zero octets (padding).
  void zeros(std::size_t n);

  /// Overwrites a previously written big-endian u16 at `offset`.
  /// Used to patch length/checksum fields after the body is known.
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Renders bytes as lowercase hex, e.g. "0a1b2c". For diagnostics and tests.
std::string to_hex(BytesView bytes);

}  // namespace mip6

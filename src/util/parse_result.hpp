// No-throw parse taxonomy for hostile wire input.
//
// Every wire decoder in this codebase has exactly one entry point, a `try_*`
// function that returns ParseResult<T> instead of throwing: malformed input
// is a *value* carrying a ParseReason, so one bad option cannot unwind a
// dispatch path, and every rejection is attributable to exactly one taxonomy
// bucket (the fuzz harness asserts sum-of-reason-counters == total rejects).
//
// WireCursor is the reader every decoder is built on: an underrun latches a
// failure flag and subsequent reads return zeros/empty views, so decoders
// can read an entire fixed layout and check failed() once at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/buffer.hpp"

namespace mip6 {

/// Why an input was rejected. Exactly one reason per rejection.
enum class ParseReason : std::uint8_t {
  kTruncated = 0,      // ran out of octets mid-field
  kOverlength,         // trailing garbage after a complete message
  kBadType,            // unknown/unsupported type, version, or family field
  kBadChecksum,        // checksum verification failed
  kBadLength,          // an internal length field is inconsistent
  kBoundExceeded,      // loop/amplification bound hit (see bound::)
  kSemantic,           // fields parse but violate protocol semantics
};

inline constexpr std::size_t kParseReasonCount = 7;

constexpr const char* parse_reason_name(ParseReason r) {
  switch (r) {
    case ParseReason::kTruncated: return "truncated";
    case ParseReason::kOverlength: return "overlength";
    case ParseReason::kBadType: return "bad-type";
    case ParseReason::kBadChecksum: return "bad-checksum";
    case ParseReason::kBadLength: return "bad-length";
    case ParseReason::kBoundExceeded: return "bound-exceeded";
    case ParseReason::kSemantic: return "semantic";
  }
  return "unknown";
}

/// Hard bounds on attacker-controlled repetition counts. A count field that
/// promises more elements than these is rejected with kBoundExceeded before
/// any per-element work happens, capping both CPU and allocation per frame.
namespace bound {
/// Destination-options (and other extension) headers chained per datagram.
inline constexpr std::size_t kMaxExtHeaderChain = 8;
/// TLV options accumulated across the whole extension-header chain.
inline constexpr std::size_t kMaxDestOptions = 64;
/// Group records in one PIM Join/Prune/Graft body.
inline constexpr std::size_t kMaxPimGroupRecords = 64;
/// Joined + pruned sources in one PIM group record.
inline constexpr std::size_t kMaxPimSourcesPerGroup = 256;
/// Route entries in one RIPng Response.
inline constexpr std::size_t kMaxRipngRtes = 128;
/// Sub-options in one Binding Update.
inline constexpr std::size_t kMaxBuSubOptions = 16;
/// (S,G) entries in one HPIM-DM Sync fragment.
inline constexpr std::size_t kMaxHpimSyncEntries = 256;
}  // namespace bound

/// One rejection: the taxonomy bucket plus a static human-readable detail.
/// `detail` must point at a string literal (no ownership, no allocation).
struct ParseFailure {
  ParseReason reason = ParseReason::kTruncated;
  const char* detail = "";

  std::string str() const {
    std::string out = parse_reason_name(reason);
    if (detail != nullptr && detail[0] != '\0') {
      out += ": ";
      out += detail;
    }
    return out;
  }
};

/// Minimal expected<T, ParseFailure>. Implicitly constructible from either a
/// value or a failure so decoders read naturally:
///   if (cond) return ParseFailure{ParseReason::kBadType, "PIM version"};
///   return msg;
template <typename T>
class [[nodiscard]] ParseResult {
 public:
  ParseResult(T value) : value_(std::move(value)) {}
  ParseResult(ParseFailure f) : fail_(f) {}
  ParseResult(ParseReason reason, const char* detail)
      : fail_{reason, detail} {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  const ParseFailure& failure() const { return fail_; }

 private:
  std::optional<T> value_;
  ParseFailure fail_{};
};

/// No-throw front-to-back byte consumer. An underrun latches failed() and
/// clamps the cursor at the end; all subsequent reads yield zeros / empty
/// views. Decoders read a whole layout, then check failed() once.
class WireCursor {
 public:
  explicit WireCursor(BytesView view) : view_(view) {}

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return view_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(view_[pos_]) << 8) | view_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = (static_cast<std::uint32_t>(view_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(view_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(view_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(view_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  /// Reads `n` octets as a subview; empty view (and failed()) on underrun.
  BytesView view(std::size_t n) {
    if (!require(n)) return {};
    BytesView out = view_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  /// Reads `n` octets into a fresh vector; empty (and failed()) on underrun.
  Bytes raw(std::size_t n) {
    BytesView v = view(n);
    return Bytes(v.begin(), v.end());
  }
  void skip(std::size_t n) {
    if (require(n)) pos_ += n;
  }

  std::size_t remaining() const { return view_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  /// True once any read overran the input. Latched: never resets.
  bool failed() const { return failed_; }

 private:
  bool require(std::size_t n) {
    if (remaining() < n) {
      failed_ = true;
      pos_ = view_.size();
      return false;
    }
    return true;
  }

  BytesView view_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace mip6

// Per-protocol seed frames and decode drivers for the fuzz harness.
//
// A seed frame is a *valid* wire image produced by the real serializers
// (checksums included), so mutations explore the boundary between accept and
// reject instead of drowning in trivially-bad input. A decode driver runs
// one frame through the same try_* decoder chain the production receive path
// uses and reports the accept/reject classification.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "fuzz/mutator.hpp"
#include "ipv6/address.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

/// The decoder families the fuzzer drives.
enum class FuzzProto : std::uint8_t {
  kDatagram = 0,  // try_parse_datagram: header + ext-header chain
  kIcmpv6,        // Icmpv6Message::try_parse -> MldMessage::try_from_icmpv6
  kPim,           // try_parse_pim -> per-type body parser
  kUdp,           // UdpDatagram::try_view
  kRipng,         // try_parse_ripng_response
  kBindingUpdate, // BindingUpdateOption -> MulticastGroupListSubOption
  kHpim,          // try_parse_hpim -> per-type body parser
};
inline constexpr std::size_t kFuzzProtoCount = 7;

std::string_view fuzz_proto_name(FuzzProto p);

/// Valid seed frames for one protocol (with length-field offsets marked).
std::vector<FuzzFrame> seed_frames(FuzzProto p);

/// Decodes `frame` exactly as the receive path would. Returns std::nullopt
/// on accept, or the taxonomy failure on reject. Never throws.
std::optional<ParseFailure> drive_decoder(FuzzProto p, BytesView frame);

/// Source/destination the checksummed seed frames are computed against; the
/// drivers must verify with the same pair.
const Address& fuzz_src();
const Address& fuzz_dst();
const Address& fuzz_group();

/// Inverse of util/buffer's to_hex for the committed corpus files; skips
/// whitespace so hand-edited files stay readable.
Bytes from_hex(std::string_view hex);

}  // namespace mip6

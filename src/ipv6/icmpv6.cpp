#include "ipv6/icmpv6.hpp"

#include <algorithm>

#include "ipv6/header.hpp"
#include "util/checksum.hpp"

namespace mip6 {

std::uint16_t pseudo_header_checksum(const Address& src, const Address& dst,
                                     std::uint32_t upper_len,
                                     std::uint8_t next_header,
                                     BytesView upper_bytes) {
  InternetChecksum c;
  c.add(BytesView(src.bytes()));
  c.add(BytesView(dst.bytes()));
  c.add_u32(upper_len);
  c.add_u32(next_header);  // 3 zero octets + next header
  c.add(upper_bytes);
  return c.finish();
}

Bytes Icmpv6Message::serialize(const Address& src, const Address& dst) const {
  BufferWriter w(4 + body.size());
  w.u8(type);
  w.u8(code);
  w.u16(0);  // checksum placeholder
  w.raw(body);
  std::uint16_t ck = pseudo_header_checksum(
      src, dst, static_cast<std::uint32_t>(w.size()), proto::kIcmpv6,
      w.bytes());
  w.patch_u16(2, ck);
  return std::move(w).take();
}

ParseResult<Icmpv6Message> Icmpv6Message::try_parse(BytesView payload,
                                                    const Address& src,
                                                    const Address& dst) {
  if (payload.size() < 4) {
    return ParseFailure{ParseReason::kTruncated, "ICMPv6 message too short"};
  }
  std::uint16_t folded = pseudo_header_checksum(
      src, dst, static_cast<std::uint32_t>(payload.size()), proto::kIcmpv6,
      payload);
  if (folded != 0) {
    return ParseFailure{ParseReason::kBadChecksum, "ICMPv6 checksum"};
  }
  WireCursor c(payload);
  Icmpv6Message m;
  m.type = c.u8();
  m.code = c.u8();
  c.skip(2);  // checksum, already verified
  m.body = c.raw(c.remaining());
  return m;
}

Icmpv6Message make_param_problem(std::uint8_t code, std::uint32_t pointer,
                                 BytesView invoking) {
  // Whole error datagram must stay under the IPv6 minimum MTU: 1280 minus
  // the 40-octet IPv6 header, the 4-octet ICMPv6 header, and the pointer.
  constexpr std::size_t kMaxInvoking = 1280 - 40 - 4 - 4;
  BufferWriter w(4 + std::min(invoking.size(), kMaxInvoking));
  w.u32(pointer);
  w.raw(invoking.subspan(0, std::min(invoking.size(), kMaxInvoking)));
  Icmpv6Message m;
  m.type = icmpv6::kParamProblem;
  m.code = code;
  m.body = std::move(w).take();
  return m;
}

}  // namespace mip6

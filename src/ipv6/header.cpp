#include "ipv6/header.hpp"

namespace mip6 {

void Ipv6Header::write(BufferWriter& w) const {
  std::uint32_t word0 = (std::uint32_t{6} << 28) |
                        (std::uint32_t{traffic_class} << 20) |
                        (flow_label & 0xfffff);
  w.u32(word0);
  w.u16(payload_length);
  w.u8(next_header);
  w.u8(hop_limit);
  src.write(w);
  dst.write(w);
}

ParseResult<Ipv6Header> Ipv6Header::try_read(WireCursor& c) {
  std::uint32_t word0 = c.u32();
  Ipv6Header h;
  h.traffic_class = static_cast<std::uint8_t>(word0 >> 20);
  h.flow_label = word0 & 0xfffff;
  h.payload_length = c.u16();
  h.next_header = c.u8();
  h.hop_limit = c.u8();
  h.src = Address::read(c);
  h.dst = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "IPv6 fixed header"};
  }
  if ((word0 >> 28) != 6) {
    return ParseFailure{ParseReason::kBadType, "IPv6 version field is not 6"};
  }
  return h;
}

}  // namespace mip6

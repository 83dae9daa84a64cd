#include "ipv6/ext_headers.hpp"

namespace mip6 {
namespace {

std::size_t options_payload_size(const std::vector<DestOption>& options) {
  std::size_t n = 0;
  for (const auto& o : options) n += 2 + o.data.size();
  return n;
}

}  // namespace

std::size_t DestOptionsHeader::wire_size() const {
  std::size_t body = 2 + options_payload_size(options);
  return (body + 7) / 8 * 8;
}

void DestOptionsHeader::write(BufferWriter& w) const {
  std::size_t body = 2 + options_payload_size(options);
  std::size_t padded = (body + 7) / 8 * 8;
  std::size_t pad = padded - body;
  if (padded / 8 - 1 > 255) {
    throw LogicError("destination options header too large");
  }
  w.u8(next_header);
  w.u8(static_cast<std::uint8_t>(padded / 8 - 1));
  for (const auto& o : options) {
    if (o.data.size() > 255) {
      throw LogicError("destination option data > 255 octets");
    }
    w.u8(o.type);
    w.u8(static_cast<std::uint8_t>(o.data.size()));
    w.raw(o.data);
  }
  // Pad to the 8-octet boundary: one Pad1 or a PadN.
  if (pad == 1) {
    w.u8(opt::kPad1);
  } else if (pad >= 2) {
    w.u8(opt::kPadN);
    w.u8(static_cast<std::uint8_t>(pad - 2));
    w.zeros(pad - 2);
  }
}

ParseResult<DestOptionsHeader> DestOptionsHeader::try_read(
    WireCursor& c, std::size_t base_offset) {
  DestOptionsHeader h;
  h.next_header = c.u8();
  std::size_t len = (static_cast<std::size_t>(c.u8()) + 1) * 8;
  BytesView body_view = c.view(len - 2);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "destination-options header"};
  }
  WireCursor body(body_view);
  while (!body.empty()) {
    std::size_t opt_off = base_offset + 2 + body.position();
    std::uint8_t type = body.u8();
    if (type == opt::kPad1) continue;
    std::uint8_t dlen = body.u8();
    Bytes data = body.raw(dlen);
    if (body.failed()) {
      return ParseFailure{ParseReason::kTruncated, "destination option TLV"};
    }
    if (type == opt::kPadN) continue;
    if (h.options.size() >= bound::kMaxDestOptions) {
      return ParseFailure{ParseReason::kBoundExceeded,
                          "destination options in one header"};
    }
    h.options.push_back(DestOption{type, std::move(data),
                                   static_cast<std::uint16_t>(opt_off)});
  }
  return h;
}

const DestOption* DestOptionsHeader::find(std::uint8_t type) const {
  for (const auto& o : options) {
    if (o.type == type) return &o;
  }
  return nullptr;
}

}  // namespace mip6

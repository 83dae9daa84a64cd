#include "ipv6/datagram.hpp"

namespace mip6 {

Bytes build_datagram(const DatagramSpec& spec) {
  BufferWriter w(Ipv6Header::kSize + 64 + spec.payload.size());

  DestOptionsHeader dopts;
  bool with_opts = !spec.dest_options.empty();
  std::size_t ext_size = 0;
  if (with_opts) {
    dopts.next_header = spec.protocol;
    dopts.options = spec.dest_options;
    ext_size = dopts.wire_size();
  }

  Ipv6Header hdr;
  hdr.src = spec.src;
  hdr.dst = spec.dst;
  hdr.hop_limit = spec.hop_limit;
  hdr.next_header = with_opts ? proto::kDestOpts : spec.protocol;
  std::size_t payload_len = ext_size + spec.payload.size();
  if (payload_len > 0xffff) {
    throw LogicError("datagram payload exceeds 65535 octets");
  }
  hdr.payload_length = static_cast<std::uint16_t>(payload_len);

  hdr.write(w);
  if (with_opts) dopts.write(w);
  w.raw(spec.payload);
  return std::move(w).take();
}

bool ParsedDatagram::has_option(std::uint8_t type) const {
  return find_option(type) != nullptr;
}

const DestOption* ParsedDatagram::find_option(std::uint8_t type) const {
  for (const auto& o : dest_options) {
    if (o.type == type) return &o;
  }
  return nullptr;
}

ParseResult<ParsedDatagram> try_parse_datagram(BytesView bytes) {
  WireCursor c(bytes);
  ParsedDatagram d;
  ParseResult<Ipv6Header> hdr = Ipv6Header::try_read(c);
  if (!hdr.ok()) return hdr.failure();
  d.hdr = hdr.value();
  if (d.hdr.payload_length > c.remaining()) {
    return ParseFailure{ParseReason::kTruncated,
                        "IPv6 payload length exceeds received octets"};
  }
  if (d.hdr.payload_length < c.remaining()) {
    return ParseFailure{ParseReason::kOverlength,
                        "octets beyond IPv6 payload length"};
  }
  std::uint8_t next = d.hdr.next_header;
  std::size_t chain = 0;
  while (next == proto::kDestOpts) {
    if (++chain > bound::kMaxExtHeaderChain) {
      return ParseFailure{ParseReason::kBoundExceeded,
                          "extension header chain"};
    }
    std::size_t base = c.position();
    d.next_header_offset = static_cast<std::uint16_t>(base);
    ParseResult<DestOptionsHeader> h = DestOptionsHeader::try_read(c, base);
    if (!h.ok()) return h.failure();
    if (d.dest_options.size() + h.value().options.size() >
        bound::kMaxDestOptions) {
      return ParseFailure{ParseReason::kBoundExceeded,
                          "destination options in one datagram"};
    }
    for (auto& o : h.value().options) d.dest_options.push_back(std::move(o));
    next = h.value().next_header;
  }
  d.protocol = next;
  d.payload = c.view(c.remaining());
  d.effective_src = d.hdr.src;
  if (const DestOption* home = d.find_option(opt::kHomeAddress)) {
    if (home->data.size() != Address::kBytes) {
      return ParseFailure{ParseReason::kBadLength,
                          "Home Address option length"};
    }
    Address ha = Address::from_bytes(home->data);
    if (ha.is_multicast() || ha.is_unspecified()) {
      return ParseFailure{ParseReason::kSemantic,
                          "Home Address option is not a unicast address"};
    }
    d.effective_src = ha;
  }
  return d;
}

bool decrement_hop_limit(Bytes& datagram) {
  if (datagram.size() < Ipv6Header::kSize) {
    throw LogicError("decrement_hop_limit: datagram shorter than fixed header");
  }
  if (datagram[7] <= 1) return false;
  datagram[7] -= 1;
  return true;
}

}  // namespace mip6

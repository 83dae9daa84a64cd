#include "pimdm/messages.hpp"

#include "ipv6/header.hpp"
#include "ipv6/icmpv6.hpp"

namespace mip6 {
namespace {

constexpr std::uint8_t kFamilyIpv6 = 2;
constexpr std::uint8_t kEncodingNative = 0;
constexpr std::uint8_t kPimVersion = 2;

// Hello option types (draft §4.2).
constexpr std::uint16_t kHelloOptHoldtime = 1;

}  // namespace

Bytes serialize_pim(PimType type, BytesView body, const Address& src,
                    const Address& dst) {
  BufferWriter w(4 + body.size());
  w.u8(static_cast<std::uint8_t>((kPimVersion << 4) |
                                 static_cast<std::uint8_t>(type)));
  w.u8(0);   // reserved
  w.u16(0);  // checksum placeholder
  w.raw(body);
  std::uint16_t ck = pseudo_header_checksum(
      src, dst, static_cast<std::uint32_t>(w.size()), proto::kPim, w.bytes());
  w.patch_u16(2, ck);
  return std::move(w).take();
}

ParseResult<PimHeader> try_parse_pim(BytesView payload, const Address& src,
                                     const Address& dst) {
  if (payload.size() < 4) {
    return ParseFailure{ParseReason::kTruncated, "PIM message too short"};
  }
  if (pseudo_header_checksum(src, dst,
                             static_cast<std::uint32_t>(payload.size()),
                             proto::kPim, payload) != 0) {
    return ParseFailure{ParseReason::kBadChecksum, "PIM checksum"};
  }
  WireCursor c(payload);
  std::uint8_t vt = c.u8();
  if ((vt >> 4) != kPimVersion) {
    return ParseFailure{ParseReason::kBadType, "PIM version is not 2"};
  }
  c.skip(3);  // reserved + checksum
  PimHeader h;
  h.type = static_cast<PimType>(vt & 0x0f);
  h.body = c.raw(c.remaining());
  return h;
}

// --- Encoded addresses -------------------------------------------------------

void write_encoded_unicast(BufferWriter& w, const Address& a) {
  w.u8(kFamilyIpv6);
  w.u8(kEncodingNative);
  a.write(w);
}

ParseResult<Address> try_read_encoded_unicast(WireCursor& c) {
  std::uint8_t family = c.u8();
  std::uint8_t encoding = c.u8();
  Address a = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "encoded-unicast address"};
  }
  if (family != kFamilyIpv6) {
    return ParseFailure{ParseReason::kBadType, "encoded-unicast: not IPv6"};
  }
  if (encoding != kEncodingNative) {
    return ParseFailure{ParseReason::kBadType,
                        "encoded-unicast: unknown encoding"};
  }
  return a;
}

void write_encoded_group(BufferWriter& w, const Address& g) {
  w.u8(kFamilyIpv6);
  w.u8(kEncodingNative);
  w.u8(0);    // reserved
  w.u8(128);  // mask length
  g.write(w);
}

ParseResult<Address> try_read_encoded_group(WireCursor& c) {
  std::uint8_t family = c.u8();
  std::uint8_t encoding = c.u8();
  c.skip(1);  // reserved
  std::uint8_t mask = c.u8();
  Address a = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "encoded-group address"};
  }
  if (family != kFamilyIpv6) {
    return ParseFailure{ParseReason::kBadType, "encoded-group: not IPv6"};
  }
  if (encoding != kEncodingNative) {
    return ParseFailure{ParseReason::kBadType,
                        "encoded-group: unknown encoding"};
  }
  if (mask != 128) {
    return ParseFailure{ParseReason::kSemantic,
                        "encoded-group: partial masks unsupported"};
  }
  return a;
}

void write_encoded_source(BufferWriter& w, const Address& s,
                          std::uint8_t flags) {
  w.u8(kFamilyIpv6);
  w.u8(kEncodingNative);
  w.u8(flags);
  w.u8(128);  // mask length
  s.write(w);
}

ParseResult<Address> try_read_encoded_source(WireCursor& c) {
  std::uint8_t family = c.u8();
  std::uint8_t encoding = c.u8();
  c.skip(1);  // flags
  std::uint8_t mask = c.u8();
  Address a = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "encoded-source address"};
  }
  if (family != kFamilyIpv6) {
    return ParseFailure{ParseReason::kBadType, "encoded-source: not IPv6"};
  }
  if (encoding != kEncodingNative) {
    return ParseFailure{ParseReason::kBadType,
                        "encoded-source: unknown encoding"};
  }
  if (mask != 128) {
    return ParseFailure{ParseReason::kSemantic,
                        "encoded-source: partial masks unsupported"};
  }
  return a;
}

// --- Hello -------------------------------------------------------------------

Bytes PimHello::body() const {
  BufferWriter w(8);
  w.u16(kHelloOptHoldtime);
  w.u16(2);  // option length
  w.u16(holdtime);
  return std::move(w).take();
}

ParseResult<PimHello> PimHello::try_parse(BytesView body) {
  WireCursor c(body);
  PimHello h;
  bool have_holdtime = false;
  while (c.remaining() >= 4) {
    std::uint16_t type = c.u16();
    std::uint16_t len = c.u16();
    BytesView opt_view = c.view(len);
    if (c.failed()) {
      return ParseFailure{ParseReason::kTruncated,
                          "PIM Hello option exceeds body"};
    }
    if (type == kHelloOptHoldtime) {
      WireCursor opt(opt_view);
      h.holdtime = opt.u16();
      if (opt.failed()) {
        return ParseFailure{ParseReason::kBadLength,
                            "PIM Hello holdtime option too short"};
      }
      have_holdtime = true;
    }
    // Unknown options are skipped.
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kTruncated,
                        "PIM Hello option header fragment"};
  }
  if (!have_holdtime) {
    return ParseFailure{ParseReason::kSemantic,
                        "PIM Hello without holdtime option"};
  }
  return h;
}

// --- Join/Prune ----------------------------------------------------------------

Bytes PimJoinPrune::body() const {
  BufferWriter w(64);
  write_encoded_unicast(w, upstream_neighbor);
  w.u8(0);  // reserved
  if (groups.size() > 255) throw LogicError("too many groups in Join/Prune");
  w.u8(static_cast<std::uint8_t>(groups.size()));
  w.u16(holdtime);
  for (const auto& g : groups) {
    write_encoded_group(w, g.group);
    w.u16(static_cast<std::uint16_t>(g.joined_sources.size()));
    w.u16(static_cast<std::uint16_t>(g.pruned_sources.size()));
    for (const auto& s : g.joined_sources) write_encoded_source(w, s);
    for (const auto& s : g.pruned_sources) write_encoded_source(w, s);
  }
  return std::move(w).take();
}

ParseResult<PimJoinPrune> PimJoinPrune::try_parse(BytesView body) {
  // Each encoded source is 20 octets; a count field promising more sources
  // than the body holds is rejected before any per-element work, so a
  // 65535-source lie costs O(1), not O(n) allocations.
  constexpr std::size_t kEncodedSourceSize = 20;
  WireCursor c(body);
  PimJoinPrune m;
  ParseResult<Address> upstream = try_read_encoded_unicast(c);
  if (!upstream.ok()) return upstream.failure();
  m.upstream_neighbor = upstream.value();
  c.skip(1);  // reserved
  std::uint8_t ngroups = c.u8();
  m.holdtime = c.u16();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "PIM Join/Prune header"};
  }
  if (ngroups > bound::kMaxPimGroupRecords) {
    return ParseFailure{ParseReason::kBoundExceeded,
                        "PIM Join/Prune group records"};
  }
  for (std::uint8_t i = 0; i < ngroups; ++i) {
    GroupEntry g;
    ParseResult<Address> group = try_read_encoded_group(c);
    if (!group.ok()) return group.failure();
    g.group = group.value();
    std::uint16_t njoin = c.u16();
    std::uint16_t nprune = c.u16();
    if (c.failed()) {
      return ParseFailure{ParseReason::kTruncated,
                          "PIM Join/Prune source counts"};
    }
    std::size_t nsources = std::size_t{njoin} + nprune;
    if (nsources > bound::kMaxPimSourcesPerGroup) {
      return ParseFailure{ParseReason::kBoundExceeded,
                          "PIM Join/Prune sources in one group record"};
    }
    if (nsources * kEncodedSourceSize > c.remaining()) {
      return ParseFailure{ParseReason::kTruncated,
                          "PIM Join/Prune source count exceeds body"};
    }
    for (std::uint16_t k = 0; k < njoin; ++k) {
      ParseResult<Address> s = try_read_encoded_source(c);
      if (!s.ok()) return s.failure();
      g.joined_sources.push_back(s.value());
    }
    for (std::uint16_t k = 0; k < nprune; ++k) {
      ParseResult<Address> s = try_read_encoded_source(c);
      if (!s.ok()) return s.failure();
      g.pruned_sources.push_back(s.value());
    }
    m.groups.push_back(std::move(g));
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after PIM Join/Prune"};
  }
  return m;
}

PimJoinPrune PimJoinPrune::join(const Address& upstream, const Address& src,
                                const Address& group) {
  PimJoinPrune m;
  m.upstream_neighbor = upstream;
  m.groups.push_back(GroupEntry{group, {src}, {}});
  return m;
}

PimJoinPrune PimJoinPrune::prune(const Address& upstream, const Address& src,
                                 const Address& group,
                                 std::uint16_t holdtime) {
  PimJoinPrune m;
  m.upstream_neighbor = upstream;
  m.holdtime = holdtime;
  m.groups.push_back(GroupEntry{group, {}, {src}});
  return m;
}

// --- State Refresh --------------------------------------------------------------

Bytes PimStateRefresh::body() const {
  BufferWriter w(64);
  write_encoded_group(w, group);
  write_encoded_unicast(w, source);
  write_encoded_unicast(w, originator);
  w.u32(metric_preference & 0x7fffffff);
  w.u32(metric);
  w.u8(128);  // mask length
  w.u8(ttl);
  w.u8(prune_indicator ? 0x80 : 0x00);  // P | N | O | reserved
  w.u8(interval_s);
  return std::move(w).take();
}

ParseResult<PimStateRefresh> PimStateRefresh::try_parse(BytesView body) {
  WireCursor c(body);
  PimStateRefresh m;
  ParseResult<Address> group = try_read_encoded_group(c);
  if (!group.ok()) return group.failure();
  m.group = group.value();
  ParseResult<Address> source = try_read_encoded_unicast(c);
  if (!source.ok()) return source.failure();
  m.source = source.value();
  ParseResult<Address> originator = try_read_encoded_unicast(c);
  if (!originator.ok()) return originator.failure();
  m.originator = originator.value();
  m.metric_preference = c.u32() & 0x7fffffff;
  m.metric = c.u32();
  std::uint8_t mask = c.u8();
  m.ttl = c.u8();
  m.prune_indicator = (c.u8() & 0x80) != 0;
  m.interval_s = c.u8();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "PIM State Refresh body"};
  }
  if (mask != 128) {
    return ParseFailure{ParseReason::kSemantic,
                        "state-refresh: partial masks unsupported"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after PIM State Refresh"};
  }
  return m;
}

// --- Assert --------------------------------------------------------------------

Bytes PimAssert::body() const {
  BufferWriter w(48);
  write_encoded_group(w, group);
  write_encoded_unicast(w, source);
  w.u32(metric_preference & 0x7fffffff);  // R bit always 0 in dense mode
  w.u32(metric);
  return std::move(w).take();
}

ParseResult<PimAssert> PimAssert::try_parse(BytesView body) {
  WireCursor c(body);
  PimAssert a;
  ParseResult<Address> group = try_read_encoded_group(c);
  if (!group.ok()) return group.failure();
  a.group = group.value();
  ParseResult<Address> source = try_read_encoded_unicast(c);
  if (!source.ok()) return source.failure();
  a.source = source.value();
  a.metric_preference = c.u32() & 0x7fffffff;
  a.metric = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "PIM Assert body"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after PIM Assert"};
  }
  return a;
}

}  // namespace mip6

#include "mipv6/messages.hpp"

namespace mip6 {
namespace {

constexpr std::uint8_t kFlagAck = 0x80;
constexpr std::uint8_t kFlagHome = 0x40;

}  // namespace

DestOption BindingUpdateOption::encode() const {
  BufferWriter w(16);
  std::uint8_t flags = 0;
  if (ack_requested) flags |= kFlagAck;
  if (home_registration) flags |= kFlagHome;
  w.u8(flags);
  w.u8(0);  // reserved / prefix length (unused here)
  w.u16(sequence);
  w.u32(lifetime_s);
  for (const auto& s : sub_options) {
    if (s.data.size() > 255) throw LogicError("BU sub-option too large");
    w.u8(s.type);
    w.u8(static_cast<std::uint8_t>(s.data.size()));
    w.raw(s.data);
  }
  return DestOption{opt::kBindingUpdate, std::move(w).take()};
}

ParseResult<BindingUpdateOption> BindingUpdateOption::try_decode(
    const DestOption& opt) {
  if (opt.type != opt::kBindingUpdate) {
    return ParseFailure{ParseReason::kBadType, "not a Binding Update option"};
  }
  WireCursor c(opt.data);
  BindingUpdateOption bu;
  std::uint8_t flags = c.u8();
  bu.ack_requested = (flags & kFlagAck) != 0;
  bu.home_registration = (flags & kFlagHome) != 0;
  c.skip(1);
  bu.sequence = c.u16();
  bu.lifetime_s = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "Binding Update fixed part"};
  }
  while (!c.empty()) {
    if (bu.sub_options.size() >= bound::kMaxBuSubOptions) {
      return ParseFailure{ParseReason::kBoundExceeded,
                          "too many BU sub-options"};
    }
    BuSubOption s;
    s.type = c.u8();
    s.data = c.raw(c.u8());
    if (c.failed()) {
      return ParseFailure{ParseReason::kTruncated, "BU sub-option body"};
    }
    bu.sub_options.push_back(std::move(s));
  }
  return bu;
}

const BuSubOption* BindingUpdateOption::find_sub_option(
    std::uint8_t type) const {
  for (const auto& s : sub_options) {
    if (s.type == type) return &s;
  }
  return nullptr;
}

DestOption BindingAckOption::encode() const {
  BufferWriter w(11);
  w.u8(status);
  w.u16(sequence);
  w.u32(lifetime_s);
  w.u32(refresh_s);
  return DestOption{opt::kBindingAck, std::move(w).take()};
}

ParseResult<BindingAckOption> BindingAckOption::try_decode(
    const DestOption& opt) {
  if (opt.type != opt::kBindingAck) {
    return ParseFailure{ParseReason::kBadType,
                        "not a Binding Acknowledgement option"};
  }
  WireCursor c(opt.data);
  BindingAckOption ba;
  ba.status = c.u8();
  ba.sequence = c.u16();
  ba.lifetime_s = c.u32();
  ba.refresh_s = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated,
                        "Binding Acknowledgement option"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after Binding Acknowledgement"};
  }
  return ba;
}

DestOption HomeAddressOption::encode() const {
  BufferWriter w(Address::kBytes);
  home_address.write(w);
  return DestOption{opt::kHomeAddress, std::move(w).take()};
}

ParseResult<HomeAddressOption> HomeAddressOption::try_decode(
    const DestOption& opt) {
  if (opt.type != opt::kHomeAddress) {
    return ParseFailure{ParseReason::kBadType, "not a Home Address option"};
  }
  WireCursor c(opt.data);
  HomeAddressOption h;
  h.home_address = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "Home Address option"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after Home Address option"};
  }
  return h;
}

BuSubOption MulticastGroupListSubOption::encode() const {
  // Figure 5 of the paper: Sub-Option Len must be 16*N, which bounds N at
  // 15 groups per sub-option (len is a single octet).
  if (groups.size() > 15) {
    throw LogicError("Multicast Group List limited to 15 groups");
  }
  BufferWriter w(groups.size() * Address::kBytes);
  for (const auto& g : groups) g.write(w);
  return BuSubOption{subopt::kMulticastGroupList, std::move(w).take()};
}

ParseResult<MulticastGroupListSubOption> MulticastGroupListSubOption::try_decode(
    const BuSubOption& sub) {
  if (sub.type != subopt::kMulticastGroupList) {
    return ParseFailure{ParseReason::kBadType,
                        "not a Multicast Group List sub-option"};
  }
  if (sub.data.size() % Address::kBytes != 0) {
    return ParseFailure{ParseReason::kBadLength,
                        "Multicast Group List length not a multiple of 16"};
  }
  WireCursor c(sub.data);
  MulticastGroupListSubOption m;
  while (!c.empty()) {
    Address g = Address::read(c);
    if (!g.is_multicast()) {
      return ParseFailure{ParseReason::kSemantic,
                          "Multicast Group List contains unicast address"};
    }
    m.groups.push_back(g);
  }
  return m;
}

BuSubOption MulticastCareOfSubOption::encode() const {
  BufferWriter w(Address::kBytes);
  group.write(w);
  return BuSubOption{subopt::kMulticastCareOf, std::move(w).take()};
}

ParseResult<MulticastCareOfSubOption> MulticastCareOfSubOption::try_decode(
    const BuSubOption& sub) {
  if (sub.type != subopt::kMulticastCareOf) {
    return ParseFailure{ParseReason::kBadType,
                        "not a Multicast Care-of sub-option"};
  }
  if (sub.data.size() != Address::kBytes) {
    return ParseFailure{ParseReason::kBadLength,
                        "Multicast Care-of length must be 16"};
  }
  WireCursor c(sub.data);
  MulticastCareOfSubOption m;
  m.group = Address::read(c);
  if (!m.group.is_multicast()) {
    return ParseFailure{ParseReason::kSemantic,
                        "Multicast Care-of address is not multicast"};
  }
  return m;
}

}  // namespace mip6

#include "fuzz/corpus.hpp"

#include "ipv6/datagram.hpp"
#include "ipv6/icmpv6.hpp"
#include "ipv6/ripng.hpp"
#include "ipv6/udp.hpp"
#include "hpimdm/messages.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

Bytes text_payload(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

FuzzFrame frame(std::string name, Bytes octets,
                std::vector<std::size_t> length_offsets = {}) {
  return FuzzFrame{std::move(name), std::move(octets),
                   std::move(length_offsets)};
}

std::vector<FuzzFrame> datagram_frames() {
  std::vector<FuzzFrame> out;
  // Plain UDP unicast datagram. Offsets 4-5: IPv6 Payload Length.
  {
    DatagramSpec spec;
    spec.src = fuzz_src();
    spec.dst = fuzz_dst();
    spec.protocol = proto::kUdp;
    UdpDatagram udp;
    udp.src_port = 1024;
    udp.dst_port = 521;
    udp.payload = text_payload("hostile-wire");
    spec.payload = udp.serialize(spec.src, spec.dst);
    out.push_back(frame("udp-datagram", build_datagram(spec), {4, 5}));
  }
  // Mobility signaling: BU with group list + Home Address option, carried
  // in a destination-options header. Offset 41: ext-header length octet.
  {
    BindingUpdateOption bu;
    bu.ack_requested = true;
    bu.home_registration = true;
    bu.sequence = 7;
    bu.lifetime_s = 256;
    MulticastGroupListSubOption mgl;
    mgl.groups = {fuzz_group()};
    bu.sub_options.push_back(mgl.encode());
    DatagramSpec spec;
    spec.src = fuzz_src();
    spec.dst = fuzz_dst();
    spec.dest_options.push_back(bu.encode());
    spec.dest_options.push_back(HomeAddressOption{fuzz_src()}.encode());
    spec.protocol = proto::kNoNext;
    out.push_back(frame("bu-datagram", build_datagram(spec), {4, 5, 41}));
  }
  // Multicast MLD Report datagram.
  {
    MldMessage rep;
    rep.type = MldType::kReport;
    rep.group = fuzz_group();
    DatagramSpec spec;
    spec.src = fuzz_src();
    spec.dst = fuzz_group();
    spec.hop_limit = 1;
    spec.protocol = proto::kIcmpv6;
    spec.payload = rep.to_icmpv6().serialize(spec.src, spec.dst);
    out.push_back(frame("mld-datagram", build_datagram(spec), {4, 5}));
  }
  return out;
}

std::vector<FuzzFrame> icmpv6_frames() {
  std::vector<FuzzFrame> out;
  auto serialize = [](MldType type, const Address& group,
                      std::uint16_t delay) {
    MldMessage m;
    m.type = type;
    m.group = group;
    m.max_response_delay_ms = delay;
    return m.to_icmpv6().serialize(fuzz_src(), fuzz_dst());
  };
  out.push_back(frame("mld-general-query",
                      serialize(MldType::kQuery, Address(), 10000)));
  out.push_back(frame("mld-group-query",
                      serialize(MldType::kQuery, fuzz_group(), 1000)));
  out.push_back(frame("mld-report", serialize(MldType::kReport, fuzz_group(), 0)));
  out.push_back(frame("mld-done", serialize(MldType::kDone, fuzz_group(), 0)));
  return out;
}

std::vector<FuzzFrame> pim_frames() {
  std::vector<FuzzFrame> out;
  auto wire = [](PimType t, const Bytes& body) {
    return serialize_pim(t, body, fuzz_src(), fuzz_dst());
  };
  PimHello hello;
  hello.holdtime = 105;
  out.push_back(frame("pim-hello", wire(PimType::kHello, hello.body())));

  PimJoinPrune jp = PimJoinPrune::join(fuzz_src(), fuzz_src(), fuzz_group());
  jp.holdtime = 210;
  jp.groups[0].pruned_sources.push_back(fuzz_dst());
  PimJoinPrune::GroupEntry second;
  second.group = fuzz_group();
  second.joined_sources = {fuzz_src(), fuzz_dst()};
  jp.groups.push_back(second);
  // PIM header is 4 octets; offset 23 = group count, 46-49 = first group's
  // joined/pruned source counts (the classic amplification-lie targets).
  out.push_back(frame("pim-join-prune", wire(PimType::kJoinPrune, jp.body()),
                      {23, 46, 47, 48, 49}));
  out.push_back(
      frame("pim-graft", wire(PimType::kGraft, jp.body()), {23, 46, 47, 48, 49}));

  PimAssert assert_msg;
  assert_msg.group = fuzz_group();
  assert_msg.source = fuzz_src();
  assert_msg.metric_preference = 10;
  assert_msg.metric = 3;
  out.push_back(frame("pim-assert", wire(PimType::kAssert, assert_msg.body())));

  PimStateRefresh sr;
  sr.group = fuzz_group();
  sr.source = fuzz_src();
  sr.originator = fuzz_dst();
  sr.metric_preference = 10;
  sr.metric = 3;
  sr.ttl = 16;
  sr.interval_s = 60;
  out.push_back(
      frame("pim-state-refresh", wire(PimType::kStateRefresh, sr.body())));
  return out;
}

std::vector<FuzzFrame> hpim_frames() {
  std::vector<FuzzFrame> out;
  auto wire = [](HpimType t, const Bytes& body) {
    return serialize_hpim(t, body, fuzz_src(), fuzz_dst());
  };
  HpimHello hello;
  hello.holdtime = 105;
  hello.generation_id = 0xdecade01;
  out.push_back(frame("hpim-hello", wire(HpimType::kHello, hello.body())));

  HpimAck ack;
  ack.seq = 12;
  out.push_back(frame("hpim-ack", wire(HpimType::kAck, ack.body())));

  HpimInterest interest;
  interest.seq = 3;
  interest.source = fuzz_src();
  interest.group = fuzz_group();
  interest.interested = true;
  out.push_back(
      frame("hpim-interest", wire(HpimType::kInterest, interest.body())));

  HpimSync sync;
  sync.seq = 4;
  sync.more = true;
  sync.entries.push_back({fuzz_src(), fuzz_group(), true});
  sync.entries.push_back({fuzz_dst(), fuzz_group(), false});
  // Header is 4 octets; offsets 9-10 = the entry-count field (the
  // amplification-lie target the O(1) count check guards).
  out.push_back(frame("hpim-sync", wire(HpimType::kSync, sync.body()),
                      {9, 10}));

  HpimAssert assert_msg;
  assert_msg.group = fuzz_group();
  assert_msg.source = fuzz_src();
  assert_msg.metric_preference = 101;
  assert_msg.metric = 3;
  out.push_back(
      frame("hpim-assert", wire(HpimType::kAssert, assert_msg.body())));
  return out;
}

std::vector<FuzzFrame> udp_frames() {
  std::vector<FuzzFrame> out;
  UdpDatagram udp;
  udp.src_port = 49152;
  udp.dst_port = 521;
  udp.payload = text_payload("ripng-ish payload");
  // Offsets 4-5: UDP Length field.
  out.push_back(
      frame("udp-basic", udp.serialize(fuzz_src(), fuzz_dst()), {4, 5}));
  UdpDatagram empty;
  empty.src_port = 1;
  empty.dst_port = 2;
  out.push_back(
      frame("udp-empty", empty.serialize(fuzz_src(), fuzz_dst()), {4, 5}));
  return out;
}

std::vector<FuzzFrame> ripng_frames() {
  std::vector<FuzzFrame> out;
  std::vector<RipngRte> rtes;
  rtes.push_back(RipngRte{Prefix::parse("2001:db8:1::/64"), 1});
  rtes.push_back(RipngRte{Prefix::parse("2001:db8:2::/64"), 2});
  rtes.push_back(RipngRte{Prefix::parse("::/0"), 16});
  // Per-RTE prefix length octets sit at 4 + 20k + 18.
  out.push_back(
      frame("ripng-response", ripng_response_payload(rtes), {22, 42, 62}));
  return out;
}

std::vector<FuzzFrame> bu_frames() {
  std::vector<FuzzFrame> out;
  BindingUpdateOption plain;
  plain.ack_requested = true;
  plain.home_registration = true;
  plain.sequence = 1;
  plain.lifetime_s = 256;
  out.push_back(frame("bu-plain", plain.encode().data));

  BindingUpdateOption with_groups = plain;
  with_groups.sequence = 2;
  MulticastGroupListSubOption mgl;
  mgl.groups = {fuzz_group(), Address::parse("ff1e::42")};
  with_groups.sub_options.push_back(mgl.encode());
  // Offset 9: the group-list sub-option's length octet (8-octet fixed part,
  // then type at 8, length at 9).
  out.push_back(frame("bu-group-list", with_groups.encode().data, {9}));

  BindingUpdateOption dereg;
  dereg.home_registration = true;
  dereg.sequence = 3;
  dereg.lifetime_s = 0;
  MulticastGroupListSubOption none;
  dereg.sub_options.push_back(none.encode());
  out.push_back(frame("bu-zero-groups", dereg.encode().data, {9}));
  return out;
}

}  // namespace

std::string_view fuzz_proto_name(FuzzProto p) {
  switch (p) {
    case FuzzProto::kDatagram: return "datagram";
    case FuzzProto::kIcmpv6: return "icmpv6";
    case FuzzProto::kPim: return "pim";
    case FuzzProto::kUdp: return "udp";
    case FuzzProto::kRipng: return "ripng";
    case FuzzProto::kBindingUpdate: return "binding-update";
    case FuzzProto::kHpim: return "hpim";
  }
  return "unknown";
}

const Address& fuzz_src() {
  static const Address a = Address::parse("2001:db8:f::1");
  return a;
}

const Address& fuzz_dst() {
  static const Address a = Address::parse("2001:db8:f::2");
  return a;
}

const Address& fuzz_group() {
  static const Address a = Address::parse("ff1e::beef");
  return a;
}

std::vector<FuzzFrame> seed_frames(FuzzProto p) {
  switch (p) {
    case FuzzProto::kDatagram: return datagram_frames();
    case FuzzProto::kIcmpv6: return icmpv6_frames();
    case FuzzProto::kPim: return pim_frames();
    case FuzzProto::kUdp: return udp_frames();
    case FuzzProto::kRipng: return ripng_frames();
    case FuzzProto::kBindingUpdate: return bu_frames();
    case FuzzProto::kHpim: return hpim_frames();
  }
  return {};
}

std::optional<ParseFailure> drive_decoder(FuzzProto p, BytesView frame) {
  switch (p) {
    case FuzzProto::kDatagram: {
      ParseResult<ParsedDatagram> r = try_parse_datagram(frame);
      if (!r.ok()) return r.failure();
      return std::nullopt;
    }
    case FuzzProto::kIcmpv6: {
      ParseResult<Icmpv6Message> r =
          Icmpv6Message::try_parse(frame, fuzz_src(), fuzz_dst());
      if (!r.ok()) return r.failure();
      const Icmpv6Message& msg = r.value();
      if (msg.type == icmpv6::kMldQuery || msg.type == icmpv6::kMldReport ||
          msg.type == icmpv6::kMldDone) {
        ParseResult<MldMessage> m = MldMessage::try_from_icmpv6(msg);
        if (!m.ok()) return m.failure();
      }
      return std::nullopt;
    }
    case FuzzProto::kPim: {
      ParseResult<PimHeader> r = try_parse_pim(frame, fuzz_src(), fuzz_dst());
      if (!r.ok()) return r.failure();
      const PimHeader& h = r.value();
      switch (h.type) {
        case PimType::kHello: {
          ParseResult<PimHello> m = PimHello::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case PimType::kJoinPrune:
        case PimType::kGraft:
        case PimType::kGraftAck: {
          ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case PimType::kAssert: {
          ParseResult<PimAssert> m = PimAssert::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case PimType::kStateRefresh: {
          ParseResult<PimStateRefresh> m = PimStateRefresh::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        default:
          return ParseFailure{ParseReason::kBadType, "unknown PIM type"};
      }
      return std::nullopt;
    }
    case FuzzProto::kUdp: {
      ParseResult<UdpView> r =
          UdpDatagram::try_view(frame, fuzz_src(), fuzz_dst());
      if (!r.ok()) return r.failure();
      return std::nullopt;
    }
    case FuzzProto::kRipng: {
      ParseResult<std::vector<RipngRte>> r = try_parse_ripng_response(frame);
      if (!r.ok()) return r.failure();
      return std::nullopt;
    }
    case FuzzProto::kBindingUpdate: {
      DestOption o;
      o.type = opt::kBindingUpdate;
      o.data = Bytes(frame.begin(), frame.end());
      ParseResult<BindingUpdateOption> r = BindingUpdateOption::try_decode(o);
      if (!r.ok()) return r.failure();
      for (const BuSubOption& s : r.value().sub_options) {
        if (s.type != subopt::kMulticastGroupList) continue;
        ParseResult<MulticastGroupListSubOption> m =
            MulticastGroupListSubOption::try_decode(s);
        if (!m.ok()) return m.failure();
      }
      return std::nullopt;
    }
    case FuzzProto::kHpim: {
      ParseResult<HpimHeader> r = try_parse_hpim(frame, fuzz_src(), fuzz_dst());
      if (!r.ok()) return r.failure();
      const HpimHeader& h = r.value();
      switch (h.type) {
        case HpimType::kHello: {
          ParseResult<HpimHello> m = HpimHello::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case HpimType::kAck: {
          ParseResult<HpimAck> m = HpimAck::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case HpimType::kInterest: {
          ParseResult<HpimInterest> m = HpimInterest::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case HpimType::kSync: {
          ParseResult<HpimSync> m = HpimSync::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
        case HpimType::kAssert: {
          ParseResult<HpimAssert> m = HpimAssert::try_parse(h.body);
          if (!m.ok()) return m.failure();
          break;
        }
      }
      return std::nullopt;
    }
  }
  return ParseFailure{ParseReason::kBadType, "unknown fuzz protocol"};
}

Bytes from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  int hi = -1;
  for (char c : hex) {
    int n = nibble(c);
    if (n < 0) continue;  // allow whitespace
    if (hi < 0) {
      hi = n;
    } else {
      out.push_back(static_cast<std::uint8_t>((hi << 4) | n));
      hi = -1;
    }
  }
  return out;
}

}  // namespace mip6

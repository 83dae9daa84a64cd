#include "core/describe.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ipv6/icmpv6.hpp"
#include "ipv6/ripng.hpp"
#include "ipv6/tunnel.hpp"
#include "ipv6/udp.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

TEST(Describe, UdpDatagram) {
  Address src = Address::parse("2001:db8:1::99");
  Address dst = Address::parse("ff1e::1");
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.protocol = proto::kUdp;
  spec.payload = UdpDatagram{9000, 9000, Bytes(64)}.serialize(src, dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("IPv6 2001:db8:1::99 -> ff1e::1"), std::string::npos) << s;
  EXPECT_NE(s.find("UDP 9000->9000"), std::string::npos) << s;
}

TEST(Describe, MldReport) {
  Address src = Address::parse("fe80::1");
  Address dst = Address::parse("ff1e::1");
  MldMessage rep;
  rep.type = MldType::kReport;
  rep.group = dst;
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kIcmpv6;
  spec.payload = rep.to_icmpv6().serialize(src, dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("MLD Report group=ff1e::1"), std::string::npos) << s;
}

TEST(Describe, PimGraft) {
  Address src = Address::parse("fe80::2");
  Address dst = Address::parse("fe80::3");
  PimJoinPrune m = PimJoinPrune::join(dst, Address::parse("2001:db8::1"),
                                      Address::parse("ff1e::1"));
  DatagramSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(PimType::kGraft, m.body(), src, dst);
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("PIM Graft"), std::string::npos) << s;
  EXPECT_NE(s.find("J(2001:db8::1,ff1e::1)"), std::string::npos) << s;
}

TEST(Describe, BindingUpdateWithGroupListAndHomeAddress) {
  BindingUpdateOption bu;
  bu.home_registration = true;
  bu.sequence = 3;
  bu.lifetime_s = 256;
  MulticastGroupListSubOption list;
  list.groups.push_back(Address::parse("ff1e::1"));
  bu.sub_options.push_back(list.encode());
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:6::99");
  spec.dst = Address::parse("2001:db8:4::4");
  spec.dest_options.push_back(bu.encode());
  spec.dest_options.push_back(
      HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
  spec.protocol = proto::kNoNext;
  std::string s = describe_datagram(build_datagram(spec));
  EXPECT_NE(s.find("BU seq=3 life=256s groups=1"), std::string::npos) << s;
  EXPECT_NE(s.find("Home=2001:db8:4::99"), std::string::npos) << s;
}

TEST(Describe, TunneledDatagramRecurses) {
  DatagramSpec inner;
  inner.src = Address::parse("2001:db8:1::99");
  inner.dst = Address::parse("ff1e::1");
  inner.protocol = proto::kUdp;
  inner.payload =
      UdpDatagram{9000, 9000, Bytes(8)}.serialize(inner.src, inner.dst);
  Bytes outer = encapsulate(build_datagram(inner),
                            Address::parse("2001:db8:4::4"),
                            Address::parse("2001:db8:6::99"));
  std::string s = describe_datagram(outer);
  EXPECT_NE(s.find("tunnel[ IPv6 2001:db8:1::99"), std::string::npos) << s;
  EXPECT_NE(s.find("UDP 9000->9000"), std::string::npos) << s;
}

/// One datagram per branch of describe_datagram, well-formed and malformed,
/// with the full line it must print.
TEST(Describe, GoldenLinePerBranch) {
  const Address ll1 = Address::parse("fe80::1");
  const Address ll2 = Address::parse("fe80::2");
  const Address g1 = Address::parse("ff1e::1");
  const Address g2 = Address::parse("ff1e::2");
  const Address src = Address::parse("2001:db8:1::99");
  const Address ha = Address::parse("2001:db8:4::4");
  const Address coa = Address::parse("2001:db8:6::99");
  const Address home = Address::parse("2001:db8:4::99");
  const Address all_pim = Address::parse("ff02::d");

  auto datagram = [](const Address& s, const Address& d, std::uint8_t proto,
                     Bytes payload, std::vector<DestOption> opts = {}) {
    DatagramSpec spec;
    spec.src = s;
    spec.dst = d;
    spec.hop_limit = 1;
    spec.protocol = proto;
    spec.payload = std::move(payload);
    spec.dest_options = std::move(opts);
    return build_datagram(spec);
  };
  auto mld = [&](MldType type, const Address& group, const Address& dst) {
    MldMessage m;
    m.type = type;
    m.max_response_delay_ms = 10000;
    m.group = group;
    return datagram(ll1, dst, proto::kIcmpv6,
                    m.to_icmpv6().serialize(ll1, dst));
  };
  auto pim = [&](PimType type, const Bytes& body) {
    return datagram(ll1, all_pim, proto::kPim,
                    serialize_pim(type, body, ll1, all_pim));
  };
  auto udp = [&](std::uint16_t port, Bytes payload) {
    return datagram(src, g1, proto::kUdp,
                    UdpDatagram{port, port, std::move(payload)}.serialize(
                        src, g1));
  };
  auto bu = [](std::uint16_t seq, std::vector<BuSubOption> subs) {
    BindingUpdateOption b;
    b.home_registration = true;
    b.sequence = seq;
    b.lifetime_s = 256;
    b.sub_options = std::move(subs);
    return b.encode();
  };
  const Address s1 = Address::parse("2001:db8::1");
  const Address s2 = Address::parse("2001:db8::2");
  PimJoinPrune jp = PimJoinPrune::join(ll2, s1, g1);
  jp.groups[0].pruned_sources.push_back(s2);
  PimAssert assert_msg;
  assert_msg.group = g1;
  assert_msg.source = s1;
  assert_msg.metric_preference = 101;
  assert_msg.metric = 3;
  PimStateRefresh refresh;
  refresh.group = g1;
  refresh.source = s1;
  refresh.originator = ll2;
  refresh.ttl = 7;
  refresh.prune_indicator = true;
  MulticastGroupListSubOption list;
  list.groups = {g1, g2};
  DatagramSpec inner_spec;
  inner_spec.src = src;
  inner_spec.dst = g1;
  inner_spec.protocol = proto::kUdp;
  inner_spec.payload = UdpDatagram{9000, 9000, Bytes(8)}.serialize(src, g1);
  const Bytes inner = build_datagram(inner_spec);

  // Malformed inputs, one per layer.
  Bytes bad_udp = UdpDatagram{9000, 9000, Bytes(16)}.serialize(src, g1);
  bad_udp[12] ^= 0x01;
  Bytes short_jp = jp.body();
  short_jp.resize(short_jp.size() - 3);
  Bytes bad_icmp = Icmpv6Message{icmpv6::kParamProblem, 0, Bytes(8)}
                       .serialize(ll1, g1);
  bad_icmp[6] ^= 0x01;
  const BuSubOption ragged{subopt::kMulticastGroupList, Bytes(17, 0xff)};
  Bytes bad_version = datagram(src, g1, proto::kNoNext, {});
  bad_version[0] = 0x40;

  struct Case {
    const char* name;
    Bytes wire;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"mld-general-query",
       mld(MldType::kQuery, Address(), Address::parse("ff02::1")),
       "IPv6 fe80::1 -> ff02::1 hl=1 | MLD GeneralQuery maxdelay=10000ms"},
      {"mld-query", mld(MldType::kQuery, g1, g1),
       "IPv6 fe80::1 -> ff1e::1 hl=1 | MLD Query group=ff1e::1"},
      {"mld-report", mld(MldType::kReport, g1, g1),
       "IPv6 fe80::1 -> ff1e::1 hl=1 | MLD Report group=ff1e::1"},
      {"mld-done", mld(MldType::kDone, g1, Address::parse("ff02::2")),
       "IPv6 fe80::1 -> ff02::2 hl=1 | MLD Done group=ff1e::1"},
      {"icmpv6-other",
       datagram(ll1, g1, proto::kIcmpv6,
                make_param_problem(icmpv6::kCodeUnrecognizedOption, 42,
                                   Bytes(8))
                    .serialize(ll1, g1)),
       "IPv6 fe80::1 -> ff1e::1 hl=1 | ICMPv6 type=4"},
      {"pim-hello", pim(PimType::kHello, PimHello{105}.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM Hello holdtime=105s"},
      {"pim-join-prune", pim(PimType::kJoinPrune, jp.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM Join/Prune up=fe80::2 "
       "J(2001:db8::1,ff1e::1) P(2001:db8::2,ff1e::1)"},
      {"pim-graft", pim(PimType::kGraft, jp.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM Graft up=fe80::2 "
       "J(2001:db8::1,ff1e::1) P(2001:db8::2,ff1e::1)"},
      {"pim-graft-ack", pim(PimType::kGraftAck, jp.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM GraftAck up=fe80::2 "
       "J(2001:db8::1,ff1e::1) P(2001:db8::2,ff1e::1)"},
      {"pim-assert", pim(PimType::kAssert, assert_msg.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM Assert (2001:db8::1,ff1e::1) "
       "pref=101 metric=3"},
      {"pim-state-refresh", pim(PimType::kStateRefresh, refresh.body()),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM StateRefresh "
       "(2001:db8::1,ff1e::1) ttl=7 P"},
      {"pim-unknown-type", pim(static_cast<PimType>(1), Bytes(4)),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM type=1"},
      {"udp", udp(9000, Bytes(64)),
       "IPv6 2001:db8:1::99 -> ff1e::1 hl=1 | UDP 9000->9000 (64 B)"},
      {"ripng-response",
       udp(kRipngPort,
           ripng_response_payload({{Prefix::parse("2001:db8:1::/64"), 1},
                                   {Prefix::parse("2001:db8:2::/64"), 2}})),
       "IPv6 2001:db8:1::99 -> ff1e::1 hl=1 | RIPng Response 2 routes"},
      {"ripng-port-not-a-response", udp(kRipngPort, Bytes(4)),
       "IPv6 2001:db8:1::99 -> ff1e::1 hl=1 | UDP 521->521 (4 B)"},
      {"bu", datagram(coa, ha, proto::kNoNext, {}, {bu(1, {})}),
       "IPv6 2001:db8:6::99 -> 2001:db8:4::4 hl=1 BU seq=1 life=256s "
       "| (no payload)"},
      {"bu-group-list",
       datagram(coa, ha, proto::kNoNext, {},
                {bu(3, {list.encode()}), HomeAddressOption{home}.encode()}),
       "IPv6 2001:db8:6::99 -> 2001:db8:4::4 hl=1 BU seq=3 life=256s "
       "groups=2 Home=2001:db8:4::99 | (no payload)"},
      {"back",
       datagram(ha, coa, proto::kNoNext, {},
                {BindingAckOption{0, 3, 256, 128}.encode()}),
       "IPv6 2001:db8:4::4 -> 2001:db8:6::99 hl=1 BAck | (no payload)"},
      {"unknown-option",
       datagram(ha, coa, proto::kNoNext, {},
                {DestOption{opt::kBindingRequest, Bytes(2)}}),
       "IPv6 2001:db8:4::4 -> 2001:db8:6::99 hl=1 opt8 | (no payload)"},
      {"tunnel", encapsulate(inner, ha, coa),
       "IPv6 2001:db8:4::4 -> 2001:db8:6::99 hl=64 | tunnel[ IPv6 "
       "2001:db8:1::99 -> ff1e::1 hl=64 | UDP 9000->9000 (8 B) ]"},
      {"no-payload", datagram(src, ha, proto::kNoNext, {}),
       "IPv6 2001:db8:1::99 -> 2001:db8:4::4 hl=1 | (no payload)"},
      {"unknown-protocol", datagram(src, ha, 6, Bytes(20)),
       "IPv6 2001:db8:1::99 -> 2001:db8:4::4 hl=1 | proto=6 (20 B)"},
      {"malformed-datagram", bad_version,
       "<malformed datagram: bad-type: IPv6 version field is not 6>"},
      {"malformed-icmpv6-checksum",
       datagram(ll1, g1, proto::kIcmpv6, bad_icmp),
       "IPv6 fe80::1 -> ff1e::1 hl=1 | ICMPv6 <malformed>"},
      {"malformed-pim-body", pim(PimType::kJoinPrune, short_jp),
       "IPv6 fe80::1 -> ff02::d hl=1 | PIM <malformed>"},
      {"malformed-udp-checksum", datagram(src, g1, proto::kUdp, bad_udp),
       "IPv6 2001:db8:1::99 -> ff1e::1 hl=1 | UDP <malformed>"},
      {"malformed-mld-unicast-group",
       mld(MldType::kReport, Address::parse("2001:db8::5"), g1),
       "IPv6 fe80::1 -> ff1e::1 hl=1 | ICMPv6 <malformed>"},
      {"malformed-bu",
       datagram(coa, ha, proto::kNoNext, {},
                {DestOption{opt::kBindingUpdate, Bytes(3)}}),
       "IPv6 2001:db8:6::99 -> 2001:db8:4::4 hl=1 BU<malformed> "
       "| (no payload)"},
      // The BU's own fields, decoded before the bad group list, stay.
      {"malformed-group-list",
       datagram(coa, ha, proto::kNoNext, {}, {bu(4, {ragged})}),
       "IPv6 2001:db8:6::99 -> 2001:db8:4::4 hl=1 BU seq=4 life=256s "
       "BU<malformed> | (no payload)"},
      // The datagram parse checks the Home Address option's length first.
      {"malformed-home-address",
       datagram(coa, ha, proto::kNoNext, {},
                {DestOption{opt::kHomeAddress, Bytes(8)}}),
       "<malformed datagram: bad-length: Home Address option length>"},
      {"malformed-tunnel-inner",
       encapsulate(BytesView(inner).first(inner.size() - 4), ha, coa),
       "IPv6 2001:db8:4::4 -> 2001:db8:6::99 hl=64 | tunnel[ <malformed "
       "datagram: truncated: IPv6 payload length exceeds received octets> ]"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(describe_datagram(c.wire), c.want) << c.name;
  }
}

TEST(Describe, MalformedNeverThrows) {
  EXPECT_NO_THROW({
    std::string s = describe_datagram(Bytes{1, 2, 3});
    EXPECT_NE(s.find("malformed"), std::string::npos);
  });
  EXPECT_NO_THROW(describe_datagram(Bytes{}));
}

}  // namespace
}  // namespace mip6

#include "pimdm/messages.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace mip6 {
namespace {

const Address kSrc = Address::parse("fe80::1");
const Address kDst = Address::parse("ff02::d");

TEST(PimMessages, HeaderRoundTripAndChecksum) {
  PimHello hello;
  hello.holdtime = 105;
  Bytes wire = serialize_pim(PimType::kHello, hello.body(), kSrc, kDst);
  ParseResult<PimHeader> h = try_parse_pim(wire, kSrc, kDst);
  ASSERT_TRUE(h.ok()) << h.failure().str();
  EXPECT_EQ(h.value().type, PimType::kHello);
  ParseResult<PimHello> back = PimHello::try_parse(h.value().body);
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().holdtime, 105);
}

TEST(PimMessages, ChecksumDetectsCorruption) {
  Bytes wire = serialize_pim(PimType::kHello, PimHello{105}.body(), kSrc, kDst);
  wire[wire.size() - 1] ^= 0x01;
  ParseResult<PimHeader> h = try_parse_pim(wire, kSrc, kDst);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.failure().reason, ParseReason::kBadChecksum);
}

TEST(PimMessages, ChecksumCoversPseudoHeader) {
  Bytes wire = serialize_pim(PimType::kHello, PimHello{105}.body(), kSrc, kDst);
  ParseResult<PimHeader> h =
      try_parse_pim(wire, Address::parse("fe80::2"), kDst);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.failure().reason, ParseReason::kBadChecksum);
}

TEST(PimMessages, RejectsWrongVersion) {
  Bytes wire = serialize_pim(PimType::kHello, PimHello{30}.body(), kSrc, kDst);
  // Flipping the version nibble without fixing the checksum: the checksum
  // is verified first.
  wire[0] = static_cast<std::uint8_t>((3 << 4) | (wire[0] & 0x0f));
  ParseResult<PimHeader> h = try_parse_pim(wire, kSrc, kDst);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.failure().reason, ParseReason::kBadChecksum);
}

TEST(PimMessages, HelloWithUnknownOptionsStillParses) {
  BufferWriter w;
  w.u16(999);  // unknown option
  w.u16(4);
  w.u32(0xdeadbeef);
  w.u16(1);  // holdtime option
  w.u16(2);
  w.u16(77);
  ParseResult<PimHello> h = PimHello::try_parse(w.bytes());
  ASSERT_TRUE(h.ok()) << h.failure().str();
  EXPECT_EQ(h.value().holdtime, 77);
}

TEST(PimMessages, HelloWithoutHoldtimeRejected) {
  BufferWriter w;
  w.u16(999);
  w.u16(2);
  w.u16(0);
  ParseResult<PimHello> h = PimHello::try_parse(w.bytes());
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.failure().reason, ParseReason::kSemantic);
}

TEST(PimMessages, JoinPruneRoundTrip) {
  PimJoinPrune m;
  m.upstream_neighbor = Address::parse("2001:db8:3::5");
  m.holdtime = 210;
  PimJoinPrune::GroupEntry g;
  g.group = Address::parse("ff1e::1");
  g.joined_sources.push_back(Address::parse("2001:db8:1::10"));
  g.pruned_sources.push_back(Address::parse("2001:db8:1::11"));
  g.pruned_sources.push_back(Address::parse("2001:db8:1::12"));
  m.groups.push_back(g);

  ParseResult<PimJoinPrune> parsed = PimJoinPrune::try_parse(m.body());
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const PimJoinPrune& back = parsed.value();
  EXPECT_EQ(back.upstream_neighbor, m.upstream_neighbor);
  EXPECT_EQ(back.holdtime, 210);
  ASSERT_EQ(back.groups.size(), 1u);
  EXPECT_EQ(back.groups[0].joined_sources.size(), 1u);
  EXPECT_EQ(back.groups[0].pruned_sources.size(), 2u);
  EXPECT_EQ(back.groups[0].pruned_sources[1],
            Address::parse("2001:db8:1::12"));
}

TEST(PimMessages, JoinPruneConvenienceConstructors) {
  Address up = Address::parse("fe80::9");
  Address s = Address::parse("2001:db8::1");
  Address g = Address::parse("ff1e::1");
  PimJoinPrune join = PimJoinPrune::join(up, s, g);
  ASSERT_EQ(join.groups.size(), 1u);
  EXPECT_EQ(join.groups[0].joined_sources.size(), 1u);
  EXPECT_TRUE(join.groups[0].pruned_sources.empty());

  PimJoinPrune prune = PimJoinPrune::prune(up, s, g, 210);
  EXPECT_EQ(prune.holdtime, 210);
  EXPECT_EQ(prune.groups[0].pruned_sources.size(), 1u);
}

TEST(PimMessages, MultiGroupJoinPrune) {
  PimJoinPrune m;
  m.upstream_neighbor = Address::parse("fe80::1");
  for (int i = 0; i < 5; ++i) {
    PimJoinPrune::GroupEntry g;
    g.group = Address::from_prefix_iid(Address::parse("ff1e::"), i + 1);
    g.joined_sources.push_back(
        Address::from_prefix_iid(Address::parse("2001:db8::"), i));
    m.groups.push_back(g);
  }
  ParseResult<PimJoinPrune> back = PimJoinPrune::try_parse(m.body());
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().groups.size(), 5u);
}

TEST(PimMessages, JoinPruneTruncationRejected) {
  PimJoinPrune m = PimJoinPrune::join(Address::parse("fe80::1"),
                                      Address::parse("2001:db8::1"),
                                      Address::parse("ff1e::1"));
  Bytes body = m.body();
  for (std::size_t len = 0; len < body.size(); ++len) {
    Bytes trunc(body.begin(), body.begin() + static_cast<long>(len));
    ParseResult<PimJoinPrune> parsed = PimJoinPrune::try_parse(trunc);
    ASSERT_FALSE(parsed.ok()) << len;
    EXPECT_EQ(parsed.failure().reason, ParseReason::kTruncated) << len;
  }
}

TEST(PimMessages, AssertRoundTrip) {
  PimAssert a;
  a.group = Address::parse("ff1e::1");
  a.source = Address::parse("2001:db8:1::10");
  a.metric_preference = 101;
  a.metric = 3;
  ParseResult<PimAssert> parsed = PimAssert::try_parse(a.body());
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const PimAssert& back = parsed.value();
  EXPECT_EQ(back.group, a.group);
  EXPECT_EQ(back.source, a.source);
  EXPECT_EQ(back.metric_preference, 101u);
  EXPECT_EQ(back.metric, 3u);
}

TEST(PimMessages, AssertRptBitMasked) {
  PimAssert a;
  a.group = Address::parse("ff1e::1");
  a.source = Address::parse("2001:db8::1");
  a.metric_preference = 0xffffffff;  // R bit would be set
  ParseResult<PimAssert> back = PimAssert::try_parse(a.body());
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().metric_preference, 0x7fffffffu);
}

TEST(PimMessages, EncodedAddressFamilyValidated) {
  BufferWriter w;
  w.u8(1);  // IPv4 family
  w.u8(0);
  w.zeros(16);
  WireCursor c(w.bytes());
  ParseResult<Address> a = try_read_encoded_unicast(c);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.failure().reason, ParseReason::kBadType);
}

TEST(PimMessages, FuzzedBodiesNeverCrash) {
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.uniform_int(80));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)PimJoinPrune::try_parse(junk);
    (void)PimAssert::try_parse(junk);
    (void)PimHello::try_parse(junk);
  }
}

}  // namespace
}  // namespace mip6

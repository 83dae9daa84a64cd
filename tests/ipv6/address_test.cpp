#include "ipv6/address.hpp"

#include <gtest/gtest.h>

namespace mip6 {
namespace {

TEST(Address, ParseFullForm) {
  Address a = Address::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  EXPECT_EQ(a.str(), "2001:db8::1");
}

TEST(Address, ParseCompressedForms) {
  EXPECT_EQ(Address::parse("::").str(), "::");
  EXPECT_EQ(Address::parse("::1").str(), "::1");
  EXPECT_EQ(Address::parse("fe80::").str(), "fe80::");
  EXPECT_EQ(Address::parse("ff02::1:2").str(), "ff02::1:2");
  EXPECT_EQ(Address::parse("1:2:3:4:5:6:7:8").str(), "1:2:3:4:5:6:7:8");
}

TEST(Address, ZeroCompressionPicksLongestRun) {
  // Two zero runs: the longer one is compressed.
  Address a = Address::parse("1:0:0:2:0:0:0:3");
  EXPECT_EQ(a.str(), "1:0:0:2::3");
  // Equal-length runs: the first is chosen (either is valid; ours is fixed).
  Address b = Address::parse("1:0:0:2:3:0:0:4");
  EXPECT_EQ(b.str(), "1::2:3:0:0:4");
}

TEST(Address, SingleZeroGroupNotCompressed) {
  EXPECT_EQ(Address::parse("1:2:3:0:5:6:7:8").str(), "1:2:3:0:5:6:7:8");
}

TEST(Address, RoundTripThroughParse) {
  for (const char* text :
       {"::", "::1", "fe80::1", "2001:db8:1::2", "ff1e::1",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "1:0:0:2::3"}) {
    Address a = Address::parse(text);
    EXPECT_EQ(Address::parse(a.str()), a) << text;
  }
}

TEST(Address, ParseRejectsMalformed) {
  EXPECT_THROW(Address::parse(""), ParseError);
  EXPECT_THROW(Address::parse("1:2:3"), ParseError);
  EXPECT_THROW(Address::parse("1:2:3:4:5:6:7:8:9"), ParseError);
  EXPECT_THROW(Address::parse("::1::2"), ParseError);
  EXPECT_THROW(Address::parse("12345::"), ParseError);
  EXPECT_THROW(Address::parse("g::1"), ParseError);
  EXPECT_THROW(Address::parse("1:2:3:4:5:6:7::8"), ParseError);
}

TEST(Address, Classification) {
  EXPECT_TRUE(Address().is_unspecified());
  EXPECT_TRUE(Address::loopback().is_loopback());
  EXPECT_TRUE(Address::parse("ff02::1").is_multicast());
  EXPECT_TRUE(Address::parse("ff02::1").is_link_scope_multicast());
  EXPECT_FALSE(Address::parse("ff1e::1").is_link_scope_multicast());
  EXPECT_EQ(Address::parse("ff1e::1").multicast_scope(), 0xe);
  EXPECT_TRUE(Address::parse("fe80::1").is_link_local_unicast());
  EXPECT_TRUE(Address::parse("febf::1").is_link_local_unicast());
  EXPECT_FALSE(Address::parse("fec0::1").is_link_local_unicast());
  EXPECT_FALSE(Address::parse("2001:db8::1").is_multicast());
}

TEST(Address, WellKnownAddresses) {
  EXPECT_EQ(Address::all_nodes().str(), "ff02::1");
  EXPECT_EQ(Address::all_routers().str(), "ff02::2");
  EXPECT_EQ(Address::all_pim_routers().str(), "ff02::d");
}

TEST(Address, FromPrefixIid) {
  Address prefix = Address::parse("2001:db8:7::");
  Address a = Address::from_prefix_iid(prefix, 0x42);
  EXPECT_EQ(a.str(), "2001:db8:7::42");
  EXPECT_EQ(a.high64(), prefix.high64());
  EXPECT_EQ(a.low64(), 0x42u);
}

TEST(Address, FromHalvesInvertsHighLow) {
  Address a = Address::parse("2001:db8:7:8:9:a:b:c");
  EXPECT_EQ(Address::from_halves(a.high64(), a.low64()), a);
  EXPECT_EQ(Address::from_halves(0x20010db800000000ULL, 0x1ULL).str(),
            "2001:db8::1");
}

TEST(Address, SerializeRoundTrip) {
  Address a = Address::parse("2001:db8::abcd");
  BufferWriter w;
  a.write(w);
  EXPECT_EQ(w.size(), 16u);
  BufferReader r(w.bytes());
  EXPECT_EQ(Address::read(r), a);
}

TEST(Address, FromBytesRejectsWrongSize) {
  Bytes b(15);
  EXPECT_THROW(Address::from_bytes(b), ParseError);
}

TEST(Address, OrderingIsLexicographic) {
  EXPECT_LT(Address::parse("::1"), Address::parse("::2"));
  EXPECT_LT(Address::parse("2001::"), Address::parse("fe80::"));
}

TEST(Prefix, ContainsRespectsLength) {
  Prefix p = Prefix::parse("2001:db8:5::/64");
  EXPECT_TRUE(p.contains(Address::parse("2001:db8:5::1")));
  EXPECT_TRUE(p.contains(Address::parse("2001:db8:5:0:ffff::")));
  EXPECT_FALSE(p.contains(Address::parse("2001:db8:6::1")));
}

TEST(Prefix, NonOctetAlignedLength) {
  Prefix p = Prefix::parse("fe80::/10");
  EXPECT_TRUE(p.contains(Address::parse("fe80::1")));
  EXPECT_TRUE(p.contains(Address::parse("febf::1")));
  EXPECT_FALSE(p.contains(Address::parse("fec0::1")));
}

TEST(Prefix, CanonicalizesHostBits) {
  Prefix a = Prefix::parse("2001:db8:1::dead:beef/64");
  Prefix b = Prefix::parse("2001:db8:1::/64");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.str(), "2001:db8:1::/64");
}

TEST(Prefix, ZeroLengthMatchesEverything) {
  Prefix def = Prefix::parse("::/0");
  EXPECT_TRUE(def.contains(Address::parse("2001::1")));
  EXPECT_TRUE(def.contains(Address::parse("ff02::1")));
}

TEST(Prefix, FullLengthMatchesExactly) {
  Prefix host = Prefix::parse("2001:db8::1/128");
  EXPECT_TRUE(host.contains(Address::parse("2001:db8::1")));
  EXPECT_FALSE(host.contains(Address::parse("2001:db8::2")));
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_THROW(Prefix::parse("2001:db8::"), ParseError);    // no length
  EXPECT_THROW(Prefix::parse("2001:db8::/129"), ParseError);
  EXPECT_THROW(Prefix::parse("2001:db8::/x"), ParseError);
  EXPECT_THROW(Prefix::parse("2001:db8::/"), ParseError);
}

TEST(Address, HashDistinguishes) {
  std::hash<Address> h;
  EXPECT_NE(h(Address::parse("::1")), h(Address::parse("::2")));
  EXPECT_EQ(h(Address::parse("ff1e::1")), h(Address::parse("ff1e::1")));
}

}  // namespace
}  // namespace mip6

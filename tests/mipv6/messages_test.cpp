#include "mipv6/messages.hpp"

#include <gtest/gtest.h>

namespace mip6 {
namespace {

TEST(Mipv6Messages, BindingUpdateRoundTrip) {
  BindingUpdateOption bu;
  bu.ack_requested = true;
  bu.home_registration = true;
  bu.sequence = 4711;
  bu.lifetime_s = 256;
  DestOption opt = bu.encode();
  EXPECT_EQ(opt.type, opt::kBindingUpdate);
  ParseResult<BindingUpdateOption> parsed = BindingUpdateOption::try_decode(opt);
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const BindingUpdateOption& back = parsed.value();
  EXPECT_TRUE(back.ack_requested);
  EXPECT_TRUE(back.home_registration);
  EXPECT_EQ(back.sequence, 4711);
  EXPECT_EQ(back.lifetime_s, 256u);
  EXPECT_TRUE(back.sub_options.empty());
}

TEST(Mipv6Messages, BindingUpdateFlagsIndependent) {
  BindingUpdateOption bu;
  bu.ack_requested = false;
  bu.home_registration = true;
  ParseResult<BindingUpdateOption> back =
      BindingUpdateOption::try_decode(bu.encode());
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_FALSE(back.value().ack_requested);
  EXPECT_TRUE(back.value().home_registration);
}

TEST(Mipv6Messages, BindingUpdateWithSubOptions) {
  BindingUpdateOption bu;
  bu.sub_options.push_back(BuSubOption{subopt::kUniqueIdentifier, {1, 2}});
  MulticastGroupListSubOption list;
  list.groups.push_back(Address::parse("ff1e::1"));
  list.groups.push_back(Address::parse("ff1e::2"));
  bu.sub_options.push_back(list.encode());

  ParseResult<BindingUpdateOption> parsed =
      BindingUpdateOption::try_decode(bu.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const BindingUpdateOption& back = parsed.value();
  ASSERT_EQ(back.sub_options.size(), 2u);
  EXPECT_NE(back.find_sub_option(subopt::kUniqueIdentifier), nullptr);
  const BuSubOption* sub = back.find_sub_option(subopt::kMulticastGroupList);
  ASSERT_NE(sub, nullptr);
  ParseResult<MulticastGroupListSubOption> got =
      MulticastGroupListSubOption::try_decode(*sub);
  ASSERT_TRUE(got.ok()) << got.failure().str();
  ASSERT_EQ(got.value().groups.size(), 2u);
  EXPECT_EQ(got.value().groups[1], Address::parse("ff1e::2"));
}

TEST(Mipv6Messages, GroupListLenIsSixteenTimesN) {
  // Figure 5 of the paper: Sub-Option Len = 16 * N.
  for (std::size_t n = 0; n <= 8; ++n) {
    MulticastGroupListSubOption list;
    for (std::size_t i = 0; i < n; ++i) {
      list.groups.push_back(
          Address::from_prefix_iid(Address::parse("ff1e::"), i + 1));
    }
    BuSubOption sub = list.encode();
    EXPECT_EQ(sub.type, subopt::kMulticastGroupList);
    EXPECT_EQ(sub.data.size(), 16 * n);
    ParseResult<MulticastGroupListSubOption> back =
        MulticastGroupListSubOption::try_decode(sub);
    ASSERT_TRUE(back.ok()) << back.failure().str();
    EXPECT_EQ(back.value().groups.size(), n);
  }
}

TEST(Mipv6Messages, GroupListCapsAtFifteenGroups) {
  MulticastGroupListSubOption list;
  for (int i = 0; i < 16; ++i) {
    list.groups.push_back(
        Address::from_prefix_iid(Address::parse("ff1e::"), i + 1));
  }
  EXPECT_THROW(list.encode(), LogicError);
  list.groups.pop_back();
  EXPECT_NO_THROW(list.encode());
}

TEST(Mipv6Messages, GroupListRejectsBadLength) {
  BuSubOption sub{subopt::kMulticastGroupList, Bytes(17)};
  ParseResult<MulticastGroupListSubOption> back =
      MulticastGroupListSubOption::try_decode(sub);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kBadLength);
}

TEST(Mipv6Messages, GroupListRejectsUnicastEntries) {
  Address unicast = Address::parse("2001:db8::1");
  BuSubOption sub{subopt::kMulticastGroupList,
                  Bytes(unicast.bytes().begin(), unicast.bytes().end())};
  ParseResult<MulticastGroupListSubOption> back =
      MulticastGroupListSubOption::try_decode(sub);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kSemantic);
}

TEST(Mipv6Messages, BindingAckRoundTrip) {
  BindingAckOption ack;
  ack.status = 0;
  ack.sequence = 99;
  ack.lifetime_s = 256;
  ack.refresh_s = 128;
  ParseResult<BindingAckOption> back = BindingAckOption::try_decode(ack.encode());
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().sequence, 99);
  EXPECT_EQ(back.value().lifetime_s, 256u);
  EXPECT_EQ(back.value().refresh_s, 128u);
}

TEST(Mipv6Messages, BindingAckRejectsTrailing) {
  DestOption opt = BindingAckOption{}.encode();
  opt.data.push_back(0);
  ParseResult<BindingAckOption> back = BindingAckOption::try_decode(opt);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kOverlength);
}

TEST(Mipv6Messages, HomeAddressRoundTrip) {
  HomeAddressOption h;
  h.home_address = Address::parse("2001:db8:4::99");
  DestOption opt = h.encode();
  EXPECT_EQ(opt.type, opt::kHomeAddress);
  EXPECT_EQ(opt.data.size(), 16u);
  ParseResult<HomeAddressOption> back = HomeAddressOption::try_decode(opt);
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().home_address, h.home_address);
}

TEST(Mipv6Messages, DecodeRejectsWrongOptionType) {
  DestOption wrong{opt::kBindingAck, Bytes(11)};
  ParseResult<BindingUpdateOption> bu = BindingUpdateOption::try_decode(wrong);
  ASSERT_FALSE(bu.ok());
  EXPECT_EQ(bu.failure().reason, ParseReason::kBadType);
  DestOption wrong2{opt::kBindingUpdate, Bytes(8)};
  ParseResult<BindingAckOption> ack = BindingAckOption::try_decode(wrong2);
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.failure().reason, ParseReason::kBadType);
  ParseResult<HomeAddressOption> home = HomeAddressOption::try_decode(wrong2);
  ASSERT_FALSE(home.ok());
  EXPECT_EQ(home.failure().reason, ParseReason::kBadType);
}

TEST(Mipv6Messages, TruncatedBindingUpdateRejected) {
  DestOption opt = BindingUpdateOption{}.encode();
  opt.data.resize(3);
  ParseResult<BindingUpdateOption> back = BindingUpdateOption::try_decode(opt);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kTruncated);
}

}  // namespace
}  // namespace mip6

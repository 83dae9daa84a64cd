#include "mld/messages.hpp"

#include <gtest/gtest.h>

#include "mld/config.hpp"

namespace mip6 {
namespace {

TEST(MldMessages, QueryRoundTrip) {
  MldMessage q;
  q.type = MldType::kQuery;
  q.max_response_delay_ms = 10000;
  q.group = Address();  // general query
  Icmpv6Message icmp = q.to_icmpv6();
  EXPECT_EQ(icmp.type, 130);
  EXPECT_EQ(icmp.body.size(), 20u);
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(icmp);
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_EQ(back.value().type, MldType::kQuery);
  EXPECT_EQ(back.value().max_response_delay_ms, 10000);
  EXPECT_TRUE(back.value().is_general_query());
}

TEST(MldMessages, GroupSpecificQuery) {
  MldMessage q;
  q.type = MldType::kQuery;
  q.max_response_delay_ms = 1000;
  q.group = Address::parse("ff1e::1");
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(q.to_icmpv6());
  ASSERT_TRUE(back.ok()) << back.failure().str();
  EXPECT_FALSE(back.value().is_general_query());
  EXPECT_EQ(back.value().group, q.group);
}

TEST(MldMessages, ReportAndDoneRoundTrip) {
  for (MldType type : {MldType::kReport, MldType::kDone}) {
    MldMessage m;
    m.type = type;
    m.group = Address::parse("ff1e::42");
    ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(m.to_icmpv6());
    ASSERT_TRUE(back.ok()) << back.failure().str();
    EXPECT_EQ(back.value().type, type);
    EXPECT_EQ(back.value().group, m.group);
  }
}

TEST(MldMessages, RejectsNonMldType) {
  Icmpv6Message icmp;
  icmp.type = 128;  // echo request
  icmp.body = Bytes(20);
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(icmp);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kBadType);
}

TEST(MldMessages, RejectsTruncatedBody) {
  MldMessage m;
  m.type = MldType::kReport;
  m.group = Address::parse("ff1e::1");
  Icmpv6Message icmp = m.to_icmpv6();
  icmp.body.resize(19);
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(icmp);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kTruncated);
}

TEST(MldMessages, RejectsTrailingBytes) {
  MldMessage m;
  m.type = MldType::kReport;
  m.group = Address::parse("ff1e::1");
  Icmpv6Message icmp = m.to_icmpv6();
  icmp.body.push_back(0);
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(icmp);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kOverlength);
}

TEST(MldMessages, ReportWithoutGroupRejected) {
  MldMessage m;
  m.type = MldType::kReport;
  m.group = Address();  // unspecified: invalid for report/done
  ParseResult<MldMessage> back = MldMessage::try_from_icmpv6(m.to_icmpv6());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.failure().reason, ParseReason::kSemantic);
}

TEST(MldConfig, DerivedIntervalsMatchRfcDefaults) {
  MldConfig c;
  EXPECT_EQ(c.query_interval, Time::sec(125));
  EXPECT_EQ(c.query_response_interval, Time::sec(10));
  // T_MLI = 2*125 + 10 = 260 s, the paper's headline number.
  EXPECT_EQ(c.multicast_listener_interval(), Time::sec(260));
  EXPECT_EQ(c.other_querier_present_interval(), Time::sec(255));
}

TEST(MldConfig, WithQueryIntervalClampsToResponseDelay) {
  MldConfig c = MldConfig::with_query_interval(Time::sec(25));
  EXPECT_EQ(c.query_interval, Time::sec(25));
  EXPECT_EQ(c.multicast_listener_interval(), Time::sec(60));
  // Footnote 5: T_Query must not go below the Maximum Response Delay.
  MldConfig tight = MldConfig::with_query_interval(Time::sec(2));
  EXPECT_EQ(tight.query_interval, Time::sec(10));
}

}  // namespace
}  // namespace mip6

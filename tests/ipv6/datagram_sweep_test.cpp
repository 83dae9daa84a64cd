// Parameterized wire-format sweeps: datagram round trips across payload
// sizes × option combinations, and tunnel nesting depths.
#include <gtest/gtest.h>

#include <tuple>

#include "ipv6/datagram.hpp"
#include "ipv6/tunnel.hpp"
#include "mipv6/messages.hpp"

namespace mip6 {
namespace {

class DatagramSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DatagramSweep, RoundTripsExactly) {
  const auto [payload_size, option_combo] = GetParam();
  DatagramSpec spec;
  spec.src = Address::parse("2001:db8:1::1");
  spec.dst = Address::parse("2001:db8:2::2");
  spec.hop_limit = 77;
  spec.protocol = proto::kUdp;
  spec.payload.resize(payload_size);
  for (int i = 0; i < payload_size; ++i) {
    spec.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  if (option_combo & 1) {
    spec.dest_options.push_back(
        HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
  }
  if (option_combo & 2) {
    BindingUpdateOption bu;
    bu.home_registration = true;
    bu.sequence = 9;
    bu.lifetime_s = 100;
    spec.dest_options.push_back(bu.encode());
  }
  if (option_combo & 4) {
    MulticastGroupListSubOption list;
    list.groups.push_back(Address::parse("ff1e::1"));
    BindingUpdateOption bu;
    bu.home_registration = true;
    bu.sub_options.push_back(list.encode());
    spec.dest_options.push_back(bu.encode());
  }

  Bytes wire = build_datagram(spec);
  ParseResult<ParsedDatagram> parsed = try_parse_datagram(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.failure().str();
  const ParsedDatagram& d = parsed.value();
  EXPECT_EQ(d.hdr.src, spec.src);
  EXPECT_EQ(d.hdr.dst, spec.dst);
  EXPECT_EQ(d.hdr.hop_limit, 77);
  EXPECT_EQ(d.protocol, proto::kUdp);
  EXPECT_EQ(Bytes(d.payload.begin(), d.payload.end()), spec.payload);
  EXPECT_EQ(d.dest_options.size(), spec.dest_options.size());
  // Effective source honours a Home Address option.
  if (option_combo & 1) {
    EXPECT_EQ(d.effective_src, Address::parse("2001:db8:4::99"));
  } else {
    EXPECT_EQ(d.effective_src, spec.src);
  }
  // Re-serializing the parse result gives identical octets.
  DatagramSpec again;
  again.src = d.hdr.src;
  again.dst = d.hdr.dst;
  again.hop_limit = d.hdr.hop_limit;
  again.dest_options = d.dest_options;
  again.protocol = d.protocol;
  again.payload.assign(d.payload.begin(), d.payload.end());
  EXPECT_EQ(build_datagram(again), wire);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndOptions, DatagramSweep,
    ::testing::Combine(::testing::Values(0, 1, 7, 8, 64, 512, 1400),
                       ::testing::Values(0, 1, 2, 3, 4, 5, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pi) {
      return "p" + std::to_string(std::get<0>(pi.param)) + "_o" +
             std::to_string(std::get<1>(pi.param));
    });

class TunnelDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(TunnelDepthSweep, NestedEncapsulationUnwinds) {
  const int depth = GetParam();
  DatagramSpec inner_spec;
  inner_spec.src = Address::parse("2001:db8:1::9");
  inner_spec.dst = Address::parse("ff1e::1");
  inner_spec.protocol = proto::kNoNext;
  Bytes wire = build_datagram(inner_spec);
  const Bytes original = wire;
  for (int i = 0; i < depth; ++i) {
    wire = encapsulate(
        wire, Address::from_prefix_iid(Address::parse("2001:db8::"), i + 1),
        Address::from_prefix_iid(Address::parse("2001:db8::"), i + 100));
  }
  EXPECT_EQ(wire.size(), original.size() + depth * kTunnelOverhead);
  // Each decapsulation copies the next datagram into its own buffer, which
  // its parse views; the layer it came from may then go.
  const ParseResult<ParsedDatagram> outer = try_parse_datagram(wire);
  ASSERT_TRUE(outer.ok()) << outer.failure().str();
  ParseResult<InnerDatagram> d = try_decapsulate(outer.value());
  for (int i = 1; i < depth; ++i) {
    ASSERT_TRUE(d.ok()) << d.failure().str();
    const InnerDatagram& in = d.value();
    EXPECT_EQ(in.packet.size(),
              original.size() + (depth - i) * kTunnelOverhead);
    EXPECT_EQ(in.datagram.payload.data(),
              in.packet.view().data() + Ipv6Header::kSize);
    d = try_decapsulate(in.datagram);
  }
  ASSERT_TRUE(d.ok()) << d.failure().str();
  EXPECT_EQ(d.value().packet.data(), original);
  EXPECT_EQ(d.value().datagram.hdr.src, inner_spec.src);
}

INSTANTIATE_TEST_SUITE_P(Depths, TunnelDepthSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace mip6

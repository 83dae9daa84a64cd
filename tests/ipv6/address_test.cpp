#include "ipv6/address.hpp"
#include "ipv6/addressing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/rng.hpp"

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
  WireCursor c(w.bytes());
  EXPECT_EQ(Address::read(c), a);
  EXPECT_FALSE(c.failed());
  EXPECT_TRUE(c.empty());
}

TEST(Address, ShortReadReturnsUnspecifiedAndFailsCursor) {
  Bytes fifteen(15, 0xff);
  WireCursor c(fifteen);
  EXPECT_EQ(Address::read(c), Address());
  EXPECT_TRUE(c.failed());
  EXPECT_TRUE(c.empty());
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

// Random addresses with the cases a word compare can get wrong: equal high
// words, equal addresses, and octets at or above 0x80 (a signed or
// little-endian word compare would misorder them).
Address random_address(Rng& rng, const std::vector<Address>& pool) {
  std::array<std::uint8_t, Address::kBytes> b{};
  switch (rng.uniform_int(4)) {
    case 0:  // equal to an earlier address
      if (!pool.empty()) return pool[rng.uniform_int(pool.size())];
      break;
    case 1:  // an earlier address's high word, a fresh low word
      if (!pool.empty()) {
        b = pool[rng.uniform_int(pool.size())].bytes();
        for (std::size_t i = 8; i < Address::kBytes; ++i) {
          b[i] = static_cast<std::uint8_t>(rng.uniform_int(4) * 0x55);
        }
        return Address::from_bytes(BytesView(b));
      }
      break;
    default:
      break;
  }
  // Few distinct octet values, half of them >= 0x80, so prefixes collide.
  static constexpr std::uint8_t kOctets[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
  for (auto& o : b) o = kOctets[rng.uniform_int(6)];
  return Address::from_bytes(BytesView(b));
}

// Shaped like DenseModeEngine::SgKey.
struct SgKey {
  Address source;
  Address group;
  friend auto operator<=>(const SgKey&, const SgKey&) = default;
};

bool byte_less(const Address& a, const Address& b) {
  return std::lexicographical_compare(a.bytes().begin(), a.bytes().end(),
                                      b.bytes().begin(), b.bytes().end());
}

TEST(Address, WordOrderMatchesByteOrder) {
  Rng rng(20260401);
  std::vector<Address> pool;
  std::size_t equal_high = 0, equal = 0;
  for (int i = 0; i < 100000; ++i) {
    const Address a = random_address(rng, pool);
    // b: a itself, a with another low word, or an unrelated address.
    Address b = random_address(rng, pool);
    switch (rng.uniform_int(4)) {
      case 0:
        b = a;
        break;
      case 1:
        b = Address::from_halves(a.high64(), b.low64());
        break;
      default:
        break;
    }
    pool.push_back(a);
    if (pool.size() > 64) pool.erase(pool.begin());
    const bool lt = byte_less(a, b), gt = byte_less(b, a);
    const bool eq = a.bytes() == b.bytes();
    equal_high += a.high64() == b.high64() && !eq;
    equal += eq;
    ASSERT_EQ(a < b, lt) << a.str() << " " << b.str();
    ASSERT_EQ(a == b, eq) << a.str() << " " << b.str();
    ASSERT_EQ(a != b, !eq);
    const auto c = a <=> b;
    ASSERT_EQ(c < 0, lt);
    ASSERT_EQ(c > 0, gt);
    ASSERT_EQ(c == 0, eq);
    if (eq) {
      ASSERT_EQ(std::hash<Address>()(a), std::hash<Address>()(b));
    }
  }
  EXPECT_GT(equal_high, 10000u);
  EXPECT_GT(equal, 10000u);

  // Ordered containers walk in byte order: a set of addresses and a map
  // keyed like the dense-mode engines' (source, group) table.
  std::set<Address> set;
  std::map<SgKey, int> sg;
  for (int i = 0; i < 2000; ++i) {
    set.insert(random_address(rng, pool));
    sg.emplace(SgKey{random_address(rng, pool), random_address(rng, pool)}, i);
  }
  std::vector<Address> walked(set.begin(), set.end());
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end(), byte_less));
  EXPECT_EQ(std::adjacent_find(walked.begin(), walked.end()), walked.end());
  const SgKey* prev = nullptr;
  for (const auto& [key, value] : sg) {
    if (prev != nullptr) {
      const bool before =
          byte_less(prev->source, key.source) ||
          (prev->source == key.source && byte_less(prev->group, key.group));
      ASSERT_TRUE(before) << prev->source.str() << "," << prev->group.str()
                          << " then " << key.source.str() << ","
                          << key.group.str();
    }
    prev = &key;
  }
}

// The bit-by-bit definition: the first `len` bits of `a` equal the
// network's.
bool bit_contains(const Prefix& p, const Address& a) {
  for (int bit = 0; bit < p.length(); ++bit) {
    const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
    if ((p.network().bytes()[bit / 8] & mask) != (a.bytes()[bit / 8] & mask)) {
      return false;
    }
  }
  return true;
}

TEST(Prefix, ContainsMatchesBitReference) {
  Rng rng(64);
  std::vector<Address> pool;
  for (int len = 0; len <= 128; ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    for (int i = 0; i < 400; ++i) {
      const Address base = random_address(rng, pool);
      pool.push_back(base);
      if (pool.size() > 64) pool.erase(pool.begin());
      const Prefix p(base, static_cast<std::uint8_t>(len));
      // The network itself, the base address, one bit flipped at each
      // side of the boundary, and an unrelated address.
      std::vector<Address> probes{p.network(), base,
                                  random_address(rng, pool)};
      for (int bit : {len - 1, len}) {
        if (bit < 0 || bit > 127) continue;
        auto b = base.bytes();
        b[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<std::uint8_t>(0x80u >> (bit % 8));
        probes.push_back(Address::from_bytes(BytesView(b)));
      }
      for (const Address& a : probes) {
        ASSERT_EQ(p.contains(a), bit_contains(p, a))
            << p.str() << " " << a.str();
      }
      ASSERT_TRUE(p.contains(base));
    }
  }
}

// The scan link_of did before the /64 index: the lowest LinkId whose
// prefix contains the address.
std::optional<LinkId> scan_link_of(const std::map<LinkId, Prefix>& plan,
                                   const Address& a) {
  for (const auto& [id, prefix] : plan) {
    if (prefix.contains(a)) return id;
  }
  return std::nullopt;
}

TEST(AddressingPlan, IndexedLinkOfMatchesLinearScan) {
  static constexpr std::uint8_t kOtherLengths[] = {0, 16, 48, 63, 65, 96, 128};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const bool mixed = seed % 2 == 0;
    // Few networks for many links, so links share a /64 and overwrites
    // move a link between networks.
    std::vector<std::uint64_t> nets;
    for (int i = 0; i < 10; ++i) {
      nets.push_back(0x2001'0db8'0000'0000ULL | rng.uniform_int(1u << 20));
    }
    AddressingPlan plan;
    std::map<LinkId, Prefix> ref;
    std::size_t shared = 0, hits = 0, misses = 0;
    auto set = [&](LinkId link, std::uint8_t len) {
      const Address a = Address::from_halves(
          nets[rng.uniform_int(nets.size())], rng.next_u64());
      plan.set_link_prefix(link, Prefix(a, len));
      ref[link] = Prefix(a, len);
    };
    auto check = [&] {
      for (int i = 0; i < 40; ++i) {
        // Inside some network of the plan, or (mostly) outside it.
        const std::uint64_t high =
            rng.bernoulli(0.7) ? nets[rng.uniform_int(nets.size())]
                               : rng.next_u64();
        const Address a = Address::from_halves(high, rng.next_u64());
        const auto want = scan_link_of(ref, a);
        ASSERT_EQ(plan.link_of(a), want) << a.str();
        (want ? hits : misses) += 1;
      }
    };
    for (int step = 0; step < 400; ++step) {
      const auto link = static_cast<LinkId>(rng.uniform_int(48));
      const std::uint8_t len = mixed && rng.bernoulli(0.15)
                                   ? kOtherLengths[rng.uniform_int(7)]
                                   : 64;
      set(link, len);
      check();
    }
    // Back to /64 everywhere: the index answers again.
    for (auto& [link, prefix] : std::map<LinkId, Prefix>(ref)) {
      if (prefix.length() != 64) set(link, 64);
    }
    check();
    for (auto i = ref.begin(); i != ref.end(); ++i) {
      for (auto j = std::next(i); j != ref.end(); ++j) {
        shared += i->second == j->second;
      }
    }
    EXPECT_GT(shared, 10u);
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(misses, 1000u);
  }
}

}  // namespace
}  // namespace mip6

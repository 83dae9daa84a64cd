#include "ipv6/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "sim/rng.hpp"

namespace mip6 {
namespace {

TEST(Rib, LongestPrefixMatchWins) {
  Rib rib;
  rib.add(Route{Prefix::parse("2001:db8::/32"), 1, Address(), 5});
  rib.add(Route{Prefix::parse("2001:db8:5::/64"), 2, Address(), 5});
  const Route* r = rib.lookup(Address::parse("2001:db8:5::1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->out_iface, 2u);
  r = rib.lookup(Address::parse("2001:db8:6::1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->out_iface, 1u);
}

TEST(Rib, NoMatchReturnsNull) {
  Rib rib;
  rib.add(Route{Prefix::parse("2001:db8:1::/64"), 1, Address(), 1});
  EXPECT_EQ(rib.lookup(Address::parse("2001:db9::1")), nullptr);
}

TEST(Rib, EqualLengthTieBrokenByMetric) {
  Rib rib;
  rib.add(Route{Prefix::parse("2001:db8:1::/64"), 1,
                Address::parse("fe80::1"), 10});
  rib.add(Route{Prefix::parse("2001:db8:1::/64"), 2,
                Address::parse("fe80::2"), 3});
  const Route* r = rib.lookup(Address::parse("2001:db8:1::9"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->out_iface, 2u);
  EXPECT_EQ(r->metric, 3u);
}

TEST(Rib, DefaultRouteMatchesEverythingLast) {
  Rib rib;
  rib.set_default(7, Address::parse("2001:db8:1::1"));
  rib.add(Route{Prefix::parse("2001:db8:2::/64"), 3, Address(), 1});
  EXPECT_EQ(rib.lookup(Address::parse("abcd::1"))->out_iface, 7u);
  EXPECT_EQ(rib.lookup(Address::parse("2001:db8:2::1"))->out_iface, 3u);
}

TEST(Rib, SetDefaultReplaces) {
  Rib rib;
  rib.set_default(1, Address::parse("fe80::1"));
  rib.set_default(2, Address::parse("fe80::2"));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.lookup(Address::parse("::9"))->out_iface, 2u);
}

TEST(Rib, RemovePrefixAndClear) {
  Rib rib;
  rib.add(Route{Prefix::parse("2001:db8:1::/64"), 1, Address(), 1});
  rib.add(Route{Prefix::parse("2001:db8:2::/64"), 2, Address(), 1});
  rib.remove_prefix(Prefix::parse("2001:db8:1::/64"));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.lookup(Address::parse("2001:db8:1::5")), nullptr);
  rib.clear();
  EXPECT_EQ(rib.size(), 0u);
}

TEST(Rib, OnLinkFlag) {
  Route on_link{Prefix::parse("::/0"), 0, Address(), 0};
  EXPECT_TRUE(on_link.on_link());
  Route via{Prefix::parse("::/0"), 0, Address::parse("fe80::1"), 0};
  EXPECT_FALSE(via.on_link());
}

TEST(Rib, StrListsRoutes) {
  Rib rib;
  rib.add(Route{Prefix::parse("2001:db8:1::/64"), 4, Address(), 2});
  std::string s = rib.str();
  EXPECT_NE(s.find("2001:db8:1::/64"), std::string::npos);
  EXPECT_NE(s.find("if4"), std::string::npos);
  EXPECT_NE(s.find("on-link"), std::string::npos);
}

// --- Differential check against a linear scan --------------------------------

/// The reference: routes in insertion order, looked up by scanning them all
/// (longest prefix, then strictly lower metric, so the first added wins).
class LinearRib {
 public:
  void add(const Route& r) { routes_.push_back(r); }
  void remove_prefix(const Prefix& p) {
    std::erase_if(routes_, [&](const Route& r) { return r.prefix == p; });
  }
  void clear() { routes_.clear(); }
  void set_default(IfaceId out_iface, const Address& next_hop,
                   std::uint32_t metric) {
    Prefix def(Address(), 0);
    remove_prefix(def);
    add(Route{def, out_iface, next_hop, metric});
  }
  const Route* lookup(const Address& dst) const {
    const Route* best = nullptr;
    for (const auto& r : routes_) {
      if (!r.prefix.contains(dst)) continue;
      if (best == nullptr || r.prefix.length() > best->prefix.length() ||
          (r.prefix.length() == best->prefix.length() &&
           r.metric < best->metric)) {
        best = &r;
      }
    }
    return best;
  }
  std::size_t size() const { return routes_.size(); }
  const std::vector<Route>& routes() const { return routes_; }

 private:
  std::vector<Route> routes_;
};

Address random_address(Rng& rng) {
  std::array<std::uint8_t, 16> raw;
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
  return Address::from_bytes(BytesView(raw));
}

/// A random address inside `p`: its first length() bits, random host bits.
Address address_inside(const Prefix& p, Rng& rng) {
  std::array<std::uint8_t, 16> raw = random_address(rng).bytes();
  const auto& net = p.network().bytes();
  for (std::size_t bit = 0; bit < p.length(); ++bit) {
    const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
    raw[bit / 8] = static_cast<std::uint8_t>((raw[bit / 8] & ~mask) |
                                             (net[bit / 8] & mask));
  }
  return Address::from_bytes(BytesView(raw));
}

TEST(RibDifferential, LookupMatchesLinearScanUnderChurn) {
  std::size_t probes = 0, hits = 0, ties = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Prefixes are cut from a few base addresses, so they nest and repeat.
    std::vector<Address> bases;
    for (int i = 0; i < 6; ++i) bases.push_back(random_address(rng));
    Rib rib;
    LinearRib ref;
    IfaceId next_iface = 1;  // every route its own out_iface
    auto random_route = [&](const Prefix& p) {
      Address via = rng.bernoulli(0.5) ? random_address(rng) : Address();
      return Route{p, next_iface++, via,
                   static_cast<std::uint32_t>(rng.uniform_int(3))};
    };
    for (int round = 0; round < 40; ++round) {
      for (int op = 0; op < 25; ++op) {
        const double u = rng.uniform();
        if (u < 0.70) {
          Prefix p(bases[rng.uniform_int(bases.size())],
                   static_cast<std::uint8_t>(rng.uniform_int(129)));
          if (ref.size() > 0 && rng.bernoulli(0.3)) {
            // A duplicate prefix, with an equal or a different metric.
            p = ref.routes()[rng.uniform_int(ref.size())].prefix;
          }
          Route r = random_route(p);
          rib.add(r);
          ref.add(r);
        } else if (u < 0.85) {
          Prefix p = ref.size() > 0 && rng.bernoulli(0.8)
                         ? ref.routes()[rng.uniform_int(ref.size())].prefix
                         : Prefix(random_address(rng), 64);
          rib.remove_prefix(p);
          ref.remove_prefix(p);
        } else if (u < 0.98) {
          Route r = random_route(Prefix());
          rib.set_default(r.out_iface, r.next_hop, r.metric);
          ref.set_default(r.out_iface, r.next_hop, r.metric);
        } else {
          rib.clear();
          ref.clear();
        }
      }
      ASSERT_EQ(rib.size(), ref.size());
      for (int k = 0; k < 100; ++k) {
        Address dst;
        const double u = rng.uniform();
        if (u < 0.6 && ref.size() > 0) {
          dst = address_inside(
              ref.routes()[rng.uniform_int(ref.size())].prefix, rng);
        } else if (u < 0.9) {
          dst = address_inside(
              Prefix(bases[rng.uniform_int(bases.size())],
                     static_cast<std::uint8_t>(rng.uniform_int(129))),
              rng);
        } else {
          dst = random_address(rng);
        }
        const Route* want = ref.lookup(dst);
        const Route* got = rib.lookup(dst);
        ++probes;
        if (want == nullptr) {
          EXPECT_EQ(got, nullptr) << dst.str();
          continue;
        }
        ++hits;
        if (std::any_of(ref.routes().begin(), ref.routes().end(),
                        [&](const Route& r) {
                          return r.prefix == want->prefix && &r != want;
                        })) {
          ++ties;
        }
        ASSERT_NE(got, nullptr) << dst.str();
        EXPECT_EQ(got->prefix, want->prefix) << dst.str();
        EXPECT_EQ(got->out_iface, want->out_iface) << dst.str();
        EXPECT_EQ(got->next_hop, want->next_hop) << dst.str();
        EXPECT_EQ(got->metric, want->metric) << dst.str();
      }
    }
  }
  EXPECT_GE(probes, 10000u);
  // The probes must exercise matches and duplicate-prefix ties, not only
  // misses.
  EXPECT_GE(hits, probes / 2);
  EXPECT_GE(ties, probes / 20);
}

}  // namespace
}  // namespace mip6

#include "ipv6/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/random_topology.hpp"
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

// --- Table-backed RIBs against plain ones ------------------------------------

void expect_same_route(const Route* got, const Route* want,
                       const Address& dst) {
  if (want == nullptr) {
    EXPECT_EQ(got, nullptr) << dst.str();
    return;
  }
  ASSERT_NE(got, nullptr) << dst.str();
  EXPECT_EQ(got->prefix, want->prefix) << dst.str();
  EXPECT_EQ(got->out_iface, want->out_iface) << dst.str();
  EXPECT_EQ(got->next_hop, want->next_hop) << dst.str();
  EXPECT_EQ(got->metric, want->metric) << dst.str();
}

/// `shared` (table-backed until its first change) must answer as `plain`,
/// which got the same routes by add, and as the linear reference.
void expect_same_answers(const Rib& shared, const Rib& plain,
                         const LinearRib& ref,
                         const std::vector<Address>& probes) {
  ASSERT_EQ(shared.size(), plain.size());
  ASSERT_EQ(shared.size(), ref.size());
  ASSERT_EQ(shared.str(), plain.str());
  for (const Address& dst : probes) {
    const Route* got = shared.lookup(dst);
    expect_same_route(got, plain.lookup(dst), dst);
    expect_same_route(got, ref.lookup(dst), dst);
    // A table's rows never move.
    EXPECT_EQ(shared.lookup(dst), got) << dst.str();
  }
}

/// Random churn on three RIBs that hold the same routes, comparing them
/// after every step. Each round starts `shared` from `start`, a
/// table-backed RIB whose routes `routes` lists in the order they were
/// found; `prefixes` are the table's prefixes.
void churn_and_compare(Rng& rng, const Rib& start,
                       const std::vector<Route>& routes,
                       const std::vector<Prefix>& prefixes,
                       const std::vector<Address>& probes, int rounds) {
  ASSERT_NE(start.table(), nullptr);
  IfaceId next_iface = 1000;  // every added route its own out_iface
  auto random_route = [&](const Prefix& p) {
    return Route{p, next_iface++,
                 rng.bernoulli(0.5) ? random_address(rng) : Address(),
                 static_cast<std::uint32_t>(1 + rng.uniform_int(3))};
  };
  for (int round = 0; round < rounds; ++round) {
    Rib shared = start;
    Rib plain;
    LinearRib ref;
    for (const Route& r : routes) {
      plain.add(r);
      ref.add(r);
    }
    expect_same_answers(shared, plain, ref, probes);
    for (int step = 0; step < 8; ++step) {
      SCOPED_TRACE("round " + std::to_string(round) + " step " +
                   std::to_string(step));
      const double u = rng.uniform();
      if (u < 0.4) {
        // A table prefix (an equal-prefix tie), or one nested in it.
        Prefix p = prefixes[rng.uniform_int(prefixes.size())];
        if (rng.bernoulli(0.3)) {
          p = Prefix(address_inside(p, rng),
                     static_cast<std::uint8_t>(rng.uniform_int(129)));
        }
        const Route r = random_route(p);
        shared.add(r);
        plain.add(r);
        ref.add(r);
      } else if (u < 0.7) {
        const Prefix p = rng.bernoulli(0.7)
                             ? prefixes[rng.uniform_int(prefixes.size())]
                             : Prefix(random_address(rng), 64);
        shared.remove_prefix(p);
        plain.remove_prefix(p);
        ref.remove_prefix(p);
      } else if (u < 0.92) {
        const Route r = random_route(Prefix());
        shared.set_default(r.out_iface, r.next_hop, r.metric);
        plain.set_default(r.out_iface, r.next_hop, r.metric);
        ref.set_default(r.out_iface, r.next_hop, r.metric);
      } else {
        shared.clear();
        plain.clear();
        ref.clear();
      }
      EXPECT_EQ(shared.table(), nullptr);
      expect_same_answers(shared, plain, ref, probes);
    }
  }
}

/// Every prefix's network, an address inside each prefix, and random ones.
std::vector<Address> probes_for(const std::vector<Prefix>& prefixes,
                                Rng& rng) {
  std::vector<Address> out;
  for (const Prefix& p : prefixes) {
    out.push_back(p.network());
    out.push_back(address_inside(p, rng));
  }
  for (int i = 0; i < 16; ++i) out.push_back(random_address(rng));
  return out;
}

TEST(RouteTableDifferential, MatchesPlainRibUnderChurnOnRandomWorlds) {
  std::size_t unreachable = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomTopologyParams params;
    params.routers = 24;
    params.extra_links = 8;
    params.seed = seed;
    RandomTopology t = build_random_topology(params);
    World& w = *t.world;
    w.finalize();
    // Some routers lose some prefixes: every fifth link is down and one
    // router has crashed.
    const auto& links = w.net().links();
    for (std::size_t k = seed; k < links.size(); k += 5) {
      links[k]->set_up(false);
    }
    t.routers[seed]->node->crash();
    w.routing().recompute();

    Rng rng(seed);
    std::vector<Prefix> prefixes;
    for (const auto& link : links) {
      if (w.plan().has_prefix(link->id())) {
        prefixes.push_back(w.plan().prefix_of(link->id()));
      }
    }
    const std::vector<Address> probes = probes_for(prefixes, rng);
    for (NodeRuntime* r : t.routers) {
      SCOPED_TRACE(r->node->name());
      const Rib& rib = r->stack->rib();
      // The slot's routes, added in link order.
      std::vector<Route> routes;
      for (const Prefix& p : prefixes) {
        const Route* route = rib.lookup(p.network());
        if (route != nullptr && route->prefix == p) routes.push_back(*route);
      }
      unreachable += prefixes.size() - routes.size();
      churn_and_compare(rng, rib, routes, prefixes, probes, 3);
    }
  }
  // size() has unreachable prefixes to leave out.
  EXPECT_GT(unreachable, 20u);
}

TEST(RouteTableDifferential, MatchesPlainRibOnNestedAndDuplicatePrefixes) {
  // Tables GlobalRouting never builds: nested prefixes of every length, a
  // default route, equal prefixes with equal and different metrics, and
  // slots without a route to many of them.
  std::size_t ties = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Address> bases;
    for (int i = 0; i < 4; ++i) bases.push_back(random_address(rng));
    std::vector<Prefix> found;  // in the order the routes were found
    for (int i = 0; i < 40; ++i) {
      if (!found.empty() && rng.bernoulli(0.2)) {
        found.push_back(found[rng.uniform_int(found.size())]);
      } else {
        found.emplace_back(bases[rng.uniform_int(bases.size())],
                           static_cast<std::uint8_t>(rng.uniform_int(129)));
      }
    }
    constexpr std::uint32_t kSlots = 6;
    std::vector<Address> next_hops{Address()};
    for (int i = 0; i < 5; ++i) next_hops.push_back(random_address(rng));
    std::vector<RouteTable::Hop> found_hops(found.size() * kSlots);
    for (auto& h : found_hops) {
      if (rng.bernoulli(0.25)) continue;  // no route
      h = {static_cast<IfaceId>(1 + rng.uniform_int(8)),
           static_cast<std::uint32_t>(1 + rng.uniform_int(2)),
           static_cast<std::uint32_t>(rng.uniform_int(next_hops.size()))};
    }
    // The table keeps the prefixes in RIB order, ties in the order found.
    std::vector<std::size_t> order(found.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return rib_order(found[a], found[b]);
    });
    std::vector<Prefix> prefixes;
    std::vector<RouteTable::Hop> hops;
    std::vector<std::uint32_t> counts(kSlots, 0);
    for (std::size_t i : order) {
      prefixes.push_back(found[i]);
      for (std::uint32_t s = 0; s < kSlots; ++s) {
        hops.push_back(found_hops[i * kSlots + s]);
        if (hops.back().metric != 0) ++counts[s];
      }
    }
    auto table = std::make_shared<const RouteTable>(
        prefixes, kSlots, std::move(hops), next_hops, counts);
    const std::vector<Address> probes = probes_for(prefixes, rng);
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      SCOPED_TRACE("slot " + std::to_string(s));
      Rib rib;
      rib.assign(table, s);
      std::vector<Route> routes;
      for (std::size_t i = 0; i < found.size(); ++i) {
        const RouteTable::Hop& h = found_hops[i * kSlots + s];
        if (h.metric == 0) continue;
        ties += std::count_if(routes.begin(), routes.end(), [&](const Route& r) {
          return r.prefix == found[i];
        });
        routes.push_back(
            Route{found[i], h.out_iface, next_hops[h.next_hop], h.metric});
      }
      churn_and_compare(rng, rib, routes, prefixes, probes, 4);
    }
  }
  EXPECT_GT(ties, 20u);
}

}  // namespace
}  // namespace mip6

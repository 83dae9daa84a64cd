// Unit coverage for the MFC primitives (net/mfc.hpp): bitmap semantics,
// dense index assignment with renumbering, and the epoch-invalidated flow
// cache. The engine-level invalidation rules are covered separately by
// tests/integration/mfc_invalidation_test.cpp.
#include "net/mfc.hpp"

#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace mip6 {
namespace {

TEST(IfSetTest, SetClearTestCount) {
  IfSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);

  s.set(0);
  s.set(63);
  s.set(64);   // word boundary
  s.set(255);  // last representable bit
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_TRUE(s.test(64));
  EXPECT_TRUE(s.test(255));
  EXPECT_FALSE(s.test(1));
  EXPECT_FALSE(s.test(128));

  s.clear(63);
  EXPECT_FALSE(s.test(63));
  EXPECT_EQ(s.count(), 3u);

  s.reset();
  EXPECT_TRUE(s.empty());
}

TEST(IfSetTest, WordIterationVisitsBitsInAscendingOrder) {
  IfSet s;
  std::vector<Mifi> expect = {3, 64, 65, 200, 255};
  for (Mifi m : expect) s.set(m);

  std::vector<Mifi> seen;
  for (std::size_t w = 0; w < IfSet::kWords; ++w) {
    std::uint64_t bits = s.word(w);
    while (bits != 0) {
      int b = std::countr_zero(bits);
      bits &= bits - 1;
      seen.push_back(static_cast<Mifi>(w * 64 + static_cast<std::size_t>(b)));
    }
  }
  EXPECT_EQ(seen, expect);
}

TEST(MifTableTest, AssignsSortedDenseIndices) {
  MifTable t;
  EXPECT_EQ(t.lookup(7), kNoMif);

  // Out-of-order registration still yields ascending-IfaceId numbering.
  EXPECT_EQ(t.add(7), 0u);
  EXPECT_EQ(t.add(3), 0u);  // inserted before 7: renumbers it
  EXPECT_EQ(t.add(5), 1u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.lookup(3), 0u);
  EXPECT_EQ(t.lookup(5), 1u);
  EXPECT_EQ(t.lookup(7), 2u);
  EXPECT_EQ(t.iface(0), 3u);
  EXPECT_EQ(t.iface(1), 5u);
  EXPECT_EQ(t.iface(2), 7u);
}

TEST(MifTableTest, AddIsIdempotent) {
  MifTable t;
  t.add(4);
  EXPECT_EQ(t.add(4), t.lookup(4));
  EXPECT_EQ(t.size(), 1u);  // re-registering changes nothing
}

TEST(MifTableTest, WidthOverflowFailsFast) {
  MifTable t(2);
  t.add(10);
  t.add(20);
  EXPECT_THROW(t.add(30), LogicError);
  // The table is untouched by the failed add.
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(30), kNoMif);
}

FlowKey key(std::uint64_t a, std::uint64_t b = 0) {
  return FlowKey{{a, b, a ^ 0x5a5a, b + 1}};
}

TEST(FlowCacheTest, InsertFindRoundTrip) {
  FlowCache c;
  EXPECT_EQ(c.find(key(1)), nullptr);

  MfcEntry& e = c.insert(key(1));
  e.iif = 9;
  e.oifs.set(3);
  e.oifs.set(11);

  MfcEntry* got = c.find(key(1));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->iif, 9u);
  EXPECT_TRUE(got->oifs.test(3));
  EXPECT_TRUE(got->oifs.test(11));
  EXPECT_EQ(c.find(key(2)), nullptr);
}

TEST(FlowCacheTest, TargetedInvalidateHidesOneEntry) {
  FlowCache c;
  c.insert(key(1));
  c.insert(key(2));
  c.invalidate(key(1));
  EXPECT_EQ(c.find(key(1)), nullptr);
  EXPECT_NE(c.find(key(2)), nullptr);
  // Invalidating an absent key is a no-op, not an insertion.
  std::size_t sz = c.size();
  c.invalidate(key(99));
  EXPECT_EQ(c.size(), sz);

  // Re-insert resurrects the same slot as fresh.
  c.insert(key(1)).iif = 42;
  ASSERT_NE(c.find(key(1)), nullptr);
  EXPECT_EQ(c.find(key(1))->iif, 42u);
}

TEST(FlowCacheTest, InvalidateAllHidesEverything) {
  FlowCache c;
  c.insert(key(1));
  c.insert(key(2));
  c.invalidate_all();
  EXPECT_EQ(c.find(key(1)), nullptr);
  EXPECT_EQ(c.find(key(2)), nullptr);
  // Slots survive (epoch invalidation, not erasure) …
  EXPECT_EQ(c.size(), 2u);
  // … and refresh on the next insert.
  c.insert(key(2));
  EXPECT_NE(c.find(key(2)), nullptr);
  EXPECT_EQ(c.find(key(1)), nullptr);
}

TEST(FlowCacheTest, ClearDropsSlots) {
  FlowCache c;
  c.insert(key(1));
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.find(key(1)), nullptr);
}

TEST(FlowCacheTest, GrowthPreservesFreshAndStaleStates) {
  FlowCache c(4);
  // Enough keys to force several growth rounds through the 70% load
  // factor, with every third entry invalidated along the way.
  for (std::uint64_t i = 0; i < 200; ++i) {
    c.insert(key(i)).iif = static_cast<IfaceId>(i);
    if (i % 3 == 0) c.invalidate(key(i));
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    MfcEntry* e = c.find(key(i));
    if (i % 3 == 0) {
      EXPECT_EQ(e, nullptr) << i;
    } else {
      ASSERT_NE(e, nullptr) << i;
      EXPECT_EQ(e->iif, static_cast<IfaceId>(i));
    }
  }
}

TEST(FlowCacheTest, StaleEntriesAreNeverReturned) {
  FlowCache c;
  for (int round = 0; round < 5; ++round) {
    c.insert(key(7)).iif = static_cast<IfaceId>(round);
    ASSERT_NE(c.find(key(7)), nullptr);
    c.invalidate_all();
    EXPECT_EQ(c.find(key(7)), nullptr);
  }
}

}  // namespace
}  // namespace mip6

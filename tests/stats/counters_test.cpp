#include "stats/counters.hpp"

#include <gtest/gtest.h>

namespace mip6 {
namespace {

TEST(CounterRegistry, AddAndGet) {
  CounterRegistry c;
  EXPECT_EQ(c.get("x"), 0u);
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
}

TEST(CounterRegistry, PrefixSum) {
  CounterRegistry c;
  c.add("pimdm/tx/hello", 3);
  c.add("pimdm/tx/prune", 2);
  c.add("pimdm/rx/hello", 10);
  c.add("mld/tx/report", 7);
  EXPECT_EQ(c.sum_prefix("pimdm/tx/"), 5u);
  EXPECT_EQ(c.sum_prefix("pimdm/"), 15u);
  EXPECT_EQ(c.sum_prefix(""), 22u);
  EXPECT_EQ(c.sum_prefix("nothing"), 0u);
}

TEST(CounterRegistry, PrefixSumDoesNotOvermatch) {
  CounterRegistry c;
  c.add("ab", 1);
  c.add("abc", 2);
  c.add("abd", 4);
  c.add("ac", 8);
  EXPECT_EQ(c.sum_prefix("ab"), 7u);  // ab, abc, abd — not ac
}

TEST(CounterRegistry, PrefixSumRangeEndIsExact) {
  // Regression for the naive upper-bound bug: the scan must stop at the
  // first key that no longer starts with the prefix, not at prefix+1 in
  // byte order (which would skip keys like "ab/x" sorting after "ab\xff").
  CounterRegistry c;
  c.add("aa", 1);
  c.add("ab", 2);
  c.add("ab/x", 4);
  c.add("ab0", 8);
  c.add("ab\xff!", 16);
  c.add("ac", 32);
  c.add("b", 64);
  EXPECT_EQ(c.sum_prefix("ab"), 2u + 4u + 8u + 16u);
  EXPECT_EQ(c.sum_prefix("ab/"), 4u);
  EXPECT_EQ(c.sum_prefix("a"), 63u);
  EXPECT_EQ(c.sum_prefix("b"), 64u);
  EXPECT_EQ(c.sum_prefix("\xff"), 0u);
}

TEST(CounterRegistry, SnapshotOrderedByName) {
  CounterRegistry c;
  c.add("b", 2);
  c.add("a", 1);
  auto snap = c.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "b");
}

TEST(CounterRegistry, ResetClears) {
  CounterRegistry c;
  c.add("x", 3);
  c.reset();
  EXPECT_EQ(c.get("x"), 0u);
  EXPECT_TRUE(c.snapshot().empty());
}

TEST(CounterRegistry, ZeroValuedCellsStayOutOfSnapshot) {
  CounterRegistry c;
  CounterCell hot = c.cell("hot/path");
  hot.add(0);
  EXPECT_TRUE(c.snapshot().empty());
  EXPECT_EQ(c.get("hot/path"), 0u);
  EXPECT_EQ(c.sum_prefix("hot/"), 0u);
  hot.add(2);
  ASSERT_EQ(c.snapshot().size(), 1u);
  EXPECT_EQ(c.snapshot()[0].second, 2u);
  EXPECT_EQ(hot.value(), 2u);
}

}  // namespace
}  // namespace mip6

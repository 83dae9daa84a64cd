#include "net/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "net/packet.hpp"

namespace mip6 {
namespace {

TEST(BufferPool, ReusesSlotOnceAllReferencesDrop) {
  BufferPool pool;
  auto a = pool.checkout();
  a->assign({1, 2, 3, 4});
  const Bytes* storage = a.get();
  EXPECT_EQ(pool.fresh(), 1u);

  // Still referenced: checkout must NOT hand the same buffer out again.
  auto b = pool.checkout();
  EXPECT_NE(b.get(), storage);
  EXPECT_EQ(pool.fresh(), 2u);

  a.reset();
  b.reset();
  auto c = pool.checkout();
  EXPECT_TRUE(c->empty());  // recycled buffers come back cleared
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_EQ(pool.slots(), 2u);
}

TEST(BufferPool, RecycledBufferKeepsCapacity) {
  BufferPool pool;
  {
    auto a = pool.checkout();
    a->assign(512, 0xab);
  }
  auto b = pool.checkout();
  EXPECT_EQ(pool.reused(), 1u);
  EXPECT_TRUE(b->empty());
  EXPECT_GE(b->capacity(), 512u);  // clear() keeps the allocation
}

TEST(BufferPool, LiveBufferIsNeverMutatedByLaterCheckouts) {
  BufferPool pool;
  auto held = pool.checkout_copy(Bytes{9, 9, 9});
  for (int i = 0; i < 100; ++i) {
    auto tmp = pool.checkout_copy(Bytes{1, 2});
  }
  EXPECT_EQ(*held, (Bytes{9, 9, 9}));
}

TEST(BufferPool, GrowsToEveryBufferInFlight) {
  BufferPool pool;
  std::vector<std::shared_ptr<Bytes>> live;
  for (std::size_t i = 0; i < 1000; ++i) live.push_back(pool.checkout());
  EXPECT_EQ(pool.slots(), 1000u);
  EXPECT_EQ(pool.fresh(), 1000u);
  std::vector<const Bytes*> distinct;
  for (const auto& b : live) distinct.push_back(b.get());
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::adjacent_find(distinct.begin(), distinct.end()),
            distinct.end());
}

TEST(BufferPool, SettlesAtThePeakInFlightWithinTheProbeBudget) {
  // At most 64 buffers in flight, released oldest first, as packets leave
  // the world in about the order they entered it.
  constexpr std::size_t kInFlight = 64;
  constexpr std::size_t kCheckouts = 100'000;
  BufferPool pool;
  std::deque<std::shared_ptr<Bytes>> fifo;
  for (std::size_t i = 0; i < kCheckouts; ++i) {
    if (fifo.size() == kInFlight) fifo.pop_front();
    fifo.push_back(pool.checkout_copy(Bytes(128, 0x5a)));
  }
  EXPECT_LE(pool.slots(), kInFlight + BufferPool::kProbeBudget);
  EXPECT_LE(pool.probes(), 2 * kCheckouts);
  EXPECT_EQ(pool.reused() + pool.fresh(), kCheckouts);
}

TEST(BufferPool, PacketSharingIsReferenceNotCopy) {
  Packet pkt(Bytes{1, 2, 3});
  Packet copy = pkt;
  EXPECT_EQ(&pkt.data(), &copy.data());  // same underlying octets

  // Replacing one copy's buffer must not disturb the other.
  copy.set_buffer(std::make_shared<const Bytes>(Bytes{4, 5}));
  EXPECT_EQ(pkt.data(), (Bytes{1, 2, 3}));
  EXPECT_EQ(copy.data(), (Bytes{4, 5}));
}

}  // namespace
}  // namespace mip6

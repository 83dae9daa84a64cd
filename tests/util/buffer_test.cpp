#include "util/buffer.hpp"

#include <gtest/gtest.h>

#include "util/parse_result.hpp"

namespace mip6 {
namespace {

TEST(BufferWriter, IntegersAreBigEndian) {
  BufferWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  EXPECT_EQ(to_hex(w.bytes()), "0102030405060708090a0b0c0d0e0f");
}

TEST(BufferWriter, RawAppendsVerbatim) {
  BufferWriter w;
  Bytes data{0xde, 0xad, 0xbe, 0xef};
  w.raw(data);
  EXPECT_EQ(w.bytes(), data);
}

TEST(BufferWriter, ZerosAppendsPadding) {
  BufferWriter w;
  w.u8(0xff);
  w.zeros(3);
  EXPECT_EQ(to_hex(w.bytes()), "ff000000");
}

TEST(BufferWriter, PatchU16OverwritesInPlace) {
  BufferWriter w;
  w.u32(0);
  w.patch_u16(1, 0xabcd);
  EXPECT_EQ(to_hex(w.bytes()), "00abcd00");
}

TEST(BufferWriter, PatchOutOfRangeThrows) {
  BufferWriter w;
  w.u16(0);
  EXPECT_THROW(w.patch_u16(1, 1), LogicError);
  EXPECT_THROW(w.patch_u16(2, 1), LogicError);
}

TEST(BufferWriter, TakeMovesBufferOut) {
  BufferWriter w;
  w.u16(0x1234);
  Bytes b = std::move(w).take();
  EXPECT_EQ(to_hex(b), "1234");
}

TEST(WireCursor, ReadsBackWhatWriterWrote) {
  BufferWriter w;
  w.u8(7);
  w.u16(500);
  w.u32(70000);
  w.u64(1ULL << 40);
  w.raw(Bytes{0xaa, 0xbb, 0xcc});
  w.raw(Bytes{0xdd, 0xee});
  Bytes data = std::move(w).take();
  WireCursor c(data);
  EXPECT_EQ(c.u8(), 7);
  EXPECT_EQ(c.u16(), 500);
  EXPECT_EQ(c.u32(), 70000u);
  EXPECT_EQ(c.u64(), 1ULL << 40);
  BytesView view = c.view(3);
  EXPECT_EQ(to_hex(view), "aabbcc");
  // The view aliases the input; raw copies it out.
  EXPECT_EQ(view.data(), data.data() + 15);
  EXPECT_EQ(c.raw(2), (Bytes{0xdd, 0xee}));
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.failed());
}

TEST(WireCursor, UnderrunLatchesFailureAndClampsToEnd) {
  Bytes data{1, 2, 3};
  WireCursor c(data);
  EXPECT_EQ(c.u8(), 1);
  EXPECT_EQ(c.u32(), 0u);
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(c.position(), data.size());
  EXPECT_EQ(c.remaining(), 0u);
  // Every later read yields zero or an empty view, and the flag stays set.
  EXPECT_EQ(c.u8(), 0);
  EXPECT_EQ(c.u16(), 0);
  EXPECT_EQ(c.u32(), 0u);
  EXPECT_EQ(c.u64(), 0u);
  EXPECT_TRUE(c.view(0).empty());
  EXPECT_TRUE(c.view(1).empty());
  EXPECT_TRUE(c.raw(1).empty());
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(c.position(), data.size());
}

TEST(WireCursor, SkipPastEndFails) {
  Bytes data{1, 2, 3};
  WireCursor c(data);
  c.skip(2);
  EXPECT_FALSE(c.failed());
  EXPECT_EQ(c.u8(), 3);
  c.skip(1);
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(c.position(), data.size());
}

TEST(WireCursor, RemainingAndEmptyReportWhatIsLeft) {
  Bytes data{1, 2, 3, 4, 5};
  WireCursor c(data);
  EXPECT_EQ(c.remaining(), 5u);
  EXPECT_FALSE(c.empty());
  c.u16();
  EXPECT_EQ(c.remaining(), 3u);
  EXPECT_EQ(c.position(), 2u);
  c.view(3);
  EXPECT_EQ(c.remaining(), 0u);
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.failed());
  WireCursor none{BytesView{}};
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(none.failed());
}

TEST(ToHex, EmptyAndValues) {
  EXPECT_EQ(to_hex({}), "");
  Bytes data{0x00, 0x0f, 0xf0, 0xff};
  EXPECT_EQ(to_hex(data), "000ff0ff");
}

}  // namespace
}  // namespace mip6

#include "util/buffer.hpp"

namespace mip6 {

void BufferWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void BufferWriter::raw(BytesView bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BufferWriter::zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

void BufferWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) {
    throw LogicError("BufferWriter::patch_u16 out of range");
  }
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

std::string to_hex(BytesView bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

}  // namespace mip6

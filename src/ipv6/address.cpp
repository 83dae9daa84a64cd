#include "ipv6/address.hpp"

#include <algorithm>
#include <cstdio>

#include "util/strings.hpp"

namespace mip6 {
namespace {

bool parse_group(const std::string& s, std::uint16_t& out) {
  if (s.empty() || s.size() > 4) return false;
  std::uint32_t v = 0;
  for (char c : s) {
    std::uint32_t d;
    if (c >= '0' && c <= '9') d = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') d = static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') d = static_cast<std::uint32_t>(c - 'A' + 10);
    else return false;
    v = (v << 4) | d;
  }
  out = static_cast<std::uint16_t>(v);
  return true;
}

}  // namespace

Address Address::parse(const std::string& text) {
  // Split on "::" (at most one occurrence).
  std::size_t dc = text.find("::");
  if (dc != std::string::npos && text.find("::", dc + 1) != std::string::npos) {
    throw ParseError("IPv6 address with multiple '::': " + text);
  }
  auto parse_groups = [&](const std::string& part,
                          std::vector<std::uint16_t>& out) {
    if (part.empty()) return;
    for (const auto& g : split(part, ':')) {
      std::uint16_t v;
      if (!parse_group(g, v)) {
        throw ParseError("bad IPv6 group '" + g + "' in: " + text);
      }
      out.push_back(v);
    }
  };
  std::vector<std::uint16_t> head, tail;
  if (dc == std::string::npos) {
    parse_groups(text, head);
    if (head.size() != 8) {
      throw ParseError("IPv6 address needs 8 groups: " + text);
    }
  } else {
    parse_groups(text.substr(0, dc), head);
    parse_groups(text.substr(dc + 2), tail);
    if (head.size() + tail.size() > 7) {
      throw ParseError("IPv6 '::' must compress at least one group: " + text);
    }
  }
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head.size(); ++i) groups[i] = head[i];
  for (std::size_t i = 0; i < tail.size(); ++i) {
    groups[8 - tail.size() + i] = tail[i];
  }
  Address a;
  for (std::size_t i = 0; i < 8; ++i) {
    a.b_[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    a.b_[2 * i + 1] = static_cast<std::uint8_t>(groups[i]);
  }
  return a;
}

Address Address::from_bytes(BytesView bytes) {
  if (bytes.size() != kBytes) {
    throw ParseError("IPv6 address needs 16 octets, got " +
                     std::to_string(bytes.size()));
  }
  Address a;
  for (std::size_t i = 0; i < kBytes; ++i) a.b_[i] = bytes[i];
  return a;
}

void Address::write(BufferWriter& w) const { w.raw(BytesView(b_)); }

Address Address::read(WireCursor& c) {
  BytesView v = c.view(kBytes);
  if (v.size() != kBytes) return Address();  // cursor now failed()
  Address a;
  std::copy(v.begin(), v.end(), a.b_.begin());
  return a;
}

std::string Address::str() const {
  std::array<std::uint16_t, 8> g;
  for (std::size_t i = 0; i < 8; ++i) {
    g[i] = static_cast<std::uint16_t>((b_[2 * i] << 8) | b_[2 * i + 1]);
  }
  // Longest run of zero groups (length >= 2) gets "::".
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (g[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && g[j] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  char buf[8];
  int i = 0;
  while (i < 8) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof buf, "%x", g[i]);
    out += buf;
    ++i;
  }
  if (out.empty()) out = "::";
  return out;
}

Prefix::Prefix(const Address& addr, std::uint8_t len) : len_(len) {
  if (len > 128) throw ParseError("prefix length > 128");
  // Zero host bits for canonical comparison.
  const auto keep = [](std::uint64_t w, int bits) {
    return bits <= 0 ? 0 : bits >= 64 ? w : w & (~0ULL << (64 - bits));
  };
  net_ = Address::from_halves(keep(addr.high64(), len),
                              keep(addr.low64(), len - 64));
}

Prefix Prefix::parse(const std::string& text) {
  std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    throw ParseError("prefix needs '/len': " + text);
  }
  int len = 0;
  const std::string len_str = text.substr(slash + 1);
  if (len_str.empty() || len_str.size() > 3) {
    throw ParseError("bad prefix length: " + text);
  }
  for (char c : len_str) {
    if (c < '0' || c > '9') throw ParseError("bad prefix length: " + text);
    len = len * 10 + (c - '0');
  }
  if (len > 128) throw ParseError("prefix length > 128: " + text);
  return Prefix(Address::parse(text.substr(0, slash)),
                static_cast<std::uint8_t>(len));
}

std::string Prefix::str() const {
  return net_.str() + "/" + std::to_string(len_);
}

}  // namespace mip6

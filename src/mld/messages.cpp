#include "mld/messages.hpp"

namespace mip6 {

Icmpv6Message MldMessage::to_icmpv6() const {
  BufferWriter w(20);
  w.u16(max_response_delay_ms);
  w.u16(0);  // reserved
  group.write(w);
  Icmpv6Message m;
  m.type = static_cast<std::uint8_t>(type);
  m.code = 0;
  m.body = std::move(w).take();
  return m;
}

ParseResult<MldMessage> MldMessage::try_from_icmpv6(const Icmpv6Message& msg) {
  if (msg.type != icmpv6::kMldQuery && msg.type != icmpv6::kMldReport &&
      msg.type != icmpv6::kMldDone) {
    return ParseFailure{ParseReason::kBadType, "not an MLD message type"};
  }
  WireCursor c(msg.body);
  MldMessage m;
  m.type = static_cast<MldType>(msg.type);
  m.max_response_delay_ms = c.u16();
  c.skip(2);  // reserved
  m.group = Address::read(c);
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "MLD message body"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after MLD message"};
  }
  if (m.type != MldType::kQuery && m.group.is_unspecified()) {
    return ParseFailure{ParseReason::kSemantic,
                        "MLD report/done without group address"};
  }
  if (!m.group.is_unspecified() && !m.group.is_multicast()) {
    return ParseFailure{ParseReason::kSemantic,
                        "MLD group address is not multicast"};
  }
  return m;
}

}  // namespace mip6

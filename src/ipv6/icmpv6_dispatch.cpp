#include "ipv6/icmpv6_dispatch.hpp"

#include "net/wire_stats.hpp"

namespace mip6 {

Icmpv6Dispatcher::Icmpv6Dispatcher(Ipv6Stack& stack) : stack_(&stack) {
  stack.set_proto_handler(
      proto::kIcmpv6,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_icmpv6(d, iface);
      });
}

std::size_t Icmpv6Dispatcher::subscribe(std::uint8_t type, Handler h) {
  auto& slot = handlers_[type];
  slot.push_back(std::move(h));
  return slot.size() - 1;
}

void Icmpv6Dispatcher::unsubscribe(std::uint8_t type, std::size_t token) {
  auto it = handlers_.find(type);
  if (it == handlers_.end() || token >= it->second.size()) return;
  it->second[token] = nullptr;
}

void Icmpv6Dispatcher::stop() {
  handlers_.clear();
  stack_->clear_proto_handler(proto::kIcmpv6);
}

void Icmpv6Dispatcher::on_icmpv6(const ParsedDatagram& d, IfaceId iface) {
  ParseResult<Icmpv6Message> parsed =
      Icmpv6Message::try_parse(d.payload, d.hdr.src, d.hdr.dst);
  if (!parsed.ok()) {
    stack_->network().counters().add("icmpv6/rx-drop/parse-error");
    note_parse_reject(stack_->network(), "icmpv6", parsed.failure());
    return;
  }
  Icmpv6Message msg = std::move(parsed).value();
  auto it = handlers_.find(msg.type);
  if (it == handlers_.end()) {
    stack_->network().counters().add("icmpv6/rx-drop/unhandled-type");
    return;
  }
  // Subscribers decode the body through the no-throw try_* API, so one
  // that rejects it drops only its own element and its siblings still run.
  for (const auto& h : it->second) {
    if (h) h(msg, d, iface);
  }
}

}  // namespace mip6

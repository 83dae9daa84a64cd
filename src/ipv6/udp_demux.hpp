// Fan-out of received UDP datagrams by destination port. Owns the stack's
// UDP protocol handler; RIPng, the home-agent sync protocol and any future
// UDP consumer on the same node subscribe per port.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "ipv6/stack.hpp"
#include "ipv6/udp.hpp"
#include "net/protocol_module.hpp"

namespace mip6 {

class UdpDemux : public ProtocolModule {
 public:
  using Handler =
      std::function<void(const UdpDatagram&, const ParsedDatagram&, IfaceId)>;

  explicit UdpDemux(Ipv6Stack& stack);

  const char* module_kind() const override { return "udp"; }
  /// Drops every binding and releases the stack's UDP protocol handler.
  void stop() override;

  void bind(std::uint16_t port, Handler h);
  void unbind(std::uint16_t port);

 private:
  void on_udp(const ParsedDatagram& d, IfaceId iface);

  Ipv6Stack* stack_;
  std::map<std::uint16_t, Handler> handlers_;
  /// Drop counters, resolved once: routers are multicast-promiscuous, so
  /// every transit data datagram reaches this demux and finds no listener.
  CounterCell c_parse_error_;
  CounterCell c_no_listener_;
};

}  // namespace mip6

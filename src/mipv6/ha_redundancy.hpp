// Home agent redundancy (the paper's cited further work: "home agent
// redundancy and load balancing", Heissenhuber/Riedl/Fritsche 1999).
//
// Home agents on the same home link replicate binding state to each other
// (binding-replica messages on a link-scope group) and exchange heartbeats.
// When a peer falls silent, a backup *assumes the peer's addresses*
// (VRRP-style) and adopts its replicated bindings: Binding Updates and
// tunneled traffic addressed to the dead agent are now answered by the
// backup, multicast group representation is re-established through the
// backup's own dense-mode engine, and the mobile nodes never notice
// beyond a short outage bounded by heartbeat_interval * failure_threshold.
#pragma once

#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "ipv6/udp_demux.hpp"
#include "mipv6/home_agent.hpp"
#include "sim/timer.hpp"

namespace mip6 {

struct HaRedundancyConfig {
  Time heartbeat_interval = Time::sec(2);
  /// Peer declared dead after this many missed heartbeats.
  int failure_threshold = 3;
  std::uint16_t port = 4001;
};

/// Link-scope group for heartbeats and binding replicas.
Address ha_sync_group();

class HaRedundancy {
 public:
  /// `identity`: this agent's address on the home link (also the heartbeat
  /// identity); `home_iface`: the interface on the shared home link.
  HaRedundancy(Ipv6Stack& stack, HomeAgent& ha, UdpDemux& udp,
               IfaceId home_iface, Address identity,
               HaRedundancyConfig config = {});

  /// Registers a peer home agent: its identity plus every address the
  /// backup must assume on takeover (home link + any shared transit links,
  /// so routed traffic toward the dead agent still resolves).
  void add_peer(const Address& identity,
                std::vector<Address> addresses_to_assume);

  std::size_t replica_count() const { return replicas_.size(); }
  bool has_taken_over(const Address& peer_identity) const;
  std::uint64_t takeovers() const { return takeovers_; }

 private:
  struct Replica {
    Address primary;
    Address home;
    Address care_of;
    std::uint16_t sequence = 0;
    std::uint32_t lifetime_s = 0;
    std::vector<Address> groups;
  };
  struct Peer {
    Address identity;
    std::vector<Address> addresses;
    bool taken_over = false;
    std::unique_ptr<Timer> liveness;
  };

  void on_message(const UdpDatagram& udp, const ParsedDatagram& d,
                  IfaceId iface);
  void on_heartbeat(const Address& identity);
  void on_replica(Replica replica);
  void on_delete(const Address& primary, const Address& home);
  void send_heartbeat();
  void send_replica(const BindingCache::Entry& entry, bool deleted);
  void take_over(Peer& peer);
  void fail_back(Peer& peer);
  void transmit(Bytes payload);
  void count(std::string_view name);

  Ipv6Stack* stack_;
  HomeAgent* ha_;
  IfaceId home_iface_;
  Address identity_;
  HaRedundancyConfig config_;
  Timer heartbeat_timer_;
  std::map<Address, std::unique_ptr<Peer>> peers_;
  // (primary, home) -> replica
  std::map<std::pair<Address, Address>, Replica> replicas_;
  std::uint64_t takeovers_ = 0;
};

}  // namespace mip6

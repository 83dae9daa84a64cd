// Application-level traffic: a constant-bit-rate multicast source whose
// payload carries a sequence number and send timestamp, and a receiver app
// that logs deliveries (with duplicate suppression) so scenarios can compute
// join delay, loss, latency and duplication.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ipv6/stack.hpp"
#include "ipv6/udp.hpp"
#include "sim/timer.hpp"

namespace mip6 {

/// CBR payload: sequence number + send timestamp, zero-padded to the
/// requested size.
struct CbrPayload {
  std::uint32_t seq = 0;
  Time sent_at;

  Bytes encode(std::size_t total_size) const;
  /// No-throw decode; a payload shorter than kMinSize is truncated.
  static ParseResult<CbrPayload> try_decode(BytesView payload);
  static constexpr std::size_t kMinSize = 12;
};

class CbrSource {
 public:
  /// `send` transmits one UDP payload toward the group — the strategy layer
  /// provides it (native send vs reverse tunnel vs plain host send).
  using SendFn = std::function<void(Bytes payload)>;

  /// `domain` binds the tick timer to a node's scheduler domain so the
  /// source runs on that node's shard under parallel execution; without it
  /// the timer inherits the construction context (the world domain when
  /// built outside a DomainScope, which serializes every tick).
  CbrSource(Scheduler& sched, SendFn send, Time interval,
            std::size_t payload_size,
            std::optional<Domain> domain = std::nullopt);

  void start(Time at);
  void stop();
  std::uint32_t sent() const { return next_seq_; }
  Time interval() const { return interval_; }

 private:
  void tick();

  Scheduler* sched_;
  SendFn send_;
  Time interval_;
  std::size_t payload_size_;
  std::uint32_t next_seq_ = 0;
  Timer timer_;
};

class GroupReceiverApp {
 public:
  struct Rx {
    std::uint32_t seq;
    Time sent_at;
    Time received_at;
  };

  /// Registers as the node's UDP consumer for `port`.
  GroupReceiverApp(Ipv6Stack& stack, std::uint16_t port);

  std::uint64_t unique_received() const { return log_.size(); }
  std::uint64_t duplicates() const { return duplicates_; }
  const std::vector<Rx>& log() const { return log_; }

  /// Receive time of the first datagram delivered at/after `t` — the
  /// numerator of every join-delay measurement.
  std::optional<Time> first_rx_at_or_after(Time t) const;
  std::optional<Time> last_rx() const;
  /// Number of unique datagrams received in [from, to).
  std::uint64_t received_in(Time from, Time to) const;

 private:
  void on_udp(const ParsedDatagram& d, IfaceId iface);

  Scheduler* sched_;
  std::uint16_t port_;
  std::vector<Rx> log_;
  /// Sequence numbers received so far, sorted. Datagrams arrive mostly in
  /// order, so an insert is mostly an append, and the filter frees in one
  /// call instead of one node per datagram.
  std::vector<std::uint32_t> seen_;
  std::uint64_t duplicates_ = 0;
};

}  // namespace mip6

// The simulation world: owns the scheduler, rng, trace, counters, all nodes
// and all links. One Network per replication; replications run in parallel
// on separate Network instances with derived seeds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/buffer_pool.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "stats/counters.hpp"

namespace mip6 {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Scheduler& scheduler() { return sched_; }
  /// The calling context's random stream: node domains draw from their own
  /// xoshiro substream (derived from the world seed by domain id), the
  /// world/structural context from the legacy stream. Per-domain streams
  /// are what keep draws identical across thread counts — a domain's draw
  /// sequence depends only on its own event sequence, never on how other
  /// domains' events interleave with it.
  Rng& rng() {
    const Domain d = sched_.current_domain();
    return d == kWorldDomain ? rng_ : rng_streams_[d - 1];
  }
  Trace& trace() { return trace_; }
  CounterRegistry& counters() { return counters_; }
  /// The calling shard's buffer pool. The controller/structural context
  /// shares shard 0's pool — they run on the same thread.
  BufferPool& buffer_pool() {
    const int s = Scheduler::current_shard_slot();
    return s <= 0 ? buffer_pool_ : *extra_pools_[static_cast<std::size_t>(s) -
                                                 1];
  }
  Time now() const { return sched_.now(); }

  /// Partitions execution into per-thread shards (see Scheduler): installs
  /// per-shard counter overlays, trace buffers and buffer pools, the
  /// barrier merge hook, and hands the domain->shard map to the scheduler.
  /// `domain_shard` is indexed by domain; `lookahead` is the minimum link
  /// propagation delay. shards <= 1 restores serial execution.
  void enable_sharding(std::vector<std::uint32_t> domain_shard,
                       std::uint32_t shards, Time lookahead);
  void disable_sharding();

  Node& add_node(const std::string& name);
  Link& add_link(const std::string& name, Time delay = Time::us(10),
                 std::uint64_t bit_rate_bps = 0);

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  Node& node(NodeId id) const { return *nodes_.at(id); }
  Link& link(LinkId id) const { return *links_.at(id); }
  Node& node_by_name(const std::string& name) const;
  Link& link_by_name(const std::string& name) const;

  /// Observation hook invoked for every link transmission (after the link's
  /// own byte accounting). Core metrics classify traffic here. An observer
  /// that dies before the Network removes its hook with the returned id:
  /// world teardown still transmits (strategy deactivation).
  using TxHook = std::function<void(const Link&, const Interface& from,
                                    const Packet&)>;
  using TxHookId = std::size_t;
  TxHookId add_tx_hook(TxHook hook) {
    tx_hooks_.push_back(std::move(hook));
    return tx_hooks_.size() - 1;
  }
  void remove_tx_hook(TxHookId id) { tx_hooks_.at(id) = nullptr; }
  void notify_tx(const Link& link, const Interface& from, const Packet& pkt) {
    for (auto& h : tx_hooks_) {
      if (h) h(link, from, pkt);
    }
  }

  IfaceId next_iface_id() { return next_iface_id_++; }

 private:
  Scheduler sched_;
  std::uint64_t seed_;
  Rng rng_;
  /// One independent stream per node domain (index d-1), created with the
  /// node so the mapping never depends on execution order.
  std::vector<Rng> rng_streams_;
  Trace trace_;
  CounterRegistry counters_;
  BufferPool buffer_pool_;
  std::vector<std::unique_ptr<BufferPool>> extra_pools_;  // shards 1..S-1
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<TxHook> tx_hooks_;
  IfaceId next_iface_id_ = 0;
};

}  // namespace mip6

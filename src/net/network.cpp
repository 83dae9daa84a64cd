#include "net/network.hpp"

#include "util/errors.hpp"

namespace mip6 {

Network::Network(std::uint64_t seed) : seed_(seed), rng_(seed) {}

Node& Network::add_node(const std::string& name) {
  nodes_.push_back(std::make_unique<Node>(
      *this, static_cast<NodeId>(nodes_.size()), name));
  // One scheduler domain per node, in lockstep with node ids (id + 1).
  const Domain d = sched_.add_domain();
  if (d != nodes_.back()->domain()) {
    throw LogicError("node/domain id mismatch");
  }
  rng_streams_.emplace_back(Rng::derive_seed(seed_, d));
  return *nodes_.back();
}

Link& Network::add_link(const std::string& name, Time delay,
                        std::uint64_t bit_rate_bps) {
  links_.push_back(std::make_unique<Link>(
      *this, static_cast<LinkId>(links_.size()), name, delay, bit_rate_bps));
  return *links_.back();
}

Node& Network::node_by_name(const std::string& name) const {
  for (const auto& n : nodes_) {
    if (n->name() == name) return *n;
  }
  throw LogicError("no node named " + name);
}

Link& Network::link_by_name(const std::string& name) const {
  for (const auto& l : links_) {
    if (l->name() == name) return *l;
  }
  throw LogicError("no link named " + name);
}

void Network::enable_sharding(std::vector<std::uint32_t> domain_shard,
                              std::uint32_t shards, Time lookahead) {
  if (shards <= 1) {
    disable_sharding();
    return;
  }
  counters_.enable_shards(shards);
  trace_.enable_shards(shards);
  buffer_pool_.set_parallel(true);
  extra_pools_.clear();
  for (std::uint32_t s = 1; s < shards; ++s) {
    extra_pools_.push_back(std::make_unique<BufferPool>());
    extra_pools_.back()->set_parallel(true);
  }
  // Counters are not folded here: every reader folds first.
  sched_.set_barrier_hook([this] {
    trace_.merge_shards();
    buffer_pool_.mark_safe();
    for (auto& p : extra_pools_) p->mark_safe();
  });
  sched_.configure_shards(std::move(domain_shard), shards, lookahead);
}

void Network::disable_sharding() {
  sched_.configure_serial();
  sched_.set_barrier_hook(nullptr);
  trace_.disable_shards();
  counters_.disable_shards();
  buffer_pool_.set_parallel(false);
  extra_pools_.clear();
}

}  // namespace mip6

#include "pimdm/dense_engine.hpp"

namespace mip6 {

DenseModeEngine::DenseModeEngine(Ipv6Stack& stack, MldRouter& mld,
                                 std::string_view kind, CoreConfig config)
    : stack_(&stack), mld_(&mld),
      data_plane_(stack, *this, kind, config.data_timeout), kind_(kind),
      core_(config), component_(kind_ + "/" + stack.node().name()),
      counter_name_(kind_ + "/"),
      c_wrong_iface_(
          stack.network().counters().cell(kind_ + "/rx-wrong-iface")) {
  mld.set_group_callback(
      [this](IfaceId iface, const Address& group, bool present) {
        on_mld_change(iface, group, present);
      });
}

void DenseModeEngine::start() {
  for (const auto& ifp : stack_->node().interfaces()) {
    if (ifp->attached() && configured_.contains(ifp->id())) {
      enable_iface(ifp->id());
    }
  }
}

void DenseModeEngine::reset() {
  // unique_ptr destruction cancels every timer the entries, interfaces and
  // neighbors own.
  data_plane_.clear();  // entry timers are about to dangle
  entries_.clear();
  ifaces_.clear();
  local_receivers_.clear();
  count_own("shutdown");
}

void DenseModeEngine::stop() {
  reset();
  stack_->clear_mcast_forwarder();
  stack_->clear_proto_handler(proto::kPim);
  mld_->set_group_callback(nullptr);
}

void DenseModeEngine::enable_iface(IfaceId iface) {
  configured_.insert(iface);
  data_plane_.add_iface(iface);  // fail-fast on width overflow
  auto [it, fresh] = ifaces_.try_emplace(iface);
  if (!fresh) return;
  it->second.hello_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface] {
        send_hello(iface);
        ifaces_.at(iface).hello_timer->arm(core_.hello_period);
      }, stack_->node().domain());
  // First hello immediately (triggered hello on interface up).
  it->second.hello_timer->arm(Time::zero());
}

std::vector<IfaceId> DenseModeEngine::enabled_ifaces() const {
  std::vector<IfaceId> out;
  for (const auto& [iface, st] : ifaces_) out.push_back(iface);
  return out;
}

std::vector<Address> DenseModeEngine::neighbors(IfaceId iface) const {
  std::vector<Address> out;
  auto it = ifaces_.find(iface);
  if (it != ifaces_.end()) {
    for (const auto& [addr, nbr] : it->second.neighbors) out.push_back(addr);
  }
  return out;
}

bool DenseModeEngine::has_neighbors(IfaceId iface) const {
  auto it = ifaces_.find(iface);
  return it != ifaces_.end() && !it->second.neighbors.empty();
}

void DenseModeEngine::add_local_receiver(const Address& group) {
  int& refs = local_receivers_[group];
  ++refs;
  if (refs > 1) return;
  // Existing entries for this group that took themselves off the tree must
  // rejoin it.
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    data_plane_.invalidate(key.source, key.group);
    check_upstream(*e);
  }
}

void DenseModeEngine::remove_local_receiver(const Address& group) {
  auto it = local_receivers_.find(group);
  if (it == local_receivers_.end()) return;
  if (--it->second <= 0) {
    local_receivers_.erase(it);
    for (auto& [key, e] : entries_) {
      if (key.group != group) continue;
      data_plane_.invalidate(key.source, key.group);
      check_upstream(*e);
    }
  }
}

bool DenseModeEngine::is_local_receiver(const Address& group) const {
  return local_receivers_.contains(group);
}

// ---------------------------------------------------------------------------
// Introspection

std::vector<DenseModeEngine::SgKey> DenseModeEngine::sg_keys() const {
  std::vector<SgKey> out;
  for (const auto& [key, e] : entries_) out.push_back(key);
  return out;
}

bool DenseModeEngine::has_entry(const Address& src,
                                const Address& group) const {
  return entries_.contains(SgKey{src, group});
}

Address DenseModeEngine::rpf_neighbor_of(const Address& src,
                                         const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  return e->rpf_neighbor;
}

std::vector<IfaceId> DenseModeEngine::outgoing(const Address& src,
                                               const Address& group) const {
  std::vector<IfaceId> out;
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return out;
  for (const auto& [iface, d] : e->downstream) {
    if (oif_active(*e, iface, *d)) out.push_back(iface);
  }
  return out;
}

IfaceId DenseModeEngine::incoming(const Address& src,
                                  const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  return e->incoming;
}

// ---------------------------------------------------------------------------
// The (S,G) table

DenseModeEngine::SgEntry* DenseModeEngine::find_entry(const Address& src,
                                                      const Address& group) {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

const DenseModeEngine::SgEntry* DenseModeEngine::find_entry(
    const Address& src, const Address& group) const {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

DenseModeEngine::SgEntry* DenseModeEngine::create_entry(const Address& src,
                                                        const Address& group) {
  const Route* route = stack_->rib().lookup(src);
  if (route == nullptr) {
    count_own("rpf-fail");
    return nullptr;
  }
  const SgKey key{src, group};
  // Armed before the engine's own entry timers: timers armed at one instant
  // for the same deadline expire in arming order.
  auto data_timeout = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] { delete_entry(key); },
      stack_->node().domain());
  data_timeout->arm(core_.data_timeout);
  std::unique_ptr<SgEntry> e = make_entry(key, *route);
  e->source = src;
  e->group = group;
  e->incoming = route->out_iface;
  e->rpf_neighbor = route->next_hop;  // unspecified when source is on-link
  e->rpf_metric = route->metric;
  e->assert_winner = AssertMetric{core_.metric_preference, route->metric, {}};
  e->entry_timer = std::move(data_timeout);
  // Dense mode: every enabled interface except the incoming one starts as a
  // potential oif; the engine's downstream_wants() decides which forward.
  for (const auto& [iface, st] : ifaces_) {
    if (iface == e->incoming) continue;
    e->downstream.emplace(iface, make_downstream());
  }
  SgEntry* raw = e.get();
  entries_.emplace(key, std::move(e));
  count_own("sg-created");
  trace_event("sg-created", [&] {
    return "src=" + src.str() + " group=" + group.str() + " iif=" +
           std::to_string(raw->incoming);
  });
  return raw;
}

void DenseModeEngine::delete_entry(const SgKey& key) {
  // Before erase: the cached data-timeout pointer dies here.
  data_plane_.invalidate(key.source, key.group);
  if (entries_.erase(key) > 0) {
    count_own("sg-expired");
    trace_event("sg-expired", [&] {
      return "src=" + key.source.str() + " group=" + key.group.str();
    });
  }
}

DenseModeEngine::Downstream& DenseModeEngine::downstream(SgEntry& e,
                                                         IfaceId iface) {
  auto it = e.downstream.find(iface);
  if (it == e.downstream.end()) {
    it = e.downstream.emplace(iface, make_downstream()).first;
    // A freshly materialized record can join the oif set (dense-mode
    // default: forwarding until told otherwise).
    data_plane_.invalidate(e.source, e.group);
  }
  return *it->second;
}

bool DenseModeEngine::in_oiflist(const SgEntry& e, IfaceId iface) const {
  auto it = e.downstream.find(iface);
  return it != e.downstream.end() && oif_active(e, iface, *it->second);
}

bool DenseModeEngine::wants_traffic(const SgEntry& e) const {
  if (is_local_receiver(e.group)) return true;
  for (const auto& [iface, d] : e.downstream) {
    if (oif_active(e, iface, *d)) return true;
  }
  return false;
}

void DenseModeEngine::on_mld_change(IfaceId iface, const Address& group,
                                    bool present) {
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    if (present && iface != e->incoming) downstream(*e, iface);
    data_plane_.invalidate(key.source, key.group);
    check_upstream(*e);
  }
}

// ---------------------------------------------------------------------------
// Data plane (slow path)

bool DenseModeEngine::describe_flow(const Address& src, const Address& group,
                                    DenseDataPlane::Flow& flow) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return false;
  flow.iif = e->incoming;
  flow.data_timeout = e->entry_timer.get();
  flow.local_receiver = is_local_receiver(group);
  for (const auto& [iface, d] : e->downstream) {
    flow.downstream.emplace_back(iface, oif_active(*e, iface, *d));
  }
  return true;
}

void DenseModeEngine::on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                                    IfaceId iface) {
  const Address& src = d.hdr.src;
  const Address& group = d.hdr.dst;
  SgEntry* e = find_entry(src, group);
  if (e == nullptr) {
    e = create_entry(src, group);
    if (e == nullptr) return;
  }

  if (iface != e->incoming) {
    // RPF re-anchor: the unicast route toward S can move after the entry
    // was created (mobility, link repair, a live routing protocol, a
    // post-restart RIB rebuild). If the RIB now names this interface,
    // follow it instead of treating good data as misrouted.
    const Route* route = stack_->rib().lookup(src);
    if (route != nullptr && route->out_iface == iface) {
      e->incoming = route->out_iface;
      e->rpf_neighbor = route->next_hop;
      e->rpf_metric = route->metric;
      e->assert_winner =
          AssertMetric{core_.metric_preference, route->metric, {}};
      e->downstream.erase(iface);  // the new incoming iface is not an oif
      // The cached iif and bitmap are both stale now.
      data_plane_.invalidate(src, group);
      count_own("rpf-updated");
      on_upstream_moved(*e);
    }
  }

  if (iface != e->incoming) {
    // Arrived on an outgoing interface: if we actively forward on it, this
    // is the Assert trigger (duplicate forwarder — or, in the paper's
    // mobile-sender case, a moved sender emitting with a stale source onto
    // a tree link). Otherwise we are a non-RPF bystander and tell the
    // forwarders on this link; without that, loops in the topology keep
    // branches alive forever.
    if (in_oiflist(*e, iface)) {
      send_assert(*e, iface);
    } else {
      Downstream& ds = downstream(*e, iface);
      // Assert losers stay silent: the elected forwarder serves this LAN
      // and declining it would fight the election outcome.
      if (!ds.assert_loser && rate_allows(ds.last_nonrpf_tx)) {
        decline_nonrpf(*e, iface);
      }
    }
    c_wrong_iface_.add();
    return;
  }

  e->entry_timer->extend(core_.data_timeout);
  // Install the entry's oif bitmap and forward: the next packet of this
  // flow hits the cache until a control-plane transition invalidates it.
  if (data_plane_.refill_and_forward(pkt, src, group)) return;
  // Deliberately uncached, so every datagram of this state comes back here.
  on_unwanted_data(*e);
}

// ---------------------------------------------------------------------------
// Assert

bool DenseModeEngine::beats(const AssertMetric& a, const AssertMetric& b) {
  if (a.preference != b.preference) return a.preference < b.preference;
  if (a.metric != b.metric) return a.metric < b.metric;
  return b.addr.is_unspecified() || a.addr > b.addr;
}

bool DenseModeEngine::rate_allows(Time& last) {
  if (!last.is_never() && now() - last < core_.assert_rate_limit) {
    return false;
  }
  last = now();
  return true;
}

void DenseModeEngine::adopt_assert_winner(SgEntry& e,
                                          const AssertMetric& winner) {
  e.assert_winner = winner;
  e.rpf_neighbor = winner.addr;
}

void DenseModeEngine::on_assert(const Address& src, const Address& group,
                                const AssertMetric& theirs, IfaceId iface) {
  SgEntry* e = find_entry(src, group);
  if (e == nullptr) return;
  count_own("rx-assert");

  if (iface == e->incoming) {
    // Downstream observer: the Assert winner becomes our RPF neighbor
    // (draft: "downstream routers ... store the elected forwarder for
    // later protocol actions"). Tracking the best tuple seen keeps the
    // outcome independent of arrival order.
    if (beats(theirs, e->assert_winner)) adopt_assert_winner(*e, theirs);
    return;
  }

  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return;
  Downstream& d = *it->second;
  if (d.assert_loser || !contests_assert(d)) return;
  const AssertMetric mine{core_.metric_preference, e->rpf_metric,
                          control_source(iface)};
  if (!beats(theirs, mine)) {
    send_assert(*e, iface);  // defend our role as forwarder
    return;
  }
  d.assert_loser = true;
  data_plane_.invalidate(src, group);
  count_own("assert-lost");
  trace_event("assert-lost", [&] {
    return "src=" + e->source.str() + " group=" + e->group.str() +
           " iface=" + std::to_string(iface) + " winner=" + theirs.addr.str();
  });
  const SgKey key{src, group};
  if (!d.assert_timer) {
    d.assert_timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, key, iface] {
          SgEntry* en = find_entry(key.source, key.group);
          if (en == nullptr) return;
          auto dit = en->downstream.find(iface);
          if (dit != en->downstream.end()) {
            dit->second->assert_loser = false;
            data_plane_.invalidate(key.source, key.group);
          }
        }, stack_->node().domain());
  }
  d.assert_timer->arm(core_.assert_time);
  on_assert_lost(*e, iface, theirs.addr);
  check_upstream(*e);
}

void DenseModeEngine::send_assert(SgEntry& e, IfaceId iface) {
  if (!rate_allows(downstream(e, iface).last_assert_tx)) return;
  emit_assert(e, iface);
  count_own("tx/assert");
  trace_event("tx-assert", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() + " iface=" +
           std::to_string(iface);
  });
}

void DenseModeEngine::send_hello(IfaceId iface) {
  emit_hello(iface);
  count_own("tx/hello");
  trace_event("tx-hello", [&] { return "iface=" + std::to_string(iface); });
}

void DenseModeEngine::count_own(std::string_view what) {
  counter_name_.resize(kind_.size() + 1);  // keep "<kind>/"
  counter_name_ += what;
  count(counter_name_);
}

}  // namespace mip6

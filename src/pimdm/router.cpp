#include "pimdm/router.hpp"

#include <algorithm>

#include "net/wire_stats.hpp"

namespace mip6 {

PimDmRouter::PimDmRouter(Ipv6Stack& stack, MldRouter& mld, PimDmConfig config)
    : DenseModeEngine(stack, "pimdm", config.data_timeout),
      stack_(&stack), mld_(&mld), config_(config),
      component_("pimdm/" + stack.node().name()),
      c_wrong_iface_(
          stack.network().counters().cell("pimdm/rx-wrong-iface")) {
  stack.set_proto_handler(
      proto::kPim,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_pim_message(d, iface);
      });
  mld.set_group_callback(
      [this](IfaceId iface, const Address& group, bool present) {
        on_mld_change(iface, group, present);
      });
}

void PimDmRouter::start() {
  for (const auto& ifp : stack_->node().interfaces()) {
    if (ifp->attached() && configured_.contains(ifp->id())) {
      enable_iface(ifp->id());
    }
  }
}

void PimDmRouter::stop() {
  shutdown();
  stack_->clear_mcast_forwarder();
  stack_->clear_proto_handler(proto::kPim);
  mld_->set_group_callback(nullptr);
}

void PimDmRouter::enable_iface(IfaceId iface) {
  configured_.insert(iface);
  data_plane_.add_iface(iface);  // fail-fast on width overflow
  auto [it, fresh] = ifaces_.try_emplace(iface);
  if (!fresh) return;
  it->second.hello_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface] {
        send_hello(iface);
        ifaces_.at(iface).hello_timer->arm(config_.hello_period);
      }, stack_->node().domain());
  // First hello immediately (triggered hello on interface up).
  it->second.hello_timer->arm(Time::zero());
}

void PimDmRouter::shutdown() {
  // unique_ptr destruction cancels every timer (hello, neighbor liveness,
  // prune, assert, graft-retry, entry, state-refresh).
  entries_.clear();
  ifaces_.clear();
  local_receivers_.clear();
  data_plane_.clear();  // entry timers just dangled
  count("pimdm/shutdown");
}

std::vector<IfaceId> PimDmRouter::enabled_ifaces() const {
  std::vector<IfaceId> out;
  for (const auto& [iface, st] : ifaces_) out.push_back(iface);
  return out;
}

void PimDmRouter::add_local_receiver(const Address& group) {
  int& refs = local_receivers_[group];
  ++refs;
  if (refs > 1) return;
  // Existing pruned entries for this group must be re-grafted.
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    data_plane_.invalidate(key.source, key.group);
    check_upstream(*e);
  }
}

void PimDmRouter::remove_local_receiver(const Address& group) {
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

bool PimDmRouter::is_local_receiver(const Address& group) const {
  return local_receivers_.contains(group);
}

// ---------------------------------------------------------------------------
// Introspection

bool PimDmRouter::has_entry(const Address& src, const Address& group) const {
  return entries_.contains(SgKey{src, group});
}

std::vector<PimDmRouter::SgKey> PimDmRouter::sg_keys() const {
  std::vector<SgKey> out;
  for (const auto& [key, e] : entries_) out.push_back(key);
  return out;
}

bool PimDmRouter::upstream_pruned(const Address& src,
                                  const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  return e != nullptr && e->upstream_pruned;
}

Address PimDmRouter::rpf_neighbor_of(const Address& src,
                                     const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  return e->rpf_neighbor;
}

bool PimDmRouter::assert_loser(const Address& src, const Address& group,
                               IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return false;
  auto it = e->downstream.find(iface);
  return it != e->downstream.end() && it->second->assert_loser;
}

std::vector<IfaceId> PimDmRouter::outgoing(const Address& src,
                                           const Address& group) const {
  std::vector<IfaceId> out;
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return out;
  for (const auto& [iface, d] : e->downstream) {
    if (oif_active(*e, iface, *d)) out.push_back(iface);
  }
  return out;
}

IfaceId PimDmRouter::incoming(const Address& src, const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  return e->incoming;
}

PimDmRouter::DownstreamState PimDmRouter::downstream_state(
    const Address& src, const Address& group, IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return DownstreamState::kForwarding;
  return it->second->state;
}

bool PimDmRouter::downstream_pruned(const Address& src, const Address& group,
                                    IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return false;
  auto it = e->downstream.find(iface);
  return it != e->downstream.end() &&
         it->second->state == DownstreamState::kPruned;
}

std::vector<Address> PimDmRouter::neighbors(IfaceId iface) const {
  std::vector<Address> out;
  auto it = ifaces_.find(iface);
  if (it != ifaces_.end()) {
    for (const auto& [addr, timer] : it->second.neighbors) out.push_back(addr);
  }
  return out;
}

bool PimDmRouter::has_neighbors(IfaceId iface) const {
  auto it = ifaces_.find(iface);
  return it != ifaces_.end() && !it->second.neighbors.empty();
}

// ---------------------------------------------------------------------------
// Entry management

PimDmRouter::SgEntry* PimDmRouter::find_entry(const Address& src,
                                              const Address& group) {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

const PimDmRouter::SgEntry* PimDmRouter::find_entry(
    const Address& src, const Address& group) const {
  auto it = entries_.find(SgKey{src, group});
  return it == entries_.end() ? nullptr : it->second.get();
}

PimDmRouter::SgEntry* PimDmRouter::create_entry(const Address& src,
                                                const Address& group) {
  const Route* route = stack_->rib().lookup(src);
  if (route == nullptr) {
    count("pimdm/rpf-fail");
    return nullptr;
  }
  auto e = std::make_unique<SgEntry>();
  e->source = src;
  e->group = group;
  e->incoming = route->out_iface;
  e->rpf_neighbor = route->next_hop;  // unspecified when source is on-link
  e->rpf_metric = route->metric;
  e->assert_winner_pref = config_.metric_preference;
  e->assert_winner_metric = route->metric;
  SgKey key{src, group};
  e->entry_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] { delete_entry(key); }, stack_->node().domain());
  e->entry_timer->arm(config_.data_timeout);
  e->graft_retry_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && entry->graft_pending) {
          count("pimdm/graft-retry");
          send_graft_upstream(*entry);
        }
      }, stack_->node().domain());
  e->join_override_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && wants_traffic(*entry)) {
          // Name the router the observed prune was addressed to: a Join
          // only overrides a prune if it targets the same upstream.
          const Address& target = entry->join_override_target.is_unspecified()
                                      ? entry->rpf_neighbor
                                      : entry->join_override_target;
          send_join_override(*entry, target);
        }
      }, stack_->node().domain());
  // Dense mode: initially forward onto every PIM interface (except the
  // incoming one). Interfaces without PIM neighbors contribute to the oif
  // list only via MLD listeners — see oif_active().
  for (const auto& [iface, st] : ifaces_) {
    if (iface == e->incoming) continue;
    e->downstream.emplace(iface, std::make_unique<Downstream>());
  }
  if (config_.state_refresh && route->on_link()) {
    // We are a first-hop router for this source: originate refresh waves.
    e->state_refresh_timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, key] {
          SgEntry* entry = find_entry(key.source, key.group);
          if (entry == nullptr) return;
          originate_state_refresh(*entry);
          entry->state_refresh_timer->arm(config_.state_refresh_interval);
        }, stack_->node().domain());
    e->state_refresh_timer->arm(config_.state_refresh_interval);
  }
  SgEntry* raw = e.get();
  entries_.emplace(key, std::move(e));
  count("pimdm/sg-created");
  trace_event("sg-created", [&] {
    return "src=" + src.str() + " group=" + group.str() + " iif=" +
           std::to_string(raw->incoming);
  });
  return raw;
}

void PimDmRouter::delete_entry(const SgKey& key) {
  // Before erase: the cached data-timeout pointer dies here.
  data_plane_.invalidate(key.source, key.group);
  if (entries_.erase(key) > 0) {
    count("pimdm/sg-expired");
    trace_event("sg-expired", [&] {
      return "src=" + key.source.str() + " group=" + key.group.str();
    });
  }
}

PimDmRouter::Downstream& PimDmRouter::downstream(SgEntry& e, IfaceId iface) {
  auto it = e.downstream.find(iface);
  if (it == e.downstream.end()) {
    it = e.downstream.emplace(iface, std::make_unique<Downstream>()).first;
    // A freshly materialized record can join the oif set (it starts in
    // kForwarding, the dense-mode default).
    data_plane_.invalidate(e.source, e.group);
  }
  return *it->second;
}

bool PimDmRouter::oif_active(const SgEntry& e, IfaceId iface,
                             const Downstream& d) const {
  if (iface == e.incoming) return false;
  if (d.assert_loser) return false;
  // Members always get traffic; otherwise forward only where PIM
  // neighbors exist and have not pruned.
  return mld_->has_listeners(iface, e.group) ||
         ((d.state != DownstreamState::kPruned) && has_neighbors(iface));
}

bool PimDmRouter::in_oiflist(const SgEntry& e, IfaceId iface) const {
  auto it = e.downstream.find(iface);
  return it != e.downstream.end() && oif_active(e, iface, *it->second);
}

bool PimDmRouter::wants_traffic(const SgEntry& e) const {
  if (is_local_receiver(e.group)) return true;
  for (const auto& [iface, d] : e.downstream) {
    if (oif_active(e, iface, *d)) return true;
  }
  return false;
}

void PimDmRouter::check_upstream(SgEntry& e) {
  check_upstream(e, wants_traffic(e));
}

void PimDmRouter::check_upstream(SgEntry& e, bool wants) {
  if (e.rpf_neighbor.is_unspecified()) return;  // we are the first hop
  if (wants) {
    if (e.upstream_pruned) send_graft_upstream(e);
  } else {
    if (!e.upstream_pruned) send_prune_upstream(e);
  }
}

// ---------------------------------------------------------------------------
// Data plane (slow path)

bool PimDmRouter::describe_flow(const Address& src, const Address& group,
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

void PimDmRouter::on_cache_miss(const ParsedDatagram& d, const Packet& pkt,
                                IfaceId iface) {
  const Address& src = d.hdr.src;
  const Address& group = d.hdr.dst;
  SgEntry* e = find_entry(src, group);
  if (e == nullptr) {
    e = create_entry(src, group);
    if (e == nullptr) return;
  }

  if (iface != e->incoming) {
    // RPF change handling: with a live routing protocol the unicast route
    // toward S can move after the entry was created. If the RIB now says
    // this interface *is* the RPF interface, update the entry instead of
    // treating good data as misrouted.
    const Route* route = stack_->rib().lookup(src);
    if (route != nullptr && route->out_iface == iface) {
      e->incoming = route->out_iface;
      e->rpf_neighbor = route->next_hop;
      e->rpf_metric = route->metric;
      e->assert_winner_pref = config_.metric_preference;
      e->assert_winner_metric = route->metric;
      e->assert_winner_addr = Address();
      e->downstream.erase(iface);  // the new incoming iface is not an oif
      // The cached iif and bitmap are both stale now.
      data_plane_.invalidate(src, group);
      count("pimdm/rpf-updated");
    }
  }

  if (iface != e->incoming) {
    // Arrived on an outgoing interface: if we actively forward on it (the
    // interface is in the oif list), this is the Assert trigger (duplicate
    // forwarder — or, in the paper's mobile-sender case, a moved sender
    // emitting with a stale source onto a tree link). Otherwise we are a
    // non-RPF bystander: tell the forwarder(s) on this link to prune —
    // without this, loops in the topology keep branches alive forever
    // (any router that still legitimately needs the link overrides with a
    // Join, and MLD members keep it in the forwarder's oif list anyway).
    if (in_oiflist(*e, iface)) {
      send_assert(*e, iface);
    } else {
      Downstream& ds = downstream(*e, iface);
      // Assert losers stay silent: the elected forwarder serves this LAN
      // and pruning it would fight the election outcome.
      if (!ds.assert_loser &&
          (ds.last_nonrpf_prune_tx.is_never() ||
           now() - ds.last_nonrpf_prune_tx >= config_.assert_rate_limit)) {
        ds.last_nonrpf_prune_tx = now();
        auto holdtime =
            static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
        for (const Address& nbr : neighbors(iface)) {
          PimJoinPrune m =
              PimJoinPrune::prune(nbr, e->source, e->group, holdtime);
          emit(iface, PimType::kJoinPrune, m.body(),
               Address::all_pim_routers());
          count("pimdm/tx/nonrpf-prune");
        }
      }
    }
    c_wrong_iface_.add();
    return;
  }

  e->entry_timer->extend(config_.data_timeout);
  // Install the entry's oif bitmap and forward: the next packet of this
  // flow hits the cache until a control-plane transition invalidates it.
  if (data_plane_.refill_and_forward(pkt, src, group)) return;
  // Nothing downstream: prune ourselves off the tree (rate-limited; on a
  // LAN the upstream may keep transmitting because a sibling overrode).
  // Deliberately uncached so the rate limiter keeps seeing every packet.
  if (!e->rpf_neighbor.is_unspecified() &&
      (e->last_prune_tx.is_never() ||
       now() - e->last_prune_tx >= config_.prune_hold_time)) {
    send_prune_upstream(*e);
  }
}

// ---------------------------------------------------------------------------
// Control plane

void PimDmRouter::on_pim_message(const ParsedDatagram& d, IfaceId iface) {
  if (!pim_enabled(iface)) return;
  auto reject = [&](const ParseFailure& f) {
    count("pimdm/rx-drop/parse-error");
    note_parse_reject(stack_->network(), "pimdm", f);
  };
  ParseResult<PimHeader> hdr = try_parse_pim(d.payload, d.hdr.src, d.hdr.dst);
  if (!hdr.ok()) {
    reject(hdr.failure());
    return;
  }
  PimHeader h = std::move(hdr).value();
  switch (h.type) {
    case PimType::kHello: {
      ParseResult<PimHello> m = PimHello::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_hello(m.value(), d.hdr.src, iface);
      break;
    }
    case PimType::kJoinPrune: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_join_prune(m.value(), d.hdr.src, iface);
      break;
    }
    case PimType::kGraft: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_graft(m.value(), d.hdr.src, iface);
      break;
    }
    case PimType::kGraftAck: {
      ParseResult<PimJoinPrune> m = PimJoinPrune::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_graft_ack(m.value(), iface);
      break;
    }
    case PimType::kAssert: {
      ParseResult<PimAssert> m = PimAssert::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_assert(m.value(), d.hdr.src, iface);
      break;
    }
    case PimType::kStateRefresh: {
      ParseResult<PimStateRefresh> m = PimStateRefresh::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_state_refresh(m.value(), iface);
      break;
    }
    default:
      // Unknown PIM message type: taxonomy says bad-type, not a crash.
      reject(ParseFailure{ParseReason::kBadType, "unknown PIM message type"});
      break;
  }
}

void PimDmRouter::on_hello(const PimHello& hello, const Address& from,
                           IfaceId iface) {
  IfaceState& st = ifaces_.at(iface);
  auto it = st.neighbors.find(from);
  if (it == st.neighbors.end()) {
    auto timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, iface, from] {
          ifaces_.at(iface).neighbors.erase(from);
          // has_neighbors() feeds every entry's oif set on this iface.
          data_plane_.invalidate_all();
          count("pimdm/neighbor-expired");
          trace_event("neighbor-expired", [&] {
            return "iface=" + std::to_string(iface) + " nbr=" + from.str();
          });
        }, stack_->node().domain());
    timer->arm(Time::sec(hello.holdtime));
    st.neighbors.emplace(from, std::move(timer));
    data_plane_.invalidate_all();  // a new neighbor turns ifaces forwarding
    count("pimdm/neighbor-up");
    trace_event("neighbor-up", [&] {
      return "iface=" + std::to_string(iface) + " nbr=" + from.str();
    });
    // Triggered hello so the new neighbor learns us quickly.
    send_hello(iface);
  } else {
    it->second->arm(Time::sec(hello.holdtime));
  }
}

void PimDmRouter::on_join_prune(const PimJoinPrune& jp, const Address& from,
                                IfaceId iface) {
  (void)from;  // the message's upstream_neighbor field drives everything
  bool to_me = stack_->owns_address(jp.upstream_neighbor);
  for (const auto& g : jp.groups) {
    for (const auto& src : g.pruned_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // We are the upstream: begin the LAN prune delay; an overriding
        // Join within T_PruneDel cancels it.
        Downstream& d = downstream(*e, iface);
        if (d.state == DownstreamState::kPruned) {
          // Refreshed prune (e.g. triggered by a State Refresh wave):
          // re-arm the holdtime in place, no re-flood in between.
          if (d.prune_expiry_timer) {
            Time hold = Time::sec(jp.holdtime);
            if (hold > config_.prune_hold_time || jp.holdtime == 0) {
              hold = config_.prune_hold_time;
            }
            d.prune_expiry_timer->arm(hold);
            count("pimdm/prune-refreshed");
          }
        } else if (d.state == DownstreamState::kForwarding) {
          d.state = DownstreamState::kPrunePending;
          SgKey key{src, g.group};
          std::uint16_t holdtime = jp.holdtime;
          if (!d.prune_pending_timer) {
            d.prune_pending_timer = std::make_unique<Timer>(
                stack_->scheduler(), [this, key, iface, holdtime] {
                  SgEntry* entry = find_entry(key.source, key.group);
                  if (entry == nullptr) return;
                  Downstream& dd = downstream(*entry, iface);
                  if (dd.state != DownstreamState::kPrunePending) return;
                  dd.state = DownstreamState::kPruned;
                  data_plane_.invalidate(key.source, key.group);
                  count("pimdm/iface-pruned");
                  trace_event("iface-pruned", [&] {
                    return "src=" + key.source.str() + " group=" +
                           key.group.str() + " iface=" + std::to_string(iface);
                  });
                  // Prune Echo (RFC 3973 §4.4.2): on a LAN with several
                  // neighbors, repeat the prune naming ourselves so a
                  // downstream router whose overriding Join was lost gets
                  // a second chance to object.
                  if (neighbors(iface).size() > 1) {
                    std::uint16_t echo_hold = holdtime;
                    PimJoinPrune echo = PimJoinPrune::prune(
                        stack_->link_local_address(iface), key.source,
                        key.group, echo_hold);
                    emit(iface, PimType::kJoinPrune, echo.body(),
                         Address::all_pim_routers());
                    count("pimdm/tx/prune-echo");
                  }
                  Time hold = Time::sec(holdtime);
                  if (hold > config_.prune_hold_time ||
                      holdtime == 0) {
                    hold = config_.prune_hold_time;
                  }
                  if (!dd.prune_expiry_timer) {
                    dd.prune_expiry_timer = std::make_unique<Timer>(
                        stack_->scheduler(), [this, key, iface] {
                          SgEntry* en = find_entry(key.source, key.group);
                          if (en == nullptr) return;
                          Downstream& x = downstream(*en, iface);
                          if (x.state == DownstreamState::kPruned) {
                            x.state = DownstreamState::kForwarding;
                            data_plane_.invalidate(key.source, key.group);
                            count("pimdm/prune-expired");
                            // Downstream interest is presumed again; if we
                            // had pruned ourselves upstream meanwhile, we
                            // must graft back or the branch stays dark.
                            check_upstream(*en);
                          }
                        }, stack_->node().domain());
                  }
                  dd.prune_expiry_timer->arm(hold);
                  check_upstream(*entry);
                }, stack_->node().domain());
          }
          d.prune_pending_timer->arm(config_.prune_delay);
        }
      } else if (iface == e->incoming && wants_traffic(*e)) {
        // A prune crossed our upstream LAN — from a sibling, or a Prune
        // Echo from the forwarder itself; either way, if we still need the
        // traffic, override with a Join after a random delay below the
        // prune delay. The Join must name the pruned upstream.
        e->join_override_target = jp.upstream_neighbor;
        if (!e->join_override_timer->running()) {
          Time delay = Time::ns(static_cast<std::int64_t>(
              stack_->network().rng().uniform() *
              static_cast<double>(config_.join_override_window.nanos())));
          e->join_override_timer->arm(delay);
        }
      }
    }
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // Join override received: cancel a pending prune on that iface.
        Downstream& d = downstream(*e, iface);
        if (d.state == DownstreamState::kPrunePending) {
          d.prune_pending_timer->cancel();
          d.state = DownstreamState::kForwarding;
          data_plane_.invalidate(src, g.group);
          count("pimdm/prune-overridden");
          trace_event("prune-overridden", [&] {
            return "src=" + src.str() + " group=" + g.group.str() +
                   " iface=" + std::to_string(iface);
          });
        } else if (d.state == DownstreamState::kPruned) {
          if (d.prune_expiry_timer) d.prune_expiry_timer->cancel();
          d.state = DownstreamState::kForwarding;
          data_plane_.invalidate(src, g.group);
        }
      } else if (iface == e->incoming) {
        // Someone else already sent the override; suppress ours.
        e->join_override_timer->cancel();
      }
    }
  }
}

void PimDmRouter::on_graft(const PimJoinPrune& graft, const Address& from,
                           IfaceId iface) {
  if (!stack_->owns_address(graft.upstream_neighbor)) return;
  for (const auto& g : graft.groups) {
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) {
        // Graft for an entry we never created (e.g. it already timed out):
        // recreate state so forwarding resumes with the next datagram.
        e = create_entry(src, g.group);
        if (e == nullptr) continue;
      }
      Downstream& d = downstream(*e, iface);
      if (d.prune_pending_timer) d.prune_pending_timer->cancel();
      if (d.prune_expiry_timer) d.prune_expiry_timer->cancel();
      d.state = DownstreamState::kForwarding;
      data_plane_.invalidate(src, g.group);
      count("pimdm/graft-processed");
      check_upstream(*e);  // cascade the graft upstream if we had pruned
    }
  }
  send_graft_ack(graft, from, iface);
}

void PimDmRouter::on_graft_ack(const PimJoinPrune& ack, IfaceId iface) {
  (void)iface;
  for (const auto& g : ack.groups) {
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      e->graft_pending = false;
      e->graft_retry_timer->cancel();
    }
  }
}

void PimDmRouter::on_assert(const PimAssert& a, const Address& from,
                            IfaceId iface) {
  SgEntry* e = find_entry(a.source, a.group);
  if (e == nullptr) return;
  count("pimdm/rx-assert");

  if (iface == e->incoming) {
    // Downstream observer: the assert *winner* becomes our RPF neighbor
    // (draft: "downstream routers ... store the elected forwarder for
    // later protocol actions"). Track the best (preference, metric,
    // address) tuple seen so the outcome is independent of arrival order.
    bool better;
    if (a.metric_preference != e->assert_winner_pref) {
      better = a.metric_preference < e->assert_winner_pref;
    } else if (a.metric != e->assert_winner_metric) {
      better = a.metric < e->assert_winner_metric;
    } else {
      better = e->assert_winner_addr.is_unspecified() ||
               from > e->assert_winner_addr;
    }
    if (better) {
      e->assert_winner_pref = a.metric_preference;
      e->assert_winner_metric = a.metric;
      e->assert_winner_addr = from;
      e->rpf_neighbor = from;
    }
    return;
  }

  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return;
  Downstream& d = *it->second;
  if (d.state != DownstreamState::kForwarding || d.assert_loser) return;

  // Compare (preference, metric, address); lower tuple wins on pref/metric,
  // higher address wins ties.
  Address my_addr = stack_->link_local_address(iface);
  bool they_win;
  if (a.metric_preference != config_.metric_preference) {
    they_win = a.metric_preference < config_.metric_preference;
  } else if (a.metric != e->rpf_metric) {
    they_win = a.metric < e->rpf_metric;
  } else {
    they_win = from > my_addr;
  }
  if (they_win) {
    d.assert_loser = true;
    data_plane_.invalidate(a.source, a.group);
    count("pimdm/assert-lost");
    trace_event("assert-lost", [&] {
      return "src=" + e->source.str() + " group=" + e->group.str() +
             " iface=" + std::to_string(iface) + " winner=" + from.str();
    });
    SgKey key{a.source, a.group};
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
    d.assert_timer->arm(config_.assert_time);
    // A loser that doesn't consume from this LAN itself (it is not its RPF
    // interface) prunes toward the winner; routers that do depend on the
    // LAN answer with an overriding Join, so this only clears truly
    // unneeded branches (RFC 3973 assert-loser prune behaviour).
    if (!mld_->has_listeners(iface, e->group)) {
      auto holdtime =
          static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
      PimJoinPrune m = PimJoinPrune::prune(from, e->source, e->group,
                                           holdtime);
      emit(iface, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
      count("pimdm/tx/assert-loser-prune");
    }
    check_upstream(*e);
  } else {
    send_assert(*e, iface);  // defend our role as forwarder
  }
}

void PimDmRouter::on_mld_change(IfaceId iface, const Address& group,
                                bool present) {
  for (auto& [key, e] : entries_) {
    if (key.group != group) continue;
    if (present) {
      if (iface != e->incoming) downstream(*e, iface);  // materialize state
    }
    data_plane_.invalidate(key.source, key.group);
    check_upstream(*e);
  }
}

void PimDmRouter::on_state_refresh(const PimStateRefresh& sr, IfaceId iface) {
  if (!config_.state_refresh) return;
  count("pimdm/rx/state-refresh");
  SgEntry* e = find_entry(sr.source, sr.group);
  if (e == nullptr) {
    e = create_entry(sr.source, sr.group);
    if (e == nullptr) return;
  }
  if (iface != e->incoming) {
    // Refresh wave on a non-RPF interface: we are a bystander that pruned
    // this link earlier (or should). Re-advertise the prune so the
    // forwarder's prune state is refreshed in place instead of expiring
    // into a re-flood (RFC 3973 Prune-Indicator handling).
    if (!in_oiflist(*e, iface)) {
      Downstream& d = downstream(*e, iface);
      if (!d.assert_loser) {
        d.last_nonrpf_prune_tx = now();
        auto holdtime =
            static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
        for (const Address& nbr : neighbors(iface)) {
          PimJoinPrune m =
              PimJoinPrune::prune(nbr, e->source, e->group, holdtime);
          emit(iface, PimType::kJoinPrune, m.body(),
               Address::all_pim_routers());
          count("pimdm/tx/nonrpf-prune");
        }
      }
    }
    return;
  }
  // The wave attests that the source is alive: refresh the (S,G) entry.
  e->entry_timer->extend(config_.data_timeout);
  // A router that pruned itself off re-advertises its prune so the
  // upstream holdtime is refreshed instead of expiring into a re-flood.
  if (e->upstream_pruned && !e->rpf_neighbor.is_unspecified()) {
    send_prune_upstream(*e);
  }
  forward_state_refresh(*e, sr);
}

void PimDmRouter::originate_state_refresh(SgEntry& e) {
  PimStateRefresh sr;
  sr.group = e.group;
  sr.source = e.source;
  sr.metric_preference = config_.metric_preference;
  sr.metric = e.rpf_metric;
  sr.ttl = 16;
  sr.interval_s = static_cast<std::uint8_t>(
      config_.state_refresh_interval.to_seconds());
  // Originators need a global address for the originator field; fall back
  // to link-local if the incoming interface has no global.
  sr.originator = stack_->has_global_address(e.incoming)
                      ? stack_->global_address(e.incoming)
                      : stack_->link_local_address(e.incoming);
  count("pimdm/tx/state-refresh-originated");
  trace_event("tx-state-refresh", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " originator=" + sr.originator.str();
  });
  forward_state_refresh(e, sr);
}

void PimDmRouter::forward_state_refresh(SgEntry& e,
                                        const PimStateRefresh& sr) {
  if (sr.ttl <= 1) return;
  for (auto& [iface, d] : e.downstream) {
    if (iface == e.incoming) continue;
    if (!has_neighbors(iface)) continue;
    PimStateRefresh out = sr;
    out.ttl = static_cast<std::uint8_t>(sr.ttl - 1);
    out.prune_indicator = (d->state == DownstreamState::kPruned);
    emit(iface, PimType::kStateRefresh, out.body(),
         Address::all_pim_routers());
    count("pimdm/tx/state-refresh");
  }
}

// ---------------------------------------------------------------------------
// Emission

void PimDmRouter::emit(IfaceId iface, PimType type, BytesView body,
                       const Address& dst) {
  DatagramSpec spec;
  spec.src = stack_->link_local_address(iface);
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(type, body, spec.src, spec.dst);
  std::size_t wire = Ipv6Header::kSize + spec.payload.size();
  stack_->send_on_iface(iface, spec);
  stack_->network().counters().add("pimdm/tx-bytes", wire);
}

void PimDmRouter::send_hello(IfaceId iface) {
  PimHello hello;
  hello.holdtime =
      static_cast<std::uint16_t>(config_.hello_holdtime.to_seconds());
  emit(iface, PimType::kHello, hello.body(), Address::all_pim_routers());
  count("pimdm/tx/hello");
  trace_event("tx-hello",
              [&] { return "iface=" + std::to_string(iface); });
}

void PimDmRouter::send_prune_upstream(SgEntry& e) {
  if (e.rpf_neighbor.is_unspecified()) return;
  auto holdtime =
      static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
  PimJoinPrune m =
      PimJoinPrune::prune(e.rpf_neighbor, e.source, e.group, holdtime);
  emit(e.incoming, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  e.upstream_pruned = true;
  e.last_prune_tx = now();
  count("pimdm/tx/prune");
  trace_event("tx-prune", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + e.rpf_neighbor.str();
  });
}

void PimDmRouter::send_graft_upstream(SgEntry& e) {
  if (e.rpf_neighbor.is_unspecified()) return;
  PimJoinPrune m = PimJoinPrune::join(e.rpf_neighbor, e.source, e.group);
  // Grafts are unicast to the upstream neighbor.
  emit(e.incoming, PimType::kGraft, m.body(), e.rpf_neighbor);
  e.upstream_pruned = false;
  e.graft_pending = true;
  e.graft_retry_timer->arm(config_.graft_retry_period);
  count("pimdm/tx/graft");
  trace_event("tx-graft", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + e.rpf_neighbor.str();
  });
}

void PimDmRouter::send_join_override(SgEntry& e, const Address& upstream) {
  PimJoinPrune m = PimJoinPrune::join(upstream, e.source, e.group);
  emit(e.incoming, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  count("pimdm/tx/join-override");
  trace_event("tx-join-override", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + upstream.str();
  });
}

void PimDmRouter::send_assert(SgEntry& e, IfaceId iface) {
  Downstream& d = downstream(e, iface);
  if (!d.last_assert_tx.is_never() &&
      now() - d.last_assert_tx < config_.assert_rate_limit) {
    return;
  }
  d.last_assert_tx = now();
  PimAssert a;
  a.group = e.group;
  a.source = e.source;
  a.metric_preference = config_.metric_preference;
  a.metric = e.rpf_metric;
  emit(iface, PimType::kAssert, a.body(), Address::all_pim_routers());
  count("pimdm/tx/assert");
  trace_event("tx-assert", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() + " iface=" +
           std::to_string(iface);
  });
}

void PimDmRouter::send_graft_ack(const PimJoinPrune& graft, const Address& to,
                                 IfaceId iface) {
  PimJoinPrune ack = graft;
  emit(iface, PimType::kGraftAck, ack.body(), to);
  count("pimdm/tx/graft-ack");
  trace_event("tx-graft-ack", [&] {
    return "to=" + to.str() + " iface=" + std::to_string(iface);
  });
}

void PimDmRouter::count(std::string_view name, std::uint64_t delta) {
  stack_->network().counters().add(name, delta);
}

}  // namespace mip6

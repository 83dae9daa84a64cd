#include "hpimdm/router.hpp"

#include <algorithm>

#include "net/wire_stats.hpp"

namespace mip6 {

HpimDmRouter::HpimDmRouter(Ipv6Stack& stack, MldRouter& mld,
                           HpimDmConfig config)
    : DenseModeEngine(stack, mld, "hpimdm", config), config_(config) {
  generation_id_ = fresh_generation_id();
  leaf_reconcile_timer_ = std::make_unique<Timer>(
      stack.scheduler(), [this] { reconcile_leaf_groups(); }, stack.node().domain());
  stack.set_proto_handler(
      proto::kPim,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_hpim_message(d, iface);
      });
}

void HpimDmRouter::reset() {
  DenseModeEngine::reset();
  leaf_groups_.clear();
  leaf_reconcile_timer_->cancel();
}

void HpimDmRouter::on_crash() {
  // The whole point of the hard-state engine: (S,G) entries, recorded
  // downstream interest and leaf groups survive; only the live channel
  // machinery (timers, sequence state, unacked queues) dies with us.
  // The flow cache is derived state over the neighbor set we are about to
  // drop — flush it; the first post-restart datagram refills it.
  data_plane_.invalidate_all();
  ifaces_.clear();
  leaf_reconcile_timer_->cancel();
  for (auto& [key, e] : entries_) {
    e->entry_timer->cancel();
    hpim(*e).my_interest.reset();  // re-declare once channels are back
    for (auto& [iface, d] : e->downstream) {
      if (d->assert_timer) d->assert_timer->cancel();
      d->assert_loser = false;
      d->last_assert_tx = Time::never();
      d->last_nonrpf_tx = Time::never();
    }
  }
  // Home-agent local-receiver pins are soft state owned by the HA module;
  // it re-registers them as bindings refresh (keeping them would double
  // the refcounts on re-registration).
  local_receivers_.clear();
  count("hpimdm/crash");
}

void HpimDmRouter::on_restart() {
  // New incarnation: neighbors spot the generation change in our first
  // hello and re-sync their interest toward us reliably.
  generation_id_ = fresh_generation_id();
  start();
  for (auto& [key, e] : entries_) {
    e->entry_timer->arm(config_.data_timeout);
  }
  // The surviving leaf groups keep their interfaces forwarding through the
  // outage; once listeners had time to re-report to MLD, drop the ones
  // that did not come back.
  leaf_reconcile_timer_->arm(config_.leaf_reconcile_delay);
  count("hpimdm/restart");
  trace_event("restart", [&] {
    return "entries=" + std::to_string(entries_.size());
  });
}

std::size_t HpimDmRouter::retransmit_backlog() const {
  std::size_t total = 0;
  for (const auto& [iface, st] : ifaces_) {
    for (const auto& [addr, nbr] : st.neighbors) {
      total += static_cast<const NeighborChannel&>(*nbr).pending.size();
    }
  }
  return total;
}

bool HpimDmRouter::upstream_pruned(const Address& src,
                                   const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  return e != nullptr && hpim(*e).my_interest.has_value() &&
         !*hpim(*e).my_interest;
}

bool HpimDmRouter::downstream_pruned(const Address& src, const Address& group,
                                     IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr || iface == e->incoming) return false;
  auto it = e->downstream.find(iface);
  // Positively pruned only when live neighbors exist and all of them
  // declared no interest (one unknown neighbor keeps the dense-mode
  // default, a leaf group keeps the interface). An Assert loser is
  // suppressed by the election, not by interest.
  return it != e->downstream.end() && !it->second->assert_loser &&
         has_neighbors(iface) && !downstream_wants(*e, iface, *it->second);
}

// ---------------------------------------------------------------------------
// DenseModeEngine hooks

std::unique_ptr<DenseModeEngine::SgEntry> HpimDmRouter::make_entry(
    const SgKey&, const Route&) {
  return std::make_unique<HpimEntry>();
}

std::unique_ptr<DenseModeEngine::Downstream> HpimDmRouter::make_downstream()
    const {
  return std::make_unique<HpimDownstream>();
}

bool HpimDmRouter::downstream_wants(const SgEntry& e, IfaceId iface,
                                    const Downstream& d) const {
  auto lit = leaf_groups_.find(iface);
  if (lit != leaf_groups_.end() && lit->second.contains(e.group)) return true;
  // A neighbor that never declared is unknown and keeps the interface
  // forwarding; positively uninterested neighbors do not.
  auto ifit = ifaces_.find(iface);
  if (ifit == ifaces_.end()) return false;
  for (const auto& [nbr, ch] : ifit->second.neighbors) {
    auto dit = hpim(d).declared.find(nbr);
    if (dit == hpim(d).declared.end() || dit->second) return true;
  }
  return false;
}

void HpimDmRouter::update_upstream(SgEntry& e, bool wants) {
  if (e.rpf_neighbor.is_unspecified()) return;  // we are the first hop
  HpimEntry& he = hpim(e);
  if (he.my_interest.has_value() && *he.my_interest == wants) return;
  send_interest(he, wants);
}

void HpimDmRouter::decline_nonrpf(SgEntry& e, IfaceId iface) {
  // Declare no-interest to the forwarders on this link so they drop it
  // from their oif lists. Reliable, but not self-quenching: while a
  // forwarder serves other neighbors here, its data keeps arriving and the
  // declaration repeats every assert_rate_limit.
  for (const Address& nbr : neighbors(iface)) {
    NeighborChannel* ch = channel(iface, nbr);
    if (ch == nullptr) continue;
    HpimInterest m;
    m.source = e.source;
    m.group = e.group;
    m.interested = false;
    m.seq = ++ch->tx_seq;
    send_reliable(iface, nbr, HpimType::kInterest, m.body(), m.seq);
    count("hpimdm/tx/nonrpf-uninterest");
  }
}

void HpimDmRouter::emit_hello(IfaceId iface) {
  HpimHello hello;
  hello.holdtime = config_.hello_holdtime_s;
  hello.generation_id = generation_id_;
  emit(iface, HpimType::kHello, hello.body(), Address::all_pim_routers());
}

void HpimDmRouter::emit_assert(const SgEntry& e, IfaceId iface) {
  HpimAssert a;
  a.group = e.group;
  a.source = e.source;
  a.metric_preference = config_.metric_preference;
  a.metric = e.rpf_metric;
  emit(iface, HpimType::kAssert, a.body(), Address::all_pim_routers());
}

Address HpimDmRouter::control_source(IfaceId iface) const {
  return stack_->has_global_address(iface) ? stack_->global_address(iface)
                                           : stack_->link_local_address(iface);
}

void HpimDmRouter::on_assert_lost(SgEntry& e, IfaceId iface,
                                  const Address&) {
  // The winner keeps forwarding onto this LAN while any neighbor there is
  // undeclared, and the loser counts as one: declare no interest, as a
  // PIM-DM loser prunes toward the winner. Routers that use the LAN keep
  // their own declarations, so this only clears truly unneeded branches.
  if (rate_allows(downstream(e, iface).last_nonrpf_tx)) {
    decline_nonrpf(e, iface);
  }
}

void HpimDmRouter::adopt_assert_winner(SgEntry& e,
                                       const AssertMetric& winner) {
  // Already our upstream: nothing to re-declare, and the recorded winner
  // stays as it was.
  if (e.rpf_neighbor == winner.addr) return;
  DenseModeEngine::adopt_assert_winner(e, winner);
  on_upstream_moved(e);
}

void HpimDmRouter::on_upstream_moved(SgEntry& e) {
  // Re-declare interest to the new upstream.
  hpim(e).my_interest.reset();
  check_upstream(e);
}

void HpimDmRouter::apply_interest(const Address& from, IfaceId iface,
                                  const Address& src, const Address& group,
                                  bool interested) {
  SgEntry* e = find_entry(src, group);
  if (e == nullptr) {
    e = create_entry(src, group);
    if (e == nullptr) return;
  }
  if (iface == e->incoming) return;  // upstream neighbors have no say here
  HpimDownstream& d = hpim(downstream(*e, iface));
  auto [it, fresh] = d.declared.try_emplace(from, interested);
  if (!fresh) {
    if (it->second == interested) return;
    it->second = interested;
  }
  data_plane_.invalidate(src, group);
  trace_event("interest-recorded", [&] {
    return "src=" + src.str() + " group=" + group.str() + " nbr=" +
           from.str() + " interested=" + (interested ? "1" : "0");
  });
  check_upstream(*e);
}

// ---------------------------------------------------------------------------
// Control plane

void HpimDmRouter::on_hpim_message(const ParsedDatagram& d, IfaceId iface) {
  if (!enabled(iface)) return;
  auto reject = [&](const ParseFailure& f) {
    count("hpimdm/rx-drop/parse-error");
    note_parse_reject(stack_->network(), "hpimdm", f);
  };
  ParseResult<HpimHeader> hdr =
      try_parse_hpim(d.payload, d.hdr.src, d.hdr.dst);
  if (!hdr.ok()) {
    reject(hdr.failure());
    return;
  }
  HpimHeader h = std::move(hdr).value();
  switch (h.type) {
    case HpimType::kHello: {
      ParseResult<HpimHello> m = HpimHello::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_hello(m.value(), d.hdr.src, iface);
      break;
    }
    case HpimType::kAck: {
      ParseResult<HpimAck> m = HpimAck::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_ack(m.value(), d.hdr.src, iface);
      break;
    }
    case HpimType::kInterest: {
      ParseResult<HpimInterest> m = HpimInterest::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_interest(m.value(), d.hdr.src, iface);
      break;
    }
    case HpimType::kSync: {
      ParseResult<HpimSync> m = HpimSync::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_sync(m.value(), d.hdr.src, iface);
      break;
    }
    case HpimType::kAssert: {
      ParseResult<HpimAssert> m = HpimAssert::try_parse(h.body);
      if (!m.ok()) return reject(m.failure());
      on_assert(m.value(), d.hdr.src, iface);
      break;
    }
  }
}

void HpimDmRouter::on_hello(const HpimHello& hello, const Address& from,
                            IfaceId iface) {
  NeighborChannel* found = channel(iface, from);
  if (found == nullptr) {
    ensure_channel(iface, from, hello.holdtime, hello.generation_id,
                   /*generation_known=*/true);
    return;
  }
  NeighborChannel& ch = *found;
  ch.liveness->arm(Time::sec(hello.holdtime));
  if (!ch.generation_known) {
    // Channel adopted from a sequenced message before any hello: this is
    // the first word on the neighbor's incarnation, not a reboot.
    ch.generation_id = hello.generation_id;
    ch.generation_known = true;
    return;
  }
  if (ch.generation_id != hello.generation_id) {
    // The neighbor rebooted: its receive expectations are gone. Reset the
    // channel's sequence machinery but KEEP every interest it declared —
    // that is hard state and keeps forwarding alive through the outage —
    // then re-sync our own interest toward it.
    ch.generation_id = hello.generation_id;
    ch.tx_seq = 0;
    ch.rx_expected = 1;
    ch.pending.clear();
    ch.retx_timer->cancel();
    ch.rto = config_.ack_timeout;
    count("hpimdm/neighbor-resync");
    trace_event("neighbor-resync", [&] {
      return "iface=" + std::to_string(iface) + " nbr=" + from.str();
    });
    send_hello(iface);  // triggered: the rebooted side relearns us fast
    schedule_sync(iface, from);
  }
}

HpimDmRouter::NeighborChannel* HpimDmRouter::channel(IfaceId iface,
                                                     const Address& nbr) {
  auto it = ifaces_.find(iface);
  if (it == ifaces_.end()) return nullptr;
  auto nit = it->second.neighbors.find(nbr);
  return nit == it->second.neighbors.end()
             ? nullptr
             : static_cast<NeighborChannel*>(nit->second.get());
}

HpimDmRouter::NeighborChannel& HpimDmRouter::ensure_channel(
    IfaceId iface, const Address& nbr, std::uint16_t holdtime_s,
    std::uint32_t generation_id, bool generation_known) {
  Iface& st = ifaces_.at(iface);
  auto it = st.neighbors.find(nbr);
  if (it != st.neighbors.end()) {
    return static_cast<NeighborChannel&>(*it->second);
  }

  auto ch = std::make_unique<NeighborChannel>();
  ch->generation_id = generation_id;
  ch->generation_known = generation_known;
  ch->rto = config_.ack_timeout;
  ch->liveness = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface, nbr] {
        neighbor_failed(iface, nbr, "holdtime expired");
      }, stack_->node().domain());
  ch->liveness->arm(Time::sec(holdtime_s));
  ch->retx_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface, nbr] {
        NeighborChannel* c = channel(iface, nbr);
        if (c == nullptr || c->pending.empty()) return;
        for (const Pending& p : c->pending) {
          emit(iface, p.type, p.body, nbr);
        }
        count("hpimdm/retx", c->pending.size());
        Time next = c->rto + c->rto;  // exponential backoff
        c->rto = next < config_.ack_timeout_max ? next
                                                : config_.ack_timeout_max;
        c->retx_timer->arm(c->rto);
      }, stack_->node().domain());
  ch->sync_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, iface, nbr] {
        NeighborChannel* c = channel(iface, nbr);
        if (c != nullptr && c->sync_pending) send_sync(iface, nbr);
      }, stack_->node().domain());
  NeighborChannel& added = *ch;
  st.neighbors.emplace(nbr, std::move(ch));
  // A new (unknown-interest) neighbor turns interfaces forwarding.
  data_plane_.invalidate_all();
  count("hpimdm/neighbor-up");
  trace_event("neighbor-up", [&] {
    return "iface=" + std::to_string(iface) + " nbr=" + nbr.str();
  });
  // Triggered hello so the new neighbor learns us (and our generation id)
  // quickly, then reliably sync the tree state routed through it.
  send_hello(iface);
  schedule_sync(iface, nbr);
  return added;
}

void HpimDmRouter::neighbor_failed(IfaceId iface, const Address& nbr,
                                   const char* why) {
  auto it = ifaces_.find(iface);
  if (it == ifaces_.end()) return;
  if (it->second.neighbors.erase(nbr) == 0) return;
  // The neighbor set feeds every entry's oif set on this iface.
  data_plane_.invalidate_all();
  count("hpimdm/neighbor-expired");
  trace_event("neighbor-expired", [&, why] {
    return "iface=" + std::to_string(iface) + " nbr=" + nbr.str() + " (" +
           why + ")";
  });
  // Graceful degradation: drop everything the neighbor declared and let
  // interest recomputation settle the trees without it.
  for (auto& [key, e] : entries_) {
    auto dit = e->downstream.find(iface);
    if (dit != e->downstream.end() &&
        hpim(*dit->second).declared.erase(nbr) > 0) {
      check_upstream(*e);
    }
    if (e->incoming == iface && e->rpf_neighbor == nbr) {
      // Upstream gone: undeclared until a replacement (assert winner or
      // RPF re-anchor) shows up.
      hpim(*e).my_interest.reset();
    }
  }
}

bool HpimDmRouter::accept_sequenced(IfaceId iface, const Address& from,
                                    std::uint32_t seq) {
  // A sequenced message from a neighbor we have no channel for (its hello
  // lost or not yet seen): adopt it, it is evidently alive. The next hello
  // corrects holdtime and generation id.
  NeighborChannel& ch = ensure_channel(iface, from, config_.hello_holdtime_s,
                                       0, /*generation_known=*/false);
  if (seq == ch.rx_expected) {
    ++ch.rx_expected;
    send_ack(iface, from, seq);
    return true;
  }
  // Duplicate or gap: re-ack the last in-order point so the sender's
  // cumulative ack state converges; go-back-N retransmission fills gaps.
  send_ack(iface, from, ch.rx_expected - 1);
  count(seq < ch.rx_expected ? "hpimdm/rx-duplicate" : "hpimdm/rx-gap");
  return false;
}

void HpimDmRouter::on_ack(const HpimAck& ack, const Address& from,
                          IfaceId iface) {
  NeighborChannel* ch = channel(iface, from);
  if (ch == nullptr) return;
  bool progressed = false;
  while (!ch->pending.empty() && ch->pending.front().seq <= ack.seq) {
    ch->pending.pop_front();
    progressed = true;
  }
  if (!progressed) return;
  ch->rto = config_.ack_timeout;
  if (ch->pending.empty()) {
    ch->retx_timer->cancel();
  } else {
    ch->retx_timer->arm(ch->rto);
  }
}

void HpimDmRouter::on_interest(const HpimInterest& m, const Address& from,
                               IfaceId iface) {
  if (!accept_sequenced(iface, from, m.seq)) return;
  count("hpimdm/rx/interest");
  apply_interest(from, iface, m.source, m.group, m.interested);
}

void HpimDmRouter::on_sync(const HpimSync& m, const Address& from,
                           IfaceId iface) {
  if (!accept_sequenced(iface, from, m.seq)) return;
  count("hpimdm/rx/sync");
  for (const HpimSync::Entry& se : m.entries) {
    apply_interest(from, iface, se.source, se.group, se.interested);
  }
}

void HpimDmRouter::on_mld_change(IfaceId iface, const Address& group,
                                 bool present) {
  if (present) {
    leaf_groups_[iface].insert(group);
  } else {
    auto it = leaf_groups_.find(iface);
    if (it != leaf_groups_.end()) {
      it->second.erase(group);
      if (it->second.empty()) leaf_groups_.erase(it);
    }
  }
  DenseModeEngine::on_mld_change(iface, group, present);
}

void HpimDmRouter::reconcile_leaf_groups() {
  std::vector<std::pair<IfaceId, Address>> stale;
  for (const auto& [iface, groups] : leaf_groups_) {
    for (const Address& g : groups) {
      if (!mld_->has_listeners(iface, g)) stale.emplace_back(iface, g);
    }
  }
  for (const auto& [iface, g] : stale) {
    count("hpimdm/leaf-reconciled");
    on_mld_change(iface, g, false);
  }
}

// ---------------------------------------------------------------------------
// Reliable channel senders

std::uint32_t HpimDmRouter::next_seq(IfaceId iface, const Address& nbr) {
  NeighborChannel* ch = channel(iface, nbr);
  if (ch == nullptr) throw LogicError("next_seq without a channel");
  return ++ch->tx_seq;
}

void HpimDmRouter::send_reliable(IfaceId iface, const Address& nbr,
                                 HpimType type, Bytes body_with_seq,
                                 std::uint32_t seq) {
  NeighborChannel* ch = channel(iface, nbr);
  if (ch == nullptr) return;
  if (ch->pending.size() >= config_.max_retransmit_queue) {
    // The neighbor is not acking: bounded queue, same consequence as a
    // holdtime expiry.
    count("hpimdm/channel-overflow");
    neighbor_failed(iface, nbr, "retransmit queue overflow");
    return;
  }
  ch->pending.push_back(Pending{seq, type, body_with_seq});
  emit(iface, type, body_with_seq, nbr);
  if (!ch->retx_timer->running()) {
    ch->rto = config_.ack_timeout;
    ch->retx_timer->arm(ch->rto);
  }
}

HpimDmRouter::NeighborChannel* HpimDmRouter::upstream_channel(
    SgEntry& e, Address* nbr_out) {
  auto it = ifaces_.find(e.incoming);
  if (it == ifaces_.end()) return nullptr;
  auto nit = it->second.neighbors.find(e.rpf_neighbor);
  if (nit != it->second.neighbors.end()) {
    if (nbr_out != nullptr) *nbr_out = nit->first;
    return static_cast<NeighborChannel*>(nit->second.get());
  }
  // The RPF neighbor's hello has not arrived (or names another of its
  // addresses): with exactly one neighbor on the incoming interface it can
  // only be that one. Otherwise stay silent — sync-on-neighbor-up heals
  // the miss once the channel exists.
  if (it->second.neighbors.size() == 1) {
    auto& only = *it->second.neighbors.begin();
    if (nbr_out != nullptr) *nbr_out = only.first;
    return static_cast<NeighborChannel*>(only.second.get());
  }
  return nullptr;
}

void HpimDmRouter::schedule_sync(IfaceId iface, const Address& nbr) {
  NeighborChannel* ch = channel(iface, nbr);
  if (ch == nullptr) return;
  ch->sync_pending = true;
  Time since = ch->last_sync_tx.is_never() ? Time::never()
                                           : now() - ch->last_sync_tx;
  if (since.is_never() || since >= config_.sync_min_interval) {
    send_sync(iface, nbr);
  } else if (!ch->sync_timer->running()) {
    // Storm damping: coalesce triggers into one deferred transmission.
    ch->sync_timer->arm(config_.sync_min_interval - since);
    count("hpimdm/sync-damped");
  }
}

void HpimDmRouter::send_sync(IfaceId iface, const Address& nbr) {
  NeighborChannel* ch = channel(iface, nbr);
  if (ch == nullptr) return;
  ch->sync_pending = false;
  ch->sync_timer->cancel();
  ch->last_sync_tx = now();

  // Everything we route through this neighbor, with our current interest.
  // Interest toward a non-RPF neighbor is deliberately NOT synced: it
  // would keep a sibling's oif alive and duplicate traffic.
  std::vector<HpimSync::Entry> entries;
  for (auto& [key, e] : entries_) {
    if (e->incoming != iface) continue;
    Address up;
    if (upstream_channel(*e, &up) != channel(iface, nbr) || up != nbr) {
      continue;
    }
    bool wants = wants_traffic(*e);
    hpim(*e).my_interest = wants;
    entries.push_back(HpimSync::Entry{e->source, e->group, wants});
  }
  if (entries.empty()) return;

  for (std::size_t off = 0; off < entries.size();
       off += config_.sync_fragment_entries) {
    HpimSync frag;
    std::size_t end =
        std::min(off + config_.sync_fragment_entries, entries.size());
    frag.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(off),
                        entries.begin() + static_cast<std::ptrdiff_t>(end));
    frag.more = end < entries.size();
    frag.seq = next_seq(iface, nbr);
    send_reliable(iface, nbr, HpimType::kSync, frag.body(), frag.seq);
    count("hpimdm/tx/sync");
  }
  trace_event("tx-sync", [&] {
    return "iface=" + std::to_string(iface) + " nbr=" + nbr.str() +
           " entries=" + std::to_string(entries.size());
  });
}

// ---------------------------------------------------------------------------
// Emission

void HpimDmRouter::emit(IfaceId iface, HpimType type, BytesView body,
                        const Address& dst) {
  DatagramSpec spec;
  spec.src = control_source(iface);
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_hpim(type, body, spec.src, spec.dst);
  std::size_t wire = Ipv6Header::kSize + spec.payload.size();
  stack_->send_on_iface(iface, spec);
  stack_->network().counters().add("hpimdm/tx-bytes", wire);
}

void HpimDmRouter::send_ack(IfaceId iface, const Address& to,
                            std::uint32_t seq) {
  HpimAck ack;
  ack.seq = seq;
  emit(iface, HpimType::kAck, ack.body(), to);
  count("hpimdm/tx/ack");
}

void HpimDmRouter::send_interest(HpimEntry& e, bool interested) {
  Address nbr;
  NeighborChannel* ch = upstream_channel(e, &nbr);
  if (ch == nullptr) return;  // healed by sync once the channel exists
  HpimInterest m;
  m.source = e.source;
  m.group = e.group;
  m.interested = interested;
  m.seq = ++ch->tx_seq;
  e.my_interest = interested;
  send_reliable(e.incoming, nbr, HpimType::kInterest, m.body(), m.seq);
  count("hpimdm/tx/interest");
  trace_event("tx-interest", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + nbr.str() + " interested=" +
           (interested ? "1" : "0");
  });
}

std::uint32_t HpimDmRouter::fresh_generation_id() {
  // Drawn from the per-network deterministic RNG: same seed, same ids,
  // byte-identical traces.
  return static_cast<std::uint32_t>(stack_->network().rng().next_u64());
}

}  // namespace mip6

#include "pimdm/router.hpp"

#include "net/wire_stats.hpp"

namespace mip6 {

PimDmRouter::PimDmRouter(Ipv6Stack& stack, MldRouter& mld, PimDmConfig config)
    : DenseModeEngine(stack, mld, "pimdm", config), config_(config) {
  stack.set_proto_handler(
      proto::kPim,
      [this](const ParsedDatagram& d, const Packet&, IfaceId iface) {
        on_pim_message(d, iface);
      });
}

// ---------------------------------------------------------------------------
// Introspection

bool PimDmRouter::upstream_pruned(const Address& src,
                                  const Address& group) const {
  const SgEntry* e = find_entry(src, group);
  return e != nullptr && pim(*e).upstream_pruned;
}

PimDmRouter::DownstreamState PimDmRouter::downstream_state(
    const Address& src, const Address& group, IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) throw LogicError("no such (S,G) entry");
  auto it = e->downstream.find(iface);
  if (it == e->downstream.end()) return DownstreamState::kForwarding;
  return pim(*it->second).state;
}

bool PimDmRouter::downstream_pruned(const Address& src, const Address& group,
                                    IfaceId iface) const {
  const SgEntry* e = find_entry(src, group);
  if (e == nullptr) return false;
  auto it = e->downstream.find(iface);
  return it != e->downstream.end() &&
         pim(*it->second).state == DownstreamState::kPruned;
}

// ---------------------------------------------------------------------------
// DenseModeEngine hooks

std::unique_ptr<DenseModeEngine::SgEntry> PimDmRouter::make_entry(
    const SgKey& key, const Route& route) {
  auto e = std::make_unique<PimEntry>();
  e->graft_retry_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && pim(*entry).graft_pending) {
          count("pimdm/graft-retry");
          send_graft_upstream(pim(*entry));
        }
      }, stack_->node().domain());
  e->join_override_timer = std::make_unique<Timer>(
      stack_->scheduler(), [this, key] {
        SgEntry* entry = find_entry(key.source, key.group);
        if (entry != nullptr && wants_traffic(*entry)) {
          // Name the router the observed prune was addressed to: a Join
          // only overrides a prune if it targets the same upstream.
          PimEntry& pe = pim(*entry);
          const Address& target = pe.join_override_target.is_unspecified()
                                      ? pe.rpf_neighbor
                                      : pe.join_override_target;
          send_join_override(pe, target);
        }
      }, stack_->node().domain());
  if (config_.state_refresh && route.on_link()) {
    // We are a first-hop router for this source: originate refresh waves.
    e->state_refresh_timer = std::make_unique<Timer>(
        stack_->scheduler(), [this, key] {
          SgEntry* entry = find_entry(key.source, key.group);
          if (entry == nullptr) return;
          originate_state_refresh(pim(*entry));
          pim(*entry).state_refresh_timer->arm(
              config_.state_refresh_interval);
        }, stack_->node().domain());
    e->state_refresh_timer->arm(config_.state_refresh_interval);
  }
  return e;
}

std::unique_ptr<DenseModeEngine::Downstream> PimDmRouter::make_downstream()
    const {
  return std::make_unique<PimDownstream>();
}

bool PimDmRouter::downstream_wants(const SgEntry& e, IfaceId iface,
                                   const Downstream& d) const {
  // Members always get traffic; otherwise forward only where PIM
  // neighbors exist and have not pruned.
  return mld_->has_listeners(iface, e.group) ||
         ((pim(d).state != DownstreamState::kPruned) && has_neighbors(iface));
}

void PimDmRouter::update_upstream(SgEntry& e, bool wants) {
  PimEntry& pe = pim(e);
  if (pe.rpf_neighbor.is_unspecified()) return;  // we are the first hop
  if (wants) {
    if (pe.upstream_pruned) send_graft_upstream(pe);
  } else {
    if (!pe.upstream_pruned) send_prune_upstream(pe);
  }
}

void PimDmRouter::on_unwanted_data(SgEntry& e) {
  // Prune ourselves off the tree, rate-limited: on a LAN the upstream may
  // keep transmitting because a sibling overrode.
  PimEntry& pe = pim(e);
  if (!pe.rpf_neighbor.is_unspecified() &&
      (pe.last_prune_tx.is_never() ||
       now() - pe.last_prune_tx >= config_.prune_hold_time)) {
    send_prune_upstream(pe);
  }
}

void PimDmRouter::decline_nonrpf(SgEntry& e, IfaceId iface) {
  // Prune the forwarder(s) on this link. Any router that still needs the
  // link overrides with a Join, and MLD members keep it in the forwarder's
  // oif list anyway.
  auto holdtime =
      static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
  for (const Address& nbr : neighbors(iface)) {
    PimJoinPrune m = PimJoinPrune::prune(nbr, e.source, e.group, holdtime);
    emit(iface, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
    count("pimdm/tx/nonrpf-prune");
  }
}

void PimDmRouter::emit_hello(IfaceId iface) {
  PimHello hello;
  hello.holdtime =
      static_cast<std::uint16_t>(config_.hello_holdtime.to_seconds());
  emit(iface, PimType::kHello, hello.body(), Address::all_pim_routers());
}

void PimDmRouter::emit_assert(const SgEntry& e, IfaceId iface) {
  PimAssert a;
  a.group = e.group;
  a.source = e.source;
  a.metric_preference = config_.metric_preference;
  a.metric = e.rpf_metric;
  emit(iface, PimType::kAssert, a.body(), Address::all_pim_routers());
}

Address PimDmRouter::control_source(IfaceId iface) const {
  return stack_->link_local_address(iface);
}

void PimDmRouter::on_assert_lost(SgEntry& e, IfaceId iface,
                                 const Address& winner) {
  // A loser that doesn't consume from this LAN itself (it is not its RPF
  // interface) prunes toward the winner; routers that do depend on the
  // LAN answer with an overriding Join, so this only clears truly
  // unneeded branches (RFC 3973 assert-loser prune behaviour).
  if (mld_->has_listeners(iface, e.group)) return;
  auto holdtime =
      static_cast<std::uint16_t>(config_.prune_hold_time.to_seconds());
  PimJoinPrune m = PimJoinPrune::prune(winner, e.source, e.group, holdtime);
  emit(iface, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  count("pimdm/tx/assert-loser-prune");
}

bool PimDmRouter::contests_assert(const Downstream& d) const {
  // Pruned and prune-pending interfaces stay out of the election.
  return pim(d).state == DownstreamState::kForwarding;
}

// ---------------------------------------------------------------------------
// Control plane

void PimDmRouter::on_pim_message(const ParsedDatagram& d, IfaceId iface) {
  if (!enabled(iface)) return;
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
      on_join_prune(m.value(), iface);
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
      on_graft_ack(m.value());
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
  Iface& st = ifaces_.at(iface);
  auto it = st.neighbors.find(from);
  if (it == st.neighbors.end()) {
    auto nbr = std::make_unique<Neighbor>();
    nbr->liveness = std::make_unique<Timer>(
        stack_->scheduler(), [this, iface, from] {
          ifaces_.at(iface).neighbors.erase(from);
          // has_neighbors() feeds every entry's oif set on this iface.
          data_plane_.invalidate_all();
          count("pimdm/neighbor-expired");
          trace_event("neighbor-expired", [&] {
            return "iface=" + std::to_string(iface) + " nbr=" + from.str();
          });
        }, stack_->node().domain());
    nbr->liveness->arm(Time::sec(hello.holdtime));
    st.neighbors.emplace(from, std::move(nbr));
    data_plane_.invalidate_all();  // a new neighbor turns ifaces forwarding
    count("pimdm/neighbor-up");
    trace_event("neighbor-up", [&] {
      return "iface=" + std::to_string(iface) + " nbr=" + from.str();
    });
    // Triggered hello so the new neighbor learns us quickly.
    send_hello(iface);
  } else {
    it->second->liveness->arm(Time::sec(hello.holdtime));
  }
}

void PimDmRouter::on_join_prune(const PimJoinPrune& jp, IfaceId iface) {
  // The message's upstream_neighbor field drives everything, not its sender.
  bool to_me = stack_->owns_address(jp.upstream_neighbor);
  for (const auto& g : jp.groups) {
    for (const auto& src : g.pruned_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // We are the upstream: begin the LAN prune delay; an overriding
        // Join within T_PruneDel cancels it.
        PimDownstream& d = pim(downstream(*e, iface));
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
                  PimDownstream& dd = pim(downstream(*entry, iface));
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
                          PimDownstream& x = pim(downstream(*en, iface));
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
        PimEntry& pe = pim(*e);
        pe.join_override_target = jp.upstream_neighbor;
        if (!pe.join_override_timer->running()) {
          Time delay = Time::ns(static_cast<std::int64_t>(
              stack_->network().rng().uniform() *
              static_cast<double>(config_.join_override_window.nanos())));
          pe.join_override_timer->arm(delay);
        }
      }
    }
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      if (to_me) {
        // Join override received: cancel a pending prune on that iface.
        PimDownstream& d = pim(downstream(*e, iface));
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
        pim(*e).join_override_timer->cancel();
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
      PimDownstream& d = pim(downstream(*e, iface));
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

void PimDmRouter::on_graft_ack(const PimJoinPrune& ack) {
  for (const auto& g : ack.groups) {
    for (const auto& src : g.joined_sources) {
      SgEntry* e = find_entry(src, g.group);
      if (e == nullptr) continue;
      pim(*e).graft_pending = false;
      pim(*e).graft_retry_timer->cancel();
    }
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
        d.last_nonrpf_tx = now();
        decline_nonrpf(*e, iface);
      }
    }
    return;
  }
  // The wave attests that the source is alive: refresh the (S,G) entry.
  e->entry_timer->extend(config_.data_timeout);
  // A router that pruned itself off re-advertises its prune so the
  // upstream holdtime is refreshed instead of expiring into a re-flood.
  PimEntry& pe = pim(*e);
  if (pe.upstream_pruned && !pe.rpf_neighbor.is_unspecified()) {
    send_prune_upstream(pe);
  }
  forward_state_refresh(pe, sr);
}

void PimDmRouter::originate_state_refresh(PimEntry& e) {
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

void PimDmRouter::forward_state_refresh(PimEntry& e,
                                        const PimStateRefresh& sr) {
  if (sr.ttl <= 1) return;
  for (auto& [iface, d] : e.downstream) {
    if (iface == e.incoming) continue;
    if (!has_neighbors(iface)) continue;
    PimStateRefresh out = sr;
    out.ttl = static_cast<std::uint8_t>(sr.ttl - 1);
    out.prune_indicator = (pim(*d).state == DownstreamState::kPruned);
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
  spec.src = control_source(iface);
  spec.dst = dst;
  spec.hop_limit = 1;
  spec.protocol = proto::kPim;
  spec.payload = serialize_pim(type, body, spec.src, spec.dst);
  std::size_t wire = Ipv6Header::kSize + spec.payload.size();
  stack_->send_on_iface(iface, spec);
  stack_->network().counters().add("pimdm/tx-bytes", wire);
}

void PimDmRouter::send_prune_upstream(PimEntry& e) {
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

void PimDmRouter::send_graft_upstream(PimEntry& e) {
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

void PimDmRouter::send_join_override(PimEntry& e, const Address& upstream) {
  PimJoinPrune m = PimJoinPrune::join(upstream, e.source, e.group);
  emit(e.incoming, PimType::kJoinPrune, m.body(), Address::all_pim_routers());
  count("pimdm/tx/join-override");
  trace_event("tx-join-override", [&] {
    return "src=" + e.source.str() + " group=" + e.group.str() +
           " upstream=" + upstream.str();
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

}  // namespace mip6

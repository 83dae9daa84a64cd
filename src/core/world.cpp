#include "core/world.hpp"

#include "core/partition.hpp"
#include "util/errors.hpp"

namespace mip6 {

World::World(std::uint64_t seed, WorldConfig config)
    : config_(config), net_(seed), routing_(net_, plan_) {}

World::~World() { stop(); }

void World::stop() {
  for (auto it = hosts_.rbegin(); it != hosts_.rend(); ++it) {
    (*it)->stop_modules();
  }
  for (auto it = routers_.rbegin(); it != routers_.rend(); ++it) {
    (*it)->stop_modules();
  }
}

Link& World::add_link(const std::string& name, const std::string& prefix) {
  Link& link = net_.add_link(name, config_.link_delay,
                             config_.link_bit_rate_bps);
  std::string p = prefix;
  if (p.empty()) {
    p = "2001:db8:" + std::to_string(next_prefix_index_++) + "::/64";
  }
  plan_.set_link_prefix(link.id(), Prefix::parse(p));
  return link;
}

NodeRuntime& World::add_router(const std::string& name,
                               const std::vector<Link*>& links,
                               const RouterOptions& opts) {
  if (opts.with_pim && !opts.with_mld) {
    throw LogicError("router " + name +
                     ": module 'pimdm' requires 'mld' (PIM learns local "
                     "receivers from MLD)");
  }
  if (opts.with_ha && !opts.with_pim) {
    throw LogicError("router " + name +
                     ": module 'home-agent' requires 'pimdm' (PIM-backed "
                     "group membership)");
  }
  const bool with_ripng =
      opts.with_ripng.value_or(config_.unicast == UnicastRouting::kRipng);

  auto rt = std::make_unique<NodeRuntime>(net_.add_node(name),
                                          /*router=*/true);
  for (Link* link : links) {
    Interface& iface = rt->node->add_interface();
    iface.attach(*link);
  }
  rt->stack = &rt->emplace_module<Ipv6Stack>(*rt->node, plan_,
                                             /*forwarding=*/true);
  // Addresses: link-local + global per attached interface.
  for (const auto& iface : rt->node->interfaces()) {
    rt->stack->add_address(
        iface->id(),
        Address::from_prefix_iid(Address::parse("fe80::"), rt->stack->iid()));
    const Prefix& prefix = plan_.prefix_of(iface->link()->id());
    rt->stack->add_address(
        iface->id(),
        Address::from_prefix_iid(prefix.network(), rt->stack->iid()));
  }
  rt->dispatch = &rt->emplace_module<Icmpv6Dispatcher>(*rt->stack);
  rt->udp = &rt->emplace_module<UdpDemux>(*rt->stack);
  if (opts.with_mld) {
    rt->mld = &rt->emplace_module<MldRouter>(*rt->stack, *rt->dispatch,
                                             opts.mld.value_or(config_.mld));
  }
  if (opts.with_pim) {
    switch (opts.engine.value_or(config_.dense_engine)) {
      case DenseEngineKind::kPimDm:
        rt->pim = &rt->emplace_module<PimDmRouter>(
            *rt->stack, *rt->mld, opts.pim.value_or(config_.pim));
        rt->dense = rt->pim;
        break;
      case DenseEngineKind::kHpimDm:
        rt->hpim = &rt->emplace_module<HpimDmRouter>(
            *rt->stack, *rt->mld, opts.hpim.value_or(config_.hpim));
        rt->dense = rt->hpim;
        break;
    }
  }
  for (const auto& iface : rt->node->interfaces()) {
    if (rt->mld) rt->mld->enable_iface(iface->id());
    if (rt->dense) rt->dense->enable_iface(iface->id());
  }
  if (with_ripng) {
    rt->ripng = &rt->emplace_module<Ripng>(
        *rt->stack, *rt->udp, opts.ripng.value_or(config_.ripng));
    for (const auto& iface : rt->node->interfaces()) {
      rt->ripng->enable_iface(iface->id());
    }
  }
  if (opts.with_ha) {
    // Home agent with dense-engine-backed group membership ("HA is a
    // multicast router") — engine-agnostic, so either engine serves.
    rt->ha = &rt->emplace_module<HomeAgent>(
        *rt->stack, *rt->dense, opts.mipv6.value_or(config_.mipv6));
  }
  if (opts.with_proxy && rt->dense != nullptr) {
    // hier-proxy agent: idle (no timers, no traffic) until an MN registers,
    // so enabling it by default costs nothing on legacy scenarios.
    rt->proxy =
        &rt->emplace_module<MulticastProxy>(*rt->stack, *rt->udp, *rt->dense);
  }
  if (opts.with_ar_agent && rt->mld != nullptr) {
    // mcast-mobility agent: likewise idle until an MN sends an ArJoin.
    rt->ar_agent =
        &rt->emplace_module<AccessRouterAgent>(*rt->stack, *rt->udp, *rt->mld);
  }
  routing_.register_stack(*rt->stack);
  // First router on a link becomes its default router / home agent.
  for (Link* link : links) {
    if (!plan_.default_router(link->id())) {
      plan_.set_default_router(link->id(), rt->address_on(*link));
    }
  }
  routers_.push_back(std::move(rt));
  return *routers_.back();
}

NodeRuntime& World::add_host(const std::string& name, Link& home,
                             const HostOptions& opts) {
  auto rt = std::make_unique<NodeRuntime>(net_.add_node(name),
                                          /*router=*/false);
  Interface& iface = rt->node->add_interface();
  iface.attach(home);
  rt->stack = &rt->emplace_module<Ipv6Stack>(*rt->node, plan_,
                                             /*forwarding=*/false);
  rt->dispatch = &rt->emplace_module<Icmpv6Dispatcher>(*rt->stack);
  rt->mld_host = &rt->emplace_module<MldHost>(
      *rt->stack, *rt->dispatch, opts.mld.value_or(config_.mld),
      opts.mld_host.value_or(config_.mld_host));

  const Prefix& home_prefix = plan_.prefix_of(home.id());
  Address home_addr =
      Address::from_prefix_iid(home_prefix.network(), rt->stack->iid());
  auto gw = plan_.default_router(home.id());
  if (!gw) {
    throw LogicError("host " + name + " added to link " + home.name() +
                     " without a router (add the router first)");
  }
  rt->mn = &rt->emplace_module<MobileNode>(*rt->stack, iface.id(), home_addr,
                                           *gw,
                                           opts.mipv6.value_or(config_.mipv6));
  rt->service = &rt->emplace_module<MobileMulticastService>(
      *rt->mn, *rt->mld_host, opts.strategy, opts.mld.value_or(config_.mld));
  routing_.register_stack(*rt->stack);
  hosts_.push_back(std::move(rt));
  return *hosts_.back();
}

void World::set_link_router(Link& link, NodeRuntime& router) {
  plan_.set_default_router(link.id(), router.address_on(link));
}

void World::set_link_proxy(Link& link, NodeRuntime& router) {
  if (router.proxy == nullptr) {
    throw LogicError("set_link_proxy: router " + router.node->name() +
                     " runs no multicast proxy");
  }
  // The proxy may serve links it is not attached to (that is the point of a
  // *domain* proxy), so advertise any global address of the router — the
  // registration travels by unicast routing.
  for (const auto& iface : router.node->interfaces()) {
    if (iface->attached() && router.stack->has_global_address(iface->id())) {
      plan_.set_mcast_proxy(link.id(),
                            router.stack->global_address(iface->id()));
      return;
    }
  }
  throw LogicError("set_link_proxy: router " + router.node->name() +
                   " has no global address");
}

void World::finalize() {
  if (config_.unicast == UnicastRouting::kRipng) {
    // Router RIBs belong to RIPng; only hosts need autoconfiguration.
    routing_.autoconfigure_hosts();
  } else {
    routing_.recompute();
  }
}

std::uint32_t World::enable_parallel(std::uint32_t threads) {
  if (threads <= 1) {
    net_.disable_sharding();
    return 1;
  }
  std::vector<bool> is_host(net_.nodes().size(), false);
  for (const auto& h : hosts_) is_host[h->node->id()] = true;
  Partition part = partition_topology(net_, is_host, threads);
  if (part.shards <= 1) {
    net_.disable_sharding();
    return 1;
  }
  net_.enable_sharding(std::move(part.domain_shard), part.shards,
                       part.lookahead);
  return part.shards;
}

NodeRuntime& World::router_by_name(const std::string& name) const {
  for (const auto& r : routers_) {
    if (r->node->name() == name) return *r;
  }
  throw LogicError("no router named " + name);
}

NodeRuntime& World::host_by_name(const std::string& name) const {
  for (const auto& h : hosts_) {
    if (h->node->name() == name) return *h;
  }
  throw LogicError("no host named " + name);
}

}  // namespace mip6

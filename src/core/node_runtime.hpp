// One node's protocol-module stack: the ordered set of ProtocolModules a
// World instantiated on a Node, plus typed shortcut pointers for tests,
// benches and the auditor (null when the node's module set omits them).
//
// Lifecycle is generic: the runtime registers crash/restart hooks on its
// Node, so Node::crash() drives every module's on_crash() in reverse
// construction order (after the interfaces detached) and Node::restart()
// drives on_restart() in construction order (after re-attachment). The
// chaos engine therefore only calls node().crash()/restart() — it never
// names an engine. stop_modules() is the deterministic teardown used when
// a World is destroyed and rebuilt within one process.
#pragma once

#include <memory>
#include <vector>

#include "core/mobile_service.hpp"
#include "ipv6/icmpv6_dispatch.hpp"
#include "ipv6/ripng.hpp"
#include "ipv6/stack.hpp"
#include "ipv6/udp_demux.hpp"
#include "mipv6/ar_agent.hpp"
#include "mipv6/home_agent.hpp"
#include "mipv6/mcast_proxy.hpp"
#include "mipv6/mobile_node.hpp"
#include "mld/host.hpp"
#include "mld/router.hpp"
#include "hpimdm/router.hpp"
#include "net/network.hpp"
#include "net/protocol_module.hpp"
#include "pimdm/dense_engine.hpp"
#include "pimdm/router.hpp"

namespace mip6 {

class NodeRuntime {
 public:
  NodeRuntime(Node& node, bool router);
  ~NodeRuntime();
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Constructs a module in place and appends it to the lifecycle order.
  /// The caller (World wiring) also assigns the matching typed shortcut.
  /// Construction runs under the node's DomainScope, so every Timer the
  /// module creates binds to this node's domain and fires on its shard
  /// under parallel execution.
  template <class T, class... Args>
  T& emplace_module(Args&&... args) {
    DomainScope scope(node->network().scheduler(), node->domain());
    auto m = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *m;
    modules_.push_back(std::move(m));
    return ref;
  }

  /// Modules in construction order (start/restart order; crash/stop run
  /// in reverse).
  const std::vector<std::unique_ptr<ProtocolModule>>& modules() const {
    return modules_;
  }

  /// First module of dynamic type T, or nullptr — how generic fault/audit
  /// code reaches an engine without assuming the node carries it.
  template <class T>
  T* find() const {
    for (const auto& m : modules_) {
      if (auto* p = dynamic_cast<T*>(m.get())) return p;
    }
    return nullptr;
  }

  /// Stops every module in reverse construction order (idempotent).
  /// Handlers unregister from the stack/dispatch/demux deterministically,
  /// so the World can be torn down and rebuilt within one process.
  void stop_modules();

  bool is_router() const { return router_; }

  /// Global address of this node's interface attached to `link`.
  Address address_on(const Link& link) const;
  IfaceId iface_on(const Link& link) const;
  /// The mobile node's interface (hosts only; throws without an MN).
  IfaceId iface() const;

  // --- Typed shortcuts (non-owning; null when absent) -------------------
  Node* node = nullptr;
  Ipv6Stack* stack = nullptr;
  Icmpv6Dispatcher* dispatch = nullptr;
  UdpDemux* udp = nullptr;
  MldRouter* mld = nullptr;
  MldHost* mld_host = nullptr;
  /// Whichever dense-mode engine the router runs (aliases pim or hpim).
  /// Engine-agnostic code — the auditor, metrics, the home agent — goes
  /// through this one.
  DenseModeEngine* dense = nullptr;
  PimDmRouter* pim = nullptr;
  HpimDmRouter* hpim = nullptr;
  HomeAgent* ha = nullptr;
  MulticastProxy* proxy = nullptr;
  AccessRouterAgent* ar_agent = nullptr;
  Ripng* ripng = nullptr;
  MobileNode* mn = nullptr;
  MobileMulticastService* service = nullptr;

 private:
  bool router_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<ProtocolModule>> modules_;
};

}  // namespace mip6

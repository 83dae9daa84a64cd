// The scenario world: one Network plus a NodeRuntime (ordered
// ProtocolModule stack) per node. By default routers get the full paper
// role — PIM-DM router, MLD querier and Mobile IPv6 home agent — and every
// host is mobility-capable (a host that never moves behaves exactly like a
// static host). Per-node module sets and config overrides allow
// heterogeneous scenarios (e.g. a PIM-less unicast router or a host with a
// different MLD policy).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/node_runtime.hpp"
#include "core/strategy.hpp"
#include "ipv6/global_routing.hpp"
#include "net/network.hpp"

namespace mip6 {

/// Which unicast substrate feeds the RPF checks.
enum class UnicastRouting {
  /// Instantly-converged oracle (ns-3 GlobalRouting style) — default.
  kGlobalOracle,
  /// Real distance-vector protocol with convergence transients.
  kRipng,
};

/// Which dense-mode multicast engine `with_pim` routers run.
enum class DenseEngineKind {
  /// Soft-state flood-and-prune (the paper's substrate) — default.
  kPimDm,
  /// Hard-state engine with reliable, acknowledged control sync.
  kHpimDm,
};

struct WorldConfig {
  MldConfig mld;
  MldHostPolicy mld_host;
  PimDmConfig pim;
  HpimDmConfig hpim;
  Mipv6Config mipv6;
  UnicastRouting unicast = UnicastRouting::kGlobalOracle;
  DenseEngineKind dense_engine = DenseEngineKind::kPimDm;
  RipngConfig ripng;
  /// Per-link propagation delay / bit rate for new links.
  Time link_delay = Time::us(100);
  std::uint64_t link_bit_rate_bps = 0;  // 0 = infinitely fast
};

/// Per-router module selection + config overrides (defaults reproduce the
/// classic full-role router). `ripng` unset follows WorldConfig::unicast;
/// `engine` unset follows WorldConfig::dense_engine.
struct RouterOptions {
  bool with_mld = true;
  bool with_pim = true;       // requires with_mld
  bool with_ha = true;        // requires with_pim (PIM-backed membership)
  bool with_proxy = true;     // hier-proxy agent; requires with_pim
  bool with_ar_agent = true;  // mcast-mobility agent; requires with_mld
  std::optional<DenseEngineKind> engine;
  std::optional<bool> with_ripng;
  std::optional<MldConfig> mld;
  std::optional<PimDmConfig> pim;
  std::optional<HpimDmConfig> hpim;
  std::optional<Mipv6Config> mipv6;
  std::optional<RipngConfig> ripng;
};

/// Per-host strategy + config overrides. Implicitly constructible from a
/// StrategyOptions (or its two enums) so add_host keeps its short forms.
struct HostOptions {
  HostOptions() = default;
  HostOptions(StrategyOptions s) : strategy(s) {}
  HostOptions(McastStrategy s, HaRegistration r) : strategy{s, r} {}

  StrategyOptions strategy;
  std::optional<MldConfig> mld;
  std::optional<MldHostPolicy> mld_host;
  std::optional<Mipv6Config> mipv6;
};

class World {
 public:
  explicit World(std::uint64_t seed = 1, WorldConfig config = {});
  ~World();

  Network& net() { return net_; }
  AddressingPlan& plan() { return plan_; }
  GlobalRouting& routing() { return routing_; }
  Scheduler& scheduler() { return net_.scheduler(); }
  Time now() const { return net_.now(); }
  const WorldConfig& config() const { return config_; }

  /// Creates a link; `prefix` empty means auto ("2001:db8:<n>::/64").
  Link& add_link(const std::string& name, const std::string& prefix = "");

  /// Creates a router attached to `links` with (by default) PIM + MLD
  /// enabled on every interface and a home agent (PIM-backed membership).
  NodeRuntime& add_router(const std::string& name,
                          const std::vector<Link*>& links,
                          const RouterOptions& opts = {});

  /// Creates a (mobility-capable) host homed on `home`, with the link's
  /// designated router as home agent. Strategy defaults to local membership.
  NodeRuntime& add_host(const std::string& name, Link& home,
                        const HostOptions& opts = {});

  /// Designates `router` as default router / home agent for `link` (done
  /// automatically for the first router attached to a link).
  void set_link_router(Link& link, NodeRuntime& router);

  /// Designates `router` (which must run a MulticastProxy) as the
  /// hierarchical multicast proxy serving `link` — the agent hier-proxy MNs
  /// visiting that link register their groups with. Not set by default:
  /// proxy domains are an explicit topology decision.
  void set_link_proxy(Link& link, NodeRuntime& router);

  /// Installs routes and autoconfigures hosts. Call after building the
  /// topology and before run().
  void finalize();

  /// Switches the scheduler into windowed parallel execution over at most
  /// `threads` shards (see core/partition.hpp for the placement rules;
  /// lookahead = minimum link delay). Call after finalize(), before run.
  /// Returns the shard count actually in effect — 1 means the world fell
  /// back to serial (threads <= 1, a zero-delay link, or a topology whose
  /// co-sharding constraints leave a single component). Execution is
  /// byte-identical to serial at any returned count.
  std::uint32_t enable_parallel(std::uint32_t threads);

  std::uint64_t run_until(Time t) { return net_.scheduler().run_until(t); }

  /// Deterministic teardown: stops every module, hosts first then routers,
  /// each in reverse construction order (also run by the destructor).
  void stop();

  const std::vector<std::unique_ptr<NodeRuntime>>& routers() const {
    return routers_;
  }
  const std::vector<std::unique_ptr<NodeRuntime>>& hosts() const {
    return hosts_;
  }
  NodeRuntime& router_by_name(const std::string& name) const;
  NodeRuntime& host_by_name(const std::string& name) const;

 private:
  WorldConfig config_;
  Network net_;
  AddressingPlan plan_;
  GlobalRouting routing_;
  std::vector<std::unique_ptr<NodeRuntime>> routers_;
  std::vector<std::unique_ptr<NodeRuntime>> hosts_;
  std::uint32_t next_prefix_index_ = 1;
};

}  // namespace mip6

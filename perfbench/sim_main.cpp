// One end-to-end simulator run of a perfbench workload.
//
// Builds one seeded workload world through the simulator's public API,
// runs it over a fixed simulated horizon as equal run_until slices, checks
// it, tears it down and prints one JSON record on stdout. perfbench/run.py
// starts one fresh process per run, so the peak RSS reported here belongs
// to that run alone, and it times the process from start to exit.
//
//   perfbench_sim --workload flood-1k --seed 7
//                 [--smoke] [--slices N] [--threads N] [--spans FILE]
//
// --smoke      shrinks the world and the horizon (the benchmark's own tests)
// --slices N   number of run_until slices (1 = a single run_until(horizon))
// --threads N  overrides the workload's enable_parallel request
// --spans FILE traced mode: spans around every call into the simulator and
//              around every slice (with the counter deltas it caused) are
//              kept in memory and written to FILE as JSON at the end, and
//              the layer probes (an extra GlobalRouting::recompute and timed
//              Rib::lookup over every (router, sender) pair) run after the
//              digest is taken, so they cannot change it.
//
// The digest hashes the executed event count, every non-zero counter and
// the deliveries per receiver: two runs with equal digests produced the
// same simulated statistics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/figure1.hpp"
#include "core/mobility.hpp"
#include "core/random_topology.hpp"
#include "core/traffic.hpp"
#include "fault/auditor.hpp"
#include "util/json.hpp"

using namespace mip6;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Workload {
  const char* name;
  std::size_t routers;
  std::size_t max_fanout;  // 0 = unbounded
  std::size_t groups;
  std::size_t receivers;  // per group
  int receiver_dwell_s;   // seconds between moves; 0 = static
  int sender_dwell_s;
  McastStrategy strategy;
  DenseEngineKind engine;
  std::uint32_t threads;  // enable_parallel request; 1 = serial
  int cbr_interval_ms;    // per sender
  double horizon_s;
  /// Correctness gate: a run losing more than this share of the expected
  /// deliveries fails.
  double loss_ceiling_pct;
};

// Shapes and reasons: perfbench/README.md. churn-par asks for 2 shards,
// not 4: on a 4-core host shared with other load, 4 busy-waiting shards
// stalled at the barrier whenever a core was taken, and its run time
// varied by 30 % between calls.
constexpr Workload kWorkloads[] = {
    {"flood-1k", 1024, 32, 16, 2, 0, 0, McastStrategy::kLocalMembership,
     DenseEngineKind::kPimDm, 1, 400, 48.0, 2.0},
    {"roam-tunnel", 64, 0, 16, 4, 15, 30, McastStrategy::kBidirTunnel,
     DenseEngineKind::kHpimDm, 1, 50, 60.0, 5.0},
    {"churn-par", 128, 0, 16, 4, 10, 20, McastStrategy::kLocalMembership,
     DenseEngineKind::kPimDm, 2, 50, 60.0, 5.0},
};

constexpr std::uint16_t kPort = Figure1::kDataPort;
constexpr std::size_t kPayload = 128;
constexpr Time kSourcesStart = Time::sec(1);
constexpr Time kMoversStart = Time::sec(2);
constexpr std::uint64_t kTopologySeed = 1;
constexpr Time kSmokeHorizon = Time::sec(4);
constexpr double kSmokeLossCeilingPct = 50.0;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::size_t slices = 120;
  std::optional<std::uint32_t> threads;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_sim: %s\nusage: perfbench_sim --workload "
               "{flood-1k|roam-tunnel|churn-par} --seed N [--smoke] "
               "[--slices N] [--threads N] [--spans FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage(("unknown workload " + name).c_str());
    } else if (a == "--seed") {
      o.seed = parse_uint(value(), "bad --seed");
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--slices") {
      o.slices = parse_uint(value(), "bad --slices");
      if (o.slices == 0) usage("--slices must be at least 1");
    } else if (a == "--threads") {
      const std::uint64_t t = parse_uint(value(), "bad --threads");
      if (t == 0 || t > 64) usage("--threads must be 1..64");
      o.threads = static_cast<std::uint32_t>(t);
    } else if (a == "--spans") {
      o.spans_path = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

// --- Build record ----------------------------------------------------------

bool built_optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string sanitizer_flags() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "compiler-reported";
#endif
  return s;
}

// --- Spans -----------------------------------------------------------------

/// In-memory span recorder. Disabled, it records nothing and open()
/// returns -1, which close() and add_delta() ignore.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  bool on() const { return on_; }

  /// Opens a span under `parent` (-1 = root); returns its id.
  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent, since_start(), -1.0, {}});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (on_ && id >= 0) spans_[static_cast<std::size_t>(id)].end_s =
        since_start();
  }
  void add_delta(int id, const std::string& key, std::uint64_t v) {
    if (on_ && id >= 0 && v != 0) {
      spans_[static_cast<std::size_t>(id)].deltas.emplace_back(key, v);
    }
  }

  Json to_json() const {
    Json arr = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json j = Json::object();
      j.set("id", static_cast<std::uint64_t>(i));
      j.set("name", s.name);
      j.set("parent", s.parent);
      j.set("start_s", s.start_s);
      j.set("end_s", s.end_s);
      if (!s.deltas.empty()) {
        Json d = Json::object();
        for (const auto& [k, v] : s.deltas) d.set(k, v);
        j.set("counter_deltas", std::move(d));
      }
      arr.push_back(std::move(j));
    }
    return arr;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
    std::vector<std::pair<std::string, std::uint64_t>> deltas;
  };
  double since_start() const { return seconds_between(t0_, Clock::now()); }

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Scoped span that also accumulates its duration into `*acc_s`.
class Phase {
 public:
  Phase(Tracer& tr, const char* name, int parent, double* acc_s = nullptr)
      : tr_(tr), id_(tr.open(name, parent)), acc_s_(acc_s),
        start_(Clock::now()) {}
  ~Phase() {
    if (acc_s_ != nullptr) *acc_s_ += seconds_between(start_, Clock::now());
    tr_.close(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tr_;
  int id_;
  double* acc_s_;
  Clock::time_point start_;
};

// --- Digest ----------------------------------------------------------------

class Fnv64 {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 0x100000001b3ULL;
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- The workload world ----------------------------------------------------

struct Group {
  Address group;
  NodeRuntime* sender = nullptr;
  std::vector<NodeRuntime*> receivers;
  std::unique_ptr<CbrSource> source;
  std::vector<std::unique_ptr<GroupReceiverApp>> apps;
};

struct Scene {
  RandomTopology topo;
  std::vector<Group> groups;
  std::vector<std::unique_ptr<ItineraryMover>> movers;
  std::uint64_t moves = 0;
};

/// Sum of every ipv6/*-drop/* counter (rx, tx and forwarding drops).
std::uint64_t ipv6_drops(const CounterRegistry& c) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : c.snapshot()) {
    if (name.rfind("ipv6/", 0) == 0 &&
        name.find("-drop/") != std::string::npos) {
      total += v;
    }
  }
  return total;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  const std::size_t routers =
      opt.smoke ? std::max<std::size_t>(16, w.routers / 16) : w.routers;
  const Time horizon = opt.smoke ? kSmokeHorizon : Time::seconds(w.horizon_s);
  const std::uint32_t threads = opt.threads.value_or(w.threads);

  Tracer tr(!opt.spans_path.empty());
  const int root = tr.open("run", -1);
  double setup_s = 0.0, run_s = 0.0, teardown_s = 0.0, probe_s = 0.0;
  double build_topology_s = 0.0, finalize_s = 0.0, enable_parallel_s = 0.0;
  double audit_s = 0.0, recompute_s = 0.0, rib_lookup_ns = 0.0;

  auto scene = std::make_unique<Scene>();
  std::uint32_t shards = 1;
  {
    Phase setup(tr, "setup", root, &setup_s);
    {
      Phase p(tr, "core.build_topology", setup.id(), &build_topology_s);
      RandomTopologyParams params;
      params.routers = routers;
      params.extra_links = routers / 4;
      // The graph is part of the workload's definition; --seed draws the
      // traffic on it (placement and itineraries). A graph per seed made
      // the run-to-run spread mostly a spread of graphs.
      params.seed = kTopologySeed;
      params.max_fanout = w.max_fanout;
      WorldConfig config;
      config.dense_engine = w.engine;
      scene->topo = build_random_topology(params, config);
    }
    World& world = *scene->topo.world;
    const std::vector<Link*>& stubs = scene->topo.stub_links;
    {
      Phase p(tr, "core.add_hosts", setup.id());
      // Placement draws from its own stream so it never perturbs the
      // world's RNG.
      Rng place(Rng::derive_seed(opt.seed, 0x70e7));
      const HostOptions host_opts(
          StrategyOptions{w.strategy, HaRegistration::kGroupListBu});
      scene->groups.resize(w.groups);
      for (std::size_t g = 0; g < w.groups; ++g) {
        Group& grp = scene->groups[g];
        grp.group = Address::parse("ff1e::" + std::to_string(0x100 + g));
        grp.sender = &world.add_host(std::string("S") + std::to_string(g),
                                     *stubs[place.uniform_int(stubs.size())],
                                     host_opts);
        for (std::size_t r = 0; r < w.receivers; ++r) {
          grp.receivers.push_back(&world.add_host(
              std::string("R") + std::to_string(g) + "_" + std::to_string(r),
              *stubs[place.uniform_int(stubs.size())], host_opts));
        }
      }
    }
    {
      Phase p(tr, "core.finalize", setup.id(), &finalize_s);
      world.finalize();
    }
    {
      Phase p(tr, "core.apps", setup.id());
      // A roaming host moves once per dwell period from a seeded phase, to
      // a seeded stub other than its current one. Fixed periods keep the
      // move count, and with it the work, the same for every seed.
      Rng move_rng(Rng::derive_seed(opt.seed, 0x30be));
      auto add_mover = [&](NodeRuntime& host, int dwell_s) {
        if (dwell_s <= 0) return;
        const Link* home = host.node->iface_by_id(host.iface()).link();
        std::uint64_t at = static_cast<std::uint64_t>(
            std::find(stubs.begin(), stubs.end(), home) - stubs.begin());
        auto mover =
            std::make_unique<ItineraryMover>(*host.mn, world.scheduler());
        const Time dwell = Time::sec(dwell_s);
        for (Time t = kMoversStart + Time::ns(static_cast<std::int64_t>(
                                         move_rng.uniform_int(dwell.nanos())));
             t <= horizon; t += dwell) {
          std::uint64_t to = move_rng.uniform_int(stubs.size() - 1);
          if (to >= at) ++to;
          mover->add_step(t, *stubs[to]);
          at = to;
          ++scene->moves;
        }
        scene->movers.push_back(std::move(mover));
      };
      for (Group& grp : scene->groups) {
        for (NodeRuntime* r : grp.receivers) {
          grp.apps.push_back(
              std::make_unique<GroupReceiverApp>(*r->stack, kPort));
          r->service->subscribe(grp.group);
          add_mover(*r, w.receiver_dwell_s);
        }
        Group* gp = &grp;
        grp.source = std::make_unique<CbrSource>(
            world.scheduler(),
            [gp](Bytes payload) {
              gp->sender->service->send_multicast(gp->group, kPort, kPort,
                                                  std::move(payload));
            },
            Time::ms(w.cbr_interval_ms), kPayload, grp.sender->node->domain());
        grp.source->start(kSourcesStart);
        add_mover(*grp.sender, w.sender_dwell_s);
      }
    }
    if (threads > 1) {
      Phase p(tr, "core.enable_parallel", setup.id(), &enable_parallel_s);
      shards = world.enable_parallel(threads);
    }
  }

  World& world = *scene->topo.world;
  Scheduler& sched = world.scheduler();
  CounterRegistry& counters = world.net().counters();

  // --- Run, in equal slices of simulated time ------------------------------
  std::vector<double> slice_ms;
  slice_ms.reserve(opt.slices);
  {
    Phase run_phase(tr, "sim.run", root);
    std::map<std::string, std::uint64_t> prev;
    std::uint64_t prev_events = 0;
    for (std::size_t k = 1; k <= opt.slices; ++k) {
      const Time until =
          Time::ns(horizon.nanos() * static_cast<std::int64_t>(k) /
                   static_cast<std::int64_t>(opt.slices));
      const int id = tr.open("sim.slice", run_phase.id());
      const auto t0 = Clock::now();
      world.run_until(until);
      const double s = seconds_between(t0, Clock::now());
      tr.close(id);
      run_s += s;
      slice_ms.push_back(s * 1e3);
      if (tr.on()) {
        const std::uint64_t ev = sched.executed_events();
        tr.add_delta(id, "sim/events", ev - prev_events);
        prev_events = ev;
        for (const auto& [name, v] : counters.snapshot()) {
          std::uint64_t& old = prev[name];
          tr.add_delta(id, name, v - old);
          old = v;
        }
      }
    }
  }

  // --- Check ---------------------------------------------------------------
  std::uint64_t sent = 0, expected = 0, received = 0;
  std::string digest;
  {
    Phase p(tr, "check.digest", root, &probe_s);
    Fnv64 h;
    h.add("events=" + std::to_string(sched.executed_events()));
    for (const auto& [name, v] : counters.snapshot()) {
      h.add(name + "=" + std::to_string(v));
    }
    for (std::size_t g = 0; g < scene->groups.size(); ++g) {
      const Group& grp = scene->groups[g];
      sent += grp.source->sent();
      expected += static_cast<std::uint64_t>(grp.source->sent()) *
                  grp.apps.size();
      h.add("sent" + std::to_string(g) + "=" +
            std::to_string(grp.source->sent()));
      for (std::size_t r = 0; r < grp.apps.size(); ++r) {
        received += grp.apps[r]->unique_received();
        h.add(grp.receivers[r]->node->name() + "=" +
              std::to_string(grp.apps[r]->unique_received()) + "," +
              std::to_string(grp.apps[r]->duplicates()));
      }
    }
    digest = h.hex();
  }

  // Layer counters are read before the audit, which bumps its own.
  auto c = [&](const char* name) { return counters.get(name); };
  std::uint64_t link_frames = 0, link_bytes = 0;
  for (const auto& link : world.net().links()) {
    link_frames += link->tx_packets();
    link_bytes += link->tx_bytes();
  }
  std::uint64_t sg_entries = 0, mfc_entries = 0, rib_routes = 0;
  for (NodeRuntime* rt : scene->topo.routers) {
    if (rt->dense != nullptr) {
      sg_entries += rt->dense->entry_count();
      mfc_entries += rt->dense->mfc_entries();
    }
    rib_routes += rt->stack->rib().size();
  }
  const std::uint64_t mfc_hit = c("pimdm/mfc-hit") + c("hpimdm/mfc-hit");
  const std::uint64_t mfc_miss = c("pimdm/mfc-miss") + c("hpimdm/mfc-miss");
  const std::uint64_t events = sched.executed_events();

  Json layers = Json::object();
  layers.set("core.shards_granted", static_cast<std::uint64_t>(shards));
  layers.set("ipv6.rib_routes_per_router",
             static_cast<double>(rib_routes) /
                 static_cast<double>(scene->topo.routers.size()));
  layers.set("ipv6.fwd", c("ipv6/fwd"));
  layers.set("ipv6.drops", ipv6_drops(counters));
  layers.set("sim.events", events);
  layers.set("sim.ns_per_event",
             events > 0 ? run_s * 1e9 / static_cast<double>(events) : 0.0);
  layers.set("sim.cancelled_at_end",
             static_cast<std::uint64_t>(sched.cancelled_events()));
  layers.set("sim.pending_at_end",
             static_cast<std::uint64_t>(sched.pending_events()));
  layers.set("sim.compactions", sched.compactions());
  layers.set("sim.windows", sched.windows());
  layers.set("sim.events_per_window",
             sched.windows() > 0 ? static_cast<double>(events) /
                                       static_cast<double>(sched.windows())
                                 : 0.0);
  layers.set("sim.structural_instants", sched.structural_instants());
  layers.set("net.link_tx_frames", link_frames);
  layers.set("net.link_tx_bytes", link_bytes);
  layers.set("net.mfc_hit", mfc_hit);
  layers.set("net.mfc_miss", mfc_miss);
  layers.set("net.mfc_hit_ratio",
             mfc_hit + mfc_miss > 0
                 ? static_cast<double>(mfc_hit) /
                       static_cast<double>(mfc_hit + mfc_miss)
                 : 0.0);
  layers.set("net.mfc_entries", mfc_entries);
  layers.set("pimdm.sg_created", c("pimdm/sg-created"));
  layers.set("pimdm.sg_entries_end",
             w.engine == DenseEngineKind::kPimDm ? sg_entries : 0);
  layers.set("pimdm.data_fwd", c("pimdm/data-fwd"));
  layers.set("pimdm.ctrl_tx", counters.sum_prefix("pimdm/tx/"));
  layers.set("pimdm.asserts", c("pimdm/tx/assert"));
  layers.set("pimdm.wrong_iface", c("pimdm/rx-wrong-iface"));
  layers.set("hpimdm.data_fwd", c("hpimdm/data-fwd"));
  layers.set("hpimdm.ctrl_tx", counters.sum_prefix("hpimdm/tx/"));
  layers.set("hpimdm.retx", c("hpimdm/retx"));
  layers.set("mld.reports_rx", c("mld/rx/report"));
  layers.set("mld.queries_tx", c("mld/tx/query"));
  layers.set("mld.listeners_added", c("mld/listener-added"));
  layers.set("mipv6.ha_encap", counters.sum_prefix("ha/encap"));
  layers.set("mipv6.ha_decap", c("ha/decap"));
  layers.set("mipv6.mn_decap", c("mn/decap"));
  layers.set("mipv6.bu_tx", c("mn/tx/bu"));
  layers.set("mipv6.bu_retx", c("mn/bu-retransmit"));
  layers.set("mipv6.moves", scene->moves);

  AuditReport audit;
  {
    Phase p(tr, "fault.audit", root, &audit_s);
    Auditor auditor(world);
    audit = auditor.run();
  }
  layers.set("fault.audit_s", audit_s);
  layers.set("fault.audit_violations",
             static_cast<std::uint64_t>(audit.violations.size()));

  if (tr.on()) {
    Phase probe(tr, "ipv6.probe", root, &probe_s);
    {
      Phase p(tr, "ipv6.recompute", probe.id(), &recompute_s);
      world.routing().recompute();
    }
    {
      Phase p(tr, "ipv6.rib_lookup", probe.id());
      std::vector<Address> senders;
      for (const Group& grp : scene->groups) {
        senders.push_back(grp.sender->mn->home_address());
      }
      // Repeat the sweep until it has run long enough to time reliably.
      std::uint64_t lookups = 0, found = 0;
      const auto t0 = Clock::now();
      double elapsed = 0.0;
      do {
        for (NodeRuntime* rt : scene->topo.routers) {
          const Rib& rib = rt->stack->rib();
          for (const Address& a : senders) found += rib.lookup(a) != nullptr;
        }
        lookups += scene->topo.routers.size() * senders.size();
        elapsed = seconds_between(t0, Clock::now());
      } while (elapsed < 0.05);
      rib_lookup_ns = elapsed * 1e9 / static_cast<double>(lookups);
      if (found != lookups) {
        std::fprintf(stderr, "perfbench_sim: %llu of %llu RPF lookups missed\n",
                     static_cast<unsigned long long>(lookups - found),
                     static_cast<unsigned long long>(lookups));
        return 1;
      }
    }
  }
  layers.set("ipv6.recompute_s", recompute_s);
  layers.set("ipv6.rib_lookup_ns", rib_lookup_ns);

  // --- Teardown ------------------------------------------------------------
  {
    Phase td(tr, "teardown", root, &teardown_s);
    {
      Phase p(tr, "core.stop", td.id());
      world.stop();
    }
    Phase p(tr, "core.destroy", td.id());
    scene.reset();
  }
  tr.close(root);

  const double loss_pct =
      expected > 0 ? 100.0 * (1.0 - static_cast<double>(received) /
                                        static_cast<double>(expected))
                   : 0.0;
  layers.set("core.build_topology_s", build_topology_s);
  layers.set("core.finalize_s", finalize_s);
  layers.set("core.enable_parallel_s", enable_parallel_s);

  Json phases = Json::object();
  phases.set("setup_s", setup_s);
  phases.set("run_s", run_s);
  phases.set("teardown_s", teardown_s);
  phases.set("audit_s", audit_s);
  phases.set("probe_s", probe_s);

  Json build = Json::object();
  build.set("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
  build.set("compiler", PERFBENCH_COMPILER);
  build.set("build_type", PERFBENCH_BUILD_TYPE);
  build.set("optimized", built_optimized());
  build.set("sanitize", sanitizer_flags());

  Json rec = Json::object();
  rec.set("workload", w.name);
  rec.set("seed", opt.seed);
  rec.set("smoke", opt.smoke);
  rec.set("routers", static_cast<std::uint64_t>(routers));
  rec.set("horizon_s", horizon.to_seconds());
  rec.set("threads_requested", static_cast<std::uint64_t>(threads));
  rec.set("shards_granted", static_cast<std::uint64_t>(shards));
  rec.set("build", std::move(build));
  rec.set("phases", std::move(phases));
  Json slices = Json::array();
  for (double ms : slice_ms) slices.push_back(ms);
  rec.set("slice_ms", std::move(slices));
  rec.set("sent", sent);
  rec.set("expected", expected);
  rec.set("received", received);
  rec.set("loss_pct", loss_pct);
  // A smoke horizon carries a few dozen datagrams per sender, so the one
  // or two every receiver misses while joining dominate its loss share.
  rec.set("loss_ceiling_pct", opt.smoke ? kSmokeLossCeilingPct
                                        : w.loss_ceiling_pct);
  rec.set("digest", digest);
  Json violations = Json::array();
  for (const AuditViolation& v : audit.violations) {
    violations.push_back(v.check + ": " + v.detail);
  }
  rec.set("audit_violations", std::move(violations));
  rec.set("layers", std::move(layers));
  rec.set("peak_rss_mb", peak_rss_mb());

  if (tr.on()) {
    Json doc = Json::object();
    doc.set("workload", w.name);
    doc.set("seed", opt.seed);
    doc.set("spans", tr.to_json());
    std::FILE* f = std::fopen(opt.spans_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench_sim: cannot write %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
    const std::string text = doc.dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "perfbench_sim: short write to %s\n",
                   opt.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", rec.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (!built_optimized() || !sanitizer_flags().empty()) {
    std::fprintf(stderr,
                 "perfbench_sim: refusing to time a %s build (optimized=%d, "
                 "sanitize='%s'); rebuild with CMAKE_BUILD_TYPE=Release and "
                 "no -fsanitize flags\n",
                 PERFBENCH_BUILD_TYPE, built_optimized() ? 1 : 0,
                 sanitizer_flags().c_str());
    return 3;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }
}

// Structured simulation trace.
//
// Components emit (time, component, event, detail) records. Sinks are
// pluggable: tests install a recording sink and assert on protocol behaviour
// (e.g. "Router E sent GRAFT at t"), examples install a stderr printer, and
// benches leave tracing disabled.
//
// Disabled tracing must be free: hot paths (packet forwarding, timer
// expiries) emit too. Use the lazy overload — the detail string is built by
// a callable that only runs when a sink is installed — or guard expensive
// argument construction with enabled(). The eager std::string overload
// builds its arguments at the call site even when dropped; keep it off hot
// paths. tests/sim/alloc_guard_test.cpp asserts the disabled emit path
// performs zero allocations.
// Sharded operation: records emitted from a worker shard are appended to
// that shard's buffer tagged with the executing event's canonical key (plus
// a per-shard emit counter for multi-emit events), then k-way merged into
// the user sink at window barriers. Per-shard buffers are filled in
// execution order — which within a shard IS canonical order — so the merge
// reproduces the serial emission sequence byte for byte. Records emitted
// from serial/structural contexts go straight to the sink.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mip6 {

struct TraceRecord {
  Time at;
  std::string component;  // e.g. "pimdm/RouterE"
  std::string event;      // e.g. "tx-graft"
  std::string detail;     // free-form, human-readable

  std::string str() const;
};

class Trace {
 public:
  using Sink = std::function<void(const TraceRecord&)>;

  /// No sink installed: emits are dropped.
  Trace() = default;

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  void clear_sink() { sink_ = nullptr; }
  bool enabled() const { return static_cast<bool>(sink_); }

  /// Eager emit: arguments are materialized by the caller even when no sink
  /// is installed. Fine for tests and cold paths; use the lazy overload (or
  /// an enabled() guard) anywhere per-event cost matters.
  void emit(Time at, std::string component, std::string event,
            std::string detail) const {
    if (sink_) deliver({at, std::move(component), std::move(event),
                        std::move(detail)});
  }

  /// Lazy emit for hot paths: `detail_fn` is only invoked — and the record's
  /// strings only constructed — when a sink is installed. With tracing
  /// disabled this costs one branch and allocates nothing.
  template <typename DetailFn>
    requires std::is_invocable_r_v<std::string, DetailFn&>
  void emit(Time at, std::string_view component, std::string_view event,
            DetailFn&& detail_fn) const {
    if (!sink_) return;
    deliver({at, std::string(component), std::string(event),
             std::forward<DetailFn>(detail_fn)()});
  }

  /// Lazy emit with no detail payload.
  void emit(Time at, std::string_view component, std::string_view event) const {
    if (!sink_) return;
    deliver({at, std::string(component), std::string(event), std::string()});
  }

  /// Sink that appends to a vector (owned by the caller).
  static Sink recorder(std::vector<TraceRecord>& out);

  // --- Sharded operation -------------------------------------------------
  /// Allocates one buffer per shard; worker-context emits divert there.
  void enable_shards(std::size_t shards);
  /// Merges outstanding records and drops the buffers.
  void disable_shards();
  /// K-way merges the shard buffers into the sink in canonical event order.
  /// Controller-side, called at every window barrier.
  void merge_shards() const;
  bool sharded() const { return sharded_; }

 private:
  struct Tagged {
    EventKey key;
    std::uint64_t emit;
    TraceRecord rec;
  };

  void deliver(TraceRecord&& rec) const {
    if (sharded_) {
      const int s = Scheduler::current_shard_slot();
      if (s >= 0) {
        const EventKey* k = Scheduler::current_key();
        buffers_[static_cast<std::size_t>(s)].push_back(
            Tagged{k != nullptr ? *k : EventKey{}, Scheduler::next_emit_seq(),
                   std::move(rec)});
        return;
      }
    }
    sink_(rec);
  }

  Sink sink_;
  mutable std::vector<std::vector<Tagged>> buffers_;
  bool sharded_ = false;
};

}  // namespace mip6

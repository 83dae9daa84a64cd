// Home agent binding cache: home address -> (care-of address, lifetime,
// registered multicast groups). Entries expire on a timer; the paper's
// observation that a silent mobile host loses its multicast representation
// after the binding lifetime (default 256 s) is this expiry.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ipv6/address.hpp"
#include "sim/timer.hpp"

namespace mip6 {

class BindingCache {
 public:
  struct Entry {
    Address home;
    Address care_of;
    std::uint16_t sequence = 0;
    std::vector<Address> groups;  // from the Multicast Group List sub-option
    /// From the Multicast Care-of sub-option: relay group traffic into this
    /// multicast group instead of the unicast tunnel (unspecified = tunnel).
    Address mcast_care_of;
    std::unique_ptr<Timer> lifetime_timer;
  };

  /// Receives the just-expired entry (already removed from the cache).
  using ExpiryCallback = std::function<void(const Entry& expired)>;

  /// Captures the construction context's domain (the owning home agent's
  /// node under NodeRuntime's DomainScope) so lifetime timers created later
  /// — from BU events or structural replays alike — expire on that shard.
  explicit BindingCache(Scheduler& sched)
      : sched_(&sched), domain_(sched.binding_domain()) {}

  /// Creates or refreshes a binding. Returns a reference valid until the
  /// next mutation.
  Entry& update(const Address& home, const Address& care_of,
                std::uint16_t sequence, Time lifetime);
  /// Explicit deregistration (lifetime 0 in a BU, or returning home).
  void remove(const Address& home);
  /// Drops every entry without firing expiry callbacks (crash support —
  /// lifetime timers are cancelled alongside).
  void clear() { entries_.clear(); }

  const Entry* find(const Address& home) const;
  Entry* find(const Address& home);
  std::size_t size() const { return entries_.size(); }
  /// A snapshot in home-address order, for callers that mutate the cache.
  std::vector<const Entry*> entries() const;
  /// Calls fn(entry) for every binding in home-address order, in place;
  /// `fn` must not add or remove bindings.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [home, entry] : entries_) fn(*entry);
  }

  void set_expiry_callback(ExpiryCallback cb) { on_expiry_ = std::move(cb); }

 private:
  void expire(const Address& home);

  Scheduler* sched_;
  Domain domain_;
  std::map<Address, std::unique_ptr<Entry>> entries_;
  ExpiryCallback on_expiry_;
};

}  // namespace mip6

// Network-wide addressing plan.
//
// Each link has a /64 prefix and a designated default router, the
// information real hosts learn from Router Advertisements. Modelling the RA
// *content* as an oracle (rather than RA packets) keeps host attachment
// simple; the movement-detection + address-configuration latency that RAs
// would introduce is an explicit, configurable delay in the MobileNode — the
// same simplification the paper itself makes ("it takes the mobile sender a
// certain time to detect the link change and generate a new care-of
// address").
#pragma once

#include <map>
#include <optional>
#include <unordered_map>

#include "ipv6/address.hpp"
#include "net/link.hpp"

namespace mip6 {

class AddressingPlan {
 public:
  void set_link_prefix(LinkId link, const Prefix& prefix);
  /// Throws LogicError if the link has no prefix.
  const Prefix& prefix_of(LinkId link) const;
  bool has_prefix(LinkId link) const;

  void set_default_router(LinkId link, const Address& router);
  /// Router address hosts on `link` use as default gateway; nullopt if none.
  std::optional<Address> default_router(LinkId link) const;

  /// Designates the hier-proxy domain proxy serving `link` (the MAP-style
  /// agent a visiting MN registers its groups with). Like the default
  /// router, this is RA-content-as-oracle: real deployments would advertise
  /// the proxy in RAs.
  void set_mcast_proxy(LinkId link, const Address& proxy) {
    mcast_proxies_[link] = proxy;
  }
  std::optional<Address> mcast_proxy(LinkId link) const {
    auto it = mcast_proxies_.find(link);
    if (it == mcast_proxies_.end()) return std::nullopt;
    return it->second;
  }

  /// The link whose prefix contains `a`, if any; the lowest LinkId when
  /// several do. A plan of /64 prefixes only answers from an index of
  /// their networks; any other prefix length falls back to a scan.
  std::optional<LinkId> link_of(const Address& a) const;

  /// Deterministic interface identifier for a node (EUI-64 stand-in).
  static std::uint64_t iid_for_node(std::uint32_t node_id) {
    return 0x0200'0000'0000'0000ULL | (static_cast<std::uint64_t>(node_id) + 1);
  }

 private:
  std::map<LinkId, Prefix> prefixes_;
  /// /64 network (high64) -> lowest LinkId with that prefix.
  std::unordered_map<std::uint64_t, LinkId> by_net64_;
  /// Links whose prefix is not a /64.
  std::size_t other_lengths_ = 0;
  std::map<LinkId, Address> default_routers_;
  std::map<LinkId, Address> mcast_proxies_;
};

}  // namespace mip6

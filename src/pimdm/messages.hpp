// PIM version 2 message wire formats (draft-ietf-pim-v2-dm-03 §4):
// common header, encoded address formats, Hello, Join/Prune (also used for
// Graft and Graft-Ack, which share its body), and Assert.
#pragma once

#include <cstdint>
#include <vector>

#include "ipv6/address.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

enum class PimType : std::uint8_t {
  kHello = 0,
  kJoinPrune = 3,
  kAssert = 5,
  kGraft = 6,
  kGraftAck = 7,
  kStateRefresh = 9,
};

/// Serializes the 4-octet PIM header + body with the IPv6 pseudo-header
/// checksum, ready to be the payload of a proto-103 datagram.
Bytes serialize_pim(PimType type, BytesView body, const Address& src,
                    const Address& dst);

struct PimHeader {
  PimType type;
  Bytes body;
};
/// No-throw parse + checksum verification of a PIM payload.
ParseResult<PimHeader> try_parse_pim(BytesView payload, const Address& src,
                                     const Address& dst);

// --- Encoded address blocks (family 2 = IPv6, encoding 0) -----------------

void write_encoded_unicast(BufferWriter& w, const Address& a);
ParseResult<Address> try_read_encoded_unicast(WireCursor& c);
void write_encoded_group(BufferWriter& w, const Address& g);
ParseResult<Address> try_read_encoded_group(WireCursor& c);
void write_encoded_source(BufferWriter& w, const Address& s,
                          std::uint8_t flags = 0x4 /* S bit */);
ParseResult<Address> try_read_encoded_source(WireCursor& c);

// --- Hello -----------------------------------------------------------------

struct PimHello {
  std::uint16_t holdtime = 105;

  Bytes body() const;
  static ParseResult<PimHello> try_parse(BytesView body);
};

// --- Join/Prune (and Graft / Graft-Ack, same body) ---------------------------

struct PimJoinPrune {
  /// The router on the shared link this message is directed at.
  Address upstream_neighbor;
  std::uint16_t holdtime = 0;  // seconds; applies to prunes
  struct GroupEntry {
    Address group;
    std::vector<Address> joined_sources;
    std::vector<Address> pruned_sources;
  };
  std::vector<GroupEntry> groups;

  Bytes body() const;
  /// No-throw parse; bounds group records and per-group source counts.
  static ParseResult<PimJoinPrune> try_parse(BytesView body);

  /// Single-source convenience constructors.
  static PimJoinPrune join(const Address& upstream, const Address& src,
                           const Address& group);
  static PimJoinPrune prune(const Address& upstream, const Address& src,
                            const Address& group, std::uint16_t holdtime);
};

// --- State Refresh (RFC 3973 §4.5.1 layout, subset) -------------------------

struct PimStateRefresh {
  Address group;
  Address source;
  /// First-hop router that originated this refresh wave.
  Address originator;
  std::uint32_t metric_preference = 0;
  std::uint32_t metric = 0;
  /// Remaining propagation budget; decremented per hop.
  std::uint8_t ttl = 16;
  /// Set when the refresh travelled out a pruned interface.
  bool prune_indicator = false;
  /// Originator's refresh period in seconds.
  std::uint8_t interval_s = 60;

  Bytes body() const;
  static ParseResult<PimStateRefresh> try_parse(BytesView body);
};

// --- Assert ------------------------------------------------------------------

struct PimAssert {
  Address group;
  Address source;
  std::uint32_t metric_preference = 0;  // high bit = RPT (always 0 in DM)
  std::uint32_t metric = 0;

  Bytes body() const;
  static ParseResult<PimAssert> try_parse(BytesView body);
};

}  // namespace mip6

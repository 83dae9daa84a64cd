#include "core/describe.hpp"

#include "net/link.hpp"

#include "ipv6/datagram.hpp"
#include "ipv6/icmpv6.hpp"
#include "ipv6/ripng.hpp"
#include "ipv6/udp.hpp"
#include "mipv6/messages.hpp"
#include "mld/messages.hpp"
#include "pimdm/messages.hpp"

namespace mip6 {
namespace {

std::string describe_icmpv6(const ParsedDatagram& d) {
  const ParseResult<Icmpv6Message> icmp =
      Icmpv6Message::try_parse(d.payload, d.hdr.src, d.hdr.dst);
  if (!icmp.ok()) return "ICMPv6 <malformed>";
  switch (icmp.value().type) {
    case icmpv6::kMldQuery:
    case icmpv6::kMldReport:
    case icmpv6::kMldDone:
      break;
    default:
      return "ICMPv6 type=" + std::to_string(icmp.value().type);
  }
  const ParseResult<MldMessage> mld = MldMessage::try_from_icmpv6(icmp.value());
  if (!mld.ok()) return "ICMPv6 <malformed>";
  const MldMessage& m = mld.value();
  if (m.type == MldType::kReport) return "MLD Report group=" + m.group.str();
  if (m.type == MldType::kDone) return "MLD Done group=" + m.group.str();
  return m.is_general_query() ? "MLD GeneralQuery maxdelay=" +
                                    std::to_string(m.max_response_delay_ms) +
                                    "ms"
                              : "MLD Query group=" + m.group.str();
}

std::string describe_pim(const ParsedDatagram& d) {
  constexpr const char* kMalformed = "PIM <malformed>";
  const ParseResult<PimHeader> h =
      try_parse_pim(d.payload, d.hdr.src, d.hdr.dst);
  if (!h.ok()) return kMalformed;
  const PimType type = h.value().type;
  const BytesView body = h.value().body;
  switch (type) {
    case PimType::kHello: {
      const ParseResult<PimHello> hello = PimHello::try_parse(body);
      if (!hello.ok()) return kMalformed;
      return "PIM Hello holdtime=" + std::to_string(hello.value().holdtime) +
             "s";
    }
    case PimType::kJoinPrune:
    case PimType::kGraft:
    case PimType::kGraftAck: {
      const ParseResult<PimJoinPrune> jp = PimJoinPrune::try_parse(body);
      if (!jp.ok()) return kMalformed;
      const char* kind = type == PimType::kJoinPrune ? "Join/Prune"
                         : type == PimType::kGraft   ? "Graft"
                                                     : "GraftAck";
      std::string out = std::string("PIM ") + kind +
                        " up=" + jp.value().upstream_neighbor.str();
      for (const auto& g : jp.value().groups) {
        for (const auto& s : g.joined_sources) {
          out += " J(" + s.str() + "," + g.group.str() + ")";
        }
        for (const auto& s : g.pruned_sources) {
          out += " P(" + s.str() + "," + g.group.str() + ")";
        }
      }
      return out;
    }
    case PimType::kAssert: {
      const ParseResult<PimAssert> a = PimAssert::try_parse(body);
      if (!a.ok()) return kMalformed;
      return "PIM Assert (" + a.value().source.str() + "," +
             a.value().group.str() +
             ") pref=" + std::to_string(a.value().metric_preference) +
             " metric=" + std::to_string(a.value().metric);
    }
    case PimType::kStateRefresh: {
      const ParseResult<PimStateRefresh> sr = PimStateRefresh::try_parse(body);
      if (!sr.ok()) return kMalformed;
      return "PIM StateRefresh (" + sr.value().source.str() + "," +
             sr.value().group.str() + ") ttl=" + std::to_string(sr.value().ttl) +
             (sr.value().prune_indicator ? " P" : "");
    }
  }
  return "PIM type=" + std::to_string(static_cast<int>(type));
}

std::string describe_udp(const ParsedDatagram& d) {
  const ParseResult<UdpView> u =
      UdpDatagram::try_view(d.payload, d.hdr.src, d.hdr.dst);
  if (!u.ok()) return "UDP <malformed>";
  const UdpView& v = u.value();
  if (v.dst_port == kRipngPort) {
    const ParseResult<std::vector<RipngRte>> rtes =
        try_parse_ripng_response(v.payload);
    if (rtes.ok()) {
      return "RIPng Response " + std::to_string(rtes.value().size()) +
             " routes";
    }
  }
  return "UDP " + std::to_string(v.src_port) + "->" +
         std::to_string(v.dst_port) + " (" +
         std::to_string(v.payload.size()) + " B)";
}

std::string describe_options(const ParsedDatagram& d) {
  std::string out;
  for (const auto& o : d.dest_options) {
    switch (o.type) {
      case opt::kBindingUpdate: {
        const ParseResult<BindingUpdateOption> bu =
            BindingUpdateOption::try_decode(o);
        if (!bu.ok()) {
          out += " BU<malformed>";
          break;
        }
        out += " BU seq=" + std::to_string(bu.value().sequence) +
               " life=" + std::to_string(bu.value().lifetime_s) + "s";
        // A bad group list keeps what was decoded before it.
        if (const BuSubOption* sub =
                bu.value().find_sub_option(subopt::kMulticastGroupList)) {
          const ParseResult<MulticastGroupListSubOption> list =
              MulticastGroupListSubOption::try_decode(*sub);
          out += list.ok()
                     ? " groups=" + std::to_string(list.value().groups.size())
                     : std::string(" BU<malformed>");
        }
        break;
      }
      case opt::kBindingAck:
        out += " BAck";
        break;
      case opt::kHomeAddress: {
        const ParseResult<HomeAddressOption> home =
            HomeAddressOption::try_decode(o);
        out += home.ok() ? " Home=" + home.value().home_address.str()
                         : std::string(" Home<malformed>");
        break;
      }
      default:
        out += " opt" + std::to_string(o.type);
    }
  }
  return out;
}

}  // namespace

std::string describe_datagram(BytesView wire) {
  const ParseResult<ParsedDatagram> parsed = try_parse_datagram(wire);
  if (!parsed.ok()) {
    return "<malformed datagram: " + parsed.failure().str() + ">";
  }
  const ParsedDatagram& d = parsed.value();
  std::string out = "IPv6 " + d.hdr.src.str() + " -> " + d.hdr.dst.str() +
                    " hl=" + std::to_string(d.hdr.hop_limit);
  out += describe_options(d);
  out += " | ";
  switch (d.protocol) {
    case proto::kUdp:
      out += describe_udp(d);
      break;
    case proto::kIcmpv6:
      out += describe_icmpv6(d);
      break;
    case proto::kPim:
      out += describe_pim(d);
      break;
    case proto::kIpv6:
      out += "tunnel[ " + describe_datagram(d.payload) + " ]";
      break;
    case proto::kNoNext:
      out += "(no payload)";
      break;
    default:
      out += "proto=" + std::to_string(d.protocol) + " (" +
             std::to_string(d.payload.size()) + " B)";
  }
  return out;
}

std::string describe_link(const Link& link) {
  std::string out = link.name() + ": " + (link.up() ? "up" : "DOWN");
  const LinkImpairment& imp = link.impairment();
  if (imp.loss > 0.0) {
    out += " loss=" + std::to_string(static_cast<int>(imp.loss * 100)) + "%";
  }
  if (imp.corrupt > 0.0) {
    out +=
        " corrupt=" + std::to_string(static_cast<int>(imp.corrupt * 100)) + "%";
  }
  if (imp.jitter > Time::zero()) {
    out += " jitter=" + std::to_string(imp.jitter.to_millis()) + "ms";
  }
  out += " tx=" + std::to_string(link.tx_packets()) +
         " rx=" + std::to_string(link.rx_packets()) +
         " dropped=" + std::to_string(link.dropped_packets()) +
         " corrupted=" + std::to_string(link.corrupted_packets());
  return out;
}

}  // namespace mip6

// A packet is the serialized octets of a complete IPv6 datagram. Layers
// above parse/serialize the octets; the net layer only moves and counts
// them.
//
// The octets are held behind a shared immutable buffer, so copying a Packet
// — which delivery fan-out does once per receiver per hop — is a reference
// bump, not a byte copy. Anything that needs different octets makes a new
// buffer (forwarding installs its hop-limit-decremented copy with
// set_buffer(); link corruption delivers a new Packet); in-place mutation
// is impossible by construction.
#pragma once

#include <memory>
#include <utility>

#include "util/buffer.hpp"

namespace mip6 {

class Packet {
 public:
  using Buffer = std::shared_ptr<const Bytes>;

  Packet() = default;
  explicit Packet(Bytes data)
      : data_(std::make_shared<const Bytes>(std::move(data))) {}

  const Bytes& data() const { return data_ ? *data_ : empty_bytes(); }
  BytesView view() const { return data(); }
  std::size_t size() const { return data_ ? data_->size() : 0; }

  /// Replaces the octets. Used by forwarding to install the pooled
  /// hop-limit-decremented copy.
  void set_buffer(Buffer data) { data_ = std::move(data); }

 private:
  static const Bytes& empty_bytes() {
    static const Bytes kEmpty;
    return kEmpty;
  }

  Buffer data_;
};

}  // namespace mip6

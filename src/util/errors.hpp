// Error types shared across the mip6mcast libraries.
#pragma once

#include <stdexcept>
#include <string>

namespace mip6 {

/// Thrown by the text parsers (JSON, addresses and prefixes, fault plans,
/// reproducer files) on malformed input. Wire decoders never throw: they
/// return ParseResult (util/parse_result.hpp).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on violations of simulator API contracts (attaching an interface
/// twice, scheduling into the past, ...). Indicates a bug in the caller, but
/// is an exception rather than an abort so tests can verify the contracts.
class LogicError : public std::logic_error {
 public:
  explicit LogicError(const std::string& what) : std::logic_error(what) {}
};

}  // namespace mip6

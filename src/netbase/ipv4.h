// IPv4 address value type.
//
// A small strong type around a host-order 32-bit value. Used pervasively by
// the topology, routing, and traceroute layers; kept trivially copyable and
// hashable so it can be stored in flat containers.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace rrr {

class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t host_order) : value_(host_order) {}

  // Builds an address from dotted-quad octets, most significant first.
  static constexpr Ipv4 from_octets(std::uint8_t a, std::uint8_t b,
                                    std::uint8_t c, std::uint8_t d) {
    return Ipv4((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  // Parses "a.b.c.d". Returns nullopt on malformed input (no exceptions: the
  // parser sits on hot data-ingest paths).
  static std::optional<Ipv4> parse(std::string_view text);

  constexpr std::uint32_t value() const { return value_; }

  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;

 private:
  std::uint32_t value_ = 0;
};

std::ostream& operator<<(std::ostream& os, Ipv4 ip);

}  // namespace rrr

template <>
struct std::hash<rrr::Ipv4> {
  std::size_t operator()(rrr::Ipv4 ip) const noexcept {
    // Fibonacci multiplicative scramble: addresses are assigned in dense
    // blocks by the simulator, so identity hashing would cluster buckets.
    return static_cast<std::size_t>(ip.value()) * 0x9E3779B97F4A7C15ULL;
  }
};

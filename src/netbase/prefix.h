// IPv4 prefix (CIDR block) value type.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "netbase/ipv4.h"

namespace rrr {

class Prefix {
 public:
  constexpr Prefix() = default;

  // Constructs the prefix covering `ip` with the given length; host bits are
  // masked off so equal blocks compare equal regardless of the address used
  // to name them.
  constexpr Prefix(Ipv4 ip, std::uint8_t length)
      : network_(Ipv4(ip.value() & mask_for(length))), length_(length) {}

  // Parses "a.b.c.d/len". Returns nullopt on malformed input.
  static std::optional<Prefix> parse(std::string_view text);

  constexpr Ipv4 network() const { return network_; }
  constexpr std::uint8_t length() const { return length_; }

  // Bitmask with the top `length` bits set, e.g. /24 -> 0xFFFFFF00.
  static constexpr std::uint32_t mask_for(std::uint8_t length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }
  constexpr std::uint32_t mask() const { return mask_for(length_); }

  constexpr bool contains(Ipv4 ip) const {
    return (ip.value() & mask()) == network_.value();
  }
  // First / last address of the block.
  constexpr Ipv4 first_address() const { return network_; }
  constexpr Ipv4 last_address() const {
    return Ipv4(network_.value() | ~mask());
  }
  constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  Ipv4 network_;
  std::uint8_t length_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Prefix& prefix);

}  // namespace rrr

template <>
struct std::hash<rrr::Prefix> {
  std::size_t operator()(const rrr::Prefix& p) const noexcept {
    std::uint64_t key =
        (std::uint64_t{p.network().value()} << 8) | p.length();
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ULL);
  }
};

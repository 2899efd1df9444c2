// Autonomous System Number strong type and AS-path alias.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace rrr {

class Asn {
 public:
  constexpr Asn() = default;
  constexpr explicit Asn(std::uint32_t number) : number_(number) {}

  constexpr std::uint32_t number() const { return number_; }
  constexpr bool is_valid() const { return number_ != 0; }

  std::string to_string() const { return "AS" + std::to_string(number_); }

  friend constexpr auto operator<=>(Asn, Asn) = default;

 private:
  std::uint32_t number_ = 0;  // 0 = invalid / unmapped
};

std::ostream& operator<<(std::ostream& os, Asn asn);

// An AS-level path, nearest hop first (like a BGP AS_PATH read left to
// right: path.front() is the AS closest to the vantage point, path.back()
// the origin).
using AsPath = std::vector<Asn>;

// Renders "1299 2914 18747".
std::string to_string(const AsPath& path);

// True when `needle` occurs in `haystack`. Inline, like index_of: the BGP
// monitors call both per hop of every path they read.
inline bool contains(const AsPath& haystack, Asn needle) {
  return std::find(haystack.begin(), haystack.end(), needle) !=
         haystack.end();
}

// Index of `needle` in `path`, or -1.
inline int index_of(const AsPath& path, Asn needle) {
  auto it = std::find(path.begin(), path.end(), needle);
  return it == path.end() ? -1 : static_cast<int>(it - path.begin());
}

// True when the suffix of `path` starting at `from_index` equals the suffix
// of `reference` starting at the position where `reference` holds the same
// AS as `path[from_index]`.
bool suffix_matches(const AsPath& path, std::size_t from_index,
                    const AsPath& reference);

}  // namespace rrr

template <>
struct std::hash<rrr::Asn> {
  std::size_t operator()(rrr::Asn asn) const noexcept {
    return static_cast<std::size_t>(asn.number()) * 0x9E3779B97F4A7C15ULL;
  }
};

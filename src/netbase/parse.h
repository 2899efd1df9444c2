// Strict parsing for every number and `key=value,...` spec that enters the
// program as text: bench flags, fault/IO-fault/retry plan specs, /v1 query
// parameters and snapshot file names all go through these, so they agree on
// what a number is. A number parses only when std::from_chars consumes the
// whole text: no blanks, no '+' sign, no trailing junk, and for floating
// point a finite value ("nan" and "inf" are rejected).
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rrr {

// Parses the whole of `text` as a T in [lo, hi]; nullopt otherwise.
template <typename T>
std::optional<T> parse_number(
    std::string_view text,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

// parse_number into an existing field: true and `field` set when `text` is a
// T in [lo, hi], false and `field` untouched otherwise.
template <typename T>
bool parse_into(std::string_view text, T& field,
                std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const std::optional<T> value = parse_number<T>(text, lo, hi);
  if (value) field = *value;
  return value.has_value();
}

// One `key=value` clause of a spec.
struct SpecClause {
  std::string_view key;
  std::string_view value;
};

// Splits "k1=v1,k2=v2,..." into its clauses, skipping empty ones (so "" has
// none); nullopt when a clause has no '='. The views point into `spec`.
std::optional<std::vector<SpecClause>> split_spec(std::string_view spec);

// Builds the canonical "k1=v1,k2=v2,..." text split_spec reads back. A
// floating-point value is written in the shortest form that parses back to
// the same value (printf "%g" style, so 0.05 stays "0.05").
class SpecWriter {
 public:
  template <typename T>
  void add(std::string_view key, T value) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if (!out_.empty()) out_ += ',';
    out_.append(key);
    out_ += '=';
    char buffer[64];
    std::to_chars_result written;
    if constexpr (std::is_floating_point_v<T>) {
      written = std::to_chars(buffer, buffer + sizeof buffer, value,
                              std::chars_format::general);
    } else {
      written = std::to_chars(buffer, buffer + sizeof buffer, value);
    }
    out_.append(buffer, written.ptr);
  }

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace rrr

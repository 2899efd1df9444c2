// Byte-level primitives of the durable state store and the one field
// vocabulary every checkpointable type states its layout in. The encoding
// is position-based and schema-free: each type lists its fields once, in a
// template over the Io (an Encoder or a Decoder), and that list both writes
// and reads them in one fixed order, so equal state always produces equal
// bytes (the property the resume-determinism grid leans on) and a loader
// cannot drift from its saver. Framing, versioning, and checksums live one
// layer up in framing.h; a Decoder only ever sees a payload that already
// passed those checks, so its own failure mode (running off the end, an
// impossible field) is classified as kCorrupt.
//
// Field vocabulary. `io(a, b, ...)` writes or reads each field by its type:
//  * bool: one byte, 0 or 1 (any other byte is kCorrupt);
//  * unsigned integers and std::int64_t: their own width, little-endian; an
//    int travels as an i64; a double as its IEEE-754 bits;
//  * an enum: one byte, which must not exceed enum_last(E{}) (found by
//    ADL beside the enum's codec);
//  * std::string / std::string_view: a u64 length and the bytes;
//  * std::optional<T>: a presence bool, then T when present;
//  * std::pair<A, B>: A, then B;
//  * std::vector<T> / std::deque<T>: a u64 count, then the elements; the
//    Decoder bounds the count by min_width<T>() before it sizes anything;
//  * std::map<K, V> / std::set<K>: the same, keys strictly ascending (a
//    repeated or out-of-order key is kCorrupt);
//  * a class with a public static `io(io, self)`: that field list;
//  * a section class: its save_state(Encoder&) / load_state(Decoder&), each
//    a one-line call into its private static `io`;
//  * anything else: a free `io(io, self)` found by ADL (store/codec.h holds
//    the netbase types', each layer's serial.h its own value types').
// A field list takes its object as `Self&` (const when saving), and
// `io.check(ok, what)` is its guard: kCorrupt when loading, a no-op when
// saving. Loading-only steps that are not fields (index rebuilds,
// re-binding) sit beside the list under `if constexpr (Io::kLoading)`.
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrr::store {

// Classified store failure. Every decode/IO error in src/store throws this
// (never UB, never a partial object): callers branch on `kind` to report
// truncated vs. corrupted vs. version-skewed snapshots distinctly. kIo
// errors additionally carry a transient flag: a transient failure (EINTR,
// an injected flaky-disk EIO) may succeed if the same operation is retried
// — the RetryPolicy in io_env.h only re-attempts transient-classified
// errors; corruption kinds are never transient.
class StoreError : public std::runtime_error {
 public:
  enum class Kind {
    kTruncated,    // frame or payload shorter than its declared length
    kBadChecksum,  // frame checksum mismatch
    kVersionSkew,  // written by a newer format than this binary reads
    kCorrupt,      // structurally invalid (bad magic, impossible field)
    kIo,           // filesystem-level failure (open/stat/rename)
  };

  StoreError(Kind kind, const std::string& message, bool transient = false)
      : std::runtime_error(message), kind_(kind), transient_(transient) {}

  Kind kind() const { return kind_; }
  bool transient() const { return transient_; }

 private:
  Kind kind_;
  bool transient_;
};

const char* to_string(StoreError::Kind kind);

// `Self` is T or const T: a field list takes its object as `Self&`, const
// when saving.
template <class Self, class T>
concept Is = std::same_as<std::remove_const_t<Self>, T>;

namespace detail {
template <class T> inline constexpr bool kSequence = false;
template <class T> inline constexpr bool kSequence<std::vector<T>> = true;
template <class T> inline constexpr bool kSequence<std::deque<T>> = true;
template <class T> inline constexpr bool kOrdered = false;
template <class K, class V>
inline constexpr bool kOrdered<std::map<K, V>> = true;
template <class K> inline constexpr bool kOrdered<std::set<K>> = true;
template <class T> inline constexpr bool kOptional = false;
template <class T> inline constexpr bool kOptional<std::optional<T>> = true;
template <class T> inline constexpr bool kPair = false;
template <class A, class B>
inline constexpr bool kPair<std::pair<A, B>> = true;
}  // namespace detail

// The least bytes a T takes: the encoding of a value-initialized T, whose
// sequences are empty and whose optionals are absent.
template <class T>
std::size_t min_width();

class Encoder {
 public:
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i64(std::int64_t v) { raw(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v);

  // Length-prefixed byte strings (u64 length).
  void str(std::string_view v) {
    u64(v.size());
    buf_.append(v.data(), v.size());
  }

  // Writes each field in order (see the field vocabulary above).
  template <class... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }
  // An ordered map or set, named for the Decoder's error message.
  template <class M>
  void ordered(const M& m, const char* /*what*/) {
    put(m);
  }
  // A map whose values `each(io, value)` lists.
  template <class M, class Each>
  void ordered(const M& m, const char* /*what*/, Each&& each) {
    u64(m.size());
    for (const auto& [key, value] : m) {
      put(key);
      each(*this, value);
    }
  }
  // A sequence whose items `each(io, item)` lists, for items the vocabulary
  // cannot name; the Decoder's arguments do not apply here.
  template <class C, class Each, class... Args>
  void each(const C& items, std::size_t /*min_bytes*/, Each&& each,
            const Args&...) {
    u64(items.size());
    for (const auto& item : items) each(*this, item);
  }
  void check(bool, const char*) const {}

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void raw(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  template <class T>
  void put(const T& v);

  std::string buf_;
};

class Decoder {
 public:
  static constexpr bool kLoading = true;

  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  // A bool byte: 0 or 1, as Encoder::boolean writes; anything else is
  // kCorrupt.
  bool boolean() {
    const std::uint8_t v = u8();
    check(v <= 1, "store boolean byte is neither 0 nor 1");
    return v == 1;
  }
  double f64();

  std::string_view str() {
    std::uint64_t n = u64();
    need(n);
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  // Reads each field in order into place (see the field vocabulary above).
  template <class... T>
  void operator()(T&... fields) {
    (get(fields), ...);
  }
  // An ordered map or set; `what` names its keys in the kCorrupt message.
  template <class M>
  void ordered(M& m, const char* what) {
    std::size_t width = min_width<typename M::key_type>();
    if constexpr (!kIsSet<M>) width += min_width<typename M::mapped_type>();
    read_ordered(m, what, width, [](Decoder& dec, auto& value) { dec(value); });
  }
  // A map whose values `each(io, value)` lists.
  template <class M, class Each>
  void ordered(M& m, const char* what, Each&& each) {
    // The least a value takes: what `each` writes for a value-initialized
    // one.
    Encoder probe;
    const typename M::mapped_type value{};
    each(probe, value);
    read_ordered(m, what,
                 min_width<typename M::key_type>() + probe.buffer().size(),
                 each);
  }
  // A sequence whose items `each(io, item)` lists: each new item is
  // items.emplace_back(args...) before `each` fills it, and `min_bytes`,
  // the least any item takes, bounds the count.
  template <class C, class Each, class... Args>
  void each(C& items, std::size_t min_bytes, Each&& each,
            const Args&... args) {
    items.clear();
    const std::uint64_t n = count(min_bytes);
    for (std::uint64_t i = 0; i < n; ++i) {
      each(*this, items.emplace_back(args...));
    }
  }
  // The guard of a field list: kCorrupt unless `ok`.
  void check(bool ok, const char* what) const {
    if (!ok) throw StoreError(StoreError::Kind::kCorrupt, what);
  }

  // Returns `n`, an element count just read, after checking that the rest
  // of the payload can hold that many elements of at least `min_bytes`
  // (>= 1) each: a damaged count is kCorrupt before it sizes an allocation.
  std::uint64_t bounded(std::uint64_t n, std::size_t min_bytes) const {
    if (n > remaining() / min_bytes) {
      throw StoreError(StoreError::Kind::kCorrupt,
                       "store count exceeds the payload");
    }
    return n;
  }
  // Reads a u64 element count, bounded().
  std::uint64_t count(std::size_t min_bytes) {
    return bounded(u64(), min_bytes);
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  // Throws kCorrupt unless the payload was consumed exactly — a mismatch
  // means the writer and reader disagree on the schema.
  void expect_done() const;

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      throw StoreError(StoreError::Kind::kCorrupt,
                       "store payload ended mid-field");
    }
  }

  template <typename T>
  T raw() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  template <class M>
  static constexpr bool kIsSet =
      std::same_as<typename M::key_type, typename M::value_type>;
  template <class M, class Each>
  void read_ordered(M& m, const char* what, std::size_t width, Each&& each) {
    m.clear();
    const std::uint64_t n = count(width);
    for (std::uint64_t i = 0; i < n; ++i) {
      typename M::key_type key{};
      get(key);
      if (!m.empty()) {
        const auto& last = *std::prev(m.end());
        bool ascending;
        if constexpr (kIsSet<M>) {
          ascending = m.key_comp()(last, key);
        } else {
          ascending = m.key_comp()(last.first, key);
        }
        if (!ascending) {
          throw StoreError(StoreError::Kind::kCorrupt,
                           std::string(what) + " repeated or out of order");
        }
      }
      if constexpr (kIsSet<M>) {
        m.emplace_hint(m.end(), std::move(key));
      } else {
        each(*this, m.emplace_hint(m.end(), std::move(key),
                                   typename M::mapped_type{})
                        ->second);
      }
    }
  }
  template <class T>
  void get(T& v);

  std::string_view data_;
  std::size_t pos_ = 0;
};

template <class T>
void Encoder::put(const T& v) {
  if constexpr (std::same_as<T, bool>) {
    boolean(v);
  } else if constexpr (std::same_as<T, int>) {
    i64(v);
  } else if constexpr (std::same_as<T, double>) {
    f64(v);
  } else if constexpr (std::is_integral_v<T>) {
    raw(static_cast<std::make_unsigned_t<T>>(v));
  } else if constexpr (std::is_enum_v<T>) {
    u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    str(v);
  } else if constexpr (detail::kOptional<T>) {
    boolean(v.has_value());
    if (v) put(*v);
  } else if constexpr (detail::kPair<T>) {
    put(v.first);
    put(v.second);
  } else if constexpr (detail::kSequence<T> || detail::kOrdered<T>) {
    u64(v.size());
    for (const auto& item : v) put(item);
  } else if constexpr (std::is_pointer_v<T>) {
    put(*v);  // a save-side view of fields owned elsewhere
  } else if constexpr (requires { T::io(*this, v); }) {
    T::io(*this, v);
  } else if constexpr (requires { v.save_state(*this); }) {
    v.save_state(*this);
  } else {
    io(*this, v);
  }
}

template <class T>
void Decoder::get(T& v) {
  if constexpr (std::same_as<T, bool>) {
    v = boolean();
  } else if constexpr (std::same_as<T, int>) {
    v = static_cast<int>(i64());
  } else if constexpr (std::same_as<T, double>) {
    v = f64();
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(raw<std::make_unsigned_t<T>>());
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint8_t byte = u8();
    check(byte <= static_cast<std::uint8_t>(enum_last(T{})),
          "store enum byte out of range");
    v = static_cast<T>(byte);
  } else if constexpr (std::same_as<T, std::string> ||
                       std::same_as<T, std::string_view>) {
    v = T(str());
  } else if constexpr (detail::kOptional<T>) {
    if (boolean()) {
      get(v.emplace());
    } else {
      v.reset();
    }
  } else if constexpr (detail::kPair<T>) {
    get(v.first);
    get(v.second);
  } else if constexpr (detail::kSequence<T>) {
    v.clear();
    v.resize(count(min_width<typename T::value_type>()));
    for (auto& item : v) get(item);
  } else if constexpr (detail::kOrdered<T>) {
    ordered(v, "store keys");
  } else if constexpr (requires { T::io(*this, v); }) {
    T::io(*this, v);
  } else if constexpr (requires { v.load_state(*this); }) {
    v.load_state(*this);
  } else {
    io(*this, v);
  }
}

template <class T>
std::size_t min_width() {
  static const std::size_t width = [] {
    Encoder enc;
    enc(T{});
    return enc.buffer().size();
  }();
  return width;
}

}  // namespace rrr::store

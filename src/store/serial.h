// Byte-level primitives of the durable state store: a little-endian
// fixed-width Encoder/Decoder pair used by every checkpointable class's
// save()/load(). The encoding is deliberately position-based and
// schema-free — each class writes and reads its fields in one fixed order,
// so equal state always produces equal bytes (the property the
// resume-determinism grid leans on). Framing, versioning, and checksums
// live one layer up in framing.h; a Decoder only ever sees a payload that
// already passed those checks, so its own failure mode (running off the
// end, an impossible tag) is classified as kCorrupt.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

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

class Encoder {
 public:
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

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void raw(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  double f64();

  std::string_view str() {
    std::uint64_t n = u64();
    need(n);
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
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

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace rrr::store

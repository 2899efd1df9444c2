// Span log, statistics, output checks and telemetry readers shared by the
// benchmark's phases.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string_view>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

int SpanLog::open(const char* name, std::int64_t window) {
  Span span;
  span.name = name;
  span.window = window;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan); pop through `id` regardless.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void SpanLog::export_to(rrr::obs::TraceRecorder& recorder) const {
  // Rebase from this log's epoch onto the recorder's.
  const std::int64_t offset = recorder.now_ns() - now_ns();
  // The calling thread's ring holds a few thousand events; drain in chunks
  // so none are dropped.
  constexpr std::size_t kChunk = 1024;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    rrr::obs::TraceEvent event;
    event.name = span.name;
    event.category = "bench";
    event.start_ns = span.start_ns + offset;
    event.dur_ns = span.end_ns - span.start_ns;
    event.window = span.window;
    event.arg_name = "parent";
    event.arg = span.parent;
    recorder.record(event);
    if ((i + 1) % kChunk == 0) recorder.drain();
  }
  recorder.drain();
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::int64_t beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<std::int64_t>(n) -
         std::max<std::int64_t>(static_cast<std::int64_t>(rank), 1);
}

double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0}) {
    if (beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

// 32K entries of 4 bytes, 128 KB: inside any core's L2, so once warm a slice
// measures the core and what shares it, not what the last window left in the
// caches, which a change to rrr could move. (A 1 MB table and an uncached
// 16 MB one tracked the windows' drift worse; README "Steadiness".)
constexpr std::uint32_t kReferenceEntries = 1u << 15;
constexpr int kSliceSteps = 1 << 17;

}  // namespace

SpeedReference::SpeedReference() : next_(kReferenceEntries) {
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (std::uint32_t& v : next_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::uint32_t>(x);
  }
}

double SpeedReference::slice_ms() {
  std::uint32_t warm = 0;
  for (std::uint32_t v : next_) warm += v;
  std::uint32_t at = at_ ^ (warm & 1u);
  std::uint64_t acc = acc_;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSliceSteps; ++i) {
    // The next index depends on both the load and the multiply chain.
    at = next_[(at ^ static_cast<std::uint32_t>(acc)) &
               (kReferenceEntries - 1)];
    acc = (acc + at) * 0x9E3779B97F4A7C15ull;
    acc ^= acc >> 31;
  }
  const double ms = ms_since(t0);
  at_ = at;
  acc_ = acc;
  return ms;
}

void SignalDigest::fold(
    std::int64_t window,
    const std::vector<rrr::signals::StalenessSignal>& sigs) {
  for (const rrr::signals::StalenessSignal& s : sigs) {
    auto mix = [this](std::uint64_t v) {
      value = (value ^ v) * 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(window));
    mix(static_cast<std::uint64_t>(s.pair.probe));
    mix(s.pair.dst.value());
    mix(static_cast<std::uint64_t>(s.technique));
    mix(static_cast<std::uint64_t>(s.potential));
    ++count;
  }
}

namespace {

// Recursive-descent JSON syntax checker (RFC 8259 grammar, no extensions).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool document() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object(int depth) {
    ++i_;
    ws();
    if (peek('}')) return ++i_, true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!peek(':')) return false;
      ++i_;
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek('}')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool array(int depth) {
    ++i_;
    ws();
    if (peek(']')) return ++i_, true;
    while (true) {
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (peek(']')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool string() {
    if (!peek('"')) return false;
    ++i_;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            if (i_ >= s_.size() || !std::isxdigit(
                                       static_cast<unsigned char>(s_[i_++]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t begin = i_;
    if (peek('-')) ++i_;
    if (peek('0')) {
      ++i_;
    } else if (!digits()) {
      return false;
    }
    if (peek('.')) {
      ++i_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digits()) return false;
    }
    return i_ > begin;
  }
  bool digits() {
    const std::size_t begin = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > begin;
  }
  bool literal(std::string_view word) {
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

bool json_valid(const std::string& text) {
  return JsonChecker(text).document();
}

RegistryValues read_registry(const rrr::obs::MetricsRegistry* registry) {
  RegistryValues out;
  if (registry == nullptr) return out;
  for (const rrr::obs::MetricSnapshot& m : registry->snapshot()) {
    if (m.kind == rrr::obs::Kind::kHistogram) {
      out.sum[m.key()] = m.sum;
      out.count[m.key()] = static_cast<double>(m.count);
    } else {
      out.value[m.key()] = static_cast<double>(m.value);
    }
  }
  return out;
}

std::string series_key(const std::string& name, const std::string& label_key,
                       const std::string& label_value) {
  return name + "{" + label_key + "=\"" + label_value + "\"}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

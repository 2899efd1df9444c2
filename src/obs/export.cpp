#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rrr::obs {
namespace {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

const char* domain_name(Domain domain) {
  return domain == Domain::kSemantic ? "semantic" : "runtime";
}

std::string labels_json(const LabelList& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(labels[i].first) + "\":\"" +
           json_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

std::string labels_prometheus(const LabelList& labels,
                              const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + prometheus_escape_label(labels[i].second) +
           "\"";
  }
  if (!extra.empty()) {
    if (!labels.empty()) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string histogram_json(const MetricSnapshot& m) {
  std::string out = "{\"count\":" + std::to_string(m.count) +
                    ",\"sum\":" + format_number(m.sum) + ",\"bounds\":[";
  for (std::size_t i = 0; i < m.bounds.size(); ++i) {
    if (i > 0) out += ",";
    out += format_number(m.bounds[i]);
  }
  out += "],\"buckets\":[";
  for (std::size_t i = 0; i < m.buckets.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(m.buckets[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const MetricSnapshot& m = snapshot[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + json_escape(m.name) + "\",\"labels\":" +
           labels_json(m.labels) + ",\"kind\":\"" + kind_name(m.kind) +
           "\",\"domain\":\"" + domain_name(m.domain) + "\",";
    if (m.kind == Kind::kHistogram) {
      out += "\"histogram\":" + histogram_json(m);
    } else {
      out += "\"value\":" + std::to_string(m.value);
    }
    out += "}";
  }
  out += "]";
  return out;
}

bool prometheus_valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : snapshot) {
    if (!prometheus_valid_name(m.name)) continue;
    if (m.name != last_family) {
      if (!m.help.empty()) {
        out += "# HELP " + m.name + " " + m.help + "\n";
      }
      out += "# TYPE " + m.name + " " + kind_name(m.kind) + "\n";
      last_family = m.name;
    }
    if (m.kind != Kind::kHistogram) {
      out += m.name + labels_prometheus(m.labels) + " " +
             std::to_string(m.value) + "\n";
      continue;
    }
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b < m.buckets.size(); ++b) {
      cumulative += m.buckets[b];
      std::string le = b < m.bounds.size()
                           ? "le=\"" + format_number(m.bounds[b]) + "\""
                           : std::string("le=\"+Inf\"");
      out += m.name + "_bucket" + labels_prometheus(m.labels, le) + " " +
             std::to_string(cumulative) + "\n";
    }
    out += m.name + "_sum" + labels_prometheus(m.labels) + " " +
           format_number(m.sum) + "\n";
    out += m.name + "_count" + labels_prometheus(m.labels) + " " +
           std::to_string(m.count) + "\n";
  }
  return out;
}

double histogram_quantile(const MetricSnapshot& metric, double q) {
  if (metric.count <= 0) return 0.0;
  double target = q * static_cast<double>(metric.count);
  std::int64_t cumulative = 0;
  for (std::size_t b = 0; b < metric.buckets.size(); ++b) {
    cumulative += metric.buckets[b];
    if (static_cast<double>(cumulative) >= target) {
      return b < metric.bounds.size()
                 ? metric.bounds[b]
                 : std::numeric_limits<double>::infinity();
    }
  }
  return std::numeric_limits<double>::infinity();
}

bool env_enabled() {
  const char* value = std::getenv("RRR_STATS");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

void StatsSeries::sample(std::int64_t window,
                         const MetricsRegistry& registry) {
  Snapshot snapshot = registry.snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  std::string body;
  for (const MetricSnapshot& m : snapshot) {
    // Change fingerprint: observation count for histograms (sum is derived
    // from the same observations), raw value otherwise.
    std::int64_t fingerprint =
        m.kind == Kind::kHistogram ? m.count : m.value;
    auto it = last_.find(m.key());
    if (it != last_.end() && it->second == fingerprint) continue;
    last_[m.key()] = fingerprint;
    if (!body.empty()) body += ",";
    body += "\"" + json_escape(m.key()) + "\":";
    body += m.kind == Kind::kHistogram ? histogram_json(m)
                                       : std::to_string(m.value);
  }
  if (body.empty()) return;
  windows_.push_back("{\"window\":" + std::to_string(window) +
                     ",\"metrics\":{" + body + "}}");
}

std::string StatsSeries::json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    if (i > 0) out += ",";
    out += windows_[i];
  }
  out += "]";
  return out;
}

}  // namespace rrr::obs

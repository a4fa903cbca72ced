// Snapshot renderers.  Prometheus text exposition (families grouped, HELP /
// TYPE emitted once per family, histogram rendered cumulatively with the
// canonical _bucket/_sum/_count triplet) and a JSON array of samples for
// embedding in bench result files.
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "telemetry/telemetry.h"

namespace newton::telemetry {

namespace {

std::string fmt_double(double v) {
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string label_block(const Labels& labels, const std::string& extra_k = "",
                        const std::string& extra_v = "") {
  if (labels.empty() && extra_k.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + escape(v) + "\"";
  }
  if (!extra_k.empty()) {
    if (!first) out += ',';
    out += extra_k + "=\"" + escape(extra_v) + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string to_prometheus(const Snapshot& s) {
  std::string out;
  std::string last_family;
  for (const Sample& m : s.samples) {
    if (m.name != last_family) {
      last_family = m.name;
      if (!m.help.empty())
        out += "# HELP " + m.name + " " + escape(m.help) + "\n";
      out += "# TYPE " + m.name + " ";
      switch (m.kind) {
        case MetricKind::Counter: out += "counter\n"; break;
        case MetricKind::Gauge: out += "gauge\n"; break;
        case MetricKind::Histogram: out += "histogram\n"; break;
      }
    }
    if (m.kind == MetricKind::Histogram) {
      uint64_t cum = 0;
      for (std::size_t b = 0; b < m.buckets.size(); ++b) {
        cum += m.buckets[b];
        const std::string le =
            b < m.bounds.size() ? fmt_double(m.bounds[b]) : "+Inf";
        out += m.name + "_bucket" + label_block(m.labels, "le", le) + " " +
               std::to_string(cum) + "\n";
      }
      out += m.name + "_sum" + label_block(m.labels) + " " +
             fmt_double(m.sum) + "\n";
      out += m.name + "_count" + label_block(m.labels) + " " +
             std::to_string(m.count) + "\n";
    } else {
      out += m.name + label_block(m.labels) + " " + fmt_double(m.value) + "\n";
    }
  }
  return out;
}

std::string to_json(const Snapshot& s, int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  const std::string p1 = pad + "  ";
  std::string out = "[\n";
  for (std::size_t i = 0; i < s.samples.size(); ++i) {
    const Sample& m = s.samples[i];
    out += p1 + "{\"name\": \"" + escape(m.name) + "\"";
    if (!m.labels.empty()) {
      out += ", \"labels\": {";
      for (std::size_t j = 0; j < m.labels.size(); ++j) {
        if (j) out += ", ";
        out += '"';
        out += escape(m.labels[j].first);
        out += "\": \"";
        out += escape(m.labels[j].second);
        out += '"';
      }
      out += "}";
    }
    switch (m.kind) {
      case MetricKind::Counter:
        out += ", \"type\": \"counter\", \"value\": " + fmt_double(m.value);
        break;
      case MetricKind::Gauge:
        out += ", \"type\": \"gauge\", \"value\": " + fmt_double(m.value);
        break;
      case MetricKind::Histogram: {
        out += ", \"type\": \"histogram\", \"bounds\": [";
        for (std::size_t b = 0; b < m.bounds.size(); ++b)
          out += (b ? ", " : "") + fmt_double(m.bounds[b]);
        out += "], \"buckets\": [";
        for (std::size_t b = 0; b < m.buckets.size(); ++b)
          out += (b ? std::string(", ") : std::string()) +
                 std::to_string(m.buckets[b]);
        out += "], \"sum\": " + fmt_double(m.sum) +
               ", \"count\": " + std::to_string(m.count);
        break;
      }
    }
    out += "}";
    out += i + 1 < s.samples.size() ? ",\n" : "\n";
  }
  out += pad + "]";
  return out;
}

namespace {

uint64_t fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t series_hash(const Sample& m) {
  uint64_t h = fnv1a(0xcbf29ce484222325ull, m.name);
  for (const auto& [k, v] : m.labels) {
    h = fnv1a(h, k);
    h = fnv1a(h, v);
  }
  return h;
}

// log2 magnitude bucket: 0 stays 0, values land in 1 + floor(log2(v)).
uint64_t magnitude(double v) {
  if (v <= 0) return 0;
  uint64_t n = static_cast<uint64_t>(v);
  uint64_t b = 1;
  while (n > 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

uint64_t mix(uint64_t series, uint64_t salt) {
  uint64_t h = series ^ (salt * 0x9e3779b97f4a7c15ull);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

}  // namespace

std::vector<uint64_t> coverage_keys(const Snapshot& s) {
  std::vector<uint64_t> keys;
  keys.reserve(s.samples.size());
  for (const Sample& m : s.samples) {
    // Series derived from wall time or thread scheduling (merge and phase
    // durations, ring occupancy/backpressure) vary between identical runs;
    // a coverage signal must be a pure function of the executed scenario.
    if (m.name.find("_duration_") != std::string::npos ||
        m.name.find("_phase_us") != std::string::npos ||
        m.name.find("_occupancy") != std::string::npos ||
        m.name.find("_stalls_") != std::string::npos)
      continue;
    const uint64_t id = series_hash(m);
    if (m.kind == MetricKind::Histogram) {
      for (std::size_t b = 0; b < m.buckets.size(); ++b)
        if (m.buckets[b] != 0) keys.push_back(mix(id, 1000 + b));
    } else {
      if (m.value != 0) keys.push_back(mix(id, magnitude(m.value)));
    }
  }
  return keys;
}

}  // namespace newton::telemetry

#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace bft::obs {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
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

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

namespace {

void append_kv(std::string& out, const std::string& key, const std::string& raw,
               bool& first) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += json_escape(key);
  out += "\":";
  out += raw;
}

/// text as a JSON string literal.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += json_escape(text);
  out += '"';
  return out;
}

std::string ns_to_ms(std::int64_t ns) {
  return json_number(static_cast<double>(ns) / 1e6);
}

}  // namespace

std::string to_json(const MetricsRegistry& registry, const TraceRing* trace,
                    const std::map<std::string, std::string>& labels,
                    const std::map<std::string, double>& run) {
  std::string out = "{";
  bool top_first = true;

  {
    std::string section;
    bool first = true;
    for (const auto& [k, v] : labels) {
      append_kv(section, k, quoted(v), first);
    }
    append_kv(out, "labels", "{" + section + "}", top_first);
  }
  {
    std::string section;
    bool first = true;
    for (const auto& [k, v] : run) {
      append_kv(section, k, json_number(v), first);
    }
    append_kv(out, "run", "{" + section + "}", top_first);
  }

  std::string counters, gauges, histograms;
  bool counters_first = true, gauges_first = true, histograms_first = true;
  for (const auto& entry : registry.entries()) {
    switch (entry.kind) {
      case MetricsRegistry::Kind::kCounter:
        append_kv(counters, entry.name,
                  json_number(static_cast<double>(entry.counter->value())),
                  counters_first);
        break;
      case MetricsRegistry::Kind::kGauge:
        append_kv(gauges, entry.name,
                  json_number(static_cast<double>(entry.gauge->value())),
                  gauges_first);
        break;
      case MetricsRegistry::Kind::kHistogram: {
        const LatencyHistogram& h = *entry.histogram;
        std::string body;
        bool first = true;
        append_kv(body, "unit", quoted(entry.unit), first);
        append_kv(body, "count",
                  json_number(static_cast<double>(h.count())), first);
        append_kv(body, "p50",
                  json_number(static_cast<double>(h.quantile(0.50))), first);
        append_kv(body, "p95",
                  json_number(static_cast<double>(h.quantile(0.95))), first);
        append_kv(body, "p99",
                  json_number(static_cast<double>(h.quantile(0.99))), first);
        append_kv(body, "max", json_number(static_cast<double>(h.max())),
                  first);
        append_kv(body, "mean", json_number(h.mean()), first);
        append_kv(histograms, entry.name, "{" + body + "}", histograms_first);
        break;
      }
    }
  }
  append_kv(out, "counters", "{" + counters + "}", top_first);
  append_kv(out, "gauges", "{" + gauges + "}", top_first);
  append_kv(out, "histograms", "{" + histograms + "}", top_first);

  if (trace != nullptr) {
    std::string section;
    bool first = true;
    append_kv(section, "recorded",
              json_number(static_cast<double>(trace->recorded())), first);
    append_kv(section, "dropped",
              json_number(static_cast<double>(trace->dropped())), first);
    std::string stages;
    bool stages_first = true;
    for (const auto& [name, s] : stage_breakdown(trace->snapshot())) {
      std::string body;
      bool body_first = true;
      append_kv(body, "count", json_number(static_cast<double>(s.count)),
                body_first);
      append_kv(body, "p50_ms", ns_to_ms(s.p50), body_first);
      append_kv(body, "p95_ms", ns_to_ms(s.p95), body_first);
      append_kv(body, "p99_ms", ns_to_ms(s.p99), body_first);
      append_kv(body, "max_ms", ns_to_ms(s.max), body_first);
      append_kv(body, "mean_ms",
                json_number(s.mean / 1e6), body_first);
      append_kv(stages, name, "{" + body + "}", stages_first);
    }
    append_kv(section, "stages", "{" + stages + "}", first);
    append_kv(out, "trace", "{" + section + "}", top_first);
  }

  out += "}";
  return out;
}

}  // namespace bft::obs

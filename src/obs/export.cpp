#include "obs/export.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/float_io.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"

namespace smartnoc::obs {

namespace fs = std::filesystem;

std::string format_metric_value(double v) {
  // Counts are doubles internally (see obs/metrics.hpp) but must read as the
  // integers they are; 2^53 bounds the range where that rendering is exact.
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9007199254740992.0) {
    return strf("%.0f", v);
  }
  return format_double_rt(v);
}

namespace {

std::string prom_sample_name(const MetricSnapshot& s, const char* suffix,
                             const std::string& extra_label) {
  std::string out = s.name + suffix;
  std::string labels = s.label;
  if (!extra_label.empty()) labels += (labels.empty() ? "" : ",") + extra_label;
  if (!labels.empty()) out += "{" + labels + "}";
  return out;
}

std::string le_string(double bound) { return format_double_rt(bound); }

void emit_family_header(std::string& out, const MetricSnapshot& s) {
  if (!s.help.empty()) out += "# HELP " + s.name + " " + s.help + "\n";
  out += "# TYPE " + s.name + " " + std::string(metric_kind_name(s.kind)) + "\n";
}

}  // namespace

std::string to_prometheus(const MetricsRegistry& reg) {
  const std::vector<MetricSnapshot> snap = reg.snapshot();
  // Prometheus requires all samples of a family in one group; labeled
  // instruments may have been registered interleaved with other families, so
  // group by name while keeping first-appearance order.
  std::vector<std::size_t> order;  // indices into snap, grouped by family
  {
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < snap.size(); ++i) {
      bool done = false;
      for (const std::string& name : seen) done = done || name == snap[i].name;
      if (done) continue;
      seen.push_back(snap[i].name);
      for (std::size_t j = i; j < snap.size(); ++j) {
        if (snap[j].name == snap[i].name) order.push_back(j);
      }
    }
  }
  std::string out;
  std::string last_family;
  for (const std::size_t i : order) {
    const MetricSnapshot& s = snap[i];
    if (s.name != last_family) {
      emit_family_header(out, s);
      last_family = s.name;
    }
    switch (s.kind) {
      case MetricKind::Counter:
      case MetricKind::Gauge:
        out += prom_sample_name(s, "", "") + " " + format_metric_value(s.value) + "\n";
        break;
      case MetricKind::Histogram: {
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          out += prom_sample_name(s, "_bucket", "le=\"" + le_string(s.bounds[b]) + "\"") + " " +
                 strf("%llu", static_cast<unsigned long long>(s.cumulative[b])) + "\n";
        }
        out += prom_sample_name(s, "_bucket", "le=\"+Inf\"") + " " +
               strf("%llu", static_cast<unsigned long long>(s.cumulative.back())) + "\n";
        out += prom_sample_name(s, "_sum", "") + " " + format_metric_value(s.sum) + "\n";
        out += prom_sample_name(s, "_count", "") + " " +
               strf("%llu", static_cast<unsigned long long>(s.count)) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json(const MetricsRegistry& reg) {
  std::string out = "{\"metrics\": [\n";
  const std::vector<MetricSnapshot> snap = reg.snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const MetricSnapshot& s = snap[i];
    out += "  {\"name\": \"" + s.name + "\"";
    if (!s.label.empty()) out += ", \"label\": \"" + json_escape(s.label) + "\"";
    out += std::string(", \"type\": \"") + metric_kind_name(s.kind) + "\"";
    if (s.kind == MetricKind::Histogram) {
      out += ", \"buckets\": [";
      for (std::size_t b = 0; b <= s.bounds.size(); ++b) {
        if (b > 0) out += ", ";
        out += "{\"le\": ";
        out += b < s.bounds.size() ? format_double_rt(s.bounds[b]) : std::string("\"+Inf\"");
        out += strf(", \"cumulative\": %llu}", static_cast<unsigned long long>(s.cumulative[b]));
      }
      out += "], \"sum\": " + format_metric_value(s.sum) +
             strf(", \"count\": %llu", static_cast<unsigned long long>(s.count));
    } else {
      out += ", \"value\": " + format_metric_value(s.value);
    }
    out += "}";
    if (i + 1 < snap.size()) out += ",";
    out += "\n";
  }
  out += "]}\n";
  return out;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw ConfigError("cannot write '" + tmp + "'");
    f << content << std::flush;
    if (!f) throw ConfigError("write failed for '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw ConfigError("cannot rename '" + tmp + "': " + ec.message());
}

std::string to_json(const Heartbeat& hb) {
  std::string out = "{";
  out += strf("\"pid\": %lld", hb.pid);
  out += ", \"uptime_seconds\": " + format_double_rt(hb.uptime_seconds);
  out += ", \"job\": \"" + json_escape(hb.job) + "\"";
  out += strf(", \"points_done\": %llu", static_cast<unsigned long long>(hb.points_done));
  out += strf(", \"points_total\": %llu", static_cast<unsigned long long>(hb.points_total));
  out += ", \"points_per_sec\": " + format_double_rt(hb.points_per_sec);
  out += ", \"eta_seconds\": " + format_double_rt(hb.eta_seconds);
  out += "}\n";
  return out;
}

Heartbeat heartbeat_from_json(const std::string& text) {
  const json::Value root = json::parse(text, "heartbeat JSON");
  if (root.kind != json::Value::Kind::Object) {
    throw ConfigError("heartbeat JSON: expected an object");
  }
  Heartbeat hb;
  for (const auto& [key, v] : root.members) {
    const char* what = key.c_str();
    if (key == "job") {
      hb.job = v.as(json::Value::Kind::String, key);
      continue;
    }
    const std::string& tok = v.as(json::Value::Kind::Number, key);
    if (key == "pid") hb.pid = parse_int_token(tok, key);
    else if (key == "uptime_seconds") hb.uptime_seconds = parse_double_rt(tok, what);
    else if (key == "points_done") hb.points_done = parse_u64_token(tok, key);
    else if (key == "points_total") hb.points_total = parse_u64_token(tok, key);
    else if (key == "points_per_sec") hb.points_per_sec = parse_double_rt(tok, what);
    else if (key == "eta_seconds") hb.eta_seconds = parse_double_rt(tok, what);
    else throw ConfigError("heartbeat JSON: unknown key '" + key + "'");
  }
  return hb;
}

}  // namespace smartnoc::obs

#include "sim/scenario.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "sim/workload.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc::sim {

// --- Spec construction -------------------------------------------------------

ScenarioSpec ScenarioSpec::classic(Design design, const std::string& workload,
                                   double injection, const NocConfig& cfg) {
  ScenarioSpec spec;
  spec.name = "classic";
  spec.design = design;
  spec.config = cfg;
  spec.phases = classic_phases(cfg);
  spec.phases.front().workload = workload;
  spec.phases.front().injection = injection;
  return spec;
}

std::vector<PhaseSpec> classic_phases(const NocConfig& cfg) {
  PhaseSpec warmup;
  warmup.name = "warmup";
  warmup.cycles = cfg.warmup_cycles;
  PhaseSpec measure;
  measure.name = "measure";
  measure.cycles = cfg.measure_cycles;
  measure.measure = true;
  PhaseSpec drain;
  drain.name = "drain";
  drain.drain = true;
  drain.traffic = false;
  // The caller's timeout rides in the phase itself, so a borrowed Session
  // honors the cfg run_simulation was handed (which may differ from the
  // network's build-time config).
  drain.cycles = cfg.drain_timeout;
  return {warmup, measure, drain};
}

// --- The scalar field table --------------------------------------------------

namespace {

/// A string field. Every string must survive the text form: no '#'
/// (comment), no control character (line break), no leading or trailing
/// space (trimmed); a token also holds no space (the phase line splits on it).
struct Str {
  std::string* s;
  bool token;
};

/// Where a key's value lives; the alternative picks its codec. NocConfig*
/// is the mesh codec ("WxH", width and height).
using Slot = std::variant<int*, std::uint64_t*, double*, bool*, Str, Design*, RoutingPolicy*,
                          noc::BernoulliMode*, NocConfig*>;

struct Scalar {
  const char* key;
  Slot (*slot)(ScenarioSpec&);
  /// Written only when it differs from the default, so files from before
  /// the key existed round-trip byte for byte.
  bool omit_default = false;
};
constexpr bool kOmitDefault = true;

template <auto M> Slot top(ScenarioSpec& s) { return &(s.*M); }
template <auto M> Slot cfg(ScenarioSpec& s) { return &(s.config.*M); }
template <auto M> Slot tel(ScenarioSpec& s) { return &(s.telemetry.*M); }
template <auto M> Slot path(ScenarioSpec& s) { return Str{&(s.telemetry.*M), true}; }
Slot name(ScenarioSpec& s) { return Str{&s.name, false}; }

/// Every scenario-level key, in serialization order: the text and JSON
/// parsers and both serializers are generated from this one list.
const Scalar kScalars[] = {
    {"name", name},
    {"design", top<&ScenarioSpec::design>},
    {"mesh", top<&ScenarioSpec::config>},
    {"flit_bits", cfg<&NocConfig::flit_bits>},
    {"packet_bits", cfg<&NocConfig::packet_bits>},
    {"vcs", cfg<&NocConfig::vcs_per_port>},
    {"vc_depth", cfg<&NocConfig::vc_depth_flits>},
    {"freq_ghz", cfg<&NocConfig::freq_ghz>},
    {"hop_mm", cfg<&NocConfig::hop_mm>},
    {"hpc", cfg<&NocConfig::hpc_max_override>},
    {"routing", cfg<&NocConfig::routing>},
    {"seed", cfg<&NocConfig::seed>},
    {"warmup", cfg<&NocConfig::warmup_cycles>},
    {"measure", cfg<&NocConfig::measure_cycles>},
    {"drain_timeout", cfg<&NocConfig::drain_timeout>},
    {"bandwidth_scale", cfg<&NocConfig::bandwidth_scale>},
    {"fault_rate", top<&ScenarioSpec::fault_rate>},
    {"single_config_core", top<&ScenarioSpec::single_config_core>},
    {"store_issue", top<&ScenarioSpec::store_issue_cycles>},
    {"traffic_mode", top<&ScenarioSpec::traffic_mode>},
    {"reference_kernel", top<&ScenarioSpec::use_reference_kernel>},
    {"watchdog", cfg<&NocConfig::watchdog_window>, kOmitDefault},
    {"retry_limit", cfg<&NocConfig::retry_limit>, kOmitDefault},
    {"retry_backoff", cfg<&NocConfig::retry_backoff_cycles>, kOmitDefault},
    {"shard_threads", cfg<&NocConfig::shard_threads>, kOmitDefault},
    {"telemetry_epoch", tel<&TelemetrySpec::epoch_cycles>, kOmitDefault},
    {"record_trace", path<&TelemetrySpec::record_trace>, kOmitDefault},
    {"telemetry_csv", path<&TelemetrySpec::csv>, kOmitDefault},
    {"telemetry_power_csv", path<&TelemetrySpec::power_csv>, kOmitDefault},
    {"telemetry_heatmap", path<&TelemetrySpec::heatmap>, kOmitDefault},
    {"telemetry_chrome", path<&TelemetrySpec::chrome>, kOmitDefault},
    {"telemetry_chrome_events", tel<&TelemetrySpec::chrome_events>, kOmitDefault},
};

/// A row's slot for reading only (the accessors are shared with parsing).
Slot read(const Scalar& row, const ScenarioSpec& spec) {
  return row.slot(const_cast<ScenarioSpec&>(spec));
}

template <class E>
struct Spelling {
  const char* name;
  E value;
};
// The first spelling of a value is the one written; later ones are aliases.
constexpr Spelling<Design> kDesigns[] = {{"mesh", Design::Mesh},
                                         {"smart", Design::Smart},
                                         {"dedicated", Design::Dedicated},
                                         {"baseline", Design::Mesh}};
constexpr Spelling<RoutingPolicy> kRoutings[] = {{"xy", RoutingPolicy::XY},
                                                 {"west-first", RoutingPolicy::WestFirst},
                                                 {"westfirst", RoutingPolicy::WestFirst}};
constexpr Spelling<noc::BernoulliMode> kTrafficModes[] = {
    {"per-cycle", noc::BernoulliMode::PerCycle}, {"gap-skip", noc::BernoulliMode::GapSkip}};

constexpr const auto& spellings(Design) { return kDesigns; }
constexpr const auto& spellings(RoutingPolicy) { return kRoutings; }
constexpr const auto& spellings(noc::BernoulliMode) { return kTrafficModes; }

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A slot's value as its token.
std::string encode(const Slot& slot) {
  return std::visit(
      [](auto p) -> std::string {
        using P = decltype(p);
        if constexpr (std::is_same_v<P, Str>) {
          return *p.s;
        } else if constexpr (std::is_same_v<P, NocConfig*>) {
          return std::to_string(p->width) + "x" + std::to_string(p->height);
        } else if constexpr (std::is_same_v<P, bool*>) {
          return *p ? "true" : "false";
        } else if constexpr (std::is_same_v<P, double*>) {
          return fmt_double(*p);
        } else if constexpr (std::is_enum_v<std::remove_pointer_t<P>>) {
          for (const auto& sp : spellings(*p)) {
            if (sp.value == *p) return sp.name;
          }
          return "?";
        } else {
          return std::to_string(*p);
        }
      },
      slot);
}

/// JSON writes numbers and booleans bare, everything else as a string.
bool json_quoted(const Slot& slot) {
  return std::visit(
      [](auto p) { return !std::is_arithmetic_v<std::remove_pointer_t<decltype(p)>>; }, slot);
}

/// Sets a slot from its token; the error names `key`.
void decode(const Slot& slot, const std::string& tok, const std::string& key) {
  std::visit(
      [&](auto p) {
        using P = decltype(p);
        if constexpr (std::is_same_v<P, Str>) {
          *p.s = tok;
        } else if constexpr (std::is_same_v<P, NocConfig*>) {
          const auto x = tok.find('x');
          if (x == std::string::npos) throw ConfigError(key + ": expected WxH, got '" + tok + "'");
          p->width = parse_int_token(tok.substr(0, x), key + " width");
          p->height = parse_int_token(tok.substr(x + 1), key + " height");
        } else if constexpr (std::is_same_v<P, bool*>) {
          *p = parse_bool_token(tok, key);
        } else if constexpr (std::is_same_v<P, double*>) {
          *p = parse_double_token(tok, key);
        } else if constexpr (std::is_same_v<P, int*>) {
          *p = parse_int_token(tok, key);
        } else if constexpr (std::is_same_v<P, std::uint64_t*>) {
          *p = parse_u64_token(tok, key);
        } else {
          const std::string t = lower_token(tok);
          std::string names;
          for (const auto& sp : spellings(*p)) {
            if (t == sp.name) {
              *p = sp.value;
              return;
            }
            names += names.empty() ? "" : ", ";
            names += sp.name;
          }
          throw ConfigError("unknown " + key + " '" + tok + "' (" + names + ")");
        }
      },
      slot);
}

/// The Str rule (see there).
void check_string(const std::string& v, const std::string& what, bool token) {
  bool ok = token || v.empty() || (v.front() != ' ' && v.back() != ' ');
  for (const char c : v) {
    ok = ok && c != '#' && !std::iscntrl(static_cast<unsigned char>(c)) && !(token && c == ' ');
  }
  if (!ok) {
    throw ConfigError(what + " \"" + json_escape(v) + "\" contains " +
                      (token ? "whitespace, '#' or a control character"
                             : "'#', a control character or edge spaces") +
                      ", which the scenario text form cannot represent");
  }
}

void check_finite(double v, const std::string& what) {
  if (!std::isfinite(v)) throw ConfigError(what + " must be finite, got " + fmt_double(v));
}

/// Applies one scenario-level `key = value` assignment (both dialects).
void apply_scalar(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  for (const Scalar& row : kScalars) {
    if (key == row.key) return decode(row.slot(spec), value, key);
  }
  throw ConfigError("unknown scenario key '" + key + "'");
}

/// Applies one valued phase key shared by both dialects; the fault-rate
/// key is spelled `fault` in text and `fault_rate` in JSON. Returns false
/// for any other key.
bool apply_phase_key(PhaseSpec& ph, const std::string& key, const std::string& value,
                     const std::string& ctx, const char* fault_key) {
  if (key == "workload") {
    ph.workload = normalize_workload_key(value);
  } else if (key == "injection") {
    ph.injection = parse_double_token(value, ctx + " injection");
  } else if (key == "cycles") {
    ph.cycles = parse_u64_token(value, ctx + " cycles");
  } else if (key == fault_key) {
    ph.fault_rate = parse_double_token(value, ctx + " " + key);
    if (ph.fault_rate < 0.0) {
      throw ConfigError(ctx + ": fault rate must be in [0,1] (omit the key to inherit)");
    }
  } else {
    return false;
  }
  return true;
}

/// Calls emit(slot, key, token) for each scalar the serializers write.
template <class Emit>
void for_each_written(const ScenarioSpec& spec, Emit emit) {
  static const ScenarioSpec kDefaults;
  for (const Scalar& row : kScalars) {
    const Slot slot = read(row, spec);
    const std::string tok = encode(slot);
    if (row.omit_default && tok == encode(read(row, kDefaults))) continue;
    emit(slot, row.key, tok);
  }
}

}  // namespace

void ScenarioSpec::validate() const {
  config.validate();
  if (phases.empty()) throw ConfigError("scenario '" + name + "' declares no phases");
  // Every string and double obeys the rules under which the text and JSON
  // forms round-trip (parse -> serialize -> parse is the identity).
  for (const Scalar& row : kScalars) {
    std::visit(
        [&](auto p) {
          using P = decltype(p);
          if constexpr (std::is_same_v<P, Str>) check_string(*p.s, row.key, p.token);
          if constexpr (std::is_same_v<P, double*>) check_finite(*p, row.key);
        },
        read(row, *this));
  }
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    throw ConfigError("fault_rate must be in [0,1]");
  }
  if ((!telemetry.csv.empty() || !telemetry.power_csv.empty() || !telemetry.heatmap.empty() ||
       !telemetry.chrome.empty()) &&
      telemetry.epoch_cycles == 0) {
    throw ConfigError("telemetry exports need a sample window: set telemetry_epoch > 0");
  }
  for (const noc::FaultEventSpec& ev : fault_events) ev.validate(config.dims());
  if (!fault_events.empty() && design == Design::Dedicated) {
    throw ConfigError("fault events target mesh links and routers; the dedicated design "
                      "has neither (remove fault_event lines or pick mesh/smart)");
  }
  std::string wl;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& ph = phases[i];
    const std::string ctx = "phase " + std::to_string(i) + " ('" + json_escape(ph.name) + "')";
    if (ph.name.empty()) throw ConfigError("phase " + std::to_string(i) + " has no name");
    check_string(ph.name, ctx + ": name", true);
    check_string(ph.workload, ctx + ": workload", true);
    check_finite(ph.injection, ctx + ": injection");
    check_finite(ph.fault_rate, ctx + ": fault_rate");
    if (ph.drain && ph.traffic) {
      throw ConfigError(ctx + ": drain phases run with traffic off (add no-traffic)");
    }
    if (!ph.workload.empty()) wl = ph.workload;
    if (ph.injection < 0.0) throw ConfigError(ctx + ": injection must be >= 0");
    // Negative = the -1.0 inherit sentinel only (an arbitrary negative is
    // a typo that would silently inherit, and would not survive the
    // serialize round trip).
    if (ph.fault_rate > 1.0 || (ph.fault_rate < 0.0 && ph.fault_rate != -1.0)) {
      throw ConfigError(ctx + ": fault rate must be in [0,1] (or -1 = inherit)");
    }
    if (wl.empty()) {
      throw ConfigError(ctx + ": no workload named yet (the first phase must name one)");
    }
    // Trace replay runs a recorded injection log on the recorded routes and
    // presets; any fault interference voids the bit-identical-replay
    // contract. Reject at declaration time, not mid-run from switch_era.
    if (telemetry::is_trace_workload_key(wl)) {
      const double eff_fault = ph.fault_rate >= 0.0 ? ph.fault_rate : fault_rate;
      if (eff_fault > 0.0) {
        throw ConfigError(ctx + ": trace replay cannot run under link faults (effective "
                          "fault rate " + std::to_string(eff_fault) + "); set fault = 0 for '" +
                          wl + "'");
      }
      if (!fault_events.empty()) {
        throw ConfigError(ctx + ": trace replay cannot run with online fault events ('" +
                          wl + "' replays a capture; remove the fault_event lines)");
      }
    }
  }
}

// --- Text form ---------------------------------------------------------------

std::string serialize_scenario_text(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "# smartnoc scenario\n";
  for_each_written(spec, [&](const Slot&, const char* key, const std::string& tok) {
    out << key << " = " << tok << "\n";
  });
  for (const noc::FaultEventSpec& ev : spec.fault_events) {
    out << "fault_event " << noc::format_fault_schedule_token({ev}) << "\n";
  }
  for (const PhaseSpec& ph : spec.phases) {
    out << "phase " << ph.name;
    if (!ph.workload.empty()) out << " workload=" << ph.workload;
    if (ph.injection > 0.0) out << " injection=" << fmt_double(ph.injection);
    if (ph.cycles > 0) out << " cycles=" << ph.cycles;
    if (ph.fault_rate >= 0.0) out << " fault=" << fmt_double(ph.fault_rate);
    if (ph.measure) out << " measure";
    if (!ph.traffic) out << " no-traffic";
    if (ph.drain) out << " drain";
    if (ph.reconfigure) out << " reconfigure";
    out << "\n";
  }
  return out.str();
}

namespace {

PhaseSpec parse_phase_line(const std::string& rest) {
  std::istringstream ss(rest);
  std::string tok;
  PhaseSpec ph;
  if (!(ss >> tok)) throw ConfigError("phase needs a name");
  ph.name = tok;
  const std::string ctx = "phase '" + ph.name + "'";
  while (ss >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string key = lower_token(tok.substr(0, eq));
      if (!apply_phase_key(ph, key, tok.substr(eq + 1), ctx, "fault")) {
        throw ConfigError(ctx + ": unknown phase key '" + key + "'");
      }
    } else {
      const std::string flag = lower_token(tok);
      if (flag == "measure") ph.measure = true;
      else if (flag == "drain") { ph.drain = true; ph.traffic = false; }
      else if (flag == "no-traffic") ph.traffic = false;
      else if (flag == "reconfigure") ph.reconfigure = true;
      else throw ConfigError(ctx + ": unknown phase flag '" + flag + "'");
    }
  }
  return ph;
}

void parse_scenario_text(const std::string& text, ScenarioSpec& spec) {
  std::istringstream ss(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(ss, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim_token(raw);
    if (line.empty()) continue;
    const auto starts_with_word = [&](const std::string& w) {
      return line.rfind(w, 0) == 0 &&
             (line.size() == w.size() || std::isspace(static_cast<unsigned char>(line[w.size()])));
    };
    try {
      if (starts_with_word("phase")) {
        spec.phases.push_back(parse_phase_line(line.substr(5)));
      } else if (starts_with_word("fault_event")) {
        const auto evs = noc::parse_fault_schedule_token(trim_token(line.substr(11)));
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      } else if (const auto eq = line.find('='); eq != std::string::npos) {
        apply_scalar(spec, lower_token(trim_token(line.substr(0, eq))),
                     trim_token(line.substr(eq + 1)));
      } else {
        throw ConfigError("expected 'key = value' or 'phase ...', got '" + line + "'");
      }
    } catch (const ConfigError& e) {
      throw ConfigError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
}

// --- JSON form ---------------------------------------------------------------

using Kind = json::Value::Kind;

/// Scalar JSON values reach the same decoders as the text form: strings,
/// numbers and booleans all carry their token in `text`.
const std::string& scalar_token(const json::Value& v, const std::string& key) {
  if (v.kind != Kind::String && v.kind != Kind::Number && v.kind != Kind::Bool) {
    throw ConfigError("scenario JSON: key '" + key + "' must be a scalar");
  }
  return v.text;
}

void parse_scenario_json(const std::string& text, ScenarioSpec& spec) {
  const json::Value root = json::parse(text, "scenario JSON");
  if (root.kind != Kind::Object) throw ConfigError("scenario JSON: top level must be an object");
  for (const auto& [key, v] : root.members) {
    if (key == "phases") {
      if (v.kind != Kind::Array) throw ConfigError("scenario JSON: 'phases' must be an array");
      for (const json::Value& p : v.items) {
        if (p.kind != Kind::Object) {
          throw ConfigError("scenario JSON: each phase must be an object");
        }
        PhaseSpec ph;
        const std::string ctx = "scenario JSON phase " + std::to_string(spec.phases.size());
        for (const auto& [pk, pv] : p.members) {
          const std::string& tok = scalar_token(pv, pk);
          if (pk == "name") ph.name = tok;
          else if (pk == "measure") ph.measure = parse_bool_token(tok, pk);
          else if (pk == "traffic") ph.traffic = parse_bool_token(tok, pk);
          else if (pk == "drain") ph.drain = parse_bool_token(tok, pk);
          else if (pk == "reconfigure") ph.reconfigure = parse_bool_token(tok, pk);
          else if (!apply_phase_key(ph, pk, tok, ctx, "fault_rate")) {
            throw ConfigError(ctx + ": unknown phase key '" + pk + "'");
          }
        }
        if (ph.drain) ph.traffic = false;
        spec.phases.push_back(std::move(ph));
      }
    } else if (key == "fault_events") {
      if (v.kind != Kind::Array) {
        throw ConfigError("scenario JSON: 'fault_events' must be an array of schedule tokens");
      }
      for (const json::Value& t : v.items) {
        const auto evs = noc::parse_fault_schedule_token(t.as(Kind::String, "fault event"));
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      }
    } else {
      apply_scalar(spec, key, scalar_token(v, key));
    }
  }
}

}  // namespace

std::string serialize_scenario_json(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "{\n";
  for_each_written(spec, [&](const Slot& slot, const char* key, const std::string& tok) {
    out << "  \"" << key << "\": " << (json_quoted(slot) ? '"' + json_escape(tok) + '"' : tok)
        << ",\n";
  });
  if (!spec.fault_events.empty()) {
    out << "  \"fault_events\": [";
    for (std::size_t i = 0; i < spec.fault_events.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\""
          << noc::format_fault_schedule_token({spec.fault_events[i]}) << "\"";
    }
    out << "],\n";
  }
  out << "  \"phases\": [\n";
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& ph = spec.phases[i];
    out << "    {\"name\": \"" << json_escape(ph.name) << "\"";
    if (!ph.workload.empty()) out << ", \"workload\": \"" << json_escape(ph.workload) << "\"";
    if (ph.injection > 0.0) out << ", \"injection\": " << fmt_double(ph.injection);
    if (ph.cycles > 0) out << ", \"cycles\": " << ph.cycles;
    if (ph.fault_rate >= 0.0) out << ", \"fault_rate\": " << fmt_double(ph.fault_rate);
    if (ph.measure) out << ", \"measure\": true";
    if (!ph.traffic && !ph.drain) out << ", \"traffic\": false";
    if (ph.drain) out << ", \"drain\": true";
    if (ph.reconfigure) out << ", \"reconfigure\": true";
    out << "}" << (i + 1 < spec.phases.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;  // unset keys keep the defaults (NocConfig::paper_4x4())
  const std::size_t first = text.find_first_not_of(" \t\n\v\f\r");
  if (first != std::string::npos && text[first] == '{') {
    parse_scenario_json(text, spec);
  } else {
    parse_scenario_text(text, spec);
  }
  spec.config.fit_derived();
  spec.validate();
  return spec;
}

}  // namespace smartnoc::sim

#include "explore/result_sink.hpp"

#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/float_io.hpp"
#include "common/json.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"

namespace smartnoc::explore {

namespace {

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// Splits CSV text into rows of fields. A double-quoted field may hold
/// commas, line breaks and "" escapes; blank lines are skipped.
std::vector<std::vector<std::string>> csv_rows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cur;
  bool quoted = false;
  std::size_t row_start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : '\n';  // the last row may lack its newline
    if (quoted) {
      if (c != '"') cur += c;
      else if (i + 1 < text.size() && text[i + 1] == '"') cur += text[++i];
      else quoted = false;
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',' || c == '\n') {
      row.push_back(std::move(cur));
      cur.clear();
      if (c == '\n') {
        if (i > row_start) rows.push_back(std::move(row));
        row.clear();
        row_start = i + 1;
      }
    } else {
      cur += c;
    }
  }
  if (quoted) throw ConfigError("CSV ends inside a quoted field");
  return rows;
}

// --- The RunRecord column table ----------------------------------------------

using Member = std::variant<std::uint64_t RunRecord::*, int RunRecord::*, double RunRecord::*,
                            bool RunRecord::*, std::string RunRecord::*>;

struct Column {
  const char* name;
  Member member;  ///< its type picks the codec
};

/// The columns in CSV/JSON order: the CSV header, to_csv/from_csv and
/// record_to_json/record_from_json are all generated from this one list.
/// Doubles use the shortest round-trip rendering (common/float_io.hpp), so
/// parsing recovers them bit-exactly, non-finite values included.
constexpr Column kColumns[] = {
    {"index", &RunRecord::index},
    {"width", &RunRecord::width},
    {"height", &RunRecord::height},
    {"flit_bits", &RunRecord::flit_bits},
    {"hpc_max", &RunRecord::hpc_max},
    {"injection", &RunRecord::injection},
    {"workload", &RunRecord::workload},
    {"fault_rate", &RunRecord::fault_rate},
    {"fault_schedule", &RunRecord::fault_schedule},
    {"design", &RunRecord::design},
    {"seed", &RunRecord::seed},
    {"ok", &RunRecord::ok},
    {"error", &RunRecord::error},
    {"flows", &RunRecord::flows},
    {"dropped_flows", &RunRecord::dropped_flows},
    {"packets", &RunRecord::packets},
    {"avg_net_latency", &RunRecord::avg_net_latency},
    {"avg_total_latency", &RunRecord::avg_total_latency},
    {"p50_latency", &RunRecord::p50_latency},
    {"p99_latency", &RunRecord::p99_latency},
    {"max_latency", &RunRecord::max_latency},
    {"throughput_ppc", &RunRecord::throughput_ppc},
    {"power_mw", &RunRecord::power_mw},
    {"area_mm2", &RunRecord::area_mm2},
    {"packets_offered", &RunRecord::packets_offered},
    {"packets_dropped", &RunRecord::packets_dropped},
    {"packets_retransmitted", &RunRecord::packets_retransmitted},
    {"flows_rerouted", &RunRecord::flows_rerouted},
    {"flows_failed", &RunRecord::flows_failed},
};

/// One cell as CSV (strings quoted, flags 1/0) or JSON text.
std::string format_cell(const RunRecord& r, const Column& col, bool json) {
  return std::visit(
      [&](auto m) -> std::string {
        const auto& v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return json ? '"' + json_escape(v) + '"' : csv_quote(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return json ? (v ? "true" : "false") : (v ? "1" : "0");
        } else if constexpr (std::is_same_v<T, double>) {
          return format_double_rt(v);
        } else {
          return std::to_string(v);
        }
      },
      col.member);
}

/// Sets one cell from a CSV field or a JSON value's text; numbers and flags
/// must parse in full.
void parse_cell(RunRecord& r, const Column& col, const std::string& tok) {
  std::visit(
      [&](auto m) {
        auto& v = r.*m;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) v = tok;
        else if constexpr (std::is_same_v<T, bool>) v = parse_bool_token(tok, col.name);
        else if constexpr (std::is_same_v<T, double>) v = parse_double_rt(tok, col.name);
        else if constexpr (std::is_same_v<T, int>) v = parse_int_token(tok, col.name);
        else v = parse_u64_token(tok, col.name);
      },
      col.member);
}

json::Value::Kind json_kind(const Column& col) {
  using Kind = json::Value::Kind;
  if (std::holds_alternative<std::string RunRecord::*>(col.member)) return Kind::String;
  if (std::holds_alternative<bool RunRecord::*>(col.member)) return Kind::Bool;
  return Kind::Number;
}

const Column& find_column(const std::string& name) {
  for (const Column& col : kColumns) {
    if (name == col.name) return col;
  }
  throw ConfigError("JSON: unknown ResultTable key '" + name + "'");
}

RunRecord record_from_value(const json::Value& v) {
  if (v.kind != json::Value::Kind::Object) throw ConfigError("JSON: a record must be an object");
  RunRecord r;
  for (const auto& [key, value] : v.members) {
    const Column& col = find_column(key);
    parse_cell(r, col, value.as(json_kind(col), key));
  }
  return r;
}

}  // namespace

std::size_t ResultTable::ok_count() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.ok ? 1 : 0;
  return n;
}

std::string ResultTable::to_csv() const {
  std::string out;
  for (const Column& col : kColumns) {
    if (&col != kColumns) out += ',';
    out += col.name;
  }
  out += '\n';
  for (const auto& r : rows_) {
    for (const Column& col : kColumns) {
      if (&col != kColumns) out += ',';
      out += format_cell(r, col, false);
    }
    out += '\n';
  }
  return out;
}

ResultTable ResultTable::from_csv(const std::string& text) {
  const std::vector<std::vector<std::string>> rows = csv_rows(text);
  std::vector<std::string> header;
  for (const Column& col : kColumns) header.push_back(col.name);
  if (!rows.empty() && rows.front() != header) {
    throw ConfigError("CSV header does not match ResultTable format");
  }
  ResultTable out;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].size() != header.size()) {
      throw ConfigError(
          strf("CSV row has %zu columns, expected %zu", rows[i].size(), header.size()));
    }
    RunRecord r;
    for (std::size_t c = 0; c < header.size(); ++c) parse_cell(r, kColumns[c], rows[i][c]);
    out.add(std::move(r));
  }
  return out;
}

std::string record_to_json(const RunRecord& r) {
  std::string out = "{";
  for (const Column& col : kColumns) {
    if (&col != kColumns) out += ", ";
    out += '"' + std::string(col.name) + "\": " + format_cell(r, col, true);
  }
  out += '}';
  return out;
}

std::string ResultTable::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "  " + record_to_json(rows_[i]);
    if (i + 1 < rows_.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

RunRecord record_from_json(const std::string& json) {
  return record_from_value(json::parse(json, "record JSON"));
}

ResultTable ResultTable::from_json(const std::string& text) {
  const json::Value root = json::parse(text, "ResultTable JSON");
  if (root.kind != json::Value::Kind::Array) {
    throw ConfigError("ResultTable JSON: expected an array");
  }
  ResultTable out;
  for (const json::Value& v : root.items) out.add(record_from_value(v));
  return out;
}

std::vector<std::size_t> ResultTable::pareto_frontier() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RunRecord& a = rows_[i];
    if (!a.ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < rows_.size() && !dominated; ++j) {
      if (j == i) continue;
      const RunRecord& b = rows_[j];
      if (!b.ok) continue;
      const bool no_worse = b.avg_net_latency <= a.avg_net_latency &&
                            b.power_mw <= a.power_mw && b.area_mm2 <= a.area_mm2;
      const bool better = b.avg_net_latency < a.avg_net_latency || b.power_mw < a.power_mw ||
                          b.area_mm2 < a.area_mm2;
      dominated = no_worse && better;
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

std::string ResultTable::summary() const {
  const std::vector<std::size_t> frontier = pareto_frontier();
  auto on_frontier = [&](std::size_t i) {
    for (std::size_t f : frontier) {
      if (f == i) return true;
    }
    return false;
  };
  TextTable t({"#", "mesh", "flits", "hpc", "inj", "workload", "faults", "design", "flows",
               "packets", "avg lat", "p99", "power mW", "area mm2", ""});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RunRecord& r = rows_[i];
    std::vector<std::string> row = {
        std::to_string(r.index),
        strf("%dx%d", r.width, r.height),
        strf("%d", r.flit_bits),
        strf("%d", r.hpc_max),
        strf("%.3g", r.injection),
        r.workload,
        strf("%.3g", r.fault_rate),
        r.design,
    };
    if (r.ok) {
      row.push_back(strf("%d", r.flows));
      row.push_back(std::to_string(r.packets));
      row.push_back(strf("%.2f", r.avg_net_latency));
      row.push_back(strf("%.0f", r.p99_latency));
      row.push_back(strf("%.2f", r.power_mw));
      row.push_back(strf("%.3f", r.area_mm2));
      row.push_back(on_frontier(i) ? "*" : "");
    } else {
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("FAILED: " + r.error);
    }
    t.add_row(std::move(row));
  }
  std::string out = t.str();
  out += strf("\n%zu/%zu runs ok, %zu failed, %zu on the latency/power/area Pareto frontier "
              "(*)\n",
              ok_count(), size(), failed_count(), frontier.size());
  return out;
}

}  // namespace smartnoc::explore

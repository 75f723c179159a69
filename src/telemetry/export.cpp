#include "telemetry/export.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"

namespace smartnoc::telemetry {

namespace {

std::string link_name(const MeshDims& dims, NodeId from, Dir d) {
  std::string out = "L";
  out += std::to_string(from);
  out += dir_name(d);
  if (dims.has_neighbor(from, d)) {
    out += '>';
    out += std::to_string(dims.neighbor(from, d));
  }
  return out;
}

/// RFC-4180 quoting for a free-text CSV field (phase names come from user
/// scenario files and may contain commas or quotes).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string export_time_series_csv(const Probe& probe) {
  std::ostringstream out;
  out << "epoch,start_cycle,link_flits,router_latches,injected_packets,ejected_flits,"
         "occupancy_flits,dropped_packets,retransmitted_packets,phase\n";
  const std::size_t epochs = probe.epochs();
  const Cycle ep = probe.epoch_cycles();
  const auto occupancy = probe.occupancy_series();
  for (std::size_t e = 0; e < epochs; ++e) {
    std::uint64_t link = 0, latch = 0, inj = 0, ej = 0;
    for (std::size_t l = 0; l < probe.links(); ++l) link += probe.link_series()[e * probe.links() + l];
    for (std::size_t n = 0; n < probe.nodes(); ++n) {
      latch += probe.router_latch_series()[e * probe.nodes() + n];
      inj += probe.inject_series()[e * probe.nodes() + n];
      ej += probe.eject_series()[e * probe.nodes() + n];
    }
    std::string phase;
    for (const Mark& m : probe.marks()) {
      if (ep != 0 && m.cycle / ep == e) {
        if (!phase.empty()) phase += "|";
        phase += m.label;
        if (m.new_era) phase += "!";
      }
    }
    out << e << "," << e * ep << "," << link << "," << latch << "," << inj << "," << ej << ","
        << occupancy[e] << "," << probe.drop_series()[e] << "," << probe.retransmit_series()[e]
        << "," << csv_field(phase) << "\n";
  }
  return out.str();
}

std::string export_power_series_csv(const Probe& probe, const NocConfig& cfg,
                                    const power::EnergyParams& params) {
  SMARTNOC_CHECK(probe.power_series_enabled(),
                 "the power CSV needs a power-series probe (Config::power_series)");
  std::ostringstream out;
  out << "epoch,start_cycle,buffer_w,allocator_w,xbar_pipe_w,link_w,total_w,phase\n";
  const Cycle ep = probe.epoch_cycles();
  const auto series = probe.power_series(cfg, params);
  for (std::size_t e = 0; e < series.size(); ++e) {
    const power::PowerBreakdown& p = series[e];
    std::string phase;
    for (const Mark& m : probe.marks()) {
      if (ep != 0 && m.cycle / ep == e) {
        if (!phase.empty()) phase += "|";
        phase += m.label;
        if (m.new_era) phase += "!";
      }
    }
    out << e << "," << e * ep << "," << strf("%.9g", p.buffer_w) << ","
        << strf("%.9g", p.allocator_w) << "," << strf("%.9g", p.xbar_pipe_w) << ","
        << strf("%.9g", p.link_w) << "," << strf("%.9g", p.total()) << ","
        << csv_field(phase) << "\n";
  }
  return out.str();
}

std::string export_link_heatmap_csv(const Probe& probe, Cycle span_cycles) {
  const MeshDims& dims = probe.dims();
  const auto totals = probe.link_totals();
  const Cycle span = span_cycles != 0 ? span_cycles : probe.epochs() * probe.epoch_cycles();
  std::ostringstream out;
  out << "from,dir,to,flits,flits_per_cycle\n";
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir d : kMeshDirs) {
      if (!dims.has_neighbor(n, d)) continue;
      const std::uint64_t f = totals[static_cast<std::size_t>(n) * kNumMeshDirs + dir_index(d)];
      out << n << "," << dir_name(d) << "," << dims.neighbor(n, d) << "," << f << ","
          << strf("%.6g", span != 0 ? static_cast<double>(f) / static_cast<double>(span) : 0.0)
          << "\n";
    }
  }
  return out.str();
}

std::string export_link_heatmap_ascii(const Probe& probe) {
  static const char kShades[] = " .:-=+*#%@";
  const MeshDims& dims = probe.dims();
  const auto totals = probe.link_totals();

  std::vector<std::uint64_t> node_out(probe.nodes(), 0);
  std::uint64_t peak = 0;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir d : kMeshDirs) {
      node_out[static_cast<std::size_t>(n)] +=
          totals[static_cast<std::size_t>(n) * kNumMeshDirs + dir_index(d)];
    }
    peak = std::max(peak, node_out[static_cast<std::size_t>(n)]);
  }

  std::ostringstream out;
  out << "link utilization (flits leaving each router; @ = busiest, ' ' = idle)\n";
  for (int y = dims.height() - 1; y >= 0; --y) {
    out << "  ";
    for (int x = 0; x < dims.width(); ++x) {
      const std::uint64_t v = node_out[static_cast<std::size_t>(dims.id({x, y}))];
      const int shade =
          peak == 0 ? 0
                    : static_cast<int>((v * (sizeof kShades - 2) + peak - 1) / peak);
      out << '[' << kShades[shade] << ']';
    }
    out << "\n";
  }
  out << strf("  peak router: %llu flits\n", static_cast<unsigned long long>(peak));

  // Top talkers: the five busiest directed links.
  std::vector<std::size_t> order;
  for (std::size_t l = 0; l < totals.size(); ++l) {
    if (totals[l] != 0) order.push_back(l);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return totals[a] != totals[b] ? totals[a] > totals[b] : a < b; });
  if (order.size() > 5) order.resize(5);
  for (std::size_t l : order) {
    const NodeId from = static_cast<NodeId>(l / kNumMeshDirs);
    const Dir d = dir_from_index(static_cast<int>(l % kNumMeshDirs));
    out << "  " << link_name(dims, from, d) << ": " << totals[l] << " flits\n";
  }
  return out.str();
}

std::string export_chrome_trace_json(const Probe& probe, const NocConfig* cfg,
                                     const power::EnergyParams* params) {
  const MeshDims& dims = probe.dims();
  std::ostringstream out;
  out << "[\n";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out << ",\n";
    first = false;
    out << obj;
  };
  // Power counter track: one "C" event per epoch, four stacked series.
  if (cfg != nullptr && params != nullptr && probe.power_series_enabled()) {
    const auto series = probe.power_series(*cfg, *params);
    for (std::size_t e = 0; e < series.size(); ++e) {
      const power::PowerBreakdown& p = series[e];
      emit(strf("{\"ph\":\"C\",\"name\":\"power (W)\",\"ts\":%llu,\"pid\":0,\"tid\":0,"
                "\"args\":{\"buffer\":%.9g,\"allocator\":%.9g,\"xbar_pipe\":%.9g,"
                "\"link\":%.9g}}",
                static_cast<unsigned long long>(e * probe.epoch_cycles()), p.buffer_w,
                p.allocator_w, p.xbar_pipe_w, p.link_w));
    }
  }
  // Track metadata: name every directed link's tid on its source-row pid.
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir d : kMeshDirs) {
      if (!dims.has_neighbor(n, d)) continue;
      emit(strf("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,"
                "\"args\":{\"name\":\"%s\"}}",
                dims.coord(n).y, static_cast<int>(n) * kNumMeshDirs + dir_index(d),
                link_name(dims, n, d).c_str()));
    }
  }
  for (const LinkEvent& e : probe.events()) {
    emit(strf("{\"ph\":\"X\",\"name\":\"pkt%u.%u\",\"cat\":\"link\",\"ts\":%llu,\"dur\":1,"
              "\"pid\":%d,\"tid\":%d}",
              e.packet_id, static_cast<unsigned>(e.seq),
              static_cast<unsigned long long>(e.cycle), dims.coord(e.from).y,
              static_cast<int>(e.from) * kNumMeshDirs + dir_index(e.out)));
  }
  for (const Mark& m : probe.marks()) {
    emit(strf("{\"ph\":\"i\",\"name\":\"%s%s\",\"cat\":\"phase\",\"ts\":%llu,\"pid\":0,"
              "\"tid\":0,\"s\":\"g\"}",
              json_escape(m.label).c_str(), m.new_era ? " (new era)" : "",
              static_cast<unsigned long long>(m.cycle)));
  }
  if (probe.events_truncated()) {
    // Without this the trace just ends and the fabric looks idle from the
    // cut onward; make the capture limit visible in the timeline itself.
    const Cycle last = probe.events().empty() ? 0 : probe.events().back().cycle;
    emit(strf("{\"ph\":\"i\",\"name\":\"capture truncated at %zu events - raise "
              "telemetry_chrome_events\",\"cat\":\"phase\",\"ts\":%llu,\"pid\":0,\"tid\":0,"
              "\"s\":\"g\"}",
              probe.events().size(), static_cast<unsigned long long>(last)));
  }
  out << "\n]\n";
  return out.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw SimError("cannot open '" + path + "' for writing");
  f << content;
  f.flush();
  if (!f) throw SimError("short write to '" + path + "'");
}

}  // namespace smartnoc::telemetry

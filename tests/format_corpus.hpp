// Inputs shared by the format pins (test_format_pins.cpp) and the format
// mutation fuzz (test_formats_fuzz.cpp): scenario texts that exercise every
// key, and a result table and heartbeat whose strings and doubles are as
// hostile as the formats allow.
#pragma once

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/result_sink.hpp"
#include "obs/export.hpp"

namespace smartnoc::testing {

/// A multi-phase scenario with a reconfiguration between apps.
inline const char* const kScenarioText = R"(# three apps with a reconfiguration between each
name = appswitch
design = smart
mesh = 8x4
flit_bits = 32
seed = 7
fault_rate = 0.25
traffic_mode = gap-skip
drain_timeout = 5000

phase warm  workload=wlan injection=1 cycles=2000
phase a     cycles=9000 measure
phase b     workload=vopd injection=0.5 cycles=9000 measure reconfigure
phase pause cycles=100 no-traffic
phase drain drain
)";

/// Every scenario key and every phase key, each set to a non-default value.
inline const char* const kEveryKeyScenario = R"(name = every key, set
design = mesh
mesh = 6x3
flit_bits = 64
packet_bits = 512
vcs = 4
vc_depth = 12
freq_ghz = 1.5
hop_mm = 0.75
hpc = 5
routing = xy
seed = 18446744073709551557
warmup = 100
measure = 1000
drain_timeout = 7777
bandwidth_scale = 0.1
fault_rate = 0.125
watchdog = 4096
retry_limit = 7
retry_backoff = 32
shard_threads = 2
single_config_core = false
store_issue = 3
traffic_mode = per-cycle
reference_kernel = true
telemetry_epoch = 512
record_trace = cap.sntr
telemetry_csv = series.csv
telemetry_power_csv = power.csv
telemetry_heatmap = heat.csv
telemetry_chrome = trace.json
telemetry_chrome_events = 99
fault_event kill@50:1:E
fault_event glitch@60:2:N@70
phase warm workload=uniform injection=0.03 cycles=200 fault=0.5 reconfigure
phase quiet cycles=10 no-traffic
phase run workload=transpose cycles=300 measure
phase drain drain
)";

/// The example scenario files shipped in examples/.
inline std::vector<std::pair<std::string, std::string>> example_scenarios() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* name : {"appswitch.scn", "faultstorm.scn", "watchdog_trip.scn"}) {
    std::ifstream f(std::string(SMARTNOC_SOURCE_DIR) + "/examples/" + name, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    out.emplace_back(name, buf.str());
  }
  return out;
}

/// Two rows: a measured one, and a failed one whose strings carry every
/// CSV/JSON-hostile character and whose doubles are non-finite.
inline explore::ResultTable hostile_table() {
  explore::RunRecord a;
  a.index = 0;
  a.width = 4;
  a.height = 4;
  a.flit_bits = 32;
  a.hpc_max = 3;
  a.injection = 0.05;
  a.workload = "say \"hi\", twice";
  a.design = "SMART";
  a.seed = 0xdeadbeefcafeULL;
  a.ok = true;
  a.flows = 12;
  a.packets = 1234;
  a.avg_net_latency = 7.25;
  a.avg_total_latency = 8.5;
  a.p50_latency = 7;
  a.p99_latency = 19;
  a.max_latency = 31;
  a.throughput_ppc = 0.3;
  a.power_mw = 1.2345678901234567;
  a.area_mm2 = 0.5;
  a.packets_offered = 1300;
  a.packets_dropped = 1;
  a.packets_retransmitted = 2;
  a.flows_rerouted = 3;
  a.flows_failed = 4;

  explore::RunRecord b;
  b.index = std::numeric_limits<std::uint64_t>::max();
  b.width = 8;
  b.height = 2;
  b.flit_bits = 64;
  b.hpc_max = -2;
  b.injection = 1e-300;
  b.workload = "trace:a,b\tc";
  b.fault_rate = 0.125;
  b.fault_schedule = "kill@50:1:E";
  b.design = "Mesh";
  b.seed = 42;
  b.ok = false;
  b.error = "line 1, \"quoted\",\nline 2\tend\\";
  b.avg_net_latency = std::numeric_limits<double>::quiet_NaN();
  b.avg_total_latency = std::numeric_limits<double>::infinity();
  b.p50_latency = -std::numeric_limits<double>::infinity();
  b.p99_latency = -std::numeric_limits<double>::quiet_NaN();
  b.power_mw = -0.0;

  explore::ResultTable t;
  t.add(a);
  t.add(b);
  return t;
}

/// A heartbeat whose job name needs every kind of JSON escape.
inline obs::Heartbeat hostile_heartbeat() {
  obs::Heartbeat hb;
  hb.pid = 4194303;
  hb.uptime_seconds = 17.25;
  hb.job = "a\nb\"c\\d\x01";
  hb.points_done = 42;
  hb.points_total = 96;
  hb.points_per_sec = 3.5;
  hb.eta_seconds = 15.428571428571429;
  return hb;
}

}  // namespace smartnoc::testing

// Byte-identity pins for the scenario and result formats. The expected
// strings below were written by the serializers before they were generated
// from field tables; every serialized scenario and result table must stay
// byte-for-byte what they were, and record JSON written then (non-finite
// doubles included) must still parse back to the same records.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "explore/result_sink.hpp"
#include "format_corpus.hpp"
#include "sim/scenario.hpp"

namespace smartnoc {
namespace {

struct ScenarioPin {
  const char* label;
  const char* text;
  const char* json;
};

const ScenarioPin kScenarioPins[] = {
    {"kScenarioText",
     R"pin(# smartnoc scenario
name = appswitch
design = smart
mesh = 8x4
flit_bits = 32
packet_bits = 256
vcs = 2
vc_depth = 10
freq_ghz = 2
hop_mm = 1
hpc = 0
routing = west-first
seed = 7
warmup = 20000
measure = 200000
drain_timeout = 5000
bandwidth_scale = 1
fault_rate = 0.25
single_config_core = true
store_issue = 1
traffic_mode = gap-skip
reference_kernel = false
phase warm workload=wlan injection=1 cycles=2000
phase a cycles=9000 measure
phase b workload=vopd injection=0.5 cycles=9000 measure reconfigure
phase pause cycles=100 no-traffic
phase drain no-traffic drain
)pin",
     R"pin({
  "name": "appswitch",
  "design": "smart",
  "mesh": "8x4",
  "flit_bits": 32,
  "packet_bits": 256,
  "vcs": 2,
  "vc_depth": 10,
  "freq_ghz": 2,
  "hop_mm": 1,
  "hpc": 0,
  "routing": "west-first",
  "seed": 7,
  "warmup": 20000,
  "measure": 200000,
  "drain_timeout": 5000,
  "bandwidth_scale": 1,
  "fault_rate": 0.25,
  "single_config_core": true,
  "store_issue": 1,
  "traffic_mode": "gap-skip",
  "reference_kernel": false,
  "phases": [
    {"name": "warm", "workload": "wlan", "injection": 1, "cycles": 2000},
    {"name": "a", "cycles": 9000, "measure": true},
    {"name": "b", "workload": "vopd", "injection": 0.5, "cycles": 9000, "measure": true, "reconfigure": true},
    {"name": "pause", "cycles": 100, "traffic": false},
    {"name": "drain", "drain": true}
  ]
}
)pin"},
    {"every key",
     R"pin(# smartnoc scenario
name = every key, set
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
bandwidth_scale = 0.10000000000000001
fault_rate = 0.125
single_config_core = false
store_issue = 3
traffic_mode = per-cycle
reference_kernel = true
watchdog = 4096
retry_limit = 7
retry_backoff = 32
shard_threads = 2
telemetry_epoch = 512
record_trace = cap.sntr
telemetry_csv = series.csv
telemetry_power_csv = power.csv
telemetry_heatmap = heat.csv
telemetry_chrome = trace.json
telemetry_chrome_events = 99
fault_event kill@50:1:E
fault_event glitch@60:2:N@70
phase warm workload=uniform injection=0.029999999999999999 cycles=200 fault=0.5 reconfigure
phase quiet cycles=10 no-traffic
phase run workload=transpose cycles=300 measure
phase drain no-traffic drain
)pin",
     R"pin({
  "name": "every key, set",
  "design": "mesh",
  "mesh": "6x3",
  "flit_bits": 64,
  "packet_bits": 512,
  "vcs": 4,
  "vc_depth": 12,
  "freq_ghz": 1.5,
  "hop_mm": 0.75,
  "hpc": 5,
  "routing": "xy",
  "seed": 18446744073709551557,
  "warmup": 100,
  "measure": 1000,
  "drain_timeout": 7777,
  "bandwidth_scale": 0.10000000000000001,
  "fault_rate": 0.125,
  "single_config_core": false,
  "store_issue": 3,
  "traffic_mode": "per-cycle",
  "reference_kernel": true,
  "watchdog": 4096,
  "retry_limit": 7,
  "retry_backoff": 32,
  "shard_threads": 2,
  "telemetry_epoch": 512,
  "record_trace": "cap.sntr",
  "telemetry_csv": "series.csv",
  "telemetry_power_csv": "power.csv",
  "telemetry_heatmap": "heat.csv",
  "telemetry_chrome": "trace.json",
  "telemetry_chrome_events": 99,
  "fault_events": ["kill@50:1:E", "glitch@60:2:N@70"],
  "phases": [
    {"name": "warm", "workload": "uniform", "injection": 0.029999999999999999, "cycles": 200, "fault_rate": 0.5, "reconfigure": true},
    {"name": "quiet", "cycles": 10, "traffic": false},
    {"name": "run", "workload": "transpose", "cycles": 300, "measure": true},
    {"name": "drain", "drain": true}
  ]
}
)pin"},
    {"appswitch.scn",
     R"pin(# smartnoc scenario
name = appswitch
design = smart
mesh = 4x4
flit_bits = 32
packet_bits = 256
vcs = 2
vc_depth = 10
freq_ghz = 2
hop_mm = 1
hpc = 0
routing = west-first
seed = 1
warmup = 20000
measure = 200000
drain_timeout = 100000
bandwidth_scale = 1
fault_rate = 0
single_config_core = true
store_issue = 1
traffic_mode = gap-skip
reference_kernel = false
phase wlan workload=wlan injection=1 cycles=20000 measure
phase h264 workload=h264 injection=1 cycles=20000 measure reconfigure
phase vopd workload=vopd injection=1 cycles=20000 measure reconfigure
phase drain no-traffic drain
)pin",
     R"pin({
  "name": "appswitch",
  "design": "smart",
  "mesh": "4x4",
  "flit_bits": 32,
  "packet_bits": 256,
  "vcs": 2,
  "vc_depth": 10,
  "freq_ghz": 2,
  "hop_mm": 1,
  "hpc": 0,
  "routing": "west-first",
  "seed": 1,
  "warmup": 20000,
  "measure": 200000,
  "drain_timeout": 100000,
  "bandwidth_scale": 1,
  "fault_rate": 0,
  "single_config_core": true,
  "store_issue": 1,
  "traffic_mode": "gap-skip",
  "reference_kernel": false,
  "phases": [
    {"name": "wlan", "workload": "wlan", "injection": 1, "cycles": 20000, "measure": true},
    {"name": "h264", "workload": "h264", "injection": 1, "cycles": 20000, "measure": true, "reconfigure": true},
    {"name": "vopd", "workload": "vopd", "injection": 1, "cycles": 20000, "measure": true, "reconfigure": true},
    {"name": "drain", "drain": true}
  ]
}
)pin"},
    {"faultstorm.scn",
     R"pin(# smartnoc scenario
name = faultstorm
design = smart
mesh = 4x4
flit_bits = 32
packet_bits = 256
vcs = 2
vc_depth = 10
freq_ghz = 2
hop_mm = 1
hpc = 0
routing = west-first
seed = 7
warmup = 20000
measure = 200000
drain_timeout = 100000
bandwidth_scale = 1
fault_rate = 0
single_config_core = true
store_issue = 1
traffic_mode = gap-skip
reference_kernel = false
watchdog = 20000
fault_event kill@6000:5:E
fault_event glitch@9000:9:N@10500
fault_event stall@12000:10@12400
phase warm workload=uniform injection=0.050000000000000003 cycles=2000
phase storm workload=uniform injection=0.050000000000000003 cycles=18000 measure
phase drain no-traffic drain
)pin",
     R"pin({
  "name": "faultstorm",
  "design": "smart",
  "mesh": "4x4",
  "flit_bits": 32,
  "packet_bits": 256,
  "vcs": 2,
  "vc_depth": 10,
  "freq_ghz": 2,
  "hop_mm": 1,
  "hpc": 0,
  "routing": "west-first",
  "seed": 7,
  "warmup": 20000,
  "measure": 200000,
  "drain_timeout": 100000,
  "bandwidth_scale": 1,
  "fault_rate": 0,
  "single_config_core": true,
  "store_issue": 1,
  "traffic_mode": "gap-skip",
  "reference_kernel": false,
  "watchdog": 20000,
  "fault_events": ["kill@6000:5:E", "glitch@9000:9:N@10500", "stall@12000:10@12400"],
  "phases": [
    {"name": "warm", "workload": "uniform", "injection": 0.050000000000000003, "cycles": 2000},
    {"name": "storm", "workload": "uniform", "injection": 0.050000000000000003, "cycles": 18000, "measure": true},
    {"name": "drain", "drain": true}
  ]
}
)pin"},
    {"watchdog_trip.scn",
     R"pin(# smartnoc scenario
name = watchdog_trip
design = mesh
mesh = 4x4
flit_bits = 32
packet_bits = 256
vcs = 2
vc_depth = 10
freq_ghz = 2
hop_mm = 1
hpc = 0
routing = west-first
seed = 7
warmup = 20000
measure = 200000
drain_timeout = 500000
bandwidth_scale = 1
fault_rate = 0
single_config_core = true
store_issue = 1
traffic_mode = gap-skip
reference_kernel = false
watchdog = 2000
fault_event stall@2500:5@100000000
phase warm workload=uniform injection=0.050000000000000003 cycles=2000
phase wedge workload=uniform injection=0.050000000000000003 cycles=5000 measure
phase drain no-traffic drain
)pin",
     R"pin({
  "name": "watchdog_trip",
  "design": "mesh",
  "mesh": "4x4",
  "flit_bits": 32,
  "packet_bits": 256,
  "vcs": 2,
  "vc_depth": 10,
  "freq_ghz": 2,
  "hop_mm": 1,
  "hpc": 0,
  "routing": "west-first",
  "seed": 7,
  "warmup": 20000,
  "measure": 200000,
  "drain_timeout": 500000,
  "bandwidth_scale": 1,
  "fault_rate": 0,
  "single_config_core": true,
  "store_issue": 1,
  "traffic_mode": "gap-skip",
  "reference_kernel": false,
  "watchdog": 2000,
  "fault_events": ["stall@2500:5@100000000"],
  "phases": [
    {"name": "warm", "workload": "uniform", "injection": 0.050000000000000003, "cycles": 2000},
    {"name": "wedge", "workload": "uniform", "injection": 0.050000000000000003, "cycles": 5000, "measure": true},
    {"name": "drain", "drain": true}
  ]
}
)pin"},
};

const char* const kTableCsv =
    R"pin(index,width,height,flit_bits,hpc_max,injection,workload,fault_rate,fault_schedule,design,seed,ok,error,flows,dropped_flows,packets,avg_net_latency,avg_total_latency,p50_latency,p99_latency,max_latency,throughput_ppc,power_mw,area_mm2,packets_offered,packets_dropped,packets_retransmitted,flows_rerouted,flows_failed
0,4,4,32,3,0.05,"say ""hi"", twice",0,"none","SMART",244837814094590,1,"",12,0,1234,7.25,8.5,7,19,31,0.3,1.2345678901234567,0.5,1300,1,2,3,4
18446744073709551615,8,2,64,-2,1e-300,"trace:a,b)pin"
    "\t" R"pin(c",0.125,"kill@50:1:E","Mesh",42,0,"line 1, ""quoted"",
line 2)pin"
    "\t" R"pin(end\",0,0,0,nan,inf,-inf,-nan,0,0,-0,0,0,0,0,0,0
)pin";

const char* const kTableJson =
    R"pin([
  {"index": 0, "width": 4, "height": 4, "flit_bits": 32, "hpc_max": 3, "injection": 0.05, "workload": "say \"hi\", twice", "fault_rate": 0, "fault_schedule": "none", "design": "SMART", "seed": 244837814094590, "ok": true, "error": "", "flows": 12, "dropped_flows": 0, "packets": 1234, "avg_net_latency": 7.25, "avg_total_latency": 8.5, "p50_latency": 7, "p99_latency": 19, "max_latency": 31, "throughput_ppc": 0.3, "power_mw": 1.2345678901234567, "area_mm2": 0.5, "packets_offered": 1300, "packets_dropped": 1, "packets_retransmitted": 2, "flows_rerouted": 3, "flows_failed": 4},
  {"index": 18446744073709551615, "width": 8, "height": 2, "flit_bits": 64, "hpc_max": -2, "injection": 1e-300, "workload": "trace:a,b\tc", "fault_rate": 0.125, "fault_schedule": "kill@50:1:E", "design": "Mesh", "seed": 42, "ok": false, "error": "line 1, \"quoted\",\nline 2\tend\\", "flows": 0, "dropped_flows": 0, "packets": 0, "avg_net_latency": nan, "avg_total_latency": inf, "p50_latency": -inf, "p99_latency": -nan, "max_latency": 0, "throughput_ppc": 0, "power_mw": -0, "area_mm2": 0, "packets_offered": 0, "packets_dropped": 0, "packets_retransmitted": 0, "flows_rerouted": 0, "flows_failed": 0}
]
)pin";

const char* const kRecordJson[] = {
    R"pin({"index": 0, "width": 4, "height": 4, "flit_bits": 32, "hpc_max": 3, "injection": 0.05, "workload": "say \"hi\", twice", "fault_rate": 0, "fault_schedule": "none", "design": "SMART", "seed": 244837814094590, "ok": true, "error": "", "flows": 12, "dropped_flows": 0, "packets": 1234, "avg_net_latency": 7.25, "avg_total_latency": 8.5, "p50_latency": 7, "p99_latency": 19, "max_latency": 31, "throughput_ppc": 0.3, "power_mw": 1.2345678901234567, "area_mm2": 0.5, "packets_offered": 1300, "packets_dropped": 1, "packets_retransmitted": 2, "flows_rerouted": 3, "flows_failed": 4})pin",
    R"pin({"index": 18446744073709551615, "width": 8, "height": 2, "flit_bits": 64, "hpc_max": -2, "injection": 1e-300, "workload": "trace:a,b\tc", "fault_rate": 0.125, "fault_schedule": "kill@50:1:E", "design": "Mesh", "seed": 42, "ok": false, "error": "line 1, \"quoted\",\nline 2\tend\\", "flows": 0, "dropped_flows": 0, "packets": 0, "avg_net_latency": nan, "avg_total_latency": inf, "p50_latency": -inf, "p99_latency": -nan, "max_latency": 0, "throughput_ppc": 0, "power_mw": -0, "area_mm2": 0, "packets_offered": 0, "packets_dropped": 0, "packets_retransmitted": 0, "flows_rerouted": 0, "flows_failed": 0})pin",
};

std::string scenario_input(const std::string& label) {
  if (label == "kScenarioText") return testing::kScenarioText;
  if (label == "every key") return testing::kEveryKeyScenario;
  for (const auto& [name, text] : testing::example_scenarios()) {
    if (name == label) return text;
  }
  ADD_FAILURE() << "no input for " << label;
  return "";
}

TEST(FormatPins, ScenarioSerializationsAreByteIdentical) {
  for (const ScenarioPin& pin : kScenarioPins) {
    const sim::ScenarioSpec spec = sim::parse_scenario(scenario_input(pin.label));
    EXPECT_EQ(sim::serialize_scenario_text(spec), pin.text) << pin.label;
    EXPECT_EQ(sim::serialize_scenario_json(spec), pin.json) << pin.label;
    // Both pinned forms read back to the same spec.
    EXPECT_EQ(sim::parse_scenario(pin.text), spec) << pin.label;
    EXPECT_EQ(sim::parse_scenario(pin.json), spec) << pin.label;
  }
}

TEST(FormatPins, ResultTableSerializationsAreByteIdentical) {
  const explore::ResultTable table = testing::hostile_table();
  EXPECT_EQ(table.to_csv(), kTableCsv);
  EXPECT_EQ(table.to_json(), kTableJson);
  EXPECT_EQ(explore::ResultTable::from_csv(kTableCsv).to_csv(), kTableCsv);
  EXPECT_EQ(explore::ResultTable::from_json(kTableJson).to_json(), kTableJson);
}

TEST(FormatPins, PinnedRecordJsonParsesBackToEqualRecords) {
  const explore::ResultTable table = testing::hostile_table();
  // Row 0 is all finite, so plain equality applies.
  EXPECT_EQ(explore::record_from_json(kRecordJson[0]), table.at(0));
  // Row 1 carries NaNs (never ==), so compare it field by field as bits
  // through the shortest round-trip rendering, which is injective.
  const explore::RunRecord back = explore::record_from_json(kRecordJson[1]);
  EXPECT_EQ(explore::record_to_json(back), kRecordJson[1]);
  EXPECT_TRUE(std::isnan(back.avg_net_latency));
  EXPECT_TRUE(std::signbit(back.p99_latency) && std::isnan(back.p99_latency));
  EXPECT_EQ(back.avg_total_latency, table.at(1).avg_total_latency);
  EXPECT_EQ(back.p50_latency, table.at(1).p50_latency);
  EXPECT_TRUE(std::signbit(back.power_mw));
  EXPECT_EQ(back.error, table.at(1).error);
  EXPECT_EQ(back.index, table.at(1).index);
}

}  // namespace
}  // namespace smartnoc

// Telemetry probe: epoch series correctness, the three-observer
// cross-check (VcdTracer == Probe == ActivityCounters over the golden
// matrix, so the observers can never drift), Session wiring (era marks,
// exports, observational transparency) and the per-phase fault-rate
// events.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "helpers.hpp"
#include "mapping/nmap.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "sim/vcd.hpp"
#include "smart/smart_network.hpp"
#include "telemetry/export.hpp"
#include "telemetry/probe.hpp"

namespace smartnoc {
namespace {

using smartnoc::testing::test_config;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "smartnoc_" + name;
}

// --- Three-observer cross-check ----------------------------------------------
//
// One run, two observers via a tee: every link pulse the VCD dumper sees,
// the probe must count, and both totals must equal the activity counters'
// link_flit_mm (each mesh link is hop_mm = 1 mm wide, and the stats window
// is never reset in this loop, so whole-run totals are comparable).

struct CrossPoint {
  Design design;
  int hpc_max;
  const char* workload;
};

class ObserverCross : public ::testing::TestWithParam<CrossPoint> {};

TEST_P(ObserverCross, VcdEqualsProbeEqualsActivity) {
  const CrossPoint pt = GetParam();
  NocConfig cfg = test_config();
  cfg.hpc_max_override = pt.design == Design::Smart ? pt.hpc_max : 0;
  noc::FlowSet flows;
  if (std::string(pt.workload) == "transpose") {
    flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                      noc::TurnModel::XY);
  } else {
    mapping::MappedApp mapped = mapping::map_app(mapping::SocApp::VOPD, cfg);
    cfg = mapped.cfg;
    flows = std::move(mapped.flows);
  }
  std::unique_ptr<noc::MeshNetwork> net;
  if (pt.design == Design::Smart) {
    net = std::move(smart::make_smart_network(cfg, std::move(flows)).net);
  } else {
    net = noc::make_baseline_mesh(cfg, std::move(flows));
  }

  sim::VcdTracer tracer(cfg.dims(), cfg.cycle_ps());
  telemetry::Probe::Config pc;
  pc.epoch_cycles = 500;
  telemetry::Probe probe(cfg.dims(), cfg.flits_per_packet(), pc);
  telemetry::TeeObserver tee;
  tee.add(&tracer);
  tee.add(&probe);
  net->set_observer(&tee);

  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  for (Cycle c = 0; c < 3000; ++c) {
    net->tick();
    traffic.generate(*net);
  }
  traffic.set_enabled(false);
  ASSERT_TRUE(smartnoc::testing::run_to_drain(*net, 20000));
  net->set_observer(nullptr);

  const std::uint64_t activity_mm = net->stats().activity().link_flit_mm;
  ASSERT_GT(activity_mm, 0u);
  // The pin: all three accountings of "flits * links traversed" agree.
  EXPECT_EQ(tracer.link_toggles(), activity_mm);
  EXPECT_EQ(probe.link_flits_total(), activity_mm);
  // And the epoch series sums back to the total (no event lost to
  // bucketing at epoch or era boundaries).
  std::uint64_t series_sum = 0;
  for (std::uint64_t v : probe.link_series()) series_sum += v;
  EXPECT_EQ(series_sum, activity_mm);
  std::uint64_t per_link_sum = 0;
  for (std::uint64_t v : probe.link_totals()) per_link_sum += v;
  EXPECT_EQ(per_link_sum, activity_mm);
  // NIC ejections cross-check against the VCD's delivery wires.
  EXPECT_EQ(probe.flits_ejected_total(), tracer.nic_deliveries());
  // Everything injected drained out: final occupancy is zero.
  const auto occupancy = probe.occupancy_series();
  ASSERT_FALSE(occupancy.empty());
  EXPECT_EQ(occupancy.back(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ObserverCross,
    ::testing::Values(CrossPoint{Design::Mesh, 1, "transpose"},
                      CrossPoint{Design::Mesh, 1, "vopd"},
                      CrossPoint{Design::Smart, 1, "transpose"},
                      CrossPoint{Design::Smart, 8, "transpose"},
                      CrossPoint{Design::Smart, 8, "vopd"}),
    [](const ::testing::TestParamInfo<CrossPoint>& info) {
      return std::string(design_name(info.param.design)) + "_hpc" +
             std::to_string(info.param.hpc_max) + "_" + info.param.workload;
    });

// --- Epoch bucketing ---------------------------------------------------------

TEST(Probe, InjectionEventsLandInTheirEpoch) {
  const NocConfig cfg = test_config();
  telemetry::Probe::Config pc;
  pc.epoch_cycles = 10;
  pc.record_injections = true;
  telemetry::Probe probe(cfg.dims(), cfg.flits_per_packet(), pc);
  probe.packet_offered(0, 3, 0);    // epoch 0
  probe.packet_offered(1, 3, 9);    // epoch 0
  probe.packet_offered(0, 7, 10);   // epoch 1
  probe.packet_offered(0, 3, 35);   // epoch 3
  ASSERT_EQ(probe.epochs(), 4u);
  const auto& inj = probe.inject_series();
  const std::size_t n = probe.nodes();
  EXPECT_EQ(inj[0 * n + 3], 2u);
  EXPECT_EQ(inj[1 * n + 7], 1u);
  EXPECT_EQ(inj[2 * n + 3], 0u);
  EXPECT_EQ(inj[3 * n + 3], 1u);
  EXPECT_EQ(probe.packets_offered_total(), 4u);
  ASSERT_EQ(probe.injection_log().size(), 4u);
  EXPECT_EQ(probe.injection_log()[2], (noc::TraceEntry{10, 0}));
}

TEST(Probe, EraOffsetsGiveGlobalTime) {
  const NocConfig cfg = test_config();
  telemetry::Probe::Config pc;
  pc.epoch_cycles = 100;
  telemetry::Probe probe(cfg.dims(), cfg.flits_per_packet(), pc);
  probe.mark("a", 0, true);
  probe.packet_offered(0, 0, 50);   // era 1, global 50
  probe.end_era(120);               // era 1 ran 120 cycles
  probe.mark("b", 0, true);
  probe.packet_offered(0, 0, 50);   // era 2 local 50 -> global 170
  ASSERT_EQ(probe.epochs(), 2u);
  EXPECT_EQ(probe.inject_series()[0 * probe.nodes() + 0], 1u);
  EXPECT_EQ(probe.inject_series()[1 * probe.nodes() + 0], 1u);
  ASSERT_EQ(probe.marks().size(), 2u);
  EXPECT_EQ(probe.marks()[0].cycle, 0u);
  EXPECT_EQ(probe.marks()[1].cycle, 120u);
  EXPECT_TRUE(probe.marks()[1].new_era);
}

TEST(Probe, ChromeExportSurfacesTruncation) {
  const NocConfig cfg = test_config();
  telemetry::Probe::Config pc;
  pc.epoch_cycles = 100;
  pc.chrome_event_capacity = 2;
  telemetry::Probe probe(cfg.dims(), cfg.flits_per_packet(), pc);
  noc::PacketPool pool;
  noc::FlitRef flit;
  flit.slot = pool.alloc();
  for (int i = 0; i < 3; ++i) probe.flit_on_link(0, Dir::East, flit, pool, 5);
  EXPECT_TRUE(probe.events_truncated());
  EXPECT_EQ(probe.events().size(), 2u);
  EXPECT_NE(telemetry::export_chrome_trace_json(probe).find("capture truncated"),
            std::string::npos);
}

// --- Session wiring ----------------------------------------------------------

TEST(SessionTelemetry, ProbeIsObservationallyTransparent) {
  // Attaching the probe must not perturb the simulation: bare run ==
  // probed run, bit for bit (the "no probe attached" golden stays valid
  // *and* the probe costs only time, never results).
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  const sim::ScenarioSpec bare = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  sim::ScenarioSpec probed = bare;
  probed.telemetry.epoch_cycles = 256;
  const sim::RunResult a = sim::session_to_run_result(sim::Session(bare).run());
  const sim::RunResult b = sim::session_to_run_result(sim::Session(probed).run());
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency);
  EXPECT_EQ(a.drain_cycles, b.drain_cycles);
  EXPECT_EQ(a.activity.link_flit_mm, b.activity.link_flit_mm);
}

TEST(SessionTelemetry, PhaseAndEraMarksLandOnTheSeries) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 100;
  sim::ScenarioSpec spec;
  spec.name = "marks";
  spec.design = Design::Smart;
  spec.config = cfg;
  spec.telemetry.epoch_cycles = 500;
  auto phase = [](const char* name, const char* wl, Cycle cycles) {
    sim::PhaseSpec ph;
    ph.name = name;
    ph.workload = wl;
    ph.cycles = cycles;
    return ph;
  };
  spec.phases = {phase("p1", "vopd", 1500), phase("p2", "", 800), phase("p3", "wlan", 1000)};
  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;

  const telemetry::Probe& probe = *session.probe();
  ASSERT_EQ(probe.marks().size(), 3u);
  EXPECT_EQ(probe.marks()[0].label, "p1");
  EXPECT_TRUE(probe.marks()[0].new_era);   // first build
  EXPECT_EQ(probe.marks()[1].label, "p2");
  EXPECT_FALSE(probe.marks()[1].new_era);  // same workload: same era
  EXPECT_EQ(probe.marks()[1].cycle, 1500u);
  EXPECT_EQ(probe.marks()[2].label, "p3");
  EXPECT_TRUE(probe.marks()[2].new_era);   // workload switch reconfigures
  // p3's mark sits past p1+p2 plus the inter-era drain.
  EXPECT_GE(probe.marks()[2].cycle, 2300u);
  // Global time covers all three phases and the drain that preceded p3.
  EXPECT_GE(probe.global_cycle(0), 2300u);
}

TEST(SessionTelemetry, ExportsWriteDeclaredFiles) {
  const std::string csv = temp_path("series.csv");
  const std::string power_csv = temp_path("power.csv");
  const std::string heatmap = temp_path("heatmap.csv");
  const std::string chrome = temp_path("chrome.json");
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1500;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "transpose", 0.05, cfg);
  spec.telemetry.epoch_cycles = 256;
  spec.telemetry.csv = csv;
  spec.telemetry.power_csv = power_csv;
  spec.telemetry.heatmap = heatmap;
  spec.telemetry.chrome = chrome;
  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;

  // Time series: header + one row per epoch; warmup phase marked as era.
  std::ifstream cf(csv);
  ASSERT_TRUE(cf.good());
  std::string line;
  std::getline(cf, line);
  EXPECT_EQ(line.substr(0, 5), "epoch");
  int rows = 0;
  bool saw_warmup_mark = false;
  while (std::getline(cf, line)) {
    ++rows;
    if (line.find("warmup!") != std::string::npos) saw_warmup_mark = true;
  }
  EXPECT_EQ(static_cast<std::size_t>(rows), session.probe()->epochs());
  EXPECT_TRUE(saw_warmup_mark);

  // Heatmap CSV: header + one row per *existing* directed link (48 on 4x4).
  std::ifstream hf(heatmap);
  ASSERT_TRUE(hf.good());
  int hrows = -1;  // discount header
  while (std::getline(hf, line)) ++hrows;
  EXPECT_EQ(hrows, 48);
  // ASCII sidecar rendered next to it.
  std::ifstream af(heatmap + ".txt");
  ASSERT_TRUE(af.good());
  std::stringstream ascii;
  ascii << af.rdbuf();
  EXPECT_NE(ascii.str().find("link utilization"), std::string::npos);

  // Power CSV: header + one row per epoch (the time-resolved Fig. 10b).
  std::ifstream pf(power_csv);
  ASSERT_TRUE(pf.good());
  std::getline(pf, line);
  EXPECT_EQ(line, "epoch,start_cycle,buffer_w,allocator_w,xbar_pipe_w,link_w,total_w,phase");
  int prows = 0;
  while (std::getline(pf, line)) ++prows;
  EXPECT_EQ(static_cast<std::size_t>(prows), session.probe()->epochs());

  // Chrome trace: valid-looking JSON array with link events, markers and
  // the per-epoch power counter track.
  std::ifstream jf(chrome);
  ASSERT_TRUE(jf.good());
  std::stringstream js;
  js << jf.rdbuf();
  EXPECT_EQ(js.str().front(), '[');
  EXPECT_NE(js.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.str().find("\"cat\":\"phase\""), std::string::npos);
  EXPECT_NE(js.str().find("\"name\":\"power (W)\""), std::string::npos);

  std::remove(csv.c_str());
  std::remove(power_csv.c_str());
  std::remove(heatmap.c_str());
  std::remove((heatmap + ".txt").c_str());
  std::remove(chrome.c_str());
}

TEST(SessionTelemetry, ValidationRejectsBadBlocks) {
  const NocConfig cfg = test_config();
  // Exports without a sample window.
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  spec.telemetry.csv = "out.csv";
  EXPECT_THROW(spec.validate(), ConfigError);
  // Telemetry on the Dedicated design is legal since the dedicated network
  // grew observer hooks (packet_offered + activity deltas).
  sim::ScenarioSpec ded = sim::ScenarioSpec::classic(Design::Dedicated, "vopd", 1.0, cfg);
  ded.telemetry.epoch_cycles = 100;
  EXPECT_NO_THROW(ded.validate());
  // A power CSV without a sample window still has nothing to sample.
  sim::ScenarioSpec pw = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  pw.telemetry.power_csv = "power.csv";
  EXPECT_THROW(pw.validate(), ConfigError);
  // Paths the line-oriented text form cannot represent (whitespace, '#').
  sim::ScenarioSpec sp = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  sp.telemetry.record_trace = "my capture.sntr";
  EXPECT_THROW(sp.validate(), ConfigError);
  sp.telemetry.record_trace = "runs/#3/cap.sntr";
  EXPECT_THROW(sp.validate(), ConfigError);
  sim::ScenarioSpec wk = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  wk.phases.front().workload = "trace:my capture.sntr";
  EXPECT_THROW(wk.validate(), ConfigError);
}

TEST(Probe, MarksMaterializeTheirEpoch) {
  const NocConfig cfg = test_config();
  telemetry::Probe::Config pc;
  pc.epoch_cycles = 100;
  telemetry::Probe probe(cfg.dims(), cfg.flits_per_packet(), pc);
  // No events at all: a mark in epoch 2 must still produce series rows so
  // the CSV shows the phase, matching the Chrome export.
  probe.mark("idle-tail", 250, false);
  EXPECT_EQ(probe.epochs(), 3u);
}

// --- Scenario round trips for the new declarations ---------------------------

TEST(ScenarioTelemetry, TelemetryBlockRoundTripsTextAndJson) {
  const NocConfig cfg = test_config();
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  spec.telemetry.epoch_cycles = 2048;
  spec.telemetry.record_trace = "cap.sntr";
  spec.telemetry.csv = "series.csv";
  spec.telemetry.power_csv = "power.csv";
  spec.telemetry.heatmap = "heat.csv";
  spec.telemetry.chrome = "trace.json";
  spec.telemetry.chrome_events = 1234;

  const sim::ScenarioSpec from_text = sim::parse_scenario(sim::serialize_scenario_text(spec));
  EXPECT_EQ(from_text, spec);
  const sim::ScenarioSpec from_json = sim::parse_scenario(sim::serialize_scenario_json(spec));
  EXPECT_EQ(from_json, spec);
}

TEST(ScenarioTelemetry, PhaseFaultEventsRoundTripTextAndJson) {
  const NocConfig cfg = test_config();
  sim::ScenarioSpec spec;
  spec.name = "faulty";
  spec.design = Design::Smart;
  spec.config = cfg;
  spec.fault_rate = 0.01;
  sim::PhaseSpec a;
  a.name = "a";
  a.workload = "vopd";
  a.cycles = 100;
  sim::PhaseSpec b = a;
  b.name = "b";
  b.fault_rate = 0.25;  // the override event
  sim::PhaseSpec c = a;
  c.name = "c";         // reverts to the scenario level
  spec.phases = {a, b, c};

  const sim::ScenarioSpec from_text = sim::parse_scenario(sim::serialize_scenario_text(spec));
  EXPECT_EQ(from_text, spec);
  EXPECT_EQ(from_text.phases[1].fault_rate, 0.25);
  EXPECT_LT(from_text.phases[2].fault_rate, 0.0);
  const sim::ScenarioSpec from_json = sim::parse_scenario(sim::serialize_scenario_json(spec));
  EXPECT_EQ(from_json, spec);

  sim::ScenarioSpec bad = spec;
  bad.phases[1].fault_rate = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);
}

// --- Per-phase fault events at runtime ---------------------------------------

TEST(SessionFaultEvents, OverrideAppliesAndRevertsAtEraBoundaries) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 100;
  cfg.seed = 9;  // chosen so 30% link faults drop at least one VOPD flow
  sim::ScenarioSpec spec;
  spec.name = "fault-events";
  spec.design = Design::Smart;
  spec.config = cfg;
  auto phase = [](const char* name, Cycle cycles) {
    sim::PhaseSpec ph;
    ph.name = name;
    ph.workload = "vopd";
    ph.cycles = cycles;
    return ph;
  };
  spec.phases = {phase("healthy", 600), phase("degraded", 600), phase("recovered", 600)};
  spec.phases[1].fault_rate = 0.3;
  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;
  ASSERT_EQ(sr.phases.size(), 3u);

  // The override is an era boundary in, and another out.
  EXPECT_FALSE(sr.phases[0].reconfig.performed);  // initial build
  EXPECT_TRUE(sr.phases[1].reconfig.performed);   // faults applied
  EXPECT_TRUE(sr.phases[2].reconfig.performed);   // faults reverted
  // Faults bite only inside the overridden phase.
  EXPECT_EQ(sr.phases[0].dropped_flows, 0);
  EXPECT_GT(sr.phases[1].dropped_flows, 0);
  EXPECT_EQ(sr.phases[2].dropped_flows, 0);
}

// --- Time-resolved power (the Fig. 10b series) -------------------------------

void expect_activity_eq(const noc::ActivityCounters& a, const noc::ActivityCounters& b) {
  EXPECT_EQ(a.buffer_writes, b.buffer_writes);
  EXPECT_EQ(a.buffer_reads, b.buffer_reads);
  EXPECT_EQ(a.alloc_grants, b.alloc_grants);
  EXPECT_EQ(a.xbar_flit_traversals, b.xbar_flit_traversals);
  EXPECT_EQ(a.xbar_credit_traversals, b.xbar_credit_traversals);
  EXPECT_EQ(a.pipeline_latches, b.pipeline_latches);
  EXPECT_EQ(a.link_flit_mm, b.link_flit_mm);
  EXPECT_EQ(a.link_credit_mm, b.link_credit_mm);
  EXPECT_EQ(a.clocked_inport_cycles, b.clocked_inport_cycles);
  EXPECT_EQ(a.clocked_outport_cycles, b.clocked_outport_cycles);
}

struct PowerPoint {
  Design design;
  bool gating;
  int shard_threads = 1;
  bool reference_kernel = false;
};

class PowerSeriesPin : public ::testing::TestWithParam<PowerPoint> {};

// The acceptance pin: summing the per-epoch series reproduces the
// end-of-run Fig. 10b breakdown bit-for-bit. Proven in activity space -
// the probe accumulates the identical integer deltas the stats window
// does, between the identical reset boundaries, so feeding either side
// through the energy model once yields identical doubles. The sharded and
// reference points pin that every kernel's per-tick deltas include the
// idle-clock term and the epilogue's folded shard activity.
TEST_P(PowerSeriesPin, EpochSeriesSumsToRunBreakdownBitForBit) {
  const PowerPoint pt = GetParam();
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.clock_gate_unused_ports = pt.gating;
  cfg.shard_threads = pt.shard_threads;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(pt.design, "vopd", 1.0, cfg);
  spec.use_reference_kernel = pt.reference_kernel;
  spec.telemetry.epoch_cycles = 256;
  spec.telemetry.power_csv = "/dev/null";  // series on; CSV content pinned elsewhere
  sim::Session session(spec);
  const sim::RunResult run = sim::session_to_run_result(session.run());
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_GT(run.packets_delivered, 0u);

  const telemetry::Probe& probe = *session.probe();
  // No tick's delta is lost to epoch bucketing: the series sums back to
  // the cumulative whole-run total.
  noc::ActivityCounters series_sum;
  for (std::size_t e = 0; e < probe.epochs(); ++e) series_sum.add(probe.activity_series()[e]);
  expect_activity_eq(series_sum, probe.activity_total());

  // The probe's window snapshot is the stats window, integer for integer.
  expect_activity_eq(probe.window_activity(), run.activity);

  // Identical integers through the same fold: identical watts.
  const NocConfig& ecfg = session.era_config();
  const auto params = power::EnergyParams::for_config(ecfg);
  const power::PowerBreakdown from_series =
      power::compute_power(ecfg, probe.window_activity(), run.measure_cycles, params);
  const power::PowerBreakdown end_of_run =
      power::compute_power(ecfg, run.activity, run.measure_cycles, params);
  EXPECT_EQ(from_series.buffer_w, end_of_run.buffer_w);
  EXPECT_EQ(from_series.allocator_w, end_of_run.allocator_w);
  EXPECT_EQ(from_series.xbar_pipe_w, end_of_run.xbar_pipe_w);
  EXPECT_EQ(from_series.link_w, end_of_run.link_w);
  EXPECT_EQ(from_series.total(), end_of_run.total());
  EXPECT_GT(end_of_run.total(), 0.0);

  // The per-epoch power fold covers every materialized epoch.
  EXPECT_EQ(probe.power_series(ecfg, params).size(), probe.epochs());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PowerSeriesPin,
    ::testing::Values(PowerPoint{Design::Mesh, true}, PowerPoint{Design::Mesh, false},
                      PowerPoint{Design::Smart, true}, PowerPoint{Design::Smart, false},
                      PowerPoint{Design::Dedicated, true},
                      PowerPoint{Design::Dedicated, false},
                      PowerPoint{Design::Mesh, true, 2}, PowerPoint{Design::Smart, true, 2},
                      PowerPoint{Design::Mesh, true, 1, true},
                      PowerPoint{Design::Smart, true, 1, true}),
    [](const ::testing::TestParamInfo<PowerPoint>& info) {
      const PowerPoint& pt = info.param;
      return std::string(design_name(pt.design)) + (pt.gating ? "_gated" : "_ungated") +
             (pt.shard_threads > 1 ? "_shards" + std::to_string(pt.shard_threads) : "") +
             (pt.reference_kernel ? "_reference" : "");
    });

// --- Run self-profiler -------------------------------------------------------

TEST(SessionProfile, ProfileCoversTheRun) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);
  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;

  const sim::RunProfile& prof = sr.profile;
  // Cycle accounting is exact: traffic cycles are the non-drain phase
  // cycles, drain cycles the rest, and every simulated cycle is timed.
  std::uint64_t expected = 0;
  for (const sim::PhaseResult& p : sr.phases) expected += p.cycles_run;
  EXPECT_EQ(prof.cycles(), expected);
  EXPECT_EQ(prof.traffic_cycles, sr.phases[0].cycles_run + sr.phases[1].cycles_run);
  EXPECT_EQ(prof.drain_cycles, sr.phases[2].cycles_run);
  // Wall clocks are monotone-sourced and strictly positive for real work.
  EXPECT_GT(prof.traffic_seconds, 0.0);
  EXPECT_GE(prof.drain_seconds, 0.0);
  EXPECT_GT(prof.ns_per_cycle(), 0.0);
  EXPECT_GE(prof.total_seconds(), prof.traffic_seconds + prof.drain_seconds);
  // Per-phase wall clocks: every executed phase took measurable time.
  for (const sim::PhaseResult& p : sr.phases) EXPECT_GE(p.wall_seconds, 0.0);

  // The profile reaches RunResult and the (non-pinned) session JSON.
  const sim::RunResult run = sim::session_to_run_result(sr);
  EXPECT_EQ(run.profile.cycles(), prof.cycles());
  const std::string js = sim::to_json(sr);
  EXPECT_NE(js.find("\"profile\""), std::string::npos);
  EXPECT_NE(js.find("\"ns_per_cycle\""), std::string::npos);
  EXPECT_NE(js.find("\"wall_seconds\""), std::string::npos);
  // And the human summary names it.
  EXPECT_NE(sim::summarize(sr).find("self-profile"), std::string::npos);
}

TEST(SessionProfile, ReconfigurationTimeIsAttributed) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 100;
  sim::ScenarioSpec spec;
  spec.design = Design::Smart;
  spec.config = cfg;
  sim::PhaseSpec a;
  a.name = "a";
  a.workload = "transpose";  // congested: packets in flight at the boundary
  a.injection = 0.3;
  a.cycles = 500;
  sim::PhaseSpec b = a;
  b.name = "b";
  b.workload = "uniform";  // era switch: drain + rebuild
  spec.phases = {a, b};
  const sim::SessionResult sr = sim::Session(spec).run();
  ASSERT_TRUE(sr.ok) << sr.error;
  ASSERT_TRUE(sr.phases[1].reconfig.performed);
  // Two builds (initial + switch) happened on the clock.
  EXPECT_GT(sr.profile.reconfig_seconds, 0.0);
  // The inter-era drain cycles are accounted as drain, not traffic.
  EXPECT_EQ(sr.profile.traffic_cycles, sr.phases[0].cycles_run + sr.phases[1].cycles_run);
  EXPECT_GT(sr.profile.drain_cycles, 0u);
}

TEST(SessionFaultEvents, SameEffectiveRateDoesNotSwitchEras) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 100;
  sim::ScenarioSpec spec;
  spec.design = Design::Smart;
  spec.config = cfg;
  spec.fault_rate = 0.05;
  sim::PhaseSpec a;
  a.name = "a";
  a.workload = "vopd";
  a.cycles = 400;
  sim::PhaseSpec b = a;
  b.name = "b";
  b.fault_rate = 0.05;  // explicit but equal: no boundary event
  spec.phases = {a, b};
  const sim::SessionResult sr = sim::Session(spec).run();
  ASSERT_TRUE(sr.ok) << sr.error;
  EXPECT_FALSE(sr.phases[1].reconfig.performed);
}

}  // namespace
}  // namespace smartnoc

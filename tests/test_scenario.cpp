// The Scenario/Session API contract:
//
//   * golden: a Session running the classic 3-phase scenario is
//     *bit-identical* to the seed's hand-rolled warmup/measure/drain loop
//     (copied verbatim below as ground truth), across designs x kernels x
//     workloads - and so is the run_simulation wrapper;
//   * round-trips: parse -> serialize -> parse is the identity for both
//     the text and the JSON scenario forms;
//   * drain timeouts surface as failed results uniformly (Session,
//     run_simulation, explorer);
//   * multi-phase scenarios reconfigure the SMART fabric between phases
//     and report the reconfiguration latency;
//   * the workload registry resolves built-ins, rejects unknowns with a
//     helpful error, and accepts user factories;
//   * stepwise control: step(n) never crosses a phase boundary and a
//     stepped session finishes bit-identical to a run() session.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dedicated/dedicated_network.hpp"
#include "explore/job.hpp"
#include "format_corpus.hpp"
#include "helpers.hpp"
#include "mapping/nmap.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

NocConfig short_config() {
  NocConfig cfg = testing::test_config();
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 4000;
  cfg.drain_timeout = 20000;
  return cfg;
}

// --- The seed's run_simulation loop, verbatim (ground truth) -----------------

struct LegacyResult {
  Cycle warmup_cycles = 0;
  Cycle measure_cycles = 0;
  Cycle drain_cycles = 0;
  bool drained = false;
  std::uint64_t packets_generated = 0;
  noc::ActivityCounters activity;
  std::uint64_t packets_delivered = 0;
  double avg_network_latency = 0.0;
  double avg_total_latency = 0.0;
  Cycle p50_network_latency = 0;
  Cycle p99_network_latency = 0;
  Cycle max_network_latency = 0;
  double delivered_packets_per_cycle = 0.0;
};

LegacyResult legacy_run_simulation(noc::Network& net, noc::TrafficEngine& traffic,
                                   const NocConfig& cfg) {
  LegacyResult res;
  res.warmup_cycles = cfg.warmup_cycles;
  res.measure_cycles = cfg.measure_cycles;
  for (Cycle c = 0; c < cfg.warmup_cycles; ++c) {
    net.tick();
    traffic.generate(net);
  }
  net.stats().reset();
  const std::uint64_t gen_before = traffic.generated();
  for (Cycle c = 0; c < cfg.measure_cycles; ++c) {
    net.tick();
    traffic.generate(net);
  }
  net.stats().measured_cycles = cfg.measure_cycles;
  res.activity = net.stats().activity();
  res.packets_generated = traffic.generated() - gen_before;
  traffic.set_enabled(false);
  Cycle drained_after = 0;
  bool drained = net.drained();
  while (!drained && drained_after < cfg.drain_timeout) {
    net.tick();
    drained_after += 1;
    drained = net.drained();
  }
  res.drain_cycles = drained_after;
  res.drained = drained;
  const noc::NetworkStats& stats = net.stats();
  res.packets_delivered = stats.total_packets();
  res.avg_network_latency = stats.avg_network_latency();
  res.avg_total_latency = stats.avg_total_latency();
  res.p50_network_latency = stats.latency_percentile(50.0);
  res.p99_network_latency = stats.latency_percentile(99.0);
  for (const noc::FlowStats& fs : stats.per_flow()) {
    if (fs.max_network_latency > res.max_network_latency) {
      res.max_network_latency = fs.max_network_latency;
    }
  }
  res.delivered_packets_per_cycle =
      cfg.measure_cycles
          ? static_cast<double>(res.packets_delivered) / static_cast<double>(cfg.measure_cycles)
          : 0.0;
  return res;
}

// --- Golden matrix -----------------------------------------------------------

struct GoldenPoint {
  Design design;
  bool reference_kernel;  // the seed's full-scan kernel (Mesh/Smart only)
  const char* workload;   // registry key
  double injection;
};

std::string golden_name(const GoldenPoint& pt) {
  return std::string(design_name(pt.design)) + "_" +
         (pt.reference_kernel ? "reference" : "active") + "_" + pt.workload;
}

/// Hand-builds network + flows exactly the way the pre-Scenario drivers
/// did (the sequence Session's owning mode must replicate).
std::unique_ptr<noc::Network> build_legacy(NocConfig& cfg, const GoldenPoint& pt) {
  noc::FlowSet flows;
  if (std::string(pt.workload) == "vopd") {
    mapping::MappedApp mapped = mapping::map_app(mapping::SocApp::VOPD, cfg);
    cfg = mapped.cfg;
    cfg.bandwidth_scale *= pt.injection;
    flows = std::move(mapped.flows);
  } else {
    flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, pt.injection,
                                      noc::TurnModel::XY);
  }
  std::unique_ptr<noc::Network> net;
  switch (pt.design) {
    case Design::Mesh: net = noc::make_baseline_mesh(cfg, std::move(flows)); break;
    case Design::Smart: net = std::move(smart::make_smart_network(cfg, std::move(flows)).net); break;
    case Design::Dedicated:
      net = std::make_unique<dedicated::DedicatedNetwork>(cfg, std::move(flows));
      break;
  }
  if (pt.reference_kernel) {
    dynamic_cast<noc::MeshNetwork&>(*net).use_reference_kernel(true);
  }
  return net;
}

void expect_identical(const LegacyResult& a, const sim::RunResult& b, const std::string& what) {
  EXPECT_EQ(a.warmup_cycles, b.warmup_cycles) << what;
  EXPECT_EQ(a.measure_cycles, b.measure_cycles) << what;
  EXPECT_EQ(a.drain_cycles, b.drain_cycles) << what;
  EXPECT_EQ(a.drained, b.drained) << what;
  EXPECT_EQ(a.drained, b.ok) << what;  // uniform failure surfacing
  EXPECT_EQ(a.packets_generated, b.packets_generated) << what;
  EXPECT_EQ(a.packets_delivered, b.packets_delivered) << what;
  // Bit-identical claim: the doubles come from the same integer sums in
  // the same order, so exact equality is the contract, not a tolerance.
  EXPECT_EQ(a.avg_network_latency, b.avg_network_latency) << what;
  EXPECT_EQ(a.avg_total_latency, b.avg_total_latency) << what;
  EXPECT_EQ(a.p50_network_latency, b.p50_network_latency) << what;
  EXPECT_EQ(a.p99_network_latency, b.p99_network_latency) << what;
  EXPECT_EQ(a.max_network_latency, b.max_network_latency) << what;
  EXPECT_EQ(a.delivered_packets_per_cycle, b.delivered_packets_per_cycle) << what;
  EXPECT_EQ(a.activity.buffer_writes, b.activity.buffer_writes) << what;
  EXPECT_EQ(a.activity.buffer_reads, b.activity.buffer_reads) << what;
  EXPECT_EQ(a.activity.alloc_grants, b.activity.alloc_grants) << what;
  EXPECT_EQ(a.activity.xbar_flit_traversals, b.activity.xbar_flit_traversals) << what;
  EXPECT_EQ(a.activity.xbar_credit_traversals, b.activity.xbar_credit_traversals) << what;
  EXPECT_EQ(a.activity.pipeline_latches, b.activity.pipeline_latches) << what;
  EXPECT_EQ(a.activity.link_flit_mm, b.activity.link_flit_mm) << what;
  EXPECT_EQ(a.activity.link_credit_mm, b.activity.link_credit_mm) << what;
  EXPECT_EQ(a.activity.clocked_inport_cycles, b.activity.clocked_inport_cycles) << what;
  EXPECT_EQ(a.activity.clocked_outport_cycles, b.activity.clocked_outport_cycles) << what;
}

class GoldenClassic : public ::testing::TestWithParam<GoldenPoint> {};

TEST_P(GoldenClassic, SessionMatchesLegacyLoop) {
  const GoldenPoint pt = GetParam();
  const std::string what = golden_name(pt);

  // Ground truth: the seed's loop on a hand-built network.
  NocConfig legacy_cfg = short_config();
  auto legacy_net = build_legacy(legacy_cfg, pt);
  noc::TrafficEngine legacy_traffic(legacy_cfg, legacy_net->flows(), legacy_cfg.seed);
  const LegacyResult truth = legacy_run_simulation(*legacy_net, legacy_traffic, legacy_cfg);
  ASSERT_GT(truth.packets_delivered, 0u) << what << ": golden point carries no traffic";

  // The wrapper on an identical second network.
  NocConfig wrap_cfg = short_config();
  auto wrap_net = build_legacy(wrap_cfg, pt);
  noc::TrafficEngine wrap_traffic(wrap_cfg, wrap_net->flows(), wrap_cfg.seed);
  const sim::RunResult wrapped = sim::run_simulation(*wrap_net, wrap_traffic, wrap_cfg);
  expect_identical(truth, wrapped, what + " [run_simulation]");

  // The owning Session building everything from the declaration.
  sim::ScenarioSpec spec =
      sim::ScenarioSpec::classic(pt.design, pt.workload, pt.injection, short_config());
  spec.use_reference_kernel = pt.reference_kernel;
  sim::Session session(spec);
  const sim::RunResult owned = sim::session_to_run_result(session.run());
  expect_identical(truth, owned, what + " [Session]");
}

std::vector<GoldenPoint> golden_matrix() {
  std::vector<GoldenPoint> pts;
  for (const char* wl : {"uniform", "vopd"}) {
    const double inj = std::string(wl) == "uniform" ? 0.02 : 1.0;
    pts.push_back({Design::Mesh, false, wl, inj});
    pts.push_back({Design::Mesh, true, wl, inj});
    pts.push_back({Design::Smart, false, wl, inj});
    pts.push_back({Design::Smart, true, wl, inj});
    pts.push_back({Design::Dedicated, false, wl, inj});
  }
  return pts;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenClassic, ::testing::ValuesIn(golden_matrix()),
                         [](const ::testing::TestParamInfo<GoldenPoint>& info) {
                           return golden_name(info.param);
                         });

// --- Scenario round-trips ----------------------------------------------------

using testing::kScenarioText;

TEST(ScenarioRoundTrip, TextIsIdentity) {
  const sim::ScenarioSpec spec = sim::parse_scenario(kScenarioText);
  EXPECT_EQ(spec.name, "appswitch");
  EXPECT_EQ(spec.design, Design::Smart);
  EXPECT_EQ(spec.config.width, 8);
  EXPECT_EQ(spec.config.height, 4);
  EXPECT_EQ(spec.config.seed, 7u);
  EXPECT_EQ(spec.fault_rate, 0.25);
  EXPECT_EQ(spec.traffic_mode, noc::BernoulliMode::GapSkip);
  ASSERT_EQ(spec.phases.size(), 5u);
  EXPECT_EQ(spec.phases[1].workload, "");  // inherited at run time
  EXPECT_TRUE(spec.phases[2].reconfigure);
  EXPECT_FALSE(spec.phases[3].traffic);
  EXPECT_TRUE(spec.phases[4].drain);

  const std::string text = serialize_scenario_text(spec);
  const sim::ScenarioSpec again = sim::parse_scenario(text);
  EXPECT_EQ(spec, again);
  // And the serialization itself is a fixed point.
  EXPECT_EQ(text, serialize_scenario_text(again));
}

TEST(ScenarioRoundTrip, JsonIsIdentity) {
  const sim::ScenarioSpec spec = sim::parse_scenario(kScenarioText);
  const std::string json = sim::serialize_scenario_json(spec);
  const sim::ScenarioSpec again = sim::parse_scenario(json);  // auto-detects JSON
  EXPECT_EQ(spec, again);
  EXPECT_EQ(json, sim::serialize_scenario_json(again));
  // Cross-dialect: text -> JSON -> text round-trips too.
  EXPECT_EQ(serialize_scenario_text(spec), serialize_scenario_text(again));
}

TEST(ScenarioRoundTrip, ClassicSpecSurvivesBothDialects) {
  NocConfig cfg = short_config();
  cfg.seed = 42;
  const sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Mesh, "transpose", 0.03, cfg);
  EXPECT_EQ(spec, sim::parse_scenario(serialize_scenario_text(spec)));
  EXPECT_EQ(spec, sim::parse_scenario(serialize_scenario_json(spec)));
}

TEST(ScenarioParse, ErrorsCarryContext) {
  EXPECT_THROW(sim::parse_scenario("bogus_key = 3\nphase p workload=vopd cycles=10\n"),
               ConfigError);
  EXPECT_THROW(sim::parse_scenario("phase p cycles=10\n"), ConfigError);  // no workload
  EXPECT_THROW(sim::parse_scenario("{\"phases\": 3}"), ConfigError);
  try {
    sim::parse_scenario("mesh = 4x4\nphase p workload=vopd sideways\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  // Values the text or JSON form could not carry back: each is rejected,
  // and the error names the offending field.
  const std::string phase = R"({"name": "p", "workload": "vopd", "cycles": 10})";
  const std::pair<std::string, std::string> unrepresentable[] = {
      {R"({"name": "a#b", "phases": [)" + phase + "]}", "name"},
      {R"({"phases": [{"name": "p q", "workload": "vopd", "cycles": 10}]})", "name"},
      {R"({"name": "x\nmesh = 8x8", "phases": [)" + phase + "]}", "name"},
      {"fault_rate = nan\nphase p workload=vopd cycles=10\n", "fault_rate"},
      {"bandwidth_scale = inf\nphase p workload=vopd cycles=10\n", "bandwidth_scale"},
      {"phase p workload=vopd injection=nan cycles=10\n", "injection"},
  };
  for (const auto& [input, field] : unrepresentable) {
    try {
      sim::parse_scenario(input);
      ADD_FAILURE() << "accepted: " << input;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  }
}

// --- Drain-timeout failure surfacing -----------------------------------------

NocConfig saturating_config() {
  NocConfig cfg = short_config();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_timeout = 10;  // far too small for the backlog
  return cfg;
}

TEST(DrainTimeout, RunSimulationSurfacesFailure) {
  NocConfig cfg = saturating_config();
  // Hotspot far beyond the sink's ejection bandwidth: queues only grow.
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Hotspot, 0.9,
                                         noc::TurnModel::XY);
  auto net = noc::make_baseline_mesh(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net->flows(), cfg.seed);
  const sim::RunResult run = sim::run_simulation(*net, traffic, cfg);
  EXPECT_FALSE(run.drained);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("drain timeout"), std::string::npos) << run.error;
  EXPECT_EQ(run.drain_cycles, cfg.drain_timeout);
}

TEST(DrainTimeout, SessionAndExplorerAgree) {
  const NocConfig cfg = saturating_config();
  sim::Session session(sim::ScenarioSpec::classic(Design::Mesh, "hotspot", 0.9, cfg));
  const sim::SessionResult sr = session.run();
  EXPECT_FALSE(sr.ok);
  EXPECT_NE(sr.error.find("drain timeout"), std::string::npos) << sr.error;
  ASSERT_FALSE(sr.phases.empty());
  const sim::PhaseResult& drain = sr.phases.back();
  EXPECT_TRUE(drain.drain);
  EXPECT_FALSE(drain.drained);
  EXPECT_FALSE(drain.ok);

  explore::SweepSpec sweep;
  sweep.workloads = {explore::Workload::synthetic(noc::SyntheticPattern::Hotspot)};
  sweep.injections = {0.9};
  sweep.designs = {Design::Mesh};
  sweep.warmup_cycles = cfg.warmup_cycles;
  sweep.measure_cycles = cfg.measure_cycles;
  sweep.drain_timeout = cfg.drain_timeout;
  const auto pts = sweep.expand();
  ASSERT_EQ(pts.size(), 1u);
  const explore::RunRecord rec = explore::run_point(sweep, pts[0]);
  EXPECT_FALSE(rec.ok);
  // One failure message across all surfaces: the timeout prefix is shared
  // verbatim; the bracketed StallReport diagnosis names each run's own
  // stuck state, so it is compared by presence, not equality.
  const auto prefix = [](const std::string& e) { return e.substr(0, e.find(" [")); };
  EXPECT_EQ(prefix(rec.error), prefix(sr.error));
  EXPECT_NE(rec.error.find("packets in flight"), std::string::npos) << rec.error;
  EXPECT_NE(sr.error.find("packets in flight"), std::string::npos) << sr.error;
}

// --- Multi-phase reconfiguration ---------------------------------------------

TEST(MultiPhase, ReconfigurationReportsLatencyAndPerPhaseStats) {
  NocConfig cfg = short_config();
  sim::ScenarioSpec spec;
  spec.name = "switch";
  spec.design = Design::Smart;
  spec.config = cfg;
  sim::PhaseSpec a;
  a.name = "wlan";
  a.workload = "wlan";
  a.injection = 1.0;
  a.cycles = 3000;
  a.measure = true;
  sim::PhaseSpec b = a;
  b.name = "vopd";
  b.workload = "vopd";
  b.reconfigure = true;
  sim::PhaseSpec drain;
  drain.name = "drain";
  drain.drain = true;
  drain.traffic = false;
  spec.phases = {a, b, drain};

  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  ASSERT_TRUE(sr.ok) << sr.error;
  ASSERT_EQ(sr.phases.size(), 3u);

  const sim::PhaseResult& first = sr.phases[0];
  EXPECT_FALSE(first.reconfig.performed);       // initial configuration
  EXPECT_GT(first.reconfig.stores, 0);          // but the registers were set
  EXPECT_GT(first.packets_delivered, 0u);
  EXPECT_EQ(first.workload, "wlan");

  const sim::PhaseResult& second = sr.phases[1];
  EXPECT_TRUE(second.reconfig.performed);       // the Fig. 1 switch
  EXPECT_GT(second.reconfig.stores, 0);
  EXPECT_GT(second.reconfig.store_cycles, 0u);
  EXPECT_GT(second.packets_delivered, 0u);
  EXPECT_EQ(second.workload, "vopd");
  EXPECT_EQ(sr.total_reconfig_cycles(), second.reconfig.total());

  EXPECT_TRUE(sr.phases[2].drained);
  // Per-phase windows are independent: each measure phase reset the stats.
  EXPECT_LT(second.packets_delivered, first.packets_delivered + second.packets_generated + 1);
}

TEST(MultiPhase, EraSwitchResetsTheMeasurementWindow) {
  sim::ScenarioSpec spec;
  spec.design = Design::Smart;
  spec.config = short_config();
  sim::PhaseSpec a;
  a.name = "a";
  a.workload = "wlan";
  a.injection = 1.0;
  a.cycles = 2000;
  a.measure = true;
  sim::PhaseSpec b;  // warmup of the next app: new era, no measure window yet
  b.name = "b";
  b.workload = "vopd";
  b.cycles = 1000;
  spec.phases = {a, b};
  const sim::SessionResult sr = sim::Session(spec).run();
  ASSERT_TRUE(sr.ok) << sr.error;
  ASSERT_EQ(sr.phases.size(), 2u);
  // Phase b's era has no open measurement window: its throughput must not
  // divide the new era's deliveries by phase a's window length.
  EXPECT_GT(sr.phases[0].delivered_packets_per_cycle, 0.0);
  EXPECT_EQ(sr.phases[1].delivered_packets_per_cycle, 0.0);
}

TEST(MultiPhase, UnknownWorkloadFailsTheSession) {
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Mesh, "nope", 0.02, short_config());
  sim::Session session(spec);
  const sim::SessionResult sr = session.run();
  EXPECT_FALSE(sr.ok);
  EXPECT_NE(sr.error.find("unknown workload"), std::string::npos) << sr.error;
}

// --- Workload registry -------------------------------------------------------

TEST(Registry, BuiltinsResolveCaseInsensitively) {
  auto& reg = sim::WorkloadRegistry::instance();
  EXPECT_NE(reg.find("vopd"), nullptr);
  EXPECT_NE(reg.find("VOPD"), nullptr);
  EXPECT_NE(reg.find("uniform-random"), nullptr);
  EXPECT_EQ(reg.find("definitely-not-a-workload"), nullptr);
  try {
    reg.at("definitely-not-a-workload");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("vopd"), std::string::npos) << e.what();
  }
}

TEST(Registry, CustomFactoryDrivesAScenario) {
  class OneFlowFactory final : public sim::WorkloadFactory {
   public:
    noc::FlowSet flows(NocConfig& cfg, double injection) const override {
      cfg.bandwidth_scale *= injection;
      return testing::one_flow(cfg, 0, 15, 400.0);
    }
  };
  sim::WorkloadRegistry::instance().add("test-one-flow", std::make_shared<OneFlowFactory>());
  sim::Session session(
      sim::ScenarioSpec::classic(Design::Smart, "test-one-flow", 1.0, short_config()));
  const sim::RunResult run = sim::session_to_run_result(session.run());
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.packets_delivered, 0u);
  EXPECT_EQ(session.network().flows().size(), 1);
}

// --- Stepwise control --------------------------------------------------------

TEST(Stepwise, StepsNeverCrossPhaseBoundaries) {
  const NocConfig cfg = short_config();
  sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "vopd", 1.0, cfg);

  sim::Session stepped(spec);
  EXPECT_EQ(stepped.step(0), 0u);  // builds the first era, simulates nothing
  EXPECT_EQ(stepped.session_cycles(), 0u);
  EXPECT_NO_THROW(stepped.network());

  // Walk the warmup phase in ragged chunks.
  Cycle got = stepped.step(300);
  EXPECT_EQ(got, 300u);
  EXPECT_EQ(stepped.completed().size(), 0u);
  got = stepped.step(10'000);  // would overshoot: must stop at the boundary
  EXPECT_EQ(got, cfg.warmup_cycles - 300);
  ASSERT_EQ(stepped.completed().size(), 1u);
  EXPECT_EQ(stepped.completed()[0].name, "warmup");
  EXPECT_EQ(stepped.completed()[0].cycles_run, cfg.warmup_cycles);

  // Mid-phase window: the measure phase is observable while running.
  stepped.step(1000);
  EXPECT_EQ(stepped.phase_index(), 1u);
  const std::uint64_t mid_packets = stepped.network().stats().total_packets();
  const sim::RunResult stepped_result = sim::session_to_run_result(stepped.run());
  EXPECT_GE(stepped_result.packets_delivered, mid_packets);

  // A one-shot session of the same spec is bit-identical.
  sim::Session oneshot(spec);
  const sim::RunResult oneshot_result = sim::session_to_run_result(oneshot.run());
  EXPECT_EQ(stepped_result.packets_delivered, oneshot_result.packets_delivered);
  EXPECT_EQ(stepped_result.avg_network_latency, oneshot_result.avg_network_latency);
  EXPECT_EQ(stepped_result.drain_cycles, oneshot_result.drain_cycles);
  EXPECT_EQ(stepped_result.packets_generated, oneshot_result.packets_generated);
}

TEST(Stepwise, ProgressCallbackFires) {
  sim::Session session(
      sim::ScenarioSpec::classic(Design::Mesh, "transpose", 0.03, short_config()));
  int calls = 0;
  Cycle last_seen = 0;
  session.set_progress(
      [&](const sim::Session::Progress& p) {
        ++calls;
        last_seen = p.session_cycles;
      },
      1000);
  session.run();
  EXPECT_GT(calls, 3);  // every 1000 cycles plus phase ends
  EXPECT_GT(last_seen, 0u);
}

}  // namespace
}  // namespace smartnoc

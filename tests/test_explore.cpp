// Exploration subsystem: grid expansion, executor determinism (1-thread vs
// N-thread sweeps must serialize byte-identically), serialization
// round-trips, the Pareto query and the drain-timeout contract.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "explore/explore.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using explore::ResultTable;
using explore::RunPoint;
using explore::RunRecord;
using explore::SweepSpec;
using explore::Workload;

SweepSpec tiny_spec() {
  // Small but heterogeneous: two meshes, two injections, both designs and
  // two workload kinds. Windows short enough that the full matrix runs in
  // well under a second.
  SweepSpec spec;
  spec.meshes = {MeshDims(2, 2), MeshDims(4, 4)};
  spec.injections = {0.02, 0.05};
  spec.designs = {Design::Mesh, Design::Smart};
  spec.workloads = {Workload::synthetic(noc::SyntheticPattern::Transpose),
                    Workload::synthetic(noc::SyntheticPattern::Neighbor)};
  spec.warmup_cycles = 200;
  spec.measure_cycles = 2000;
  spec.drain_timeout = 20000;
  return spec;
}

// --- Grid expansion ----------------------------------------------------------

TEST(SweepSpec, ExpansionCountIsAxisProduct) {
  SweepSpec spec = tiny_spec();
  EXPECT_EQ(spec.size(), 2u * 2u * 2u * 2u);
  EXPECT_EQ(spec.expand().size(), spec.size());

  spec.flit_bits = {16, 32, 64};
  spec.fault_rates = {0.0, 0.05};
  EXPECT_EQ(spec.size(), 16u * 3u * 2u);
  EXPECT_EQ(spec.expand().size(), 96u);
}

TEST(SweepSpec, ExpansionIsPositionalAndSeedsAreUnique) {
  const SweepSpec spec = tiny_spec();
  const auto pts = spec.expand();
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].index, i);
    seeds.insert(pts[i].seed);
  }
  EXPECT_EQ(seeds.size(), pts.size()) << "per-point seeds must be distinct";

  // Expansion is a pure function of the spec.
  const auto again = spec.expand();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].seed, again[i].seed);
    EXPECT_EQ(pts[i].mesh, again[i].mesh);
  }
}

TEST(SweepSpec, EmptyAxisRejected) {
  SweepSpec spec = tiny_spec();
  spec.designs.clear();
  EXPECT_THROW(spec.expand(), ConfigError);
}

TEST(SweepSpec, ParseSweepFile) {
  const SweepSpec spec = explore::parse_sweep(
      "# demo\n"
      "mesh = 2x2, 4x4   # two sizes\n"
      "injection = 0.02, 0.05, 0.1\n"
      "pattern = transpose\n"
      "app = vopd\n"
      "design = mesh, smart\n"
      "seed = 7\n"
      "measure = 5000\n");
  EXPECT_EQ(spec.meshes.size(), 2u);
  EXPECT_EQ(spec.injections.size(), 3u);
  EXPECT_EQ(spec.workloads.size(), 2u);  // pattern + app accumulate
  EXPECT_EQ(spec.designs.size(), 2u);
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.measure_cycles, 5000u);
  EXPECT_EQ(spec.size(), 2u * 3u * 2u * 2u);

  EXPECT_THROW(explore::parse_sweep("bogus_key = 1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("mesh = 4by4\n"), ConfigError);
}

TEST(SweepSpec, ParserRejectsNegativeAndGarbageValues) {
  // A negative window would wrap through the unsigned Cycle type into a
  // ~2^64-cycle run; it must be a parse error, not a hang.
  EXPECT_THROW(explore::parse_sweep("warmup = -1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("measure = -1\n"), ConfigError);
  EXPECT_THROW(explore::parse_sweep("drain_timeout = -1\n"), ConfigError);
  // Trailing garbage must not silently truncate ("32x64" is not 32).
  EXPECT_THROW(explore::parse_axis_int("32x64", "flits"), ConfigError);
  EXPECT_THROW(explore::parse_axis_double("0.05;0.1", "inj"), ConfigError);
  // Seeds are full uint64: values beyond INT_MAX must parse.
  EXPECT_EQ(explore::parse_sweep("seed = 5000000000\n").base_seed, 5000000000ULL);
}

// --- Executor determinism ----------------------------------------------------

TEST(Executor, RunsEveryJobExactlyOnce) {
  explore::Executor exec(4);
  constexpr std::size_t kJobs = 337;
  std::vector<std::atomic<int>> hits(kJobs);
  exec.for_each(kJobs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Executor, PropagatesJobExceptions) {
  explore::Executor exec(3);
  EXPECT_THROW(exec.for_each(16,
                             [](std::size_t i) {
                               if (i == 11) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
}

TEST(Explore, SweepIsBitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();
  const ResultTable one = explore::run_sweep(spec, 1);
  const ResultTable many = explore::run_sweep(spec, 4);
  ASSERT_EQ(one.size(), spec.size());
  ASSERT_EQ(many.size(), spec.size());
  EXPECT_EQ(one.rows(), many.rows());
  // The exported artifacts - what a user diffs - must match byte for byte.
  EXPECT_EQ(one.to_csv(), many.to_csv());
  EXPECT_EQ(one.to_json(), many.to_json());
}

// --- Serialization round-trips ----------------------------------------------

RunRecord awkward_record() {
  // A failed row with CSV/JSON-hostile characters in the error message.
  RunRecord r;
  r.index = 3;
  r.width = 4;
  r.height = 4;
  r.flit_bits = 32;
  r.injection = 0.05;
  r.workload = "uniform-random";
  r.design = "SMART";
  r.seed = 0xdeadbeefcafeULL;
  r.ok = false;
  r.error = "line 1, \"quoted\",\nline 2\tend";
  return r;
}

TEST(ResultTable, CsvRoundTrip) {
  const SweepSpec spec = tiny_spec();
  ResultTable table = explore::run_sweep(spec, 2);
  table.add(awkward_record());

  const std::string csv = table.to_csv();
  const ResultTable parsed = ResultTable::from_csv(csv);
  ASSERT_EQ(parsed.size(), table.size());
  EXPECT_EQ(parsed.rows(), table.rows());
  EXPECT_EQ(parsed.to_csv(), csv);

  EXPECT_THROW(ResultTable::from_csv("not,a,result,table\n"), ConfigError);
  // Every cell must parse in full.
  const std::string header = ResultTable().to_csv();
  std::string zeros;
  for (int i = 1; i < 29; ++i) zeros += ",0";
  EXPECT_EQ(ResultTable::from_csv(header + "12" + zeros + "\n").at(0).index, 12u);
  EXPECT_THROW(ResultTable::from_csv(header + "12abc" + zeros + "\n"), ConfigError);
  EXPECT_THROW(ResultTable::from_csv(header + "-1" + zeros + "\n"), ConfigError);
  EXPECT_THROW(ResultTable::from_csv(header + " -1" + zeros + "\n"), ConfigError);
  EXPECT_THROW(ResultTable::from_csv(header + "1" + zeros + ",\"open\n"), ConfigError);
  EXPECT_THROW(ResultTable::from_csv(header + "1,4x" + zeros.substr(2) + "\n"), ConfigError);
}

TEST(ResultTable, JsonRoundTrip) {
  const SweepSpec spec = tiny_spec();
  ResultTable table = explore::run_sweep(spec, 2);
  table.add(awkward_record());

  const std::string json = table.to_json();
  const ResultTable parsed = ResultTable::from_json(json);
  ASSERT_EQ(parsed.size(), table.size());
  EXPECT_EQ(parsed.rows(), table.rows());
  EXPECT_EQ(parsed.to_json(), json);

  EXPECT_EQ(ResultTable::from_json("[]").size(), 0u);
  // Strict scalars, escapes and document ends.
  EXPECT_THROW(explore::record_from_json(R"({"index": 12abc})"), ConfigError);
  EXPECT_THROW(explore::record_from_json(R"({"workload": "\uZZZZ"})"), ConfigError);
  EXPECT_THROW(explore::record_from_json(R"({"index": 1} trailing)"), ConfigError);
  EXPECT_THROW(explore::record_from_json(R"({"index": "1"})"), ConfigError);
  EXPECT_THROW(explore::record_from_json(R"({"ok": 1})"), ConfigError);
  EXPECT_THROW(ResultTable::from_json("[]garbage"), ConfigError);
}

// --- Pareto frontier ---------------------------------------------------------

TEST(ResultTable, ParetoFrontierMinimizesAllThreeObjectives) {
  auto rec = [](double lat, double power, double area, bool ok = true) {
    RunRecord r;
    r.ok = ok;
    r.avg_net_latency = lat;
    r.power_mw = power;
    r.area_mm2 = area;
    return r;
  };
  ResultTable t;
  t.add(rec(1.0, 10.0, 5.0));   // 0: best latency
  t.add(rec(5.0, 2.0, 5.0));    // 1: best power
  t.add(rec(5.0, 10.0, 1.0));   // 2: best area
  t.add(rec(6.0, 10.0, 5.0));   // 3: dominated by 0
  t.add(rec(1.0, 10.0, 5.0));   // 4: ties 0 - ties are not dominated
  t.add(rec(0.5, 1.0, 0.5, false));  // 5: would dominate all, but failed
  EXPECT_EQ(t.pareto_frontier(), (std::vector<std::size_t>{0, 1, 2, 4}));
}

// --- Drain-timeout contract --------------------------------------------------

TEST(Explore, DrainTimeoutSurfacesAsErrorNotPartialStats) {
  // Uniform-random on the baseline mesh far beyond saturation, with a
  // drain window too short to empty the network: the row must fail with a
  // drain message and carry no latency/power numbers.
  SweepSpec spec;
  spec.workloads = {Workload::synthetic(noc::SyntheticPattern::UniformRandom)};
  spec.injections = {0.8};
  spec.designs = {Design::Mesh};
  spec.warmup_cycles = 200;
  spec.measure_cycles = 2000;
  spec.drain_timeout = 300;
  const ResultTable table = explore::run_sweep(spec, 1);
  ASSERT_EQ(table.size(), 1u);
  const RunRecord& r = table.at(0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("drain timeout"), std::string::npos) << r.error;
  EXPECT_EQ(r.avg_net_latency, 0.0);
  EXPECT_EQ(r.power_mw, 0.0);
  EXPECT_EQ(table.ok_count(), 0u);
  EXPECT_TRUE(table.pareto_frontier().empty());
}

TEST(Explore, BadConfigPointFailsItsRowOnly) {
  // flit_bits = 48 does not divide the 256-bit packet: that grid point
  // fails with the validator's message; the 32-bit points still run.
  SweepSpec spec = tiny_spec();
  spec.meshes = {MeshDims(2, 2)};
  spec.injections = {0.02};
  spec.designs = {Design::Smart};
  spec.workloads = {Workload::synthetic(noc::SyntheticPattern::Transpose)};
  spec.flit_bits = {32, 48};
  const ResultTable table = explore::run_sweep(spec, 2);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.at(0).ok);
  EXPECT_FALSE(table.at(1).ok);
  EXPECT_NE(table.at(1).error.find("packet_bits"), std::string::npos) << table.at(1).error;
}

// --- Richer RunResult --------------------------------------------------------

TEST(RunnerStats, RunResultCarriesLatencySnapshot) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2000;
  cfg.drain_timeout = 20000;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Transpose, 0.05,
                                         noc::TurnModel::XY);
  auto smart = smart::make_smart_network(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, smart.net->flows(), cfg.seed);
  const sim::RunResult run = sim::run_simulation(*smart.net, traffic, cfg);
  ASSERT_TRUE(run.drained);
  const auto& stats = smart.net->stats();
  EXPECT_EQ(run.packets_delivered, stats.total_packets());
  EXPECT_DOUBLE_EQ(run.avg_network_latency, stats.avg_network_latency());
  EXPECT_DOUBLE_EQ(run.avg_total_latency, stats.avg_total_latency());
  EXPECT_EQ(run.p50_network_latency, stats.latency_percentile(50.0));
  EXPECT_EQ(run.p99_network_latency, stats.latency_percentile(99.0));
  EXPECT_GE(run.max_network_latency, run.p99_network_latency);
  EXPECT_GT(run.delivered_packets_per_cycle, 0.0);
}

}  // namespace
}  // namespace smartnoc

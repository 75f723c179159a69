// Observability layer: registry semantics, metric-name lint, Prometheus and
// JSON golden exposition, histogram bucketing, executor counter conservation
// (tasks summed over workers == points run), span lanes, heartbeat
// round-trip, and the purity pin - metrics and spans never change results.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "explore/explore.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "serve/job_store.hpp"
#include "serve/result_cache.hpp"
#include "serve/serve.hpp"

namespace smartnoc {
namespace {

namespace fs = std::filesystem;

using obs::MetricKind;
using obs::MetricsRegistry;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("smartnoc_obs_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// 4 fast points on a 2x2 mesh.
explore::SweepSpec tiny_spec() {
  explore::SweepSpec spec;
  spec.meshes = {MeshDims(2, 2)};
  spec.injections = {0.02, 0.05};
  spec.designs = {Design::Mesh, Design::Smart};
  spec.warmup_cycles = 200;
  spec.measure_cycles = 2000;
  spec.drain_timeout = 20000;
  return spec;
}

std::string tiny_sweep_text() {
  return "mesh = 2x2\n"
         "injection = 0.02, 0.05\n"
         "design = mesh, smart\n"
         "warmup = 200\n"
         "measure = 2000\n"
         "drain_timeout = 20000\n";
}

// --- Registry semantics ------------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelReturnsSameInstrument) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("smartnoc_t_points_total", "points");
  obs::Counter& b = reg.counter("smartnoc_t_points_total", "other help ignored");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);

  obs::Counter& w0 = reg.counter("smartnoc_t_tasks_total", "t", "worker=\"0\"");
  obs::Counter& w1 = reg.counter("smartnoc_t_tasks_total", "t", "worker=\"1\"");
  EXPECT_NE(&w0, &w1) << "different labels are different instruments";
  EXPECT_EQ(reg.size(), 3u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("smartnoc_t_x_total", "x");
  EXPECT_THROW(reg.gauge("smartnoc_t_x_total", "x"), ConfigError);
}

TEST(ObsRegistry, SnapshotKeepsRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("smartnoc_t_b_total", "");
  reg.gauge("smartnoc_t_a", "");
  reg.counter("smartnoc_t_c_total", "");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "smartnoc_t_b_total");
  EXPECT_EQ(snap[1].name, "smartnoc_t_a");
  EXPECT_EQ(snap[2].name, "smartnoc_t_c_total");
}

TEST(ObsRegistry, HelpKeptFromFirstRegistration) {
  MetricsRegistry reg;
  reg.counter("smartnoc_t_h_total", "first");
  reg.counter("smartnoc_t_h_total", "second");
  EXPECT_EQ(reg.snapshot().at(0).help, "first");
}

// --- Name lint ---------------------------------------------------------------

TEST(ObsNames, EnforcedAtRegistration) {
  // Good names pass.
  obs::validate_metric_name("smartnoc_cache_hits_total", MetricKind::Counter, "");
  obs::validate_metric_name("smartnoc_cache_bytes", MetricKind::Gauge, "");
  obs::validate_metric_name("smartnoc_serve_point_seconds", MetricKind::Histogram, "");
  obs::validate_metric_name("smartnoc_executor_tasks_total", MetricKind::Counter,
                            "worker=\"3\"");

  // Prefix, charset, and unit-suffix rules all reject at registration.
  EXPECT_THROW(obs::validate_metric_name("cache_hits_total", MetricKind::Counter, ""),
               ConfigError);
  EXPECT_THROW(obs::validate_metric_name("smartnoc_Cache_total", MetricKind::Counter, ""),
               ConfigError);
  EXPECT_THROW(obs::validate_metric_name("smartnoc_cache-hits_total", MetricKind::Counter, ""),
               ConfigError);
  EXPECT_THROW(obs::validate_metric_name("smartnoc_cache_hits", MetricKind::Counter, ""),
               ConfigError) << "counters must end _total";
  EXPECT_THROW(obs::validate_metric_name("smartnoc_point_time", MetricKind::Histogram, ""),
               ConfigError) << "histograms must end _seconds";
  EXPECT_THROW(obs::validate_metric_name("smartnoc_", MetricKind::Gauge, ""), ConfigError);

  // Labels: exactly one key="value" pair, sane charset.
  EXPECT_THROW(obs::validate_metric_name("smartnoc_t", MetricKind::Gauge, "worker=3"),
               ConfigError);
  EXPECT_THROW(obs::validate_metric_name("smartnoc_t", MetricKind::Gauge, "Worker=\"3\""),
               ConfigError);
  EXPECT_THROW(obs::validate_metric_name("smartnoc_t", MetricKind::Gauge, "w=\"a\"b\""),
               ConfigError);
}

TEST(ObsNames, EveryGlobalRegistrationConforms) {
  // The global registry is populated by instrumented subsystems all over the
  // tree; re-validating the snapshot proves none slipped past (registration
  // already throws, so this is a belt-and-suspenders sweep of what's live).
  for (const auto& m : MetricsRegistry::global().snapshot()) {
    EXPECT_NO_THROW(obs::validate_metric_name(m.name, m.kind, m.label)) << m.name;
  }
}

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogram, BucketingIsInclusiveUpperBound) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("smartnoc_t_lat_seconds", "", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.0);  // == bound: lands in the le=1 bucket (inclusive)
  h.observe(3.0);
  h.observe(8.0);  // above every bound: +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 12.5);

  const auto snap = reg.snapshot().at(0);
  const std::vector<std::uint64_t> want{2, 2, 3, 4};
  EXPECT_EQ(snap.cumulative, want) << "snapshot carries cumulative counts";
}

TEST(ObsHistogram, EmptyBoundsSelectDefaultSecondsBuckets) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("smartnoc_t_d_seconds", "");
  EXPECT_EQ(h.bounds(), obs::default_seconds_buckets());
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), ConfigError);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), ConfigError);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), ConfigError);
}

// --- Exposition goldens ------------------------------------------------------

TEST(ObsExport, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("smartnoc_t_points_total", "Points run").inc(24);
  reg.gauge("smartnoc_t_depth", "Queue depth").set(1.5);
  obs::Histogram& h = reg.histogram("smartnoc_t_lat_seconds", "Latency", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(8.0);
  EXPECT_EQ(obs::to_prometheus(reg),
            "# HELP smartnoc_t_points_total Points run\n"
            "# TYPE smartnoc_t_points_total counter\n"
            "smartnoc_t_points_total 24\n"
            "# HELP smartnoc_t_depth Queue depth\n"
            "# TYPE smartnoc_t_depth gauge\n"
            "smartnoc_t_depth 1.5\n"
            "# HELP smartnoc_t_lat_seconds Latency\n"
            "# TYPE smartnoc_t_lat_seconds histogram\n"
            "smartnoc_t_lat_seconds_bucket{le=\"1\"} 1\n"
            "smartnoc_t_lat_seconds_bucket{le=\"2\"} 1\n"
            "smartnoc_t_lat_seconds_bucket{le=\"4\"} 2\n"
            "smartnoc_t_lat_seconds_bucket{le=\"+Inf\"} 3\n"
            "smartnoc_t_lat_seconds_sum 11.5\n"
            "smartnoc_t_lat_seconds_count 3\n");
}

TEST(ObsExport, PrometheusGroupsLabeledFamilies) {
  // Per-worker loops register families interleaved; Prometheus requires all
  // samples of a family contiguous under one header.
  MetricsRegistry reg;
  reg.counter("smartnoc_t_a_total", "a", "worker=\"0\"").inc(1);
  reg.counter("smartnoc_t_b_total", "b").inc(5);
  reg.counter("smartnoc_t_a_total", "a", "worker=\"1\"").inc(2);
  EXPECT_EQ(obs::to_prometheus(reg),
            "# HELP smartnoc_t_a_total a\n"
            "# TYPE smartnoc_t_a_total counter\n"
            "smartnoc_t_a_total{worker=\"0\"} 1\n"
            "smartnoc_t_a_total{worker=\"1\"} 2\n"
            "# HELP smartnoc_t_b_total b\n"
            "# TYPE smartnoc_t_b_total counter\n"
            "smartnoc_t_b_total 5\n");
}

TEST(ObsExport, JsonGolden) {
  MetricsRegistry reg;
  reg.counter("smartnoc_t_points_total", "Points run").inc(24);
  obs::Histogram& h = reg.histogram("smartnoc_t_lat_seconds", "Latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(8.0);
  EXPECT_EQ(obs::to_json(reg),
            "{\"metrics\": [\n"
            "  {\"name\": \"smartnoc_t_points_total\", \"type\": \"counter\", \"value\": 24},\n"
            "  {\"name\": \"smartnoc_t_lat_seconds\", \"type\": \"histogram\", \"buckets\": ["
            "{\"le\": 1, \"cumulative\": 1}, {\"le\": 2, \"cumulative\": 1}, "
            "{\"le\": \"+Inf\", \"cumulative\": 2}], \"sum\": 8.5, \"count\": 2}\n"
            "]}\n");
}

TEST(ObsExport, ValueFormatting) {
  EXPECT_EQ(obs::format_metric_value(24.0), "24");
  EXPECT_EQ(obs::format_metric_value(0.0), "0");
  EXPECT_EQ(obs::format_metric_value(-3.0), "-3");
  EXPECT_EQ(obs::format_metric_value(1.5), "1.5");
  EXPECT_EQ(obs::format_metric_value(0.1), "0.1") << "shortest round-trip form";
}

TEST(ObsExport, WriteFileAtomicLeavesNoTmp) {
  const fs::path dir = scratch_dir("atomic");
  const fs::path target = dir / "metrics.prom";
  obs::write_file_atomic(target.string(), "one\n");
  obs::write_file_atomic(target.string(), "two\n");
  EXPECT_EQ(slurp(target), "two\n");
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  EXPECT_THROW(obs::write_file_atomic((dir / "no_dir" / "x").string(), "x"), ConfigError);
}

// --- Heartbeat ---------------------------------------------------------------

TEST(ObsHeartbeat, JsonRoundTrip) {
  obs::Heartbeat hb;
  hb.pid = 12345;
  hb.uptime_seconds = 17.25;
  hb.job = "j003-smoke";
  hb.points_done = 42;
  hb.points_total = 96;
  hb.points_per_sec = 3.5;
  hb.eta_seconds = 15.428571428571429;
  EXPECT_EQ(obs::heartbeat_from_json(obs::to_json(hb)), hb)
      << "bit-exact round-trip through JSON";

  const obs::Heartbeat idle;
  EXPECT_EQ(obs::heartbeat_from_json(obs::to_json(idle)), idle);

  // A job name needing every kind of escape keeps the file one line.
  obs::Heartbeat odd = hb;
  odd.job = "a\nb\"c\\d\x01";
  const std::string json = obs::to_json(odd);
  EXPECT_EQ(json.find('\n'), json.size() - 1) << json;
  EXPECT_EQ(obs::heartbeat_from_json(json), odd);
}

TEST(ObsHeartbeat, RejectsGarbage) {
  EXPECT_THROW(obs::heartbeat_from_json("not json"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"pid\": }"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"surprise\": 1}"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"pid\": 12abc}"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"pid\": 1.5}"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"job\": 7}"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"job\": \"\\uZZZZ\"}"), ConfigError);
  EXPECT_THROW(obs::heartbeat_from_json("{\"pid\": 1} trailing"), ConfigError);
}

// --- Executor instrumentation ------------------------------------------------

double sum_family(const std::string& name) {
  double s = 0.0;
  for (const auto& m : MetricsRegistry::global().snapshot()) {
    if (m.name == name) s += m.value;
  }
  return s;
}

TEST(ObsExecutor, TaskCountersConserveWork) {
  const double before = sum_family("smartnoc_executor_tasks_total");
  std::atomic<std::size_t> ran{0};
  explore::Executor exec(4);
  exec.for_each(64, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 64u);
  EXPECT_EQ(sum_family("smartnoc_executor_tasks_total") - before, 64.0)
      << "tasks summed over workers == points run";
}

TEST(ObsExecutor, InlinePathCountsAsWorkerZero) {
  const double before = sum_family("smartnoc_executor_tasks_total");
  explore::Executor exec(1);
  int lane = -2;
  exec.for_each(3, [&](std::size_t) { lane = explore::Executor::current_worker(); });
  EXPECT_EQ(lane, 0);
  EXPECT_EQ(explore::Executor::current_worker(), -1) << "lane resets outside for_each";
  EXPECT_EQ(sum_family("smartnoc_executor_tasks_total") - before, 3.0);
}

TEST(ObsExecutor, DisabledInstrumentationCountsNothing) {
  explore::Executor::instrumentation_enabled() = false;
  const double before = sum_family("smartnoc_executor_tasks_total");
  explore::Executor exec(2);
  exec.for_each(8, [](std::size_t) {});
  explore::Executor::instrumentation_enabled() = true;
  EXPECT_EQ(sum_family("smartnoc_executor_tasks_total") - before, 0.0);
}

// --- Spans -------------------------------------------------------------------

TEST(ObsSpans, OneLanePerWorkerPlusServer) {
  obs::SpanTracer tracer;
  explore::Executor exec(3);
  exec.set_tracer(&tracer, "point");
  exec.for_each(12, [](std::size_t) {});
  EXPECT_EQ(tracer.max_lane(), 2);

  std::size_t spans = 0;
  for (const auto& ev : tracer.events()) {
    if (!ev.instant && ev.category == "point") ++spans;
  }
  EXPECT_EQ(spans, 12u) << "one span per point";

  const std::string json = tracer.to_chrome_json("test");
  std::size_t lanes = 0;
  for (std::size_t pos = 0; (pos = json.find("thread_name", pos)) != std::string::npos; ++pos) {
    ++lanes;
  }
  EXPECT_EQ(lanes, 4u) << "server + one lane per executor worker";
  EXPECT_NE(json.find("\"name\": \"worker 2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"server\""), std::string::npos);
}

TEST(ObsSpans, BoundedCaptureFlagsTruncation) {
  obs::SpanTracer tracer(2);
  tracer.instant(0, "a", "1");
  tracer.instant(0, "a", "2");
  EXPECT_FALSE(tracer.truncated());
  tracer.instant(0, "a", "3");
  EXPECT_TRUE(tracer.truncated());
  EXPECT_EQ(tracer.events().size(), 2u);
}

TEST(ObsSpans, ChromeJsonEscapesNames) {
  obs::SpanTracer tracer;
  tracer.span(-1, "job", "a\"b\\c", 0, 5);
  const std::string json = tracer.to_chrome_json("p");
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
}

// --- Purity: metrics and spans never touch results ---------------------------

TEST(ObsPurity, ResultTableIdenticalWithAndWithoutInstrumentation) {
  const explore::SweepSpec spec = tiny_spec();

  explore::Executor::instrumentation_enabled() = false;
  const explore::ResultTable plain = explore::run_sweep(spec, 1);
  explore::Executor::instrumentation_enabled() = true;

  obs::SpanTracer tracer;
  explore::SweepHooks hooks;
  hooks.tracer = &tracer;
  const explore::ResultTable instrumented = explore::run_sweep(spec, 3, {}, hooks);

  EXPECT_EQ(plain.to_csv(), instrumented.to_csv()) << "results must be byte-identical";
  EXPECT_EQ(plain.to_json(), instrumented.to_json());
  EXPECT_GT(tracer.events().size(), 0u) << "the instrumented run did record spans";
}

// --- Serving wiring ----------------------------------------------------------

TEST(ObsServe, StatusFilesAndSpansWrittenAndResultsStayPure) {
  const fs::path dir = scratch_dir("serve_status");
  serve::JobStore store(dir.string());
  const std::string id = store.submit(tiny_sweep_text(), "obs");
  serve::ResultCache cache(store.cache_dir());

  serve::ServeOptions opt;
  opt.once = true;
  opt.quiet = true;
  opt.threads = 2;
  opt.heartbeat_seconds = 0.0;  // write on every tick so the files exist
  opt.trace_spans = true;
  serve::serve_loop(store, cache, opt);

  // Live-status files landed in the queue root and parse back.
  const obs::Heartbeat hb = obs::heartbeat_from_json(slurp(dir / "heartbeat.json"));
  EXPECT_GT(hb.pid, 0);
  const std::string prom = slurp(dir / "metrics.prom");
  EXPECT_NE(prom.find("smartnoc_serve_checkpoint_flushes_total"), std::string::npos);
  EXPECT_NE(prom.find("smartnoc_cache_inserts_total"), std::string::npos);
  EXPECT_NE(slurp(dir / "metrics.json").find("\"metrics\""), std::string::npos);

  // The chrome timeline landed next to the job with a lane per worker.
  const std::string spans = slurp(fs::path(store.job_dir(id)) / "spans.json");
  EXPECT_NE(spans.find("\"name\": \"worker 0\""), std::string::npos);
  EXPECT_NE(spans.find("\"name\": \"worker 1\""), std::string::npos);
  EXPECT_NE(spans.find("\"cat\": \"point\""), std::string::npos);

  // Purity: the served results are byte-identical to a plain single-thread
  // sweep of the same spec, with all of the above machinery running.
  const explore::ResultTable plain = explore::run_sweep(tiny_spec(), 1);
  EXPECT_EQ(slurp(fs::path(store.job_dir(id)) / "results.csv"), plain.to_csv());
}

}  // namespace
}  // namespace smartnoc

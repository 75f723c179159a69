// sweep_cold and sweep_warm: the explorer's batch sweep through the serving
// cache (serve::cache_hooks), on an empty cache and on a populated one.
//
// One "invocation" is what `explorer --cache DIR` does for a user: open the
// ResultCache, run the sweep with cache hooks on 4 executor workers (closed
// batch: every point queued at once), render the table as CSV. The grid is
// fixed; the workload seed only moves the sweep's base seed, so every seed
// runs the same mix of point costs.
#include <filesystem>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "explore/explore.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "perfbench.hpp"
#include "serve/serve.hpp"
#include "sim/session.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace smartnoc;

/// The sweep grid: Mesh and SMART on 4x4 and 8x8, Dedicated on 4x4 only.
/// DedicatedNetwork on an 8x8 under uniform traffic aborts the process (its
/// sink arbiter needs 63 flows x 2 VCs = 126 inputs, over kMaxArbInputs = 80),
/// so Dedicated is a second spec rather than a third value on the design
/// axis. Both specs run back to back inside one invocation.
std::vector<explore::SweepSpec> make_grid(std::uint64_t seed) {
  using noc::SyntheticPattern;
  explore::SweepSpec s;
  s.meshes = {MeshDims(4, 4), MeshDims(8, 8)};
  s.designs = {Design::Mesh, Design::Smart};
  s.workloads = {explore::Workload::synthetic(SyntheticPattern::UniformRandom),
                 explore::Workload::synthetic(SyntheticPattern::Transpose),
                 explore::Workload::synthetic(SyntheticPattern::Neighbor),
                 explore::Workload::soc_app(mapping::SocApp::VOPD),
                 explore::Workload::soc_app(mapping::SocApp::H264)};
  s.injections = {0.02, 0.05, 0.08};
  s.fault_rates = {0.0, 0.05};
  s.warmup_cycles = 500;
  s.measure_cycles = 3'000;
  s.drain_timeout = 50'000;
  s.base_seed = mix_seed(seed, 1);
  explore::SweepSpec d = s;
  d.meshes = {MeshDims(4, 4)};
  d.designs = {Design::Dedicated};
  d.base_seed = mix_seed(seed, 2);
  s.validate();
  d.validate();
  return {s, d};
}

enum class Timing { None, Points, Layers };

/// Per-point hook timestamps, one slot per matrix index. Each index is
/// looked up and stored by the same worker, so slots need no locking.
struct PointClock {
  std::vector<Clock::time_point> lookup_in, lookup_out, store_in, store_out;
  explicit PointClock(std::size_t n) : lookup_in(n), lookup_out(n), store_in(n), store_out(n) {}
};

/// cache_hooks wrapped with timestamps around each hook call.
explore::SweepHooks timed_hooks(serve::ResultCache& cache, PointClock& pc) {
  explore::SweepHooks inner = serve::cache_hooks(cache);
  explore::SweepHooks h;
  h.lookup = [inner, &pc](const explore::SweepSpec& spec, const explore::RunPoint& pt,
                          explore::RunRecord& rec) {
    pc.lookup_in[pt.index] = Clock::now();
    const bool hit = inner.lookup(spec, pt, rec);
    pc.lookup_out[pt.index] = Clock::now();
    return hit;
  };
  h.store = [inner, &pc](const explore::SweepSpec& spec, const explore::RunPoint& pt,
                         const explore::RunRecord& rec) {
    pc.store_in[pt.index] = Clock::now();
    inner.store(spec, pt, rec);
    pc.store_out[pt.index] = Clock::now();
  };
  return h;
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Where an invocation's time went (seconds), summed over invocations. The
/// hook-level fields are filled only under Timing::Layers.
struct Layers {
  double wall = 0.0;  ///< open + sweeps + to_csv
  double open = 0.0, sweep = 0.0, csv = 0.0;
  double lookup = 0.0, compute = 0.0, store = 0.0, exec_idle = 0.0;
  std::size_t invocations = 0, lookups = 0, stores = 0, steals = 0, hits = 0, misses = 0;

  void add(const Layers& o) {
    wall += o.wall;
    open += o.open;
    sweep += o.sweep;
    csv += o.csv;
    lookup += o.lookup;
    compute += o.compute;
    store += o.store;
    exec_idle += o.exec_idle;
    invocations += o.invocations;
    lookups += o.lookups;
    stores += o.stores;
    steals += o.steals;
    hits += o.hits;
    misses += o.misses;
  }
};

/// One cached invocation and what it measured.
struct Invocation {
  std::vector<std::string> csv;  ///< one table per spec
  std::size_t points = 0, failed = 0;
  std::vector<double> point_ms;  ///< computed points: lookup entry -> store return (ms)
  Layers t;
};

double registry_sum(const char* name) {
  double s = 0.0;
  for (const obs::MetricSnapshot& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name == name) s += m.value;
  }
  return s;
}

Invocation invoke(const std::vector<explore::SweepSpec>& grid, const std::string& dir,
                  int threads, Timing timing) {
  Invocation inv;
  obs::SpanTracer tracer;
  const double idle0 = timing == Timing::Layers
                           ? registry_sum("smartnoc_executor_idle_seconds_total") : 0.0;
  std::vector<explore::ResultTable> tables;
  std::vector<PointClock> clocks;
  for (const explore::SweepSpec& s : grid) clocks.emplace_back(s.size());

  const auto t0 = Clock::now();
  serve::ResultCache cache(dir);
  const auto t_open = Clock::now();
  for (std::size_t k = 0; k < grid.size(); ++k) {
    explore::SweepHooks hooks =
        timing == Timing::None ? serve::cache_hooks(cache) : timed_hooks(cache, clocks[k]);
    if (timing == Timing::Layers) hooks.tracer = &tracer;
    tables.push_back(explore::run_sweep(grid[k], threads, {}, hooks));
  }
  const auto t_sweep = Clock::now();
  for (const explore::ResultTable& t : tables) inv.csv.push_back(t.to_csv());
  const auto t1 = Clock::now();

  inv.t.invocations = 1;
  inv.t.wall = secs(t0, t1);
  inv.t.open = secs(t0, t_open);
  inv.t.sweep = secs(t_open, t_sweep);
  inv.t.csv = secs(t_sweep, t1);
  for (const explore::ResultTable& t : tables) {
    inv.points += t.size();
    inv.failed += t.failed_count();
  }
  if (timing == Timing::None) return inv;

  const auto unset = Clock::time_point{};
  for (const PointClock& pc : clocks) {
    for (std::size_t i = 0; i < pc.lookup_in.size(); ++i) {
      if (pc.store_out[i] != unset) {
        inv.point_ms.push_back(secs(pc.lookup_in[i], pc.store_out[i]) * 1e3);
      }
      if (timing != Timing::Layers) continue;
      if (pc.lookup_in[i] != unset) {
        inv.t.lookup += secs(pc.lookup_in[i], pc.lookup_out[i]);
        inv.t.lookups += 1;
      }
      if (pc.store_in[i] != unset) {
        inv.t.compute += secs(pc.lookup_out[i], pc.store_in[i]);
        inv.t.store += secs(pc.store_in[i], pc.store_out[i]);
        inv.t.stores += 1;
      }
    }
  }
  if (timing == Timing::Layers) {
    for (const obs::SpanEvent& ev : tracer.events()) {
      if (ev.instant && ev.category == "steal") inv.t.steals += 1;
    }
    inv.t.hits = cache.counters().hits;
    inv.t.misses = cache.counters().misses;
    inv.t.exec_idle = registry_sum("smartnoc_executor_idle_seconds_total") - idle0;
  }
  return inv;
}

/// Modelled results of a sweep: mean latency and power over its ok rows.
SimValues sweep_sim(const std::vector<std::string>& csv) {
  std::vector<double> lat, pw;
  for (const std::string& text : csv) {
    const explore::ResultTable table = explore::ResultTable::from_csv(text);
    for (const explore::RunRecord& rec : table.rows()) {
      if (!rec.ok) continue;
      lat.push_back(rec.avg_net_latency);
      pw.push_back(rec.power_mw);
    }
  }
  return SimValues{mean(lat), mean(pw), lat.size(), pw.size()};
}

/// Serial pass over the cold grid, one Session per point: era build (Session
/// ctor + first step(1)) and the small-kernel cost of the remaining cycles.
struct SerialPass {
  double era_build_s = 0.0, step_s = 0.0;
  std::uint64_t cycles = 0, xbar_flits = 0, points = 0;
};

SerialPass serial_pass(const std::vector<explore::SweepSpec>& grid) {
  SerialPass sp;
  for (const explore::SweepSpec& spec : grid) {
    for (const explore::RunPoint& pt : spec.expand()) {
      const sim::ScenarioSpec scenario = explore::make_point_scenario(spec, pt);
      const auto t0 = Clock::now();
      sim::Session session(scenario);
      sp.cycles += session.step(1);
      sp.era_build_s += seconds_since(t0);
      std::uint64_t seen = session.network().stats().activity().xbar_flit_traversals;
      while (!session.done()) {
        const auto t1 = Clock::now();
        sp.cycles += session.step(1 << 20);
        sp.step_s += seconds_since(t1);
        // A measure phase resets the stats at its start; a step never
        // crosses a phase boundary, so after a reset all counts are new.
        const std::uint64_t now = session.network().stats().activity().xbar_flit_traversals;
        sp.xbar_flits += now >= seen ? now - seen : now;
        seen = now;
      }
      sp.points += 1;
    }
  }
  return sp;
}

struct SweepState {
  std::vector<explore::SweepSpec> grid;
  std::vector<std::string> reference_csv;  ///< the first set-up's cold table
  std::string populated_dir;               ///< cache holding every point
};

std::string fresh_dir(const Options& opt, const std::string& name) {
  const fs::path p = fs::path(opt.workdir) / name;
  fs::remove_all(p);
  return p.string();
}

/// Per-layer rows of a traced sweep run.
void add_layers(Result& r, const Options& opt, const Layers& t) {
  const std::size_t inv = t.invocations;
  const double n = static_cast<double>(inv);
  const double worker_wall = static_cast<double>(opt.threads) * t.sweep;
  const double hooked = t.lookup + t.compute + t.store;
  r.add("explore.busy_s", "s", t.compute / n, inv);
  r.add("explore.idle_frac", "frac", 1.0 - hooked / worker_wall, inv);
  r.add("explore.steals", "count", static_cast<double>(t.steals) / n, inv);
  r.add("explore.csv_ms", "ms", t.csv / n * 1e3, inv);
  r.add("serve.open_ms", "ms", t.open / n * 1e3, inv);
  r.add("serve.lookup_us", "us", t.lookups ? t.lookup / t.lookups * 1e6 : 0.0, t.lookups);
  r.add("serve.insert_us", "us", t.stores ? t.store / t.stores * 1e6 : 0.0, t.stores);
  const std::size_t probes = t.hits + t.misses;
  r.add("serve.hit_ratio", "frac", probes ? static_cast<double>(t.hits) / probes : 0.0, probes);

  // Reconciliation, two levels. Inside run_sweep the hooks and the points
  // they bracket plus the executor's own idle time should fill
  // workers x sweep wall. Around it, open + sweeps + to_csv is the whole
  // invocation.
  r.add("bench.recon_frac", "frac",
        add_reconciliation(r,
                           {{"lookup", t.lookup}, {"compute", t.compute}, {"store", t.store},
                            {"executor idle", t.exec_idle}},
                           "workers x sweep wall", worker_wall,
                           "worker thread spawn/join and matrix expansion, outside the "
                           "executor's busy/idle accounting"),
        inv);
  add_reconciliation(r, {{"open", t.open}, {"sweeps", t.sweep}, {"to_csv", t.csv}},
                     "invocation wall", t.wall, "untimed glue between the three calls");
  if (t.compute > 0.0) {
    r.lines.push_back(strf("cold-cache hooks: lookup + insert = %.2f%% of explore busy time",
                           100.0 * (t.lookup + t.store) / t.compute));
  }
}

Result run_sweep_workload(const Options& opt, bool warm) {
  Result r;
  SweepState st;
  Timed plain, traced;
  Layers layers;
  std::string cold_dir;

  // Set-up: generate the grid, then run it once cold into a fresh cache
  // directory. The table is the reference every later invocation must
  // reproduce byte for byte, and the directory is the populated cache
  // sweep_warm serves from.
  const auto setup = [&] {
    st.grid = make_grid(opt.seed);
    st.populated_dir = fresh_dir(opt, "populated");
    const Invocation inv = invoke(st.grid, st.populated_dir, opt.threads, Timing::None);
    r.check(inv.failed == 0, "set-up sweep has failed rows");
    if (st.reference_csv.empty()) st.reference_csv = inv.csv;
    r.check(inv.csv == st.reference_csv, "set-up sweep differs between set-ups");
  };

  const auto work = [&](bool trace, double seconds) {
    const auto start = Clock::now();
    do {
      const std::string dir = warm ? st.populated_dir : (cold_dir = fresh_dir(opt, "cold"));
      const Timing timing = trace ? Timing::Layers : warm ? Timing::None : Timing::Points;
      const Invocation inv = invoke(st.grid, dir, opt.threads, timing);
      r.attempted += inv.points;
      r.failed += inv.failed;
      r.check(inv.csv == st.reference_csv,
              std::string(warm ? "warm" : "cold") + " table differs from the set-up table");
      const double points = static_cast<double>(inv.points);
      Timed& w = trace ? traced : plain;
      if (warm) w.add(points, inv.t.wall, inv.t.wall * 1e3);
      else w.add(points, inv.t.wall, inv.point_ms);
      if (trace) layers.add(inv.t);
    } while (seconds_since(start) < seconds);
  };

  const double setup_s = run_segments(opt, setup, work);
  if (!warm) {
    // The cache the last cold invocation filled must serve the same table.
    const Invocation served = invoke(st.grid, cold_dir, opt.threads, Timing::None);
    r.check(served.csv == st.reference_csv, "cold-filled cache serves a different table");
  }
  const SimValues sim = sweep_sim(st.reference_csv);
  SimValues golden = sim;
  if (opt.seed != kGoldenSeed) {
    const Invocation inv =
        invoke(make_grid(kGoldenSeed), fresh_dir(opt, "golden"), opt.threads, Timing::None);
    r.check(inv.failed == 0, "golden-seed sweep has failed rows");
    golden = sweep_sim(inv.csv);
  }
  check_golden(r, "sweep", golden);

  if (!opt.trace) {
    add_host_metrics(r, setup_s, plain, "points_per_s", warm ? "sweep_ms" : "point_ms", "ms",
                     1.0);
    r.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
    add_sim_metrics(r, sim);
    return r;
  }

  add_layers(r, opt, layers);
  add_trace_overhead(r, plain, traced);
  if (!warm) {
    const SerialPass sp = serial_pass(st.grid);
    r.add("sim.era_build_ms", "ms", sp.era_build_s / sp.points * 1e3, sp.points);
    r.add("noc.small_ns_per_cycle", "ns", sp.step_s / sp.cycles * 1e9, sp.points);
    r.add("noc.xbar_flits_per_cycle", "count", static_cast<double>(sp.xbar_flits) / sp.cycles,
          sp.points);
    r.add("noc.ns_per_xbar_flit", "ns", sp.step_s / sp.xbar_flits * 1e9, sp.points);
    // The grid's app points map their task graph and compute presets in
    // every era build.
    std::vector<NocConfig> cfgs;
    for (const MeshDims& m : st.grid.front().meshes) {
      NocConfig cfg = NocConfig::paper_4x4();
      cfg.width = m.width();
      cfg.height = m.height();
      cfg.fit_derived();
      cfgs.push_back(cfg);
    }
    add_mapping_layers(r, cfgs, {mapping::SocApp::VOPD, mapping::SocApp::H264});
    // The grid never switches eras; a few app-switch scenarios do.
    add_era_switch_layers(r, opt.seed);
  }
  return r;
}

}  // namespace

Result run_sweep_cold(const Options& opt) { return run_sweep_workload(opt, false); }
Result run_sweep_warm(const Options& opt) { return run_sweep_workload(opt, true); }

}  // namespace perfbench

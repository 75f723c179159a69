// perfbench: the simulator's benchmark. One process runs one workload (or
// all four with --workload all), checks its outputs, prints every metric by
// name with unit and sample count, and ends with one JSON line:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (host time, memory, and the
// modelled sim_* results); --trace 1 reports the per-layer metrics plus the
// reconciliation and tracing-overhead rows. A failed output check prints
// the reason on stderr, no JSON line, and exits 1.
//
//   perfbench --workload sweep_cold --seed 1 --seconds 10 --trace 0
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "perfbench.hpp"

namespace perfbench {

using smartnoc::strf;

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

void add_host_metrics(Result& r, double setup_s, const Timed& t, const char* rate_label,
                      const char* pct_prefix, const char* pct_unit, double pct_scale) {
  std::vector<double> samples = t.samples;
  const std::size_t n = samples.size();
  const std::string p50 = std::string(pct_prefix) + "_p50";
  const std::string p99 = std::string(pct_prefix) + "_p99";
  r.add("setup_s", "s", setup_s, kSegments);
  r.add(Metric{"ops_per_s", "1/s", t.rate(), t.ops, rate_label, "1/s", 1.0});
  r.add(Metric{"op_ms_p50", "ms", percentile(samples, 50), n, p50, pct_unit, pct_scale});
  r.add(Metric{"op_ms_p99", "ms", percentile(samples, 99), n, p99, pct_unit, pct_scale});
  if (n < 1000) {
    r.lines.push_back(strf("warning: %zu samples; %s has fewer than 10 beyond it", n,
                           p99.c_str()));
  }
}

void check_golden(Result& r, const char* key, const SimValues& golden) {
  std::FILE* f = std::fopen(kGoldenFile, "r");
  if (f == nullptr) throw std::runtime_error(std::string("cannot read ") + kGoldenFile);
  char line[512];
  char name[64];
  double lat = 0.0, pw = 0.0;
  bool found = false;
  while (!found && std::fgets(line, sizeof line, f) != nullptr) {
    found = line[0] != '#' && std::sscanf(line, "%63s %lf %lf", name, &lat, &pw) == 3 &&
            std::string(name) == key;
  }
  std::fclose(f);
  if (!found) throw std::runtime_error(std::string(kGoldenFile) + " has no line for " + key);
  const auto pin = [&](const char* metric, double got, double want) {
    r.check(got == want, strf("%s for seed %llu is %.17g; %s pins %.17g", metric,
                              static_cast<unsigned long long>(kGoldenSeed), got, kGoldenFile,
                              want));
  };
  pin("sim_latency_cycles", golden.latency_cycles, lat);
  pin("sim_power_mw", golden.power_mw, pw);
}

void add_sim_metrics(Result& r, const SimValues& v) {
  r.add("sim_latency_cycles", "cycles", v.latency_cycles, v.latency_n);
  r.add("sim_power_mw", "mW", v.power_mw, v.power_n);
}

double add_reconciliation(Result& r, const Parts& parts, const char* whole, double whole_s,
                          const char* gap) {
  std::string line = "reconcile:";
  double sum = 0.0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    line += strf("%s %s %.3f", i ? " +" : "", parts[i].first, parts[i].second);
    sum += parts[i].second;
  }
  const double frac = sum / whole_s;
  line += strf(" = %.3f s vs %s %.3f s: %.1f%%", sum, whole, whole_s, 100.0 * frac);
  if (std::abs(frac - 1.0) <= kReconcileTolerance) {
    line += strf(", within %.0f%%", 100.0 * kReconcileTolerance);
  } else {
    line += strf(", outside %.0f%%; gap %.3f s = %s", 100.0 * kReconcileTolerance,
                 whole_s - sum, gap);
  }
  r.lines.push_back(line);
  return frac;
}

void add_trace_overhead(Result& r, const Timed& plain, const Timed& traced) {
  const double a = plain.rate(), b = traced.rate();
  r.lines.push_back(strf("tracing overhead: work rate %.6g plain vs %.6g traced (%+.2f%%)", a, b,
                         100.0 * (a / b - 1.0)));
  r.add("bench.trace_overhead_frac", "frac", a / b - 1.0, traced.ops);
}

namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// The contract lists, in BENCHMARK.json order. Every workload reports every
// end-to-end metric; a per-layer metric a workload never exercises reads 0
// with 0 samples.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},   {"op_ms_p50", "ms"},
    {"op_ms_p99", "ms"},      {"peak_rss_mb", "MB"},  {"sim_latency_cycles", "cycles"},
    {"sim_power_mw", "mW"},
};
constexpr Spec kPerLayer[] = {
    {"explore.busy_s", "s"},
    {"explore.idle_frac", "frac"},
    {"explore.steals", "count"},
    {"explore.csv_ms", "ms"},
    {"serve.open_ms", "ms"},
    {"serve.lookup_us", "us"},
    {"serve.insert_us", "us"},
    {"serve.hit_ratio", "frac"},
    {"sim.era_build_ms", "ms"},
    {"sim.era_switch_ms", "ms"},
    {"sim.reconfig_stores", "count"},
    {"smart.preset_ms", "ms"},
    {"mapping.map_ms", "ms"},
    {"noc.tick_us", "us"},
    {"noc.generate_us", "us"},
    {"noc.barrier_wait_frac", "frac"},
    {"noc.boundary_flits_per_cycle", "count"},
    {"noc.xbar_flits_per_cycle", "count"},
    {"noc.ns_per_xbar_flit", "ns"},
    {"noc.small_ns_per_cycle", "ns"},
    {"bench.recon_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"sweep_cold", run_sweep_cold},
    {"sweep_warm", run_sweep_warm},
    {"scenario_appswitch", run_scenario_appswitch},
    {"mesh64_sharded", run_mesh64_sharded},
};

/// Puts the metrics in contract order; a missing end-to-end metric or an
/// unknown name is a benchmark bug.
std::vector<Metric> in_contract_order(const Result& r, bool trace, const char* workload) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : r.metrics) {
    if (!by_name.emplace(m.name, m).second) {
      throw std::runtime_error(std::string(workload) + " reported " + m.name + " twice");
    }
  }
  std::vector<Metric> out;
  const auto take = [&](const auto& specs) {
    for (const Spec& s : specs) {
      const auto it = by_name.find(s.name);
      if (it == by_name.end()) {
        if (!trace) throw std::runtime_error(std::string(workload) + " did not report " + s.name);
        out.push_back(Metric{s.name, s.unit, 0.0, 0, s.name, s.unit, 1.0});
        continue;
      }
      if (it->second.unit != s.unit) {
        throw std::runtime_error(std::string(workload) + " reported " + s.name + " in " +
                                 it->second.unit);
      }
      out.push_back(it->second);
      by_name.erase(it);
    }
  };
  if (trace) take(kPerLayer);
  else take(kEndToEnd);
  if (!by_name.empty()) {
    throw std::runtime_error(std::string(workload) + " reported unlisted metric " +
                             by_name.begin()->first);
  }
  return out;
}

void print_table(const char* workload, const Result& r, const std::vector<Metric>& ms) {
  std::printf("== %s ==\n", workload);
  for (const Metric& m : ms) {
    std::printf("  %-30s %16.6f %-7s n=%-8zu [%s]\n", m.label.c_str(), m.value * m.label_scale,
                m.label_unit.c_str(), m.samples, m.name.c_str());
  }
  std::printf("  %-30s %16.6f %-7s n=%-8llu\n", "failed_frac",
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
              "frac", static_cast<unsigned long long>(r.attempted));
  for (const std::string& line : r.lines) std::printf("  %s\n", line.c_str());
}

std::string json_metrics(const std::string& prefix, const std::vector<Metric>& ms, bool& first) {
  std::string out;
  for (const Metric& m : ms) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "" : ", ") + std::string("\"") + prefix + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME|all --seed N --seconds S --trace 0|1 [--workdir DIR]\n"
               "workloads: sweep_cold sweep_warm scenario_appswitch mesh64_sharded\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  opt.workdir = ".bench_build/perfbench-work";
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--workdir") opt.workdir = v;
      else return usage(argv[0]);
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !(opt.seconds > 0.0)) return usage(argv[0]);
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = static_cast<int>(std::min(4u, hw > 0 ? hw : 1u));

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return usage(argv[0]);

  std::printf(
      "# fingerprint {\"hardware_threads\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"sweep_workers\": %d, "
      "\"shard_threads\": %d}\n",
      hw, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.threads, opt.threads);

  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  bool first = true;
  bool correct = true;
  try {
    std::filesystem::create_directories(opt.workdir);
    for (const Workload* w : selected) {
      if (!reset_peak_rss() && selected.size() > 1) {
        throw std::runtime_error("cannot reset the RSS high-water mark between workloads");
      }
      const Result r = w->run(opt);
      for (const std::string& f : r.check_failures) {
        std::fprintf(stderr, "perfbench: %s: check failed: %s\n", w->name, f.c_str());
        correct = false;
      }
      const std::vector<Metric> ms = in_contract_order(r, opt.trace, w->name);
      print_table(w->name, r, ms);
      attempted += r.attempted;
      failed += r.failed;
      metrics += json_metrics(selected.size() > 1 ? std::string(w->name) + "/" : "", ms, first);
    }
    std::filesystem::remove_all(opt.workdir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!correct) return 1;
  std::fflush(stdout);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              metrics.c_str());
  return 0;
}

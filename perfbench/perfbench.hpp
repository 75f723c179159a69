// Shared pieces of the benchmark driver: run options, the result record
// every workload fills, sample statistics, and the segmented timing every
// workload runs under.
//
// A workload measures host time (what the simulator costs) and reports the
// simulated results it produced (sim_*), which must repeat exactly for a
// given seed. Output checks never fold into a metric: a failed check marks
// the run incorrect and main() prints no result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "mapping/apps.hpp"
#include "noc/stats.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;           ///< min(4, hardware threads)
  std::string workdir;       ///< scratch directory for cache files
};

/// One reported metric. `name`/`unit` are the contract names printed in the
/// final JSON line; `label`/`label_unit`/`label_scale` give the
/// workload-specific name it stands for in the human-readable table
/// (e.g. ops_per_s is points_per_s on a sweep, sim_cycles_per_s on the
/// 64x64).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  std::string label;
  std::string label_unit;
  double label_scale = 1.0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;                 ///< !ok rows/sessions, undrained runs, exceptions
  std::vector<std::string> check_failures;  ///< output checks that did not hold
  std::vector<Metric> metrics;
  std::vector<std::string> lines;           ///< extra table rows: reconciliation, notes

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void add(Metric m) { metrics.push_back(std::move(m)); }
  void add(const std::string& name, const std::string& unit, double value, std::size_t samples) {
    metrics.push_back(Metric{name, unit, value, samples, name, unit, 1.0});
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of `v` (sorted in place), p in [0, 100].
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t i = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.999999) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

inline double median(std::vector<double> v) { return percentile(v, 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// ActivityCounters is a plain block of uint64 counters.
inline bool same_activity(const smartnoc::noc::ActivityCounters& a,
                          const smartnoc::noc::ActivityCounters& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Resets this process's resident-set high-water mark to its current RSS,
/// so peak_rss_mb() measures from here on. False if the kernel refused.
bool reset_peak_rss();

/// Resident-set high-water mark of this process (VmHWM), in MB.
double peak_rss_mb();

/// SplitMix64 step: derives per-item seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Host time on the machines this runs on drifts by up to 1.5x over tens of
// seconds (interference from outside the process), so a run that sets up
// once and then measures one block can land wholly in a fast or a slow
// stretch. Every run is therefore split into kSegments rounds of set-up plus
// timed work, spreading both over the whole run. Host-time metrics are
// taken over every timed operation of the run: no window or sample is
// dropped, so an occasional slow operation counts as it happened.
inline constexpr int kSegments = 5;

/// The timed operations of one loop.
struct Timed {
  double work = 0.0, seconds = 0.0;
  std::vector<double> samples;
  std::size_t ops = 0;

  /// One finished operation: `work` units (points, scenarios, cycles) in
  /// `seconds`, contributing `samples` to the percentiles.
  void add(double w, double s, const std::vector<double>& smp) {
    work += w;
    seconds += s;
    samples.insert(samples.end(), smp.begin(), smp.end());
    ops += 1;
  }
  void add(double w, double s, double sample) { add(w, s, std::vector<double>{sample}); }
  double rate() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

/// Runs kSegments rounds of `setup()` then `work(traced, seconds)`, so the
/// set-up samples and the timed work spread over the whole run. A traced
/// run splits each round between plain and traced work, alternating which
/// goes first. Returns the median set-up time.
template <typename Setup, typename Work>
double run_segments(const Options& opt, Setup&& setup, Work&& work) {
  std::vector<double> setup_s;
  const double share = opt.seconds / kSegments / (opt.trace ? 2.0 : 1.0);
  for (int seg = 0; seg < kSegments; ++seg) {
    const auto t0 = Clock::now();
    setup();
    setup_s.push_back(seconds_since(t0));
    const bool traced_first = opt.trace && seg % 2 == 1;
    work(traced_first, share);
    if (opt.trace) work(!traced_first, share);
  }
  return median(setup_s);
}

/// The host-time end-to-end rows: set-up, work rate and latency percentiles
/// over every operation of `t`, labelled as the workload names them
/// (points_per_s, cycle_us_p50, ...) in the printed table.
void add_host_metrics(Result& r, double setup_s, const Timed& t, const char* rate_label,
                      const char* pct_prefix, const char* pct_unit, double pct_scale);

/// Traced run: one reconciliation row. The layer times in `parts` should add
/// up to `whole_s` within kReconcileTolerance; the row says whether they do
/// and names what the gap holds. Returns sum(parts) / whole_s.
inline constexpr double kReconcileTolerance = 0.05;
using Parts = std::vector<std::pair<const char*, double>>;
double add_reconciliation(Result& r, const Parts& parts, const char* whole, double whole_s,
                          const char* gap);

/// Modelled results of one workload and seed: mean latency and power over
/// the measured rows (sweeps), app phases (scenarios) or prefix (64x64).
struct SimValues {
  double latency_cycles = 0.0, power_mw = 0.0;
  std::size_t latency_n = 0, power_n = 0;
};

/// The seed whose modelled results kGoldenFile (relative to the repo root)
/// pins, one line per workload family: `<key> <sim_latency_cycles>
/// <sim_power_mw>`.
inline constexpr std::uint64_t kGoldenSeed = 1;
inline constexpr const char* kGoldenFile = "perfbench/golden_sim.txt";

/// Checks `golden`, a workload's modelled results for kGoldenSeed, against
/// the line `key` of kGoldenFile. The sim_* metrics move with the seed, so
/// their bounds cannot pin the model; this check does: a change to the
/// model fails the run instead of scoring as a metric.
void check_golden(Result& r, const char* key, const SimValues& golden);

/// The sim_latency_cycles and sim_power_mw rows.
void add_sim_metrics(Result& r, const SimValues& v);

/// Traced run: mapping.map_ms (mapping::map_app) and smart.preset_ms
/// (smart::make_smart_network on the mapped flows) per app and config.
void add_mapping_layers(Result& r, const std::vector<smartnoc::NocConfig>& cfgs,
                        const std::vector<smartnoc::mapping::SocApp>& apps);

/// Traced run: sim.era_switch_ms and sim.reconfig_stores over a few
/// step-driven app-switch scenarios (see scenario.cpp) drawn from `seed`.
void add_era_switch_layers(Result& r, std::uint64_t seed);

/// Traced run: the tracing overhead (plain over traced work rate).
void add_trace_overhead(Result& r, const Timed& plain, const Timed& traced);

Result run_sweep_cold(const Options& opt);
Result run_sweep_warm(const Options& opt);
Result run_scenario_appswitch(const Options& opt);
Result run_mesh64_sharded(const Options& opt);

}  // namespace perfbench

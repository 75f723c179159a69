// scenario_appswitch: one client running SMART Session scenarios back to
// back. Each scenario is the paper's 4x4 cycling all eight SoC apps twice in
// short phases, reconfiguring on every switch (Fig. 1 flow: drain, register
// stores, new presets, rebuild), with a link glitch, a router stall and a
// permanent link kill firing mid-phase, then a final drain. It is the only
// workload that reconfigures more than once.
//
// The benchmark writes each scenario as scenario text and parses it, like a
// user's .scn file. A pool of scenarios, each with its own traffic seed
// drawn from the workload seed, is run round-robin; every run must repeat
// its pool entry's first result exactly.
#include <cctype>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "mapping/apps.hpp"
#include "mapping/nmap.hpp"
#include "perfbench.hpp"
#include "power/energy_model.hpp"
#include "sim/session.hpp"
#include "smart/smart_network.hpp"

namespace perfbench {
namespace {

using namespace smartnoc;

constexpr int kPool = 64;    ///< enough packets for the sim_* means to settle
constexpr int kRounds = 2;   ///< passes over the eight apps
constexpr Cycle kPhase = 1'000;

std::string scenario_text(int index, std::uint64_t seed) {
  std::string t = strf(
      "name = appswitch%d\ndesign = smart\nmesh = 4x4\nseed = %llu\n"
      "drain_timeout = 100000\nwatchdog = 20000\nretry_limit = 3\nretry_backoff = 64\n",
      index, static_cast<unsigned long long>(seed));
  // Session-time fault events, each in the middle of a phase.
  const auto mid = [](int phase) {
    return static_cast<unsigned long long>(phase * kPhase + kPhase / 2);
  };
  t += strf("fault_event glitch@%llu:9:N@%llu\n", mid(2), mid(2) + 400);
  t += strf("fault_event stall@%llu:10@%llu\n", mid(5), mid(5) + 200);
  t += strf("fault_event kill@%llu:5:E\n", mid(9));
  int phase = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (mapping::SocApp app : mapping::kAllApps) {
      std::string name = mapping::app_name(app);
      for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      t += strf("phase p%d workload=%s injection=1 cycles=%llu measure%s\n", phase, name.c_str(),
                static_cast<unsigned long long>(kPhase), phase > 0 ? " reconfigure" : "");
      ++phase;
    }
  }
  t += "phase drain drain\n";
  return t;
}

/// What a run must reproduce: per-phase deliveries, latency and activity.
bool same_phases(const sim::SessionResult& a, const sim::SessionResult& b) {
  if (a.phases.size() != b.phases.size()) return false;
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    const sim::PhaseResult& x = a.phases[i];
    const sim::PhaseResult& y = b.phases[i];
    if (x.packets_delivered != y.packets_delivered || x.packets_generated != y.packets_generated ||
        x.avg_network_latency != y.avg_network_latency || x.cycles_run != y.cycles_run ||
        x.reconfig.stores != y.reconfig.stores || !same_activity(x.activity, y.activity)) {
      return false;
    }
  }
  return true;
}

/// Every phase ran, and the final drain emptied the network.
bool session_ok(const sim::SessionResult& res) {
  if (!res.ok) return false;
  for (const sim::PhaseResult& p : res.phases) {
    if (!p.ok || (p.drain && !p.drained)) return false;
  }
  return true;
}

/// The pool's scenarios for `seed`, parsed from generated scenario text.
std::vector<sim::ScenarioSpec> make_pool(std::uint64_t seed) {
  std::vector<sim::ScenarioSpec> specs;
  for (int i = 0; i < kPool; ++i) {
    specs.push_back(sim::parse_scenario(scenario_text(i, mix_seed(seed, 100 + i))));
  }
  return specs;
}

/// Runs every scenario of `specs` once with Session::run().
std::vector<sim::SessionResult> run_pool(Result& r, const std::vector<sim::ScenarioSpec>& specs) {
  std::vector<sim::SessionResult> results;
  for (const sim::ScenarioSpec& spec : specs) {
    sim::Session s(spec);
    results.push_back(s.run());
    r.check(session_ok(results.back()), "set-up scenario failed");
  }
  return results;
}

/// Mean modelled latency and power over the pool's measured app phases.
SimValues pool_sim(const std::vector<sim::ScenarioSpec>& specs,
                   const std::vector<sim::SessionResult>& results) {
  std::vector<double> lat, pw;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const NocConfig& cfg = specs[i].config;
    const power::EnergyParams ep = power::EnergyParams::for_config(cfg);
    for (const sim::PhaseResult& p : results[i].phases) {
      if (!p.measured || p.packets_delivered == 0) continue;
      lat.push_back(p.avg_network_latency);
      pw.push_back(power::compute_power(cfg, p.activity, p.cycles_run, ep).total() * 1e3);
    }
  }
  return SimValues{mean(lat), mean(pw), lat.size(), pw.size()};
}

/// Per-scenario layer times of a step-driven Session run.
struct Steps {
  double wall = 0.0, initial_build = 0.0, era_switch = 0.0, ticking = 0.0;
  std::size_t switches = 0;
  std::uint64_t stores = 0, cycles = 0, xbar_flits = 0;
};

/// Runs `spec` through Session::step, timing the first step(1) of every
/// phase (where an era switch happens) apart from the rest of its steps.
sim::SessionResult stepped(const sim::ScenarioSpec& spec, Steps& st) {
  const auto t0 = Clock::now();
  sim::Session s(spec);
  std::vector<double> entry_s;  ///< first step of each phase
  const noc::Network* net = nullptr;
  std::uint64_t seen = 0;
  while (!s.done()) {
    const bool entering = s.phase_index() == entry_s.size();
    const auto t1 = Clock::now();
    st.cycles += s.step(entering ? 1 : 1 << 20);
    const double dt = seconds_since(t1);
    if (entering) entry_s.push_back(dt);
    else st.ticking += dt;
    // Activity restarts with each era network and at each measure phase.
    noc::Network& now_net = s.network();
    const std::uint64_t x = now_net.stats().activity().xbar_flit_traversals;
    st.xbar_flits += (&now_net == net && x >= seen) ? x - seen : x;
    net = &now_net;
    seen = x;
  }
  s.flush_telemetry();
  st.wall += seconds_since(t0);
  sim::SessionResult res;
  res.ok = true;
  res.phases = s.completed();
  for (std::size_t i = 0; i < res.phases.size(); ++i) {
    const sim::PhaseResult& p = res.phases[i];
    if (!p.ok) res.ok = false;
    const double dt = i < entry_s.size() ? entry_s[i] : 0.0;
    if (p.reconfig.performed) {
      st.era_switch += dt;
      st.switches += 1;
      st.stores += static_cast<std::uint64_t>(p.reconfig.stores);
    } else if (i == 0) {
      st.initial_build += dt;
    } else {
      st.ticking += dt;
    }
  }
  return res;
}

void add_switch_rows(Result& r, const Steps& st) {
  r.add("sim.era_switch_ms", "ms", st.era_switch / st.switches * 1e3, st.switches);
  r.add("sim.reconfig_stores", "count", static_cast<double>(st.stores) / st.switches,
        st.switches);
}

}  // namespace

void add_era_switch_layers(Result& r, std::uint64_t seed) {
  constexpr int kScenarios = 4;  ///< 60 era switches
  Steps st;
  for (int i = 0; i < kScenarios; ++i) {
    const sim::SessionResult res =
        stepped(sim::parse_scenario(scenario_text(i, mix_seed(seed, 100 + i))), st);
    r.check(session_ok(res), "app-switch scenario failed");
  }
  add_switch_rows(r, st);
}

void add_mapping_layers(Result& r, const std::vector<NocConfig>& cfgs,
                        const std::vector<mapping::SocApp>& apps) {
  constexpr int kReps = 5;
  double map_s = 0.0, preset_s = 0.0;
  std::size_t n = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const NocConfig& cfg : cfgs) {
      for (mapping::SocApp app : apps) {
        const auto t0 = Clock::now();
        const mapping::MappedApp m = mapping::map_app(app, cfg);
        const auto t1 = Clock::now();
        const smart::SmartBuild b = smart::make_smart_network(m.cfg, m.flows);
        preset_s += seconds_since(t1);
        map_s += std::chrono::duration<double>(t1 - t0).count();
        n += 1;
      }
    }
  }
  r.add("mapping.map_ms", "ms", map_s / n * 1e3, n);
  r.add("smart.preset_ms", "ms", preset_s / n * 1e3, n);
}

Result run_scenario_appswitch(const Options& opt) {
  Result r;
  std::vector<sim::ScenarioSpec> specs;
  std::vector<sim::SessionResult> reference;  ///< the first set-up's results
  Timed plain, traced;
  Steps st;
  std::size_t next = 0;

  // Set-up: write and parse every scenario, then run each once to record
  // the result all later runs must reproduce.
  const auto setup = [&] {
    specs = make_pool(opt.seed);
    const std::vector<sim::SessionResult> results = run_pool(r, specs);
    if (reference.empty()) reference = results;
    for (int i = 0; i < kPool; ++i) {
      r.check(same_phases(results[i], reference[i]), "set-up scenario differs between set-ups");
    }
  };

  const auto work = [&](bool trace, double seconds) {
    const auto start = Clock::now();
    do {
      const std::size_t k = next++ % kPool;
      const auto t1 = Clock::now();
      sim::SessionResult res;
      if (trace) {
        res = stepped(specs[k], st);
      } else {
        sim::Session s(specs[k]);
        res = s.run();
      }
      const double dt = seconds_since(t1);
      (trace ? traced : plain).add(1.0, dt, dt * 1e3);
      r.attempted += 1;
      if (!session_ok(res)) r.failed += 1;
      r.check(same_phases(res, reference[k]), "scenario result differs from its first run");
    } while (seconds_since(start) < seconds);
  };

  const double setup_s = run_segments(opt, setup, work);
  const SimValues sim = pool_sim(specs, reference);
  SimValues golden = sim;
  if (opt.seed != kGoldenSeed) {
    const std::vector<sim::ScenarioSpec> pool = make_pool(kGoldenSeed);
    golden = pool_sim(pool, run_pool(r, pool));
  }
  check_golden(r, "scenario", golden);
  if (!opt.trace) {
    add_host_metrics(r, setup_s, plain, "scenarios_per_s", "scenario_ms", "ms", 1.0);
    r.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
    add_sim_metrics(r, sim);
    return r;
  }

  add_switch_rows(r, st);
  r.add("noc.xbar_flits_per_cycle", "count", static_cast<double>(st.xbar_flits) / st.cycles,
        traced.ops);
  r.add("noc.ns_per_xbar_flit", "ns", st.ticking / st.xbar_flits * 1e9, traced.ops);
  add_mapping_layers(r, {specs.front().config},
                     {mapping::kAllApps.begin(), mapping::kAllApps.end()});

  r.add("bench.recon_frac", "frac",
        add_reconciliation(r,
                           {{"era switches", st.era_switch}, {"initial build", st.initial_build},
                            {"ticking", st.ticking}},
                           "scenario wall", st.wall, "Session construction and result assembly"),
        traced.ops);
  add_trace_overhead(r, plain, traced);
  return r;
}

}  // namespace perfbench

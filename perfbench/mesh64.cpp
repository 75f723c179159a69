// mesh64_sharded: one 64x64 SMART fabric on the sharded cycle kernel (one
// column slice per thread), driven cycle by cycle with tick() + generate().
// No explore, serve or era switching: the kernel phases, the shard barrier
// and the serial traffic generator do all the work.
//
// Traffic is bounded-radius local-uniform: each node sends to 4 random
// destinations at most 12 hops away (Manhattan), 0.03 flits/node/cycle in
// total. The bound exists because SourceRoute packs a route into 64 bits and
// rejects routes longer than 31 hops, so uniform-random cannot run on a
// 64x64.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "perfbench.hpp"
#include "power/energy_model.hpp"
#include "smart/smart_network.hpp"

namespace perfbench {
namespace {

using namespace smartnoc;

constexpr int kSide = 64;
constexpr int kFlowsPerNode = 4;
constexpr int kRadius = 12;
constexpr double kFlitsPerNodeCycle = 0.03;
constexpr Cycle kPrefix = 1'000;  ///< checked prefix; also the warm-up
constexpr int kBatch = 20;        ///< cycles per timed sample

noc::FlowSet local_uniform_flows(const NocConfig& cfg) {
  const MeshDims dims = cfg.dims();
  const double pkts = kFlitsPerNodeCycle / cfg.flits_per_packet() / kFlowsPerNode;
  const double mbps = noc::mbps_for_packets_per_cycle(cfg, pkts);
  noc::FlowSet out;
  for (NodeId s = 0; s < dims.nodes(); ++s) {
    Xoshiro256 rng = make_stream(cfg.seed, static_cast<std::uint64_t>(s));
    const Coord c = dims.coord(s);
    const int lo_x = std::max(0, c.x - kRadius), hi_x = std::min(dims.width() - 1, c.x + kRadius);
    const int lo_y = std::max(0, c.y - kRadius), hi_y = std::min(dims.height() - 1, c.y + kRadius);
    for (int f = 0; f < kFlowsPerNode; ++f) {
      Coord d = c;
      while ((d.x == c.x && d.y == c.y) || std::abs(d.x - c.x) + std::abs(d.y - c.y) > kRadius) {
        d.x = lo_x + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_x - lo_x + 1)));
        d.y = lo_y + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi_y - lo_y + 1)));
      }
      const NodeId dst = dims.id(d);
      out.add(s, dst, mbps, noc::xy_path(dims, s, dst));
    }
  }
  return out;
}

NocConfig mesh_config(std::uint64_t seed, int shards) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = kSide;
  cfg.height = kSide;
  cfg.shard_threads = shards;
  cfg.seed = seed;
  cfg.fit_derived();
  cfg.validate();
  return cfg;
}

struct Mesh64 {
  NocConfig cfg;
  smart::SmartBuild build;
  std::unique_ptr<noc::TrafficEngine> traffic;
  double preset_s = 0.0;  ///< make_smart_network
};

std::unique_ptr<Mesh64> make_fabric(const NocConfig& cfg, const noc::FlowSet& flows) {
  auto f = std::make_unique<Mesh64>();
  f->cfg = cfg;
  const auto t0 = Clock::now();
  f->build = smart::make_smart_network(cfg, flows);
  f->preset_s = seconds_since(t0);
  f->traffic = std::make_unique<noc::TrafficEngine>(cfg, f->build.net->flows(), cfg.seed);
  return f;
}

/// What the first kPrefix cycles must produce at any shard count.
struct Digest {
  std::uint64_t packets = 0, generated = 0;
  double latency = 0.0;
  noc::ActivityCounters activity;
  friend bool operator==(const Digest& a, const Digest& b) {
    return a.packets == b.packets && a.generated == b.generated && a.latency == b.latency &&
           same_activity(a.activity, b.activity);
  }
};

Digest run_prefix(Mesh64& f) {
  noc::MeshNetwork& net = *f.build.net;
  for (Cycle c = 0; c < kPrefix; ++c) {
    net.tick();
    f.traffic->generate(net);
  }
  return Digest{net.stats().total_packets(), f.traffic->generated(),
                net.stats().avg_network_latency(), net.stats().activity()};
}

SimValues prefix_sim(const NocConfig& cfg, const Digest& d) {
  const power::PowerBreakdown pw =
      power::compute_power(cfg, d.activity, kPrefix, power::EnergyParams::for_config(cfg));
  return SimValues{d.latency, pw.total() * 1e3, d.packets, 1};
}

struct ShardSums {
  double barrier_s = 0.0;
  std::uint64_t boundary = 0;
};

ShardSums shard_sums(const noc::MeshNetwork& net) {
  ShardSums s;
  for (const auto& t : net.shard_telemetry()) {
    s.barrier_s += t.barrier_wait_seconds;
    s.boundary += t.boundary_flits;
  }
  return s;
}

}  // namespace

Result run_mesh64_sharded(const Options& opt) {
  Result r;
  const int shards = opt.threads;
  const std::uint64_t seed = mix_seed(opt.seed, 64);
  Timed plain, traced;
  noc::FlowSet flows;
  std::unique_ptr<Mesh64> fab;
  std::vector<Digest> prefixes;
  double tick_s = 0.0, gen_s = 0.0, traced_wall = 0.0, barrier_s = 0.0;
  double preset_ms = 0.0, rss_mb = 0.0;
  std::uint64_t boundary = 0, xbar = 0;

  // Set-up: generate the flow set, compute SMART presets, build the network.
  const auto setup = [&] {
    fab.reset();  // one 64x64 in memory at a time
    const NocConfig cfg = mesh_config(seed, shards);
    flows = local_uniform_flows(cfg);
    fab = make_fabric(cfg, flows);
    preset_ms = fab->preset_s * 1e3;
    r.check(fab->build.net->shard_count() == shards, "fabric did not shard as configured");
    // The untimed prefix is the warm-up; every set-up must reproduce it.
    prefixes.push_back(run_prefix(*fab));
    r.check(prefixes.back() == prefixes.front(), "64x64 prefix differs between set-ups");
    // Later set-ups rebuild on a fragmented heap; peak memory is taken
    // after the first, with the network loaded.
    if (prefixes.size() == 1) rss_mb = peak_rss_mb();
  };

  const auto work = [&](bool trace, double seconds) {
    noc::MeshNetwork& net = *fab->build.net;
    const ShardSums before = shard_sums(net);
    const std::uint64_t xbar0 = net.stats().activity().xbar_flit_traversals;
    const auto start = Clock::now();
    do {
      const auto b0 = Clock::now();
      for (int c = 0; c < kBatch; ++c) {
        if (trace) {
          const auto a = Clock::now();
          net.tick();
          const auto b = Clock::now();
          fab->traffic->generate(net);
          tick_s += std::chrono::duration<double>(b - a).count();
          gen_s += seconds_since(b);
        } else {
          net.tick();
          fab->traffic->generate(net);
        }
      }
      const double dt = seconds_since(b0);
      (trace ? traced : plain).add(kBatch, dt, dt / kBatch * 1e3);
      r.attempted += 1;
    } while (seconds_since(start) < seconds);
    r.check(net.packet_pool().live() < 100'000, "64x64 backlog grew without bound");
    if (!trace) return;
    traced_wall += seconds_since(start);
    const ShardSums after = shard_sums(net);
    barrier_s += after.barrier_s - before.barrier_s;
    boundary += after.boundary - before.boundary;
    xbar += net.stats().activity().xbar_flit_traversals - xbar0;
  };

  const double setup_s = run_segments(opt, setup, work);
  const NocConfig cfg = fab->cfg;
  fab.reset();
  {
    // Reference: the same prefix on one shard.
    std::unique_ptr<Mesh64> one = make_fabric(mesh_config(seed, 1), flows);
    r.check(one->build.net->shard_count() == 1, "reference fabric is sharded");
    r.check(run_prefix(*one) == prefixes.front(), "4-shard prefix differs from the 1-shard run");
  }
  const SimValues sim = prefix_sim(cfg, prefixes.front());
  SimValues golden = sim;
  if (opt.seed != kGoldenSeed) {
    const NocConfig gcfg = mesh_config(mix_seed(kGoldenSeed, 64), shards);
    std::unique_ptr<Mesh64> g = make_fabric(gcfg, local_uniform_flows(gcfg));
    golden = prefix_sim(gcfg, run_prefix(*g));
  }
  check_golden(r, "mesh64", golden);

  if (!opt.trace) {
    add_host_metrics(r, setup_s, plain, "sim_cycles_per_s", "cycle_us", "us", 1e3);
    r.add("peak_rss_mb", "MB", rss_mb, 1);
    add_sim_metrics(r, sim);
    return r;
  }

  const double cycles = static_cast<double>(traced.ops) * kBatch;
  r.add("noc.tick_us", "us", tick_s / cycles * 1e6, traced.ops);
  r.add("noc.generate_us", "us", gen_s / cycles * 1e6, traced.ops);
  r.add("noc.barrier_wait_frac", "frac", barrier_s / (shards * traced_wall), traced.ops);
  r.add("noc.boundary_flits_per_cycle", "count", static_cast<double>(boundary) / cycles,
        traced.ops);
  r.add("noc.xbar_flits_per_cycle", "count", static_cast<double>(xbar) / cycles, traced.ops);
  r.add("noc.ns_per_xbar_flit", "ns", tick_s / static_cast<double>(xbar) * 1e9, traced.ops);
  r.add("smart.preset_ms", "ms", preset_ms, 1);
  r.add("bench.recon_frac", "frac",
        add_reconciliation(r, {{"tick", tick_s}, {"generate", gen_s}}, "traced wall",
                           traced_wall, "clock reads and the batch loop"),
        traced.ops);
  add_trace_overhead(r, plain, traced);
  return r;
}

}  // namespace perfbench

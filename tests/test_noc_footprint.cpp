// Network memory footprint: a NIC holds state for its own flows only, so a
// mesh costs O(nodes + flows). Pinned on the big local-uniform fabrics the
// sharded kernel exists for (4 flows per node, destinations within 12 hops):
// the 64x64 build must fit a fixed heap budget, and a 128x128 must build
// and run.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdlib>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::noc {
namespace {

constexpr int kFlowsPerNode = 4;
constexpr int kRadius = 12;

/// Bytes the allocator has handed out (heap arena plus mmapped blocks).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

NocConfig big_config(int side) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = side;
  cfg.height = side;
  cfg.fit_derived();
  cfg.validate();
  return cfg;
}

/// kFlowsPerNode flows per node to seeded random destinations at most
/// kRadius hops away (a 64-bit source route holds at most 31 hops).
FlowSet local_uniform_flows(const NocConfig& cfg) {
  const MeshDims dims = cfg.dims();
  const double mbps =
      mbps_for_packets_per_cycle(cfg, 0.03 / cfg.flits_per_packet() / kFlowsPerNode);
  FlowSet out;
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
      out.add(s, dst, mbps, xy_path(dims, s, dst));
    }
  }
  return out;
}

TEST(Footprint, BigMeshesCostNodesPlusFlows) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  {
    // Flow generation, presets and the network build, all counted.
    const std::size_t before = heap_in_use();
    const NocConfig cfg = big_config(64);
    smart::SmartBuild b = smart::make_smart_network(cfg, local_uniform_flows(cfg));
    ASSERT_EQ(b.net->flows().size(), 64u * 64u * kFlowsPerNode);
    const std::size_t grown = heap_in_use() - before;
    ASSERT_LT(grown, 48 * kMiB) << "64x64 SMART build grew the heap by " << grown / kMiB
                                << " MiB (budget 48)";
  }
  {
    const NocConfig cfg = big_config(128);
    smart::SmartBuild b = smart::make_smart_network(cfg, local_uniform_flows(cfg));
    MeshNetwork& net = *b.net;
    TrafficEngine traffic(cfg, net.flows(), cfg.seed);
    for (int c = 0; c < 100; ++c) {
      net.tick();
      traffic.generate(net);
    }
    EXPECT_EQ(net.now(), 100u);
    EXPECT_GT(traffic.generated(), 0u);
    EXPECT_GT(net.stats().total_packets(), 0u);
  }
}

}  // namespace
}  // namespace smartnoc::noc

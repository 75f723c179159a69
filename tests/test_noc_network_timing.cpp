// Zero-load timing pins - the cycle-level contract of the whole
// reproduction:
//
//   Baseline mesh:  1 (inject link) + 4 per hop (3 router + 1 link) + 3
//                   (dest router) + 1 (eject link) => 9 cycles for adjacent
//                   cores, +4 per extra hop.
//   SMART:          1 cycle NIC-to-NIC with no stops; +3 per stop;
//                   Fig. 7's blue flow hits routers 9/10 at cycles 1/4 and
//                   NIC3 at 7.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "noc/network.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

using noc::FlowSet;
using noc::xy_path;
using smartnoc::testing::single_packet_latency;
using smartnoc::testing::test_config;

TEST(MeshTiming, OneHopIsNineCycles) {
  const NocConfig cfg = test_config();
  auto net = noc::make_baseline_mesh(cfg, smartnoc::testing::one_flow(cfg, 5, 6));
  EXPECT_DOUBLE_EQ(single_packet_latency(*net, 0), 9.0);
}

class MeshHopLatency : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

TEST_P(MeshHopLatency, FourCyclesPerHopPlusFive) {
  const auto [src, dst] = GetParam();
  const NocConfig cfg = test_config();
  auto net = noc::make_baseline_mesh(cfg, smartnoc::testing::one_flow(cfg, src, dst));
  const int hops = cfg.dims().hop_distance(src, dst);
  // 1 inject + 4*(hops-1) inter-router + 3 + 1 per final router/eject + 3
  // at source router: total = 4*hops + 5.
  EXPECT_DOUBLE_EQ(single_packet_latency(*net, 0), 4.0 * hops + 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MeshHopLatency,
    ::testing::Values(std::pair{0, 1}, std::pair{0, 2}, std::pair{0, 3}, std::pair{0, 15},
                      std::pair{12, 3}, std::pair{5, 10}, std::pair{15, 0}),
    [](const ::testing::TestParamInfo<std::pair<NodeId, NodeId>>& pinfo) {
      return std::string("n").append(std::to_string(pinfo.param.first)) + "_to_n" +
             std::to_string(pinfo.param.second);
    });

TEST(SmartTiming, LoneFlowIsSingleCycleAcrossTheChip) {
  // The headline: source NIC to destination NIC in ONE cycle, even for the
  // 6-hop corner-to-corner route (within HPC_max = 8).
  const NocConfig cfg = test_config();
  for (auto [src, dst] : {std::pair<NodeId, NodeId>{0, 15}, {5, 6}, {12, 3}, {0, 3}}) {
    auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, src, dst));
    EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 1.0)
        << src << "->" << dst;
    EXPECT_TRUE(smart.presets.stops_per_flow.at(0).empty());
  }
}

TEST(SmartTiming, PaperFigure7BlueFlow) {
  // Blue flow NIC8 -> 9 -> 10 -> 11 -> 7 -> 3 -> NIC3 with a red flow
  // 13 -> 9 -> 10 (eject) sharing the 9->10 link: both stop at 9 (shared
  // East output) and at 10 (divergent outputs on the shared West input).
  // Paper annotations: blue reaches 9 at cycle 1, 10 at 4, NIC3 at 7.
  NocConfig cfg = test_config();
  cfg.routing = RoutingPolicy::WestFirst;
  FlowSet fs;
  noc::RoutePath blue;
  blue.src = 8;
  blue.dst = 3;
  blue.links = {Dir::East, Dir::East, Dir::East, Dir::South, Dir::South};
  fs.add(8, 3, 100.0, blue);
  noc::RoutePath red;
  red.src = 13;
  red.dst = 10;
  red.links = {Dir::South, Dir::East};
  fs.add(13, 10, 100.0, red);

  auto smart = smart::make_smart_network(cfg, std::move(fs));
  // Structural stops match the paper's description.
  EXPECT_EQ(smart.presets.stops_per_flow.at(0), (std::vector<NodeId>{9, 10}));
  EXPECT_EQ(smart.presets.stops_per_flow.at(1), (std::vector<NodeId>{9, 10}));
  // Two stops => 1 + 3 + 3 = 7 cycles, exactly the paper's annotation.
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 7.0);
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 1), 7.0);
}

TEST(SmartTiming, OneStopCostsPlusThree) {
  // Two flows from different sources converging on one output port: both
  // stop once at the convergence router -> 4 cycles.
  NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(4, 7, 100.0, xy_path(cfg.dims(), 4, 7));  // E,E,E through 5, 6
  fs.add(1, 7, 100.0, xy_path(cfg.dims(), 1, 7));  // E,E,N? no: (1,0)->(3,1): E,E,N
  auto smart = smart::make_smart_network(cfg, std::move(fs));
  // Flow 0 goes 4->5->6->7 (in W, out E at 5 and 6; eject at 7).
  // Flow 1 goes 1->2->3->7: no shared links with flow 0 except... none.
  // Both eject at 7's Core output: shared output from different inputs
  // (W for flow 0, S for flow 1) -> both stop at router 7.
  EXPECT_EQ(smart.presets.stops_per_flow.at(0), (std::vector<NodeId>{7}));
  EXPECT_EQ(smart.presets.stops_per_flow.at(1), (std::vector<NodeId>{7}));
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 4.0);
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 1), 4.0);
}

TEST(SmartTiming, DivergentSourceStopsAtSourceRouter) {
  // Two flows from one NIC to different destinations: the C input of the
  // source router carries divergent flows, so both stop there (+3), then
  // bypass to their destinations: 4 cycles each.
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(5, 7, 100.0, xy_path(cfg.dims(), 5, 7));
  fs.add(5, 13, 100.0, xy_path(cfg.dims(), 5, 13));
  auto smart = smart::make_smart_network(cfg, std::move(fs));
  EXPECT_EQ(smart.presets.stops_per_flow.at(0), (std::vector<NodeId>{5}));
  EXPECT_EQ(smart.presets.stops_per_flow.at(1), (std::vector<NodeId>{5}));
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 4.0);
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 1), 4.0);
}

TEST(SmartTiming, HpcMaxInsertsIntermediateStops) {
  // Override the single-cycle reach to 2 mm: the 6-link route 0->15 must
  // stop every 2 hops: stops at hop 2 and 4 (and none at the end).
  NocConfig cfg = test_config();
  cfg.hpc_max_override = 2;
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 3));
  // Route 0->1->2->3 (3 links): with reach 2, a stop at router 2.
  EXPECT_EQ(smart.presets.stops_per_flow.at(0), (std::vector<NodeId>{2}));
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 4.0);
}

TEST(SmartTiming, HpcOneDegeneratesToPerHopBypassTiming) {
  // HPC_max = 1 stops at every router except... every inter-router link is
  // a fresh segment, so flits stop at routers 1 and 2 but still skip the
  // source router and eject combinationally: latency 1 + 3*2 = 7 for 3 links.
  NocConfig cfg = test_config();
  cfg.hpc_max_override = 1;
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 3));
  EXPECT_EQ(smart.presets.stops_per_flow.at(0), (std::vector<NodeId>{1, 2}));
  EXPECT_DOUBLE_EQ(single_packet_latency(*smart.net, 0), 7.0);
}

TEST(SmartTiming, SmartNeverSlowerThanMesh) {
  // Same flow set on both designs: SMART zero-load latency must win.
  const NocConfig cfg = test_config();
  for (auto [src, dst] : {std::pair<NodeId, NodeId>{0, 15}, {3, 12}, {5, 6}}) {
    auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, src, dst));
    auto mesh = noc::make_baseline_mesh(cfg, smartnoc::testing::one_flow(cfg, src, dst));
    EXPECT_LT(single_packet_latency(*smart.net, 0), single_packet_latency(*mesh, 0));
  }
}

TEST(SmartTiming, WorstCaseEqualsMeshRouterCount) {
  // The paper: "In the worst case, if all flows contend, SMART and Mesh
  // will have the same network latency" - same number of stops; SMART is
  // still ahead by the link cycles. Force per-hop stops via HPC=1 and
  // compare structure: stops equal Mesh's intermediate routers.
  NocConfig cfg = test_config();
  cfg.hpc_max_override = 1;
  auto smart = smart::make_smart_network(cfg, smartnoc::testing::one_flow(cfg, 0, 15));
  EXPECT_EQ(smart.presets.stops_per_flow.at(0).size(), 5u);  // routers 1..5 on the way
}

}  // namespace
}  // namespace smartnoc

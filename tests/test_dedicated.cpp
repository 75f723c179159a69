// The Dedicated ideal baseline: 1-cycle uncontended delivery, sink-router
// serialization identical to SMART's sink stops, conservation under load.
#include <gtest/gtest.h>

#include "dedicated/dedicated_network.hpp"
#include "explore/explore.hpp"
#include "helpers.hpp"
#include "noc/traffic.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc::dedicated {
namespace {

using noc::FlowSet;
using noc::xy_path;
using smartnoc::testing::single_packet_latency;
using smartnoc::testing::test_config;

TEST(Dedicated, LoneFlowIsOneCycle) {
  const NocConfig cfg = test_config();
  for (auto [s, d] : {std::pair<NodeId, NodeId>{0, 15}, {5, 6}, {12, 3}}) {
    DedicatedNetwork net(cfg, smartnoc::testing::one_flow(cfg, s, d));
    EXPECT_FALSE(net.has_sink_router(d));
    EXPECT_DOUBLE_EQ(single_packet_latency(net, 0), 1.0) << s << "->" << d;
  }
}

TEST(Dedicated, SharedSinkCostsPlusThree) {
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(0, 7, 100.0, xy_path(cfg.dims(), 0, 7));
  fs.add(12, 7, 100.0, xy_path(cfg.dims(), 12, 7));
  DedicatedNetwork net(cfg, std::move(fs));
  EXPECT_TRUE(net.has_sink_router(7));
  EXPECT_DOUBLE_EQ(single_packet_latency(net, 0), 4.0);
  EXPECT_DOUBLE_EQ(single_packet_latency(net, 1), 4.0);
}

TEST(Dedicated, SimultaneousArrivalsSerialize) {
  // Two packets offered the same cycle to a shared sink: the second head
  // waits for the first packet's 8 flits to eject.
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(0, 7, 100.0, xy_path(cfg.dims(), 0, 7));
  fs.add(12, 7, 100.0, xy_path(cfg.dims(), 12, 7));
  DedicatedNetwork net(cfg, std::move(fs));
  net.offer_packet(0, net.now());
  net.offer_packet(1, net.now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(net));
  const auto& pf = net.stats().per_flow();
  const double l0 = pf.at(0).avg_network_latency();
  const double l1 = pf.at(1).avg_network_latency();
  const double first = std::min(l0, l1), second = std::max(l0, l1);
  EXPECT_DOUBLE_EQ(first, 4.0);
  // The loser's head leaves the sink only after the winner's tail: the
  // winner occupies the ejection port for 8 consecutive cycles.
  EXPECT_DOUBLE_EQ(second, 4.0 + cfg.flits_per_packet());
}

TEST(Dedicated, LinkLengthIsManhattan) {
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(0, 15, 100.0, xy_path(cfg.dims(), 0, 15));
  fs.add(5, 6, 50.0, xy_path(cfg.dims(), 5, 6));
  DedicatedNetwork net(cfg, std::move(fs));
  EXPECT_EQ(net.link_mm(0), 6);
  EXPECT_EQ(net.link_mm(1), 1);
}

TEST(Dedicated, ParallelInjectionHasNoSourceContention) {
  // Two flows from ONE source to two uncontended destinations: Dedicated
  // injects them in parallel ("no bandwidth limitation"), so both see
  // 1-cycle latency even when offered in the same cycle.
  const NocConfig cfg = test_config();
  FlowSet fs;
  fs.add(5, 6, 100.0, xy_path(cfg.dims(), 5, 6));
  fs.add(5, 9, 100.0, xy_path(cfg.dims(), 5, 9));
  DedicatedNetwork net(cfg, std::move(fs));
  net.offer_packet(0, net.now());
  net.offer_packet(1, net.now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(net));
  EXPECT_DOUBLE_EQ(net.stats().per_flow().at(0).avg_network_latency(), 1.0);
  EXPECT_DOUBLE_EQ(net.stats().per_flow().at(1).avg_network_latency(), 1.0);
}

TEST(Dedicated, ConservationUnderLoad) {
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 8000;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Hotspot, 0.02,
                                         noc::TurnModel::XY);
  DedicatedNetwork net(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net.flows(), cfg.seed);
  const auto res = sim::run_simulation(net, traffic, cfg);
  ASSERT_TRUE(res.drained);
  EXPECT_GT(net.stats().total_packets(), 0u);
}

TEST(Dedicated, NeverSlowerThanSmart) {
  // Dedicated is the lower bound the paper compares SMART against: on the
  // same flows and seed, its average latency must be <= SMART's.
  NocConfig cfg = test_config();
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 10000;
  auto mk = [&] {
    return noc::make_synthetic_flows(cfg, noc::SyntheticPattern::Hotspot, 0.02,
                                     noc::TurnModel::XY);
  };
  DedicatedNetwork ded(cfg, mk());
  auto smart = smart::make_smart_network(cfg, mk());
  noc::TrafficEngine td(cfg, ded.flows(), cfg.seed);
  noc::TrafficEngine ts(cfg, smart.net->flows(), cfg.seed);
  ASSERT_TRUE(sim::run_simulation(ded, td, cfg).drained);
  ASSERT_TRUE(sim::run_simulation(*smart.net, ts, cfg).drained);
  EXPECT_LE(ded.stats().avg_network_latency(), smart.net->stats().avg_network_latency() + 1e-9);
}

TEST(Dedicated, OnlyLinkEnergyForUncontendedTraffic) {
  // A lone flow never touches a buffer or allocator: activity must show
  // link mm and nothing in the router categories.
  const NocConfig cfg = test_config();
  DedicatedNetwork net(cfg, smartnoc::testing::one_flow(cfg, 0, 15));
  net.offer_packet(0, net.now());
  ASSERT_TRUE(smartnoc::testing::run_to_drain(net));
  const auto& act = net.stats().activity();
  EXPECT_GT(act.link_flit_mm, 0u);
  EXPECT_EQ(act.buffer_writes, 0u);
  EXPECT_EQ(act.alloc_grants, 0u);
  EXPECT_EQ(act.xbar_flit_traversals, 0u);
}

TEST(Dedicated, SinkRouterWiderThanTheArbiterIsAConfigError) {
  // 8x8 uniform-random: every node sinks 63 flows, and 63 flows x 2 VCs =
  // 126 sink-router inputs exceed the arbiter's 80. The build must refuse
  // with an error that names the limit instead of aborting the process.
  NocConfig cfg = test_config();
  cfg.width = 8;
  cfg.height = 8;
  cfg.fit_derived();
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.05,
                                         noc::TurnModel::XY);
  try {
    DedicatedNetwork net(cfg, std::move(flows));
    FAIL() << "an over-wide sink router must not build";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("126 sink-router inputs, over the arbiter limit of 80"),
              std::string::npos)
        << e.what();
  }

  // In a sweep the point becomes one failed row; the rest completes.
  explore::SweepSpec spec;
  spec.meshes = {MeshDims(8, 8), MeshDims(4, 4)};
  spec.injections = {0.05};
  spec.designs = {Design::Dedicated};
  spec.workloads = {explore::Workload::synthetic(noc::SyntheticPattern::UniformRandom)};
  spec.warmup_cycles = 100;
  spec.measure_cycles = 500;
  const auto rows = explore::run_sweep(spec, 1).rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].ok);
  EXPECT_NE(rows[0].error.find("arbiter limit of 80"), std::string::npos) << rows[0].error;
  EXPECT_TRUE(rows[1].ok) << rows[1].error;
  EXPECT_GT(rows[1].packets, 0u);
}

}  // namespace
}  // namespace smartnoc::dedicated

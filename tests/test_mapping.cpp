// Task graphs and the modified NMAP mapping flow.
#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"
#include "mapping/nmap.hpp"

namespace smartnoc::mapping {
namespace {

using smartnoc::testing::test_config;

class EveryApp : public ::testing::TestWithParam<SocApp> {};

TEST_P(EveryApp, GraphIsWellFormed) {
  const TaskGraph g = make_app(GetParam());
  EXPECT_NO_THROW(g.validate());
  EXPECT_GE(g.num_tasks(), 7);
  EXPECT_LE(g.num_tasks(), 16) << "must fit the 4x4 mesh";
  EXPECT_GT(g.total_bandwidth(), 0.0);
}

TEST_P(EveryApp, MappingIsInjectiveAndComplete) {
  const NocConfig cfg = test_config();
  const TaskGraph g = make_app(GetParam());
  const Mapping m = nmap_map(g, cfg.dims());
  ASSERT_EQ(m.num_tasks(), g.num_tasks());
  std::set<NodeId> used;
  for (int t = 0; t < m.num_tasks(); ++t) {
    const NodeId c = m.core_of(t);
    EXPECT_TRUE(cfg.dims().contains(c));
    EXPECT_TRUE(used.insert(c).second) << "two tasks on core " << c;
  }
}

TEST_P(EveryApp, FlowsMatchEdgesAndAreMinimal) {
  const NocConfig cfg = test_config();
  const auto mapped = map_app(GetParam(), cfg);
  EXPECT_EQ(mapped.flows.size(), static_cast<int>(mapped.graph.edges().size()));
  for (const auto& f : mapped.flows) {
    EXPECT_EQ(f.path.hops(), cfg.dims().hop_distance(f.src, f.dst)) << f.path.str();
  }
}

TEST_P(EveryApp, MappingKeepsCommunicatingTasksClose) {
  // NMAP's whole point: the bandwidth-weighted mean distance must beat a
  // deliberately bad (reversed-id) placement.
  const NocConfig cfg = test_config();
  const TaskGraph g = make_app(GetParam());
  const Mapping m = nmap_map(g, cfg.dims());
  auto weighted = [&](auto core_of) {
    double sum = 0.0;
    for (const auto& e : g.edges()) {
      sum += e.mbps * cfg.dims().hop_distance(core_of(e.src), core_of(e.dst));
    }
    return sum;
  };
  const double nmap_cost = weighted([&](int t) { return m.core_of(t); });
  const double bad_cost =
      weighted([&](int t) { return static_cast<NodeId>(cfg.dims().nodes() - 1 - t); });
  // Tiny graphs (PIP) can tie a reversed placement; larger ones must win.
  if (g.num_tasks() >= 10) {
    EXPECT_LT(nmap_cost, bad_cost) << app_name(GetParam());
  } else {
    EXPECT_LE(nmap_cost, bad_cost) << app_name(GetParam());
  }
}

TEST_P(EveryApp, MappingIsDeterministic) {
  const NocConfig cfg = test_config();
  const TaskGraph g = make_app(GetParam());
  EXPECT_EQ(nmap_map(g, cfg.dims()).task_to_core, nmap_map(g, cfg.dims()).task_to_core);
}

INSTANTIATE_TEST_SUITE_P(Apps, EveryApp, ::testing::ValuesIn(kAllApps),
                         [](const ::testing::TestParamInfo<SocApp>& pinfo) {
                           return app_name(pinfo.param);
                         });

TEST(Apps, MmsAppsCarryTheHundredFoldScale) {
  EXPECT_DOUBLE_EQ(recommended_scale(SocApp::MMS_DEC), 100.0);
  EXPECT_DOUBLE_EQ(recommended_scale(SocApp::MMS_ENC), 100.0);
  EXPECT_DOUBLE_EQ(recommended_scale(SocApp::MMS_MP3), 100.0);
  EXPECT_DOUBLE_EQ(recommended_scale(SocApp::VOPD), 1.0);
  const auto mapped = map_app(SocApp::MMS_MP3, NocConfig::paper_4x4());
  EXPECT_DOUBLE_EQ(mapped.cfg.bandwidth_scale, 100.0);
}

TEST(Apps, H264HasDominantSourceAndSink) {
  // The paper's explanation for the SMART/Dedicated gap on H264: "one core
  // acts as a sink for most flows, while another acts as the source".
  const TaskGraph g = make_app(SocApp::H264);
  int max_out = 0, max_in = 0;
  for (int t = 0; t < g.num_tasks(); ++t) {
    max_out = std::max(max_out, g.out_degree(t));
    max_in = std::max(max_in, g.in_degree(t));
  }
  EXPECT_GE(max_out, 4) << "H264 needs a dominant source hub";
  EXPECT_GE(max_in, 4) << "H264 needs a dominant sink hub";
}

TEST(Apps, WlanIsPipelineShaped) {
  // WLAN must be fan-out-free enough that SMART matches Dedicated.
  const TaskGraph g = make_app(SocApp::WLAN);
  int multi_in = 0;
  for (int t = 0; t < g.num_tasks(); ++t) {
    if (g.in_degree(t) > 1) multi_in += 1;
  }
  EXPECT_LE(multi_in, 2);
}

TEST(Nmap, SeedGoesToCenter) {
  const NocConfig cfg = test_config();
  const TaskGraph g = make_app(SocApp::VOPD);
  const Mapping m = nmap_map(g, cfg.dims());
  // Highest-demand task must sit on a degree-4 (interior) core.
  int seed = 0;
  for (int t = 1; t < g.num_tasks(); ++t) {
    if (g.comm_demand(t) > g.comm_demand(seed)) seed = t;
  }
  EXPECT_EQ(cfg.dims().degree(m.core_of(seed)), 4);
}

TEST(Nmap, ThrowsWhenTasksExceedCores) {
  TaskGraph g("too-big");
  for (int i = 0; i < 5; ++i) g.add_task(std::string("t").append(std::to_string(i)));
  g.add_comm(0, 1, 10);
  EXPECT_THROW(nmap_map(g, MeshDims(2, 2)), ConfigError);
}

TEST(Nmap, RouteSelectorAvoidsSharingWhenPossible) {
  // Two eastbound flows between distinct rows must not share links under
  // west-first (which has path diversity for eastbound pairs).
  const MeshDims dims(4, 4);
  TaskGraph g("pair");
  const int a = g.add_task("a");
  const int b = g.add_task("b");
  const int c = g.add_task("c");
  const int d = g.add_task("d");
  g.add_comm(a, b, 100);
  g.add_comm(c, d, 100);
  Mapping m;
  m.task_to_core = {0, 10, 4, 14};  // 0->10 and 4->14 could collide on row 1
  const auto flows = route_flows(g, m, dims, noc::TurnModel::WestFirst);
  // Collect directed links of both paths; they must be disjoint.
  std::set<std::pair<NodeId, int>> links;
  int shared = 0;
  for (const auto& f : flows) {
    NodeId cur = f.src;
    for (Dir dd : f.path.links) {
      if (!links.insert({cur, dir_index(dd)}).second) shared += 1;
      cur = dims.neighbor(cur, dd);
    }
  }
  EXPECT_EQ(shared, 0);
}

TEST(TaskGraphTest, RejectsBadEdges) {
  TaskGraph g("bad");
  g.add_task("a");
  g.add_task("b");
  EXPECT_THROW(g.add_comm(0, 0, 10), ConfigError);
  EXPECT_THROW(g.add_comm(0, 5, 10), ConfigError);
  EXPECT_THROW(g.add_comm(0, 1, -1), ConfigError);
}

TEST(TaskGraphTest, DemandSumsInAndOut) {
  TaskGraph g("d");
  const int a = g.add_task("a");
  const int b = g.add_task("b");
  const int c = g.add_task("c");
  g.add_comm(a, b, 10);
  g.add_comm(c, b, 20);
  g.add_comm(b, a, 5);
  EXPECT_DOUBLE_EQ(g.comm_demand(b), 35.0);
  EXPECT_DOUBLE_EQ(g.comm_demand(a), 15.0);
}

}  // namespace
}  // namespace smartnoc::mapping

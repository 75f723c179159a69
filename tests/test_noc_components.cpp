// Component-level behaviour: VC buffers, the per-flow packet FIFO,
// round-robin fairness, traffic engine rates, flow construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/fifo.hpp"
#include "noc/flow.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"

namespace smartnoc::noc {
namespace {

TEST(VcBufferTest, FifoOrder) {
  VcBuffer b(4);
  for (int i = 0; i < 4; ++i) {
    FlitRef f;
    f.seq = static_cast<std::uint8_t>(i);
    b.push(f);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(b.pop().seq, i);
  }
  EXPECT_TRUE(b.empty());
}

TEST(VcBufferTest, RequestLifecycle) {
  VcBuffer b(4);
  EXPECT_FALSE(b.has_request());
  b.set_request(Dir::East);
  EXPECT_TRUE(b.has_request());
  EXPECT_EQ(b.requested_out(), Dir::East);
  b.clear_request();
  EXPECT_FALSE(b.has_request());
}

TEST(RingFifoTest, OwnsNoBlockUntilFirstPush) {
  RingFifo<std::uint64_t> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);
  q.push_front(7);
  EXPECT_GT(q.capacity(), 0u);
  EXPECT_EQ(q.pop_front(), 7u);
  q.clear();
  EXPECT_GT(q.capacity(), 0u) << "clear() keeps the block for the next burst";
}

TEST(RingFifoTest, MatchesDequeUnderSeededMixedOps) {
  // 10k seeded push_back / push_front / pop_front / clear ops against a
  // std::deque reference. Pushes outweigh pops, so the ring grows through
  // several doublings, and both ends move, so it wraps in both directions.
  RingFifo<std::uint64_t> q;
  std::deque<std::uint64_t> ref;
  Xoshiro256 rng = make_stream(0xF1F0, 0);
  std::size_t max_size = 0, wraps = 0;
  for (int op = 0; op < 10'000; ++op) {
    const std::uint64_t r = rng.below(1000);
    const std::uint64_t v = rng.next();
    if (r < 430) {
      q.push_back(v);
      ref.push_back(v);
    } else if (r < 650) {
      q.push_front(v);
      ref.push_front(v);
    } else if (r < 995) {
      if (ref.empty()) continue;
      ASSERT_EQ(q.pop_front(), ref.front()) << "op " << op;
      ref.pop_front();
    } else {
      const std::size_t cap = q.capacity();
      q.clear();
      ref.clear();
      ASSERT_EQ(q.capacity(), cap);
    }
    ASSERT_EQ(q.size(), ref.size()) << "op " << op;
    ASSERT_EQ(q.empty(), ref.empty());
    const std::size_t cap = q.capacity();
    ASSERT_GE(cap, q.size());
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity " << cap << " is not 0 or a power of two";
    if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front());
    }
    std::size_t i = 0;
    for (const std::uint64_t x : q) {
      ASSERT_EQ(x, ref[i]) << "op " << op << " index " << i;
      ++i;
    }
    ASSERT_EQ(i, ref.size());
    for (std::size_t k = 0; k < ref.size(); k += 7) ASSERT_EQ(q[k], ref[k]);
    max_size = std::max(max_size, ref.size());
    // The front sits past the back in storage: the live range wraps.
    if (!ref.empty() && &q[ref.size() - 1] < &q[0]) wraps += 1;
  }
  EXPECT_GE(max_size, 64u) << "the op mix must drive several growths";
  EXPECT_GT(wraps, 100u) << "the op mix must exercise wrap-around";
}

TEST(ArbiterTest, GrantsOnlyRequesters) {
  RoundRobinArbiter arb(4);
  std::vector<bool> req = {false, true, false, true};
  for (int i = 0; i < 8; ++i) {
    const auto g = arb.arbitrate(req);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(req[static_cast<std::size_t>(*g)]);
  }
}

TEST(ArbiterTest, NoRequestsNoGrant) {
  RoundRobinArbiter arb(3);
  EXPECT_FALSE(arb.arbitrate({false, false, false}).has_value());
}

TEST(ArbiterTest, RoundRobinIsFairUnderSaturation) {
  RoundRobinArbiter arb(5);
  std::vector<bool> req(5, true);
  std::vector<int> grants(5, 0);
  for (int i = 0; i < 1000; ++i) {
    grants[static_cast<std::size_t>(*arb.arbitrate(req))] += 1;
  }
  for (int g : grants) EXPECT_EQ(g, 200);
}

TEST(ArbiterTest, NoStarvationWithAsymmetricLoad) {
  // Requester 0 always requests; requester 3 requests every cycle too;
  // the pointer guarantees alternation.
  RoundRobinArbiter arb(4);
  std::vector<bool> req = {true, false, false, true};
  int zero = 0, three = 0;
  for (int i = 0; i < 100; ++i) {
    const int g = *arb.arbitrate(req);
    (g == 0 ? zero : three) += 1;
  }
  EXPECT_EQ(zero, 50);
  EXPECT_EQ(three, 50);
}

TEST(FlowTest, PacketsPerCycleConversion) {
  NocConfig cfg;  // 2 GHz, 256-bit packets = 32 B
  FlowSet fs;
  fs.add(0, 1, 640.0, xy_path(cfg.dims(), 0, 1));  // 640 MB/s
  // 640e6 B/s / 32 B = 2e7 pkt/s; / 2e9 cycles/s = 0.01 pkt/cycle.
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.01, 1e-12);
}

TEST(FlowTest, BandwidthScaleMultiplies) {
  NocConfig cfg;
  cfg.bandwidth_scale = 100.0;  // the paper's MMS x100 scaling
  FlowSet fs;
  fs.add(0, 1, 6.4, xy_path(cfg.dims(), 0, 1));
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.01, 1e-12);
}

TEST(FlowTest, RejectsSelfFlow) {
  FlowSet fs;
  RoutePath p;
  p.src = 3;
  p.dst = 3;
  EXPECT_THROW(fs.add(3, 3, 10.0, p), ConfigError);
}

TEST(FlowTest, MbpsInversion) {
  NocConfig cfg;
  const double mbps = mbps_for_packets_per_cycle(cfg, 0.02);
  FlowSet fs;
  fs.add(0, 1, mbps, xy_path(cfg.dims(), 0, 1));
  EXPECT_NEAR(fs.at(0).packets_per_cycle(cfg), 0.02, 1e-12);
}

TEST(SyntheticTest, UniformRandomIsAllPairs) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, 0.1,
                                       TurnModel::XY);
  EXPECT_EQ(fs.size(), 16 * 15);
}

TEST(SyntheticTest, TransposeExcludesDiagonal) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::Transpose, 0.1, TurnModel::XY);
  EXPECT_EQ(fs.size(), 12);  // 16 nodes minus 4 on the diagonal
  for (const auto& f : fs) {
    const Coord c = cfg.dims().coord(f.src);
    EXPECT_EQ(f.dst, cfg.dims().id({c.y, c.x}));
  }
}

TEST(SyntheticTest, PerSourceRateSplitsAcrossFlows) {
  NocConfig cfg;
  const double rate = 0.08;  // flits/node/cycle -> 0.01 pkt/node/cycle
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::UniformRandom, rate,
                                       TurnModel::XY);
  double per_src0 = 0.0;
  for (const auto& f : fs) {
    if (f.src == 0) per_src0 += f.packets_per_cycle(cfg);
  }
  EXPECT_NEAR(per_src0, rate / cfg.flits_per_packet(), 1e-9);
}

TEST(SyntheticTest, HotspotTargetsCenter) {
  NocConfig cfg;
  const auto fs = make_synthetic_flows(cfg, SyntheticPattern::Hotspot, 0.1, TurnModel::XY);
  const NodeId hot = cfg.dims().id({2, 2});
  EXPECT_EQ(fs.size(), 15);
  for (const auto& f : fs) EXPECT_EQ(f.dst, hot);
}

TEST(SyntheticTest, RatesAboveOnePacketPerCycleRejected) {
  NocConfig cfg;
  FlowSet fs;
  fs.add(0, 1, mbps_for_packets_per_cycle(cfg, 1.5), xy_path(cfg.dims(), 0, 1));
  EXPECT_THROW(noc::TrafficEngine(cfg, fs, 1), ConfigError);
}

}  // namespace
}  // namespace smartnoc::noc

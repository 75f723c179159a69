// Router and NIC unit tests against a mock fabric: pipeline stage-by-stage
// behaviour, per-packet switch holds, input locking, arbitration fairness
// under sustained two-way contention, and credit discipline - without a
// whole network around them. Under the structure-of-arrays flit split the
// tests own the PacketPool a network would normally own: payloads are
// allocated up front and flits travel as FlitRefs.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "noc/nic.hpp"
#include "noc/packet_pool.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"

namespace smartnoc::noc {
namespace {

/// Records everything the component hands to the fabric.
class MockFabric final : public Fabric {
 public:
  struct Sent {
    NodeId router;
    Dir out;
    FlitRef flit;
    Cycle cycle;
  };
  struct CreditEvt {
    NodeId router;
    Dir in;
    VcId vc;
    Cycle cycle;
  };

  void deliver_from_router(NodeId router, Dir out, FlitRef flit, Cycle now) override {
    sent.push_back({router, out, flit, now});
  }
  void deliver_from_nic(NodeId nic, FlitRef flit, Cycle now) override {
    sent.push_back({nic, Dir::Core, flit, now});
  }
  void credit_from_router_input(NodeId router, Dir in, VcId vc, Cycle now) override {
    credits.push_back({router, in, vc, now});
  }
  void credit_from_nic(NodeId nic, VcId vc, Cycle now) override {
    credits.push_back({nic, Dir::Core, vc, now});
  }

  std::vector<Sent> sent;
  std::vector<CreditEvt> credits;
};

NocConfig cfg4() { return NocConfig::paper_4x4(); }

/// Allocates a packet payload in `pool` and returns a head flit of it.
/// The slot keeps its transmit reference for the test's lifetime, so the
/// router's route decode always resolves.
FlitRef make_head(PacketPool& pool, FlowId flow, VcId vc, const RoutePath& path,
                  std::uint8_t hop_index, FlitType type = FlitType::HeadTail) {
  const PacketSlot slot = pool.alloc();
  PacketPayload& pkt = pool.at(slot);
  pkt.flow = flow;
  pkt.id = static_cast<std::uint32_t>(100 + flow);
  pkt.src = path.src;
  pkt.dst = path.dst;
  pkt.route = SourceRoute::encode(path);
  FlitRef f;
  f.slot = slot;
  f.type = type;
  f.vc = vc;
  f.hop_index = hop_index;
  return f;
}

/// Runs the router's three phases for one cycle in network order.
void cycle(Router& r, Cycle now, ActivityCounters& act) {
  r.buffer_write(now, act);
  r.switch_traversal(now, act);
  r.switch_allocation(now, act);
}

TEST(RouterUnit, SingleFlitTakesExactlyThreeStages) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  PacketPool pool;
  Router r(5, cfg, &fab, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;

  // Head-tail flit arrives (latched end of cycle 10) at input West,
  // heading straight East (hop 1 of path 4 -> 5 -> 6).
  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  r.accept_flit(Dir::West, make_head(pool, 0, 0, path, 1), 10);

  cycle(r, 11, act);  // BW
  EXPECT_TRUE(fab.sent.empty());
  cycle(r, 12, act);  // SA
  EXPECT_TRUE(fab.sent.empty());
  cycle(r, 13, act);  // ST
  ASSERT_EQ(fab.sent.size(), 1u);
  EXPECT_EQ(fab.sent[0].cycle, 13u);
  EXPECT_EQ(fab.sent[0].out, Dir::East);
  // The freed VC's credit went back toward the feeder the same cycle.
  ASSERT_EQ(fab.credits.size(), 1u);
  EXPECT_EQ(fab.credits[0].in, Dir::West);
  EXPECT_EQ(fab.credits[0].vc, 0);
}

TEST(RouterUnit, PacketHoldsSwitchUntilTail) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  PacketPool pool;
  Router r(5, cfg, &fab, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  // 3-flit packet arriving back to back on VC 0.
  FlitRef head = make_head(pool, 0, 0, path, 1, FlitType::Head);
  FlitRef body = head;
  body.type = FlitType::Body;
  body.seq = 1;
  FlitRef tail = head;
  tail.type = FlitType::Tail;
  tail.seq = 2;
  // One flit per cycle on the physical link, interleaved with the
  // router's cycles; the rival single-flit packet on the other VC of the
  // same input follows the tail and must wait out the input lock.
  FlitRef rival = make_head(pool, 1, 1, path, 1);
  pool.at(rival.slot).id = 555;
  r.accept_flit(Dir::West, head, 10);
  cycle(r, 11, act);
  r.accept_flit(Dir::West, body, 11);
  cycle(r, 12, act);
  r.accept_flit(Dir::West, tail, 12);
  cycle(r, 13, act);
  r.accept_flit(Dir::West, rival, 13);
  for (Cycle t = 14; t <= 18; ++t) cycle(r, t, act);

  ASSERT_EQ(fab.sent.size(), 4u);
  // Flits of packet 100 leave in order at 13,14,15; the tail's ST releases
  // the lock before SA runs that same cycle, so the rival wins SA at 15
  // and traverses at 16.
  EXPECT_EQ(pool.at(fab.sent[0].flit.slot).id, 100u);
  EXPECT_EQ(fab.sent[1].flit.seq, 1);
  EXPECT_EQ(fab.sent[2].flit.seq, 2);
  EXPECT_EQ(fab.sent[2].cycle, 15u);
  EXPECT_EQ(pool.at(fab.sent[3].flit.slot).id, 555u);
  EXPECT_EQ(fab.sent[3].cycle, 16u);
  // Credits: one per packet, carrying the right VC ids.
  ASSERT_EQ(fab.credits.size(), 2u);
  EXPECT_EQ(fab.credits[0].vc, 0);
  EXPECT_EQ(fab.credits[1].vc, 1);
}

TEST(RouterUnit, OutputBlocksWhenNoDownstreamVc) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  PacketPool pool;
  Router r(5, cfg, &fab, &pool);
  r.enable_output(Dir::East, 1);  // a single downstream VC
  ActivityCounters act;
  const RoutePath path = xy_path(cfg.dims(), 4, 6);

  r.accept_flit(Dir::West, make_head(pool, 0, 0, path, 1), 10);
  for (Cycle t = 11; t <= 13; ++t) cycle(r, t, act);
  ASSERT_EQ(fab.sent.size(), 1u);  // first packet went out, consumed the VC

  r.accept_flit(Dir::West, make_head(pool, 1, 0, path, 1), 14);
  for (Cycle t = 15; t <= 19; ++t) cycle(r, t, act);
  EXPECT_EQ(fab.sent.size(), 1u) << "no credit returned: the packet must stall";

  // Credit comes back: the stalled packet proceeds (SA next cycle, ST the
  // one after).
  r.credit_arrived(Dir::East, 0);
  cycle(r, 20, act);  // SA grants
  cycle(r, 21, act);  // ST fires
  EXPECT_EQ(fab.sent.size(), 2u);
}

TEST(RouterUnit, TwoInputsShareOutputFairly) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  PacketPool pool;
  Router r(5, cfg, &fab, &pool);
  r.enable_output(Dir::East, cfg.vcs_per_port);
  ActivityCounters act;
  const RoutePath from_w = xy_path(cfg.dims(), 4, 6);   // W -> E straight
  RoutePath from_n;                                     // enters via N, turns E
  from_n.src = 9;
  from_n.dst = 6;
  from_n.links = {Dir::South, Dir::East};

  // One reusable payload per feeder; the router only decodes the route and
  // identifies flows through the payload, so reusing slots is fine here.
  const FlitRef proto_w = make_head(pool, 0, 0, from_w, 1);
  const FlitRef proto_n = make_head(pool, 1, 0, from_n, 1);

  // Keep both inputs saturated while honouring flow control: each upstream
  // holds this router's input VCs as credits and sends a new single-flit
  // packet only when it owns a free VC.
  std::map<Dir, int> sent_per_input;
  std::map<int, std::deque<VcId>> upstream_credits;  // dir_index -> free VCs
  for (VcId v = 0; v < cfg.vcs_per_port; ++v) {
    upstream_credits[dir_index(Dir::West)].push_back(v);
    upstream_credits[dir_index(Dir::North)].push_back(v);
  }
  for (Cycle t = 10; t < 210; ++t) {
    for (Dir in : {Dir::West, Dir::North}) {
      auto& avail = upstream_credits[dir_index(in)];
      if (avail.empty()) continue;
      FlitRef f = in == Dir::West ? proto_w : proto_n;
      f.vc = avail.front();
      avail.pop_front();
      r.accept_flit(in, f, t);
    }
    cycle(r, t + 1, act);
    // Downstream returns output credits instantly; upstream pools refill
    // from the router's freed-VC notifications.
    for (const auto& c : fab.credits) upstream_credits[dir_index(c.in)].push_back(c.vc);
    fab.credits.clear();
    while (r.free_vcs(Dir::East) < cfg.vcs_per_port) r.credit_arrived(Dir::East, 0);
    for (const auto& s : fab.sent) {
      sent_per_input[pool.at(s.flit.slot).flow == 0 ? Dir::West : Dir::North]++;
    }
    fab.sent.clear();
  }
  const int w = sent_per_input[Dir::West], n = sent_per_input[Dir::North];
  EXPECT_GT(w, 0);
  EXPECT_GT(n, 0);
  EXPECT_NEAR(static_cast<double>(w) / (w + n), 0.5, 0.1)
      << "round-robin must split a contended output evenly";
}

/// Allocates a slot whose payload mirrors what MeshNetwork::offer_packet
/// would install for this NIC-side test.
PacketSlot offer(PacketPool& pool, std::uint32_t id, FlowId flow, const RoutePath& path,
                 int flits, Cycle created) {
  const PacketSlot slot = pool.alloc();
  PacketPayload& pkt = pool.at(slot);
  pkt.id = id;
  pkt.flow = flow;
  pkt.src = path.src;
  pkt.dst = path.dst;
  pkt.flits = flits;
  pkt.route = SourceRoute::encode(path);
  pkt.created = created;
  return slot;
}

TEST(NicUnit, StreamsWholePacketOneFlitPerCycle) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(4, cfg, &fab, &stats, &pool);
  FlowSet fs;
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  nic.register_flow(fs.at(0));
  nic.init_source_credits(cfg.vcs_per_port);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  const PacketSlot slot = offer(pool, 9, 0, path, cfg.flits_per_packet(), 5);
  nic.offer_packet(slot);

  for (Cycle t = 6; t < 6 + 8; ++t) nic.inject(t);
  ASSERT_EQ(fab.sent.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fab.sent[i].flit.seq, static_cast<int>(i));
    EXPECT_EQ(fab.sent[i].cycle, 6 + i);
    EXPECT_EQ(fab.sent[i].flit.slot, slot);
  }
  EXPECT_EQ(pool.at(slot).injected, 6u);  // stamped when the head left
  EXPECT_TRUE(is_head(fab.sent.front().flit.type));
  EXPECT_TRUE(is_tail(fab.sent.back().flit.type));
  EXPECT_EQ(nic.source_free_vcs(), cfg.vcs_per_port - 1);
  // Transmit reference dropped at the tail; the 8 in-flight flit
  // references (held by our mock fabric) keep the slot live.
  EXPECT_EQ(pool.refs(slot), 8u);
}

TEST(NicUnit, BlocksWithoutCredits) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(4, cfg, &fab, &stats, &pool);
  FlowSet fs;
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  nic.register_flow(fs.at(0));
  nic.init_source_credits(1);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  for (int p = 0; p < 2; ++p) {
    nic.offer_packet(offer(pool, static_cast<std::uint32_t>(p), 0, path, 1, 1));
  }
  nic.inject(2);
  nic.inject(3);
  EXPECT_EQ(fab.sent.size(), 1u) << "second packet must wait for the credit";
  nic.credit_arrived(0);
  nic.inject(4);
  EXPECT_EQ(fab.sent.size(), 2u);
}

TEST(NicUnit, ReceiveAssemblesAndCredits) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(6, cfg, &fab, &stats, &pool);

  const RoutePath path = xy_path(cfg.dims(), 4, 6);
  const PacketSlot slot = offer(pool, 77, 0, path, 4, 1);
  pool.at(slot).injected = 2;
  const SourceRoute route = SourceRoute::encode(path);
  for (int s = 0; s < 4; ++s) {
    FlitRef f;
    f.slot = slot;
    f.type = s == 0 ? FlitType::Head : s == 3 ? FlitType::Tail : FlitType::Body;
    f.seq = static_cast<std::uint8_t>(s);
    f.vc = 1;
    f.hop_index = static_cast<std::uint8_t>(route.entries());
    pool.add_ref(slot);  // the in-flight flit's reference
    nic.accept_flit(f, 10 + static_cast<Cycle>(s));
  }
  EXPECT_EQ(stats.total_packets(), 1u);
  const auto& fsx = stats.per_flow().at(0);
  EXPECT_EQ(fsx.flits, 4u);
  // head at 10, injected 2 -> network latency 9.
  EXPECT_DOUBLE_EQ(fsx.avg_network_latency(), 9.0);
  ASSERT_EQ(fab.credits.size(), 1u);
  EXPECT_EQ(fab.credits[0].vc, 1);
  EXPECT_EQ(fab.credits[0].cycle, 13u);
  // All four flit references consumed; only the test's own remains.
  EXPECT_EQ(pool.refs(slot), 1u);
  EXPECT_EQ(pool.live(), 1u);
}

TEST(NicUnit, LooksUpOnlyItsOwnFlows) {
  // Flow 0 is sourced at node 5: foreign to NIC 4, which owns flows 1 and 2.
  const NocConfig cfg = cfg4();
  MockFabric fab;
  NetworkStats stats;
  PacketPool pool;
  Nic nic(4, cfg, &fab, &stats, &pool);
  FlowSet fs;
  fs.add(5, 6, 100.0, xy_path(cfg.dims(), 5, 6));
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  fs.add(4, 7, 100.0, xy_path(cfg.dims(), 4, 7));
  nic.register_flow(fs.at(1));
  nic.register_flow(fs.at(2));
  nic.init_source_credits(cfg.vcs_per_port);

  const RoutePath p6 = xy_path(cfg.dims(), 4, 6), p7 = xy_path(cfg.dims(), 4, 7);
  const PacketSlot a = offer(pool, 1, 1, p6, 1, 1);
  const PacketSlot b = offer(pool, 2, 2, p7, 1, 1);
  const PacketSlot c = offer(pool, 3, 1, p6, 1, 1);
  for (const PacketSlot s : {a, b, c}) nic.offer_packet(s);
  EXPECT_EQ(nic.queued_packets(), 3);

  // Not ours: nothing is dropped or rewritten.
  std::vector<PacketSlot> dropped;
  const auto collect = [&](PacketSlot s) { dropped.push_back(s); };
  EXPECT_EQ(nic.drop_flow_queue(0, collect), 0);
  EXPECT_EQ(nic.drop_flow_queue(99, collect), 0);
  EXPECT_TRUE(dropped.empty());
  const SourceRoute before = pool.at(a).route;
  nic.rewrite_queued_routes(0, fs.at(2).route);
  EXPECT_TRUE(pool.at(a).route == before);

  // Ours: exactly the flow's own packets, in queue order.
  nic.rewrite_queued_routes(2, fs.at(1).route);
  EXPECT_TRUE(pool.at(b).route == fs.at(1).route);
  EXPECT_TRUE(pool.at(a).route == before);
  EXPECT_EQ(nic.drop_flow_queue(1, collect), 2);
  EXPECT_EQ(dropped, (std::vector<PacketSlot>{a, c}));
  EXPECT_EQ(nic.queued_packets(), 1);

  EXPECT_DEATH(nic.offer_packet(offer(pool, 4, 0, xy_path(cfg.dims(), 5, 6), 1, 1)),
               "unregistered flow");
  EXPECT_DEATH(nic.requeue_front(offer(pool, 5, 0, xy_path(cfg.dims(), 5, 6), 1, 1), 9),
               "wrong NIC");
}

TEST(NicUnit, RejectsOutOfOrderRegistration) {
  const NocConfig cfg = cfg4();
  MockFabric fab;
  NetworkStats stats;
  PacketPool pool;
  FlowSet fs;
  fs.add(4, 6, 100.0, xy_path(cfg.dims(), 4, 6));
  fs.add(4, 7, 100.0, xy_path(cfg.dims(), 4, 7));
  fs.add(5, 6, 100.0, xy_path(cfg.dims(), 5, 6));
  Nic nic(4, cfg, &fab, &stats, &pool);
  nic.register_flow(fs.at(1));
  EXPECT_DEATH(nic.register_flow(fs.at(0)), "ascending id");
  EXPECT_DEATH(nic.register_flow(fs.at(1)), "ascending id");
  EXPECT_DEATH(nic.register_flow(fs.at(2)), "wrong NIC");
}

}  // namespace
}  // namespace smartnoc::noc

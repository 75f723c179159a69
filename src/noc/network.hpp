// The mesh network: routers + NICs + segments + the credit mesh, driven by
// a phase-ordered cycle loop. One implementation covers both designs under
// study:
//
//   * SMART:   presets from smart::PresetComputer, same-cycle multi-hop
//              segment delivery (Options::extra_link_cycle = false);
//   * Mesh:    PresetTable::all_buffer + one extra cycle per link, i.e. the
//              paper's baseline "3 cycles in router and 1 cycle in link".
//
// Per-cycle phase order (see the README "Performance" section; pinned by
// timing tests): credit delivery -> Buffer Write -> Switch Traversal ->
// Switch Allocation -> NIC injection. A grant made in SA fires ST the
// *next* cycle, giving the 3-stage pipeline its +3-per-stop cost. The
// sequence is written once, in run_phases(); tick() owns everything else
// that happens exactly once per cycle (the clock, the idle-clock power
// term, observer deltas) for all three kernels.
//
// Scheduling: tick() is event-driven over *active sets*. Routers and NICs
// join a membership-flagged dirty list when a flit or packet reaches them
// and leave once quiescent, so a cycle costs O(active components), not
// O(nodes) - the decisive case for the explorer's low-injection sweep
// points and the drain phase. In-flight credits sit in a bucketed time
// wheel indexed by due cycle (delivery pops one bucket per tick), and
// drained() reduces to three counter reads. Per-cycle results are
// bit-identical to the seed's full-scan loop, which survives as the
// reference kernel (use_reference_kernel) pinned against the active-set
// core by the golden determinism test.
//
// Parallelism: with cfg.shard_threads > 1 the mesh is partitioned into
// column slices, one thread each, every shard owning its slice of the
// active sets and its own credit wheel; boundary flits and credits cross
// via mailboxes with a deterministic per-cycle barrier (see shard.hpp for
// the protocol and the bit-identity argument). shard_threads = 1 runs the
// plain single-threaded kernel unchanged.
#pragma once

#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "noc/fabric.hpp"
#include "noc/fault_engine.hpp"
#include "noc/faults.hpp"
#include "noc/flow.hpp"
#include "noc/network_iface.hpp"
#include "noc/nic.hpp"
#include "noc/packet_pool.hpp"
#include "noc/preset.hpp"
#include "noc/router.hpp"
#include "noc/segment.hpp"
#include "noc/shard.hpp"
#include "noc/stats.hpp"
#include "noc/trace.hpp"

namespace smartnoc::obs {
class SpanTracer;
}  // namespace smartnoc::obs

namespace smartnoc::noc {

class MeshNetwork final : public Network, private Fabric {
 public:
  struct Options {
    bool extra_link_cycle = false;  ///< baseline mesh: +1 cycle per link
    int hpc_max = 8;                ///< single-cycle reach (from the circuit model)
  };

  MeshNetwork(const NocConfig& cfg, FlowSet flows, PresetTable presets, Options opt);

  // Routers and NICs hold Fabric/stats back-pointers into this object:
  // it must stay pinned in memory (hand out unique_ptrs, never move it).
  MeshNetwork(const MeshNetwork&) = delete;
  MeshNetwork& operator=(const MeshNetwork&) = delete;
  MeshNetwork(MeshNetwork&&) = delete;
  MeshNetwork& operator=(MeshNetwork&&) = delete;

  // --- Network interface ------------------------------------------------------
  void tick() override;
  Cycle now() const override { return now_; }
  void offer_packet(FlowId flow, Cycle created) override;
  bool drained() const override;
  NetworkStats& stats() override { return stats_; }
  const NetworkStats& stats() const { return stats_; }
  const NocConfig& config() const override { return cfg_; }
  const FlowSet& flows() const override { return flows_; }

  // --- Introspection (tests, benches, power) ----------------------------------
  Router& router(NodeId n) { return *routers_.at(static_cast<std::size_t>(n)); }
  Nic& nic(NodeId n) { return *nics_.at(static_cast<std::size_t>(n)); }
  const SegmentTable& segments() const { return segments_; }
  const PresetTable& presets() const { return presets_; }
  /// The structure-of-arrays packet store: live() == in-flight packets
  /// (queued at NICs or with flits somewhere in the fabric); tests pin
  /// live() == 0 against drained().
  const PacketPool& packet_pool() const { return pool_; }

  /// Switches this network to the seed's full-scan cycle kernel: every
  /// router/NIC ticked every cycle, in-flight credits in a linearly scanned
  /// vector, drained() as a whole-mesh walk. Results are bit-identical to
  /// the active-set kernel (pinned by test_golden_determinism); it exists
  /// as the reference for that cross-check and for before/after benches.
  /// Must be called before any traffic enters the network.
  void use_reference_kernel(bool ref);
  bool reference_kernel() const { return reference_kernel_; }

  /// Static analysis of a flow under the installed presets: the routers
  /// where its flits stop. Zero-load SMART network latency = 1 + 3 * stops
  /// (pinned by tests against simulation).
  struct FlowPathInfo {
    std::vector<NodeId> stops;
  };
  const FlowPathInfo& flow_info(FlowId id) const {
    return flow_info_.at(static_cast<std::size_t>(id));
  }

  /// Ports left clocked by the presets (feeds the power model's idle-clock
  /// term; SMART gates what the presets do not use, the baseline cannot).
  int clocked_input_ports() const { return clocked_in_total_; }
  int clocked_output_ports() const { return clocked_out_total_; }

  // --- Sharded parallel kernel -------------------------------------------------
  /// Number of shards the mesh is partitioned into: cfg.shard_threads
  /// clamped to the mesh width (column slices). 1 = single-threaded kernel.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// The shard owning node `n`'s router and NIC.
  int shard_of(NodeId n) const { return shard_of_[static_cast<std::size_t>(n)]; }

  /// Per-shard observability snapshot (feeds the smartnoc_shard_* metrics).
  struct ShardTelemetry {
    std::uint64_t ticks = 0;            ///< tick passes this shard executed
    std::uint64_t boundary_flits = 0;   ///< flits shipped across its boundary
    double barrier_wait_seconds = 0.0;  ///< wall-clock barrier residency
  };
  std::vector<ShardTelemetry> shard_telemetry() const;

  /// Benches/tests: run the full sharded protocol (sinks, mailboxes,
  /// epilogue) even with one shard, to measure the armed machinery against
  /// the plain kernel. Requires a pristine network, like the kernel switch.
  void force_sharded_path(bool on);

  /// Attaches a wall-clock span tracer: each shard thread records its tick
  /// batches on lane `base_lane + shard`. Pass nullptr to detach (flushes
  /// the partial batch). The tracer must outlive the network or be
  /// detached first, like the trace observer.
  void set_span_tracer(obs::SpanTracer* tracer, int base_lane = 0);

  /// Installs a trace observer (e.g. sim::VcdTracer). Pass nullptr to
  /// detach. The observer must outlive the network or be detached first.
  void set_observer(TraceObserver* obs) override {
    observer_ = obs;
    observer_wants_deltas_ = obs != nullptr && obs->wants_activity_deltas();
  }

  // --- Online fault injection (between ticks; no drain, no rebuild) -----------
  /// Applies one primitive fault action to the live network: preset surgery,
  /// in-flight purge with full refcount accounting, online reroute of the
  /// affected flows, bounded retransmission, and a global credit recompute.
  /// Shared by both cycle kernels, so fault runs stay bit-identical.
  void apply_fault_action(const FaultAction& action);

  /// Links currently failed (kills not yet repaired).
  const FaultSet& live_faults() const { return live_faults_; }

  /// True when the flow's destination became unreachable under the live
  /// faults: its packets are counted offered and dropped without entering
  /// the network until a repair revives it.
  bool flow_degraded(FlowId id) const {
    return !flow_degraded_.empty() && flow_degraded_[static_cast<std::size_t>(id)] != 0;
  }

  /// Full watchdog diagnosis: packet-pool census, occupied VCs, stuck
  /// routers, retry backlog, degraded flows and the live fault set.
  StallReport stall_report() const override;

 private:
  // --- Fabric interface -------------------------------------------------------
  void deliver_from_router(NodeId router, Dir out, FlitRef flit, Cycle now) override;
  void deliver_from_nic(NodeId nic, FlitRef flit, Cycle now) override;
  void credit_from_router_input(NodeId router, Dir in, VcId vc, Cycle now) override;
  void credit_from_nic(NodeId nic, VcId vc, Cycle now) override;

  void deliver(const Segment& seg, FlitRef flit, Cycle now, bool from_router);
  void schedule_credit(const SegOrigin& target, VcId vc, Cycle due, int mm, int xbar_hops);
  void deliver_credit(const SegOrigin& target, VcId vc);
  void validate_and_index_flow(const Flow& flow);

  /// The per-cycle phases over one shard's active components: its credit
  /// wheel bucket, BW, ST, SA, NIC injection, then compaction. Activity
  /// lands in `act` (the global counters single-shard, s.act under shards).
  void run_phases(ShardState& s, ActivityCounters& act);
  void tick_reference();

  // --- Sharded kernel (shard.hpp documents the protocol) -----------------------
  /// (Re)partitions the mesh into `count` column-slice shards and rewires
  /// the NIC sinks. Requires a quiescent network (constructor, kernel
  /// switches, bench arming).
  void configure_shards(int count);
  /// One sharded tick: pass A / barrier / pass B / barrier on every shard
  /// (worker threads when `parallel`, in shard order on the caller when an
  /// observer needs callbacks on one thread), then the serial epilogue.
  void tick_sharded(bool parallel);
  void shard_pass_a(ShardState& s);  ///< run_phases over s's components
  void shard_pass_b(ShardState& s);  ///< drain inboxes addressed to s
  void shard_epilogue();             ///< serial: credits, refcounts, stats merge

  // --- Fault surgery (cold paths) ---------------------------------------------
  using LinkSet = std::set<std::pair<NodeId, int>>;  ///< directed (node, dir index)
  void apply_link_kill(NodeId node, Dir dir);
  void apply_link_repair(NodeId node, Dir dir);
  /// Converts the bypass chain starting at input (start, entry) to
  /// hop-by-hop presets, recording the un-bypassed links in `changed`.
  /// Returns true if any input actually flipped.
  bool truncate_chain(NodeId start, Dir entry, LinkSet& changed);
  /// Finds the chain covering input (node, entry) by walking the presets
  /// backward to its origin, then truncates the whole chain.
  void truncate_covering_chain(NodeId node, Dir entry, LinkSet& changed);
  /// Faults plus every link embedded in live bypass structure - the first
  /// reroute pass avoids disturbing other flows' chains.
  FaultSet structural_faults() const;
  /// Attempts an online reroute of `id` around the live faults; arms the
  /// new path (possibly truncating chains it crosses into `changed`).
  /// Returns false when the destination is unreachable.
  bool reroute_flow(FlowId id, LinkSet& changed);
  /// Makes every link of `path` usable for buffered hop-by-hop traffic.
  void arm_path(const RoutePath& path, LinkSet& changed);
  /// Purges in-flight flits of the affected flows (deterministic sweep),
  /// then drops or re-queues each recovered packet (bounded retransmission
  /// with exponential backoff).
  void purge_and_requeue(const std::vector<std::uint8_t>& affected);
  /// Rebuilds the segment table from the post-surgery presets, re-derives
  /// every origin's free-VC queue from actual endpoint occupancy, recounts
  /// clocked ports and rebuilds the active sets in node order.
  void rebuild_after_surgery();

  // Active-set membership. Flags are the O(1) membership test; the
  // per-shard lists give deterministic (insertion-ordered) iteration.
  // Components are added when traffic reaches them and compacted away at
  // end of tick once quiescent, so between ticks the lists hold exactly the
  // non-quiescent components - which is what makes drained() a counter
  // check. Activation is always shard-local: boundary deliveries go through
  // a mailbox and are activated by the owner in pass B.
  void activate_router(NodeId n) {
    auto& flag = router_in_set_[static_cast<std::size_t>(n)];
    if (!flag) {
      flag = 1;
      shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(n)])]
          .active_routers.push_back(n);
    }
  }
  void activate_nic(NodeId n) {
    auto& flag = nic_in_set_[static_cast<std::size_t>(n)];
    if (!flag) {
      flag = 1;
      shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(n)])]
          .active_nics.push_back(n);
    }
  }

  static constexpr std::size_t kWheelSize = kCreditWheelSize;

  NocConfig cfg_;
  Options opt_;
  FlowSet flows_;
  PresetTable presets_;
  SegmentTable segments_;
  NetworkStats stats_;
  PacketPool pool_;  ///< cold payload store; routers/NICs hold pointers
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Nic>> nics_;
  /// The kernel state always lives in shards (size >= 1): shard 0 holds
  /// everything in single-shard mode, so both kernels run one algorithm.
  std::vector<ShardState> shards_;
  std::vector<int> shard_of_;  ///< NodeId -> owning shard (column slices)
  int configured_shards_ = 1;  ///< cfg.shard_threads clamped to the width
  bool force_sharded_ = false;
  std::vector<InFlightCredit> ref_credits_;  ///< reference kernel's linear store
  std::vector<std::uint8_t> router_in_set_;
  std::vector<std::uint8_t> nic_in_set_;
  std::vector<FlowPathInfo> flow_info_;
  FaultSet live_faults_;                     ///< links currently dead
  std::vector<std::uint8_t> flow_degraded_;  ///< flows with unreachable dst
  std::uint32_t next_packet_id_ = 1;
  int clocked_in_total_ = 0;
  int clocked_out_total_ = 0;
  bool reference_kernel_ = false;
  TraceObserver* observer_ = nullptr;
  bool observer_wants_deltas_ = false;  ///< cached obs->wants_activity_deltas()
  obs::SpanTracer* span_tracer_ = nullptr;
  int span_base_lane_ = 0;
  Cycle now_ = 0;
  /// Declared last so workers stop and join before any kernel state dies.
  std::unique_ptr<ShardRuntime> runtime_;
};

/// The paper's baseline: a state-of-the-art mesh NoC with no reconfiguration
/// [11], where each hop takes 3 cycles in the router and 1 cycle in the link.
std::unique_ptr<MeshNetwork> make_baseline_mesh(const NocConfig& cfg, FlowSet flows);

}  // namespace smartnoc::noc

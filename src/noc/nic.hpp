// Network interface controller: packetization, injection and reassembly.
//
// Source side: per-flow packet queues; one flit per cycle onto the
// injection link; a packet needs a free VC at the injection segment's
// endpoint (which, under full bypass, is the *destination NIC* - the
// paper's "free VC queue might actually be tracking the VCs at an input
// port of a router multiple hops away").
//
// Sink side: per-VC reassembly; a packet is consumed on tail arrival and
// its receive-VC credit returns over the credit mesh.
//
// Memory is O(own flows): a NIC holds one LocalFlow per flow it sources and
// nothing indexed by the global FlowId, so a network costs O(nodes + flows)
// however many flows it carries.
//  * Lookup: local_flows_ is sorted by FlowId - MeshNetwork registers flows
//    in ascending id and register_flow rejects any other order (a repeat
//    included) - so the FlowId -> slot map is a binary search over it. A
//    flow sourced elsewhere is "not ours": offer_packet and requeue_front
//    reject it, drop_flow_queue and rewrite_queued_routes ignore it.
//  * Queues: each LocalFlow queue is a RingFifo, which owns no heap block
//    until the flow's first packet; an idle flow costs its 32-byte slot.
//
// Hot-path layout: the round-robin injector picks from a sorted list of the
// slots with queued packets (cyclic lower_bound from the round-robin
// cursor), so a NIC with many registered flows but few busy ones does not
// probe every slot each cycle. The seed's linear scan survives behind
// use_reference_scan (wired to MeshNetwork::use_reference_kernel and
// cross-pinned bit-identical by the golden determinism matrix). Queued
// packets are 4-byte PacketSlots into the network's PacketPool (the
// structure-of-arrays split: the pool owns route/timestamps/ids once per
// packet), injected flits are 16-byte FlitRefs, and reassembly is a small
// linear-scanned vector bounded by the VC count. A running queued-packet
// counter makes idle() O(1) for the network's active-set scheduler and
// drain check.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/fabric.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "noc/flow.hpp"
#include "noc/packet_pool.hpp"
#include "noc/shard.hpp"
#include "noc/stats.hpp"

namespace smartnoc::noc {

class Nic {
 public:
  Nic(NodeId node, const NocConfig& cfg, Fabric* fabric, NetworkStats* stats, PacketPool* pool);

  NodeId node() const { return node_; }

  /// Registers a flow that originates here. Flows must arrive in strictly
  /// ascending id (the lookup invariant above).
  void register_flow(const Flow& flow);

  /// Gives the source side `vcs` credits for its injection-segment endpoint.
  void init_source_credits(int vcs);

  /// Queue a packet for injection (infinite source queue; queueing time is
  /// measured separately from network latency). The slot's payload must be
  /// fully populated; the NIC inherits the slot's transmit reference and
  /// releases it when the tail leaves.
  void offer_packet(PacketSlot slot);

  /// Per-cycle injection phase: stream the active packet or start the next
  /// one (round-robin across this NIC's flows, one flit per cycle). The
  /// injection link's energy is charged by the fabric's segment delivery.
  void inject(Cycle now);

  /// Sink side: a flit delivered by the fabric (end of cycle `now`).
  /// Consumes the flit's pool reference.
  void accept_flit(const FlitRef& flit, Cycle now);

  /// Source-side credit return (a packet left the endpoint buffers).
  void credit_arrived(VcId vc);

  /// O(1): no active transmission, no queued packet, nothing reassembling.
  bool idle() const {
    return !active_.has_value() && assembling_.empty() && queued_total_ == 0;
  }
  int queued_packets() const { return queued_total_; }
  int source_free_vcs() const { return free_vcs_.size(); }

  /// Selects the next flow with the seed's linear scan over every slot
  /// instead of the nonempty-slot list (identical choice, O(flows) work);
  /// the reference path for golden cross-checks and before/after benches.
  void use_reference_scan(bool ref) { reference_scan_ = ref; }
  bool reference_scan() const { return reference_scan_; }

  /// Sharded kernel: PacketPool refcounts and record_packet are process-wide
  /// and non-atomic, so during a parallel pass the NIC logs them into its
  /// shard's sink for serial replay in the tick epilogue. Null (the
  /// default) applies every op directly - the single-shard hot path.
  void set_shard_sink(ShardSink* sink) { sink_ = sink; }

  // --- Fault engine (cold paths, shared by both cycle kernels) ---------------
  /// Re-queues a packet recovered from a fault at the *front* of its flow's
  /// queue for another transmission attempt, held back until `not_before`
  /// (exponential backoff). The caller has already refreshed the payload
  /// (attempts, route) and hands the slot's transmit reference back.
  void requeue_front(PacketSlot slot, Cycle not_before);

  /// Drops every queued packet of `flow` (a degraded, unreachable flow).
  /// `on_dropped` runs once per packet with its slot - the caller releases
  /// the transmit reference and records the drop. Returns the count.
  int drop_flow_queue(FlowId flow, const std::function<void(PacketSlot)>& on_dropped);

  /// Rewrites the pool route of every queued packet of `flow` after an
  /// online reroute (queued payloads hold the route captured at offer time).
  void rewrite_queued_routes(FlowId flow, const SourceRoute& route);

  /// Cancels an affected active transmission (handing its transmit
  /// reference to the caller via `on_cancelled`) and erases affected
  /// reassemblies (their flits hold no pool references - the remaining
  /// flits upstream can never arrive). Queued packets are left alone.
  void purge_flows(const std::vector<std::uint8_t>& affected,
                   const std::function<void(PacketSlot)>& on_cancelled);

  /// Replaces the source free-VC queue with every VC in [0,vcs) whose
  /// `busy` bit is clear, ascending (the global credit recompute).
  void reset_source_credits(int vcs, const std::array<bool, 16>& busy);

  /// ORs into `busy` the receive VCs held by in-progress reassemblies
  /// (credit returns at tail; until then the VC is occupied).
  void mark_busy_receive_vcs(std::array<bool, 16>& busy) const;

  /// The endpoint VC of the active transmission, if one is streaming.
  std::optional<VcId> active_tx_vc() const {
    if (!active_.has_value()) return std::nullopt;
    return active_->vc;
  }

  /// Queued packets still serving their retransmission backoff at `now`
  /// (the watchdog must not mistake a backoff window for a deadlock).
  int retry_waiting(Cycle now) const;

 private:
  struct QueuedPacket {
    PacketSlot slot = kInvalidSlot;
    Cycle not_before = 0;  ///< retransmission backoff gate (0 = immediate)
  };
  struct LocalFlow {
    FlowId id = kInvalidFlow;
    RingFifo<QueuedPacket> queue;  ///< queued packets, payload in the pool
  };
  static_assert(sizeof(LocalFlow) <= 32, "an idle flow costs one 32-byte slot");
  struct ActiveTx {
    PacketSlot slot = kInvalidSlot;
    int flits = 0;     ///< payload.flits, copied so streaming skips the pool
    VcId vc = kInvalidVc;
    int next_seq = 0;
  };
  struct Assembly {
    PacketSlot slot = kInvalidSlot;  ///< unique while any flit is unconsumed
    int flits = 0;
    Cycle head_arrival = 0;
    VcId vc = kInvalidVc;  ///< receive VC (busy until tail; fault recompute)
  };

  NodeId node_;
  const NocConfig* cfg_;
  Fabric* fabric_;
  NetworkStats* stats_;
  PacketPool* pool_;
  ShardSink* sink_ = nullptr;  ///< non-null only under the sharded protocol

  /// Index of `flow` in local_flows_, or local_flows_.size() when the flow
  /// is not sourced here.
  std::size_t slot_of(FlowId flow) const;

  /// Files a packet into slot `slot`'s queue (front or back), keeping
  /// nonempty_ and queued_total_ in step.
  void enqueue(std::size_t slot, QueuedPacket q, bool front);

  std::vector<LocalFlow> local_flows_;  ///< flows sourced here, ascending id
  std::vector<std::size_t> nonempty_;  ///< sorted slots with queued packets
  std::size_t rr_next_ = 0;            ///< round-robin over local_flows_
  int queued_total_ = 0;               ///< packets across all local queues
  bool reference_scan_ = false;        ///< linear-scan flow selection
  VcQueue free_vcs_;
  std::optional<ActiveTx> active_;

  std::vector<Assembly> assembling_;   ///< in-progress packets (<= #VCs entries)
};

}  // namespace smartnoc::noc

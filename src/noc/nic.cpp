#include "noc/nic.hpp"

#include <algorithm>

namespace smartnoc::noc {

Nic::Nic(NodeId node, const NocConfig& cfg, Fabric* fabric, NetworkStats* stats,
         PacketPool* pool)
    : node_(node), cfg_(&cfg), fabric_(fabric), stats_(stats), pool_(pool) {
  SMARTNOC_CHECK(fabric_ != nullptr && stats_ != nullptr && pool_ != nullptr,
                 "NIC needs fabric, stats and the packet pool");
}

void Nic::register_flow(const Flow& flow) {
  SMARTNOC_CHECK(flow.src == node_, "flow registered at the wrong NIC");
  SMARTNOC_CHECK(local_flows_.empty() || local_flows_.back().id < flow.id,
                 "flows must register in ascending id (a repeat included)");
  LocalFlow lf;
  lf.id = flow.id;
  local_flows_.push_back(std::move(lf));
}

std::size_t Nic::slot_of(FlowId flow) const {
  const auto it = std::lower_bound(
      local_flows_.begin(), local_flows_.end(), flow,
      [](const LocalFlow& lf, FlowId id) { return lf.id < id; });
  if (it == local_flows_.end() || it->id != flow) return local_flows_.size();
  return static_cast<std::size_t>(it - local_flows_.begin());
}

void Nic::init_source_credits(int vcs) {
  SMARTNOC_CHECK(free_vcs_.empty(), "source credits initialized twice");
  for (VcId v = 0; v < vcs; ++v) free_vcs_.push_back(v);
}

void Nic::enqueue(std::size_t slot, QueuedPacket q, bool front) {
  LocalFlow& lf = local_flows_[slot];
  if (lf.queue.empty()) {
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), slot), slot);
  }
  if (front) {
    lf.queue.push_front(q);
  } else {
    lf.queue.push_back(q);
  }
  queued_total_ += 1;
}

void Nic::offer_packet(PacketSlot pkt_slot) {
  const std::size_t slot = slot_of(pool_->at(pkt_slot).flow);
  SMARTNOC_CHECK(slot < local_flows_.size(), "packet offered for an unregistered flow");
  enqueue(slot, QueuedPacket{pkt_slot, 0}, /*front=*/false);
}

void Nic::requeue_front(PacketSlot pkt_slot, Cycle not_before) {
  const std::size_t slot = slot_of(pool_->at(pkt_slot).flow);
  SMARTNOC_CHECK(slot < local_flows_.size(), "retransmission re-queued at the wrong NIC");
  enqueue(slot, QueuedPacket{pkt_slot, not_before}, /*front=*/true);
}

void Nic::inject(Cycle now) {
  if (!active_.has_value()) {
    if (queued_total_ == 0) return;
    // Round-robin over flows with queued packets; needs a free endpoint VC.
    if (free_vcs_.empty()) return;
    std::size_t chosen = local_flows_.size();  // sentinel: nothing picked
    if (reference_scan_) {
      for (std::size_t k = 0; k < local_flows_.size(); ++k) {
        const std::size_t i = (rr_next_ + k) % local_flows_.size();
        const LocalFlow& cand = local_flows_[i];
        if (!cand.queue.empty() && cand.queue.front().not_before <= now) {
          chosen = i;
          break;
        }
      }
    } else {
      // queued_total_ > 0 guarantees a nonempty slot; the cyclic walk from
      // the round-robin cursor visits nonempty flows in exactly the order
      // the linear scan would, skipping packets still in retransmission
      // backoff. Fault-free runs exit on the first probe (one compare).
      const std::size_t n = nonempty_.size();
      const auto it = std::lower_bound(nonempty_.begin(), nonempty_.end(), rr_next_);
      const auto start = static_cast<std::size_t>(it - nonempty_.begin());
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = nonempty_[(start + k) % n];
        if (local_flows_[i].queue.front().not_before <= now) {
          chosen = i;
          break;
        }
      }
    }
    if (chosen == local_flows_.size()) return;
    LocalFlow& lf = local_flows_[chosen];
    ActiveTx tx;
    tx.slot = lf.queue.pop_front().slot;
    queued_total_ -= 1;
    if (lf.queue.empty()) {
      nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), chosen));
    }
    PacketPayload& pkt = pool_->at(tx.slot);
    pkt.injected = now;  // head flit hits the injection link this cycle
    tx.flits = pkt.flits;
    tx.vc = free_vcs_.pop_front();
    active_ = tx;
    rr_next_ = (chosen + 1) % local_flows_.size();
  }

  // Stream one flit of the active packet.
  ActiveTx& tx = *active_;
  FlitRef f;
  const int last = tx.flits - 1;
  f.type = tx.flits == 1 ? FlitType::HeadTail
           : tx.next_seq == 0 ? FlitType::Head
           : tx.next_seq == last ? FlitType::Tail
                                 : FlitType::Body;
  f.slot = tx.slot;
  f.seq = static_cast<std::uint8_t>(tx.next_seq);
  f.vc = tx.vc;
  f.hop_index = 0;
  // The in-flight flit's reference. Under shards the refcount op is logged
  // for the epilogue; the slot stays alive meanwhile because the transmit
  // reference below is deferred the same way (adds replay before releases).
  if (sink_ != nullptr) {
    sink_->pool_add_refs.push_back(tx.slot);
  } else {
    pool_->add_ref(tx.slot);
  }
  tx.next_seq += 1;
  const bool done = tx.next_seq == tx.flits;
  fabric_->deliver_from_nic(node_, f, now);
  if (done) {
    // Tail left: drop the transmit reference. Under full bypass the tail
    // may already have been consumed at the destination within this very
    // call, so this can recycle the slot - nothing reads it afterwards.
    if (sink_ != nullptr) {
      sink_->pool_releases.push_back(tx.slot);
    } else {
      pool_->release(tx.slot);
    }
    active_.reset();
  }
}

void Nic::accept_flit(const FlitRef& flit, Cycle now) {
  const PacketPayload& pkt = pool_->at(flit.slot);
  SMARTNOC_CHECK(pkt.dst == node_, "flit delivered to the wrong NIC");
  SMARTNOC_CHECK(flit.hop_index == pkt.route.entries(),
                 "flit reached the NIC with route entries left");
  Assembly* a = nullptr;
  for (Assembly& cand : assembling_) {
    if (cand.slot == flit.slot) {
      a = &cand;
      break;
    }
  }
  if (a == nullptr) {
    assembling_.push_back(Assembly{flit.slot, 0, 0, flit.vc});
    a = &assembling_.back();
  }
  if (is_head(flit.type)) a->head_arrival = now;
  a->flits += 1;
  SMARTNOC_CHECK(static_cast<int>(assembling_.size()) <= cfg_->vcs_per_port,
                 "more packets in reassembly than receive VCs");
  if (is_tail(flit.type)) {
    // Completed packet: under shards the stats write is deferred with every
    // argument captured now (the payload may recycle before the epilogue).
    if (sink_ != nullptr) {
      sink_->deliveries.push_back(ShardSink::Delivery{pkt.flow, a->flits, pkt.created,
                                                      pkt.injected, a->head_arrival, now});
    } else {
      stats_->record_packet(pkt.flow, a->flits, pkt.created, pkt.injected, a->head_arrival, now);
    }
    *a = assembling_.back();
    assembling_.pop_back();
    // The receive VC is free again: return its credit to the feeder.
    fabric_->credit_from_nic(node_, flit.vc, now);
  }
  // Consumed: drop the flit's pool reference (after the last payload read).
  if (sink_ != nullptr) {
    sink_->pool_releases.push_back(flit.slot);
  } else {
    pool_->release(flit.slot);
  }
}

void Nic::credit_arrived(VcId vc) {
  SMARTNOC_CHECK(free_vcs_.size() < cfg_->vcs_per_port, "NIC credit overflow");
  free_vcs_.push_back(vc);
}

int Nic::drop_flow_queue(FlowId flow, const std::function<void(PacketSlot)>& on_dropped) {
  const std::size_t slot = slot_of(flow);
  if (slot == local_flows_.size()) return 0;
  LocalFlow& lf = local_flows_[slot];
  if (lf.queue.empty()) return 0;
  const int dropped = static_cast<int>(lf.queue.size());
  for (const QueuedPacket& q : lf.queue) on_dropped(q.slot);
  lf.queue.clear();
  queued_total_ -= dropped;
  nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), slot));
  return dropped;
}

void Nic::rewrite_queued_routes(FlowId flow, const SourceRoute& route) {
  const std::size_t slot = slot_of(flow);
  if (slot == local_flows_.size()) return;
  for (const QueuedPacket& q : local_flows_[slot].queue) pool_->at(q.slot).route = route;
}

void Nic::purge_flows(const std::vector<std::uint8_t>& affected,
                      const std::function<void(PacketSlot)>& on_cancelled) {
  auto hit = [&](FlowId fl) {
    return fl >= 0 && static_cast<std::size_t>(fl) < affected.size() &&
           affected[static_cast<std::size_t>(fl)] != 0;
  };
  // Cancel the active transmission first: its transmit reference keeps the
  // slot alive and transfers to the caller. The already-sent flits of this
  // packet are purged router-side; the endpoint VC frees in the global
  // credit recompute.
  if (active_.has_value() && hit(pool_->at(active_->slot).flow)) {
    on_cancelled(active_->slot);
    active_.reset();
  }
  // Erase affected reassemblies: the packet's remaining flits upstream are
  // being purged, so the assembly can never complete. Assembly flits hold
  // no pool references (released on arrival) - nothing to release here.
  for (std::size_t i = 0; i < assembling_.size();) {
    if (hit(pool_->at(assembling_[i].slot).flow)) {
      assembling_[i] = assembling_.back();
      assembling_.pop_back();
    } else {
      ++i;
    }
  }
}

void Nic::reset_source_credits(int vcs, const std::array<bool, 16>& busy) {
  free_vcs_ = VcQueue{};
  for (VcId v = 0; v < vcs; ++v) {
    if (!busy[static_cast<std::size_t>(v)]) free_vcs_.push_back(v);
  }
}

void Nic::mark_busy_receive_vcs(std::array<bool, 16>& busy) const {
  for (const Assembly& a : assembling_) {
    if (a.vc != kInvalidVc) busy[static_cast<std::size_t>(a.vc)] = true;
  }
}

int Nic::retry_waiting(Cycle now) const {
  const LocalFlow* flows = local_flows_.data();
  int waiting = 0;
  for (std::size_t i = 0; i < local_flows_.size(); ++i) {
    for (const QueuedPacket& q : flows[i].queue) {
      if (q.not_before > now) waiting += 1;
    }
  }
  return waiting;
}

}  // namespace smartnoc::noc

#include "noc/network.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/spans.hpp"

namespace smartnoc::noc {

namespace {

std::size_t idx(Dir d) { return static_cast<std::size_t>(dir_index(d)); }

/// The shard whose pass this thread is currently executing (null outside a
/// sharded pass, including the whole single-shard hot path). Routes flit
/// deliveries and credit schedules local-vs-boundary and selects the
/// activity-delta target. Thread-local, not per-network: one OS thread works
/// on one shard of one network at a time (executor workers run independent
/// networks; shard workers run one shard each).
thread_local ShardState* tl_shard = nullptr;

/// Shard-thread span lanes batch this many ticks per recorded span.
constexpr std::uint64_t kSpanChunkTicks = 4096;

/// Records shard `s`'s open batch of ticks as one span on its lane.
void close_span_chunk(obs::SpanTracer& tracer, int base_lane, ShardState& s) {
  tracer.span(base_lane + s.id, "shard", "ticks", s.span_chunk_start_us, tracer.now_us());
  s.span_chunk_ticks = 0;
}

/// Does `path` traverse any directed link in `links`?
bool path_crosses(const RoutePath& path, const MeshDims& dims,
                  const std::set<std::pair<NodeId, int>>& links) {
  NodeId cur = path.src;
  for (Dir d : path.links) {
    if (links.count({cur, dir_index(d)}) > 0) return true;
    cur = dims.neighbor(cur, d);
  }
  return false;
}

}  // namespace

MeshNetwork::MeshNetwork(const NocConfig& cfg, FlowSet flows, PresetTable presets, Options opt)
    : cfg_(cfg),
      opt_(opt),
      flows_(std::move(flows)),
      presets_(std::move(presets)),
      segments_(cfg.dims(), cfg, presets_, opt.hpc_max) {
  cfg_.validate();
  const MeshDims dims = cfg_.dims();

  routers_.reserve(static_cast<std::size_t>(dims.nodes()));
  nics_.reserve(static_cast<std::size_t>(dims.nodes()));
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    routers_.push_back(std::make_unique<Router>(n, cfg_, static_cast<Fabric*>(this), &pool_));
    nics_.push_back(std::make_unique<Nic>(n, cfg_, static_cast<Fabric*>(this), &stats_, &pool_));
  }
  router_in_set_.assign(static_cast<std::size_t>(dims.nodes()), 0);
  nic_in_set_.assign(static_cast<std::size_t>(dims.nodes()), 0);
  configured_shards_ = std::clamp(cfg_.shard_threads, 1, dims.width());
  configure_shards(configured_shards_);

  // Arm switch-allocatable outputs: exactly the FromRouter crosspoints, each
  // with one downstream VC pool (its segment endpoint's input buffers).
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir o : kAllDirs) {
      const XbarSel& sel = presets_.at(n).xbar[static_cast<std::size_t>(dir_index(o))];
      if (sel.kind == XbarSel::Kind::FromRouter) {
        SMARTNOC_CHECK(segments_.output(n, o).has_value(), "FromRouter output without segment");
        routers_[static_cast<std::size_t>(n)]->enable_output(o, cfg_.vcs_per_port);
      }
    }
    nics_[static_cast<std::size_t>(n)]->init_source_credits(cfg_.vcs_per_port);
    const RouterPreset& p = presets_.at(n);
    for (Dir d : kAllDirs) {
      clocked_in_total_ += p.in_clocked[static_cast<std::size_t>(dir_index(d))] ? 1 : 0;
      clocked_out_total_ += p.out_clocked[static_cast<std::size_t>(dir_index(d))] ? 1 : 0;
    }
  }

  flow_info_.resize(static_cast<std::size_t>(flows_.size()));
  flow_degraded_.assign(static_cast<std::size_t>(flows_.size()), 0);
  for (const Flow& f : flows_) {
    nics_[static_cast<std::size_t>(f.src)]->register_flow(f);
    validate_and_index_flow(f);
  }
}

void MeshNetwork::use_reference_kernel(bool ref) {
  SMARTNOC_CHECK(now_ == 0 && drained(),
                 "kernel switch requires a pristine network (no ticks, no traffic)");
  reference_kernel_ = ref;
  // The seed kernel predates sharding and has no epilogue: it runs
  // single-shard (the cross-pin against shards goes through the active-set
  // kernel, which is itself pinned against the reference).
  force_sharded_ = false;
  configure_shards(ref ? 1 : configured_shards_);
  // The seed kernel also selects flows by linear scan in the NICs; keeping
  // the two toggles paired lets the golden matrix cross-pin the batched
  // injector against the scan.
  for (auto& nic : nics_) nic->use_reference_scan(ref);
}

void MeshNetwork::force_sharded_path(bool on) {
  SMARTNOC_CHECK(now_ == 0 && drained(),
                 "force_sharded_path requires a pristine network (no ticks, no traffic)");
  SMARTNOC_CHECK(!reference_kernel_, "force_sharded_path conflicts with the reference kernel");
  force_sharded_ = on;
  configure_shards(configured_shards_);  // rewires the NIC sinks
}

void MeshNetwork::configure_shards(int count) {
  runtime_.reset();
  const MeshDims dims = cfg_.dims();
  const auto nodes = static_cast<std::size_t>(dims.nodes());
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(count));
  shard_of_.assign(nodes, 0);
  const std::size_t per_shard = nodes / static_cast<std::size_t>(count) + 1;
  for (int s = 0; s < count; ++s) {
    ShardState& sh = shards_[static_cast<std::size_t>(s)];
    sh.id = s;
    sh.outbox.resize(static_cast<std::size_t>(count));
    sh.active_routers.reserve(per_shard);
    sh.active_nics.reserve(per_shard);
  }
  // Column-block partition: shard s owns columns [s*W/count, (s+1)*W/count).
  // Columns keep each shard's slice contiguous in x, so only the two edge
  // columns of a shard ever ship boundary flits under dimension-ordered
  // routes.
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    shard_of_[static_cast<std::size_t>(n)] = dims.coord(n).x * count / dims.width();
  }
  // NICs defer pool/stats side effects only when the sharded protocol runs
  // (count > 1, or one shard armed for the overhead bench); the plain
  // kernel keeps direct calls on its hot path.
  const bool sharded = count > 1 || force_sharded_;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    Nic& nic = *nics_[static_cast<std::size_t>(n)];
    nic.set_shard_sink(
        sharded ? &shards_[static_cast<std::size_t>(shard_of_[static_cast<std::size_t>(n)])].sink
                : nullptr);
  }
}

void MeshNetwork::validate_and_index_flow(const Flow& flow) {
  // Statically walk the flow along the installed segments: every stop's
  // route entry must resolve to an enabled output whose segment continues
  // the walk, and the final hop must land on the destination NIC with the
  // route fully consumed. This catches preset/route mismatches at
  // construction instead of mid-simulation.
  FlowPathInfo info;
  const Segment* seg = &segments_.injection(flow.src);
  int hop = seg->bypassed;
  for (int guard = 0; guard <= cfg_.dims().nodes() + 1; ++guard) {
    if (seg->ep.is_nic) {
      if (seg->ep.node != flow.dst || hop != flow.route.entries()) {
        throw ConfigError("flow " + flow.path.str() +
                          " does not reach its destination under the installed presets");
      }
      flow_info_[static_cast<std::size_t>(flow.id)] = std::move(info);
      return;
    }
    const NodeId stop = seg->ep.node;
    info.stops.push_back(stop);
    const Dir out = flow.route.output_at(hop, seg->ep.in);
    const auto& next = segments_.output(stop, out);
    if (!next.has_value()) {
      throw ConfigError("flow " + flow.path.str() + " needs output " + dir_name(out) +
                        " at router " + std::to_string(stop) +
                        " but the presets do not arm it");
    }
    hop += 1 + next->bypassed;
    seg = &*next;
  }
  throw ConfigError("flow " + flow.path.str() + " loops under the installed presets");
}

void MeshNetwork::tick() {
  // Everything that happens exactly once per cycle lives here; the kernels
  // below only run the phases. Snapshot/diff for delta observers: every
  // ActivityCounters mutation happens inside the tick (sharded ticks fold
  // their per-shard deltas in the epilogue) and stats resets happen between
  // ticks, so the field-wise difference is exactly this tick's activity.
  ActivityCounters before;
  if (observer_wants_deltas_) before = stats_.activity();
  now_ += 1;
  if (reference_kernel_) {
    tick_reference();
  } else if (shards_.size() > 1 || force_sharded_) {
    // Observer callbacks must arrive on one thread: under an observer the
    // same sharded protocol runs shard by shard on the caller. Bit-identical
    // to the parallel path (pass order across shards is immaterial by design).
    tick_sharded(/*parallel=*/observer_ == nullptr && shards_.size() > 1);
  } else {
    run_phases(shards_.front(), stats_.activity());
  }
  // Idle-clock accounting for the power model.
  ActivityCounters& act = stats_.activity();
  act.clocked_inport_cycles += static_cast<std::uint64_t>(clocked_in_total_);
  act.clocked_outport_cycles += static_cast<std::uint64_t>(clocked_out_total_);
  if (observer_wants_deltas_) observer_->activity_delta(activity_diff(act, before), now_);
}

void MeshNetwork::run_phases(ShardState& s, ActivityCounters& act) {
  s.ticks += 1;

  // Phase 1: deliver due credits into free-VC queues (usable by SA below).
  // One wheel bucket holds exactly the credits due this cycle; credits due
  // the same cycle always target distinct free-VC queues (at most one tail
  // departs per input port / NIC per cycle), so bucket order is immaterial.
  // Wheel credits always target this shard's slice (schedule_credit parks
  // remote ones for the epilogue).
  {
    auto& bucket = s.wheel[now_ % kWheelSize];
    for (const InFlightCredit& c : bucket) {
      deliver_credit(c.target, c.vc);
    }
    s.credits_in_flight -= bucket.size();
    bucket.clear();  // keeps its capacity: no steady-state allocation
  }

  // Phases 2-5 walk only the active components. Routers may run a phase in
  // any order, but every BW must precede any ST: ST stages flits into the
  // downstream router's 2-slot staging ring, which only that router's BW of
  // the same cycle drains. So BW->ST->SA cannot be fused per router - an
  // upstream router visited first would stage a third flit (the baseline
  // mesh trips Router's staging_count < 2 check at once).
  // Index loops on purpose: deliveries within a phase can activate (append)
  // new components, which then see the remaining phases this cycle - a
  // no-op for them, since a flit latched at cycle t is only buffer-written
  // at t+1.
  // Phase 2: Buffer Write (drains staging filled in earlier cycles).
  for (std::size_t i = 0; i < s.active_routers.size(); ++i) {
    routers_[static_cast<std::size_t>(s.active_routers[i])]->buffer_write(now_, act);
  }
  // Phase 3: Switch Traversal on grants from previous cycles.
  for (std::size_t i = 0; i < s.active_routers.size(); ++i) {
    routers_[static_cast<std::size_t>(s.active_routers[i])]->switch_traversal(now_, act);
  }
  // Phase 4: Switch Allocation (grants fire ST next cycle).
  for (std::size_t i = 0; i < s.active_routers.size(); ++i) {
    routers_[static_cast<std::size_t>(s.active_routers[i])]->switch_allocation(now_, act);
  }
  // Phase 5: NIC injection (one flit per NIC per cycle).
  for (std::size_t i = 0; i < s.active_nics.size(); ++i) {
    nics_[static_cast<std::size_t>(s.active_nics[i])]->inject(now_);
  }

  // Compaction: drop components that went quiescent, preserving insertion
  // order of the survivors. Between ticks the lists are exact.
  std::size_t w = 0;
  for (std::size_t r = 0; r < s.active_routers.size(); ++r) {
    const NodeId n = s.active_routers[r];
    if (routers_[static_cast<std::size_t>(n)]->has_traffic()) {
      s.active_routers[w++] = n;
    } else {
      router_in_set_[static_cast<std::size_t>(n)] = 0;
    }
  }
  s.active_routers.resize(w);
  w = 0;
  for (std::size_t r = 0; r < s.active_nics.size(); ++r) {
    const NodeId n = s.active_nics[r];
    if (!nics_[static_cast<std::size_t>(n)]->idle()) {
      s.active_nics[w++] = n;
    } else {
      nic_in_set_[static_cast<std::size_t>(n)] = 0;
    }
  }
  s.active_nics.resize(w);
}

void MeshNetwork::tick_sharded(bool parallel) {
  if (parallel) {
    if (runtime_ == nullptr) {
      runtime_ = std::make_unique<ShardRuntime>(
          static_cast<int>(shards_.size()), [this](int shard, int pass) {
            ShardState& s = shards_[static_cast<std::size_t>(shard)];
            if (pass == 0) {
              shard_pass_a(s);
            } else {
              shard_pass_b(s);
            }
          });
    }
    runtime_->run_tick();
  } else {
    // Sequential variant: same passes, shard order on one thread. Used
    // under observers (callbacks on the caller), for the armed-overhead
    // bench at one shard, and as the determinism cross-check in tests.
    for (ShardState& s : shards_) shard_pass_a(s);
    for (ShardState& s : shards_) shard_pass_b(s);
  }
  shard_epilogue();
}

void MeshNetwork::shard_pass_a(ShardState& s) {
  // The single-shard phases over this shard's slice; activity lands in the
  // shard's delta, and deliveries/credits that leave the slice are deferred
  // to mailboxes via tl_shard (see deliver() and schedule_credit()).
  tl_shard = &s;
  if (span_tracer_ != nullptr && s.span_chunk_ticks == 0) {
    s.span_chunk_start_us = span_tracer_->now_us();
  }
  run_phases(s, s.act);
  tl_shard = nullptr;
}

void MeshNetwork::shard_pass_b(ShardState& s) {
  // Drain the inboxes addressed to this shard in source-shard order:
  // deterministic regardless of thread timing, and order-free in substance
  // (distinct events touch distinct input ports / receive VCs - at most one
  // flit reaches any port per cycle). Applying a boundary flit here leaves
  // exactly the state a local mid-phase delivery would have: the staged
  // flit's arrival stamp blocks same-cycle pickup, so the skipped phases
  // were no-ops for it.
  tl_shard = &s;
  for (ShardState& src : shards_) {
    auto& inbox = src.outbox[static_cast<std::size_t>(s.id)];
    for (const ShardFlitEvent& ev : inbox) {
      if (ev.ep.is_nic) {
        Nic& nic = *nics_[static_cast<std::size_t>(ev.ep.node)];
        nic.accept_flit(ev.flit, ev.arrival);
        // A tail consumed on arrival leaves the NIC idle: activating it
        // would keep it (and drained()) alive one tick longer than the
        // single-threaded kernel - activate only when work remains.
        if (!nic.idle()) activate_nic(ev.ep.node);
      } else {
        routers_[static_cast<std::size_t>(ev.ep.node)]->accept_flit(ev.ep.in, ev.flit,
                                                                    ev.arrival);
        activate_router(ev.ep.node);  // staged flit: has_traffic() by definition
      }
    }
    inbox.clear();  // reader-cleared; the source is not touching it in pass B
  }
  tl_shard = nullptr;

  if (span_tracer_ != nullptr) {
    s.span_chunk_ticks += 1;
    if (s.span_chunk_ticks >= kSpanChunkTicks) close_span_chunk(*span_tracer_, span_base_lane_, s);
  }
}

void MeshNetwork::shard_epilogue() {
  // Serial tail of a sharded tick (coordinating thread, after the second
  // barrier). Everything here is commutative or replayed in fixed shard
  // order, so global state between ticks is canonical - byte-identical to
  // the single-threaded kernel's.
  ActivityCounters& act = stats_.activity();
  for (ShardState& s : shards_) {
    // Boundary credits into their owners' wheels. Credits are due >= now+1
    // and the owner pops its bucket at the top of the next tick, so routing
    // them here costs no cycles of latency.
    for (const ShardRemoteCredit& rc : s.remote_credits) {
      ShardState& owner = shards_[static_cast<std::size_t>(rc.owner)];
      owner.wheel[rc.credit.due % kWheelSize].push_back(rc.credit);
      owner.credits_in_flight += 1;
    }
    s.remote_credits.clear();
  }
  // Refcount replay: every shard's adds before any release, so a slot whose
  // flits are still in flight never transiently reads free.
  for (ShardState& s : shards_) {
    for (const PacketSlot slot : s.sink.pool_add_refs) pool_.add_ref(slot);
  }
  for (ShardState& s : shards_) {
    for (const ShardSink::Delivery& d : s.sink.deliveries) {
      stats_.record_packet(d.flow, d.flits, d.created, d.injected, d.head_arrival,
                           d.tail_arrival);
    }
    for (const PacketSlot slot : s.sink.pool_releases) pool_.release(slot);
    s.sink.clear();
    act.add(s.act);
    s.act.reset();
  }
}

std::vector<MeshNetwork::ShardTelemetry> MeshNetwork::shard_telemetry() const {
  std::vector<ShardTelemetry> out(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    out[k].ticks = shards_[k].ticks;
    out[k].boundary_flits = shards_[k].boundary_flits;
    out[k].barrier_wait_seconds =
        runtime_ != nullptr ? runtime_->barrier_wait_seconds(static_cast<int>(k)) : 0.0;
  }
  return out;
}

void MeshNetwork::set_span_tracer(obs::SpanTracer* tracer, int base_lane) {
  if (span_tracer_ != nullptr) {
    // Flush partial tick batches so a detach (or tracer swap) loses nothing.
    for (ShardState& s : shards_) {
      if (s.span_chunk_ticks > 0) close_span_chunk(*span_tracer_, span_base_lane_, s);
    }
  }
  span_tracer_ = tracer;
  span_base_lane_ = base_lane;
  if (tracer != nullptr) {
    for (const ShardState& s : shards_) {
      tracer->set_lane_name(base_lane + s.id, "shard " + std::to_string(s.id));
    }
  }
}

void MeshNetwork::tick_reference() {
  // The seed's cycle loop, kept verbatim as the golden reference: linear
  // credit scan, every router and NIC ticked every cycle.
  for (std::size_t k = 0; k < ref_credits_.size();) {
    if (ref_credits_[k].due <= now_) {
      const InFlightCredit c = ref_credits_[k];
      ref_credits_[k] = ref_credits_.back();
      ref_credits_.pop_back();
      deliver_credit(c.target, c.vc);
    } else {
      ++k;
    }
  }

  ActivityCounters& act = stats_.activity();
  for (auto& r : routers_) r->buffer_write(now_, act);
  for (auto& r : routers_) r->switch_traversal(now_, act);
  for (auto& r : routers_) r->switch_allocation(now_, act);
  for (auto& n : nics_) n->inject(now_);
}

void MeshNetwork::offer_packet(FlowId flow, Cycle created) {
  const Flow& f = flows_.at(flow);
  stats_.faults().packets_offered += 1;
  if (observer_ != nullptr) observer_->packet_offered(flow, f.src, created);
  if (flow_degraded(flow)) {
    // Unreachable destination: the offer is accounted (offered + dropped)
    // without ever entering the network - graceful degradation, not a hang.
    stats_.record_drop(flow);
    if (observer_ != nullptr) observer_->packet_dropped(flow, f.src, created);
    return;
  }
  const PacketSlot slot = pool_.alloc();
  PacketPayload& pkt = pool_.at(slot);
  pkt.id = next_packet_id_++;
  pkt.flow = flow;
  pkt.src = f.src;
  pkt.dst = f.dst;
  pkt.flits = cfg_.flits_per_packet();
  pkt.route = f.route;
  pkt.created = created;
  pkt.injected = 0;
  nics_[static_cast<std::size_t>(f.src)]->offer_packet(slot);
  activate_nic(f.src);
}

bool MeshNetwork::drained() const {
  if (reference_kernel_) {
    // Seed behavior: a full scan of every component.
    if (!ref_credits_.empty()) return false;
    for (const auto& r : routers_) {
      if (r->has_traffic()) return false;
    }
    for (const auto& n : nics_) {
      if (!n->idle()) return false;
    }
    return true;
  }
  // Active-set invariant (post-compaction): the lists hold exactly the
  // routers with traffic and the non-idle NICs. Mailboxes and sinks are
  // always drained by the end of a tick, so shards add no extra terms.
  for (const ShardState& s : shards_) {
    if (s.credits_in_flight != 0 || !s.active_routers.empty() || !s.active_nics.empty()) {
      return false;
    }
  }
  return true;
}

void MeshNetwork::deliver(const Segment& seg, FlitRef flit, Cycle now, bool from_router) {
  ShardState* const sh = tl_shard;
  ActivityCounters& act = sh != nullptr ? sh->act : stats_.activity();
  act.xbar_flit_traversals += static_cast<std::uint64_t>(seg.bypassed + (from_router ? 1 : 0));
  act.link_flit_mm += static_cast<std::uint64_t>(seg.mm);
  act.pipeline_latches += 1;
  flit.hop_index = static_cast<std::uint8_t>(flit.hop_index + seg.bypassed + (from_router ? 1 : 0));
  // Baseline mesh: a flit leaving a router spends one extra cycle on the
  // link (the paper's "+1 cycle in link"); SMART absorbs the entire segment
  // into the ST cycle. NIC injection stubs are 1-cycle in both designs.
  const Cycle arrival = now + ((from_router && opt_.extra_link_cycle) ? 1 : 0);
  if (observer_ != nullptr) observer_->segment_traversed(seg, flit, pool_, now, arrival);
  if (sh != nullptr) {
    // Sharded pass: the endpoint may belong to another slice. The whole
    // segment is already resolved (activity charged, hop_index advanced,
    // arrival stamped) - a SMART bypass chain crossing several shards is
    // one mailbox event, not a per-shard arbitration exchange.
    const int owner = shard_of_[static_cast<std::size_t>(seg.ep.node)];
    if (owner != sh->id) {
      sh->outbox[static_cast<std::size_t>(owner)].push_back(ShardFlitEvent{seg.ep, flit, arrival});
      sh->boundary_flits += 1;
      return;
    }
  }
  if (seg.ep.is_nic) {
    nics_[static_cast<std::size_t>(seg.ep.node)]->accept_flit(flit, arrival);
    activate_nic(seg.ep.node);
  } else {
    routers_[static_cast<std::size_t>(seg.ep.node)]->accept_flit(seg.ep.in, flit, arrival);
    activate_router(seg.ep.node);
  }
}

void MeshNetwork::deliver_from_router(NodeId router, Dir out_dir, FlitRef flit, Cycle now) {
  const auto& seg = segments_.output(router, out_dir);
  SMARTNOC_CHECK(seg.has_value(), "switch traversal on an output without a segment");
  deliver(*seg, flit, now, /*from_router=*/true);
}

void MeshNetwork::deliver_from_nic(NodeId nic_node, FlitRef flit, Cycle now) {
  deliver(segments_.injection(nic_node), flit, now, /*from_router=*/false);
}

void MeshNetwork::schedule_credit(const SegOrigin& target, VcId vc, Cycle due, int mm,
                                  int xbar_hops) {
  ShardState* const sh = tl_shard;
  ActivityCounters& act = sh != nullptr ? sh->act : stats_.activity();
  act.link_credit_mm += static_cast<std::uint64_t>(mm);
  act.xbar_credit_traversals += static_cast<std::uint64_t>(xbar_hops);
  if (reference_kernel_) {
    ref_credits_.push_back(InFlightCredit{due, target, vc});
    return;
  }
  SMARTNOC_CHECK(due > now_ && due - now_ < kWheelSize, "credit due beyond the wheel horizon");
  if (sh != nullptr) {
    // A credit for an origin outside this slice is parked on the shard and
    // routed into the owner's wheel by the serial epilogue (due >= now+1,
    // so the detour costs nothing). Wheels are single-writer this way.
    const int owner = shard_of_[static_cast<std::size_t>(target.node)];
    if (owner != sh->id) {
      sh->remote_credits.push_back(ShardRemoteCredit{InFlightCredit{due, target, vc}, owner});
      return;
    }
    sh->wheel[due % kWheelSize].push_back(InFlightCredit{due, target, vc});
    sh->credits_in_flight += 1;
    return;
  }
  ShardState& s0 = shards_.front();
  s0.wheel[due % kWheelSize].push_back(InFlightCredit{due, target, vc});
  s0.credits_in_flight += 1;
}

void MeshNetwork::deliver_credit(const SegOrigin& target, VcId vc) {
  if (target.is_nic) {
    nics_[static_cast<std::size_t>(target.node)]->credit_arrived(vc);
  } else {
    routers_[static_cast<std::size_t>(target.node)]->credit_arrived(target.out, vc);
  }
}

void MeshNetwork::credit_from_router_input(NodeId router, Dir in_dir, VcId vc, Cycle now) {
  const auto& target = segments_.credit_target_router_input(router, in_dir);
  SMARTNOC_CHECK(target.has_value(), "freed VC on an input with no feeder");
  const Cycle due = now + 1 + (opt_.extra_link_cycle ? 1 : 0);
  schedule_credit(*target, vc, due, segments_.credit_mm_router_input(router, in_dir),
                  segments_.credit_xbar_hops_router_input(router, in_dir));
}

void MeshNetwork::credit_from_nic(NodeId nic_node, VcId vc, Cycle now) {
  const auto& target = segments_.credit_target_nic(nic_node);
  SMARTNOC_CHECK(target.has_value(), "NIC freed a VC but has no feeder");
  const Cycle due = now + 1 + (opt_.extra_link_cycle ? 1 : 0);
  schedule_credit(*target, vc, due, segments_.credit_mm_nic(nic_node),
                  segments_.credit_xbar_hops_nic(nic_node));
}

// --- Online fault injection --------------------------------------------------
//
// All surgery happens between ticks and is shared verbatim by both cycle
// kernels, so fault runs stay bit-identical (pinned by the golden matrix).
// The sequence for a structural change is always: preset surgery -> purge
// the flows whose latch structure changed -> rebuild the segment table and
// re-derive every credit queue from actual endpoint occupancy.

void MeshNetwork::apply_fault_action(const FaultAction& action) {
  switch (action.kind) {
    case FaultAction::Kind::Kill:
      apply_link_kill(action.node, action.dir);
      break;
    case FaultAction::Kind::Repair:
      apply_link_repair(action.node, action.dir);
      break;
    case FaultAction::Kind::Stall:
      // A stalled router keeps latching and streaming; only new switch
      // grants freeze. No activation needed: a router holding traffic is
      // already in the active set by invariant.
      routers_[static_cast<std::size_t>(action.node)]->stall_until(action.until);
      stats_.faults().router_stalls += 1;
      break;
  }
}

bool MeshNetwork::truncate_chain(NodeId start, Dir entry, LinkSet& changed) {
  const MeshDims dims = cfg_.dims();
  NodeId cur = start;
  Dir in_dir = entry;
  bool flipped = false;
  for (int guard = 0; guard <= dims.nodes() + 1; ++guard) {
    RouterPreset& p = presets_.at(cur);
    if (p.input_mux[idx(in_dir)] != InputMux::Bypass) break;
    // The unique crosspoint forwarding this input (uniqueness is validated
    // by the segment walk that built the live table).
    std::optional<Dir> exit;
    for (Dir o : kAllDirs) {
      const XbarSel& sel = p.xbar[idx(o)];
      if (sel.kind == XbarSel::Kind::FromLink && sel.link == in_dir) {
        exit = o;
        break;
      }
    }
    SMARTNOC_CHECK(exit.has_value(), "bypass input with no crosspoint during fault surgery");
    // Flipping this router shortens the upstream segment: its feeder link
    // now ends at a new latch point, so flows over it must purge too.
    if (in_dir != Dir::Core && dims.has_neighbor(cur, in_dir)) {
      changed.insert({dims.neighbor(cur, in_dir), dir_index(opposite(in_dir))});
    }
    p.input_mux[idx(in_dir)] = InputMux::Buffer;
    p.in_clocked[idx(in_dir)] = true;
    p.credit_xbar[idx(in_dir)] = XbarSel{XbarSel::Kind::Off, Dir::Core};
    p.xbar[idx(*exit)] = XbarSel{XbarSel::Kind::FromRouter, Dir::Core};
    p.out_clocked[idx(*exit)] = true;
    routers_[static_cast<std::size_t>(cur)]->set_output_enabled(*exit, true);
    flipped = true;
    if (*exit == Dir::Core) break;  // was bypassing straight into this tile's NIC
    changed.insert({cur, dir_index(*exit)});
    cur = dims.neighbor(cur, *exit);
    in_dir = opposite(*exit);
  }
  if (flipped) stats_.faults().chains_truncated += 1;
  return flipped;
}

void MeshNetwork::truncate_covering_chain(NodeId node, Dir entry, LinkSet& changed) {
  // Walk the presets backward to the chain's first bypassed input, then
  // truncate forward from there. The presets are authoritative here - the
  // segment table is stale mid-surgery.
  const MeshDims dims = cfg_.dims();
  NodeId cur = node;
  Dir in_dir = entry;
  for (int guard = 0; guard <= dims.nodes() + 1; ++guard) {
    if (in_dir == Dir::Core) break;  // fed by this tile's NIC: chain head reached
    if (!dims.has_neighbor(cur, in_dir)) break;
    const NodeId prev = dims.neighbor(cur, in_dir);
    const XbarSel& sel = presets_.at(prev).xbar[idx(opposite(in_dir))];
    if (sel.kind != XbarSel::Kind::FromLink) break;  // prev is the chain's origin router
    cur = prev;
    in_dir = sel.link;
  }
  truncate_chain(cur, in_dir, changed);
}

FaultSet MeshNetwork::structural_faults() const {
  // Live faults plus every link embedded in bypass structure: a link out of
  // a preset crosspoint, or into a bypassed input, cannot carry buffered
  // hop-by-hop traffic without truncating someone's chain. The first
  // reroute pass treats those as failed, preferring detours that leave
  // other flows' chains intact.
  const MeshDims dims = cfg_.dims();
  FaultSet eff = live_faults_;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    const RouterPreset& p = presets_.at(n);
    for (Dir d : kMeshDirs) {
      if (!dims.has_neighbor(n, d)) continue;
      if (p.xbar[idx(d)].kind == XbarSel::Kind::FromLink) {
        eff.fail_link(dims, n, d, /*both_directions=*/false);
      }
      if (p.input_mux[idx(d)] == InputMux::Bypass) {
        eff.fail_link(dims, dims.neighbor(n, d), opposite(d), /*both_directions=*/false);
      }
    }
  }
  return eff;
}

void MeshNetwork::arm_path(const RoutePath& path, LinkSet& changed) {
  const MeshDims dims = cfg_.dims();
  NodeId cur = path.src;
  Dir arrived = Dir::Core;  // the source router is entered from its NIC
  for (Dir d : path.links) {
    // The flow stops at every router of the path: un-bypass any chain
    // running through its arrival port, free its output toward `d`, and
    // make sure the far end latches. truncate_covering_chain mutates
    // presets_, so selections are re-read after each call.
    if (presets_.at(cur).input_mux[idx(arrived)] == InputMux::Bypass) {
      truncate_covering_chain(cur, arrived, changed);
    }
    if (presets_.at(cur).xbar[idx(d)].kind == XbarSel::Kind::FromLink) {
      truncate_covering_chain(cur, presets_.at(cur).xbar[idx(d)].link, changed);
    }
    if (presets_.at(cur).xbar[idx(d)].kind == XbarSel::Kind::Off) {
      presets_.at(cur).xbar[idx(d)] = XbarSel{XbarSel::Kind::FromRouter, Dir::Core};
    }
    presets_.at(cur).out_clocked[idx(d)] = true;
    routers_[static_cast<std::size_t>(cur)]->set_output_enabled(d, true);
    const NodeId nxt = dims.neighbor(cur, d);
    const Dir far = opposite(d);
    if (presets_.at(nxt).input_mux[idx(far)] == InputMux::Bypass) {
      truncate_covering_chain(nxt, far, changed);
    }
    presets_.at(nxt).in_clocked[idx(far)] = true;
    cur = nxt;
    arrived = far;
  }
  // Ejection at the destination router.
  if (presets_.at(cur).xbar[idx(Dir::Core)].kind == XbarSel::Kind::FromLink) {
    truncate_covering_chain(cur, presets_.at(cur).xbar[idx(Dir::Core)].link, changed);
  }
  if (presets_.at(cur).xbar[idx(Dir::Core)].kind == XbarSel::Kind::Off) {
    presets_.at(cur).xbar[idx(Dir::Core)] = XbarSel{XbarSel::Kind::FromRouter, Dir::Core};
  }
  presets_.at(cur).out_clocked[idx(Dir::Core)] = true;
  routers_[static_cast<std::size_t>(cur)]->set_output_enabled(Dir::Core, true);
}

bool MeshNetwork::reroute_flow(FlowId id, LinkSet& changed) {
  const NodeId src = flows_.at(id).src;
  const NodeId dst = flows_.at(id).dst;
  // The source's injection chain (if any) is preset toward the old route;
  // truncating it hands route control back to the source router.
  truncate_chain(src, Dir::Core, changed);
  auto try_route = [&](const FaultSet& faults) {
    std::optional<RoutePath> path =
        route_around_faults(cfg_.dims(), src, dst, TurnModel::XY, faults);
    if (!path.has_value()) return false;
    try {
      flows_.update_route(id, std::move(*path));
    } catch (const ConfigError&) {
      return false;  // detour too long for the 31-entry route header
    }
    return true;
  };
  // Pass 1 also routes around other flows' live bypass structure; pass 2
  // sacrifices chains when that is the only way through.
  if (!try_route(structural_faults()) && !try_route(live_faults_)) return false;
  arm_path(flows_.at(id).path, changed);
  nics_[static_cast<std::size_t>(src)]->rewrite_queued_routes(id, flows_.at(id).route);
  stats_.faults().flows_rerouted += 1;
  return true;
}

void MeshNetwork::purge_and_requeue(const std::vector<std::uint8_t>& affected) {
  if (std::none_of(affected.begin(), affected.end(), [](std::uint8_t b) { return b != 0; })) {
    return;
  }
  // Sweep routers then NICs in node order (deterministic across kernels).
  // The first reference encountered per packet is *kept* as a pin so the
  // slot survives the sweep; all later references release.
  std::vector<std::uint8_t> pinned(pool_.capacity(), 0);
  std::vector<PacketSlot> candidates;
  auto keep_or_release = [&](PacketSlot s) {
    if (pinned[s] == 0) {
      pinned[s] = 1;
      candidates.push_back(s);
    } else {
      pool_.release(s);
    }
  };
  const NodeId nodes = cfg_.dims().nodes();
  for (NodeId n = 0; n < nodes; ++n) {
    routers_[static_cast<std::size_t>(n)]->purge_flows(affected, [&](const FlitRef& f) {
      stats_.faults().flits_purged += 1;
      keep_or_release(f.slot);
    });
  }
  for (NodeId n = 0; n < nodes; ++n) {
    // An affected active transmission cancels; its transmit reference
    // becomes the pin (or folds into an existing one).
    nics_[static_cast<std::size_t>(n)]->purge_flows(affected, keep_or_release);
  }
  // Every recovered packet is dropped (flow degraded / retry budget spent)
  // or re-queued at the front of its source queue with exponential backoff.
  // Descending id order + push_front leaves each queue oldest-first.
  std::sort(candidates.begin(), candidates.end(), [&](PacketSlot a, PacketSlot b) {
    return pool_.at(a).id > pool_.at(b).id;
  });
  for (PacketSlot s : candidates) {
    PacketPayload& pkt = pool_.at(s);
    const FlowId fl = pkt.flow;
    const NodeId src = pkt.src;
    if (flow_degraded(fl) || static_cast<int>(pkt.attempts) + 1 > cfg_.retry_limit) {
      stats_.record_drop(fl);
      if (observer_ != nullptr) observer_->packet_dropped(fl, src, now_);
      pool_.release(s);  // drops the pin; the slot recycles
    } else {
      pkt.attempts += 1;
      pkt.injected = 0;
      pkt.route = flows_.at(fl).route;  // pick up any online reroute
      const int shift = std::min(static_cast<int>(pkt.attempts) - 1, 10);
      nics_[static_cast<std::size_t>(src)]->requeue_front(
          s, now_ + (cfg_.retry_backoff_cycles << shift));
      stats_.record_retransmit(fl);
      if (observer_ != nullptr) observer_->packet_retransmitted(fl, src, now_);
    }
  }
}

void MeshNetwork::rebuild_after_surgery() {
  const MeshDims dims = cfg_.dims();
  // Fresh segment table: its constructor re-validates the post-surgery
  // presets wholesale (no dangling bypass, credit mirror intact).
  segments_ = SegmentTable(dims, cfg_, presets_, opt_.hpc_max);
  // Every surviving flow must still statically reach its destination under
  // the new presets (degraded flows hold stale routes until revived).
  for (const Flow& f : flows_) {
    if (flow_degraded(f.id)) continue;
    validate_and_index_flow(f);
  }
  // Global credit recompute: every origin's free-VC queue is re-derived
  // from what actually occupies its (possibly new) endpoint. In-flight
  // credits are discarded - their VCs are simply not busy anymore.
  for (ShardState& s : shards_) {
    for (auto& bucket : s.wheel) bucket.clear();
    s.credits_in_flight = 0;
    s.remote_credits.clear();
  }
  ref_credits_.clear();
  const int vcs = cfg_.vcs_per_port;
  auto mark_endpoint = [&](const Endpoint& ep, std::array<bool, 16>& busy) {
    if (ep.is_nic) {
      nics_[static_cast<std::size_t>(ep.node)]->mark_busy_receive_vcs(busy);
    } else {
      routers_[static_cast<std::size_t>(ep.node)]->mark_busy_input_vcs(ep.in, busy);
    }
  };
  clocked_in_total_ = 0;
  clocked_out_total_ = 0;
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    Router& router = *routers_[static_cast<std::size_t>(n)];
    std::array<bool, 16> nic_busy{};
    mark_endpoint(segments_.injection(n).ep, nic_busy);
    if (const auto v = nics_[static_cast<std::size_t>(n)]->active_tx_vc()) {
      nic_busy[static_cast<std::size_t>(*v)] = true;
    }
    nics_[static_cast<std::size_t>(n)]->reset_source_credits(vcs, nic_busy);
    const RouterPreset& p = presets_.at(n);
    for (Dir o : kAllDirs) {
      const bool armed = p.xbar[idx(o)].kind == XbarSel::Kind::FromRouter;
      router.set_output_enabled(o, armed);
      std::array<bool, 16> busy{};
      if (armed) {
        const auto& seg = segments_.output(n, o);
        SMARTNOC_CHECK(seg.has_value(), "armed output lost its segment in fault surgery");
        mark_endpoint(seg->ep, busy);
        if (const auto held = router.hold_out_vc(o)) {
          busy[static_cast<std::size_t>(*held)] = true;
        }
      } else {
        SMARTNOC_CHECK(!router.hold_out_vc(o).has_value(),
                       "disarmed output still streaming a switch hold");
      }
      router.reset_output_credits(o, vcs, busy);
      clocked_in_total_ += p.in_clocked[idx(o)] ? 1 : 0;
      clocked_out_total_ += p.out_clocked[idx(o)] ? 1 : 0;
    }
  }
  // Active sets rebuilt from scratch in node order. The reference kernel
  // ignores them; node order makes the rebuilt lists independent of the
  // activation history, so post-fault cycles stay kernel- and
  // shard-count-identical (each shard's list comes out in node order too).
  std::fill(router_in_set_.begin(), router_in_set_.end(), 0);
  std::fill(nic_in_set_.begin(), nic_in_set_.end(), 0);
  for (ShardState& s : shards_) {
    s.active_routers.clear();
    s.active_nics.clear();
  }
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    if (routers_[static_cast<std::size_t>(n)]->has_traffic()) activate_router(n);
    if (!nics_[static_cast<std::size_t>(n)]->idle()) activate_nic(n);
  }
}

void MeshNetwork::apply_link_kill(NodeId node, Dir dir) {
  const MeshDims dims = cfg_.dims();
  SMARTNOC_CHECK(dir != Dir::Core && dims.has_neighbor(node, dir),
                 "fault injected on a link off the mesh");
  if (live_faults_.is_failed(node, dir)) return;  // double kill: no-op
  live_faults_.fail_link(dims, node, dir, /*both_directions=*/true);
  stats_.faults().link_kills += 1;

  const NodeId peer = dims.neighbor(node, dir);
  const std::array<std::pair<NodeId, Dir>, 2> dead = {
      std::pair<NodeId, Dir>{node, dir}, {peer, opposite(dir)}};

  LinkSet changed;
  // 1) Any bypass chain crossing either direction of the dead wire
  //    truncates to hop-by-hop around it.
  for (const auto& [x, dx] : dead) {
    const NodeId y = dims.neighbor(x, dx);
    const Dir ey = opposite(dx);
    if (presets_.at(y).input_mux[idx(ey)] == InputMux::Bypass) {
      truncate_covering_chain(y, ey, changed);
    } else if (presets_.at(x).xbar[idx(dx)].kind == XbarSel::Kind::FromLink) {
      truncate_covering_chain(x, presets_.at(x).xbar[idx(dx)].link, changed);
    }
  }
  // 2) Disarm the dead wire itself: no crosspoint drives it, no latch
  //    listens, switch allocation never grants it.
  for (const auto& [x, dx] : dead) {
    const NodeId y = dims.neighbor(x, dx);
    RouterPreset& px = presets_.at(x);
    px.xbar[idx(dx)] = XbarSel{XbarSel::Kind::Off, Dir::Core};
    px.out_clocked[idx(dx)] = false;
    routers_[static_cast<std::size_t>(x)]->set_output_enabled(dx, false);
    presets_.at(y).in_clocked[idx(opposite(dx))] = false;
    changed.insert({x, dir_index(dx)});
  }
  // 3) Flows routed over the dead wire recompute their source routes
  //    online; unreachable destinations degrade gracefully.
  LinkSet dead_links;
  for (const auto& [x, dx] : dead) dead_links.insert({x, dir_index(dx)});
  std::vector<std::uint8_t> affected(static_cast<std::size_t>(flows_.size()), 0);
  std::vector<FlowId> newly_degraded;
  for (const Flow& f : flows_) {
    if (flow_degraded(f.id)) continue;
    if (!path_crosses(f.path, dims, dead_links)) continue;
    affected[static_cast<std::size_t>(f.id)] = 1;
    if (!reroute_flow(f.id, changed)) {
      flow_degraded_[static_cast<std::size_t>(f.id)] = 1;
      stats_.faults().flows_failed += 1;
      newly_degraded.push_back(f.id);
    }
  }
  // 4) Innocent flows crossing a re-segmented link face a changed latch
  //    structure mid-packet: purge and retransmit them too.
  for (const Flow& f : flows_) {
    if (affected[static_cast<std::size_t>(f.id)] != 0 || flow_degraded(f.id)) continue;
    if (path_crosses(f.path, dims, changed)) affected[static_cast<std::size_t>(f.id)] = 1;
  }
  purge_and_requeue(affected);
  // Degraded flows also flush their source queues (dropped, not stuck).
  for (FlowId id : newly_degraded) {
    const NodeId src = flows_.at(id).src;
    nics_[static_cast<std::size_t>(src)]->drop_flow_queue(id, [&](PacketSlot s) {
      stats_.record_drop(id);
      if (observer_ != nullptr) observer_->packet_dropped(id, src, now_);
      pool_.release(s);
    });
  }
  rebuild_after_surgery();
}

void MeshNetwork::apply_link_repair(NodeId node, Dir dir) {
  const MeshDims dims = cfg_.dims();
  if (!live_faults_.is_failed(node, dir)) return;
  live_faults_.repair_link(dims, node, dir, /*both_directions=*/true);
  stats_.faults().link_repairs += 1;

  LinkSet changed;
  const NodeId peer = dims.neighbor(node, dir);
  const std::array<std::pair<NodeId, Dir>, 2> wires = {
      std::pair<NodeId, Dir>{node, dir}, {peer, opposite(dir)}};
  // Restore the wire as a plain buffered hop-by-hop link. Chains that were
  // truncated around the fault stay truncated, and rerouted flows keep
  // their detours: repair restores capacity, not the original presets.
  for (const auto& [x, dx] : wires) {
    const NodeId y = dims.neighbor(x, dx);
    const Dir ey = opposite(dx);
    if (presets_.at(y).input_mux[idx(ey)] == InputMux::Bypass) {
      truncate_covering_chain(y, ey, changed);  // orphaned chain tail, if any
    }
    presets_.at(x).xbar[idx(dx)] = XbarSel{XbarSel::Kind::FromRouter, Dir::Core};
    presets_.at(x).out_clocked[idx(dx)] = true;
    routers_[static_cast<std::size_t>(x)]->set_output_enabled(dx, true);
    presets_.at(y).in_clocked[idx(ey)] = true;
  }
  // Degraded flows whose destination is reachable again revive.
  for (const Flow& f : flows_) {
    if (!flow_degraded(f.id)) continue;
    if (reroute_flow(f.id, changed)) {
      flow_degraded_[static_cast<std::size_t>(f.id)] = 0;
      stats_.faults().flows_revived += 1;
    }
  }
  // Re-arming may have truncated chains under innocent flows.
  std::vector<std::uint8_t> affected(static_cast<std::size_t>(flows_.size()), 0);
  for (const Flow& f : flows_) {
    if (flow_degraded(f.id)) continue;
    if (path_crosses(f.path, dims, changed)) affected[static_cast<std::size_t>(f.id)] = 1;
  }
  purge_and_requeue(affected);
  rebuild_after_surgery();
}

StallReport MeshNetwork::stall_report() const {
  StallReport r;
  r.cycle = now_;
  r.live_packets = pool_.live();
  const NodeId nodes = cfg_.dims().nodes();
  for (NodeId n = 0; n < nodes; ++n) {
    r.queued_packets +=
        static_cast<std::uint64_t>(nics_[static_cast<std::size_t>(n)]->queued_packets());
    r.retry_waiting +=
        static_cast<std::uint64_t>(nics_[static_cast<std::size_t>(n)]->retry_waiting(now_));
    r.occupied_vcs += routers_[static_cast<std::size_t>(n)]->occupied_vcs();
    if (routers_[static_cast<std::size_t>(n)]->has_traffic()) r.stuck_routers.push_back(n);
  }
  for (const std::uint8_t d : flow_degraded_) r.degraded_flows += d != 0 ? 1 : 0;
  for (const auto& link : live_faults_.links()) r.live_faults.push_back(link);
  for (PacketSlot s = 0; s < static_cast<PacketSlot>(pool_.capacity()); ++s) {
    if (pool_.refs(s) == 0) continue;
    const PacketPayload& pkt = pool_.at(s);
    if (!r.have_oldest || pkt.created < r.oldest_packet_created) {
      r.have_oldest = true;
      r.oldest_packet_id = pkt.id;
      r.oldest_packet_flow = pkt.flow;
      r.oldest_packet_created = pkt.created;
    }
  }
  return r;
}

std::unique_ptr<MeshNetwork> make_baseline_mesh(const NocConfig& cfg, FlowSet flows) {
  MeshNetwork::Options opt;
  opt.extra_link_cycle = true;
  opt.hpc_max = 1;  // every hop stops; segments are single links
  return std::make_unique<MeshNetwork>(cfg, std::move(flows), PresetTable::all_buffer(cfg.dims()),
                                       opt);
}

}  // namespace smartnoc::noc

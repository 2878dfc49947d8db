//! The native backend's per-worker [`RunCtx`] implementation, shared by both
//! delivery topologies.
//!
//! The context owns everything a worker thread touches per item — aggregator,
//! RNG, counters, local-bypass batches, the mesh overflow stash — and routes
//! emitted messages to the run's delivery plane: the collector channel on the
//! star, the per-pair SPSC rings on the mesh.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use metrics::{Counters, LatencyRecorder, QuantileSketch};
use net_model::{ProcId, WorkerId};
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::{SlabArena, SlabHandle};
use sim_core::StreamRng;
use tramlib::{
    AdaptiveTimeout, Aggregator, EmitReason, EmittedMessage, Item, MessageDest, OutboundMessage,
    Owner, Scheme, SlabSealed, TramStats,
};

use super::{Batch, Envelope, Plane, Shared, Spent, SPARE_BATCHES};

/// Upper bound, in consecutive *idle* loop iterations, of the stash retry
/// backoff (see [`NativeWorkerCtx::flush_stash_backoff`]).  The mesh loop
/// resets the skip on every iteration that did other work — a busy
/// iteration spans a whole inbox quantum, so skipping across them would
/// starve consumers of stashed envelopes — which leaves the backoff
/// spanning only idle yield/nap spins.  Those are microseconds even at the
/// nap cap, so 32 keeps worst-case retry latency well under a scheduling
/// quantum while cutting an idle spinner's failed ring probes ~30×.
pub(crate) const STASH_BACKOFF_MAX: u32 = 32;

/// The native backend's [`RunCtx`] implementation, one per worker thread.
pub(crate) struct NativeWorkerCtx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) me: WorkerId,
    pub(crate) my_proc: ProcId,
    /// Worker-owned aggregator (None under PP, where the process-shared claim
    /// buffers take its place).
    pub(crate) aggregator: Option<Aggregator<Payload>>,
    pub(crate) rng: StreamRng,
    pub(crate) counters: Counters,
    pub(crate) latency: LatencyRecorder,
    /// Application-level latency samples (`RunCtx::record_app_latency`);
    /// merged across workers into the report's structured latency summary.
    pub(crate) app_latency: LatencyRecorder,
    /// TramLib statistics for the PP path, which bypasses the `Aggregator`
    /// type (the claim buffers do the buffering).
    pub(crate) pp_stats: TramStats,
    /// Whether the flush policy has a timeout at all (lets the per-iteration
    /// timeout poll exit without reading the clock when it does not).
    pub(crate) has_timeout: bool,
    /// PP only: wall-clock stamp of the oldest insert this worker has made
    /// into the shared claim buffers since the last flush it observed.  The
    /// claim buffers keep no per-item timestamps, so the timeout poll works
    /// from this sender-side watermark instead.
    pub(crate) pp_oldest_ns: Option<u64>,
    /// PP only: this worker's adaptive-timeout controller (worker-owned
    /// aggregators embed their own inside `tramlib`).
    pub(crate) pp_adaptive: Option<AdaptiveTimeout>,
    /// PP only: per-destination-process staged runs, at most `g` items each.
    /// A run enters its shared claim buffer with one
    /// [`shmem::ClaimBuffer::insert_slice`] when it fills, at the end of
    /// every scheduling iteration ([`NativeWorkerCtx::push_pp_runs`]) and
    /// before every flush, so the buffer's two atomics are paid per run
    /// instead of per item.
    pp_runs: Vec<Batch>,
    /// Per-destination-worker local-bypass batches (same-process traffic),
    /// indexed by destination worker.  Shipped when a batch reaches
    /// `local_batch_items` or the worker runs out of other work.
    pub(crate) local_out: Vec<Batch>,
    /// Spare batch vectors recycled from delivered local batches.
    pub(crate) spare_batches: Vec<Batch>,
    pub(crate) local_batch_items: usize,
    /// Cached wall-clock offset, refreshed once per delivered batch / loop
    /// iteration instead of per item: at millions of items per second the
    /// two per-item clock reads (creation stamp + latency span) would
    /// otherwise dominate the handler itself.
    pub(crate) now_cache: u64,
    /// Sends not yet published to this worker's shared `items_sent` slot.
    /// Flushed by [`NativeWorkerCtx::publish_sent`] *before* anything leaves
    /// the worker (message emit, local-batch ship) and once per scheduling
    /// loop, so the quiescence invariant — an item's sent increment
    /// happens-before its delivered increment — still holds while the hot
    /// path pays one atomic per batch instead of one per item.  PP publishes
    /// just before each claim: an item inserted into a process-shared claim
    /// buffer can be sealed and emitted by a *sibling* worker, so it must be
    /// counted before it becomes visible there.
    pub(crate) pending_sent: u64,
    /// Delivered items not yet published to the shared counter; published
    /// once per scheduling loop, strictly after [`NativeWorkerCtx::
    /// publish_sent`], so a delivered item's handler-generated sends are
    /// always counted first (sent sum ≥ delivered sum at every observable
    /// instant).
    pub(crate) pending_delivered: u64,
    /// Items this worker dropped in quarantine (it panicked, or envelopes
    /// addressed to it arrived after it panicked); published to the shared
    /// per-worker dropped counter so the monitor's conservation check —
    /// `sent == delivered + dropped` — can settle on an aborted run.
    pub(crate) pending_dropped: u64,
    /// Mesh only: per-destination overflow stash for envelopes whose ring was
    /// full.  Retried every loop iteration; a sender therefore never blocks,
    /// which is what makes the all-pairs mesh deadlock-free.
    pub(crate) stash: Vec<VecDeque<Envelope>>,
    /// Total envelopes currently stashed (cheap emptiness check).
    pub(crate) stash_len: usize,
    /// Current stash-retry backoff interval, in consecutive idle loop
    /// iterations (0 = retry every iteration).  Doubles on each fully
    /// failed retry up to [`STASH_BACKOFF_MAX`]; resets to 0 the moment any
    /// envelope moves, and the mesh loop clears the pending skip whenever
    /// an iteration did other work.
    pub(crate) stash_backoff: u32,
    /// Iterations left before the next stash retry.
    pub(crate) stash_skip: u32,
    /// Flush-triggered messages this worker has emitted (explicit, idle and
    /// timeout flushes — not buffer-full seals).  The `flush=<n>` fault
    /// trigger reads this.
    pub(crate) flush_emits: u64,
    /// Mesh + NoAgg only: route every envelope through the stash and publish
    /// rings once per loop via the batched [`shmem::SpscRing::push_from`].
    /// NoAgg ships one envelope per item; pushing each individually would pay
    /// a cold ring-slot write and a tail publication per item.
    pub(crate) defer_pushes: bool,
    /// Slab store only: this worker's shared arena (claims and releases are
    /// ours alone; consumers only borrow and decrement).
    pub(crate) arena: Option<&'a SlabArena<Item<Payload>>>,
    /// Spent slab handles whose return ring to the owner was full; retried
    /// every loop iteration (a handle must never be dropped — the owner's
    /// arena would leak the slab for the rest of the run).
    pub(crate) pending_returns: Vec<(u32, SlabHandle)>,
    /// This worker's predicted NUMA node (0 on unpinned/single-node runs).
    pub(crate) my_node: u16,
    /// Mesh envelopes pushed towards a worker on a different NUMA node.
    /// Exported as the `cross_socket_msgs` counter; 0 by construction when
    /// placement is unknown or single-node.
    pub(crate) cross_socket_msgs: u64,
    /// Stash drain order: destination worker indices, same-node ones first
    /// (identity order on non-NUMA runs).  Draining own-socket rings first
    /// keeps the cheap traffic moving while cross-socket consumers lag.
    pub(crate) drain_order: Vec<u32>,
    /// This worker's *cluster* node (`Topology::node_of_worker`) — distinct
    /// from `my_node`, which is the NUMA node of the host thread.
    pub(crate) my_cluster_node: u32,
    /// Node tier only: items bound for workers on other cluster nodes,
    /// buffered here and shipped to the local leader's uplink in batches.
    /// Every item in it was already counted sent (publish-before-ship).
    pub(crate) wire_out: Batch,
    /// Node tier only: wire batches whose uplink ring was full, retried by
    /// [`NativeWorkerCtx::flush_wire_stash`] every loop iteration.
    pub(crate) wire_stash: VecDeque<Batch>,
    /// Ship threshold for `wire_out` — the node tier's local aggregation
    /// grain (the leader re-aggregates per destination node on top).
    pub(crate) wire_batch_items: usize,
    /// Distribution of delivered-batch sizes (items per handler call) — the
    /// per-scheme evidence for throughput ceilings (NoAgg delivers single
    /// items; aggregated schemes deliver whole buffers).
    pub(crate) batch_len: QuantileSketch,
    /// Inline single-item deliveries (NoAgg), folded into `batch_len` as
    /// 1-item batches at export time: a sketch update per item would cost
    /// more than the delivery itself.
    pub(crate) singles_delivered: u64,
}

impl<'a> NativeWorkerCtx<'a> {
    /// Build the context for worker `me`.  `stash_lanes` is the worker count
    /// on the mesh and 0 on the star (which never stashes).
    pub(crate) fn new(shared: &'a Shared, me: WorkerId, stash_lanes: usize) -> Self {
        let my_proc = shared.topo.proc_of_worker(me);
        let aggregator = if shared.tram.scheme == Scheme::PP {
            None
        } else {
            Some(Aggregator::new(shared.tram, Owner::Worker(me)))
        };
        Self {
            shared,
            me,
            my_proc,
            aggregator,
            rng: StreamRng::new(shared.seed, me.0 as u64),
            counters: Counters::new(),
            latency: LatencyRecorder::new(),
            app_latency: LatencyRecorder::new(),
            pp_stats: TramStats::new(),
            has_timeout: shared.tram.flush_policy.timeout_ns.is_some(),
            pp_oldest_ns: None,
            pp_adaptive: if shared.tram.scheme == Scheme::PP {
                shared.tram.flush_policy.adaptive.map(AdaptiveTimeout::new)
            } else {
                None
            },
            pp_runs: if shared.tram.scheme == Scheme::PP {
                (0..shared.topo.total_procs()).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            local_out: (0..shared.topo.total_workers())
                .map(|_| Vec::new())
                .collect(),
            spare_batches: Vec::new(),
            local_batch_items: shared.local_batch_items,
            now_cache: 0,
            pending_sent: 0,
            pending_delivered: 0,
            pending_dropped: 0,
            stash: (0..stash_lanes).map(|_| VecDeque::new()).collect(),
            stash_len: 0,
            stash_backoff: 0,
            stash_skip: 0,
            flush_emits: 0,
            defer_pushes: stash_lanes > 0 && shared.tram.scheme == Scheme::NoAgg,
            arena: shared.arenas.get(me.idx()),
            pending_returns: Vec::new(),
            my_node: shared.worker_node.get(me.idx()).copied().unwrap_or(0),
            cross_socket_msgs: 0,
            drain_order: {
                let my_node = shared.worker_node.get(me.idx()).copied().unwrap_or(0);
                let mut order: Vec<u32> = (0..stash_lanes as u32).collect();
                if shared.numa_aware {
                    // Stable sort: same-node destinations first, index order
                    // preserved within each group.
                    order.sort_by_key(|&d| shared.worker_node[d as usize] != my_node);
                }
                order
            },
            my_cluster_node: shared.topo.node_of_worker(me).0,
            wire_out: Vec::new(),
            wire_stash: VecDeque::new(),
            wire_batch_items: shared.local_batch_items.max(64),
            batch_len: QuantileSketch::default(),
            singles_delivered: 0,
        }
    }

    /// Publish accumulated sends to this worker's shared sent counter.  Must
    /// run before any envelope leaves the worker and once per loop iteration
    /// (before the done flag is stored) — see the field docs.
    pub(crate) fn publish_sent(&mut self) {
        if self.pending_sent > 0 {
            self.shared.items_sent[self.me.idx()].fetch_add(self.pending_sent, Ordering::Relaxed);
            self.pending_sent = 0;
        }
    }

    /// Publish accumulated deliveries.  Call once per scheduling loop,
    /// strictly after [`NativeWorkerCtx::publish_sent`] (see the
    /// `pending_delivered` docs), and once before the worker exits.
    pub(crate) fn publish_delivered(&mut self) {
        if self.pending_delivered > 0 {
            self.shared.items_delivered[self.me.idx()]
                .fetch_add(self.pending_delivered, Ordering::AcqRel);
            self.pending_delivered = 0;
        }
    }

    /// Publish accumulated quarantine drops.  Like
    /// [`NativeWorkerCtx::publish_delivered`], strictly after the work they
    /// account for: a dropped item's sent increment was published before its
    /// envelope shipped, so dropped (like delivered) never overtakes sent.
    pub(crate) fn publish_dropped(&mut self) {
        if self.pending_dropped > 0 {
            self.shared.items_dropped[self.me.idx()]
                .fetch_add(self.pending_dropped, Ordering::AcqRel);
            self.pending_dropped = 0;
        }
    }

    /// Re-read the wall clock into the per-item timestamp cache.
    pub(crate) fn refresh_now(&mut self) {
        self.now_cache = self.shared.now_ns();
    }

    /// Hand an aggregated message to the delivery plane, recording the wire
    /// counters the simulator records in its routing layer.
    pub(crate) fn emit(&mut self, message: OutboundMessage<Payload>) {
        self.publish_sent();
        self.counters.incr("wire_messages");
        self.counters.add("wire_bytes", message.bytes);
        self.counters.add("wire_items", message.items.len() as u64);
        if message.reason.is_flush() {
            self.counters.incr("wire_messages_flush");
            self.flush_emits += 1;
        }
        match &self.shared.plane {
            // Send fails only after an aborted (watchdog) run tears the
            // collector down; the report is already unclean then.
            Plane::Star(star) => {
                let _ = star.msg_tx.send(message);
            }
            Plane::Mesh(_) => {
                let target = match message.dest {
                    MessageDest::Worker(w) => w,
                    // Same spread rule as the simulator: the (src proc, dst
                    // proc) pair pins the worker that runs the grouping pass.
                    MessageDest::Process(p) => self.shared.topo.group_receiver(self.my_proc, p),
                };
                // Single-item worker-addressed messages (NoAgg) ride inline;
                // their vector is recycled here, where it came from.
                if message.items.len() == 1 && matches!(message.dest, MessageDest::Worker(_)) {
                    let mut items = message.items;
                    let item = items.pop().expect("one item");
                    if let Some(agg) = self.aggregator.as_mut() {
                        agg.recycle(items);
                    }
                    self.push_mesh(target, Envelope::Single(item));
                } else {
                    self.push_mesh(target, Envelope::Message(message));
                }
            }
        }
    }

    /// Hand a zero-copy slab message to the mesh, recording the same wire
    /// counters as [`NativeWorkerCtx::emit`] — a slab is a transport detail,
    /// not a different kind of message.
    pub(crate) fn emit_slab(&mut self, sealed: SlabSealed) {
        self.publish_sent();
        self.counters.incr("wire_messages");
        self.counters.add("wire_bytes", sealed.bytes);
        self.counters.add("wire_items", sealed.handle.len as u64);
        if sealed.reason.is_flush() {
            self.counters.incr("wire_messages_flush");
            self.flush_emits += 1;
        }
        let target = match sealed.dest {
            MessageDest::Worker(w) => w,
            // Same spread rule as the simulator: the (src proc, dst proc)
            // pair pins the worker that runs the grouping pass.
            MessageDest::Process(p) => self.shared.topo.group_receiver(self.my_proc, p),
        };
        self.push_mesh(target, Envelope::Slab(sealed));
    }

    /// Route a slab-path emission: sealed slabs to [`NativeWorkerCtx::
    /// emit_slab`], arena-miss fallbacks (and NoAgg singles) to the vector
    /// path's [`NativeWorkerCtx::emit`].
    pub(crate) fn emit_any(&mut self, message: EmittedMessage<Payload>) {
        match message {
            EmittedMessage::Slab(sealed) => self.emit_slab(sealed),
            EmittedMessage::Vec(message) => self.emit(message),
        }
    }

    /// Push one envelope onto this worker's mesh row, stashing it if the ring
    /// is full (or if earlier envelopes for the same destination are already
    /// stashed — per-pair FIFO order is preserved).
    pub(crate) fn push_mesh(&mut self, dst: WorkerId, envelope: Envelope) {
        // Node tier: traffic for a worker on another cluster node leaves
        // through the local leader's uplink, not the in-process mesh.
        if self.shared.node_plane.is_some()
            && self.shared.topo.node_of_worker(dst).0 != self.my_cluster_node
        {
            self.push_wire(envelope);
            return;
        }
        let d = dst.idx();
        if self.shared.worker_node[d] != self.my_node {
            self.cross_socket_msgs += 1;
        }
        if !self.defer_pushes && self.stash[d].is_empty() {
            let mesh = self.shared.plane.mesh();
            if let Err(rejected) = mesh.ring(self.me.idx(), d).push(envelope) {
                self.stash[d].push_back(rejected);
                self.stash_len += 1;
            }
        } else {
            self.stash[d].push_back(envelope);
            self.stash_len += 1;
        }
    }

    /// Materialize an outbound cross-node envelope into raw items on the
    /// wire buffer.  Every carried item was already counted sent, and each
    /// names its final destination worker, so the remote leader's regroup
    /// (and the remote worker's delivery) is exact — no grouping state
    /// crosses the node boundary, only payloads.
    fn push_wire(&mut self, envelope: Envelope) {
        self.counters.incr("wire_node_msgs");
        match envelope {
            Envelope::Single(item) => self.wire_out.push(item),
            Envelope::Batch(mut items) => {
                self.wire_out.append(&mut items);
                self.retain_spare(items);
            }
            Envelope::Message(message) => {
                let mut items = message.items;
                self.wire_out.append(&mut items);
                self.reclaim(items);
            }
            // Sealed slabs are copied out of this worker's own arena — the
            // zero-copy discipline is an intra-node optimization; the node
            // boundary is a real copy either way (it becomes wire bytes).
            Envelope::Slab(sealed) => {
                let owner = self.me.idx();
                let arena = &self.shared.arenas[owner];
                let handle = sealed.handle;
                debug_assert_eq!(arena.generation(handle.slab), handle.generation);
                // SAFETY: we still hold the live handle of the just-sealed
                // slab; no consumer has seen it.
                let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
                self.wire_out.extend_from_slice(items);
                if arena.finish_consumer(handle.slab) {
                    arena.release(handle.slab);
                }
            }
            // Grouping-pass forwards stay within one process (= one node),
            // so a cross-node slice is unreachable by construction; handle
            // it anyway so a topology bug degrades into a copy, not UB.
            Envelope::SlabSlice { owner, range } => {
                debug_assert!(false, "slab slice crossed a node boundary");
                let arena = &self.shared.arenas[owner as usize];
                // SAFETY: live forwarded range of a sealed slab.
                let items = unsafe { arena.slice(range.slab, range.start, range.len) };
                self.wire_out.extend_from_slice(items);
                if arena.finish_consumer(range.slab) {
                    self.return_slab(
                        owner as usize,
                        SlabHandle {
                            slab: range.slab,
                            len: range.len,
                            generation: range.generation,
                        },
                    );
                }
            }
        }
        if self.wire_out.len() >= self.wire_batch_items {
            self.ship_wire();
        }
    }

    /// Push the pending wire batch onto this worker's uplink ring (stashing
    /// it when the ring is full — the leader may be mid-drain).
    pub(crate) fn ship_wire(&mut self) {
        if self.wire_out.is_empty() {
            return;
        }
        self.publish_sent();
        let batch = std::mem::take(&mut self.wire_out);
        let plane = self
            .shared
            .node_plane
            .as_ref()
            .expect("wire ship without a node plane");
        if self.wire_stash.is_empty() {
            if let Err(rejected) = plane.uplink[self.me.idx()].push(batch) {
                self.wire_stash.push_back(rejected);
            }
        } else {
            // Preserve per-worker FIFO towards the leader.
            self.wire_stash.push_back(batch);
        }
    }

    /// Retry stashed wire batches.  Returns true if any batch moved.
    pub(crate) fn flush_wire_stash(&mut self) -> bool {
        if self.wire_stash.is_empty() {
            return false;
        }
        let plane = self
            .shared
            .node_plane
            .as_ref()
            .expect("wire stash without a node plane");
        let moved = plane.uplink[self.me.idx()].push_from(&mut self.wire_stash);
        moved > 0
    }

    /// Move stashed envelopes onto their rings (batched: one tail publication
    /// per destination).  Returns true if any envelope moved.  Publishes
    /// pending sends first: an envelope must never become visible to its
    /// consumer before the sends it carries are counted.
    pub(crate) fn flush_stash(&mut self) -> bool {
        if self.stash_len == 0 {
            return false;
        }
        self.publish_sent();
        let mesh = self.shared.plane.mesh();
        let me = self.me.idx();
        let mut moved = 0;
        // Same-node destinations first (identity order on non-NUMA runs):
        // own-socket consumers drain their rings fastest, so retrying them
        // first frees stash space at local-interconnect latency instead of
        // waiting behind cross-socket laggards.
        for i in 0..self.drain_order.len() {
            let dst = self.drain_order[i] as usize;
            if self.stash[dst].is_empty() {
                continue;
            }
            moved += mesh.ring(me, dst).push_from(&mut self.stash[dst]);
        }
        self.stash_len -= moved;
        moved > 0
    }

    /// [`NativeWorkerCtx::flush_stash`] under bounded exponential backoff:
    /// when a retry moves nothing (every target ring still full), the next
    /// retries are skipped for a doubling number of iterations — 1, 2, 4, …
    /// up to [`STASH_BACKOFF_MAX`] — so an idle worker spinning against a
    /// saturated mesh (e.g. a ring-burst window) is not hammered with N
    /// failed ring probes per spin.  Any successful move resets the
    /// backoff, and the mesh loop clears the pending skip after any
    /// iteration that did other work, so the skip never spans busy
    /// quanta; correctness never depends on retry timing (stashed items
    /// keep the sent sum ahead of the delivered sum, so the monitor waits
    /// for them regardless).
    pub(crate) fn flush_stash_backoff(&mut self) -> bool {
        if self.stash_len == 0 {
            self.stash_backoff = 0;
            self.stash_skip = 0;
            return false;
        }
        if self.stash_skip > 0 {
            self.stash_skip -= 1;
            return false;
        }
        if self.flush_stash() {
            self.stash_backoff = 0;
            true
        } else {
            self.stash_backoff = (self.stash_backoff * 2).clamp(1, STASH_BACKOFF_MAX);
            self.stash_skip = self.stash_backoff;
            false
        }
    }

    /// Queue one same-process item for its destination worker.  Items ride in
    /// per-destination batches (one plane operation per batch, not per item);
    /// partial batches are shipped by [`NativeWorkerCtx::flush_local`]
    /// whenever the worker runs out of other work, so nothing is ever
    /// stranded.
    pub(crate) fn deliver_local(&mut self, item: Item<Payload>) {
        self.counters.incr("local_deliveries");
        let dest = item.dest.idx();
        let batch = &mut self.local_out[dest];
        if batch.is_empty() && batch.capacity() == 0 {
            if let Some(spare) = self.spare_batches.pop() {
                *batch = spare;
            } else if let Some(agg) = self.aggregator.as_mut() {
                *batch = agg.take_pooled();
            }
            if batch.capacity() == 0 {
                // One allocation per batch, not log2(batch) doublings.
                batch.reserve_exact(self.local_batch_items);
            }
        }
        batch.push(item);
        if batch.len() >= self.local_batch_items {
            self.ship_local(dest);
        }
    }

    /// Ship the pending local batch for destination worker index `dest`.
    fn ship_local(&mut self, dest: usize) {
        if self.local_out[dest].is_empty() {
            return;
        }
        self.publish_sent();
        let batch = std::mem::take(&mut self.local_out[dest]);
        self.counters.incr("local_batches");
        match &self.shared.plane {
            // Send fails only after an aborted (watchdog) run tears the
            // receiver down; the report is already unclean then.
            Plane::Star(star) => {
                let _ = star.local_tx[dest].send(batch);
            }
            Plane::Mesh(_) => self.push_mesh(WorkerId(dest as u32), Envelope::Batch(batch)),
        }
    }

    /// Ship every pending local-bypass batch (and, on the node tier, the
    /// partial wire batch — an idle worker must never strand cross-node
    /// items in its outbound buffer).
    pub(crate) fn flush_local(&mut self) {
        for dest in 0..self.local_out.len() {
            self.ship_local(dest);
        }
        self.ship_wire();
    }

    /// Keep a delivered batch's vector for future local-bypass batches.
    pub(crate) fn retain_spare(&mut self, mut batch: Batch) {
        if self.spare_batches.len() < SPARE_BATCHES && batch.capacity() > 0 {
            batch.clear();
            self.spare_batches.push(batch);
        }
    }

    /// Take back a spent vector that came home over a return ring.  The
    /// aggregator's pool gets it (it ships a vector away with every sealed
    /// buffer, and the local-bypass path draws from the same pool); under PP
    /// there is no aggregator, so the vector joins the local spares.
    pub(crate) fn reclaim(&mut self, batch: Batch) {
        if batch.capacity() == 0 {
            return;
        }
        match self.aggregator.as_mut() {
            Some(agg) => agg.recycle(batch),
            None => self.retain_spare(batch),
        }
    }

    /// Send a spent vector back to the worker that filled it (mesh only).
    /// Falls back to local reuse when the return ring is full or the vector
    /// was this worker's own.  Single-item vectors (NoAgg's per-item
    /// messages) are simply dropped: a 32-byte allocation on the sender is
    /// cheaper than a cold return-ring round trip per item.  Anything
    /// larger goes home — even tiny configured buffers rely on the return
    /// path for their allocation-free steady state.
    pub(crate) fn return_spent(&mut self, src: usize, batch: Batch) {
        if batch.capacity() < 2 {
            return;
        }
        if src == self.me.idx() {
            self.reclaim(batch);
            return;
        }
        let mesh = self.shared.plane.mesh();
        if let Err(Spent::Batch(batch)) = mesh
            .return_ring(src, self.me.idx())
            .push(Spent::Batch(batch))
        {
            self.reclaim(batch);
        }
    }

    /// Send a spent slab handle home to the worker whose arena owns it.
    /// Called by whichever consumer's [`shmem::SlabArena::finish_consumer`]
    /// was the last; a full return ring parks the handle for retry (it can
    /// never be dropped — the owner would leak the slab until run end).
    pub(crate) fn return_slab(&mut self, owner: usize, handle: SlabHandle) {
        if owner == self.me.idx() {
            // Our own slab came straight back (local forward of a range, or
            // a self-addressed message): release without touching a ring.
            self.shared.arenas[owner].release(handle.slab);
            return;
        }
        let mesh = self.shared.plane.mesh();
        if mesh
            .return_ring(owner, self.me.idx())
            .push(Spent::Slab(handle))
            .is_err()
        {
            self.pending_returns.push((owner as u32, handle));
        }
    }

    /// Retry parked slab returns.  Returns true if any handle moved.
    pub(crate) fn flush_pending_returns(&mut self) -> bool {
        if self.pending_returns.is_empty() {
            return false;
        }
        let mesh = self.shared.plane.mesh();
        let me = self.me.idx();
        let before = self.pending_returns.len();
        self.pending_returns.retain(|&(owner, handle)| {
            mesh.return_ring(owner as usize, me)
                .push(Spent::Slab(handle))
                .is_err()
        });
        self.pending_returns.len() < before
    }

    /// Take back one unit of spent storage that came home over a return
    /// ring: vectors feed the pools, slab handles reopen their arena slab.
    pub(crate) fn reclaim_spent(&mut self, spent: Spent) {
        match spent {
            Spent::Batch(batch) => self.reclaim(batch),
            Spent::Slab(handle) => {
                self.shared.arenas[self.me.idx()].release(handle.slab);
            }
        }
    }

    /// Teardown-only: hand every parked slab handle straight back to its
    /// owner's arena.  A handle reaches `pending_returns` only after this
    /// worker's `finish_consumer` was the last (outstanding already 0), and
    /// `release` is a lock-free free-list push that is safe from any thread —
    /// so once the worker loop has ended (quiescent or aborted), releasing
    /// directly beats leaving the slab to read as in-flight in the audit.
    pub(crate) fn drain_pending_returns_direct(&mut self) {
        for (owner, handle) in self.pending_returns.drain(..) {
            self.shared.arenas[owner as usize].release(handle.slab);
        }
    }

    /// Quarantine path: account one undeliverable envelope and recycle its
    /// storage.  The slab refcount dance and the return rings keep flowing
    /// exactly as on delivery — only the handler call is skipped — so a
    /// panicked consumer never strands a peer's slab or vector.  Returns the
    /// number of items dropped.
    pub(crate) fn drop_envelope(&mut self, src: usize, envelope: Envelope) -> u64 {
        match envelope {
            Envelope::Batch(batch) => {
                let n = batch.len() as u64;
                let mut batch = batch;
                batch.clear();
                self.return_spent(src, batch);
                n
            }
            Envelope::Single(_) => 1,
            Envelope::Message(message) => {
                let n = message.items.len() as u64;
                let mut items = message.items;
                items.clear();
                self.return_spent(src, items);
                n
            }
            // Slab envelopes always ride their owner's ring, so `src` is the
            // owning arena; a stash-drained slab is this worker's own.
            Envelope::Slab(sealed) => {
                let handle = sealed.handle;
                if self.shared.arenas[src].finish_consumer(handle.slab) {
                    self.return_slab(src, handle);
                }
                handle.len as u64
            }
            Envelope::SlabSlice { owner, range } => {
                if self.shared.arenas[owner as usize].finish_consumer(range.slab) {
                    self.return_slab(
                        owner as usize,
                        SlabHandle {
                            slab: range.slab,
                            len: range.len,
                            generation: range.generation,
                        },
                    );
                }
                range.len as u64
            }
        }
    }

    /// Quarantine entry: drop everything this worker produced but had not
    /// shipped — aggregator buffers and mid-fill slabs, local-bypass
    /// batches, staged PP runs, stashed envelopes.  Every dropped item was
    /// already counted sent (publish-before-ship), so counting it dropped
    /// keeps the conservation ledger exact.  Returns the number of items
    /// dropped.
    pub(crate) fn abandon_production(&mut self) -> u64 {
        let mut dropped = 0u64;
        if let Some(mut agg) = self.aggregator.take() {
            dropped += agg.abandon(self.arena);
            self.aggregator = Some(agg);
        }
        for dest in 0..self.local_out.len() {
            let batch = std::mem::take(&mut self.local_out[dest]);
            dropped += batch.len() as u64;
            self.retain_spare(batch);
        }
        for run in &mut self.pp_runs {
            dropped += run.len() as u64;
            run.clear();
        }
        let me = self.me.idx();
        for lane in 0..self.stash.len() {
            while let Some(envelope) = self.stash[lane].pop_front() {
                self.stash_len -= 1;
                dropped += self.drop_envelope(me, envelope);
            }
        }
        // Unshipped cross-node traffic: the wire buffer and its stash hold
        // raw already-counted-sent items, so dropping them is pure ledger.
        dropped += self.wire_out.len() as u64;
        self.wire_out.clear();
        while let Some(batch) = self.wire_stash.pop_front() {
            dropped += batch.len() as u64;
            self.retain_spare(batch);
        }
        dropped
    }

    /// PP insertion: stage the item in the run towards its destination
    /// process, pushing the run into the shared buffer once it holds `g`
    /// items.
    fn send_pp(&mut self, item: Item<Payload>) {
        let shared = self.shared;
        let dst_proc = shared.topo.proc_of_worker(item.dest);
        if shared.tram.local_bypass && dst_proc == self.my_proc {
            self.pp_stats.record_local_bypass();
            self.deliver_local(item);
            return;
        }
        self.pp_stats.record_insert();
        if self.has_timeout && self.pp_oldest_ns.is_none() {
            self.pp_oldest_ns = Some(self.now_cache);
        }
        let run = &mut self.pp_runs[dst_proc.idx()];
        run.push(item);
        if run.len() >= shared.tram.buffer_items {
            self.push_pp_run(dst_proc.idx());
        }
    }

    /// Push every staged PP run into its shared buffer.  The scheduling
    /// loops call this at the end of every iteration, before the sent count
    /// and the done flag are published, so a staged item never outlives the
    /// iteration that produced it.
    pub(crate) fn push_pp_runs(&mut self) {
        for dst in 0..self.pp_runs.len() {
            self.push_pp_run(dst);
        }
    }

    /// Claim slots for the staged run towards process `dst` — one
    /// `insert_slice` per attempt — forwarding the sealed contents whenever
    /// the run covers a buffer's last slot.
    fn push_pp_run(&mut self, dst: usize) {
        if self.pp_runs[dst].is_empty() {
            return;
        }
        // Counted before any item becomes visible to a sibling drainer.
        self.publish_sent();
        let mut run = std::mem::take(&mut self.pp_runs[dst]);
        let shared = self.shared;
        let buffer = &shared.pp[self.my_proc.idx()][dst];
        let mut pos = 0;
        let mut attempts = 0u32;
        while pos < run.len() {
            let claimed = buffer.insert_slice(&run[pos..]);
            pos += claimed.stored;
            if let Some(items) = claimed.sealed {
                self.emit_pp(ProcId(dst as u32), items, EmitReason::BufferFull);
            } else if claimed.stored == 0 {
                // Another worker is mid-drain of the sealed buffer; on an
                // oversubscribed host it needs our CPU to finish, so
                // escalate from spinning to yielding.
                if attempts < 32 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                attempts = attempts.saturating_add(1);
            }
        }
        run.clear();
        self.pp_runs[dst] = run;
    }

    /// Wrap drained PP items into an outbound process-addressed message.
    fn emit_pp(&mut self, dst_proc: ProcId, items: Vec<Item<Payload>>, reason: EmitReason) {
        if items.is_empty() {
            return;
        }
        let bytes = self.shared.tram.message_bytes(items.len());
        self.pp_stats.record_message(items.len(), bytes, reason);
        if let Some(adaptive) = &mut self.pp_adaptive {
            adaptive.observe(reason, items.len(), self.shared.tram.buffer_items);
        }
        self.emit(OutboundMessage {
            dest: MessageDest::Process(dst_proc),
            items,
            bytes,
            reason,
            grouped_at_source: false,
        });
    }

    /// Push the staged runs, then seal-flush every shared PP buffer of this
    /// worker's process.
    fn flush_pp(&mut self, reason: EmitReason) {
        self.push_pp_runs();
        let shared = self.shared;
        for dst in 0..shared.pp[self.my_proc.idx()].len() {
            let items = shared.pp[self.my_proc.idx()][dst].seal_flush();
            self.emit_pp(ProcId(dst as u32), items, reason);
        }
        self.pp_oldest_ns = None;
    }

    /// Emit messages whose buffer timeout has expired.  Worker-owned
    /// aggregators track per-buffer ages themselves; for PP — whose shared
    /// claim buffers keep no per-item timestamps — the poll works from this
    /// worker's sender-side watermark: once the oldest of its un-flushed
    /// inserts exceeds the timeout, it seal-flushes the process's buffers.
    pub(crate) fn poll_timeout(&mut self) {
        if !self.has_timeout {
            return;
        }
        let now = self.shared.now_ns();
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => {
                    agg.poll_timeout_slab_each(arena, now, |message| self.emit_any(message));
                }
                None => agg.poll_timeout_each(now, |message| self.emit(message)),
            }
            self.aggregator = Some(agg);
            return;
        }
        if let Some(oldest) = self.pp_oldest_ns {
            let timeout = match &self.pp_adaptive {
                Some(adaptive) => Some(adaptive.timeout_ns()),
                None => self.shared.tram.flush_policy.timeout_ns,
            };
            if let Some(timeout) = timeout {
                if now.saturating_sub(oldest) >= timeout {
                    self.flush_pp(EmitReason::TimeoutFlush);
                }
            }
        }
    }

    /// Fold the aggregator's (and, on the mesh, the receiver's) pool reuse
    /// statistics into this worker's counters before the thread exits.
    pub(crate) fn export_pool_counters(&mut self) {
        if let Some(agg) = &self.aggregator {
            let pool = agg.pool_stats();
            self.counters.add("agg_pool_hits", pool.hits);
            self.counters.add("agg_pool_misses", pool.misses);
            if let Some(timeout) = agg.effective_timeout_ns() {
                self.counters.max("flush_timeout_final_ns", timeout);
                self.counters
                    .add("adaptive_timeout_adjustments", agg.adaptive_adjustments());
            }
        }
        if let Some(adaptive) = &self.pp_adaptive {
            self.counters
                .max("flush_timeout_final_ns", adaptive.timeout_ns());
            self.counters
                .add("adaptive_timeout_adjustments", adaptive.adjustments());
        }
        if let Some(arena) = self.arena {
            let stats = arena.stats();
            self.counters.add("arena_claims", stats.claims);
            // Zero across a run = the zero-copy steady state never fell back
            // to heap vectors; asserted by the throughput suite.
            self.counters.add("arena_claim_misses", stats.misses);
        }
        // 0 whenever placement is unknown (unpinned) or single-node — the
        // counter is the numerator of the cross-socket penalty sweep.
        self.counters
            .add("cross_socket_msgs", self.cross_socket_msgs);
    }

    /// Fold the inline single-item deliveries into the batch-length sketch
    /// (as 1-item batches) and hand the sketch over for the run report.
    pub(crate) fn take_batch_len(&mut self) -> QuantileSketch {
        self.batch_len.record_n(1.0, self.singles_delivered);
        self.singles_delivered = 0;
        std::mem::take(&mut self.batch_len)
    }
}

impl RunCtx for NativeWorkerCtx<'_> {
    fn my_id(&self) -> WorkerId {
        self.me
    }

    fn topology(&self) -> net_model::Topology {
        self.shared.topo
    }

    /// Wall-clock nanoseconds since the run started (cached: refreshed once
    /// per delivered batch / scheduling quantum, not per call).
    fn now_ns(&self) -> u64 {
        self.now_cache
    }

    fn rng(&mut self) -> &mut StreamRng {
        &mut self.rng
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Record an application-level latency sample into this worker's
    /// recorder; merged into the report's structured latency summary.
    fn record_app_latency(&mut self, ns: u64) {
        self.app_latency.record(ns);
    }

    fn send(&mut self, dest: WorkerId, payload: Payload) {
        let created = self.now_cache;
        let item = Item::new(dest, payload, created);
        self.pending_sent += 1;
        if self.shared.tram.scheme == Scheme::PP {
            self.send_pp(item);
            return;
        }
        if let Some(arena) = self.arena {
            // Zero-copy path: the item is written straight into its
            // destination's slab slot; nothing else happens until a slab
            // seals.
            let agg = self.aggregator.as_mut().expect("worker aggregator");
            let outcome = agg.insert_slab_at(arena, item, created);
            if let Some(local) = outcome.local_delivery {
                self.deliver_local(local);
            }
            if let Some(message) = outcome.message {
                self.emit_any(message);
            }
            return;
        }
        let agg = self.aggregator.as_mut().expect("worker aggregator");
        let outcome = agg.insert_at(item, created);
        if let Some(local) = outcome.local_delivery {
            self.deliver_local(local);
        }
        if let Some(message) = outcome.message {
            self.emit(message);
        }
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": ship the
        // pending local-bypass batches too.
        self.flush_local();
        if self.shared.tram.scheme == Scheme::PP {
            self.pp_stats.record_flush_call();
            self.flush_pp(EmitReason::ExplicitFlush);
            return;
        }
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => agg.flush_slab_each(arena, |message| self.emit_any(message)),
                None => agg.flush_each(|message| self.emit(message)),
            }
            self.aggregator = Some(agg);
        }
    }

    fn flush_on_idle(&mut self) {
        if self.shared.tram.scheme == Scheme::PP {
            if self.shared.tram.flush_policy.on_idle {
                self.flush_pp(EmitReason::IdleFlush);
            }
            return;
        }
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => agg.flush_on_idle_slab_each(arena, |message| self.emit_any(message)),
                None => agg.flush_on_idle_each(|message| self.emit(message)),
            }
            self.aggregator = Some(agg);
        }
    }
}

/// Run one borrowed slice of delivered items through the application's
/// slice-based handler.  The items are read **in place** — from a slab in
/// some worker's arena, or from a pooled batch vector — and never moved.
/// The delivered counter is bumped once per slice, strictly after the
/// handlers: any sends the handlers made are already counted by then, so
/// `sent sum == delivered sum` still implies global quiescence.
///
/// Latency is **sampled once per slice** (its first item, which is the
/// oldest of the cohort: buffers fill in FIFO order): a per-item log-bucket
/// sketch update costs more than the delivery itself at mesh throughput, and
/// the native backend's latency numbers are a distribution summary, not a
/// per-item trace.
pub(crate) fn deliver_slice(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    items: &[Item<Payload>],
) {
    let count = items.len() as u64;
    if count > 1 {
        // One clock read per real batch keeps handler-visible timestamps
        // honest across long drain bursts; single-item batches (NoAgg) stay
        // on the per-quantum cache — a clock read per item is exactly the
        // cost the inline envelope avoids.
        ctx.refresh_now();
    }
    if let Some(first) = items.first() {
        ctx.latency.record_span(first.created_at_ns, ctx.now_cache);
    }
    if count > 0 {
        // One sketch update per slice, not per item: the batch-size
        // distribution is what explains per-scheme throughput ceilings.
        ctx.batch_len.record(count as f64);
    }
    debug_assert!(
        items.iter().all(|i| i.dest == ctx.me),
        "items delivered to wrong worker"
    );
    app.on_item_slice(items, ctx);
    ctx.pending_delivered += count;
}

/// [`deliver_slice`] over an owned batch vector, leaving the (emptied)
/// vector in place so its allocation can be recycled.
pub(crate) fn deliver_batch(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    batch: &mut Batch,
) {
    deliver_slice(app, ctx, batch);
    batch.clear();
}

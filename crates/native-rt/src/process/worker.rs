//! The child side of the multi-process backend: one forked process per
//! worker PE, communicating exclusively through the shared segment.
//!
//! The parent builds every segment view ([`SegRing`]/[`SegArena`]/
//! [`SegClaim`] are `Copy` descriptors over shared offsets) into one
//! [`World`] before forking; children inherit the `MAP_SHARED` mapping at
//! the same address, so the views work unchanged on both sides.
//!
//! Dataflow per scheme (`rings[src][dst]` is an SPSC envelope ring):
//!
//! * **NoAgg** — one [`TAG_SINGLE`] envelope per item, straight to the
//!   destination worker.
//! * **WW** — per-destination-worker buffers; a full buffer is written into
//!   a slab of the sender's arena and shipped as one [`TAG_SLAB_WORKER`]
//!   descriptor.
//! * **WPs** — per-destination-process buffers shipped ungrouped
//!   ([`TAG_SLAB_PROC`]) to the destination's group receiver, which sorts
//!   the slab in place (it is the sole consumer at that point), delivers its
//!   own range and forwards peer ranges as [`TAG_SLAB_SLICE`] descriptors
//!   after bumping the slab's consumer refcount.
//! * **WsP** — the source sorts before sealing ([`TAG_SLAB_PROC_GROUPED`]);
//!   the receiver only scans runs.
//! * **PP** — workers of a process insert into shared [`SegClaim`] buffers,
//!   one per destination process.  Each worker stages its sends per
//!   destination process in a private run of at most `g` items and claims
//!   slots for the whole run with one [`SegClaim::insert_slice`] — when the
//!   run fills, at the end of every scheduling iteration and before every
//!   flush.  Drains (buffer-full `MustDrain` and explicit flushes alike)
//!   serialize through the buffer's drain lock and ship the collected items
//!   as one [`TAG_SLAB_PROC`] slab to the destination's group receiver,
//!   exactly like a WPs buffer.
//!
//! Every shipped message is recorded into the worker's [`TramStats`], whose
//! counters travel back through the result region into `RunReport::tram`.
//!
//! Every delivery failure path funnels through [`drop_envelope`], which
//! charges the dropped items *and* returns slab storage to the owning arena
//! — the bookkeeping the crash-cleanup audit verifies.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use metrics::Counters;
use net_model::{ProcId, Topology, WorkerId};
use runtime_api::{FaultKind, FaultPlan, FaultTrigger, Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SegClaim, SegRing};
use sim_core::StreamRng;
use tramlib::{EmitReason, Item, Scheme, TramConfig, TramStats};

use super::layout::{self, RunCtl, WorkerStatus};
use crate::sys;
use crate::threaded::STASH_THROTTLE;

use super::INBOX_BUDGET;

/// A single item, carried inline.
pub(super) const TAG_SINGLE: u32 = 0;
/// A whole sealed slab addressed to one worker (WW).
pub(super) const TAG_SLAB_WORKER: u32 = 1;
/// An ungrouped process-addressed slab (WPs): the receiver sorts it.
pub(super) const TAG_SLAB_PROC: u32 = 2;
/// A source-sorted process-addressed slab (WsP): the receiver scans runs.
pub(super) const TAG_SLAB_PROC_GROUPED: u32 = 3;
/// A pre-grouped per-worker index range of a slab, forwarded by the group
/// receiver; `owner` is the arena-owning worker, not the forwarder.
pub(super) const TAG_SLAB_SLICE: u32 = 4;

/// One unit of inter-process traffic.  Fixed-size and `Copy` so it can ride
/// a [`SegRing`]; slab variants carry a descriptor, singles carry the item.
#[repr(C)]
#[derive(Clone, Copy)]
pub(super) struct WireEnvelope {
    pub(super) tag: u32,
    /// Worker whose arena owns the slab (slab tags only).
    pub(super) owner: u32,
    pub(super) slab: u32,
    pub(super) start: u32,
    pub(super) len: u32,
    /// Slab generation at seal time (diagnostic cross-check).
    pub(super) generation: u32,
    pub(super) item: Item<Payload>,
}

impl WireEnvelope {
    fn single(item: Item<Payload>) -> Self {
        Self {
            tag: TAG_SINGLE,
            owner: 0,
            slab: 0,
            start: 0,
            len: 1,
            generation: 0,
            item,
        }
    }

    fn slab(tag: u32, owner: u32, slab: u32, start: u32, len: u32, generation: u32) -> Self {
        Self {
            tag,
            owner,
            slab,
            start,
            len,
            generation,
            item: Item::new(WorkerId(0), Payload::new(0, 0), 0),
        }
    }
}

/// Everything a worker process needs, built by the parent pre-fork and
/// inherited through the shared mapping.  All pointers target the segment.
pub(super) struct World {
    pub(super) tram: TramConfig,
    pub(super) topo: Topology,
    pub(super) seed: u64,
    pub(super) workers: usize,
    pub(super) procs: usize,
    pub(super) epoch: Instant,
    pub(super) faults: Option<FaultPlan>,
    pub(super) ctl: *const RunCtl,
    pub(super) status: *const WorkerStatus,
    pub(super) results: *mut u8,
    /// `rings[src * workers + dst]`: envelopes from `src` to `dst`.
    pub(super) rings: Vec<SegRing<WireEnvelope>>,
    /// One arena per worker (empty unless the scheme seals slabs).
    pub(super) arenas: Vec<SegArena<Item<Payload>>>,
    /// `claims[src_proc * procs + dst_proc]` (empty unless PP).
    pub(super) claims: Vec<SegClaim<Item<Payload>>>,
}

impl World {
    pub(super) fn ctl(&self) -> &RunCtl {
        // SAFETY: the segment outlives the run on both sides of the fork.
        unsafe { &*self.ctl }
    }

    pub(super) fn status(&self, w: usize) -> &WorkerStatus {
        debug_assert!(w < self.workers);
        // SAFETY: `w` indexes the worker-status array reserved in the layout.
        unsafe { &*self.status.add(w) }
    }

    pub(super) fn ring(&self, src: usize, dst: usize) -> &SegRing<WireEnvelope> {
        &self.rings[src * self.workers + dst]
    }

    pub(super) fn claim(&self, src_proc: usize, dst_proc: usize) -> SegClaim<Item<Payload>> {
        self.claims[src_proc * self.procs + dst_proc]
    }

    pub(super) fn result_region(&self, w: usize) -> *mut u8 {
        // SAFETY: `w` indexes the result array reserved in the layout.
        unsafe { self.results.add(w * layout::RESULT_REGION_BYTES) }
    }

    pub(super) fn dead_mask(&self) -> u64 {
        self.ctl().dead_mask.load(Ordering::Acquire)
    }
}

/// Account one undeliverable envelope (its consumer is dead or the run is
/// settling): returns the item count to charge dropped, after giving any
/// slab storage back to the owning arena.  Shared by children (dead-peer
/// drops) and the supervisor (victim-inbox and settlement drains).
pub(super) fn drop_envelope(world: &World, env: &WireEnvelope) -> u64 {
    match env.tag {
        TAG_SINGLE => 1,
        TAG_SLAB_WORKER | TAG_SLAB_PROC | TAG_SLAB_PROC_GROUPED | TAG_SLAB_SLICE => {
            let arena = world.arenas[env.owner as usize];
            if arena.finish_consumer(env.slab) {
                arena.release(env.slab);
            }
            u64::from(env.len)
        }
        _ => 0,
    }
}

/// The process backend's [`RunCtx`]: one per child, owning the private half
/// of the dataflow (aggregation buffers, overflow stash, RNG, counters).
pub(super) struct ProcCtx<'w> {
    world: &'w World,
    pub(super) me: WorkerId,
    my_proc: ProcId,
    scheme: Scheme,
    /// Aggregation buffer capacity (`g`).
    g: usize,
    rng: StreamRng,
    pub(super) counters: Counters,
    /// Inserts, flush calls and every shipped message, as the threaded
    /// backend's aggregators record them.  Per-item quantities are tallied
    /// in plain integers and folded in by [`ProcCtx::finish_stats`]: a
    /// counter update per item would cost NoAgg a quarter of its rate.
    pub(super) tram: TramStats,
    /// Items delivered through the local bypass (folded into `tram`).
    bypassed: u64,
    /// NoAgg single-item messages shipped (folded into `tram`).
    unaggregated: u64,
    /// WW: per-destination-worker buffers.
    bufs_worker: Vec<Vec<Item<Payload>>>,
    /// WPs/WsP: per-destination-process buffers.  PP: the staged runs.
    bufs_proc: Vec<Vec<Item<Payload>>>,
    /// Per-destination overflow stash, retried every quantum (ring-full
    /// backpressure without blocking).
    stash: Vec<VecDeque<WireEnvelope>>,
    pub(super) stash_len: usize,
    /// Reusable PP drain buffer.
    drain_buf: Vec<Item<Payload>>,
    /// Reusable grouping-run scratch: `(dest, start, len)`.
    ranges: Vec<(u32, u32, u32)>,
    /// Explicit/idle/timeout flushes emitted (fault-trigger clock).
    pub(super) flush_emits: u64,
    /// Local mirror of the shared `sent` counter (fault-trigger clock).
    pub(super) local_sent: u64,
    /// Cached dead mask, refreshed once per quantum (and on PP spins).
    dead: u64,
    /// Workers sharing this worker's process, excluding itself: the writers
    /// whose death permits skipping unstamped claim slots.
    sibling_mask: u64,
}

impl<'w> ProcCtx<'w> {
    pub(super) fn new(world: &'w World, me: WorkerId) -> Self {
        let my_proc = world.topo.proc_of_worker(me);
        let scheme = world.tram.scheme;
        let mut sibling_mask = 0u64;
        for w in world.topo.all_workers() {
            if world.topo.proc_of_worker(w) == my_proc && w != me {
                sibling_mask |= 1 << w.0;
            }
        }
        Self {
            world,
            me,
            my_proc,
            scheme,
            g: world.tram.buffer_items.max(1),
            rng: StreamRng::new(world.seed, u64::from(me.0)),
            counters: Counters::new(),
            tram: TramStats::new(),
            bypassed: 0,
            unaggregated: 0,
            bufs_worker: if scheme == Scheme::WW {
                (0..world.workers).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            bufs_proc: if matches!(scheme, Scheme::WPs | Scheme::WsP | Scheme::PP) {
                (0..world.procs).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            stash: (0..world.workers).map(|_| VecDeque::new()).collect(),
            stash_len: 0,
            drain_buf: Vec::new(),
            ranges: Vec::new(),
            flush_emits: 0,
            local_sent: 0,
            dead: 0,
            sibling_mask,
        }
    }

    fn status(&self) -> &WorkerStatus {
        self.world.status(self.me.0 as usize)
    }

    pub(super) fn refresh_dead(&mut self) {
        self.dead = self.world.dead_mask();
    }

    fn is_dead(&self, w: usize) -> bool {
        self.dead >> w & 1 == 1
    }

    fn sibling_dead(&self) -> bool {
        self.dead & self.sibling_mask != 0
    }

    fn add_dropped(&mut self, n: u64) {
        if n > 0 {
            self.status().dropped.fetch_add(n, Ordering::Release);
        }
    }

    /// Ship one envelope to `dst`: dead destinations drop (with slab
    /// bookkeeping), full rings overflow into the per-destination stash.
    /// Envelopes behind stashed ones stash too, preserving order.
    fn push_env(&mut self, dst: usize, env: WireEnvelope) {
        if self.is_dead(dst) {
            let dropped = drop_envelope(self.world, &env);
            self.add_dropped(dropped);
            return;
        }
        if self.stash[dst].is_empty() {
            if let Err(env) = self.world.ring(self.me.0 as usize, dst).push(env) {
                self.stash[dst].push_back(env);
                self.stash_len += 1;
            }
        } else {
            self.stash[dst].push_back(env);
            self.stash_len += 1;
        }
    }

    /// Retry stashed envelopes; envelopes whose destination has died since
    /// are dropped.  Returns whether anything moved.
    pub(super) fn flush_stash(&mut self) -> bool {
        if self.stash_len == 0 {
            return false;
        }
        let me = self.me.0 as usize;
        let mut moved = false;
        for dst in 0..self.world.workers {
            if self.stash[dst].is_empty() {
                continue;
            }
            if self.is_dead(dst) {
                while let Some(env) = self.stash[dst].pop_front() {
                    self.stash_len -= 1;
                    let dropped = drop_envelope(self.world, &env);
                    self.add_dropped(dropped);
                }
                moved = true;
                continue;
            }
            while let Some(&env) = self.stash[dst].front() {
                if self.world.ring(me, dst).push(env).is_err() {
                    break;
                }
                self.stash[dst].pop_front();
                self.stash_len -= 1;
                moved = true;
            }
        }
        moved
    }

    /// Record one shipped message of `items` items.
    fn record_message(&mut self, items: usize, reason: EmitReason) {
        let bytes = self.world.tram.message_bytes(items);
        self.tram.record_message(items, bytes, reason);
    }

    /// Ship one item as its own message (NoAgg, or a dry arena's fallback).
    fn ship_single(&mut self, item: Item<Payload>, reason: EmitReason) {
        if reason == EmitReason::Unaggregated {
            self.unaggregated += 1;
        } else {
            self.record_message(1, reason);
        }
        let dst = item.dest.0 as usize;
        self.push_env(dst, WireEnvelope::single(item));
    }

    /// Fold the per-item tallies into the TramLib statistics and derive the
    /// wire counters from them.  Call once, before the result is written.
    pub(super) fn finish_stats(&mut self) {
        let bytes = self.world.tram.message_bytes(1) * self.unaggregated;
        self.tram.record_messages(
            self.unaggregated,
            self.unaggregated,
            bytes,
            EmitReason::Unaggregated,
        );
        self.unaggregated = 0;
        self.tram
            .record_sends(self.local_sent - self.bypassed, self.bypassed);
        self.bypassed = 0;
        self.counters
            .add("wire_messages", self.tram.messages_sent());
        self.counters.add("wire_items", self.tram.items_sent());
    }

    /// Seal `buf` into a slab of this worker's arena and ship the descriptor
    /// to `dst`; a dry arena degrades to singles (a throughput dip recorded
    /// in `arena_claim_misses`, never a loss).
    fn ship_slab(
        &mut self,
        dst: usize,
        tag: u32,
        buf: &mut Vec<Item<Payload>>,
        reason: EmitReason,
    ) {
        let me = self.me.0 as usize;
        let arena = self.world.arenas[me];
        if let Some(slab) = arena.try_claim() {
            self.counters.incr("arena_claims");
            for (i, item) in buf.iter().enumerate() {
                // SAFETY: `try_claim` granted exclusive ownership of `slab`;
                // `buf.len() <= g` = the slab capacity.
                unsafe { arena.write(slab, i, *item) };
            }
            let handle = arena.seal(slab, buf.len() as u32);
            self.record_message(buf.len(), reason);
            self.push_env(
                dst,
                WireEnvelope::slab(
                    tag,
                    me as u32,
                    handle.slab,
                    0,
                    handle.len,
                    handle.generation,
                ),
            );
        } else {
            self.counters.incr("arena_claim_misses");
            for item in buf.drain(..) {
                self.ship_single(item, reason);
            }
        }
        buf.clear();
    }

    fn emit_worker(&mut self, dst: usize, reason: EmitReason) {
        let mut buf = std::mem::take(&mut self.bufs_worker[dst]);
        if !buf.is_empty() {
            self.ship_slab(dst, TAG_SLAB_WORKER, &mut buf, reason);
        }
        self.bufs_worker[dst] = buf;
    }

    fn emit_proc(&mut self, dst_proc: usize, reason: EmitReason) {
        let mut buf = std::mem::take(&mut self.bufs_proc[dst_proc]);
        if !buf.is_empty() {
            let tag = if self.scheme == Scheme::WsP {
                // Source-side grouping: the receiver only scans runs.
                buf.sort_unstable_by_key(|item| item.dest.0);
                TAG_SLAB_PROC_GROUPED
            } else {
                TAG_SLAB_PROC
            };
            self.ship_to_group_receiver(dst_proc, tag, &mut buf, reason);
        }
        self.bufs_proc[dst_proc] = buf;
    }

    /// Ship a process-addressed buffer to the worker that runs the grouping
    /// pass for (this process, `dst_proc`) — the simulator's spread rule.
    fn ship_to_group_receiver(
        &mut self,
        dst_proc: usize,
        tag: u32,
        buf: &mut Vec<Item<Payload>>,
        reason: EmitReason,
    ) {
        let receiver = self
            .world
            .topo
            .group_receiver(self.my_proc, ProcId(dst_proc as u32));
        self.ship_slab(receiver.0 as usize, tag, buf, reason);
    }

    /// Push every staged PP run into its shared claim buffer (a no-op under
    /// the other schemes, whose `bufs_proc` are WPs/WsP buffers).
    pub(super) fn push_pp_runs(&mut self) {
        if self.scheme != Scheme::PP {
            return;
        }
        for dst_proc in 0..self.bufs_proc.len() {
            self.push_pp_run(dst_proc);
        }
    }

    /// Claim slots for the staged run towards `dst_proc` with the shared
    /// claim buffer's full protocol: a stored part advances the run,
    /// `must_drain` takes the drain lock, a full buffer backs off — and bails
    /// (dropping the rest of the run) once the run is stopping or a sibling
    /// writer died holding the buffer wedged.
    fn push_pp_run(&mut self, dst_proc: usize) {
        if self.bufs_proc[dst_proc].is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.bufs_proc[dst_proc]);
        let claim = self.world.claim(self.my_proc.0 as usize, dst_proc);
        let mut pos = 0;
        let mut spins = 0u32;
        while pos < run.len() {
            let claimed = claim.insert_slice(&run[pos..]);
            pos += claimed.stored;
            if claimed.must_drain {
                self.drain_claim(claim, dst_proc, EmitReason::BufferFull);
            } else if claimed.stored == 0 {
                if self.world.ctl().stop.load(Ordering::Acquire) != 0 || self.sibling_dead() {
                    self.add_dropped((run.len() - pos) as u64);
                    break;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                if spins % 1024 == 0 {
                    // A long-wedged buffer usually means its drainer died:
                    // pick up the dead mask without waiting for the next
                    // quantum.
                    self.refresh_dead();
                }
            }
        }
        run.clear();
        self.bufs_proc[dst_proc] = run;
    }

    /// Take the drain lock and seal-flush `claim`, shipping the collected
    /// items as one slab to the group receiver of `dst_proc`.  Losing the
    /// lock race is fine: the holder's swap covers every slot claimed before
    /// it, including ours.
    fn drain_claim(&mut self, claim: SegClaim<Item<Payload>>, dst_proc: usize, reason: EmitReason) {
        if !claim.try_begin_drain(self.me.0) {
            return;
        }
        let mut out = std::mem::take(&mut self.drain_buf);
        out.clear();
        let ctl = self.world.ctl();
        let sibling_mask = self.sibling_mask;
        let (_drained, skipped) = claim.seal_flush(&mut out, || {
            ctl.stop.load(Ordering::Acquire) != 0
                || ctl.dead_mask.load(Ordering::Acquire) & sibling_mask != 0
        });
        // A skipped slot is a sibling's claim it died before stamping; its
        // send was already counted, so charge the drop here.
        self.add_dropped(skipped);
        self.counters.incr("pp_seal_flushes");
        if !out.is_empty() {
            self.ship_to_group_receiver(dst_proc, TAG_SLAB_PROC, &mut out, reason);
        }
        self.drain_buf = out;
    }

    /// Are all private buffers empty?  Gates the done flag: nothing this
    /// worker still owns may be in flight when it reports done.
    pub(super) fn buffers_empty(&self) -> bool {
        self.stash_len == 0
            && self.bufs_worker.iter().all(Vec::is_empty)
            && self.bufs_proc.iter().all(Vec::is_empty)
    }

    /// Panic path: abandon all unshipped production, counting every item
    /// dropped and returning stashed slabs to the arena.
    fn abandon_production(&mut self) -> u64 {
        let mut dropped = 0u64;
        for buf in &mut self.bufs_worker {
            dropped += buf.len() as u64;
            buf.clear();
        }
        for buf in &mut self.bufs_proc {
            dropped += buf.len() as u64;
            buf.clear();
        }
        for dst in 0..self.world.workers {
            while let Some(env) = self.stash[dst].pop_front() {
                self.stash_len -= 1;
                dropped += drop_envelope(self.world, &env);
            }
        }
        dropped
    }

    /// Push the staged PP runs, then drain every buffer that holds items
    /// (the explicit/idle flush of all five schemes).
    fn flush_with(&mut self, reason: EmitReason) {
        self.flush_emits += 1;
        self.status()
            .flush_emits
            .store(self.flush_emits, Ordering::Relaxed);
        match self.scheme {
            Scheme::NoAgg => {}
            Scheme::WW => {
                for dst in 0..self.world.workers {
                    self.emit_worker(dst, reason);
                }
            }
            Scheme::WPs | Scheme::WsP => {
                for dst_proc in 0..self.world.procs {
                    self.emit_proc(dst_proc, reason);
                }
            }
            Scheme::PP => {
                self.push_pp_runs();
                let src_proc = self.my_proc.0 as usize;
                for dst_proc in 0..self.world.procs {
                    let claim = self.world.claim(src_proc, dst_proc);
                    if claim.claim_count() > 0 {
                        self.drain_claim(claim, dst_proc, reason);
                    }
                }
            }
        }
    }
}

impl RunCtx for ProcCtx<'_> {
    fn my_id(&self) -> WorkerId {
        self.me
    }

    fn topology(&self) -> Topology {
        self.world.topo
    }

    fn now_ns(&self) -> u64 {
        self.world.epoch.elapsed().as_nanos() as u64
    }

    fn rng(&mut self) -> &mut StreamRng {
        &mut self.rng
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    fn send(&mut self, dest: WorkerId, payload: Payload) {
        // Eager count: published before the item lands anywhere, so a kill
        // between here and delivery leaves `sent >= delivered + dropped` —
        // the settlement residual, never a phantom delivery.
        self.status().sent.fetch_add(1, Ordering::Release);
        self.local_sent += 1;
        let item = Item::new(dest, payload, 0);
        let dst_proc = self.world.topo.proc_of_worker(dest);
        if self.world.tram.local_bypass && dst_proc == self.my_proc {
            // Same logical process: skip aggregation, and do not count the
            // envelope as wire traffic (it crosses an OS-process boundary
            // here, but not a *modelled* one — matching the threaded
            // backend's accounting).
            self.counters.incr("local_deliveries");
            self.bypassed += 1;
            self.push_env(dest.0 as usize, WireEnvelope::single(item));
            return;
        }
        match self.scheme {
            Scheme::NoAgg => self.ship_single(item, EmitReason::Unaggregated),
            Scheme::WW => {
                let dst = dest.0 as usize;
                self.bufs_worker[dst].push(item);
                if self.bufs_worker[dst].len() >= self.g {
                    self.emit_worker(dst, EmitReason::BufferFull);
                }
            }
            Scheme::WPs | Scheme::WsP | Scheme::PP => {
                let dst = dst_proc.0 as usize;
                self.bufs_proc[dst].push(item);
                if self.bufs_proc[dst].len() < self.g {
                    return;
                }
                if self.scheme == Scheme::PP {
                    self.push_pp_run(dst);
                } else {
                    self.emit_proc(dst, EmitReason::BufferFull);
                }
            }
        }
    }

    fn flush(&mut self) {
        self.tram.record_flush_call();
        self.flush_with(EmitReason::ExplicitFlush);
    }

    fn flush_on_idle(&mut self) {
        if self.world.tram.flush_policy.on_idle {
            self.flush_with(EmitReason::IdleFlush);
        }
    }
}

/// Deliver a batch to the application and publish the count — strictly after
/// the handler, so handler-generated sends are always counted first.
fn deliver(app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>, items: &[Item<Payload>]) {
    if items.is_empty() {
        return;
    }
    app.on_item_slice(items, ctx);
    ctx.status()
        .delivered
        .fetch_add(items.len() as u64, Ordering::Release);
}

/// Receive-side grouping pass for a process-addressed slab: sort if the
/// source did not, split into per-destination runs, forward peer ranges
/// (consumer refcount bumped first), deliver the own range, drop this
/// consumer's reference.
fn group_and_forward(
    app: &mut dyn WorkerApp,
    ctx: &mut ProcCtx<'_>,
    env: WireEnvelope,
    needs_sort: bool,
) {
    let me = ctx.me.0;
    let arena = ctx.world.arenas[env.owner as usize];
    if needs_sort {
        // SAFETY: outstanding == 1 here — this worker is the slab's sole
        // consumer until `add_consumers` below — so the mutable view is
        // exclusive.
        let items = unsafe { arena.slice_mut(env.slab, 0, env.len) };
        items.sort_unstable_by_key(|item| item.dest.0);
    }
    // SAFETY: sealed slab, len from the seal, this worker holds a consumer
    // reference.
    let items = unsafe { arena.slice(env.slab, 0, env.len) };
    let mut ranges = std::mem::take(&mut ctx.ranges);
    ranges.clear();
    let mut start = 0usize;
    while start < items.len() {
        let dest = items[start].dest.0;
        let mut end = start + 1;
        while end < items.len() && items[end].dest.0 == dest {
            end += 1;
        }
        ranges.push((dest, start as u32, (end - start) as u32));
        start = end;
    }
    ctx.counters.incr("grouping_passes");
    ctx.counters.add("grouped_items", items.len() as u64);
    let forwards = ranges.iter().filter(|&&(dest, _, _)| dest != me).count() as u32;
    if forwards > 0 {
        // Before any forward leaves: a fast peer must never drive the
        // refcount to zero while ranges are still being pushed.
        arena.add_consumers(env.slab, forwards);
    }
    for &(dest, slice_start, slice_len) in &ranges {
        if dest == me {
            continue;
        }
        ctx.push_env(
            dest as usize,
            WireEnvelope::slab(
                TAG_SLAB_SLICE,
                env.owner,
                env.slab,
                slice_start,
                slice_len,
                env.generation,
            ),
        );
    }
    if let Some(&(_, slice_start, slice_len)) = ranges.iter().find(|&&(dest, _, _)| dest == me) {
        // SAFETY: same sealed slab; the range came from the scan above.
        let mine = unsafe { arena.slice(env.slab, slice_start, slice_len) };
        deliver(app, ctx, mine);
    }
    ctx.ranges = ranges;
    if arena.finish_consumer(env.slab) {
        arena.release(env.slab);
    }
}

/// Dispatch one inbound envelope.
fn handle_envelope(app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>, env: WireEnvelope) {
    match env.tag {
        TAG_SINGLE => {
            let item = env.item;
            deliver(app, ctx, &[item]);
        }
        TAG_SLAB_WORKER | TAG_SLAB_SLICE => {
            let arena = ctx.world.arenas[env.owner as usize];
            // SAFETY: sealed slab; this worker holds a consumer reference.
            let items = unsafe { arena.slice(env.slab, env.start, env.len) };
            deliver(app, ctx, items);
            if arena.finish_consumer(env.slab) {
                arena.release(env.slab);
            }
        }
        TAG_SLAB_PROC => group_and_forward(app, ctx, env, true),
        TAG_SLAB_PROC_GROUPED => group_and_forward(app, ctx, env, false),
        _ => {}
    }
}

/// The child-side subset of a fault plan: `Panic` and `Stall` fire inside
/// the worker loop; `Kill` is supervisor-fired (a real SIGKILL cannot be
/// self-scheduled deterministically — the victim must not cooperate).
struct ChildFault {
    kind: FaultKind,
    trigger: FaultTrigger,
    fired: bool,
}

struct ChildFaults {
    faults: Vec<ChildFault>,
}

impl ChildFaults {
    fn compile(plan: Option<&FaultPlan>, me: u32) -> Option<Self> {
        let faults: Vec<ChildFault> = plan?
            .for_worker(me)
            .filter(|f| matches!(f.kind, FaultKind::Panic | FaultKind::Stall { .. }))
            .map(|f| ChildFault {
                kind: f.kind,
                trigger: f.trigger,
                fired: false,
            })
            .collect();
        (!faults.is_empty()).then_some(Self { faults })
    }

    fn poll(&mut self, ctx: &mut ProcCtx<'_>) {
        for fault in &mut self.faults {
            if fault.fired {
                continue;
            }
            let reached = match fault.trigger {
                FaultTrigger::Items(n) => ctx.local_sent >= n,
                FaultTrigger::Flushes(n) => ctx.flush_emits >= n,
                // `compile` keeps only Panic/Stall worker faults; wire faults
                // are node-scoped and never reach a child process.
                FaultTrigger::Sends(_) => unreachable!("wire faults never target a worker"),
            };
            if !reached {
                continue;
            }
            fault.fired = true;
            ctx.world.ctl().faults_fired.fetch_add(1, Ordering::Relaxed);
            match fault.kind {
                FaultKind::Stall { micros } => {
                    ctx.counters.incr("fault_stall");
                    std::thread::sleep(Duration::from_micros(u64::from(micros)));
                }
                FaultKind::Panic => {
                    ctx.counters.incr("fault_panic");
                    panic!("injected fault: worker {} panicked", ctx.me.0);
                }
                _ => {}
            }
        }
    }
}

/// The healthy scheduling loop of one worker process: drain inboxes,
/// generate work, honour quiesce, back off when idle.
fn child_loop(world: &World, app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>) {
    let me = ctx.me.0 as usize;
    let ctl = world.ctl();
    let mut faults = ChildFaults::compile(world.faults.as_ref(), ctx.me.0);
    let mut inbox: Vec<WireEnvelope> = Vec::with_capacity(INBOX_BUDGET);
    let mut beats = 0u64;
    let mut idle_rounds = 0u32;
    let mut quiesced = false;
    loop {
        if ctl.stop.load(Ordering::Acquire) != 0 {
            break;
        }
        beats += 1;
        ctx.status().heartbeat.store(beats, Ordering::Relaxed);
        ctx.refresh_dead();
        if let Some(faults) = faults.as_mut() {
            faults.poll(ctx);
        }
        let mut did_work = ctx.flush_stash();
        for src in 0..world.workers {
            let popped = world.ring(src, me).pop_into(&mut inbox, INBOX_BUDGET);
            if popped == 0 {
                continue;
            }
            for env in inbox.drain(..) {
                handle_envelope(app, ctx, env);
            }
            did_work = true;
        }
        // A graceful-shutdown request: stop generating, one final flush,
        // count as done (the same protocol as the threaded backend).
        let quiescing = ctl.quiesce.load(Ordering::Acquire) != 0;
        if quiescing && !quiesced {
            ctx.flush();
            quiesced = true;
            did_work = true;
        }
        let throttled = ctx.stash_len >= STASH_THROTTLE;
        if !did_work && !quiescing && !throttled && !app.local_done() {
            did_work = app.on_idle(ctx);
        }
        // Staged PP runs enter the shared buffers every iteration, before
        // the done flag: a staged item never outlives its iteration.
        ctx.push_pp_runs();
        let done = (app.local_done() || quiesced) && ctx.buffers_empty();
        ctx.status()
            .stash
            .store(ctx.stash_len as u64, Ordering::Relaxed);
        ctx.status().done.store(u32::from(done), Ordering::Release);
        if did_work {
            idle_rounds = 0;
            continue;
        }
        if idle_rounds == 0 {
            ctx.flush_on_idle();
        }
        idle_rounds += 1;
        if idle_rounds < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Entry point of a forked worker process.  Never returns: the only exits
/// are `exit_group(0)` (stop honoured, counters serialized) and
/// `exit_group(101)` (panic quarantined, message serialized).
pub(super) fn child_main(world: &World, me: WorkerId, mut app: Box<dyn WorkerApp>) -> ! {
    // Silence the default hook: the panic message travels through the
    // result region (via catch_unwind), not the inherited stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let mut ctx = ProcCtx::new(world, me);
    while world.ctl().go.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        app.on_start(&mut ctx);
        child_loop(world, app.as_mut(), &mut ctx);
    }));
    let region = world.result_region(me.0 as usize);
    ctx.finish_stats();
    let code = match result {
        Ok(()) => {
            match catch_unwind(AssertUnwindSafe(|| app.on_finalize(&mut ctx.counters))) {
                Ok(()) => {
                    // SAFETY: this child owns its region exclusively.
                    unsafe {
                        layout::write_result(region, &ctx.counters, ctx.tram.counters(), None)
                    };
                    0
                }
                Err(payload) => {
                    let message = crate::threaded::panic_message(payload.as_ref());
                    // SAFETY: as above.
                    unsafe {
                        layout::write_result(
                            region,
                            &ctx.counters,
                            ctx.tram.counters(),
                            Some(&message),
                        )
                    };
                    101
                }
            }
        }
        Err(payload) => {
            let message = crate::threaded::panic_message(payload.as_ref());
            let dropped = ctx.abandon_production();
            ctx.add_dropped(dropped);
            // SAFETY: as above.
            unsafe {
                layout::write_result(region, &ctx.counters, ctx.tram.counters(), Some(&message))
            };
            101
        }
    };
    // exit_group, never libc exit: no atexit handlers, no destructors — the
    // parent owns every shared resource.
    sys::exit_group(code)
}

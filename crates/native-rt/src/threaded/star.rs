//! The star delivery topology: the PR 3 collector, kept as the A/B baseline.
//!
//! Workers funnel every aggregated message through one MPSC channel into a
//! central collector thread, which runs the receive-side grouping pass
//! ([`tramlib::PooledReceiver`]) and fans per-worker item batches out over
//! per-worker SPSC rings.  Local-bypass batches ride unbounded channels.
//! Every message is therefore handled twice (source worker + collector), and
//! the collector serializes all aggregation traffic — the scaling ceiling the
//! mesh topology removes.  `bench::throughput` measures both.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

use crossbeam_channel::Receiver as ChannelReceiver;
use metrics::Counters;
use net_model::WorkerId;
use runtime_api::{Payload, RunCtx, WorkerApp};
use tramlib::{OutboundMessage, PooledReceiver};

use super::ctx::deliver_batch;
use super::faults::ActiveFaults;
use super::{Batch, NativeWorkerCtx, Shared, WorkerOutput};

/// One worker PE: drain deliveries, generate work, idle-flush, back off.
///
/// As on the mesh, the loop runs inside a `catch_unwind` boundary: a panic
/// quarantines this worker (it keeps draining its rings without delivering,
/// counting drops) instead of poisoning the run.
pub(crate) fn worker_main(
    shared: &Shared,
    me: WorkerId,
    mut app: Box<dyn WorkerApp>,
    local_rx: ChannelReceiver<Batch>,
) -> WorkerOutput {
    let mut ctx = NativeWorkerCtx::new(shared, me, 0);
    // Wait out the start barrier: setup cost must not skew the measured run.
    while !shared.go.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    ctx.refresh_now();
    let mut faults = shared
        .faults
        .as_ref()
        .and_then(|plan| ActiveFaults::compile(plan, me.0));

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        app.on_start(&mut ctx);
        star_loop(shared, me, app.as_mut(), &mut ctx, &local_rx, &mut faults);
    }));
    let panicked = match outcome {
        Ok(()) => false,
        Err(payload) => {
            shared.record_panic(me.0, super::panic_message(payload.as_ref()));
            quarantine(shared, me, &mut ctx, &local_rx);
            true
        }
    };
    if let Some(faults) = faults.as_mut() {
        faults.disarm(ctx.arena);
    }

    // The final (possibly abort-interrupted) iteration may hold unpublished
    // counts; the run report reads the sums after every thread joins.
    ctx.publish_sent();
    ctx.publish_delivered();
    ctx.publish_dropped();
    ctx.export_pool_counters();
    let batch_len = ctx.take_batch_len();
    let mut tram = ctx.pp_stats;
    if let Some(agg) = &ctx.aggregator {
        tram.merge(agg.stats());
    }
    WorkerOutput {
        app: (!panicked).then_some(app),
        counters: ctx.counters,
        latency: ctx.latency,
        app_latency: ctx.app_latency,
        tram,
        batch_len,
    }
}

/// The healthy scheduling loop of one star worker.
fn star_loop(
    shared: &Shared,
    me: WorkerId,
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    local_rx: &ChannelReceiver<Batch>,
    faults: &mut Option<ActiveFaults>,
) {
    let star = shared.plane.star();
    let ring = &star.rings[me.idx()];
    let returns = &star.returns[me.idx()];
    let mut idle_rounds = 0u32;
    let mut beats = 0u64;
    let mut quiesced = false;
    loop {
        // Checked every iteration (not just on the idle path) so the watchdog
        // can abort even a worker whose on_idle never stops returning true.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        beats += 1;
        shared.heartbeats[me.idx()].store(beats, Ordering::Relaxed);
        ctx.refresh_now();
        if let Some(faults) = faults.as_mut() {
            faults.poll(ctx);
        }
        let mut did_work = false;
        // A ring-burst fault closes this worker's delivery ring for its
        // window; the collector's fan-out backs up behind it.
        if !faults.as_ref().is_some_and(ActiveFaults::skip_inbox) {
            while let Some(mut batch) = ring.pop() {
                deliver_batch(app, ctx, &mut batch);
                // Send the spent vector back to the collector's grouping pool
                // (keep it as a local spare if the return ring is full).
                if let Err(batch) = returns.push(batch) {
                    ctx.retain_spare(batch);
                }
                did_work = true;
            }
            while let Ok(mut batch) = local_rx.try_recv() {
                deliver_batch(app, ctx, &mut batch);
                ctx.retain_spare(batch);
                did_work = true;
            }
        }
        // A graceful-shutdown request: stop generating, one final flush, and
        // count as done (same protocol as the mesh loop).
        let quiescing = shared.quiesce.load(Ordering::Acquire);
        if quiescing && !quiesced {
            ctx.flush();
            quiesced = true;
            did_work = true;
        }
        if !did_work && !quiescing && !app.local_done() {
            did_work = app.on_idle(ctx);
        }
        // Push staged PP runs into the shared buffers, then publish batched
        // sends before reporting done (the monitor must see every send that
        // precedes a true done flag), and batched deliveries strictly after
        // the sends (a delivered item's handler-generated sends must always
        // be counted first).
        ctx.push_pp_runs();
        ctx.publish_sent();
        shared.workers_done[me.idx()].store(app.local_done() || quiesced, Ordering::Release);
        ctx.publish_delivered();
        if did_work {
            idle_rounds = 0;
            continue;
        }
        // Out of other work: ship any partial local-bypass batches so peers
        // (and the quiescence check) are never left waiting on them.
        ctx.flush_local();
        if idle_rounds == 0 {
            // Transition into idle: the same point at which the simulator
            // flushes, once per idle quantum.  Flushing on every backoff
            // iteration instead would let an idle PP worker continuously
            // seal-flush the process-shared buffers its peers are filling.
            ctx.flush_on_idle();
        }
        ctx.poll_timeout();
        idle_rounds += 1;
        if idle_rounds < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Failure containment for a panicked star worker: keep the delivery ring
/// and local-bypass channel draining (the collector keeps its pool fed over
/// the return ring) while counting every undelivered item dropped, so the
/// monitor's conservation check can settle and end the run `Aborted`.
fn quarantine(
    shared: &Shared,
    me: WorkerId,
    ctx: &mut NativeWorkerCtx<'_>,
    local_rx: &ChannelReceiver<Batch>,
) {
    // Drop unshipped production, then push out the process-shared PP
    // buffers (see the mesh quarantine for why the dying worker flushes).
    ctx.pending_dropped += ctx.abandon_production();
    ctx.flush();
    ctx.publish_sent();
    ctx.publish_dropped();
    let star = shared.plane.star();
    let ring = &star.rings[me.idx()];
    let returns = &star.returns[me.idx()];
    let mut beats = shared.heartbeats[me.idx()].load(Ordering::Relaxed);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        beats += 1;
        shared.heartbeats[me.idx()].store(beats, Ordering::Relaxed);
        let mut did_work = false;
        while let Some(mut batch) = ring.pop() {
            ctx.pending_dropped += batch.len() as u64;
            batch.clear();
            if let Err(batch) = returns.push(batch) {
                ctx.retain_spare(batch);
            }
            did_work = true;
        }
        while let Ok(mut batch) = local_rx.try_recv() {
            ctx.pending_dropped += batch.len() as u64;
            batch.clear();
            ctx.retain_spare(batch);
            did_work = true;
        }
        ctx.publish_dropped();
        if !did_work {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// The communication thread's stand-in: receive aggregated messages, run the
/// receive-side grouping pass, hand item slices to the destination workers.
///
/// Steady-state allocation-free: the grouping pass draws its per-worker
/// vectors from the [`PooledReceiver`]'s free list, which is fed by the
/// consumed message vectors and by the spent delivery batches the workers
/// send back over the return rings.
pub(crate) fn collector_main(
    shared: &Shared,
    msg_rx: ChannelReceiver<OutboundMessage<Payload>>,
) -> Counters {
    let mut receiver: PooledReceiver<Payload> = PooledReceiver::new(shared.tram);
    let mut counters = Counters::new();
    let star = shared.plane.star();
    loop {
        // Reclaim spent delivery batches the workers have returned.
        for ring in &star.returns {
            while let Some(batch) = ring.pop() {
                receiver.recycle(batch);
            }
        }
        match msg_rx.recv_timeout(Duration::from_millis(1)) {
            Ok(message) => {
                let plan = receiver.process_owned(message);
                if plan.grouping_performed {
                    counters.incr("grouping_passes");
                    counters.add("grouped_items", plan.item_count as u64);
                }
                for (dest, batch) in plan.per_worker {
                    // Aborted run: the consumer may already be gone; drop
                    // rather than deadlock (the report is unclean either way).
                    let _ = star.rings[dest.idx()]
                        .push_wait_or(batch, || shared.stop.load(Ordering::Acquire));
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) && msg_rx.is_empty() {
                    break;
                }
            }
        }
    }
    let pool = receiver.pool_stats();
    counters.add("batch_pool_hits", pool.hits);
    counters.add("batch_pool_misses", pool.misses);
    counters
}

//! Simulation state: workers, processes, communication threads, counters.

use metrics::{Counters, LatencyRecorder};
use net_model::{ProcId, WorkerId};
use runtime_api::{Payload, WorkerApp};
use sim_core::{EventCtx, StreamRng};
use tramlib::{Aggregator, OutboundMessage, Owner, PooledReceiver, Scheme, TramStats};

use crate::config::SimConfig;

/// A bundle of items delivered to a worker's inbox, waiting to be processed
/// during one of the worker's execution quanta.
#[derive(Debug, Clone)]
pub struct DeliveryBatch {
    /// The message (or local slice) carrying the items.
    pub message: OutboundMessage<Payload>,
    /// Receive-side overhead charged to the worker when it dequeues the batch
    /// (message unpacking, and in non-SMP mode the network progress cost).
    pub recv_overhead_ns: u64,
}

/// Per-worker simulation state.
pub struct WorkerState {
    /// The application running on this worker (taken out while executing).
    pub app: Option<Box<dyn WorkerApp>>,
    /// The worker-owned aggregator (WW, WPs, WsP, NoAgg).  PP uses the
    /// process-owned aggregator instead.
    pub aggregator: Option<Aggregator<Payload>>,
    /// Delivered-but-not-yet-processed batches.
    pub inbox: std::collections::VecDeque<DeliveryBatch>,
    /// The worker is busy (executing application work) until this time.
    pub busy_until_ns: u64,
    /// Whether a wake event is already scheduled for this worker.
    pub wake_scheduled: bool,
    /// Deterministic RNG stream for this worker's application.
    pub rng: StreamRng,
}

/// Per-process simulation state.
pub struct ProcState {
    /// Process-owned shared aggregator (PP scheme only).
    pub shared_aggregator: Option<Aggregator<Payload>>,
    /// The communication thread has booked outgoing work up to this time.
    pub comm_send_ready_ns: u64,
    /// The communication thread has booked incoming work up to this time.
    pub comm_recv_ready_ns: u64,
}

/// The complete simulated cluster: the discrete-event state type.
pub struct Cluster {
    /// Configuration of this run.
    pub config: SimConfig,
    /// Per-worker state, indexed by [`WorkerId::idx`].
    pub workers: Vec<WorkerState>,
    /// Per-process state, indexed by [`ProcId::idx`].
    pub procs: Vec<ProcState>,
    /// Destination-side message processor (shared; owns the vector pool that
    /// recycles message and batch allocations across deliveries).
    pub receiver: PooledReceiver<Payload>,
    /// Per-item latency samples (creation to handler execution).
    pub latency: LatencyRecorder,
    /// Application-level latency samples recorded through
    /// `RunCtx::record_app_latency` (e.g. request->response round trips).
    pub app_latency: LatencyRecorder,
    /// Run-wide counters (wire messages, bytes, items, application counters).
    pub counters: Counters,
    /// Items handed to `WorkerCtx::send` so far (conservation check).
    pub items_sent: u64,
    /// Items delivered to application handlers so far (conservation check).
    pub items_delivered: u64,
}

impl Cluster {
    /// Build the cluster state: one [`WorkerState`] per worker PE (with its
    /// application and, except for PP, its aggregator) and one [`ProcState`]
    /// per process.
    ///
    /// `make_app` is called once per worker, in worker-id order.
    pub fn new(
        config: SimConfig,
        make_app: &mut dyn FnMut(WorkerId) -> Box<dyn WorkerApp>,
    ) -> Self {
        let topo = config.topology;
        let scheme = config.common.tram.scheme;
        let workers = topo
            .all_workers()
            .map(|w| WorkerState {
                app: Some(make_app(w)),
                aggregator: if scheme == Scheme::PP {
                    None
                } else {
                    Some(Aggregator::new(config.common.tram, Owner::Worker(w)))
                },
                inbox: std::collections::VecDeque::new(),
                busy_until_ns: 0,
                wake_scheduled: false,
                rng: StreamRng::new(config.common.seed, w.0 as u64),
            })
            .collect();
        let procs = topo
            .all_procs()
            .map(|p| ProcState {
                shared_aggregator: if scheme == Scheme::PP {
                    Some(Aggregator::new(config.common.tram, Owner::Process(p)))
                } else {
                    None
                },
                comm_send_ready_ns: 0,
                comm_recv_ready_ns: 0,
            })
            .collect();
        Self {
            config,
            workers,
            procs,
            receiver: PooledReceiver::new(config.common.tram),
            latency: LatencyRecorder::new(),
            app_latency: LatencyRecorder::new(),
            counters: Counters::new(),
            items_sent: 0,
            items_delivered: 0,
        }
    }

    /// Merge the TramLib statistics of every aggregator (worker- and
    /// process-owned) into one [`TramStats`].
    pub fn merged_tram_stats(&self) -> TramStats {
        let mut total = TramStats::new();
        for w in &self.workers {
            if let Some(agg) = &w.aggregator {
                total.merge(&agg.stats());
            }
        }
        for p in &self.procs {
            if let Some(agg) = &p.shared_aggregator {
                total.merge(&agg.stats());
            }
        }
        total
    }

    /// Total number of items still sitting in aggregation buffers.
    pub fn buffered_items(&self) -> usize {
        let from_workers: usize = self
            .workers
            .iter()
            .filter_map(|w| w.aggregator.as_ref())
            .map(|a| a.buffered_items())
            .sum();
        let from_procs: usize = self
            .procs
            .iter()
            .filter_map(|p| p.shared_aggregator.as_ref())
            .map(|a| a.buffered_items())
            .sum();
        from_workers + from_procs
    }

    /// Total number of batches waiting in worker inboxes.
    pub fn pending_batches(&self) -> usize {
        self.workers.iter().map(|w| w.inbox.len()).sum()
    }

    /// Return a spent item vector (a delivered batch) to the pool closest to
    /// where it will be reused: the delivering worker's aggregator (its next
    /// buffer drain ships a vector away), the process-shared aggregator under
    /// PP, or the receiver's grouping pool otherwise.
    pub fn recycle_items(&mut self, worker: WorkerId, items: Vec<tramlib::Item<Payload>>) {
        if let Some(agg) = self.workers[worker.idx()].aggregator.as_mut() {
            agg.recycle(items);
            return;
        }
        let proc = self.config.topology.proc_of_worker(worker);
        if let Some(agg) = self.procs[proc.idx()].shared_aggregator.as_mut() {
            agg.recycle(items);
            return;
        }
        self.receiver.recycle(items);
    }

    /// Route one aggregated message from `src_proc`, emitted at `emit_ns`,
    /// through the comm thread (SMP) or the worker's own progress engine
    /// (non-SMP), across the wire, and schedule its delivery at the
    /// destination.  Returns the CPU nanoseconds the *sending worker* must be
    /// charged for initiating the send.
    pub fn route_outbound(
        &mut self,
        ev: &mut EventCtx<Cluster>,
        src_proc: ProcId,
        emit_ns: u64,
        message: OutboundMessage<Payload>,
    ) -> u64 {
        let topo = self.config.topology;
        let costs = self.config.costs;
        let bytes = message.bytes;
        let item_count = message.items.len() as u64;

        self.counters.incr("wire_messages");
        self.counters.add("wire_bytes", bytes);
        self.counters.add("wire_items", item_count);
        if message.reason.is_flush() {
            self.counters.incr("wire_messages_flush");
        }

        // Sender-side CPU: initiating the send. Source-side grouping (WsP) was
        // already performed inside the aggregator; its cost is charged here
        // because the aggregator itself is cost-agnostic.
        let mut sender_cpu = costs.worker.message_send_ns;
        if message.grouped_at_source && message.reason != tramlib::EmitReason::Unaggregated {
            let distinct = message.distinct_dest_workers() as u64;
            sender_cpu += costs.worker.grouping_ns(item_count, distinct);
        }

        // Destination process and the worker that will receive the batch.
        let (dst_proc, recv_worker) = match message.dest {
            tramlib::MessageDest::Worker(w) => (topo.proc_of_worker(w), w),
            tramlib::MessageDest::Process(p) => (p, topo.group_receiver(src_proc, p)),
        };
        let same_node = topo.node_of_proc(src_proc) == topo.node_of_proc(dst_proc);
        let wire_ns = costs.link_for(same_node).one_way_nanos(bytes);

        let departure_ns;
        let mut recv_overhead_ns = costs.worker.message_recv_ns.round() as u64;
        if topo.is_smp() {
            // Book the source comm thread (serial server).
            let send_service = costs.comm_thread.send_ns(bytes).round() as u64;
            let comm = &mut self.procs[src_proc.idx()];
            let start = emit_ns.max(comm.comm_send_ready_ns);
            comm.comm_send_ready_ns = start + send_service;
            departure_ns = start + send_service;
            self.counters.add("comm_thread_send_ns", send_service);
        } else {
            // Non-SMP: the worker itself drives the NIC.
            let progress = costs.non_smp_progress_per_msg_ns
                + costs.non_smp_progress_per_byte_ns * bytes as f64;
            sender_cpu += progress;
            departure_ns = emit_ns + progress.round() as u64;
            // The destination worker also pays its own progress cost on receive.
            recv_overhead_ns += progress.round() as u64;
        }

        let arrival_ns = departure_ns + wire_ns;
        let is_smp = topo.is_smp();
        let recv_service = costs.comm_thread.recv_ns(bytes).round() as u64;

        // At arrival time, book the destination comm thread (or deliver
        // directly in non-SMP mode), then enqueue the batch at the receiver.
        ev.schedule_at(
            sim_core::SimTime::from_nanos(arrival_ns),
            move |cluster: &mut Cluster, ev2: &mut EventCtx<Cluster>| {
                let now = ev2.now().as_nanos();
                let deliver_at = if is_smp {
                    let comm = &mut cluster.procs[dst_proc.idx()];
                    let start = now.max(comm.comm_recv_ready_ns);
                    comm.comm_recv_ready_ns = start + recv_service;
                    cluster.counters.add("comm_thread_recv_ns", recv_service);
                    start + recv_service
                } else {
                    now
                };
                let batch = DeliveryBatch {
                    message,
                    recv_overhead_ns,
                };
                ev2.schedule_at(
                    sim_core::SimTime::from_nanos(deliver_at),
                    move |cluster: &mut Cluster, ev3: &mut EventCtx<Cluster>| {
                        cluster.enqueue_batch(ev3, recv_worker, batch);
                    },
                );
            },
        );

        sender_cpu.round() as u64
    }

    /// Deliver a batch straight into a worker's inbox (used for local,
    /// same-process deliveries that never touch the comm thread or the wire).
    pub fn deliver_local(
        &mut self,
        ev: &mut EventCtx<Cluster>,
        dest: WorkerId,
        message: OutboundMessage<Payload>,
        at_ns: u64,
    ) {
        self.counters.incr("local_deliveries");
        let batch = DeliveryBatch {
            message,
            recv_overhead_ns: 0,
        };
        ev.schedule_at(
            sim_core::SimTime::from_nanos(at_ns),
            move |cluster: &mut Cluster, ev2: &mut EventCtx<Cluster>| {
                cluster.enqueue_batch(ev2, dest, batch);
            },
        );
    }

    /// Push a batch onto a worker's inbox and make sure the worker will wake up
    /// to process it.
    pub fn enqueue_batch(
        &mut self,
        ev: &mut EventCtx<Cluster>,
        dest: WorkerId,
        batch: DeliveryBatch,
    ) {
        self.workers[dest.idx()].inbox.push_back(batch);
        self.ensure_wake(ev, dest, ev.now().as_nanos());
    }

    /// Schedule a wake event for `worker` at `at_ns` (clamped to the worker's
    /// busy horizon) unless one is already pending.
    pub fn ensure_wake(&mut self, ev: &mut EventCtx<Cluster>, worker: WorkerId, at_ns: u64) {
        let state = &mut self.workers[worker.idx()];
        if state.wake_scheduled {
            return;
        }
        state.wake_scheduled = true;
        let when = at_ns.max(state.busy_until_ns);
        ev.schedule_at(
            sim_core::SimTime::from_nanos(when),
            move |cluster: &mut Cluster, ev2: &mut EventCtx<Cluster>| {
                crate::runtime::wake_worker(cluster, ev2, worker);
            },
        );
    }
}

//! The traced layer replay: each layer's public functions, called from
//! outside with the workloads' buffer (512 items), item type and schemes,
//! one span per repetition.  The per-stage costs compose into a predicted
//! items/s per scheme (the ledger) that sits next to the measured rate.

use std::hint::black_box;
use std::time::{Duration, Instant};

use net_model::{ProcId, Topology, WorkerId};
use runtime_api::{Item, KernelMode, Payload};
use shmem::{
    ClaimBuffer, ClaimResult, SegArena, SegClaim, SegClaimInsert, SegHeader, SegRing, Segment,
    SegmentLayout, SlabArena, SpscRing,
};
use sim_core::StreamRng;
use tramlib::group::{group_in_place, GroupScratch};
use tramlib::{Aggregator, EmittedMessage, FlushPolicy, Owner, PooledReceiver, Scheme, TramConfig};
use transport::{Frame, FrameKind, TcpTransport, Transport, UdsTransport, WireItem};

use crate::trace::Tracer;
use crate::workload::{BUFFER, SCHEMES, WORKERS};

/// Repetitions per stage; a stage's cost is the median over them.
const REPS: u64 = 7;
/// Items per repetition of the per-item stages.
const ITEMS: usize = 1 << 18;
/// Descriptors per repetition of the ring hand-off.
const RING_OPS: usize = 1 << 18;
/// Ring capacity in descriptors.
const RING_CAPACITY: usize = 1024;
/// Slabs in the stand-alone arenas.
const ARENA_SLABS: usize = 16;
/// Round trips per repetition of the socket ping-pong.
const ROUND_TRIPS: u64 = 300;
/// Histogram buckets per worker, as in the workloads.
const TABLE: u64 = 4096;

/// A 32-byte descriptor, the size of the envelopes the rings carry.
type Descriptor = [u64; 4];

/// Per-stage costs of one replay.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// Slab-mode `Aggregator` insert per item, seals included, per scheme.
    pub insert_ns: [f64; 5],
    /// `PooledReceiver::group_ranges` per item (WPs: destination grouping).
    pub group_wps_ns: f64,
    /// `tramlib::group::group_in_place` per item (WsP: source pass).
    pub group_wsp_ns: f64,
    pub ring_ns: f64,
    pub seg_ring_ns: f64,
    pub slab_cycle_ns: f64,
    pub seg_slab_cycle_ns: f64,
    /// Contended PP claim insert per item and thread, 2 threads.
    pub claim_ns: f64,
    pub claim_retry_ratio: f64,
    pub seg_claim_ns: f64,
    /// The process worker's send path per item, per scheme (WW, WPs, WsP):
    /// `Vec` staging, for WsP the source sort, then per full buffer a
    /// `SegArena` claim, one `write` per item, seal, finish and release.
    pub seg_send_ns: [f64; 5],
    /// The process worker's receive-side grouping per item, per scheme:
    /// sort by destination then split into runs (WPs), or only split (WsP,
    /// sorted at the source).
    pub seg_group_ns: [f64; 5],
    pub apply_ns: f64,
    /// The histogram app's per-update draw.
    pub generate_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub tcp_rtt_us: f64,
    pub uds_rtt_us: f64,
}

/// Runs each stage `REPS` times under a stage span and keeps the median of
/// the per-unit costs the repetitions report.
struct Stages<'a> {
    tracer: &'a mut Tracer,
    root: Option<usize>,
}

impl Stages<'_> {
    /// `rep` returns `(busy time, units)`; the cost is busy ns per unit.
    fn run(&mut self, name: &str, mut rep: impl FnMut() -> (Duration, u64)) -> f64 {
        let stage = self.tracer.begin(name, self.root, 0);
        let mut costs = Vec::with_capacity(REPS as usize);
        for batch in 0..REPS {
            let start = Instant::now();
            let (busy, units) = rep();
            self.tracer
                .record(name, start, Instant::now(), stage, batch);
            costs.push(busy.as_nanos() as f64 / units.max(1) as f64);
        }
        self.tracer.end(stage);
        crate::stats::median(&costs)
    }
}

fn topology() -> Topology {
    Topology::smp(1, 1, WORKERS)
}

fn tram_config(scheme: Scheme) -> TramConfig {
    TramConfig::new(scheme, topology())
        .with_buffer_items(BUFFER)
        .with_item_bytes(16)
        .with_local_bypass(false)
        .with_flush_policy(FlushPolicy::EXPLICIT_ONLY)
}

/// Random destinations among the workers, as the histogram draws them.
fn items(seed: u64, n: usize) -> Vec<Item<Payload>> {
    let mut rng = StreamRng::new(seed, 0);
    (0..n)
        .map(|i| {
            let global = rng.below(u64::from(WORKERS) * TABLE);
            let dest = WorkerId((global / TABLE) as u32);
            Item::new(dest, Payload::new(global % TABLE, i as u64), 0)
        })
        .collect()
}

pub fn replay(tracer: &mut Tracer, seed: u64) -> LayerCosts {
    let root = tracer.begin("layers", None, 0);
    let mut stages = Stages { tracer, root };
    let input = items(seed, ITEMS);
    let mut costs = LayerCosts::default();

    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        costs.insert_ns[i] = stages.run(&format!("tramlib.insert.{scheme:?}"), || {
            insert_rep(scheme, &input)
        });
    }
    let slices: Vec<&[Item<Payload>]> = input.chunks_exact(BUFFER).collect();
    let mut receiver = PooledReceiver::<Payload>::new(tram_config(Scheme::WPs));
    let mut buf: Vec<Item<Payload>> = Vec::with_capacity(BUFFER);
    costs.group_wps_ns = stages.run("tramlib.group.WPs", || {
        let mut busy = Duration::ZERO;
        for slice in &slices {
            buf.clear();
            buf.extend_from_slice(slice);
            let start = Instant::now();
            black_box(receiver.group_ranges(&mut buf, false));
            busy += start.elapsed();
        }
        (busy, ITEMS as u64)
    });
    let mut scratch = GroupScratch::default();
    costs.group_wsp_ns = stages.run("tramlib.group.WsP", || {
        let mut busy = Duration::ZERO;
        for slice in &slices {
            buf.clear();
            buf.extend_from_slice(slice);
            let start = Instant::now();
            group_in_place(&mut buf, WORKERS as usize, &mut scratch);
            black_box(&buf);
            busy += start.elapsed();
        }
        (busy, ITEMS as u64)
    });

    let ring = SpscRing::<Descriptor>::new(RING_CAPACITY);
    costs.ring_ns = stages.run("shmem.ring", || {
        ring_rep(|d| ring.push(d).is_ok(), || ring.pop())
    });
    let ring_seg = segment(SegRing::<Descriptor>::bytes_for(RING_CAPACITY));
    // SAFETY: `segment` maps a fresh zeroed, page-aligned region of at
    // least `bytes_for(RING_CAPACITY)` bytes that nothing else uses.
    let seg_ring = unsafe { SegRing::<Descriptor>::init(ring_seg.at(REGION), RING_CAPACITY) };
    costs.seg_ring_ns = stages.run("shmem.seg_ring", || {
        ring_rep(|d| seg_ring.push(d).is_ok(), || seg_ring.pop())
    });

    let arena = SlabArena::<Item<Payload>>::new(ARENA_SLABS, BUFFER);
    costs.slab_cycle_ns = stages.run("shmem.slab", || {
        let start = Instant::now();
        for _ in 0..ITEMS / 8 {
            let slab = arena.try_claim().expect("a private arena never runs dry");
            let handle = arena.seal(slab, BUFFER as u32);
            if arena.finish_consumer(black_box(handle).slab) {
                arena.release(slab);
            }
        }
        (start.elapsed(), (ITEMS / 8) as u64)
    });
    let slab_seg = segment(SegArena::<Item<Payload>>::bytes_for(ARENA_SLABS, BUFFER));
    // SAFETY: a fresh zeroed region sized by `bytes_for` for this geometry.
    let seg_arena =
        unsafe { SegArena::<Item<Payload>>::init(slab_seg.at(REGION), ARENA_SLABS, BUFFER) };
    costs.seg_slab_cycle_ns = stages.run("shmem.seg_slab", || {
        let start = Instant::now();
        for _ in 0..ITEMS / 8 {
            let slab = seg_arena
                .try_claim()
                .expect("a private arena never runs dry");
            let handle = seg_arena.seal(slab, BUFFER as u32);
            if seg_arena.finish_consumer(black_box(handle).slab) {
                seg_arena.release(slab);
            }
        }
        (start.elapsed(), (ITEMS / 8) as u64)
    });

    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        if matches!(scheme, Scheme::WW | Scheme::WPs | Scheme::WsP) {
            costs.seg_send_ns[i] = stages.run(&format!("native-rt.seg_send.{scheme:?}"), || {
                seg_send_rep(scheme, seg_arena, &input)
            });
        }
        if matches!(scheme, Scheme::WPs | Scheme::WsP) {
            let sorted = scheme == Scheme::WsP;
            costs.seg_group_ns[i] = stages.run(&format!("native-rt.seg_group.{scheme:?}"), || {
                let mut busy = Duration::ZERO;
                for slice in &slices {
                    buf.clear();
                    buf.extend_from_slice(slice);
                    if sorted {
                        buf.sort_unstable_by_key(|item| item.dest.0);
                    }
                    let start = Instant::now();
                    black_box(seg_group(&mut buf, !sorted));
                    busy += start.elapsed();
                }
                (busy, ITEMS as u64)
            });
        }
    }

    let mut retries = Vec::new();
    costs.claim_ns = stages.run("shmem.claim", || {
        let (busy, per_thread, retried) = claim_rep(&input);
        retries.push(retried as f64 / (2 * per_thread) as f64);
        (busy, per_thread)
    });
    costs.claim_retry_ratio = crate::stats::median(&retries);
    let claim_seg = segment(SegClaim::<Item<Payload>>::bytes_for(BUFFER));
    // SAFETY: a fresh zeroed region sized by `bytes_for(BUFFER)`.
    let seg_claim = unsafe { SegClaim::<Item<Payload>>::init(claim_seg.at(REGION), BUFFER) };
    costs.seg_claim_ns = stages.run("shmem.seg_claim", || seg_claim_rep(seg_claim, &input));

    let kernel = kernels::resolve(KernelMode::Auto);
    let mut table = vec![0u64; TABLE as usize];
    costs.apply_ns = stages.run("kernels.apply", || {
        let start = Instant::now();
        for slice in &slices {
            // SAFETY: every bucket in `input` is `global % TABLE`, and the
            // table has exactly `TABLE` slots.
            black_box(unsafe { kernel.histogram_apply(slice, &mut table) });
        }
        (start.elapsed(), ITEMS as u64)
    });
    costs.generate_ns = stages.run("apps.generate", || {
        let mut rng = StreamRng::new(seed, 1);
        let start = Instant::now();
        let mut checksum = 0u64;
        for _ in 0..ITEMS {
            let global = rng.below(u64::from(WORKERS) * TABLE);
            checksum += global % TABLE;
            black_box(global / TABLE);
        }
        black_box(checksum);
        (start.elapsed(), ITEMS as u64)
    });

    let frame = Frame {
        kind: FrameKind::Batch,
        session: seed,
        src: 0,
        dst: 1,
        seq: 1,
        items: input[..BUFFER]
            .iter()
            .map(|i| WireItem {
                dest: u64::from(i.dest.0),
                a: i.data.a,
                b: i.data.b,
                created_at_ns: i.created_at_ns,
            })
            .collect(),
    };
    let mut wire = Vec::with_capacity(frame.wire_bytes());
    let frames = (ITEMS / BUFFER) as u64;
    costs.encode_ns = stages.run("transport.encode", || {
        let start = Instant::now();
        for _ in 0..frames {
            wire.clear();
            frame.encode_into(&mut wire);
            black_box(&wire);
        }
        (start.elapsed(), frames * BUFFER as u64)
    });
    costs.decode_ns = stages.run("transport.decode", || {
        let start = Instant::now();
        for _ in 0..frames {
            let decoded = Frame::decode(&wire[4..]).expect("own encoding decodes");
            black_box(decoded);
        }
        (start.elapsed(), frames * BUFFER as u64)
    });
    let mut tcp = TcpTransport::loopback_mesh(2, seed).expect("loopback TCP mesh");
    costs.tcp_rtt_us = stages.run("transport.tcp_rtt", || ping_pong(&mut tcp)) / 1e3;
    let mut uds = UdsTransport::pair_mesh(2).expect("unix socket pair mesh");
    costs.uds_rtt_us = stages.run("transport.uds_rtt", || ping_pong(&mut uds)) / 1e3;

    stages.tracer.end(root);
    costs
}

/// Offset of the one region each stand-alone segment carries.
const REGION: usize = 64;

fn segment(bytes: usize) -> Segment {
    let mut layout = SegmentLayout::new();
    let offset = layout.reserve(bytes, 64);
    assert_eq!(offset, REGION, "the header occupies the first 64 bytes");
    Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
        .expect("map a shared segment")
}

/// Insert `input` through a fresh slab-mode aggregator; sealed slabs are
/// finished and released at once so the arena never runs dry.
fn insert_rep(scheme: Scheme, input: &[Item<Payload>]) -> (Duration, u64) {
    let owner = if scheme == Scheme::PP {
        Owner::Process(ProcId(0))
    } else {
        Owner::Worker(WorkerId(0))
    };
    let mut agg = Aggregator::<Payload>::new(tram_config(scheme), owner);
    let arena = SlabArena::<Item<Payload>>::new(ARENA_SLABS, BUFFER);
    let start = Instant::now();
    for &item in input {
        if let Some(msg) = agg.insert_slab_at(&arena, item, 0).message {
            match msg {
                EmittedMessage::Slab(sealed) => {
                    if arena.finish_consumer(sealed.handle.slab) {
                        arena.release(sealed.handle.slab);
                    }
                }
                EmittedMessage::Vec(m) => agg.recycle(m.items),
            }
        }
    }
    let mut tail = Vec::new();
    agg.flush_slab_each(&arena, |m| tail.push(m));
    for msg in tail {
        match msg {
            EmittedMessage::Slab(sealed) => {
                if arena.finish_consumer(sealed.handle.slab) {
                    arena.release(sealed.handle.slab);
                }
            }
            EmittedMessage::Vec(m) => agg.recycle(m.items),
        }
    }
    (start.elapsed(), input.len() as u64)
}

/// The process worker's send path for the slab schemes, as
/// `native-rt/src/process/worker.rs` runs it: stage each item in a `Vec`
/// per destination (per worker for WW, per process for WPs and WsP), and
/// when one holds `BUFFER` items sort it (WsP), claim a segment slab, copy
/// the items in one `write` each and seal it.  The slab is finished and
/// released at once, so the arena never runs dry.
fn seg_send_rep(
    scheme: Scheme,
    arena: SegArena<Item<Payload>>,
    input: &[Item<Payload>],
) -> (Duration, u64) {
    let per_worker = scheme == Scheme::WW;
    let lanes = if per_worker { WORKERS as usize } else { 1 };
    let mut staged: Vec<Vec<Item<Payload>>> =
        (0..lanes).map(|_| Vec::with_capacity(BUFFER)).collect();
    let ship = |buf: &mut Vec<Item<Payload>>| {
        if scheme == Scheme::WsP {
            buf.sort_unstable_by_key(|item| item.dest.0);
        }
        let slab = arena.try_claim().expect("a private arena never runs dry");
        for (i, item) in buf.iter().enumerate() {
            // SAFETY: `try_claim` granted `slab` exclusively; `buf.len()` is
            // at most the slab capacity `BUFFER`.
            unsafe { arena.write(slab, i, *item) };
        }
        let handle = arena.seal(slab, buf.len() as u32);
        if arena.finish_consumer(black_box(handle).slab) {
            arena.release(slab);
        }
        buf.clear();
    };
    let start = Instant::now();
    for &item in input {
        let lane = if per_worker { item.dest.0 as usize } else { 0 };
        let buf = &mut staged[lane];
        buf.push(item);
        if buf.len() >= BUFFER {
            ship(buf);
        }
    }
    for buf in &mut staged {
        if !buf.is_empty() {
            ship(buf);
        }
    }
    (start.elapsed(), input.len() as u64)
}

/// The process worker's receive-side grouping of one slab: sort by
/// destination unless the source did, then split into per-destination
/// runs.  Returns the number of runs.
fn seg_group(items: &mut [Item<Payload>], sort: bool) -> usize {
    if sort {
        items.sort_unstable_by_key(|item| item.dest.0);
    }
    let mut runs = 0;
    let mut start = 0;
    while start < items.len() {
        let dest = items[start].dest.0;
        let mut end = start + 1;
        while end < items.len() && items[end].dest.0 == dest {
            end += 1;
        }
        runs += 1;
        start = end;
    }
    runs
}

/// Producer thread pushes `RING_OPS` descriptors, the calling thread pops
/// them: the cross-thread hand-off cost per descriptor.
fn ring_rep(
    push: impl Fn(Descriptor) -> bool + Sync,
    pop: impl Fn() -> Option<Descriptor>,
) -> (Duration, u64) {
    let start = Instant::now();
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            for i in 0..RING_OPS as u64 {
                while !push([i, 0, 0, 0]) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        while expect < RING_OPS as u64 {
            match pop() {
                Some(d) => {
                    assert_eq!(d[0], expect, "ring reordered descriptors");
                    expect += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        producer.join().expect("ring producer panicked");
    });
    (start.elapsed(), RING_OPS as u64)
}

/// Back off like the runtimes do: spin briefly, then yield the core to the
/// thread that holds the buffer.
fn backoff(attempts: &mut u32) {
    if *attempts < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *attempts = attempts.saturating_add(1);
}

/// Two threads insert half of `input` each into one claim buffer.  Returns
/// (wall time, items per thread, retries).
fn claim_rep(input: &[Item<Payload>]) -> (Duration, u64, u64) {
    let buffer = ClaimBuffer::<Item<Payload>>::new(BUFFER);
    let insert_all = |part: &[Item<Payload>]| {
        let mut retries = 0u64;
        for &item in part {
            let mut pending = item;
            let mut attempts = 0u32;
            loop {
                match buffer.insert(pending) {
                    ClaimResult::Stored => break,
                    ClaimResult::Sealed(items) => {
                        black_box(items);
                        break;
                    }
                    ClaimResult::Retry(value) => {
                        pending = value;
                        retries += 1;
                        backoff(&mut attempts);
                    }
                }
            }
        }
        retries
    };
    let (left, right) = input.split_at(input.len() / 2);
    let start = Instant::now();
    let retried = std::thread::scope(|s| {
        let other = s.spawn(|| insert_all(right));
        insert_all(left) + other.join().expect("claim inserter panicked")
    });
    let elapsed = start.elapsed();
    black_box(buffer.seal_flush());
    (elapsed, left.len() as u64, retried)
}

/// The segment claim buffer with the process workers' protocol: the
/// `MustDrain` winner takes the drain lock and seal-flushes.
fn seg_claim_rep(claim: SegClaim<Item<Payload>>, input: &[Item<Payload>]) -> (Duration, u64) {
    let insert_all = |me: u32, part: &[Item<Payload>]| {
        let mut out = Vec::with_capacity(BUFFER);
        for &item in part {
            let mut attempts = 0u32;
            loop {
                match claim.insert(item) {
                    SegClaimInsert::Stored => break,
                    SegClaimInsert::MustDrain => {
                        if claim.try_begin_drain(me) {
                            out.clear();
                            claim.seal_flush(&mut out, || false);
                            black_box(&out);
                        }
                        break;
                    }
                    SegClaimInsert::Retry => backoff(&mut attempts),
                }
            }
        }
    };
    let (left, right) = input.split_at(input.len() / 2);
    let start = Instant::now();
    std::thread::scope(|s| {
        let other = s.spawn(|| insert_all(1, right));
        insert_all(0, left);
        other.join().expect("claim inserter panicked");
    });
    let elapsed = start.elapsed();
    let mut out = Vec::new();
    claim.seal_flush(&mut out, || false);
    (elapsed, left.len() as u64)
}

/// Single-threaded ping-pong over a 2-node mesh: node 0 sends a one-item
/// batch frame, node 1 echoes it.  Cost is ns per round trip.
fn ping_pong<T: Transport>(mesh: &mut [T]) -> (Duration, u64) {
    let (a, b) = mesh.split_at_mut(1);
    let (a, b) = (&mut a[0], &mut b[0]);
    let mut frame = Frame::control(FrameKind::Batch, 1, 0, 1, 0);
    frame.items.push(WireItem {
        dest: 1,
        a: 0,
        b: 0,
        created_at_ns: 0,
    });
    let recv = |t: &mut T| loop {
        if let Some(f) = t.try_recv().expect("loopback receive") {
            return f;
        }
        std::hint::spin_loop();
    };
    let start = Instant::now();
    for seq in 0..ROUND_TRIPS {
        frame.seq = seq;
        a.send(1, &frame).expect("loopback send");
        let got = recv(b);
        assert_eq!(got.seq, seq, "echo out of order");
        b.send(0, &got).expect("loopback send");
        black_box(recv(a));
    }
    (start.elapsed(), ROUND_TRIPS)
}

/// Compose the stage costs into the worker time one item costs on the
/// workload's path, and the items/s two workers could sustain at that cost.
///
/// Per item, on either backend: the app's draw and the kernel apply.
/// Threaded (`segment == false`): the slab insert (for PP the contended
/// claim insert), per wire message one slab cycle and one ring hand-off,
/// and for WPs and PP the destination grouping pass; WsP's source pass is
/// inside its insert.  Process (`segment == true`), the process worker's
/// own stages: the `Vec`-staged send path with its slab cycle (WW, WPs,
/// WsP) or the segment claim insert (PP), its receive-side grouping (WPs,
/// WsP), and per wire message one segment-ring hand-off — PP and NoAgg
/// ship every item as its own envelope.  `messages_per_item` is what the
/// runs measured.
pub fn predicted_items_per_s(
    costs: &LayerCosts,
    scheme_index: usize,
    messages_per_item: f64,
    segment: bool,
) -> f64 {
    let scheme = SCHEMES[scheme_index];
    let (send, group, per_message) = if segment {
        let send = match scheme {
            Scheme::PP => costs.seg_claim_ns,
            _ => costs.seg_send_ns[scheme_index],
        };
        (send, costs.seg_group_ns[scheme_index], costs.seg_ring_ns)
    } else {
        let send = match scheme {
            Scheme::PP => costs.claim_ns,
            _ => costs.insert_ns[scheme_index],
        };
        let group = match scheme {
            Scheme::WPs | Scheme::PP => costs.group_wps_ns,
            _ => 0.0,
        };
        let per_message = match scheme {
            Scheme::WW | Scheme::WPs | Scheme::WsP => costs.slab_cycle_ns + costs.ring_ns,
            Scheme::PP | Scheme::NoAgg => costs.ring_ns,
        };
        (send, group, per_message)
    };
    let per_item_ns =
        costs.generate_ns + costs.apply_ns + send + group + messages_per_item * per_message;
    f64::from(WORKERS) * 1e9 / per_item_ns
}

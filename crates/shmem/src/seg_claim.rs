//! [`ClaimBuffer`]'s cross-process twin: the PP insertion path laid out in a
//! shared [`Segment`](crate::segment::Segment), hardened against writers that
//! die mid-insert.
//!
//! The in-process [`ClaimBuffer`] publishes with a single `committed`
//! counter — fine when every claimer finishes its write, useless when a
//! claimer can be SIGKILLed between claim and commit (the counter would never
//! reach capacity and the sealer would hang forever).  The segment variant
//! replaces it with a **per-slot sequence stamp**: writer claims slot `c`
//! with a `fetch_add`, writes the value, then stamps `seq[c]` with
//! `generation + 1`.  The drainer waits per slot for the stamp; a slot whose
//! writer died never gets stamped, and once the caller says dead workers
//! exist ([`allow_skip`]) the drainer *skips* it after a bounded wait and
//! reports it so the item is charged to the dropped ledger (safe: the
//! writer's `items_sent` was published before the claim, so the ledger
//! `sent == delivered + dropped` still balances).
//!
//! Reopening bumps `generation`, so stale stamps from a previous fill can
//! never satisfy the next drain — the stamps never need resetting.
//!
//! A `drainer` field records who is mid-drain: if *that* process dies, the
//! supervisor (which shares the mapping) completes the drain on its behalf,
//! charging the drained items to the victim, and reopens the buffer so the
//! surviving inserters spinning in [`SegClaimInsert::Retry`] make progress.
//!
//! Two residual hazards are accepted, both confined to runs **already
//! degraded by a death** (skips only happen when `allow_skip` is true):
//! a merely-stalled writer can be skipped (its item counted dropped — a
//! spurious drop, never a double count), and a skipped-then-resumed writer
//! racing the *next* generation's owner of the same slot can tear that one
//! value.  Conservation holds in both cases because accounting is by slot.
//!
//! [`ClaimBuffer`]: crate::claim::ClaimBuffer
//! [`allow_skip`]: SegClaim::drain_full

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// How long to wait on one unstamped slot before consulting `allow_skip`:
/// spin a little, then yield, then (if skipping is allowed) give up on the
/// slot.  A live writer stamps within a few instructions of its claim, so
/// reaching the cutoff with a live writer requires heavy oversubscription —
/// and then the yields hand it the CPU it needs.
const SLOT_SPIN: u32 = 128;
const SLOT_WAIT_CUTOFF: u32 = 4096;

/// In-segment control block (explicit padding; identical layout everywhere).
#[repr(C, align(64))]
struct SegClaimCtl {
    /// Claim cursor; values `>= capacity` mean the buffer is sealed/full.
    claim: AtomicU64,
    _pad0: [u8; 56],
    /// Fill generation; slot stamps of the current fill are `generation + 1`.
    generation: AtomicU64,
    /// Worker id + 1 of the process currently draining (0 = none).
    drainer: AtomicU32,
    _pad1: [u8; 44],
    capacity: u64,
    _pad2: [u8; 56],
}

/// Outcome of one [`SegClaim::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClaimInsert {
    /// Value stored; someone else will drain.
    Stored,
    /// Value stored into the **last** slot: the caller owns the drain and
    /// must call [`SegClaim::begin_drain`] + [`SegClaim::drain_full`].
    MustDrain,
    /// Buffer full (a drain is in progress).  The caller still holds the
    /// value (`T: Copy`) and retries after backing off.
    Retry,
}

/// Outcome of one [`SegClaim::insert_slice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegClaimRun {
    /// How many leading values of the run were stored (0 = full, a drain
    /// is in progress: retry the whole run after backing off).
    pub stored: usize,
    /// The stored part covered the **last** slot: the caller owns the drain,
    /// as on [`SegClaimInsert::MustDrain`].
    pub must_drain: bool,
}

/// View over a crash-robust claim buffer stored in a shared segment.
pub struct SegClaim<T> {
    ctl: *mut SegClaimCtl,
    seq: *mut AtomicU64,
    values: *mut T,
    capacity: usize,
    _marker: PhantomData<T>,
}

impl<T> Clone for SegClaim<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SegClaim<T> {}

// SAFETY: slots are handed off writer → drainer through the per-slot
// release/acquire stamp; the claim fetch_add gives each writer an exclusive
// slot.  `T: Copy` keeps slots free of drop obligations.
unsafe impl<T: Copy + Send> Send for SegClaim<T> {}
unsafe impl<T: Copy + Send> Sync for SegClaim<T> {}

impl<T: Copy> SegClaim<T> {
    /// Required alignment of the reserved region.
    pub const ALIGN: usize = 64;

    /// Bytes this buffer needs inside a segment.
    pub fn bytes_for(capacity: usize) -> usize {
        assert!(capacity > 0, "capacity must be positive");
        let seq_end =
            std::mem::size_of::<SegClaimCtl>() + capacity * std::mem::size_of::<AtomicU64>();
        let values_off = seq_end.div_ceil(64) * 64;
        values_off + capacity * std::mem::size_of::<T>()
    }

    fn view(base: *mut u8, capacity: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= Self::ALIGN);
        assert_eq!(base as usize % Self::ALIGN, 0, "region misaligned");
        let seq_off = std::mem::size_of::<SegClaimCtl>();
        let seq_end = seq_off + capacity * std::mem::size_of::<AtomicU64>();
        let values_off = seq_end.div_ceil(64) * 64;
        Self {
            ctl: base.cast::<SegClaimCtl>(),
            // SAFETY (of the adds): within the region sized by `bytes_for`.
            seq: unsafe { base.add(seq_off) }.cast::<AtomicU64>(),
            values: unsafe { base.add(values_off) }.cast::<T>(),
            capacity,
            _marker: PhantomData,
        }
    }

    /// Initialise a buffer in zeroed segment memory.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(capacity)` writable bytes reserved for
    /// this buffer, exclusively held during init.
    pub unsafe fn init(base: *mut u8, capacity: usize) -> Self {
        let buf = Self::view(base, capacity);
        // SAFETY: exclusive access during init per the function contract.
        unsafe {
            (*buf.ctl).claim = AtomicU64::new(0);
            (*buf.ctl).generation = AtomicU64::new(0);
            (*buf.ctl).drainer = AtomicU32::new(0);
            (*buf.ctl).capacity = capacity as u64;
            for i in 0..capacity {
                (*buf.seq.add(i)) = AtomicU64::new(0);
            }
        }
        buf
    }

    /// Attach to a buffer another process initialised at the same offset.
    ///
    /// # Safety
    /// `base` must point at a region a cooperating process passed to
    /// [`SegClaim::init`] with the same `capacity` and element type `T`.
    pub unsafe fn attach(base: *mut u8, capacity: usize) -> Self {
        let buf = Self::view(base, capacity);
        // SAFETY: init ran before any attach per the function contract.
        let stamped = unsafe { (*buf.ctl).capacity };
        assert_eq!(stamped, capacity as u64, "claim buffer capacity mismatch");
        buf
    }

    fn ctl(&self) -> &SegClaimCtl {
        // SAFETY: constructed over a live region that outlives every view.
        unsafe { &*self.ctl }
    }

    fn seq(&self, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.capacity);
        // SAFETY: slot checked in bounds.
        unsafe { &*self.seq.add(slot) }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw claim cursor (settlement inspects it; `>= capacity` means full).
    pub fn claim_count(&self) -> u64 {
        self.ctl().claim.load(Ordering::Acquire)
    }

    /// Worker id + 1 of the in-progress drainer, 0 if none.
    pub fn drainer(&self) -> u32 {
        self.ctl().drainer.load(Ordering::Acquire)
    }

    /// Insert one value.  See [`SegClaimInsert`] for the caller's duties.
    pub fn insert(&self, value: T) -> SegClaimInsert {
        match self.insert_slice(std::slice::from_ref(&value)) {
            SegClaimRun { stored: 0, .. } => SegClaimInsert::Retry,
            SegClaimRun {
                must_drain: true, ..
            } => SegClaimInsert::MustDrain,
            SegClaimRun { .. } => SegClaimInsert::Stored,
        }
    }

    /// Insert a run of values with one claim: `fetch_add(n)` hands out `n`
    /// slots; the leading `min(n, capacity - first)` values are written and
    /// each stamped as in [`SegClaim::insert`].  See [`SegClaimRun`] for the
    /// caller's duties; the values past `stored` are the caller's to retry.
    pub fn insert_slice(&self, values: &[T]) -> SegClaimRun {
        let ctl = self.ctl();
        let n = values.len();
        let first = ctl.claim.fetch_add(n as u64, Ordering::AcqRel);
        if first >= self.capacity as u64 {
            // Full: a drain is (or will be) in progress.  The overshoot is
            // harmless — reopen stores 0.
            return SegClaimRun {
                stored: 0,
                must_drain: false,
            };
        }
        let first = first as usize;
        let stored = n.min(self.capacity - first);
        // Load the generation AFTER winning the slots: the generation cannot
        // advance past us now, because the drain waits for each of these
        // slots' stamps before reopening (a skip requires allow_skip, i.e. a
        // death).
        let generation = ctl.generation.load(Ordering::Acquire);
        // SAFETY: the fetch_add handed us exclusive ownership of slots
        // `first..first + stored` for this generation, all below capacity.
        unsafe {
            std::ptr::copy_nonoverlapping(values.as_ptr(), self.values.add(first), stored);
        }
        // Each stamp publishes its slot's value to the drainer (release →
        // acquire); a writer killed mid-run leaves a stamped prefix.
        for slot in first..first + stored {
            self.seq(slot).store(generation + 1, Ordering::Release);
        }
        SegClaimRun {
            stored,
            must_drain: first + stored == self.capacity,
        }
    }

    /// Record `me` (worker id) as the drain owner.  Call before
    /// [`SegClaim::drain_full`]; the supervisor uses the record to finish
    /// drains whose owner died.
    pub fn begin_drain(&self, me: u32) {
        self.ctl().drainer.store(me + 1, Ordering::Release);
    }

    /// Try to take the drain lock: CAS the drainer record from 0 to `me + 1`.
    ///
    /// Concurrent drain intents (a `MustDrain` winner racing a peer's
    /// explicit flush) must serialize through this lock — two overlapping
    /// `collect` passes would double-read every slot.  A loser simply walks
    /// away: the holder's swap covers every slot claimed before it, which
    /// includes everything the loser successfully inserted.  The lock is
    /// cleared by the drain's internal reopen; a holder that dies mid-drain
    /// leaves its worker id behind for the supervisor's orphan-drain
    /// settlement.
    pub fn try_begin_drain(&self, me: u32) -> bool {
        self.ctl()
            .drainer
            .compare_exchange(0, me + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Drain a **full** buffer (every slot claimed): append the `capacity`
    /// values to `out`, skipping slots whose writer never stamped if
    /// `allow_skip` returns true (only when a worker is known dead).  Returns
    /// the number of skipped slots — the caller charges each to the dropped
    /// ledger.  Reopens the buffer before returning.
    pub fn drain_full(&self, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> u64 {
        self.collect(self.capacity, out, allow_skip)
    }

    /// Settlement flush: seal whatever is claimed (no inserter may be live
    /// unless it is dead-spinning in Retry), drain it, reopen.  Appends the
    /// values to `out` and returns `(drained, skipped)`.
    pub fn seal_flush(&self, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> (u64, u64) {
        let ctl = self.ctl();
        // Swap rather than load: parks the cursor at `capacity` so any
        // straggling inserter lands in Retry instead of a slot we already
        // passed over.
        let claimed = ctl.claim.swap(self.capacity as u64, Ordering::AcqRel);
        let count = (claimed as usize).min(self.capacity);
        let skipped = self.collect(count, out, allow_skip);
        (count as u64 - skipped, skipped)
    }

    /// Wait for and read slots `0..count`, then reopen.  Returns skips.
    fn collect(&self, count: usize, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> u64 {
        let ctl = self.ctl();
        let expected = ctl.generation.load(Ordering::Acquire) + 1;
        let mut skipped = 0u64;
        out.reserve(count);
        for slot in 0..count {
            let mut waited = 0u32;
            loop {
                if self.seq(slot).load(Ordering::Acquire) == expected {
                    // SAFETY: the writer's release stamp published its write
                    // of this slot; the claim fetch_add made it exclusive.
                    out.push(unsafe { self.values.add(slot).read() });
                    break;
                }
                if waited >= SLOT_WAIT_CUTOFF && allow_skip() {
                    // Writer presumed dead between claim and stamp: the item
                    // is gone, but its send was already published, so one
                    // dropped-item charge keeps the ledger balanced.
                    skipped += 1;
                    break;
                }
                if waited < SLOT_SPIN {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                waited = waited.saturating_add(1);
            }
        }
        self.reopen();
        skipped
    }

    /// Bump the generation (inert-ing every stale stamp), clear the drainer,
    /// and republish an empty claim cursor.
    fn reopen(&self) {
        let ctl = self.ctl();
        ctl.generation.fetch_add(1, Ordering::AcqRel);
        ctl.drainer.store(0, Ordering::Release);
        // The release store orders the generation bump before the cursor
        // reset: an inserter that wins a fresh slot (AcqRel fetch_add reads
        // this store) must see the new generation for its stamp.
        ctl.claim.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegHeader, Segment, SegmentLayout};
    use std::sync::Arc;

    fn claim_segment(capacity: usize) -> (Arc<Segment>, SegClaim<u64>) {
        let mut layout = SegmentLayout::new();
        let off = layout.reserve(SegClaim::<u64>::bytes_for(capacity), SegClaim::<u64>::ALIGN);
        let seg = Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
            .expect("create segment");
        // SAFETY: fresh region reserved for this buffer.
        let buf = unsafe { SegClaim::init(seg.at(off), capacity) };
        (Arc::new(seg), buf)
    }

    #[test]
    fn fill_drain_reopen_round_trip() {
        let (_seg, buf) = claim_segment(4);
        assert_eq!(buf.insert(10), SegClaimInsert::Stored);
        assert_eq!(buf.insert(11), SegClaimInsert::Stored);
        assert_eq!(buf.insert(12), SegClaimInsert::Stored);
        assert_eq!(buf.insert(13), SegClaimInsert::MustDrain);
        assert_eq!(buf.insert(99), SegClaimInsert::Retry, "full buffer rejects");
        buf.begin_drain(2);
        assert_eq!(buf.drainer(), 3);
        let mut out = Vec::new();
        let skipped = buf.drain_full(&mut out, || false);
        assert_eq!(skipped, 0);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(buf.drainer(), 0, "reopen clears the drainer");
        // Next generation works identically; stale stamps are inert.
        assert_eq!(buf.insert(20), SegClaimInsert::Stored);
        let (drained, skipped) = buf.seal_flush(&mut out, || false);
        assert_eq!((drained, skipped), (1, 0));
        assert_eq!(out.last(), Some(&20));
    }

    #[test]
    fn seal_flush_of_empty_buffer_is_a_no_op() {
        let (_seg, buf) = claim_segment(4);
        let mut out = Vec::new();
        assert_eq!(buf.seal_flush(&mut out, || false), (0, 0));
        assert!(out.is_empty());
        // Buffer stays usable.
        assert_eq!(buf.insert(1), SegClaimInsert::Stored);
    }

    #[test]
    fn unstamped_slot_is_skipped_and_charged_when_allowed() {
        // Simulate a writer killed between claim and stamp: bump the claim
        // cursor by hand (the "writer" never writes or stamps), then fill the
        // rest normally.
        let (_seg, buf) = claim_segment(3);
        assert_eq!(buf.insert(1), SegClaimInsert::Stored);
        let dead_slot = buf.ctl().claim.fetch_add(1, Ordering::AcqRel);
        assert_eq!(dead_slot, 1);
        assert_eq!(buf.insert(3), SegClaimInsert::MustDrain);
        let mut out = Vec::new();
        let skipped = buf.drain_full(&mut out, || true);
        assert_eq!(skipped, 1, "the dead writer's slot is charged");
        assert_eq!(out, vec![1, 3], "live slots drain in order");
        // The buffer reopened and the stale generation cannot satisfy the
        // next drain: a full clean round trip still works.
        for i in 0..2 {
            assert_eq!(buf.insert(i), SegClaimInsert::Stored);
        }
        assert_eq!(buf.insert(9), SegClaimInsert::MustDrain);
        out.clear();
        assert_eq!(buf.drain_full(&mut out, || false), 0);
        assert_eq!(out, vec![0, 1, 9]);
    }

    #[test]
    fn run_straddling_capacity_stores_its_leading_part() {
        let (_seg, buf) = claim_segment(4);
        let run = buf.insert_slice(&[1, 2, 3]);
        assert_eq!(
            run,
            SegClaimRun {
                stored: 3,
                must_drain: false
            }
        );
        let run = buf.insert_slice(&[4, 5, 6]);
        assert_eq!(
            run,
            SegClaimRun {
                stored: 1,
                must_drain: true
            }
        );
        assert_eq!(buf.insert_slice(&[5, 6]).stored, 0, "full buffer rejects");
        assert!(buf.try_begin_drain(0));
        let mut out = Vec::new();
        assert_eq!(buf.seal_flush(&mut out, || false), (4, 0));
        assert_eq!(out, vec![1, 2, 3, 4]);
        // A run longer than capacity takes exactly one generation's worth.
        let long: Vec<u64> = (10..20).collect();
        assert_eq!(
            buf.insert_slice(&long),
            SegClaimRun {
                stored: 4,
                must_drain: true
            }
        );
        out.clear();
        assert_eq!(buf.drain_full(&mut out, || false), 0);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(buf.insert_slice(&[]).stored, 0);
    }

    #[test]
    fn partly_stamped_run_is_skipped_and_charged_when_allowed() {
        // A writer killed in the middle of stamping its run: slots 1..4 are
        // claimed and written, but only slot 1 got its stamp.
        let (_seg, buf) = claim_segment(5);
        assert_eq!(buf.insert(1), SegClaimInsert::Stored);
        assert_eq!(buf.insert_slice(&[2, 3, 4]).stored, 3);
        buf.seq(2).store(0, Ordering::Release);
        buf.seq(3).store(0, Ordering::Release);
        assert_eq!(buf.insert(5), SegClaimInsert::MustDrain);
        let mut out = Vec::new();
        let skipped = buf.drain_full(&mut out, || true);
        assert_eq!(skipped, 2, "each unstamped slot of the run is charged");
        assert_eq!(out, vec![1, 2, 5], "stamped slots drain in order");
        // The reopened buffer is clean: the stale stamps cannot satisfy it.
        assert_eq!(buf.insert_slice(&[7, 8]).stored, 2);
        let (drained, skipped) = buf.seal_flush(&mut out, || false);
        assert_eq!((drained, skipped), (2, 0));
        assert_eq!(&out[3..], &[7, 8]);
    }

    #[test]
    fn eight_threads_of_random_runs_conserve_every_item() {
        // Runs of random length 1..=2g from 8 threads, drained by their
        // MustDrain winners and by a concurrent explicit flusher, all
        // serialized through the drain lock like the process backend.
        let capacity = 16usize;
        let (seg, buf) = claim_segment(capacity);
        let per_thread = 5_000u64;
        let threads = 8u64;
        let collected = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let drain = move |me: u32, out: &mut Vec<u64>| {
            if buf.try_begin_drain(me) {
                let (_, skipped) = buf.seal_flush(out, || false);
                assert_eq!(skipped, 0);
            }
        };
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let seg = seg.clone();
                let collected = collected.clone();
                std::thread::spawn(move || {
                    let _hold = seg;
                    let values: Vec<u64> = (t * per_thread..(t + 1) * per_thread).collect();
                    let mut rng = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut out = Vec::new();
                    let mut pos = 0;
                    while pos < values.len() {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let end =
                            (pos + 1 + (rng % (2 * capacity as u64)) as usize).min(values.len());
                        while pos < end {
                            let run = buf.insert_slice(&values[pos..end]);
                            pos += run.stored;
                            if run.must_drain {
                                drain(t as u32, &mut out);
                            } else if run.stored == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                    collected.lock().unwrap().extend_from_slice(&out);
                })
            })
            .collect();
        let flusher = {
            let seg = seg.clone();
            let collected = collected.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let _hold = seg;
                let mut out = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    if buf.claim_count() > 0 {
                        drain(threads as u32, &mut out);
                    }
                    std::thread::yield_now();
                }
                collected.lock().unwrap().extend_from_slice(&out);
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        flusher.join().unwrap();
        let mut all = collected.lock().unwrap().clone();
        let (_, skipped) = buf.seal_flush(&mut all, || false);
        assert_eq!(skipped, 0);
        assert_eq!(all.len() as u64, threads * per_thread, "items conserved");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per_thread, "every value once");
    }

    #[test]
    fn concurrent_inserters_conserve_every_item() {
        // 4 threads × 10k inserts through a tiny buffer; the MustDrain winner
        // drains.  Every inserted value must come out exactly once.
        let (seg, buf) = claim_segment(8);
        let per_thread = 10_000u64;
        let threads = 4u64;
        let collected = Arc::new(std::sync::Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let seg = seg.clone();
                let collected = collected.clone();
                std::thread::spawn(move || {
                    let _hold = seg;
                    let mut scratch = Vec::new();
                    for i in 0..per_thread {
                        let value = t * per_thread + i;
                        loop {
                            match buf.insert(value) {
                                SegClaimInsert::Stored => break,
                                SegClaimInsert::MustDrain => {
                                    buf.begin_drain(t as u32);
                                    scratch.clear();
                                    let skipped = buf.drain_full(&mut scratch, || false);
                                    assert_eq!(skipped, 0);
                                    collected.lock().unwrap().extend_from_slice(&scratch);
                                    break;
                                }
                                SegClaimInsert::Retry => std::thread::yield_now(),
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Settle the partial remainder like the supervisor would.
        let mut rest = Vec::new();
        let (_, skipped) = buf.seal_flush(&mut rest, || false);
        assert_eq!(skipped, 0);
        let mut all = collected.lock().unwrap().clone();
        all.extend_from_slice(&rest);
        assert_eq!(all.len() as u64, threads * per_thread);
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            threads * per_thread,
            "every value exactly once"
        );
    }
}

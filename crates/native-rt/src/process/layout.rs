//! Shared-segment control blocks and the per-worker result region.
//!
//! Everything here lives inside the run's memfd segment and is therefore
//! visible to the supervisor and every worker process.  Two rules govern the
//! layout:
//!
//! * control words the hot path touches are padded to their own cache lines
//!   (a worker bumping its `sent` counter must not bounce the line a peer's
//!   `delivered` counter lives on);
//! * the result region is written only by its owning child, read only by the
//!   supervisor **after** the child has been reaped — process exit is the
//!   synchronization point, so the serialization needs no atomics beyond the
//!   `ready` word.

use std::sync::atomic::{AtomicU32, AtomicU64};

use metrics::Counters;

/// Run-global control block: the start barrier, the stop/quiesce requests,
/// the dead-worker bitmask and the fired-fault tally.
#[repr(C, align(64))]
pub(super) struct RunCtl {
    /// Start barrier: children spin until the supervisor releases it, so the
    /// measured window excludes fork cost.
    pub(super) go: AtomicU32,
    /// Stop request: children finalize, serialize their counters and exit.
    pub(super) stop: AtomicU32,
    /// Graceful-shutdown request (delivered SIGINT/SIGTERM): children stop
    /// generating, flush once, and report done.
    pub(super) quiesce: AtomicU32,
    /// Bit `w` set once worker `w`'s process has been reaped dead.  Read by
    /// survivors to stop shipping to (and waiting on) a corpse.
    pub(super) dead_mask: AtomicU64,
    /// Injected faults that have fired so far (child- and supervisor-side).
    pub(super) faults_fired: AtomicU64,
}

impl RunCtl {
    pub(super) fn new() -> Self {
        Self {
            go: AtomicU32::new(0),
            stop: AtomicU32::new(0),
            quiesce: AtomicU32::new(0),
            dead_mask: AtomicU64::new(0),
            faults_fired: AtomicU64::new(0),
        }
    }
}

/// Per-worker status block, one cache-line-padded slot per worker process.
/// The owner writes, the supervisor (and, for `dead_mask` decisions, peers)
/// read.  `dropped` is the one exception: the supervisor and peers charge
/// drops *to* a dead worker's ledger, hence `fetch_add` everywhere.
#[repr(C, align(128))]
pub(super) struct WorkerStatus {
    /// Items handed to `send` (eager: counted before the item lands
    /// anywhere, so a kill can only leave `sent >= delivered + dropped`).
    pub(super) sent: AtomicU64,
    /// Items delivered to application handlers.
    pub(super) delivered: AtomicU64,
    /// Items dropped: addressed to a dead worker, stranded in a dead
    /// worker's buffers, or abandoned by a panicking child.
    pub(super) dropped: AtomicU64,
    /// Progress heartbeat, bumped once per scheduling quantum.
    pub(super) heartbeat: AtomicU64,
    /// Explicit/idle/timeout flushes emitted (the `Flushes(n)` fault
    /// trigger's clock).
    pub(super) flush_emits: AtomicU64,
    /// Envelopes parked in the overflow stash (diagnostics gauge).
    pub(super) stash: AtomicU64,
    /// Latest done observation (local_done or quiesced, buffers empty).
    pub(super) done: AtomicU32,
}

impl WorkerStatus {
    pub(super) fn new() -> Self {
        Self {
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            flush_emits: AtomicU64::new(0),
            stash: AtomicU64::new(0),
            done: AtomicU32::new(0),
        }
    }
}

/// Size of one worker's result region: enough for every app counter the
/// proxy workloads emit, with generous headroom.
pub(super) const RESULT_REGION_BYTES: usize = 32 * 1024;

/// Maximum serialized panic-message length.
const PANIC_MSG_BYTES: usize = 256;

const FLAG_PANICKED: u64 = 1;

// Region layout (all u64 fields 8-aligned; names padded to 8 bytes):
//   [0]  ready      (1 once the writer is finished)
//   [8]  flags      (FLAG_PANICKED)
//   [16] panic_len
//   [24] panic message bytes (PANIC_MSG_BYTES)
//   [..] n_counters
//   then per counter: value u64, op u64 (0 = add, 1 = max), name_len u64,
//   name bytes padded to a multiple of 8.  TramLib statistics counters ride
//   the same list, their names prefixed with `TRAM_PREFIX`.
const HDR_READY: usize = 0;
const HDR_FLAGS: usize = 8;
const HDR_PANIC_LEN: usize = 16;
const HDR_PANIC_MSG: usize = 24;
const HDR_COUNTERS: usize = HDR_PANIC_MSG + PANIC_MSG_BYTES;

/// Name prefix that marks a serialized counter as a TramLib statistic.
pub(super) const TRAM_PREFIX: &str = "tram.";

unsafe fn write_u64(base: *mut u8, off: usize, value: u64) {
    (base.add(off) as *mut u64).write(value);
}

unsafe fn read_u64(base: *const u8, off: usize) -> u64 {
    (base.add(off) as *const u64).read()
}

/// Serialize a child's final state into its result region.  Called exactly
/// once, immediately before `exit_group`; the supervisor reads the region
/// only after reaping the child, so process exit orders the accesses.
///
/// # Safety
/// `base` must point at a writable [`RESULT_REGION_BYTES`] region owned by
/// the calling child.
pub(super) unsafe fn write_result(
    base: *mut u8,
    counters: &Counters,
    tram: &Counters,
    panic_msg: Option<&str>,
) {
    let mut flags = 0u64;
    let mut panic_len = 0usize;
    if let Some(msg) = panic_msg {
        flags |= FLAG_PANICKED;
        let bytes = msg.as_bytes();
        panic_len = bytes.len().min(PANIC_MSG_BYTES);
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), base.add(HDR_PANIC_MSG), panic_len);
    }
    write_u64(base, HDR_FLAGS, flags);
    write_u64(base, HDR_PANIC_LEN, panic_len as u64);
    let mut off = HDR_COUNTERS + 8;
    let mut n = 0u64;
    let entries = counters
        .iter()
        .map(|(name, value)| ("", name, value, counters.is_max_key(name)))
        .chain(
            tram.iter()
                .map(|(name, value)| (TRAM_PREFIX, name, value, false)),
        );
    for (prefix, name, value, is_max) in entries {
        let name_len = prefix.len() + name.len();
        let padded = name_len.div_ceil(8) * 8;
        if off + 24 + padded > RESULT_REGION_BYTES {
            break; // region exhausted: keep what fits
        }
        write_u64(base, off, value);
        write_u64(base, off + 8, u64::from(is_max));
        write_u64(base, off + 16, name_len as u64);
        let name_at = base.add(off + 24);
        std::ptr::copy_nonoverlapping(prefix.as_ptr(), name_at, prefix.len());
        std::ptr::copy_nonoverlapping(name.as_ptr(), name_at.add(prefix.len()), name.len());
        off += 24 + padded;
        n += 1;
    }
    write_u64(base, HDR_COUNTERS, n);
    write_u64(base, HDR_READY, 1);
}

/// A deserialized result region.
pub(super) struct WorkerResult {
    pub(super) panicked: bool,
    pub(super) panic_msg: String,
    /// `(name, value, is_max)` triples in serialization order.
    pub(super) counters: Vec<(String, u64, bool)>,
}

/// Deserialize a child's result region; `None` if the child never finished
/// writing it (killed before settlement).
///
/// # Safety
/// `base` must point at a [`RESULT_REGION_BYTES`] region that no live
/// process is writing (the owning child has been reaped).
pub(super) unsafe fn read_result(base: *const u8) -> Option<WorkerResult> {
    if read_u64(base, HDR_READY) != 1 {
        return None;
    }
    let flags = read_u64(base, HDR_FLAGS);
    let panic_len = (read_u64(base, HDR_PANIC_LEN) as usize).min(PANIC_MSG_BYTES);
    let panic_msg = {
        let mut bytes = vec![0u8; panic_len];
        std::ptr::copy_nonoverlapping(base.add(HDR_PANIC_MSG), bytes.as_mut_ptr(), panic_len);
        String::from_utf8_lossy(&bytes).into_owned()
    };
    let n = read_u64(base, HDR_COUNTERS) as usize;
    let mut counters = Vec::with_capacity(n);
    let mut off = HDR_COUNTERS + 8;
    for _ in 0..n {
        if off + 24 > RESULT_REGION_BYTES {
            break;
        }
        let value = read_u64(base, off);
        let is_max = read_u64(base, off + 8) != 0;
        let name_len = read_u64(base, off + 16) as usize;
        let padded = name_len.div_ceil(8) * 8;
        if off + 24 + padded > RESULT_REGION_BYTES {
            break;
        }
        let mut name = vec![0u8; name_len];
        std::ptr::copy_nonoverlapping(base.add(off + 24), name.as_mut_ptr(), name_len);
        counters.push((String::from_utf8_lossy(&name).into_owned(), value, is_max));
        off += 24 + padded;
    }
    Some(WorkerResult {
        panicked: flags & FLAG_PANICKED != 0,
        panic_msg,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trip() {
        let mut region = vec![0u8; RESULT_REGION_BYTES];
        let mut counters = Counters::new();
        counters.add("app_received", 42);
        counters.max("histo_table_max_bucket", 9);
        let mut tram = Counters::new();
        tram.add("messages_sent", 3);
        unsafe { write_result(region.as_mut_ptr(), &counters, &tram, None) };
        let result = unsafe { read_result(region.as_ptr()) }.expect("ready");
        assert!(!result.panicked);
        assert!(result.panic_msg.is_empty());
        let get = |name: &str| {
            result
                .counters
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, v, m)| (v, m))
        };
        assert_eq!(get("app_received"), Some((42, false)));
        assert_eq!(get("histo_table_max_bucket"), Some((9, true)));
        assert_eq!(get("tram.messages_sent"), Some((3, false)));
    }

    #[test]
    fn panic_message_survives_and_truncates() {
        let mut region = vec![0u8; RESULT_REGION_BYTES];
        let long = "x".repeat(4 * PANIC_MSG_BYTES);
        unsafe {
            write_result(
                region.as_mut_ptr(),
                &Counters::new(),
                &Counters::new(),
                Some(&long),
            )
        };
        let result = unsafe { read_result(region.as_ptr()) }.expect("ready");
        assert!(result.panicked);
        assert_eq!(result.panic_msg.len(), PANIC_MSG_BYTES);
    }

    #[test]
    fn unwritten_region_reads_as_none() {
        let region = vec![0u8; RESULT_REGION_BYTES];
        assert!(unsafe { read_result(region.as_ptr()) }.is_none());
    }
}

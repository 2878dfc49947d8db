//! Property tests for the lock-free [`shmem::ClaimBuffer`]: for any
//! (capacity, inserter count, items-per-inserter, flush cadence) combination,
//! racing inserters and an explicit `seal_flush` caller must conserve every
//! item exactly once — whether they insert one item per claim or runs of
//! random length `1..=2 * capacity` per claim.

use proptest::prelude::*;
use shmem::{ClaimBuffer, ClaimResult};
use std::sync::{Arc, Mutex};

/// Drive `threads` inserters (each inserting `per_thread` distinct values)
/// against `flushes` concurrent `seal_flush` calls; return every collected
/// value.  With `runs`, each inserter claims runs of seeded random length
/// `1..=2 * capacity` through `insert_slice` instead of single items.
fn race(capacity: usize, threads: u64, per_thread: u64, flushes: u32, runs: bool) -> Vec<u64> {
    let buffer: Arc<ClaimBuffer<u64>> = Arc::new(ClaimBuffer::new(capacity));
    let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let inserters: Vec<_> = (0..threads)
        .map(|t| {
            let buffer = buffer.clone();
            let collected = collected.clone();
            std::thread::spawn(move || {
                if runs {
                    insert_runs(&buffer, &collected, t, per_thread);
                    return;
                }
                for i in 0..per_thread {
                    let mut value = t * per_thread + i;
                    loop {
                        match buffer.insert(value) {
                            ClaimResult::Stored => break,
                            ClaimResult::Sealed(items) => {
                                collected.lock().unwrap().extend(items);
                                break;
                            }
                            ClaimResult::Retry(v) => {
                                value = v;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let flusher = {
        let buffer = buffer.clone();
        let collected = collected.clone();
        std::thread::spawn(move || {
            for _ in 0..flushes {
                let items = buffer.seal_flush();
                collected.lock().unwrap().extend(items);
                std::thread::yield_now();
            }
        })
    };
    for h in inserters {
        h.join().unwrap();
    }
    flusher.join().unwrap();

    let mut all = collected.lock().unwrap().clone();
    all.extend(buffer.seal_flush());
    all
}

/// One inserter's run loop: seeded run lengths, retrying each run's
/// unstored tail until the whole run is in.
fn insert_runs(buffer: &ClaimBuffer<u64>, collected: &Mutex<Vec<u64>>, t: u64, per_thread: u64) {
    let values: Vec<u64> = (t * per_thread..(t + 1) * per_thread).collect();
    let max_run = 2 * buffer.capacity() as u64;
    let mut rng = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut pos = 0;
    while pos < values.len() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let end = (pos + 1 + (rng % max_run) as usize).min(values.len());
        while pos < end {
            let run = buffer.insert_slice(&values[pos..end]);
            pos += run.stored;
            if let Some(items) = run.sealed {
                collected.lock().unwrap().extend(items);
            }
            if run.stored == 0 {
                std::thread::yield_now();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No (capacity, inserter-count) combination loses or duplicates items.
    #[test]
    fn items_conserved_for_any_capacity_and_inserter_count(
        capacity in 1usize..64,
        threads in 1u64..8,
        per_thread in 1u64..400,
        flushes in 0u32..16,
    ) {
        let mut all = race(capacity, threads, per_thread, flushes, false);
        prop_assert_eq!(all.len() as u64, threads * per_thread);
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len() as u64, threads * per_thread);
    }

    /// Run inserts of any length up to twice the capacity — runs that fit,
    /// straddle capacity or span several generations — lose or duplicate
    /// nothing, up to 8 inserters racing the drainers.
    #[test]
    fn runs_conserved_for_any_capacity_and_inserter_count(
        capacity in 1usize..64,
        threads in 1u64..9,
        per_thread in 1u64..400,
        flushes in 0u32..16,
    ) {
        let mut all = race(capacity, threads, per_thread, flushes, true);
        prop_assert_eq!(all.len() as u64, threads * per_thread);
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len() as u64, threads * per_thread);
    }
}

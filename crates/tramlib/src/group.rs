//! In-place, stable grouping of items by destination worker.
//!
//! The zero-copy slab path cannot move items into per-worker heap buckets
//! (the whole point is that an item is written once, into its slab slot, and
//! is borrowed in place by its consumers), so grouping — WsP's source-side
//! pass and the destination pass for WPs/PP — reorders the slab's own items:
//! a stable permutation leaves each destination worker one contiguous index
//! range, and only those ranges (not items) are handed around afterwards.
//!
//! The permutation is the same `O(g + t)` bucket distribution the paper
//! charges for a grouping pass: one counting pass over the `g` items, a
//! prefix sum over the `t` worker ranks of the destination process, and one
//! scatter.  The pass stages the items through a reused scratch copy and
//! scatters each one straight back to its final slot, so every item is
//! read twice and written twice with no data-dependent swap chains.  The
//! scratch vectors are reused across calls, so a warmed-up pass allocates
//! nothing; the ranges consumers borrow afterwards still point into the
//! slab.

use crate::item::Item;

/// Reusable scratch storage for [`group_in_place`].
#[derive(Debug, Clone)]
pub struct GroupScratch<T> {
    /// Copy of the items being grouped, scattered back by rank.
    staged: Vec<Item<T>>,
    /// Per-rank counters, then running write offsets (length `wpp`).
    counts: Vec<u32>,
}

impl<T> Default for GroupScratch<T> {
    fn default() -> Self {
        Self {
            staged: Vec::new(),
            counts: Vec::new(),
        }
    }
}

/// Stably reorder `items` so they are grouped by destination worker, in
/// ascending worker order, preserving per-worker insertion order.
///
/// All destinations must lie in one process's contiguous worker-id range of
/// width `wpp` (the only shape process-addressed messages can have); this is
/// debug-asserted.
pub fn group_in_place<T: Copy>(items: &mut [Item<T>], wpp: usize, scratch: &mut GroupScratch<T>) {
    if items.len() < 2 || wpp < 2 {
        return;
    }
    let base = (items[0].dest.idx() / wpp) * wpp;

    // Counting pass: how many items per worker rank.
    scratch.counts.clear();
    scratch.counts.resize(wpp, 0);
    for item in items.iter() {
        let rank = item.dest.idx().wrapping_sub(base);
        debug_assert!(rank < wpp, "item crosses its destination process");
        scratch.counts[rank] += 1;
    }
    // Prefix sum: counts[r] becomes the first slot of rank r.
    let mut start = 0u32;
    for count in scratch.counts.iter_mut() {
        let c = *count;
        *count = start;
        start += c;
    }
    // Scatter pass: stage a copy, then write every item to the next free
    // slot of its rank.  Stable by construction (equal ranks are visited,
    // and written, in their original order).
    scratch.staged.clear();
    scratch.staged.extend_from_slice(items);
    for item in &scratch.staged {
        let rank = item.dest.idx() - base;
        let at = scratch.counts[rank];
        scratch.counts[rank] = at + 1;
        items[at as usize] = *item;
    }
}

/// Scan a grouped slice into `(worker-rank run start, length)` boundaries,
/// appending `(start, end)` index pairs with their destination to `runs`.
pub fn scan_runs<T>(items: &[Item<T>], runs: &mut Vec<(net_model::WorkerId, u32, u32)>) {
    let mut start = 0usize;
    while start < items.len() {
        let dest = items[start].dest;
        let mut end = start + 1;
        while end < items.len() && items[end].dest == dest {
            end += 1;
        }
        runs.push((dest, start as u32, (end - start) as u32));
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::WorkerId;

    fn item(dest: u32, v: u32) -> Item<u32> {
        Item::new(WorkerId(dest), v, 0)
    }

    /// Reference implementation: stable bucket grouping via allocation.
    fn reference(items: &[Item<u32>], wpp: usize) -> Vec<Item<u32>> {
        let base = (items[0].dest.idx() / wpp) * wpp;
        let mut buckets: Vec<Vec<Item<u32>>> = (0..wpp).map(|_| Vec::new()).collect();
        for item in items {
            buckets[item.dest.idx() - base].push(*item);
        }
        buckets.into_iter().flatten().collect()
    }

    #[test]
    fn matches_stable_bucket_reference() {
        let mut rng = 0x1234_5678_u64;
        for len in [0usize, 1, 2, 3, 7, 64, 257] {
            for wpp in [1usize, 2, 4, 8] {
                let mut items: Vec<Item<u32>> = (0..len)
                    .map(|i| {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        item(8 + (rng >> 33) as u32 % wpp as u32, i as u32)
                    })
                    .collect();
                let expect = if items.is_empty() {
                    Vec::new()
                } else {
                    reference(&items, wpp)
                };
                let mut scratch = GroupScratch::default();
                group_in_place(&mut items, wpp, &mut scratch);
                assert_eq!(items, expect, "len={len} wpp={wpp}");
            }
        }
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let mut scratch = GroupScratch::default();
        let mut a = vec![item(9, 1), item(8, 2), item(9, 3)];
        group_in_place(&mut a, 2, &mut scratch);
        let dests: Vec<u32> = a.iter().map(|i| i.dest.0).collect();
        assert_eq!(dests, vec![8, 9, 9]);
        let values: Vec<u32> = a.iter().map(|i| i.data).collect();
        assert_eq!(values, vec![2, 1, 3], "per-worker insertion order kept");

        // Second call with different width reuses the same scratch.
        let mut b = vec![item(7, 1), item(4, 2), item(5, 3), item(4, 4)];
        group_in_place(&mut b, 4, &mut scratch);
        let dests: Vec<u32> = b.iter().map(|i| i.dest.0).collect();
        assert_eq!(dests, vec![4, 4, 5, 7]);
    }

    #[test]
    fn run_scan_finds_boundaries() {
        let items = vec![item(4, 1), item(4, 2), item(5, 3), item(7, 4)];
        let mut runs = Vec::new();
        scan_runs(&items, &mut runs);
        assert_eq!(
            runs,
            vec![
                (WorkerId(4), 0, 2),
                (WorkerId(5), 2, 1),
                (WorkerId(7), 3, 1)
            ]
        );
        runs.clear();
        scan_runs::<u32>(&[], &mut runs);
        assert!(runs.is_empty());
    }
}

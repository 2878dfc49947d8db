//! A free list of `Vec` allocations for the steady-state hot paths.
//!
//! Every aggregated message carries a `Vec<Item<T>>`, and every receive-side
//! grouping pass builds per-worker `Vec`s.  Allocating those per message turns
//! the insert→flush→deliver pipeline into an allocator benchmark; recycling
//! the capacity through a [`VecPool`] makes the steady state allocation-free:
//! after warm-up, every drained buffer and every grouping pass reuses a vector
//! that a previous message already paid for.
//!
//! The pool is deliberately not thread-safe: each [`crate::Aggregator`] and
//! each receive-side [`crate::PooledReceiver`] owns its own pool, matching the
//! threading model of both execution substrates (aggregators and receivers
//! are per-worker state).

/// Counters describing how well a [`VecPool`] is being reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the free list (no allocation).
    pub hits: u64,
    /// `take` calls that had to hand out a brand-new vector.
    pub misses: u64,
    /// Vectors returned to the pool.
    pub returns: u64,
    /// Returned vectors discarded because the free list was full (or the
    /// vector never allocated).
    pub discarded: u64,
}

impl PoolStats {
    /// Fraction of `take` calls served without allocating, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded free list of `Vec<T>` allocations.
#[derive(Debug, Clone)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    max_free: usize,
    stats: PoolStats,
}

impl<T> VecPool<T> {
    /// Default bound on the number of retained vectors: enough to cover every
    /// destination buffer of a typical topology without letting a burst pin
    /// memory forever.
    pub const DEFAULT_MAX_FREE: usize = 64;

    /// A pool retaining at most `max_free` spare vectors.
    pub fn new(max_free: usize) -> Self {
        Self {
            free: Vec::new(),
            max_free,
            stats: PoolStats::default(),
        }
    }

    /// Take a vector from the free list, or a fresh empty one.  The returned
    /// vector is always empty; its capacity is whatever its previous life
    /// left behind (callers reserve what they need).
    pub fn take(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(v) => {
                self.stats.hits += 1;
                v
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a spent vector's capacity to the pool.  Contents are cleared;
    /// vectors that never allocated, and returns beyond the retention bound,
    /// are discarded.
    pub fn put(&mut self, mut v: Vec<T>) {
        self.stats.returns += 1;
        if v.capacity() == 0 || self.free.len() >= self.max_free {
            self.stats.discarded += 1;
            return;
        }
        v.clear();
        self.free.push(v);
    }

    /// Number of vectors currently parked in the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Reuse statistics accumulated so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_FREE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut pool: VecPool<u32> = VecPool::default();
        let miss = pool.take();
        assert_eq!(miss.capacity(), 0);
        let mut v = Vec::with_capacity(128);
        v.extend([1, 2, 3]);
        pool.put(v);
        let hit = pool.take();
        assert!(hit.is_empty(), "recycled vectors are cleared");
        assert!(hit.capacity() >= 128, "capacity survives the round trip");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returns), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_retention() {
        let mut pool: VecPool<u32> = VecPool::new(2);
        for _ in 0..4 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.free_len(), 2);
        assert_eq!(pool.stats().discarded, 2);
        // Zero-capacity vectors are never worth retaining.
        pool.put(Vec::new());
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn empty_pool_hit_rate_is_zero() {
        let pool: VecPool<u8> = VecPool::default();
        assert_eq!(pool.stats().hit_rate(), 0.0);
    }
}

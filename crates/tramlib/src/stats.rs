//! Per-aggregator statistics.

use crate::message::EmitReason;
use metrics::{Counters, OnlineStats};

/// Statistics accumulated by one [`crate::Aggregator`] (and mergeable across
/// aggregators, processes and runs).
#[derive(Debug, Clone, Default)]
pub struct TramStats {
    /// Every recorded quantity except the destination spread: the fill
    /// level of emitted messages is `items_sent / messages_sent`, so the
    /// counters alone carry a run's statistics across a process boundary.
    counters: Counters,
    /// Distribution of distinct destination workers per emitted message.
    /// Only populated when [`crate::TramConfig::detailed_dest_stats`] is on —
    /// computing the spread costs a per-message sort, so the default
    /// throughput path never records it.
    dest_spread: OnlineStats,
}

impl TramStats {
    /// New empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild statistics from the counters of another instance (see
    /// [`TramStats::counters`]); the opt-in destination spread starts empty.
    pub fn from_counters(counters: Counters) -> Self {
        Self {
            counters,
            dest_spread: OnlineStats::default(),
        }
    }

    /// Record an item accepted for aggregation.
    pub fn record_insert(&mut self) {
        self.counters.incr("items_inserted");
    }

    /// Record an item delivered directly through the local (same-process) bypass.
    pub fn record_local_bypass(&mut self) {
        self.counters.incr("items_local_bypass");
    }

    /// Record `inserted` items accepted for aggregation and `bypassed` items
    /// delivered through the local bypass at once, for a caller that tallies
    /// its sends in plain integers instead of per item.
    pub fn record_sends(&mut self, inserted: u64, bypassed: u64) {
        self.counters.add("items_inserted", inserted);
        self.counters.add("items_local_bypass", bypassed);
    }

    /// Record a message handed to the transport.
    pub fn record_message(&mut self, items: usize, bytes: u64, reason: EmitReason) {
        self.record_messages(1, items as u64, bytes, reason);
    }

    /// Record `messages` messages handed to the transport for the same
    /// `reason`, carrying `items` items and `bytes` bytes in total.
    pub fn record_messages(&mut self, messages: u64, items: u64, bytes: u64, reason: EmitReason) {
        if messages == 0 {
            return;
        }
        self.counters.add("messages_sent", messages);
        self.counters.add("items_sent", items);
        self.counters.add("bytes_sent", bytes);
        let by_reason = match reason {
            EmitReason::BufferFull => "messages_full",
            EmitReason::ExplicitFlush => "messages_explicit_flush",
            EmitReason::IdleFlush => "messages_idle_flush",
            EmitReason::TimeoutFlush => "messages_timeout_flush",
            EmitReason::Unaggregated => "messages_unaggregated",
        };
        self.counters.add(by_reason, messages);
    }

    /// Record an explicit flush call from the application (whether or not it
    /// produced messages).
    pub fn record_flush_call(&mut self) {
        self.counters.incr("flush_calls");
    }

    /// Record the number of distinct destination workers one emitted message
    /// touched (opt-in, see [`crate::TramConfig::detailed_dest_stats`]).
    pub fn record_dest_spread(&mut self, distinct_workers: usize) {
        self.dest_spread.record(distinct_workers as f64);
    }

    /// Merge statistics from another aggregator.
    pub fn merge(&mut self, other: &TramStats) {
        self.counters.merge(&other.counters);
        self.dest_spread.merge(&other.dest_spread);
    }

    /// Items accepted for aggregation (not counting local bypass).
    pub fn items_inserted(&self) -> u64 {
        self.counters.get("items_inserted")
    }

    /// Items delivered through the local bypass.
    pub fn items_local_bypass(&self) -> u64 {
        self.counters.get("items_local_bypass")
    }

    /// Messages handed to the transport.
    pub fn messages_sent(&self) -> u64 {
        self.counters.get("messages_sent")
    }

    /// Messages emitted because a buffer filled.
    pub fn messages_full(&self) -> u64 {
        self.counters.get("messages_full")
    }

    /// Messages emitted by any kind of flush (explicit, idle or timeout).
    pub fn messages_flushed(&self) -> u64 {
        self.counters.get("messages_explicit_flush")
            + self.counters.get("messages_idle_flush")
            + self.counters.get("messages_timeout_flush")
    }

    /// Total items carried by emitted messages.
    pub fn items_sent(&self) -> u64 {
        self.counters.get("items_sent")
    }

    /// Total bytes handed to the transport.
    pub fn bytes_sent(&self) -> u64 {
        self.counters.get("bytes_sent")
    }

    /// Explicit flush calls made by the application.
    pub fn flush_calls(&self) -> u64 {
        self.counters.get("flush_calls")
    }

    /// Mean number of items per emitted message.
    pub fn mean_fill(&self) -> f64 {
        match self.messages_sent() {
            0 => 0.0,
            messages => self.items_sent() as f64 / messages as f64,
        }
    }

    /// Mean number of distinct destination workers per emitted message, and
    /// how many messages were sampled.  Zero samples unless the aggregator ran
    /// with [`crate::TramConfig::detailed_dest_stats`] enabled.
    pub fn dest_spread(&self) -> &OnlineStats {
        &self.dest_spread
    }

    /// Access to the raw counters (for report output).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = TramStats::new();
        s.record_insert();
        s.record_insert();
        s.record_local_bypass();
        s.record_message(2, 96, EmitReason::BufferFull);
        s.record_flush_call();
        s.record_message(1, 80, EmitReason::ExplicitFlush);

        assert_eq!(s.items_inserted(), 2);
        assert_eq!(s.items_local_bypass(), 1);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.messages_full(), 1);
        assert_eq!(s.messages_flushed(), 1);
        assert_eq!(s.items_sent(), 3);
        assert_eq!(s.bytes_sent(), 176);
        assert_eq!(s.flush_calls(), 1);
        assert!((s.mean_fill() - 1.5).abs() < 1e-12);

        // Bulk recording matches per-item recording.
        let mut bulk = TramStats::new();
        bulk.record_sends(2, 1);
        bulk.record_messages(2, 3, 176, EmitReason::BufferFull);
        assert_eq!(bulk.items_inserted(), 2);
        assert_eq!(bulk.items_local_bypass(), 1);
        assert_eq!(bulk.messages_full(), 2);
        assert_eq!(bulk.bytes_sent(), 176);
        assert!((bulk.mean_fill() - 1.5).abs() < 1e-12);

        // The counters alone rebuild the statistics.
        let rebuilt = TramStats::from_counters(s.counters().clone());
        assert_eq!(rebuilt.messages_sent(), 2);
        assert_eq!(rebuilt.flush_calls(), 1);
        assert!((rebuilt.mean_fill() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = TramStats::new();
        let mut b = TramStats::new();
        a.record_message(4, 128, EmitReason::BufferFull);
        b.record_message(2, 64, EmitReason::IdleFlush);
        b.record_insert();
        a.merge(&b);
        assert_eq!(a.messages_sent(), 2);
        assert_eq!(a.items_sent(), 6);
        assert_eq!(a.items_inserted(), 1);
        assert!((a.mean_fill() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reason_counters_distinct() {
        let mut s = TramStats::new();
        s.record_message(1, 1, EmitReason::TimeoutFlush);
        s.record_message(1, 1, EmitReason::Unaggregated);
        assert_eq!(s.counters().get("messages_timeout_flush"), 1);
        assert_eq!(s.counters().get("messages_unaggregated"), 1);
        assert_eq!(s.messages_flushed(), 1);
    }
}

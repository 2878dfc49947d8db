//! Synthetic PHOLD over the optimistic PDES engine (Figure 18).
//!
//! Logical processes (LPs) are block-distributed across worker PEs.  Each LP is
//! seeded with a population of events; consuming an event at virtual time `ts`
//! emits a new event to a uniformly random LP at `ts + lookahead + Exp(mean)`,
//! for a bounded number of hops.  The engine is the paper's placeholder
//! optimistic engine: it does not roll back, it *counts out-of-order receives*
//! — the "wasted updates" of Fig. 18 — which grow with item latency and are
//! therefore sensitive to the aggregation scheme.

use net_model::WorkerId;
use pdes::{OptimisticLp, PholdConfig, Receive};
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, Payload, ResolvedRunSpec, RunCtx, RunReport, RunSpec,
    WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

use crate::common::{run_spec, ClusterSpec};

/// PHOLD is simulator-only for now: its out-of-order metric is a function of
/// the modelled delivery ordering, which would be scheduler noise on real
/// threads, so the app refuses the native backends.
pub const NATIVE_CAPABLE: bool = false;

/// PHOLD benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct PholdBenchConfig {
    /// Cluster shape (the paper runs this with ppn 32).
    pub cluster: ClusterSpec,
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// PDES workload parameters.
    pub phold: PholdConfig,
    /// TramLib buffer size `g`.
    pub buffer_items: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl PholdBenchConfig {
    /// Defaults: 8 LPs per worker, 16 initial events per LP, 8 hops per event.
    pub fn new(cluster: ClusterSpec, scheme: Scheme) -> Self {
        let phold = PholdConfig {
            total_lps: cluster.total_workers() as u64 * 8,
            ..PholdConfig::default()
        };
        Self {
            cluster,
            scheme,
            phold,
            buffer_items: 512,
            seed: 0x5048_4f4c_4421_2121, // "PHOLD!!!"
        }
    }

    /// Set the TramLib buffer size.
    pub fn with_buffer(mut self, buffer_items: usize) -> Self {
        self.buffer_items = buffer_items;
        self
    }

    /// Override the PDES workload parameters.
    pub fn with_phold(mut self, phold: PholdConfig) -> Self {
        self.phold = phold;
        self
    }
}

/// Payload layout: `a` = destination LP id, `b` = hops (high 16 bits) |
/// virtual timestamp (low 48 bits).
fn pack(ts: u64, hops: u32) -> u64 {
    debug_assert!(ts < 1 << 48);
    ((hops as u64) << 48) | (ts & ((1 << 48) - 1))
}
fn unpack(b: u64) -> (u64, u32) {
    (b & ((1 << 48) - 1), (b >> 48) as u32)
}

struct PholdApp {
    me: WorkerId,
    phold: PholdConfig,
    /// LP ids owned by this worker are `lp_base..lp_base + lps.len()`.
    lp_base: u64,
    lps: Vec<OptimisticLp>,
    seeded: bool,
}

impl PholdApp {
    fn owner_of(&self, lp: u64, workers: u64) -> WorkerId {
        let per_worker = self.phold.total_lps.div_ceil(workers);
        WorkerId(((lp / per_worker).min(workers - 1)) as u32)
    }

    fn emit(&mut self, from_vt: u64, hops_left: u32, ctx: &mut dyn RunCtx) {
        let workers = ctx.total_workers() as u64;
        let (dest_lp, ts) = {
            let rng = ctx.rng();
            self.phold.next_event(from_vt, rng)
        };
        let dest = self.owner_of(dest_lp, workers);
        ctx.counter("phold_events_sent", 1);
        ctx.send(dest, Payload::new(dest_lp, pack(ts, hops_left)));
    }
}

impl WorkerApp for PholdApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        let lp = item.a;
        let (ts, hops) = unpack(item.b);
        let local = (lp - self.lp_base) as usize;
        debug_assert!(local < self.lps.len(), "event delivered to wrong worker");
        ctx.charge(30); // event-processing cost
        match self.lps[local].receive(ts) {
            Receive::InOrder => {}
            Receive::OutOfOrder { lateness } => {
                ctx.counter("phold_ooo_events", 1);
                ctx.counter("phold_total_lateness", lateness);
            }
        }
        ctx.counter("phold_events_processed", 1);
        if hops > 0 {
            let lvt = self.lps[local].lvt();
            self.emit(lvt.max(ts), hops - 1, ctx);
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.seeded {
            return false;
        }
        self.seeded = true;
        let initial = self.phold.initial_events_per_lp;
        let hops = self.phold.hops_per_event;
        for _ in 0..self.lps.len() {
            for _ in 0..initial {
                self.emit(0, hops.saturating_sub(1), ctx);
            }
        }
        let _ = self.me;
        true
    }

    fn local_done(&self) -> bool {
        self.seeded
    }

    fn on_finalize(&mut self, counters: &mut metrics::Counters) {
        let processed: u64 = self.lps.iter().map(|lp| lp.processed()).sum();
        let ooo: u64 = self.lps.iter().map(|lp| lp.out_of_order()).sum();
        counters.add("phold_processed_final", processed);
        counters.add("phold_ooo_final", ooo);
    }
}

/// [`PholdBenchConfig`] plugs into the [`RunSpec`] builder directly
/// (simulator only).  LPs are block-distributed against the *resolved*
/// cluster, so a `.workers(n)` override redistributes them correctly.
impl AppSpec for PholdBenchConfig {
    fn name(&self) -> &'static str {
        "phold"
    }

    fn native_capable(&self) -> bool {
        false
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            scheme: self.scheme,
            buffer_items: self.buffer_items,
            item_bytes: 16,
            flush_policy: FlushPolicy::ON_IDLE,
            seed: self.seed,
            cluster: self.cluster,
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let workers = run.cluster.topology().total_workers() as u64;
        let per_worker = self.phold.total_lps.div_ceil(workers);
        let phold = self.phold;
        Box::new(move |w: WorkerId| -> Box<dyn WorkerApp> {
            let lp_base = w.0 as u64 * per_worker;
            let count = per_worker.min(phold.total_lps.saturating_sub(lp_base)) as usize;
            Box::new(PholdApp {
                me: w,
                phold,
                lp_base,
                lps: (0..count).map(|_| OptimisticLp::new()).collect(),
                seeded: false,
            })
        })
    }
}

/// Run the PHOLD benchmark.
///
/// Counters: `phold_ooo_events` (the wasted updates of Fig. 18),
/// `phold_events_processed`, `phold_events_sent`, `phold_total_lateness`.
pub fn run_phold(config: PholdBenchConfig) -> RunReport {
    run_spec(RunSpec::for_app(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme, buffer: usize) -> RunReport {
        run_phold(PholdBenchConfig::new(ClusterSpec::small_smp(2), scheme).with_buffer(buffer))
    }

    #[test]
    fn event_population_is_conserved() {
        for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP] {
            let report = quick(scheme, 64);
            assert!(report.clean(), "{scheme}");
            assert_eq!(
                report.counter("phold_events_sent"),
                report.counter("phold_events_processed"),
                "{scheme}: every sent event must be processed exactly once"
            );
            assert_eq!(
                report.counter("phold_events_processed"),
                report.counter("phold_processed_final"),
                "{scheme}"
            );
            assert_eq!(
                report.counter("phold_ooo_events"),
                report.counter("phold_ooo_final"),
                "{scheme}"
            );
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (ts, hops) in [(0u64, 0u32), (123, 5), ((1 << 48) - 1, 65_535)] {
            assert_eq!(unpack(pack(ts, hops)), (ts, hops));
        }
    }

    #[test]
    fn out_of_order_events_occur_and_depend_on_scheme() {
        let ww = quick(Scheme::WW, 256);
        let pp = quick(Scheme::PP, 256);
        assert!(ww.counter("phold_ooo_events") > 0);
        assert!(pp.counter("phold_ooo_events") > 0);
        // Fig. 18: the lower-latency node-aware scheme rejects fewer events.
        // At unit-test scale (4 workers per process, reactive traffic that is
        // mostly idle-flushed) the effect is small, so allow a small tolerance;
        // the paper-scale comparison lives in the figures harness.
        let (pp_ooo, ww_ooo) = (
            pp.counter("phold_ooo_events") as f64,
            ww.counter("phold_ooo_events") as f64,
        );
        assert!(
            pp_ooo <= ww_ooo * 1.1,
            "PP ooo {pp_ooo} should not exceed WW ooo {ww_ooo} by more than 10%"
        );
    }
}

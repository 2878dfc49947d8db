//! Speculative single-source shortest path (Figures 14–17).
//!
//! Vertices are block-distributed across worker PEs (one chare per PE in the
//! paper).  Relaxation is speculative: whenever a PE learns a smaller distance
//! for one of its vertices it immediately propagates `dist + weight` to every
//! neighbour, without waiting for global synchronisation.  An arriving update
//! that does not improve the known distance is a **wasted update** — the
//! quantity Figures 15 and 17 plot — and the more latency items pick up in
//! aggregation buffers, the more stale (wasted) updates circulate.

use std::sync::Arc;

use graph::{CsrGraph, Partition};
use net_model::WorkerId;
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, Payload, ResolvedRunSpec, RunCtx, RunReport, RunSpec,
    WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

use crate::common::{run_spec, ClusterSpec};

/// SSSP is simulator-only for now: its wasted-update metric depends on the
/// modelled latency ordering, which real thread scheduling does not reproduce
/// deterministically, so the app refuses the native backends.
pub const NATIVE_CAPABLE: bool = false;

/// SSSP benchmark configuration.
#[derive(Debug, Clone)]
pub struct SsspConfig {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// The input graph (shared, read-only across all simulated PEs — exactly
    /// the kind of structure SMP mode lets real runs share).
    pub graph: Arc<CsrGraph>,
    /// Source vertex.
    pub source: u32,
    /// TramLib buffer size `g`.
    pub buffer_items: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl SsspConfig {
    /// Build a configuration around an already-generated graph.
    pub fn new(cluster: ClusterSpec, scheme: Scheme, graph: Arc<CsrGraph>) -> Self {
        Self {
            cluster,
            scheme,
            graph,
            source: 0,
            buffer_items: 1024,
            seed: 0x5353_5350_2121_2121, // "SSSP!!!!"
        }
    }

    /// Set the TramLib buffer size.
    pub fn with_buffer(mut self, buffer_items: usize) -> Self {
        self.buffer_items = buffer_items;
        self
    }

    /// Set the source vertex.
    pub fn with_source(mut self, source: u32) -> Self {
        self.source = source;
        self
    }
}

struct SsspApp {
    me: WorkerId,
    graph: Arc<CsrGraph>,
    partition: Partition,
    /// Distances of the vertices this worker owns.
    dist: Vec<u64>,
    /// Whether this worker owns the source and still has to seed the search.
    seed_pending: Option<u32>,
    relax_cost_ns: u64,
}

impl SsspApp {
    fn relax(&mut self, vertex: u32, candidate: u64, ctx: &mut dyn RunCtx) {
        let local = self.partition.local_index(vertex) as usize;
        if candidate >= self.dist[local] {
            ctx.counter("sssp_wasted_updates", 1);
            return;
        }
        if self.dist[local] != graph::sssp::UNREACHED {
            // A previously propagated value is being superseded: the earlier
            // propagation was (in hindsight) wasted work too.
            ctx.counter("sssp_superseded_updates", 1);
        }
        self.dist[local] = candidate;
        ctx.counter("sssp_relaxations", 1);
        // Propagate to every neighbour.
        let neighbors: Vec<(u32, u32)> = self.graph.neighbors(vertex).collect();
        for (next, weight) in neighbors {
            ctx.charge(self.relax_cost_ns);
            let dest = WorkerId(self.partition.owner(next));
            ctx.counter("sssp_updates_sent", 1);
            ctx.send(dest, Payload::new(next as u64, candidate + weight as u64));
        }
    }
}

impl WorkerApp for SsspApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        let vertex = item.a as u32;
        debug_assert_eq!(self.partition.owner(vertex), self.me.0);
        self.relax(vertex, item.b, ctx);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if let Some(source) = self.seed_pending.take() {
            self.relax(source, 0, ctx);
            // Make sure the initial frontier leaves the buffers even if it does
            // not fill them.
            ctx.flush();
            return true;
        }
        false
    }

    fn local_done(&self) -> bool {
        self.seed_pending.is_none()
    }

    fn on_finalize(&mut self, counters: &mut metrics::Counters) {
        let reached = self
            .dist
            .iter()
            .filter(|&&d| d != graph::sssp::UNREACHED)
            .count() as u64;
        let checksum: u64 = self
            .dist
            .iter()
            .filter(|&&d| d != graph::sssp::UNREACHED)
            .sum();
        counters.add("sssp_reached", reached);
        counters.add("sssp_dist_checksum", checksum);
    }
}

/// [`SsspConfig`] plugs into the [`RunSpec`] builder directly (simulator
/// only).  The factory builds the vertex partition once per run — against the
/// *resolved* cluster, so a `.workers(n)` override repartitions correctly —
/// and every worker's closure shares the same read-only graph `Arc`.
impl AppSpec for SsspConfig {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn native_capable(&self) -> bool {
        false
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            scheme: self.scheme,
            buffer_items: self.buffer_items,
            item_bytes: 16,
            // Relaxations only happen on arrivals, so buffers must drain on
            // idle or the search deadlocks with updates stuck in
            // partially-filled buffers.
            flush_policy: FlushPolicy::ON_IDLE,
            seed: self.seed,
            cluster: self.cluster,
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let partition = Partition::new(
            self.graph.num_vertices(),
            run.cluster.topology().total_workers(),
        );
        let graph_ref = self.graph.clone();
        let source = self.source;
        let relax_cost_ns = 25;
        Box::new(move |w: WorkerId| -> Box<dyn WorkerApp> {
            let owns_source = partition.owner(source) == w.0;
            Box::new(SsspApp {
                me: w,
                graph: graph_ref.clone(),
                partition,
                dist: vec![graph::sssp::UNREACHED; partition.part_size(w.0) as usize],
                seed_pending: if owns_source { Some(source) } else { None },
                relax_cost_ns,
            })
        })
    }
}

/// Run the speculative SSSP benchmark.
///
/// Counters in the report: `sssp_wasted_updates` (Fig. 15/17),
/// `sssp_relaxations`, `sssp_updates_sent`, `sssp_reached` and
/// `sssp_dist_checksum` (compared against the sequential Dijkstra reference by
/// the tests).
pub fn run_sssp(config: SsspConfig) -> RunReport {
    run_spec(RunSpec::for_app(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::generate::uniform;

    fn test_graph() -> Arc<CsrGraph> {
        Arc::new(uniform(2_000, 8, 17))
    }

    fn reference(graph: &CsrGraph, source: u32) -> (u64, u64) {
        let dist = graph::sssp::dijkstra(graph, source);
        let reached = dist
            .iter()
            .filter(|&&d| d != graph::sssp::UNREACHED)
            .count() as u64;
        let checksum: u64 = dist.iter().filter(|&&d| d != graph::sssp::UNREACHED).sum();
        (reached, checksum)
    }

    #[test]
    fn distances_match_dijkstra_for_every_scheme() {
        let g = test_graph();
        let (reached, checksum) = reference(&g, 0);
        for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP] {
            let report = run_sssp(
                SsspConfig::new(ClusterSpec::small_smp(2), scheme, g.clone()).with_buffer(64),
            );
            assert!(report.clean(), "{scheme}");
            assert_eq!(report.counter("sssp_reached"), reached, "{scheme}: reached");
            assert_eq!(
                report.counter("sssp_dist_checksum"),
                checksum,
                "{scheme}: distances differ from Dijkstra"
            );
            assert!(report.counter("sssp_wasted_updates") > 0, "{scheme}");
        }
    }

    #[test]
    fn lower_latency_schemes_waste_fewer_updates() {
        // Fig. 15: wasted updates PP < WW for a small problem where latency
        // determines how stale the circulating distances are.
        let g = test_graph();
        let ww = run_sssp(
            SsspConfig::new(ClusterSpec::small_smp(2), Scheme::WW, g.clone()).with_buffer(256),
        );
        let pp = run_sssp(
            SsspConfig::new(ClusterSpec::small_smp(2), Scheme::PP, g.clone()).with_buffer(256),
        );
        let waste =
            |r: &RunReport| r.counter("sssp_wasted_updates") + r.counter("sssp_superseded_updates");
        assert!(
            waste(&pp) <= waste(&ww),
            "PP wasted {} should not exceed WW wasted {}",
            waste(&pp),
            waste(&ww)
        );
    }

    #[test]
    fn different_sources_reach_different_sets() {
        let g = test_graph();
        let a = run_sssp(
            SsspConfig::new(ClusterSpec::small_smp(2), Scheme::WPs, g.clone()).with_buffer(64),
        );
        let b = run_sssp(
            SsspConfig::new(ClusterSpec::small_smp(2), Scheme::WPs, g.clone())
                .with_buffer(64)
                .with_source(123),
        );
        let (_, checksum_b) = reference(&g, 123);
        assert_eq!(b.counter("sssp_dist_checksum"), checksum_b);
        // Different sources essentially never give identical checksums here.
        assert_ne!(
            a.counter("sssp_dist_checksum"),
            b.counter("sssp_dist_checksum")
        );
    }
}

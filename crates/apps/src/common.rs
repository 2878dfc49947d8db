//! Shared helpers for configuring benchmark runs and dispatching them to an
//! execution backend.
//!
//! The front door is [`run_spec`] (and the [`RunSpecExt::run`] method it
//! backs): a [`RunSpec`] built in `runtime-api` is resolved against the
//! application's defaults, turned into the matching backend configuration and
//! executed.  This module is the one place that links both backends, which is
//! why the terminal `run()` lives here rather than on the builder itself.

use std::time::Duration;

use native_rt::{NativeBackendConfig, ProcessBackendConfig};
use net_model::WorkerId;
use runtime_api::{Backend, LoadShape, ResolvedRunSpec, RunReport, RunSpec, WorkerApp};
use smp_sim::SimConfig;
use tramlib::{FlushPolicy, Scheme, TramConfig};

pub use runtime_api::ClusterSpec;

/// Build a [`SimConfig`] for a benchmark run.
pub fn sim_config(
    cluster: ClusterSpec,
    scheme: Scheme,
    buffer_items: usize,
    item_bytes: u32,
    flush_policy: FlushPolicy,
    seed: u64,
) -> SimConfig {
    let topo = cluster.topology();
    let tram = TramConfig::new(scheme, topo)
        .with_buffer_items(buffer_items)
        .with_item_bytes(item_bytes)
        .with_flush_policy(flush_policy);
    SimConfig::new(topo, tram).with_seed(seed)
}

/// Run one application (one [`WorkerApp`] instance per worker PE, in worker-id
/// order) on the chosen execution backend.
///
/// The [`SimConfig`] fully describes the run for both backends: the simulator
/// uses all of it, the native threaded backend uses the embedded
/// [`runtime_api::CommonConfig`] (TramLib setup + seed) — its "cost model" is
/// the host machine itself.
pub fn run_app(
    backend: Backend,
    sim: SimConfig,
    make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    match backend {
        Backend::Sim => smp_sim::run_cluster(sim, make_app),
        Backend::Native => {
            native_rt::run_threaded(NativeBackendConfig::from_common(sim.common), make_app)
        }
        Backend::Process => {
            native_rt::run_process(ProcessBackendConfig::from_common(sim.common), make_app)
        }
    }
}

/// The threaded backend's configuration for a resolved spec: the spec's
/// native options, plus a watchdog widened past an open-loop run's known
/// duration unless the spec sets one.
fn native_config(run: &ResolvedRunSpec) -> NativeBackendConfig {
    let native = NativeBackendConfig::from_common(run.common())
        .with_pin_workers(run.pin_workers)
        .with_faults(run.faults)
        .with_transport(run.transport);
    match (run.max_wall, run.load) {
        (Some(max_wall), _) => native.with_max_wall(max_wall),
        (None, LoadShape::Open(load)) => {
            // An open-loop run has a known minimum duration (the arrival
            // schedule itself); widen the watchdog well past it so slow
            // machines abort, not healthy runs.
            let secs = load.requests_per_worker as f64 / load.rate_per_worker;
            native.with_max_wall(Duration::from_secs_f64(60.0 + 4.0 * secs.max(0.0)))
        }
        (None, LoadShape::Closed) => native,
    }
}

/// Execute a fully described [`RunSpec`]: resolve the application's defaults,
/// build the backend configuration, run, and stamp the SLO verdict (if any)
/// onto the report's latency summary.
///
/// # Panics
/// Panics if the spec asks for a backend the application cannot run on, or
/// for an open-loop load on the simulator (which has no timer events to pace
/// wall-clock arrivals with).
pub fn run_spec(spec: RunSpec) -> RunReport {
    let run = spec.resolve();
    let app = spec.app();
    match run.backend {
        Backend::Sim => assert!(
            app.sim_capable(),
            "app '{}' does not run on the simulator",
            app.name()
        ),
        // Process mode runs the same `WorkerApp` implementations the
        // threaded backend does, so native capability covers both.
        Backend::Native | Backend::Process => assert!(
            app.native_capable(),
            "app '{}' does not run on the native backends",
            app.name()
        ),
    }
    if matches!(run.load, LoadShape::Open(_)) {
        assert!(
            run.backend == Backend::Native,
            "open-loop load needs the native threaded backend: it is the only \
             one with wall-clock arrival pacing"
        );
    }
    if run.faults.is_some() {
        assert!(
            matches!(run.backend, Backend::Native | Backend::Process),
            "fault injection needs a native backend: the simulator has no \
             workers to crash, stall, or quarantine"
        );
    }
    if run.transport.is_some() {
        assert!(
            run.backend == Backend::Native,
            "an inter-node transport needs the native threaded backend: it \
             is the only one with node-leader threads to drive the wire"
        );
    }

    let mut make_app = app.factory(&run);
    let mut report = match run.backend {
        Backend::Sim => {
            let mut sim = SimConfig::from_common(run.cluster.topology(), run.common());
            if let Some(budget) = run.event_budget {
                sim = sim.with_event_budget(budget);
            }
            smp_sim::run_cluster(sim, make_app.as_mut())
        }
        Backend::Native => native_rt::run_threaded(native_config(&run), make_app.as_mut()),
        Backend::Process => {
            let mut process =
                ProcessBackendConfig::from_common(run.common()).with_faults(run.faults);
            if let Some(max_wall) = run.max_wall {
                process = process.with_max_wall(max_wall);
            }
            native_rt::run_process(process, make_app.as_mut())
        }
    };
    if let Some(slo) = run.slo {
        report.latency = report
            .latency
            .map(|summary| summary.with_slo_target(slo.p99_target_ns));
    }
    report
}

/// Execute a [`RunSpec`] on the native backend with extra backend-specific
/// tuning (ring capacities, batch sizes, arena geometry, NUMA placement...)
/// applied on top of what the spec already resolved.  The throughput suite
/// uses this for its NUMA-placement A/B; everything expressible on the spec
/// itself should stay on the spec.
pub fn run_spec_native_tuned(
    spec: RunSpec,
    tune: impl FnOnce(NativeBackendConfig) -> NativeBackendConfig,
) -> RunReport {
    let run = spec.resolve();
    let app = spec.app();
    assert!(
        app.native_capable(),
        "app '{}' does not run on the native backend",
        app.name()
    );
    let native = tune(native_config(&run));
    let mut make_app = app.factory(&run);
    let mut report = native_rt::run_threaded(native, make_app.as_mut());
    if let Some(slo) = run.slo {
        report.latency = report
            .latency
            .map(|summary| summary.with_slo_target(slo.p99_target_ns));
    }
    report
}

/// The terminal `run()` for [`RunSpec`], provided here because this crate is
/// the one place that links both backends.
pub trait RunSpecExt {
    /// Execute the spec; see [`run_spec`].
    fn run(self) -> RunReport;
}

impl RunSpecExt for RunSpec {
    fn run(self) -> RunReport {
        run_spec(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_config_carries_parameters() {
        let c = ClusterSpec::small_smp(2);
        let cfg = sim_config(c, Scheme::WPs, 128, 8, FlushPolicy::ON_IDLE, 7);
        assert_eq!(cfg.common.tram.buffer_items, 128);
        assert_eq!(cfg.common.tram.item_bytes, 8);
        assert_eq!(cfg.common.seed, 7);
        assert!(cfg.common.tram.flush_policy.on_idle);
    }
}

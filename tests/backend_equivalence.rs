//! Cross-backend equivalence: the execution backend must never change *what*
//! an application computes — only where it runs and what the times mean.
//!
//! A deterministic histogram workload (all randomness drawn from the per-worker
//! `StreamRng`, which both backends seed identically) is run on the
//! discrete-event simulator and on the native threaded backend for every
//! aggregation scheme; item totals, checksums and conservation counts must be
//! bit-identical.  This is the acceptance gate for the shared `runtime-api`
//! contract: one app, one scheme enum, two interchangeable backends — and,
//! since the [`RunSpec`] redesign, one entry point: every run here goes
//! through `RunSpec::for_app(..).backend(..).run()`, so the suite also pins
//! the spec → backend-config resolution itself.
//!
//! Both backends run with vector pooling enabled (it is always on: the
//! simulator's `PooledReceiver` + aggregator recycling, the native backend's
//! batch-return rings and batched local bypass), so this suite also proves
//! the zero-allocation hot paths change *performance only*, never results.
//!
//! Since the multi-process backend joined the matrix this suite runs as a
//! `harness = false` binary: `Backend::Process` forks without exec'ing, so
//! the runs must happen on a process whose only thread is the caller —
//! libtest's per-test threads would make fork unsafe.  `common::run` keeps
//! the libtest-style pass/fail output.

mod common;

use smp_aggregation::prelude::*;

fn main() {
    // Process-mode runs write segment markers; point them at a private
    // directory so concurrent builds/tools on the same host never interact.
    // set_var is safe here: main has not spawned anything yet.
    let dir = std::env::temp_dir().join(format!("smp-aggr-equiv-{}", std::process::id()));
    std::env::set_var(shmem::segment::MARKER_DIR_ENV, &dir);
    common::run(&[
        (
            "native_backend_matches_simulator_for_every_scheme",
            native_backend_matches_simulator_for_every_scheme,
        ),
        (
            "process_backend_matches_simulator_for_every_scheme",
            process_backend_matches_simulator_for_every_scheme,
        ),
        (
            "process_wire_messages_match_threaded_for_every_scheme",
            process_wire_messages_match_threaded_for_every_scheme,
        ),
        (
            "forced_simd_kernel_matches_scalar_and_simulator",
            forced_simd_kernel_matches_scalar_and_simulator,
        ),
        (
            "native_results_are_deterministic_per_seed_and_differ_across_seeds",
            native_results_are_deterministic_per_seed_and_differ_across_seeds,
        ),
        (
            "open_loop_service_conserves_and_is_deterministic_per_seed",
            open_loop_service_conserves_and_is_deterministic_per_seed,
        ),
        (
            "run_app_dispatches_every_backend",
            run_app_dispatches_every_backend,
        ),
        (
            "node_tier_wire_matches_the_in_process_cluster",
            node_tier_wire_matches_the_in_process_cluster,
        ),
        (
            "flush_timeout_drains_stranded_buffers_on_both_backends",
            flush_timeout_drains_stranded_buffers_on_both_backends,
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The backend-independent observable result of a histogram run: everything
/// that must depend only on (cluster, seed, updates), never on the execution
/// backend or the aggregation scheme.
#[derive(Debug, PartialEq, Eq)]
struct HistogramResult {
    applied: u64,
    sent_checksum: u64,
    applied_checksum: u64,
    table_total: u64,
    table_max_bucket: u64,
    items_sent: u64,
    items_delivered: u64,
}

fn histogram_spec(scheme: Scheme, seed: u64) -> RunSpec {
    RunSpec::for_app(
        HistogramConfig::new(ClusterSpec::small_smp(1), scheme)
            .with_updates(1_000)
            .with_buffer(32)
            .with_seed(seed),
    )
}

fn collect(backend: Backend, report: RunReport, scheme: Scheme) -> HistogramResult {
    assert_eq!(report.backend, backend);
    assert!(
        report.clean(),
        "{backend}/{scheme}: run did not finish cleanly"
    );
    assert_eq!(
        report.items_sent, report.items_delivered,
        "{backend}/{scheme}: item conservation violated"
    );
    HistogramResult {
        applied: report.counter("histo_applied"),
        sent_checksum: report.counter("histo_sent_checksum"),
        applied_checksum: report.counter("histo_applied_checksum"),
        table_total: report.counter("histo_table_total"),
        table_max_bucket: report.counter("histo_table_max_bucket"),
        items_sent: report.items_sent,
        items_delivered: report.items_delivered,
    }
}

fn run(backend: Backend, scheme: Scheme, seed: u64) -> HistogramResult {
    let report = histogram_spec(scheme, seed).backend(backend).run();
    collect(backend, report, scheme)
}

fn native_backend_matches_simulator_for_every_scheme() {
    for scheme in Scheme::ALL {
        let sim = run(Backend::Sim, scheme, 42);
        let native = run(Backend::Native, scheme, 42);
        assert_eq!(
            native, sim,
            "{scheme}: native backend diverged from the simulator on identical traffic"
        );
        assert!(sim.applied > 0, "{scheme}: empty run proves nothing");
        assert_eq!(
            sim.sent_checksum, sim.applied_checksum,
            "{scheme}: reference run must conserve its own checksum"
        );
    }
}

fn process_backend_matches_simulator_for_every_scheme() {
    // Same acceptance gate, third backend: real forked worker processes over
    // a shared memfd segment must compute bit-identical application results.
    for scheme in Scheme::ALL {
        let sim = run(Backend::Sim, scheme, 42);
        let process = run(Backend::Process, scheme, 42);
        assert_eq!(
            process, sim,
            "{scheme}: process backend diverged from the simulator on identical traffic"
        );
    }
}

fn process_wire_messages_match_threaded_for_every_scheme() {
    // "Same scheme" also means the same wire behaviour: on one spec, the
    // process backend must send as many messages as the threaded backend —
    // exactly for NoAgg (one per remote item), within 5 % for the
    // aggregating schemes (PP's shared buffers seal at timing-dependent
    // points on both backends) — and both must report the fill they got.
    for scheme in Scheme::ALL {
        let threaded = histogram_spec(scheme, 42).backend(Backend::Native).run();
        let process = histogram_spec(scheme, 42).backend(Backend::Process).run();
        let (t, p) = (
            threaded.counter("wire_messages"),
            process.counter("wire_messages"),
        );
        assert!(t > 0, "{scheme}: no wire traffic");
        if scheme == Scheme::NoAgg {
            assert_eq!(p, t, "{scheme}: wire messages differ");
        } else {
            let gap = p.abs_diff(t) as f64 / t as f64;
            assert!(
                gap <= 0.05,
                "{scheme}: process sent {p} wire messages, threaded {t} ({:.1} % apart)",
                gap * 100.0
            );
        }
        assert_eq!(
            process.tram.messages_sent(),
            p,
            "{scheme}: every process wire message is in the TramLib stats"
        );
        let fills = (threaded.tram.mean_fill(), process.tram.mean_fill());
        assert!(
            (fills.0 - fills.1).abs() <= 0.05 * fills.0,
            "{scheme}: mean fill threaded {:.2} vs process {:.2}",
            fills.0,
            fills.1
        );
    }
}

fn forced_simd_kernel_matches_scalar_and_simulator() {
    // The kernel tier is a pure implementation detail of the slice handlers:
    // forcing `--kernel simd` (or scalar) must leave every cross-backend
    // total bit-identical.  `KernelMode::Simd` always resolves on the suite's
    // supported targets — x86-64 has the SSE2 baseline, aarch64 has NEON.
    let run_kernel = |backend: Backend, kernel: KernelMode| {
        let report = histogram_spec(Scheme::WPs, 42)
            .kernel(kernel)
            .backend(backend)
            .run();
        collect(backend, report, Scheme::WPs)
    };
    let sim_scalar = run_kernel(Backend::Sim, KernelMode::Scalar);
    let sim_simd = run_kernel(Backend::Sim, KernelMode::Simd);
    let native_scalar = run_kernel(Backend::Native, KernelMode::Scalar);
    let native_simd = run_kernel(Backend::Native, KernelMode::Simd);
    assert_eq!(sim_simd, sim_scalar, "sim: SIMD tier changed the results");
    assert_eq!(
        native_simd, native_scalar,
        "native: SIMD tier changed the results"
    );
    assert_eq!(
        native_simd, sim_scalar,
        "forced-SIMD native run diverged from the scalar simulator run"
    );
}

fn native_results_are_deterministic_per_seed_and_differ_across_seeds() {
    let a = run(Backend::Native, Scheme::WPs, 7);
    let b = run(Backend::Native, Scheme::WPs, 7);
    assert_eq!(
        a, b,
        "same seed must reproduce identical totals on real threads"
    );
    let c = run(Backend::Native, Scheme::WPs, 8);
    assert_ne!(
        a.sent_checksum, c.sent_checksum,
        "different seeds should generate different traffic"
    );
}

fn open_loop_service_conserves_and_is_deterministic_per_seed() {
    // The open-loop load layer on the native backend: wall-clock timings
    // vary run to run, but the seeded arrival schedule (keys and gaps) — and
    // with it every conservation total — must not.
    let spec = |seed: u64| {
        RunSpec::for_app(ServiceConfig::new(ClusterSpec::smp(1, 2, 2), Scheme::WPs).with_seed(seed))
            .backend(Backend::Native)
            .load(open_loop(150_000.0).requests(1_500))
            .slo(SloPolicy::p99_ms(250))
    };
    let expected = 1_500 * 4;
    let totals = |report: &RunReport| {
        assert!(report.clean(), "open-loop run did not finish cleanly");
        for counter in ["svc_requests_served", "svc_responses", "svc_table_total"] {
            assert_eq!(report.counter(counter), expected, "{counter}");
        }
        (
            report.counter("svc_requests_sent"),
            report.counter("svc_table_total"),
            report.items_sent,
        )
    };
    let a = spec(5).run();
    let b = spec(5).run();
    assert_eq!(totals(&a), totals(&b), "same seed, same traffic");

    let latency = a.latency.expect("service latency is always recorded");
    assert_eq!(latency.count, expected);
    let slo = latency
        .slo
        .expect("spec SLO must be stamped on the summary");
    assert_eq!(slo.p99_target_ns, 250_000_000);
}

fn node_tier_wire_matches_the_in_process_cluster() {
    // The node-leader tier joins the equivalence gate: routing cross-node
    // traffic through per-node leaders and a wire (here the deterministic
    // simulated transport; `tests/node_tier.rs` covers the socket ones) must
    // leave every application total bit-identical to the same cluster run
    // entirely in-process.
    let spec = |scheme| {
        RunSpec::for_app(
            HistogramConfig::new(ClusterSpec::smp(2, 2, 2), scheme)
                .with_updates(1_000)
                .with_buffer(32)
                .with_seed(42),
        )
        .backend(Backend::Native)
    };
    for scheme in [Scheme::WW, Scheme::PP] {
        let in_process = collect(Backend::Native, spec(scheme).run(), scheme);
        let wired_report = spec(scheme).transport(TransportKind::Sim).run();
        let shipped: u64 = wired_report
            .node_reports
            .iter()
            .map(|d| d.items_shipped)
            .sum();
        let wired = collect(Backend::Native, wired_report, scheme);
        assert!(shipped > 0, "{scheme}: no traffic crossed the wire");
        assert_eq!(
            wired, in_process,
            "{scheme}: the node tier changed what the application computed"
        );
    }
}

fn run_app_dispatches_every_backend() {
    // The generic dispatch entry point used by inline (non-AppSpec) apps: a
    // minimal echo app must conserve items on every backend.
    use std::str::FromStr;

    struct Echo {
        sent: bool,
    }
    impl WorkerApp for Echo {
        fn on_item(&mut self, _item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
            ctx.counter("echo_received", 1);
        }
        fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
            if self.sent {
                return false;
            }
            self.sent = true;
            let total = ctx.total_workers();
            let dest = WorkerId((ctx.my_id().0 + 1) % total);
            ctx.send(dest, Payload::new(1, 2));
            ctx.flush();
            true
        }
        fn local_done(&self) -> bool {
            self.sent
        }
    }

    for name in ["sim", "native", "process"] {
        let backend = Backend::from_str(name).unwrap();
        let sim = sim_config(
            ClusterSpec::small_smp(1),
            Scheme::WW,
            8,
            16,
            FlushPolicy::EXPLICIT_ONLY,
            3,
        );
        let report = run_app(backend, sim, |_| Box::new(Echo { sent: false }));
        assert!(report.clean(), "{backend}: not clean");
        assert_eq!(report.items_sent, 8, "{backend}");
        assert_eq!(report.counter("echo_received"), 8, "{backend}");
    }
}

fn flush_timeout_drains_stranded_buffers_on_both_backends() {
    // Every worker sends one item across the process boundary and never
    // flushes: without a policy only the watchdog ends such a run.  A
    // timeout policy, fixed or adaptive, must drain the stranded buffers on
    // both native backends, so the run ends clean through timeout flushes.
    struct Strander {
        sent: bool,
    }
    impl WorkerApp for Strander {
        fn on_item(&mut self, _item: Payload, _created: u64, _ctx: &mut dyn RunCtx) {}
        fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
            if self.sent {
                return false;
            }
            self.sent = true;
            let dest = WorkerId((ctx.my_id().0 + 4) % 8);
            ctx.send(dest, Payload::new(1, 2));
            true
        }
        fn local_done(&self) -> bool {
            self.sent
        }
    }

    let max_wall = std::time::Duration::from_secs(10);
    let policies = [
        FlushPolicy::with_timeout(100_000),
        FlushPolicy::adaptive(50_000, 100_000),
    ];
    for policy in policies {
        for scheme in [Scheme::WW, Scheme::PP] {
            let tram = TramConfig::new(scheme, Topology::smp(1, 2, 4))
                .with_buffer_items(1024)
                .with_flush_policy(policy);
            let threaded = run_threaded(
                NativeBackendConfig::new(tram).with_max_wall(max_wall),
                |_| Box::new(Strander { sent: false }),
            );
            let process = run_process(
                ProcessBackendConfig::new(tram).with_max_wall(max_wall),
                |_| Box::new(Strander { sent: false }),
            );
            for report in [threaded, process] {
                let backend = report.backend;
                assert_eq!(
                    report.outcome,
                    RunOutcome::Clean,
                    "{backend} {scheme} {policy:?}: the timeout must drain the buffers"
                );
                assert_eq!(report.items_sent, 8, "{backend} {scheme}");
                assert_eq!(report.items_delivered, 8, "{backend} {scheme}");
                assert!(
                    report.tram.counters().get("messages_timeout_flush") > 0,
                    "{backend} {scheme} {policy:?}: no timeout flush recorded"
                );
            }
        }
    }
}

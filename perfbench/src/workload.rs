//! The workloads: what one operation is, how it runs through `RunSpec` →
//! `apps::run_spec`, and the checks every run must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use apps::histogram::HistogramConfig;
use apps::service::ServiceConfig;
use apps::{open_loop, run_spec, ClusterSpec};
use runtime_api::{Backend, RunOutcome, RunReport, RunSpec, TransportKind};
use sim_core::StreamRng;
use tramlib::Scheme;

use crate::timed::{Samples, Timed, STRIDE};

/// Every scheme, in the order the benchmark runs and reports them.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::WW,
    Scheme::WPs,
    Scheme::WsP,
    Scheme::PP,
    Scheme::NoAgg,
];

/// Worker PEs per run: one per core of the 2-core reference host.
pub const WORKERS: u32 = 2;
/// TramLib buffer `g` in items (16-byte wire items, the apps' default).
pub const BUFFER: usize = 512;
/// Histogram updates each worker issues in one operation.
pub const UPDATES_PER_WORKER: u64 = 4_000_000;
/// Histogram buckets per worker (`HistogramConfig`'s default).
const TABLE_PER_WORKER: u64 = 4096;
/// Absolute open-loop offered load of `service-light`, per worker.
pub const SERVICE_RATE_PER_WORKER: f64 = 100_000.0;
/// Requests each worker issues in one `service-light` operation (0.5 s).
pub const SERVICE_REQUESTS_PER_WORKER: u64 = 50_000;
/// Keys per server shard (`ServiceConfig`'s default).
const KEYS_PER_WORKER: u64 = 4096;

/// One named input set of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop histogram, threaded backend, 1 process x 2 workers,
    /// local bypass off: every item goes insert → seal → ring → group →
    /// deliver.
    HistogramThreaded,
    /// The same inputs on the multi-process backend (2 forked workers over
    /// one memfd segment).
    HistogramProcess,
    /// Open-loop keyed service at a fixed absolute Poisson rate, threaded
    /// backend, local bypass off, the app's default flush policy.
    ServiceLight,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HistogramThreaded,
        Workload::HistogramProcess,
        Workload::ServiceLight,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HistogramThreaded => "histogram-threaded",
            Workload::HistogramProcess => "histogram-process",
            Workload::ServiceLight => "service-light",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn backend(self) -> Backend {
        match self {
            Workload::HistogramProcess => Backend::Process,
            Workload::HistogramThreaded | Workload::ServiceLight => Backend::Native,
        }
    }

    pub fn is_closed_loop(self) -> bool {
        !matches!(self, Workload::ServiceLight)
    }

    /// Items (updates or requests) each worker issues in one measured
    /// operation.
    pub fn per_worker(self) -> u64 {
        if self.is_closed_loop() {
            UPDATES_PER_WORKER
        } else {
            SERVICE_REQUESTS_PER_WORKER
        }
    }

    /// The spec of one operation with `per_worker` updates/requests.
    pub fn spec(self, scheme: Scheme, seed: u64, per_worker: u64) -> RunSpec {
        self.spec_on(self.backend(), scheme, seed, per_worker)
    }

    /// [`Workload::spec`] on another backend (the cross-backend twin).
    pub fn spec_on(self, backend: Backend, scheme: Scheme, seed: u64, per_worker: u64) -> RunSpec {
        let cluster = ClusterSpec::smp(1, 1, WORKERS);
        let spec = if self.is_closed_loop() {
            let config = HistogramConfig::new(cluster, scheme)
                .with_updates(per_worker)
                .with_buffer(BUFFER)
                .with_seed(seed);
            RunSpec::for_app(Timed::stamping(config))
        } else {
            let config = ServiceConfig::new(cluster, scheme)
                .with_buffer(BUFFER)
                .with_seed(seed);
            RunSpec::for_app(Timed::recording(config))
                .load(open_loop(SERVICE_RATE_PER_WORKER).requests(per_worker))
        };
        spec.backend(backend).scheme(scheme).local_bypass(false)
    }

    /// What a correct run of `per_worker` items must produce, replayed from
    /// the seed with the same per-worker random streams the runtimes hand
    /// the apps (`StreamRng::new(seed, worker)`).
    pub fn expected(self, seed: u64, per_worker: u64) -> Expected {
        if self.is_closed_loop() {
            Expected::Histogram(replay_histogram(seed, per_worker))
        } else {
            Expected::Service(replay_service(seed, per_worker))
        }
    }
}

/// The histogram app's draws: one bucket per update, summed as the sent
/// checksum.
fn replay_histogram(seed: u64, per_worker: u64) -> HistogramTruth {
    let global = u64::from(WORKERS) * TABLE_PER_WORKER;
    let mut checksum = 0u64;
    for w in 0..WORKERS {
        let mut rng = StreamRng::new(seed, u64::from(w));
        for _ in 0..per_worker {
            checksum += rng.below(global) % TABLE_PER_WORKER;
        }
    }
    HistogramTruth {
        checksum,
        total: per_worker * u64::from(WORKERS),
        stamped: per_worker.div_ceil(STRIDE) * u64::from(WORKERS),
    }
}

/// The service app's draws: per request a key then a Poisson gap; the last
/// request is due at the sum of the gaps before it.
fn replay_service(seed: u64, per_worker: u64) -> ServiceTruth {
    let global = u64::from(WORKERS) * KEYS_PER_WORKER;
    let mean_ns = 1e9 / SERVICE_RATE_PER_WORKER;
    let mut last_due_ns = 0u64;
    for w in 0..WORKERS {
        let mut rng = StreamRng::new(seed, u64::from(w));
        let mut next = 0u64;
        let mut due = 0u64;
        for _ in 0..per_worker {
            rng.below(global);
            due = next;
            next += rng.exponential(mean_ns).round() as u64;
        }
        last_due_ns = last_due_ns.max(due);
    }
    ServiceTruth {
        requests: per_worker * u64::from(WORKERS),
        last_due_ns,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramTruth {
    pub checksum: u64,
    pub total: u64,
    /// Updates that carry a latency stamp.
    pub stamped: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct ServiceTruth {
    pub requests: u64,
    pub last_due_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Expected {
    Histogram(HistogramTruth),
    Service(ServiceTruth),
}

/// One scheme run and the verdict of its checks.
pub struct Op {
    pub scheme: Scheme,
    /// Client-side wall time of the `run_spec` call.
    pub wall_ns: u64,
    /// `None` if the run panicked.
    pub report: Option<RunReport>,
    /// The latency samples: the service's requests, or the histogram's
    /// stamped updates.
    pub samples: Option<Samples>,
    pub failures: Vec<String>,
    pub expected: Expected,
}

impl Op {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn items_per_s(&self) -> f64 {
        self.report.as_ref().map_or(0.0, |r| {
            r.items_delivered as f64 * 1e9 / self.wall_ns.max(1) as f64
        })
    }

    /// Latency of this operation's requests at quantile `q`, in µs: the
    /// service's keyed requests timed from their scheduled arrival, or —
    /// closed loop — the sampled histogram updates, timed from their send
    /// to their delivery at the bucket's owner.
    pub fn request_us(&self, q: f64) -> f64 {
        self.samples.as_ref().map_or(0.0, |s| s.quantile_us(q))
    }

    /// Run end minus the last scheduled arrival, in ms; 0 closed loop,
    /// where nothing is scheduled.
    pub fn schedule_overrun_ms(&self) -> f64 {
        match (&self.expected, &self.report) {
            (Expected::Service(truth), Some(r)) => {
                (r.total_time_ns as f64 - truth.last_due_ns as f64) / 1e6
            }
            _ => 0.0,
        }
    }
}

/// Run one operation and check it.
pub fn run_op(spec: RunSpec, scheme: Scheme, expected: Expected) -> Op {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_spec(spec)));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut samples = None;
    let (report, failures) = match result {
        Ok(report) => {
            let mut failures = check(&report, expected);
            let s = Samples::of(&report);
            let (stamped, received) = match expected {
                Expected::Histogram(truth) => (truth.stamped, truth.stamped),
                Expected::Service(truth) => (0, truth.requests),
            };
            if s.stamped != stamped || s.received() != received {
                failures.push(format!(
                    "latency samples: {} stamped, {} recorded; expected {stamped} and {received}",
                    s.stamped,
                    s.received(),
                ));
            }
            samples = Some(s);
            (Some(report), failures)
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            (None, vec![format!("run panicked: {msg}")])
        }
    };
    Op {
        scheme,
        wall_ns,
        report,
        samples,
        failures,
        expected,
    }
}

/// Every correctness check of one run; an empty list means it passed.
pub fn check(report: &RunReport, expected: Expected) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    expect(
        report.outcome == RunOutcome::Clean,
        format!("outcome {}", report.outcome.signature()),
    );
    expect(
        report.items_sent == report.items_delivered,
        format!(
            "items_sent {} != items_delivered {}",
            report.items_sent, report.items_delivered
        ),
    );
    let leaked = u64::from(report.outcome.diagnostics().map_or(0, |d| d.leaked_slabs()))
        + report.counter("leaked_slabs");
    expect(leaked == 0, format!("leaked_slabs {leaked}"));
    let misses = report.counter("arena_claim_misses");
    expect(misses == 0, format!("arena_claim_misses {misses}"));
    match expected {
        Expected::Histogram(truth) => {
            let sent = report.counter("histo_sent_checksum");
            let applied = report.counter("histo_applied_checksum");
            let total = report.counter("histo_table_total");
            expect(
                sent == applied,
                format!("histo_sent_checksum {sent} != histo_applied_checksum {applied}"),
            );
            expect(
                total == truth.total,
                format!(
                    "histo_table_total {total} != updates x workers {}",
                    truth.total
                ),
            );
            expect(
                sent == truth.checksum,
                format!("histo_sent_checksum {sent} != replayed {}", truth.checksum),
            );
        }
        Expected::Service(truth) => {
            let counters = [
                "svc_requests_sent",
                "svc_requests_served",
                "svc_responses",
                "svc_responses_final",
                "svc_table_total",
            ];
            for name in counters {
                let v = report.counter(name);
                expect(
                    v == truth.requests,
                    format!("{name} {v} != requests x workers {}", truth.requests),
                );
            }
            let samples = report.latency.map_or(0, |l| l.count);
            expect(
                samples == truth.requests,
                format!("{samples} latency samples != {} requests", truth.requests),
            );
        }
    }
    failures
}

/// Cross-backend check: the histogram app results of two runs of the same
/// scheme and inputs must be identical.
pub fn same_app_results(a: &RunReport, b: &RunReport) -> Result<(), String> {
    for name in [
        "histo_table_total",
        "histo_sent_checksum",
        "histo_applied_checksum",
    ] {
        if a.counter(name) != b.counter(name) {
            return Err(format!(
                "{name} differs across backends: {} ({}) vs {} ({})",
                a.counter(name),
                a.backend,
                b.counter(name),
                b.backend
            ));
        }
    }
    Ok(())
}

/// The node-tier probe: the closed-loop histogram over 2 nodes x 1 worker
/// on loopback TCP with the default bypass, at the histogram workloads'
/// size.
pub fn node_tcp_spec(scheme: Scheme, seed: u64) -> RunSpec {
    let config = HistogramConfig::new(ClusterSpec::smp(2, 1, 1), scheme)
        .with_updates(UPDATES_PER_WORKER)
        .with_buffer(BUFFER)
        .with_seed(seed);
    RunSpec::for_app(Timed::stamping(config))
        .backend(Backend::Native)
        .scheme(scheme)
        .transport(TransportKind::Tcp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("node-tcp"), None);
    }

    #[test]
    fn replay_matches_a_threaded_run() {
        let w = Workload::HistogramThreaded;
        let op = run_op(
            w.spec(Scheme::WW, 9, 20_000),
            Scheme::WW,
            w.expected(9, 20_000),
        );
        assert!(op.ok(), "{:?}", op.failures);
    }

    #[test]
    fn a_wrong_answer_fails_the_checks() {
        let w = Workload::HistogramThreaded;
        let Expected::Histogram(truth) = w.expected(9, 20_000) else {
            unreachable!("histogram workloads replay histogram truths")
        };
        let wrong = Expected::Histogram(HistogramTruth {
            checksum: truth.checksum + 1,
            total: truth.total + 1,
            stamped: truth.stamped,
        });
        let op = run_op(w.spec(Scheme::WPs, 9, 20_000), Scheme::WPs, wrong);
        assert_eq!(op.failures.len(), 2, "{:?}", op.failures);
        assert!(op.failures[0].contains("histo_table_total"));
        assert!(op.failures[1].contains("replayed"));
    }

    #[test]
    fn service_replay_matches_a_run() {
        let w = Workload::ServiceLight;
        let op = run_op(
            w.spec(Scheme::PP, 9, 2_000),
            Scheme::PP,
            w.expected(9, 2_000),
        );
        assert!(op.ok(), "{:?}", op.failures);
        assert!(op.schedule_overrun_ms() > -1.0);
    }
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through `RunSpec` → `apps::run_spec`, checks every
//! run's outputs, prints every metric by name with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
//! around every layer call of a replay that times each layer's public
//! functions from outside, and reports the per-layer metrics and the
//! predicted-vs-measured ledger.  See `README.md` beside this crate.

mod host;
mod layers;
mod stats;
mod timed;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use runtime_api::{Backend, RunOutcome};
use tramlib::Scheme;

use crate::host::Host;
use crate::layers::LayerCosts;
use crate::stats::{iqm, median, ratio};
use crate::trace::{escape, Tracer};
use crate::workload::{node_tcp_spec, run_op, same_app_results, Expected, Op, Workload, SCHEMES};

const USAGE: &str =
    "usage: perfbench --workload <histogram-threaded|histogram-process|service-light> \
     --seed <n> --seconds <s> --trace <0|1>";

/// Zero-item runs per scheme behind `setup_s`.
const SETUP_ROUNDS: usize = 10;

/// Where traces and the process backend's segment markers go, relative to
/// the checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.clamp(1, 60)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // JSON has no NaN or infinity; a metric that cannot be computed is
        // a benchmark bug, reported as a failure rather than a fake number.
        let name = name.into();
        if !value.is_finite() {
            println!("FAILED metric {name} is not finite ({value})");
            self.failed += 1;
        }
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// Count operations and print each failed one with its reasons.
    fn count(&mut self, ops: &[Op], label: &str) {
        for op in ops {
            self.attempted += 1;
            if !op.ok() {
                self.failed += 1;
                println!("FAILED {label} {:?}: {}", op.scheme, op.failures.join("; "));
            }
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                m.value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(err) = std::fs::create_dir_all(out_dir.join("seg")) {
        eprintln!("perfbench: cannot create {}: {err}", out_dir.display());
        return ExitCode::from(2);
    }
    // Keep the process backend's run markers inside the checkout.  Set
    // while the process is still single-threaded.
    std::env::set_var("SMP_AGGR_SEG_DIR", out_dir.join("seg"));

    let host = Host::detect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.render());

    let outcome = if args.trace {
        traced(&args, &host, &out_dir)
    } else {
        measured(&args)
    };
    for m in &outcome.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.to_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `setup_s` samples: `SETUP_ROUNDS` zero-item runs of every scheme,
/// before any measured run.  The metric is their median, so the cold first
/// run does not set it.
fn setup(workload: Workload, seed: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        for scheme in SCHEMES {
            ops.push(run_op(
                workload.spec(scheme, seed, 0),
                scheme,
                workload.expected(seed, 0),
            ));
        }
    }
    ops
}

/// One round: every scheme once, each run under a span when tracing.
fn round(
    workload: Workload,
    seed: u64,
    expected: Expected,
    index: u64,
    tracer: &mut Tracer,
) -> Vec<Op> {
    let per_worker = workload.per_worker();
    let root = tracer.begin("round", None, index);
    let ops = SCHEMES
        .into_iter()
        .map(|scheme| {
            let span = tracer.begin(&format!("run_spec.{scheme:?}"), root, index);
            let op = run_op(workload.spec(scheme, seed, per_worker), scheme, expected);
            tracer.end(span);
            op
        })
        .collect();
    tracer.end(root);
    ops
}

fn of_scheme(ops: &[Op], scheme: Scheme) -> impl Iterator<Item = &Op> {
    ops.iter().filter(move |op| op.scheme == scheme)
}

fn per_scheme(ops: &[Op], scheme: Scheme, f: impl Fn(&Op) -> f64) -> Vec<f64> {
    of_scheme(ops, scheme).map(f).collect()
}

/// The end-to-end metrics of a set of runs.
fn end_to_end(outcome: &mut Outcome, setup: &[Op], ops: &[Op]) {
    outcome.push(
        "setup_s",
        median(
            &setup
                .iter()
                .map(|op| op.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    for scheme in SCHEMES {
        outcome.push(
            format!("items_per_s.{scheme:?}"),
            iqm(&per_scheme(ops, scheme, Op::items_per_s)),
            "1/s",
        );
    }
    for scheme in SCHEMES {
        outcome.push(
            format!("request_p50_us.{scheme:?}"),
            iqm(&per_scheme(ops, scheme, |op| op.request_us(0.5))),
            "us",
        );
    }
}

fn measured(args: &Args) -> Outcome {
    let w = args.workload;
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(false);
    let setup_ops = setup(w, args.seed);
    outcome.count(&setup_ops, "setup");
    // Whole rounds until the time is up, so every scheme gets the same
    // number of runs, spread over the whole window.
    let expected = w.expected(args.seed, w.per_worker());
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut index = 0;
    while start.elapsed() < Duration::from_secs(args.seconds) {
        ops.extend(round(w, args.seed, expected, index, &mut tracer));
        index += 1;
    }
    outcome.count(&ops, w.name());
    for op in &ops {
        println!(
            "run {:?} wall_ms={:.3} items/s={:.0} request_p50_us={:.2}",
            op.scheme,
            op.wall_ns as f64 / 1e6,
            op.items_per_s(),
            op.request_us(0.5)
        );
    }
    print_wire_record(w, &ops);
    end_to_end(&mut outcome, &setup_ops, &ops);
    cross_backend(w, args.seed, &ops, &mut outcome);
    outcome
}

/// On `histogram-process`, one threaded run per scheme with the same
/// inputs, checked on its own and against the first process run of that
/// scheme: the app results must be identical.  Call it after the last
/// process run, once the forking is over.
fn cross_backend(w: Workload, seed: u64, ops: &[Op], outcome: &mut Outcome) {
    if w != Workload::HistogramProcess {
        return;
    }
    let per_worker = w.per_worker();
    let mut twins = Vec::new();
    for scheme in SCHEMES {
        let mut twin = run_op(
            w.spec_on(Backend::Native, scheme, seed, per_worker),
            scheme,
            w.expected(seed, per_worker),
        );
        let process = of_scheme(ops, scheme).find_map(|op| op.report.as_ref());
        if let (Some(a), Some(b)) = (process, twin.report.as_ref()) {
            if let Err(err) = same_app_results(a, b) {
                twin.failures.push(err);
            }
        }
        twins.push(twin);
    }
    outcome.count(&twins, "threaded-twin");
}

/// The wire-behaviour record: messages, fill and delivered batch size per
/// scheme, as the runs measured them.
fn print_wire_record(w: Workload, ops: &[Op]) {
    for scheme in SCHEMES {
        let Some(r) = of_scheme(ops, scheme).find_map(|op| op.report.as_ref()) else {
            continue;
        };
        println!(
            "wire {} {:?}: items={} wire_messages={} mean_fill={:.1} batch_len_p50={:.1} msg_p99_us={:.1}",
            w.name(),
            scheme,
            r.items_delivered,
            r.counter("wire_messages"),
            r.tram.mean_fill(),
            r.delivery_batch_len.median(),
            r.item_latency.quantile(0.99) / 1e3,
        );
    }
}

/// Result of the node-tier probe.
#[derive(Default)]
struct NodeProbe {
    runs: u64,
    aborted: u64,
    frames_sent: u64,
    frames_received: u64,
    retransmits: u64,
    duplicates: u64,
    heartbeat_misses: u64,
}

/// The histogram over 2 nodes x 1 worker on loopback TCP, once per scheme.
/// An aborted run is recorded with its outcome signature and per-node
/// diagnostics in `transport.abort_share`; a run that ends clean must pass
/// every check like any other operation.
fn node_probe(seed: u64, tracer: &mut Tracer, outcome: &mut Outcome) -> NodeProbe {
    let mut probe = NodeProbe::default();
    let root = tracer.begin("node-tcp", None, 0);
    let expected = Workload::HistogramThreaded.expected(seed, workload::UPDATES_PER_WORKER);
    for scheme in SCHEMES {
        let span = tracer.begin(&format!("run_spec.{scheme:?}"), root, 0);
        let op = run_op(node_tcp_spec(scheme, seed), scheme, expected);
        tracer.end(span);
        probe.runs += 1;
        let Some(report) = op.report.as_ref() else {
            outcome.count(std::slice::from_ref(&op), "node-tcp");
            continue;
        };
        let nodes = match &report.outcome {
            RunOutcome::Aborted { diagnostics, .. } if report.node_reports.is_empty() => {
                &diagnostics.node_reports
            }
            _ => &report.node_reports,
        };
        for n in nodes {
            probe.frames_sent += n.frames_sent;
            probe.frames_received += n.frames_received;
            probe.retransmits += n.retransmits;
            probe.duplicates += n.duplicates_rejected;
            probe.heartbeat_misses += n.heartbeat_misses;
        }
        let diag: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
        let line = format!(
            "{:?} {} items/s={:.0} {}",
            scheme,
            report.outcome.signature(),
            op.items_per_s(),
            diag.join(" | ")
        );
        println!("node-tcp {line}");
        tracer.mark("node-tcp", line);
        if report.outcome.is_quiescent() {
            outcome.count(std::slice::from_ref(&op), "node-tcp");
        } else {
            probe.aborted += 1;
        }
    }
    tracer.end(root);
    probe
}

fn traced(args: &Args, host: &Host, out_dir: &std::path::Path) -> Outcome {
    let w = args.workload;
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(true);

    // The workload's own runs, alternating untraced and traced rounds so
    // the tracing overhead is measured on the same host state.
    let mut traced_ops = Vec::new();
    let mut plain_ops = Vec::new();
    let mut untraced = Tracer::new(false);
    let expected = w.expected(args.seed, w.per_worker());
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed() < Duration::from_secs(args.seconds) {
        plain_ops.extend(round(w, args.seed, expected, index, &mut untraced));
        traced_ops.extend(round(w, args.seed, expected, index + 1, &mut tracer));
        index += 2;
    }
    outcome.count(&plain_ops, w.name());
    outcome.count(&traced_ops, w.name());
    print_wire_record(w, &traced_ops);
    cross_backend(w, args.seed, &plain_ops, &mut outcome);

    let costs = layers::replay(&mut tracer, args.seed);
    let probe = node_probe(args.seed, &mut tracer, &mut outcome);

    let ops: Vec<&Op> = traced_ops.iter().chain(&plain_ops).collect();
    let reports = |scheme| {
        ops.iter()
            .filter(move |op| op.scheme == scheme)
            .filter_map(|op| op.report.as_ref())
    };

    // tramlib
    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        outcome.push(
            format!("tramlib.insert_ns_per_item.{scheme:?}"),
            costs.insert_ns[i],
            "ns",
        );
    }
    for scheme in SCHEMES {
        let sum = |f: &dyn Fn(&runtime_api::RunReport) -> f64| reports(scheme).map(f).sum::<f64>();
        let items = sum(&|r| r.tram.items_inserted() as f64);
        let messages = sum(&|r| r.tram.messages_sent() as f64);
        let timeouts = sum(&|r| r.tram.counters().get("messages_timeout_flush") as f64);
        outcome.push(
            format!("tramlib.messages_per_kitem.{scheme:?}"),
            1e3 * ratio(messages, items),
            "count",
        );
        outcome.push(
            format!("tramlib.mean_fill.{scheme:?}"),
            ratio(items, messages),
            "items",
        );
        outcome.push(
            format!("tramlib.timeout_flush_share.{scheme:?}"),
            ratio(timeouts, messages),
            "ratio",
        );
    }
    outcome.push("tramlib.group_ns_per_item.WPs", costs.group_wps_ns, "ns");
    outcome.push("tramlib.group_ns_per_item.WsP", costs.group_wsp_ns, "ns");

    // shmem
    outcome.push("shmem.ring_ns_per_op", costs.ring_ns, "ns");
    outcome.push("shmem.seg_ring_ns_per_op", costs.seg_ring_ns, "ns");
    outcome.push("shmem.slab_cycle_ns", costs.slab_cycle_ns, "ns");
    outcome.push("shmem.seg_slab_cycle_ns", costs.seg_slab_cycle_ns, "ns");
    for scheme in SCHEMES {
        let claims: u64 = reports(scheme).map(|r| r.counter("arena_claims")).sum();
        let misses: u64 = reports(scheme)
            .map(|r| r.counter("arena_claim_misses"))
            .sum();
        outcome.push(
            format!("shmem.arena_miss_ratio.{scheme:?}"),
            ratio(misses as f64, (claims + misses) as f64),
            "ratio",
        );
    }
    outcome.push("shmem.claim_ns_per_item", costs.claim_ns, "ns");
    outcome.push("shmem.claim_retry_ratio", costs.claim_retry_ratio, "ratio");
    outcome.push("shmem.seg_claim_ns_per_item", costs.seg_claim_ns, "ns");

    // kernels
    outcome.push("kernels.apply_ns_per_item", costs.apply_ns, "ns");

    // native-rt: wire behaviour and the ledger
    for scheme in SCHEMES {
        let n = reports(scheme).count().max(1) as f64;
        let items: f64 = reports(scheme).map(|r| r.items_delivered as f64).sum();
        let wire: f64 = reports(scheme)
            .map(|r| r.counter("wire_messages") as f64)
            .sum();
        let hits: f64 = reports(scheme)
            .map(|r| (r.counter("agg_pool_hits") + r.counter("batch_pool_hits")) as f64)
            .sum();
        let misses: f64 = reports(scheme)
            .map(|r| (r.counter("agg_pool_misses") + r.counter("batch_pool_misses")) as f64)
            .sum();
        let grouped: f64 = reports(scheme)
            .map(|r| r.counter("grouped_items") as f64)
            .sum();
        outcome.push(
            format!("native-rt.wire_messages.{scheme:?}"),
            wire / n,
            "count",
        );
        outcome.push(
            format!("native-rt.batch_len_p50.{scheme:?}"),
            iqm(&reports(scheme)
                .map(|r| r.delivery_batch_len.median())
                .collect::<Vec<_>>()),
            "items",
        );
        outcome.push(
            format!("native-rt.pool_hit_ratio.{scheme:?}"),
            ratio(hits, hits + misses),
            "ratio",
        );
        outcome.push(
            format!("native-rt.grouped_item_share.{scheme:?}"),
            ratio(grouped, items),
            "ratio",
        );
        outcome.push(
            format!("native-rt.msg_p99_us.{scheme:?}"),
            iqm(&reports(scheme)
                .map(|r| r.item_latency.quantile(0.99) / 1e3)
                .collect::<Vec<_>>()),
            "us",
        );
    }
    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        if matches!(scheme, Scheme::WW | Scheme::WPs | Scheme::WsP) {
            outcome.push(
                format!("native-rt.seg_send_ns_per_item.{scheme:?}"),
                costs.seg_send_ns[i],
                "ns",
            );
        }
        if matches!(scheme, Scheme::WPs | Scheme::WsP) {
            outcome.push(
                format!("native-rt.seg_group_ns_per_item.{scheme:?}"),
                costs.seg_group_ns[i],
                "ns",
            );
        }
    }
    let trace_overhead = ledger(w, &costs, &traced_ops, &plain_ops, &mut outcome);

    // apps
    for scheme in SCHEMES {
        outcome.push(
            format!("apps.request_p99_us.{scheme:?}"),
            iqm(&per_scheme(&traced_ops, scheme, |op| op.request_us(0.99))),
            "us",
        );
        outcome.push(
            format!("apps.schedule_overrun_ms.{scheme:?}"),
            iqm(&per_scheme(&traced_ops, scheme, Op::schedule_overrun_ms)),
            "ms",
        );
    }
    outcome.push("apps.generate_ns_per_item", costs.generate_ns, "ns");

    // transport
    outcome.push("transport.encode_ns_per_item", costs.encode_ns, "ns");
    outcome.push("transport.decode_ns_per_item", costs.decode_ns, "ns");
    outcome.push("transport.tcp_rtt_us", costs.tcp_rtt_us, "us");
    outcome.push("transport.uds_rtt_us", costs.uds_rtt_us, "us");
    outcome.push(
        "transport.retransmit_ratio",
        ratio(probe.retransmits as f64, probe.frames_sent as f64),
        "ratio",
    );
    outcome.push(
        "transport.dup_ratio",
        ratio(probe.duplicates as f64, probe.frames_received as f64),
        "ratio",
    );
    outcome.push(
        "transport.hb_misses",
        probe.heartbeat_misses as f64,
        "count",
    );
    outcome.push(
        "transport.abort_share",
        ratio(probe.aborted as f64, probe.runs as f64),
        "ratio",
    );
    outcome.push("perfbench.trace_overhead_share", trace_overhead, "ratio");

    let mut metadata: Vec<(&str, String)> = host.fields();
    metadata.push(("workload", w.name().to_string()));
    metadata.push(("seed", args.seed.to_string()));
    let path = out_dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
    match std::fs::write(&path, tracer.to_chrome_json(&metadata)) {
        Ok(()) => println!("trace {} ({} spans)", path.display(), tracer.spans().len()),
        Err(err) => println!("trace not written to {}: {err}", path.display()),
    }
    outcome
}

/// Predicted vs measured items/s per scheme, with the residual share of
/// wall time the layer costs do not explain (scheduling, cache, idle).
/// Returns the tracing overhead: the median over schemes of the traced
/// rounds' shortfall against the untraced ones.
fn ledger(
    w: Workload,
    costs: &LayerCosts,
    traced_ops: &[Op],
    plain_ops: &[Op],
    outcome: &mut Outcome,
) -> f64 {
    let segment = w.backend() == Backend::Process;
    let mut overheads = Vec::new();
    println!(
        "ledger {:<6} {:>14} {:>14} {:>9} {:>14} {:>9}",
        "scheme", "predicted/s", "measured/s", "residual", "traced/s", "overhead"
    );
    for (i, scheme) in SCHEMES.into_iter().enumerate() {
        let items: f64 = of_scheme(traced_ops, scheme)
            .filter_map(|op| op.report.as_ref())
            .map(|r| r.items_delivered as f64)
            .sum();
        let wire: f64 = of_scheme(traced_ops, scheme)
            .filter_map(|op| op.report.as_ref())
            .map(|r| r.counter("wire_messages") as f64)
            .sum();
        let predicted = layers::predicted_items_per_s(costs, i, ratio(wire, items), segment);
        let measured = iqm(&per_scheme(plain_ops, scheme, Op::items_per_s));
        let traced = iqm(&per_scheme(traced_ops, scheme, Op::items_per_s));
        let residual = 1.0 - ratio(measured, predicted);
        let overhead = 1.0 - ratio(traced, measured);
        overheads.push(overhead);
        println!(
            "ledger {:<6} {:>14.0} {:>14.0} {:>9.3} {:>14.0} {:>9.3}",
            format!("{scheme:?}"),
            predicted,
            measured,
            residual,
            traced,
            overhead
        );
        outcome.push(
            format!("native-rt.predicted_items_per_s.{scheme:?}"),
            predicted,
            "1/s",
        );
        outcome.push(
            format!("native-rt.residual_share.{scheme:?}"),
            residual,
            "ratio",
        );
    }
    median(&overheads)
}

//! Quickstart: run the histogram proxy under every aggregation scheme on a
//! small SMP cluster and compare total time, message counts and item latency.
//!
//! ```text
//! cargo run --release --example quickstart                       # simulator
//! cargo run --release --example quickstart -- --backend native   # real threads
//! cargo run --release --example quickstart -- --backend process  # forked processes
//! cargo run --release --example quickstart -- --backend native --seed 9 --buffer 64
//! ```
//!
//! Every run goes through the [`RunSpec`] builder — the one front door for
//! both backends — with the common CLI switches (`--backend`, `--seed`,
//! `--buffer`, `--pin`) parsed by [`CommonArgs`] and applied to the spec.
//! With `--backend native` the same application runs on one OS thread per
//! worker PE (real TramLib aggregators, shared claim buffers for PP) and the
//! times are wall-clock.

use smp_aggregation::prelude::*;

fn main() {
    let args = CommonArgs::from_env();
    let backend = args.backend;
    let cluster = ClusterSpec::smp(2, 4, 4); // 2 nodes x 4 processes x 4 workers
    let updates = 20_000;

    println!(
        "Histogram: {updates} updates/PE on {} worker PEs, backend: {backend}",
        cluster.total_workers()
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "scheme", "time (ms)", "wire msgs", "mean fill", "item lat (us)"
    );
    for scheme in Scheme::ALL {
        let config = HistogramConfig::new(cluster, scheme).with_updates(updates);
        let spec = args
            .apply(RunSpec::for_app(config).backend(backend).buffer(128))
            .scheme(scheme);
        let report = spec.run();
        if !args.faults.is_empty() {
            // A run with injected faults is *supposed* to degrade or abort;
            // show the contained outcome instead of demanding a clean one.
            println!(
                "{:<8} outcome: {}",
                scheme.label(),
                report.outcome.signature()
            );
            continue;
        }
        if !report.clean() {
            // Surface the per-node wire state: the abort reason alone names
            // only the first observer, not who cut the link or why.
            let links: Vec<String> = report
                .node_reports
                .iter()
                .flat_map(|d| {
                    d.links.iter().map(move |l| {
                        format!(
                            "node {}->{}: {}",
                            d.node,
                            l.peer,
                            if l.up {
                                "up".to_string()
                            } else {
                                l.cause.clone().unwrap_or_else(|| "cut".to_string())
                            }
                        )
                    })
                })
                .collect();
            panic!(
                "run must finish cleanly, got: {} [{}]",
                report.outcome.signature(),
                links.join(", ")
            );
        }
        println!(
            "{:<8} {:>12.3} {:>12} {:>14.1} {:>14.2}",
            scheme.label(),
            report.total_time_ns as f64 / 1e6,
            report.counter("wire_messages"),
            report.tram.mean_fill(),
            report.item_latency.mean() / 1e3,
        );
    }
    println!();
    match backend {
        Backend::Sim => {
            println!("Things to notice (the paper's headline effects):");
            println!(" * NoAgg pays the per-message cost for every item and is far slower;");
            println!(" * WW keeps one buffer per destination worker and sends the most messages;");
            println!(" * WPs/WsP/PP aggregate per destination process: fewer, fuller messages;");
            println!(" * PP fills buffers fastest (whole process shares them) => lowest latency.");
        }
        Backend::Native => {
            println!(
                "Times above are wall-clock on this machine ({} threads).",
                cluster.total_workers()
            );
            println!("Message counts and fill levels mirror the simulator; rerun with no flag");
            println!("to compare against the modelled cluster (tests/backend_equivalence.rs");
            println!("checks the item totals match exactly).");
        }
        Backend::Process => {
            println!(
                "Times above are wall-clock across {} forked worker processes",
                cluster.total_workers()
            );
            println!("sharing one memfd segment. Message counts and fill match the threaded");
            println!("backend; the latency column is a threaded-backend instrument");
            println!("(tests/backend_equivalence.rs checks totals and wire counts).");
        }
    }
}

//! Criterion wrapper around the throughput suite's hot path: one
//! native-backend histogram run per scheme, at smoke size so `cargo bench`
//! stays fast.

use apps::histogram::HistogramConfig;
use apps::{run_spec, ClusterSpec, RunSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use runtime_api::Backend;
use tramlib::Scheme;

fn bench_native_histogram(c: &mut Criterion) {
    let updates = 1_000u64;
    let cluster = ClusterSpec::smp(1, 2, 2);
    let mut group = c.benchmark_group("native_histogram");
    group.sample_size(10);
    group.throughput(Throughput::Elements(
        updates * cluster.total_workers() as u64,
    ));
    for scheme in Scheme::ALL {
        group.bench_function(scheme.label(), |b| {
            b.iter(|| {
                let config = HistogramConfig::new(cluster, scheme)
                    .with_updates(updates)
                    .with_buffer(64)
                    .with_seed(41);
                run_spec(RunSpec::for_app(config).backend(Backend::Native))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_native_histogram);
criterion_main!(benches);

//! Latency samples of every workload, taken inside the app's callbacks.
//!
//! [`Timed`] wraps an app spec and hands the wrapped app a context that
//! records every latency the app reports through
//! `RunCtx::record_app_latency` (the service's scheduled-arrival →
//! response times).  With stamping on, the context also stamps every
//! [`STRIDE`]-th item a worker sends with the sender's clock (`1 + now_ns`
//! in the payload's second word, which the histogram leaves 0), and the
//! receiving worker records `now_ns - stamp` at delivery.  Both native
//! backends read `now_ns` from one epoch taken before the workers start —
//! threads share it, forked workers inherit it — so a stamp taken on one
//! worker is comparable on another.  The samples go into log-linear
//! buckets finer than the runtime's own latency sketch and leave the run
//! as counters, which are what the process backend carries back from its
//! forked workers.

use std::sync::OnceLock;

use metrics::Counters;
use net_model::{Topology, WorkerId};
use runtime_api::spec::{AppDefaults, AppFactory, AppSpec, ResolvedRunSpec};
use runtime_api::{Item, Payload, RunCtx, RunReport, WorkerApp};
use sim_core::StreamRng;

/// One sent item in this many is stamped.  Prime, so the samples do not
/// line up with the 512-item buffers or the app's send chunks.
pub const STRIDE: u64 = 61;
/// Sub-buckets per power of two (about 4.4 % wide).
const SUB: u32 = 16;
/// Buckets cover 1 ns to 2^36 ns (about 69 s).
const OCTAVES: u32 = 36;
const BUCKETS: usize = (OCTAVES * SUB) as usize;
/// Counter with the number of stamped sends.
const STAMPED: &str = "pb_lat_stamped";

/// Bucket of a latency in ns: the octave, then 4 mantissa bits.
fn bucket(ns: u64) -> usize {
    let ns = ns.max(1);
    let octave = 63 - ns.leading_zeros();
    let sub = if octave >= 4 {
        (ns >> (octave - 4)) & u64::from(SUB - 1)
    } else {
        (ns << (4 - octave)) & u64::from(SUB - 1)
    };
    ((octave * SUB) as usize + sub as usize).min(BUCKETS - 1)
}

/// Lower edge of a bucket in ns.
fn bucket_floor(index: usize) -> f64 {
    let octave = (index as u32 / SUB) as i32;
    let sub = f64::from(index as u32 % SUB);
    2f64.powi(octave) * (1.0 + sub / f64::from(SUB))
}

/// The bucket counters' names, made once: counter names are `'static`.
fn names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        (0..BUCKETS)
            .map(|i| &*Box::leak(format!("pb_lat_{i}").into_boxed_str()))
            .collect()
    })
}

/// An app spec whose workers record their latency samples.
pub struct Timed<A> {
    app: A,
    stamp: bool,
}

impl<A> Timed<A> {
    /// Record the app's own latency samples and time a sample of the items
    /// it sends.  The app must leave the payload's second word 0.
    pub fn stamping(app: A) -> Self {
        Self { app, stamp: true }
    }

    /// Record the app's own latency samples only.
    pub fn recording(app: A) -> Self {
        Self { app, stamp: false }
    }
}

impl<A: AppSpec> AppSpec for Timed<A> {
    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn native_capable(&self) -> bool {
        self.app.native_capable()
    }

    fn sim_capable(&self) -> bool {
        self.app.sim_capable()
    }

    fn defaults(&self) -> AppDefaults {
        self.app.defaults()
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let mut inner = self.app.factory(run);
        let stamp = self.stamp;
        // Made here, before the process backend forks its workers, so the
        // children only read the names.
        names();
        Box::new(move |me| -> Box<dyn WorkerApp> {
            Box::new(TimedApp {
                inner: inner(me),
                probe: Probe {
                    stamp,
                    countdown: 0,
                    stamped: 0,
                    buckets: vec![0; BUCKETS],
                },
            })
        })
    }
}

/// One worker's samples, and which send is stamped next.
struct Probe {
    stamp: bool,
    countdown: u64,
    stamped: u64,
    buckets: Vec<u64>,
}

impl Probe {
    fn record(&mut self, ns: u64) {
        self.buckets[bucket(ns)] += 1;
    }

    fn received(&mut self, stamp: u64, now_ns: u64) {
        if stamp != 0 {
            self.record(now_ns.saturating_sub(stamp - 1));
        }
    }
}

struct TimedApp {
    inner: Box<dyn WorkerApp>,
    probe: Probe,
}

impl WorkerApp for TimedApp {
    fn on_start(&mut self, ctx: &mut dyn RunCtx) {
        self.inner.on_start(&mut Stamp {
            ctx,
            probe: &mut self.probe,
        });
    }

    fn on_item(&mut self, item: Payload, created_at_ns: u64, ctx: &mut dyn RunCtx) {
        if self.probe.stamp {
            self.probe.received(item.b, ctx.now_ns());
        }
        let ctx = &mut Stamp {
            ctx,
            probe: &mut self.probe,
        };
        self.inner.on_item(item, created_at_ns, ctx);
    }

    fn on_item_slice(&mut self, items: &[Item<Payload>], ctx: &mut dyn RunCtx) {
        if self.probe.stamp {
            let now = ctx.now_ns();
            for item in items {
                self.probe.received(item.data.b, now);
            }
        }
        let ctx = &mut Stamp {
            ctx,
            probe: &mut self.probe,
        };
        self.inner.on_item_slice(items, ctx);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        self.inner.on_idle(&mut Stamp {
            ctx,
            probe: &mut self.probe,
        })
    }

    fn local_done(&self) -> bool {
        self.inner.local_done()
    }

    fn on_finalize(&mut self, counters: &mut Counters) {
        self.inner.on_finalize(counters);
        counters.add(STAMPED, self.probe.stamped);
        for (name, &count) in names().iter().zip(&self.probe.buckets) {
            if count > 0 {
                counters.add(name, count);
            }
        }
    }
}

/// The context the wrapped app sees: the backend's, recording the app's
/// latency samples and stamping every [`STRIDE`]-th payload it sends.
struct Stamp<'a> {
    ctx: &'a mut dyn RunCtx,
    probe: &'a mut Probe,
}

impl RunCtx for Stamp<'_> {
    fn my_id(&self) -> WorkerId {
        self.ctx.my_id()
    }

    fn topology(&self) -> Topology {
        self.ctx.topology()
    }

    fn total_workers(&self) -> u32 {
        self.ctx.total_workers()
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now_ns()
    }

    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }

    fn charge_item_generation(&mut self) {
        self.ctx.charge_item_generation();
    }

    fn rng(&mut self) -> &mut StreamRng {
        self.ctx.rng()
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.ctx.counter(name, delta);
    }

    fn record_app_latency(&mut self, ns: u64) {
        self.probe.record(ns);
        self.ctx.record_app_latency(ns);
    }

    fn send(&mut self, dest: WorkerId, mut payload: Payload) {
        if self.probe.stamp {
            if self.probe.countdown == 0 {
                debug_assert_eq!(payload.b, 0, "the wrapped app uses the stamp word");
                self.probe.countdown = STRIDE;
                self.probe.stamped += 1;
                payload.b = 1 + self.ctx.now_ns();
            }
            self.probe.countdown -= 1;
        }
        self.ctx.send(dest, payload);
    }

    fn flush(&mut self) {
        self.ctx.flush();
    }

    fn flush_on_idle(&mut self) {
        self.ctx.flush_on_idle();
    }
}

/// The latency samples of one run.
pub struct Samples {
    /// Sends that carried a stamp.
    pub stamped: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Samples {
    pub fn of(report: &RunReport) -> Self {
        let counts: Vec<u64> = names().iter().map(|n| report.counter(n)).collect();
        Self {
            stamped: report.counter(STAMPED),
            total: counts.iter().sum(),
            counts,
        }
    }

    /// Samples recorded: stamps received plus the app's own samples.
    pub fn received(&self) -> u64 {
        self.total
    }

    /// Latency at quantile `q` in µs, interpolated linearly inside the
    /// bucket that holds it (0 for no samples).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let (lo, hi) = (bucket_floor(i), bucket_floor(i + 1));
                let within = (rank - below as f64) / count as f64;
                return (lo + within.clamp(0.0, 1.0) * (hi - lo)) / 1e3;
            }
            below += count;
        }
        bucket_floor(BUCKETS) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_bracket_their_values() {
        let mut last = 0;
        for ns in [1u64, 2, 15, 16, 17, 100, 1_000, 12_345, 1 << 30, u64::MAX] {
            let b = bucket(ns);
            assert!(b >= last, "{ns}");
            last = b;
            if b < BUCKETS - 1 {
                assert!(bucket_floor(b) <= ns as f64 && (ns as f64) < bucket_floor(b + 1));
            }
        }
    }

    #[test]
    fn quantiles_interpolate_inside_the_bucket() {
        let mut counts = vec![0; BUCKETS];
        counts[bucket(1_000)] = 50;
        counts[bucket(4_000)] = 50;
        let samples = Samples {
            stamped: 0,
            total: 100,
            counts,
        };
        let (lo, hi) = (bucket_floor(bucket(1_000)), bucket_floor(bucket(1_000) + 1));
        let p25 = samples.quantile_us(0.25) * 1e3;
        assert!((p25 - (lo + hi) / 2.0).abs() < 1e-9, "{p25}");
        let p99 = samples.quantile_us(0.99) * 1e3;
        assert!(
            bucket_floor(bucket(4_000)) <= p99 && p99 <= 4_000.0 * 1.07,
            "{p99}"
        );
    }
}

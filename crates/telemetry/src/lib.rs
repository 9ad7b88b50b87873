//! Zero-dependency metrics for the adaptive counting network.
//!
//! Every layer of this workspace — the discrete-event simulator, the
//! distributed and concurrent runtimes, the estimator, and the bench
//! harness — reports into one [`Registry`] of named metrics. The layer
//! keeps aggregates only; what happened when (a split, a merge, a level
//! change, a crash) is recorded once, as a span, by `acn-trace`. It is
//! strictly **observation-only**: recording a metric never changes
//! control flow, consumes randomness, or otherwise perturbs the system
//! under measurement (the determinism regression tests in the root
//! crate pin this).
//!
//! # Design
//!
//! - **Cheap hot paths.** Metrics are plain atomics behind `Arc`
//!   handles resolved once by name ([`Counter`], [`Gauge`],
//!   [`Histogram`]); recording is a single `fetch_add`/`store`. Keys
//!   are `&'static str` under the `acn.<layer>.<name>` convention.
//! - **Disabled is free-ish.** [`Registry::disabled`] yields a handle
//!   whose metric operations are a `None` branch, so instrumented code
//!   needs no `cfg`s or `Option` plumbing.
//! - **Log₂ histograms.** [`Histogram`] buckets samples by
//!   `floor(log2(v)) + 1` (bucket 0 holds zeros), giving 65 fixed
//!   buckets that cover all of `u64` — cheap, allocation-free, and
//!   precise enough for latency/hop/depth distributions.
//! - **Snapshots and diffs.** [`Registry::snapshot`] captures every
//!   metric into an ordered [`Snapshot`]; [`Snapshot::diff`] isolates a
//!   measurement window; both render human-readable (`Display`) and
//!   machine-readable ([`Snapshot::to_json`]).
//!
//! # Example
//!
//! ```
//! use acn_telemetry::Registry;
//!
//! let registry = Registry::new();
//!
//! // Metric handles are resolved once and then shared freely.
//! let tokens = registry.counter("acn.example.tokens");
//! let latency = registry.histogram("acn.example.latency");
//! tokens.inc();
//! tokens.add(2);
//! latency.record(37);
//!
//! // Snapshots capture, diff, and render the whole registry.
//! let before = registry.snapshot();
//! tokens.add(5);
//! let delta = registry.snapshot().diff(&before);
//! assert_eq!(delta.counter("acn.example.tokens"), Some(5));
//! assert!(delta.to_json().contains("\"acn.example.tokens\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod snapshot;

pub use metrics::{bucket_bounds, bucket_of, Counter, Gauge, Histogram, BUCKET_COUNT};
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot};

use std::collections::HashMap;
// lint: std-sync-ok(acn-telemetry is zero-dependency by policy; it cannot pull in parking_lot)
use std::sync::{Arc, Mutex};

use metrics::{CounterCell, GaugeCell, HistogramCell};

enum Handle {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

/// A registry of named metrics, shared by `Clone`.
///
/// See the [crate docs](crate) for the full tour. A
/// [disabled](Registry::disabled) registry accepts every call as a
/// no-op, so instrumented code never branches on "is telemetry on".
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Mutex<HashMap<&'static str, Handle>>>>,
}

impl Registry {
    /// An active registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// A no-op registry: metric handles do nothing, snapshots are
    /// empty. This is the [`Default`].
    #[must_use]
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // lint: std-sync-ok(zero-dependency crate policy; guard type of the std mutex above)
    fn lock_metrics(&self) -> Option<std::sync::MutexGuard<'_, HashMap<&'static str, Handle>>> {
        self.inner
            .as_ref()
            .map(|i| i.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// The counter registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Counter {
        let Some(mut metrics) = self.lock_metrics() else {
            return Counter::noop();
        };
        let handle = metrics.entry(name).or_insert_with(|| Handle::Counter(Arc::default()));
        match handle {
            Handle::Counter(cell) => Counter::active(Arc::clone(cell)),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// The gauge registered under `name` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    #[must_use]
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let Some(mut metrics) = self.lock_metrics() else {
            return Gauge::noop();
        };
        let handle = metrics.entry(name).or_insert_with(|| Handle::Gauge(Arc::default()));
        match handle {
            Handle::Gauge(cell) => Gauge::active(Arc::clone(cell)),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// The log₂-bucketed histogram registered under `name` (created on
    /// first use).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind.
    #[must_use]
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let Some(mut metrics) = self.lock_metrics() else {
            return Histogram::noop();
        };
        let handle = metrics.entry(name).or_insert_with(|| Handle::Histogram(Arc::default()));
        match handle {
            Handle::Histogram(cell) => Histogram::active(Arc::clone(cell)),
            _ => panic!("metric '{name}' is registered with a different kind"),
        }
    }

    /// Captures the current value of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(metrics) = self.lock_metrics() else {
            return snap;
        };
        for (&name, handle) in metrics.iter() {
            let value = match handle {
                Handle::Counter(c) => MetricValue::Counter(c.get()),
                Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            snap.insert(name, value);
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::disabled()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Registry(disabled)"),
            Some(_) => {
                let snap = self.snapshot();
                f.debug_struct("Registry").field("metrics", &snap.len()).finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("acn.test.c");
        let b = reg.counter("acn.test.c");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("acn.test.c"), Some(5));
    }

    #[test]
    fn gauges_hold_latest_value() {
        let reg = Registry::new();
        let g = reg.gauge("acn.test.g");
        g.set(1.5);
        g.set(-0.25);
        assert_eq!(g.get(), -0.25);
        assert_eq!(reg.snapshot().gauge("acn.test.g"), Some(-0.25));
    }

    #[test]
    fn histogram_counts_and_sums() {
        let reg = Registry::new();
        let h = reg.histogram("acn.test.h");
        for v in [0u64, 1, 1, 7, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1033);
        let snap = reg.snapshot();
        let hs = snap.histogram("acn.test.h").expect("histogram present");
        assert_eq!(hs.buckets[bucket_of(0)], 1);
        assert_eq!(hs.buckets[bucket_of(1)], 2);
        assert_eq!(hs.buckets[bucket_of(7)], 1);
        assert_eq!(hs.buckets[bucket_of(1024)], 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collisions_panic() {
        let reg = Registry::new();
        let _ = reg.counter("acn.test.kind");
        let _ = reg.gauge("acn.test.kind");
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("acn.test.noop");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("acn.test.noop_h");
        h.record(3);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let reg = Registry::new();
        let c = reg.counter("acn.test.window");
        let h = reg.histogram("acn.test.window_h");
        c.add(3);
        h.record(10);
        let before = reg.snapshot();
        c.add(9);
        h.record(20);
        h.record(2);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("acn.test.window"), Some(9));
        let hd = delta.histogram("acn.test.window_h").expect("present");
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 22);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Registry::new();
        let c = reg.counter("acn.test.mt");
        let h = reg.histogram("acn.test.mt_h");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 4 * (999 * 1000 / 2));
    }
}

//! Atomic metric cells and the public handles wrapping them.
//!
//! Cells (`CounterCell`, `GaugeCell`, `HistogramCell`) are the shared
//! storage owned by the registry; handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are what instrumented code holds. A handle from a
//! disabled registry carries no cell and every operation is a cheap
//! `None` branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::snapshot::HistogramSnapshot;

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `i` (1..=64) holds values with `floor(log2(v)) == i - 1`.
pub const BUCKET_COUNT: usize = 65;

/// The bucket index a sample lands in: `0` for `v == 0`, otherwise
/// `floor(log2(v)) + 1`.
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `(lo, hi)` value range of bucket `i`.
///
/// Bucket 0 is `(0, 0)`; bucket `i >= 1` is `(2^(i-1), 2^i - 1)` with
/// the final bucket capped at `u64::MAX`.
///
/// # Panics
///
/// Panics if `i >= BUCKET_COUNT`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKET_COUNT, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }
}

/// Shared storage for a counter.
#[derive(Debug, Default)]
pub(crate) struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    pub(crate) fn add(&self, n: u64) {
        // lint: relaxed-ok(telemetry counter; only the per-cell total matters and snapshots tolerate slight staleness)
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        // lint: relaxed-ok(snapshot read of a statistics cell; no cross-location ordering consumed)
        self.value.load(Ordering::Relaxed)
    }
}

/// Shared storage for a gauge (an `f64` stored as raw bits).
#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
}

impl GaugeCell {
    pub(crate) fn set(&self, v: f64) {
        // lint: relaxed-ok(last-writer-wins gauge cell; no other memory is published through it)
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> f64 {
        // lint: relaxed-ok(snapshot read of a statistics cell; no cross-location ordering consumed)
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Shared storage for a log₂ histogram.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    pub(crate) fn record(&self, v: u64) {
        // lint: relaxed-ok(histogram bucket increment; per-cell totals only, snapshots are advisory)
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // lint: relaxed-ok(histogram count increment; per-cell totals only, snapshots are advisory)
        self.count.fetch_add(1, Ordering::Relaxed);
        // lint: relaxed-ok(histogram sum increment; per-cell totals only, snapshots are advisory)
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn count(&self) -> u64 {
        // lint: relaxed-ok(snapshot read of a statistics cell; no cross-location ordering consumed)
        self.count.load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        // lint: relaxed-ok(snapshot read of a statistics cell; no cross-location ordering consumed)
        self.sum.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            // lint: relaxed-ok(advisory snapshot; buckets/count/sum may be mutually torn by design)
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A monotonically increasing metric handle.
///
/// Cloning shares the underlying cell; a handle from a disabled
/// registry ignores every update and reads as zero.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    pub(crate) fn noop() -> Self {
        Counter { cell: None }
    }

    pub(crate) fn active(cell: Arc<CounterCell>) -> Self {
        Counter { cell: Some(cell) }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// The current total (zero for a disabled handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.get())
    }

    /// Whether updates land in a registry (clones share that cell).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }
}

/// A last-value-wins metric handle holding an `f64`.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    pub(crate) fn noop() -> Self {
        Gauge { cell: None }
    }

    pub(crate) fn active(cell: Arc<GaugeCell>) -> Self {
        Gauge { cell: Some(cell) }
    }

    /// Stores `v` as the latest value.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            cell.set(v);
        }
    }

    /// The latest stored value (zero for a disabled handle).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.cell.as_ref().map_or(0.0, |c| c.get())
    }
}

/// A log₂-bucketed distribution handle.
///
/// Records `u64` samples (latencies in ticks, hop counts, depths) into
/// [`BUCKET_COUNT`] fixed buckets — see [`bucket_of`] /
/// [`bucket_bounds`] for the layout.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    pub(crate) fn noop() -> Self {
        Histogram { cell: None }
    }

    pub(crate) fn active(cell: Arc<HistogramCell>) -> Self {
        Histogram { cell: Some(cell) }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.count())
    }

    /// Sum of all recorded samples (wrapping on `u64` overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64).1, u64::MAX);
    }

    #[test]
    fn bounds_and_bucket_of_agree() {
        for i in 0..BUCKET_COUNT {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
        }
    }

    #[test]
    fn gauge_preserves_f64_payloads() {
        let cell = GaugeCell::default();
        for v in [0.0, -1.5, f64::MIN_POSITIVE, 1e300] {
            cell.set(v);
            assert_eq!(cell.get(), v);
        }
    }
}

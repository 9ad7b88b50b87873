//! Deterministic causal span tracing for the adaptive counting
//! network runtime.
//!
//! `acn-trace` sits directly on top of `acn-telemetry`: where the
//! telemetry layer aggregates (counters, gauges, log2 histograms),
//! this layer keeps *per-token causal history*. Every token already
//! carries a stable end-to-end id through the distributed runtime;
//! that id doubles as the **trace id**, and every hop the token takes
//! — balancer traversal, leaf `fetch_add`, wire send / deliver /
//! drop / retry — records a [`Span`] against it. The runtime's own
//! occurrences — a split, a merge, a migration, a level change, a
//! crash, a rescue — are recorded once each, as spans on
//! [`SYSTEM_TRACE`]; `acn-telemetry` keeps only their counts.
//!
//! Three consumers:
//!
//! 1. **End-to-end latency**: [`Tracer::open_trace`] /
//!    [`Tracer::close_trace`] fold closed traces into a log2
//!    histogram; [`Tracer::latency_summary`] extracts p50/p90/p99
//!    via `acn-telemetry`'s quantile estimator.
//! 2. **Flight recorder**: spans land in a bounded ring so that a
//!    failed model-checker oracle can dump the last N spans —
//!    causally ordered — alongside its replayable schedule.
//! 3. **Chrome `trace_event` export** ([`chrome`]): the same spans
//!    render as a `chrome://tracing` / Perfetto timeline.
//!
//! # Determinism
//!
//! Spans are data, never behaviour: recording one takes no lock the
//! traced code doesn't already imply, consumes no randomness, and
//! reads no ambient clock. Timestamps enter spans only through the
//! two sanctioned seams — simnet's virtual clock (`ctx.now()`) in the
//! distributed runtime, and `SyncApi::monotonic_now()` in the
//! concurrent executors (wall nanoseconds under `RealSync`, a logical
//! counter under the model checker's `VirtualSync`). The
//! `trace-determinism` lint enforces this: no `Instant::now` or
//! entropy source may appear in trace construction outside
//! `RealSync`. Consequently two runs of the same seed produce
//! bit-identical span DAGs (and the regression tests assert exactly
//! that).
//!
//! # Causal order
//!
//! Every recorded span gets a global sequence number assigned under
//! the recorder's lock, so the ring is totally ordered consistently
//! with program order at each site and with the happens-before edges
//! the traced operations themselves establish (a message's `send`
//! span is always sequenced before its `deliver` span, because the
//! simulator runs them in that order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
// lint: std-sync-ok(acn-trace is zero-dependency by policy, like acn-telemetry; it cannot pull in parking_lot)
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use acn_telemetry::{bucket_of, HistogramSnapshot, BUCKET_COUNT};

/// The reserved trace id for spans that belong to the runtime itself
/// rather than to one token: splits, merges, migrations, level
/// changes, crashes, rescues, simulator drops and self-profiling. `u64::MAX` so it can never
/// collide with a token id (tokens are numbered from zero).
pub const SYSTEM_TRACE: u64 = u64::MAX;

/// One causally-ordered hop in a trace.
///
/// `start == end` models an instant event (most virtual-clock hops);
/// a strictly larger `end` models a measured duration (executor
/// traversals, simulator self-profiling). Units are whatever clock
/// the recording site used — simulation ticks in the distributed
/// runtime, `SyncApi::monotonic_now()` units in the executors — and
/// are never mixed within one trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// The trace (token id, or [`SYSTEM_TRACE`]) this hop belongs to.
    pub trace: u64,
    /// What happened, under the `layer.verb` convention
    /// (`"token.send"`, `"net.migrate"`, `"exec.traverse"`, ...).
    pub kind: &'static str,
    /// The node / process the hop is attributed to, if any.
    pub node: Option<u64>,
    /// Timestamp the hop began.
    pub start: u64,
    /// Timestamp the hop ended (`>= start`).
    pub end: u64,
    /// Global causal sequence number, assigned by [`Tracer::record`].
    pub seq: u64,
    /// Ordered numeric detail (`("wire", 3)`, `("attempt", 1)`, ...).
    pub fields: Vec<(&'static str, u64)>,
}

impl Span {
    /// A new instant span of `kind` in `trace` at time zero.
    #[must_use]
    pub fn new(kind: &'static str, trace: u64) -> Self {
        Span { trace, kind, node: None, start: 0, end: 0, seq: 0, fields: Vec::new() }
    }

    /// Sets both timestamps to `t` (an instant event).
    #[must_use]
    pub fn at(mut self, t: u64) -> Self {
        self.start = t;
        self.end = t;
        self
    }

    /// Sets an explicit `[start, end]` interval.
    #[must_use]
    pub fn between(mut self, start: u64, end: u64) -> Self {
        self.start = start;
        self.end = end.max(start);
        self
    }

    /// Attributes the span to a node / process id.
    #[must_use]
    pub fn node(mut self, node: u64) -> Self {
        self.node = Some(node);
        self
    }

    /// Appends a `key = value` field.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, value));
        self
    }

    /// The first field named `key`, if present.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The span's duration (`end - start`).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[seq {:>4}] t={}", self.seq, self.start)?;
        if self.end != self.start {
            write!(f, "..{}", self.end)?;
        }
        if self.trace == SYSTEM_TRACE {
            write!(f, " trace=system")?;
        } else {
            write!(f, " trace={}", self.trace)?;
        }
        if let Some(node) = self.node {
            write!(f, " node={node}")?;
        }
        write!(f, " {}", self.kind)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// End-to-end latency digest of the closed traces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Closed traces folded in.
    pub count: u64,
    /// Median end-to-end latency (clock units of the recording site).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.0} p90={:.0} p99={:.0}",
            self.count, self.p50, self.p90, self.p99
        )
    }
}

/// Everything behind the recorder's single lock: the bounded span
/// ring, the open-trace table, and the closed-trace latency buckets.
#[derive(Debug)]
struct TraceState {
    /// Bounded flight-recorder ring, in `seq` (causal) order.
    ring: VecDeque<Span>,
    /// Spans evicted from the ring so far.
    dropped: u64,
    /// Next global sequence number.
    next_seq: u64,
    /// Trace id -> timestamp it was opened at.
    open: BTreeMap<u64, u64>,
    /// log2 latency buckets of closed traces.
    latency_buckets: Vec<u64>,
    latency_count: u64,
    latency_sum: u64,
}

#[derive(Debug)]
struct TracerInner {
    capacity: usize,
    /// Trace ids with `id & mask == 0` are sampled (0 = everything).
    sample_mask: u64,
    state: Mutex<TraceState>,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The span recorder: a cheap-to-clone handle that is a no-op when
/// disabled (the default), mirroring `acn_telemetry::Registry`.
///
/// Instrumented code holds a `Tracer` and guards expensive span
/// construction with [`Tracer::should_sample`]; everything recorded
/// lands in the bounded flight-recorder ring and (for
/// [`Tracer::open_trace`]d ids) the end-to-end latency histogram.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: every operation returns immediately.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer retaining the most recent `capacity` spans
    /// and sampling every trace.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_sampling(capacity, 0)
    }

    /// An enabled tracer that samples one in `2^sample_log2` traces
    /// (by trace id low bits, so the choice is deterministic and all
    /// spans of one trace share a fate). [`SYSTEM_TRACE`] and
    /// explicitly recorded spans are always kept.
    #[must_use]
    pub fn with_sampling(capacity: usize, sample_log2: u32) -> Self {
        let sample_mask = (1u64 << sample_log2.min(63)) - 1;
        Tracer {
            inner: Some(Arc::new(TracerInner {
                capacity,
                sample_mask,
                state: Mutex::new(TraceState {
                    ring: VecDeque::new(),
                    dropped: 0,
                    next_seq: 0,
                    open: BTreeMap::new(),
                    latency_buckets: vec![0; BUCKET_COUNT],
                    latency_count: 0,
                    latency_sum: 0,
                }),
            })),
        }
    }

    /// Whether spans are being recorded at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `trace` falls in the deterministic sample. Hot paths
    /// check this once before building any spans; disabled tracers
    /// sample nothing.
    #[must_use]
    pub fn should_sample(&self, trace: u64) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => trace == SYSTEM_TRACE || trace & inner.sample_mask == 0,
        }
    }

    /// Records `span`, assigning its global causal sequence number.
    /// The oldest retained span is evicted when the ring is full
    /// (visible via [`Tracer::dropped`]).
    pub fn record(&self, mut span: Span) {
        let Some(inner) = &self.inner else { return };
        let mut state = relock(inner.state.lock());
        span.seq = state.next_seq;
        state.next_seq += 1;
        if inner.capacity == 0 {
            state.dropped += 1;
            return;
        }
        if state.ring.len() == inner.capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(span);
    }

    /// Marks `trace` as in flight since `t`. Reopening an already
    /// open trace keeps the earlier timestamp (first injection wins).
    pub fn open_trace(&self, trace: u64, t: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = relock(inner.state.lock());
        state.open.entry(trace).or_insert(t);
    }

    /// Closes `trace` at `t`, folding its end-to-end latency into the
    /// histogram; returns the latency, or `None` if the trace was not
    /// open (e.g. a duplicate exit — second close of the same id).
    pub fn close_trace(&self, trace: u64, t: u64) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut state = relock(inner.state.lock());
        let opened = state.open.remove(&trace)?;
        let latency = t.saturating_sub(opened);
        state.latency_buckets[bucket_of(latency)] += 1;
        state.latency_count += 1;
        state.latency_sum += latency;
        Some(latency)
    }

    /// Traces currently open (injected but not yet exited).
    #[must_use]
    pub fn open_traces(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| relock(i.state.lock()).open.len())
    }

    /// Traces closed into the latency histogram so far.
    #[must_use]
    pub fn closed_traces(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| relock(i.state.lock()).latency_count)
    }

    /// Spans evicted from the flight-recorder ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| relock(i.state.lock()).dropped)
    }

    /// All retained spans in causal (`seq`) order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| relock(i.state.lock()).ring.iter().cloned().collect())
    }

    /// Retained spans of `trace`, in causal order.
    #[must_use]
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            relock(i.state.lock()).ring.iter().filter(|s| s.trace == trace).cloned().collect()
        })
    }

    /// The closed-trace latency histogram (log2 buckets), in the same
    /// shape `acn-telemetry` snapshots use so its quantile estimator
    /// applies directly.
    #[must_use]
    pub fn latency(&self) -> HistogramSnapshot {
        match &self.inner {
            None => HistogramSnapshot { count: 0, sum: 0, buckets: vec![0; BUCKET_COUNT] },
            Some(i) => {
                let state = relock(i.state.lock());
                HistogramSnapshot {
                    count: state.latency_count,
                    sum: state.latency_sum,
                    buckets: state.latency_buckets.clone(),
                }
            }
        }
    }

    /// p50/p90/p99 of closed-trace latency, or `None` when no trace
    /// has closed (or the tracer is disabled).
    #[must_use]
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        let hist = self.latency();
        Some(LatencySummary {
            count: hist.count,
            p50: hist.p50()?,
            p90: hist.p90()?,
            p99: hist.p99()?,
        })
    }

    /// Checks the recorded stream against the trace schema: spans in
    /// strictly increasing causal order, every interval well-formed
    /// (`start <= end`), and no trace left open. Returns the first
    /// violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let Some(inner) = &self.inner else { return Ok(()) };
        let state = relock(inner.state.lock());
        let mut prev_seq: Option<u64> = None;
        for span in &state.ring {
            if span.end < span.start {
                return Err(format!("span not well-formed (end < start): {span}"));
            }
            if let Some(prev) = prev_seq {
                if span.seq <= prev {
                    return Err(format!(
                        "causal order violated: seq {} follows seq {prev}",
                        span.seq
                    ));
                }
            }
            prev_seq = Some(span.seq);
        }
        if let Some((&trace, &t)) = state.open.iter().next() {
            return Err(format!(
                "{} trace(s) left open, first: trace {trace} opened at t={t}",
                state.open.len()
            ));
        }
        Ok(())
    }

    /// Discards retained spans and open traces (the latency histogram
    /// is kept — it summarizes the run, not the window).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut state = relock(inner.state.lock());
            state.ring.clear();
            state.open.clear();
        }
    }
}

/// Renders `spans` as an indented, causally-ordered flight-recorder
/// dump (one span per line) — what the model checker prints alongside
/// a failed oracle.
#[must_use]
pub fn format_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str("    ");
        let _ = fmt::Write::write_fmt(&mut out, format_args!("{span}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.should_sample(0));
        t.record(Span::new("x", 1));
        t.open_trace(1, 0);
        assert_eq!(t.close_trace(1, 5), None);
        assert!(t.spans().is_empty());
        assert_eq!(t.latency_summary(), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn spans_are_causally_ordered_and_bounded() {
        let t = Tracer::new(3);
        for i in 0..5u64 {
            t.record(Span::new("hop", i).at(i * 10));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(t.dropped(), 2);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "ring keeps the newest spans in causal order");
        assert!(t.validate().is_ok());
        assert_eq!(t.spans_for(3).len(), 1);
    }

    #[test]
    fn open_close_folds_latency() {
        let t = Tracer::new(16);
        for (id, start, end) in [(1u64, 0u64, 10u64), (2, 5, 6), (3, 7, 1000)] {
            t.open_trace(id, start);
            assert_eq!(t.close_trace(id, end), Some(end - start));
        }
        // A duplicate close is a no-op (the collector's dedup path).
        assert_eq!(t.close_trace(1, 99), None);
        let summary = t.latency_summary().expect("3 closed traces");
        assert_eq!(summary.count, 3);
        assert!(summary.p50 >= 1.0 && summary.p50 <= 15.0, "p50 {}", summary.p50);
        assert!(summary.p99 >= 512.0, "p99 {}", summary.p99);
        assert_eq!(t.open_traces(), 0);
        assert_eq!(t.closed_traces(), 3);
    }

    #[test]
    fn reopening_keeps_the_first_timestamp() {
        let t = Tracer::new(4);
        t.open_trace(7, 10);
        t.open_trace(7, 50);
        assert_eq!(t.close_trace(7, 110), Some(100));
    }

    #[test]
    fn sampling_is_by_trace_id() {
        let t = Tracer::with_sampling(64, 2); // 1 in 4
        let sampled: Vec<u64> = (0..8).filter(|&i| t.should_sample(i)).collect();
        assert_eq!(sampled, [0, 4]);
        assert!(t.should_sample(SYSTEM_TRACE), "system spans always kept");
    }

    #[test]
    fn validate_reports_open_traces_and_bad_intervals() {
        let t = Tracer::new(4);
        t.open_trace(3, 1);
        let err = t.validate().expect_err("open trace");
        assert!(err.contains("trace 3"), "{err}");
        assert_eq!(t.close_trace(3, 2), Some(1));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn display_shows_the_full_hop() {
        let mut s = Span::new("token.send", 5).at(42).node(2).with("to", 3).with("attempt", 1);
        s.seq = 9;
        let line = s.to_string();
        assert!(line.contains("trace=5"), "{line}");
        assert!(line.contains("node=2"), "{line}");
        assert!(line.contains("token.send to=3 attempt=1"), "{line}");
        let sys = Span::new("net.migrate", SYSTEM_TRACE).at(1);
        assert!(sys.to_string().contains("trace=system"));
    }

    #[test]
    fn clear_keeps_the_latency_digest() {
        let t = Tracer::new(4);
        t.open_trace(1, 0);
        t.record(Span::new("hop", 1).at(1));
        t.close_trace(1, 2);
        t.clear();
        assert!(t.spans().is_empty());
        assert_eq!(t.closed_traces(), 1);
    }
}

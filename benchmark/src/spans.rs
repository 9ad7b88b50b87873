//! The benchmark's own span recorder: one span around every call the
//! harness makes into a layer, kept in memory and written out as Chrome
//! `trace_event` JSON when the run ends. Nothing here reaches into
//! `crates/`; the spans are recorded from outside, around public calls.
//!
//! Every call adds to its name's running total (count, time, time
//! covered by child calls), so a layer's self time is exact even when
//! only one call in `2^k` is kept as a span.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use acn_trace::{Span, SYSTEM_TRACE};

/// Where trace files go, relative to the working directory.
pub const TRACE_DIR: &str = "target/benchmark";

/// Calls of one name, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    pub ns: u64,
    /// The part of `ns` covered by calls nested inside.
    pub child_ns: u64,
}

impl Total {
    pub fn self_ns(&self) -> u64 {
        self.ns - self.child_ns
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Index of this call's span if it is being kept.
    span: Option<usize>,
}

/// Records the calls of one thread. Off (one branch per call) unless
/// built with [`Recorder::on`].
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    thread: u64,
    workload: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Recorder {
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            thread: 0,
            workload: 0,
            open: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// A live recorder; `workload` is the workload's index in the
    /// catalog, stamped on every span.
    pub fn on(workload: u64) -> Recorder {
        Recorder {
            enabled: true,
            workload,
            ..Recorder::off()
        }
    }

    /// A recorder for another thread of the same run: same clock
    /// origin, its own timeline row.
    pub fn for_thread(&self, thread: u64) -> Recorder {
        Recorder {
            enabled: self.enabled,
            origin: self.origin,
            thread,
            workload: self.workload,
            ..Recorder::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as one call named `name` and keeps it as a span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.call_sampled(name, true, f)
    }

    /// Times `f` as one call named `name`; keeps it as a span only if
    /// `keep` (hot calls keep one in `2^k`), but always counts it.
    pub fn call_sampled<R>(
        &mut self,
        name: &'static str,
        keep: bool,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        self.enter(name, keep);
        let result = f(self);
        self.exit();
        result
    }

    /// Keeps a span; returns its index.
    fn keep(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let mut span = Span::new(name, SYSTEM_TRACE)
            .between(start_ns, end_ns)
            .node(self.thread)
            .with("workload", self.workload);
        if let Some(parent) = self.open.iter().rev().find_map(|o| o.span) {
            span = span.with("parent", parent as u64);
        }
        span.seq = self.spans.len() as u64;
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn enter(&mut self, name: &'static str, keep: bool) {
        let start_ns = self.now_ns();
        let span = keep.then(|| self.keep(name, start_ns, start_ns));
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            span,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit without enter");
        let ns = end_ns - open.start_ns;
        let total = self.totals.entry(open.name).or_default();
        total.calls += 1;
        total.ns += ns;
        total.child_ns += open.child_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(index) = open.span {
            self.spans[index].end = end_ns;
        }
    }

    /// Adds a call measured elsewhere (a worker's block timed with the
    /// clock it already reads); `keep` as in [`call_sampled`](Self::call_sampled).
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, keep: bool) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let total = self.totals.entry(name).or_default();
        total.calls += 1;
        total.ns += end_ns - start_ns;
        if keep {
            self.keep(name, start_ns, end_ns);
        }
    }

    /// Folds another thread's recorder into this one: its spans keep
    /// their own row, its totals add up.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u64;
        for mut span in other.spans {
            span.seq += offset;
            for field in &mut span.fields {
                if field.0 == "parent" {
                    field.1 += offset;
                }
            }
            self.spans.push(span);
        }
        for (name, total) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.calls += total.calls;
            mine.ns += total.ns;
            mine.child_ns += total.child_ns;
        }
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The per-name stack: calls, total, self time, widest first.
    pub fn stack_report(&self) -> String {
        let mut rows: Vec<(&&str, &Total)> = self.totals.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.ns));
        let mut out = format!(
            "  {:<28} {:>10} {:>12} {:>12} {:>10}\n",
            "call", "calls", "total ms", "self ms", "ns/call"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "  {:<28} {:>10} {:>12.3} {:>12.3} {:>10.0}\n",
                name,
                t.calls,
                t.ns as f64 / 1e6,
                t.self_ns() as f64 / 1e6,
                t.ns as f64 / t.calls.max(1) as f64,
            ));
        }
        out
    }

    /// Writes the kept spans as `trace-<workload>.json` under `dir`.
    pub fn write_trace(&self, dir: &Path, workload: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, acn_trace::chrome::to_chrome_json(&self.spans))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children_even_when_children_are_not_kept() {
        let mut rec = Recorder::on(3);
        rec.call("outer", |rec| {
            for i in 0..8 {
                rec.call_sampled("inner", i == 0, |_| std::hint::black_box(i));
            }
        });
        let (outer, inner) = (rec.total("outer"), rec.total("inner"));
        assert_eq!((outer.calls, inner.calls), (1, 8));
        assert_eq!(outer.child_ns, inner.ns);
        assert_eq!(outer.self_ns(), outer.ns - inner.ns);
        // One kept inner span, parented to the outer span.
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].field("parent"), Some(0));
        assert_eq!(rec.spans()[1].field("workload"), Some(3));
        assert!(rec.spans()[0].end >= rec.spans()[1].end);
    }

    #[test]
    fn an_off_recorder_runs_the_call_and_keeps_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.call("x", |_| 41 + 1), 42);
        assert!(rec.spans().is_empty() && rec.total("x").calls == 0);
    }

    #[test]
    fn absorbing_a_thread_shifts_its_parent_links() {
        let mut main = Recorder::on(0);
        main.call("bench.setup", |_| ());
        let mut worker = main.for_thread(1);
        worker.call("a", |rec| rec.call("b", |_| ()));
        main.absorb(worker);
        assert_eq!(main.spans().len(), 3);
        assert_eq!(main.spans()[2].field("parent"), Some(1));
        assert_eq!(main.spans()[2].node, Some(1));
        assert_eq!(main.total("b").calls, 1);
    }
}

//! One measurement of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer
//! ledger, the trace file and the tracing overhead.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::probes;
use crate::spans::{Recorder, TRACE_DIR};
use crate::workload::{self, Attach, Pass};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Whether a traced run also takes the microprobes' readings;
    /// `acn-perf run --traced` takes them once for all its workloads.
    pub probes: bool,
}

/// Threads the workload and, if it runs them, the probes need.
pub fn threads_needed(opts: &Options) -> usize {
    let workload = workload::threads(&opts.workload);
    if opts.traced && opts.probes {
        workload.max(probes::threads())
    } else {
        workload
    }
}

/// Everything one measurement produced.
#[derive(Debug)]
pub struct Measurement {
    pub options: Options,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Metric name -> value: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further catalog metrics an untraced run can read off public
    /// counters; kept in the detail so `compare` can judge them.
    pub extra: BTreeMap<&'static str, f64>,
    /// `[min, max]` over the slices, for metrics reported as a median
    /// of slices.
    pub spread: BTreeMap<&'static str, (f64, f64)>,
    pub exact: BTreeMap<&'static str, u64>,
    pub notes: BTreeMap<&'static str, f64>,
    /// The human-readable report printed above the result line.
    pub report: String,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line of the benchmark contract.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = catalog::metric(name)
                .expect("metrics come from the catalog")
                .unit;
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The result line plus what `run` and `compare` need beyond it.
    pub fn detail(&self) -> Json {
        let spread = self
            .spread
            .iter()
            .map(|(name, (min, max))| (*name, Json::Arr(vec![Json::Num(*min), Json::Num(*max)])));
        Json::obj([
            ("workload", Json::str(&self.options.workload)),
            ("seed", Json::Int(self.options.seed)),
            ("seconds", Json::Num(self.options.seconds)),
            ("traced", Json::Bool(self.options.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(
                    self.extra
                        .iter()
                        .chain(&self.metrics)
                        .map(|(k, v)| (*k, Json::Num(*v))),
                ),
            ),
            ("spread", Json::obj(spread)),
            (
                "exact",
                Json::obj(self.exact.iter().map(|(k, v)| (*k, Json::Int(*v)))),
            ),
            (
                "notes",
                Json::obj(self.notes.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ])
    }
}

pub fn measure(options: Options) -> Measurement {
    if options.traced {
        measure_traced(options)
    } else {
        measure_untraced(options)
    }
}

fn header(options: &Options, pass: &Pass) -> String {
    format!(
        "acn-perf {} seed {} budget {} s ({}): {} tokens in {:.3} s, set-up x{}\n",
        options.workload,
        options.seed,
        options.seconds,
        if options.traced { "traced" } else { "untraced" },
        pass.tokens,
        pass.wall_s,
        pass.setup_s.len(),
    )
}

fn describe_failures(pass: &Pass, violations: &[String], report: &mut String) {
    report.push_str(&format!(
        "  failed {}, lost to crashes {}, of {} attempted (failed_share {})\n",
        pass.failed,
        pass.lost_to_crashes,
        pass.attempted,
        pass.failed_share()
    ));
    for violation in violations {
        report.push_str(&format!("  VIOLATION: {violation}\n"));
    }
}

fn measure_untraced(options: Options) -> Measurement {
    let pass = workload::run(
        &options.workload,
        options.seed,
        options.seconds,
        None,
        &mut Recorder::off(),
    );
    let rate = pass.tokens_per_s();
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", pass.setup_median_s());
    metrics.insert("tokens_per_s", rate.median);
    metrics.insert("peak_rss_mb", workload::peak_rss_mb());
    debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));

    let mut report = header(&options, &pass);
    for m in END_TO_END {
        report.push_str(&format!(
            "  {:<24} {:>16.6} {}",
            m.name, metrics[m.name], m.unit
        ));
        if m.name == "tokens_per_s" {
            report.push_str(&format!(
                "   median of {} slices, spread [{:.0}, {:.0}] = {:.1} % of it",
                pass.slices.len(),
                rate.min,
                rate.max,
                rate.spread_share() * 100.0
            ));
        }
        report.push('\n');
    }
    for (name, value) in &pass.layer {
        report.push_str(&format!("  {name:<24} {value:>16.6}\n"));
    }
    for (name, value) in &pass.notes {
        report.push_str(&format!("  note {name:<19} {value:>16.3}\n"));
    }
    describe_failures(&pass, &pass.violations, &mut report);

    let mut spread = BTreeMap::new();
    spread.insert("tokens_per_s", (rate.min, rate.max));
    let failed_share = pass.failed_share();
    let mut extra = pass.layer;
    extra.insert("failed_share", failed_share);
    Measurement {
        options,
        attempted: pass.attempted,
        failed: pass.failed,
        violations: pass.violations,
        metrics,
        extra,
        spread,
        exact: pass.exact,
        notes: pass.notes,
        report,
    }
}

fn measure_traced(options: Options) -> Measurement {
    let index = catalog::WORKLOADS
        .iter()
        .position(|w| w.name == options.workload)
        .expect("a catalog workload") as u64;
    let budget = options.seconds / 2.0;
    let detached = workload::run(
        &options.workload,
        options.seed,
        budget,
        None,
        &mut Recorder::off(),
    );
    let attach = Attach::new();
    let mut rec = Recorder::on(index);
    let attached = rec.call("bench.workload", |rec| {
        workload::run(&options.workload, options.seed, budget, Some(&attach), rec)
    });

    // Per-layer ledger: every declared name, 0 where the workload does
    // not use the layer. Timings come from the detached pass; the
    // attached pass adds what only telemetry can see; the probes'
    // readings are in it if this run takes them.
    let mut metrics: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .filter(|m| options.probes || !probes::is_reading(m.name))
        .map(|m| (m.name, 0.0))
        .collect();
    metrics.extend(attached.layer.iter().map(|(k, v)| (*k, *v)));
    metrics.extend(detached.layer.iter().map(|(k, v)| (*k, *v)));
    if options.probes {
        metrics.extend(probes::run_all(options.seconds, options.seed, &mut rec));
    }
    let (untraced_rate, traced_rate) = (
        detached.tokens_per_s().median,
        attached.tokens_per_s().median,
    );
    let overhead_pct = if traced_rate > 0.0 {
        (untraced_rate / traced_rate - 1.0) * 100.0
    } else {
        0.0
    };
    metrics.insert("telemetry.overhead_pct", overhead_pct);
    metrics.insert("failed_share", detached.failed_share());

    // Telemetry is documented as observation-only; check it.
    let mut violations = detached.violations.clone();
    violations.extend(
        attached
            .violations
            .iter()
            .map(|v| format!("traced pass: {v}")),
    );
    let names: BTreeSet<_> = detached.exact.keys().chain(attached.exact.keys()).collect();
    for name in names {
        let (a, b) = (detached.exact.get(name), attached.exact.get(name));
        if a != b {
            violations.push(format!(
                "exact-repeat: {name} is {a:?} detached but {b:?} attached"
            ));
        }
    }
    let attempted = detached.attempted.max(1);
    let failed = if violations.is_empty() { 0 } else { attempted };

    let mut report = header(&options, &detached);
    report.push_str("  per-layer ledger:\n");
    for m in PER_LAYER.iter().filter(|m| metrics.contains_key(m.name)) {
        report.push_str(&format!(
            "    {:<40} {:>18.6} {}\n",
            m.name, metrics[m.name], m.unit
        ));
    }
    report.push_str(&format!(
        "  tokens_per_s detached {untraced_rate:.0}, attached {traced_rate:.0}: overhead {overhead_pct:.2} %\n"
    ));
    if let (Some(events), Some(event_ns)) = (
        detached.layer.get("dist.events_per_token"),
        detached.layer.get("dist.event_ns"),
    ) {
        let rebuilt = 1e9 / (events * event_ns);
        report.push_str(&format!(
            "  reconciliation: 1e9 / (events_per_token {events:.3} x event_ns {event_ns:.1}) = {rebuilt:.0} tokens/s vs {untraced_rate:.0} measured ({:+.2} %)\n",
            (rebuilt / untraced_rate - 1.0) * 100.0
        ));
    }
    report.push_str("  stack of the attached pass (and of the probes, if taken):\n");
    report.push_str(&rec.stack_report());
    match rec.write_trace(Path::new(TRACE_DIR), &options.workload) {
        Ok(path) => report.push_str(&format!(
            "  trace: {} ({} spans)\n",
            path.display(),
            rec.spans().len()
        )),
        Err(error) => report.push_str(&format!("  trace not written: {error}\n")),
    }
    describe_failures(&detached, &violations, &mut report);

    Measurement {
        options,
        attempted,
        failed,
        violations,
        metrics,
        extra: BTreeMap::new(),
        spread: BTreeMap::new(),
        exact: detached.exact,
        notes: detached.notes,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    /// What `acn-perf run --smoke --traced` prints, workload by
    /// workload: exactly the declared names (which `catalog::tests`
    /// ties to `BENCHMARK.json`), on a correct run, in a result line of
    /// exactly the four contract keys.
    #[test]
    fn every_workload_prints_exactly_the_declared_names() {
        if crate::host::nproc() < 2 {
            return;
        }
        for (index, w) in WORKLOADS.iter().enumerate() {
            for traced in [false, true] {
                // The probes do not depend on the workload: once is enough.
                let probes = index == 0;
                let options = Options {
                    workload: w.name.into(),
                    seed: 7,
                    seconds: 0.4,
                    traced,
                    probes,
                };
                let m = measure(options);
                assert!(
                    m.correct(),
                    "{} traced={traced}: {:?}",
                    w.name,
                    m.violations
                );
                let declared = if traced { PER_LAYER } else { END_TO_END };
                let want: Vec<&str> = declared
                    .iter()
                    .map(|d| d.name)
                    .filter(|name| !traced || probes || !probes::is_reading(name))
                    .collect();
                let mut got: Vec<&str> = m.metrics.keys().copied().collect();
                got.sort_by_key(|name| want.iter().position(|w| w == name));
                assert_eq!(got, want, "{} traced={traced}", w.name);
                if !traced {
                    assert!(
                        m.metrics.values().all(|v| *v > 0.0),
                        "{}: {:?}",
                        w.name,
                        m.metrics
                    );
                    assert!(
                        m.extra.keys().all(|k| catalog::metric(k).is_some()),
                        "{:?}",
                        m.extra
                    );
                }
                let line = Json::parse(&m.result_line()).expect("the result line is JSON");
                let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            }
        }
    }
}

//! The seven workloads. Each is one [`Pass`]: set up (several times,
//! timed), run a timed section whose length follows from the budget,
//! then check the outputs. Violations are counted, never retried.

pub mod dist;
pub mod explore;
pub mod shm;

use std::collections::BTreeMap;
use std::time::Instant;

use acn_telemetry::Registry;
use acn_trace::Tracer;

use crate::spans::Recorder;
use crate::stats::{median, SliceSummary};

/// Slices a homogeneous timed section is cut into.
pub const SLICES: usize = 5;

/// The `--seconds` every length in the issue's workload table was
/// sized for; other budgets scale the lengths by `budget / NOMINAL`.
pub const NOMINAL_SECONDS: f64 = 8.0;

/// Telemetry and tracing, attached through the layers' public
/// `attach_*` functions for the traced pass.
pub struct Attach {
    pub registry: Registry,
    pub tracer: Tracer,
}

impl Attach {
    pub fn new() -> Attach {
        Attach {
            registry: Registry::new(),
            tracer: Tracer::with_sampling(65_536, 6),
        }
    }
}

/// One slice of a timed section.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub tokens: u64,
    pub wall_s: f64,
}

/// Times consecutive slices.
pub struct SliceClock(Instant);

impl SliceClock {
    pub fn start() -> SliceClock {
        SliceClock(Instant::now())
    }

    /// Ends the current slice, in which `tokens` were served, and
    /// starts the next.
    pub fn lap(&mut self, tokens: u64) -> Slice {
        let now = Instant::now();
        let slice = Slice {
            tokens,
            wall_s: (now - self.0).as_secs_f64(),
        };
        self.0 = now;
        slice
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Operations attempted and failed (tokens, reconfigurations,
    /// schedules). A violated whole-run check fails every operation.
    pub attempted: u64,
    pub failed: u64,
    /// Tokens that died with a crashed node: injected, never counted.
    /// The protocol promises at-most-once under crashes, so these are
    /// no malfunction (`failed` leaves them out and the run stays
    /// correct), but they are `dist_churn`'s robustness number and
    /// count into `failed_share`.
    pub lost_to_crashes: u64,
    /// The checks that failed, by name.
    pub violations: Vec<String>,
    /// Tokens handed out, counted or replayed in the timed section.
    pub tokens: u64,
    /// The slices of the timed section; one for a run that is not
    /// homogeneous.
    pub slices: Vec<Slice>,
    /// Wall seconds of the timed section.
    pub wall_s: f64,
    /// Per-layer values this pass observed.
    pub layer: BTreeMap<&'static str, f64>,
    /// Counts that must repeat bit for bit for one seed and budget.
    pub exact: BTreeMap<&'static str, u64>,
    /// Facts for the host record (open-loop lateness, sample counts).
    pub notes: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Records a violated whole-run check: every operation failed.
    pub fn violate(&mut self, check: impl Into<String>) {
        self.violations.push(check.into());
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s).unwrap_or(0.0)
    }

    /// Tokens per wall second: the median over the slices.
    pub fn tokens_per_s(&self) -> SliceSummary {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.tokens as f64 / s.wall_s)
            .collect();
        SliceSummary::of(&rates).unwrap_or(SliceSummary {
            median: 0.0,
            min: 0.0,
            max: 0.0,
        })
    }

    /// Operations that failed or were lost to a crash ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        (self.failed + self.lost_to_crashes) as f64 / self.attempted.max(1) as f64
    }
}

/// The shape of a shared-memory workload, `None` for the others.
fn shm_shape(workload: &str) -> Option<shm::Shape> {
    let (clients, reconfig) = match workload {
        "shm_uncontended" => (1, false),
        "shm_contended" => (2, false),
        "shm_reconfig" => (1, true),
        _ => return None,
    };
    Some(shm::Shape { clients, reconfig })
}

/// Threads `workload` loads the host with; the simulator and the
/// explorer are single-threaded.
pub fn threads(workload: &str) -> usize {
    shm_shape(workload).map_or(1, |shape| shape.threads())
}

/// Runs one pass of `workload` (a catalog name).
pub fn run(
    workload: &str,
    seed: u64,
    budget_s: f64,
    attach: Option<&Attach>,
    rec: &mut Recorder,
) -> Pass {
    let mut pass = match (shm_shape(workload), workload) {
        (Some(shape), _) => shm::run(shape, seed, budget_s, attach, rec),
        (None, "dist_steady") => dist::run_steady(0, seed, budget_s, attach, rec),
        (None, "dist_lossy") => dist::run_steady(50, seed, budget_s, attach, rec),
        (None, "dist_churn") => dist::run_churn(seed, budget_s, attach, rec),
        (None, "check_explore") => explore::run(seed, budget_s, rec),
        (None, other) => panic!("unknown workload {other}"),
    };
    pass.exact.insert("failed", pass.failed);
    pass.exact.insert("lost_to_crashes", pass.lost_to_crashes);
    pass
}

/// Builds the system under test `reps` times, timing each build as a
/// `bench.setup` call; the last build is the one the pass measures.
pub fn repeat_setup<T>(
    reps: usize,
    rec: &mut Recorder,
    mut build: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        // Dropping the previous build is not part of the next one.
        drop(built.take());
        let start = Instant::now();
        built = Some(rec.call("bench.setup", |_| build()));
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up repetition"), times)
}

/// The workload's deterministic input stream (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        acn_overlay::splitmix64(&mut self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_violation_fails_every_attempted_operation() {
        let mut pass = Pass {
            attempted: 10,
            failed: 1,
            ..Pass::default()
        };
        pass.violate("step property");
        assert_eq!((pass.attempted, pass.failed), (10, 10));
        assert_eq!(pass.failed_share(), 1.0);
        let mut empty = Pass::default();
        empty.violate("set-up");
        assert_eq!((empty.attempted, empty.failed), (1, 1));
    }

    #[test]
    fn crash_losses_count_into_the_share_but_are_no_failure() {
        let pass = Pass {
            attempted: 100,
            lost_to_crashes: 3,
            ..Pass::default()
        };
        assert_eq!((pass.failed, pass.failed_share()), (0, 0.03));
    }

    #[test]
    fn only_the_two_thread_workloads_need_two_threads() {
        let two: Vec<&str> = crate::catalog::WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|name| threads(name) == 2)
            .collect();
        assert_eq!(two, ["shm_contended", "shm_reconfig"]);
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn setup_is_repeated_and_each_repetition_timed() {
        let mut builds = 0;
        let (last, times) = repeat_setup(3, &mut Recorder::off(), || {
            builds += 1;
            builds
        });
        assert_eq!((last, times.len()), (3, 3));
    }
}

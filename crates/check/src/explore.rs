//! The thread checker: every `VirtualSync` operation of a scenario is a
//! decision of the scheduler kernel ([`crate::sched`]), and the shared
//! schedule explorer enumerates them — exhaustive DFS with sleep sets
//! and state memoization, or a seeded randomized (PCT-style) search.
//!
//! What is thread-specific is the run the explorer drives:
//!
//! - a choice is a logical thread plus, for a weak load, which visible
//!   store it reads; its sleep-set identity is the thread;
//! - a sleeping thread wakes when its pending operation is dependent
//!   with the one just executed (same object, at least one write), when
//!   that step released an object it waits on (lock releases are
//!   bundled into the preceding step), or when the thread it joins has
//!   finished;
//! - the visited-state memo keys on the kernel's canonical (or plain)
//!   fingerprint and ignores the step budget, which counts decisions.
//!
//! Failures report the iteration seed in random mode; re-running with it
//! reproduces the schedule, as does replaying the printed choice list
//! ([`replay_schedule`]).

use std::sync::Arc;

pub use crate::engine::Mode;
use crate::engine::{self, Frontier, Run};
use crate::sched::{
    Choice, Failure, FailureKind, Kernel, Op, Pending, ScheduleStep, Tid, WaitOutcome,
};
use crate::vthread::start_root;

/// Exploration budget and mode.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Schedule generation mode.
    pub mode: Mode,
    /// Max executions (full or pruned) before giving up; exhaustive
    /// runs that hit this report `completed == false`.
    pub max_executions: u64,
    /// Max granted steps in a single execution (runaway guard). Replay
    /// and shrinking run under the same bound.
    pub max_steps: usize,
    /// Key the visited-state table on
    /// [`Kernel::canonical_fingerprint`] (dead-store truncation)
    /// instead of the raw [`Kernel::fingerprint`]. Default on; turn
    /// off to measure how much the quotient saves.
    pub canonical: bool,
    /// Additionally bucket finished-and-joined threads as inert in the
    /// canonical fingerprint (see [`Kernel::canonical_fingerprint`]).
    /// Off by default.
    pub symmetric: bool,
    /// Minimize the recorded failure with the delta-debugging shrinker
    /// ([`crate::shrink`]) before reporting it. Default on.
    pub shrink_failures: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            mode: Mode::Exhaustive,
            max_executions: 250_000,
            max_steps: 20_000,
            canonical: true,
            symmetric: false,
            shrink_failures: true,
        }
    }
}

impl CheckConfig {
    /// Exhaustive exploration with the default budget.
    #[must_use]
    pub fn exhaustive() -> Self {
        CheckConfig::default()
    }

    /// Randomized exploration of `iterations` schedules from `seed`.
    #[must_use]
    pub fn random(iterations: u64, seed: u64) -> Self {
        CheckConfig { mode: Mode::Random { iterations, seed }, ..CheckConfig::default() }
    }
}

/// Outcome and statistics of a check.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Executions that ran to completion (distinct explored schedules).
    pub schedules: u64,
    /// Branches dropped by the visited-state table.
    pub memo_prunes: u64,
    /// Branches dropped because every enabled transition slept.
    pub sleep_prunes: u64,
    /// Distinct state fingerprints seen.
    pub states_seen: u64,
    /// Deepest decision stack reached.
    pub max_depth: usize,
    /// Decisions re-taken off the DFS stack to reach a fresh node (the
    /// price of stateless replay; zero in random mode).
    pub replayed_steps: u64,
    /// Decisions taken at fresh nodes.
    pub new_steps: u64,
    /// Whether the space was exhausted (exhaustive) / all iterations
    /// ran (random) within the budget.
    pub completed: bool,
    /// The failure exploration stopped at (at most one), pre-minimized
    /// when `CheckConfig::shrink_failures` is on.
    pub failures: Vec<Failure>,
    /// Shrinker statistics (all zero when no failure was shrunk).
    pub shrink: crate::shrink::ShrinkStats,
}

impl Report {
    /// Whether the check passed: no failures and the configured
    /// exploration actually completed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.completed && self.failures.is_empty()
    }

    /// Emits the checker statistics as `acn.check.*` metrics.
    pub fn emit(&self, registry: &acn_telemetry::Registry) {
        registry.counter("acn.check.schedules").add(self.schedules);
        registry.counter("acn.check.memo_prunes").add(self.memo_prunes);
        registry.counter("acn.check.sleep_prunes").add(self.sleep_prunes);
        registry.counter("acn.check.states_seen").add(self.states_seen);
        registry.counter("acn.check.replayed_steps").add(self.replayed_steps);
        registry.counter("acn.check.new_steps").add(self.new_steps);
        registry.counter("acn.check.failures").add(self.failures.len() as u64);
        registry.gauge("acn.check.max_depth").set(self.max_depth as f64);
        self.shrink.emit(registry);
    }

    /// Panics with the first failure's full report if the check did
    /// not pass (the convenient assertion form for tests).
    pub fn assert_ok(&self) {
        if let Some(failure) = self.failures.first() {
            panic!(
                "model check failed after {} schedules:\n{failure}",
                self.schedules
            );
        }
        assert!(self.completed, "exploration budget exhausted before completion: {self:?}");
    }
}

/// Runs `scenario` under the model checker per `config` and returns
/// the exploration report. The scenario runs once per schedule on a
/// controlled logical thread 0 and may [`crate::vthread::spawn`]
/// further logical threads; every `VirtualSync` operation is a
/// scheduling point.
pub fn check<F>(config: CheckConfig, scenario: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let (stats, found) = engine::explore(
        &config.mode,
        config.max_executions,
        || ThreadRun::new(&scenario, &config),
        |_| {},
    );
    let mut report = Report {
        schedules: stats.schedules,
        memo_prunes: stats.memo_prunes,
        sleep_prunes: stats.sleep_prunes,
        states_seen: stats.states_seen,
        max_depth: stats.max_depth,
        replayed_steps: stats.replayed_steps,
        new_steps: stats.new_steps,
        completed: stats.completed,
        ..Report::default()
    };
    if let Some((mut failure, seed)) = found {
        failure.seed = seed;
        if config.shrink_failures {
            let (shrunk, stats) =
                crate::shrink::shrink_thread_choices(&config, move || scenario(), &failure);
            report.shrink.fold(&stats);
            failure = shrunk;
        }
        report.failures.push(failure);
    }
    report
}

/// Replays one explicit choice sequence (as printed in a failure
/// report) under `config`'s step bound and returns the failure it
/// reproduces, if any. After the given choices are exhausted the
/// execution is completed deterministically (first enabled choice).
///
/// # Panics
///
/// Panics if a recorded choice is not pending and enabled: the
/// sequence does not belong to this scenario.
pub fn replay_schedule<F>(config: &CheckConfig, scenario: F, choices: &[Choice]) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let mut run = ThreadRun::new(&scenario, config);
    engine::replay(&mut run, choices, true).unwrap_or_else(|d| {
        panic!(
            "replay diverged at step {}: t{} (variant {}) not pending/enabled",
            d.at, d.choice.tid, d.choice.variant
        )
    })
}

/// One checked execution: the scenario's threads under one kernel. The
/// threads are wound down when the run is dropped.
pub(crate) struct ThreadRun {
    kernel: Arc<Kernel>,
    max_steps: usize,
    /// `Some(symmetric)` keys the memo on the canonical fingerprint,
    /// `None` on the plain one.
    canonical: Option<bool>,
    steps: usize,
    /// The threads parked at the current decision.
    pending: Vec<Pending>,
    /// Objects released since the previous decision.
    touched: Vec<u64>,
    /// The operation the last granted step executed.
    last_op: Option<Op>,
}

impl ThreadRun {
    pub(crate) fn new(scenario: &Arc<dyn Fn() + Send + Sync>, config: &CheckConfig) -> Self {
        let kernel = Arc::new(Kernel::new());
        let body = Arc::clone(scenario);
        start_root(&kernel, move || body());
        ThreadRun {
            kernel,
            max_steps: config.max_steps,
            canonical: config.canonical.then_some(config.symmetric),
            steps: 0,
            pending: Vec::new(),
            touched: Vec::new(),
            last_op: None,
        }
    }

    /// A failure carrying the schedule granted so far plus `blocked`.
    fn failure(&self, kind: FailureKind, message: String, blocked: &[Pending]) -> Failure {
        let (mut schedule, choices) = self.kernel.schedule();
        schedule.extend(blocked.iter().map(|p| ScheduleStep {
            tid: p.tid,
            variant: 0,
            desc: format!("[blocked on {:?}]", p.op),
        }));
        Failure { kind, message, schedule, choices, seed: None }
    }
}

impl Drop for ThreadRun {
    fn drop(&mut self) {
        self.kernel.poison_and_join();
    }
}

impl Run for ThreadRun {
    type Choice = Choice;
    type Id = Tid;
    type Failure = Failure;
    const VARIANTS: bool = true;

    fn frontier(&mut self) -> Result<Frontier<Choice, Tid>, Failure> {
        let pending = match self.kernel.wait_quiescent() {
            WaitOutcome::Failed => {
                return Err(self.kernel.take_failure().expect("failed => failure"));
            }
            WaitOutcome::AllFinished => {
                return Ok(Frontier { choices: Vec::new(), ranked: Vec::new() });
            }
            WaitOutcome::Node(pending) => pending,
        };
        if self.steps >= self.max_steps {
            return Err(self.failure(
                FailureKind::DepthExceeded,
                format!(
                    "execution exceeded {} steps (livelock or runaway scenario)",
                    self.max_steps
                ),
                &[],
            ));
        }
        self.touched = self.kernel.take_touched();
        let choices: Vec<(Choice, Tid)> = pending
            .iter()
            .filter(|p| p.enabled)
            .flat_map(|p| (0..p.variants).map(|variant| (Choice { tid: p.tid, variant }, p.tid)))
            .collect();
        if choices.is_empty() {
            return Err(self.failure(
                FailureKind::Deadlock,
                format!("no pending operation is enabled ({} threads blocked)", pending.len()),
                &pending,
            ));
        }
        let ranked = pending.iter().map(|p| p.tid).collect();
        self.pending = pending;
        Ok(Frontier { choices, ranked })
    }

    fn wakes(&self, sleeper: Tid) -> bool {
        // A sleeper is always parked (sleepers are never granted); drop
        // one that is not, defensively.
        let Some(p) = self.pending.iter().find(|p| p.tid == sleeper) else { return true };
        self.last_op.as_ref().is_some_and(|op| op.dependent(&p.op))
            || p.op.obj().is_some_and(|obj| self.touched.contains(&obj))
            || matches!(p.op, Op::Join { target } if self.kernel.is_finished(target))
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(match self.canonical {
            Some(symmetric) => self.kernel.canonical_fingerprint(symmetric),
            None => self.kernel.fingerprint(),
        })
    }

    fn remaining(&self) -> usize {
        // The thread memo ignores the step budget.
        0
    }

    fn apply(&mut self, choice: Choice, _: Tid) -> Result<(), Failure> {
        self.last_op = self.pending.iter().find(|p| p.tid == choice.tid).map(|p| p.op.clone());
        self.steps += 1;
        self.kernel.grant(choice);
        Ok(())
    }
}

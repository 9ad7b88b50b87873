//! The message checker: the shared schedule explorer over the message
//! schedules of the distributed runtime — exhaustive DFS with sleep
//! sets and state memoization, or a seeded randomized (PCT-style)
//! search whose choice points include fault actions.
//!
//! What is message-specific is the run the explorer drives (see the
//! module docs on [`super`]):
//!
//! - a choice ([`DistChoice`]) delivers a link head, fires a timer
//!   ahead of pending messages, drops a message in flight, or applies
//!   the next scripted fault action; its sleep-set identity names the
//!   link, timer or action, which is rename-invariant across
//!   DPOR-equivalent prefixes;
//! - two choices are dependent iff they target the same process; drops
//!   and fault actions are dependent with everything;
//! - the memo keys on the deployment's id-symmetry-quotient fingerprint
//!   plus the run's scheduling state, and prunes only a visit with no
//!   more remaining step budget than the recorded one (the budget
//!   counts fired events, deterministic drain steps included);
//! - every terminal state is checked against the protocol oracles.
//!
//! Failures carry the iteration seed in random mode; re-running with
//! that seed reproduces the schedule, as does replaying the printed
//! choice list through [`replay_dist_schedule`].

use super::{DistChoice, DistFailure, DistFailureKind, DistRun, DistScenario};
use crate::engine::{self, Mode};

/// Exploration budget and mode for the distributed checker.
#[derive(Debug, Clone)]
pub struct DistCheckConfig {
    /// Schedule generation mode.
    pub mode: Mode,
    /// Max executions (full or pruned) before giving up; exhaustive
    /// runs that hit this report `completed == false`.
    pub max_schedules: u64,
    /// Max fired events in a single execution (runaway guard; hitting
    /// it is itself reported as a [`DistFailureKind::Stuck`] failure,
    /// because a bounded scenario that cannot quiesce has leaked an
    /// obligation). Replay and shrinking run under the same bound.
    pub max_steps: usize,
    /// Memoize canonically-fingerprinted states across executions
    /// (exhaustive mode): a fresh decision node whose fingerprint was
    /// already visited with a subset sleep set and at least as much
    /// remaining step budget is pruned. Default on.
    pub memoize: bool,
    /// Minimize the recorded failure with the delta-debugging shrinker
    /// ([`crate::shrink`]) before reporting it. Default on.
    pub shrink_failures: bool,
}

impl Default for DistCheckConfig {
    fn default() -> Self {
        DistCheckConfig {
            mode: Mode::Exhaustive,
            max_schedules: 200_000,
            max_steps: 5_000,
            memoize: true,
            shrink_failures: true,
        }
    }
}

impl DistCheckConfig {
    /// Exhaustive exploration with the default budget.
    #[must_use]
    pub fn exhaustive() -> Self {
        DistCheckConfig::default()
    }

    /// Randomized exploration of `iterations` schedules from `seed`.
    #[must_use]
    pub fn random(iterations: u64, seed: u64) -> Self {
        DistCheckConfig {
            mode: Mode::Random { iterations, seed },
            ..DistCheckConfig::default()
        }
    }
}

/// Outcome and statistics of a distributed check.
#[derive(Debug, Clone, Default)]
pub struct DistReport {
    /// Executions that ran to a terminal state (distinct explored
    /// schedules).
    pub schedules: u64,
    /// Branches dropped because every branching choice slept.
    pub sleep_prunes: u64,
    /// Branches dropped by the canonical-state memo (an already-seen
    /// rename-quotient fingerprint with a covering sleep set and
    /// budget).
    pub frontier_dedup_hits: u64,
    /// Distinct canonical state fingerprints seen at decision nodes.
    pub states_seen: u64,
    /// Deepest branching-decision stack reached.
    pub max_depth: usize,
    /// Branching decisions re-taken off the DFS stack to reach a fresh
    /// node (the price of stateless replay; zero in random mode).
    pub replayed_steps: u64,
    /// Branching decisions taken at fresh nodes.
    pub new_steps: u64,
    /// Fault actions applied, summed over all executions.
    pub fault_actions: u64,
    /// Timer-ahead-of-messages preemptions taken, summed over all
    /// executions.
    pub timer_preemptions: u64,
    /// In-flight message drops explored, summed over all executions.
    pub drops: u64,
    /// Whether the space was exhausted (exhaustive) / all iterations
    /// ran (random) within the budget.
    pub completed: bool,
    /// The failure exploration stopped at (at most one), pre-minimized
    /// when `DistCheckConfig::shrink_failures` is on.
    pub failures: Vec<DistFailure>,
    /// Shrinker statistics (all zero when no failure was shrunk).
    pub shrink: crate::shrink::ShrinkStats,
}

impl DistReport {
    /// Whether the check passed: no failures and the configured
    /// exploration actually completed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.completed && self.failures.is_empty()
    }

    /// Emits the checker statistics as `acn.check.dist.*` metrics.
    pub fn emit(&self, registry: &acn_telemetry::Registry) {
        registry.counter("acn.check.dist.schedules").add(self.schedules);
        registry.counter("acn.check.dist.sleep_prunes").add(self.sleep_prunes);
        registry.counter("acn.check.dist.failures").add(self.failures.len() as u64);
        registry.counter("acn.check.dist.fault_actions").add(self.fault_actions);
        registry
            .counter("acn.check.dist.timer_preemptions")
            .add(self.timer_preemptions);
        registry.counter("acn.check.dist.drops").add(self.drops);
        registry
            .counter("acn.check.dist.frontier_dedup_hits")
            .add(self.frontier_dedup_hits);
        registry.counter("acn.check.dist.states_seen").add(self.states_seen);
        registry.counter("acn.check.dist.replayed_steps").add(self.replayed_steps);
        registry.counter("acn.check.dist.new_steps").add(self.new_steps);
        registry.gauge("acn.check.dist.max_depth").set(self.max_depth as f64);
        self.shrink.emit(registry);
    }

    /// Panics with the first failure's full schedule if the check did
    /// not pass (the convenient assertion form for tests).
    pub fn assert_ok(&self) {
        if let Some(failure) = self.failures.first() {
            panic!(
                "distributed model check failed after {} schedules:\n{failure}",
                self.schedules
            );
        }
        assert!(
            self.completed,
            "exploration budget exhausted before completion: {self:?}"
        );
    }
}

/// Runs `scenario` under the distributed schedule explorer per
/// `config` and returns the exploration report. Every terminal state
/// is checked against the scenario's protocol oracles.
#[must_use]
pub fn check_dist(config: &DistCheckConfig, scenario: &DistScenario) -> DistReport {
    let mut report = DistReport::default();
    let (stats, found) = engine::explore(
        &config.mode,
        config.max_schedules,
        || DistRun::new(scenario, config),
        |run| {
            report.fault_actions += run.fault_actions_done;
            report.timer_preemptions += run.timer_preemptions_used;
            report.drops += run.drops_done;
        },
    );
    report.schedules = stats.schedules;
    report.sleep_prunes = stats.sleep_prunes;
    report.frontier_dedup_hits = stats.memo_prunes;
    report.states_seen = stats.states_seen;
    report.max_depth = stats.max_depth;
    report.replayed_steps = stats.replayed_steps;
    report.new_steps = stats.new_steps;
    report.completed = stats.completed;
    if let Some((mut failure, seed)) = found {
        failure.seed = seed;
        if config.shrink_failures {
            // Choices only: the reported failure replays against the
            // scenario the caller explored.
            let (shrunk, stats) = crate::shrink::shrink_dist_choices(config, scenario, &failure);
            report.shrink.fold(&stats);
            failure = shrunk;
        }
        report.failures.push(failure);
    }
    report
}

/// Replays one recorded branching-choice sequence (as printed in a
/// failure report) under `config`'s step bound and returns the failure
/// it reproduces, if any — a [`DistFailureKind::ReplayDivergence`] if a
/// recorded choice is not on offer. After the recorded choices are
/// exhausted the execution completes deterministically (first branching
/// choice, drain in between), and the terminal oracles run as usual.
#[must_use]
pub fn replay_dist_schedule(
    config: &DistCheckConfig,
    scenario: &DistScenario,
    choices: &[DistChoice],
) -> Option<DistFailure> {
    let mut run = DistRun::new(scenario, config);
    engine::replay(&mut run, choices, true).unwrap_or_else(|d| {
        Some(run.failure(
            DistFailureKind::ReplayDivergence,
            format!(
                "recorded choice {:?} is not among the {} branching choices at decision {}",
                d.choice, d.offered, d.at
            ),
        ))
    })
}

//! Schedule exploration for the distributed runtime: exhaustive DFS
//! with sleep sets (DPOR) over message schedules, plus a seeded
//! randomized (PCT-style) mode whose choice points include fault
//! actions.
//!
//! # Exhaustive mode
//!
//! Stateless replay DFS, mirroring [`crate::explore`]: every execution
//! rebuilds the deployment from the scenario seed, replays the choice
//! prefix on the DFS stack, and extends it leftmost until quiescence.
//! Unlike the shared-memory checker there is no state memoization —
//! distributed states (heaps of in-flight protocol messages plus
//! per-node component maps) have no cheap canonical fingerprint — so
//! sleep sets over the "same receiver" dependence relation
//! (`ChoiceId::dependent`) carry the whole reduction. Between two
//! deliveries to *different* processes the executions commute (see the
//! module docs on [`super`]), so one interleaving per equivalence
//! class suffices.
//!
//! # Randomized mode
//!
//! For scenarios too large to exhaust: each `ChoiceId` (link head,
//! timer, drop, or fault action) gets a random priority at first
//! sight, the highest-priority enabled choice runs, and the running
//! choice is occasionally demoted — long runs with a few adversarial
//! preemptions, which is the schedule shape that exposes most
//! protocol races. Failures carry the iteration seed; re-running with
//! that seed reproduces the schedule, as does replaying the printed
//! choice list through [`replay_dist_schedule`].

use std::collections::{BTreeMap, BTreeSet};

use super::{oracles, ChoiceId, DistChoice, DistFailure, DistFailureKind, DistRun, DistScenario};
use crate::rng::SplitMix64;

/// How distributed schedules are generated.
#[derive(Debug, Clone)]
pub enum DistMode {
    /// Explore every inequivalent schedule (DFS + sleep sets).
    /// `DistReport::completed` says whether the space was exhausted
    /// within the budget.
    Exhaustive,
    /// Seeded randomized priority (PCT-style) exploration.
    Random {
        /// Number of schedules to sample.
        iterations: u64,
        /// Base seed; iteration `i` derives its own seed from it, and
        /// failures report the exact iteration seed.
        seed: u64,
    },
}

/// Exploration budget and mode for the distributed checker.
#[derive(Debug, Clone)]
pub struct DistCheckConfig {
    /// Schedule generation mode.
    pub mode: DistMode,
    /// Max executions (full or pruned) before giving up; exhaustive
    /// runs that hit this report `completed == false`.
    pub max_schedules: u64,
    /// Max fired events in a single execution (runaway guard; hitting
    /// it is itself reported as a [`DistFailureKind::Stuck`] failure,
    /// because a bounded scenario that cannot quiesce has leaked an
    /// obligation).
    pub max_steps: usize,
    /// Stop at the first failure (default) or keep exploring.
    pub stop_on_failure: bool,
    /// Memoize canonically-fingerprinted states across executions
    /// (exhaustive mode): a fresh decision node whose
    /// `DistRun::fingerprint` was already visited with a subset
    /// sleep set and at least as much remaining step budget is pruned.
    /// Default on.
    pub memoize: bool,
    /// Minimize every recorded failure with the delta-debugging
    /// shrinker ([`crate::shrink`]) before reporting it. Default on.
    pub shrink_failures: bool,
}

impl Default for DistCheckConfig {
    fn default() -> Self {
        DistCheckConfig {
            mode: DistMode::Exhaustive,
            max_schedules: 200_000,
            max_steps: 5_000,
            stop_on_failure: true,
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
            mode: DistMode::Random { iterations, seed },
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
    /// Recorded failures (at most one unless `stop_on_failure` is
    /// off), pre-minimized when `DistCheckConfig::shrink_failures` is
    /// on.
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

/// One node of the DFS stack: a branching state, identified by the
/// choice prefix leading to it.
struct Node {
    /// Choices taken at this node so far (with their rename-invariant
    /// identities); the last one is on the current path.
    taken: Vec<(DistChoice, ChoiceId)>,
    /// Alternatives not yet explored.
    todo: Vec<(DistChoice, ChoiceId)>,
    /// Sleep set when the node was first reached.
    sleep_entry: BTreeSet<ChoiceId>,
}

impl Node {
    /// Choice identities whose subtrees at this node are fully
    /// explored (they sleep in the remaining subtrees).
    fn exhausted(&self) -> BTreeSet<ChoiceId> {
        let current = self.taken.last().map(|(_, id)| *id);
        let open: BTreeSet<ChoiceId> = self.todo.iter().map(|(_, id)| *id).collect();
        self.taken
            .iter()
            .map(|(_, id)| *id)
            .filter(|id| Some(*id) != current && !open.contains(id))
            .collect()
    }
}

enum ExecEnd {
    Finished,
    Failed(DistFailure),
    Pruned,
}

/// Runs `scenario` under the distributed schedule explorer per
/// `config` and returns the exploration report. Every terminal state
/// is checked against the scenario's protocol oracles.
#[must_use]
pub fn check_dist(config: &DistCheckConfig, scenario: &DistScenario) -> DistReport {
    match config.mode {
        DistMode::Exhaustive => check_exhaustive(config, scenario),
        DistMode::Random { iterations, seed } => check_random(config, scenario, iterations, seed),
    }
}

/// Replays one recorded branching-choice sequence (as printed in a
/// failure report) and returns the failure it reproduces, if any.
/// After the recorded choices are exhausted the execution completes
/// deterministically (first branching choice, drain in between), and
/// the terminal oracles run as usual.
#[must_use]
pub fn replay_dist_schedule(
    scenario: &DistScenario,
    choices: &[DistChoice],
) -> Option<DistFailure> {
    let mut run = DistRun::new(scenario, DistCheckConfig::default().max_steps);
    let mut at = 0usize;
    loop {
        let frontier = match run.settle_frontier() {
            Ok(f) => f,
            Err(failure) => return Some(failure),
        };
        if frontier.is_empty() {
            return match oracles::check_terminal(&run, &scenario.oracles) {
                Ok(()) => None,
                Err(msg) => Some(run.failure(DistFailureKind::OracleViolation, msg)),
            };
        }
        let choice = if at < choices.len() {
            let c = choices[at];
            if !frontier.contains(&c) {
                return Some(run.failure(
                    DistFailureKind::ReplayDivergence,
                    format!(
                        "recorded choice {c:?} is not among the {} branching \
                         choices at decision {at}",
                        frontier.len()
                    ),
                ));
            }
            c
        } else {
            frontier[0]
        };
        at += 1;
        if let Err(failure) = run.apply(choice) {
            return Some(failure);
        }
    }
}

/// Runs one execution to its end, replaying `path` and extending it at
/// the first fresh node. Shared by every DFS iteration.
/// Sleep sets (with the remaining step budget) a canonical fingerprint
/// was already explored under.
type DistMemo = BTreeMap<u64, Vec<(BTreeSet<ChoiceId>, usize)>>;

fn run_to_end(
    run: &mut DistRun,
    path: &mut Vec<Node>,
    report: &mut DistReport,
    scenario: &DistScenario,
    mut memo: Option<&mut DistMemo>,
) -> ExecEnd {
    let mut sleep: BTreeSet<ChoiceId> = BTreeSet::new();
    let mut prev: Option<ChoiceId> = None;
    let mut depth = 0usize;
    loop {
        let frontier = match run.settle_frontier() {
            Ok(f) => f,
            Err(failure) => return ExecEnd::Failed(failure),
        };
        if frontier.is_empty() {
            return match oracles::check_terminal(run, &scenario.oracles) {
                Ok(()) => ExecEnd::Finished,
                Err(msg) => {
                    ExecEnd::Failed(run.failure(DistFailureKind::OracleViolation, msg))
                }
            };
        }
        // Sleep-set wake rule: the previous step wakes every sleeper it
        // is dependent with.
        if let Some(prev) = prev {
            sleep.retain(|s| !s.dependent(&prev));
        }
        let (choice, id) = if depth < path.len() {
            // Replay segment: take the recorded choice and restore the
            // sleep set this node's remaining subtrees must respect.
            let node = &path[depth];
            sleep = &node.sleep_entry | &node.exhausted();
            *node.taken.last().expect("replayed node has a choice")
        } else {
            // Fresh node: consult the cross-execution canonical-state
            // memo first. A hit with a subset sleep set and at least
            // as much remaining budget means every continuation from
            // here was already explored with at least as many
            // scheduling options.
            if let Some(memo) = memo.as_deref_mut() {
                let fingerprint = run.fingerprint();
                let remaining = run.remaining_steps();
                match memo.get_mut(&fingerprint) {
                    Some(seen) => {
                        if seen
                            .iter()
                            .any(|(s, rem)| *rem >= remaining && s.is_subset(&sleep))
                        {
                            report.frontier_dedup_hits += 1;
                            return ExecEnd::Pruned;
                        }
                        seen.push((sleep.clone(), remaining));
                    }
                    None => {
                        report.states_seen += 1;
                        memo.insert(fingerprint, vec![(sleep.clone(), remaining)]);
                    }
                }
            }
            // Branch on every awake choice.
            let awake: Vec<(DistChoice, ChoiceId)> = frontier
                .iter()
                .map(|c| (*c, run.choice_id(c)))
                .filter(|(_, id)| !sleep.contains(id))
                .collect();
            match awake.split_first() {
                None => {
                    // Every branching choice sleeps: every continuation
                    // from here is a reordering of an already-explored
                    // schedule.
                    report.sleep_prunes += 1;
                    return ExecEnd::Pruned;
                }
                Some((first, rest)) => {
                    path.push(Node {
                        taken: vec![*first],
                        todo: rest.to_vec(),
                        sleep_entry: sleep.clone(),
                    });
                    *first
                }
            }
        };
        prev = Some(id);
        depth += 1;
        report.max_depth = report.max_depth.max(depth);
        if let Err(failure) = run.apply(choice) {
            return ExecEnd::Failed(failure);
        }
    }
}

/// Runs the shrinker over a fresh failure when the config asks for it,
/// folding the attempt statistics into the report. The scenario is
/// left untouched (choices-only minimization), so the reported
/// failure replays against the scenario the caller explored.
fn maybe_shrink(
    config: &DistCheckConfig,
    scenario: &DistScenario,
    failure: DistFailure,
    report: &mut DistReport,
) -> DistFailure {
    if !config.shrink_failures {
        return failure;
    }
    let (shrunk, stats) =
        crate::shrink::shrink_dist_choices_budget(scenario, &failure, config.max_steps);
    report.shrink.fold(&stats);
    shrunk
}

fn check_exhaustive(config: &DistCheckConfig, scenario: &DistScenario) -> DistReport {
    let mut report = DistReport::default();
    let mut path: Vec<Node> = Vec::new();
    let mut memo: DistMemo = DistMemo::new();
    let mut executions = 0u64;

    'executions: loop {
        if executions >= config.max_schedules {
            report.completed = false;
            return report;
        }
        executions += 1;

        let mut run = DistRun::new(scenario, config.max_steps);
        let end = run_to_end(
            &mut run,
            &mut path,
            &mut report,
            scenario,
            config.memoize.then_some(&mut memo),
        );
        report.fault_actions += run.fault_actions_done;
        report.timer_preemptions += run.timer_preemptions_used;
        report.drops += run.drops_done;

        match end {
            ExecEnd::Finished => report.schedules += 1,
            ExecEnd::Pruned => {}
            ExecEnd::Failed(failure) => {
                report.schedules += 1;
                let failure = maybe_shrink(config, scenario, failure, &mut report);
                report.failures.push(failure);
                if config.stop_on_failure {
                    report.completed = false;
                    return report;
                }
            }
        }

        // Backtrack to the deepest node with an untried alternative.
        while let Some(top) = path.last_mut() {
            if top.todo.is_empty() {
                path.pop();
            } else {
                let next = top.todo.remove(0);
                top.taken.push(next);
                continue 'executions;
            }
        }
        report.completed = true;
        return report;
    }
}

fn check_random(
    config: &DistCheckConfig,
    scenario: &DistScenario,
    iterations: u64,
    seed: u64,
) -> DistReport {
    let mut report = DistReport::default();
    for iteration in 0..iterations {
        let iter_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(iteration)
            .rotate_left(17);
        let mut rng = SplitMix64::new(iter_seed);
        let mut priorities: BTreeMap<ChoiceId, u64> = BTreeMap::new();
        let mut run = DistRun::new(scenario, config.max_steps);
        let mut depth = 0usize;
        let failure = loop {
            let frontier = match run.settle_frontier() {
                Ok(f) => f,
                Err(failure) => break Some(failure),
            };
            if frontier.is_empty() {
                break match oracles::check_terminal(&run, &scenario.oracles) {
                    Ok(()) => None,
                    Err(msg) => {
                        Some(run.failure(DistFailureKind::OracleViolation, msg))
                    }
                };
            }
            let ids: Vec<(DistChoice, ChoiceId)> =
                frontier.iter().map(|c| (*c, run.choice_id(c))).collect();
            for (_, id) in &ids {
                let r = rng.next_u64();
                priorities.entry(*id).or_insert(r);
            }
            let (choice, id) = *ids
                .iter()
                .max_by_key(|(_, id)| priorities[id])
                .expect("frontier is non-empty");
            // PCT-style preemption: occasionally demote the scheduled
            // choice so a lower-priority one overtakes it later.
            if rng.below(8) == 0 {
                priorities.insert(id, rng.next_u64() >> 16);
            }
            depth += 1;
            report.max_depth = report.max_depth.max(depth);
            if let Err(failure) = run.apply(choice) {
                break Some(failure);
            }
        };
        report.fault_actions += run.fault_actions_done;
        report.timer_preemptions += run.timer_preemptions_used;
        report.drops += run.drops_done;
        report.schedules += 1;
        if let Some(mut failure) = failure {
            failure.seed = Some(iter_seed);
            let failure = maybe_shrink(config, scenario, failure, &mut report);
            report.failures.push(failure);
            if config.stop_on_failure {
                report.completed = false;
                return report;
            }
        }
    }
    report.completed = true;
    report
}

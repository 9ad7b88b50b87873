//! Delta-debugging counterexample minimization for both checkers.
//!
//! A raw counterexample out of the explorers is a choice list with
//! dozens-to-hundreds of entries, most of which are incidental: the
//! schedule wandered there, but the bug doesn't need them. This module
//! shrinks such failures to (locally) minimal, still-failing,
//! seed-replayable schedules, in the classic ddmin shape:
//!
//! 1. **Chunk removal (ddmin).** Try deleting progressively smaller
//!    chunks of the choice list, replaying after every candidate;
//!    keep any candidate that still fails *the same way*.
//! 2. **Point lowering.** Try lowering each surviving choice to its
//!    most canonical form (variant 0 for stale-load branches, the
//!    time-ordered head for dist deliveries) — this turns "deliver the
//!    3rd pending event" into "deliver the head", which reads better
//!    and replays identically.
//! 3. **Scenario minimization** (dist only, [`shrink_dist`]): drop
//!    scripted fault actions and boot injections, tighten the timer-
//!    preemption and drop budgets, remove overlay nodes — each with a
//!    confirming replay.
//!
//! Every replay runs under the step budget of the configuration the
//! failure was found with, so a budget failure (`Stuck`,
//! `DepthExceeded`) can recur.
//!
//! # Lenient replay, strict result
//!
//! Deleting choices desynchronizes the positional indices a strict
//! replay demands, so candidates replay *leniently*: recorded choices
//! that are not on offer at the current decision are skipped, and when
//! the list runs dry the execution completes deterministically
//! (canonical first choice — exactly the strict replay's extension
//! rule). Both are the explorer's one replay loop. The run re-records
//! every choice actually applied, and that **re-recorded** list becomes
//! the new candidate, so the shrunk failure's `choices` always replay
//! strictly ([`crate::replay_schedule`] /
//! [`crate::replay_dist_schedule`]) with zero divergence. A dist
//! candidate records no diagnostics; the shrunk dist failure's schedule
//! and flight-recorder dump come from that strict replay.
//!
//! # "Fails the same way"
//!
//! A candidate is accepted only if the replayed failure has the same
//! kind and the same *oracle class* — the failure message up to the
//! first `:`, which is the oracle's stable prefix (the suffix carries
//! state-specific counts that legitimately change as the schedule
//! shrinks). This keeps the minimizer from walking from, say, an
//! exactly-once violation to an unrelated stuck-budget failure that a
//! mutilated schedule also triggers.
//!
//! Every acceptance strictly decreases the choice-list length, so
//! shrinking terminates and is convergent: shrinking an already-shrunk
//! failure is a fixpoint (asserted by a property test).

use std::sync::Arc;

use crate::dist::explore::render;
use crate::dist::{DistAction, DistChoice, DistFailure, DistRun, DistScenario};
use crate::engine::{self, Run};
use crate::explore::ThreadRun;
use crate::sched::{Choice, Failure};
use crate::{CheckConfig, DistCheckConfig};

/// Hard cap on confirming replays per shrink, so a pathological
/// counterexample can't stall a sweep (each replay is one bounded
/// execution).
const MAX_ATTEMPTS: u64 = 2_000;

/// Statistics of one or more shrink runs (`acn.check.shrink.*`).
#[derive(Debug, Clone, Default)]
pub struct ShrinkStats {
    /// Confirming replays executed.
    pub attempts: u64,
    /// Candidates accepted (each strictly shortened the schedule).
    pub accepted: u64,
    /// Choices removed in total (original length - final length).
    pub removed_choices: u64,
    /// Failures run through the shrinker.
    pub failures_shrunk: u64,
}

impl ShrinkStats {
    /// Folds another run's statistics into this one.
    pub fn fold(&mut self, other: &ShrinkStats) {
        self.attempts += other.attempts;
        self.accepted += other.accepted;
        self.removed_choices += other.removed_choices;
        self.failures_shrunk += other.failures_shrunk;
    }

    /// Emits the statistics as `acn.check.shrink.*` counters.
    pub fn emit(&self, registry: &acn_telemetry::Registry) {
        registry.counter("acn.check.shrink.attempts").add(self.attempts);
        registry.counter("acn.check.shrink.accepted").add(self.accepted);
        registry
            .counter("acn.check.shrink.removed_choices")
            .add(self.removed_choices);
        registry
            .counter("acn.check.shrink.failures_shrunk")
            .add(self.failures_shrunk);
    }
}

/// The stable identity of a failure: its kind plus the oracle-class
/// prefix of the message (everything before the first `:`).
fn message_class(message: &str) -> &str {
    message.split(':').next().unwrap_or("")
}

/// What the minimizer needs of either checker's failure.
trait Counterexample: Clone {
    type Choice: Copy + PartialEq;
    /// Same kind and same oracle class.
    fn same_way(&self, other: &Self) -> bool;
    /// The recorded (strictly replayable) choice list.
    fn choices(&self) -> &[Self::Choice];
    /// Canonical lowerings to try for one choice, most canonical
    /// first; empty if the choice is already canonical.
    fn lowerings(choice: &Self::Choice) -> Vec<Self::Choice>;
}

impl Counterexample for Failure {
    type Choice = Choice;

    fn same_way(&self, other: &Self) -> bool {
        self.kind == other.kind && message_class(&self.message) == message_class(&other.message)
    }

    fn choices(&self) -> &[Choice] {
        &self.choices
    }

    fn lowerings(c: &Choice) -> Vec<Choice> {
        if c.variant == 0 {
            Vec::new()
        } else {
            vec![Choice { tid: c.tid, variant: 0 }]
        }
    }
}

impl Counterexample for DistFailure {
    type Choice = DistChoice;

    fn same_way(&self, other: &Self) -> bool {
        self.kind == other.kind && message_class(&self.message) == message_class(&other.message)
    }

    fn choices(&self) -> &[DistChoice] {
        &self.choices
    }

    fn lowerings(c: &DistChoice) -> Vec<DistChoice> {
        match c {
            DistChoice::Deliver(i) if *i > 0 => {
                vec![DistChoice::Deliver(0), DistChoice::Deliver(i / 2)]
            }
            DistChoice::Drop(i) if *i > 0 => {
                vec![DistChoice::Drop(0), DistChoice::Drop(i / 2)]
            }
            _ => Vec::new(),
        }
    }
}

/// Lenient replay of a candidate on a fresh run: the failure it ends
/// in, if any.
fn lenient<R: Run>(mut run: R, choices: &[R::Choice]) -> Option<R::Failure> {
    let Ok(end) = engine::replay(&mut run, choices, false) else {
        unreachable!("a lenient replay skips what is not on offer")
    };
    end
}

/// The ddmin + lowering engine over one fixed scenario: `replay` runs a
/// candidate choice list leniently, and a candidate counts only if it
/// fails the same way as `target`.
struct Minimizer<'a, F, P> {
    target: &'a F,
    replay: P,
    stats: &'a mut ShrinkStats,
}

impl<F: Counterexample, P: FnMut(&[F::Choice]) -> Option<F>> Minimizer<'_, F, P> {
    /// One confirming replay, within the attempt cap.
    fn attempt(&mut self, candidate: &[F::Choice]) -> Option<F> {
        if self.stats.attempts >= MAX_ATTEMPTS {
            return None;
        }
        self.stats.attempts += 1;
        (self.replay)(candidate).filter(|f| self.target.same_way(f))
    }

    /// Classic ddmin chunk removal followed by a point-lowering pass,
    /// iterated to a fixpoint (or the attempt cap). Returns the last
    /// accepted failure (the target itself if none was).
    fn minimize(mut self) -> F {
        let mut best = self.target.clone();
        loop {
            let before = best.choices().len();
            self.chunk_pass(&mut best);
            self.lower_pass(&mut best);
            if best.choices().len() >= before || best.choices().is_empty() {
                return best;
            }
        }
    }

    fn chunk_pass(&mut self, best: &mut F) {
        let mut n = 2usize;
        while best.choices().len() >= 2 {
            let len = best.choices().len();
            let chunk = len.div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < len {
                let end = (start + chunk).min(len);
                let candidate = [&best.choices()[..start], &best.choices()[end..]].concat();
                // Accept on the *re-recorded* length: lenient replay may
                // have both skipped entries and auto-extended, and only
                // the applied list is guaranteed to replay strictly.
                if let Some(f) = self.attempt(&candidate).filter(|f| f.choices().len() < len) {
                    self.stats.accepted += 1;
                    *best = f;
                    reduced = true;
                    break;
                }
                start = end;
            }
            if reduced {
                n = n.saturating_sub(1).max(2);
            } else if n >= len || self.stats.attempts >= MAX_ATTEMPTS {
                break;
            } else {
                n = (2 * n).min(len);
            }
        }
    }

    /// For each position, try the choice's canonical lowerings. A
    /// lowering is kept if the replayed list still fails the same way
    /// and is no longer; shorter is a bonus.
    fn lower_pass(&mut self, best: &mut F) {
        let mut i = 0usize;
        while i < best.choices().len() {
            for lowered in F::lowerings(&best.choices()[i]) {
                if lowered == best.choices()[i] {
                    continue;
                }
                let mut candidate = best.choices().to_vec();
                candidate[i] = lowered;
                let len = best.choices().len();
                if let Some(f) = self.attempt(&candidate).filter(|f| f.choices().len() <= len) {
                    if f.choices().len() < len {
                        self.stats.accepted += 1;
                    }
                    *best = f;
                    break;
                }
            }
            i += 1;
        }
    }
}

/// Choice-list minimization of `failure` against a fixed scenario.
fn shrink_choices<F: Counterexample>(
    failure: &F,
    replay: impl FnMut(&[F::Choice]) -> Option<F>,
) -> (F, ShrinkStats) {
    let mut stats = ShrinkStats { failures_shrunk: 1, ..ShrinkStats::default() };
    let shrunk = Minimizer { target: failure, replay, stats: &mut stats }.minimize();
    stats.removed_choices += failure.choices().len().saturating_sub(shrunk.choices().len()) as u64;
    (shrunk, stats)
}

// ---------------------------------------------------------------------
// Thread-schedule shrinking
// ---------------------------------------------------------------------

/// Minimizes a failing thread schedule found under `config`: ddmin over
/// the choice list plus variant lowering, every candidate confirmed by
/// lenient replay against the same scenario under `config`'s step
/// bound. The returned failure's `choices` replay strictly via
/// [`crate::replay_schedule`] to the same failure kind and oracle
/// class.
pub fn shrink_thread_choices<F>(
    config: &CheckConfig,
    scenario: F,
    failure: &Failure,
) -> (Failure, ShrinkStats)
where
    F: Fn() + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let (mut shrunk, stats) =
        shrink_choices(failure, |c: &[Choice]| lenient(ThreadRun::new(&scenario, config), c));
    shrunk.seed = failure.seed;
    (shrunk, stats)
}

// ---------------------------------------------------------------------
// Dist-schedule shrinking
// ---------------------------------------------------------------------

/// Minimizes a failing dist schedule's **choice list only** (the
/// scenario is left untouched, so the result replays against the
/// original scenario — this is what the explorer wires into its
/// failure paths), replaying under `config`'s step bound. The returned
/// failure's `choices` replay strictly via
/// [`crate::replay_dist_schedule`], which is also what renders its
/// schedule and flight-recorder dump: the candidates record nothing.
pub fn shrink_dist_choices(
    config: &DistCheckConfig,
    scenario: &DistScenario,
    failure: &DistFailure,
) -> (DistFailure, ShrinkStats) {
    let (mut shrunk, stats) = shrink_choices(failure, |c: &[DistChoice]| {
        lenient(DistRun::new(scenario, config, false), c)
    });
    shrunk.seed = failure.seed;
    (render(config, scenario, &shrunk), stats)
}

/// A fully minimized distributed counterexample: the (possibly
/// simplified) scenario, the minimal failing schedule against it, and
/// the shrink statistics.
#[derive(Debug, Clone)]
pub struct ShrunkDist {
    /// The minimized scenario (fewer actions / injections / nodes,
    /// tighter fault budgets than the original — or the original if no
    /// simplification survived replay).
    pub scenario: DistScenario,
    /// The minimal failure; `failure.choices` replays strictly against
    /// `scenario`.
    pub failure: DistFailure,
    /// Attempt/acceptance statistics.
    pub stats: ShrinkStats,
}

/// Full dist minimization of a failure found under `config`: alternates
/// scenario-level simplification (drop fault actions, drop boot
/// injections, tighten timer/drop budgets, remove overlay nodes) with
/// choice-list ddmin, until a fixpoint. Every candidate is confirmed by
/// lenient replay under `config`'s step bound, recording nothing; the
/// result is a strictly-replayable counterexample against the
/// *returned* scenario, rendered by that strict replay.
#[must_use]
pub fn shrink_dist(
    config: &DistCheckConfig,
    scenario: &DistScenario,
    failure: &DistFailure,
) -> ShrunkDist {
    let mut stats = ShrinkStats { failures_shrunk: 1, ..ShrinkStats::default() };
    let mut best_scenario = scenario.clone();
    let mut best_failure = failure.clone();

    loop {
        let mut changed = false;

        // Scenario-level candidates, most aggressive first. Each keeps
        // the current choice list (lenient replay skips whatever no
        // longer applies).
        for candidate in scenario_candidates(&best_scenario) {
            if stats.attempts >= MAX_ATTEMPTS {
                break;
            }
            stats.attempts += 1;
            let replayed =
                lenient(DistRun::new(&candidate, config, false), &best_failure.choices);
            if let Some(f) = replayed.filter(|f| failure.same_way(f)) {
                stats.accepted += 1;
                best_scenario = candidate;
                best_failure = f;
                changed = true;
            }
        }

        // Choice-level ddmin against the (possibly new) scenario.
        let before = best_failure.choices.len();
        best_failure = Minimizer {
            target: &best_failure,
            replay: |c: &[DistChoice]| lenient(DistRun::new(&best_scenario, config, false), c),
            stats: &mut stats,
        }
        .minimize();
        if best_failure.choices.len() < before {
            changed = true;
        }

        if !changed || stats.attempts >= MAX_ATTEMPTS {
            break;
        }
    }

    stats.removed_choices +=
        failure.choices.len().saturating_sub(best_failure.choices.len()) as u64;
    best_failure.seed = failure.seed;
    let failure = render(config, &best_scenario, &best_failure);
    ShrunkDist { scenario: best_scenario, failure, stats }
}

/// Scenario simplification candidates: one structural reduction each.
fn scenario_candidates(s: &DistScenario) -> Vec<DistScenario> {
    let mut out = Vec::new();
    // Drop each scripted fault action.
    for k in 0..s.actions.len() {
        let mut c = s.clone();
        c.actions.remove(k);
        out.push(c);
    }
    // Drop each boot injection (keep at least one token in play so the
    // oracles still have something to count).
    if s.injections.len() > 1 {
        for j in 0..s.injections.len() {
            let mut c = s.clone();
            c.injections.remove(j);
            out.push(c);
        }
    }
    // Tighten the fault budgets.
    if s.timer_preemptions > 0 {
        let mut c = s.clone();
        c.timer_preemptions = 0;
        out.push(c);
        if s.timer_preemptions > 1 {
            let mut c = s.clone();
            c.timer_preemptions = s.timer_preemptions / 2;
            out.push(c);
        }
    }
    if s.max_drops > 0 {
        let mut c = s.clone();
        c.max_drops = 0;
        out.push(c);
        if s.max_drops > 1 {
            let mut c = s.clone();
            c.max_drops = s.max_drops / 2;
            out.push(c);
        }
    }
    // Remove an overlay node, as long as every Crash/Leave index stays
    // valid in the smaller boot set.
    if s.nodes > 1 {
        let max_index = s
            .actions
            .iter()
            .filter_map(|a| match a {
                DistAction::Crash(i) | DistAction::Leave(i) => Some(*i),
                _ => None,
            })
            .max();
        if max_index.is_none_or(|m| m + 1 < s.nodes) {
            let mut c = s.clone();
            c.nodes = s.nodes - 1;
            out.push(c);
        }
    }
    out
}

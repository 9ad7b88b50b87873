//! The schedule explorer both checkers share: exhaustive DFS with sleep
//! sets and state memoization, a seeded randomized (PCT-style) mode,
//! and replay — each written once, generic over a [`Run`].
//!
//! A [`Run`] is one execution of a scenario under external control. It
//! has two implementations: the thread checker's run over the scheduler
//! kernel ([`crate::explore`]) and the message checker's run over a
//! simulated deployment ([`crate::dist`]). A run offers a frontier of
//! `(choice, id)` pairs at each decision; the *id* is the choice's
//! identity for the sleep-set dependence relation (a logical thread, or
//! a link/timer/fault action), stable across equivalent prefixes.
//!
//! # Exhaustive mode
//!
//! Stateless replay DFS: every execution re-runs the scenario from
//! scratch, replays the choice prefix on the DFS stack, then extends it
//! leftmost until the execution finishes or is pruned. Two prunings
//! keep the space tractable:
//!
//! - **Sleep sets**: after the subtree for choice id `t` is fully
//!   explored at a node, `t` sleeps in the sibling subtrees until a step
//!   the run says [`wakes`](Run::wakes) it executes. A fresh node whose
//!   choices all sleep is redundant and the branch is dropped.
//! - **State memoization**: at every fresh node the run's
//!   [`fingerprint`](Run::fingerprint) is looked up in a visited table.
//!   A hit recorded with a subset sleep set and at least as much
//!   [`remaining`](Run::remaining) budget means every continuation from
//!   here was already explored *with at least as many scheduling
//!   options*, so the branch is dropped. (The subset condition is what
//!   keeps combining the two prunings sound.)
//!
//! # Randomized mode
//!
//! For configurations too large to exhaust, a seeded priority scheduler
//! in the PCT spirit: each id gets a random priority at first sight, the
//! highest-priority choice runs, and at random points the running id is
//! demoted — long runs with a few adversarial preemptions, the schedule
//! shape that exposes most ordering bugs. Failures report the iteration
//! seed; re-running with it reproduces the schedule, as does replaying
//! the recorded choice list.

use std::collections::{BTreeMap, BTreeSet};

use crate::rng::SplitMix64;

/// How schedules are generated (by either checker).
#[derive(Debug, Clone)]
pub enum Mode {
    /// Explore every inequivalent schedule (DFS + sleep sets + state
    /// memoization). The report's `completed` says whether the space
    /// was exhausted within the budget.
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

/// The choices a run offers at its next decision.
pub(crate) struct Frontier<C, I> {
    /// The branching `(choice, id)` pairs in canonical order, the first
    /// being the canonical extension. Empty: the run ended cleanly.
    pub(crate) choices: Vec<(C, I)>,
    /// The ids the randomized mode draws one priority each for, in
    /// order: what else is waiting besides `choices` (a parked thread
    /// whose operation is disabled) still draws.
    pub(crate) ranked: Vec<I>,
}

/// One execution of a scenario under the explorer's control.
pub(crate) trait Run {
    /// A recorded scheduling decision (what replay takes).
    type Choice: Copy + PartialEq;
    /// A choice's identity for the sleep-set dependence relation.
    type Id: Ord + Copy;
    /// What a failed execution reports.
    type Failure;
    /// Whether choices sharing an id are variants of one step (a weak
    /// load's candidate stores), among which the randomized mode draws
    /// uniformly; otherwise they are distinct events (two timers of one
    /// process due at the same instant) and it takes the last.
    const VARIANTS: bool;

    /// Advances to the next decision and returns what it offers; a
    /// failure (including a violated terminal oracle or an exceeded step
    /// budget) ends the execution.
    fn frontier(&mut self) -> Result<Frontier<Self::Choice, Self::Id>, Self::Failure>;
    /// Whether the step last applied wakes `sleeper` (they do not
    /// commute), judged at the current frontier.
    fn wakes(&self, sleeper: Self::Id) -> bool;
    /// The state fingerprint the memo keys on, or `None` to skip it.
    fn fingerprint(&self) -> Option<u64>;
    /// The remaining step budget a memo hit must not exceed.
    fn remaining(&self) -> usize;
    /// Applies one choice from the current frontier.
    fn apply(&mut self, choice: Self::Choice, id: Self::Id) -> Result<(), Self::Failure>;
}

/// What an exploration counted; each checker's report copies it.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub(crate) schedules: u64,
    pub(crate) memo_prunes: u64,
    pub(crate) sleep_prunes: u64,
    pub(crate) states_seen: u64,
    pub(crate) max_depth: usize,
    pub(crate) replayed_steps: u64,
    pub(crate) new_steps: u64,
    pub(crate) completed: bool,
}

/// The failure an exploration stopped at, with its iteration seed
/// (random mode).
type Found<F> = Option<(F, Option<u64>)>;

/// Explores schedules per `mode` until the first failure, which is
/// returned with its iteration seed (random mode). `start` begins a
/// fresh execution; `end` sees every execution once it is over,
/// whatever its outcome.
pub(crate) fn explore<R: Run>(
    mode: &Mode,
    max_executions: u64,
    mut start: impl FnMut() -> R,
    mut end: impl FnMut(&R),
) -> (Stats, Found<R::Failure>) {
    let mut stats = Stats::default();
    let failure = match *mode {
        Mode::Exhaustive => {
            exhaustive(&mut stats, max_executions, &mut start, &mut end).map(|f| (f, None))
        }
        Mode::Random { iterations, seed } => {
            random(&mut stats, iterations, seed, &mut start, &mut end)
        }
    };
    (stats, failure)
}

/// One node of the DFS stack.
struct Node<C, I> {
    /// Choices taken at this node so far; the last one is on the
    /// current path.
    taken: Vec<(C, I)>,
    /// Alternatives not yet explored.
    todo: Vec<(C, I)>,
    /// Sleep set when the node was first reached.
    sleep_entry: BTreeSet<I>,
}

impl<C, I: Ord + Copy> Node<C, I> {
    /// Ids whose subtrees at this node are fully explored (they sleep
    /// in the remaining subtrees).
    fn exhausted(&self) -> BTreeSet<I> {
        let current = self.taken.last().map(|(_, id)| *id);
        let open: BTreeSet<I> = self.todo.iter().map(|(_, id)| *id).collect();
        self.taken
            .iter()
            .map(|(_, id)| *id)
            .filter(|id| Some(*id) != current && !open.contains(id))
            .collect()
    }
}

/// Fingerprint -> the (sleep set, remaining budget) pairs it was
/// explored with.
type Memo<I> = BTreeMap<u64, Vec<(BTreeSet<I>, usize)>>;

enum End<F> {
    Finished,
    Failed(F),
    Pruned,
}

fn exhaustive<R: Run>(
    stats: &mut Stats,
    max_executions: u64,
    start: &mut impl FnMut() -> R,
    end: &mut impl FnMut(&R),
) -> Option<R::Failure> {
    let mut path: Vec<Node<R::Choice, R::Id>> = Vec::new();
    let mut memo: Memo<R::Id> = Memo::new();
    for _ in 0..max_executions {
        let mut run = start();
        let outcome = run_to_end(&mut run, &mut path, &mut memo, stats);
        end(&run);
        match outcome {
            End::Finished => stats.schedules += 1,
            End::Pruned => {}
            End::Failed(failure) => {
                stats.schedules += 1;
                return Some(failure);
            }
        }
        // Backtrack to the deepest node with an untried alternative.
        loop {
            let Some(top) = path.last_mut() else {
                stats.completed = true;
                return None;
            };
            if top.todo.is_empty() {
                path.pop();
            } else {
                let next = top.todo.remove(0);
                top.taken.push(next);
                break;
            }
        }
    }
    None
}

/// Runs one execution to its end, replaying `path` and extending it at
/// the first fresh node.
fn run_to_end<R: Run>(
    run: &mut R,
    path: &mut Vec<Node<R::Choice, R::Id>>,
    memo: &mut Memo<R::Id>,
    stats: &mut Stats,
) -> End<R::Failure> {
    let mut sleep: BTreeSet<R::Id> = BTreeSet::new();
    let mut depth = 0usize;
    loop {
        let frontier = match run.frontier() {
            Ok(frontier) if frontier.choices.is_empty() => return End::Finished,
            Ok(frontier) => frontier,
            Err(failure) => return End::Failed(failure),
        };
        sleep.retain(|s| !run.wakes(*s));
        let (choice, id) = if let Some(node) = path.get(depth) {
            // Replay segment: take the recorded choice and restore the
            // sleep set this node's remaining subtrees must respect.
            sleep = &node.sleep_entry | &node.exhausted();
            stats.replayed_steps += 1;
            *node.taken.last().expect("replayed node has a choice")
        } else {
            if let Some(fingerprint) = run.fingerprint() {
                let remaining = run.remaining();
                let seen = memo.entry(fingerprint).or_default();
                if seen.iter().any(|(s, rem)| *rem >= remaining && s.is_subset(&sleep)) {
                    stats.memo_prunes += 1;
                    return End::Pruned;
                }
                if seen.is_empty() {
                    stats.states_seen += 1;
                }
                seen.push((sleep.clone(), remaining));
            }
            let mut awake = frontier.choices.into_iter().filter(|(_, id)| !sleep.contains(id));
            let Some(first) = awake.next() else {
                // Every choice sleeps: every continuation from here is a
                // reordering of an already-explored schedule.
                stats.sleep_prunes += 1;
                return End::Pruned;
            };
            path.push(Node {
                taken: vec![first],
                todo: awake.collect(),
                sleep_entry: sleep.clone(),
            });
            stats.new_steps += 1;
            first
        };
        depth += 1;
        stats.max_depth = stats.max_depth.max(depth);
        if let Err(failure) = run.apply(choice, id) {
            return End::Failed(failure);
        }
    }
}

fn random<R: Run>(
    stats: &mut Stats,
    iterations: u64,
    seed: u64,
    start: &mut impl FnMut() -> R,
    end: &mut impl FnMut(&R),
) -> Found<R::Failure> {
    for iteration in 0..iterations {
        let iter_seed =
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(iteration).rotate_left(17);
        let mut run = start();
        let failure = prioritized(&mut run, iter_seed, stats);
        end(&run);
        stats.schedules += 1;
        if let Some(failure) = failure {
            return Some((failure, Some(iter_seed)));
        }
    }
    stats.completed = true;
    None
}

/// One PCT-style execution: the highest-priority id runs (a uniformly
/// drawn one of its variants, if it has several), and occasionally the
/// scheduled id is demoted so another overtakes it.
fn prioritized<R: Run>(run: &mut R, seed: u64, stats: &mut Stats) -> Option<R::Failure> {
    let mut rng = SplitMix64::new(seed);
    let mut priorities: BTreeMap<R::Id, u64> = BTreeMap::new();
    let mut depth = 0usize;
    loop {
        let frontier = match run.frontier() {
            Ok(frontier) if frontier.choices.is_empty() => return None,
            Ok(frontier) => frontier,
            Err(failure) => return Some(failure),
        };
        for id in &frontier.ranked {
            let r = rng.next_u64();
            priorities.entry(*id).or_insert(r);
        }
        let mut best =
            *frontier.choices.iter().max_by_key(|(_, id)| priorities[id]).expect("non-empty");
        if R::VARIANTS {
            let variants: Vec<_> =
                frontier.choices.iter().filter(|(_, id)| *id == best.1).collect();
            if variants.len() > 1 {
                best = *variants[rng.below(variants.len())];
            }
        }
        let (choice, id) = best;
        if rng.below(8) == 0 {
            priorities.insert(id, rng.next_u64() >> 16);
        }
        depth += 1;
        stats.max_depth = stats.max_depth.max(depth);
        stats.new_steps += 1;
        if let Err(failure) = run.apply(choice, id) {
            return Some(failure);
        }
    }
}

/// A recorded choice that a strict replay found not on offer.
pub(crate) struct Diverged<C> {
    /// Decision index.
    pub(crate) at: usize,
    /// The recorded choice.
    pub(crate) choice: C,
    /// How many choices were on offer instead.
    pub(crate) offered: usize,
}

/// Replays a recorded choice list and returns the failure it ends in,
/// if any. A recorded choice not on offer is a divergence when `strict`
/// and is skipped otherwise (the shrinker's candidates, whose positions
/// shift as entries are deleted). Once the list runs dry, the first
/// (canonical) choice extends the execution to its end.
pub(crate) fn replay<R: Run>(
    run: &mut R,
    choices: &[R::Choice],
    strict: bool,
) -> Result<Option<R::Failure>, Diverged<R::Choice>> {
    let mut recorded = choices.iter().copied();
    let mut at = 0usize;
    loop {
        let frontier = match run.frontier() {
            Ok(frontier) => frontier.choices,
            Err(failure) => return Ok(Some(failure)),
        };
        let Some(&canonical) = frontier.first() else { return Ok(None) };
        let offered = |c: R::Choice| frontier.iter().copied().find(|(x, _)| *x == c);
        let next = if strict {
            let diverged = |choice| Diverged { at, choice, offered: frontier.len() };
            recorded.next().map(|c| offered(c).ok_or_else(|| diverged(c))).transpose()?
        } else {
            recorded.by_ref().find_map(offered)
        };
        let (choice, id) = next.unwrap_or(canonical);
        at += 1;
        if let Err(failure) = run.apply(choice, id) {
            return Ok(Some(failure));
        }
    }
}

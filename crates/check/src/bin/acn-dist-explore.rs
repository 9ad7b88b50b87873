//! `acn-dist-explore`: schedule exploration for the distributed
//! runtime.
//!
//! Runs a suite of bounded scenarios exhaustively (DFS + sleep-set
//! reduction) and one larger fault-injection scenario under the
//! seeded randomized (PCT-style) explorer, checking every terminal
//! state against the protocol oracles. Run it as
//!
//! ```text
//! cargo run --release -p acn-check --bin acn-dist-explore [-- seed]
//! ```
//!
//! (wired into `scripts/explore.sh`). The `ACN_EXPLORE_BUDGET`
//! environment variable sets the number of randomized schedules
//! (default 200); an optional argument overrides the base seed.
//! Any failure prints the numbered schedule, re-verifies it through
//! the replay entry point, and exits non-zero.
//!
//! By default every failure is minimized: choice-list ddmin inside the
//! explorer, then full scenario-level shrinking (`shrink_dist`) at the
//! bail site, which prints the simplified scenario alongside the
//! minimal schedule. Set `ACN_SHRINK=0` to report raw counterexamples
//! instead.

use acn_check::{
    check_dist, replay_dist_schedule, shrink_dist, DistAction, DistCheckConfig, DistReport,
    DistScenario,
};
use acn_topology::ComponentId;

/// The exhaustive suite: every scenario here is small enough for the
/// DFS to drain its whole (reduced) schedule space.
fn exhaustive_suite(seed: u64) -> Vec<(&'static str, DistScenario)> {
    let root = ComponentId::root();
    let mut baseline = DistScenario::new(2, 2, seed, vec![0, 1]);
    baseline.timer_preemptions = 1;

    let mut split_merge = DistScenario::new(4, 2, seed, vec![0, 3]);
    split_merge.actions = vec![DistAction::Split(root), DistAction::Merge(root)];

    // No scripted `Repair`: detection, tombstoning, and cut re-cover
    // all happen through protocol messages, and the recovery oracle
    // asserts the failure detector caught the crash within budget.
    let mut crash_recover = DistScenario::new(2, 3, seed, vec![0, 1]);
    crash_recover.actions = vec![DistAction::Crash(1)];

    vec![
        ("2 nodes x 2 tokens, 1 timer preemption", baseline),
        ("2 nodes, split+merge during traffic", split_merge),
        ("3 nodes, crash + in-protocol recovery", crash_recover),
    ]
}

/// The randomized scenario: too many choice points to exhaust, so the
/// PCT-style explorer samples `budget` schedules.
fn random_scenario(seed: u64) -> DistScenario {
    let root = ComponentId::root();
    let mut s = DistScenario::new(4, 3, seed, vec![0, 1, 2, 3]);
    s.actions = vec![
        DistAction::Split(root),
        DistAction::Inject(2),
        DistAction::CrashHandOffTarget,
        DistAction::Join,
        DistAction::Merge(root),
    ];
    s.timer_preemptions = 2;
    s.max_drops = 1;
    s
}

/// A second randomized scenario aimed squarely at the rescue path:
/// crash the split coordinator mid-flight, then keep traffic coming.
fn crash_mid_split_scenario(seed: u64) -> DistScenario {
    let root = ComponentId::root();
    let mut s = DistScenario::new(4, 3, seed, vec![0, 1]);
    s.actions = vec![
        DistAction::Split(root),
        DistAction::CrashMidSplit,
        DistAction::Inject(2),
        DistAction::Inject(3),
    ];
    s.timer_preemptions = 2;
    s
}

fn summarize(name: &str, report: &DistReport) {
    println!(
        "  {name}: {} schedules, {} sleep prunes, depth {}, {} dedup hits, \
         {} fault actions, {} preemptions, {} drops, completed={}",
        report.schedules,
        report.sleep_prunes,
        report.max_depth,
        report.frontier_dedup_hits,
        report.fault_actions,
        report.timer_preemptions,
        report.drops,
        report.completed
    );
}

/// Prints the failure (scenario-minimized unless `ACN_SHRINK=0`),
/// confirms it replays under the budget it was found with, and exits
/// non-zero.
fn bail(config: &DistCheckConfig, scenario: &DistScenario, report: &DistReport) -> ! {
    let failure = report.failures.first().expect("bail needs a failure");
    eprintln!("FAILED after {} schedules:\n{failure}", report.schedules);
    match replay_dist_schedule(config, scenario, &failure.choices) {
        Some(replayed) => eprintln!("replay reproduces: {:?}: {}", replayed.kind, replayed.message),
        None => eprintln!("WARNING: the recorded schedule did not reproduce the failure"),
    }
    if config.shrink_failures {
        let minimized = shrink_dist(config, scenario, failure);
        eprintln!(
            "minimized scenario ({} replays, {} accepted): {} nodes, width {}, \
             {} injections, {} actions, {} preemptions, {} drops",
            minimized.stats.attempts,
            minimized.stats.accepted,
            minimized.scenario.nodes,
            minimized.scenario.width,
            minimized.scenario.injections.len(),
            minimized.scenario.actions.len(),
            minimized.scenario.timer_preemptions,
            minimized.scenario.max_drops,
        );
        eprintln!("minimized failure:\n{}", minimized.failure);
        match replay_dist_schedule(config, &minimized.scenario, &minimized.failure.choices) {
            Some(replayed) => {
                eprintln!("minimized replay reproduces: {:?}: {}", replayed.kind, replayed.message);
            }
            None => eprintln!("WARNING: the minimized schedule did not reproduce the failure"),
        }
    }
    std::process::exit(1);
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xACE5);
    let budget: u64 = std::env::var("ACN_EXPLORE_BUDGET")
        .ok()
        .map(|s| s.parse().expect("ACN_EXPLORE_BUDGET must be a u64"))
        .unwrap_or(200);
    // ACN_SHRINK=0 reports raw counterexamples (default: minimize).
    let shrink = std::env::var("ACN_SHRINK").map_or(true, |v| v != "0");
    let registry = acn_telemetry::Registry::new();

    println!("exhaustive suite (seed {seed:#x}):");
    for (name, scenario) in exhaustive_suite(seed) {
        let mut config = DistCheckConfig::exhaustive();
        config.shrink_failures = shrink;
        let report = check_dist(&config, &scenario);
        report.emit(&registry);
        summarize(name, &report);
        if !report.ok() {
            bail(&config, &scenario, &report);
        }
    }

    println!("randomized fault exploration ({budget} schedules):");
    let scenario = random_scenario(seed);
    let mut config = DistCheckConfig::random(budget, seed);
    config.shrink_failures = shrink;
    let report = check_dist(&config, &scenario);
    report.emit(&registry);
    summarize("3 nodes, split/inject/crash a hand-off target/join/merge + drops", &report);
    if !report.ok() {
        bail(&config, &scenario, &report);
    }

    println!("randomized crash-mid-split exploration ({budget} schedules):");
    let scenario = crash_mid_split_scenario(seed);
    let mut config = DistCheckConfig::random(budget, seed ^ 0x5C3A);
    config.shrink_failures = shrink;
    let report = check_dist(&config, &scenario);
    report.emit(&registry);
    summarize("3 nodes, crash the split coordinator mid-flight", &report);
    if !report.ok() {
        bail(&config, &scenario, &report);
    }

    let snap = registry.snapshot();
    println!(
        "totals: {} schedules, {} sleep prunes, {} dedup hits, {} fault actions, {} drops",
        snap.counter("acn.check.dist.schedules").unwrap_or(0),
        snap.counter("acn.check.dist.sleep_prunes").unwrap_or(0),
        snap.counter("acn.check.dist.frontier_dedup_hits").unwrap_or(0),
        snap.counter("acn.check.dist.fault_actions").unwrap_or(0),
        snap.counter("acn.check.dist.drops").unwrap_or(0),
    );
    println!("acn-dist-explore: all oracles held");
}

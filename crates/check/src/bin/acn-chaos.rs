//! `acn-chaos`: a seeded chaos campaign against the distributed
//! runtime's in-protocol failure recovery.
//!
//! Generates a stream of randomized fault scenarios — crash-mid-split,
//! crash-mid-merge, crashed hand-off targets, graceful leaves, joins,
//! forced reconfigurations, and mid-run traffic — and runs each through
//! the randomized dist explorer with **every recovery oracle armed**:
//! crashes must be detected by the failure detector within the
//! configured period budget, tombstones must reach every live view, the
//! cut must re-cover without any harness `repair()` call, and no token
//! may be duplicated across a rescue.
//!
//! ```text
//! cargo run --release -p acn-check --bin acn-chaos
//! ```
//!
//! Environment knobs (all optional):
//!
//! - `ACN_CHAOS_SEED` — base seed for campaign generation (default
//!   `0xC4A05`).
//! - `ACN_CHAOS_EVENTS` — number of generated scenarios (default 10).
//! - `ACN_CHAOS_SCHEDULES` — randomized schedules per scenario
//!   (default 30).
//! - `ACN_CHAOS_BUDGET_PERIODS` — the recovery-time budget guard:
//!   maximum allowed crash-detection latency in level periods
//!   (default 16). Any detection over budget fails the campaign.
//!
//! Any oracle violation prints the offending scenario, its seed, and
//! the replayable schedule, then exits non-zero.

use acn_check::rng::SplitMix64;
use acn_check::{check_dist, shrink_dist, DistAction, DistCheckConfig, DistScenario};
use acn_topology::ComponentId;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .map(|s| s.parse().unwrap_or_else(|_| panic!("{name} must be a u64")))
        .unwrap_or(default)
}

/// One generated campaign scenario: boot traffic plus a random fault
/// mix. The action pool is restricted to actions that can never
/// permanently disable a later one (mid-op crashes and joins are
/// always applicable; forced split/merge have ensure semantics), with
/// an optional graceful leave placed *first* so no earlier crash can
/// remove its target.
fn generate(seed: u64, rng: &mut SplitMix64) -> DistScenario {
    let width = 4;
    let nodes = 3 + rng.below(2); // 3 or 4
    let boot_injections: Vec<usize> = (0..width).filter(|_| rng.below(2) == 0).collect();
    let mut s = DistScenario::new(
        width,
        nodes,
        seed,
        if boot_injections.is_empty() { vec![0] } else { boot_injections },
    );

    let root = ComponentId::root();
    let mut actions = Vec::new();
    if nodes >= 3 && rng.below(3) == 0 {
        actions.push(DistAction::Leave(1 + rng.below(nodes - 1)));
    }
    let n_actions = 3 + rng.below(4); // 3..=6
    for _ in 0..n_actions {
        actions.push(match rng.below(8) {
            0 | 1 => DistAction::Split(root),
            2 => DistAction::Merge(root),
            3 => DistAction::CrashMidSplit,
            4 => DistAction::CrashMidMerge,
            5 => DistAction::Join,
            6 => DistAction::Inject(rng.below(width)),
            _ => {
                // This draw used to pick an injection too. Its wire is
                // still drawn, so every campaign seed generates the
                // scenario it always did but for these actions.
                let _wire = rng.below(width);
                DistAction::CrashHandOffTarget
            }
        });
    }
    s.actions = actions;
    s.timer_preemptions = 2;
    s.max_drops = 1;
    s
}

fn main() {
    let base_seed = env_u64("ACN_CHAOS_SEED", 0xC4A05);
    let events = env_u64("ACN_CHAOS_EVENTS", 10);
    let schedules = env_u64("ACN_CHAOS_SCHEDULES", 30);
    let budget_periods = env_u64("ACN_CHAOS_BUDGET_PERIODS", 16);

    println!(
        "acn-chaos: {events} scenarios x {schedules} schedules, base seed \
         {base_seed:#x}, detection budget {budget_periods} periods"
    );

    let mut rng = SplitMix64::new(base_seed);
    let mut total_schedules = 0u64;
    let mut total_faults = 0u64;
    for event in 0..events {
        let scenario_seed = rng.next_u64();
        let mut scenario = generate(scenario_seed, &mut rng);
        // The recovery-time budget guard: detections over budget are
        // oracle violations, not warnings.
        scenario.oracles.detection_budget_periods = budget_periods;

        let mut config = DistCheckConfig::random(schedules, scenario_seed ^ 0xC4A0);
        // Chaos mixes stack several recoveries per run; give the
        // drain more room than the default explorer bound.
        config.max_steps = 20_000;
        let report = check_dist(&config, &scenario);
        total_schedules += report.schedules;
        total_faults += report.fault_actions;
        println!(
            "  event {event}: seed {scenario_seed:#x}, {} actions \
             [{}], {} schedules, {} fault applications, completed={}",
            scenario.actions.len(),
            scenario
                .actions
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            report.schedules,
            report.fault_actions,
            report.completed,
        );
        if !report.ok() {
            let failure = report.failures.first().expect("!ok implies a failure");
            eprintln!(
                "CHAOS FAILURE at event {event} (scenario seed {scenario_seed:#x}):\n\
                 {failure}"
            );
            let minimized = shrink_dist(&config, &scenario, failure);
            eprintln!(
                "minimized scenario: {} nodes, width {}, injections {:?}, actions [{}]",
                minimized.scenario.nodes,
                minimized.scenario.width,
                minimized.scenario.injections,
                minimized
                    .scenario
                    .actions
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            eprintln!("minimized failure:\n{}", minimized.failure);
            eprintln!(
                "reproduce: ACN_CHAOS_SEED={base_seed:#x} ACN_CHAOS_EVENTS={} \
                 ACN_CHAOS_SCHEDULES={schedules} ACN_CHAOS_BUDGET_PERIODS={budget_periods} \
                 acn-chaos",
                event + 1
            );
            std::process::exit(1);
        }
    }
    println!(
        "acn-chaos: all recovery oracles held over {total_schedules} schedules \
         ({total_faults} fault applications), detection always within \
         {budget_periods} periods"
    );
}

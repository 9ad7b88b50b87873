//! `check_explore`: the distributed schedule explorer as a workload.
//! Stateless replay boots a `Deployment` per schedule and drives the
//! simulator through `DeliveryPolicy::External`, a path the `dist_*`
//! workloads never take.

use std::time::Instant;

use acn_check::{check_dist, DistAction, DistCheckConfig, DistReport, DistScenario};
use acn_topology::ComponentId;

use super::{repeat_setup, Pass, SliceClock, NOMINAL_SECONDS, SLICES};
use crate::spans::Recorder;

/// The scenarios' ring seed is fixed: where three nodes land on the
/// ring decides who hosts what, which moves the schedule length by
/// half. `--seed` seeds the randomized exploration.
pub const SCENARIO_SEED: u64 = 7;
/// Random schedules at the nominal budget.
const SCHEDULES: f64 = 15_000.0;
const SETUP_REPS: usize = 5;

/// The 2-node split+merge scenario of `acn-dist-explore`, small enough
/// to exhaust; exploring it is this workload's set-up.
pub fn exhaustive_scenario() -> DistScenario {
    let root = ComponentId::root();
    let mut s = DistScenario::new(4, 2, SCENARIO_SEED, vec![0, 3]);
    s.actions = vec![DistAction::Split(root.clone()), DistAction::Merge(root)];
    s
}

/// The 3-node split/inject/join/merge + 1-drop scenario of
/// `acn-dist-explore`.
pub fn random_scenario() -> DistScenario {
    let root = ComponentId::root();
    let mut s = DistScenario::new(4, 3, SCENARIO_SEED, vec![0, 1, 2, 3]);
    s.actions = vec![
        DistAction::Split(root.clone()),
        DistAction::Inject(2),
        DistAction::Join,
        DistAction::Merge(root),
    ];
    s.timer_preemptions = 2;
    s.max_drops = 1;
    s
}

/// Tokens one schedule of `scenario` injects.
fn tokens_per_schedule(scenario: &DistScenario) -> u64 {
    let scripted = scenario
        .actions
        .iter()
        .filter(|a| matches!(a, DistAction::Inject(_)))
        .count();
    (scenario.injections.len() + scripted) as u64
}

pub fn run(seed: u64, budget_s: f64, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    let exhaustive = exhaustive_scenario();
    let (boot, setup_s) = repeat_setup(SETUP_REPS, rec, || {
        check_dist(&DistCheckConfig::exhaustive(), &exhaustive)
    });
    pass.setup_s = setup_s;

    let scenario = random_scenario();
    let per_schedule = tokens_per_schedule(&scenario);
    let per_slice =
        ((SCHEDULES * budget_s / NOMINAL_SECONDS / SLICES as f64).round() as u64).max(1);
    let mut reports: Vec<DistReport> = Vec::with_capacity(SLICES);
    let start = Instant::now();
    let mut clock = SliceClock::start();
    for slice in 0..SLICES {
        let config = DistCheckConfig::random(per_slice, seed.wrapping_add(slice as u64));
        let report = rec.call("check.check_dist", |_| check_dist(&config, &scenario));
        pass.slices.push(clock.lap(report.schedules * per_schedule));
        reports.push(report);
    }
    pass.wall_s = start.elapsed().as_secs_f64();

    pass.attempted = per_slice * SLICES as u64;
    for (slice, report) in reports.iter().enumerate() {
        if !report.ok() || !report.completed {
            // A failing slice stops at its first failure; all of it fails.
            pass.failed += per_slice;
            let reason = report
                .failures
                .first()
                .map_or("budget ran out", |f| f.message.as_str());
            pass.violations.push(format!("slice {slice}: {reason}"));
        }
    }
    if !boot.ok() || !boot.completed {
        pass.violate("the exhaustive 2-node split+merge scenario failed or did not complete");
    }

    let sum = |f: fn(&DistReport) -> u64| reports.iter().chain([&boot]).map(f).sum::<u64>();
    let schedules: u64 = reports.iter().map(|r| r.schedules).sum();
    let max_depth = reports
        .iter()
        .chain([&boot])
        .map(|r| r.max_depth)
        .max()
        .unwrap_or(0) as u64;
    pass.tokens = schedules * per_schedule;
    pass.layer
        .insert("schedules_per_s", schedules as f64 / pass.wall_s);
    for (name, value) in [
        ("check.schedules", schedules),
        ("check.sleep_prunes", sum(|r| r.sleep_prunes)),
        ("check.dedup_hits", sum(|r| r.frontier_dedup_hits)),
        ("check.max_depth", max_depth),
    ] {
        pass.layer.insert(name, value as f64);
        pass.exact.insert(name, value);
    }
    pass.exact
        .insert("check.fault_actions", sum(|r| r.fault_actions));
    pass.exact.insert("check.drops", sum(|r| r.drops));
    pass.exact
        .insert("check.exhaustive_schedules", boot.schedules);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_exploration_holds_every_oracle_and_repeats_exactly() {
        let a = run(7, 0.05, &mut Recorder::off());
        let b = run(7, 0.05, &mut Recorder::off());
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!((a.attempted, a.failed), (95, 0));
        assert_eq!(a.tokens, 95 * 5);
        assert_eq!(a.exact, b.exact);
        assert!(
            a.exact["check.sleep_prunes"] > 0,
            "the exhaustive set-up prunes"
        );
    }
}

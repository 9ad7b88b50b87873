//! Counterexample-shrinking acceptance suite: the explorers' failure
//! paths hand back delta-debugged, strictly-replayable minimal
//! schedules, and shrinking is convergent (a shrunk failure is a
//! fixpoint).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use acn_check::{
    check, check_dist, oracles, replay_dist_schedule, replay_schedule, shrink_dist,
    shrink_dist_choices, shrink_thread_choices, vthread, CheckConfig, DistAction,
    DistCheckConfig, DistFailure, DistFailureKind, DistScenario, FailureKind, VirtualSync,
};
use acn_sync::{SyncApi, SyncAtomicU64};

type VAtomic = <VirtualSync as SyncApi>::AtomicU64;

/// Scans the same seed window as the dist-explore mutation test and
/// returns the first caught ack-dedup violation (already shrunk by the
/// explorer's failure path) with its scenario and report.
fn caught_dedup_mutation() -> (DistScenario, acn_check::DistReport) {
    for seed in 0..16u64 {
        let mut scenario = DistScenario::new(2, 2, seed, vec![0]);
        scenario.timer_preemptions = 1; // retry-before-ack is the race
        scenario.disable_ack_dedup = true;
        let report = check_dist(&DistCheckConfig::exhaustive(), &scenario);
        if !report.failures.is_empty() {
            return (scenario, report);
        }
    }
    panic!("the dedup mutation must be caught within the seed window");
}

/// The planted-mutation regression: the dedup counterexample shrinks to
/// 8 schedule choices and replays strictly to the same oracle failure.
#[test]
fn dedup_mutation_counterexample_shrinks_to_a_short_strict_replay() {
    let (scenario, report) = caught_dedup_mutation();
    let failure = &report.failures[0];
    assert_eq!(failure.kind, DistFailureKind::OracleViolation, "{failure}");
    assert_eq!(
        failure.choices.len(),
        8,
        "the shrunk counterexample's length is pinned: {failure}"
    );
    assert!(report.shrink.failures_shrunk >= 1, "the failure went through the shrinker");
    assert!(report.shrink.attempts > 0, "shrinking actually replayed candidates");

    // Strict replay of the shrunk schedule reproduces the same class
    // of violation — no divergence.
    let replayed = replay_dist_schedule(&DistCheckConfig::exhaustive(), &scenario, &failure.choices)
        .expect("the shrunk schedule still fails");
    assert_eq!(replayed.kind, failure.kind, "{replayed}");
    assert_eq!(
        replayed.message.split(':').next(),
        failure.message.split(':').next(),
        "same oracle class on replay"
    );

    // The shrunk failure still carries a usable flight-recorder dump.
    assert!(!failure.flight_dump.is_empty(), "shrunk failure keeps its dump: {failure}");
}

/// Convergence: shrinking an already-shrunk dist failure changes
/// nothing, across the whole seed window (a deterministic stand-in for
/// a property test — the inputs sweep every caught seed).
#[test]
fn dist_shrinking_is_a_fixpoint() {
    let mut checked = 0;
    for seed in 0..16u64 {
        let mut scenario = DistScenario::new(2, 2, seed, vec![0]);
        scenario.timer_preemptions = 1;
        scenario.disable_ack_dedup = true;
        let report = check_dist(&DistCheckConfig::exhaustive(), &scenario);
        for failure in &report.failures {
            let (again, stats) = shrink_dist_choices(&DistCheckConfig::exhaustive(), &scenario, failure);
            assert_eq!(
                again.choices, failure.choices,
                "re-shrinking must not change a shrunk schedule (seed {seed})"
            );
            assert_eq!(stats.accepted, 0, "no candidate improves a fixpoint (seed {seed})");
            checked += 1;
        }
    }
    assert!(checked > 0, "at least one failure must flow through the fixpoint check");
}

/// Full scenario-level minimization: `shrink_dist` may simplify the
/// scenario itself, and whatever it returns is a strictly-replayable
/// counterexample against the *returned* scenario.
#[test]
fn scenario_level_shrinking_returns_a_replayable_counterexample() {
    let (scenario, report) = caught_dedup_mutation();
    let shrunk = shrink_dist(&DistCheckConfig::exhaustive(), &scenario, &report.failures[0]);
    assert!(shrunk.stats.attempts > 0);
    assert!(
        shrunk.failure.choices.len() <= report.failures[0].choices.len(),
        "scenario minimization never lengthens the schedule"
    );
    let replayed: DistFailure = replay_dist_schedule(&DistCheckConfig::exhaustive(), &shrunk.scenario, &shrunk.failure.choices)
        .expect("the minimized counterexample replays against the minimized scenario");
    assert_eq!(replayed.kind, DistFailureKind::OracleViolation);
    assert_eq!(
        replayed.message.split(':').next(),
        shrunk.failure.message.split(':').next()
    );
}

/// A `Stuck` failure is a property of the step budget it was found
/// with: split the root on three nodes and crash the hand-off target,
/// under 50 fired events. The same schedule quiesces within the default
/// budget, so only a replay under the finding budget reproduces it —
/// and only a shrink under that budget can accept a candidate.
#[test]
fn a_stuck_failure_replays_and_shrinks_under_the_budget_it_was_found_with() {
    let root = acn_topology::ComponentId::root();
    let mut scenario = DistScenario::new(4, 3, 0xD15C02, vec![0, 3]);
    scenario.actions = vec![DistAction::Split(root), DistAction::CrashHandOffTarget];
    let config = DistCheckConfig { max_steps: 50, ..DistCheckConfig::exhaustive() };
    let report = check_dist(&config, &scenario);
    let failure = report.failures.first().expect("50 events cannot quiesce this scenario");
    assert_eq!(failure.kind, DistFailureKind::Stuck, "{failure}");
    assert!(failure.message.starts_with("no quiescence within 50 steps"), "{failure}");
    assert!(
        replay_dist_schedule(&DistCheckConfig::exhaustive(), &scenario, &failure.choices)
            .is_none(),
        "under the default budget the same schedule quiesces"
    );

    let replayed = replay_dist_schedule(&config, &scenario, &failure.choices)
        .expect("the schedule replays to its failure under its own budget");
    assert_eq!(replayed.message, failure.message);

    let shrunk = shrink_dist(&config, &scenario, failure);
    assert!(shrunk.stats.accepted > 0, "candidates fail the same way: {:?}", shrunk.stats);
    let replayed = replay_dist_schedule(&config, &shrunk.scenario, &shrunk.failure.choices)
        .expect("the minimized counterexample replays under the same budget");
    assert_eq!(replayed.kind, DistFailureKind::Stuck);
    assert_eq!(replayed.message.split(':').next(), failure.message.split(':').next());
}

// ---------------------------------------------------------------------------
// Thread-schedule shrinking through the thread explorer's failure path.
// ---------------------------------------------------------------------------

/// The thread checker's step budget binds replay and shrinking too: a
/// `DepthExceeded` failure found under 4 steps replays, strictly, to
/// the same failure, and shrinks to one that does.
#[test]
fn a_depth_failure_replays_and_shrinks_under_the_budget_it_was_found_with() {
    let config = CheckConfig { max_steps: 4, ..CheckConfig::exhaustive() };
    let report = check(config.clone(), noisy_lossy_counter_scenario);
    let failure = report.failures.first().expect("4 steps cannot finish the scenario");
    assert_eq!(failure.kind, FailureKind::DepthExceeded, "{failure}");
    let replayed = replay_schedule(&config, noisy_lossy_counter_scenario, &failure.choices)
        .expect("the schedule replays to its failure under its own budget");
    assert_eq!((replayed.kind, replayed.message), (failure.kind.clone(), failure.message.clone()));

    let (shrunk, _) = shrink_thread_choices(&config, noisy_lossy_counter_scenario, failure);
    let replayed = replay_schedule(&config, noisy_lossy_counter_scenario, &shrunk.choices)
        .expect("the shrunk schedule replays under the same budget");
    assert_eq!(replayed.kind, FailureKind::DepthExceeded);
}

/// The classic lost update (load + store), plus two spectator threads
/// touching an unrelated atomic: the raw counterexample wanders
/// through spectator steps the bug does not need, which is exactly
/// what ddmin deletes.
fn noisy_lossy_counter_scenario() {
    let counter = Arc::new(VAtomic::new(0));
    let noise = Arc::new(VAtomic::new(0));
    let spectators: Vec<_> = (0..2)
        .map(|_| {
            let noise = Arc::clone(&noise);
            vthread::spawn(move || {
                noise.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let counter = Arc::clone(&counter);
            vthread::spawn(move || {
                // BUG (deliberate): load + store is not fetch_add.
                let v = counter.load(Ordering::SeqCst);
                counter.store(v + 1, Ordering::SeqCst);
                v
            })
        })
        .collect();
    for s in spectators {
        s.join();
    }
    let values: Vec<u64> = workers.into_iter().map(|h| h.join()).collect();
    oracles::assert_values_dense(&values);
}

#[test]
fn thread_counterexample_is_shrunk_and_replays_strictly() {
    let report = check(CheckConfig::exhaustive(), noisy_lossy_counter_scenario);
    assert!(!report.ok(), "the seeded bug must be found");
    assert!(report.shrink.failures_shrunk >= 1);
    let failure = &report.failures[0];
    assert_eq!(failure.kind, FailureKind::Panic);
    // The 2-thread lost update needs few decisions once the spectator
    // scheduling is deleted (the main thread's spawns/joins still
    // contribute forced decisions). The length is pinned.
    assert_eq!(failure.choices.len(), 10, "{failure}");
    let replayed = replay_schedule(&CheckConfig::exhaustive(), noisy_lossy_counter_scenario, &failure.choices)
        .expect("the shrunk choices replay strictly");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert!(replayed.message.contains("not dense"), "{}", replayed.message);
}

#[test]
fn thread_shrinking_is_a_fixpoint() {
    let report = check(CheckConfig::exhaustive(), noisy_lossy_counter_scenario);
    assert!(!report.ok());
    let failure = &report.failures[0];
    let (again, stats) = shrink_thread_choices(&CheckConfig::exhaustive(), noisy_lossy_counter_scenario, failure);
    assert_eq!(again.choices, failure.choices, "re-shrinking a shrunk failure is a no-op");
    assert_eq!(stats.accepted, 0);
}

/// Shrinking can be disabled, and the raw counterexample is (weakly)
/// longer than the shrunk one on the same scenario.
#[test]
fn disabling_shrinking_keeps_the_raw_counterexample() {
    let mut raw_config = CheckConfig::exhaustive();
    raw_config.shrink_failures = false;
    let raw = check(raw_config, noisy_lossy_counter_scenario);
    let shrunk = check(CheckConfig::exhaustive(), noisy_lossy_counter_scenario);
    assert!(!raw.ok() && !shrunk.ok());
    assert_eq!(raw.shrink.failures_shrunk, 0, "no shrinking when disabled");
    assert!(
        shrunk.failures[0].choices.len() <= raw.failures[0].choices.len(),
        "shrinking never lengthens: {} vs raw {}",
        shrunk.failures[0].choices.len(),
        raw.failures[0].choices.len()
    );
}

/// Shrink statistics flow into telemetry under `acn.check.shrink.*`.
#[test]
fn shrink_statistics_emit_to_telemetry() {
    let report = check(CheckConfig::exhaustive(), noisy_lossy_counter_scenario);
    assert!(!report.ok());
    let registry = acn_telemetry::Registry::new();
    report.emit(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("acn.check.shrink.attempts"), Some(report.shrink.attempts));
    assert_eq!(
        snap.counter("acn.check.shrink.failures_shrunk"),
        Some(report.shrink.failures_shrunk)
    );
    assert!(report.shrink.attempts > 0);
}

//! Model-check acceptance suite: the configurations the checker must
//! fully explore, plus regression tests proving it actually catches
//! seeded bugs (lost updates, too-weak orderings, lock-order
//! inversions) with replayable schedules.
//!
//! Budget discipline: every exhaustive configuration here is small
//! enough that the whole suite stays well under a minute in debug
//! builds (`scripts/check.sh` runs it).

use std::sync::Arc;
use std::sync::atomic::Ordering;

use acn_bitonic::{bitonic_network, periodic_network, AtomicNetworkCounter};
use acn_check::{check, oracles, replay_schedule, vthread, CheckConfig, FailureKind, VirtualSync};
use acn_core::SharedAdaptiveNetwork;
use acn_sync::{SyncApi, SyncAtomicU64, SyncMutex};
use acn_telemetry::Registry;
use acn_topology::ComponentId;

type VAtomic = <VirtualSync as SyncApi>::AtomicU64;
type VMutexU64 = <VirtualSync as SyncApi>::Mutex<u64>;

// ---------------------------------------------------------------------------
// Acceptance configuration A: 2 tokens x width-4 cut with a concurrent
// split of the root component racing the traversals.
// ---------------------------------------------------------------------------

fn width4_concurrent_split_scenario() {
    let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
    let tokens: Vec<_> = (0..2)
        .map(|wire| {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_value(wire))
        })
        .collect();
    let splitter = {
        let net = Arc::clone(&net);
        vthread::spawn(move || net.split(&ComponentId::root()).expect("root is splittable"))
    };
    let values: Vec<u64> = tokens.into_iter().map(|h| h.join()).collect();
    splitter.join();
    oracles::assert_values_dense(&values);
    oracles::assert_network_quiescent(&net.output_counts(), 2);
    assert!(net.structure_consistent(), "split left a half-installed component set");
}

#[test]
fn exhaustive_width4_two_tokens_with_concurrent_split() {
    let report = check(CheckConfig::exhaustive(), width4_concurrent_split_scenario);
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted, not budgeted out");
    // (schedules, states_seen, sleep_prunes, memo_prunes, max_depth):
    // the explorer's exact statistics, pinned so that any change to
    // the search itself shows here first. The split's harvest checks
    // each leaf's hop count with a `debug_assert_eq!`, one more atomic
    // load per leaf, so a release build explores fewer states.
    let pinned = if cfg!(debug_assertions) { (8, 462, 32, 85, 31) } else { (8, 438, 32, 77, 31) };
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        pinned,
        "a concurrent split yields multiple inequivalent schedules"
    );
}

// ---------------------------------------------------------------------------
// Acceptance configuration B: 3 tokens x width-8 static root cut.
// ---------------------------------------------------------------------------

fn width8_static_scenario() {
    let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(8));
    let tokens: Vec<_> = (0..3)
        .map(|i| {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_value(i * 2))
        })
        .collect();
    let values: Vec<u64> = tokens.into_iter().map(|h| h.join()).collect();
    oracles::assert_values_dense(&values);
    oracles::assert_network_quiescent(&net.output_counts(), 3);
}

#[test]
fn exhaustive_width8_three_tokens_static_cut() {
    let report = check(CheckConfig::exhaustive(), width8_static_scenario);
    report.assert_ok();
    assert!(report.completed);
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (6, 452, 70, 118, 26));
}

// ---------------------------------------------------------------------------
// Symmetry reduction: the canonical fingerprint (dead-store truncation
// + inert-thread bucketing) pushes the exhaustible bound to width-8 x
// 4 tokens, and measurably merges states a plain fingerprint keeps
// apart.
// ---------------------------------------------------------------------------

fn width8_four_tokens_scenario() {
    let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(8));
    let tokens: Vec<_> = (0..4)
        .map(|i| {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_value(i * 2))
        })
        .collect();
    let values: Vec<u64> = tokens.into_iter().map(|h| h.join()).collect();
    oracles::assert_values_dense(&values);
    oracles::assert_network_quiescent(&net.output_counts(), 4);
}

#[test]
fn exhaustive_width8_four_tokens_under_symmetry_reduction() {
    let mut config = CheckConfig::exhaustive();
    config.symmetric = true;
    let report = check(config, width8_four_tokens_scenario);
    report.assert_ok();
    assert!(report.completed, "width-8 x 4 tokens must exhaust within the CI budget");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (24, 4168, 816, 1569, 32),
        "the visited-state memo carries the load"
    );
}

/// A scenario built to have dead divergence: once the reader thread
/// has finished and been joined, *where* it read is unobservable, and
/// the writer's overwritten history is dead. The canonical fingerprint
/// (with inert-thread bucketing) must merge those states; the plain
/// fingerprint keeps them apart.
fn dead_divergence_scenario() {
    let x = Arc::new(VAtomic::new(0));
    let writer = {
        let x = Arc::clone(&x);
        vthread::spawn(move || {
            x.store(1, Ordering::SeqCst);
            x.store(2, Ordering::SeqCst);
            x.store(3, Ordering::SeqCst);
        })
    };
    let reader = {
        let x = Arc::clone(&x);
        vthread::spawn(move || {
            let _ = x.load(Ordering::SeqCst);
        })
    };
    writer.join();
    reader.join();
    // Tail work after the race is history: equivalent suffixes.
    for _ in 0..3 {
        x.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn canonical_fingerprint_measurably_reduces_the_state_space() {
    let mut plain_config = CheckConfig::exhaustive();
    plain_config.canonical = false;
    let plain = check(plain_config, dead_divergence_scenario);
    plain.assert_ok();

    let mut sym_config = CheckConfig::exhaustive();
    sym_config.symmetric = true;
    let sym = check(sym_config, dead_divergence_scenario);
    sym.assert_ok();

    assert!(
        sym.states_seen < plain.states_seen,
        "canonicalization must merge dead-divergent states: {} vs plain {}",
        sym.states_seen,
        plain.states_seen
    );
    assert!(
        sym.schedules <= plain.schedules,
        "merging can only prune re-exploration: {} vs plain {}",
        sym.schedules,
        plain.schedules
    );
    assert!(sym.memo_prunes > plain.memo_prunes, "the merges land as memo prunes");
    assert_eq!(
        (plain.schedules, plain.states_seen, plain.sleep_prunes, plain.memo_prunes, plain.max_depth),
        (4, 31, 0, 1, 9)
    );
    assert_eq!(
        (sym.schedules, sym.states_seen, sym.sleep_prunes, sym.memo_prunes, sym.max_depth),
        (1, 22, 0, 4, 9)
    );
}

// ---------------------------------------------------------------------------
// Seeded bug: a load-then-store "counter" loses updates. The checker
// must find the lost update and print a replayable schedule.
// ---------------------------------------------------------------------------

/// Deliberately broken counter: read-modify-write without atomicity.
fn lossy_counter_scenario() {
    let counter = Arc::new(VAtomic::new(0));
    let handles: Vec<_> = (0..2)
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
    let values: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
    oracles::assert_values_dense(&values);
}

#[test]
#[should_panic(expected = "model check failed")]
fn seeded_lossy_counter_bug_is_caught() {
    check(CheckConfig::exhaustive(), lossy_counter_scenario).assert_ok();
}

#[test]
fn lossy_counter_failure_prints_replayable_schedule() {
    let report = check(CheckConfig::exhaustive(), lossy_counter_scenario);
    assert!(!report.ok(), "the seeded bug must be found");
    let failure = &report.failures[0];
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("not dense"), "oracle names the bug: {}", failure.message);

    // The printed report carries the full schedule and the choice list.
    let printed = failure.to_string();
    assert!(printed.contains("replay choices"), "failure must print replay choices:\n{printed}");

    // And the choice list really does reproduce the failure.
    let replayed =
        replay_schedule(&CheckConfig::exhaustive(), lossy_counter_scenario, &failure.choices)
            .expect("replaying the printed choices reproduces the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert!(replayed.message.contains("not dense"));
}

#[test]
fn random_mode_finds_the_lossy_counter_and_reports_a_seed() {
    let config = CheckConfig::random(64, 0xACDC);
    let report = check(config.clone(), lossy_counter_scenario);
    assert!(!report.failures.is_empty(), "64 random schedules must hit a 2-thread lost update");
    let failure = &report.failures[0];
    let seed = failure.seed.expect("random-mode failures carry their iteration seed");
    assert!(failure.to_string().contains("replay seed"), "printed report names the seed");
    // Replaying by choices (seed-derived) reproduces the same violation.
    let replayed = replay_schedule(&config, lossy_counter_scenario, &failure.choices)
        .expect("seeded schedule replays");
    assert!(replayed.message.contains("not dense"), "seed {seed:#x} reproduces the bug");
}

// ---------------------------------------------------------------------------
// Memory-ordering validation: the checker interprets orderings, so a
// too-weak flag publication is a caught bug while release/acquire
// passes exhaustively.
// ---------------------------------------------------------------------------

fn message_passing_scenario(store_ord: Ordering, load_ord: Ordering) {
    let data = Arc::new(VAtomic::new(0));
    let flag = Arc::new(VAtomic::new(0));
    let producer = {
        let data = Arc::clone(&data);
        let flag = Arc::clone(&flag);
        vthread::spawn(move || {
            // lint: relaxed-ok(ordering under test; publication is carried by the flag store)
            data.store(42, Ordering::Relaxed);
            flag.store(1, store_ord);
        })
    };
    let consumer = vthread::spawn(move || {
        if flag.load(load_ord) == 1 {
            // lint: relaxed-ok(ordering under test; the flag load above is what must synchronize)
            let seen = data.load(Ordering::Relaxed);
            assert!(seen == 42, "stale data: flag observed but data read {seen}");
        }
    });
    producer.join();
    consumer.join();
}

#[test]
fn relaxed_flag_publication_is_caught() {
    let report = check(CheckConfig::exhaustive(), || {
        // lint: relaxed-ok(deliberately too weak; this test asserts the checker rejects it)
        message_passing_scenario(Ordering::Relaxed, Ordering::Relaxed);
    });
    assert!(!report.ok(), "relaxed message passing must admit a stale read");
    assert!(report.failures[0].message.contains("stale data"));
}

#[test]
fn release_acquire_publication_passes_exhaustively() {
    let report = check(CheckConfig::exhaustive(), || {
        message_passing_scenario(Ordering::Release, Ordering::Acquire);
    });
    report.assert_ok();
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (3, 14, 1, 3, 6),
        "stale-read candidates are branched over"
    );
}

// ---------------------------------------------------------------------------
// Lock-order discipline: acquiring ranked locks against the declared
// order is reported as a FailureKind::LockOrder with the schedule.
// ---------------------------------------------------------------------------

#[test]
fn lock_order_inversion_is_reported() {
    let report = check(CheckConfig::exhaustive(), || {
        let high = VMutexU64::with_rank(0, 2);
        let low = VMutexU64::with_rank(0, 1);
        let g_high = high.lock();
        let g_low = low.lock(); // rank 1 while holding rank 2: inversion
        drop(g_low);
        drop(g_high);
    });
    assert!(!report.ok());
    let failure = &report.failures[0];
    assert_eq!(failure.kind, FailureKind::LockOrder);
    assert!(!failure.choices.is_empty(), "lock-order reports carry the schedule");
}

// ---------------------------------------------------------------------------
// The bitonic executor under the checker.
// ---------------------------------------------------------------------------

fn bitonic_scenario(width: usize, tokens: usize) {
    let counter = Arc::new(AtomicNetworkCounter::<VirtualSync>::new_in(bitonic_network(width)));
    let handles: Vec<_> = (0..tokens)
        .map(|_| {
            let counter = Arc::clone(&counter);
            vthread::spawn(move || counter.next_value())
        })
        .collect();
    let values: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
    oracles::assert_values_dense(&values);
    oracles::assert_network_quiescent(&counter.output_counts(), tokens as u64);
}

#[test]
fn exhaustive_bitonic_width4_two_tokens() {
    let report = check(CheckConfig::exhaustive(), || bitonic_scenario(4, 2));
    report.assert_ok();
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (8, 194, 19, 23, 18));
}

#[test]
fn random_bitonic_width8_three_tokens() {
    let report = check(CheckConfig::random(48, 7), || bitonic_scenario(8, 3));
    report.assert_ok();
    assert_eq!((report.schedules, report.max_depth), (48, 38));
}

// ---------------------------------------------------------------------------
// The reference network must verify under the same scenario as the
// compiled routes, and the bitonic executor's live network replacement
// must preserve density.
// ---------------------------------------------------------------------------

#[test]
fn exhaustive_locked_mode_width4_two_tokens_with_concurrent_split() {
    // The reference network (the sequential model under the exclusive
    // lock) stays model-checked alongside the compiled routes: same
    // acceptance scenario.
    let report = check(CheckConfig::exhaustive(), || {
        let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_locked_in(4));
        let tokens: Vec<_> = (0..2)
            .map(|wire| {
                let net = Arc::clone(&net);
                vthread::spawn(move || net.next_value(wire))
            })
            .collect();
        let splitter = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.split(&ComponentId::root()).expect("root is splittable"))
        };
        let values: Vec<u64> = tokens.into_iter().map(|h| h.join()).collect();
        splitter.join();
        oracles::assert_values_dense(&values);
        oracles::assert_network_quiescent(&net.output_counts(), 2);
        assert!(net.structure_consistent());
    });
    report.assert_ok();
    assert!(report.completed);
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (6, 236, 18, 49, 19));
}

#[test]
fn exhaustive_bitonic_replace_network_races_a_token() {
    let report = check(CheckConfig::exhaustive(), || {
        let counter =
            Arc::new(AtomicNetworkCounter::<VirtualSync>::new_in(bitonic_network(4)));
        let token = {
            let counter = Arc::clone(&counter);
            vthread::spawn(move || counter.next_value())
        };
        let swapper = {
            let counter = Arc::clone(&counter);
            vthread::spawn(move || counter.replace_network(periodic_network(4)))
        };
        let value = token.join();
        swapper.join();
        assert_eq!(value, 0, "a lone token always takes value 0 across the swap");
        oracles::assert_network_quiescent(&counter.output_counts(), 1);
    });
    report.assert_ok();
    assert!(report.completed);
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (2, 43, 1, 5, 18),
        "the swap races the traversal in more than one way"
    );
}

// ---------------------------------------------------------------------------
// Checker statistics flow into acn-telemetry.
// ---------------------------------------------------------------------------

#[test]
fn report_statistics_emit_to_telemetry() {
    let report = check(CheckConfig::exhaustive(), lossy_counter_scenario);
    let registry = Registry::new();
    report.emit(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("acn.check.schedules"), Some(report.schedules));
    assert_eq!(snap.counter("acn.check.failures"), Some(report.failures.len() as u64));
    assert!(snap.gauge("acn.check.max_depth").expect("gauge present") >= 1.0);
}

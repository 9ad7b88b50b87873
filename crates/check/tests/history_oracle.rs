//! History-oracle acceptance suite: per-token invocation/response
//! histories recorded from the concurrent executors, checked against
//! the sequential counter spec under the model checker — so the
//! consistency claims hold on *every* explored schedule, not just the
//! ones a real run happens to produce.
//!
//! The claims under test match the theory:
//!
//! - a **single-component** `SharedAdaptiveNetwork` (no concurrent
//!   reconfiguration) is *linearizable* in both execution modes — the
//!   traversal collapses to one `fetch_add`, its linearization point;
//! - the **bitonic** executor is *quiescently consistent* (the step
//!   property's honest guarantee for multi-balancer networks);
//! - a seeded lost-update mutation is caught by the linearizability
//!   check with a replayable schedule.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use acn_bitonic::{bitonic_network, AtomicNetworkCounter};
use acn_check::{
    check, replay_schedule, vthread, CheckConfig, CounterSpec, FailureKind, History,
    HistoryRecorder, VirtualSync,
};
use acn_core::SharedAdaptiveNetwork;
use acn_sync::{RealSync, SyncApi, SyncAtomicU64};
use acn_trace::Tracer;

type VAtomic = <VirtualSync as SyncApi>::AtomicU64;

/// Two tokens through a single-component shared network, every
/// operation bracketed by the recorder; the history must linearize on
/// the schedule being explored.
fn shared_linearizable_scenario(locked: bool) {
    let net = Arc::new(if locked {
        SharedAdaptiveNetwork::<VirtualSync>::new_locked_in(4)
    } else {
        SharedAdaptiveNetwork::<VirtualSync>::new_in(4)
    });
    let recorder = Arc::new(HistoryRecorder::new());
    let handles: Vec<_> = (0..2)
        .map(|wire| {
            let net = Arc::clone(&net);
            let recorder = Arc::clone(&recorder);
            vthread::spawn(move || {
                let op = recorder.invoke::<VirtualSync>();
                let value = net.next_value(wire);
                recorder.respond::<VirtualSync>(op, value);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    recorder
        .history()
        .check_linearizable(&CounterSpec)
        .expect("a single-component adaptive network is linearizable");
}

#[test]
fn exhaustive_shared_fast_path_is_linearizable() {
    let report = check(CheckConfig::exhaustive(), || shared_linearizable_scenario(false));
    report.assert_ok();
    assert!(report.completed);
    // (schedules, states_seen, sleep_prunes, memo_prunes, max_depth),
    // pinned: overlapping traversals were actually explored.
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (2, 48, 6, 8, 12));
}

#[test]
fn exhaustive_shared_locked_mode_is_linearizable() {
    let report = check(CheckConfig::exhaustive(), || shared_linearizable_scenario(true));
    report.assert_ok();
    assert!(report.completed);
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (2, 26, 4, 4, 8));
}

/// The bitonic executor under the quiescent-consistency oracle: two
/// tokens through a width-4 bitonic network, on every schedule.
#[test]
fn exhaustive_bitonic_is_quiescently_consistent() {
    let report = check(CheckConfig::exhaustive(), || {
        let counter =
            Arc::new(AtomicNetworkCounter::<VirtualSync>::new_in(bitonic_network(4)));
        let recorder = Arc::new(HistoryRecorder::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                let recorder = Arc::clone(&recorder);
                vthread::spawn(move || {
                    let op = recorder.invoke::<VirtualSync>();
                    let value = counter.next_value();
                    recorder.respond::<VirtualSync>(op, value);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        recorder
            .history()
            .check_quiescent(&CounterSpec)
            .expect("the bitonic network is quiescently consistent");
    });
    report.assert_ok();
    assert!(report.completed);
    assert_eq!((report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth), (8, 162, 19, 23, 14));
}

// ---------------------------------------------------------------------------
// The oracle has teeth: a lost-update mutation produces an
// unlinearizable history, caught with a replayable schedule.
// ---------------------------------------------------------------------------

/// Deliberately broken counter (load + store instead of `fetch_add`):
/// some interleaving hands the same value to both threads, and no
/// linearization of that history exists.
fn lost_update_history_scenario() {
    let counter = Arc::new(VAtomic::new(0));
    let recorder = Arc::new(HistoryRecorder::new());
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let counter = Arc::clone(&counter);
            let recorder = Arc::clone(&recorder);
            vthread::spawn(move || {
                let op = recorder.invoke::<VirtualSync>();
                // BUG (deliberate): read-modify-write without atomicity.
                let v = counter.load(Ordering::SeqCst);
                counter.store(v + 1, Ordering::SeqCst);
                recorder.respond::<VirtualSync>(op, v);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    recorder
        .history()
        .check_linearizable(&CounterSpec)
        .expect("history oracle over the mutated counter");
}

#[test]
fn seeded_lost_update_is_caught_by_the_history_oracle() {
    let report = check(CheckConfig::exhaustive(), lost_update_history_scenario);
    assert!(!report.ok(), "the lost update must produce an unlinearizable history");
    let failure = &report.failures[0];
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("not linearizable"),
        "the oracle names the condition: {}",
        failure.message
    );
    // The (shrunk) counterexample replays strictly to the same verdict.
    let replayed = replay_schedule(&CheckConfig::exhaustive(), lost_update_history_scenario, &failure.choices)
        .expect("the recorded schedule reproduces the violation");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert!(replayed.message.contains("not linearizable"));
}

// ---------------------------------------------------------------------------
// Span-sourced histories: a real (RealSync) run's `exec.traverse`
// spans reconstruct a linearizable history, because each span interval
// covers its traversal's linearization point by construction.
// ---------------------------------------------------------------------------

#[test]
fn real_run_traverse_spans_form_a_linearizable_history() {
    let tracer = Tracer::new(256);
    let mut net = SharedAdaptiveNetwork::<RealSync>::new(8);
    net.attach_tracer(&tracer);
    let net = Arc::new(net);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let net = Arc::clone(&net);
            std::thread::spawn(move || net.next_value(i * 2))
        })
        .collect();
    for h in handles {
        h.join().expect("traversal thread");
    }
    let history = History::from_spans(&tracer.spans(), "exec.traverse");
    assert_eq!(history.ops.len(), 4, "one value-carrying span per token");
    history
        .check_linearizable(&CounterSpec)
        .expect("a single-component real run is linearizable");
    history.check_quiescent(&CounterSpec).expect("linearizable implies quiescent");
}

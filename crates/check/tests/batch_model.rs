//! Model-check suite for the **batched traversal** and the sharded
//! front-end: weighted tokens racing split/merge and refills racing
//! each other, plus the `acn-sync` exchange-slot and compare-exchange
//! primitives — each explored under `VirtualSync` and judged by the
//! step-property and history oracles.

use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use acn_check::{
    check, oracles, vthread, CheckConfig, CounterSpec, HistoryRecorder, VirtualSync,
};
use acn_core::{ShardedFrontEnd, SharedAdaptiveNetwork};
use acn_sync::{ExchangeSlot, OfferOutcome, SyncApi, SyncAtomicU64};
use acn_topology::ComponentId;

type VAtomic = <VirtualSync as SyncApi>::AtomicU64;

/// Two threads race a compare-exchange on one cell: in every explored
/// schedule exactly one wins, and the loser observes the winner's
/// value — the kernel's `Op::Cas` gives RMW coherence.
#[test]
fn exhaustive_cas_has_single_winner() {
    let report = check(CheckConfig::exhaustive(), || {
        let cell = Arc::new(VAtomic::new(0));
        let racers: Vec<_> = (1..=2u64)
            .map(|id| {
                let cell = Arc::clone(&cell);
                vthread::spawn(move || {
                    cell.compare_exchange(
                        0,
                        id,
                        acn_sync::Ordering::AcqRel,
                        acn_sync::Ordering::Acquire,
                    )
                    .is_ok()
                })
            })
            .collect();
        let wins: Vec<bool> = racers.into_iter().map(|h| h.join()).collect();
        assert_eq!(
            wins.iter().filter(|w| **w).count(),
            1,
            "exactly one CAS may win the empty cell"
        );
        let final_value = cell.load(acn_sync::Ordering::Acquire);
        assert!((1..=2).contains(&final_value), "the winner's value must stick");
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    // (schedules, states_seen, sleep_prunes, memo_prunes, max_depth),
    // pinned like every exhaustive suite in this file. Where a split or
    // merge harvests leaves, its `debug_assert_eq!` on each leaf's hop
    // count is one more atomic load, so release builds pin their own
    // (smaller) values.
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (2, 10, 0, 1, 5)
    );
}

/// A weight-2 batch racing a root split: whatever interleaving the
/// drain/harvest takes, the quiescent counts keep the step property
/// and the batch's values are exactly 0 and 1 (weighted residue
/// harvesting is exact).
#[test]
fn exhaustive_weighted_batch_races_split() {
    let report = check(CheckConfig::exhaustive(), || {
        let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
        let batch = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_batch(0, 2))
        };
        let splitter = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.split(&ComponentId::root()).expect("root is splittable"))
        };
        let values = batch.join();
        splitter.join();
        oracles::assert_values_dense(&values);
        oracles::assert_network_quiescent(&net.output_counts(), 2);
        assert!(net.structure_consistent(), "components must mirror the cut");
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        if cfg!(debug_assertions) { (2, 65, 3, 6, 25) } else { (2, 61, 3, 5, 25) }
    );
}

/// A weight-2 batch racing a merge back to the root, with a scalar
/// token alongside: batched and scalar tokens share one modification
/// order, and the union of their values is dense on every schedule.
#[test]
fn exhaustive_weighted_batch_races_merge_with_scalar_token() {
    let report = check(CheckConfig::exhaustive(), || {
        let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
        net.split(&ComponentId::root()).expect("root is splittable");
        let batch = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_batch(1, 2))
        };
        let scalar = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.next_value(2))
        };
        let merger = {
            let net = Arc::clone(&net);
            vthread::spawn(move || net.merge(&ComponentId::root()).expect("children are leaves"))
        };
        let mut values = batch.join();
        values.push(scalar.join());
        merger.join();
        oracles::assert_values_dense(&values);
        oracles::assert_network_quiescent(&net.output_counts(), 3);
        assert!(net.structure_consistent(), "components must mirror the cut");
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        if cfg!(debug_assertions) { (7, 1086, 48, 237, 55) } else { (7, 880, 48, 175, 49) }
    );
}

/// Exchange-slot pairing vs. timeout, exhaustively: an offerer with a
/// tiny patience races a combiner. Every schedule resolves to exactly
/// one of {paired, timed out, combiner saw nothing}, the payload is
/// conserved in all of them, and the exploration must visit both a
/// pairing and a timeout.
#[test]
fn exhaustive_exchange_slot_pairing_and_timeout() {
    let paired_somewhere = Arc::new(AtomicBool::new(false));
    let timed_out_somewhere = Arc::new(AtomicBool::new(false));
    let paired_probe = Arc::clone(&paired_somewhere);
    let timeout_probe = Arc::clone(&timed_out_somewhere);
    let report = check(CheckConfig::exhaustive(), move || {
        let slot: Arc<ExchangeSlot<Vec<u64>, VirtualSync>> = Arc::new(ExchangeSlot::new());
        let offerer = {
            let slot = Arc::clone(&slot);
            vthread::spawn(move || slot.offer(1, 2))
        };
        let combiner = {
            let slot = Arc::clone(&slot);
            vthread::spawn(move || match slot.pending_offer() {
                Some(w) => {
                    assert_eq!(w, 1, "the only posted offer has weight 1");
                    slot.fulfil(w, vec![7])
                }
                None => Err(vec![7]),
            })
        };
        let offer_outcome = offerer.join();
        let fulfil_outcome = combiner.join();
        match (&offer_outcome, &fulfil_outcome) {
            // Paired: the payload crossed the slot, combiner kept nothing.
            (OfferOutcome::Exchanged(values), Ok(())) => {
                assert_eq!(values, &vec![7]);
                // lint: relaxed-ok(cross-schedule accumulator on a real atomic; read after check() returns)
                paired_probe.store(true, Ordering::Relaxed);
            }
            // Withdrawn first (or never seen): combiner kept the values.
            (OfferOutcome::TimedOut, Err(values)) => {
                assert_eq!(values, &vec![7]);
                // lint: relaxed-ok(cross-schedule accumulator on a real atomic; read after check() returns)
                timeout_probe.store(true, Ordering::Relaxed);
            }
            other => panic!("payload lost or duplicated: {other:?}"),
        }
        // The slot is reusable afterwards in every outcome.
        assert_eq!(slot.pending_offer(), None, "slot must reset to EMPTY");
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (12, 81, 2, 7, 12)
    );
    // lint: relaxed-ok(single-threaded read after exploration finished)
    assert!(paired_somewhere.load(Ordering::Relaxed), "some schedule must pair off");
    assert!(
        // lint: relaxed-ok(single-threaded read after exploration finished)
        timed_out_somewhere.load(Ordering::Relaxed),
        "some schedule must take the timeout/withdraw branch"
    );
}

/// Two concurrent weight-2 batches under the history oracle: every
/// claimed value is recorded as an operation spanning its batch's
/// interval, and the history must be quiescently consistent — batches
/// may reorder values inside overlapping windows, but a batch that
/// responds before another is invoked must hold the earlier values.
#[test]
fn exhaustive_batched_history_is_quiescently_consistent() {
    let report = check(CheckConfig::exhaustive(), || {
        let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
        let recorder = Arc::new(HistoryRecorder::new());
        let batches: Vec<_> = (0..2usize)
            .map(|wire| {
                let net = Arc::clone(&net);
                let recorder = Arc::clone(&recorder);
                vthread::spawn(move || {
                    // One operation per value, all sharing the batch's
                    // invocation/response interval.
                    let ops = [
                        recorder.invoke::<VirtualSync>(),
                        recorder.invoke::<VirtualSync>(),
                    ];
                    let values = net.next_batch(wire, 2);
                    for (op, value) in ops.into_iter().zip(&values) {
                        recorder.respond::<VirtualSync>(op, *value);
                    }
                    values
                })
            })
            .collect();
        let all: Vec<u64> = batches.into_iter().flat_map(|h| h.join()).collect();
        oracles::assert_values_dense(&all);
        oracles::assert_network_quiescent(&net.output_counts(), 4);
        recorder
            .history()
            .check_quiescent(&CounterSpec)
            .expect("a batched counter is quiescently consistent");
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (2, 76, 8, 10, 18)
    );
}

/// The full sharded front-end under the checker: two shards, two
/// draws each. A refill that draws a ticket right after the other
/// shard's sees a foreign one and grows its batch, so scalar refills,
/// batched refills and stash pops all interleave. On every schedule
/// the served values are distinct and the quiescent union of consumed
/// and stashed values is dense. (The
/// *consumed* sequence alone is deliberately not history-checked: a
/// stashing front-end may serve 3 while 0 waits in another shard's
/// stash — that is the batched-counter trade, and the density oracle
/// is its honest specification; see DESIGN.md §12.)
#[test]
fn frontend_values_stay_dense_across_all_schedules() {
    let report = check(CheckConfig::exhaustive(), || {
        let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
        let fe = Arc::new(ShardedFrontEnd::new_in(Arc::clone(&net), 2));
        let workers: Vec<_> = (0..2usize)
            .map(|shard| {
                let fe = Arc::clone(&fe);
                vthread::spawn(move || [fe.next_value(shard, shard), fe.next_value(shard, shard)])
            })
            .collect();
        let mut consumed: Vec<u64> = workers.into_iter().flat_map(|h| h.join()).collect();
        // Quiescent conservation + density: consumed ∪ stashed = 0..n.
        let outstanding = fe.outstanding();
        assert_eq!(consumed.len() as u64 + outstanding, net.total_exited());
        consumed.extend(fe.drain_outstanding());
        oracles::assert_values_dense(&consumed);
        oracles::assert_step(&net.output_counts());
    });
    report.assert_ok();
    assert!(report.completed, "the schedule space must be exhausted");
    assert_eq!(
        (report.schedules, report.states_seen, report.sleep_prunes, report.memo_prunes, report.max_depth),
        (12, 740, 60, 72, 38)
    );
}

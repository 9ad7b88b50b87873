//! Property-based tests (proptest) on the core invariants.

use std::sync::Arc;

use adaptive_counting_networks::bitonic::step::{is_step_sequence, step_sequence};
use adaptive_counting_networks::core::component::{
    merge_components, split_component, Component,
};
use adaptive_counting_networks::core::{LocalAdaptiveNetwork, TokenPos};
use adaptive_counting_networks::topology::{
    effective_depth, effective_width, input_port_of, lemma_2_2_bound, network_input_address,
    resolve_output, ComponentDag, ComponentId, Cut, OutputDestination, Tree, WiringStyle,
};
use adaptive_counting_networks::periodic::{AdaptivePeriodic, PId, PTree};
use proptest::prelude::*;

/// A strategy producing a valid random cut of `T_w` (by replaying a
/// sequence of random splits).
fn arb_cut(w: usize) -> impl Strategy<Value = Cut> {
    proptest::collection::vec(0usize..100, 0..30).prop_map(move |choices| {
        let tree = Tree::new(w);
        let mut cut = Cut::root();
        for pick in choices {
            let splittable: Vec<ComponentId> = cut
                .leaves()
                .iter()
                .filter(|l| tree.info(l).map(|i| i.width >= 4).unwrap_or(false))
                .cloned()
                .collect();
            if splittable.is_empty() {
                break;
            }
            let target = splittable[pick % splittable.len()];
            cut.split(&tree, &target).expect("splittable leaf");
        }
        cut
    })
}

proptest! {
    /// Theorem 2.1 as a property: any randomly generated cut of T_16,
    /// fed any sequence of input wires, emits a global round-robin.
    #[test]
    fn any_cut_counts(cut in arb_cut(16), wires in proptest::collection::vec(0usize..16, 1..120)) {
        let mut net = LocalAdaptiveNetwork::with_cut(16, cut, WiringStyle::Ahs);
        for (t, wire) in wires.iter().enumerate() {
            prop_assert_eq!(net.push(*wire), t % 16);
        }
    }

    /// Lemmas 2.2 and 2.3 as properties of random cuts.
    #[test]
    fn effective_dims_bounds(cut in arb_cut(32)) {
        let tree = Tree::new(32);
        let dag = ComponentDag::new(&tree, &cut);
        let depth = effective_depth(&dag);
        let width = effective_width(&dag);
        prop_assert!(depth <= lemma_2_2_bound(cut.max_level()));
        prop_assert!(width >= 1 << cut.min_level());
    }

    /// Split followed by merge is the identity on canonical components.
    #[test]
    fn split_merge_roundtrip(tokens in 0u64..200, path in proptest::sample::select(
        vec![vec![], vec![0u8], vec![2], vec![4], vec![0, 2]]
    )) {
        let tree = Tree::new(32);
        let id = ComponentId::from_path(path);
        prop_assume!(tree.info(&id).map(|i| i.width >= 4).unwrap_or(false));
        let parent = Component::with_tokens(&tree, &id, tokens);
        let children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
        let merged = merge_components(&tree, &id, &children, WiringStyle::Ahs).unwrap();
        prop_assert_eq!(merged, parent);
    }

    /// Wire address resolution roundtrips: the port a descent reaches is
    /// the port the ascent reports.
    #[test]
    fn wire_resolution_roundtrip(wire in 0usize..32) {
        let tree = Tree::new(32);
        let addr = network_input_address(&tree, wire, WiringStyle::Ahs);
        let port = input_port_of(&tree, &ComponentId::root(), &addr, WiringStyle::Ahs);
        prop_assert_eq!(port, Some(wire));
    }

    /// Every output port of every component leads somewhere legal, and
    /// the network-output ports exactly cover 0..w.
    #[test]
    fn output_resolution_total(cut in arb_cut(16)) {
        let tree = Tree::new(16);
        let mut outputs = vec![false; 16];
        for leaf in cut.leaves() {
            let width = tree.info(leaf).unwrap().width;
            for port in 0..width {
                match resolve_output(&tree, leaf, port, WiringStyle::Ahs) {
                    OutputDestination::NetworkOutput(o) => {
                        prop_assert!(!outputs[o], "output {o} produced twice");
                        outputs[o] = true;
                    }
                    OutputDestination::Wire(addr) => {
                        prop_assert!(addr.owner_under(&cut).is_some());
                    }
                }
            }
        }
        prop_assert!(outputs.into_iter().all(|b| b), "missing network outputs");
    }

    /// The adaptive PERIODIC network (the generality extension) counts
    /// for random cuts and arbitrary input-wire schedules.
    #[test]
    fn adaptive_periodic_counts(
        splits in proptest::collection::vec(0usize..100, 0..10),
        wires in proptest::collection::vec(0usize..16, 1..80),
    ) {
        let w = 16;
        let tree = PTree::new(w);
        let mut net = AdaptivePeriodic::new(w);
        for pick in splits {
            let splittable: Vec<PId> = net
                .cut()
                .leaves()
                .iter()
                .filter(|l| tree.info(l).map(|i| i.width >= 4).unwrap_or(false))
                .cloned()
                .collect();
            if splittable.is_empty() {
                break;
            }
            let target = splittable[pick % splittable.len()].clone();
            net.split(&target).expect("splittable leaf");
        }
        for (t, wire) in wires.iter().enumerate() {
            prop_assert_eq!(net.push(*wire), t % w);
        }
    }

    /// The step sequence constructor and checker agree.
    #[test]
    fn step_sequence_agrees(width in 1usize..20, total in 0u64..500) {
        let s = step_sequence(width, total);
        prop_assert!(is_step_sequence(&s));
        prop_assert_eq!(s.iter().sum::<u64>(), total);
    }

    /// Tokens advanced in any interleaving drain to a step sequence.
    #[test]
    fn interleaved_drain_is_step(
        cut in arb_cut(16),
        schedule in proptest::collection::vec((0usize..16, 0usize..8), 1..200)
    ) {
        let mut net = LocalAdaptiveNetwork::with_cut(16, cut, WiringStyle::Ahs);
        let mut in_flight: Vec<TokenPos> = Vec::new();
        for (wire, advance_pick) in schedule {
            in_flight.push(net.inject(wire));
            if !in_flight.is_empty() {
                let i = advance_pick % in_flight.len();
                let next = net.advance(in_flight[i].clone());
                if matches!(next, TokenPos::Exited(_)) {
                    in_flight.swap_remove(i);
                } else {
                    in_flight[i] = next;
                }
            }
        }
        while let Some(mut pos) = in_flight.pop() {
            while !matches!(pos, TokenPos::Exited(_)) {
                pos = net.advance(pos);
            }
        }
        prop_assert!(is_step_sequence(net.output_counts()));
    }

    /// The SyncApi-generic shared executor under `RealSync` (real OS
    /// threads and `parking_lot` locks — the production instantiation)
    /// satisfies the same quiescent oracles the model checker asserts
    /// under `VirtualSync`: randomly interleaved `next_value` calls
    /// racing a random split/merge schedule hand out exactly `0..total`
    /// and leave THE step sequence on the output wires.
    #[test]
    fn concurrent_network_counts_under_random_adaptation(
        width_pick in 0usize..3,
        threads in 2usize..5,
        per_thread in 1usize..10,
        adapt_ops in proptest::collection::vec((0usize..100, 0usize..2), 0..6),
    ) {
        use adaptive_counting_networks::core::SharedAdaptiveNetwork;

        let w = [4usize, 8, 16][width_pick];
        let net = Arc::new(SharedAdaptiveNetwork::new(w));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    (0..per_thread).map(|i| net.next_value((t * 7 + i * 3) % w)).collect::<Vec<u64>>()
                })
            })
            .collect();
        let adapter = {
            let net = Arc::clone(&net);
            std::thread::spawn(move || {
                for (pick, kind) in adapt_ops {
                    let leaves: Vec<ComponentId> = net.cut().leaves().iter().cloned().collect();
                    let leaf = leaves[pick % leaves.len()];
                    if kind == 0 {
                        // Leaves of minimal width are not splittable;
                        // racing tokens may also defer — both are fine.
                        let _ = net.split(&leaf);
                    } else if let Some(parent) = leaf.parent() {
                        let _ = net.merge(&parent);
                    }
                }
            })
        };
        let mut values = Vec::new();
        for worker in workers {
            values.extend(worker.join().expect("worker thread panicked"));
        }
        adapter.join().expect("adaptation thread panicked");

        // The *same* oracles the model checker asserts under VirtualSync.
        acn_check::oracles::assert_values_dense(&values);
        acn_check::oracles::assert_network_quiescent(
            &net.output_counts(),
            (threads * per_thread) as u64,
        );
        prop_assert!(net.structure_consistent(), "adaptation left a half-installed structure");
    }
}

//! Property tests for the concurrent runtime: random token /
//! split / merge interleavings driven through the lock-free fast path
//! and checked against the quiescent counting-network oracles
//! (Theorem 2.1: every cut counts; DESIGN.md §8: reconfiguration
//! preserves the step property).

use std::sync::Arc;

use acn_core::SharedAdaptiveNetwork;
use acn_topology::ComponentId;
use proptest::prelude::*;

/// The quiescent step property over per-wire output counts:
/// `0 <= counts[i] - counts[j] <= 1` for every `i < j`.
fn step_violation(counts: &[u64]) -> Option<String> {
    for i in 0..counts.len() {
        for j in (i + 1)..counts.len() {
            let d = counts[i] as i64 - counts[j] as i64;
            if !(0..=1).contains(&d) {
                return Some(format!("wires {i},{j}: counts {counts:?}"));
            }
        }
    }
    None
}

/// A reconfiguration target derived from a fuzz byte and the network's
/// *current* cut: a live leaf (for splits) or a live leaf's parent (for
/// merges). Both are always valid `T_w` nodes; the operation itself may
/// still fail (unsplittable balancer leaf, children not all leaves, a
/// racing reconfiguration changed the cut first, ...) and the
/// properties deliberately ignore those errors — the oracle is that
/// counting stays correct no matter which reconfigurations actually
/// land.
fn fuzz_target(net: &SharedAdaptiveNetwork, a: u8, merge: bool) -> Option<ComponentId> {
    let cut = net.cut();
    let leaves: Vec<&ComponentId> = cut.leaves().iter().collect();
    let leaf = leaves[a as usize % leaves.len()];
    if merge { leaf.parent() } else { Some(*leaf) }
}

proptest! {
    /// Sequential oracle: tokens interleaved with arbitrary (often
    /// failing) split/merge requests must hand out exactly 0, 1, 2, ...
    /// in order, keep the structure consistent after every operation,
    /// and leave step-property output counts at quiescence.
    #[test]
    fn random_token_reconfig_sequences_count(
        logw in 1u32..4,
        ops in proptest::collection::vec(
            (0u8..3, any::<u8>(), any::<u8>(), 1u8..10),
            1..32,
        ),
    ) {
        let w = 1usize << logw;
        let net = SharedAdaptiveNetwork::new(w);
        let mut expected = 0u64;
        let mut wire = 0usize;
        for &(kind, a, b, batch) in &ops {
            match kind {
                0 => {
                    for _ in 0..batch {
                        let v = net.next_value(wire);
                        prop_assert_eq!(v, expected, "token {} got {}", expected, v);
                        expected += 1;
                        wire = (wire + 1) % w;
                    }
                }
                1 => {
                    if let Some(id) = fuzz_target(&net, a.wrapping_add(b), false) {
                        let _ = net.split(&id);
                    }
                }
                _ => {
                    if let Some(id) = fuzz_target(&net, a.wrapping_add(b), true) {
                        let _ = net.merge(&id);
                    }
                }
            }
            prop_assert!(net.structure_consistent(), "inconsistent after op {:?}", kind);
        }
        let counts = net.output_counts();
        prop_assert_eq!(counts.iter().sum::<u64>(), expected);
        prop_assert!(step_violation(&counts).is_none(), "{:?}", step_violation(&counts));
    }

    /// Concurrent oracle: real threads race tokens through the
    /// lock-free path while the main thread fires random
    /// reconfigurations. At quiescence the handed-out values must be
    /// exactly `0..total` (no duplicate, no skip) and the output counts
    /// a step — whatever interleaving the hardware produced.
    #[test]
    fn concurrent_tokens_with_random_reconfigs_stay_dense(
        logw in 1u32..4,
        per_thread in 8usize..48,
        reconfigs in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>()),
            0..10,
        ),
    ) {
        let w = 1usize << logw;
        let net = Arc::new(SharedAdaptiveNetwork::new(w));
        let threads = 3usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    (0..per_thread).map(|i| net.next_value((t + i) % w)).collect::<Vec<u64>>()
                })
            })
            .collect();
        for &(split, a, b) in &reconfigs {
            if let Some(id) = fuzz_target(&net, a.wrapping_add(b), !split) {
                let _ = if split { net.split(&id) } else { net.merge(&id) };
            }
        }
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            all.extend(h.join().expect("token thread panicked"));
        }
        all.sort_unstable();
        let total = (threads * per_thread) as u64;
        prop_assert_eq!(all, (0..total).collect::<Vec<u64>>());
        let counts = net.output_counts();
        prop_assert_eq!(counts.iter().sum::<u64>(), total);
        prop_assert!(step_violation(&counts).is_none(), "{:?}", step_violation(&counts));
        prop_assert!(net.structure_consistent());
    }
}

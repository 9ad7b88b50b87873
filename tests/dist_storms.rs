//! Randomized churn-storm matrix for the message-level deployment:
//! many seeds × parameter combinations, each checked for token
//! conservation and the quiescent step property.

use adaptive_counting_networks::bitonic::step::is_step_sequence;
use adaptive_counting_networks::core::dist::Deployment;
use adaptive_counting_networks::overlay::{splitmix64, NodeId};

/// One randomized run: interleaved joins, leaves, and traffic.
fn storm(seed: u64, width: usize, start_nodes: usize, loss_per_mille: u32) {
    let mut d = Deployment::with_loss(width, start_nodes, seed, loss_per_mille);
    assert!(d.settle(200), "seed {seed}: initial settle failed");
    let mut s = seed ^ 0xABCD;
    let mut injected = 0u64;
    for _ in 0..40 {
        match splitmix64(&mut s) % 5 {
            0 => {
                d.join_node();
            }
            1 => {
                let nodes: Vec<NodeId> = d.world.borrow().ring.nodes().collect();
                if nodes.len() > 2 {
                    let victim = nodes[(splitmix64(&mut s) as usize) % nodes.len()];
                    d.leave_node(victim);
                    d.run_for(2 * d.level_period);
                }
            }
            _ => {
                for _ in 0..3 {
                    d.inject((splitmix64(&mut s) as usize) % width);
                    injected += 1;
                }
            }
        }
        d.run_for(700);
    }
    assert!(d.settle(400), "seed {seed}: storm did not settle");
    d.run_for(500_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "seed {seed}: token conservation violated");
    assert!(is_step_sequence(&c.counts), "seed {seed}: {:?}", c.counts);
    let (cut, busy) = d.live_cut();
    assert!(!busy, "seed {seed}: operations still pending");
    assert!(cut.is_valid(&d.world.borrow().tree), "seed {seed}: invalid cut {cut}");
}

#[test]
fn storm_small_reliable() {
    storm(1, 16, 3, 0);
}

#[test]
fn storm_medium_reliable() {
    storm(2, 32, 8, 0);
}

#[test]
fn storm_wide_reliable() {
    storm(3, 64, 6, 0);
}

#[test]
fn storm_small_lossy() {
    storm(4, 16, 4, 120);
}

#[test]
fn storm_medium_lossy() {
    storm(5, 32, 8, 80);
}

#[test]
fn storm_alternate_seeds() {
    for seed in [11u64, 23, 37] {
        storm(seed, 32, 5, 0);
    }
}

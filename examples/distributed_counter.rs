//! A shared counter on a churning peer-to-peer system, end to end.
//!
//! Boots the full message-passing deployment (simulated Chord overlay +
//! adaptive counting network + deterministic network simulator), drives
//! client traffic while the system grows from 4 to 40 nodes and shrinks
//! back to 8, and prints what the decentralized protocol did.
//!
//! Run with `cargo run --example distributed_counter`.

use adaptive_counting_networks::core::dist::Deployment;
use adaptive_counting_networks::overlay::{splitmix64, NodeId};

fn main() {
    let w = 64;
    let mut deployment = Deployment::new(w, 4, 0xC0FFEE);
    let mut seed = 7u64;
    let mut injected = 0u64;
    let inject = |d: &mut Deployment, n: usize, injected: &mut u64, seed: &mut u64| {
        for _ in 0..n {
            d.inject((splitmix64(seed) as usize) % w);
            *injected += 1;
            d.run_for(40);
        }
    };

    println!("booting: width {w}, 4 overlay nodes, one root component");
    deployment.settle(100);
    inject(&mut deployment, 50, &mut injected, &mut seed);

    println!("growing to 40 nodes with traffic flowing...");
    for _ in 0..36 {
        deployment.join_node();
        inject(&mut deployment, 3, &mut injected, &mut seed);
    }
    assert!(deployment.settle(200), "network failed to settle after growth");
    {
        let (cut, _) = deployment.live_cut();
        let world = deployment.world.borrow();
        println!(
            "  {} nodes, {} components (levels {}..{}), {} splits so far",
            world.ring.len(),
            cut.leaves().len(),
            cut.min_level(),
            cut.max_level(),
            world.splits_done
        );
    }

    println!("shrinking to 8 nodes with traffic flowing...");
    let victims: Vec<NodeId> = deployment.world.borrow().ring.nodes().take(32).collect();
    for v in victims {
        deployment.leave_node(v);
        inject(&mut deployment, 2, &mut injected, &mut seed);
        deployment.run_for(2 * deployment.level_period);
    }
    assert!(deployment.settle(300), "network failed to settle after shrink");
    deployment.run_for(500_000);

    let (cut, _) = deployment.live_cut();
    let world = deployment.world.borrow();
    let collector = deployment.collector();
    println!(
        "  {} nodes, {} components, {} merges total",
        world.ring.len(),
        cut.leaves().len(),
        world.merges_done
    );
    println!(
        "traffic: {} tokens injected, {} exited, {} routing NACKs, {} DHT lookups",
        injected,
        collector.total(),
        world.token_nacks,
        world.dht_lookups
    );
    println!("per-output-wire exits: {:?}", collector.counts);
    assert_eq!(collector.total(), injected, "token conservation violated");
    assert!(
        adaptive_counting_networks::bitonic::step::is_step_sequence(&collector.counts),
        "step property violated"
    );
    println!("token conservation and the step property held throughout.");
}

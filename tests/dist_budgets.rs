//! Work and state budgets of the message-level deployment, pinned so a
//! change that adds boot work shows up as a failing count rather than
//! as a slower benchmark set-up.

use adaptive_counting_networks::core::dist::Deployment;
use adaptive_counting_networks::overlay::splitmix64;
use adaptive_counting_networks::simnet::{DeliveryPolicy, SimConfig};

/// Boots the 32-node, width-64 deployment the steady-state benchmark
/// times: the ring seed is fixed at 7, `seed` drives the link jitter
/// and the loss coin.
fn boot_steady(seed: u64, loss_per_mille: u32) -> Deployment {
    let config = SimConfig { base_latency: 5, jitter: 10, loss_per_mille, seed };
    let mut d = Deployment::with_sim(64, 32, 7, config, DeliveryPolicy::Seeded);
    d.run_for(40 * d.level_period);
    assert!(d.settle(64), "seed {seed}, loss {loss_per_mille}: boot did not settle");
    d
}

/// The boot is identical for every link seed and loss rate (it sends no
/// token): 2,611 timers, 1,374 messages, 7 splits and one `settle`
/// round past the 40 level periods.
#[test]
fn steady_boot_does_the_same_work_on_every_seed() {
    for seed in [7, 21] {
        for loss_per_mille in [0, 50] {
            let d = boot_steady(seed, loss_per_mille);
            let stats = d.sim.stats();
            let counts = (
                stats.events_processed,
                stats.messages_delivered,
                stats.timers_fired,
                d.world.borrow().splits_done,
                d.sim.now(),
            );
            assert_eq!(
                counts,
                (3_985, 1_374, 2_611, 7, 82_000),
                "seed {seed}, loss {loss_per_mille}: (events, delivered, timers, splits, now)"
            );
        }
    }
}

/// Injects `tokens` more tokens into `d`, one every 10 ticks on a
/// pseudo-random wire.
fn inject_spaced(d: &mut Deployment, tokens: u64, wires: &mut u64) {
    for _ in 0..tokens {
        d.inject((splitmix64(wires) % 64) as usize);
        d.run_for(10);
    }
}

/// Drives `tokens` more tokens through `d` as [`inject_spaced`] does,
/// then lets every retransmission settle.
fn drive(d: &mut Deployment, tokens: u64, wires: &mut u64) {
    inject_spaced(d, tokens, wires);
    d.run_for(20 * d.level_period);
    assert!(d.settle(64), "traffic did not settle");
}

/// The dedup layers forget what no copy can reach any more: with static
/// membership the entries they hold do not grow with the tokens that
/// passed, with or without loss.
#[test]
fn dedup_state_does_not_grow_with_the_token_count() {
    for loss_per_mille in [0, 50] {
        let mut d = boot_steady(21, loss_per_mille);
        let mut wires = 0x5EED;
        drive(&mut d, 2_000, &mut wires);
        let early = d.dedup_entries();
        drive(&mut d, 18_000, &mut wires);
        let late = d.dedup_entries();
        assert_eq!(d.collector().total(), 20_000, "loss {loss_per_mille}: exactly once");
        // What is left is a tail per link: the guids accepted since the
        // last token the sender sent down it, whose watermark retires
        // them. It wanders with that tail (more of it under loss), not
        // with the 18,000 tokens in between; and it stays well under
        // one entry per link of the 32 x 31.
        assert!(
            late <= early + 128 && late < 32 * 31,
            "loss {loss_per_mille}: {early} dedup entries after 2,000 tokens, {late} after 20,000"
        );
    }
}

/// 2,000 tokens on the steady boot make the same decisions on every
/// link seed, with and without loss: the events, deliveries, losses and
/// timers they cost, the NACKs and retransmissions, and what the
/// collector saw. A change to the token path that is meant to save work
/// without changing a decision keeps every one of these.
///
/// Without loss, a warm deployment then makes at most 1.2 DHT lookups
/// per token: a hop over a component's memoised route makes none, so
/// what is left is a client's first hop to a node that does not host
/// the entry component, and the level ticks' ownership sweeps. (The
/// count is taken over 2,000 more tokens, since the boot's own lookups
/// and the misses that fill the routes are not per token.)
#[test]
fn steady_traffic_decides_the_same_on_every_seed() {
    type Counts = ((u64, u64, u64, u64), (u64, u64), (u64, u64, u64));
    let expected: [(u64, u32, Counts); 4] = [
        (7, 0, ((33_400, 27_914, 0, 5_486), (0, 0), (2_000, 131_238, 95))),
        (7, 50, ((33_251, 27_920, 559, 5_331), (0, 559), (2_000, 702_247, 3_525))),
        (21, 0, ((33_400, 27_914, 0, 5_486), (0, 0), (2_000, 131_013, 94))),
        (21, 50, ((33_253, 27_916, 552, 5_337), (0, 552), (2_000, 684_216, 3_383))),
    ];
    for (seed, loss_per_mille, want) in expected {
        let mut d = boot_steady(seed, loss_per_mille);
        let mut wires = 0x5EED;
        drive(&mut d, 2_000, &mut wires);
        let stats = d.sim.stats();
        let (nacks, retransmits) = {
            let w = d.world.borrow();
            (w.token_nacks, w.token_retransmits)
        };
        let c = d.collector();
        let counts = (
            (
                stats.events_processed,
                stats.messages_delivered,
                stats.messages_lost,
                stats.timers_fired,
            ),
            (nacks, retransmits),
            (c.total(), c.total_latency, c.max_latency),
        );
        assert_eq!(
            counts, want,
            "seed {seed}, loss {loss_per_mille}: ((events, delivered, lost, timers), (nacks, \
             retransmits), (collected, total latency, max latency))"
        );
        if loss_per_mille == 0 {
            let warm = d.world.borrow().dht_lookups;
            inject_spaced(&mut d, 2_000, &mut wires);
            let made = d.world.borrow().dht_lookups - warm;
            assert!(made * 5 <= 6 * 2_000, "seed {seed}: {made} lookups for 2,000 warm tokens");
        }
    }
}

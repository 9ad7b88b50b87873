//! The `DeliveryPolicy` seam must not drift the default behaviour.
//!
//! PR 5 refactored `acn_simnet::Simulator` so the "which pending event
//! fires next" decision goes through a pluggable [`DeliveryPolicy`];
//! the seeded-latency timestamp order stays the zero-overhead default.
//! These tests pin the default to golden fingerprints captured from the
//! pre-refactor simulator (same commit, before the seam landed) on the
//! E10/E16 harness seeds: `SimStats`, the world's protocol counters,
//! the collector's per-wire counts, and the `acn.sim.*` / `acn.dist.*`
//! telemetry counters must be byte-identical. Any divergence means the
//! seam changed scheduling semantics, not just structure.
//!
//! The same discipline pins two later representation changes (PR 14:
//! `ComponentId` became an inline value with hand-written `Ord`/`Hash`,
//! and simnet began delivering events to processes in place): a lossy
//! run and a crash-and-leave run, captured at the commit before either
//! change, must reproduce to the last counter.
//!
//! The five goldens of PRs 5, 14 and 15 had two entries re-captured
//! since, in the commit that made every component hand-off (split
//! child, merge parent, migration, rescue replacement) one retained
//! entry that is sent again only once the sender's view has tombstoned
//! its target (PR 16). A migration
//! used to arm the retry timer, whose pass then found the ack already
//! in: those firings are gone, so `timers_fired` (and with it
//! `events_processed` and the mirrored `acn.sim.timers_fired`) fell by
//! 2, 4, 3, 1 and 10. Every other entry — messages, latencies, nacks,
//! retransmits, split/merge totals, the collector total and every
//! per-wire count — is what it was.
//!
//! A sixth pins the shape of the membership flood under churn, captured
//! before gossip stopped carrying the whole view (PR 24).
//!
//! One entry moved in four of them when each hosted component began to
//! memoise where its output ports lead (the out-neighbour cache of
//! paper Section 3.5): `world.dht_lookups` (index 10) counts the
//! lookups made, and a hop over a memoised route makes none. It fell
//! 2448 → 2045 under churn, 2227 → 2216 in the crash-and-leave run,
//! 1470 → 1451 in the lossy run and 4986 → 4985 in the backpressure
//! run; the two E10/E16 runs make no hop over a warm remote route.
//! Every other entry is what it was.
//!
//! The same entry moved in all six when the migration sweep of every
//! level tick began to be skipped while nothing it reads has moved
//! since a sweep that migrated nothing (the view, the hosted set, a
//! thaw or a dropped hand-off): the skipped sweeps make no lookups. It
//! fell 572 → 189 and 573 → 197 in the E10/E16 runs, 1451 → 736 in the
//! lossy run, 2216 → 835 in the crash-and-leave run, 4985 → 3943 in
//! the backpressure run and 2045 → 1680 under churn. Every other entry
//! is what it was.

use adaptive_counting_networks::core::dist::{Deployment, Proc};
use adaptive_counting_networks::overlay::NodeId;
use adaptive_counting_networks::telemetry::Registry;
use adaptive_counting_networks::trace::Tracer;

/// Deterministic mixed workload in the shape of the E10 adaptivity
/// harness: growth, traffic, shrink, all seeded.
fn fingerprint(seed: u64, width: usize, start_nodes: usize) -> Vec<u64> {
    let registry = Registry::new();
    let mut d = Deployment::new(width, start_nodes, seed);
    d.attach_telemetry(&registry);
    let injected = grow_traffic_shrink(&mut d, seed, width);
    digest(&d, &registry, injected)
}

fn grow_traffic_shrink(d: &mut Deployment, seed: u64, width: usize) -> u64 {
    let mut injected = 0u64;
    for i in 0..60usize {
        d.inject(i % width);
        injected += 1;
        d.run_for(50);
    }
    for _ in 0..6 {
        d.join_node();
        for i in 0..4usize {
            d.inject((i * 7) % width);
            injected += 1;
        }
        d.run_for(500);
    }
    assert!(d.settle(300), "seed {seed}: deployment failed to settle");
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(3).collect();
    for v in victims {
        d.leave_node(v);
        d.run_for(2 * d.level_period);
        d.run_for(500);
    }
    assert!(d.settle(300), "seed {seed}: post-shrink settle failed");
    d.run_for(100_000);
    injected
}

/// Everything a seeded run decides: simulator totals, protocol
/// counters, collector outcome, mirrored telemetry, per-wire counts.
fn digest(d: &Deployment, registry: &Registry, injected: u64) -> Vec<u64> {
    let stats = d.sim.stats();
    let collector_counts = d.collector().counts.clone();
    let snap = registry.snapshot();
    let tele = |name: &str| snap.counter(name).unwrap_or(0);
    let world = d.world.borrow();
    let mut fp = vec![
        injected,
        stats.messages_delivered,
        stats.messages_dropped,
        stats.messages_lost,
        stats.timers_fired,
        stats.events_processed,
        world.splits_done,
        world.merges_done,
        world.token_nacks,
        world.token_retransmits,
        world.dht_lookups,
        d.collector().total(),
        d.collector().total_latency,
        d.collector().max_latency,
        tele("acn.sim.delivered"),
        tele("acn.sim.timers_fired"),
        tele("acn.dist.splits"),
        tele("acn.dist.merges"),
        tele("acn.dist.token_nacks"),
        tele("acn.dist.exits"),
    ];
    fp.extend(collector_counts);
    fp
}

/// Golden fingerprint for the E10 adaptivity seed (`0xAB5`).
///
/// Re-captured after the in-protocol fault-tolerance layer (DESIGN.md
/// §13) landed: the failure-detector timer, heartbeat pings, membership
/// gossip, and backoff retries all add seeded messages and timer fires,
/// so the traffic-shaped entries grew. The *counting* entries — tokens
/// injected, collector total, and the per-wire counts — are unchanged
/// from the pre-seam capture, which is the invariant that matters.
#[test]
fn seeded_policy_matches_pre_refactor_e10_seed() {
    let fp = fingerprint(0xAB5, 16, 4);
    let golden: Vec<u64> = vec![
        84, 1448, 0, 0, 1014, 2462, 1, 0, 40, 2, 189, 84, 3679, 623, 1448, 1014, 1, 0, 40,
        84, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    ];
    assert_eq!(fp, golden, "E10-seed fingerprint drifted across the DeliveryPolicy seam");
}

/// Golden fingerprint for the E16 overlay-harness seed family
/// (`n * 7 + 1` with `n = 64`). Re-captured post-§13 like the E10 one;
/// per-wire counting entries match the pre-seam capture.
#[test]
fn seeded_policy_matches_pre_refactor_e16_seed() {
    let fp = fingerprint(449, 16, 4);
    let golden: Vec<u64> = vec![
        84, 1456, 0, 0, 1014, 2470, 1, 0, 49, 3, 197, 84, 4222, 619, 1456, 1014, 1, 0, 49,
        84, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    ];
    assert_eq!(fp, golden, "E16-seed fingerprint drifted across the DeliveryPolicy seam");
}

/// [`digest`] plus the counters only loss and crashes move: both dedup
/// layers' drop tallies, the crash/detection log, and the recovery
/// telemetry.
fn fault_digest(d: &Deployment, registry: &Registry, injected: u64) -> Vec<u64> {
    let mut fp = digest(d, registry, injected);
    let snap = registry.snapshot();
    let tele = |name: &str| snap.counter(name).unwrap_or(0);
    let world = d.world.borrow();
    fp.extend([
        world.duplicate_traversal_drops,
        d.collector().duplicate_drops,
        tele("acn.dist.token_retransmits"),
        tele("acn.dist.backoff.escalations"),
        tele("acn.dist.backoff.resets"),
        tele("acn.dist.component_migrations"),
        tele("acn.dist.fd.gossip"),
        tele("acn.dist.rescue.sweeps"),
        tele("acn.dist.rescue.installs"),
        tele("acn.dist.rescue.duplicate_discards"),
    ]);
    for (node, at) in &world.crashed {
        fp.extend([node.0, *at, world.detections.get(node).copied().unwrap_or(u64::MAX)]);
    }
    fp
}

/// The E10-shaped run over a token channel that drops 5%: retransmit
/// timers, backoff escalation/reset and both dedup layers are live.
/// Captured at the commit before `ComponentId` became an inline value
/// and simnet began delivering in place (PR 14); every map this run
/// iterates is keyed by ids or wire addresses, so a changed `Ord` or a
/// reordered delivery shows up here.
#[test]
fn seeded_lossy_run_matches_pre_inline_id_capture() {
    let registry = Registry::new();
    let mut d = Deployment::with_loss(32, 20, 0xAB5, 50);
    d.attach_telemetry(&registry);
    let injected = grow_traffic_shrink(&mut d, 0xAB5, 32);
    let fp = fault_digest(&d, &registry, injected);
    let golden: Vec<u64> = vec![
        84, 7889, 0, 22, 3247, 11136, 6, 3, 261, 22, 736, 84, 28091, 2995, 7889, 3247, 6,
        3, 261, 84, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2,
        2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 22, 17, 17, 14, 5065, 0, 0, 0,
    ];
    assert_eq!(fp, golden, "lossy-run fingerprint drifted");
}

/// Join, crash a component host under traffic, then a graceful leave —
/// with no harness help: the failure detector, the rescue sweep
/// (`covered_report` iteration order), view-driven migration and the
/// split-list hand-off all run in protocol. Captured with the lossy
/// golden above.
#[test]
fn seeded_crash_and_leave_run_matches_pre_inline_id_capture() {
    let width = 32;
    let registry = Registry::new();
    let mut d = Deployment::new(width, 24, 0xC4A5);
    d.attach_telemetry(&registry);
    let mut injected = 0u64;
    let mut burst = |d: &mut Deployment, n: usize, pause: u64| {
        for i in 0..n {
            d.inject((i * 5) % width);
            injected += 1;
            d.run_for(pause);
        }
    };
    assert!(d.settle(100), "boot did not settle");
    for _ in 0..3 {
        d.join_node();
        burst(&mut d, 8, 60);
    }
    let victim = d
        .sim
        .process_ids()
        .find_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np)) if np.components().next().is_some() && !np.departed() => {
                Some(np.node_id())
            }
            _ => None,
        })
        .expect("someone hosts a component");
    burst(&mut d, 6, 3);
    d.crash_node(victim).expect("not the last node");
    burst(&mut d, 30, 400);
    let leaver = d.world.borrow().ring.nodes().next().expect("ring is not empty");
    d.leave_node(leaver);
    burst(&mut d, 12, 150);
    assert!(d.settle(300), "crash + leave did not settle");
    d.run_for(100_000);
    let fp = fault_digest(&d, &registry, injected);
    let golden: Vec<u64> = vec![
        72, 6143, 113, 0, 3252, 9511, 7, 0, 192, 60, 835, 72, 89630, 6753, 6143, 3252, 7,
        0, 192, 72, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 3, 3, 2, 2, 2, 2, 2, 2,
        2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 60, 18, 13, 6, 3278, 1, 5, 0, 2271037301670349577,
        3458, 9053,
    ];
    assert_eq!(fp, golden, "crash-and-leave fingerprint drifted");
}

/// Joins and leaves under bursty traffic with a capacity-1 frozen
/// buffer (the set-up of the unit test
/// `tiny_frozen_buffer_cap_conserves_tokens`, with four tokens per step
/// and a shrink phase — at one token per step that set-up sheds
/// nothing): senders are shed with `TokenBusy`, rewind `sent_at`,
/// escalate their backoff and retry, and a merge is aborted over
/// unsettled traffic — paths none of the goldens above reach. Captured
/// at the commit before `dist.rs` was cut into `dist/` (PR 15).
///
/// The only golden run that aborts a merge, so it also holds the
/// `merge.abort` span count to `acn.dist.merge_aborts` (tracing is
/// observation-only: the golden is the untraced capture).
#[test]
fn seeded_backpressure_run_matches_pre_split_capture() {
    use adaptive_counting_networks::overlay::splitmix64;
    let width = 32;
    let registry = Registry::new();
    let tracer = Tracer::new(1 << 17);
    let mut d = Deployment::new(width, 6, 0x77);
    d.attach_telemetry(&registry);
    d.attach_tracer(&tracer);
    d.set_frozen_buffer_cap(1);
    let mut seed = 1u64;
    let mut injected = 0u64;
    let mut burst = |d: &mut Deployment, n: usize| {
        for _ in 0..n {
            d.inject((splitmix64(&mut seed) as usize) % width);
            injected += 1;
        }
        d.run_for(60);
    };
    for i in 0..120u64 {
        burst(&mut d, 4);
        if i % 6 == 3 {
            d.join_node();
        }
    }
    let leavers: Vec<NodeId> = d.world.borrow().ring.nodes().take(10).collect();
    for v in leavers {
        d.leave_node(v);
        burst(&mut d, 16);
    }
    assert!(d.settle(300), "did not settle under backpressure");
    d.run_for(300_000);
    let mut fp = fault_digest(&d, &registry, injected);
    let snap = registry.snapshot();
    let sheds = snap.counter("acn.dist.backoff.sheds").unwrap_or(0);
    let merge_aborts = snap.counter("acn.dist.merge_aborts").unwrap_or(0);
    assert!(sheds > 0 && merge_aborts > 0, "the run no longer reaches the paths it pins");
    assert_eq!(tracer.dropped(), 0, "the ring holds the whole run");
    let abort_spans = tracer.spans().iter().filter(|s| s.kind == "merge.abort").count() as u64;
    assert_eq!((abort_spans, merge_aborts), (1, 1), "one merge.abort span per aborted merge");
    fp.extend([sheds, merge_aborts]);
    let golden: Vec<u64> = vec![
        640, 23106, 0, 0, 6327, 29433, 7, 6, 1533, 60, 3943, 640, 110804, 2417, 23106, 6327,
        7, 6, 1533, 640, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
        20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 0, 0, 60, 29, 27, 48,
        12030, 0, 0, 0, 2, 1,
    ];
    assert_eq!(fp, golden, "backpressure-run fingerprint drifted");
}

/// The shape of the membership flood itself: 8 nodes, then 6 joins, a
/// crash under traffic with no `settle` before it (the join waves are
/// still in flight when the failure detector starts counting), and 5
/// leaves, a 50-token burst after each event. Twelve membership events
/// over up to 14 nodes make `ViewGossip` a quarter of the deliveries
/// (1,691 of 7,028), and the rescue sweep after the crash installs two
/// replacements, so who re-gossips, to whom and when all land in
/// `messages_delivered`, `timers_fired`, `acn.dist.fd.gossip`, the
/// latencies, the rescue counters and the detection time. Captured at
/// the commit before gossip began to carry only what changed (PR 24),
/// while every message still held the sender's whole view.
#[test]
fn seeded_churn_run_matches_full_state_gossip_capture() {
    let width = 16;
    let registry = Registry::new();
    let mut d = Deployment::new(width, 8, 0xF100D);
    d.attach_telemetry(&registry);
    let mut injected = 0u64;
    let mut burst = |d: &mut Deployment| {
        for i in 0..50usize {
            d.inject((i * 3) % width);
            injected += 1;
            d.run_for(20);
        }
    };
    for _ in 0..6 {
        d.join_node();
        burst(&mut d);
    }
    let victim = d.world.borrow().ring.nodes().nth(2).expect("14 nodes");
    d.crash_node(victim).expect("not the last node");
    burst(&mut d);
    for _ in 0..5 {
        let leaver = d.world.borrow().ring.nodes().next().expect("ring is not empty");
        d.leave_node(leaver);
        burst(&mut d);
    }
    assert!(d.settle(300), "churn did not settle");
    d.run_for(100_000);
    let fp = fault_digest(&d, &registry, injected);
    let golden: Vec<u64> = vec![
        600, 7028, 207, 0, 1403, 8641, 1, 0, 548, 140, 1680, 600, 240529, 6316, 7028, 1403, 1,
        0, 548, 600, 38, 38, 38, 38, 38, 38, 38, 38, 37, 37, 37, 37, 37, 37, 37, 37, 0, 0, 140,
        23, 17, 10, 1691, 1, 2, 0, 1550229966574830179, 6000, 11106,
    ];
    assert_eq!(fp, golden, "churn-run fingerprint drifted");
}

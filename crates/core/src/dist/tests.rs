use super::*;
use std::cell::RefCell;
use std::rc::Rc;
use acn_overlay::NodeId;
use acn_simnet::ProcessId;
use acn_topology::ComponentId;
use acn_bitonic::step::is_step_sequence;

#[test]
fn single_node_deployment_counts() {
    let mut d = Deployment::new(8, 1, 7);
    for i in 0..24 {
        d.inject(i % 8);
    }
    d.run_for(50_000);
    let c = d.collector();
    assert_eq!(c.total(), 24);
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn deployment_self_organizes_and_counts() {
    let mut d = Deployment::new(64, 32, 13);
    assert!(d.settle(50), "network did not settle");
    assert!(d.world.borrow().splits_done > 0, "no splits happened");
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree), "invalid live cut: {cut}");
    let mut seed = 5u64;
    for _ in 0..200 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
        d.inject(wire);
    }
    d.run_for(200_000);
    let c = d.collector();
    assert_eq!(c.total(), 200, "tokens lost or duplicated");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn tokens_survive_reconfiguration() {
    let mut d = Deployment::new(32, 24, 99);
    let mut injected = 0u64;
    let mut seed = 1u64;
    for _ in 0..40 {
        for _ in 0..5 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 32;
            d.inject(wire);
            injected += 1;
        }
        d.run_for(500); // interleave with reconfiguration
    }
    assert!(d.settle(100), "network did not settle");
    d.run_for(100_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "token conservation violated");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn join_and_leave_churn() {
    let mut d = Deployment::new(64, 4, 21);
    assert!(d.settle(50));
    let mut injected = 0u64;
    let mut seed = 3u64;
    for _ in 0..30 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
        d.inject(wire);
        injected += 1;
    }
    // Grow to 40 nodes.
    for _ in 0..36 {
        d.join_node();
        d.run_for(300);
    }
    assert!(d.settle(100), "did not settle after joins");
    assert!(d.world.borrow().splits_done > 0, "growth did not split");
    for _ in 0..30 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
        d.inject(wire);
        injected += 1;
    }
    // Shrink back to 6 nodes (graceful leaves).
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(34).collect();
    for v in victims {
        d.leave_node(v);
        d.run_for(300);
        d.run_for(2 * d.level_period);
    }
    assert!(d.settle(200), "did not settle after leaves");
    assert!(d.world.borrow().merges_done > 0, "shrink did not merge");
    for _ in 0..30 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
        d.inject(wire);
        injected += 1;
    }
    d.run_for(300_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "token conservation violated");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn crash_and_repair() {
    let mut d = Deployment::new(16, 8, 55);
    assert!(d.settle(50));
    let mut injected = 0u64;
    let mut seed = 9u64;
    for _ in 0..40 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 16;
        d.inject(wire);
        injected += 1;
    }
    d.run_for(100_000);
    assert_eq!(d.collector().total(), injected);
    // Crash a node that hosts at least one component.
    let victim = {
        let pids: Vec<ProcessId> =
            d.sim.process_ids().filter(|p| *p != COLLECTOR).collect();
        let mut victim = None;
        for pid in pids {
            if let Some(Proc::Node(np)) = d.sim.process(pid) {
                if np.components().next().is_some() && !np.departed() {
                    victim = Some(np.node_id());
                    break;
                }
            }
        }
        victim.expect("some node hosts a component")
    };
    d.crash_node(victim).expect("not the last node");
    d.settle(64);
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree), "repair left an invalid cut: {cut}");
    // Counting resumes and new tokens are conserved.
    let before_new = d.collector().total();
    let mut new_tokens = 0u64;
    for _ in 0..40 {
        let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 16;
        d.inject(wire);
        new_tokens += 1;
    }
    assert!(d.settle(100));
    d.run_for(200_000);
    let c = d.collector();
    assert!(
        c.total() >= before_new + new_tokens,
        "post-repair tokens lost: {} vs {}",
        c.total(),
        before_new + new_tokens
    );
    // The lost component forgot a bounded amount of round-robin
    // offset: the counts may deviate from a step sequence by at most
    // the lost width.
    let max = *c.counts.iter().max().unwrap();
    let min = *c.counts.iter().min().unwrap();
    assert!(max - min <= 1 + 16, "crash deviation too large: {:?}", c.counts);
}

#[test]
fn join_storm_without_settling() {
    // 30 joins with no settling in between, traffic interleaved.
    let mut d = Deployment::new(32, 2, 0x5707);
    let mut seed = 11u64;
    let mut injected = 0u64;
    for burst in 0..30 {
        d.join_node();
        if burst % 2 == 0 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
            injected += 1;
        }
        d.run_for(73); // deliberately not a multiple of anything
    }
    assert!(d.settle(300), "join storm did not settle");
    d.run_for(200_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "token conservation violated");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    assert!(d.world.borrow().splits_done > 0);
}

#[test]
fn crash_during_reconfiguration() {
    // Crash a component-hosting node while the network is still
    // splitting/merging; repair must restore a valid cut and new
    // traffic must flow.
    let mut d = Deployment::new(32, 4, 0xCAFE);
    d.run_for(2_500); // mid-reconfiguration, deliberately unsettled
    for _ in 0..12 {
        d.join_node();
        d.run_for(400);
    }
    // Crash the first node that hosts any component.
    let victim = d
        .sim
        .process_ids()
        .filter(|p| *p != COLLECTOR)
        .find_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np))
                if np.components().next().is_some() && !np.departed() =>
            {
                Some(np.node_id())
            }
            _ => None,
        })
        .expect("someone hosts a component");
    d.crash_node(victim).expect("not the last node");
    // Let in-flight protocol messages to the dead node drain, then
    // repair and settle.
    d.run_for(20_000);
    d.settle(64);
    assert!(d.settle(300), "network did not settle after crash+repair");
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree), "invalid cut after repair: {cut}");
    // New traffic flows and is conserved.
    let before = d.collector().total();
    let mut seed = 3u64;
    for _ in 0..25 {
        d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
    }
    d.run_for(300_000);
    assert_eq!(d.collector().total(), before + 25, "post-crash tokens lost");
}

#[test]
fn crash_last_node_is_recoverable_error() {
    let mut d = Deployment::new(8, 1, 42);
    let node = d.world.borrow().ring.nodes().next().expect("one node");
    assert_eq!(d.crash_node(node), Err(CrashError::LastLiveNode));
    // The refused crash left the deployment fully functional.
    d.inject(0);
    d.run_for(50_000);
    assert_eq!(d.collector().total(), 1);
}

#[test]
fn crash_recovers_in_protocol_without_repair() {
    let mut d = Deployment::new(16, 4, 0xBEEF);
    assert!(d.settle(50));
    let victim = d
        .sim
        .process_ids()
        .filter(|p| *p != COLLECTOR)
        .find_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np))
                if np.components().next().is_some() && !np.departed() =>
            {
                Some(np.node_id())
            }
            _ => None,
        })
        .expect("someone hosts a component");
    d.crash_node(victim).expect("not the last node");
    // No harness help: the failure detector must
    // suspect the crash and the rescue sweep must re-cover the cut
    // purely via protocol messages.
    assert!(d.settle(100), "in-protocol recovery did not converge");
    let w = d.world.borrow();
    let detected_at = *w.detections.get(&victim).expect("crash went undetected");
    let crashed_at = w.crashed[&victim];
    assert!(
        detected_at - crashed_at <= 16 * d.level_period,
        "detection took {} periods",
        (detected_at - crashed_at) / d.level_period
    );
    drop(w);
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree), "cut not re-covered: {cut}");
    // Counting still works end to end.
    let before = d.collector().total();
    for i in 0..16 {
        d.inject(i % 16);
    }
    d.run_for(200_000);
    assert_eq!(d.collector().total(), before + 16, "post-rescue tokens lost");
}

#[test]
fn tiny_frozen_buffer_cap_conserves_tokens() {
    // With a capacity-1 frozen buffer, reconfiguration windows shed
    // tokens back to their senders (TokenBusy); backoff + retry
    // must still deliver every one exactly once.
    let mut d = Deployment::new(32, 6, 0x77);
    d.set_frozen_buffer_cap(1);
    let mut seed = 1u64;
    let mut injected = 0u64;
    for i in 0..120u64 {
        d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
        injected += 1;
        d.run_for(97);
        if i % 40 == 20 {
            d.join_node();
        }
    }
    assert!(d.settle(300), "did not settle under backpressure");
    d.run_for(300_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "token conservation violated under shed");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn leave_everything_back_to_one_node() {
    // Shrink all the way down to a single node: the network must end
    // as (at most a few) coarse components on that node.
    let mut d = Deployment::new(16, 12, 0x0E0);
    assert!(d.settle(100));
    let mut seed = 9u64;
    for _ in 0..30 {
        d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 16);
    }
    d.run_for(100_000);
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(11).collect();
    for v in victims {
        d.leave_node(v);
        d.run_for(500);
        d.run_for(2 * d.level_period);
    }
    assert!(d.settle(300), "did not settle at N=1");
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree));
    assert_eq!(cut.leaves().len(), 1, "N=1 must converge to the root: {cut}");
    for _ in 0..10 {
        d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 16);
    }
    d.run_for(100_000);
    assert_eq!(d.collector().total(), 40);
    assert!(is_step_sequence(&d.collector().counts));
}

#[test]
fn lossy_tokens_are_delivered_exactly_once() {
    // 15% token loss: the ack/retransmit/dedup layer must still
    // deliver every token exactly once, with the step property.
    let mut d = Deployment::with_loss(32, 16, 0x1055, 150);
    assert!(d.settle(100));
    let mut seed = 5u64;
    let mut injected = 0u64;
    for _ in 0..40 {
        for _ in 0..4 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
            injected += 1;
        }
        d.run_for(400);
    }
    assert!(d.settle(400), "lossy deployment did not settle");
    d.run_for(400_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "exactly-once delivery violated");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    let world = d.world.borrow();
    assert!(world.token_retransmits > 0, "loss never exercised retransmission");
    assert!(d.sim.stats().messages_lost > 0, "the lossy channel never dropped");
}

#[test]
fn lossy_tokens_survive_churn() {
    let mut d = Deployment::with_loss(32, 4, 0x1056, 100);
    assert!(d.settle(100));
    let mut seed = 7u64;
    let mut injected = 0u64;
    for round in 0..30 {
        if round % 3 == 0 {
            d.join_node();
        }
        for _ in 0..3 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
            injected += 1;
        }
        d.run_for(600);
    }
    assert!(d.settle(400), "lossy churn did not settle");
    d.run_for(400_000);
    let c = d.collector();
    assert_eq!(c.total(), injected, "exactly-once delivery violated under churn");
    assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
}

#[test]
fn latency_accounting() {
    let mut d = Deployment::new(16, 16, 77);
    assert!(d.settle(50));
    for i in 0..50 {
        d.inject(i % 16);
    }
    d.run_for(200_000);
    let c = d.collector();
    assert_eq!(c.total(), 50);
    assert!(c.max_latency >= c.total_latency / 50);
}

/// A merge whose parent hashes to a peer, and that peer crashes while
/// the merged parent is in flight to it: the coordinator must still
/// hold the parent and hand it to the next owner. Returns `None` when
/// the seed never opens that window.
fn merge_parent_target_crash(seed: u64) -> Option<()> {
    let mut d = Deployment::new(16, 8, seed);
    assert!(d.settle(100), "seed {seed}: boot did not settle");
    for _ in 0..4 {
        d.join_node();
    }
    assert!(d.settle(100), "seed {seed}: joins did not settle");
    // A split-list entry whose parent now hashes to somebody else.
    let (coordinator, id, owner) = d
        .sim
        .process_ids()
        .filter_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np)) if !np.departed() => Some(np),
            _ => None,
        })
        .find_map(|np| {
            let remote = |id: &&ComponentId| np.owner_of(id) != np.node_id();
            let id = *np.split_list().iter().find(remote)?;
            Some((np.node_id(), id, np.owner_of(&id)))
        })?;
    d.sim.set_timer_external(ProcessId(coordinator.0), 0, force_merge_tag(&id));
    let in_flight = |d: &Deployment| match d.sim.process(ProcessId(coordinator.0)) {
        Some(Proc::Node(np)) => np.hand_offs_in_flight().any(|(c, to)| *c == id && to == owner),
        _ => false,
    };
    for _ in 0..20 * d.level_period {
        if in_flight(&d) {
            break;
        }
        d.run_for(1);
    }
    if !in_flight(&d) {
        return None;
    }
    d.crash_node(owner).expect("not the last node");
    assert!(d.settle(300), "seed {seed}: the merge of {id} never finished");
    let (cut, _) = d.live_cut();
    assert!(cut.is_valid(&d.world.borrow().tree), "seed {seed}: invalid cut {cut}");
    let before = d.collector().total();
    for wire in 0..16 {
        d.inject(wire);
    }
    d.run_for(200_000);
    assert_eq!(d.collector().total(), before + 16, "seed {seed}: post-recovery tokens");
    Some(())
}

#[test]
fn merge_parent_hand_off_survives_a_crashed_target() {
    for seed in [0, 3, 12] {
        merge_parent_target_crash(seed).expect("the seed reaches the hand-off window");
    }
}

/// The regression guard on what gossip carries, counted rather than
/// timed: through 8 joins and 8 leaves every live view ends equal to
/// the harness's ground truth, and a gossip message held under three
/// ids on average — a joiner's first contacts are the only ones that
/// hold the roster. (Every message held the sender's whole view once:
/// 20 to 28 ids here, about a hundred on the `dist_churn` benchmark.)
#[test]
fn gossip_payload_does_not_grow_with_the_roster() {
    let registry = acn_telemetry::Registry::new();
    let mut d = Deployment::new(16, 12, 0x6055);
    d.attach_telemetry(&registry);
    assert!(d.settle(100), "boot did not settle");
    let ground_truth = |d: &Deployment| d.world.borrow().ring.nodes().collect::<Vec<NodeId>>();
    let mut roster = ground_truth(&d);
    for _ in 0..8 {
        roster.push(d.join_node());
        assert!(d.settle(100), "join did not settle");
    }
    let leavers: Vec<NodeId> = ground_truth(&d).into_iter().step_by(2).take(8).collect();
    for &leaver in &leavers {
        d.leave_node(leaver);
        assert!(d.settle(100), "leave did not settle");
    }
    let live = ground_truth(&d);
    assert_eq!(live.len(), 12);
    for &node in &live {
        let Some(Proc::Node(np)) = d.sim.process(ProcessId(node.0)) else {
            panic!("live node {node:?} has no process")
        };
        assert_eq!(np.view.ring().nodes().collect::<Vec<_>>(), live, "{node:?}: live members");
        assert!(leavers.iter().all(|&l| np.view.is_dead(l)), "{node:?}: a leaver is not tombstoned");
        // 20 known and 8 of them dead: the whole roster, joiners too.
        assert_eq!(np.view.epoch(), (roster.len() + leavers.len()) as u64, "{node:?}: roster");
    }
    let snap = registry.snapshot();
    let messages = snap.counter("acn.dist.fd.gossip").expect("gossip was sent");
    let ids = snap.counter("acn.dist.fd.gossip_ids").expect("and it carried ids");
    assert!(ids >= messages, "every message of a wave names someone");
    assert!(ids <= 3 * messages, "{ids} ids in {messages} gossip messages");
}

/// Fires the first enabled event `pick` accepts.
fn fire_where(d: &mut Deployment, what: &str, pick: impl Fn(&Msg) -> bool) {
    let key = d
        .sim
        .enabled_events()
        .into_iter()
        .find(|e| e.from.is_some() && d.sim.pending_payload(e.key).is_some_and(&pick))
        .unwrap_or_else(|| panic!("no enabled {what}"))
        .key;
    assert!(d.sim.fire(key));
}

/// Delivers every message in flight, oldest link head first, until
/// none is left; timers stay pending.
fn deliver_messages(d: &mut Deployment) {
    while let Some(e) = d.sim.enabled_events().into_iter().find(|e| e.from.is_some()) {
        assert!(d.sim.fire(e.key));
    }
}

/// A token drained from a frozen buffer is sent on *chained*: an
/// earlier obligation already delivered that `(token, addr)` somewhere,
/// and a copy of it may still turn up. The receiver's ledger entry for
/// the chained arrival must survive the sender's watermark passing its
/// guid — here a second copy, re-injected from outside after the
/// watermark moved on, still meets the entry and is dropped.
#[test]
fn chained_arrival_entry_outlives_its_watermark() {
    let config = acn_simnet::SimConfig { base_latency: 5, jitter: 0, loss_per_mille: 0, seed: 3 };
    let mut d = Deployment::with_sim(4, 2, 3, config, acn_simnet::DeliveryPolicy::External);
    let (tree, root) = (d.world.borrow().tree, ComponentId::root());
    let holder = d.world.borrow_mut().host_of(&root);
    let children = tree.children(&root);
    let away = children
        .iter()
        .map(|c| (*c, d.world.borrow_mut().host_of(c)))
        .find(|(_, owner)| *owner != holder)
        .expect("this ring puts a child of the root on the other node");
    let wire = (0..4)
        .find(|&w| {
            let addr = acn_topology::network_input_address(&tree, w, acn_topology::WiringStyle::Ahs);
            addr.candidates().any(|c| c == away.0)
        })
        .expect("the child away covers an input wire");
    let (b, c) = (ProcessId(holder.0), ProcessId(away.1 .0));

    // The holder freezes the root to split it, and a token arriving
    // meanwhile is buffered there.
    d.sim.set_timer_external(b, 0, force_split_tag(&root));
    let split = d.sim.enabled_events().into_iter().find(|e| e.timer_tag.is_some_and(|t| t > 3));
    assert!(d.sim.fire(split.expect("the force-split timer").key));
    d.sim.send_external(b, Msg::ClientInject { wire });
    fire_where(&mut d, "inject", |m| matches!(m, Msg::ClientInject { .. }));
    // The children land; the split finishes and drains the buffer: the
    // token goes to the child away, chained, and is processed there.
    deliver_messages(&mut d);
    let addr = acn_topology::network_input_address(&tree, wire, acn_topology::WiringStyle::Ahs);
    assert_eq!(d.collector().total(), 1);
    // A second token from the holder to the same node carries a
    // watermark past the chained guid (it was acked).
    d.sim.send_external(b, Msg::ClientInject { wire });
    deliver_messages(&mut d);
    assert_eq!(d.collector().total(), 2);
    // A second copy of the first token at the same wire reaches the
    // child away under a guid never seen there.
    let copy = Token { id: 1, addr, injected_at: 0, hops: 1 };
    let h = super::msg::Header {
        guid: u64::MAX,
        attempt: super::msg::ATTEMPT_CACHED,
        acked_below: 0,
        chained: false,
    };
    d.sim.send_external(c, copy.into_msg(h));
    deliver_messages(&mut d);
    assert_eq!(d.world.borrow().duplicate_traversal_drops, 1, "the ledger dropped the copy");
    let collector = d.collector();
    assert_eq!((collector.total(), collector.duplicate_drops), (2, 0));
}

/// A fork is a deployment of its own: every node of it points at the
/// fork's world, running it leaves the original where it was, and the
/// two then run alike (the seeded policy's latency draws included).
#[test]
fn a_fork_runs_like_the_original_and_apart_from_it() {
    let mut d = Deployment::new(32, 8, 0xF0);
    let mut seed = 3u64;
    for _ in 0..40 {
        d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
    }
    d.run_for(3_000);
    let mut fork = d.fork();
    let worlds = |d: &Deployment| -> Vec<Rc<RefCell<World>>> {
        d.sim
            .process_ids()
            .filter_map(|pid| match d.sim.process(pid) {
                Some(Proc::Node(np)) => Some(Rc::clone(&np.world)),
                _ => None,
            })
            .collect()
    };
    assert_eq!(worlds(&fork).len(), 8);
    assert!(worlds(&fork).iter().all(|w| Rc::ptr_eq(w, &fork.world)));
    assert!(!Rc::ptr_eq(&fork.world, &d.world));
    let before = (d.canonical_fingerprint(), d.sim.stats(), d.collector().total());
    fork.run_for(100_000);
    assert_eq!((d.canonical_fingerprint(), d.sim.stats(), d.collector().total()), before);
    d.run_for(100_000);
    assert_eq!(fork.canonical_fingerprint(), d.canonical_fingerprint());
    assert_eq!(fork.sim.stats(), d.sim.stats());
    assert_eq!(fork.collector().counts, d.collector().counts);
    assert_eq!(fork.world.borrow().splits_done, d.world.borrow().splits_done);
    assert_eq!(fork.collector().total(), 40);
}

#[test]
#[should_panic(expected = "cannot fork a deployment with a registry, tracer or self-profiler")]
fn forking_a_deployment_with_a_tracer_panics() {
    let mut d = Deployment::new(8, 2, 1);
    d.attach_tracer(&acn_trace::Tracer::new(16));
    let _ = d.fork();
}

#[test]
#[should_panic(expected = "cannot fork a deployment with a registry, tracer or self-profiler")]
fn forking_a_deployment_with_a_registry_panics() {
    let mut d = Deployment::new(8, 2, 1);
    d.attach_telemetry(&acn_telemetry::Registry::new());
    let _ = d.fork();
}

#[test]
#[should_panic(expected = "cannot fork a deployment with a registry, tracer or self-profiler")]
fn forking_a_deployment_with_a_self_profiler_panics() {
    let mut d = Deployment::new(8, 2, 1);
    d.sim.attach_self_profiler(&acn_trace::Tracer::new(16));
    let _ = d.fork();
}

/// The node process of `node`.
fn node_proc(d: &Deployment, node: NodeId) -> &NodeProc {
    match d.sim.process(ProcessId(node.0)) {
        Some(Proc::Node(np)) => np,
        _ => panic!("{node:?} has no node process"),
    }
}

/// Where the hash of `id`'s name puts it in `node`'s own view.
fn owner_in_view(d: &Deployment, node: NodeId, id: &ComponentId) -> NodeId {
    let np = node_proc(d, node);
    np.view.owner_of_name(np.tree.preorder_index(id))
}

/// Whether `node`'s last migration sweep migrated nothing and nothing
/// it reads has moved since: its next sweep is skipped.
fn sweep_settled(d: &Deployment, node: NodeId) -> bool {
    let np = node_proc(d, node);
    np.settled == Some((np.view.epoch(), np.components.sweep_stamp()))
}

/// The live nodes hosting `id`.
fn hosts_of(d: &Deployment, id: &ComponentId) -> Vec<NodeId> {
    d.sim
        .process_ids()
        .filter_map(|pid| match d.sim.process(pid) {
            Some(Proc::Node(np)) if np.components.contains_key(id) => Some(np.node_id()),
            _ => None,
        })
        .collect()
}

/// Joins nodes, one level period apart, until `node`'s view names a
/// joiner the owner of one of `ids`; returns that id and joiner, or
/// `None` after `joins` joins.
fn join_until_rehomed(
    d: &mut Deployment,
    node: NodeId,
    ids: &[ComponentId],
    joins: usize,
) -> Option<(ComponentId, NodeId)> {
    let mut joined = Vec::new();
    for _ in 0..joins {
        joined.push(d.join_node());
        d.run_for(4 * d.level_period);
        let rehomed = ids.iter().find_map(|id| {
            let owner = owner_in_view(d, node, id);
            joined.contains(&owner).then_some((*id, owner))
        });
        if rehomed.is_some() {
            return rehomed;
        }
    }
    None
}

/// Boots a settled deployment and finds a node hosting non-root
/// components; `None` when this seed's boot split nothing.
fn boot_with_a_host(seed: u64) -> Option<(Deployment, NodeId, Vec<ComponentId>)> {
    let mut d = Deployment::new(32, 8, seed);
    assert!(d.settle(100), "seed {seed}: boot did not settle");
    let host = d.sim.process_ids().find_map(|pid| match d.sim.process(pid) {
        Some(Proc::Node(np)) => {
            let ids: Vec<ComponentId> =
                np.components().map(|(id, _)| *id).filter(|id| !id.is_root()).collect();
            (!ids.is_empty()).then(|| (np.node_id(), ids))
        }
        _ => None,
    });
    host.map(|(x, ids)| (d, x, ids))
}

/// Runs `scenario` on seeds from 0 until one reaches its window, and
/// asserts that one of the first 32 does.
fn on_the_first_seed_that_reaches(scenario: impl Fn(u64) -> Option<()>) {
    assert!(
        (0..32).any(|seed| scenario(seed).is_some()),
        "no seed of the first 32 reaches the window"
    );
}

/// A thawed component is one a migration sweep can shed again. A
/// node's components are frozen for a merge (its coordinator's
/// `FreezeCollect`), a join re-homes one of them while frozen, and the
/// sweeps skip it; once the merge is aborted (`AbortFreeze`) the next
/// sweep must shed it to the joiner, though neither the view nor the
/// hosted set moved since the last sweep settled.
#[test]
fn a_thawed_component_is_shed_to_the_joiner_that_owns_it() {
    on_the_first_seed_that_reaches(|seed| {
        let (mut d, x, ids) = boot_with_a_host(seed)?;
        for &id in &ids {
            let parent = id.parent().expect("not the root");
            d.sim.send_external(ProcessId(x.0), Msg::FreezeCollect { id, parent });
        }
        d.run_for(d.level_period);
        let frozen = |d: &Deployment| node_proc(d, x).hosted_components().filter(|c| c.2).count();
        assert_eq!(frozen(&d), ids.len(), "seed {seed}: frozen for the merge");
        let (id, joiner) = join_until_rehomed(&mut d, x, &ids, 4)?;
        d.run_for(4 * d.level_period);
        assert_eq!(hosts_of(&d, &id), vec![x], "seed {seed}: {id} stays frozen where it was");
        assert!(sweep_settled(&d, x), "seed {seed}: the sweeps skip the frozen {id}");

        d.sim.send_external(ProcessId(x.0), Msg::AbortFreeze { id });
        d.run_for(3 * d.level_period);
        assert_eq!(
            hosts_of(&d, &id),
            vec![joiner],
            "seed {seed}: {id} was not shed after its thaw"
        );
        Some(())
    });
}

/// A hosted component whose hand-off is dropped is one a migration
/// sweep can shed again. A node can host a component live while a
/// hand-off of the same id is still in flight — `complete_merge` hands
/// a merged parent off without asking whether a copy (say, one a
/// ghost finished merging) is already live here — and the sweeps skip
/// it. The entry is set up directly here, its target then crashes, and a join
/// re-homes the component; once the hand-off is re-driven to the
/// joiner and acknowledged, the next sweep must shed the live copy,
/// though the hosted set did not move.
#[test]
fn a_component_whose_hand_off_is_dropped_is_shed_to_the_joiner_that_owns_it() {
    on_the_first_seed_that_reaches(|seed| {
        let (mut d, x, ids) = boot_with_a_host(seed)?;
        let target = d.world.borrow().ring.nodes().find(|&n| n != x).expect("another node");
        let Some(Proc::Node(np)) = d.sim.process_mut(ProcessId(x.0)) else { unreachable!() };
        for id in &ids {
            let hosted = &np.components[id];
            let entry = super::handoff::PendingHandOff {
                comp: hosted.comp.clone(),
                seen: hosted.seen.to_pinned(),
                buffer: Vec::new(),
                sent_to: target,
                cause: super::handoff::Cause::Migration,
            };
            np.handoffs.insert(*id, entry);
        }
        let (id, joiner) = join_until_rehomed(&mut d, x, &ids, 4)?;
        d.run_for(4 * d.level_period);
        assert_eq!(hosts_of(&d, &id), vec![x], "seed {seed}");
        assert!(sweep_settled(&d, x), "seed {seed}: the sweeps skip {id} while it is in flight");

        d.crash_node(target).expect("not the last node");
        assert!(d.settle(200), "seed {seed}: the crash did not settle");
        assert!(node_proc(&d, x).hand_offs_in_flight().next().is_none(), "seed {seed}: landed");
        // `settle` can return before the sweep after the last ack.
        d.run_for(2 * d.level_period);
        assert_eq!(
            hosts_of(&d, &id),
            vec![joiner],
            "seed {seed}: {id} was not shed after its hand-off was dropped"
        );
        Some(())
    });
}

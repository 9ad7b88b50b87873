//! Microprobes: one public function of one layer called in a tight
//! loop for [`READING`], reported as time per call. They do not depend
//! on the workload: a traced run of one workload takes them beside it,
//! `acn-perf run --traced` takes them once for all seven.
//!
//! `_2t_` probes run two threads at once and report wall time per call
//! over both (inverse aggregate throughput).

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acn_bitonic::{AtomicNetworkCounter, CentralCounter, ReactiveTreeCounter, TreeCounter};
use acn_core::component::{merge_components, split_component};
use acn_core::dist::Deployment;
use acn_core::{Component, ShardedFrontEnd};
use acn_overlay::{ChordNet, NodeId, Ring};
use acn_simnet::{Context, DeliveryPolicy, Process, ProcessId, SimConfig, Simulator};
use acn_sync::{
    CachePadded, ExchangeSlot, OfferOutcome, Ordering, RealSync, SyncApi, SyncAtomicU64,
    SyncSnapshot,
};
use acn_topology::{resolve_output, ComponentId, Cut, CutWiring, Tree, WiringStyle};
use acn_trace::Tracer;

use crate::counter::{
    level2_splits, ns_per_next, ns_per_next_threads, Counter, Local, Periodic, Shared, SharedLocked,
};
use crate::spans::Recorder;
use crate::workload::{explore, Rng, NOMINAL_SECONDS};

const WIDTH: usize = 64;
/// Nodes in the overlay, estimator and Chord probes.
const OVERLAY_NODES: usize = 32;

type Atomic = <RealSync as SyncApi>::AtomicU64;
/// Metric name and value of each reading taken.
pub type Readings = Vec<(&'static str, f64)>;

/// How long one reading times calls at the nominal budget; other
/// budgets scale it like every other length.
const READING: Duration = Duration::from_secs(1);

/// One probe: its span, the threads it needs, the readings it takes
/// and the function that takes them, timing `unit` of calls for each.
pub struct Probe {
    pub span: &'static str,
    threads: usize,
    pub names: &'static [&'static str],
    run: fn(Duration, u64) -> Readings,
}

const fn probe(
    span: &'static str,
    threads: usize,
    names: &'static [&'static str],
    run: fn(Duration, u64) -> Readings,
) -> Probe {
    Probe {
        span,
        threads,
        names,
        run,
    }
}

/// One-thread probes first, then the two-thread ones back to back
/// behind one warm-up (see [`run_all`]).
pub const PROBES: &[Probe] = &[
    probe(
        "probe.sync.fetch_add",
        1,
        &["sync.fetch_add_ns"],
        sync_fetch_add,
    ),
    probe(
        "probe.sync.snapshot_load",
        1,
        &["sync.snapshot_load_ns"],
        sync_snapshot_load,
    ),
    probe(
        "probe.component.process_token",
        1,
        &["component.process_token_ns"],
        component_process_token,
    ),
    probe(
        "probe.component.split_merge",
        1,
        &["component.split_us", "component.merge_us"],
        component_split_merge,
    ),
    probe(
        "probe.topology.wiring",
        1,
        &[
            "topology.cut_wiring_build_us",
            "topology.out_neighbor_ns",
            "topology.resolve_output_ns",
        ],
        topology_wiring,
    ),
    probe(
        "probe.counters.sequential",
        1,
        &["local.next_value_ns", "periodic.next_1t_ns"],
        counters_sequential,
    ),
    probe(
        "probe.counters.one_thread",
        1,
        &[
            "concurrent.next_value_1t_ns",
            "concurrent.locked_next_value_1t_ns",
            "frontend.next_value_1t_ns",
            "bitonic.central_next_ns",
            "bitonic.tree_next_ns",
            "bitonic.reactive_next_ns",
            "bitonic.atomic_bitonic64_next_1t_ns",
        ],
        counters_one_thread,
    ),
    probe(
        "probe.concurrent.next_batch",
        1,
        &["concurrent.next_batch64_ns_per_token"],
        concurrent_next_batch,
    ),
    probe(
        "probe.concurrent.split_merge",
        1,
        &["concurrent.split_us", "concurrent.merge_us"],
        concurrent_split_merge,
    ),
    probe(
        "probe.overlay.lookups",
        1,
        &[
            "overlay.owner_of_name_ns",
            "overlay.lookup_hops_mean",
            "overlay.chord_lookup_ns",
        ],
        overlay_lookups,
    ),
    probe(
        "probe.estimator.node_level",
        1,
        &["estimator.node_level_ns"],
        estimator_node_level,
    ),
    probe(
        "probe.simnet.bare",
        1,
        &[
            "simnet.bare_event_ns",
            "simnet.bare_timer_ns",
            "simnet.external_fire_ns",
        ],
        simnet_bare,
    ),
    probe(
        "probe.check.replay",
        1,
        &["check.replay_boot_us", "check.fingerprint_us"],
        check_replay,
    ),
    probe(
        "probe.sync.false_sharing",
        2,
        &["sync.fetch_add_shared_2t_ns", "sync.fetch_add_padded_2t_ns"],
        sync_false_sharing,
    ),
    probe(
        "probe.sync.exchange",
        2,
        &["sync.exchange_roundtrip_ns"],
        sync_exchange,
    ),
    probe(
        "probe.counters.two_threads",
        2,
        &[
            "concurrent.next_value_2t_ns",
            "frontend.next_value_2t_ns",
            "bitonic.atomic_bitonic64_next_2t_ns",
        ],
        counters_two_threads,
    ),
    probe(
        "probe.concurrent.starved",
        2,
        &["concurrent.starved_tokens_per_s"],
        concurrent_starved,
    ),
];

/// Threads the probes load the host with.
pub fn threads() -> usize {
    PROBES.iter().map(|p| p.threads).max().unwrap_or(1)
}

/// Whether `name` is a reading a probe takes (and not a workload's).
pub fn is_reading(name: &str) -> bool {
    PROBES.iter().any(|p| p.names.contains(&name))
}

/// Runs every probe inside its span, each reading timing one unit of
/// calls: [`READING`] scaled to the run's budget. Two threads are kept
/// busy for one and a half units before the first two-thread probe: on
/// the sandbox this benchmark was defined on, two threads started after
/// a one-thread stretch share one core for about a second before the
/// second core is handed over, and a probe would measure that, not the
/// layer.
pub fn run_all(budget_s: f64, seed: u64, rec: &mut Recorder) -> Readings {
    let unit = READING.mul_f64(budget_s / NOMINAL_SECONDS);
    let mut out = Readings::new();
    let mut warm = false;
    for probe in PROBES {
        if probe.threads > 1 && !warm {
            rec.call("probe.warm_up", |_| spin_two_threads(unit * 3 / 2));
            warm = true;
        }
        out.extend(rec.call(probe.span, |_| (probe.run)(unit, seed)));
    }
    out
}

/// Two threads, each adding to its own padded counter, for `length`;
/// returns wall nanoseconds per add over both.
fn spin_two_threads(length: Duration) -> f64 {
    let cells = [
        CachePadded::new(Atomic::new(0)),
        CachePadded::new(Atomic::new(0)),
    ];
    hammer([&cells[0], &cells[1]], length)
}

/// Two threads hammering one counter each until `budget` has passed.
fn hammer(cells: [&Atomic; 2], budget: Duration) -> f64 {
    let start = Instant::now();
    let calls: u64 = std::thread::scope(|scope| {
        let handles = cells.map(|cell| {
            scope.spawn(move || {
                let mut calls = 0u64;
                while start.elapsed() < budget {
                    for _ in 0..1024 {
                        cell.fetch_add(1, Ordering::Relaxed);
                    }
                    calls += 1024;
                }
                calls
            })
        });
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Nanoseconds per call of `f`, called in batches of `batch` until
/// `budget` has passed (at least one batch).
fn ns_per_call(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        if start.elapsed() >= budget {
            return start.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

fn ring(nodes: usize, seed: u64) -> (Ring, Vec<NodeId>) {
    let mut ring = Ring::new();
    let mut state = seed;
    for _ in 0..nodes {
        ring.add_random_node(&mut state);
    }
    let ids = ring.nodes().collect();
    (ring, ids)
}

fn sync_fetch_add(unit: Duration, _seed: u64) -> Readings {
    let cell = Atomic::new(0);
    let ns = ns_per_call(unit, 1024, || {
        std::hint::black_box(cell.fetch_add(1, Ordering::Relaxed));
    });
    vec![("sync.fetch_add_ns", ns)]
}

/// Two threads, each hammering its own counter: side by side in one
/// cache line, then each in its own padded line.
fn sync_false_sharing(unit: Duration, _seed: u64) -> Readings {
    let shared = [Atomic::new(0), Atomic::new(0)];
    vec![
        (
            "sync.fetch_add_shared_2t_ns",
            hammer([&shared[0], &shared[1]], unit),
        ),
        ("sync.fetch_add_padded_2t_ns", spin_two_threads(unit)),
    ]
}

fn sync_snapshot_load(unit: Duration, _seed: u64) -> Readings {
    let cell = <RealSync as SyncApi>::Snapshot::<u64>::new(Arc::new(7));
    let ns = ns_per_call(unit, 1024, || {
        std::hint::black_box(cell.load());
    });
    vec![("sync.snapshot_load_ns", ns)]
}

/// One thread offers, the other fulfils; a round trip is one offer
/// collected by its offerer.
fn sync_exchange(unit: Duration, _seed: u64) -> Readings {
    let slot: ExchangeSlot<Vec<u64>> = ExchangeSlot::new();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let trips = std::thread::scope(|scope| {
        let combiner = scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if slot.pending_offer() == Some(1) {
                    let _ = slot.fulfil(1, vec![0]);
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut trips = 0u64;
        while start.elapsed() < unit {
            if matches!(slot.offer(1, 4096), OfferOutcome::Exchanged(_)) {
                trips += 1;
            }
        }
        stop.store(true, Ordering::Release);
        combiner.join().expect("combiner thread");
        trips
    });
    vec![(
        "sync.exchange_roundtrip_ns",
        start.elapsed().as_nanos() as f64 / trips.max(1) as f64,
    )]
}

fn component_process_token(unit: Duration, _seed: u64) -> Readings {
    let tree = Tree::new(WIDTH);
    let mut comp = Component::new(&tree, &ComponentId::root());
    let mut port = 0usize;
    let ns = ns_per_call(unit, 1024, || {
        port = (port + 1) % WIDTH;
        std::hint::black_box(comp.process_token(Some(port)));
    });
    vec![("component.process_token_ns", ns)]
}

fn component_split_merge(unit: Duration, _seed: u64) -> Readings {
    let tree = Tree::new(WIDTH);
    let root = ComponentId::root();
    let parent = Component::with_tokens(&tree, &root, 1000);
    let children = split_component(&tree, &parent, WiringStyle::Ahs).expect("quiescent split");
    let split_ns = ns_per_call(unit, 1, || {
        std::hint::black_box(split_component(&tree, &parent, WiringStyle::Ahs).expect("split"));
    });
    let merge_ns = ns_per_call(unit, 1, || {
        std::hint::black_box(
            merge_components(&tree, &root, &children, WiringStyle::Ahs).expect("merge"),
        );
    });
    vec![
        ("component.split_us", split_ns / 1e3),
        ("component.merge_us", merge_ns / 1e3),
    ]
}

fn level2_cut(tree: &Tree) -> Cut {
    let mut cut = Cut::root();
    for id in level2_splits(tree.width()) {
        cut.split(tree, &id).expect("level-2 split of the cut");
    }
    cut
}

fn topology_wiring(unit: Duration, _seed: u64) -> Readings {
    let tree = Tree::new(WIDTH);
    let cut = level2_cut(&tree);
    let build_ns = ns_per_call(unit, 1, || {
        std::hint::black_box(CutWiring::new(&tree, &cut));
    });
    let wiring = CutWiring::new(&tree, &cut);
    let ports: Vec<(ComponentId, usize)> = cut
        .leaves()
        .iter()
        .flat_map(|leaf| {
            let width = tree.info(leaf).expect("cut leaf").width;
            (0..width).map(move |port| (leaf.clone(), port))
        })
        .collect();
    let mut i = 0usize;
    let neighbor_ns = ns_per_call(unit, 1024, || {
        i = (i + 1) % ports.len();
        std::hint::black_box(wiring.out_neighbor(&ports[i].0, ports[i].1));
    });
    let resolve_ns = ns_per_call(unit, 256, || {
        i = (i + 1) % ports.len();
        std::hint::black_box(resolve_output(
            &tree,
            &ports[i].0,
            ports[i].1,
            WiringStyle::Ahs,
        ));
    });
    vec![
        ("topology.cut_wiring_build_us", build_ns / 1e3),
        ("topology.out_neighbor_ns", neighbor_ns),
        ("topology.resolve_output_ns", resolve_ns),
    ]
}

/// The counters that are not `Sync`: the reference network and the
/// adaptive periodic network.
fn counters_sequential(unit: Duration, _seed: u64) -> Readings {
    vec![
        ("local.next_value_ns", ns_per_next(&Local::new(WIDTH), unit)),
        (
            "periodic.next_1t_ns",
            ns_per_next(&Periodic::new(WIDTH), unit),
        ),
    ]
}

fn counters_one_thread(each: Duration, _seed: u64) -> Readings {
    vec![
        (
            "concurrent.next_value_1t_ns",
            ns_per_next(&Shared::new(WIDTH), each),
        ),
        (
            "concurrent.locked_next_value_1t_ns",
            ns_per_next(&SharedLocked::new(WIDTH), each),
        ),
        (
            "frontend.next_value_1t_ns",
            ns_per_next(&<ShardedFrontEnd as Counter>::new(WIDTH), each),
        ),
        (
            "bitonic.central_next_ns",
            ns_per_next(&<CentralCounter as Counter>::new(WIDTH), each),
        ),
        (
            "bitonic.tree_next_ns",
            ns_per_next(&<TreeCounter as Counter>::new(WIDTH), each),
        ),
        (
            "bitonic.reactive_next_ns",
            ns_per_next(&<ReactiveTreeCounter as Counter>::new(WIDTH), each),
        ),
        (
            "bitonic.atomic_bitonic64_next_1t_ns",
            ns_per_next(&<AtomicNetworkCounter as Counter>::new(WIDTH), each),
        ),
    ]
}

fn counters_two_threads(each: Duration, _seed: u64) -> Readings {
    vec![
        (
            "concurrent.next_value_2t_ns",
            ns_per_next_threads(&Shared::new(WIDTH), 2, each),
        ),
        (
            "frontend.next_value_2t_ns",
            ns_per_next_threads(&<ShardedFrontEnd as Counter>::new(WIDTH), 2, each),
        ),
        (
            "bitonic.atomic_bitonic64_next_2t_ns",
            ns_per_next_threads(&<AtomicNetworkCounter as Counter>::new(WIDTH), 2, each),
        ),
    ]
}

fn concurrent_next_batch(unit: Duration, seed: u64) -> Readings {
    let net = Shared::new(WIDTH).0;
    let mut rng = Rng(seed);
    let ns = ns_per_call(unit, 16, || {
        std::hint::black_box(net.next_batch(rng.below(WIDTH), 64));
    });
    vec![("concurrent.next_batch64_ns_per_token", ns / 64.0)]
}

/// A splittable leaf of the level-2 cut to reconfigure.
fn level2_leaf() -> ComponentId {
    let tree = Tree::new(WIDTH);
    level2_cut(&tree)
        .leaves()
        .iter()
        .find(|id| tree.info(id).is_some_and(|info| !info.is_balancer()))
        .expect("the level-2 cut of width 64 has splittable leaves")
        .clone()
}

fn concurrent_split_merge(unit: Duration, _seed: u64) -> Readings {
    let net = Shared::new(WIDTH).0;
    let leaf = level2_leaf();
    let (mut split_ns, mut merge_ns, mut pairs) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    while pairs == 0 || start.elapsed() < unit * 2 {
        let t0 = Instant::now();
        net.split(&leaf).expect("solo split");
        let t1 = Instant::now();
        net.merge(&leaf).expect("solo merge");
        split_ns += (t1 - t0).as_nanos();
        merge_ns += t1.elapsed().as_nanos();
        pairs += 1;
    }
    vec![
        ("concurrent.split_us", split_ns as f64 / pairs as f64 / 1e3),
        ("concurrent.merge_us", merge_ns as f64 / pairs as f64 / 1e3),
    ]
}

/// The reader's rate while a writer splits and merges *unpaced* for a
/// fixed window of two units (the reader gets so few tokens that one
/// unit would count a handful). Both threads watch the same stop flag
/// and the writer releases the gate between operations, so the probe
/// cannot hang.
fn concurrent_starved(unit: Duration, seed: u64) -> Readings {
    let net = Shared::new(WIDTH).0;
    let leaf = level2_leaf();
    let stop = AtomicBool::new(false);
    let tokens = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = Rng(seed);
            while !stop.load(Ordering::Acquire) {
                std::hint::black_box(net.next_value(rng.below(WIDTH)));
                tokens.fetch_add(1, Ordering::Relaxed);
            }
        });
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                net.split(&leaf).expect("split beside a reader");
                net.merge(&leaf).expect("merge beside a reader");
            }
        });
        std::thread::sleep(unit * 2);
        stop.store(true, Ordering::Release);
    });
    let rate = tokens.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64();
    vec![("concurrent.starved_tokens_per_s", rate)]
}

fn overlay_lookups(unit: Duration, seed: u64) -> Readings {
    let (ring, ids) = ring(OVERLAY_NODES, seed);
    let mut rng = Rng(seed ^ 1);
    let owner_ns = ns_per_call(unit, 1024, || {
        std::hint::black_box(ring.owner_of_name(rng.next()));
    });
    let (mut hops, mut lookups) = (0u64, 0u64);
    ns_per_call(unit, 64, || {
        hops += ring.lookup_hops(ids[rng.below(ids.len())], rng.next()).1 as u64;
        lookups += 1;
    });
    let mut chord = ChordNet::bootstrap(&ids, 3);
    let chord_ns = ns_per_call(unit, 64, || {
        std::hint::black_box(chord.lookup(ids[rng.below(ids.len())], rng.next()));
    });
    vec![
        ("overlay.owner_of_name_ns", owner_ns),
        ("overlay.lookup_hops_mean", hops as f64 / lookups as f64),
        ("overlay.chord_lookup_ns", chord_ns),
    ]
}

fn estimator_node_level(unit: Duration, seed: u64) -> Readings {
    let (ring, ids) = ring(OVERLAY_NODES, seed);
    let mut i = 0usize;
    let ns = ns_per_call(unit, 64, || {
        i = (i + 1) % ids.len();
        std::hint::black_box(acn_estimator::node_level(&ring, ids[i]));
    });
    vec![("estimator.node_level_ns", ns)]
}

/// A process that does nothing but keep the simulator busy: every
/// message is passed on to the next process, one message in
/// `MESSAGES_PER_TIMER` also arms a timer, and a timer only fires.
/// 17:1 is the message:timer mix of `dist_steady`.
struct Relay {
    next: ProcessId,
    seen: u64,
    /// Re-arm a timer whenever one fires (the timer-only probe).
    rearm: bool,
}

const MESSAGES_PER_TIMER: u64 = 17;

impl Process<u64> for Relay {
    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: ProcessId, msg: u64) {
        self.seen += 1;
        if self.seen.is_multiple_of(MESSAGES_PER_TIMER) {
            ctx.set_timer(7, 0);
        }
        ctx.send(self.next, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
        if self.rearm {
            ctx.set_timer(7, tag);
        }
    }
}

fn relay_ring(policy: DeliveryPolicy, seed: u64, rearm: bool) -> Simulator<u64, Relay> {
    let config = SimConfig {
        base_latency: 5,
        jitter: 10,
        loss_per_mille: 0,
        seed,
    };
    let mut sim = Simulator::with_policy(config, policy);
    let n = OVERLAY_NODES as u64;
    for i in 0..n {
        sim.add_process(
            ProcessId(i),
            Relay {
                next: ProcessId((i + 1) % n),
                seen: 0,
                rearm,
            },
        );
    }
    sim
}

fn simnet_bare(unit: Duration, seed: u64) -> Readings {
    // 64 messages circulating among 32 relays, timestamp order.
    let mut sim = relay_ring(DeliveryPolicy::Seeded, seed, false);
    for i in 0..64 {
        sim.send_external(ProcessId(i % OVERLAY_NODES as u64), i);
    }
    let event_ns = ns_per_call(unit, 1024, || {
        sim.step();
    });
    // Timers only: every relay keeps one timer armed.
    let mut sim = relay_ring(DeliveryPolicy::Seeded, seed, true);
    for i in 0..OVERLAY_NODES as u64 {
        sim.set_timer_external(ProcessId(i), 1 + i, 0);
    }
    let timer_ns = ns_per_call(unit, 1024, || {
        sim.step();
    });
    // The explorer's path: list the enabled events, fire the first.
    let mut sim = relay_ring(DeliveryPolicy::External, seed, false);
    for i in 0..8 {
        sim.send_external(ProcessId(i), i);
    }
    let fire_ns = ns_per_call(unit, 64, || {
        let enabled = sim.enabled_events();
        sim.fire(enabled[0].key);
    });
    vec![
        ("simnet.bare_event_ns", event_ns),
        ("simnet.bare_timer_ns", timer_ns),
        ("simnet.external_fire_ns", fire_ns),
    ]
}

/// Boots a deployment the way the explorer does for every schedule:
/// External policy, jitter-free links, flight recorder attached, the
/// scenario's tokens injected.
fn explorer_boot() -> Deployment {
    let scenario = explore::random_scenario();
    let config = SimConfig {
        base_latency: 5,
        jitter: 0,
        loss_per_mille: 0,
        seed: scenario.seed,
    };
    let mut d = Deployment::with_sim(
        scenario.width,
        scenario.nodes,
        scenario.seed,
        config,
        DeliveryPolicy::External,
    );
    d.attach_tracer(&Tracer::new(4096));
    for &wire in &scenario.injections {
        d.inject(wire);
    }
    d
}

fn check_replay(unit: Duration, _seed: u64) -> Readings {
    let boot_ns = ns_per_call(unit, 1, || {
        std::hint::black_box(explorer_boot());
    });
    let mut d = explorer_boot();
    // A state with protocol traffic in it, not the empty boot state.
    for _ in 0..8 {
        d.sim.step();
    }
    let fingerprint_ns = ns_per_call(unit, 1, || {
        std::hint::black_box(d.canonical_fingerprint());
    });
    vec![
        ("check.replay_boot_us", boot_ns / 1e3),
        ("check.fingerprint_us", fingerprint_ns / 1e3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use std::collections::BTreeSet;

    #[test]
    fn every_probe_takes_the_readings_it_names_and_the_catalog_has_them() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let readings = run_all(0.08, 7, &mut Recorder::off());
        let taken: Vec<&str> = readings.iter().map(|r| r.0).collect();
        let named: Vec<&str> = PROBES.iter().flat_map(|p| p.names).copied().collect();
        assert_eq!(taken, named);
        assert_eq!(
            named.iter().collect::<BTreeSet<_>>().len(),
            named.len(),
            "a reading is taken twice"
        );
        for (name, value) in &readings {
            assert!(
                catalog::metric(name).is_some(),
                "{name} is not in the catalog"
            );
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
    }
}

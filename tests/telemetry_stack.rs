//! Stack-level telemetry tests:
//!
//! 1. Telemetry is observation-only — a seeded deployment produces
//!    bit-identical results with and without a registry attached
//!    (regression guard: instrumentation must never consume RNG draws
//!    or change control flow).
//! 2. A churn scenario populates the full metric and event surface —
//!    every layer's instruments are asserted in one place.
//! 3. The shared-memory front-end's batch sizing reads no telemetry —
//!    a lone shard stays at batch 1 beside a reconfiguring writer even
//!    with a registry attached.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use adaptive_counting_networks::bitonic::step::is_step_sequence;
use adaptive_counting_networks::core::dist::Deployment;
use adaptive_counting_networks::core::{ShardedFrontEnd, SharedAdaptiveNetwork};
use adaptive_counting_networks::overlay::NodeId;
use adaptive_counting_networks::simnet::SimStats;
use adaptive_counting_networks::telemetry::{Registry, RingBufferSink, Snapshot, Value};
use adaptive_counting_networks::topology::{ComponentId, Cut};
use adaptive_counting_networks::trace::Tracer;

/// One deterministic churn scenario: grow 4 → 16 nodes with traffic,
/// then shrink back to 6, settling at each phase boundary.
fn run_scenario(registry: Option<&Registry>) -> (SimStats, Vec<u64>, u64, u64, Cut) {
    run_scenario_traced(registry, None)
}

fn run_scenario_traced(
    registry: Option<&Registry>,
    tracer: Option<&Tracer>,
) -> (SimStats, Vec<u64>, u64, u64, Cut) {
    let w = 64;
    let mut d = Deployment::new(w, 4, 0xD37E);
    if let Some(r) = registry {
        d.attach_telemetry(r);
    }
    if let Some(t) = tracer {
        d.attach_tracer(t);
    }
    for i in 0..40usize {
        d.inject((i * 13) % w);
        d.run_for(50);
    }
    for j in 0..12usize {
        d.join_node();
        for i in 0..4usize {
            d.inject((j * 17 + i * 5) % w);
            d.run_for(50);
        }
    }
    assert!(d.settle(300), "failed to settle after growth");
    d.run_for(100_000);
    let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(10).collect();
    for (j, v) in victims.into_iter().enumerate() {
        d.leave_node(v);
        d.inject((j * 11) % w);
        d.run_for(50);
        d.run_for(2 * d.level_period);
    }
    d.run_for(100_000);
    assert!(d.settle(300), "failed to settle after shrink");
    let (cut, busy) = d.live_cut();
    assert!(!busy, "deployment must be quiescent right after settling");
    let world = d.world.borrow();
    (d.sim.stats(), d.collector().counts.clone(), world.splits_done, world.merges_done, cut)
}

#[test]
fn telemetry_is_observation_only() {
    let baseline = run_scenario(None);

    // Attached registry with an event sink: same seed, same behaviour.
    let registry = Registry::new();
    let sink = RingBufferSink::with_capacity(1 << 20);
    registry.add_sink(sink);
    let observed = run_scenario(Some(&registry));
    assert_eq!(baseline, observed, "telemetry changed deployment behaviour");

    // And twice with telemetry: identical results *and* identical
    // metric snapshots (the instruments themselves are deterministic).
    let registry2 = Registry::new();
    let observed2 = run_scenario(Some(&registry2));
    assert_eq!(observed, observed2);
    let render = |s: &Snapshot| s.to_json();
    assert_eq!(
        render(&registry.snapshot()),
        render(&registry2.snapshot()),
        "metric snapshots differ between identical seeded runs"
    );
}

/// Tracing is observation-only like telemetry: attaching a `Tracer`
/// (alone or alongside a registry) leaves the seeded deployment's
/// behaviour bit-identical, and two same-seed traced runs produce the
/// same span DAG — same spans, same causal order, same latency digest.
#[test]
fn tracing_is_observation_only_and_span_deterministic() {
    let baseline = run_scenario(None);

    let trace_one = Tracer::new(1 << 16);
    let traced = run_scenario_traced(None, Some(&trace_one));
    assert_eq!(baseline, traced, "tracing changed deployment behaviour");

    // Telemetry + tracing together are still invisible to the run.
    let registry = Registry::new();
    let trace_two = Tracer::new(1 << 16);
    let traced2 = run_scenario_traced(Some(&registry), Some(&trace_two));
    assert_eq!(baseline, traced2, "tracing + telemetry changed deployment behaviour");

    // Same seed, same span DAG: span-for-span identical rings (kind,
    // trace id, node, timestamps, fields, causal seq) and identical
    // end-to-end latency digests.
    let spans_one = trace_one.spans();
    let spans_two = trace_two.spans();
    assert!(!spans_one.is_empty(), "the churn scenario records spans");
    assert_eq!(spans_one.len(), spans_two.len(), "span counts differ between seeded runs");
    assert_eq!(spans_one, spans_two, "span DAGs differ between identical seeded runs");
    assert_eq!(trace_one.dropped(), trace_two.dropped());
    assert_eq!(trace_one.closed_traces(), trace_two.closed_traces());
    assert_eq!(
        trace_one.latency_summary(),
        trace_two.latency_summary(),
        "latency digests differ between identical seeded runs"
    );
    trace_one.validate().expect("recorded spans are causally consistent");
}

#[test]
fn churn_scenario_populates_the_full_metric_surface() {
    let registry = Registry::new();
    let sink = RingBufferSink::with_capacity(1 << 20);
    registry.add_sink(sink.clone());
    let (stats, counts, splits_done, merges_done, _cut) = run_scenario(Some(&registry));
    let injected: u64 = counts.iter().sum();
    assert!(injected > 0 && splits_done > 0 && merges_done > 0, "scenario too quiet");
    let snap = registry.snapshot();

    // --- simnet layer ---
    assert_eq!(snap.counter("acn.sim.delivered"), Some(stats.messages_delivered)); // 1
    let latency = snap.histogram("acn.sim.latency").expect("sim latency"); // 2
    assert_eq!(latency.count, stats.messages_delivered);
    assert!(latency.sum > 0, "messages take nonzero simulated time");
    assert_eq!(snap.counter("acn.sim.timers_fired"), Some(stats.timers_fired)); // 3
    assert!(stats.timers_fired > 0);
    // At quiescence the queue still holds the armed level timers, so the
    // gauge is present and small but not necessarily zero.
    let depth = snap.gauge("acn.sim.queue_depth").expect("queue depth gauge"); // 4
    assert!(depth >= 0.0 && depth.fract() == 0.0, "queue depth is a whole count, got {depth}");
    assert_eq!(snap.counter("acn.sim.drops_absent"), Some(stats.messages_dropped)); // 5

    // --- dist runtime layer ---
    assert_eq!(snap.counter("acn.dist.splits"), Some(splits_done)); // 6
    assert_eq!(snap.counter("acn.dist.merges"), Some(merges_done)); // 7
    let split_dur = snap.histogram("acn.dist.split_duration").expect("split durations"); // 8
    assert_eq!(split_dur.count, splits_done);
    assert!(split_dur.sum > 0, "multi-node splits must take positive time");
    let hops = snap.histogram("acn.dist.routing_hops").expect("routing hops"); // 9
    assert_eq!(hops.count, injected, "every exited token records its hop count");
    assert!(hops.sum > 0, "routed increments must record >= 1 inter-node hop");
    assert!(snap.counter("acn.dist.dht_lookups").unwrap_or(0) > 0); // 10
    assert_eq!(snap.counter("acn.dist.exits"), Some(injected)); // 11
    let tok_latency = snap.histogram("acn.dist.token_latency").expect("token latency"); // 12
    assert_eq!(tok_latency.count, injected);
    assert!(snap.counter("acn.dist.component_migrations").unwrap_or(0) > 0); // 13
    assert!(snap.counter("acn.dist.level_changes").unwrap_or(0) > 0); // 14

    // --- estimator layer ---
    assert!(snap.counter("acn.estimator.estimates").unwrap_or(0) > 0); // 15
    let err = snap.gauge("acn.estimator.size_error").expect("size error gauge"); // 16
    assert!(err.is_finite() && err >= 0.0);
    assert!(snap.histogram("acn.estimator.walk_length").expect("walks").count > 0); // 17

    // --- event stream ---
    let begins = sink.count_kind("split.begin");
    let ends = sink.count_kind("split.end");
    assert_eq!(ends as u64, splits_done);
    assert!(begins >= ends, "every completed split began");
    assert!(
        sink.events_of_kind("split.end").iter().any(|e| {
            matches!(e.field("duration"), Some(&Value::U64(d)) if d > 0)
        }),
        "at least one split.end must carry a positive duration"
    );
    assert_eq!(sink.count_kind("merge.end") as u64, merges_done);
    assert!(sink.count_kind("merge.begin") >= sink.count_kind("merge.end"));
    assert!(sink.count_kind("estimator.estimate") > 0);
    assert!(sink.count_kind("dist.level_change") > 0);
    assert!(sink.count_kind("dist.migrate") > 0);
}

/// Benchmark finding 3 (`benchmark/README.md`): with a registry
/// attached, one `acn.conc.snapshot_retries` tick used to count as
/// contention and grow the refill batch, so a traced run measured a
/// different program. Batch sizing now depends on the ticket probe
/// alone, and a lone shard never sees a foreign ticket — so it must end
/// at batch 1, attached or not, however often a writer reconfigures.
#[test]
fn frontend_batch_sizing_is_observation_only_under_reconfiguration() {
    const WIDTH: usize = 16;
    const DRAWS: usize = 300_000;
    const RECONFIGS: u64 = 500;
    let registry = Registry::new();
    let mut net = SharedAdaptiveNetwork::new(WIDTH);
    net.attach_telemetry(&registry);
    let net = Arc::new(net);
    let root = ComponentId::root();
    net.split(&root).expect("root splits");
    let mut fe = ShardedFrontEnd::new(Arc::clone(&net), 1);
    fe.attach_telemetry(&registry);

    // The client keeps drawing for as long as the writer reconfigures
    // (and for at least `DRAWS` values), so the two always overlap.
    let writer_done = AtomicBool::new(false);
    let leaf = root.child(0);
    let mut consumed = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..RECONFIGS {
                net.split(&leaf).expect("leaf splits");
                net.merge(&leaf).expect("leaf merges back");
            }
            writer_done.store(true, Ordering::Release);
        });
        let mut values = Vec::with_capacity(DRAWS);
        while values.len() < DRAWS || !writer_done.load(Ordering::Acquire) {
            values.push(fe.next_value(0, values.len() % WIDTH));
        }
        values
    });

    assert_eq!(fe.batch_sizes(), vec![1], "telemetry must not feed batch sizing");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("acn.exec.refills"), Some(consumed.len() as u64));
    assert_eq!(snap.counter("acn.exec.batch_grow"), Some(0));
    assert_eq!(snap.counter("acn.conc.splits"), Some(1 + RECONFIGS));
    // Conservation, density, step property, structure.
    assert_eq!(consumed.len() as u64 + fe.outstanding(), net.total_exited());
    consumed.extend(fe.drain_outstanding());
    consumed.sort_unstable();
    assert_eq!(consumed, (0..consumed.len() as u64).collect::<Vec<u64>>());
    assert!(is_step_sequence(&net.output_counts()));
    assert!(net.structure_consistent());
}

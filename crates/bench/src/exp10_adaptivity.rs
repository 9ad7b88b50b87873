//! E10 (Sections 2.2, 3.2, 3.4 dynamics): the full message-passing
//! deployment adapts to churn while counting correctly.
//!
//! A system grows from 4 to 48 nodes and shrinks back to 6 while
//! clients keep injecting tokens. We record the decentralized
//! splits/merges, DHT lookups, routing NACKs, token conservation, the
//! step property at quiescence, and latency.

use acn_bitonic::step::is_step_sequence;
use acn_core::dist::Deployment;
use acn_telemetry::Registry;
use acn_trace::Tracer;

use crate::util::{section, Lcg, Table};

/// Spans the run's tracer retains: room for every span it records, so
/// the artifact is the whole run.
const TRACE_CAPACITY: usize = 1 << 16;

/// Runs the experiment and returns the rendered report.
///
/// Besides the printed table, the run writes every span it recorded
/// (token hops, splits, merges, migrations, level changes, …) as a
/// Chrome `trace_event` artifact, `exp10_adaptivity.trace.json` under
/// `$ACN_TRACE_DIR` (default `target/trace/`).
#[must_use]
pub fn run() -> String {
    let w = 64;
    let registry = Registry::new();
    let tracer = Tracer::new(TRACE_CAPACITY);
    let mut d = Deployment::new(w, 4, 0xAB5);
    d.attach_telemetry(&registry);
    d.attach_tracer(&tracer);
    let mut rng = Lcg(17);
    let mut injected = 0u64;
    let mut table = Table::new(&[
        "phase",
        "nodes",
        "components",
        "splits",
        "merges",
        "nacks",
        "tokens in",
        "tokens out",
    ]);
    let snapshot = |d: &mut Deployment, phase: &str, injected: u64, table: &mut Table| {
        assert!(d.settle(300), "deployment failed to settle in phase {phase}");
        d.run_for(200_000);
        let (cut, _) = d.live_cut();
        let world = d.world.borrow();
        table.row(&[
            phase.into(),
            world.ring.len().to_string(),
            cut.leaves().len().to_string(),
            world.splits_done.to_string(),
            world.merges_done.to_string(),
            world.token_nacks.to_string(),
            injected.to_string(),
            d.collector().total().to_string(),
        ]);
    };

    let inject = |d: &mut Deployment, rng: &mut Lcg, count: usize, injected: &mut u64| {
        for _ in 0..count {
            d.inject(rng.below(w));
            *injected += 1;
            d.run_for(50);
        }
    };

    inject(&mut d, &mut rng, 100, &mut injected);
    snapshot(&mut d, "initial (N=4)", injected, &mut table);

    // Growth with interleaved traffic.
    for _ in 0..44 {
        d.join_node();
        inject(&mut d, &mut rng, 5, &mut injected);
    }
    snapshot(&mut d, "after growth (N=48)", injected, &mut table);

    // Shrink with interleaved traffic.
    let victims: Vec<acn_overlay::NodeId> = d.world.borrow().ring.nodes().take(42).collect();
    for v in victims {
        d.leave_node(v);
        inject(&mut d, &mut rng, 3, &mut injected);
        d.run_for(2 * d.level_period);
    }
    snapshot(&mut d, "after shrink (N=6)", injected, &mut table);

    let c = d.collector();
    let conserved = c.total() == injected;
    let step = is_step_sequence(&c.counts);
    let mean_latency = if c.total() > 0 { c.total_latency / c.total() } else { 0 };

    let snap = registry.snapshot();
    let hops = snap.histogram("acn.dist.routing_hops");
    let spans = tracer.spans();
    let artifact = acn_trace::chrome::write_artifact("exp10_adaptivity", &spans);
    let telemetry = format!(
        "telemetry: splits={} merges={} dht_lookups={} mean routing hops={:.2}\n\
         trace: {} spans, {} dropped\ntrace artifact: {}",
        snap.counter("acn.dist.splits").unwrap_or(0),
        snap.counter("acn.dist.merges").unwrap_or(0),
        snap.counter("acn.dist.dht_lookups").unwrap_or(0),
        hops.and_then(|h| h.mean()).unwrap_or(0.0),
        spans.len(),
        tracer.dropped(),
        artifact.map_or_else(|e| format!("(unavailable: {e})"), |p| p.display().to_string()),
    );

    section(
        "E10 — adaptivity under churn (message-level deployment)",
        &format!(
            "{}\ntoken conservation: {conserved}\nquiescent step property: {step}\nmean token latency: {mean_latency} sim-units (max {})\n{telemetry}\nExpected (paper): decentralized splits on growth, merges on shrink, no\ntokens lost, step property in every quiescent state.\n",
            table.render(),
            c.max_latency
        ),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn churn_run_is_correct_and_writes_its_trace_artifact() {
        // One run() call for both checks: parallel runs would race on the
        // shared exp10_adaptivity.trace.json artifact.
        let report = super::run();
        assert!(report.contains("token conservation: true"), "{report}");
        assert!(report.contains("step property: true"), "{report}");
        assert!(report.contains(" spans, 0 dropped"), "{report}");
        let path = report
            .lines()
            .find_map(|l| l.strip_prefix("trace artifact: "))
            .expect("artifact line in report");
        let text = std::fs::read_to_string(path).expect("artifact readable");
        for kind in ["split.begin", "net.split", "dist.level_change"] {
            assert!(text.contains(&format!("\"name\":\"{kind}\"")), "no {kind} span in {path}");
        }
    }
}

//! The message-passing workloads: a `Deployment` on the simulator,
//! driven open loop in virtual time. Everything is read from outside:
//! `SimStats`, `World`'s public fields, the `Collector`.

use std::time::Instant;

use acn_bitonic::step::is_step_sequence;
use acn_core::dist::{Deployment, Proc};
use acn_overlay::NodeId;
use acn_simnet::{DeliveryPolicy, SimConfig};

use super::{repeat_setup, Attach, Pass, Rng, SliceClock, NOMINAL_SECONDS, SLICES};
use crate::spans::Recorder;

pub const WIDTH: usize = 64;
/// The ring is the same for every seed, so the converged cut (and with
/// it the hop count per token) is part of the workload, not of the
/// noise; `--seed` drives the link jitter, the loss coin and the
/// token stream.
const RING_SEED: u64 = 7;
/// `settle` budget, in level periods.
const SETTLE_ROUNDS: usize = 64;
/// One `dist.inject`/`dist.run_for` pair in 64 is kept as a span.
const KEEP_TOKEN_MASK: u64 = 63;
const SETUP_REPS: usize = 9;

/// Tokens of `dist_steady`/`dist_lossy` at the nominal budget.
const STEADY_TOKENS: f64 = 300_000.0;
/// Virtual ticks between two injections.
const STEADY_GAP: u64 = 10;
const STEADY_NODES: usize = 32;

const CHURN_NODES: usize = 8;
const CHURN_CYCLES: usize = 3;
/// Joins per cycle at the nominal budget; two of the joined nodes
/// crash, the rest leave.
const CHURN_JOINS: f64 = 32.0;
/// Which nodes crash and leave is the same for every seed: it decides
/// which components migrate, and that alone moves the run's peak memory
/// between 47 and 350 MiB and its rate by a fifth. `--seed` drives the
/// link jitter and the token stream.
const CHURN_VICTIM_SEED: u64 = 11;
const CHURN_BURST: u64 = 100;
const CHURN_GAP: u64 = 20;

fn boot(
    nodes: usize,
    loss_per_mille: u32,
    seed: u64,
    attach: Option<&Attach>,
) -> (Deployment, bool) {
    let config = SimConfig {
        base_latency: 5,
        jitter: 10,
        loss_per_mille,
        seed,
    };
    let mut d = Deployment::with_sim(WIDTH, nodes, RING_SEED, config, DeliveryPolicy::Seeded);
    if let Some(attach) = attach {
        d.attach_telemetry(&attach.registry);
        d.attach_tracer(&attach.tracer);
    }
    d.run_for(40 * d.level_period);
    let settled = d.settle(SETTLE_ROUNDS);
    (d, settled)
}

/// The public counters a pass is measured by, read at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    delivered: u64,
    lost: u64,
    timers: u64,
    events: u64,
    counted: u64,
    latency_sum: u64,
    dht_lookups: u64,
    nacks: u64,
    splits: u64,
    merges: u64,
    dup_exits: u64,
}

impl Counters {
    fn read(d: &Deployment) -> Counters {
        let stats = d.sim.stats();
        let collector = d.collector();
        let world = d.world.borrow();
        Counters {
            delivered: stats.messages_delivered,
            lost: stats.messages_lost,
            timers: stats.timers_fired,
            events: stats.events_processed,
            counted: collector.total(),
            latency_sum: collector.total_latency,
            dht_lookups: world.dht_lookups,
            nacks: world.token_nacks,
            splits: world.splits_done,
            merges: world.merges_done,
            dup_exits: collector.duplicate_drops,
        }
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            delivered: self.delivered - earlier.delivered,
            lost: self.lost - earlier.lost,
            timers: self.timers - earlier.timers,
            events: self.events - earlier.events,
            counted: self.counted - earlier.counted,
            latency_sum: self.latency_sum - earlier.latency_sum,
            dht_lookups: self.dht_lookups - earlier.dht_lookups,
            nacks: self.nacks - earlier.nacks,
            splits: self.splits - earlier.splits,
            merges: self.merges - earlier.merges,
            dup_exits: self.dup_exits - earlier.dup_exits,
        }
    }
}

/// The timed section of a dist pass, as the harness drives it.
struct Driver<'a> {
    d: Deployment,
    /// The token stream: which wire each token enters on.
    wires: Rng,
    /// Which node crashes or leaves next.
    victims: Rng,
    rec: &'a mut Recorder,
    injected: u64,
    pending_max: usize,
}

impl Driver<'_> {
    /// Injects `count` tokens on random wires, `gap` ticks apart.
    fn burst(&mut self, count: u64, gap: u64) {
        for _ in 0..count {
            let keep = self.injected & KEEP_TOKEN_MASK == 0;
            let wire = self.wires.below(WIDTH);
            let d = &mut self.d;
            self.rec
                .call_sampled("dist.inject", keep, |_| d.inject(wire));
            self.rec
                .call_sampled("dist.run_for", keep, |_| d.run_for(gap));
            self.injected += 1;
            self.pending_max = self.pending_max.max(self.d.sim.pending_events());
        }
    }

    fn settle(&mut self) -> bool {
        let d = &mut self.d;
        self.rec.call("dist.settle", |_| d.settle(SETTLE_ROUNDS))
    }

    fn random_node(&mut self) -> NodeId {
        let nodes: Vec<NodeId> = self.d.world.borrow().ring.nodes().collect();
        nodes[self.victims.below(nodes.len())]
    }
}

/// Fills in everything a dist pass reports from its counters and
/// checks the collector: every injected token counted exactly once, or
/// at most once where nodes crashed under traffic.
fn finish(
    pass: &mut Pass,
    driver: &Driver<'_>,
    moved: Counters,
    settled: bool,
    crash_free: bool,
    attach: Option<&Attach>,
) {
    let d = &driver.d;
    let tokens = driver.injected;
    pass.tokens = tokens;
    pass.attempted = tokens;
    // The collector dedups by token id, so `counted == injected` means
    // each token was counted exactly once. A token in flight on a node
    // that crashes dies with it: no failure, but reported.
    if !crash_free && moved.counted <= tokens {
        pass.lost_to_crashes = tokens - moved.counted;
    } else if moved.counted != tokens {
        pass.failed = tokens.abs_diff(moved.counted);
        pass.violations.push(format!(
            "collector counted {} of {tokens} injected tokens",
            moved.counted
        ));
    }
    if !settled {
        pass.violate("settle() ran out of rounds");
    }
    if crash_free && !is_step_sequence(&d.collector().counts) {
        pass.violate("step property of the collector's counts");
    }

    let ghosts = d
        .sim
        .process_ids()
        .filter(|&pid| matches!(d.sim.process(pid), Some(Proc::Node(np)) if np.departed()))
        .count() as u64;
    let world = d.world.borrow();
    let detect_max = world
        .crashed
        .iter()
        .filter_map(|(node, &at)| {
            world
                .detections
                .get(node)
                .map(|&seen| seen.saturating_sub(at))
        })
        .max()
        .unwrap_or(0);
    if world
        .crashed
        .keys()
        .any(|node| !world.detections.contains_key(node))
    {
        pass.violate("a crashed node was never suspected in-protocol");
    }

    let per_token = |count: u64| count as f64 / tokens.max(1) as f64;
    let wall_ns = pass.wall_s * 1e9;
    pass.layer
        .insert("msgs_per_token", per_token(moved.delivered));
    pass.layer.insert(
        "token_latency_ticks_mean",
        moved.latency_sum as f64 / moved.counted.max(1) as f64,
    );
    pass.layer
        .insert("token_latency_ticks_max", d.collector().max_latency as f64);
    pass.layer
        .insert("simnet.events_per_s", moved.events as f64 / pass.wall_s);
    pass.layer
        .insert("simnet.pending_events_max", driver.pending_max as f64);
    pass.layer
        .insert("dist.event_ns", wall_ns / moved.events.max(1) as f64);
    pass.layer
        .insert("dist.events_per_token", per_token(moved.events));
    pass.layer
        .insert("dist.timers_per_token", per_token(moved.timers));
    pass.layer
        .insert("dist.dht_lookups_per_token", per_token(moved.dht_lookups));
    pass.layer
        .insert("dist.nacks_per_ktoken", per_token(moved.nacks) * 1e3);
    pass.layer
        .insert("dist.msgs_lost_per_ktoken", per_token(moved.lost) * 1e3);
    pass.layer
        .insert("dist.dup_exit_drops", moved.dup_exits as f64);
    pass.layer.insert("dist.splits", moved.splits as f64);
    pass.layer.insert("dist.merges", moved.merges as f64);
    if !world.crashed.is_empty() {
        pass.layer.insert(
            "dist.tokens_lost_per_crash",
            pass.lost_to_crashes as f64 / world.crashed.len() as f64,
        );
    }
    pass.layer
        .insert("dist.fd_detect_ticks_max", detect_max as f64);
    pass.layer
        .insert("dist.ghost_processes_at_end", ghosts as f64);

    for (name, value) in [
        ("sim.messages_delivered", moved.delivered),
        ("sim.messages_lost", moved.lost),
        ("sim.timers_fired", moved.timers),
        ("sim.events_processed", moved.events),
        ("sim.pending_events_max", driver.pending_max as u64),
        ("collector.total", moved.counted),
        ("collector.total_latency", moved.latency_sum),
        ("collector.max_latency", d.collector().max_latency),
        ("collector.duplicate_drops", moved.dup_exits),
        ("world.dht_lookups", moved.dht_lookups),
        ("world.token_nacks", moved.nacks),
        ("world.splits_done", moved.splits),
        ("world.merges_done", moved.merges),
        ("dist.fd_detect_ticks_max", detect_max),
        ("dist.ghost_processes", ghosts),
    ] {
        pass.exact.insert(name, value);
    }

    if let Some(attach) = attach {
        let snap = attach.registry.snapshot();
        let hist = |name: &str| snap.histogram(name);
        for (metric, value) in [
            (
                "dist.routing_hops_mean",
                hist("acn.dist.routing_hops").and_then(|h| h.mean()),
            ),
            (
                "dist.token_latency_ticks_p50",
                hist("acn.dist.token_latency").and_then(|h| h.p50()),
            ),
            (
                "dist.token_latency_ticks_p99",
                hist("acn.dist.token_latency").and_then(|h| h.p99()),
            ),
            (
                "dist.split_ticks_p50",
                hist("acn.dist.split_duration").and_then(|h| h.p50()),
            ),
            (
                "dist.merge_ticks_p50",
                hist("acn.dist.merge_duration").and_then(|h| h.p50()),
            ),
        ] {
            pass.layer.insert(metric, value.unwrap_or(0.0));
        }
        pass.layer
            .insert("trace.dropped_spans", attach.tracer.dropped() as f64);
        pass.layer
            .insert("trace.spans_recorded", attach.tracer.spans().len() as f64);
        let inject = driver.rec.total("dist.inject");
        pass.layer.insert(
            "dist.inject_call_ns",
            inject.ns as f64 / inject.calls.max(1) as f64,
        );
    }
}

/// `dist_steady` (`loss_per_mille == 0`) and `dist_lossy`: a converged
/// 32-node deployment with static membership, one token injected every
/// [`STEADY_GAP`] ticks, in [`SLICES`] equal slices each ended by a
/// `settle`, so every slice counts what it injected.
pub fn run_steady(
    loss_per_mille: u32,
    seed: u64,
    budget_s: f64,
    attach: Option<&Attach>,
    rec: &mut Recorder,
) -> Pass {
    let mut pass = Pass::default();
    let ((d, booted), setup_s) = repeat_setup(SETUP_REPS, rec, || {
        boot(STEADY_NODES, loss_per_mille, seed, attach)
    });
    pass.setup_s = setup_s;
    let per_slice =
        ((STEADY_TOKENS * budget_s / NOMINAL_SECONDS / SLICES as f64).round() as u64).max(1);

    let mut driver = Driver {
        d,
        wires: Rng(seed ^ 0x5EED_70CE),
        victims: Rng(0),
        rec,
        injected: 0,
        pending_max: 0,
    };
    let before = Counters::read(&driver.d);
    let start = Instant::now();
    let mut clock = SliceClock::start();
    let mut settled = booted;
    for _ in 0..SLICES {
        driver.burst(per_slice, STEADY_GAP);
        settled &= driver.settle();
        pass.slices.push(clock.lap(per_slice));
    }
    if loss_per_mille > 0 {
        // Let the last retransmit timers and their acks drain.
        let period = driver.d.level_period;
        let d = &mut driver.d;
        driver.rec.call("dist.run_for", |_| d.run_for(20 * period));
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    let moved = Counters::read(&driver.d).since(before);
    finish(&mut pass, &driver, moved, settled, true, attach);
    pass
}

/// Joins per churn cycle for a budget; the nominal budget gives the
/// issue's 32 joins, 2 crashes and 30 leaves.
fn churn_joins(budget_s: f64) -> usize {
    ((CHURN_JOINS * budget_s / NOMINAL_SECONDS).round() as usize).max(3)
}

/// `dist_churn`: [`CHURN_CYCLES`] cycles of joins, two crashes and
/// leaves, each followed by a burst of tokens and none preceded by a
/// `settle`: nodes crash under traffic, detection and rescue run beside
/// it, and the tokens that die with a node are counted
/// ([`Pass::lost_to_crashes`]).
pub fn run_churn(seed: u64, budget_s: f64, attach: Option<&Attach>, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    let ((d, booted), setup_s) =
        repeat_setup(SETUP_REPS, rec, || boot(CHURN_NODES, 0, seed, attach));
    pass.setup_s = setup_s;
    let joins = churn_joins(budget_s);
    let crashes = 2.min(joins - 1);

    let mut driver = Driver {
        d,
        wires: Rng(seed ^ 0x5EED_C4A2),
        victims: Rng(CHURN_VICTIM_SEED),
        rec,
        injected: 0,
        pending_max: 0,
    };
    let before = Counters::read(&driver.d);
    let start = Instant::now();
    let mut clock = SliceClock::start();
    let mut settled = booted;
    for _ in 0..CHURN_CYCLES {
        for _ in 0..joins {
            let d = &mut driver.d;
            driver.rec.call("dist.join_node", |_| d.join_node());
            driver.burst(CHURN_BURST, CHURN_GAP);
        }
        for _ in 0..crashes {
            let node = driver.random_node();
            let d = &mut driver.d;
            if driver
                .rec
                .call("dist.crash_node", |_| d.crash_node(node))
                .is_err()
            {
                pass.violations
                    .push("crash_node refused: last live node".into());
            }
            driver.burst(CHURN_BURST, CHURN_GAP);
        }
        for _ in 0..joins - crashes {
            let node = driver.random_node();
            let d = &mut driver.d;
            driver.rec.call("dist.leave_node", |_| d.leave_node(node));
            driver.burst(CHURN_BURST, CHURN_GAP);
        }
    }
    settled &= driver.settle();
    // The cost per event rises over the run, so the whole run is the
    // one homogeneous unit there is.
    pass.slices.push(clock.lap(driver.injected));
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.notes.insert("churn_joins_per_cycle", joins as f64);
    let moved = Counters::read(&driver.d).since(before);
    finish(&mut pass, &driver, moved, settled, false, attach);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_steady_pass_counts_every_token_and_repeats_exactly() {
        let a = run_steady(0, 7, 0.05, None, &mut Recorder::off());
        let b = run_steady(0, 7, 0.05, None, &mut Recorder::off());
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!((a.failed, a.tokens), (0, 1875));
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.slices.len(), SLICES);
        let other_seed = run_steady(0, 8, 0.05, None, &mut Recorder::off());
        assert_ne!(a.exact, other_seed.exact);
    }

    #[test]
    fn telemetry_and_tracing_leave_every_exact_count_alone() {
        let detached = run_steady(50, 7, 0.05, None, &mut Recorder::off());
        let attach = Attach::new();
        let attached = run_steady(50, 7, 0.05, Some(&attach), &mut Recorder::on(4));
        assert_eq!(detached.exact, attached.exact);
        assert!(attached.layer["dist.routing_hops_mean"] > 0.0);
        assert!(detached.layer["dist.msgs_lost_per_ktoken"] > 0.0);
    }

    #[test]
    fn a_small_churn_pass_counts_every_token_at_most_once() {
        let pass = run_churn(7, 0.8, None, &mut Recorder::off());
        assert_eq!(pass.violations, Vec::<String>::new());
        assert_eq!(pass.failed, 0);
        // Crashes are under traffic: what they lose is legal and small.
        assert!(pass.lost_to_crashes <= 6 * CHURN_BURST);
        assert_eq!(
            pass.exact["collector.total"] + pass.lost_to_crashes,
            pass.tokens
        );
        // 3 cycles x (3 joins + 2 crashes + 1 leave) x 100 tokens.
        assert_eq!(pass.tokens, 1800);
        // Every leaver stays behind as a ghost (so may an excommunicated node).
        assert!(pass.layer["dist.ghost_processes_at_end"] >= 3.0);
        assert!(pass.layer["dist.fd_detect_ticks_max"] > 0.0);
    }

    #[test]
    fn the_nominal_budget_gives_the_issues_churn_shape() {
        assert_eq!(churn_joins(NOMINAL_SECONDS), 32);
        assert_eq!(churn_joins(0.1), 3);
    }
}

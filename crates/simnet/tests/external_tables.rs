//! The External policy's enabled set, checked against a reference.
//!
//! Under [`DeliveryPolicy::External`] the enabled events are the oldest
//! in-flight message of every `(from, to)` link plus every pending
//! timer, in ascending key order. The reference below recomputes that
//! set from scratch out of [`Simulator::pending_snapshot`] — a full scan
//! of every pending event — and a seeded random walk over the
//! simulator's operations compares it with
//! [`Simulator::enabled_events`] after every single one: reliable and
//! lossy sends, timers, firing a head, firing a non-head (refused),
//! in-flight drops, [`Simulator::step`], and removing and re-adding
//! processes.

use std::collections::BTreeMap;

use acn_simnet::{Context, DeliveryPolicy, PendingEvent, Process, ProcessId, SimConfig, Simulator};

/// Processes `1..=PROCESSES` exist at the start; sends also target
/// `PROCESSES + 1`, which never does.
const PROCESSES: u64 = 4;

/// A process that answers a message with a few more: each carries a
/// hop budget, and every send, its channel and every timer is drawn
/// from the simulator's own RNG, so a run is a function of its seed.
struct Chatter;

impl Process<u32> for Chatter {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, hops: u32) {
        if hops == 0 {
            return;
        }
        for _ in 0..ctx.random() % 3 {
            let to = ProcessId(1 + ctx.random() % (PROCESSES + 1));
            if ctx.random().is_multiple_of(2) {
                ctx.send_lossy(to, hops - 1);
            } else {
                ctx.send(to, hops - 1);
            }
        }
        if ctx.random().is_multiple_of(4) {
            let delay = ctx.random() % 30;
            ctx.set_timer(delay, u64::from(hops));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
        if tag % 2 == 1 {
            let to = ProcessId(1 + ctx.random() % PROCESSES);
            ctx.send(to, 1);
        }
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The enabled set by definition: the smallest key per `(from, to)`
/// link plus every timer, ascending by key.
fn reference(sim: &Simulator<u32, Chatter>) -> Vec<PendingEvent> {
    let pending: Vec<PendingEvent> = sim.pending_snapshot().into_iter().map(|(e, _)| e).collect();
    let mut heads: BTreeMap<(ProcessId, ProcessId), u64> = BTreeMap::new();
    for e in &pending {
        if let Some(from) = e.from {
            let head = heads.entry((from, e.to)).or_insert(e.key);
            *head = (*head).min(e.key);
        }
    }
    let mut enabled: Vec<PendingEvent> = pending
        .into_iter()
        .filter(|e| e.from.is_none_or(|from| heads[&(from, e.to)] == e.key))
        .collect();
    enabled.sort_by_key(|e| e.key);
    enabled
}

fn pending_keys(sim: &Simulator<u32, Chatter>) -> Vec<u64> {
    sim.pending_snapshot().iter().map(|(e, _)| e.key).collect()
}

/// One random walk of `ops` operations from `seed`; returns how often
/// each operation ran, so the caller can see that all of them did.
fn walk(seed: u64, ops: usize) -> BTreeMap<&'static str, u64> {
    let config = SimConfig { base_latency: 3, jitter: 12, loss_per_mille: 100, seed };
    let mut sim: Simulator<u32, Chatter> = Simulator::with_policy(config, DeliveryPolicy::External);
    for p in 1..=PROCESSES {
        sim.add_process(ProcessId(p), Chatter);
    }
    let mut rng = Rng(seed ^ 0x7AB1E5);
    let mut ran: BTreeMap<&'static str, u64> = BTreeMap::new();
    for op in 0..ops {
        let before = reference(&sim);
        assert_eq!(sim.enabled_events(), before, "seed {seed:#x}, before op {op}");
        let name = match rng.below(10) {
            0 => {
                sim.send_external(ProcessId(1 + rng.next() % (PROCESSES + 1)), 3);
                "send_external"
            }
            1 => {
                let on = ProcessId(1 + rng.next() % PROCESSES);
                let _ = sim.schedule_timer(on, rng.next() % 40, rng.next() % 4);
                "schedule_timer"
            }
            2..=4 => {
                let Some(e) = before.get(rng.below(before.len().max(1))) else { continue };
                assert!(sim.fire(e.key), "seed {seed:#x}, op {op}: head {e:?} refused");
                "fire head"
            }
            5 => {
                let keys = pending_keys(&sim);
                let behind: Vec<u64> =
                    keys.into_iter().filter(|k| before.iter().all(|e| e.key != *k)).collect();
                let Some(&key) = behind.get(rng.below(behind.len().max(1))) else { continue };
                let stats = sim.stats();
                assert!(!sim.fire(key), "seed {seed:#x}, op {op}: non-head {key} fired");
                assert_eq!(sim.stats(), stats, "a refused fire delivers nothing");
                "fire non-head"
            }
            6 => {
                let keys = pending_keys(&sim);
                let Some(&key) = keys.get(rng.below(keys.len().max(1))) else { continue };
                let droppable = sim
                    .pending_snapshot()
                    .iter()
                    .any(|(e, _)| e.key == key && e.lossy && e.from.is_some());
                assert_eq!(sim.drop_pending(key), droppable, "seed {seed:#x}, op {op}");
                if droppable {
                    "drop_pending"
                } else {
                    "drop_pending refused"
                }
            }
            7 => {
                let Some(first) = before.first() else {
                    assert!(!sim.step());
                    continue;
                };
                assert!(sim.step());
                assert!(
                    !pending_keys(&sim).contains(&first.key),
                    "seed {seed:#x}, op {op}: step fires the smallest enabled key"
                );
                "step"
            }
            8 => {
                let _ = sim.remove_process(ProcessId(1 + rng.next() % PROCESSES));
                "remove_process"
            }
            _ => {
                let _ = sim.add_process(ProcessId(1 + rng.next() % PROCESSES), Chatter);
                "add_process"
            }
        };
        *ran.entry(name).or_default() += 1;
    }
    assert_eq!(sim.enabled_events(), reference(&sim), "seed {seed:#x}, at the end");
    ran
}

#[test]
fn enabled_events_match_the_per_link_head_reference() {
    let mut ran: BTreeMap<&'static str, u64> = BTreeMap::new();
    for seed in 0..24u64 {
        for (name, n) in walk(seed, 400) {
            *ran.entry(name).or_default() += n;
        }
    }
    for op in [
        "send_external",
        "schedule_timer",
        "fire head",
        "fire non-head",
        "drop_pending",
        "drop_pending refused",
        "step",
        "remove_process",
        "add_process",
    ] {
        assert!(ran.get(op).copied().unwrap_or(0) > 10, "{op} barely ran: {ran:?}");
    }
}

//! The shared-memory workloads: closed-loop client threads drawing
//! tickets from a `ShardedFrontEnd` over a `SharedAdaptiveNetwork` at
//! the level-2 cut, optionally beside a paced reconfigurer.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use acn_bitonic::step::is_step_sequence;
use acn_core::{ShardedFrontEnd, SharedAdaptiveNetwork};
use acn_topology::{ComponentId, Tree};

use super::{repeat_setup, Attach, Pass, Rng, Slice, SLICES};
use crate::counter::shared_level2;
use crate::openloop::OpenLoop;
use crate::spans::Recorder;
use crate::stats::percentile;

pub const WIDTH: usize = 64;
/// Calls between two reads of the clock.
const BLOCK: u64 = 64;
/// One reconfiguration is due every 2 ms.
const RECONFIG_PERIOD: Duration = Duration::from_millis(2);
/// One block in 1024 is kept as a span; every block is counted.
const KEEP_BLOCK_MASK: u64 = 1023;
const SETUP_REPS: usize = 9;
/// Untimed slices run before the timed ones, same load. On the sandbox
/// this benchmark was defined on, a process's second thread shares the
/// first one's core for about a second before it gets its own; users
/// of a long-lived counter do not pay that on every call.
const WARM_UP_SLICES: usize = 1;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Client threads, one front-end shard each.
    pub clients: usize,
    /// Whether a reconfigurer thread splits and merges beside them.
    pub reconfig: bool,
}

impl Shape {
    pub fn threads(&self) -> usize {
        self.clients + usize::from(self.reconfig)
    }
}

struct Client {
    /// Tokens handed out in each slice, warm-up first.
    per_slice: [u64; WARM_UP_SLICES + SLICES],
    /// Sum of every value handed out.
    checksum: u128,
    /// Wall nanoseconds of each block (traced `shm_reconfig` pass only).
    block_ns: Vec<u32>,
    rec: Recorder,
}

struct Reconfigurer {
    ledger: OpenLoop,
    errors: u64,
    rec: Recorder,
}

type System = (Arc<SharedAdaptiveNetwork>, ShardedFrontEnd);

fn build(clients: usize, attach: Option<&Attach>) -> Result<System, String> {
    let mut net = SharedAdaptiveNetwork::new(WIDTH);
    if let Some(attach) = attach {
        net.attach_telemetry(&attach.registry);
        net.attach_tracer(&attach.tracer);
    }
    let net = Arc::new(shared_level2(net).map_err(|e| format!("set-up split: {e}"))?);
    let mut fe = ShardedFrontEnd::new(Arc::clone(&net), clients);
    if let Some(attach) = attach {
        fe.attach_telemetry(&attach.registry);
    }
    Ok((net, fe))
}

pub fn run(
    shape: Shape,
    seed: u64,
    budget_s: f64,
    attach: Option<&Attach>,
    rec: &mut Recorder,
) -> Pass {
    let mut pass = Pass::default();
    let (system, setup_s) = repeat_setup(SETUP_REPS, rec, || build(shape.clients, attach));
    pass.setup_s = setup_s;
    let (net, fe) = match system {
        Ok(system) => system,
        Err(reason) => {
            pass.violate(reason);
            return pass;
        }
    };

    let slice = Duration::from_secs_f64(budget_s / SLICES as f64);
    let barrier = Barrier::new(shape.threads() + 1);
    // Block times are only reported where a writer can stall a block.
    let time_blocks = rec.is_on() && shape.reconfig;
    let mut start = Instant::now();
    let (clients, reconfigurer) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|shard| {
                let (fe, barrier) = (&fe, &barrier);
                let thread_rec = rec.for_thread(shard as u64 + 1);
                let rng = Rng(seed ^ (shard as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                scope.spawn(move || {
                    barrier.wait();
                    client(
                        fe,
                        shard,
                        rng,
                        Instant::now(),
                        slice,
                        time_blocks,
                        thread_rec,
                    )
                })
            })
            .collect();
        let writer = shape.reconfig.then(|| {
            let (net, barrier) = (&net, &barrier);
            let thread_rec = rec.for_thread(shape.clients as u64 + 1);
            scope.spawn(move || {
                barrier.wait();
                let start = Instant::now() + slice * WARM_UP_SLICES as u32;
                wait_until(start);
                reconfigure(net, start, slice * SLICES as u32, thread_rec)
            })
        });
        barrier.wait();
        start = Instant::now() + slice * WARM_UP_SLICES as u32;
        (
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>(),
            writer.map(|h| h.join().expect("reconfigurer thread")),
        )
    });
    pass.wall_s = start.elapsed().as_secs_f64();

    pass.tokens = clients
        .iter()
        .map(|c| c.per_slice.iter().sum::<u64>())
        .sum();
    pass.attempted = pass.tokens;
    pass.slices = (0..SLICES)
        .map(|s| Slice {
            tokens: clients
                .iter()
                .map(|c| c.per_slice[WARM_UP_SLICES + s])
                .sum(),
            wall_s: slice.as_secs_f64(),
        })
        .collect();
    let mut checksum: u128 = clients.iter().map(|c| c.checksum).sum();
    let mut block_ns: Vec<f64> = Vec::new();
    for c in clients {
        block_ns.extend(c.block_ns.iter().map(|&ns| f64::from(ns)));
        rec.absorb(c.rec);
    }

    if let Some(writer) = reconfigurer {
        let ops = writer.ledger.issued();
        pass.attempted += ops;
        pass.failed += writer.errors;
        if writer.errors > 0 {
            pass.violations.push(format!(
                "{} of {ops} reconfigurations returned AdaptError",
                writer.errors
            ));
        }
        let latencies_us: Vec<f64> = writer
            .ledger
            .latencies_ns()
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        if let Some(p50) = percentile(&latencies_us, 0.5) {
            pass.layer.insert("reconfig_p50_us", p50);
        }
        pass.notes.insert("reconfig_samples", ops as f64);
        pass.notes.insert(
            "openloop_lateness_mean_us",
            writer.ledger.lateness_mean_us(),
        );
        pass.notes
            .insert("openloop_lateness_max_us", writer.ledger.lateness_max_us());
        rec.absorb(writer.rec);
    }
    if let Some(p99) = percentile(&block_ns, 0.99) {
        pass.layer.insert("concurrent.call_block_p99_ns", p99);
    }

    // Output checks, at quiescence: every client has been joined.
    let outstanding = fe.outstanding();
    pass.layer
        .insert("frontend.outstanding_at_end", outstanding as f64);
    let counts = net.output_counts();
    let issued = pass.tokens + outstanding;
    if counts.iter().sum::<u64>() != issued {
        pass.violate(format!(
            "conservation: {} exits != {} handed out + {outstanding} outstanding",
            counts.iter().sum::<u64>(),
            pass.tokens
        ));
    }
    checksum += fe
        .drain_outstanding()
        .iter()
        .map(|&v| u128::from(v))
        .sum::<u128>();
    let n = u128::from(issued);
    if checksum != n * n.saturating_sub(1) / 2 {
        pass.violate("checksum: handed-out and stashed values are not 0..n each once");
    }
    if !is_step_sequence(&counts) {
        pass.violate("step property of the output counts");
    }
    if !net.structure_consistent() {
        pass.violate("structure_consistent");
    }

    if let Some(attach) = attach {
        let snap = attach.registry.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let tokens = pass.tokens as f64;
        let refills = count("acn.exec.refills");
        pass.layer.insert(
            "concurrent.snapshot_retries_per_ktoken",
            per(count("acn.conc.snapshot_retries") * 1e3, tokens),
        );
        pass.layer.insert(
            "concurrent.fastpath_hit_share",
            per(count("acn.conc.fastpath_hits"), count("acn.conc.tokens")),
        );
        pass.layer
            .insert("frontend.refills_per_ktoken", per(refills * 1e3, tokens));
        pass.layer.insert(
            "frontend.batch_mean",
            per(count("acn.conc.tokens"), refills),
        );
        pass.layer.insert(
            "frontend.elim_hit_share",
            per(count("acn.exec.elim_hits"), refills),
        );
        pass.layer.insert(
            "frontend.elim_timeout_share",
            per(count("acn.exec.elim_timeouts"), refills),
        );
    }
    pass
}

/// One closed-loop client: draws tickets on seeded random wires until
/// the last slice ends, reading the clock once per block.
fn client(
    fe: &ShardedFrontEnd,
    shard: usize,
    mut rng: Rng,
    start: Instant,
    slice: Duration,
    time_blocks: bool,
    mut rec: Recorder,
) -> Client {
    let mut out = Client {
        per_slice: [0; WARM_UP_SLICES + SLICES],
        checksum: 0,
        block_ns: Vec::new(),
        rec: Recorder::off(),
    };
    if time_blocks {
        out.block_ns.reserve(1 << 22);
    }
    let mut blocks = 0u64;
    let mut now = Instant::now();
    for (index, taken) in out.per_slice.iter_mut().enumerate() {
        let deadline = start + slice * (index as u32 + 1);
        while now < deadline {
            for _ in 0..BLOCK {
                out.checksum += u128::from(fe.next_value(shard, rng.below(WIDTH)));
            }
            *taken += BLOCK;
            let end = Instant::now();
            if out.block_ns.len() < out.block_ns.capacity() {
                out.block_ns
                    .push((end - now).as_nanos().min(u128::from(u32::MAX)) as u32);
            }
            rec.add(
                "frontend.next_value",
                now,
                end,
                blocks & KEEP_BLOCK_MASK == 0,
            );
            blocks += 1;
            now = end;
        }
    }
    out.rec = rec;
    out
}

/// The paced writer: `split(leaf)` then `merge(leaf)` over a rotating
/// splittable leaf of the level-2 cut, one operation due every
/// [`RECONFIG_PERIOD`], open loop, until `length` has passed.
fn reconfigure(
    net: &SharedAdaptiveNetwork,
    start: Instant,
    length: Duration,
    mut rec: Recorder,
) -> Reconfigurer {
    let tree = Tree::new(WIDTH);
    let leaves: Vec<ComponentId> = net
        .cut()
        .leaves()
        .iter()
        .filter(|id| tree.info(id).is_some_and(|info| !info.is_balancer()))
        .cloned()
        .collect();
    let mut out = Reconfigurer {
        ledger: OpenLoop::new(RECONFIG_PERIOD),
        errors: 0,
        rec: Recorder::off(),
    };
    loop {
        let due = out.ledger.next_due();
        if due >= length {
            break;
        }
        wait_until(start + due);
        let op = out.ledger.issued();
        let leaf = &leaves[(op / 2) as usize % leaves.len()];
        let began = Instant::now();
        let (name, result) = if op.is_multiple_of(2) {
            ("concurrent.split", net.split(leaf))
        } else {
            ("concurrent.merge", net.merge(leaf))
        };
        let finished = Instant::now();
        out.errors += u64::from(result.is_err());
        out.ledger.record(began - start, finished - start);
        rec.add(name, began, finished, true);
    }
    out.rec = rec;
    out
}

/// Sleeps to just short of `when`, then spins: `sleep` alone overshoots
/// by a scheduler tick, which would be charged to every operation.
fn wait_until(when: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let remaining = when.saturating_duration_since(Instant::now());
    if remaining > SPIN {
        std::thread::sleep(remaining - SPIN);
    }
    while Instant::now() < when {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_contended_pass_is_correct_and_counts_every_slice() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let pass = run(
            Shape {
                clients: 2,
                reconfig: false,
            },
            7,
            0.25,
            None,
            &mut Recorder::off(),
        );
        assert_eq!(pass.violations, Vec::<String>::new());
        assert_eq!(pass.failed, 0);
        assert_eq!(pass.slices.len(), SLICES);
        assert!(pass.slices.iter().all(|s| s.tokens > 0));
        assert_eq!(pass.tokens % BLOCK, 0);
    }

    #[test]
    fn the_paced_writer_reports_latency_and_lateness_and_ends_on_time() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let started = Instant::now();
        let pass = run(
            Shape {
                clients: 1,
                reconfig: true,
            },
            7,
            0.3,
            None,
            &mut Recorder::off(),
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(pass.violations, Vec::<String>::new());
        // 0.3 s at one op per 2 ms.
        assert_eq!(pass.notes["reconfig_samples"], 150.0);
        assert!(pass.layer["reconfig_p50_us"] > 0.0);
        assert!(pass.notes.contains_key("openloop_lateness_max_us"));
    }
}

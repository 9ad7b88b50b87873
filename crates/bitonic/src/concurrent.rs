//! Lock-free concurrent execution of balancing networks.
//!
//! [`AtomicNetworkCounter`] is lock-free per token (each balancer
//! toggle is one `fetch_add`) and shares the adaptive runtime's
//! one-lock discipline (`DESIGN.md` §8): the network description and
//! its toggle bank live behind one reader–writer lock; a token holds
//! **one shared read pin** for its traversal, and
//! [`AtomicNetworkCounter::replace_network`] can swap in a different
//! (same-width) counting network *live* — the writer takes the write
//! side, which drains pinned tokens, seeds the replacement's toggles
//! from the quiescent output counts so the value stream stays dense,
//! and installs it before releasing.

use std::hash::{Hash, Hasher};

use acn_sync::{Ordering, RealSync, SyncApi, SyncAtomicU64, SyncRwLock};
use acn_telemetry::{Counter as TelemetryCounter, Histogram, Registry};
use acn_trace::{Span, Tracer};

use crate::baselines::Counter;
use crate::network::{BalancingNetwork, Dest};
use crate::step::is_step_sequence;

/// Telemetry handles for the lock-free counter (no-ops by default).
#[derive(Debug, Default)]
struct BitonicMetrics {
    /// `acn.bitonic.balancer_passes` — balancer toggles performed.
    balancer_passes: TelemetryCounter,
    /// `acn.bitonic.traversal_depth` — balancers crossed per token.
    traversal_depth: Histogram,
    /// `acn.bitonic.tokens` — values handed out via [`Counter::next`].
    tokens: TelemetryCounter,
}

impl BitonicMetrics {
    fn attach(registry: &Registry) -> Self {
        BitonicMetrics {
            balancer_passes: registry.counter("acn.bitonic.balancer_passes"),
            traversal_depth: registry.histogram("acn.bitonic.traversal_depth"),
            tokens: registry.counter("acn.bitonic.tokens"),
        }
    }
}

/// The unit a token traverses: a network description plus its toggle
/// bank, replaced wholesale by [`AtomicNetworkCounter::replace_network`].
struct ToggleSnapshot<S: SyncApi> {
    net: BalancingNetwork,
    toggles: Vec<S::AtomicU64>,
}

impl<S: SyncApi> Hash for ToggleSnapshot<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.net.hash(state);
        self.toggles.hash(state);
    }
}

/// Tokens of `total` round-robin arrivals that land on wire `i` of `w`:
/// `ceil((total - i) / w)`, clamped at zero — the step profile.
fn round_robin_profile(total: u64, w: usize, i: usize) -> u64 {
    (total + w as u64 - 1 - i as u64) / w as u64
}

/// The quiescent toggle state of `net` after `total` round-robin
/// arrivals, computed by flowing the arrival profile through the
/// balancers (Kahn-style, so balancer indices need not be topologically
/// ordered): `t` tokens through a balancer leave its toggle at `t`,
/// having sent `ceil(t/2)` up and `floor(t/2)` down regardless of
/// interleaving. Returns `(toggles, outputs)`.
fn quiescent_flow(net: &BalancingNetwork, total: u64) -> (Vec<u64>, Vec<u64>) {
    let w = net.width();
    let bcount = net.balancer_count();
    let mut pending = vec![0usize; bcount];
    for wire in 0..w {
        if let Dest::Balancer(b) = net.input(wire) {
            pending[b] += 1;
        }
    }
    for b in 0..bcount {
        for d in net.balancer_outputs(b) {
            if let Dest::Balancer(t) = d {
                pending[t] += 1;
            }
        }
    }
    let mut incoming = vec![0u64; bcount];
    let mut outputs = vec![0u64; w];
    let mut ready: Vec<usize> = Vec::new();
    let feed = |dest: Dest,
                    tokens: u64,
                    incoming: &mut Vec<u64>,
                    outputs: &mut Vec<u64>,
                    pending: &mut Vec<usize>,
                    ready: &mut Vec<usize>| match dest {
        Dest::Balancer(b) => {
            incoming[b] += tokens;
            pending[b] -= 1;
            if pending[b] == 0 {
                ready.push(b);
            }
        }
        Dest::Output(o) => outputs[o] += tokens,
    };
    for wire in 0..w {
        let tokens = round_robin_profile(total, w, wire);
        feed(net.input(wire), tokens, &mut incoming, &mut outputs, &mut pending, &mut ready);
    }
    let mut toggles = vec![0u64; bcount];
    while let Some(b) = ready.pop() {
        let t = incoming[b];
        toggles[b] = t;
        let [top, bottom] = net.balancer_outputs(b);
        feed(top, t.div_ceil(2), &mut incoming, &mut outputs, &mut pending, &mut ready);
        feed(bottom, t / 2, &mut incoming, &mut outputs, &mut pending, &mut ready);
    }
    (toggles, outputs)
}

/// A lock-free concurrent counter built from a counting network: each
/// balancer toggle is an atomic fetch-and-increment, and every output
/// wire hands out values `wire + w * round`, exactly as a distributed
/// counter would (paper Section 1.1, "Applications").
///
/// Counting networks guarantee the *quiescent* step property, so unlike
/// [`CentralCounter`](crate::CentralCounter) the values observed by
/// overlapping operations are not linearizable — but no value is ever
/// duplicated or skipped.
///
/// Generic over [`SyncApi`] (default [`RealSync`]): the production
/// executor and the model-checked artifact are the same code.
///
/// # Example
///
/// ```
/// use acn_bitonic::{bitonic_network, AtomicNetworkCounter, Counter};
///
/// let counter = AtomicNetworkCounter::new(bitonic_network(4));
/// let mut seen: Vec<u64> = (0..10).map(|_| counter.next()).collect();
/// seen.sort();
/// assert_eq!(seen, (0..10).collect::<Vec<u64>>());
/// ```
pub struct AtomicNetworkCounter<S: SyncApi = RealSync> {
    width: usize,
    /// The network + toggle bank. Tokens pin the read side for their
    /// whole traversal *including* the output-wire round claim; a
    /// replacement writer takes the write side, which is the quiescent
    /// point.
    gate: S::RwLock<ToggleSnapshot<S>>,
    wire_counts: Vec<S::AtomicU64>,
    arrivals: S::AtomicU64,
    metrics: BitonicMetrics,
    /// Sampled `exec.bitonic` spans with monotonic timestamps from the
    /// [`SyncApi`] clock seam; disabled (one branch per token) unless
    /// [`Self::attach_tracer`] is called.
    tracer: Tracer,
}

impl<S: SyncApi> std::fmt::Debug for AtomicNetworkCounter<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicNetworkCounter").field("width", &self.width).finish()
    }
}

impl AtomicNetworkCounter<RealSync> {
    /// Wraps a balancing network into a concurrent counter.
    #[must_use]
    pub fn new(net: BalancingNetwork) -> Self {
        Self::new_in(net)
    }
}

impl<S: SyncApi> AtomicNetworkCounter<S> {
    /// Wraps a balancing network into a concurrent counter under an
    /// explicit [`SyncApi`] (the model checker instantiates this with
    /// `VirtualSync`).
    #[must_use]
    pub fn new_in(net: BalancingNetwork) -> Self {
        let width = net.width();
        let toggles = (0..net.balancer_count()).map(|_| S::AtomicU64::new(0)).collect();
        AtomicNetworkCounter {
            width,
            gate: S::RwLock::new(ToggleSnapshot { net, toggles }),
            wire_counts: (0..width).map(|_| S::AtomicU64::new(0)).collect(),
            arrivals: S::AtomicU64::new(0),
            metrics: BitonicMetrics::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Registers this counter's metrics (`acn.bitonic.*`) with `registry`.
    ///
    /// Call before sharing the counter across threads (it needs `&mut`).
    /// Telemetry is observation-only: routing and handed-out values are
    /// identical with or without a registry attached.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = BitonicMetrics::attach(registry);
    }

    /// Routes sampled `exec.bitonic` spans (one per sampled
    /// [`Self::next_value`] call, timestamped with
    /// [`SyncApi::monotonic_now`]) into `tracer`. The arrival index is
    /// the pseudo trace id, so a power-of-two sampling mask keeps
    /// roughly one token in `2^k`. Call before sharing the counter
    /// across threads (it needs `&mut`).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The network width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// A clone of the currently installed network description.
    #[must_use]
    pub fn network(&self) -> BalancingNetwork {
        self.gate.read().net.clone()
    }

    /// Walks `snap` from `input_wire` to an output wire.
    fn walk(&self, snap: &ToggleSnapshot<S>, input_wire: usize) -> usize {
        let mut dest = snap.net.input(input_wire);
        let mut depth = 0u64;
        loop {
            match dest {
                Dest::Balancer(b) => {
                    // lint: relaxed-ok(the toggle's own RMW modification order alternates ports regardless of cross-balancer visibility; the step property is only claimed at quiescence)
                    let port = (snap.toggles[b].fetch_add(1, Ordering::Relaxed) % 2) as usize;
                    depth += 1;
                    dest = snap.net.balancer_outputs(b)[port];
                }
                Dest::Output(o) => {
                    self.metrics.balancer_passes.add(depth);
                    self.metrics.traversal_depth.record(depth);
                    return o;
                }
            }
        }
    }

    /// Routes one token entering on `input_wire`, returning the output
    /// wire it exits on (without consuming a counter value).
    ///
    /// # Panics
    ///
    /// Panics if `input_wire >= width`.
    pub fn traverse(&self, input_wire: usize) -> usize {
        assert!(input_wire < self.width, "input wire out of range");
        self.walk(&self.gate.read(), input_wire)
    }

    /// Tokens that have exited on each wire so far (a quiescent snapshot
    /// of this vector has the step property). `Acquire` pairs with the
    /// caller's quiescence protocol (thread join or stronger).
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.wire_counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Hands out the next counter value (round-robin arrival wire).
    /// Exposed inherently so `SyncApi`-generic callers (the model
    /// checker) can use it without importing the [`Counter`] trait.
    pub fn next_value(&self) -> u64 {
        let w = self.width;
        // Spread arrivals across input wires round-robin, as independent
        // clients would.
        // lint: relaxed-ok(wire assignment is load-balancing only; any interleaving of the arrival RMW is equally correct)
        let arrival = self.arrivals.fetch_add(1, Ordering::Relaxed);
        let wire = (arrival % w as u64) as usize;
        self.metrics.tokens.inc();
        let start =
            if self.tracer.should_sample(arrival) { Some(S::monotonic_now()) } else { None };
        // The round claim happens under the pin so a replacement's
        // quiescent point never misses an exited-but-uncounted token.
        let value = {
            let pin = self.gate.read();
            let out = self.walk(&pin, wire);
            // lint: relaxed-ok(the round comes from this wire's own RMW modification order, which alone determines the handed-out value; replacement reads under the gate edge)
            let round = self.wire_counts[out].fetch_add(1, Ordering::Relaxed);
            out as u64 + round * w as u64
        };
        if let Some(start) = start {
            self.tracer.record(
                Span::new("exec.bitonic", arrival)
                    .between(start, S::monotonic_now())
                    .with("wire", wire as u64)
                    .with("value", value),
            );
        }
        value
    }

    /// Replaces the network with a different counting network of the
    /// same width, *live*: drains pinned tokens at the gate, seeds the
    /// replacement's toggles to the quiescent state implied by the
    /// values already handed out, and installs it before releasing.
    /// The value stream stays dense across the swap (no value
    /// duplicated or skipped once quiescent).
    ///
    /// # Panics
    ///
    /// Panics if `net`'s width differs, or if `net` is not a counting
    /// network for the already-handed-out total (its quiescent output
    /// flow must reproduce the current step-property counts — true for
    /// any counting network, e.g. `bitonic_network` /
    /// `periodic_network`).
    pub fn replace_network(&self, net: BalancingNetwork) {
        assert_eq!(net.width(), self.width, "replacement must preserve the width");
        let mut installed = self.gate.write();
        // Under the drain, every token has completed both its walk and
        // its round claim (the pin covers both), so the counts are a
        // quiescent step-property snapshot. The gate write acquisition
        // happens-after the drained pins, so these loads read exactly.
        let counts: Vec<u64> =
            self.wire_counts.iter().map(|c| c.load(Ordering::Acquire)).collect();
        debug_assert!(is_step_sequence(&counts), "quiescent counts must be a step");
        let total: u64 = counts.iter().sum();
        let (toggle_values, outputs) = quiescent_flow(&net, total);
        for (o, &flow) in outputs.iter().enumerate() {
            assert_eq!(
                flow, counts[o],
                "replacement network's quiescent flow must reproduce the \
                 handed-out counts (wire {o}: flow {flow} vs counted {})",
                counts[o]
            );
        }
        let toggles = toggle_values.into_iter().map(S::AtomicU64::new).collect();
        *installed = ToggleSnapshot { net, toggles };
    }
}

impl<S: SyncApi> Counter for AtomicNetworkCounter<S> {
    fn next(&self) -> u64 {
        self.next_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{bitonic_network, periodic_network};
    use crate::step::is_step_sequence;
    use std::sync::Arc;

    #[test]
    fn concurrent_bitonic_values_are_distinct_and_dense() {
        let counter = Arc::new(AtomicNetworkCounter::new(bitonic_network(8)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                (0..250).map(|_| c.next()).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        // 2000 distinct values, forming exactly 0..2000: counting networks
        // never skip or duplicate.
        assert_eq!(all, (0..2000u64).collect::<Vec<u64>>());
    }

    #[test]
    fn quiescent_output_counts_have_step_property() {
        for net in [bitonic_network(8), periodic_network(8)] {
            let counter = Arc::new(AtomicNetworkCounter::new(net));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let c = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..333 {
                        let _ = c.next();
                    }
                }));
            }
            for h in handles {
                h.join().expect("worker panicked");
            }
            let counts = counter.output_counts();
            assert!(is_step_sequence(&counts), "{counts:?}");
            assert_eq!(counts.iter().sum::<u64>(), 4 * 333);
        }
    }

    #[test]
    fn telemetry_counts_balancer_passes_per_token() {
        let registry = Registry::new();
        let mut counter = AtomicNetworkCounter::new(bitonic_network(4));
        counter.attach_telemetry(&registry);
        for _ in 0..12 {
            let _ = counter.next();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.bitonic.tokens"), Some(12));
        let depth = snap.histogram("acn.bitonic.traversal_depth").expect("depth histogram");
        // Bitonic[4] has depth 3: every token crosses exactly 3 balancers.
        assert_eq!(depth.count, 12);
        assert_eq!(depth.sum, 36);
        assert_eq!(snap.counter("acn.bitonic.balancer_passes"), Some(36));
    }

    #[test]
    fn traverse_does_not_consume_values() {
        let counter = AtomicNetworkCounter::new(bitonic_network(4));
        let w1 = counter.traverse(0);
        let w2 = counter.traverse(1);
        assert!(w1 < 4 && w2 < 4);
        // Output counters are untouched by traversal.
        assert_eq!(counter.output_counts(), vec![0; 4]);
        // The first real value is the exit wire with round 0.
        let v = counter.next();
        assert!(v < 4, "first value must be in round 0, got {v}");
    }

    #[test]
    fn replace_network_keeps_values_dense() {
        // Sequentially: bitonic -> periodic swaps at awkward offsets
        // must never duplicate or skip a value.
        let counter = AtomicNetworkCounter::new(bitonic_network(8));
        let mut seen: Vec<u64> = (0..13).map(|_| counter.next()).collect();
        counter.replace_network(periodic_network(8));
        seen.extend((0..9).map(|_| counter.next()));
        counter.replace_network(bitonic_network(8));
        seen.extend((0..10).map(|_| counter.next()));
        seen.sort_unstable();
        assert_eq!(seen, (0..32u64).collect::<Vec<u64>>());
        assert!(is_step_sequence(&counter.output_counts()));
    }

    #[test]
    fn replace_network_under_concurrent_traffic() {
        let counter = Arc::new(AtomicNetworkCounter::new(bitonic_network(8)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|_| c.next()).collect::<Vec<u64>>()
            }));
        }
        // Swap back and forth while traffic flows.
        for _ in 0..10 {
            counter.replace_network(periodic_network(8));
            counter.replace_network(bitonic_network(8));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..800u64).collect::<Vec<u64>>());
        assert!(is_step_sequence(&counter.output_counts()));
    }

    #[test]
    fn quiescent_flow_matches_simulation() {
        // Flow-seeding must agree with actually pushing T round-robin
        // tokens through a fresh counter.
        for total in [0u64, 1, 5, 8, 13, 24] {
            let net = bitonic_network(8);
            let fresh = AtomicNetworkCounter::new(net.clone());
            for _ in 0..total {
                let _ = fresh.next();
            }
            let (_, outputs) = quiescent_flow(&net, total);
            assert_eq!(outputs, fresh.output_counts(), "total={total}");
        }
    }

    #[test]
    #[should_panic(expected = "replacement must preserve the width")]
    fn replace_network_rejects_width_change() {
        let counter = AtomicNetworkCounter::new(bitonic_network(8));
        counter.replace_network(bitonic_network(4));
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicNetworkCounter>();
    }
}

//! Lock-free concurrent execution of balancing networks.
//!
//! [`AtomicNetworkCounter`] is lock-free per token: each balancer
//! toggle is one `fetch_add`, and the network it walks never changes,
//! so a token takes no lock at all (`DESIGN.md` §8).

use acn_sync::{Ordering, RealSync, SyncApi, SyncAtomicU64};
use acn_telemetry::{Counter as TelemetryCounter, Histogram, Registry};
use acn_trace::{Span, Tracer};

use crate::baselines::Counter;
use crate::network::{BalancingNetwork, Dest};

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
    net: BalancingNetwork,
    /// One toggle per balancer of `net`.
    toggles: Vec<S::AtomicU64>,
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
            net,
            toggles,
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

    /// The network description.
    #[must_use]
    pub fn network(&self) -> &BalancingNetwork {
        &self.net
    }

    /// Walks the network from `input_wire` to an output wire.
    fn walk(&self, input_wire: usize) -> usize {
        let mut dest = self.net.input(input_wire);
        let mut depth = 0u64;
        loop {
            match dest {
                Dest::Balancer(b) => {
                    // lint: relaxed-ok(the toggle's own RMW modification order alternates ports regardless of cross-balancer visibility; the step property is only claimed at quiescence)
                    let port = (self.toggles[b].fetch_add(1, Ordering::Relaxed) % 2) as usize;
                    depth += 1;
                    dest = self.net.balancer_outputs(b)[port];
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
        self.walk(input_wire)
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
        let out = self.walk(wire);
        // lint: relaxed-ok(the round comes from this wire's own RMW modification order, which alone determines the handed-out value)
        let round = self.wire_counts[out].fetch_add(1, Ordering::Relaxed);
        let value = out as u64 + round * w as u64;
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
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicNetworkCounter>();
    }
}

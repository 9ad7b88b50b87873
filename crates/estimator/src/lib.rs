//! Decentralized system-size and level estimation (paper Section 3.1).
//!
//! Each node `v` estimates the system size `N` purely from the ring
//! distances to its successors, in the two steps of the paper:
//!
//! 1. A coarse estimate of `log N`:
//!    `e_v = log2(1 / d(v, succ_1(v)))`.
//! 2. A refined estimate using `k = 4 * ceil(e_v)` successors:
//!    `n_v = k / d(v, succ_k(v))`.
//!
//! Lemma 3.2 of the paper shows that with high probability **every**
//! node's estimate lies within `[N/10, 10N]`; Lemma 3.3 then bounds the
//! derived *level estimates* `l_v = max{k : phi(k) < n_v}` within
//! `[l* - 4, l* + 4]` of the ideal level `l*`. The tests in this crate
//! check both statements empirically on seeded rings, and the
//! `exp_size_estimation` / `exp_level_estimates` harnesses in `acn-bench`
//! reproduce the corresponding experiment tables.
//!
//! # Example
//!
//! ```
//! use acn_overlay::Ring;
//! use acn_estimator::{estimate_size, level_estimate};
//!
//! let mut ring = Ring::new();
//! let mut seed = 9u64;
//! for _ in 0..500 {
//!     ring.add_random_node(&mut seed);
//! }
//! let node = ring.nodes().next().unwrap();
//! let est = estimate_size(&ring, node);
//! assert!(est.size >= 50.0 && est.size <= 5000.0);
//! let level = level_estimate(est.size);
//! assert!(level >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use acn_overlay::{NodeId, Ring};
use acn_topology::{level_for_size, PHI_MAX_LEVEL};

/// The smallest meaningful ring distance: one identifier step on the
/// `2^64`-point ring. Distances returned by [`Ring::walk_distance`] are
/// clamped here before any division so that degenerate rings (adjacent
/// or duplicate identifiers, float underflow in long walks) can never
/// drive `log_size` or `size` to infinity — which would otherwise
/// saturate the step-2 walk length at `usize::MAX` and send
/// [`level_estimate`] into an unbounded search.
const MIN_STEP: f64 = 1.0 / 18_446_744_073_709_551_616.0; // 2^-64

/// The outcome of a node's local size estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeEstimate {
    /// Step 1: the coarse estimate `e_v` of `log2 N`.
    pub log_size: f64,
    /// The number of successors walked in step 2 (`k = 4 * ceil(e_v)`,
    /// at least 1).
    pub walk_length: usize,
    /// Step 2: the refined size estimate `n_v`.
    pub size: f64,
}

/// Runs the paper's two-step size estimation at `node`.
///
/// The only information consumed is the ring distance covered by walking
/// `k` successors — exactly what a real Chord node obtains by following
/// successor pointers ([`Ring::walk_distance`]).
///
/// # Panics
///
/// Panics if the ring is empty or does not contain `node`.
#[must_use]
pub fn estimate_size(ring: &Ring, node: NodeId) -> SizeEstimate {
    assert!(ring.contains(node), "estimate_size at unknown node {node}");
    // Step 1: e_v = log2(1 / d(v, succ_1(v))). The distance is clamped
    // into [2^-64, 1] — a full wrap of a singleton ring on the high end,
    // one identifier step on the low end — so log_size lies in [0, 64]
    // and the derived walk length is bounded even when successors sit on
    // adjacent identifiers.
    let d1 = ring.walk_distance(node, 1).clamp(MIN_STEP, 1.0);
    let log_size = (1.0 / d1).log2().max(0.0);
    // Step 2: k = 4 * ceil(e_v), clamped to at least 1 (singleton and
    // well-spread two-node rings take this branch: e_v rounds to 0 or 1).
    let walk_length = ((4.0 * log_size.ceil()) as usize).max(1);
    let dk = ring.walk_distance(node, walk_length).max(MIN_STEP);
    let size = (walk_length as f64 / dk).max(1.0);
    SizeEstimate { log_size, walk_length, size }
}

/// The level estimate `l_v` derived from a size estimate: the largest
/// level `k` with `phi(k) < n_v` (paper, "Local Level Estimates").
///
/// Capped at [`PHI_MAX_LEVEL`]: `phi` saturates there (`phi(45)` already
/// exceeds `10^38`, far beyond any representable system), so searching
/// higher levels is meaningless — and without the cap a non-finite or
/// astronomically large `size` (as a buggy or adversarial estimator
/// might produce) would spin this loop forever against the saturated
/// `phi`. Non-finite sizes map to the extremes: `+inf` to the cap,
/// `NaN` (no information) to level 0.
///
/// # Example
///
/// ```
/// use acn_estimator::level_estimate;
///
/// assert_eq!(level_estimate(1.0), 0);
/// assert_eq!(level_estimate(6.5), 1);  // phi(1) = 6 < 6.5
/// assert_eq!(level_estimate(30.0), 2); // phi(2) = 24 < 30
/// assert_eq!(level_estimate(f64::INFINITY), acn_topology::PHI_MAX_LEVEL);
/// ```
#[must_use]
pub fn level_estimate(size: f64) -> usize {
    // The NaN check comes first so an estimate carrying no information
    // acts like the smallest system rather than the largest.
    if size.is_nan() || size <= 1.0 {
        return 0;
    }
    // phi is integral; phi(k) < size  <=>  phi(k) < ceil(size) unless
    // size is integral — use the strict comparison on the ceiling minus
    // epsilon handling via direct f64 comparison against phi.
    let mut level = 0;
    while level < PHI_MAX_LEVEL && (acn_topology::phi(level + 1) as f64) < size {
        level += 1;
    }
    level
}

/// The *ideal* level `l*` for a true system size `n`: the largest level
/// `k` with `phi(k) < n`. This is what a globally informed planner would
/// pick (paper, "Local Level Estimates").
#[must_use]
pub fn ideal_level(n: usize) -> usize {
    level_for_size(n as u128)
}

/// Convenience: the level estimate a node would act on, end to end.
///
/// # Panics
///
/// Panics if the ring is empty or does not contain `node`.
#[must_use]
pub fn node_level(ring: &Ring, node: NodeId) -> usize {
    level_estimate(estimate_size(ring, node).size)
}

/// An estimator front-end that records telemetry for every estimate.
///
/// All handles are no-ops by [`Default`], so the instrumented entry
/// points are free when no registry is attached. Telemetry is
/// observation-only: the estimates returned are bit-identical to
/// [`estimate_size`] / [`node_level`].
///
/// Metrics (under `acn.estimator.*`):
///
/// - `size_estimate` (gauge) — the latest refined estimate `n_v`.
/// - `size_error` (gauge) — the latest relative error `|n_v - N| / N`
///   against the ring's true size (the simulator knows ground truth; a
///   real deployment would leave this gauge untouched).
/// - `level` (gauge) — the latest derived level estimate `l_v`.
/// - `walk_length` (histogram) — successors walked per estimate.
/// - `estimates` (counter) — estimates computed. A caller that reuses
///   an earlier answer (the dist runtime's level tick does while its
///   node's view stands) computes, and counts, none.
#[derive(Debug, Default, Clone)]
pub struct InstrumentedEstimator {
    size: acn_telemetry::Gauge,
    error: acn_telemetry::Gauge,
    level: acn_telemetry::Gauge,
    walk_length: acn_telemetry::Histogram,
    estimates: acn_telemetry::Counter,
}

impl InstrumentedEstimator {
    /// Registers the `acn.estimator.*` metrics with `registry`.
    #[must_use]
    pub fn attach(registry: &acn_telemetry::Registry) -> Self {
        InstrumentedEstimator {
            size: registry.gauge("acn.estimator.size_estimate"),
            error: registry.gauge("acn.estimator.size_error"),
            level: registry.gauge("acn.estimator.level"),
            walk_length: registry.histogram("acn.estimator.walk_length"),
            estimates: registry.counter("acn.estimator.estimates"),
        }
    }

    /// [`estimate_size`] plus telemetry (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or does not contain `node`.
    pub fn estimate(&self, ring: &Ring, node: NodeId) -> SizeEstimate {
        let est = estimate_size(ring, node);
        let truth = ring.len() as f64;
        self.estimates.inc();
        self.size.set(est.size);
        self.error.set((est.size - truth).abs() / truth);
        self.level.set(level_estimate(est.size) as f64);
        self.walk_length.record(est.walk_length as u64);
        est
    }

    /// [`node_level`] plus telemetry (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or does not contain `node`.
    pub fn node_level(&self, ring: &Ring, node: NodeId) -> usize {
        level_estimate(self.estimate(ring, node).size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_ring(n: usize, seed: u64) -> Ring {
        let mut ring = Ring::new();
        let mut s = seed;
        for _ in 0..n {
            ring.add_random_node(&mut s);
        }
        ring
    }

    #[test]
    fn singleton_ring_estimates_one() {
        let mut ring = Ring::new();
        ring.add_node(NodeId(12345));
        let node = ring.nodes().next().unwrap();
        let est = estimate_size(&ring, node);
        assert_eq!(est.walk_length, 1);
        assert!((est.size - 1.0).abs() < 1e-9, "got {}", est.size);
        assert_eq!(node_level(&ring, node), 0);
    }

    #[test]
    fn two_node_ring_estimates_are_positive_and_finite() {
        let mut ring = Ring::new();
        ring.add_node(NodeId(0));
        ring.add_node(NodeId(1 << 63));
        for node in ring.nodes().collect::<Vec<_>>() {
            let est = estimate_size(&ring, node);
            assert!(est.size.is_finite() && est.size >= 1.0);
            // A well-spread two-node ring should estimate near 2, and
            // certainly derive a sane level.
            assert!(est.size <= 4.0, "two-node estimate {} way off", est.size);
            assert!(node_level(&ring, node) <= 1);
        }
    }

    #[test]
    fn adjacent_identifier_ring_stays_finite_and_terminates() {
        // Degenerate ring: two nodes one identifier step apart. Walking
        // from NodeId(0) to NodeId(1) covers 2^-64 of the ring — the
        // smallest possible distance. Before the clamps, this shape blew
        // log_size up toward infinity (and a hypothetical zero distance
        // saturated the step-2 walk at usize::MAX, an effective hang).
        let mut ring = Ring::new();
        ring.add_node(NodeId(0));
        ring.add_node(NodeId(1));
        for node in ring.nodes().collect::<Vec<_>>() {
            let est = estimate_size(&ring, node);
            assert!(est.log_size.is_finite() && est.log_size <= 64.0);
            assert!(est.walk_length <= 4 * 64, "walk {} unbounded", est.walk_length);
            assert!(est.size.is_finite() && est.size >= 1.0, "size {}", est.size);
            // The level must terminate and respect the phi cap.
            assert!(node_level(&ring, node) <= acn_topology::PHI_MAX_LEVEL);
        }
    }

    #[test]
    fn level_estimate_caps_at_phi_max_level() {
        use acn_topology::PHI_MAX_LEVEL;
        // Beyond phi's saturation point the search must stop at the cap
        // rather than spin on `phi(k) < size` forever.
        assert_eq!(level_estimate(f64::INFINITY), PHI_MAX_LEVEL);
        assert_eq!(level_estimate(f64::MAX), PHI_MAX_LEVEL);
        assert_eq!(level_estimate(1e300), PHI_MAX_LEVEL);
        // NaN carries no information: act like the smallest system.
        assert_eq!(level_estimate(f64::NAN), 0);
        assert_eq!(level_estimate(f64::NEG_INFINITY), 0);
        // Ordinary sizes are unaffected by the cap.
        assert_eq!(level_estimate(30.0), 2);
    }

    /// Lemma 3.2: with high probability every node's estimate lies in
    /// [N/10, 10N]. Checked over several seeds and sizes; with our seeds
    /// this holds for every node.
    #[test]
    fn lemma_3_2_estimates_within_factor_ten() {
        for &n in &[64usize, 256, 1024] {
            for seed in 0..5u64 {
                let ring = seeded_ring(n, seed * 1000 + 17);
                let mut worst_low = f64::INFINITY;
                let mut worst_high: f64 = 0.0;
                for node in ring.nodes().collect::<Vec<_>>() {
                    let est = estimate_size(&ring, node).size;
                    worst_low = worst_low.min(est / n as f64);
                    worst_high = worst_high.max(est / n as f64);
                }
                assert!(
                    worst_low >= 0.1,
                    "N={n} seed={seed}: worst underestimate ratio {worst_low}"
                );
                assert!(
                    worst_high <= 10.0,
                    "N={n} seed={seed}: worst overestimate ratio {worst_high}"
                );
            }
        }
    }

    /// Lemma 3.3: all level estimates in [l* - 4, l* + 4].
    #[test]
    fn lemma_3_3_level_estimates_near_ideal() {
        for &n in &[32usize, 128, 512, 2048] {
            for seed in 0..3u64 {
                let ring = seeded_ring(n, seed * 31 + 5);
                let lstar = ideal_level(n) as i64;
                for node in ring.nodes().collect::<Vec<_>>() {
                    let lv = node_level(&ring, node) as i64;
                    assert!(
                        (lv - lstar).abs() <= 4,
                        "N={n} seed={seed} node {node}: l_v={lv} l*={lstar}"
                    );
                }
            }
        }
    }

    #[test]
    fn instrumented_estimator_matches_plain_and_records_error() {
        let registry = acn_telemetry::Registry::new();
        let inst = InstrumentedEstimator::attach(&registry);
        let ring = seeded_ring(256, 7);
        let nodes: Vec<NodeId> = ring.nodes().collect();
        for &node in nodes.iter().take(10) {
            let plain = estimate_size(&ring, node);
            let traced = inst.estimate(&ring, node);
            assert_eq!(plain, traced, "telemetry must be observation-only");
            assert_eq!(inst.node_level(&ring, node), node_level(&ring, node));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.estimator.estimates"), Some(20));
        let err = snap.gauge("acn.estimator.size_error").expect("error gauge");
        assert!((0.0..10.0).contains(&err), "relative error {err} out of range");
        let walks = snap.histogram("acn.estimator.walk_length").expect("walk histogram");
        assert_eq!(walks.count, 20);
        assert!(walks.sum > 0);
        assert!(snap.gauge("acn.estimator.level").is_some());
        assert!(snap.gauge("acn.estimator.size_estimate").is_some());
    }

    #[test]
    fn default_instrumented_estimator_is_a_noop() {
        let inst = InstrumentedEstimator::default();
        let ring = seeded_ring(64, 3);
        let node = ring.nodes().next().unwrap();
        assert_eq!(inst.estimate(&ring, node), estimate_size(&ring, node));
    }

    #[test]
    fn ideal_level_follows_phi() {
        assert_eq!(ideal_level(1), 0);
        assert_eq!(ideal_level(2), 0);
        assert_eq!(ideal_level(7), 1); // phi(1)=6 < 7
        assert_eq!(ideal_level(24), 1);
        assert_eq!(ideal_level(25), 2); // phi(2)=24 < 25
    }

    #[test]
    fn level_estimate_monotone_in_size() {
        let mut prev = 0;
        for s in 1..2000 {
            let l = level_estimate(s as f64);
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn clustered_identifiers_break_the_estimates() {
        // The paper's analysis *requires* uniformly random identifiers
        // (Section 1.4). This test documents that the requirement is
        // real: a ring whose nodes cluster in a tiny arc produces wildly
        // wrong size estimates, so deployments must not derive node ids
        // from correlated data.
        let n = 256usize;
        let mut ring = Ring::new();
        for i in 0..n {
            // All nodes within a 2^-20 fraction of the ring.
            ring.add_node(NodeId((i as u64) << 24));
        }
        let mut worst: f64 = 1.0;
        for node in ring.nodes().take(32).collect::<Vec<_>>() {
            let est = estimate_size(&ring, node).size;
            worst = worst.max(est / n as f64);
        }
        assert!(
            worst > 10.0,
            "clustered ids unexpectedly estimated well (worst ratio {worst})"
        );
    }

    #[test]
    fn walk_length_scales_with_log_n() {
        // k = 4*ceil(e_v) should be Theta(log N): check it grows and
        // stays within sane bounds on typical rings.
        for &n in &[64usize, 1024] {
            let ring = seeded_ring(n, 99);
            let logn = (n as f64).log2();
            let mut total = 0usize;
            let nodes: Vec<NodeId> = ring.nodes().collect();
            for &node in &nodes {
                let est = estimate_size(&ring, node);
                assert!(
                    est.walk_length <= (8.0 * logn) as usize + 8,
                    "N={n}: walk {} too long",
                    est.walk_length
                );
                total += est.walk_length;
            }
            let avg = total as f64 / nodes.len() as f64;
            assert!(avg >= 2.0 * logn, "N={n}: average walk {avg} too short");
        }
    }
}

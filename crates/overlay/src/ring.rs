//! The global ring view: membership oracle and consistent hashing.


use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// A node identifier: a point on the ring, stored as a `u64` whose value
/// divided by `2^64` is the paper's position in `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The node's position on the unit-circumference ring, in `[0, 1)`.
    #[must_use]
    pub fn position(self) -> f64 {
        self.0 as f64 / 2f64.powi(64)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:016x}", self.0)
    }
}

/// SplitMix64: the deterministic mixer used both to generate random node
/// identifiers and as the distributed hash function `h` for object names.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes an object name to its point on the ring (the distributed hash
/// function `h` of the paper). Stateless and identical on every node.
#[must_use]
pub fn hash_name(name: u64) -> u64 {
    let mut s = name ^ 0xD6E8FEB86659FD93;
    splitmix64(&mut s)
}

/// The simulated Chord ring.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// Node identifiers, sorted by ring position. The `()` values keep
    /// the door open for per-node metadata.
    nodes: BTreeMap<u64, ()>,
}

impl Ring {
    /// An empty ring.
    #[must_use]
    pub fn new() -> Self {
        Ring { nodes: BTreeMap::new() }
    }

    /// Number of nodes currently in the ring (the paper's `N`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is in the ring.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node.0)
    }

    /// Adds a node with an explicit identifier. Returns `false` if the
    /// identifier was already present.
    pub fn add_node(&mut self, node: NodeId) -> bool {
        self.nodes.insert(node.0, ()).is_none()
    }

    /// Adds a node with a random identifier drawn from `seed` (advanced
    /// in place), retrying on the astronomically unlikely collision.
    /// Returns the new identifier.
    pub fn add_random_node(&mut self, seed: &mut u64) -> NodeId {
        loop {
            let id = NodeId(splitmix64(seed));
            if self.add_node(id) {
                return id;
            }
        }
    }

    /// Removes a node (graceful leave or crash — the difference is
    /// handled by the counting layer, not the ring). Returns `false` if
    /// the node was not present.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        self.nodes.remove(&node.0).is_some()
    }

    /// Iterates over all nodes in ring order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().map(|&k| NodeId(k))
    }

    /// The successor of a *point* on the ring: the first node clockwise
    /// at or after `point` (wrapping around). This is the owner of the
    /// point under consistent hashing.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn successor_of_point(&self, point: u64) -> NodeId {
        assert!(!self.nodes.is_empty(), "successor_of_point on empty ring");
        match self.nodes.range(point..).next() {
            Some((&k, ())) => NodeId(k),
            None => NodeId(*self.nodes.keys().next().expect("ring is non-empty")),
        }
    }

    /// The node owning object `name` under the distributed hash function:
    /// `successor(h(name))`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn owner_of_name(&self, name: u64) -> NodeId {
        self.successor_of_point(hash_name(name))
    }

    /// The immediate successor *node* of `node` (the next node strictly
    /// clockwise, wrapping; for a single-node ring this is the node
    /// itself).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn successor(&self, node: NodeId) -> NodeId {
        assert!(!self.nodes.is_empty(), "successor on empty ring");
        match self.nodes.range(node.0.wrapping_add(1)..).next() {
            Some((&k, ())) => NodeId(k),
            None => NodeId(*self.nodes.keys().next().expect("ring is non-empty")),
        }
    }

    /// The immediate predecessor *node* of `node` (the nearest node
    /// strictly counter-clockwise, wrapping; for a single-node ring
    /// this is the node itself). The predecessor is the natural
    /// monitor for `node` under consistent hashing: it is the unique
    /// live node whose successor `node` is.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn predecessor(&self, node: NodeId) -> NodeId {
        assert!(!self.nodes.is_empty(), "predecessor on empty ring");
        match self.nodes.range(..node.0).next_back() {
            Some((&k, ())) => NodeId(k),
            None => NodeId(*self.nodes.keys().next_back().expect("ring is non-empty")),
        }
    }

    /// The `k`-th clockwise successor `succ_k(v)` (paper Section 3
    /// notation). `succ_0` is the node itself; the walk may wrap around
    /// the ring several times if `k >= N`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn succ_k(&self, node: NodeId, k: usize) -> NodeId {
        let mut current = node;
        for _ in 0..k {
            current = self.successor(current);
        }
        current
    }

    /// The clockwise distance `d(u, v)` on the unit-circumference ring.
    /// `d(u, u) = 0`.
    #[must_use]
    pub fn distance(u: NodeId, v: NodeId) -> f64 {
        v.0.wrapping_sub(u.0) as f64 / 2f64.powi(64)
    }

    /// The *cumulative* clockwise distance covered by walking from `node`
    /// through its `k` successors (equals `d(v, succ_k(v))` when `k < N`,
    /// and keeps accumulating full revolutions beyond — which makes the
    /// size estimator robust when a node overestimates `k`).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn walk_distance(&self, node: NodeId, k: usize) -> f64 {
        assert!(k == 0 || !self.nodes.is_empty(), "walk_distance on empty ring");
        // One ordered pass: the nodes after `node`, then the rest up to
        // and including it, repeated for as many revolutions as `k`
        // asks — the successor chain, without a lookup per step.
        let revolution =
            self.nodes.range((Excluded(node.0), Unbounded)).chain(self.nodes.range(..=node.0));
        let mut total = 0.0;
        let mut current = node.0;
        for (&next, ()) in revolution.cycle().take(k) {
            let step = next.wrapping_sub(current);
            // A single-node ring steps the full circumference.
            total += if step == 0 { 1.0 } else { step as f64 / 2f64.powi(64) };
            current = next;
        }
        total
    }

    /// Greedy Chord lookup with finger tables: routes from `from` towards
    /// the owner of `point`, at each hop forwarding to the closest
    /// preceding finger (`finger[i] = successor(n + 2^i)`). Returns the
    /// owner and the number of hops taken (the `O(log N)` routing cost a
    /// real deployment would pay).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty or `from` is not in it.
    #[must_use]
    pub fn lookup_hops(&self, from: NodeId, point: u64) -> (NodeId, usize) {
        assert!(self.contains(from), "lookup from unknown node {from}");
        let owner = self.successor_of_point(point);
        let mut current = from;
        let mut hops = 0;
        while current != owner {
            // If the owner is our immediate successor, one final hop.
            if self.successor(current) == owner {
                return (owner, hops + 1);
            }
            // Closest preceding finger: largest i with
            // finger(current, i) in the clockwise interval (current, point].
            let mut next = self.successor(current);
            for i in (0..64).rev() {
                let target = current.0.wrapping_add(1u64 << i);
                let finger = self.successor_of_point(target);
                if in_interval(current.0, point, finger.0) && finger != current {
                    next = finger;
                    break;
                }
            }
            if next == current {
                // Degenerate tiny ring; fall back to the successor walk.
                next = self.successor(current);
            }
            current = next;
            hops += 1;
            debug_assert!(hops <= self.len() + 1, "lookup failed to converge");
        }
        (owner, hops)
    }
}

/// Whether `x` lies in the clockwise interval `(a, b]` on the ring.
pub(crate) fn in_interval(a: u64, b: u64, x: u64) -> bool {
    if a == b {
        // The interval is the whole ring.
        return true;
    }
    x.wrapping_sub(a.wrapping_add(1)) <= b.wrapping_sub(a.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(ids: &[u64]) -> Ring {
        let mut ring = Ring::new();
        for &id in ids {
            assert!(ring.add_node(NodeId(id)));
        }
        ring
    }

    #[test]
    fn successor_wraps_around() {
        let ring = ring_of(&[10, 20, 30]);
        assert_eq!(ring.successor(NodeId(10)), NodeId(20));
        assert_eq!(ring.successor(NodeId(30)), NodeId(10));
        assert_eq!(ring.successor_of_point(15), NodeId(20));
        assert_eq!(ring.successor_of_point(31), NodeId(10));
        assert_eq!(ring.successor_of_point(20), NodeId(20));
    }

    #[test]
    fn predecessor_wraps_around() {
        let ring = ring_of(&[10, 20, 30]);
        assert_eq!(ring.predecessor(NodeId(20)), NodeId(10));
        assert_eq!(ring.predecessor(NodeId(10)), NodeId(30));
        assert_eq!(ring.predecessor(NodeId(30)), NodeId(20));
        let single = ring_of(&[7]);
        assert_eq!(single.predecessor(NodeId(7)), NodeId(7));
        for &id in &[10, 20, 30] {
            assert_eq!(ring.successor(ring.predecessor(NodeId(id))), NodeId(id));
        }
    }

    #[test]
    fn succ_k_walks_and_wraps() {
        let ring = ring_of(&[10, 20, 30]);
        assert_eq!(ring.succ_k(NodeId(10), 0), NodeId(10));
        assert_eq!(ring.succ_k(NodeId(10), 1), NodeId(20));
        assert_eq!(ring.succ_k(NodeId(10), 3), NodeId(10));
        assert_eq!(ring.succ_k(NodeId(10), 4), NodeId(20));
    }

    #[test]
    fn single_node_ring() {
        let ring = ring_of(&[99]);
        assert_eq!(ring.successor(NodeId(99)), NodeId(99));
        assert_eq!(ring.succ_k(NodeId(99), 5), NodeId(99));
        // Walking one step covers the whole circumference.
        assert!((ring.walk_distance(NodeId(99), 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_clockwise_fraction() {
        let quarter = 1u64 << 62;
        let d = Ring::distance(NodeId(0), NodeId(quarter));
        assert!((d - 0.25).abs() < 1e-12);
        // Wrapping distance: from 3/4 to 1/4 is half the ring.
        let d = Ring::distance(NodeId(3 * quarter), NodeId(quarter));
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(Ring::distance(NodeId(7), NodeId(7)), 0.0);
    }

    #[test]
    fn walk_distance_accumulates() {
        let quarter = 1u64 << 62;
        let ring = ring_of(&[0, quarter, 2 * quarter, 3 * quarter]);
        let d = ring.walk_distance(NodeId(0), 4);
        assert!((d - 1.0).abs() < 1e-12, "full revolution, got {d}");
        let d = ring.walk_distance(NodeId(0), 6);
        assert!((d - 1.5).abs() < 1e-12, "one and a half revolutions, got {d}");
    }

    /// The successor walk `walk_distance` replaced: one ring lookup
    /// per step.
    fn walk_distance_by_lookups(ring: &Ring, node: NodeId, k: usize) -> f64 {
        let mut total = 0.0;
        let mut current = node;
        for _ in 0..k {
            let next = ring.successor(current);
            let step = next.0.wrapping_sub(current.0);
            total += if step == 0 { 1.0 } else { step as f64 / 2f64.powi(64) };
            current = next;
        }
        total
    }

    #[test]
    fn walk_distance_matches_the_lookup_walk_bit_for_bit() {
        let mut seed = 0x5EED;
        for n in 1..=40 {
            let mut ring = Ring::new();
            // The two ends of the id space, where the wrap happens.
            if n >= 2 {
                ring.add_node(NodeId(0));
                ring.add_node(NodeId(u64::MAX));
            }
            while ring.len() < n {
                ring.add_random_node(&mut seed);
            }
            for node in ring.nodes() {
                for k in 0..=3 * n + 5 {
                    let (fast, slow) =
                        (ring.walk_distance(node, k), walk_distance_by_lookups(&ring, node, k));
                    assert_eq!(fast.to_bits(), slow.to_bits(), "{n} nodes, from {node}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn owner_is_deterministic_and_present() {
        let mut seed = 7u64;
        let mut ring = Ring::new();
        for _ in 0..64 {
            ring.add_random_node(&mut seed);
        }
        for name in 0..200u64 {
            let a = ring.owner_of_name(name);
            let b = ring.owner_of_name(name);
            assert_eq!(a, b);
            assert!(ring.contains(a));
        }
    }

    #[test]
    fn ownership_shifts_minimally_on_join() {
        // Consistent hashing: adding one node only reassigns names whose
        // hash falls in the new node's arc.
        let mut seed = 11u64;
        let mut ring = Ring::new();
        for _ in 0..100 {
            ring.add_random_node(&mut seed);
        }
        let before: Vec<NodeId> = (0..500).map(|n| ring.owner_of_name(n)).collect();
        let newcomer = ring.add_random_node(&mut seed);
        let mut moved = 0;
        for (name, &owner_before) in before.iter().enumerate() {
            let owner_after = ring.owner_of_name(name as u64);
            if owner_after != owner_before {
                assert_eq!(owner_after, newcomer, "name {name} moved to a non-joining node");
                moved += 1;
            }
        }
        // Expected moved fraction ~ 1/101.
        assert!(moved < 60, "too many names moved: {moved}");
    }

    #[test]
    fn lookup_reaches_owner_with_logarithmic_hops() {
        let mut seed = 13u64;
        let mut ring = Ring::new();
        for _ in 0..256 {
            ring.add_random_node(&mut seed);
        }
        let nodes: Vec<NodeId> = ring.nodes().collect();
        let mut total_hops = 0usize;
        let mut max_hops = 0usize;
        let trials = 300;
        for t in 0..trials {
            let from = nodes[(splitmix64(&mut seed) as usize) % nodes.len()];
            let point = splitmix64(&mut seed);
            let (owner, hops) = ring.lookup_hops(from, point);
            assert_eq!(owner, ring.successor_of_point(point), "trial {t}");
            total_hops += hops;
            max_hops = max_hops.max(hops);
        }
        let avg = total_hops as f64 / trials as f64;
        // O(log N): for N=256, average should be around log2(N)/2 = 4 and
        // comfortably below 2*log2(N).
        assert!(avg <= 16.0, "average hops too high: {avg}");
        assert!(max_hops <= 32, "max hops too high: {max_hops}");
    }

    #[test]
    fn lookup_on_tiny_rings() {
        let ring = ring_of(&[5]);
        let (owner, hops) = ring.lookup_hops(NodeId(5), 1234);
        assert_eq!(owner, NodeId(5));
        assert_eq!(hops, 0);
        let ring = ring_of(&[5, u64::MAX / 2]);
        for point in [0u64, 6, u64::MAX / 2, u64::MAX] {
            let (owner, _) = ring.lookup_hops(NodeId(5), point);
            assert_eq!(owner, ring.successor_of_point(point));
        }
    }

    #[test]
    fn remove_node_updates_ownership() {
        let ring0 = ring_of(&[10, 20, 30]);
        let mut ring = ring0.clone();
        assert_eq!(ring.successor_of_point(15), NodeId(20));
        assert!(ring.remove_node(NodeId(20)));
        assert!(!ring.remove_node(NodeId(20)));
        assert_eq!(ring.successor_of_point(15), NodeId(30));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn in_interval_wraps() {
        assert!(in_interval(10, 20, 15));
        assert!(in_interval(10, 20, 20));
        assert!(!in_interval(10, 20, 10));
        assert!(!in_interval(10, 20, 25));
        // Wrapping interval (250, 5].
        assert!(in_interval(250, 5, 0));
        assert!(in_interval(250, 5, 255));
        assert!(!in_interval(250, 5, 100));
    }

    #[test]
    fn random_ids_are_roughly_uniform() {
        let mut seed = 1u64;
        let mut ring = Ring::new();
        for _ in 0..4096 {
            ring.add_random_node(&mut seed);
        }
        // Count nodes per quarter of the ring.
        let mut quarters = [0usize; 4];
        for node in ring.nodes() {
            quarters[(node.0 >> 62) as usize] += 1;
        }
        for q in quarters {
            assert!((850..=1200).contains(&q), "skewed quarter: {quarters:?}");
        }
    }
}

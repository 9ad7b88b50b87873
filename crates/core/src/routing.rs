//! Out-neighbour caching and name probing (paper Section 3.5).
//!
//! A component that wants to forward a token knows the *wire address* of
//! the destination (the balancer-level leaf owning the wire, computed
//! once from the static decomposition). The live owner of the wire is
//! that balancer or one of its `log w` ancestors — whichever is a leaf
//! of the current cut. Routers cache the last known owner per wire and,
//! on a miss (because the owner split or merged), probe along the
//! ancestor chain, nearest levels first. Each probe corresponds to one
//! DHT lookup in a real deployment.

use std::collections::HashMap;

use acn_topology::{ComponentId, Cut, WireAddress};

/// Cumulative probing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Resolutions performed.
    pub lookups: u64,
    /// Name probes issued in total (>= lookups; each resolution needs at
    /// least one probe).
    pub probes: u64,
    /// Resolutions answered by the cached name (one probe).
    pub cache_hits: u64,
    /// The worst probe count of any single resolution.
    pub max_probes: u64,
}

impl ProbeStats {
    /// Mean probes per resolution.
    #[must_use]
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes as f64 / self.lookups as f64
        }
    }
}

/// A per-router cache mapping wire addresses to their last known owner.
///
/// # Example
///
/// ```
/// use acn_core::NeighborCache;
/// use acn_topology::{network_input_address, Cut, ComponentId, Tree, WiringStyle};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// cut.split(&tree, &ComponentId::root()).unwrap();
/// let addr = network_input_address(&tree, 0, WiringStyle::Ahs);
///
/// let mut cache = NeighborCache::new();
/// let owner = cache.resolve(&cut, &addr);
/// assert_eq!(owner, ComponentId::root().child(0));
/// // Warm resolutions cost a single probe.
/// let _ = cache.resolve(&cut, &addr);
/// assert_eq!(cache.stats().cache_hits, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborCache {
    cache: HashMap<WireAddress, ComponentId>,
    stats: ProbeStats,
}

impl NeighborCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        NeighborCache::default()
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// Resolves the live owner of `addr` under `cut`, counting probes.
    ///
    /// The probe order models the distributed search: first the cached
    /// name (if any), then the remaining candidates ordered by level
    /// distance from the cached name (a split moves the owner down, a
    /// merge moves it up — usually by one level).
    ///
    /// # Panics
    ///
    /// Panics if the cut does not cover the address (invalid cut).
    pub fn resolve(&mut self, cut: &Cut, addr: &WireAddress) -> ComponentId {
        self.stats.lookups += 1;
        let balancer = addr.balancer();
        let start_level = self.cache.get(addr).map_or(balancer.level(), ComponentId::level);
        // Probe the candidate levels (deepest first) by increasing
        // distance from the cached level.
        let mut levels: Vec<usize> = (0..=balancer.level()).rev().collect();
        levels.sort_by_key(|level| level.abs_diff(start_level));
        let mut probes = 0u64;
        for level in levels {
            let candidate = balancer.prefix(level);
            probes += 1;
            if cut.contains(&candidate) {
                self.stats.probes += probes;
                self.stats.max_probes = self.stats.max_probes.max(probes);
                if probes == 1 && self.cache.contains_key(addr) {
                    self.stats.cache_hits += 1;
                }
                self.cache.insert(*addr, candidate);
                return candidate;
            }
        }
        panic!("cut does not cover wire address {addr}");
    }

    /// Drops every cached entry (e.g. after massive churn).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Finds the input component for network input `wire` by probing names
/// from the balancer upward, *without* a cache — the client-side
/// discovery of paper Section 3.5 ("Finding an Input Component").
/// Returns the owner and the number of names probed.
///
/// The paper bounds the probes by `log w - 1` plus the initial try; the
/// `exp_routing` harness measures the actual distribution.
///
/// # Panics
///
/// Panics if the cut does not cover the address.
#[must_use]
pub fn find_input_component(
    cut: &Cut,
    addr: &WireAddress,
) -> (ComponentId, u64) {
    let mut probes = 0;
    for candidate in addr.candidates() {
        probes += 1;
        if cut.contains(&candidate) {
            return (candidate, probes);
        }
    }
    panic!("cut does not cover wire address {addr}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_topology::{network_input_address, Tree, WiringStyle};

    fn addr_of(tree: &Tree, wire: usize) -> WireAddress {
        network_input_address(tree, wire, WiringStyle::Ahs)
    }

    #[test]
    fn cold_resolution_probes_up_the_chain() {
        let tree = Tree::new(16);
        let cut = Cut::root();
        let mut cache = NeighborCache::new();
        let owner = cache.resolve(&cut, &addr_of(&tree, 0));
        assert_eq!(owner, ComponentId::root());
        // Cold cache starts at the balancer: probes = chain length.
        assert_eq!(cache.stats().probes, tree.max_level() as u64 + 1);
    }

    #[test]
    fn warm_resolution_costs_one_probe() {
        let tree = Tree::new(16);
        let cut = Cut::root();
        let mut cache = NeighborCache::new();
        let addr = addr_of(&tree, 3);
        let _ = cache.resolve(&cut, &addr);
        let before = cache.stats().probes;
        let _ = cache.resolve(&cut, &addr);
        assert_eq!(cache.stats().probes, before + 1);
        assert_eq!(cache.stats().cache_hits, 1);
    }

    #[test]
    fn split_costs_few_extra_probes() {
        let tree = Tree::new(16);
        let mut cut = Cut::root();
        let mut cache = NeighborCache::new();
        let addr = addr_of(&tree, 0);
        assert_eq!(cache.resolve(&cut, &addr), ComponentId::root());
        // The owner splits: the new owner is one level deeper.
        cut.split(&tree, &ComponentId::root()).unwrap();
        let before = cache.stats().probes;
        let owner = cache.resolve(&cut, &addr);
        assert_eq!(owner, ComponentId::root().child(0));
        // Probing by level distance finds it within 2-3 probes.
        assert!(cache.stats().probes - before <= 3);
    }

    #[test]
    fn merge_costs_few_extra_probes() {
        let tree = Tree::new(16);
        let mut cut = Cut::root();
        cut.split(&tree, &ComponentId::root()).unwrap();
        let mut cache = NeighborCache::new();
        let addr = addr_of(&tree, 0);
        assert_eq!(cache.resolve(&cut, &addr), ComponentId::root().child(0));
        cut.merge(&tree, &ComponentId::root()).unwrap();
        let before = cache.stats().probes;
        assert_eq!(cache.resolve(&cut, &addr), ComponentId::root());
        assert!(cache.stats().probes - before <= 3);
    }

    #[test]
    fn find_input_component_bounded_by_chain_length() {
        // Paper Section 3.5: at most the number of ancestors + 1 probes.
        for w in [4usize, 8, 16, 32] {
            let tree = Tree::new(w);
            for cut in [Cut::root(), Cut::balancers(&tree)] {
                for wire in 0..w {
                    let (_owner, probes) = find_input_component(&cut, &addr_of(&tree, wire));
                    assert!(
                        probes <= tree.max_level() as u64 + 1,
                        "w={w} wire={wire}: {probes} probes"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn invalid_cut_panics() {
        let tree = Tree::new(8);
        let cut = Cut::from_leaves(vec![ComponentId::from_path(vec![1])]);
        let mut cache = NeighborCache::new();
        let _ = cache.resolve(&cut, &addr_of(&tree, 0));
    }

    #[test]
    fn clear_resets_cache_but_not_stats() {
        let tree = Tree::new(8);
        let cut = Cut::root();
        let mut cache = NeighborCache::new();
        let _ = cache.resolve(&cut, &addr_of(&tree, 0));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().lookups, 1);
    }
}

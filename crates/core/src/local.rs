//! A single-address-space adaptive counting network.
//!
//! [`LocalAdaptiveNetwork`] keeps the full component map of one cut of
//! `T_w` in memory. It is the reference implementation of the paper's
//! semantics: tokens can be driven one *component hop* at a time
//! ([`inject`](LocalAdaptiveNetwork::inject) /
//! [`advance`](LocalAdaptiveNetwork::advance)), and the network can be
//! reconfigured (split/merge) **while tokens are in flight** — exactly
//! the interleavings a distributed deployment produces. It is used to
//! validate Theorem 2.1 (every cut counts) and the split/merge state
//! transfer, and it doubles as the fastest way to embed an adaptive
//! counting network inside a single process.

use std::collections::BTreeMap;
use std::fmt;

use acn_topology::{
    input_port_of, network_input_address, resolve_output, ComponentId, Cut, CutError,
    OutputDestination, Tree, WireAddress, WiringStyle,
};

use crate::component::{merge_components, split_component, Component, TransferError};

/// Errors from adaptive-network reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// The underlying cut operation failed.
    Cut(CutError),
    /// The state transfer must wait for in-flight tokens to drain
    /// (see [`TransferError`]); retry after advancing traffic.
    Deferred(ComponentId, TransferError),
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::Cut(e) => write!(f, "{e}"),
            AdaptError::Deferred(id, why) => {
                write!(f, "reconfiguration of {id} deferred: {why}")
            }
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<CutError> for AdaptError {
    fn from(e: CutError) -> Self {
        AdaptError::Cut(e)
    }
}

/// The position of an in-flight token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenPos {
    /// Travelling on a wire, about to enter the component that owns it.
    OnWire(WireAddress),
    /// Exited the network on this output wire.
    Exited(usize),
}

/// An adaptive `BITONIC[w]` counting network in one address space.
///
/// # Example
///
/// ```
/// use acn_core::LocalAdaptiveNetwork;
/// use acn_topology::ComponentId;
///
/// let mut net = LocalAdaptiveNetwork::new(8);
/// // Sequential tokens exit on consecutive wires no matter where they
/// // enter.
/// assert_eq!(net.push(3), 0);
/// assert_eq!(net.push(7), 1);
/// net.split(&ComponentId::root()).unwrap();
/// assert_eq!(net.push(1), 2);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct LocalAdaptiveNetwork {
    tree: Tree,
    style: WiringStyle,
    cut: Cut,
    /// `BTreeMap`, not a hash map: iteration is in `ComponentId` order
    /// on every run, so seeded explorers that pick a component by
    /// position replay exactly, and the model is `Hash` for the model
    /// checker's fingerprints (`acn-lint`'s `hash` rule covers this
    /// file).
    components: BTreeMap<ComponentId, Component>,
    input_counts: Vec<u64>,
    output_counts: Vec<u64>,
}

impl LocalAdaptiveNetwork {
    /// A new network of width `w`, starting as a single root component
    /// (the paper's initial configuration).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new(w: usize) -> Self {
        Self::with_style(w, WiringStyle::Ahs)
    }

    /// A new network with an explicit wiring style (the non-default style
    /// exists only for the wiring ablation experiment).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn with_style(w: usize, style: WiringStyle) -> Self {
        Self::with_cut(w, Cut::root(), style)
    }

    /// A new (zero-token) network over an explicit cut.
    ///
    /// # Panics
    ///
    /// Panics if the cut is invalid for `T_w`.
    #[must_use]
    pub fn with_cut(w: usize, cut: Cut, style: WiringStyle) -> Self {
        let tree = Tree::new(w);
        assert!(cut.is_valid(&tree), "invalid cut for width {w}");
        let components = cut
            .leaves()
            .iter()
            .map(|id| (*id, Component::new(&tree, id)))
            .collect();
        LocalAdaptiveNetwork {
            tree,
            style,
            cut,
            components,
            input_counts: vec![0; w],
            output_counts: vec![0; w],
        }
    }

    /// Builds a local view of an externally captured network state: the
    /// components of one cut (their ids define the cut), the client-side
    /// input ledger, and the output ledger. The distributed model
    /// checker imports a quiescent deployment through this to run
    /// [`crate::stabilize::audit`] / [`crate::stabilize::stabilize`]
    /// against the real protocol state.
    ///
    /// # Panics
    ///
    /// Panics if the component ids do not form a valid cut of `T_w`, or
    /// if a ledger's length is not `w`.
    #[must_use]
    pub fn from_snapshot(
        w: usize,
        style: WiringStyle,
        components: Vec<Component>,
        input_counts: Vec<u64>,
        output_counts: Vec<u64>,
    ) -> Self {
        assert_eq!(input_counts.len(), w, "input ledger must have width {w}");
        assert_eq!(output_counts.len(), w, "output ledger must have width {w}");
        let cut = Cut::from_leaves(components.iter().map(|c| *c.id()));
        let mut net = Self::with_cut(w, cut, style);
        for comp in components {
            net.replace_component(comp);
        }
        net.input_counts = input_counts;
        net.output_counts = output_counts;
        net
    }

    /// The network width `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.tree.width()
    }

    /// The decomposition tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The wiring style in use.
    #[must_use]
    pub fn style(&self) -> WiringStyle {
        self.style
    }

    /// The current cut.
    #[must_use]
    pub fn cut(&self) -> &Cut {
        &self.cut
    }

    /// The live component for `id`, if it is a leaf of the current cut.
    #[must_use]
    pub fn component(&self, id: &ComponentId) -> Option<&Component> {
        self.components.get(id)
    }

    /// Iterates over the live components in `ComponentId` order.
    pub fn components(&self) -> impl Iterator<Item = &Component> {
        self.components.values()
    }

    /// Tokens that have exited on each output wire. In every quiescent
    /// state this vector has the step property.
    #[must_use]
    pub fn output_counts(&self) -> &[u64] {
        &self.output_counts
    }

    /// Tokens injected per network input wire (the client-side ledger;
    /// trusted input for [`stabilize`](crate::stabilize)).
    #[must_use]
    pub fn input_counts(&self) -> &[u64] {
        &self.input_counts
    }

    /// Total tokens that have exited the network.
    #[must_use]
    pub fn total_exited(&self) -> u64 {
        self.output_counts.iter().sum()
    }

    /// Starts a token on network input wire `wire` without advancing it,
    /// recording it in the client-side input ledger.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= w`.
    #[must_use]
    pub fn inject(&mut self, wire: usize) -> TokenPos {
        self.input_counts[wire] += 1;
        TokenPos::OnWire(network_input_address(&self.tree, wire, self.style))
    }

    /// Advances an in-flight token by one component hop. Exited tokens
    /// stay exited.
    pub fn advance(&mut self, pos: TokenPos) -> TokenPos {
        let TokenPos::OnWire(addr) = pos else { return pos };
        let owner = addr
            .owner_under(&self.cut)
            .expect("valid cut covers every wire");
        let in_port = input_port_of(&self.tree, &owner, &addr, self.style);
        let component = self
            .components
            .get_mut(&owner)
            .expect("cut leaf has a live component");
        let port = component.process_token(in_port);
        match resolve_output(&self.tree, &owner, port, self.style) {
            OutputDestination::Wire(next) => TokenPos::OnWire(next),
            OutputDestination::NetworkOutput(out) => {
                self.output_counts[out] += 1;
                TokenPos::Exited(out)
            }
        }
    }

    /// Routes one token from input wire `wire` all the way through,
    /// returning the output wire it exits on.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= w`.
    pub fn push(&mut self, wire: usize) -> usize {
        let mut pos = self.inject(wire);
        loop {
            pos = self.advance(pos);
            if let TokenPos::Exited(out) = pos {
                return out;
            }
        }
    }

    /// Distributed-counter semantics (paper Section 1.1): routes a token
    /// and returns the counter value `out + w * (tokens previously exited
    /// on out)`. Sequential calls return 0, 1, 2, ...
    ///
    /// # Panics
    ///
    /// Panics if `wire >= w`.
    pub fn next_value(&mut self, wire: usize) -> u64 {
        let out = self.push(wire);
        let round = self.output_counts[out] - 1;
        out as u64 + round * self.width() as u64
    }

    /// Splits leaf component `id` into its children, transferring state
    /// exactly (paper Section 2.2). Safe while tokens are in flight
    /// *towards* the component; fails if tokens merged over earlier are
    /// still in flight *inside* it.
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is not a splittable leaf of
    /// the current cut, and [`AdaptError::Deferred`] if in-flight
    /// traffic makes an exact transfer impossible right now.
    pub fn split(&mut self, id: &ComponentId) -> Result<(), AdaptError> {
        // Validate via the cut first so the component map stays in sync.
        let mut cut = self.cut.clone();
        cut.split(&self.tree, id)?;
        let children = split_component(&self.tree, &self.components[id], self.style)
            .map_err(|why| AdaptError::Deferred(*id, why))?;
        self.components.remove(id).expect("leaf has a component");
        for child in children {
            self.components.insert(*child.id(), child);
        }
        self.cut = cut;
        Ok(())
    }

    /// Merges the subtree under `id` back into a single component,
    /// recursively merging deeper descendants first (paper Section 2.2).
    /// Safe while tokens are in flight.
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is already a leaf or not
    /// covered by the current cut.
    pub fn merge(&mut self, id: &ComponentId) -> Result<(), AdaptError> {
        if self.cut.contains(id) {
            return Err(CutError::NotALeaf(*id).into());
        }
        let children_ids = self.tree.children(id);
        if children_ids.is_empty() {
            return Err(CutError::ChildrenNotLeaves(*id).into());
        }
        // Every child must be covered by the cut at or below it; merge
        // grandchildren first.
        for child in &children_ids {
            if !self.cut.contains(child) {
                self.merge(child)?;
            }
        }
        let children: Vec<&Component> = children_ids
            .iter()
            .map(|c| self.components.get(c).expect("merged child exists"))
            .collect();
        let children_owned: Vec<Component> = children.into_iter().cloned().collect();
        let parent = merge_components(&self.tree, id, &children_owned, self.style)
            .map_err(|why| AdaptError::Deferred(*id, why))?;
        for c in &children_ids {
            self.components.remove(c);
        }
        self.components.insert(*id, parent);
        self.cut.merge(&self.tree, id).expect("children are leaves now");
        Ok(())
    }

    /// Reconfigures to exactly `target` by splitting and merging as
    /// needed. Safe while tokens are in flight.
    ///
    /// # Panics
    ///
    /// Panics if `target` is invalid for `T_w`.
    pub fn reconfigure(&mut self, target: &Cut) {
        assert!(target.is_valid(&self.tree), "invalid target cut");
        // Merge everything that is deeper than the target.
        let to_merge: Vec<ComponentId> = target
            .leaves()
            .iter()
            .filter(|t| !self.cut.contains(t) && self.cut.leaves().iter().any(|l| t.is_ancestor_of(l)))
            .cloned()
            .collect();
        for id in to_merge {
            self.merge(&id).expect("target ancestor is mergeable");
        }
        // Split everything that is shallower.
        loop {
            let to_split: Vec<ComponentId> = self
                .cut
                .leaves()
                .iter()
                .filter(|l| !target.contains(l))
                .cloned()
                .collect();
            if to_split.is_empty() {
                break;
            }
            for id in to_split {
                self.split(&id).expect("leaf above target is splittable");
            }
        }
        debug_assert_eq!(&self.cut, target);
    }

    /// Exclusive access to a live component (fault injection and the
    /// stabilization layer).
    #[must_use]
    pub fn component_mut(&mut self, id: &ComponentId) -> Option<&mut Component> {
        self.components.get_mut(id)
    }

    /// Overwrites the per-output-wire exit ledger (stabilization resets
    /// it to match the recovered state).
    pub(crate) fn set_output_counts(&mut self, counts: Vec<u64>) {
        assert_eq!(counts.len(), self.output_counts.len());
        self.output_counts = counts;
    }

    /// Replaces a live component wholesale (stabilization).
    pub(crate) fn replace_component(&mut self, comp: Component) {
        assert!(self.cut.contains(comp.id()), "replacement must be a cut leaf");
        self.components.insert(*comp.id(), comp);
    }

    /// Internal consistency check: the component map matches the cut.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.cut.is_valid(&self.tree)
            && self.components.len() == self.cut.leaves().len()
            && self.cut.leaves().iter().all(|l| self.components.contains_key(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_topology::Cut;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn sequential_tokens_exit_round_robin_from_any_wire() {
        for w in [2usize, 4, 8, 16] {
            let mut net = LocalAdaptiveNetwork::new(w);
            for t in 0..3 * w {
                assert_eq!(net.push(t % w), t % w, "w={w} t={t}");
            }
        }
    }

    #[test]
    fn all_cuts_of_t8_count_sequentially() {
        // Theorem 2.1, exhaustively for w = 8: every one of the 65 cuts
        // yields a counting network.
        let tree = Tree::new(8);
        for cut in Cut::enumerate_all(&tree) {
            let mut net = LocalAdaptiveNetwork::with_cut(8, cut.clone(), WiringStyle::Ahs);
            let mut seed = 7u64;
            for t in 0..64 {
                let wire = (lcg(&mut seed) as usize) % 8;
                assert_eq!(net.push(wire), t % 8, "cut {cut} t={t}");
            }
        }
    }

    #[test]
    fn split_preserves_round_robin_mid_stream() {
        let root = ComponentId::root();
        for w in [4usize, 8, 16] {
            for warmup in 0..w {
                let mut net = LocalAdaptiveNetwork::new(w);
                for t in 0..warmup {
                    assert_eq!(net.push(t % w), t % w);
                }
                net.split(&root).unwrap();
                assert!(net.is_consistent());
                for t in warmup..warmup + 2 * w {
                    assert_eq!(net.push((t * 3) % w), t % w, "w={w} warmup={warmup}");
                }
            }
        }
    }

    #[test]
    fn merge_preserves_round_robin_mid_stream() {
        let root = ComponentId::root();
        for w in [4usize, 8, 16] {
            for warmup in 0..w {
                let mut net = LocalAdaptiveNetwork::new(w);
                net.split(&root).unwrap();
                for t in 0..warmup {
                    assert_eq!(net.push(t % w), t % w);
                }
                net.merge(&root).unwrap();
                assert!(net.is_consistent());
                for t in warmup..warmup + 2 * w {
                    assert_eq!(net.push((t * 5) % w), t % w, "w={w} warmup={warmup}");
                }
            }
        }
    }

    #[test]
    fn deep_split_merge_storm_keeps_counting() {
        // Random walk over cuts of T_16 with tokens interleaved.
        let w = 16;
        let tree = Tree::new(w);
        let mut net = LocalAdaptiveNetwork::new(w);
        let mut seed = 0xDEADBEEFu64;
        let mut expected = 0u64;
        for round in 0..400 {
            match lcg(&mut seed) % 3 {
                0 => {
                    // Split a random splittable leaf.
                    let candidates: Vec<ComponentId> = net
                        .cut()
                        .leaves()
                        .iter()
                        .filter(|l| tree.info(l).unwrap().width >= 4)
                        .cloned()
                        .collect();
                    if !candidates.is_empty() {
                        let pick = candidates[(lcg(&mut seed) as usize) % candidates.len()];
                        net.split(&pick).unwrap();
                    }
                }
                1 => {
                    // Merge a random mergeable parent.
                    let parents: Vec<ComponentId> = net
                        .cut()
                        .leaves()
                        .iter()
                        .filter_map(|l| l.parent())
                        .collect();
                    if !parents.is_empty() {
                        let pick = parents[(lcg(&mut seed) as usize) % parents.len()];
                        let _ = net.merge(&pick);
                    }
                }
                _ => {}
            }
            assert!(net.is_consistent(), "round {round}");
            // Push a couple of tokens and check global round-robin.
            for _ in 0..(lcg(&mut seed) % 4) {
                let wire = (lcg(&mut seed) as usize) % w;
                let out = net.push(wire);
                assert_eq!(out as u64, expected % w as u64, "round {round}");
                expected += 1;
            }
        }
        assert!(expected > 100, "storm pushed too few tokens");
    }

    #[test]
    fn interleaved_tokens_with_reconfiguration_keep_step_property() {
        // Tokens advance one hop at a time; splits and merges happen
        // between hops. In every quiescent state the output counts must
        // have the step property (and because the interleaving covers
        // arbitrary concurrency, this is the distributed correctness
        // argument in miniature).
        let w = 8;
        let tree = Tree::new(w);
        for seed0 in 0..10u64 {
            let mut net = LocalAdaptiveNetwork::new(w);
            let mut seed = seed0 * 997 + 1;
            let mut in_flight: Vec<TokenPos> = Vec::new();
            for _ in 0..600 {
                match lcg(&mut seed) % 10 {
                    0 => {
                        let candidates: Vec<ComponentId> = net
                            .cut()
                            .leaves()
                            .iter()
                            .filter(|l| tree.info(l).unwrap().width >= 4)
                            .cloned()
                            .collect();
                        if let Some(pick) =
                            candidates.get((lcg(&mut seed) as usize) % candidates.len().max(1))
                        {
                            // May fail with TokensInFlight right after a
                            // merge over in-flight tokens; that is the
                            // intended guard.
                            let _ = net.split(&pick.clone());
                        }
                    }
                    1 => {
                        let parents: Vec<ComponentId> =
                            net.cut().leaves().iter().filter_map(|l| l.parent()).collect();
                        if let Some(pick) =
                            parents.get((lcg(&mut seed) as usize) % parents.len().max(1))
                        {
                            let _ = net.merge(&pick.clone());
                        }
                    }
                    2..=4 => {
                        let wire = (lcg(&mut seed) as usize) % w;
                        in_flight.push(net.inject(wire));
                    }
                    _ => {
                        if !in_flight.is_empty() {
                            let i = (lcg(&mut seed) as usize) % in_flight.len();
                            let pos = in_flight[i].clone();
                            let next = net.advance(pos);
                            if matches!(next, TokenPos::Exited(_)) {
                                in_flight.swap_remove(i);
                            } else {
                                in_flight[i] = next;
                            }
                        }
                    }
                }
            }
            // Drain to quiescence.
            while let Some(pos) = in_flight.pop() {
                let mut pos = pos;
                loop {
                    pos = net.advance(pos);
                    if matches!(pos, TokenPos::Exited(_)) {
                        break;
                    }
                }
            }
            let counts = net.output_counts();
            assert!(
                acn_bitonic::step::is_step_sequence(counts),
                "seed {seed0}: {counts:?}"
            );
        }
    }

    #[test]
    fn next_value_is_dense_sequentially() {
        let mut net = LocalAdaptiveNetwork::new(8);
        net.split(&ComponentId::root()).unwrap();
        let got: Vec<u64> = (0..30).map(|t| net.next_value(t % 8)).collect();
        assert_eq!(got, (0..30).collect::<Vec<u64>>());
    }

    #[test]
    fn reconfigure_reaches_target_cut_and_keeps_counting() {
        let w = 16;
        let tree = Tree::new(w);
        let mut net = LocalAdaptiveNetwork::new(w);
        let mut expected = 0u64;
        for level in [2usize, 0, 3, 1, 0, 2] {
            let target = Cut::uniform(&tree, level);
            net.reconfigure(&target);
            assert_eq!(net.cut(), &target, "level {level}");
            assert!(net.is_consistent());
            for _ in 0..10 {
                assert_eq!(net.push((expected as usize * 7) % w) as u64, expected % w as u64);
                expected += 1;
            }
        }
    }

    #[test]
    fn ablation_zero_init_split_breaks_counting() {
        // DESIGN.md experiment A1: replacing the simulation-based split
        // initialization with zeroed children loses the round-robin
        // offset whenever x != 0.
        let w = 8;
        let tree = Tree::new(w);
        let root = ComponentId::root();
        let mut net = LocalAdaptiveNetwork::new(w);
        for t in 0..3 {
            assert_eq!(net.push(0), t);
        }
        // Manual "naive split": replace the root with fresh children.
        let mut broken = LocalAdaptiveNetwork::with_cut(
            w,
            {
                let mut c = Cut::root();
                c.split(&tree, &root).unwrap();
                c
            },
            WiringStyle::Ahs,
        );
        // Copy the exit ledger so the comparison is fair.
        broken.output_counts.copy_from_slice(net.output_counts());
        // The naive network restarts at wire 0 instead of wire 3.
        let out = broken.push(0);
        assert_ne!(out, 3, "zero-init unexpectedly preserved the offset");
        assert!(!acn_bitonic::step::is_step_sequence(broken.output_counts()));
        // Whereas the real split continues correctly.
        net.split(&root).unwrap();
        assert_eq!(net.push(0), 3);
    }

    #[test]
    fn components_iterate_in_component_id_order() {
        let mut net = LocalAdaptiveNetwork::new(16);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        net.split(&root.child(3)).unwrap();
        net.split(&root.child(0)).unwrap();
        let ids: Vec<ComponentId> = net.components().map(|c| *c.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids, net.cut().leaves().iter().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn split_errors_on_non_leaf() {
        let mut net = LocalAdaptiveNetwork::new(8);
        let bogus = ComponentId::from_path(vec![0]);
        assert!(net.split(&bogus).is_err());
        assert!(net.merge(&ComponentId::root()).is_err());
    }
}

//! The component state machine and split/merge state transfer.
//!
//! A component of width `k` has `k` input and `k` output wires and a
//! round-robin counter: the next token leaves on output port
//! `tokens mod k` (the paper's local variable `x`, Section 2.2,
//! "Implementing a Component"). The *output* behaviour is oblivious to
//! which input wire a token arrives on — that is the trick that lets
//! `BITONIC[k]`, `MERGER[k]` and `MIX[k]` share one implementation.
//!
//! In addition to the counter, each component records how many tokens
//! arrived on each of its input wires (the *arrival profile*). This is
//! purely local information — every token message already carries its
//! destination wire — and it is exactly what makes **exact** split
//! state transfer possible: the correct child states after a split are
//! determined by the arrival profile (not by the counter alone; a
//! `MERGER` whose traffic all came from one input half must initialize
//! its sub-mergers very differently from one with balanced halves).
//!
//! # State transfer
//!
//! - **Split** ([`split_component`]): the children's counters and
//!   profiles are computed by *flowing* the parent's arrival profile
//!   through the decomposition: boundary arrivals map through
//!   [`parent_input_to_child`]; each child then emits its tokens
//!   round-robin, and those per-port emission counts
//!   ([`port_emissions`]) feed the sibling profiles via
//!   [`child_output_destination`]. Children are processed in index
//!   order, which is topological for every component kind.
//! - **Merge** ([`merge_components`]): the parent's counter is the
//!   total emitted by the output-side children; its profile is the
//!   children's boundary arrivals. Tokens still in flight on internal
//!   wires at merge time are *pre-counted* in the profile; their number
//!   (`floating`) is computed from per-wire sent/received deltas, and
//!   they are reconciled when they arrive (they bump the counter but
//!   not the profile). A component with floating tokens cannot split
//!   until they drain — [`split_component`] enforces this.

use acn_topology::{
    child_output_destination, parent_input_to_child, ChildOutput, ComponentId, ComponentKind,
    Tree, WiringStyle,
};

/// Tokens a round-robin counter of the given width has emitted on
/// `port` after `tokens` tokens (starting at position 0):
/// `ceil((tokens - port) / width)`, clamped at zero.
#[must_use]
pub fn port_emissions(tokens: u64, width: usize, port: usize) -> u64 {
    (tokens + width as u64 - 1 - port as u64) / width as u64
}

/// Why a state transfer had to be deferred.
///
/// Both conditions are transient: they clear as soon as the relevant
/// in-flight tokens are delivered, so runtimes simply retry (the
/// paper's model assumes reconfiguration is infrequent relative to
/// token traffic, Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// The component pre-counts merge-time in-flight tokens that have
    /// not been re-delivered yet.
    TokensInFlight,
    /// The component's arrival profile is transiently illegal (tokens
    /// are in flight towards it), so no locally-computable child state
    /// can reproduce its committed emissions.
    Unsettled,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::TokensInFlight => {
                f.write_str("merged-over tokens are still in flight")
            }
            TransferError::Unsettled => {
                f.write_str("arrival profile is transiently unsettled")
            }
        }
    }
}

impl std::error::Error for TransferError {}

/// A live component of the adaptive network.
///
/// `Hash` feeds `acn-check`'s state fingerprints (the model checker
/// hashes lock payloads at every scheduling point); the runtimes never
/// hash components.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Component {
    id: ComponentId,
    kind: ComponentKind,
    width: usize,
    /// Tokens accounted for: every token that entered this component's
    /// subnetwork, including merge-time in-flight tokens that have not
    /// been re-delivered yet. Invariant: `sum(arrivals) == tokens ==
    /// sum(emitted) + sum(owed)`.
    tokens: u64,
    /// Arrivals per input wire.
    arrivals: Vec<u64>,
    /// Actual emissions per output wire so far.
    emitted: Vec<u64>,
    /// Output ports owed to merge-time in-flight tokens: when such a
    /// token is re-delivered it exits on an owed port instead of the
    /// round-robin position (the owed multiset is exactly the
    /// step-completion of what the subnetwork had emitted when it was
    /// merged).
    owed: Vec<u64>,
}

impl Component {
    /// A fresh (zero-token) component for node `id` of `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid node of `tree`.
    #[must_use]
    pub fn new(tree: &Tree, id: &ComponentId) -> Self {
        let info = tree.info(id).expect("invalid component id");
        Component {
            id: *id,
            kind: info.kind,
            width: info.width,
            tokens: 0,
            arrivals: vec![0; info.width],
            emitted: vec![0; info.width],
            owed: vec![0; info.width],
        }
    }

    /// A component that has processed `tokens` tokens arriving
    /// round-robin across its input wires — a canonical legal state,
    /// used by tests and fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid node of `tree`.
    #[must_use]
    pub fn with_tokens(tree: &Tree, id: &ComponentId, tokens: u64) -> Self {
        let mut c = Component::new(tree, id);
        c.tokens = tokens;
        for (i, a) in c.arrivals.iter_mut().enumerate() {
            *a = port_emissions(tokens, c.width, i);
        }
        for (i, e) in c.emitted.iter_mut().enumerate() {
            *e = port_emissions(tokens, c.width, i);
        }
        c
    }

    /// Rebuilds a component from transferred state (network messages,
    /// migration).
    ///
    /// # Panics
    ///
    /// Panics if `id` is invalid or `arrivals.len()` is not the width.
    #[must_use]
    pub fn from_parts(
        tree: &Tree,
        id: &ComponentId,
        tokens: u64,
        arrivals: Vec<u64>,
        emitted: Vec<u64>,
        owed: Vec<u64>,
    ) -> Self {
        let info = tree.info(id).expect("invalid component id");
        assert_eq!(arrivals.len(), info.width, "profile length mismatch");
        assert_eq!(emitted.len(), info.width, "emission ledger length mismatch");
        assert_eq!(owed.len(), info.width, "owed length mismatch");
        Component {
            id: *id,
            kind: info.kind,
            width: info.width,
            tokens,
            arrivals,
            emitted,
            owed,
        }
    }

    /// The component's identifier in `T_w`.
    #[must_use]
    pub fn id(&self) -> &ComponentId {
        &self.id
    }

    /// The component kind (`BITONIC`, `MERGER` or `MIX`).
    #[must_use]
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// The width `k` of the component.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total tokens that have passed through this component.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// The arrival profile (tokens received per input wire).
    #[must_use]
    pub fn arrivals(&self) -> &[u64] {
        &self.arrivals
    }

    /// Tokens pre-counted by a merge that are still in flight (the
    /// total of the owed output ports).
    #[must_use]
    pub fn floating(&self) -> u64 {
        self.owed.iter().sum()
    }

    /// Output ports owed to merge-time in-flight tokens.
    #[must_use]
    pub fn owed(&self) -> &[u64] {
        &self.owed
    }

    /// Actual emissions per output wire so far.
    #[must_use]
    pub fn emitted(&self) -> &[u64] {
        &self.emitted
    }

    /// The paper's variable `x`: the output port the *next* token will
    /// leave on.
    #[must_use]
    pub fn position(&self) -> usize {
        (self.tokens % self.width as u64) as usize
    }

    /// Processes one token arriving on `port` (`None` for a token on a
    /// wire internal to this component — one that was in flight across
    /// the merge that formed it). Returns the output port: the next
    /// round-robin position for ordinary tokens, an owed port for
    /// merge-time in-flight tokens (they were pre-counted and must
    /// complete the step pattern the subnetwork owed when it merged).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn process_token(&mut self, port: Option<usize>) -> usize {
        let out = match port {
            Some(p) => {
                self.arrivals[p] += 1;
                let out = self.position();
                self.tokens += 1;
                out
            }
            None => {
                // Serve the owed multiset (pre-counted in `tokens`).
                match self.owed.iter().position(|&o| o > 0) {
                    Some(out) => {
                        self.owed[out] -= 1;
                        out
                    }
                    None => {
                        // No debt recorded (only possible after state
                        // corruption); fall back to round-robin.
                        debug_assert!(false, "unexpected internal token at {}", self.id);
                        let out = self.position();
                        self.tokens += 1;
                        out
                    }
                }
            }
        };
        self.emitted[out] += 1;
        out
    }

    /// Absorbs a batch of tokens processed *outside* the component by
    /// a lock-free fast path: `arrival_deltas[p]` tokens arrived on
    /// input wire `p` and were emitted round-robin continuing from the
    /// component's current position. Equivalent to the corresponding
    /// sequence of [`process_token`](Self::process_token)`(Some(p))`
    /// calls (the emission ledger is advanced by the round-robin
    /// delta, which is what those calls would have produced — output
    /// behaviour is oblivious to arrival order).
    ///
    /// # Panics
    ///
    /// Panics if `arrival_deltas.len()` is not the width, or if the
    /// component has merge-owed tokens in flight (the fast path only
    /// runs between quiescent reconfigurations, where `floating == 0`).
    pub fn absorb_batch(&mut self, arrival_deltas: &[u64]) {
        assert_eq!(arrival_deltas.len(), self.width, "profile length mismatch");
        assert_eq!(
            self.floating(),
            0,
            "fast-path batches require a quiescent component (no owed tokens)"
        );
        let n: u64 = arrival_deltas.iter().sum();
        let t0 = self.tokens;
        for (a, d) in self.arrivals.iter_mut().zip(arrival_deltas) {
            *a += d;
        }
        for (q, e) in self.emitted.iter_mut().enumerate() {
            *e += port_emissions(t0 + n, self.width, q) - port_emissions(t0, self.width, q);
        }
        self.tokens = t0 + n;
        debug_assert!(self.is_consistent());
    }

    /// Overwrites the token counter (fault injection / stabilization
    /// tests). The arrival profile is reset to the canonical
    /// round-robin profile for the new count.
    pub fn set_tokens(&mut self, tokens: u64) {
        self.tokens = tokens;
        self.owed = vec![0; self.width];
        for i in 0..self.width {
            self.arrivals[i] = port_emissions(tokens, self.width, i);
            self.emitted[i] = port_emissions(tokens, self.width, i);
        }
    }

    /// Internal consistency: `sum(arrivals) == tokens`. (The emission
    /// ledger may legitimately skew from the round-robin ideal — and
    /// from `tokens - floating` by a bounded amount — after histories
    /// in which merge-owed tokens were served out of round-robin order
    /// and the component was later split along flow-canonical internal
    /// ledgers; see `split_component`.)
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.arrivals.iter().sum::<u64>() == self.tokens
    }
}

/// The child indices whose output wires are the parent's output wires.
/// Summing the children's counters over this set counts the tokens the
/// subnetwork has emitted.
#[must_use]
pub fn output_children(kind: ComponentKind) -> &'static [usize] {
    match kind {
        ComponentKind::Bitonic => &[4, 5],
        ComponentKind::Merger => &[2, 3],
        ComponentKind::Mix => &[0, 1],
    }
}

/// Splits a component into its children with exactly initialized states
/// (paper Section 2.2, "Splitting a Component", step 2): the parent's
/// arrival profile is flowed through the decomposition.
///
/// Returns the children in child-index order.
///
/// # Errors
///
/// Returns [`TransferError::TokensInFlight`] if merge-owed tokens are
/// undelivered, and [`TransferError::Unsettled`] if the arrival profile
/// is transiently illegal — the flow's boundary emissions would
/// contradict the emissions the component has actually committed
/// downstream. Both clear once in-flight tokens drain; callers retry.
///
/// # Panics
///
/// Panics if the component is a balancer (width 2) or not valid in
/// `tree`.
pub fn split_component(
    tree: &Tree,
    component: &Component,
    style: WiringStyle,
) -> Result<Vec<Component>, TransferError> {
    assert!(component.width >= 4, "cannot split a width-2 component");
    if component.floating() > 0 {
        return Err(TransferError::TokensInFlight);
    }
    debug_assert!(component.is_consistent(), "inconsistent component {}", component.id);
    let children_ids = tree.children(&component.id);
    let arity = children_ids.len();
    let half = component.width / 2;
    let mut tokens = vec![0u64; arity];
    let mut profiles = vec![vec![0u64; half]; arity];
    // Boundary arrivals enter the input-side children.
    for (port, &count) in component.arrivals.iter().enumerate() {
        let (child, child_port) =
            parent_input_to_child(component.kind, component.width, port, style);
        profiles[child][child_port] += count;
        tokens[child] += count;
    }
    // Flow internal wires in child-index order (topological for every
    // kind: bitonics feed mergers feed mixes).
    for child in 0..arity {
        for port in 0..half {
            let sent = port_emissions(tokens[child], half, port);
            if let ChildOutput::Sibling { child: sibling, port: sibling_port } =
                child_output_destination(component.kind, component.width, child, port, style)
            {
                profiles[sibling][sibling_port] += sent;
                tokens[sibling] += sent;
            }
        }
    }
    let children: Vec<Component> = children_ids
        .iter()
        .zip(tokens.into_iter().zip(profiles))
        .map(|(id, (t, profile))| {
            let width = profile.len();
            let emitted: Vec<u64> =
                (0..width).map(|q| port_emissions(t, width, q)).collect();
            Component::from_parts(tree, id, t, profile, emitted, vec![0; width])
        })
        .collect();
    // Settledness gate: the flow's boundary emissions must equal the
    // emissions the component actually committed. They differ exactly
    // when the arrival profile is transiently illegal (e.g. a merger
    // whose input halves are momentarily imbalanced because upstream
    // tokens are in flight): the atomic component has already emitted by
    // position, while the would-be children would have routed the same
    // arrivals differently. No local child state can bridge that; defer.
    for (child_index, child) in children.iter().enumerate() {
        for port in 0..half {
            if let ChildOutput::Parent { port: parent_port } = child_output_destination(
                component.kind,
                component.width,
                child_index,
                port,
                style,
            ) {
                if child.emitted[port] != component.emitted[parent_port] {
                    return Err(TransferError::Unsettled);
                }
            }
        }
    }
    Ok(children)
}

/// Merges fully-collected children back into their parent (paper
/// Section 2.2, "Merging Components", step 2).
///
/// The parent's profile is the boundary arrivals, and its counter is
/// the total number of tokens that entered the subnetwork. Tokens still
/// in flight on internal wires at merge time (computed from per-wire
/// sent/received deltas) are *owed*: the exact output ports the
/// subnetwork would have emitted them on are computed by flowing the
/// debts through the children's round-robin states, and recorded in the
/// parent's owed multiset. Re-delivered in-flight tokens then consume
/// owed ports instead of round-robin positions — which is precisely
/// what keeps the quiescent step property exact across merges with
/// concurrent traffic.
///
/// # Errors
///
/// Returns [`TransferError::Unsettled`] if the children's predicted
/// final emissions do not complete to the round-robin pattern of the
/// total entered — which happens exactly when the subnetwork's arrival
/// profile is transiently illegal (upstream tokens in flight). The
/// merged counter could not reproduce the children's behaviour then;
/// callers retry once traffic drains.
///
/// # Panics
///
/// Panics if `children` is not the complete child list of `parent_id`
/// in child-index order, or `parent_id` is invalid.
pub fn merge_components(
    tree: &Tree,
    parent_id: &ComponentId,
    children: &[Component],
    style: WiringStyle,
) -> Result<Component, TransferError> {
    let info = tree.info(parent_id).expect("invalid parent id");
    assert_eq!(children.len(), info.kind.arity(), "merge requires the full child list");
    for (i, child) in children.iter().enumerate() {
        assert_eq!(
            child.id().parent().as_ref(),
            Some(parent_id),
            "child {i} does not belong to {parent_id}"
        );
        assert_eq!(child.id().child_index(), Some(i as u8), "children out of order");
    }
    let half = info.width / 2;
    let arity = children.len();
    // Boundary profile; the parent's counter is everything that entered.
    let mut arrivals = vec![0u64; info.width];
    for (port, slot) in arrivals.iter_mut().enumerate() {
        let (child, child_port) = parent_input_to_child(info.kind, info.width, port, style);
        *slot = children[child].arrivals[child_port];
    }
    let tokens: u64 = arrivals.iter().sum();
    // Flow the debts: `extra[child]` counts in-flight tokens that will
    // still arrive at that child (wire debts plus upstream future
    // emissions). Children's own owed ports and the round-robin
    // continuation of the extras both produce future emissions, which
    // feed siblings (in index order — topological) or the parent's owed
    // multiset.
    let mut extra = vec![0u64; arity];
    // Seed with per-internal-wire debts: actual sent minus received.
    for (child_index, child) in children.iter().enumerate() {
        for port in 0..half {
            if let ChildOutput::Sibling { child: sibling, port: sibling_port } =
                child_output_destination(info.kind, info.width, child_index, port, style)
            {
                let sent = child.emitted[port];
                let received = children[sibling].arrivals[sibling_port];
                debug_assert!(
                    sent >= received,
                    "wire {child_index}:{port} -> {sibling}:{sibling_port}: received {received} > sent {sent}"
                );
                extra[sibling] += sent - received;
            }
        }
    }
    let mut owed = vec![0u64; info.width];
    let mut emitted = vec![0u64; info.width];
    for (child_index, child) in children.iter().enumerate() {
        for port in 0..half {
            // Future emissions of this child on this port: its owed
            // ports plus the round-robin continuation for the extra
            // (in-flight) arrivals. Round-robin positions continue from
            // `tokens` (which pre-counts the child's own owed tokens).
            let future = child.owed[port]
                + port_emissions(child.tokens + extra[child_index], half, port)
                - port_emissions(child.tokens, half, port);
            match child_output_destination(info.kind, info.width, child_index, port, style) {
                ChildOutput::Sibling { child: sibling, port: _ } => {
                    debug_assert!(sibling > child_index, "flow order violated");
                    extra[sibling] += future;
                }
                ChildOutput::Parent { port: parent_port } => {
                    owed[parent_port] += future;
                    emitted[parent_port] = child.emitted[port];
                }
            }
        }
    }
    // Settledness gate: the predicted final emissions (actual so far +
    // owed) must complete to the round-robin pattern of everything that
    // entered; otherwise the merged counter cannot reproduce the
    // children network's behaviour and the merge must wait for traffic
    // to drain.
    for q in 0..info.width {
        if emitted[q] + owed[q] != port_emissions(tokens, info.width, q) {
            return Err(TransferError::Unsettled);
        }
    }
    let merged = Component::from_parts(tree, parent_id, tokens, arrivals, emitted, owed);
    debug_assert!(merged.is_consistent(), "merge produced inconsistent state");
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_token_round_robin() {
        let tree = Tree::new(8);
        let mut c = Component::new(&tree, &ComponentId::root());
        let outs: Vec<usize> = (0..10).map(|i| c.process_token(Some(i % 8))).collect();
        assert_eq!(outs, [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
        assert_eq!(c.tokens(), 10);
        assert_eq!(c.position(), 2);
        assert!(c.is_consistent());
    }

    #[test]
    fn absorb_batch_matches_sequential_processing() {
        let tree = Tree::new(8);
        let root = ComponentId::root();
        for start in 0..9u64 {
            let mut sequential = Component::with_tokens(&tree, &root, start);
            let mut batched = sequential.clone();
            // A skewed batch: 5 tokens on wire 1, 2 on wire 6, 1 on wire 0.
            let deltas = [1u64, 5, 0, 0, 0, 0, 2, 0];
            for (port, &count) in deltas.iter().enumerate() {
                for _ in 0..count {
                    let _ = sequential.process_token(Some(port));
                }
            }
            batched.absorb_batch(&deltas);
            assert_eq!(batched, sequential, "start={start}");
        }
    }

    #[test]
    fn fresh_split_produces_zeroed_children() {
        let tree = Tree::new(8);
        let parent = Component::new(&tree, &ComponentId::root());
        let children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
        assert_eq!(children.len(), 6);
        assert!(children.iter().all(|c| c.tokens() == 0 && c.is_consistent()));
    }

    #[test]
    fn split_then_merge_is_identity() {
        let tree = Tree::new(16);
        for path in [vec![], vec![2], vec![4], vec![0]] {
            let id = ComponentId::from_path(path);
            let info = tree.info(&id).unwrap();
            if info.width < 4 {
                continue;
            }
            for tokens in 0..(3 * info.width as u64) {
                let parent = Component::with_tokens(&tree, &id, tokens);
                let children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
                for c in &children {
                    assert!(c.is_consistent(), "{} child {} inconsistent", info, c.id());
                }
                let merged =
                    merge_components(&tree, &id, &children, WiringStyle::Ahs).unwrap();
                assert_eq!(merged, parent, "{info} tokens={tokens}");
            }
        }
    }

    #[test]
    fn split_flows_conserve_tokens() {
        let tree = Tree::new(16);
        let id = ComponentId::root();
        for tokens in 0..48u64 {
            let parent = Component::with_tokens(&tree, &id, tokens);
            let children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
            let emitted: u64 = output_children(parent.kind())
                .iter()
                .map(|&i| children[i].tokens())
                .sum();
            assert_eq!(emitted, tokens, "tokens={tokens}");
        }
    }

    #[test]
    fn skewed_merger_profile_splits_differently_from_balanced() {
        // The reason profiles exist: two mergers with the same counter
        // but different (legal) arrival profiles must initialize their
        // children differently — the counter alone cannot tell them
        // apart.
        let tree = Tree::new(16);
        let id = ComponentId::root().child(2); // MERGER[8]
        let balanced = Component::with_tokens(&tree, &id, 2);
        let mut skewed = Component::new(&tree, &id);
        let _ = skewed.process_token(Some(0)); // x side
        let _ = skewed.process_token(Some(4)); // y side
        assert_eq!(balanced.tokens(), skewed.tokens());
        let cb = split_component(&tree, &balanced, WiringStyle::Ahs).unwrap();
        let cs = split_component(&tree, &skewed, WiringStyle::Ahs).unwrap();
        assert_ne!(
            cb.iter().map(|c| c.arrivals().to_vec()).collect::<Vec<_>>(),
            cs.iter().map(|c| c.arrivals().to_vec()).collect::<Vec<_>>(),
            "profiles must influence the split"
        );
    }

    #[test]
    fn illegal_profile_defers_split() {
        // Three tokens all on one wire of a merger is not a profile its
        // upstream can have settled into: the split must defer.
        let tree = Tree::new(16);
        let id = ComponentId::root().child(2); // MERGER[8]
        let mut c = Component::new(&tree, &id);
        for _ in 0..3 {
            let _ = c.process_token(Some(0));
        }
        assert_eq!(
            split_component(&tree, &c, WiringStyle::Ahs),
            Err(TransferError::Unsettled)
        );
    }

    #[test]
    fn split_positions_periodic_in_width() {
        // Canonical components with t and t + k produce children in the
        // same positions (each child's throughput per k parent tokens is
        // a multiple of its width).
        let tree = Tree::new(16);
        for path in [vec![], vec![2], vec![4]] {
            let id = ComponentId::from_path(path);
            let info = tree.info(&id).unwrap();
            if info.width < 4 {
                continue;
            }
            let k = info.width as u64;
            for n in 0..k {
                let a = split_component(
                    &tree,
                    &Component::with_tokens(&tree, &id, n),
                    WiringStyle::Ahs,
                )
                .unwrap();
                let b = split_component(
                    &tree,
                    &Component::with_tokens(&tree, &id, n + k),
                    WiringStyle::Ahs,
                )
                .unwrap();
                let pa: Vec<usize> = a.iter().map(Component::position).collect();
                let pb: Vec<usize> = b.iter().map(Component::position).collect();
                assert_eq!(pa, pb, "{info} n={n}");
            }
        }
    }

    #[test]
    fn merge_counts_floating_tokens() {
        // A token absorbed by the top bitonic but not yet delivered to a
        // merger is in flight: the merged parent must pre-count it.
        let tree = Tree::new(8);
        let root = ComponentId::root();
        let parent = Component::new(&tree, &root);
        let mut children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
        // One token passes through child 0 (top BITONIC[4]) only.
        let _ = children[0].process_token(Some(0));
        let merged =
            merge_components(&tree, &root, &children, WiringStyle::Ahs).unwrap();
        assert_eq!(merged.tokens(), 1, "one token entered the subnetwork");
        assert_eq!(merged.floating(), 1, "one token is in flight");
        // The in-flight token is owed output wire 0 (nothing was
        // emitted yet, so the step-completion starts at wire 0).
        assert_eq!(merged.owed()[0], 1);
        assert!(merged.is_consistent());
        // Delivering the floater restores full consistency.
        let mut merged = merged;
        let out = merged.process_token(None);
        assert_eq!(out, 0);
        assert_eq!(merged.floating(), 0);
        assert!(merged.is_consistent());
    }

    #[test]
    fn merge_rejects_wrong_children() {
        let tree = Tree::new(8);
        let id = ComponentId::root();
        let mut children: Vec<Component> =
            tree.children(&id).iter().map(|c| Component::new(&tree, c)).collect();
        children.swap(0, 1);
        let result = std::panic::catch_unwind(|| {
            merge_components(&tree, &id, &children, WiringStyle::Ahs)
        });
        assert!(result.is_err(), "out-of-order children must be rejected");
    }

    #[test]
    fn split_rejects_floating_tokens() {
        let tree = Tree::new(8);
        let root = ComponentId::root();
        let parent = Component::new(&tree, &root);
        let mut children = split_component(&tree, &parent, WiringStyle::Ahs).unwrap();
        let _ = children[0].process_token(Some(0));
        let merged =
            merge_components(&tree, &root, &children, WiringStyle::Ahs).unwrap();
        assert_eq!(
            split_component(&tree, &merged, WiringStyle::Ahs),
            Err(TransferError::TokensInFlight)
        );
    }

    #[test]
    fn port_emissions_formula() {
        assert_eq!(port_emissions(0, 4, 0), 0);
        assert_eq!(port_emissions(1, 4, 0), 1);
        assert_eq!(port_emissions(5, 4, 0), 2);
        assert_eq!(port_emissions(5, 4, 1), 1);
        assert_eq!(port_emissions(5, 4, 3), 1);
        assert_eq!(port_emissions(3, 4, 3), 0);
        // Sums to the token count.
        for t in 0..40u64 {
            let total: u64 = (0..8).map(|i| port_emissions(t, 8, i)).sum();
            assert_eq!(total, t);
        }
    }

    #[test]
    fn output_children_cover_all_kinds() {
        assert_eq!(output_children(ComponentKind::Bitonic), &[4, 5]);
        assert_eq!(output_children(ComponentKind::Merger), &[2, 3]);
        assert_eq!(output_children(ComponentKind::Mix), &[0, 1]);
    }
}

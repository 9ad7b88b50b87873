//! Wire-level connections between the components of the decomposition.
//!
//! Section 2.1 of the paper specifies how the input/output wires of a
//! component map onto its children when it is decomposed. This module
//! implements those maps, plus the derived machinery the runtimes need:
//!
//! - [`parent_input_to_child`]: where input port `p` of a decomposed
//!   component enters among its children;
//! - [`child_output_destination`]: where output port `q` of a child goes —
//!   into a sibling, or out of the parent;
//! - [`resolve_output`] / [`WireAddress`]: the *cut-independent* address of
//!   the wire leaving a component output — the balancer-level (deepest)
//!   tree leaf owning the destination input wire. Under any cut, the
//!   live owner of the wire is the unique cut leaf on the ancestor path of
//!   that balancer, which is how routing with stale views works (paper
//!   Section 3.5);
//! - [`CutWiring`] / [`Route`]: the fully resolved component graph of one
//!   cut — the only code that resolves a whole cut.
//!
//! Identifiers, [`WireAddress`], [`PortRef`] and [`OutputDestination`]
//! are small `Copy` values: resolving a port or walking an ancestor chain
//! allocates nothing, and the owner candidates of a wire are the prefixes
//! of its balancer's path ([`ComponentId::prefix`]).
//!
//! # Wiring style
//!
//! The paper's prose says the top `MERGER[k/2]` receives the *even*
//! outputs of **both** half-`BITONIC[k/2]`s. Under 0-based indexing that
//! pairing does not count (the two mergers can accumulate a discrepancy of
//! 2 which the final `MIX` layer cannot repair); the intended construction
//! — the paper notes its proof "is very similar to" Aspnes–Herlihy–Shavit
//! — pairs the *even* outputs of the top half with the *odd* outputs of
//! the bottom half. [`WiringStyle::Ahs`] (the default everywhere)
//! implements the correct AHS pairing; [`WiringStyle::PaperLiteral`] is
//! kept for the ablation experiment that demonstrates the failure.

use std::fmt;

use crate::cut::Cut;
use crate::id::ComponentId;
use crate::kind::ComponentKind;
use crate::tree::Tree;

/// Which even/odd pairing to use when a `BITONIC` or `MERGER` component
/// distributes wires to its two sub-mergers. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WiringStyle {
    /// The Aspnes–Herlihy–Shavit pairing (correct; default).
    #[default]
    Ahs,
    /// The literal even/even pairing from the paper's prose (fails the
    /// step property; retained for the ablation experiment).
    PaperLiteral,
}

/// A reference to a port (input or output, by context) of a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRef {
    /// The component.
    pub id: ComponentId,
    /// The port index, `0..width`.
    pub port: usize,
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.id, self.port)
    }
}

/// Where a child's output wire leads within (or out of) its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChildOutput {
    /// Into input `port` of sibling number `child`.
    Sibling {
        /// Child index of the sibling within the same parent.
        child: usize,
        /// Input port of the sibling.
        port: usize,
    },
    /// Out of the parent on its output `port`.
    Parent {
        /// Output port of the parent.
        port: usize,
    },
}

/// Maps input port `port` of a decomposed component of the given kind and
/// width to `(child index, child input port)`.
///
/// # Panics
///
/// Panics if `width < 4` (width-2 components are leaves and cannot be
/// decomposed) or `port >= width`.
#[must_use]
pub fn parent_input_to_child(
    kind: ComponentKind,
    width: usize,
    port: usize,
    style: WiringStyle,
) -> (usize, usize) {
    assert!(width >= 4 && width.is_power_of_two(), "width {width} not decomposable");
    assert!(port < width, "port {port} out of range for width {width}");
    let half = width / 2;
    let quarter = width / 4;
    match kind {
        // Inputs split top/bottom between the two half-BITONICs.
        ComponentKind::Bitonic => {
            if port < half {
                (0, port)
            } else {
                (1, port - half)
            }
        }
        // MERGER[k] merges x = ports 0..k/2 with y = ports k/2..k.
        // Even x's go to the top sub-merger, odd x's to the bottom; the
        // y side depends on the wiring style.
        ComponentKind::Merger => {
            if port < half {
                if port.is_multiple_of(2) {
                    (0, port / 2)
                } else {
                    (1, port / 2)
                }
            } else {
                let q = port - half;
                let to_top = match style {
                    WiringStyle::Ahs => q % 2 == 1,
                    WiringStyle::PaperLiteral => q.is_multiple_of(2),
                };
                if to_top {
                    (0, quarter + q / 2)
                } else {
                    (1, quarter + q / 2)
                }
            }
        }
        // MIX[k] splits into two MIX[k/2] with no internal connections.
        ComponentKind::Mix => {
            if port < half {
                (0, port)
            } else {
                (1, port - half)
            }
        }
    }
}

/// Maps output port `port` of child number `child` of a decomposed
/// component of the given kind and width to its destination.
///
/// # Panics
///
/// Panics if `width < 4`, `child` is out of range for the kind, or
/// `port >= width / 2`.
#[must_use]
pub fn child_output_destination(
    kind: ComponentKind,
    width: usize,
    child: usize,
    port: usize,
    style: WiringStyle,
) -> ChildOutput {
    assert!(width >= 4 && width.is_power_of_two(), "width {width} not decomposable");
    let half = width / 2;
    let quarter = width / 4;
    assert!(child < kind.arity(), "child {child} out of range for {kind}");
    assert!(port < half, "port {port} out of range for child width {half}");
    match kind {
        ComponentKind::Bitonic => match child {
            // Top BITONIC: even outputs feed the top MERGER's top inputs,
            // odd outputs the bottom MERGER's top inputs.
            0 => {
                if port.is_multiple_of(2) {
                    ChildOutput::Sibling { child: 2, port: port / 2 }
                } else {
                    ChildOutput::Sibling { child: 3, port: port / 2 }
                }
            }
            // Bottom BITONIC: the pairing depends on the style (AHS sends
            // *odd* outputs to the top MERGER).
            1 => {
                let to_top = match style {
                    WiringStyle::Ahs => port % 2 == 1,
                    WiringStyle::PaperLiteral => port.is_multiple_of(2),
                };
                if to_top {
                    ChildOutput::Sibling { child: 2, port: quarter + port / 2 }
                } else {
                    ChildOutput::Sibling { child: 3, port: quarter + port / 2 }
                }
            }
            // Top MERGER: top quarter of outputs are the even inputs of
            // the top MIX, bottom quarter the even inputs of the bottom MIX.
            2 => {
                if port < quarter {
                    ChildOutput::Sibling { child: 4, port: 2 * port }
                } else {
                    ChildOutput::Sibling { child: 5, port: 2 * (port - quarter) }
                }
            }
            // Bottom MERGER: same, on the odd inputs.
            3 => {
                if port < quarter {
                    ChildOutput::Sibling { child: 4, port: 2 * port + 1 }
                } else {
                    ChildOutput::Sibling { child: 5, port: 2 * (port - quarter) + 1 }
                }
            }
            // The MIX outputs are the component outputs, in order.
            4 => ChildOutput::Parent { port },
            5 => ChildOutput::Parent { port: half + port },
            _ => unreachable!(),
        },
        ComponentKind::Merger => match child {
            0 => {
                if port < quarter {
                    ChildOutput::Sibling { child: 2, port: 2 * port }
                } else {
                    ChildOutput::Sibling { child: 3, port: 2 * (port - quarter) }
                }
            }
            1 => {
                if port < quarter {
                    ChildOutput::Sibling { child: 2, port: 2 * port + 1 }
                } else {
                    ChildOutput::Sibling { child: 3, port: 2 * (port - quarter) + 1 }
                }
            }
            2 => ChildOutput::Parent { port },
            3 => ChildOutput::Parent { port: half + port },
            _ => unreachable!(),
        },
        ComponentKind::Mix => match child {
            0 => ChildOutput::Parent { port },
            1 => ChildOutput::Parent { port: half + port },
            _ => unreachable!(),
        },
    }
}

/// The inverse of [`parent_input_to_child`]: if input port `port` of
/// child number `child` is fed by one of the parent's input ports,
/// returns that parent port; returns `None` if the child port is fed by
/// a sibling's output (i.e. the wire is internal to the parent).
///
/// # Panics
///
/// Panics if `width < 4`, `child` is out of range, or
/// `port >= width / 2`.
#[must_use]
pub fn child_input_to_parent(
    kind: ComponentKind,
    width: usize,
    child: usize,
    port: usize,
    style: WiringStyle,
) -> Option<usize> {
    assert!(width >= 4 && width.is_power_of_two(), "width {width} not decomposable");
    let half = width / 2;
    let quarter = width / 4;
    assert!(child < kind.arity(), "child {child} out of range for {kind}");
    assert!(port < half, "port {port} out of range for child width {half}");
    match kind {
        ComponentKind::Bitonic => match child {
            0 => Some(port),
            1 => Some(half + port),
            _ => None,
        },
        ComponentKind::Merger => match child {
            // Top sub-merger: x-evens then y's of one parity.
            0 => {
                if port < quarter {
                    Some(2 * port)
                } else {
                    let q = match style {
                        WiringStyle::Ahs => 2 * (port - quarter) + 1,
                        WiringStyle::PaperLiteral => 2 * (port - quarter),
                    };
                    Some(half + q)
                }
            }
            // Bottom sub-merger: x-odds then y's of the other parity.
            1 => {
                if port < quarter {
                    Some(2 * port + 1)
                } else {
                    let q = match style {
                        WiringStyle::Ahs => 2 * (port - quarter),
                        WiringStyle::PaperLiteral => 2 * (port - quarter) + 1,
                    };
                    Some(half + q)
                }
            }
            _ => None,
        },
        ComponentKind::Mix => match child {
            0 => Some(port),
            1 => Some(half + port),
            _ => None,
        },
    }
}

/// The input port of component `id` on which a token addressed to
/// `addr` arrives, or `None` if the wire is *internal* to `id` (possible
/// only for tokens that were in flight across a merge).
///
/// # Panics
///
/// Panics if `id` is not a valid node of `tree` or `addr` is not under
/// `id`'s subtree.
#[must_use]
pub fn input_port_of(
    tree: &Tree,
    id: &ComponentId,
    addr: &WireAddress,
    style: WiringStyle,
) -> Option<usize> {
    assert!(
        id == addr.balancer() || id.is_ancestor_of(addr.balancer()),
        "address {addr} is not under component {id}"
    );
    // `ComponentId::kind` walks the path from the root, so the kinds from
    // `id` down to the balancer's parent are taken in one descent; then
    // the port is mapped up from the balancer, level by level.
    let path = addr.balancer().path();
    let top = id.level();
    let mut kinds = [ComponentKind::Bitonic; ComponentId::MAX_DEPTH];
    let mut kind = id.kind().expect("valid ancestor");
    for (level, &step) in path.iter().enumerate().skip(top) {
        kinds[level] = kind;
        kind = kind.child_kind(usize::from(step)).expect("valid ancestor");
    }
    let mut port = usize::from(addr.port());
    for level in (top..path.len()).rev() {
        let width = tree.width() >> level;
        port = child_input_to_parent(kinds[level], width, usize::from(path[level]), port, style)?;
    }
    Some(port)
}

/// The cut-independent address of an input wire: the balancer-level leaf
/// of `T_w` that ultimately owns it, plus the balancer port (0 or 1).
///
/// Under any cut, the live owner of the wire is the unique cut leaf that
/// is the balancer itself or one of its ancestors — see
/// [`WireAddress::owner_under`]. This is exactly the ancestor-chain
/// probing structure of paper Section 3.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WireAddress {
    balancer: ComponentId,
    port: u8,
}

impl WireAddress {
    /// The balancer-level component owning this wire at full depth.
    #[must_use]
    pub fn balancer(&self) -> &ComponentId {
        &self.balancer
    }

    /// The input port (0 or 1) on the balancer.
    #[must_use]
    pub fn port(&self) -> u8 {
        self.port
    }

    /// The owner of this wire under `cut`: the unique leaf of the cut on
    /// the root-to-balancer path.
    ///
    /// Returns `None` if the cut does not cover the balancer (only
    /// possible for an invalid cut).
    #[must_use]
    pub fn owner_under(&self, cut: &Cut) -> Option<ComponentId> {
        if cut.contains(&self.balancer) {
            return Some(self.balancer);
        }
        self.balancer.ancestors().find(|a| cut.contains(a))
    }

    /// The candidate owners, deepest first: the balancer, then its
    /// ancestors up to the root — the prefixes of the balancer's path. A
    /// router probes along this chain (at most `log w - 1` names beyond
    /// the first, paper Section 3.5).
    pub fn candidates(&self) -> impl Iterator<Item = ComponentId> {
        std::iter::once(self.balancer).chain(self.balancer.ancestors())
    }
}

impl fmt::Display for WireAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.balancer, self.port)
    }
}

/// Where a component's output wire leads: either to another wire of the
/// network (addressed cut-independently) or out of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputDestination {
    /// The wire feeds another component; `WireAddress` names it at
    /// balancer granularity.
    Wire(WireAddress),
    /// The wire is output `port` of the whole `BITONIC[w]` network.
    NetworkOutput(usize),
}

/// Descends from `(node, input port)` to the balancer-level wire address,
/// showing `visit` the node and input port at every level on the way.
fn descend_to_balancer(
    tree: &Tree,
    mut node: ComponentId,
    mut port: usize,
    style: WiringStyle,
    mut visit: impl FnMut(&ComponentId, usize),
) -> WireAddress {
    loop {
        visit(&node, port);
        let info = tree.info(&node).expect("invalid node during descent");
        if info.width == 2 {
            return WireAddress { balancer: node, port: port as u8 };
        }
        let (child, child_port) = parent_input_to_child(info.kind, info.width, port, style);
        node = node.child(child as u8);
        port = child_port;
    }
}

/// Where the wire leaving output `port` of `id` goes in `T_w`: `Ok` with
/// the input port of the sibling (of `id` or of an ancestor) it enters,
/// or `Err` with the network output wire it leaves on.
fn wire_entry(
    tree: &Tree,
    id: &ComponentId,
    port: usize,
    style: WiringStyle,
) -> Result<PortRef, usize> {
    let (mut node, mut port) = (*id, port);
    loop {
        let Some(parent) = node.parent() else {
            return Err(port);
        };
        let child_index = node.child_index().expect("non-root has a child index") as usize;
        let pinfo = tree.info(&parent).expect("parent is valid");
        match child_output_destination(pinfo.kind, pinfo.width, child_index, port, style) {
            ChildOutput::Sibling { child, port } => {
                return Ok(PortRef { id: parent.child(child as u8), port });
            }
            ChildOutput::Parent { port: parent_port } => {
                node = parent;
                port = parent_port;
            }
        }
    }
}

/// Resolves output `port` of component `id` to its destination. The result
/// is independent of any cut and can be cached for the lifetime of the
/// network.
///
/// # Panics
///
/// Panics if `id` is not a valid node of `tree` or `port` is out of range
/// for its width.
#[must_use]
pub fn resolve_output(
    tree: &Tree,
    id: &ComponentId,
    port: usize,
    style: WiringStyle,
) -> OutputDestination {
    let info = tree.info(id).expect("invalid component id");
    assert!(port < info.width, "port {port} out of range for width {}", info.width);
    match wire_entry(tree, id, port, style) {
        Ok(to) => {
            OutputDestination::Wire(descend_to_balancer(tree, to.id, to.port, style, |_, _| ()))
        }
        Err(wire) => OutputDestination::NetworkOutput(wire),
    }
}

/// The wire address of network input wire `wire` (`0..w`), i.e. the
/// balancer a client should name first when injecting a token there
/// ("Finding an Input Component", paper Section 3.5).
///
/// # Panics
///
/// Panics if `wire >= tree.width()`.
#[must_use]
pub fn network_input_address(tree: &Tree, wire: usize, style: WiringStyle) -> WireAddress {
    assert!(wire < tree.width(), "input wire {wire} out of range");
    descend_to_balancer(tree, ComponentId::root(), wire, style, |_, _| ())
}

/// Where one output port of a cut leaf sends its tokens, resolved under
/// that cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// Into input `port` of the leaf at index `leaf` of the same
    /// [`CutWiring`] (its position in [`CutWiring::leaves`]).
    Leaf {
        /// The receiving leaf's index.
        leaf: usize,
        /// The receiving leaf's input port.
        port: usize,
    },
    /// Out of the network on this output wire.
    Exit(usize),
}

/// The fully resolved component-level graph of one cut: its leaves in
/// [`ComponentId`] order, where each of their output ports leads, and
/// which leaf input port each network input wire enters.
///
/// This is the one place a whole cut is resolved; the runtimes, the
/// stabilizer and the static constructions index it instead of walking
/// the tree themselves. Every internal route points at a strictly later
/// leaf, so the leaf order is a topological order of the component
/// graph (the constructor asserts it).
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, Cut, ComponentId, CutWiring};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// cut.split(&tree, &ComponentId::root()).unwrap();
/// let wiring = CutWiring::new(&tree, &cut);
/// // Input wires enter the two half-BITONICs.
/// assert_eq!(wiring.input_owner(0).id, ComponentId::root().child(0));
/// assert_eq!(wiring.input_owner(7).id, ComponentId::root().child(1));
/// ```
#[derive(Debug, Clone)]
pub struct CutWiring {
    tree: Tree,
    style: WiringStyle,
    /// The cut's leaves in `ComponentId` order.
    leaves: Vec<ComponentId>,
    /// Every leaf's output routes, leaf after leaf; leaf `i`'s are
    /// `routes[starts[i]..starts[i + 1]]`.
    routes: Vec<Route>,
    starts: Vec<usize>,
    /// For each network input wire: the index of the leaf it enters and
    /// that leaf's input port (twice: by index and by name).
    inputs: Vec<(usize, PortRef)>,
}

impl CutWiring {
    /// Resolves the wiring of `cut` over `tree` with the default
    /// ([`WiringStyle::Ahs`]) style.
    ///
    /// # Panics
    ///
    /// Panics if the cut is invalid for the tree.
    #[must_use]
    pub fn new(tree: &Tree, cut: &Cut) -> Self {
        Self::with_style(tree, cut, WiringStyle::Ahs)
    }

    /// Resolves the wiring of `cut` over `tree` with an explicit style.
    ///
    /// # Panics
    ///
    /// Panics if the cut is invalid for the tree.
    #[must_use]
    pub fn with_style(tree: &Tree, cut: &Cut, style: WiringStyle) -> Self {
        assert!(cut.is_valid(tree), "cut is not a valid antichain cover of the tree");
        let leaves: Vec<ComponentId> = cut.leaves().iter().copied().collect();
        let mut wiring = CutWiring {
            tree: *tree,
            style,
            leaves,
            routes: Vec::new(),
            starts: Vec::new(),
            inputs: Vec::new(),
        };
        let mut routes = Vec::new();
        let mut starts = Vec::with_capacity(wiring.leaves.len() + 1);
        for (i, leaf) in wiring.leaves.iter().enumerate() {
            starts.push(routes.len());
            for port in 0..tree.width() >> leaf.level() {
                let route = wiring.resolve(leaf, port);
                if let Route::Leaf { leaf: next, .. } = route {
                    assert!(next > i, "internal routes must flow forward: {i} -> {next}");
                }
                routes.push(route);
            }
        }
        starts.push(routes.len());
        let inputs = (0..tree.width())
            .map(|wire| {
                let (leaf, port) = wiring.enter(ComponentId::root(), wire);
                (leaf, PortRef { id: wiring.leaves[leaf], port })
            })
            .collect();
        wiring.routes = routes;
        wiring.starts = starts;
        wiring.inputs = inputs;
        wiring
    }

    /// Where output `port` of cut leaf `id` leads under the cut.
    fn resolve(&self, id: &ComponentId, port: usize) -> Route {
        match wire_entry(&self.tree, id, port, self.style) {
            Ok(to) => {
                let (leaf, port) = self.enter(to.id, to.port);
                Route::Leaf { leaf, port }
            }
            Err(wire) => Route::Exit(wire),
        }
    }

    /// The leaf that owns input `port` of tree node `node`, and the
    /// leaf's input port for that wire: descends to the balancer,
    /// noting the port at every level, and takes the cut leaf on the
    /// path. That leaf is the last one at or before the balancer in
    /// path order, because the ids between a node and its descendant
    /// all descend from the node.
    fn enter(&self, node: ComponentId, port: usize) -> (usize, usize) {
        let mut ports = [0; ComponentId::MAX_DEPTH + 1];
        let addr = descend_to_balancer(&self.tree, node, port, self.style, |node, port| {
            ports[node.level()] = port;
        });
        let leaf = self.leaves.partition_point(|l| l <= addr.balancer()) - 1;
        let owner = &self.leaves[leaf];
        debug_assert!(
            owner == addr.balancer() || owner.is_ancestor_of(addr.balancer()),
            "{owner} owns {addr}"
        );
        (leaf, ports[owner.level()])
    }

    /// The tree this wiring was resolved over.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The wiring style used.
    #[must_use]
    pub fn style(&self) -> WiringStyle {
        self.style
    }

    /// The number of leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether the wiring has no leaves (never, for a valid cut).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The leaf at index `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= self.len()`.
    #[must_use]
    pub fn leaf(&self, leaf: usize) -> &ComponentId {
        &self.leaves[leaf]
    }

    /// The routes of the output ports of the leaf at index `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= self.len()`.
    #[must_use]
    pub fn routes(&self, leaf: usize) -> &[Route] {
        &self.routes[self.starts[leaf]..self.starts[leaf + 1]]
    }

    /// The leaf index and input port that network input wire `wire`
    /// enters.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= tree.width()`.
    #[must_use]
    pub fn input(&self, wire: usize) -> (usize, usize) {
        let (leaf, at) = &self.inputs[wire];
        (*leaf, at.port)
    }

    /// The leaf owning network input wire `wire`, and its input port
    /// for that wire.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= tree.width()`.
    #[must_use]
    pub fn input_owner(&self, wire: usize) -> &PortRef {
        &self.inputs[wire].1
    }

    /// The index of cut leaf `leaf`.
    fn index(&self, leaf: &ComponentId) -> usize {
        self.leaves.binary_search(leaf).unwrap_or_else(|_| panic!("{leaf} is not a cut leaf"))
    }

    /// The route of output `port` of cut leaf `leaf`.
    fn route(&self, leaf: &ComponentId, port: usize) -> Route {
        self.routes(self.index(leaf))[port]
    }

    /// The destination leaf of output `port` of `leaf`, or `None` if that
    /// port is a network output.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not in the cut or `port` is out of range.
    #[must_use]
    pub fn out_neighbor(&self, leaf: &ComponentId, port: usize) -> Option<&ComponentId> {
        match self.route(leaf, port) {
            Route::Leaf { leaf, .. } => Some(&self.leaves[leaf]),
            Route::Exit(_) => None,
        }
    }

    /// The network output wire index of output `port` of `leaf`, or `None`
    /// if that port leads to another component.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not in the cut or `port` is out of range.
    #[must_use]
    pub fn network_output(&self, leaf: &ComponentId, port: usize) -> Option<usize> {
        match self.route(leaf, port) {
            Route::Leaf { .. } => None,
            Route::Exit(w) => Some(w),
        }
    }

    /// The distinct out-neighbours of a leaf (paper Section 3.5 argues the
    /// expected number is constant).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not in the cut.
    #[must_use]
    pub fn out_neighbors(&self, leaf: &ComponentId) -> Vec<ComponentId> {
        let mut v: Vec<ComponentId> = self
            .routes(self.index(leaf))
            .iter()
            .filter_map(|route| match *route {
                Route::Leaf { leaf, .. } => Some(self.leaves[leaf]),
                Route::Exit(_) => None,
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// All leaves of the wiring (the components of the cut), in
    /// `ComponentId` order: the order of leaf indices.
    pub fn leaves(&self) -> impl Iterator<Item = &ComponentId> {
        self.leaves.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::Cut;
    use std::collections::BTreeSet;

    /// Every child input port of a decomposed node is fed exactly once —
    /// by a parent input or by a sibling output.
    #[test]
    fn decomposition_wiring_is_a_bijection() {
        for style in [WiringStyle::Ahs, WiringStyle::PaperLiteral] {
            for kind in [ComponentKind::Bitonic, ComponentKind::Merger, ComponentKind::Mix] {
                for width in [4usize, 8, 16, 32] {
                    let half = width / 2;
                    let mut fed: BTreeSet<(usize, usize)> = BTreeSet::new();
                    for port in 0..width {
                        let dst = parent_input_to_child(kind, width, port, style);
                        assert!(fed.insert(dst), "{kind}[{width}] double-feeds {dst:?}");
                    }
                    let mut parent_out: BTreeSet<usize> = BTreeSet::new();
                    for child in 0..kind.arity() {
                        for port in 0..half {
                            match child_output_destination(kind, width, child, port, style) {
                                ChildOutput::Sibling { child: c, port: p } => {
                                    assert!(
                                        fed.insert((c, p)),
                                        "{kind}[{width}] double-feeds sibling ({c},{p})"
                                    );
                                }
                                ChildOutput::Parent { port: p } => {
                                    assert!(p < width);
                                    assert!(parent_out.insert(p));
                                }
                            }
                        }
                    }
                    // Every child input port covered exactly once.
                    let expected: usize = (0..kind.arity()).map(|_| half).sum();
                    assert_eq!(fed.len(), expected, "{kind}[{width}]");
                    // Every parent output port produced exactly once.
                    assert_eq!(parent_out.len(), width, "{kind}[{width}]");
                }
            }
        }
    }

    /// Child input ports that are fed by parent inputs vs. sibling outputs
    /// partition correctly: for BITONIC only the two sub-BITONICs receive
    /// external input; for MERGER only the two sub-MERGERs; for MIX both
    /// children.
    #[test]
    fn external_inputs_enter_the_right_children() {
        let width = 16;
        for kind in [ComponentKind::Bitonic, ComponentKind::Merger, ComponentKind::Mix] {
            let mut kids: BTreeSet<usize> = BTreeSet::new();
            for port in 0..width {
                let (c, _) = parent_input_to_child(kind, width, port, WiringStyle::Ahs);
                kids.insert(c);
            }
            let expected: BTreeSet<usize> = [0, 1].into_iter().collect();
            assert_eq!(kids, expected, "{kind}");
        }
    }

    #[test]
    fn mix_layer_pairs_adjacent_wires() {
        // MIX[k] is a layer of balancers on wire pairs (2i, 2i+1): its
        // decomposition keeps top/bottom halves disjoint.
        let w = 8;
        for port in 0..w {
            let (c, p) = parent_input_to_child(ComponentKind::Mix, w, port, WiringStyle::Ahs);
            assert_eq!(c, usize::from(port >= w / 2));
            assert_eq!(p, port % (w / 2));
        }
    }

    #[test]
    fn resolve_output_of_root_cut_is_network_output() {
        let tree = Tree::new(8);
        for port in 0..8 {
            assert_eq!(
                resolve_output(&tree, &ComponentId::root(), port, WiringStyle::Ahs),
                OutputDestination::NetworkOutput(port)
            );
        }
    }

    #[test]
    fn resolve_output_level1_cut_matches_paper_figure1() {
        // Cut = the six level-1 children of BITONIC[8]. The component
        // graph must be: B -> M (both), M -> X (both), X -> out.
        let tree = Tree::new(8);
        let root = ComponentId::root();
        let mut cut = Cut::root();
        cut.split(&tree, &root).unwrap();
        let wiring = CutWiring::new(&tree, &cut);
        let b_top = root.child(0);
        let neighbors = wiring.out_neighbors(&b_top);
        assert_eq!(neighbors, vec![root.child(2), root.child(3)]);
        let m_top = root.child(2);
        assert_eq!(wiring.out_neighbors(&m_top), vec![root.child(4), root.child(5)]);
        let x_top = root.child(4);
        assert!(wiring.out_neighbors(&x_top).is_empty());
        // X outputs are the network outputs, in order.
        for port in 0..4 {
            assert_eq!(wiring.network_output(&x_top, port), Some(port));
            assert_eq!(wiring.network_output(&root.child(5), port), Some(4 + port));
        }
    }

    #[test]
    fn network_inputs_cover_all_wires_once() {
        let tree = Tree::new(16);
        let mut seen = BTreeSet::new();
        for wire in 0..16 {
            let addr = network_input_address(&tree, wire, WiringStyle::Ahs);
            assert!(seen.insert(addr), "wire {wire} duplicated");
            // Input wires land on level-max balancers on the input side:
            // the all-bitonic spine.
            assert!(addr.balancer().path().iter().all(|&c| c <= 1));
        }
    }

    #[test]
    fn wire_address_owner_and_candidates() {
        let tree = Tree::new(8);
        let addr = network_input_address(&tree, 0, WiringStyle::Ahs);
        // Root cut: owner is the root.
        let cut = Cut::root();
        assert_eq!(addr.owner_under(&cut), Some(ComponentId::root()));
        // Split the root: owner is the top BITONIC.
        let mut cut2 = Cut::root();
        cut2.split(&tree, &ComponentId::root()).unwrap();
        assert_eq!(addr.owner_under(&cut2), Some(ComponentId::root().child(0)));
        // Candidate chain is balancer, then ancestors to the root: the
        // prefixes of the balancer's path, longest first.
        let prefixes = (0..=tree.max_level()).rev().map(|level| addr.balancer().prefix(level));
        assert!(addr.candidates().eq(prefixes));
        assert_eq!(addr.candidates().last(), Some(ComponentId::root()));
    }

    #[test]
    fn cut_wiring_full_balancer_cut_has_expected_size() {
        let tree = Tree::new(8);
        let cut = Cut::balancers(&tree);
        let wiring = CutWiring::new(&tree, &cut);
        // 8*3*4/4 = 24 balancers.
        assert_eq!(wiring.leaves().count(), 24);
        // Every balancer has width 2; count network outputs: exactly 8.
        let mut outs = BTreeSet::new();
        for leaf in cut.leaves() {
            for port in 0..2 {
                if let Some(w) = wiring.network_output(leaf, port) {
                    assert!(outs.insert(w));
                }
            }
        }
        assert_eq!(outs.len(), 8);
    }

    #[test]
    fn out_neighbor_counts_are_bounded_by_two_for_balancer_cut() {
        // A balancer has two output wires, hence at most 2 out-neighbours.
        let tree = Tree::new(16);
        let cut = Cut::balancers(&tree);
        let wiring = CutWiring::new(&tree, &cut);
        for leaf in cut.leaves() {
            assert!(wiring.out_neighbors(leaf).len() <= 2);
        }
    }

    #[test]
    fn styles_differ_only_on_merger_assignment() {
        let w = 8;
        let a = child_output_destination(ComponentKind::Bitonic, w, 1, 0, WiringStyle::Ahs);
        let b =
            child_output_destination(ComponentKind::Bitonic, w, 1, 0, WiringStyle::PaperLiteral);
        assert_ne!(a, b);
        // Top-bitonic outputs agree across styles.
        for port in 0..w / 2 {
            assert_eq!(
                child_output_destination(ComponentKind::Bitonic, w, 0, port, WiringStyle::Ahs),
                child_output_destination(
                    ComponentKind::Bitonic,
                    w,
                    0,
                    port,
                    WiringStyle::PaperLiteral
                ),
            );
        }
    }

    #[test]
    fn child_input_to_parent_inverts_input_map() {
        for style in [WiringStyle::Ahs, WiringStyle::PaperLiteral] {
            for kind in [ComponentKind::Bitonic, ComponentKind::Merger, ComponentKind::Mix] {
                for width in [4usize, 8, 16, 32] {
                    for port in 0..width {
                        let (c, p) = parent_input_to_child(kind, width, port, style);
                        assert_eq!(
                            child_input_to_parent(kind, width, c, p, style),
                            Some(port),
                            "{kind}[{width}] port {port}"
                        );
                    }
                    // Sibling-fed child ports report None.
                    for child in 0..kind.arity() {
                        for p in 0..width / 2 {
                            let inv = child_input_to_parent(kind, width, child, p, style);
                            if let Some(parent_port) = inv {
                                assert_eq!(
                                    parent_input_to_child(kind, width, parent_port, style),
                                    (child, p)
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_port_of_roundtrips_descents() {
        let tree = Tree::new(16);
        for node in tree.iter_preorder() {
            for port in 0..node.width {
                let addr =
                    super::descend_to_balancer(&tree, node.id, port, WiringStyle::Ahs, |_, _| ());
                assert_eq!(
                    input_port_of(&tree, &node.id, &addr, WiringStyle::Ahs),
                    Some(port),
                    "{} port {port}",
                    node.id
                );
            }
        }
    }

    /// The one-pass walk against the per-level one it replaced (each
    /// level's `Tree::info` read afresh), for every component and every
    /// balancer port under it, sibling-fed ones included.
    #[test]
    fn input_port_of_agrees_with_a_walk_that_reads_each_level_afresh() {
        fn per_level(
            tree: &Tree,
            id: &ComponentId,
            addr: &WireAddress,
            style: WiringStyle,
        ) -> Option<usize> {
            let (mut node, mut port) = (*addr.balancer(), usize::from(addr.port()));
            while &node != id {
                let parent = node.parent().expect("walk stays under id");
                let child = node.child_index().expect("non-root") as usize;
                let pinfo = tree.info(&parent).expect("valid ancestor");
                port = child_input_to_parent(pinfo.kind, pinfo.width, child, port, style)?;
                node = parent;
            }
            Some(port)
        }
        for style in [WiringStyle::Ahs, WiringStyle::PaperLiteral] {
            for width in [4, 8, 16, 32] {
                let tree = Tree::new(width);
                let balancers: Vec<ComponentId> =
                    tree.iter_preorder().filter(|n| n.width == 2).map(|n| n.id).collect();
                let (mut some, mut none) = (0, 0);
                for node in tree.iter_preorder() {
                    let under =
                        balancers.iter().filter(|b| **b == node.id || node.id.is_ancestor_of(b));
                    for &balancer in under {
                        for port in 0..2 {
                            let addr = WireAddress { balancer, port };
                            let got = input_port_of(&tree, &node.id, &addr, style);
                            let expected = per_level(&tree, &node.id, &addr, style);
                            assert_eq!(got, expected, "{} {addr}", node.id);
                            if got.is_some() {
                                some += 1;
                            } else {
                                none += 1;
                            }
                        }
                    }
                }
                assert!(some > 0 && (width == 4 || none > 0), "width {width}: {some} / {none}");
            }
        }
    }

    #[test]
    fn input_port_of_internal_wire_is_none() {
        // The wire from the top BITONIC[4] into the top MERGER[4] of T_8
        // is internal to the root.
        let tree = Tree::new(8);
        let root = ComponentId::root();
        if let OutputDestination::Wire(addr) =
            resolve_output(&tree, &root.child(0), 0, WiringStyle::Ahs)
        {
            assert_eq!(input_port_of(&tree, &root, &addr, WiringStyle::Ahs), None);
            // But relative to the merger itself it is a boundary port.
            assert!(input_port_of(&tree, &root.child(2), &addr, WiringStyle::Ahs).is_some());
        } else {
            panic!("expected an internal wire");
        }
    }
}

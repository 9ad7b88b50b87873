//! Recursive decomposition topology of the bitonic counting network.
//!
//! This crate implements the combinatorial heart of *Adaptive Counting
//! Networks* (Tirthapura, ICDCS 2005): the decomposition tree `T_w` of the
//! bitonic counting network `BITONIC[w]` into variable-width *components*
//! (Section 2.1 of the paper), *cuts* of that tree (Definition 2.1), the
//! wire-level connections between the components of a cut, and the
//! *effective width* / *effective depth* metrics (Definitions 1.1 and 1.2)
//! of the component network induced by a cut.
//!
//! Everything in this crate is pure and deterministic; the runtime state of
//! components (token counters, hosts, split/merge protocols) lives in
//! `acn-core`, and the balancer-level baseline networks live in
//! `acn-bitonic`.
//!
//! # The decomposition
//!
//! A component is identified by its path from the root of `T_w`
//! ([`ComponentId`]). The root is `BITONIC[w]`. A `BITONIC[k]` node
//! (`k >= 4`) has six children (top/bottom `BITONIC[k/2]`, top/bottom
//! `MERGER[k/2]`, top/bottom `MIX[k/2]`), a `MERGER[k]` node has four
//! (top/bottom `MERGER[k/2]`, top/bottom `MIX[k/2]`), and a `MIX[k]` node
//! has two (top/bottom `MIX[k/2]`). Width-2 nodes are the individual
//! balancers, the leaves of `T_w`.
//!
//! # Example
//!
//! ```
//! use acn_topology::{Tree, Cut, ComponentId};
//!
//! // The decomposition tree of BITONIC[8].
//! let tree = Tree::new(8);
//! assert_eq!(tree.max_level(), 2); // levels 0, 1, 2
//!
//! // Start from the trivial cut (the whole network as one component) and
//! // split the root: six components remain.
//! let mut cut = Cut::root();
//! cut.split(&tree, &ComponentId::root()).unwrap();
//! assert_eq!(cut.leaves().len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod dag;
mod id;
mod kind;
mod metrics;
pub mod oracle;
mod phi;
mod tree;
mod wiring;

pub use cut::{Cut, CutError};
pub use dag::{ComponentDag, DagEdge};
pub use id::ComponentId;
pub use kind::ComponentKind;
pub use metrics::{effective_depth, effective_width, lemma_2_2_bound};
pub use phi::{level_for_size, phi, PHI_MAX_LEVEL};
pub use tree::{NodeInfo, Tree};
pub use wiring::{
    child_input_to_parent, input_port_of,
    child_output_destination, network_input_address, parent_input_to_child, resolve_output,
    ChildOutput, CutWiring, OutputDestination, PortRef, Route, WireAddress, WiringStyle,
};

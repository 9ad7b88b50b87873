//! The decomposition tree `T_w` of `BITONIC[w]`.

use std::fmt;

use crate::id::ComponentId;
use crate::kind::ComponentKind;

/// Resolved information about a node of `T_w`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeInfo {
    /// The node's identifier (path from the root).
    pub id: ComponentId,
    /// The kind of the component.
    pub kind: ComponentKind,
    /// The width (number of input/output wires) of the component.
    pub width: usize,
    /// The level in `T_w`; the root is at level 0.
    pub level: usize,
}

impl NodeInfo {
    /// Whether this node is a leaf of `T_w`, i.e. an individual balancer.
    #[must_use]
    pub fn is_balancer(&self) -> bool {
        self.width == 2
    }

    /// Number of children in `T_w` (0 for balancers).
    #[must_use]
    pub fn child_count(&self) -> usize {
        if self.is_balancer() {
            0
        } else {
            self.kind.arity()
        }
    }
}

impl fmt::Display for NodeInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]{}", self.kind.tag(), self.width, self.id)
    }
}

/// The decomposition tree `T_w` for a bitonic network of width `w`.
///
/// The tree itself is never materialized: all queries are computed from
/// paths. `w` must be a power of two and at least 2.
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, ComponentId, ComponentKind};
///
/// let tree = Tree::new(16);
/// let info = tree.info(&ComponentId::root().child(2)).unwrap();
/// assert_eq!(info.kind, ComponentKind::Merger);
/// assert_eq!(info.width, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tree {
    width: usize,
}

impl Tree {
    /// Creates the decomposition tree for `BITONIC[width]`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two, is less than 2, or needs
    /// balancers deeper than [`ComponentId::MAX_DEPTH`] (`width > 2^23`).
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(
            width >= 2 && width.is_power_of_two(),
            "width must be a power of two >= 2, got {width}"
        );
        assert!(
            width <= 1 << (ComponentId::MAX_DEPTH + 1),
            "width {width} puts balancers below ComponentId::MAX_DEPTH ({})",
            ComponentId::MAX_DEPTH
        );
        Tree { width }
    }

    /// The width `w` of the root network.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The maximum level of `T_w`: balancer leaves live at level
    /// `log2(w) - 1`.
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.width.trailing_zeros() as usize - 1
    }

    /// Resolves a component identifier to its kind/width/level, or `None`
    /// if the path is invalid for this tree (bad child index, or deeper
    /// than the balancer level).
    #[must_use]
    pub fn info(&self, id: &ComponentId) -> Option<NodeInfo> {
        if id.level() > self.max_level() {
            return None;
        }
        let kind = id.kind()?;
        Some(NodeInfo {
            id: *id,
            kind,
            width: self.width >> id.level(),
            level: id.level(),
        })
    }

    /// The children of `id` in `T_w`, or an empty vector for balancers.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid node of this tree.
    #[must_use]
    pub fn children(&self, id: &ComponentId) -> Vec<ComponentId> {
        let info = self.info(id).expect("invalid component id");
        (0..info.child_count() as u8).map(|i| id.child(i)).collect()
    }

    /// Size (node count) of the subtree rooted at a node of the given kind
    /// and width.
    #[must_use]
    pub fn subtree_size_of(kind: ComponentKind, width: usize) -> u64 {
        assert!(width >= 2 && width.is_power_of_two());
        // Sizes of a MIX, MERGER and BITONIC subtree, doubled up from
        // width 2: each is one node plus two of every child kind.
        let (mut mix, mut merger, mut bitonic) = (1u64, 1u64, 1u64);
        for _ in 1..width.trailing_zeros() {
            bitonic = 1 + 2 * (bitonic + merger + mix);
            merger = 1 + 2 * (merger + mix);
            mix = 1 + 2 * mix;
        }
        match kind {
            ComponentKind::Mix => mix,
            ComponentKind::Merger => merger,
            ComponentKind::Bitonic => bitonic,
        }
    }

    /// Size of the subtree rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid node of this tree.
    #[must_use]
    pub fn subtree_size(&self, id: &ComponentId) -> u64 {
        let info = self.info(id).expect("invalid component id");
        Self::subtree_size_of(info.kind, info.width)
    }

    /// Total number of nodes in `T_w`.
    #[must_use]
    pub fn node_count(&self) -> u64 {
        Self::subtree_size_of(ComponentKind::Bitonic, self.width)
    }

    /// The paper's *name* of a component: its position in a pre-order
    /// traversal of `T_w` (the root has name 0).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid node of this tree.
    #[must_use]
    pub fn preorder_index(&self, id: &ComponentId) -> u64 {
        assert!(id.level() <= self.max_level(), "invalid component id");
        let mut name = 0u64;
        let (mut kind, mut width) = (ComponentKind::Bitonic, self.width);
        for &step in id.path() {
            width /= 2;
            name += 1; // enter the child region
            for sibling in 0..usize::from(step) {
                let sibling = kind.child_kind(sibling).expect("invalid component id");
                name += Self::subtree_size_of(sibling, width);
            }
            kind = kind.child_kind(usize::from(step)).expect("invalid component id");
        }
        name
    }

    /// Inverse of [`preorder_index`](Tree::preorder_index).
    ///
    /// Returns `None` if `name >= self.node_count()`.
    #[must_use]
    pub fn from_preorder_index(&self, mut name: u64) -> Option<ComponentId> {
        if name >= self.node_count() {
            return None;
        }
        let mut id = ComponentId::root();
        while name > 0 {
            name -= 1; // step into the children region
            let info = self.info(&id).expect("valid by construction");
            let mut found = false;
            for c in 0..info.child_count() as u8 {
                let sz = self.subtree_size(&id.child(c));
                if name < sz {
                    id = id.child(c);
                    found = true;
                    break;
                }
                name -= sz;
            }
            debug_assert!(found, "preorder index arithmetic out of bounds");
        }
        Some(id)
    }

    /// Iterates over every node of `T_w` in pre-order. Only use for small
    /// trees: `T_w` has `O(w log^2 w)` nodes.
    pub fn iter_preorder(&self) -> impl Iterator<Item = NodeInfo> + '_ {
        let mut stack = vec![ComponentId::root()];
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            let info = self.info(&id).expect("valid by construction");
            for c in (0..info.child_count() as u8).rev() {
                stack.push(id.child(c));
            }
            Some(info)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Tree::new(6);
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn rejects_trees_deeper_than_an_id_can_name() {
        let _ = Tree::new(1 << (ComponentId::MAX_DEPTH + 2));
    }

    #[test]
    fn widest_tree_reaches_exactly_max_depth() {
        let tree = Tree::new(1 << (ComponentId::MAX_DEPTH + 1));
        assert_eq!(tree.max_level(), ComponentId::MAX_DEPTH);
    }

    #[test]
    fn balancer_count_of_bitonic_network() {
        // A width-w bitonic network has w*log(w)*(log(w)+1)/4 balancers
        // (paper, Section 2). Balancers are the leaves of T_w.
        for logw in 1..=7u32 {
            let w = 1usize << logw;
            let tree = Tree::new(w);
            let balancers: u64 = tree
                .iter_preorder()
                .filter(NodeInfo::is_balancer)
                .count() as u64;
            let expected = (w as u64) * u64::from(logw) * (u64::from(logw) + 1) / 4;
            assert_eq!(balancers, expected, "w={w}");
        }
    }

    #[test]
    fn info_width_halves_per_level() {
        let tree = Tree::new(32);
        let id = ComponentId::from_path(vec![0, 2, 2]);
        let info = tree.info(&id).unwrap();
        assert_eq!(info.width, 4);
        assert_eq!(info.level, 3);
        assert_eq!(info.kind, ComponentKind::Mix);
    }

    #[test]
    fn info_rejects_too_deep_paths() {
        let tree = Tree::new(8); // levels 0..=2
        assert!(tree.info(&ComponentId::from_path(vec![0, 0])).is_some());
        assert!(tree.info(&ComponentId::from_path(vec![0, 0, 0])).is_none());
    }

    #[test]
    fn subtree_sizes_are_consistent() {
        let tree = Tree::new(16);
        // Root size equals 1 + sum of child subtree sizes.
        let children = tree.children(&ComponentId::root());
        let sum: u64 = children.iter().map(|c| tree.subtree_size(c)).sum();
        assert_eq!(tree.node_count(), 1 + sum);
    }

    #[test]
    fn preorder_index_roundtrip_small_trees() {
        for w in [2usize, 4, 8, 16] {
            let tree = Tree::new(w);
            let nodes: Vec<NodeInfo> = tree.iter_preorder().collect();
            assert_eq!(nodes.len() as u64, tree.node_count());
            for (i, info) in nodes.iter().enumerate() {
                assert_eq!(tree.preorder_index(&info.id), i as u64, "w={w} {info}");
                assert_eq!(
                    tree.from_preorder_index(i as u64).as_ref(),
                    Some(&info.id),
                    "w={w} index {i}"
                );
            }
            assert_eq!(tree.from_preorder_index(tree.node_count()), None);
        }
    }

    #[test]
    fn node_counts_match_closed_forms() {
        // MIX subtree over width k: a full binary tree with k/2 leaves
        // => 2*(k/2) - 1 = k - 1 nodes.
        for logw in 1..=6 {
            let k = 1usize << logw;
            assert_eq!(
                Tree::subtree_size_of(ComponentKind::Mix, k),
                (k - 1) as u64
            );
        }
    }

    #[test]
    fn display_format() {
        let tree = Tree::new(8);
        let info = tree.info(&ComponentId::from_path(vec![2])).unwrap();
        assert_eq!(info.to_string(), "M[4]/2");
    }
}

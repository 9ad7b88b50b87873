//! Cuts of the decomposition tree (Definition 2.1 of the paper).
//!
//! A *cut* of `T_w` is the tree obtained by pruning away subtrees; the
//! network is implemented by the components at the cut's leaves. We
//! represent a cut directly by its leaf set, which must be an *antichain
//! cover*: every root-to-balancer path of `T_w` contains exactly one leaf.

use std::collections::BTreeSet;
use std::fmt;

use crate::id::ComponentId;
use crate::tree::Tree;

/// Errors returned by cut mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutError {
    /// The component to split/merge is not a leaf of the cut.
    NotALeaf(ComponentId),
    /// The component is a balancer and cannot be split further.
    AtomicComponent(ComponentId),
    /// Merging requires every child of the target to be a leaf of the cut.
    ChildrenNotLeaves(ComponentId),
}

impl fmt::Display for CutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CutError::NotALeaf(id) => write!(f, "component {id} is not a leaf of the cut"),
            CutError::AtomicComponent(id) => {
                write!(f, "component {id} is a balancer and cannot be split")
            }
            CutError::ChildrenNotLeaves(id) => {
                write!(f, "children of {id} are not all leaves of the cut")
            }
        }
    }
}

impl std::error::Error for CutError {}

/// A cut of `T_w`, represented by its leaf components.
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, Cut, ComponentId};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// let root = ComponentId::root();
/// cut.split(&tree, &root).unwrap();
/// assert_eq!(cut.leaves().len(), 6);
/// cut.merge(&tree, &root).unwrap();
/// assert_eq!(cut.leaves().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    leaves: BTreeSet<ComponentId>,
}

impl Default for Cut {
    fn default() -> Self {
        Cut::root()
    }
}

impl Cut {
    /// The trivial cut: the entire network as one root component. This is
    /// the initial state of the adaptive network (paper Section 1.2).
    #[must_use]
    pub fn root() -> Self {
        let mut leaves = BTreeSet::new();
        leaves.insert(ComponentId::root());
        Cut { leaves }
    }

    /// The deepest cut: every leaf is an individual balancer. This
    /// recovers the classical balancer-level implementation (paper
    /// Section 2, the "simple approach").
    #[must_use]
    pub fn balancers(tree: &Tree) -> Self {
        Cut::uniform(tree, tree.max_level())
    }

    /// The uniform cut with all leaves at exactly `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level > tree.max_level()`.
    #[must_use]
    pub fn uniform(tree: &Tree, level: usize) -> Self {
        assert!(level <= tree.max_level(), "level {level} deeper than the tree");
        let mut leaves = BTreeSet::new();
        let mut stack = vec![ComponentId::root()];
        while let Some(id) = stack.pop() {
            if id.level() == level {
                leaves.insert(id);
            } else {
                let info = tree.info(&id).expect("valid descent");
                for c in 0..info.child_count() as u8 {
                    stack.push(id.child(c));
                }
            }
        }
        Cut { leaves }
    }

    /// Builds a cut from an explicit leaf set without validation; call
    /// [`is_valid`](Cut::is_valid) to check it.
    #[must_use]
    pub fn from_leaves(leaves: impl IntoIterator<Item = ComponentId>) -> Self {
        Cut { leaves: leaves.into_iter().collect() }
    }

    /// The leaf components of the cut.
    #[must_use]
    pub fn leaves(&self) -> &BTreeSet<ComponentId> {
        &self.leaves
    }

    /// Whether `id` is a leaf of the cut.
    #[must_use]
    pub fn contains(&self, id: &ComponentId) -> bool {
        self.leaves.contains(id)
    }

    /// Splits leaf `id` into its children (paper Section 2.2, "Splitting a
    /// Component").
    ///
    /// # Errors
    ///
    /// Returns [`CutError::NotALeaf`] if `id` is not a leaf of the cut and
    /// [`CutError::AtomicComponent`] if it is a balancer.
    pub fn split(&mut self, tree: &Tree, id: &ComponentId) -> Result<Vec<ComponentId>, CutError> {
        if !self.leaves.contains(id) {
            return Err(CutError::NotALeaf(*id));
        }
        let info = tree.info(id).expect("leaf ids are valid");
        if info.is_balancer() {
            return Err(CutError::AtomicComponent(*id));
        }
        self.leaves.remove(id);
        let children = tree.children(id);
        for child in &children {
            self.leaves.insert(*child);
        }
        Ok(children)
    }

    /// Merges the children of `id` back into `id` (paper Section 2.2,
    /// "Merging Components"). All children must currently be leaves;
    /// recursive merging of deeper descendants is the caller's
    /// responsibility (`acn-core` implements it).
    ///
    /// # Errors
    ///
    /// Returns [`CutError::ChildrenNotLeaves`] unless every child of `id`
    /// is a leaf of the cut.
    pub fn merge(&mut self, tree: &Tree, id: &ComponentId) -> Result<(), CutError> {
        let children = tree.children(id);
        if children.is_empty() || !children.iter().all(|c| self.leaves.contains(c)) {
            return Err(CutError::ChildrenNotLeaves(*id));
        }
        for child in &children {
            self.leaves.remove(child);
        }
        self.leaves.insert(*id);
        Ok(())
    }

    /// Checks the antichain-cover property: every root-to-balancer path of
    /// `T_w` meets exactly one leaf.
    #[must_use]
    pub fn is_valid(&self, tree: &Tree) -> bool {
        // All leaves must be valid nodes.
        if !self.leaves.iter().all(|l| tree.info(l).is_some()) {
            return false;
        }
        // No leaf may be an ancestor of another. Ids order by path, so
        // a leaf's descendants are the ids right after it: checking each
        // leaf against the next one is enough.
        let next = self.leaves.iter().skip(1);
        if self.leaves.iter().zip(next).any(|(a, b)| a.is_ancestor_of(b)) {
            return false;
        }
        // Walk the tree from the root; each branch must hit a leaf
        // before (or at) the balancer level.
        fn walk(tree: &Tree, cut: &BTreeSet<ComponentId>, id: &ComponentId) -> bool {
            if cut.contains(id) {
                return true;
            }
            let info = tree.info(id).expect("validated above");
            if info.is_balancer() {
                return false; // path ended without meeting a leaf
            }
            (0..info.child_count() as u8).all(|c| walk(tree, cut, &id.child(c)))
        }
        walk(tree, &self.leaves, &ComponentId::root())
    }

    /// The minimum level among the leaves.
    #[must_use]
    pub fn min_level(&self) -> usize {
        self.leaves.iter().map(ComponentId::level).min().unwrap_or(0)
    }

    /// The maximum level among the leaves.
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.leaves.iter().map(ComponentId::level).max().unwrap_or(0)
    }

    /// Enumerates **all** cuts of `T_w`. The count grows doubly
    /// exponentially; only use for `w <= 8`.
    #[must_use]
    pub fn enumerate_all(tree: &Tree) -> Vec<Cut> {
        fn cuts_below(tree: &Tree, id: &ComponentId) -> Vec<Vec<ComponentId>> {
            let info = tree.info(id).expect("valid node");
            // Option 1: this node is a leaf of the cut.
            let mut all = vec![vec![*id]];
            if !info.is_balancer() {
                // Option 2: recurse — the cartesian product of child cuts.
                let child_choices: Vec<Vec<Vec<ComponentId>>> = (0..info.child_count() as u8)
                    .map(|c| cuts_below(tree, &id.child(c)))
                    .collect();
                let mut product: Vec<Vec<ComponentId>> = vec![Vec::new()];
                for choices in child_choices {
                    let mut next = Vec::new();
                    for base in &product {
                        for choice in &choices {
                            let mut combined = base.clone();
                            combined.extend(choice.iter().cloned());
                            next.push(combined);
                        }
                    }
                    product = next;
                }
                all.extend(product);
            }
            all
        }
        cuts_below(tree, &ComponentId::root())
            .into_iter()
            .map(Cut::from_leaves)
            .collect()
    }

    /// A random valid cut: starting from the root, split each leaf
    /// independently with probability `split_prob` while above
    /// `max_level`, using `rng_next` as a uniform `[0,1)` source.
    #[must_use]
    pub fn random(
        tree: &Tree,
        max_level: usize,
        split_prob: f64,
        rng_next: &mut dyn FnMut() -> f64,
    ) -> Self {
        let max_level = max_level.min(tree.max_level());
        let mut leaves = BTreeSet::new();
        let mut stack = vec![ComponentId::root()];
        while let Some(id) = stack.pop() {
            if id.level() < max_level && rng_next() < split_prob {
                let info = tree.info(&id).expect("valid descent");
                for c in 0..info.child_count() as u8 {
                    stack.push(id.child(c));
                }
            } else {
                leaves.insert(id);
            }
        }
        Cut { leaves }
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, leaf) in self.leaves.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{leaf}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cut_is_valid() {
        let tree = Tree::new(8);
        let cut = Cut::root();
        assert!(cut.is_valid(&tree));
        assert_eq!(cut.leaves().len(), 1);
        assert_eq!(cut.min_level(), 0);
        assert_eq!(cut.max_level(), 0);
    }

    #[test]
    fn balancer_cut_counts() {
        for logw in 1..=5u32 {
            let w = 1usize << logw;
            let tree = Tree::new(w);
            let cut = Cut::balancers(&tree);
            assert!(cut.is_valid(&tree));
            let expected = (w as u64) * u64::from(logw) * (u64::from(logw) + 1) / 4;
            assert_eq!(cut.leaves().len() as u64, expected, "w={w}");
        }
    }

    #[test]
    fn uniform_cut_sizes_match_phi() {
        let tree = Tree::new(32);
        for level in 0..=tree.max_level() {
            let cut = Cut::uniform(&tree, level);
            assert!(cut.is_valid(&tree));
            assert_eq!(cut.leaves().len() as u128, crate::phi(level), "level {level}");
        }
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let tree = Tree::new(16);
        let root = ComponentId::root();
        let mut cut = Cut::root();
        let children = cut.split(&tree, &root).unwrap();
        assert_eq!(children.len(), 6);
        assert!(cut.is_valid(&tree));
        // Split one child further.
        let mt = root.child(2);
        cut.split(&tree, &mt).unwrap();
        assert!(cut.is_valid(&tree));
        assert_eq!(cut.leaves().len(), 5 + 4);
        // Merging the root now fails (children not all leaves).
        assert_eq!(cut.clone().merge(&tree, &root), Err(CutError::ChildrenNotLeaves(root)));
        // Merge back bottom-up.
        cut.merge(&tree, &mt).unwrap();
        cut.merge(&tree, &root).unwrap();
        assert_eq!(cut, Cut::root());
    }

    #[test]
    fn split_errors() {
        let tree = Tree::new(4);
        let mut cut = Cut::root();
        let bogus = ComponentId::from_path(vec![0]);
        assert_eq!(cut.split(&tree, &bogus), Err(CutError::NotALeaf(bogus)));
        cut.split(&tree, &ComponentId::root()).unwrap();
        // Children of BITONIC[4] are balancers: cannot split further.
        assert_eq!(
            cut.split(&tree, &bogus),
            Err(CutError::AtomicComponent(bogus))
        );
    }

    #[test]
    fn invalid_cuts_detected() {
        let tree = Tree::new(8);
        // Missing coverage.
        let cut = Cut::from_leaves(vec![ComponentId::from_path(vec![0])]);
        assert!(!cut.is_valid(&tree));
        // Overlapping (ancestor + descendant).
        let cut = Cut::from_leaves(vec![ComponentId::root(), ComponentId::from_path(vec![0])]);
        assert!(!cut.is_valid(&tree));
        // Node from a deeper tree.
        let cut = Cut::from_leaves(vec![ComponentId::from_path(vec![0, 0, 0])]);
        assert!(!cut.is_valid(&tree));
    }

    #[test]
    fn enumerate_all_cuts_of_t4() {
        // T_4: root with 6 balancer children -> exactly 2 cuts.
        let tree = Tree::new(4);
        let cuts = Cut::enumerate_all(&tree);
        assert_eq!(cuts.len(), 2);
        for cut in &cuts {
            assert!(cut.is_valid(&tree));
        }
    }

    #[test]
    fn enumerate_all_cuts_of_t8() {
        // T_8: each level-1 child of the root is itself a root of a
        // 6/4/2-child star of balancers => (1 + 2^6)(1+2^6)(1+2^4)^2(1+2^2)^2 + 1... computed below.
        let tree = Tree::new(8);
        let cuts = Cut::enumerate_all(&tree);
        // cuts(balancer) = 1; cuts(B[4]) = 1 + 1^6 = 2, cuts(M[4]) = 2,
        // cuts(X[4]) = 2; cuts(B[8]) = 1 + 2^2 * 2^2 * 2^2 = 65.
        assert_eq!(cuts.len(), 65);
        let mut unique: std::collections::HashSet<String> = std::collections::HashSet::new();
        for cut in &cuts {
            assert!(cut.is_valid(&tree), "{cut}");
            assert!(unique.insert(cut.to_string()));
        }
    }

    #[test]
    fn random_cuts_are_valid() {
        let tree = Tree::new(64);
        // A simple deterministic pseudo-random source.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let cut = Cut::random(&tree, tree.max_level(), 0.6, &mut next);
            assert!(cut.is_valid(&tree));
        }
    }

    #[test]
    fn display_is_readable() {
        let mut cut = Cut::root();
        let tree = Tree::new(4);
        cut.split(&tree, &ComponentId::root()).unwrap();
        assert_eq!(cut.to_string(), "{/0, /1, /2, /3, /4, /5}");
    }
}

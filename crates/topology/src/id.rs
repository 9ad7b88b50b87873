//! Path-based component identifiers.
//!
//! A [`ComponentId`] is a plain 24-byte value — a length and a fixed
//! step array, no heap — so every `parent()`, `child()` and copy on the
//! token path is register arithmetic. It compares, hashes and prints
//! exactly as the path slice it stands for.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::kind::ComponentKind;

/// Identifier of a component: its path from the root of `T_w`.
///
/// The root (`BITONIC[w]`) has the empty path. Each step of the path is a
/// child index (`0..arity` of the parent's kind; see
/// [`ComponentKind::arity`]). The identifier is *width independent*: the
/// same path names a component in every tree deep enough to contain it.
///
/// Identifiers order lexicographically by path, which coincides with the
/// pre-order traversal order of `T_w` among comparable nodes; the paper's
/// pre-order *name* of a component is computed by [`Tree::preorder_index`].
///
/// The path is stored inline (at most [`MAX_DEPTH`](Self::MAX_DEPTH)
/// steps), so the identifier is `Copy`.
///
/// [`Tree::preorder_index`]: crate::Tree::preorder_index
///
/// # Example
///
/// ```
/// use acn_topology::ComponentId;
///
/// let root = ComponentId::root();
/// let child = root.child(2); // the top MERGER[w/2]
/// assert_eq!(child.level(), 1);
/// assert_eq!(child.parent(), Some(root));
/// ```
// `PartialEq` may be derived only because steps past `len` are kept
// zero; `Ord` and `Hash` are written out below because a derive over
// `(len, steps)` would order by length first and hash the padding.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentId {
    len: u8,
    steps: [u8; Self::MAX_DEPTH + 1],
}

impl ComponentId {
    /// The deepest level an identifier can name: what
    /// [`to_u64`](Self::to_u64) can pack (`7^22 < 2^64`) and what `T_w`
    /// needs for `w <= 2^23`.
    pub const MAX_DEPTH: usize = 22;

    /// The root component, `BITONIC[w]`.
    #[must_use]
    pub const fn root() -> Self {
        ComponentId { len: 0, steps: [0; Self::MAX_DEPTH + 1] }
    }

    /// Builds an identifier directly from a path of child indices.
    ///
    /// The path is not validated against any particular tree; use
    /// [`Tree::info`] to check validity for a given width.
    ///
    /// # Panics
    ///
    /// Panics if the path is longer than [`MAX_DEPTH`](Self::MAX_DEPTH).
    ///
    /// [`Tree::info`]: crate::Tree::info
    #[must_use]
    pub fn from_path(path: impl AsRef<[u8]>) -> Self {
        let path = path.as_ref();
        assert!(
            path.len() <= Self::MAX_DEPTH,
            "path of {} steps exceeds ComponentId::MAX_DEPTH ({})",
            path.len(),
            Self::MAX_DEPTH
        );
        let mut id = Self::root();
        id.steps[..path.len()].copy_from_slice(path);
        id.len = path.len() as u8;
        id
    }

    /// The path of child indices from the root.
    #[must_use]
    pub fn path(&self) -> &[u8] {
        &self.steps[..usize::from(self.len)]
    }

    /// The level of this component in `T_w` (the root is at level 0).
    #[must_use]
    pub fn level(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether this is the root component.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.len == 0
    }

    /// The identifier of the `index`-th child.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 6` (no component kind has more children) or
    /// if `self` is already at [`MAX_DEPTH`](Self::MAX_DEPTH).
    #[must_use]
    pub fn child(&self, index: u8) -> Self {
        assert!(index < 6, "child index {index} out of range");
        assert!(
            self.level() < Self::MAX_DEPTH,
            "child of {self} would exceed ComponentId::MAX_DEPTH ({})",
            Self::MAX_DEPTH
        );
        let mut id = *self;
        id.steps[self.level()] = index;
        id.len += 1;
        id
    }

    /// The identifier of the parent, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<Self> {
        (!self.is_root()).then(|| self.prefix(self.level() - 1))
    }

    /// The ancestor-or-self at `level`: the first `level` steps of the
    /// path. The owner candidates of a wire are exactly the prefixes of
    /// its balancer's path (paper Section 3.5).
    ///
    /// # Panics
    ///
    /// Panics if `level > self.level()`.
    #[must_use]
    pub fn prefix(&self, level: usize) -> Self {
        assert!(level <= self.level(), "prefix {level} is deeper than {self}");
        let mut id = *self;
        // Vacated steps go back to zero: derived equality relies on it.
        id.steps[level..self.level()].fill(0);
        id.len = level as u8;
        id
    }

    /// The child index of this component within its parent, or `None` for
    /// the root.
    #[must_use]
    pub fn child_index(&self) -> Option<u8> {
        self.path().last().copied()
    }

    /// Whether `self` is an ancestor of `other` (a proper prefix of its
    /// path). A component is not its own ancestor.
    #[must_use]
    pub fn is_ancestor_of(&self, other: &ComponentId) -> bool {
        self.len < other.len && other.path().starts_with(self.path())
    }

    /// Iterator over all ancestors from the parent up to the root.
    pub fn ancestors(&self) -> impl Iterator<Item = ComponentId> {
        let id = *self;
        (0..id.level()).rev().map(move |level| id.prefix(level))
    }

    /// The kind of the component this path names (independent of width).
    ///
    /// Returns `None` if the path is not a valid descent (a child index
    /// exceeds the arity of the kind at that point).
    #[must_use]
    pub fn kind(&self) -> Option<ComponentKind> {
        let mut kind = ComponentKind::Bitonic;
        for &step in self.path() {
            kind = kind.child_kind(step as usize)?;
        }
        Some(kind)
    }

    /// Packs the path into a `u64` for hashing and wire formats.
    ///
    /// Encoding: base-7 digits (child index + 1), most significant first.
    /// Unique because no path is longer than
    /// [`MAX_DEPTH`](Self::MAX_DEPTH) and every step is below 6.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        self.path()
            .iter()
            .fold(0u64, |acc, &c| acc * 7 + u64::from(c) + 1)
    }

    /// Inverse of [`to_u64`](ComponentId::to_u64).
    ///
    /// # Panics
    ///
    /// Panics if `packed` is not the image of an identifier (a zero
    /// digit, or more than [`MAX_DEPTH`](Self::MAX_DEPTH) digits).
    #[must_use]
    pub fn from_u64(mut packed: u64) -> Self {
        let mut id = Self::root();
        while packed != 0 {
            let digit = (packed % 7) as u8;
            assert!(
                digit != 0 && id.level() < Self::MAX_DEPTH,
                "not a packed ComponentId (MAX_DEPTH = {})",
                Self::MAX_DEPTH
            );
            id.steps[id.level()] = digit - 1;
            id.len += 1;
            packed /= 7;
        }
        id.steps[..usize::from(id.len)].reverse();
        id
    }
}

impl Ord for ComponentId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.path().cmp(other.path())
    }
}

impl PartialOrd for ComponentId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for ComponentId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.path().hash(state);
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentId").field("path", &self.path()).finish()
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str("/");
        }
        for step in self.path() {
            write!(f, "/{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let root = ComponentId::root();
        assert!(root.is_root());
        assert_eq!(root.level(), 0);
        assert_eq!(root.parent(), None);
        assert_eq!(root.child_index(), None);
        assert_eq!(root.kind(), Some(ComponentKind::Bitonic));
        assert_eq!(root.to_string(), "/");
    }

    #[test]
    fn child_and_parent_roundtrip() {
        let id = ComponentId::root().child(3).child(2).child(1);
        assert_eq!(id.level(), 3);
        assert_eq!(id.child_index(), Some(1));
        assert_eq!(id.parent().unwrap().path(), &[3, 2]);
        assert_eq!(id.to_string(), "/3/2/1");
    }

    #[test]
    fn kind_follows_path() {
        // Bitonic -> child 2 is a Merger -> its child 2 is a Mix.
        let id = ComponentId::from_path(vec![2, 2]);
        assert_eq!(id.kind(), Some(ComponentKind::Mix));
        // Mix has arity 2, so child index 3 is invalid below it.
        let bad = ComponentId::from_path(vec![2, 2, 3]);
        assert_eq!(bad.kind(), None);
    }

    #[test]
    fn ancestor_relation() {
        let a = ComponentId::from_path(vec![1]);
        let b = ComponentId::from_path(vec![1, 2]);
        let c = ComponentId::from_path(vec![2, 2]);
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&c));
        assert!(ComponentId::root().is_ancestor_of(&c));
    }

    #[test]
    fn ancestors_iterates_to_root() {
        let id = ComponentId::from_path(vec![0, 2, 1]);
        let anc: Vec<String> = id.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(anc, ["/0/2", "/0", "/"]);
    }

    #[test]
    fn u64_packing_roundtrip() {
        let ids = [
            ComponentId::root(),
            ComponentId::from_path(vec![0]),
            ComponentId::from_path(vec![5]),
            ComponentId::from_path(vec![5, 1, 0, 1, 1]),
            ComponentId::from_path(vec![0; ComponentId::MAX_DEPTH]),
            ComponentId::from_path(vec![5; ComponentId::MAX_DEPTH]),
        ];
        for id in &ids {
            assert_eq!(&ComponentId::from_u64(id.to_u64()), id);
        }
    }

    #[test]
    fn u64_packing_unique_for_small_paths() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        // All paths of length <= 4 over alphabet 0..6.
        let mut stack = vec![ComponentId::root()];
        while let Some(id) = stack.pop() {
            assert!(seen.insert(id.to_u64()), "collision for {id}");
            if id.level() < 4 {
                for c in 0..6 {
                    stack.push(id.child(c));
                }
            }
        }
        assert_eq!(seen.len(), 1 + 6 + 36 + 216 + 1296);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = ComponentId::from_path(vec![0]);
        let b = ComponentId::from_path(vec![0, 1]);
        let c = ComponentId::from_path(vec![1]);
        assert!(a < b && b < c);
        // By path, not by length: a longer path can sort first.
        assert!(ComponentId::from_path([0, 5]) < c);
    }

    #[test]
    fn parent_clears_the_vacated_step() {
        let id = ComponentId::from_path([3, 2, 1]);
        assert_eq!(id.parent(), Some(ComponentId::from_path([3, 2])));
        assert_eq!(id.prefix(0), ComponentId::root());
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn child_at_max_depth_panics() {
        let _ = ComponentId::from_path([0; ComponentId::MAX_DEPTH]).child(0);
    }

    #[test]
    #[should_panic(expected = "MAX_DEPTH")]
    fn from_path_beyond_max_depth_panics() {
        let _ = ComponentId::from_path([0; ComponentId::MAX_DEPTH + 1]);
    }
}

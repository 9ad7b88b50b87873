//! Property tests for the decomposition topology.

use acn_topology::{
    child_output_destination, input_port_of, network_input_address, parent_input_to_child, phi,
    resolve_output, ChildOutput, ComponentId, ComponentKind, Cut, CutWiring, OutputDestination,
    Route, Tree, WiringStyle,
};
use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A random valid cut of `tree`: each node above the balancers is split
/// with probability `split`.
fn random_cut(tree: &Tree, seed: u64, split: f64) -> Cut {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    Cut::random(tree, tree.max_level(), split, &mut next)
}

/// The antichain-cover definition by brute force: every leaf is a node
/// of the tree, no leaf descends from another, and every balancer has
/// a leaf on its root path.
fn is_valid_by_definition(cut: &Cut, tree: &Tree) -> bool {
    let leaves = cut.leaves();
    leaves.iter().all(|l| tree.info(l).is_some())
        && !leaves.iter().any(|a| leaves.iter().any(|b| a.is_ancestor_of(b)))
        && Cut::balancers(tree).leaves().iter().all(|b| {
            std::iter::once(*b).chain(b.ancestors()).any(|a| leaves.contains(&a))
        })
}

/// Checks `wiring` against the per-port definition of where a wire goes
/// under `cut`: [`resolve_output`], then the wire's owner under the cut,
/// then the owner's input port; network inputs likewise from
/// [`network_input_address`]. Also checks that internal routes flow
/// forward.
fn check_wiring(tree: &Tree, cut: &Cut, style: WiringStyle) -> Result<(), TestCaseError> {
    let wiring = CutWiring::with_style(tree, cut, style);
    let leaves: Vec<ComponentId> = cut.leaves().iter().copied().collect();
    prop_assert!(wiring.leaves().eq(leaves.iter()));
    let index = |id: &ComponentId| leaves.binary_search(id).expect("owner is a cut leaf");
    let enter = |addr| {
        let owner = acn_topology::WireAddress::owner_under(&addr, cut).expect("valid cut");
        let port = input_port_of(tree, &owner, &addr, style).expect("boundary wire");
        (index(&owner), port)
    };
    for (i, leaf) in leaves.iter().enumerate() {
        let width = tree.info(leaf).expect("cut leaf").width;
        prop_assert_eq!(wiring.routes(i).len(), width);
        for port in 0..width {
            let expected = match resolve_output(tree, leaf, port, style) {
                OutputDestination::Wire(addr) => {
                    let (leaf, port) = enter(addr);
                    Route::Leaf { leaf, port }
                }
                OutputDestination::NetworkOutput(wire) => Route::Exit(wire),
            };
            let route = wiring.routes(i)[port];
            prop_assert_eq!(route, expected, "{} port {} under {}", leaf, port, cut);
            if let Route::Leaf { leaf: next, .. } = route {
                prop_assert!(next > i, "{} port {} flows back to leaf {}", leaf, port, next);
            }
        }
    }
    for wire in 0..tree.width() {
        let (leaf, port) = enter(network_input_address(tree, wire, style));
        prop_assert_eq!(wiring.input(wire), (leaf, port), "input wire {}", wire);
        prop_assert_eq!(wiring.input_owner(wire).id, leaves[leaf]);
        prop_assert_eq!(wiring.input_owner(wire).port, port);
    }
    Ok(())
}

/// The wiring matches its definition on the root, every uniform cut
/// and (as the deepest uniform cut) the balancer cut, at widths 4–128
/// in both styles.
#[test]
fn wiring_of_fixed_cuts_matches_its_definition() {
    for logw in 2..=7 {
        let tree = Tree::new(1 << logw);
        for style in [WiringStyle::Ahs, WiringStyle::PaperLiteral] {
            check_wiring(&tree, &Cut::root(), style).unwrap();
            for level in 1..=tree.max_level() {
                check_wiring(&tree, &Cut::uniform(&tree, level), style).unwrap();
            }
        }
    }
}

proptest! {
    /// The wiring of a random cut matches its definition.
    #[test]
    fn wiring_of_random_cuts_matches_its_definition(
        logw in 2u32..8,
        seed in any::<u64>(),
        split in 0u32..100,
        style in proptest::sample::select(vec![WiringStyle::Ahs, WiringStyle::PaperLiteral]),
    ) {
        let tree = Tree::new(1 << logw);
        check_wiring(&tree, &random_cut(&tree, seed, f64::from(split) / 100.0), style)?;
    }

    /// `Cut::is_valid` agrees with the brute-force definition on valid
    /// cuts and on cuts broken by dropping a leaf, adding a leaf's
    /// parent or child, or adding an arbitrary (possibly foreign) id.
    #[test]
    fn is_valid_matches_its_definition(
        logw in 1u32..7,
        seed in any::<u64>(),
        split in 0u32..100,
        edit in 0usize..5,
        pick in any::<usize>(),
        path in proptest::collection::vec(0u8..6, 0..8),
    ) {
        let tree = Tree::new(1 << logw);
        let mut leaves: Vec<ComponentId> =
            random_cut(&tree, seed, f64::from(split) / 100.0).leaves().iter().copied().collect();
        let chosen = leaves[pick % leaves.len()];
        match edit {
            1 => {
                leaves.remove(pick % leaves.len());
            }
            2 => leaves.extend(chosen.parent()),
            3 => leaves.extend(tree.children(&chosen).first().copied()),
            4 => leaves.push(ComponentId::from_path(path)),
            _ => {}
        }
        let cut = Cut::from_leaves(leaves);
        prop_assert_eq!(cut.is_valid(&tree), is_valid_by_definition(&cut, &tree), "{}", cut);
        if edit == 0 {
            prop_assert!(cut.is_valid(&tree));
        }
    }

    /// Pre-order naming round-trips for every node of every tree.
    #[test]
    fn preorder_roundtrip(logw in 1u32..7, index_seed in any::<u64>()) {
        let tree = Tree::new(1 << logw);
        let index = index_seed % tree.node_count();
        let id = tree.from_preorder_index(index).expect("in range");
        prop_assert_eq!(tree.preorder_index(&id), index);
    }

    /// Packed u64 ids round-trip for arbitrary valid paths.
    #[test]
    fn packed_id_roundtrip(path in proptest::collection::vec(0u8..6, 0..12)) {
        // Make the path a valid kind descent by clamping indices.
        let mut valid = Vec::new();
        let mut kind = ComponentKind::Bitonic;
        for step in path {
            let arity = kind.arity() as u8;
            let step = step % arity;
            valid.push(step);
            kind = kind.child_kind(step as usize).expect("clamped");
        }
        let id = ComponentId::from_path(valid);
        prop_assert_eq!(ComponentId::from_u64(id.to_u64()), id);
    }

    /// The inline id is indistinguishable from the `Vec<u8>` path it
    /// replaced — order, equality, hash, formatting, packing, ancestry —
    /// on unrelated paths and on a path against its own prefix, where
    /// comparing `(length, steps)` instead of the path would differ.
    #[test]
    fn inline_id_behaves_as_its_path(
        a in proptest::collection::vec(0u8..6, 0..23),
        b in proptest::collection::vec(0u8..6, 0..23),
        cut in any::<usize>(),
    ) {
        let prefix = a[..cut % (a.len() + 1)].to_vec();
        for (x, y) in [(&a, &b), (&a, &prefix), (&prefix, &a), (&a, &a)] {
            let (ix, iy) = (ComponentId::from_path(x), ComponentId::from_path(y));
            prop_assert_eq!(ix.cmp(&iy), x.cmp(y));
            prop_assert_eq!(ix == iy, x == y);
            prop_assert_eq!(ix.is_ancestor_of(&iy), x.len() < y.len() && y.starts_with(x));
        }
        let id = ComponentId::from_path(&a);
        prop_assert_eq!(id.path(), &a[..]);
        prop_assert_eq!(hash_of(&id), hash_of(&a));
        prop_assert_eq!(format!("{id:?}"), format!("ComponentId {{ path: {a:?} }}"));
        let shown: String = a.iter().map(|step| format!("/{step}")).collect();
        prop_assert_eq!(id.to_string(), if a.is_empty() { "/".to_string() } else { shown });
        let packed = a.iter().fold(0u64, |acc, &step| acc * 7 + u64::from(step) + 1);
        prop_assert_eq!(id.to_u64(), packed);
        prop_assert_eq!(ComponentId::from_u64(packed), id);
        // Walking up must leave no trace of the steps walked away from.
        let mut up = id;
        for len in (0..a.len()).rev() {
            up = up.parent().expect("below the root");
            prop_assert_eq!(up, ComponentId::from_path(&a[..len]));
            prop_assert_eq!(hash_of(&up), hash_of(&a[..len].to_vec()));
        }
        prop_assert_eq!(up.parent(), None);
        let ancestors: Vec<Vec<u8>> = id.ancestors().map(|p| p.path().to_vec()).collect();
        let expected: Vec<Vec<u8>> = (0..a.len()).rev().map(|len| a[..len].to_vec()).collect();
        prop_assert_eq!(ancestors, expected);
    }

    /// The decomposition port maps are mutually consistent bijections.
    #[test]
    fn port_maps_bijective(
        kind in proptest::sample::select(vec![
            ComponentKind::Bitonic, ComponentKind::Merger, ComponentKind::Mix
        ]),
        logw in 2u32..7,
        style in proptest::sample::select(vec![WiringStyle::Ahs, WiringStyle::PaperLiteral]),
    ) {
        let width = 1usize << logw;
        let half = width / 2;
        let mut fed = std::collections::HashSet::new();
        for port in 0..width {
            prop_assert!(fed.insert(parent_input_to_child(kind, width, port, style)));
        }
        let mut parent_out = std::collections::HashSet::new();
        for child in 0..kind.arity() {
            for port in 0..half {
                match child_output_destination(kind, width, child, port, style) {
                    ChildOutput::Sibling { child: c, port: p } => {
                        prop_assert!(fed.insert((c, p)));
                    }
                    ChildOutput::Parent { port: p } => {
                        prop_assert!(parent_out.insert(p));
                    }
                }
            }
        }
        prop_assert_eq!(fed.len(), kind.arity() * half);
        prop_assert_eq!(parent_out.len(), width);
    }

    /// phi respects Fact 1 for all levels.
    #[test]
    fn phi_fact_1(k in 0usize..30) {
        prop_assert!(phi(k + 1) >= 2 * phi(k));
        prop_assert!(phi(k + 1) <= 6 * phi(k));
    }

    /// Input-wire addresses are distinct and always resolvable under the
    /// uniform cuts.
    #[test]
    fn input_addresses_distinct(logw in 1u32..7) {
        let w = 1usize << logw;
        let tree = Tree::new(w);
        let mut seen = std::collections::HashSet::new();
        for wire in 0..w {
            let addr = network_input_address(&tree, wire, WiringStyle::Ahs);
            prop_assert!(seen.insert(addr));
            for level in 0..=tree.max_level() {
                let cut = Cut::uniform(&tree, level);
                prop_assert!(addr.owner_under(&cut).is_some());
            }
        }
    }
}

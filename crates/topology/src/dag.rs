//! The component-level directed acyclic graph induced by a cut.

use std::collections::BTreeMap;

use crate::cut::Cut;
use crate::id::ComponentId;
use crate::tree::Tree;
use crate::wiring::{CutWiring, Route, WiringStyle};

/// A directed edge between two components of a cut (deduplicated; a pair
/// of components may be joined by several wires).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DagEdge {
    /// Index of the source vertex in [`ComponentDag::vertices`].
    pub from: usize,
    /// Index of the destination vertex.
    pub to: usize,
    /// Number of parallel wires realizing this edge.
    pub wires: usize,
}

/// The component graph of a cut: vertices are the cut's leaf components,
/// edges follow the wires (Section 1.4 of the paper models the adaptive
/// network exactly like this). Vertices are in [`CutWiring`] leaf order,
/// so every edge leads to a higher vertex index: the vertex order is a
/// topological order.
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, Cut, ComponentId, ComponentDag};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// cut.split(&tree, &ComponentId::root()).unwrap();
/// let dag = ComponentDag::new(&tree, &cut);
/// assert_eq!(dag.vertices().len(), 6);
/// assert_eq!(dag.input_layer().len(), 2);  // the two BITONIC[4]
/// assert_eq!(dag.output_layer().len(), 2); // the two MIX[4]
/// ```
#[derive(Debug, Clone)]
pub struct ComponentDag {
    /// The cut's leaves in `ComponentId` order, as in the wiring.
    vertices: Vec<ComponentId>,
    edges: Vec<DagEdge>,
    adjacency: Vec<Vec<usize>>, // vertex -> outgoing edge indices
    input_layer: Vec<usize>,
    output_layer: Vec<usize>,
}

impl ComponentDag {
    /// Builds the DAG for `cut` over `tree` with the default wiring style.
    ///
    /// # Panics
    ///
    /// Panics if the cut is invalid.
    #[must_use]
    pub fn new(tree: &Tree, cut: &Cut) -> Self {
        Self::from_wiring(&CutWiring::new(tree, cut))
    }

    /// Builds the DAG for `cut` with an explicit wiring style.
    ///
    /// # Panics
    ///
    /// Panics if the cut is invalid.
    #[must_use]
    pub fn with_style(tree: &Tree, cut: &Cut, style: WiringStyle) -> Self {
        Self::from_wiring(&CutWiring::with_style(tree, cut, style))
    }

    /// Builds the DAG from an already-resolved wiring; vertex indices
    /// are the wiring's leaf indices.
    #[must_use]
    pub fn from_wiring(wiring: &CutWiring) -> Self {
        let vertices: Vec<ComponentId> = wiring.leaves().copied().collect();
        let mut edge_wires: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut output_layer_set = vec![false; vertices.len()];
        for (vi, is_output) in output_layer_set.iter_mut().enumerate() {
            for route in wiring.routes(vi) {
                match *route {
                    Route::Leaf { leaf, .. } => *edge_wires.entry((vi, leaf)).or_insert(0) += 1,
                    Route::Exit(_) => *is_output = true,
                }
            }
        }
        let mut input_layer_set = vec![false; vertices.len()];
        for wire in 0..wiring.tree().width() {
            input_layer_set[wiring.input(wire).0] = true;
        }
        let edges: Vec<DagEdge> = edge_wires
            .into_iter()
            .map(|((from, to), wires)| DagEdge { from, to, wires })
            .collect();
        let mut adjacency = vec![Vec::new(); vertices.len()];
        for (ei, e) in edges.iter().enumerate() {
            adjacency[e.from].push(ei);
        }
        let input_layer =
            (0..vertices.len()).filter(|&i| input_layer_set[i]).collect();
        let output_layer =
            (0..vertices.len()).filter(|&i| output_layer_set[i]).collect();
        ComponentDag { vertices, edges, adjacency, input_layer, output_layer }
    }

    /// The components, in the order used by vertex indices.
    #[must_use]
    pub fn vertices(&self) -> &[ComponentId] {
        &self.vertices
    }

    /// The vertex index of a component, if present.
    #[must_use]
    pub fn vertex_index(&self, id: &ComponentId) -> Option<usize> {
        self.vertices.binary_search(id).ok()
    }

    /// The deduplicated edges.
    #[must_use]
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Outgoing edge indices of a vertex.
    #[must_use]
    pub fn outgoing(&self, vertex: usize) -> &[usize] {
        &self.adjacency[vertex]
    }

    /// Vertices that own at least one network input wire.
    #[must_use]
    pub fn input_layer(&self) -> &[usize] {
        &self.input_layer
    }

    /// Vertices that own at least one network output wire.
    #[must_use]
    pub fn output_layer(&self) -> &[usize] {
        &self.output_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_cut_dag_is_a_single_vertex() {
        let tree = Tree::new(8);
        let dag = ComponentDag::new(&tree, &Cut::root());
        assert_eq!(dag.vertices().len(), 1);
        assert!(dag.edges().is_empty());
        assert_eq!(dag.input_layer(), &[0]);
        assert_eq!(dag.output_layer(), &[0]);
    }

    #[test]
    fn level1_cut_dag_structure() {
        let tree = Tree::new(8);
        let mut cut = Cut::root();
        cut.split(&tree, &ComponentId::root()).unwrap();
        let dag = ComponentDag::new(&tree, &cut);
        // B -> {MT, MB} x2, M -> {XT, XB} x2: 8 deduplicated edges.
        assert_eq!(dag.edges().len(), 8);
        // Each B->M edge carries 2 wires (4 outputs split across 2 mergers).
        for e in dag.edges() {
            assert_eq!(e.wires, 2);
        }
        assert_eq!(dag.input_layer().len(), 2);
        assert_eq!(dag.output_layer().len(), 2);
    }

    #[test]
    fn balancer_cut_dag_is_acyclic_and_layered() {
        for w in [4usize, 8, 16] {
            let tree = Tree::new(w);
            let dag = ComponentDag::new(&tree, &Cut::balancers(&tree));
            assert!(dag.edges().iter().all(|e| e.from < e.to), "w={w}");
            // Input layer of the balancer cut has w/2 balancers.
            assert_eq!(dag.input_layer().len(), w / 2, "w={w}");
            assert_eq!(dag.output_layer().len(), w / 2, "w={w}");
        }
    }

    #[test]
    fn mixed_level_cut_dag_valid() {
        let tree = Tree::new(16);
        let root = ComponentId::root();
        let mut cut = Cut::root();
        cut.split(&tree, &root).unwrap();
        cut.split(&tree, &root.child(0)).unwrap();
        cut.split(&tree, &root.child(3)).unwrap();
        let dag = ComponentDag::new(&tree, &cut);
        assert!(dag.edges().iter().all(|e| e.from < e.to));
        // Vertex count: 6 - 2 + 6 + 4 = 14.
        assert_eq!(dag.vertices().len(), 14);
    }

    #[test]
    fn vertex_index_roundtrip() {
        let tree = Tree::new(8);
        let mut cut = Cut::root();
        cut.split(&tree, &ComponentId::root()).unwrap();
        let dag = ComponentDag::new(&tree, &cut);
        for (i, v) in dag.vertices().iter().enumerate() {
            assert_eq!(dag.vertex_index(v), Some(i));
        }
        assert_eq!(dag.vertex_index(&ComponentId::root()), None);
    }
}

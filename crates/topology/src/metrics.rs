//! Effective width and effective depth of a component network
//! (Definitions 1.1 and 1.2 of the paper).

use crate::dag::ComponentDag;

/// The *effective depth* of the network: the number of components on the
/// longest path from an input-layer component to an output-layer component
/// (Definition 1.2; a single-component network has depth 1, matching the
/// base case `d = 1` in the proof of Lemma 2.2).
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, Cut, ComponentId, ComponentDag, effective_depth};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// cut.split(&tree, &ComponentId::root()).unwrap();
/// let dag = ComponentDag::new(&tree, &cut);
/// // B -> M -> X: three components on the longest path.
/// assert_eq!(effective_depth(&dag), 3);
/// ```
#[must_use]
pub fn effective_depth(dag: &ComponentDag) -> usize {
    let n = dag.vertices().len();
    if n == 0 {
        return 0;
    }
    // Longest path ending at each vertex, counted in vertices; edges
    // only lead to higher vertex indices.
    let mut longest = vec![1usize; n];
    for v in 0..n {
        for &ei in dag.outgoing(v) {
            let to = dag.edges()[ei].to;
            longest[to] = longest[to].max(longest[v] + 1);
        }
    }
    // The paths of interest end in the output layer. (Because every
    // component lies on some input-to-output path in a valid cut, the
    // longest path to an output vertex starts at an input vertex.)
    dag.output_layer().iter().map(|&v| longest[v]).max().unwrap_or(0)
}

/// The *effective width* of the network: the maximum number of
/// vertex-disjoint paths from input-layer components to output-layer
/// components (Definition 1.1). Computed as a unit-capacity max-flow with
/// vertex splitting.
///
/// # Example
///
/// ```
/// use acn_topology::{Tree, Cut, ComponentId, ComponentDag, effective_width};
///
/// let tree = Tree::new(8);
/// let mut cut = Cut::root();
/// cut.split(&tree, &ComponentId::root()).unwrap();
/// let dag = ComponentDag::new(&tree, &cut);
/// // Two vertex-disjoint B -> M -> X chains.
/// assert_eq!(effective_width(&dag), 2);
/// ```
#[must_use]
pub fn effective_width(dag: &ComponentDag) -> usize {
    let n = dag.vertices().len();
    if n == 0 {
        return 0;
    }
    // Build a flow network: vertex v splits into v_in = 2v, v_out = 2v+1
    // with capacity 1 between them; source = 2n, sink = 2n+1.
    let source = 2 * n;
    let sink = 2 * n + 1;
    let mut flow = MaxFlow::new(2 * n + 2);
    for v in 0..n {
        flow.add_edge(2 * v, 2 * v + 1, 1);
    }
    for e in dag.edges() {
        // Parallel wires do not increase vertex-disjoint paths, but give
        // the edge ample capacity anyway (vertex capacities dominate).
        flow.add_edge(2 * e.from + 1, 2 * e.to, e.wires);
    }
    for &v in dag.input_layer() {
        flow.add_edge(source, 2 * v, 1);
    }
    for &v in dag.output_layer() {
        flow.add_edge(2 * v + 1, sink, 1);
    }
    flow.max_flow(source, sink)
}

/// The Lemma 2.2 upper bound on effective depth when every leaf of the
/// cut is at level at most `k`: `(k + 1)(k + 2) / 2`.
#[must_use]
pub fn lemma_2_2_bound(k: usize) -> usize {
    (k + 1) * (k + 2) / 2
}

/// A small Edmonds–Karp max-flow for the unit-capacity graphs above.
struct MaxFlow {
    // adjacency: node -> list of edge indices into `edges`
    adjacency: Vec<Vec<usize>>,
    // edges stored as (to, capacity); reverse edge at index ^ 1
    edges: Vec<(usize, usize)>,
}

impl MaxFlow {
    fn new(nodes: usize) -> Self {
        MaxFlow { adjacency: vec![Vec::new(); nodes], edges: Vec::new() }
    }

    fn add_edge(&mut self, from: usize, to: usize, capacity: usize) {
        self.adjacency[from].push(self.edges.len());
        self.edges.push((to, capacity));
        self.adjacency[to].push(self.edges.len());
        self.edges.push((from, 0));
    }

    fn max_flow(&mut self, source: usize, sink: usize) -> usize {
        let mut total = 0;
        loop {
            // BFS for an augmenting path.
            let mut prev_edge = vec![usize::MAX; self.adjacency.len()];
            let mut visited = vec![false; self.adjacency.len()];
            visited[source] = true;
            let mut queue = std::collections::VecDeque::from([source]);
            while let Some(u) = queue.pop_front() {
                if u == sink {
                    break;
                }
                for &ei in &self.adjacency[u] {
                    let (to, cap) = self.edges[ei];
                    if cap > 0 && !visited[to] {
                        visited[to] = true;
                        prev_edge[to] = ei;
                        queue.push_back(to);
                    }
                }
            }
            if !visited[sink] {
                return total;
            }
            // Find bottleneck.
            let mut bottleneck = usize::MAX;
            let mut v = sink;
            while v != source {
                let ei = prev_edge[v];
                bottleneck = bottleneck.min(self.edges[ei].1);
                v = self.edges[ei ^ 1].0;
            }
            // Apply.
            let mut v = sink;
            while v != source {
                let ei = prev_edge[v];
                self.edges[ei].1 -= bottleneck;
                self.edges[ei ^ 1].1 += bottleneck;
                v = self.edges[ei ^ 1].0;
            }
            total += bottleneck;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComponentId, Cut, Tree};

    #[test]
    fn single_component_has_width_and_depth_one() {
        let tree = Tree::new(16);
        let dag = ComponentDag::new(&tree, &Cut::root());
        assert_eq!(effective_depth(&dag), 1);
        assert_eq!(effective_width(&dag), 1);
    }

    #[test]
    fn uniform_cut_width_matches_lemma_2_3() {
        // Lemma 2.3: every leaf at level exactly k => effective width 2^k
        // (the network is isomorphic to a bitonic network of width 2^{k+1}).
        for w in [8usize, 16, 32] {
            let tree = Tree::new(w);
            for k in 0..=tree.max_level() {
                let dag = ComponentDag::new(&tree, &Cut::uniform(&tree, k));
                assert_eq!(effective_width(&dag), 1 << k, "w={w} k={k}");
            }
        }
    }

    #[test]
    fn uniform_cut_depth_matches_recurrence() {
        // With all leaves at level k the depth recurrences of Lemma 2.2
        // hold with equality: d = (k+1)(k+2)/2.
        for w in [8usize, 16, 32, 64] {
            let tree = Tree::new(w);
            for k in 0..=tree.max_level() {
                let dag = ComponentDag::new(&tree, &Cut::uniform(&tree, k));
                assert_eq!(effective_depth(&dag), lemma_2_2_bound(k), "w={w} k={k}");
            }
        }
    }

    #[test]
    fn lemma_2_2_holds_for_all_cuts_of_t8() {
        let tree = Tree::new(8);
        for cut in Cut::enumerate_all(&tree) {
            let dag = ComponentDag::new(&tree, &cut);
            let depth = effective_depth(&dag);
            let k = cut.max_level();
            assert!(
                depth <= lemma_2_2_bound(k),
                "cut {cut}: depth {depth} exceeds bound {}",
                lemma_2_2_bound(k)
            );
        }
    }

    #[test]
    fn lemma_2_3_holds_for_all_cuts_of_t8() {
        let tree = Tree::new(8);
        for cut in Cut::enumerate_all(&tree) {
            let dag = ComponentDag::new(&tree, &cut);
            let width = effective_width(&dag);
            let k = cut.min_level();
            assert!(
                width >= 1 << k,
                "cut {cut}: width {width} below bound {}",
                1 << k
            );
        }
    }

    #[test]
    fn figure_3_numbers_are_achievable_on_t8() {
        // Figure 3 of the paper shows a cut of T_8 with effective width 2
        // and effective depth 5: split the root and then the top
        // BITONIC[4] and top MERGER[4]... the simplest realization is to
        // split the root and the top BITONIC[4] fully.
        let tree = Tree::new(8);
        let root = ComponentId::root();
        let mut cut = Cut::root();
        cut.split(&tree, &root).unwrap();
        cut.split(&tree, &root.child(0)).unwrap();
        let dag = ComponentDag::new(&tree, &cut);
        assert_eq!(effective_width(&dag), 2);
        assert_eq!(effective_depth(&dag), 5);
    }

    #[test]
    fn splitting_never_decreases_effective_width() {
        // Lemma 2.3's key observation: vertex-disjoint paths survive
        // splits. Check on every single-split refinement over T_8 cuts.
        let tree = Tree::new(8);
        for cut in Cut::enumerate_all(&tree) {
            let base = effective_width(&ComponentDag::new(&tree, &cut));
            for leaf in cut.leaves().clone() {
                if tree.info(&leaf).unwrap().is_balancer() {
                    continue;
                }
                let mut refined = cut.clone();
                refined.split(&tree, &leaf).unwrap();
                let w2 = effective_width(&ComponentDag::new(&tree, &refined));
                assert!(
                    w2 >= base,
                    "split of {leaf} reduced width {base} -> {w2} in {cut}"
                );
            }
        }
    }

    #[test]
    fn max_flow_basics() {
        let mut f = MaxFlow::new(4);
        f.add_edge(0, 1, 2);
        f.add_edge(1, 2, 1);
        f.add_edge(1, 3, 1);
        f.add_edge(2, 3, 5);
        assert_eq!(f.max_flow(0, 3), 2);
    }
}

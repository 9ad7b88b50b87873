//! E11b — the motivating comparison under an explicit contention model.
//!
//! E11 compares idealized makespans; this experiment actually *runs* the
//! token traffic through a timed network-of-queues model in which the
//! **overlay nodes are the servers**: every component is mapped to its
//! hash owner, a node processes one token per tick (its components share
//! the node's capacity, exactly as colocated objects share a host), and
//! wires add a fixed latency. The makespan for a batch of tokens then
//! reflects both contention (too little width ⇒ one node serializes
//! everything) and overhead (too much width ⇒ long pipelines for no
//! gain) — the two failure modes of static sizing from Section 2 of the
//! paper.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use acn_core::component::Component;
use acn_core::ConvergedNetwork;
use acn_overlay::Ring;
use acn_topology::{Cut, CutWiring, Route, Tree};

use crate::util::{section, seeded_ring, Table};

/// Wire latency in ticks (a remote hop costs this much).
const HOP_LATENCY: u64 = 4;

/// Runs a batch of `tokens` through the cut's component network with
/// per-node FIFO service (1 token/tick/node) and returns the makespan.
fn timed_makespan(tree: &Tree, cut: &Cut, ring: &Ring, tokens: u64) -> u64 {
    let wiring = CutWiring::new(tree, cut);
    let mut components: Vec<Component> =
        wiring.leaves().map(|id| Component::new(tree, id)).collect();
    // Each leaf's host, and node service availability.
    let hosts: Vec<u64> =
        wiring.leaves().map(|id| ring.owner_of_name(tree.preorder_index(id)).0).collect();
    let mut node_free: HashMap<u64, u64> = HashMap::new();
    // Event queue: (arrival time, sequence, leaf, input port).
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let w = tree.width();
    for t in 0..tokens {
        let wire = (t % w as u64) as usize;
        let (leaf, port) = wiring.input(wire);
        heap.push(Reverse((0, t, leaf, port)));
    }
    let mut seq = tokens;
    let mut makespan = 0u64;
    while let Some(Reverse((time, _, leaf, port))) = heap.pop() {
        let free = node_free.entry(hosts[leaf]).or_insert(0);
        let start = time.max(*free);
        *free = start + 1; // one token per tick per node
        let out = components[leaf].process_token(Some(port));
        let done = start + 1;
        match wiring.routes(leaf)[out] {
            Route::Leaf { leaf, port } => {
                seq += 1;
                heap.push(Reverse((done + HOP_LATENCY, seq, leaf, port)));
            }
            Route::Exit(_) => makespan = makespan.max(done),
        }
    }
    makespan
}

/// Runs the experiment and returns the rendered report.
#[must_use]
pub fn run() -> String {
    run_for(&[4usize, 32, 256, 1024])
}

/// Runs the sweep for the given system sizes (the unit test truncates
/// it; the release harness runs the full sweep).
#[must_use]
pub fn run_for(sizes: &[usize]) -> String {
    let mut table = Table::new(&[
        "N",
        "tokens",
        "structure",
        "makespan (ticks)",
        "throughput (tok/tick)",
    ]);
    for &n in sizes {
        let ring = seeded_ring(n, 0xC047E + n as u64);
        let tokens = 64 * n as u64;
        // The adaptive cut for this system size.
        let adaptive = ConvergedNetwork::new(1 << 12, ring.clone());
        let rows: Vec<(String, Tree, Cut)> = vec![
            (
                "adaptive".into(),
                *adaptive.tree(),
                adaptive.cut().clone(),
            ),
            ("static BITONIC[8] (balancers)".into(), Tree::new(8), {
                let t = Tree::new(8);
                Cut::balancers(&t)
            }),
            ("static BITONIC[128] (balancers)".into(), Tree::new(128), {
                let t = Tree::new(128);
                Cut::balancers(&t)
            }),
            ("central counter".into(), Tree::new(2), Cut::root()),
        ];
        for (name, tree, cut) in rows {
            let makespan = timed_makespan(&tree, &cut, &ring, tokens);
            table.row(&[
                n.to_string(),
                tokens.to_string(),
                name,
                makespan.to_string(),
                format!("{:.2}", tokens as f64 / makespan as f64),
            ]);
        }
    }
    section(
        "E11b — contention-model makespan (nodes are the servers)",
        &format!(
            "{}\nModel: 1 token/tick per node, {HOP_LATENCY}-tick wire hops, tokens injected\nround-robin at t=0. Expected shape (paper Section 2): the central counter's\nthroughput is pinned at 1 token/tick forever and the static networks are\npinned at their built-in width, while the adaptive throughput grows with N;\nat small N the adaptive network avoids the overhead the oversized static\nnetwork pays (pipeline depth with no usable parallelism). The bitonic\npipeline depth O(log^2) is the price of adaptivity the paper acknowledges —\nvisible as the mid-range dip before parallelism dominates.\n",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn adaptive_is_never_pathological() {
        let report = super::run_for(&[4usize, 32]);
        // Parse throughputs per N and verify the adaptive line is within
        // a small factor of the best structure at every N.
        let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        let mut adaptive: std::collections::HashMap<String, f64> =
            std::collections::HashMap::new();
        for line in report.lines() {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() < 4 || !cells[0].chars().all(|c| c.is_ascii_digit()) {
                continue;
            }
            let n = cells[0].to_owned();
            let throughput: f64 = cells[cells.len() - 1].parse().expect("throughput");
            let entry = best.entry(n.clone()).or_insert(0.0);
            *entry = entry.max(throughput);
            if line.contains(" adaptive") {
                adaptive.insert(n, throughput);
            }
        }
        for (n, best_tp) in best {
            let ours = adaptive[&n];
            assert!(
                ours * 4.0 >= best_tp,
                "N={n}: adaptive throughput {ours} vs best {best_tp}"
            );
        }
    }
}

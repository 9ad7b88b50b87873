//! Constructions of the classical counting networks.

use crate::network::{BalancingNetwork, Dest};

/// A wire endpoint during construction: who produces the wire.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Network input wire `i`.
    Input(usize),
    /// Output port `port` (0 or 1) of balancer `b`.
    Balancer { b: usize, port: usize },
}

/// Incremental builder that allocates balancers and finally resolves the
/// `Source` graph into a [`BalancingNetwork`].
struct Builder {
    /// For each balancer, the sources of its two *input* wires are not
    /// stored — balancers are port-oblivious. We store, per balancer,
    /// nothing; edges are recorded by resolving sources at the end.
    balancer_count: usize,
    /// Destination assignment, filled in `finish`.
    input_dest: Vec<Option<Dest>>,
    balancer_dest: Vec<[Option<Dest>; 2]>,
}

impl Builder {
    fn new(width: usize) -> Self {
        Builder {
            balancer_count: 0,
            input_dest: vec![None; width],
            balancer_dest: Vec::new(),
        }
    }

    /// Adds a balancer fed by `a` and `b`; returns its two output sources.
    fn balancer(&mut self, a: Source, b: Source) -> (Source, Source) {
        let idx = self.balancer_count;
        self.balancer_count += 1;
        self.balancer_dest.push([None, None]);
        self.connect(a, Dest::Balancer(idx));
        self.connect(b, Dest::Balancer(idx));
        (
            Source::Balancer { b: idx, port: 0 },
            Source::Balancer { b: idx, port: 1 },
        )
    }

    fn connect(&mut self, source: Source, dest: Dest) {
        match source {
            Source::Input(i) => {
                assert!(self.input_dest[i].is_none(), "input wire {i} connected twice");
                self.input_dest[i] = Some(dest);
            }
            Source::Balancer { b, port } => {
                assert!(
                    self.balancer_dest[b][port].is_none(),
                    "balancer {b} port {port} connected twice"
                );
                self.balancer_dest[b][port] = Some(dest);
            }
        }
    }

    /// Connects `outputs[i]` to network output wire `i` and builds.
    fn finish(mut self, outputs: &[Source]) -> BalancingNetwork {
        let width = self.input_dest.len();
        assert_eq!(outputs.len(), width);
        for (i, &src) in outputs.iter().enumerate() {
            self.connect(src, Dest::Output(i));
        }
        let inputs = self
            .input_dest
            .into_iter()
            .map(|d| d.expect("dangling input wire"))
            .collect();
        let balancers = self
            .balancer_dest
            .into_iter()
            .map(|[a, b]| [a.expect("dangling balancer output"), b.expect("dangling balancer output")])
            .collect();
        BalancingNetwork::new(width, inputs, balancers)
    }
}

/// The Aspnes–Herlihy–Shavit `MERGER[2k]`: merges two width-`k` sequences
/// with the step property into one width-`2k` step sequence.
fn merger(builder: &mut Builder, top: &[Source], bottom: &[Source]) -> Vec<Source> {
    assert_eq!(top.len(), bottom.len());
    let k = top.len();
    if k == 1 {
        let (a, b) = builder.balancer(top[0], bottom[0]);
        return vec![a, b];
    }
    // Even tops + odd bottoms into one sub-merger, odd tops + even
    // bottoms into the other.
    let even = |s: &[Source]| -> Vec<Source> { s.iter().copied().step_by(2).collect() };
    let odd = |s: &[Source]| -> Vec<Source> { s.iter().copied().skip(1).step_by(2).collect() };
    let a = merger(builder, &even(top), &odd(bottom));
    let b = merger(builder, &odd(top), &even(bottom));
    // Final layer: balancer i joins a[i] and b[i], emitting wires 2i, 2i+1.
    let mut out = Vec::with_capacity(2 * k);
    for i in 0..k {
        let (t, u) = builder.balancer(a[i], b[i]);
        out.push(t);
        out.push(u);
    }
    out
}

fn bitonic_rec(builder: &mut Builder, inputs: &[Source]) -> Vec<Source> {
    let w = inputs.len();
    if w == 1 {
        return vec![inputs[0]];
    }
    if w == 2 {
        let (a, b) = builder.balancer(inputs[0], inputs[1]);
        return vec![a, b];
    }
    let top = bitonic_rec(builder, &inputs[..w / 2]);
    let bottom = bitonic_rec(builder, &inputs[w / 2..]);
    merger(builder, &top, &bottom)
}

/// Builds the `BITONIC[w]` counting network of Aspnes–Herlihy–Shavit,
/// isomorphic to Batcher's bitonic sorting network.
///
/// The network has `w·log(w)·(log(w)+1)/4` balancers and depth
/// `log(w)·(log(w)+1)/2`.
///
/// # Panics
///
/// Panics if `w` is not a power of two or `w < 2`.
///
/// # Example
///
/// ```
/// use acn_bitonic::bitonic_network;
///
/// let net = bitonic_network(16);
/// assert_eq!(net.width(), 16);
/// assert_eq!(net.balancer_count(), 16 * 4 * 5 / 4);
/// assert_eq!(net.depth(), 4 * 5 / 2);
/// ```
#[must_use]
pub fn bitonic_network(w: usize) -> BalancingNetwork {
    assert!(w >= 2 && w.is_power_of_two(), "width must be a power of two >= 2");
    let mut builder = Builder::new(w);
    let inputs: Vec<Source> = (0..w).map(Source::Input).collect();
    let outputs = bitonic_rec(&mut builder, &inputs);
    builder.finish(&outputs)
}

/// Builds the `PERIODIC[w]` counting network of Dowd–Perl–Rudolph–Saks:
/// `log w` identical `BLOCK[w]` networks in sequence. `BLOCK[w]` begins
/// with a layer joining wire `i` to wire `w-1-i`, followed recursively by
/// two `BLOCK[w/2]` on the halves.
///
/// The network has depth `log²(w)` and `w·log²(w)/2` balancers.
///
/// # Panics
///
/// Panics if `w` is not a power of two or `w < 2`.
///
/// # Example
///
/// ```
/// use acn_bitonic::periodic_network;
///
/// let net = periodic_network(8);
/// assert_eq!(net.depth(), 9);
/// assert_eq!(net.balancer_count(), 8 * 9 / 2);
/// ```
#[must_use]
pub fn periodic_network(w: usize) -> BalancingNetwork {
    assert!(w >= 2 && w.is_power_of_two(), "width must be a power of two >= 2");

    fn block(builder: &mut Builder, wires: &[Source]) -> Vec<Source> {
        let k = wires.len();
        if k == 1 {
            return vec![wires[0]];
        }
        // First layer: wire i joined with wire k-1-i.
        let mut after = vec![None; k];
        for i in 0..k / 2 {
            let (a, b) = builder.balancer(wires[i], wires[k - 1 - i]);
            after[i] = Some(a);
            after[k - 1 - i] = Some(b);
        }
        let after: Vec<Source> = after.into_iter().map(Option::unwrap).collect();
        // Recurse on the two halves.
        let top = block(builder, &after[..k / 2]);
        let bottom = block(builder, &after[k / 2..]);
        top.into_iter().chain(bottom).collect()
    }

    let logw = w.trailing_zeros() as usize;
    let mut builder = Builder::new(w);
    let mut wires: Vec<Source> = (0..w).map(Source::Input).collect();
    for _ in 0..logw {
        wires = block(&mut builder, &wires);
    }
    builder.finish(&wires)
}

/// Expands the *balancer cut* of `T_w` (the cut whose leaves are all
/// individual balancers) into an explicit [`BalancingNetwork`]. This
/// cross-validates the `acn-topology` decomposition wiring against the
/// direct recursive construction of [`bitonic_network`].
///
/// # Panics
///
/// Panics if the wiring was not produced from the full balancer cut
/// (every leaf must have width 2).
#[must_use]
pub fn from_cut_wiring(wiring: &acn_topology::CutWiring) -> BalancingNetwork {
    use acn_topology::Route;

    let dest = |route: &Route| match *route {
        Route::Leaf { leaf, .. } => Dest::Balancer(leaf),
        Route::Exit(wire) => Dest::Output(wire),
    };
    let balancers = (0..wiring.len())
        .map(|leaf| match wiring.routes(leaf) {
            [top, bottom] => [dest(top), dest(bottom)],
            _ => panic!("from_cut_wiring requires the balancer cut"),
        })
        .collect();
    let width = wiring.tree().width();
    let inputs = (0..width).map(|wire| Dest::Balancer(wiring.input(wire).0)).collect();
    BalancingNetwork::new(width, inputs, balancers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::{verify_interleaved, verify_rounds, verify_sequential};

    /// Simple deterministic RNG for schedules.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn bitonic_sizes_match_formulas() {
        for logw in 1..=6u32 {
            let w = 1usize << logw;
            let net = bitonic_network(w);
            let lw = logw as usize;
            assert_eq!(net.balancer_count(), w * lw * (lw + 1) / 4, "w={w}");
            assert_eq!(net.depth(), lw * (lw + 1) / 2, "w={w}");
        }
    }

    #[test]
    fn periodic_sizes_match_formulas() {
        for logw in 1..=6u32 {
            let w = 1usize << logw;
            let net = periodic_network(w);
            let lw = logw as usize;
            assert_eq!(net.balancer_count(), w * lw * lw / 2, "w={w}");
            assert_eq!(net.depth(), lw * lw, "w={w}");
        }
    }

    #[test]
    fn bitonic_counts_sequentially() {
        for w in [2usize, 4, 8, 16, 32] {
            let net = bitonic_network(w);
            // All tokens into wire 0.
            assert!(verify_sequential(&net, 3 * w, |_| 0).counts, "w={w} wire0");
            // Round-robin inputs.
            assert!(verify_sequential(&net, 3 * w, |t| t).counts, "w={w} rr");
            // Skewed inputs.
            assert!(verify_sequential(&net, 3 * w, |t| t % 3).counts, "w={w} skew");
        }
    }

    #[test]
    fn periodic_counts_sequentially() {
        for w in [2usize, 4, 8, 16] {
            let net = periodic_network(w);
            assert!(verify_sequential(&net, 4 * w, |_| 0).counts, "w={w} wire0");
            assert!(verify_sequential(&net, 4 * w, |t| t).counts, "w={w} rr");
            assert!(
                verify_sequential(&net, 4 * w, |t| (t * 7) % w).counts,
                "w={w} stride"
            );
        }
    }

    #[test]
    fn bitonic_counts_under_adversarial_interleavings() {
        for w in [4usize, 8, 16] {
            let net = bitonic_network(w);
            for seed in 0..20u64 {
                let mut rng = Lcg(seed + 1);
                let mut inputs = Lcg(seed.wrapping_mul(77) + 13);
                let v = verify_interleaved(
                    &net,
                    5 * w + seed as usize,
                    |_| inputs.next() as usize,
                    |n| (rng.next() as usize) % n.max(1),
                );
                assert!(v.counts, "w={w} seed={seed}: {:?}", v.final_outputs);
            }
        }
    }

    #[test]
    fn periodic_counts_under_adversarial_interleavings() {
        for w in [4usize, 8] {
            let net = periodic_network(w);
            for seed in 0..10u64 {
                let mut rng = Lcg(seed + 101);
                let mut inputs = Lcg(seed + 7);
                let v = verify_interleaved(
                    &net,
                    6 * w,
                    |_| inputs.next() as usize,
                    |n| (rng.next() as usize) % n.max(1),
                );
                assert!(v.counts, "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn bitonic_counts_across_rounds() {
        let net = bitonic_network(8);
        for seed in 0..10u64 {
            let mut rng = Lcg(seed + 3);
            let mut batch = Lcg(seed + 19);
            let mut inputs = Lcg(seed + 29);
            let v = verify_rounds(
                &net,
                12,
                |_| (batch.next() % 17) as usize + 1,
                |_| inputs.next() as usize,
                |n| (rng.next() as usize) % n.max(1),
            );
            assert!(v.counts, "seed={seed}");
        }
    }

    #[test]
    fn topology_balancer_cut_matches_direct_construction() {
        use acn_topology::{Cut, CutWiring, Tree};
        for w in [2usize, 4, 8, 16] {
            let tree = Tree::new(w);
            let wiring = CutWiring::new(&tree, &Cut::balancers(&tree));
            let from_topology = from_cut_wiring(&wiring);
            let direct = bitonic_network(w);
            assert_eq!(
                from_topology.balancer_count(),
                direct.balancer_count(),
                "w={w}"
            );
            assert_eq!(from_topology.depth(), direct.depth(), "w={w}");
            // And it must count.
            assert!(verify_sequential(&from_topology, 4 * w, |t| t % 3).counts);
            for seed in 0..5u64 {
                let mut rng = Lcg(seed + 55);
                let mut inputs = Lcg(seed + 111);
                let v = verify_interleaved(
                    &from_topology,
                    4 * w,
                    |_| inputs.next() as usize,
                    |n| (rng.next() as usize) % n.max(1),
                );
                assert!(v.counts, "w={w} seed={seed}");
            }
        }
    }

    #[test]
    fn paper_literal_wiring_fails_step_property() {
        // The ablation of DESIGN.md Section 3.2: the (even, even) pairing
        // from the paper's prose does not count.
        use acn_topology::{Cut, CutWiring, Tree, WiringStyle};
        let tree = Tree::new(4);
        let wiring =
            CutWiring::with_style(&tree, &Cut::balancers(&tree), WiringStyle::PaperLiteral);
        let net = from_cut_wiring(&wiring);
        // Loading both halves exposes the imbalance: one token into each
        // half-BITONIC sends the even outputs of *both* halves into the
        // same merger, so the tokens exit on wires {0, 2} instead of
        // {0, 1}.
        let v = verify_sequential(&net, 2, |t| t * 2);
        assert!(!v.counts, "literal wiring unexpectedly counted: {:?}", v.final_outputs);
        assert_eq!(v.final_outputs, [1, 0, 1, 0]);
        // The AHS wiring on the same schedule counts.
        let correct = from_cut_wiring(&CutWiring::new(&tree, &Cut::balancers(&tree)));
        assert!(verify_sequential(&correct, 2, |t| t * 2).counts);
    }
}

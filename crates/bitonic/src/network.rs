//! Generic balancing networks of 2×2 balancers.

use std::fmt;

/// Destination of a wire inside a [`BalancingNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// The wire enters the balancer with this index. (Balancers are
    /// oblivious to which of their two input wires a token arrives on, so
    /// no input-port index is needed.)
    Balancer(usize),
    /// The wire is a network output with this index.
    Output(usize),
}

/// An immutable description of an acyclic balancing network: `width` input
/// wires, `width` output wires, and a set of balancers whose two output
/// wires lead to other balancers or to network outputs.
///
/// The mutable toggle state lives separately in [`NetworkState`] so one
/// network description can drive many executions. (`Hash`/`Eq` exist so
/// the description can live inside a checker-fingerprintable lock
/// payload — see `acn_sync::SyncData`.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BalancingNetwork {
    width: usize,
    inputs: Vec<Dest>,
    /// `balancers[b]` = destinations of the two output wires (top, bottom).
    balancers: Vec<[Dest; 2]>,
}

impl BalancingNetwork {
    /// Builds a network from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != width`, if any referenced balancer or
    /// output index is out of range, or if the network is cyclic or does
    /// not produce every output wire exactly once.
    #[must_use]
    pub fn new(width: usize, inputs: Vec<Dest>, balancers: Vec<[Dest; 2]>) -> Self {
        assert_eq!(inputs.len(), width, "need one destination per input wire");
        let net = BalancingNetwork { width, inputs, balancers };
        net.validate();
        net
    }

    fn validate(&self) {
        let mut output_seen = vec![false; self.width];
        let mut check = |d: &Dest| match *d {
            Dest::Balancer(b) => {
                assert!(b < self.balancers.len(), "balancer index {b} out of range");
            }
            Dest::Output(o) => {
                assert!(o < self.width, "output index {o} out of range");
                assert!(!output_seen[o], "output wire {o} produced twice");
                output_seen[o] = true;
            }
        };
        for d in &self.inputs {
            check(d);
        }
        for b in &self.balancers {
            check(&b[0]);
            check(&b[1]);
        }
        assert!(
            output_seen.iter().all(|&s| s),
            "some output wire is never produced"
        );
        // Acyclicity: depth computation performs a topological check.
        let _ = self.depth();
    }

    /// The number of input (and output) wires.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of balancers.
    #[must_use]
    pub fn balancer_count(&self) -> usize {
        self.balancers.len()
    }

    /// The destinations of balancer `b`'s two output wires.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn balancer_outputs(&self, b: usize) -> [Dest; 2] {
        self.balancers[b]
    }

    /// The destination of input wire `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    #[must_use]
    pub fn input(&self, wire: usize) -> Dest {
        self.inputs[wire]
    }

    /// The depth of the network: the maximum number of balancers a token
    /// traverses from an input wire to an output wire.
    ///
    /// # Panics
    ///
    /// Panics if the network is cyclic.
    #[must_use]
    pub fn depth(&self) -> usize {
        // Longest path over balancers, memoized; recursion depth equals
        // network depth (O(log^2 w)), so plain recursion is fine.
        fn longest(
            balancers: &[[Dest; 2]],
            memo: &mut [Option<usize>],
            visiting: &mut [bool],
            b: usize,
        ) -> usize {
            if let Some(v) = memo[b] {
                return v;
            }
            assert!(!visiting[b], "balancing network contains a cycle");
            visiting[b] = true;
            let mut best = 0;
            for d in balancers[b] {
                if let Dest::Balancer(next) = d {
                    best = best.max(longest(balancers, memo, visiting, next));
                }
            }
            visiting[b] = false;
            memo[b] = Some(best + 1);
            best + 1
        }
        let mut memo = vec![None; self.balancers.len()];
        let mut visiting = vec![false; self.balancers.len()];
        self.inputs
            .iter()
            .map(|d| match *d {
                Dest::Balancer(b) => {
                    longest(&self.balancers, &mut memo, &mut visiting, b)
                }
                Dest::Output(_) => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Routes one token sequentially from `input_wire` to an output wire,
    /// updating toggles in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `input_wire >= width` or `state` was created for a
    /// different network shape.
    #[must_use]
    pub fn route(&self, state: &mut NetworkState, input_wire: usize) -> usize {
        let mut dest = self.inputs[input_wire];
        loop {
            match dest {
                Dest::Balancer(b) => dest = self.balancers[b][state.toggle(b)],
                Dest::Output(o) => return o,
            }
        }
    }

    /// Advances a token that is currently at `dest` by **one balancer
    /// step** (the granularity at which asynchronous executions
    /// interleave). Returns the new position.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match this network.
    #[must_use]
    pub fn step_token(&self, state: &mut NetworkState, dest: Dest) -> Dest {
        match dest {
            Dest::Balancer(b) => self.balancers[b][state.toggle(b)],
            Dest::Output(_) => dest,
        }
    }
}

impl fmt::Display for BalancingNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BalancingNetwork(width={}, balancers={}, depth={})",
            self.width,
            self.balancer_count(),
            self.depth()
        )
    }
}

/// The mutable per-execution state of a [`BalancingNetwork`]: one token
/// counter per balancer. The counter's parity is the classical toggle; the
/// full count is retained for diagnostics and self-stabilization tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState {
    counts: Vec<u64>,
}

impl NetworkState {
    /// Fresh state (all toggles up) for `net`.
    #[must_use]
    pub fn new(net: &BalancingNetwork) -> Self {
        NetworkState { counts: vec![0; net.balancer_count()] }
    }

    /// Passes a token through balancer `b`: returns the output port (0 =
    /// top for even visits) and increments the count.
    fn toggle(&mut self, b: usize) -> usize {
        let port = (self.counts[b] % 2) as usize;
        self.counts[b] += 1;
        port
    }

    /// Tokens that have passed through balancer `b` so far.
    #[must_use]
    pub fn count(&self, b: usize) -> u64 {
        self.counts[b]
    }

    /// Overwrites the token count of balancer `b` (used by
    /// fault-injection and self-stabilization tests).
    pub fn set_count(&mut self, b: usize, count: u64) {
        self.counts[b] = count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single balancer as a width-2 network.
    fn single_balancer() -> BalancingNetwork {
        BalancingNetwork::new(
            2,
            vec![Dest::Balancer(0), Dest::Balancer(0)],
            vec![[Dest::Output(0), Dest::Output(1)]],
        )
    }

    #[test]
    fn balancer_alternates_outputs() {
        let net = single_balancer();
        let mut state = NetworkState::new(&net);
        let outs: Vec<usize> = (0..6).map(|i| net.route(&mut state, i % 2)).collect();
        assert_eq!(outs, [0, 1, 0, 1, 0, 1]);
        assert_eq!(state.count(0), 6);
    }

    #[test]
    fn depth_of_single_balancer_is_one() {
        assert_eq!(single_balancer().depth(), 1);
    }

    #[test]
    #[should_panic(expected = "never produced")]
    fn validation_rejects_missing_output() {
        // Output wire 1 is never produced (the stray wires form a loop,
        // but the missing-output check fires first).
        let _ = BalancingNetwork::new(
            2,
            vec![Dest::Balancer(0), Dest::Balancer(0)],
            vec![
                [Dest::Output(0), Dest::Balancer(1)],
                [Dest::Balancer(0), Dest::Balancer(0)],
            ],
        );
    }

    #[test]
    #[should_panic(expected = "produced twice")]
    fn validation_rejects_duplicate_output() {
        let _ = BalancingNetwork::new(
            2,
            vec![Dest::Output(0), Dest::Output(0)],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn validation_rejects_cycles() {
        let _ = BalancingNetwork::new(
            2,
            vec![Dest::Balancer(0), Dest::Output(1)],
            vec![[Dest::Balancer(0), Dest::Output(0)]],
        );
    }

    #[test]
    fn step_token_matches_route() {
        let net = single_balancer();
        let mut s1 = NetworkState::new(&net);
        let mut s2 = NetworkState::new(&net);
        for i in 0..5 {
            let direct = net.route(&mut s1, i % 2);
            let mut pos = net.input(i % 2);
            while let Dest::Balancer(_) = pos {
                pos = net.step_token(&mut s2, pos);
            }
            assert_eq!(pos, Dest::Output(direct));
        }
    }

    #[test]
    fn two_layer_network_routes() {
        // Two balancers in sequence on two wires: still a counting network.
        let net = BalancingNetwork::new(
            2,
            vec![Dest::Balancer(0), Dest::Balancer(0)],
            vec![
                [Dest::Balancer(1), Dest::Balancer(1)],
                [Dest::Output(0), Dest::Output(1)],
            ],
        );
        assert_eq!(net.depth(), 2);
        let mut state = NetworkState::new(&net);
        let outs: Vec<usize> = (0..4).map(|_| net.route(&mut state, 0)).collect();
        assert_eq!(outs, [0, 1, 0, 1]);
    }
}

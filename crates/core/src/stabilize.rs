//! Self-stabilization of the counting layer (paper Section 3.4).
//!
//! When a node crashes, the state of its components is lost or — worse —
//! reset to garbage. The paper points to Herlihy–Tirthapura \[HT03\]
//! ("Self-stabilizing smoothing and counting") for the recovery story:
//! balancing networks can be made self-stabilizing by *local* repair
//! actions that compare each element's state against the token counts on
//! its adjacent wires, and the technique "can be easily extended to the
//! more general components".
//!
//! This module implements that extension for the adaptive network. The
//! wire counts are exactly the ledgers the components already keep
//! (`arrivals` per input wire, `emitted` per output wire), plus the
//! client-side input ledger of the network. A stabilization pass walks
//! the components of the cut in topological order and applies the local
//! rule:
//!
//! > *my arrivals must equal what my upstream neighbours emitted onto my
//! > wires; my counter must equal my total arrivals; my emissions must be
//! > the round-robin of my counter.*
//!
//! One pass restores a legal (canonical flow) state of the whole network
//! from arbitrary corruption — provided the network is quiescent, which
//! is the standard setting for stabilization rounds. Tokens that the
//! corrupted state mis-emitted before the pass are history (stabilization
//! guarantees *future* legality, exactly as in \[HT03\]); the pass also
//! rewrites the output ledger so that application-level counter values
//! resume consistently.

use acn_topology::{resolve_output, ComponentDag, ComponentId, OutputDestination};

use crate::component::{port_emissions, Component};
use crate::local::LocalAdaptiveNetwork;

/// A single detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The component's counter does not equal its total arrivals.
    CounterMismatch {
        /// The inconsistent component.
        id: ComponentId,
        /// Its counter value.
        tokens: u64,
        /// The sum of its arrival ledger.
        arrivals: u64,
    },
    /// A wire's receiver recorded a different count than its producer.
    WireMismatch {
        /// The receiving component.
        id: ComponentId,
        /// The receiving input port.
        port: usize,
        /// Tokens the producer put on the wire.
        sent: u64,
        /// Tokens the receiver recorded.
        received: u64,
    },
    /// The component's emission ledger is not the round-robin pattern of
    /// its counter (beyond what its owed ports explain).
    EmissionMismatch {
        /// The inconsistent component.
        id: ComponentId,
    },
}

/// Audits a quiescent network against the local legality rules. An empty
/// result means every component state is mutually consistent with its
/// neighbours and the client input ledger.
#[must_use]
pub fn audit(net: &LocalAdaptiveNetwork) -> Vec<Fault> {
    let mut faults = Vec::new();
    let tree = *net.tree();
    let style = net.style();
    for leaf in net.cut().leaves() {
        let comp = net.component(leaf).expect("cut leaf is live");
        let arrivals: u64 = comp.arrivals().iter().sum();
        if arrivals != comp.tokens() {
            faults.push(Fault::CounterMismatch {
                id: *leaf,
                tokens: comp.tokens(),
                arrivals,
            });
        }
        for port in 0..comp.width() {
            let expected = port_emissions(comp.tokens(), comp.width(), port);
            if comp.emitted()[port] + comp.owed()[port] != expected {
                faults.push(Fault::EmissionMismatch { id: *leaf });
                break;
            }
        }
    }
    // Wire consistency: what each producer sent must match what the
    // consumer received; network inputs check against the client ledger.
    for leaf in net.cut().leaves() {
        let comp = net.component(leaf).expect("cut leaf is live");
        for port in 0..comp.width() {
            match resolve_output(&tree, leaf, port, style) {
                OutputDestination::Wire(addr) => {
                    let owner = addr.owner_under(net.cut()).expect("valid cut");
                    let in_port =
                        acn_topology::input_port_of(&tree, &owner, &addr, style)
                            .expect("boundary wire has a port");
                    let received = net
                        .component(&owner)
                        .expect("owner is live")
                        .arrivals()[in_port];
                    let sent = comp.emitted()[port];
                    if sent != received {
                        faults.push(Fault::WireMismatch {
                            id: owner,
                            port: in_port,
                            sent,
                            received,
                        });
                    }
                }
                OutputDestination::NetworkOutput(wire) => {
                    let recorded = net.output_counts()[wire];
                    if comp.emitted()[port] != recorded {
                        faults.push(Fault::WireMismatch {
                            id: *leaf,
                            port,
                            sent: comp.emitted()[port],
                            received: recorded,
                        });
                    }
                }
            }
        }
    }
    // Network inputs against the client ledger.
    for wire in 0..net.width() {
        let addr = acn_topology::network_input_address(&tree, wire, style);
        let owner = addr.owner_under(net.cut()).expect("valid cut");
        let in_port = acn_topology::input_port_of(&tree, &owner, &addr, style)
            .expect("input wire has a port");
        let received = net.component(&owner).expect("owner is live").arrivals()[in_port];
        let sent = net.input_counts()[wire];
        if sent != received {
            faults.push(Fault::WireMismatch { id: owner, port: in_port, sent, received });
        }
    }
    faults
}

/// One stabilization pass: rebuilds every component's state from the
/// trusted client-side input ledger, walking the cut in topological
/// order (each component's arrivals are the recomputed emissions of its
/// upstream neighbours), and rewrites the output ledger to match.
/// Returns the number of components whose state was corrected.
///
/// Must be called in a quiescent state (no tokens in flight); this is
/// the standard operating model of self-stabilization rounds.
pub fn stabilize(net: &mut LocalAdaptiveNetwork) -> usize {
    let tree = *net.tree();
    let style = net.style();
    let dag = ComponentDag::with_style(&tree, net.cut(), style);
    let order = dag.topological_order();
    let mut corrected = 0usize;
    let mut new_outputs = vec![0u64; net.width()];
    // Recomputed arrival profiles, indexed like the DAG vertices.
    let mut profiles: Vec<Vec<u64>> = dag
        .vertices()
        .iter()
        .map(|v| vec![0u64; tree.info(v).expect("valid leaf").width])
        .collect();
    // Seed with the client ledger.
    for wire in 0..net.width() {
        let addr = acn_topology::network_input_address(&tree, wire, style);
        let owner = addr.owner_under(net.cut()).expect("valid cut");
        let port = acn_topology::input_port_of(&tree, &owner, &addr, style)
            .expect("input wire has a port");
        let vi = dag.vertex_index(&owner).expect("owner is a vertex");
        profiles[vi][port] = net.input_counts()[wire];
    }
    for &vi in &order {
        let id = dag.vertices()[vi];
        let width = tree.info(&id).expect("valid leaf").width;
        let profile = profiles[vi].clone();
        let tokens: u64 = profile.iter().sum();
        // Propagate the canonical emissions downstream.
        for port in 0..width {
            let sent = port_emissions(tokens, width, port);
            match resolve_output(&tree, &id, port, style) {
                OutputDestination::Wire(addr) => {
                    let owner = addr.owner_under(net.cut()).expect("valid cut");
                    let in_port = acn_topology::input_port_of(&tree, &owner, &addr, style)
                        .expect("boundary wire has a port");
                    let di = dag.vertex_index(&owner).expect("consumer is a vertex");
                    profiles[di][in_port] = sent;
                }
                OutputDestination::NetworkOutput(wire) => {
                    new_outputs[wire] = sent;
                }
            }
        }
        let emitted: Vec<u64> =
            (0..width).map(|q| port_emissions(tokens, width, q)).collect();
        let repaired =
            Component::from_parts(&tree, &id, tokens, profile, emitted, vec![0; width]);
        if net.component(&id) != Some(&repaired) {
            corrected += 1;
            net.replace_component(repaired);
        }
    }
    if net.output_counts() != new_outputs.as_slice() {
        net.set_output_counts(new_outputs);
    }
    corrected
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_bitonic::step::is_step_sequence;
    use acn_topology::Cut;

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn warmed_network(w: usize, warmup: usize, seed: &mut u64) -> LocalAdaptiveNetwork {
        let tree = acn_topology::Tree::new(w);
        let mut net = LocalAdaptiveNetwork::new(w);
        net.reconfigure(&Cut::uniform(&tree, 1 + (warmup % tree.max_level().max(1))));
        for t in 0..warmup {
            let wire = (lcg(seed) as usize) % w;
            let out = net.push(wire);
            assert_eq!(out, t % w);
        }
        net
    }

    #[test]
    fn clean_network_audits_clean() {
        let mut seed = 3u64;
        let net = warmed_network(16, 23, &mut seed);
        assert!(audit(&net).is_empty(), "{:?}", audit(&net));
    }

    #[test]
    fn corruption_is_detected() {
        let mut seed = 5u64;
        let mut net = warmed_network(16, 17, &mut seed);
        let victim = *net.cut().leaves().iter().next().expect("non-empty cut");
        net.component_mut(&victim).expect("live").set_tokens(999);
        let faults = audit(&net);
        assert!(!faults.is_empty(), "corruption went undetected");
    }

    #[test]
    fn stabilize_restores_legality_and_counting() {
        for w in [8usize, 16] {
            for round in 0..6u64 {
                let mut seed = round * 31 + 7;
                let mut net = warmed_network(w, 10 + round as usize * 3, &mut seed);
                // Corrupt several components arbitrarily.
                let victims: Vec<_> = net
                    .cut()
                    .leaves()
                    .iter()
                    .filter(|_| lcg(&mut seed).is_multiple_of(2))
                    .cloned()
                    .collect();
                for v in &victims {
                    let garbage = lcg(&mut seed) % 1000;
                    net.component_mut(v).expect("live").set_tokens(garbage);
                }
                if !victims.is_empty() {
                    assert!(!audit(&net).is_empty(), "w={w} round={round}");
                }
                let corrected = stabilize(&mut net);
                assert!(
                    corrected >= victims.len().min(1),
                    "w={w} round={round}: corrected {corrected}"
                );
                assert!(audit(&net).is_empty(), "w={w} round={round}: {:?}", audit(&net));
                // Counting resumes: outputs continue the canonical
                // pattern of the recorded inputs.
                let baseline = net.total_exited();
                let before: Vec<u64> = net.output_counts().to_vec();
                assert!(is_step_sequence(&before), "w={w} round={round}: {before:?}");
                for extra in 0..2 * w as u64 {
                    let wire = (lcg(&mut seed) as usize) % w;
                    let out = net.push(wire);
                    assert_eq!(
                        out as u64,
                        (baseline + extra) % w as u64,
                        "w={w} round={round}"
                    );
                }
                assert!(audit(&net).is_empty());
            }
        }
    }

    #[test]
    fn stabilize_is_idempotent() {
        let mut seed = 11u64;
        let mut net = warmed_network(16, 29, &mut seed);
        let first = stabilize(&mut net);
        assert_eq!(first, 0, "clean network needed corrections");
        net.component_mut(&net.cut().leaves().iter().next().unwrap().clone())
            .unwrap()
            .set_tokens(12345);
        let second = stabilize(&mut net);
        assert!(second >= 1);
        let third = stabilize(&mut net);
        assert_eq!(third, 0, "stabilize must be idempotent");
    }

    #[test]
    fn stabilize_after_reconfiguration_storm() {
        let w = 16;
        let tree = acn_topology::Tree::new(w);
        let mut net = LocalAdaptiveNetwork::new(w);
        let mut seed = 99u64;
        let mut pushed = 0u64;
        for _ in 0..120 {
            match lcg(&mut seed) % 4 {
                0 => {
                    let splittable: Vec<_> = net
                        .cut()
                        .leaves()
                        .iter()
                        .filter(|l| tree.info(l).map(|i| i.width >= 4).unwrap_or(false))
                        .cloned()
                        .collect();
                    if !splittable.is_empty() {
                        let pick = splittable[(lcg(&mut seed) as usize) % splittable.len()];
                        let _ = net.split(&pick);
                    }
                }
                1 => {
                    let parents: Vec<_> =
                        net.cut().leaves().iter().filter_map(|l| l.parent()).collect();
                    if !parents.is_empty() {
                        let pick = parents[(lcg(&mut seed) as usize) % parents.len()];
                        let _ = net.merge(&pick);
                    }
                }
                _ => {
                    let wire = (lcg(&mut seed) as usize) % w;
                    assert_eq!(net.push(wire) as u64, pushed % w as u64);
                    pushed += 1;
                }
            }
        }
        // A legal history audits clean even after arbitrary churn...
        assert!(audit(&net).is_empty(), "{:?}", audit(&net));
        // ...and stabilization never breaks a legal network.
        let _ = stabilize(&mut net);
        for extra in 0..w as u64 {
            let wire = (lcg(&mut seed) as usize) % w;
            assert_eq!(net.push(wire) as u64, (pushed + extra) % w as u64);
        }
    }
}

//! Terminal-state protocol oracles for the distributed explorer.
//!
//! Every explored schedule ends in a quiescent state (or fails as
//! [`super::DistFailureKind::Stuck`] first — leaked retransmit
//! obligations and frozen-forever components surface there, not
//! here). At quiescence these oracles assert the properties the
//! protocol promises regardless of delivery order:
//!
//! - **Exactly-once counting**: the collector's total equals the
//!   number of injected tokens. Scenarios that crash a node may lose
//!   tokens that were resident on it, so there the oracle weakens to
//!   "never *more* than injected" — duplication is a protocol bug
//!   under any fault model, loss is not (under crashes). The same
//!   weakening applies when the failure detector fired during the run
//!   (even a *false* suspicion excommunicates its victim and may
//!   replace its components with history-less rescues).
//! - **Step property**: the per-wire exit counts form a step sequence
//!   ([`acn_topology::oracle::step_violation`]), i.e. the network
//!   still *counts* after every explored reconfiguration.
//! - **Cut coverage and well-formedness**: the live components form a
//!   valid antichain cover of the decomposition tree, no component is
//!   hosted twice, nothing is frozen, and no split/merge is still in
//!   flight.
//! - **Audit-clean import**: the distributed terminal state, imported
//!   into a [`LocalAdaptiveNetwork`] against the *client-side* ledgers
//!   (injections per wire, collector exits per wire), passes the
//!   stabilization audit — the strongest end-to-end ledger check the
//!   repo has.
//! - **Stabilization restores legality**: after injecting a counter
//!   corruption into the imported snapshot, the audit flags it and
//!   [`stabilize`](acn_core::stabilize::stabilize) repairs it back to
//!   audit-clean. For crash scenarios (where the pristine snapshot is
//!   legitimately lossy and the audit oracle is skipped) this runs
//!   directly on the imported snapshot.

use std::collections::BTreeSet;

use acn_core::dist::Proc;
use acn_core::{stabilize, Component, LocalAdaptiveNetwork};
use acn_topology::oracle::step_violation;
use acn_topology::ComponentId;

use super::{DistAction, DistRun};

/// Which terminal oracles a [`super::DistScenario`] asserts. All on by
/// default; tests disable individual oracles only to demonstrate that
/// a specific mutation is caught by a specific oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Token conservation: collector total == injected (<= under
    /// crashes).
    pub exact_count: bool,
    /// Per-wire exit counts satisfy the step property (skipped
    /// automatically under crashes: lost tokens legitimately break
    /// it).
    pub step: bool,
    /// The live cut is a valid, uniquely-hosted, unfrozen antichain
    /// cover with no reconfiguration in flight.
    pub cut: bool,
    /// The imported terminal snapshot passes the stabilization audit
    /// against the client-side ledgers (skipped automatically under
    /// crashes).
    pub audit: bool,
    /// Stabilization detects an injected corruption and restores the
    /// snapshot to audit-clean.
    pub stabilize: bool,
    /// Every crash was detected *in-protocol* (the failure detector
    /// recorded a suspicion for it) within `detection_budget_periods`
    /// level periods of the crash, and every live node's view has it
    /// tombstoned at quiescence.
    pub recovery: bool,
    /// Detection-latency budget for the `recovery` oracle, in level
    /// periods. Generous by default: suspicion needs
    /// `FD_STRIKE_LIMIT` silent detector ticks, and a crash can
    /// cascade (the first victim's successor inherits monitoring of
    /// the next).
    pub detection_budget_periods: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            exact_count: true,
            step: true,
            cut: true,
            audit: true,
            stabilize: true,
            recovery: true,
            detection_budget_periods: 16,
        }
    }
}

/// Checks every configured oracle against a terminal (quiescent)
/// state. Returns the first violation as a human-readable message.
pub(crate) fn check_terminal(run: &DistRun, cfg: &OracleConfig) -> Result<(), String> {
    let crashed = run.scenario.actions.iter().any(|a| {
        matches!(
            a,
            DistAction::Crash(_) | DistAction::CrashMidSplit | DistAction::CrashMidMerge
        )
    });
    // A *false* suspicion is indistinguishable from a crash to the
    // protocol: the suspected node is excommunicated and the rescue
    // sweep may re-cover its region with fresh (history-less)
    // components. Under adversarial scheduling the explorer can
    // manufacture suspicions without any crash action (no failure
    // detector is perfect in an asynchronous network), so every
    // history-dependent oracle weakens exactly as it does under real
    // crashes whenever the detector fired. Conservation still holds:
    // tokens may be lost with their host's history, never duplicated.
    let disrupted = crashed || !run.d.world.borrow().detections.is_empty();

    // --- In-protocol crash detection -------------------------------
    // Every recorded crash must have a matching failure-detector
    // suspicion within the period budget, and every live node's local
    // view must carry the tombstone. The harness records *when* each
    // crash happened; everything else (suspicion, gossip, rescue) is
    // protocol traffic.
    if cfg.recovery {
        let w = run.d.world.borrow();
        let budget = cfg.detection_budget_periods * run.d.level_period;
        for (&node, &crashed_at) in &w.crashed {
            let Some(&detected_at) = w.detections.get(&node) else {
                return Err(format!(
                    "crash of {node:?} was never detected by the failure detector"
                ));
            };
            let latency = detected_at.saturating_sub(crashed_at);
            if latency > budget {
                return Err(format!(
                    "crash of {node:?} detected after {latency} ticks, over the \
                     budget of {budget} ({} periods)",
                    cfg.detection_budget_periods
                ));
            }
        }
        drop(w);
        if !run.recovery_complete() {
            return Err(
                "a live node's view still lacks a tombstone for a crashed node \
                 at quiescence"
                    .to_string(),
            );
        }
    }

    // --- Exactly-once token counting -------------------------------
    let total = run.collector_total();
    if cfg.exact_count {
        if total > run.injected {
            return Err(format!(
                "token conservation violated: collector counted {total} but only {} \
                 were injected (tokens were duplicated)",
                run.injected
            ));
        }
        if !disrupted && total != run.injected {
            return Err(format!(
                "exactly-once counting violated: injected {} tokens but the \
                 collector counted {total}",
                run.injected
            ));
        }
    }

    // --- Step property (gap-freedom) -------------------------------
    let exits = run.exit_counts();
    if cfg.step && !disrupted {
        if let Some(violation) = step_violation(&exits) {
            return Err(format!("step property violated at quiescence: {violation}"));
        }
    }

    // --- Cut coverage and well-formedness --------------------------
    // Collect every hosted component while checking uniqueness and
    // thaw; the snapshot doubles as the audit input below.
    let mut components: Vec<Component> = Vec::new();
    let mut seen: BTreeSet<ComponentId> = BTreeSet::new();
    let mut hosts: Vec<String> = Vec::new();
    for pid in run.d.sim.process_ids().collect::<Vec<_>>() {
        if let Some(Proc::Node(np)) = run.d.sim.process(pid) {
            for (id, comp, frozen, buffered) in np.hosted_components() {
                hosts.push(format!("{id}@{pid}"));
                if frozen {
                    return Err(format!(
                        "component {id} on {pid} is still frozen at quiescence"
                    ));
                }
                if buffered > 0 {
                    return Err(format!(
                        "component {id} on {pid} still buffers {buffered} tokens \
                         at quiescence"
                    ));
                }
                if !seen.insert(*id) {
                    return Err(format!(
                        "component {id} is hosted by more than one node"
                    ));
                }
                components.push(comp.clone());
            }
        }
    }
    if cfg.cut {
        let (cut, busy) = run.d.live_cut();
        if busy {
            return Err(
                "terminal state still reports a busy cut (split/merge in flight)"
                    .to_string(),
            );
        }
        let world = run.d.world.borrow();
        if !cut.is_valid(&world.tree) {
            return Err(format!(
                "live cut is not a valid antichain cover at quiescence: {cut} \
                 (hosts: {})",
                hosts.join(", ")
            ));
        }
    }

    // --- Audit-clean import & stabilization ------------------------
    if cfg.audit || cfg.stabilize {
        let (width, style) = {
            let world = run.d.world.borrow();
            (world.tree.width(), world.style)
        };
        let mut net = LocalAdaptiveNetwork::from_snapshot(
            width,
            style,
            components,
            run.injected_per_wire.clone(),
            exits,
        );
        if cfg.audit && !disrupted {
            let faults = stabilize::audit(&net);
            if let Some(fault) = faults.first() {
                return Err(format!(
                    "imported terminal snapshot fails the audit with {} fault(s); \
                     first: {fault:?}",
                    faults.len()
                ));
            }
        }
        if cfg.stabilize {
            // Corrupt one live counter, prove the audit notices, then
            // prove stabilization restores a legal state.
            let victim = net.components().next().map(|c| *c.id());
            if let Some(victim) = victim {
                let comp = net.component_mut(&victim).expect("victim is live");
                let corrupted = comp.tokens().wrapping_add(97);
                comp.set_tokens(corrupted);
                if stabilize::audit(&net).is_empty() {
                    return Err(format!(
                        "audit missed an injected counter corruption on {victim}"
                    ));
                }
            }
            stabilize::stabilize(&mut net);
            let faults = stabilize::audit(&net);
            if let Some(fault) = faults.first() {
                return Err(format!(
                    "stabilization did not restore legality: {} fault(s) remain; \
                     first: {fault:?}",
                    faults.len()
                ));
            }
        }
    }

    Ok(())
}

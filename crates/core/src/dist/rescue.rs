//! Crash recovery: the suspector of a crash collects every survivor's
//! covered slice of the cut, plans what to discard and what to install
//! afresh (pure functions, tested here without a simulator), and drives
//! the installs to completion.

use std::collections::{BTreeMap, BTreeSet};

use acn_overlay::NodeId;
use acn_simnet::{Context, ProcessId};
use acn_telemetry::Event as TelemetryEvent;
use acn_topology::{ComponentId, Tree};
use acn_trace::{Span, SYSTEM_TRACE};

use crate::component::Component;

use super::msg::{Msg, SeenTokens};
use super::node::{NodeProc, TIMER_FD};

/// An in-progress rescue sweep at its coordinator (the node that
/// suspected a crash). The sweep is global: it reassembles the whole
/// covered cut from peer reports, discards leftover duplicates, and
/// installs fresh components over every uncovered subtree — so a sweep
/// triggered by one crash also heals holes left by earlier ones (e.g.
/// a previous coordinator that died mid-sweep).
#[derive(Debug, Clone, Hash)]
pub(super) struct RescueOp {
    /// When the sweep started (telemetry: rescue duration).
    pub(super) started_at: u64,
    /// Peers still to report their covered slice.
    pub(super) pending: BTreeSet<NodeId>,
    /// Covered components reported so far: id -> (reporter, frozen).
    pub(super) covered: Covered,
    /// Replacement installs awaiting acks: id -> last target.
    pub(super) installs: BTreeMap<ComponentId, NodeId>,
    /// Failure-detector ticks without progress (re-drive trigger).
    pub(super) stalled_rounds: u32,
}

/// The cut a rescue sweep assembles from peer reports:
/// id -> (reporter, frozen).
pub(super) type Covered = BTreeMap<ComponentId, (NodeId, bool)>;

/// Merge debris in a reported cut: a *frozen* covered id under a *live*
/// covered proper ancestor (the coordinator died between installing
/// the parent and dismissing the children), with its reporter. Split
/// children under their frozen parent are live, so they are never
/// discarded; the frozen split parent itself has no covered ancestor.
fn rescue_discards(covered: &Covered) -> Vec<(ComponentId, NodeId)> {
    covered
        .iter()
        .filter(|(id, (_, frozen))| {
            *frozen
                && id.ancestors().any(|a| covered.get(&a).is_some_and(|(_, afrozen)| !afrozen))
        })
        .map(|(id, (reporter, _))| (*id, *reporter))
        .collect()
}

/// The maximal subtrees of `tree` that nothing in `covered` lies in,
/// above, or below: where a sweep installs fresh replacements.
fn uncovered_subtrees(tree: &Tree, covered: &Covered) -> Vec<ComponentId> {
    let mut uncovered = Vec::new();
    let mut stack = vec![ComponentId::root()];
    while let Some(id) = stack.pop() {
        if covered.contains_key(&id) || id.ancestors().any(|a| covered.contains_key(&a)) {
            continue;
        }
        if !covered.keys().any(|l| id.is_ancestor_of(l)) {
            uncovered.push(id);
            continue;
        }
        let info = tree.info(&id).expect("valid node");
        for c in 0..info.child_count() as u8 {
            stack.push(id.child(c));
        }
    }
    uncovered
}

/// Whether `id` lies above or below any *other* id in `covering`.
fn overlaps<'a>(id: &ComponentId, mut covering: impl Iterator<Item = &'a ComponentId>) -> bool {
    covering.any(|c| c != id && (c.is_ancestor_of(id) || id.is_ancestor_of(c)))
}

impl NodeProc {
    /// Declares `dead` crashed: tombstone it, gossip the new view, and
    /// coordinate a rescue sweep. Only the suspector coordinates —
    /// every node monitors exactly its predecessor, so each crash has
    /// exactly one rescue coordinator (its successor at detection
    /// time); if that coordinator dies mid-sweep, *its* suspector's
    /// sweep re-covers everything, because sweeps are global.
    pub(super) fn suspect(&mut self, ctx: &mut Context<'_, Msg>, dead: NodeId) {
        if !self.view.tombstone(dead) {
            return;
        }
        self.world.borrow_mut().note_detection(dead, ctx.now());
        self.trace(
            self.span("fd.suspect", SYSTEM_TRACE, ctx.now())
                .with("dead", dead.0)
                .with("epoch", self.view.epoch()),
        );
        self.broadcast_view(ctx);
        self.after_view_change(ctx);
        self.start_rescue_sweep(ctx);
    }

    /// Everything this node *covers* for a rescue sweep: hosted
    /// components plus invisible in-flight obligations (split children
    /// whose installs are pending, merge parents awaiting install,
    /// rescue installs in flight, migrating hand-offs) — so a
    /// concurrent sweep never installs a duplicate over them.
    pub(super) fn covered_report(&self) -> Vec<(ComponentId, bool)> {
        let hosted = self.components.iter().map(|(id, h)| (*id, h.frozen));
        let in_flight = (self.splits.values().flat_map(|op| op.pending.keys()))
            .chain(self.merges.iter().filter(|(_, op)| op.awaiting_install).map(|(id, _)| id))
            .chain(self.rescue.iter().flat_map(|op| op.installs.keys()))
            .chain(self.migrating.keys());
        hosted.chain(in_flight.map(|id| (*id, false))).collect()
    }

    /// Whether accepting a *fresh* copy of `id` would double-cover a
    /// region this node already covers through something else: an
    /// unfrozen resident, a pending split-child install, an in-flight
    /// hand-off, or an active split of `id` itself. A positive answer
    /// means the incoming copy is a stale duplicate of an obligation
    /// already discharged (install/migrate retransmits race their
    /// acks), and installing it would resurrect a component on top of
    /// its own live descendants — an invalid cut. Frozen residents are
    /// deliberately ignored: a merge-parent install legitimately lands
    /// on a node still holding children it froze for that very merge.
    pub(super) fn accepting_would_double_cover(&self, id: &ComponentId) -> bool {
        let resident = self.components.iter().filter(|(_, h)| !h.frozen).map(|(c, _)| c);
        let in_flight = self.splits.values().flat_map(|op| op.pending.keys());
        self.splits.contains_key(id)
            || overlaps(id, resident.chain(in_flight).chain(self.migrating.keys()))
    }

    /// Starts (or queues) a global rescue sweep: collect every peer's
    /// covered slice, then re-cover the holes.
    pub(super) fn start_rescue_sweep(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.rescue.is_some() {
            self.rescue_again = true;
            return;
        }
        let peers: BTreeSet<NodeId> =
            self.view.ring().nodes().filter(|&n| n != self.node).collect();
        let mut op = RescueOp {
            started_at: ctx.now(),
            pending: peers.clone(),
            covered: BTreeMap::new(),
            installs: BTreeMap::new(),
            stalled_rounds: 0,
        };
        for (id, frozen) in self.covered_report() {
            op.covered.insert(id, (self.node, frozen));
        }
        self.rescue = Some(op);
        {
            let m = self.metrics();
            m.rescue_sweeps.inc();
            m.registry.emit(TelemetryEvent::new("rescue.begin").at(ctx.now()).node(self.node.0));
        }
        self.trace(
            self.span("rescue.begin", SYSTEM_TRACE, ctx.now()).with("peers", peers.len() as u64),
        );
        // Make sure the sweep gets re-driven even if this node's FD
        // lease timer is the only thing keeping time.
        ctx.set_timer(self.level_period, TIMER_FD);
        if peers.is_empty() {
            self.finalize_rescue(ctx);
        } else {
            for p in peers {
                ctx.send(ProcessId(p.0), Msg::RescueQuery);
            }
        }
    }

    /// Records a peer's covered slice; finalizes once all have
    /// reported.
    pub(super) fn on_rescue_report(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        covered: Vec<(ComponentId, bool)>,
    ) {
        let reporter = NodeId(from.0);
        let Some(op) = &mut self.rescue else { return };
        if !op.pending.remove(&reporter) {
            return; // stale or duplicate report
        }
        op.covered.extend(covered.into_iter().map(|(id, frozen)| (id, (reporter, frozen))));
        op.stalled_rounds = 0;
        if op.pending.is_empty() {
            self.finalize_rescue(ctx);
        }
    }

    /// All reports in: discard leftover duplicates, walk the tree for
    /// uncovered maximal subtrees, and install fresh replacements at
    /// their view-owners. Lost token history is gone by definition —
    /// the bounded step-deviation after crashes is what the crash
    /// experiments measure.
    pub(super) fn finalize_rescue(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(mut op) = self.rescue.take() else { return };
        // The sweep's self-coverage was snapshotted when it started;
        // components can land here while reports are in flight
        // (migration shed from a departing peer, split-child installs).
        // Refresh local coverage so the walk below doesn't resurrect an
        // ancestor of something we now host.
        for (id, h) in &self.components {
            op.covered.insert(*id, (self.node, h.frozen));
        }
        for id in self
            .splits
            .values()
            .flat_map(|s| s.pending.keys())
            .chain(self.migrating.keys())
        {
            op.covered.insert(*id, (self.node, false));
        }
        let discards = rescue_discards(&op.covered);
        for (id, reporter) in discards {
            self.metrics().rescue_discards.inc();
            self.dismiss_frozen(ctx, ProcessId(reporter.0), id);
        }
        let to_install = uncovered_subtrees(&self.tree, &op.covered);
        for id in to_install {
            let owner = self.owner_of(&id);
            {
                let m = self.metrics();
                m.rescue_installs.inc();
                m.registry.emit(
                    TelemetryEvent::new("rescue.install")
                        .at(ctx.now())
                        .node(owner.0)
                        .component(id.to_string()),
                );
            }
            self.trace(
                Span::new("rescue.install", SYSTEM_TRACE)
                    .at(ctx.now())
                    .node(owner.0)
                    .with("level", id.level() as u64),
            );
            let fresh = Component::new(&self.tree, &id);
            if ProcessId(owner.0) == ctx.self_id() && !self.view.is_ghost() {
                self.install(fresh, SeenTokens::new());
            } else {
                op.installs.insert(id, owner);
                ctx.send(ProcessId(owner.0), Msg::RescueInstall { comp: Box::new(fresh) });
            }
        }
        if op.installs.is_empty() {
            self.rescue_done(ctx, op.started_at);
        } else {
            self.rescue = Some(op);
        }
    }

    /// The sweep is complete (all replacement installs acked).
    pub(super) fn rescue_done(&mut self, ctx: &mut Context<'_, Msg>, started_at: u64) {
        {
            let m = self.metrics();
            let duration = ctx.now().saturating_sub(started_at);
            m.rescue_duration.record(duration);
            m.registry.emit(
                TelemetryEvent::new("rescue.end")
                    .at(ctx.now())
                    .node(self.node.0)
                    .with("duration", duration),
            );
        }
        self.trace(
            Span::new("rescue.end", SYSTEM_TRACE).between(started_at, ctx.now()).node(self.node.0),
        );
        if self.rescue_again {
            self.rescue_again = false;
            self.start_rescue_sweep(ctx);
        }
    }

    /// Re-drives a stalled rescue sweep from the FD tick: prune
    /// reporters that died since, re-query the stragglers, and re-send
    /// pending installs to their *current* view-owners.
    pub(super) fn redrive_rescue(&mut self, ctx: &mut Context<'_, Msg>) {
        let (requery, reinstall, finalize) = {
            let Some(op) = &mut self.rescue else { return };
            op.stalled_rounds += 1;
            if op.stalled_rounds <= 2 {
                return;
            }
            op.stalled_rounds = 0;
            op.pending.retain(|n| !self.view.is_dead(*n));
            let requery: Vec<NodeId> = op.pending.iter().copied().collect();
            let reinstall: Vec<ComponentId> = if requery.is_empty() {
                op.installs.keys().copied().collect()
            } else {
                Vec::new()
            };
            (requery, reinstall, op.pending.is_empty() && op.installs.is_empty())
        };
        if finalize {
            self.finalize_rescue(ctx);
            return;
        }
        for p in requery {
            ctx.send(ProcessId(p.0), Msg::RescueQuery);
        }
        for id in reinstall {
            let owner = self.owner_of(&id);
            let fresh = Component::new(&self.tree, &id);
            if ProcessId(owner.0) == ctx.self_id() && !self.view.is_ghost() {
                // The install was computed at finalize time; state may
                // have moved since (a migration landed, a split
                // started). Same refusal the remote handler applies.
                if !self.accepting_would_double_cover(&id) {
                    self.install(fresh, SeenTokens::new());
                }
                self.on_rescue_ack(ctx, id);
            } else {
                if let Some(op) = &mut self.rescue {
                    op.installs.insert(id, owner);
                }
                ctx.send(ProcessId(owner.0), Msg::RescueInstall { comp: Box::new(fresh) });
            }
        }
    }

    /// A sweep sends a fresh replacement. A ghost cannot host it and
    /// stays silent: the coordinator's re-drive resolves the current
    /// owner.
    pub(super) fn on_rescue_install(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        comp: Component,
    ) {
        if self.view.is_ghost() {
            return;
        }
        let id = *comp.id();
        self.install_if_uncovered(comp, SeenTokens::new());
        ctx.send(from, Msg::RescueAck { id });
    }

    /// A replacement install landed — acked by its new host, or made
    /// here by a re-drive.
    pub(super) fn on_rescue_ack(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId) {
        let Some(op) = &mut self.rescue else { return };
        op.installs.remove(&id);
        op.stalled_rounds = 0;
        if op.pending.is_empty() && op.installs.is_empty() {
            let started_at = op.started_at;
            self.rescue = None;
            self.rescue_done(ctx, started_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_overlay::splitmix64;
    use acn_topology::Cut;
    use proptest::prelude::*;

    /// What a sweep may have been told after a crash: a random cut of
    /// `tree` in which some leaves died with the crashed node, some are
    /// frozen mid-merge with nothing live above them, and some sibling
    /// groups are merge debris — their parent was installed live before
    /// the coordinator died. Returns the reports and the debris.
    fn reported_cut(tree: &Tree, seed: u64) -> (Covered, BTreeSet<ComponentId>) {
        let mut s = seed;
        let mut unit = || (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        let cut = Cut::random(tree, tree.max_level(), 0.6, &mut unit);
        let mut covered = Covered::new();
        for leaf in cut.leaves() {
            match splitmix64(&mut s) % 4 {
                0 => {}
                r => drop(covered.insert(*leaf, (NodeId(r), r == 3))),
            }
        }
        let merged: BTreeSet<ComponentId> = cut
            .leaves()
            .iter()
            .filter_map(ComponentId::parent)
            .filter(|p| tree.children(p).iter().all(|c| cut.leaves().contains(c)))
            .filter(|_| splitmix64(&mut s).is_multiple_of(3))
            .collect();
        let mut debris = BTreeSet::new();
        for parent in merged {
            for child in tree.children(&parent) {
                if let Some((_, frozen)) = covered.get_mut(&child) {
                    *frozen = true;
                    debris.insert(child);
                }
            }
            covered.insert(parent, (NodeId(9), false));
        }
        (covered, debris)
    }

    proptest! {
        #[test]
        fn the_plan_discards_exactly_the_debris_and_heals_the_cut(seed in any::<u64>()) {
            for width in [16, 64] {
                let tree = Tree::new(width);
                let (covered, debris) = reported_cut(&tree, seed);
                let discards = rescue_discards(&covered);
                for (id, reporter) in &discards {
                    prop_assert_eq!(covered[id], (*reporter, true));
                }
                let discarded: BTreeSet<ComponentId> = discards.iter().map(|(id, _)| *id).collect();
                prop_assert_eq!(&discarded, &debris);
                let installs = uncovered_subtrees(&tree, &covered);
                for id in &installs {
                    prop_assert!(!covered.contains_key(id) && !overlaps(id, covered.keys()));
                }
                let survivors = covered.keys().filter(|id| !discarded.contains(id)).copied();
                let healed = Cut::from_leaves(survivors.chain(installs));
                prop_assert!(healed.is_valid(&tree), "w={}: {} from {:?}", width, healed, covered);
            }
        }
    }

    #[test]
    fn an_empty_report_is_healed_by_one_root_install() {
        let tree = Tree::new(16);
        assert_eq!(uncovered_subtrees(&tree, &Covered::new()), vec![ComponentId::root()]);
    }
}

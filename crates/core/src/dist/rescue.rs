//! Crash recovery: the suspector of a crash collects every survivor's
//! covered slice of the cut, plans what to discard and what to install
//! afresh (pure functions, tested here without a simulator), and drives
//! the installs to completion through the common hand-off.

use std::collections::{BTreeMap, BTreeSet};

use acn_overlay::NodeId;
use acn_simnet::{Context, ProcessId};
use acn_telemetry::Event as TelemetryEvent;
use acn_topology::{ComponentId, Tree};
use acn_trace::{Span, SYSTEM_TRACE};

use crate::component::Component;

use super::dedup::Ledger;
use super::handoff::Cause;
use super::msg::Msg;
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
    /// Failure-detector ticks without a report (re-query trigger).
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
    /// Declares `dead` crashed: tombstone it, gossip the tombstone, and
    /// coordinate a rescue sweep. Only the suspector coordinates —
    /// every node monitors exactly its predecessor, so each crash has
    /// exactly one rescue coordinator (its successor at detection
    /// time); if that coordinator dies mid-sweep, *its* suspector's
    /// sweep re-covers everything, because sweeps are global.
    pub(super) fn suspect(&mut self, ctx: &mut Context<'_, Msg>, dead: NodeId) {
        let news = self.view.tombstone(dead);
        if news.is_empty() {
            return;
        }
        self.world.borrow_mut().note_detection(dead, ctx.now());
        self.trace(
            self.span("fd.suspect", SYSTEM_TRACE, ctx.now())
                .with("dead", dead.0)
                .with("epoch", self.view.epoch()),
        );
        self.broadcast_view(ctx, news);
        self.after_view_change(ctx);
        self.start_rescue_sweep(ctx);
    }

    /// Everything this node *covers* for a rescue sweep: hosted
    /// components plus every hand-off still awaiting its ack (split
    /// children, merge parents, migrations, replacements) — so a
    /// concurrent sweep never installs a duplicate over them. A parent
    /// frozen for its own split is left out: from the moment the split
    /// starts its region is covered by the children (here, in flight,
    /// or reported by the hosts that acknowledged them), and naming the
    /// parent would hide a child that was acknowledged by a host that
    /// then crashed.
    pub(super) fn covered_report(&self) -> Vec<(ComponentId, bool)> {
        let hosted = self.components.iter().filter(|(id, _)| !self.splits.contains_key(id));
        let in_flight = self.handoffs.keys().map(|id| (*id, false));
        hosted.map(|(id, h)| (*id, h.frozen)).chain(in_flight).collect()
    }

    /// Whether accepting a *fresh* copy of `id` would double-cover a
    /// region this node already covers through something else: an
    /// unfrozen resident above or below it, a hand-off in flight
    /// (whatever its cause) of `id` itself or of anything above or below
    /// it, or an active split of `id`. A positive answer means the
    /// incoming copy is a stale duplicate of an obligation already
    /// discharged (re-sent hand-offs race their acks, and the first
    /// copy may since have been split here or handed on), and
    /// installing it would resurrect a component on top of its own live
    /// descendants or beside its own travelling self — an invalid cut.
    /// Frozen residents are deliberately ignored: a merge parent
    /// legitimately lands on a node still holding children it froze for
    /// that very merge.
    pub(super) fn accepting_would_double_cover(&self, id: &ComponentId) -> bool {
        let resident = self.components.iter().filter(|(_, h)| !h.frozen).map(|(c, _)| c);
        self.splits.contains_key(id)
            || self.handoffs.contains_key(id)
            || overlaps(id, resident.chain(self.handoffs.keys()))
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
        // (migration shed from a departing peer, split children).
        // Refresh local coverage so the walk below doesn't resurrect an
        // ancestor of something we now host or have in flight.
        for (id, frozen) in self.covered_report() {
            op.covered.insert(id, (self.node, frozen));
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
            self.hand_off(ctx, fresh, Ledger::default(), Vec::new(), owner, Cause::Rescue);
        }
        self.rescue = Some(op);
        self.rescue_done(ctx);
    }

    /// A replacement is in place — acknowledged by its new host, or
    /// installed here. Once every peer has reported and no replacement
    /// is left in flight the sweep is complete.
    pub(super) fn rescue_done(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(op) = &self.rescue else { return };
        if !op.pending.is_empty() || self.in_flight(Cause::Rescue).next().is_some() {
            return;
        }
        let started_at = op.started_at;
        self.rescue = None;
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
    /// reporters that died since and re-query the stragglers. (The
    /// replacements a finalized sweep has in flight are re-driven with
    /// every other hand-off, by the level tick.)
    pub(super) fn redrive_rescue(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(op) = &mut self.rescue else { return };
        if op.pending.is_empty() {
            return;
        }
        op.stalled_rounds += 1;
        if op.stalled_rounds <= 2 {
            return;
        }
        op.stalled_rounds = 0;
        op.pending.retain(|n| !self.view.is_dead(*n));
        if op.pending.is_empty() {
            self.finalize_rescue(ctx);
            return;
        }
        for p in &op.pending {
            ctx.send(ProcessId(p.0), Msg::RescueQuery);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::handoff::PendingHandOff;
    use super::super::msg::SeenTokens;
    use super::super::world::World;
    use super::*;
    use acn_overlay::{splitmix64, Ring};
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

    /// What a node is handing off it still covers, whatever the cause:
    /// it is reported to a sweep, and a stale duplicate of the id or of
    /// anything above or below it is refused. (Merge parents and rescue
    /// replacements in flight used to be reported but not refused.)
    #[test]
    fn a_hand_off_in_flight_is_coverage_whatever_its_cause() {
        let tree = Tree::new(16);
        let mut np = NodeProc::new(World::new(16, Ring::new()), NodeId(1), 1000);
        let id = ComponentId::root().child(2);
        for cause in [Cause::SplitChild, Cause::MergeParent, Cause::Migration, Cause::Rescue] {
            let (comp, seen) = (Component::new(&tree, &id), SeenTokens::new());
            let entry = PendingHandOff { comp, seen, buffer: Vec::new(), sent_to: NodeId(2), cause };
            np.handoffs.insert(id, entry);
            assert_eq!(np.covered_report(), vec![(id, false)], "{cause:?}");
            for stale in [id, id.child(0), ComponentId::root()] {
                assert!(np.accepting_would_double_cover(&stale), "{cause:?}: {stale}");
            }
            assert!(!np.accepting_would_double_cover(&ComponentId::root().child(3)), "{cause:?}");
        }
    }
}

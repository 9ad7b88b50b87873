//! Reconfiguration: split, merge and migrate, each by
//! freeze-drain-forward — their state, their handlers and the re-drive
//! that finishes a merge when a peer crashed mid-protocol. What they
//! place, they place through the common hand-off.

use std::collections::BTreeMap;
use std::ops::Deref;

use acn_simnet::{Context, ProcessId};
use acn_topology::ComponentId;
use acn_trace::{Span, SYSTEM_TRACE};

use crate::component::{merge_components, split_component, Component};

use super::dedup::Ledger;
use super::handoff::Cause;
use super::msg::{Msg, SeenTokens, Token};
use super::node::NodeProc;
use super::wire::Route;

/// A hosted component plus its runtime bookkeeping.
#[derive(Debug, Clone)]
pub(super) struct Hosted {
    pub(super) comp: Component,
    pub(super) frozen: bool,
    /// The remote coordinator that froze this component (a
    /// `FreezeCollect` sender or nested-merge requester), if any.
    /// `None` for locally driven freezes. When the freezer is later
    /// tombstoned, the merge obligation is orphaned and this node
    /// nudges the parent's current hash owner ([`Msg::MergeOrphan`])
    /// instead of waiting forever.
    pub(super) frozen_by: Option<ProcessId>,
    /// Tokens buffered while frozen.
    pub(super) buffer: Vec<Token>,
    /// The `(token, addr)` idempotency ledger.
    pub(super) seen: Ledger,
    /// Where each output port leads, by port: the Section 3.5
    /// out-neighbour cache. Derived state, filled as tokens leave
    /// (empty until the first one does).
    pub(super) routes: Vec<Option<Route>>,
}

impl Hosted {
    /// A live, unfrozen component with nothing buffered and no route
    /// derived yet.
    pub(super) fn new(comp: Component, seen: Ledger) -> Self {
        Hosted {
            comp,
            frozen: false,
            frozen_by: None,
            buffer: Vec::new(),
            seen,
            routes: Vec::new(),
        }
    }
}

/// The components a node hosts, by id, and the hosting epoch: a
/// counter that moves whenever something a memoised [`Route`] was
/// derived from may have changed here. `insert` and `remove` move it
/// themselves; a send that changes the owner a Section 3.5 cache entry
/// guesses moves it through [`touch`](Self::touch). Read access is the
/// map's own.
#[derive(Debug, Default)]
pub(super) struct Hosting {
    map: BTreeMap<ComponentId, Hosted>,
    epoch: u64,
}

impl Hosting {
    pub(super) fn insert(&mut self, id: ComponentId, hosted: Hosted) -> Option<Hosted> {
        self.epoch += 1;
        self.map.insert(id, hosted)
    }

    pub(super) fn remove(&mut self, id: &ComponentId) -> Option<Hosted> {
        let removed = self.map.remove(id);
        self.epoch += u64::from(removed.is_some());
        removed
    }

    pub(super) fn get_mut(&mut self, id: &ComponentId) -> Option<&mut Hosted> {
        self.map.get_mut(id)
    }

    /// Something outside the hosted set that routes derive from changed.
    pub(super) fn touch(&mut self) {
        self.epoch += 1;
    }

    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Deref for Hosting {
    type Target = BTreeMap<ComponentId, Hosted>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

/// An in-progress merge at its coordinator.
#[derive(Debug, Clone)]
pub(super) struct MergeOp {
    /// When the merge was started (telemetry: merge duration).
    pub(super) started_at: u64,
    /// Collected child states (with their idempotency ledgers, every
    /// entry pinned), by child index.
    pub(super) collected: Vec<Option<(Component, SeenTokens)>>,
    /// The process that reported each child (for `RemoveFrozen`).
    pub(super) reporters: Vec<Option<ProcessId>>,
    /// Collection rounds that made no progress (stall detector).
    pub(super) stalled_rounds: u32,
    /// For nested merges: reply to this coordinator when reconstructed.
    pub(super) requester: Option<(ProcessId, ComponentId)>,
}

impl NodeProc {
    /// Begins splitting hosted component `id`. Defers (no-op) if the
    /// component's traffic has not settled; the next level tick retries.
    pub(super) fn start_split(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        let children = {
            let hosted = self.components.get(id).expect("split target is hosted");
            debug_assert!(!hosted.frozen);
            match split_component(&self.tree, &hosted.comp, self.style) {
                Ok(children) => children,
                Err(_) => return, // transient; retry at the next tick
            }
        };
        let hosted = self.components.get_mut(id).expect("split target is hosted");
        hosted.frozen = true;
        // Children inherit the parent's idempotency ledger at the
        // addresses they cover: the parent covered their regions, so
        // any token it consumed must not be consumed again by a child
        // processing a delayed duplicate.
        let ledgers: Vec<Ledger> = children.iter().map(|c| hosted.seen.for_child(c.id())).collect();
        self.trace(
            self.span("split.begin", SYSTEM_TRACE, ctx.now())
                .with("component", id.to_u64())
                .with("level", id.level() as u64),
        );
        self.splits.insert(*id, ctx.now());
        for (child, seen) in children.into_iter().zip(ledgers) {
            let owner = self.owner_of(child.id());
            self.hand_off(ctx, child, seen, Vec::new(), owner, Cause::SplitChild);
        }
        self.finish_split(ctx, *id);
    }

    /// A child of `id` is in place. Once none is left in flight all are
    /// installed: drop the parent and re-route its buffer.
    pub(super) fn finish_split(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId) {
        if self.in_flight(Cause::SplitChild).any(|c| c.parent() == Some(id)) {
            return;
        }
        let Some(started_at) = self.splits.remove(&id) else { return };
        let hosted = self.components.remove(&id).expect("split parent is hosted");
        let drained = hosted.buffer.len() as u64;
        {
            let mut w = self.world.borrow_mut();
            w.splits_done += 1;
            w.metrics.splits.inc();
            w.metrics.split_drained.add(drained);
            let duration = ctx.now().saturating_sub(started_at);
            w.metrics.split_duration.record(duration);
            w.tracer.record(
                Span::new("net.split", SYSTEM_TRACE)
                    .between(started_at, ctx.now())
                    .node(self.node.0)
                    .with("component", id.to_u64())
                    .with("level", id.level() as u64)
                    .with("drained", drained),
            );
        }
        self.split_list.insert(id);
        self.drain(ctx, hosted.buffer);
    }

    /// Begins merging split component `id` back together.
    pub(super) fn start_merge(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        id: &ComponentId,
        requester: Option<(ProcessId, ComponentId)>,
    ) {
        let children = self.tree.children(id);
        let arity = children.len();
        self.trace(
            self.span("merge.begin", SYSTEM_TRACE, ctx.now())
                .with("component", id.to_u64())
                .with("level", id.level() as u64)
                .with("nested", u64::from(requester.is_some())),
        );
        self.merges.insert(
            *id,
            MergeOp {
                started_at: ctx.now(),
                collected: vec![None; arity],
                reporters: vec![None; arity],
                stalled_rounds: 0,
                requester,
            },
        );
        for child in children {
            self.collect_child(ctx, &child, id);
        }
    }

    /// `child` cannot be collected for the merge of `parent` right now
    /// (it is mid-split, migrating, or aborted its own merge): ask
    /// again at the next retry pass.
    pub(super) fn defer_collect(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        child: ComponentId,
        parent: ComponentId,
    ) {
        self.stuck_collects.push((child, parent));
        self.arm_retry(ctx);
    }

    /// The retry pass over deferred collections whose merge is still on.
    pub(super) fn retry_collects(&mut self, ctx: &mut Context<'_, Msg>) {
        for (child, parent) in std::mem::take(&mut self.stuck_collects) {
            if self.merges.contains_key(&parent) {
                self.collect_child(ctx, &child, &parent);
            }
        }
    }

    /// Asks for (or locally performs) the freeze-and-collect of one
    /// child of an in-progress merge.
    pub(super) fn collect_child(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        child: &ComponentId,
        parent: &ComponentId,
    ) {
        if let Some(hosted) = self.components.get_mut(child) {
            if self.splits.contains_key(child) {
                // Mid-split: retry once the split finishes.
                self.defer_collect(ctx, *child, *parent);
                return;
            }
            hosted.frozen = true;
            let comp = hosted.comp.clone();
            let seen = hosted.seen.to_pinned();
            let me = ctx.self_id();
            self.record_collect(ctx, comp, seen, parent, me);
        } else if self.split_list.contains(child) {
            let me = ctx.self_id();
            if let Some(op) = self.merges.get_mut(child) {
                // Already merging it for ourselves: attach the requester.
                op.requester = Some((me, *parent));
            } else {
                self.start_merge(ctx, child, Some((me, *parent)));
            }
        } else {
            let host = self.owner_of(child);
            if ProcessId(host.0) == ctx.self_id() {
                // We own the name but have nothing: transient window.
                self.defer_collect(ctx, *child, *parent);
            } else {
                ctx.send(ProcessId(host.0), Msg::FreezeCollect { id: *child, parent: *parent });
            }
        }
    }

    /// Records a collected child state; completes the merge when all
    /// children have reported.
    pub(super) fn record_collect(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        comp: Component,
        seen: SeenTokens,
        parent: &ComponentId,
        reporter: ProcessId,
    ) {
        let Some(op) = self.merges.get_mut(parent) else { return };
        if self.handoffs.contains_key(parent) {
            return; // a late duplicate: the merged parent is on its way
        }
        let index = comp.id().child_index().expect("child has an index") as usize;
        op.collected[index] = Some((comp, seen));
        op.reporters[index] = Some(reporter);
        op.stalled_rounds = 0;
        if op.collected.iter().all(Option::is_some) {
            self.complete_merge(ctx, *parent);
        }
    }

    /// All children collected: reconstruct the parent.
    pub(super) fn complete_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: ComponentId) {
        let (merged, merged_seen, nested_requester) = {
            let op = self.merges.get(&parent).expect("merge in progress");
            let children: Vec<Component> = op
                .collected
                .iter()
                .map(|c| c.clone().expect("all collected").0)
                .collect();
            // The merge result inherits the union of the children's
            // idempotency ledgers: it covers all their regions.
            let mut merged_seen = SeenTokens::new();
            for c in op.collected.iter() {
                merged_seen.extend(c.as_ref().expect("all collected").1.iter().copied());
            }
            match merge_components(&self.tree, &parent, &children, self.style) {
                Ok(m) => (m, merged_seen, op.requester),
                Err(_) => {
                    // Unsettled traffic: release the children and retry
                    // at a later tick.
                    self.abort_merge(ctx, &parent);
                    return;
                }
            }
        };
        if let Some((req_pid, grandparent)) = nested_requester {
            // Reconstruct locally, frozen, and report upward; the
            // requester will `RemoveFrozen` us like any other child.
            let frozen_by = (req_pid != ctx.self_id()).then_some(req_pid);
            let seen = Ledger::pinned(merged_seen.clone());
            self.components.insert(
                parent,
                Hosted { frozen: true, frozen_by, ..Hosted::new(merged.clone(), seen) },
            );
            self.finish_merge(ctx, &parent);
            if req_pid == ctx.self_id() {
                let me = ctx.self_id();
                self.record_collect(ctx, merged, merged_seen, &grandparent, me);
            } else {
                let (comp, seen) = (Box::new(merged), merged_seen);
                ctx.send(req_pid, Msg::CollectReply { comp, seen, parent: grandparent });
            }
            return;
        }
        // Top-level merge: install the parent at its current hash owner
        // per the local view.
        let owner = self.owner_of(&parent);
        let seen = Ledger::pinned(merged_seen);
        if self.hand_off(ctx, merged, seen, Vec::new(), owner, Cause::MergeParent) {
            self.finish_merge(ctx, &parent);
        }
    }

    /// The merge result is in place: dismiss the frozen children, drop
    /// the split-list obligation, and record the completed merge
    /// (counters, duration histogram, `net.merge`).
    pub(super) fn finish_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: &ComponentId) {
        let op = self.merges.remove(parent).expect("merge in progress");
        for (index, reporter) in op.reporters.iter().enumerate() {
            let reporter = reporter.expect("all children reported");
            self.dismiss_frozen(ctx, reporter, parent.child(index as u8));
        }
        self.split_list.remove(parent);
        let mut w = self.world.borrow_mut();
        w.merges_done += 1;
        w.metrics.merges.inc();
        let duration = ctx.now().saturating_sub(op.started_at);
        w.metrics.merge_duration.record(duration);
        w.tracer.record(
            Span::new("net.merge", SYSTEM_TRACE)
                .between(op.started_at, ctx.now())
                .node(self.node.0)
                .with("component", parent.to_u64())
                .with("level", parent.level() as u64),
        );
    }

    /// Aborts an in-progress merge: children are unfrozen in place and
    /// their buffered tokens resume; a nested requester is told to
    /// retry.
    pub(super) fn abort_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: &ComponentId) {
        let op = self.merges.remove(parent).expect("merge in progress");
        self.metrics().merge_aborts.inc();
        self.trace(
            self.span("merge.abort", SYSTEM_TRACE, ctx.now()).with("component", parent.to_u64()),
        );
        for (index, reporter) in op.reporters.iter().enumerate() {
            let child = parent.child(index as u8);
            let Some(reporter) = *reporter else { continue };
            if reporter == ctx.self_id() {
                self.release_frozen(ctx, &child);
            } else {
                ctx.send(reporter, Msg::AbortFreeze { id: child });
            }
        }
        if let Some((req_pid, grandparent)) = op.requester {
            if req_pid == ctx.self_id() {
                self.defer_collect(ctx, *parent, grandparent);
            } else {
                ctx.send(req_pid, Msg::CollectMissing { id: *parent, parent: grandparent });
            }
        }
    }

    /// Unfreezes a component in place and processes its buffered tokens.
    pub(super) fn release_frozen(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        if let Some(hosted) = self.components.get_mut(id) {
            hosted.frozen = false;
            hosted.frozen_by = None;
            let buffered = std::mem::take(&mut hosted.buffer);
            self.drain(ctx, buffered);
        }
    }

    /// Has `holder` — this node or a peer — drop frozen component `id`.
    pub(super) fn dismiss_frozen(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        holder: ProcessId,
        id: ComponentId,
    ) {
        if holder == ctx.self_id() {
            self.remove_frozen(ctx, &id);
        } else {
            ctx.send(holder, Msg::RemoveFrozen { id });
        }
    }

    /// Drops a frozen component and re-routes its buffered tokens (the
    /// merge-drain step of the protocol).
    pub(super) fn remove_frozen(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        if let Some(hosted) = self.components.remove(id) {
            self.metrics().merge_drained.add(hosted.buffer.len() as u64);
            self.drain(ctx, hosted.buffer);
        }
    }

    /// Re-drives stalled merges: children migrate under churn, so a
    /// FreezeCollect can land on a node that no longer (or does not
    /// yet) host the child. Re-request every still-missing child;
    /// merges that stall for many rounds are aborted — a genuinely
    /// merged-away ("zombie") obligation is then dropped, while a
    /// real one is retried from scratch with fresh topology.
    pub(super) fn redrive_merges(&mut self, ctx: &mut Context<'_, Msg>) {
        let in_progress: Vec<ComponentId> = self.merges.keys().copied().collect();
        for parent in in_progress {
            let (missing, progressed): (Vec<ComponentId>, bool) = {
                let op = self.merges.get_mut(&parent).expect("listed above");
                let missing: Vec<ComponentId> = op
                    .collected
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_none())
                    .map(|(i, _)| parent.child(i as u8))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                op.stalled_rounds += 1;
                (missing, op.stalled_rounds <= 8)
            };
            if progressed {
                for child in missing {
                    self.collect_child(ctx, &child, &parent);
                }
            } else {
                let collected_any = self
                    .merges
                    .get(&parent)
                    .map(|op| op.collected.iter().any(Option::is_some))
                    .unwrap_or(false);
                self.abort_merge(ctx, &parent);
                if !collected_any {
                    // No child was ever found: the obligation is stale
                    // (the merge happened elsewhere). Correctness does
                    // not depend on the entry — worst case the network
                    // stays finer than ideal.
                    self.split_list.remove(&parent);
                }
            }
        }
    }

    /// Hands every unfrozen component whose view-owner is not this
    /// node to that owner. Runs on every level tick and after every
    /// view change.
    pub(super) fn migration_sweep(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.view.ring().is_empty() {
            return; // no live peer to shed to; keep the state
        }
        let ids: Vec<ComponentId> = self
            .components
            .iter()
            .filter(|(_, h)| !h.frozen)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let owner = self.owner_of(&id);
            if owner == self.node {
                continue; // it is home, or this is a ghost with nowhere to shed to
            }
            if self.handoffs.contains_key(&id) {
                continue; // already in flight
            }
            let Hosted { comp, buffer, seen, .. } =
                self.components.remove(&id).expect("listed above");
            self.metrics().migrations.inc();
            self.trace(
                Span::new("net.migrate", SYSTEM_TRACE)
                    .at(ctx.now())
                    .node(owner.0)
                    .with("component", id.to_u64())
                    .with("from", self.node.0)
                    .with("level", id.level() as u64),
            );
            self.hand_off(ctx, comp, seen, buffer, owner, Cause::Migration);
        }
    }

    /// Handles a [`Msg::MergeOrphan`] nudge as the parent's hash owner
    /// (`reporter` is `None` when the orphaned child is local).
    pub(super) fn adopt_merge_orphan(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        reporter: Option<ProcessId>,
        child: ComponentId,
        parent: ComponentId,
    ) {
        if let Some(h) = self.components.get(&parent) {
            if !h.frozen {
                // The parent is already live (the dead coordinator got
                // its install out before crashing): the frozen child is
                // a leftover duplicate of a region the parent covers.
                self.dismiss_frozen(ctx, reporter.unwrap_or(ctx.self_id()), child);
            }
            return;
        }
        self.split_list.insert(parent);
        if !self.merges.contains_key(&parent) {
            self.start_merge(ctx, &parent, None);
        }
        if let Some(pid) = reporter {
            // The orphaned child lives on the reporter (typically a
            // ghost), not at its hash owner — collect it directly so
            // the merge does not stall probing an owner that has
            // nothing. `FreezeCollect` re-homes `frozen_by` to us.
            ctx.send(pid, Msg::FreezeCollect { id: child, parent });
        }
    }

    /// A merge coordinator asks for child `id`: freeze and report it,
    /// merge it back together first, or say it is missing.
    pub(super) fn on_freeze_collect(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        id: ComponentId,
        parent: ComponentId,
    ) {
        if self.components.contains_key(&id) && !self.splits.contains_key(&id) {
            let hosted = self.components.get_mut(&id).expect("hosted");
            hosted.frozen = true;
            // Remember who froze us: if the coordinator crashes
            // before the merge completes, the tombstone adoption
            // nudges the parent's new owner to take over.
            hosted.frozen_by = (from != ctx.self_id()).then_some(from);
            let comp = Box::new(hosted.comp.clone());
            let seen = hosted.seen.to_pinned();
            ctx.send(from, Msg::CollectReply { comp, seen, parent });
        } else if self.split_list.contains(&id) {
            if let Some(op) = self.merges.get_mut(&id) {
                op.requester = Some((from, parent));
            } else {
                self.start_merge(ctx, &id, Some((from, parent)));
            }
        } else {
            ctx.send(from, Msg::CollectMissing { id, parent });
        }
    }

    /// A harness-scheduled split of `id`: a no-op unless `id` is hosted
    /// here live, unfrozen and wide enough.
    pub(super) fn force_split(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId) {
        let splittable =
            self.components.get(&id).is_some_and(|h| !h.frozen && h.comp.width() >= 4);
        if splittable && !self.splits.contains_key(&id) && !self.view.is_ghost() {
            self.start_split(ctx, &id);
        }
    }

    /// A harness-scheduled merge of `id`: a no-op unless `id` is on the
    /// split list with no merge already in flight.
    pub(super) fn force_merge(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId) {
        if self.split_list.contains(&id) && !self.merges.contains_key(&id) && !self.view.is_ghost()
        {
            self.start_merge(ctx, &id, None);
        }
    }
}

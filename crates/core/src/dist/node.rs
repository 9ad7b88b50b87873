//! One overlay node: the process struct, what `acn-check` may read of
//! it, the two periodic ticks, and the dispatch of messages and timers
//! to the layers that handle them.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use acn_overlay::NodeId;
use acn_simnet::{Context, Process, ProcessId};
use acn_topology::{ComponentId, Tree, WireAddress, WiringStyle};
use acn_trace::{Span, SYSTEM_TRACE};

use crate::component::Component;

use super::dedup::{Accepted, Watermarks};
use super::handoff::PendingHandOff;
use super::msg::{Header, Msg, Token, COLLECTOR};
use super::reconfig::{Hosting, MergeOp};
use super::rescue::RescueOp;
use super::view::{FdStep, News, View};
use super::wire::{Backoff, UnackedToken, DEFAULT_FROZEN_BUFFER_CAP};
use super::world::{DistMetrics, World};

/// Timer tags used by [`NodeProc`].
pub(super) const TIMER_LEVEL: u64 = 0;
pub(super) const TIMER_RETRY: u64 = 1;
/// The failure-detector lease tick: each node monitors its ring
/// predecessor (the unique node whose successor it is), see
/// [`View::fd_tick`].
pub(super) const TIMER_FD: u64 = 3;

/// Harness-injected "reconfigure now" timer tags carry the operation
/// above bit 48 and the packed [`ComponentId`] below it. The
/// distributed model checker schedules these so reconfiguration happens
/// at *explored* points instead of waiting for the estimator-driven
/// level tick.
const FORCE_TAG_SHIFT: u32 = 48;
const FORCE_SPLIT: u64 = 1;
const FORCE_MERGE: u64 = 2;
/// The deepest id a force tag can name: `ComponentId::to_u64` packs a
/// level-`L` id into base-7 digits below `7^L`, and `7^17 < 2^48 < 7^18`
/// (ids themselves go to `ComponentId::MAX_DEPTH` = 22).
const FORCE_TAG_MAX_LEVEL: usize = 17;

fn force_tag(op: u64, id: &ComponentId) -> u64 {
    assert!(
        id.level() <= FORCE_TAG_MAX_LEVEL,
        "{id} lies deeper than FORCE_TAG_MAX_LEVEL = {FORCE_TAG_MAX_LEVEL}, the last level a force tag can hold"
    );
    op << FORCE_TAG_SHIFT | id.to_u64()
}

/// The operation and component a force tag names; `None` for every
/// other timer tag.
fn decode_force_tag(tag: u64) -> Option<(u64, ComponentId)> {
    let op = tag >> FORCE_TAG_SHIFT;
    (op == FORCE_SPLIT || op == FORCE_MERGE)
        .then(|| (op, ComponentId::from_u64(tag & ((1 << FORCE_TAG_SHIFT) - 1))))
}

/// The timer tag that makes the receiving [`NodeProc`] start splitting
/// hosted component `id` (no-op if it does not host `id` live and
/// unfrozen). Harness/checker use; deterministic and explorable, unlike
/// the estimator-driven level tick.
///
/// # Panics
///
/// Panics if `id` is deeper than level 17, the deepest a tag can hold.
#[must_use]
pub fn force_split_tag(id: &ComponentId) -> u64 {
    force_tag(FORCE_SPLIT, id)
}

/// The timer tag that makes the receiving [`NodeProc`] start merging
/// split component `id` (no-op unless `id` is on its split list with no
/// merge already in flight). Harness/checker use.
///
/// # Panics
///
/// Panics if `id` is deeper than level 17, the deepest a tag can hold.
#[must_use]
pub fn force_merge_tag(id: &ComponentId) -> u64 {
    force_tag(FORCE_MERGE, id)
}

/// One overlay node of the distributed adaptive counting network.
#[derive(Debug)]
pub struct NodeProc {
    pub(super) world: Rc<RefCell<World>>,
    pub(super) node: NodeId,
    /// The decomposition tree and wiring style: deployment constants,
    /// copied out of the world at construction.
    pub(super) tree: Tree,
    pub(super) style: WiringStyle,
    /// The hosted components, and the epoch that stamps their routes.
    pub(super) components: Hosting,
    /// Components this node split and has not merged back yet (the
    /// paper's per-node split list).
    pub(super) split_list: BTreeSet<ComponentId>,
    /// Splits this node coordinates: the frozen parent and when it was
    /// frozen. It stays until the hand-off of every child is acked.
    pub(super) splits: BTreeMap<ComponentId, u64>,
    pub(super) merges: BTreeMap<ComponentId, MergeOp>,
    /// Tokens this node is responsible for until acknowledged, by the
    /// guid of the outstanding (or exhausted) send.
    pub(super) unacked: BTreeMap<u64, UnackedToken>,
    /// Per destination, what holds the ack watermark this node stamps
    /// on its token sends back.
    pub(super) watermarks: Watermarks,
    /// GUIDs of tokens this node has accepted, per sender, until the
    /// sender's watermark passes them (duplicate suppression).
    pub(super) accepted: Accepted,
    /// Merge collections to retry (child is mid-reconfiguration).
    pub(super) stuck_collects: Vec<(ComponentId, ComponentId)>,
    /// Whether a retry timer is already armed.
    pub(super) retry_armed: bool,
    /// Last known owner level per wire address (the Section 3.5 cache).
    pub(super) cache: BTreeMap<WireAddress, usize>,
    /// Current level estimate `l_v`.
    pub(super) level: usize,
    /// Period of the level-maintenance timer.
    pub(super) level_period: u64,
    /// Local membership view and failure detector.
    pub(super) view: View,
    /// In-progress rescue sweep this node coordinates.
    pub(super) rescue: Option<RescueOp>,
    /// A suspicion arrived while a sweep was running: run another
    /// sweep when the current one completes.
    pub(super) rescue_again: bool,
    /// Components on their way to their hash owner, each retained
    /// until its [`Msg::HandOffAck`] — the one place this node keeps
    /// what it covers but no longer (or not yet) hosts.
    pub(super) handoffs: BTreeMap<ComponentId, PendingHandOff>,
    /// Backoff of the retry timer.
    pub(super) backoff: Backoff,
    /// Bound on remotely sent tokens parked in one frozen buffer.
    pub(super) frozen_buffer_cap: usize,
}

impl NodeProc {
    /// Creates the process for overlay node `node`.
    #[must_use]
    pub fn new(world: Rc<RefCell<World>>, node: NodeId, level_period: u64) -> Self {
        let (tree, style) = {
            let w = world.borrow();
            (w.tree, w.style)
        };
        NodeProc {
            world,
            node,
            tree,
            style,
            components: Hosting::default(),
            split_list: BTreeSet::new(),
            splits: BTreeMap::new(),
            merges: BTreeMap::new(),
            unacked: BTreeMap::new(),
            watermarks: Watermarks::default(),
            accepted: Accepted::default(),
            stuck_collects: Vec::new(),
            retry_armed: false,
            cache: BTreeMap::new(),
            level: 0,
            level_period,
            view: View::new(node),
            rescue: None,
            rescue_again: false,
            handoffs: BTreeMap::new(),
            backoff: Backoff::new(node),
            frozen_buffer_cap: DEFAULT_FROZEN_BUFFER_CAP,
        }
    }

    /// Seeds the initial membership view (bootstrap/join contact list).
    pub fn seed_view(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.view.seed(nodes);
    }

    /// Whether `n` is tombstoned in this node's view.
    #[must_use]
    pub fn view_dead_contains(&self, n: NodeId) -> bool {
        self.view.is_dead(n)
    }

    /// In-flight split operations this node coordinates.
    #[must_use]
    pub fn splits_in_flight(&self) -> usize {
        self.splits.len()
    }

    /// In-flight merge operations this node coordinates.
    #[must_use]
    pub fn merges_in_flight(&self) -> usize {
        self.merges.len()
    }

    /// Overrides the per-component frozen-buffer capacity (tests drive
    /// the backpressure path with tiny caps).
    pub fn set_frozen_buffer_cap(&mut self, cap: usize) {
        self.frozen_buffer_cap = cap.max(1);
    }

    /// The overlay node this process represents.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Whether this node is a ghost: it gracefully departed, or was
    /// declared crashed and adopted its own tombstone. Ghosts still
    /// NACK tokens so none are lost while senders re-resolve.
    #[must_use]
    pub fn departed(&self) -> bool {
        self.view.is_ghost()
    }

    /// The live components on this node with their frozen flags.
    pub fn components(&self) -> impl Iterator<Item = (&ComponentId, bool)> {
        self.components.iter().map(|(id, h)| (id, h.frozen))
    }

    /// The hosted components with their full state, frozen flag, and
    /// buffered-token count (the distributed checker's oracles import
    /// these to audit conservation and ledger legality).
    pub fn hosted_components(
        &self,
    ) -> impl Iterator<Item = (&ComponentId, &Component, bool, usize)> {
        self.components.iter().map(|(id, h)| (id, &h.comp, h.frozen, h.buffer.len()))
    }

    /// The split list (components this node is responsible for merging).
    #[must_use]
    pub fn split_list(&self) -> &BTreeSet<ComponentId> {
        &self.split_list
    }

    /// The hand-offs awaiting their ack: each component with the node
    /// it was last sent to.
    pub fn hand_offs_in_flight(&self) -> impl Iterator<Item = (&ComponentId, NodeId)> {
        self.handoffs.iter().map(|(id, h)| (id, h.sent_to))
    }

    /// Whether a merge of `id` is currently coordinated by this node.
    #[must_use]
    pub fn has_merge_in_progress(&self, id: &ComponentId) -> bool {
        self.merges.contains_key(id)
    }

    /// Marks the node as departed: it tombstones itself in its own
    /// view (so its migration sweeps shed every component to the
    /// remaining owners) and NACKs tokens so senders re-resolve.
    /// Returns the split-list entries to hand to the successor: all but
    /// those whose merge is already in flight here — the ghost finishes
    /// those itself, and handing them off too would duplicate the
    /// obligation.
    pub(super) fn depart(&mut self) -> Vec<ComponentId> {
        self.view.tombstone(self.node);
        let mut handed_off = Vec::new();
        self.split_list.retain(|id| {
            let keep = self.merges.contains_key(id);
            if !keep {
                handed_off.push(*id);
            }
            keep
        });
        handed_off
    }

    /// Debug rendering of in-flight operations (diagnostics).
    #[must_use]
    pub fn ops_debug(&self) -> String {
        let merges: Vec<String> = self
            .merges
            .iter()
            .map(|(id, op)| {
                let collected: Vec<usize> = op
                    .collected
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_some())
                    .map(|(i, _)| i)
                    .collect();
                format!(
                    "merge {id}: collected {collected:?} requester={:?}",
                    op.requester.as_ref().map(|(p, g)| format!("{p}/{g}"))
                )
            })
            .collect();
        let splits: Vec<String> = self.splits.keys().map(ToString::to_string).collect();
        let hand_offs: Vec<String> = self
            .handoffs
            .iter()
            .map(|(id, h)| format!("{id} -> {} ({:?})", h.sent_to.0, h.cause))
            .collect();
        format!(
            "retry_armed={} unacked={} stuck_collects={:?} splits={splits:?} merges={merges:?} \
             hand_offs={hand_offs:?}",
            self.retry_armed,
            self.unacked.len(),
            self.stuck_collects
                .iter()
                .map(|(c, p)| format!("{c} for {p}"))
                .collect::<Vec<_>>(),
        )
    }

    /// Whether the node currently has reconfiguration operations or
    /// unresolved tokens in flight.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.splits.is_empty()
            && self.merges.is_empty()
            && self.unacked.is_empty()
            && self.stuck_collects.is_empty()
            && self.handoffs.is_empty()
            && self.rescue.is_none()
    }

    /// The deployment-wide `acn.dist.*` handles. With
    /// [`trace`](Self::trace), the world's mirrored counters, its two
    /// id allocators and the planted-mutation switch this is all that
    /// protocol code touches of the shared [`World`]: write-only
    /// observation, never membership or harness ground truth.
    pub(super) fn metrics(&self) -> Ref<'_, DistMetrics> {
        Ref::map(self.world.borrow(), |w| &w.metrics)
    }

    /// A span of `kind` on `trace`, stamped with this node and `now`.
    pub(super) fn span(&self, kind: &'static str, trace: u64, now: u64) -> Span {
        Span::new(kind, trace).at(now).node(self.node.0)
    }

    /// Records `span` (a no-op while no tracer is attached).
    pub(super) fn trace(&self, span: Span) {
        self.world.borrow().tracer.record(span);
    }

    /// Tells every known peer what this node has just learned, by the
    /// rule of [`View::gossip`]: `news` to a peer it already knew, the
    /// whole view to one it has just learned of (DESIGN.md §13.2). Sent
    /// only on change, so each membership event costs O(N^2) messages
    /// before every view has converged and the wave dies out — of a few
    /// ids each, not the roster. Tombstoned peers are included
    /// deliberately: a ghost (departed, or falsely suspected) may still
    /// hold frozen state whose coordinator just died, and it needs the
    /// tombstone to nudge the orphan back into the protocol. Sends to
    /// genuinely crashed processes are dropped by the plane.
    pub(super) fn broadcast_view(&self, ctx: &mut Context<'_, Msg>, news: News) {
        let (mut messages, mut ids) = (0, 0);
        self.view.gossip(news, |peer, known, dead| {
            messages += 1;
            ids += (known.len() + dead.len()) as u64;
            ctx.send(
                ProcessId(peer.0),
                Msg::ViewGossip { known: Rc::clone(known), dead: Rc::clone(dead) },
            );
        });
        let m = self.metrics();
        m.fd_gossip.add(messages);
        m.fd_gossip_ids.add(ids);
    }

    /// Adopts gossiped membership; re-gossips and reacts only on change.
    pub(super) fn on_view_gossip(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        known: &BTreeSet<NodeId>,
        dead: &BTreeSet<NodeId>,
    ) {
        let news = self.view.merge(known, dead);
        if !news.is_empty() {
            self.broadcast_view(ctx, news);
            self.after_view_change(ctx);
        }
    }

    /// Reacts to an adopted view change: orphaned-merge nudges and an
    /// ownership sweep (which, if the change tombstoned this node
    /// itself, sheds everything it hosts).
    pub(super) fn after_view_change(&mut self, ctx: &mut Context<'_, Msg>) {
        // Components frozen for a coordinator that is now tombstoned:
        // the merge will never complete. Nudge the parent's current
        // owner to adopt (or disown) the obligation.
        let orphans: Vec<(ComponentId, ComponentId)> = self
            .components
            .iter()
            .filter_map(|(id, h)| match h.frozen_by {
                Some(pid) if self.view.is_dead(NodeId(pid.0)) => {
                    id.parent().map(|p| (*id, p))
                }
                _ => None,
            })
            .collect();
        for (child, parent) in orphans {
            let owner = self.owner_of(&parent);
            if ProcessId(owner.0) == ctx.self_id() {
                self.adopt_merge_orphan(ctx, None, child, parent);
            } else {
                ctx.send(ProcessId(owner.0), Msg::MergeOrphan { child, parent });
            }
        }
        self.migration_sweep(ctx);
    }

    /// The level-maintenance tick: re-estimate, split what is too
    /// coarse, merge what is too fine (paper Section 3.2), shed
    /// components whose view-owner changed, and re-drive stalled
    /// operations.
    pub(super) fn level_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.view.is_ghost() {
            // Ghost (departed or excommunicated): no adaptivity
            // decisions, but keep shedding state and finishing
            // in-flight obligations, re-arming only while any remain.
            self.redrive_hand_offs(ctx);
            self.migration_sweep(ctx);
            self.redrive_merges(ctx);
            if !(self.components.is_empty()
                && self.splits.is_empty()
                && self.merges.is_empty()
                && self.handoffs.is_empty())
            {
                ctx.set_timer(self.level_period, TIMER_LEVEL);
            }
            return;
        }
        let level = self
            .metrics()
            .estimator
            .node_level(self.view.ring(), self.node)
            .min(self.tree.max_level());
        if level != self.level {
            self.metrics().level_changes.inc();
            self.trace(
                self.span("dist.level_change", SYSTEM_TRACE, ctx.now())
                    .with("from", self.level as u64)
                    .with("to", level as u64),
            );
        }
        self.level = level;
        // Splitting rule.
        let to_split: Vec<ComponentId> = self
            .components
            .iter()
            .filter(|(id, hosted)| {
                !hosted.frozen && hosted.comp.width() >= 4 && id.level() < self.level
            })
            .map(|(id, _)| *id)
            .collect();
        for id in to_split {
            self.start_split(ctx, &id);
        }
        // Zombie split-list entries: if we host the component itself
        // live, someone (typically a departed node's ghost) already
        // completed the merge — drop the duplicated obligation.
        let zombies: Vec<ComponentId> = self
            .split_list
            .iter()
            .filter(|id| self.components.contains_key(*id))
            .copied()
            .collect();
        for id in zombies {
            self.split_list.remove(&id);
            if self.merges.contains_key(&id) {
                self.abort_merge(ctx, &id);
            }
        }
        // Merging rule.
        let to_merge: Vec<ComponentId> = self
            .split_list
            .iter()
            .filter(|id| id.level() >= self.level && !self.merges.contains_key(*id))
            .copied()
            .collect();
        for id in to_merge {
            self.start_merge(ctx, &id, None);
        }
        self.redrive_merges(ctx);
        self.redrive_hand_offs(ctx);
        self.migration_sweep(ctx);
        ctx.set_timer(self.level_period, TIMER_LEVEL);
    }

    /// The failure-detector tick: re-drive a stalled rescue sweep, then
    /// act on what [`View::fd_tick`] decided about the predecessor. Any
    /// received message counts as a heartbeat, so explicit pings only
    /// flow when the link is otherwise idle.
    pub(super) fn fd_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        let period = self.level_period;
        self.redrive_rescue(ctx);
        if self.view.is_ghost() {
            // Ghosts keep the lease timer only while they still have
            // cleanup (a rescue they coordinate) to finish.
            if self.rescue.is_some() {
                ctx.set_timer(period, TIMER_FD);
            }
            return;
        }
        match self.view.fd_tick(ctx.now(), period) {
            FdStep::Idle => {}
            FdStep::Ping(pred) => {
                self.metrics().fd_pings.inc();
                ctx.send(ProcessId(pred.0), Msg::Ping);
            }
            FdStep::Suspect(pred) => self.suspect(ctx, pred),
        }
        ctx.set_timer(period, TIMER_FD);
    }
}

/// Dispatch only: every message and timer goes to the layer that owns
/// its state.
impl Process<Msg> for NodeProc {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        // Every protocol message doubles as a heartbeat: the failure
        // detector only sends explicit pings over otherwise-idle links.
        if from != ProcessId::EXTERNAL && from != COLLECTOR && from != ctx.self_id() {
            self.view.heard(NodeId(from.0), ctx.now());
        }
        match msg {
            Msg::ClientInject { wire } => self.on_inject(ctx, wire),
            Msg::Token { guid, token, addr, injected_at, attempt, hops, acked_below, chained } => {
                let t = Token { id: token, addr, injected_at, hops };
                self.on_token(ctx, from, t, Header { guid, attempt, acked_below, chained })
            }
            Msg::TokenAck { guid } => self.on_token_ack(guid),
            Msg::TokenNack { guid, attempt } => self.on_token_nack(ctx, guid, attempt),
            Msg::TokenBusy { guid } => self.on_token_busy(ctx, guid),
            Msg::HandOff { comp, seen, buffer } => self.on_hand_off(ctx, from, *comp, seen, buffer),
            Msg::HandOffAck { id } => self.on_hand_off_ack(ctx, id),
            Msg::FreezeCollect { id, parent } => self.on_freeze_collect(ctx, from, id, parent),
            Msg::CollectReply { comp, seen, parent } => {
                self.record_collect(ctx, *comp, seen, &parent, from)
            }
            // Transient window (split in progress / migration).
            Msg::CollectMissing { id, parent } => self.defer_collect(ctx, id, parent),
            Msg::RemoveFrozen { id } => self.remove_frozen(ctx, &id),
            Msg::AbortFreeze { id } => self.release_frozen(ctx, &id),
            Msg::MergeOrphan { child, parent } => {
                self.adopt_merge_orphan(ctx, Some(from), child, parent)
            }
            Msg::SplitListHandoff { entries } => self.split_list.extend(entries),
            Msg::Ping => ctx.send(from, Msg::Pong),
            // The heartbeat refresh above already cleared the strikes.
            Msg::Pong => {}
            Msg::ViewGossip { known, dead } => self.on_view_gossip(ctx, &known, &dead),
            Msg::RescueQuery => ctx.send(from, Msg::RescueReport { covered: self.covered_report() }),
            Msg::RescueReport { covered } => self.on_rescue_report(ctx, from, covered),
            Msg::Exit { .. } => debug_assert!(false, "Exit delivered to a node"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match tag {
            TIMER_LEVEL => self.level_tick(ctx),
            TIMER_FD => self.fd_tick(ctx),
            TIMER_RETRY => self.retry_tick(ctx),
            _ => match decode_force_tag(tag) {
                Some((FORCE_SPLIT, id)) => self.force_split(ctx, id),
                Some((_, id)) => self.force_merge(ctx, id),
                None => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_tags_round_trip_up_to_the_deepest_level_they_hold() {
        let deepest = ComponentId::from_path([5u8; FORCE_TAG_MAX_LEVEL]);
        for id in [ComponentId::root(), ComponentId::from_path([0, 3, 5]), deepest] {
            assert_eq!(decode_force_tag(force_split_tag(&id)), Some((FORCE_SPLIT, id)));
            assert_eq!(decode_force_tag(force_merge_tag(&id)), Some((FORCE_MERGE, id)));
        }
    }

    #[test]
    #[should_panic(expected = "FORCE_TAG_MAX_LEVEL = 17")]
    fn force_tag_of_an_id_past_the_bound_panics_naming_it() {
        let _ = force_split_tag(&ComponentId::from_path([5u8; FORCE_TAG_MAX_LEVEL + 1]));
    }

    #[test]
    fn only_force_tags_decode_as_force_tags() {
        for tag in [TIMER_LEVEL, TIMER_RETRY, TIMER_FD, 9, 3 << 48, 3 << 48 | 9, u64::MAX] {
            assert_eq!(decode_force_tag(tag), None, "{tag:#x}");
        }
    }
}

//! The hand-off: putting a component at the hash owner of its name and
//! keeping a copy until it is there. A split placing its children, a
//! merge placing its result, a join or leave re-homing a component and
//! a rescue sweep re-covering a hole are all this one act, over one
//! table, one message pair and one re-drive.

use acn_overlay::NodeId;
use acn_simnet::{Context, ProcessId};
use acn_topology::ComponentId;

use crate::component::Component;

use super::dedup::Ledger;
use super::msg::{Msg, SeenTokens, Token};
use super::node::NodeProc;
use super::reconfig::Hosted;

/// Why a component is handed off. Kept at the sender only, where it
/// selects what runs once the component is in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Cause {
    /// A split places a child; the last one in finishes the split.
    SplitChild,
    /// A merge places its result, which finishes the merge.
    MergeParent,
    /// A join or leave re-homes a component; nothing waits on it.
    Migration,
    /// A rescue sweep re-covers a hole; the last one in ends the sweep.
    Rescue,
}

/// A component on its way to its hash owner, retained until the
/// [`Msg::HandOffAck`] so a crash of the target cannot lose it.
#[derive(Debug, Clone)]
pub(super) struct PendingHandOff {
    pub(super) comp: Component,
    /// Its ledger, every entry pinned: it left the node.
    pub(super) seen: SeenTokens,
    pub(super) buffer: Vec<Token>,
    /// Where it was (last) sent. Once this node's view tombstones that
    /// target, the next level tick sends the entry again, to the owner
    /// the view names then.
    pub(super) sent_to: NodeId,
    pub(super) cause: Cause,
}

impl NodeProc {
    /// Installs a component with its `(token, addr)` ledger: inherited
    /// on a split, unioned on a merge, carried by a migration, and empty
    /// at boot and after a rescue, where token history is gone by
    /// definition.
    pub(super) fn install(&mut self, comp: Component, seen: Ledger) {
        self.components.insert(*comp.id(), Hosted::new(comp, seen));
    }

    /// Places an arriving component: installed, unless that would
    /// double-cover. A rescue can have installed a fresh replacement
    /// while the authentic copy was in flight, and a re-driven hand-off
    /// can follow a first copy that did land before its target was
    /// tombstoned. A resident copy may have processed tokens since and
    /// is kept, with the ledgers unioned so delayed duplicates still
    /// drop; and a stale duplicate must not resurrect a region this
    /// node has split, handed on or re-covered in the meantime.
    fn place(&mut self, comp: Component, seen: Ledger) {
        if let Some(resident) = self.components.get_mut(comp.id()) {
            resident.seen.absorb(seen);
        } else if !self.accepting_would_double_cover(comp.id()) {
            self.install(comp, seen);
        }
    }

    /// Puts `comp` at `owner`, the hash owner of its name the caller
    /// just resolved. If that is this node it is installed here (under
    /// the refusal a remote receiver applies) and `true` returned.
    /// Otherwise it is sent, its ledger entries all pinned — this is
    /// the only place [`Msg::HandOff`] is built — and retained in
    /// `handoffs` until acknowledged; a target that will never answer
    /// (crashed, or a ghost) is outlived by
    /// [`redrive_hand_offs`](Self::redrive_hand_offs). A ghost never
    /// installs: it holds the entry until its view names a live owner.
    pub(super) fn hand_off(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        comp: Component,
        seen: Ledger,
        buffer: Vec<Token>,
        owner: NodeId,
        cause: Cause,
    ) -> bool {
        let here = ProcessId(owner.0) == ctx.self_id();
        if here && !self.view.is_ghost() {
            self.place(comp, seen);
            self.drain(ctx, buffer);
            return true;
        }
        let seen = seen.into_pinned();
        if !here {
            let (comp, seen, buffer) = (Box::new(comp.clone()), seen.clone(), buffer.clone());
            ctx.send(ProcessId(owner.0), Msg::HandOff { comp, seen, buffer });
        }
        // Everything in the table is coverage: what is handed off
        // replaces a region this node covered (a component it hosted, a
        // frozen split parent, collected children, a hole it found), so
        // a second entry for one id would be a double cover.
        let entry = PendingHandOff { comp, seen, buffer, sent_to: owner, cause };
        let previous = self.handoffs.insert(*entry.comp.id(), entry);
        debug_assert!(previous.is_none(), "{previous:?} was already in flight");
        false
    }

    /// The ids in flight for `cause`.
    pub(super) fn in_flight(&self, cause: Cause) -> impl Iterator<Item = &ComponentId> {
        self.handoffs.iter().filter(move |(_, h)| h.cause == cause).map(|(id, _)| id)
    }

    /// A component is handed to this node as its hash owner. A ghost
    /// cannot adopt and stays silent: the tombstone that made it one is
    /// on its way to the sender, whose re-drive then finds the owner.
    /// Acked whether or not this copy is installed — the sender's
    /// obligation is discharged by the region being covered, not by
    /// this exact copy landing.
    pub(super) fn on_hand_off(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        comp: Component,
        seen: SeenTokens,
        buffer: Vec<Token>,
    ) {
        if self.view.is_ghost() {
            return;
        }
        let id = *comp.id();
        self.place(comp, Ledger::pinned(seen));
        ctx.send(from, Msg::HandOffAck { id });
        self.drain(ctx, buffer);
    }

    /// The owner covers the region: drop the retained copy and run what
    /// was waiting for it.
    pub(super) fn on_hand_off_ack(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId) {
        if let Some(h) = self.handoffs.remove(&id) {
            self.components.release();
            self.landed(ctx, id, h.cause);
        }
    }

    /// `id` is in place — acknowledged by its owner, or installed here
    /// by a re-drive: run what its cause was waiting for.
    fn landed(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId, cause: Cause) {
        match cause {
            Cause::SplitChild => {
                self.finish_split(ctx, id.parent().expect("a split child has a parent"))
            }
            Cause::MergeParent if self.merges.contains_key(&id) => self.finish_merge(ctx, &id),
            Cause::MergeParent | Cause::Migration => {}
            Cause::Rescue => self.rescue_done(ctx),
        }
    }

    /// Re-drives, on the level tick, every hand-off whose target this
    /// node's view has tombstoned — crashed, or a ghost that stayed
    /// silent: each is handed off again to the owner the view names
    /// now, which may be this node. A target still believed alive is
    /// never sent a second copy: the channel is reliable, so it will
    /// answer, and a copy arriving after the first was installed and
    /// handed on would be installed as new beside its own successor.
    /// For the same reason this waits for the tick and does not run on
    /// the view change itself: a target tombstoned while alive (a
    /// leaver, a false suspicion) has usually acknowledged already, and
    /// that ack gets the rest of the period to arrive.
    pub(super) fn redrive_hand_offs(&mut self, ctx: &mut Context<'_, Msg>) {
        let orphaned: Vec<ComponentId> = self
            .handoffs
            .iter()
            .filter(|(_, h)| self.view.is_dead(h.sent_to))
            .map(|(id, _)| *id)
            .collect();
        for id in orphaned {
            let h = self.handoffs.remove(&id).expect("listed above");
            self.components.release();
            let owner = self.owner_of(&id);
            if self.hand_off(ctx, h.comp, Ledger::pinned(h.seen), h.buffer, owner, h.cause) {
                self.landed(ctx, id, h.cause);
            }
        }
    }
}

//! The token path: ownership lookup against the local view, the one
//! routing entry point, the lossy send with its ack/nack/busy replies,
//! the retry timer with its backoff, and the rule that drives the
//! dedup tables of `dedup`: what is recorded, and when it is forgotten.

use acn_overlay::NodeId;
use acn_simnet::{Context, ProcessId};
use acn_topology::{
    input_port_of, network_input_address, resolve_output, ComponentId, OutputDestination,
    WireAddress,
};

use super::dedup::{Copies, Tag};
use super::msg::{Header, Msg, Token, ATTEMPT_CACHED, COLLECTOR};
use super::node::{NodeProc, TIMER_RETRY};

/// Default bound on tokens a *remote sender* may park in one frozen
/// component's buffer. Past it the receiver sheds with a backpressure
/// NACK ([`Msg::TokenBusy`]) and the sender retries under backoff.
/// Locally re-routed tokens (buffer drains, client injections) are
/// exempt — they have no sender to push back on — so the buffer stays
/// bounded by wire admission plus a bounded local refill.
pub(super) const DEFAULT_FROZEN_BUFFER_CAP: usize = 64;

/// One send obligation: the guid its copies carry, whether the token
/// was drained from a frozen buffer, and where its copies went.
#[derive(Debug, Clone, Copy)]
pub(super) struct Obligation {
    pub(super) guid: u64,
    /// Drained from a frozen buffer: the receiver's entry is pinned.
    pub(super) chained: bool,
    pub(super) copies: Copies,
}

/// A token awaiting end-to-end acknowledgement. (The probe attempt is
/// not stored: a timed-out obligation restarts probing from the cache.)
#[derive(Debug, Clone)]
pub(super) struct UnackedToken {
    pub(super) t: Token,
    pub(super) sent_at: u64,
    pub(super) ob: Obligation,
}

/// How a token reached [`NodeProc::route`], which decides what the
/// first component it meets records of it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Arrival {
    /// A client injection: the token id is fresh, nothing is recorded.
    Injected,
    /// Accepted off the wire: an unchained arrival records an entry
    /// tagged with `(from, guid)`, a chained one a pinned entry.
    Wire { from: ProcessId, guid: u64, chained: bool },
    /// Drained from a frozen buffer: a pinned entry.
    Drained,
    /// The retry pass re-routing its own obligation: a pinned entry.
    Retry(Obligation),
}

impl Arrival {
    /// What the first component records: `None` for nothing, else the
    /// entry's tag (`None` inside for a pinned entry).
    fn record(self) -> Option<Option<Tag>> {
        match self {
            Arrival::Injected => None,
            Arrival::Wire { from, guid, chained: false } => Some(Some((from, guid))),
            Arrival::Wire { chained: true, .. } | Arrival::Drained | Arrival::Retry(_) => {
                Some(None)
            }
        }
    }
}

/// The retry timer's seeded, jittered exponential backoff.
#[derive(Debug, Clone, Hash)]
pub(super) struct Backoff {
    /// Current interval (0 = base `period/4 + 1`); doubled on
    /// unproductive retries and backpressure NACKs up to one period,
    /// reset to base on acknowledged progress.
    interval: u64,
    /// Private splitmix64 stream for retry jitter. Seeded from the
    /// node id, advanced only by this node's own arms — part of the
    /// canonical state digest, unlike the shared sim RNG.
    rng: u64,
}

impl Backoff {
    pub(super) fn new(node: NodeId) -> Self {
        Backoff { interval: 0, rng: node.0 ^ 0x9E37_79B9_7F4A_7C15 }
    }

    fn current(&self, period: u64) -> u64 {
        self.interval.max(period / 4 + 1)
    }

    /// The next retry-timer delay: the current interval plus jitter
    /// below a quarter of it. The base interval far exceeds the
    /// simulated RTT, so a retransmission never races a still-pending
    /// ack; escalation only widens that margin.
    pub(super) fn next_delay(&mut self, period: u64) -> u64 {
        let interval = self.current(period);
        interval + acn_overlay::splitmix64(&mut self.rng) % (interval / 4 + 1)
    }

    /// Doubles the interval (cap: one period).
    pub(super) fn escalate(&mut self, period: u64) {
        self.interval = (self.current(period) * 2).min(period);
    }

    /// Back to base; reports whether that changed anything.
    pub(super) fn reset(&mut self) -> bool {
        std::mem::take(&mut self.interval) != 0
    }
}

impl NodeProc {
    /// Whether the dedup layers are on (off only under the planted
    /// checker mutation), and whether `token`'s spans are sampled.
    pub(super) fn token_flags(&self, token: u64) -> (bool, bool) {
        let w = self.world.borrow();
        (!w.mutation_no_ack_dedup, w.tracer.should_sample(token))
    }

    /// The hash owner of component `id` per this node's *local view*
    /// (one DHT lookup in a real deployment).
    pub(super) fn owner_of(&self, id: &ComponentId) -> NodeId {
        {
            let mut w = self.world.borrow_mut();
            w.dht_lookups += 1;
            w.metrics.dht_lookups.inc();
        }
        self.view.owner_of_name(self.tree.preorder_index(id))
    }

    /// Arms the retry timer (if it is not already) with the next
    /// backoff delay.
    pub(super) fn arm_retry(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.retry_armed {
            return;
        }
        self.retry_armed = true;
        let delay = self.backoff.next_delay(self.level_period);
        self.metrics().backoff_interval.record(delay);
        ctx.set_timer(delay, TIMER_RETRY);
    }

    /// An unproductive retry round or a backpressure NACK: widen the
    /// retry interval.
    pub(super) fn escalate_backoff(&mut self) {
        self.backoff.escalate(self.level_period);
        self.metrics().backoff_escalations.inc();
    }

    /// Acknowledged progress: back to the base interval.
    pub(super) fn reset_backoff(&mut self) {
        if self.backoff.reset() {
            self.metrics().backoff_resets.inc();
        }
    }

    /// The hosted candidate (if any) covering `addr`.
    pub(super) fn hosted_candidate(&self, addr: &WireAddress) -> Option<ComponentId> {
        addr.candidates().find(|c| self.components.contains_key(c))
    }

    /// Where a token arriving from outside (a client, a peer, or this
    /// node's own retry pass) enters local routing: the hosted candidate
    /// covering `addr` — or nowhere when this node is a ghost, which
    /// must not consume traffic it no longer owns.
    pub(super) fn entry_point(&self, addr: &WireAddress) -> Option<ComponentId> {
        if self.view.is_ghost() {
            None
        } else {
            self.hosted_candidate(addr)
        }
    }

    /// Re-routes tokens drained from a frozen buffer (a split or merge
    /// finished, a freeze was released, a hand-off landed). No ghost
    /// check: a departed node still processes its own drained tokens at
    /// whatever it hosts.
    pub(super) fn drain(&mut self, ctx: &mut Context<'_, Msg>, buffer: Vec<Token>) {
        for t in buffer {
            let start = self.hosted_candidate(&t.addr);
            self.route(ctx, Arrival::Drained, t, start);
        }
    }

    /// Routes a token: processes it at `start` and onwards for as long
    /// as this node hosts the next owner, then sends it on (or to the
    /// collector). `start` is the hosted candidate of `t.addr` the
    /// caller probed, `None` to go straight to the wire. The retry
    /// pass's obligation names the onward send only if no component
    /// here took the token; once one did, the obligation is discharged
    /// and the send past it is a new one with a fresh guid. A drained
    /// token that goes straight to the wire is sent chained.
    ///
    /// Only the first component records a ledger entry, as
    /// [`Arrival`] says: a ledger hit can only happen there, since an
    /// injected token is new and a later local hop follows a component
    /// that has just consumed the token once.
    pub(super) fn route(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        arrival: Arrival,
        t: Token,
        start: Option<ComponentId>,
    ) {
        let Token { id: token, mut addr, injected_at, hops } = t;
        let (dedup, traced) = self.token_flags(token);
        let now = ctx.now();
        let onward = match arrival {
            Arrival::Retry(ob) if start.is_none() => Some(ob),
            Arrival::Retry(ob) => {
                self.watermarks.discharge(ob.guid, ob.copies);
                None
            }
            Arrival::Injected | Arrival::Wire { .. } | Arrival::Drained => None,
        };
        let chained = matches!(arrival, Arrival::Drained) && start.is_none();
        let mut record = arrival.record();
        let mut candidate = start;
        while let Some(id) = candidate {
            let level = id.level() as u64;
            let hosted = self.components.get_mut(&id).expect("candidate is hosted");
            if hosted.frozen {
                hosted.buffer.push(Token { addr, ..t });
                if traced {
                    self.trace(self.span("token.buffer", token, now).with("level", level));
                }
                return;
            }
            let entry = (token, addr);
            let fresh = match record.take() {
                _ if !dedup => true,
                Some(tag) => hosted.seen.record(entry, tag),
                None => {
                    debug_assert!(
                        !hosted.seen.contains(&entry),
                        "ledger hit for token {token} at {addr} after {arrival:?}, where none can be"
                    );
                    true
                }
            };
            if !fresh {
                // This component (or its lineage) already consumed this
                // token at this wire: the copy is a re-routed
                // retransmission whose original was delayed, not lost.
                // Dropping it here keeps the balancer states — and hence
                // the step property — exactly as if the token traversed
                // once.
                {
                    let mut w = self.world.borrow_mut();
                    w.duplicate_traversal_drops += 1;
                    w.metrics.dup_traversals.inc();
                }
                if traced {
                    self.trace(self.span("token.dup_drop", token, now).with("level", level));
                }
                return;
            }
            let in_port = input_port_of(&self.tree, &id, &addr, self.style);
            let port = hosted.comp.process_token(in_port);
            if traced {
                self.trace(
                    self.span("token.route", token, now)
                        .with("level", level)
                        .with("in_port", in_port.map_or(u64::MAX, |p| p as u64))
                        .with("out_port", port as u64),
                );
            }
            match resolve_output(&self.tree, &id, port, self.style) {
                OutputDestination::NetworkOutput(wire) => {
                    let hops = u64::from(hops);
                    self.metrics().routing_hops.record(hops);
                    if traced {
                        self.trace(
                            self.span("token.exit", token, now)
                                .with("wire", wire as u64)
                                .with("hops", hops),
                        );
                    }
                    ctx.send(COLLECTOR, Msg::Exit { wire, token, injected_at, hops });
                    return;
                }
                OutputDestination::Wire(next) => {
                    addr = next;
                    candidate = self.hosted_candidate(&addr);
                }
            }
        }
        let ob = onward.unwrap_or_else(|| Obligation {
            guid: self.world.borrow_mut().fresh_guid(),
            chained,
            copies: Copies::Unsent,
        });
        self.send_token(ctx, ob, Token { addr, ..t }, ATTEMPT_CACHED);
    }

    /// Sends a token towards a guessed owner of its wire address under
    /// obligation `ob`, registering it for retransmission, and stamps
    /// the copy with this link's ack watermark. `attempt` is
    /// `ATTEMPT_CACHED` for the cache-directed first try, otherwise the
    /// number of levels above the balancer to probe: the owner
    /// candidates of a wire are the prefixes of its balancer's path,
    /// deepest first.
    pub(super) fn send_token(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        mut ob: Obligation,
        t: Token,
        attempt: u8,
    ) {
        let traced = self.world.borrow().tracer.should_sample(t.id);
        let Obligation { guid, chained, .. } = ob;
        let balancer = t.addr.balancer();
        let depth = balancer.level();
        let mut attempt = attempt;
        loop {
            let guess = if attempt == ATTEMPT_CACHED {
                let level = self.cache.get(&t.addr).copied().unwrap_or(self.level);
                balancer.prefix(level.min(depth))
            } else if usize::from(attempt) <= depth {
                balancer.prefix(depth - usize::from(attempt))
            } else {
                // Chain exhausted (reconfiguration window): keep the
                // obligation and let the retry timer start over.
                self.unacked.insert(guid, UnackedToken { t, sent_at: ctx.now(), ob });
                self.arm_retry(ctx);
                return;
            };
            let host = self.owner_of(&guess);
            if ProcessId(host.0) == ctx.self_id() && !self.components.contains_key(&guess) {
                // We own this name and know it is dead; skip ahead.
                attempt = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
                continue;
            }
            self.cache.insert(t.addr, guess.level());
            let to = ProcessId(host.0);
            let was_scattered = ob.copies == Copies::Scattered;
            let acked_below = self.watermarks.send(guid, &mut ob.copies, to);
            if !was_scattered && ob.copies == Copies::Scattered {
                self.note_scattered();
            }
            self.unacked.insert(guid, UnackedToken { t, sent_at: ctx.now(), ob });
            self.arm_retry(ctx);
            if traced {
                self.trace(
                    self.span("token.send", t.id, ctx.now())
                        .with("to", host.0)
                        .with("guid", guid)
                        .with("hops", u64::from(t.hops)),
                );
            }
            ctx.send_lossy(to, t.into_msg(Header { guid, attempt, acked_below, chained }));
            return;
        }
    }

    /// A client hands this node a token for network input `wire`: name
    /// it, open its trace, route it.
    pub(super) fn on_inject(&mut self, ctx: &mut Context<'_, Msg>, wire: usize) {
        let addr = network_input_address(&self.tree, wire, self.style);
        let now = ctx.now();
        let id = {
            let mut w = self.world.borrow_mut();
            let id = w.fresh_token_id();
            if w.tracer.should_sample(id) {
                w.tracer.open_trace(id, now);
                w.tracer.record(self.span("token.inject", id, now).with("wire", wire as u64));
            }
            id
        };
        let start = self.entry_point(&addr);
        self.route(ctx, Arrival::Injected, Token { id, addr, injected_at: now, hops: 0 }, start);
    }

    /// A peer forwards a token: forget what the sender's watermark
    /// retires, suppress a duplicate send, NACK what this node does not
    /// own, shed under backpressure, otherwise accept, ack and route
    /// on.
    pub(super) fn on_token(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        t: Token,
        h: Header,
    ) {
        let Header { guid, attempt, acked_below, chained } = h;
        let (dedup, traced) = self.token_flags(t.id);
        let now = ctx.now();
        let span = |node: &Self, kind| node.span(kind, t.id, now).with("guid", guid);
        // First, whatever becomes of this copy: the sender has sent no
        // guid below `acked_below` here that is unacked or went
        // elsewhere, and the link is FIFO, so every copy of the guids
        // accepted from it below the mark has arrived. Forget them, and
        // the ledger entries they recorded on components still here —
        // where they were recorded, or at the split child that
        // inherited them since.
        let components = &mut self.components;
        self.accepted.prune(from, acked_below, |(entry, level), tag| {
            let mut forget =
                |c: &ComponentId| components.get_mut(c).is_some_and(|h| h.seen.forget(&entry, tag));
            if !forget(&entry.1.balancer().prefix(level.into())) {
                entry.1.candidates().any(|c| forget(&c));
            }
        });
        if dedup && self.accepted.contains(from, guid) {
            // Duplicate (retransmission raced the ack): already
            // accepted; just re-acknowledge.
            if traced {
                self.trace(span(self, "token.dup_recv"));
            }
            ctx.send(from, Msg::TokenAck { guid });
            return;
        }
        // One probe of the candidate chain answers all three questions:
        // do we own the wire, is its owner shedding, and where does
        // routing start.
        let candidate = self.entry_point(&t.addr);
        let Some(id) = candidate else {
            {
                let mut w = self.world.borrow_mut();
                w.token_nacks += 1;
                w.metrics.nacks.inc();
            }
            if traced {
                self.trace(span(self, "token.nack"));
            }
            if from == ProcessId::EXTERNAL {
                // Re-injected buffer token with no live sender: adopt
                // the obligation ourselves. The guid changed hands, so
                // it counts as scattered: it holds back every link it
                // is sent down from here.
                self.note_scattered();
                let ob = Obligation { guid, chained, copies: Copies::Scattered };
                self.send_token(ctx, ob, t, attempt);
            } else {
                ctx.send(from, Msg::TokenNack { guid, attempt });
            }
            return;
        };
        let owner = &self.components[&id];
        if from != ProcessId::EXTERNAL
            && owner.frozen
            && owner.buffer.len() >= self.frozen_buffer_cap
        {
            // Backpressure: the owning component is frozen and its
            // buffer is at capacity. Shed the token back to the sender
            // instead of queueing unboundedly — the sender keeps the
            // obligation, escalates its backoff, and retries after the
            // freeze drains.
            self.metrics().busy_sheds.inc();
            if traced {
                self.trace(span(self, "token.busy"));
            }
            ctx.send(from, Msg::TokenBusy { guid });
            return;
        }
        // The entry the first component will tag with this arrival.
        let twin = (!chained).then(|| ((t.id, t.addr), id.level() as u8));
        self.accepted.accept(from, guid, twin);
        // Accepting the forward counts as one routing hop.
        let t = Token { hops: t.hops + 1, ..t };
        if traced {
            self.trace(
                self.span("token.deliver", t.id, now)
                    .with("from", from.0)
                    .with("guid", guid)
                    .with("hops", u64::from(t.hops)),
            );
        }
        ctx.send(from, Msg::TokenAck { guid });
        self.route(ctx, Arrival::Wire { from, guid, chained }, t, candidate);
    }

    /// A guid became scattered: counted, since each one holds back the
    /// ack watermark of the links it used for good.
    fn note_scattered(&self) {
        let mut w = self.world.borrow_mut();
        w.scattered_guids += 1;
        w.metrics.scattered_guids.inc();
    }

    /// The receiver accepted the send: the obligation is discharged.
    pub(super) fn on_token_ack(&mut self, guid: u64) {
        if let Some(u) = self.unacked.remove(&guid) {
            self.watermarks.discharge(guid, u.ob.copies);
            self.reset_backoff();
        }
    }

    /// The receiver hosts no live candidate: advance the probe. (A NACK
    /// for an obligation already satisfied through a different path is
    /// stale.)
    pub(super) fn on_token_nack(&mut self, ctx: &mut Context<'_, Msg>, guid: u64, attempt: u8) {
        if let Some(u) = self.unacked.remove(&guid) {
            let next = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
            self.send_token(ctx, u.ob, u.t, next);
        }
    }

    /// The receiver shed the token under backpressure: the obligation
    /// stays ours. Make it immediately eligible for the next retry pass
    /// and widen the retry interval.
    pub(super) fn on_token_busy(&mut self, ctx: &mut Context<'_, Msg>, guid: u64) {
        if let Some(u) = self.unacked.get_mut(&guid) {
            u.sent_at = ctx.now().saturating_sub(self.level_period);
            self.escalate_backoff();
            self.arm_retry(ctx);
        }
    }

    /// The retry timer fired: retransmit every token obligation that
    /// has been silent for longer than the retry interval (lost
    /// message, or an exhausted probe chain waiting out a
    /// reconfiguration window), then re-drive deferred merge
    /// collections.
    pub(super) fn retry_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.retry_armed = false;
        let timeout = self.level_period / 4;
        let now = ctx.now();
        let stale: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, u)| now.saturating_sub(u.sent_at) >= timeout)
            .map(|(&g, _)| g)
            .collect();
        if !stale.is_empty() {
            // A full interval elapsed without an ack: widen the next
            // one (reset happens on the first ack).
            self.escalate_backoff();
        }
        for guid in stale {
            let UnackedToken { t, sent_at, ob } = self.unacked.remove(&guid).expect("listed above");
            {
                let mut w = self.world.borrow_mut();
                w.token_retransmits += 1;
                w.metrics.retransmits.inc();
                if w.tracer.should_sample(t.id) {
                    w.tracer.record(
                        self.span("token.retry", t.id, now)
                            .with("guid", guid)
                            .with("silent_for", now.saturating_sub(sent_at)),
                    );
                }
            }
            // Re-route: we may host the owner by now. The timed-out
            // send may *still* arrive (silence is not loss): this copy
            // and the in-flight one then race on *different* paths,
            // where no receiver-side GUID check can see both. The
            // stable `t.id` travels with both, and the component
            // ledgers and the collector count it once.
            let start = self.entry_point(&t.addr);
            self.route(ctx, Arrival::Retry(ob), t, start);
        }
        self.retry_collects(ctx);
        if !self.unacked.is_empty() || !self.stuck_collects.is_empty() {
            self.arm_retry(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: u64 = 2_000;

    #[test]
    fn backoff_starts_at_a_quarter_period_doubles_and_caps_at_one_period() {
        let mut b = Backoff::new(NodeId(7));
        let base = PERIOD / 4 + 1;
        assert_eq!(b.current(PERIOD), base);
        assert!(!b.reset(), "nothing to reset at base");
        b.escalate(PERIOD);
        assert_eq!(b.current(PERIOD), 2 * base);
        b.escalate(PERIOD);
        assert_eq!(b.current(PERIOD), PERIOD, "4 * base is past the cap");
        b.escalate(PERIOD);
        assert_eq!(b.current(PERIOD), PERIOD);
        assert!(b.reset());
        assert_eq!(b.current(PERIOD), base);
        assert!(!b.reset(), "reset reports a change only once");
    }

    #[test]
    fn backoff_jitter_stays_below_a_quarter_interval_and_replays_from_the_node_id() {
        let (mut a, mut twin, mut other) =
            (Backoff::new(NodeId(42)), Backoff::new(NodeId(42)), Backoff::new(NodeId(43)));
        let mut diverged = false;
        for round in 0..64 {
            let interval = a.current(PERIOD);
            let delay = a.next_delay(PERIOD);
            assert!(delay >= interval && delay - interval < interval / 4 + 1, "{delay} of {interval}");
            assert_eq!(twin.next_delay(PERIOD), delay, "same node id, same jitter stream");
            diverged |= other.next_delay(PERIOD) != delay;
            if round % 16 == 15 {
                for b in [&mut a, &mut twin, &mut other] {
                    b.escalate(PERIOD);
                }
            }
        }
        assert!(diverged, "another node id draws another stream");
    }
}

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

/// When a memoised [`Hop`] was derived: the view epoch and the hosting
/// epoch. The view epoch moves whenever the ring can have changed, the
/// hosting epoch whenever the hosted set or a Section 3.5 cache guess
/// did; while both hold, deriving the hop again gives the same answer.
/// The node's level is no input: a remote hop is memoised by the send
/// that stored its guess in the cache, and the guess reads that entry
/// from then on.
pub(super) type Stamp = (u64, u64);

/// Where a token leaving a hosted component's port goes next, as this
/// node sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hop {
    /// Out of the network, to the collector.
    Exit,
    /// On to a component hosted here.
    Local(ComponentId),
    /// To the wire's owner as the Section 3.5 cache guesses it, and the
    /// node the view names for that guess.
    Remote { guess: ComponentId, host: NodeId },
}

/// One output port's memoised route: where its wire leads in `T_w`
/// (cut-independent: it never goes stale), and the next hop with the
/// stamp it was derived at.
#[derive(Debug, Clone, Copy)]
pub(super) struct Route {
    dest: OutputDestination,
    next: Option<(Stamp, Hop)>,
}

impl Route {
    /// The next hop, if it was derived at `stamp`.
    fn hop(&self, stamp: Stamp) -> Option<Hop> {
        self.next.filter(|&(at, _)| at == stamp).map(|(_, hop)| hop)
    }
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
    /// [`World::token_flags`](super::world::World::token_flags) of `token`.
    pub(super) fn token_flags(&self, token: u64) -> (bool, bool) {
        self.world.borrow().token_flags(token)
    }

    /// The hash owner of component `id` per this node's *local view*:
    /// one DHT lookup in a real deployment, and counted as one. A token
    /// hop over a memoised [`Route`] does not call it, so on the token
    /// path it counts the route cache's misses, not the sends.
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
        self.components.deepest_candidate(addr)
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

    /// What memoised routes are valid at now.
    fn stamp(&self) -> Stamp {
        (self.view.epoch(), self.components.epoch())
    }

    /// The owner guess for `addr` the Section 3.5 cache directs a first
    /// try to: the level last seen owning it, else this node's own.
    fn cached_guess(&self, addr: &WireAddress) -> ComponentId {
        let balancer = addr.balancer();
        let level = self.cache.get(addr).copied().unwrap_or(self.level);
        balancer.prefix(level.min(balancer.level()))
    }

    /// The next hop towards `dest`, derived from scratch without
    /// counting a lookup: what a memoised hop must equal while its
    /// stamp holds. `None` where a send skips ahead — the guess is a
    /// component this node owns by hash and does not host — which is
    /// never memoised.
    fn derive_hop(&self, dest: &OutputDestination) -> Option<Hop> {
        let OutputDestination::Wire(next) = dest else { return Some(Hop::Exit) };
        if let Some(candidate) = self.hosted_candidate(next) {
            return Some(Hop::Local(candidate));
        }
        let guess = self.cached_guess(next);
        let host = self.view.owner_of_name(self.tree.preorder_index(&guess));
        (host != self.node || self.components.contains_key(&guess))
            .then_some(Hop::Remote { guess, host })
    }

    /// Memoises `hop`, derived just now, as the next hop out of `port`
    /// of hosted `id`.
    fn memoise(&mut self, id: &ComponentId, port: usize, dest: OutputDestination, hop: Hop) {
        let stamp = self.stamp();
        let hosted = self.components.get_mut(id).expect("memoised at a hosted component");
        if hosted.routes.is_empty() {
            hosted.routes = vec![None; hosted.comp.width()];
        }
        hosted.routes[port] = Some(Route { dest, next: Some((stamp, hop)) });
    }

    /// Re-routes tokens drained from a frozen buffer (a split or merge
    /// finished, a freeze was released, a hand-off landed). No ghost
    /// check: a departed node still processes its own drained tokens at
    /// whatever it hosts.
    pub(super) fn drain(&mut self, ctx: &mut Context<'_, Msg>, buffer: Vec<Token>) {
        for t in buffer {
            let start = self.hosted_candidate(&t.addr);
            let flags = self.token_flags(t.id);
            self.route(ctx, Arrival::Drained, t, start, flags);
        }
    }

    /// Routes a token: processes it at `start` and onwards for as long
    /// as this node hosts the next owner, then sends it on (or to the
    /// collector). `start` is the hosted candidate of `t.addr` the
    /// caller probed, `None` to go straight to the wire. The retry
    /// pass's obligation names the onward send only if no component
    /// here took the token; once one did, the obligation is discharged
    /// and the send past it is a new one with a fresh guid. A drained
    /// token that goes straight to the wire is sent chained. `flags`
    /// are the token's [`token_flags`](Self::token_flags), which the
    /// caller has read already.
    ///
    /// Only the first component records a ledger entry, as
    /// [`Arrival`] says: a ledger hit can only happen there, since an
    /// injected token is new and a later local hop follows a component
    /// that has just consumed the token once.
    ///
    /// A token leaves each component by the port's memoised [`Route`]
    /// while its stamp holds; otherwise the hop is derived again and
    /// memoised, a remote one by the send that resolves it.
    pub(super) fn route(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        arrival: Arrival,
        t: Token,
        start: Option<ComponentId>,
        (dedup, traced): (bool, bool),
    ) {
        let Token { id: token, mut addr, injected_at, hops } = t;
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
        // Processing a token changes nothing a route derives from, so
        // one stamp serves every hop here.
        let stamp = self.stamp();
        // How the token leaves for the wire: by a memoised remote hop,
        // or by a send that may memoise one at the port it left by.
        let (mut remote, mut unrouted) = (None, None);
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
            let memo = hosted.routes.get(port).copied().flatten();
            if traced {
                self.trace(
                    self.span("token.route", token, now)
                        .with("level", level)
                        .with("in_port", in_port.map_or(u64::MAX, |p| p as u64))
                        .with("out_port", port as u64),
                );
            }
            let (dest, hop) = match memo {
                Some(route) => (route.dest, route.hop(stamp)),
                None => (resolve_output(&self.tree, &id, port, self.style), None),
            };
            let hop = match hop {
                Some(hop) => {
                    debug_assert!(
                        self.rederives(&id, port, &dest, hop),
                        "memoised route out of {id} port {port} is stale: {hop:?}"
                    );
                    Some(hop)
                }
                None => {
                    let hop = match dest {
                        OutputDestination::NetworkOutput(_) => Some(Hop::Exit),
                        OutputDestination::Wire(next) => {
                            self.hosted_candidate(&next).map(Hop::Local)
                        }
                    };
                    match hop {
                        Some(hop) => self.memoise(&id, port, dest, hop),
                        None => unrouted = Some((id, port, dest)),
                    }
                    hop
                }
            };
            match dest {
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
                    candidate = match hop {
                        Some(Hop::Local(next)) => Some(next),
                        _ => {
                            remote = hop;
                            None
                        }
                    };
                }
            }
        }
        let ob = onward.unwrap_or_else(|| Obligation {
            guid: self.world.borrow_mut().fresh_guid(),
            chained,
            copies: Copies::Unsent,
        });
        let t = Token { addr, ..t };
        if let Some(Hop::Remote { host, .. }) = remote {
            self.transmit(ctx, ob, t, ATTEMPT_CACHED, host, traced);
        } else if let Some(hop) = self.send_token(ctx, ob, t, ATTEMPT_CACHED, traced) {
            if let Some((id, port, dest)) = unrouted {
                self.memoise(&id, port, dest, hop);
            }
        }
    }

    /// Whether a memoised hop out of `port` of `id` is what deriving it
    /// again gives: the destination, the local candidate, the owner
    /// guess and its host — and, for a remote hop, the cache entry the
    /// send that memoised it left.
    fn rederives(&self, id: &ComponentId, port: usize, dest: &OutputDestination, hop: Hop) -> bool {
        let cached = match (dest, hop) {
            (OutputDestination::Wire(next), Hop::Remote { guess, .. }) => {
                self.cache.get(next) == Some(&guess.level())
            }
            _ => true,
        };
        cached
            && *dest == resolve_output(&self.tree, id, port, self.style)
            && self.derive_hop(dest) == Some(hop)
    }

    /// Sends a token towards a guessed owner of its wire address under
    /// obligation `ob`, registering it for retransmission, and stamps
    /// the copy with this link's ack watermark. `attempt` is
    /// `ATTEMPT_CACHED` for the cache-directed first try, otherwise the
    /// number of levels above the balancer to probe: the owner
    /// candidates of a wire are the prefixes of its balancer's path,
    /// deepest first. `traced` is whether the token's spans are
    /// sampled.
    ///
    /// Returns the hop a cache-directed send went out by as first
    /// tried, which the port the token left by may memoise; `None` when
    /// it probed, skipped ahead or parked the token.
    pub(super) fn send_token(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        ob: Obligation,
        t: Token,
        attempt: u8,
        traced: bool,
    ) -> Option<Hop> {
        let depth = t.addr.balancer().level();
        let mut attempt = attempt;
        loop {
            let guess = if attempt == ATTEMPT_CACHED {
                self.cached_guess(&t.addr)
            } else if usize::from(attempt) <= depth {
                t.addr.balancer().prefix(depth - usize::from(attempt))
            } else {
                // Chain exhausted (reconfiguration window): keep the
                // obligation and let the retry timer start over.
                self.unacked.insert(ob.guid, UnackedToken { t, sent_at: ctx.now(), ob });
                self.arm_retry(ctx);
                return None;
            };
            let host = self.owner_of(&guess);
            if ProcessId(host.0) == ctx.self_id() && !self.components.contains_key(&guess) {
                // We own this name and know it is dead; skip ahead.
                attempt = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
                continue;
            }
            let level = guess.level();
            if self.cache.get(&t.addr) != Some(&level) {
                // A first try went where `cached_guess` already pointed,
                // so what it stores changes no route.
                if attempt != ATTEMPT_CACHED {
                    self.components.touch();
                }
                self.cache.insert(t.addr, level);
            }
            self.transmit(ctx, ob, t, attempt, host, traced);
            return (attempt == ATTEMPT_CACHED).then_some(Hop::Remote { guess, host });
        }
    }

    /// Puts one copy of `t` on the wire to `host` under obligation
    /// `ob` and probe `attempt`: registers it for retransmission and
    /// stamps it with the link's ack watermark.
    fn transmit(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        mut ob: Obligation,
        t: Token,
        attempt: u8,
        host: NodeId,
        traced: bool,
    ) {
        let Obligation { guid, chained, .. } = ob;
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
    }

    /// A client hands this node a token for network input `wire`: name
    /// it, open its trace, route it.
    pub(super) fn on_inject(&mut self, ctx: &mut Context<'_, Msg>, wire: usize) {
        let addr = network_input_address(&self.tree, wire, self.style);
        let now = ctx.now();
        let (id, flags) = {
            let mut w = self.world.borrow_mut();
            let id = w.fresh_token_id();
            let flags = w.token_flags(id);
            if flags.1 {
                w.tracer.open_trace(id, now);
                w.tracer.record(self.span("token.inject", id, now).with("wire", wire as u64));
            }
            (id, flags)
        };
        let start = self.entry_point(&addr);
        let t = Token { id, addr, injected_at: now, hops: 0 };
        self.route(ctx, Arrival::Injected, t, start, flags);
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
        let flags = self.token_flags(t.id);
        let (dedup, traced) = flags;
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
                self.send_token(ctx, ob, t, attempt, traced);
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
        self.route(ctx, Arrival::Wire { from, guid, chained }, t, candidate, flags);
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
        if let Some(u) = self.unacked.remove(guid) {
            self.watermarks.discharge(guid, u.ob.copies);
            self.reset_backoff();
        }
    }

    /// The receiver hosts no live candidate: advance the probe. (A NACK
    /// for an obligation already satisfied through a different path is
    /// stale.)
    pub(super) fn on_token_nack(&mut self, ctx: &mut Context<'_, Msg>, guid: u64, attempt: u8) {
        if let Some(u) = self.unacked.remove(guid) {
            let next = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
            let (_, traced) = self.token_flags(u.t.id);
            self.send_token(ctx, u.ob, u.t, next, traced);
        }
    }

    /// The receiver shed the token under backpressure: the obligation
    /// stays ours. Make it immediately eligible for the next retry pass
    /// and widen the retry interval.
    pub(super) fn on_token_busy(&mut self, ctx: &mut Context<'_, Msg>, guid: u64) {
        if let Some(u) = self.unacked.get_mut(guid) {
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
            .map(|(g, _)| g)
            .collect();
        if !stale.is_empty() {
            // A full interval elapsed without an ack: widen the next
            // one (reset happens on the first ack).
            self.escalate_backoff();
        }
        for guid in stale {
            let UnackedToken { t, sent_at, ob } = self.unacked.remove(guid).expect("listed above");
            let flags = {
                let mut w = self.world.borrow_mut();
                w.token_retransmits += 1;
                w.metrics.retransmits.inc();
                let flags = w.token_flags(t.id);
                if flags.1 {
                    w.tracer.record(
                        self.span("token.retry", t.id, now)
                            .with("guid", guid)
                            .with("silent_for", now.saturating_sub(sent_at)),
                    );
                }
                flags
            };
            // Re-route: we may host the owner by now. The timed-out
            // send may *still* arrive (silence is not loss): this copy
            // and the in-flight one then race on *different* paths,
            // where no receiver-side GUID check can see both. The
            // stable `t.id` travels with both, and the component
            // ledgers and the collector count it once.
            let start = self.entry_point(&t.addr);
            self.route(ctx, Arrival::Retry(ob), t, start, flags);
        }
        self.retry_collects(ctx);
        if !self.unacked.is_empty() || !self.stuck_collects.is_empty() {
            self.arm_retry(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::dedup::Ledger;
    use super::super::world::World;
    use super::*;
    use crate::component::Component;
    use acn_overlay::Ring;

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

    /// The stamp moves with everything a hop derives from — the hosted
    /// set, a touch (a cached owner guess changed) and the view — and
    /// with nothing else.
    #[test]
    fn the_stamp_moves_with_the_hosted_set_a_touch_and_the_view() {
        let mut np = NodeProc::new(World::new(16, Ring::new()), NodeId(1), 1000);
        let (tree, root) = (np.tree, ComponentId::root());
        let mut last = np.stamp();
        let mut moved = |np: &NodeProc| {
            let now = np.stamp();
            std::mem::replace(&mut last, now) != now
        };
        np.install(Component::new(&tree, &root), Ledger::default());
        assert!(moved(&np), "an install");
        assert!(np.components.remove(&root.child(0)).is_none());
        assert!(!moved(&np), "removing what is not hosted");
        assert!(np.components.remove(&root).is_some());
        assert!(moved(&np), "a removal");
        np.components.touch();
        assert!(moved(&np), "a touch");
        np.seed_view([NodeId(2)]);
        assert!(moved(&np), "a view that learned a node");
        np.seed_view([NodeId(2)]);
        assert!(!moved(&np), "a view that learned nothing");
    }

    /// With every child of the root hosted, each port of the first one
    /// leads out of the network or to a sibling hosted here. Once the
    /// siblings are gone, on a node that owns every name by hash, those
    /// ports have no hop to memoise: the send skips ahead.
    #[test]
    fn a_derived_hop_follows_the_hosted_set() {
        let mut np = NodeProc::new(World::new(16, Ring::new()), NodeId(1), 1000);
        let (tree, style) = (np.tree, np.style);
        let children = tree.children(&ComponentId::root());
        for c in &children {
            np.install(Component::new(&tree, c), Ledger::default());
        }
        let first = children[0];
        let dests: Vec<OutputDestination> = (0..np.components[&first].comp.width())
            .map(|port| resolve_output(&tree, &first, port, style))
            .collect();
        for dest in &dests {
            match (dest, np.derive_hop(dest)) {
                (OutputDestination::NetworkOutput(_), Some(Hop::Exit)) => {}
                (OutputDestination::Wire(next), Some(Hop::Local(c))) => {
                    assert!(c != first && next.candidates().any(|x| x == c), "{next} -> {c}");
                }
                other => panic!("{other:?}"),
            }
        }
        for c in &children[1..] {
            assert!(np.components.remove(c).is_some());
        }
        for dest in &dests {
            let hop = np.derive_hop(dest);
            assert_eq!(hop, matches!(dest, OutputDestination::NetworkOutput(_)).then_some(Hop::Exit));
        }
    }
}

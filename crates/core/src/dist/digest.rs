//! The canonical state fingerprint the schedule explorer memoizes on:
//! every field that influences future behaviour, with allocator-issued
//! ids renamed to first-encounter indices.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use acn_simnet::ProcessId;

use super::dedup::Ledger;
use super::deploy::{Collector, Deployment, Proc};
use super::msg::{Msg, SeenTokens, Token};
use super::node::NodeProc;
use super::world::World;

/// Accumulator for [`Deployment::canonical_fingerprint`]: a running
/// hash plus first-encounter renaming maps for the two allocator-issued
/// id spaces (per-send GUIDs and end-to-end token ids). Renaming is a
/// bijection, so two states that differ only in *which* raw ids their
/// tokens drew — e.g. the same protocol state reached after injecting
/// tokens in a different order — digest to the same value, while states
/// that differ in any causal respect keep distinct digests (up to hash
/// collisions, which at worst hide a schedule from an explorer that
/// treats the digest as "already seen").
struct StateDigest {
    h: std::collections::hash_map::DefaultHasher,
    /// Raw GUID -> canonical index, in digest-encounter order.
    guids: BTreeMap<u64, u64>,
    /// Raw token id -> canonical index, in digest-encounter order.
    tokens: BTreeMap<u64, u64>,
}

impl StateDigest {
    fn new() -> Self {
        StateDigest {
            h: std::collections::hash_map::DefaultHasher::new(),
            guids: BTreeMap::new(),
            tokens: BTreeMap::new(),
        }
    }

    /// Folds one machine word into the digest.
    fn word(&mut self, w: u64) {
        w.hash(&mut self.h);
    }

    /// Folds any hashable value into the digest. Only for values free
    /// of allocator-issued ids (components, addresses, caches).
    fn item<T: Hash + ?Sized>(&mut self, t: &T) {
        t.hash(&mut self.h);
    }

    /// Folds a per-send GUID under the canonical renaming.
    fn guid(&mut self, g: u64) {
        let next = self.guids.len() as u64;
        let renamed = *self.guids.entry(g).or_insert(next);
        self.word(renamed);
    }

    /// Folds an end-to-end token id under the canonical renaming.
    fn token(&mut self, t: u64) {
        let next = self.tokens.len() as u64;
        let renamed = *self.tokens.entry(t).or_insert(next);
        self.word(renamed);
    }

    fn finish(self) -> u64 {
        self.h.finish()
    }
}

impl Token {
    /// Folds the token, its id renamed.
    fn digest(&self, d: &mut StateDigest) {
        d.token(self.id);
        d.item(&self.addr);
        d.word(self.injected_at);
        d.word(u64::from(self.hops));
    }
}

/// Folds a buffer of tokens in order.
fn digest_tokens(tokens: &[Token], d: &mut StateDigest) {
    d.word(tokens.len() as u64);
    for t in tokens {
        t.digest(d);
    }
}

/// Folds a travelling idempotency ledger (token ids renamed).
fn digest_seen(seen: &SeenTokens, d: &mut StateDigest) {
    d.word(seen.len() as u64);
    for (token, addr) in seen {
        d.token(*token);
        d.item(addr);
    }
}

/// `(sender, guid)` pairs a copy can still arrive under: obligations
/// their sender still holds, and copies in flight. Sorted, for
/// `binary_search`.
struct Reachable(Vec<(ProcessId, u64)>);

impl Reachable {
    fn contains(&self, arrival: &(ProcessId, u64)) -> bool {
        self.0.binary_search(arrival).is_ok()
    }
}

/// Folds a hosted component's ledger: every pinned entry, and the
/// tagged ones whose arrival a copy can still repeat, as one sorted
/// set. An entry tagged with a retired arrival decides nothing any more
/// (no copy of that `(token, addr)` can come), whether or not the node
/// has forgotten it yet.
fn digest_ledger(ledger: &Ledger, reachable: &Reachable, d: &mut StateDigest) {
    let live = || {
        ledger.tagged_entries().filter(|(_, tag)| reachable.contains(tag)).map(|(entry, _)| entry)
    };
    let mut pinned = ledger.pinned_entries().iter().peekable();
    let mut tagged = live().peekable();
    d.word((ledger.pinned_entries().len() + live().count()) as u64);
    // Both kinds in one key order (a key is never both pinned and
    // tagged), as the union of the two sets would iterate.
    while let Some((token, addr)) = match (pinned.peek(), tagged.peek()) {
        (Some(p), Some(t)) if p < t => pinned.next(),
        (Some(_), None) => pinned.next(),
        _ => tagged.next(),
    } {
        d.token(*token);
        d.item(addr);
    }
}

impl Msg {
    /// Folds the message into a [`StateDigest`], renaming GUIDs and
    /// token ids. Variants are tagged so field coincidences between
    /// different message kinds cannot collide.
    fn digest(&self, d: &mut StateDigest) {
        match self {
            Msg::ClientInject { wire } => d.item(&(0u8, wire)),
            // `acked_below` and `chained` are left out: like the
            // sender's watermark table they come from, they only decide
            // what gets forgotten.
            Msg::Token { guid, token, addr, injected_at, attempt, hops, .. } => {
                d.item(&(1u8, attempt));
                d.guid(*guid);
                Token { id: *token, addr: *addr, injected_at: *injected_at, hops: *hops }.digest(d);
            }
            Msg::TokenAck { guid } => {
                d.word(2);
                d.guid(*guid);
            }
            Msg::TokenNack { guid, attempt } => {
                d.item(&(3u8, attempt));
                d.guid(*guid);
            }
            Msg::Exit { wire, token, injected_at, hops } => {
                d.item(&(4u8, wire, injected_at, hops));
                d.token(*token);
            }
            Msg::HandOff { comp, seen, buffer } => {
                d.item(&(5u8, comp));
                digest_seen(seen, d);
                digest_tokens(buffer, d);
            }
            Msg::HandOffAck { id } => d.item(&(6u8, id)),
            Msg::FreezeCollect { id, parent } => d.item(&(7u8, id, parent)),
            Msg::CollectReply { comp, seen, parent } => {
                d.item(&(8u8, comp, parent));
                digest_seen(seen, d);
            }
            Msg::CollectMissing { id, parent } => d.item(&(9u8, id, parent)),
            Msg::RemoveFrozen { id } => d.item(&(10u8, id)),
            Msg::AbortFreeze { id } => d.item(&(11u8, id)),
            Msg::Ping => d.word(12),
            Msg::Pong => d.word(13),
            Msg::ViewGossip { known, dead } => d.item(&(14u8, known, dead)),
            Msg::RescueQuery => d.word(15),
            Msg::RescueReport { covered } => d.item(&(16u8, covered)),
            Msg::TokenBusy { guid } => {
                d.word(17);
                d.guid(*guid);
            }
            Msg::MergeOrphan { child, parent } => d.item(&(18u8, child, parent)),
            Msg::SplitListHandoff { entries } => d.item(&(19u8, entries)),
        }
    }
}

impl World {
    /// Folds the protocol-relevant world state: topology, membership,
    /// and mutation switches — not the statistics counters or the
    /// GUID/token allocators (the renaming quotient exists precisely
    /// to forget allocator positions). The crash and detection logs
    /// fold in *with timestamps*: the recovery oracles' verdicts depend
    /// on both, so two states that differ only in when a crash was
    /// detected must not be memoized as one.
    fn digest(&self, d: &mut StateDigest) {
        d.item(&(self.tree, self.style, self.mutation_no_ack_dedup));
        d.word(self.ring.len() as u64);
        for n in self.ring.nodes() {
            d.word(n.0);
        }
        d.item(&(&self.crashed, &self.detections));
    }
}

impl NodeProc {
    /// Folds every field that influences this node's future behaviour.
    /// Excludes `world` (digested once by the deployment), `tree`,
    /// `style` and `level_period` (deployment constants), the
    /// `started_at` of splits and merges (it only dates a telemetry
    /// record; folding it would split states that behave alike), and
    /// the ack watermark table — `watermarks`, and each obligation's
    /// copies and `chained` flag — which only decides what gets
    /// forgotten, never a dedup.
    /// Of the accepted guids and the ledgers it folds what can still
    /// decide a dedup: guids a copy can arrive under (`reachable`), the
    /// entries they recorded, and every pinned entry. Whether a retired
    /// guid is still held depends on which watermark happened to
    /// arrive last, not on anything to come.
    fn digest(&self, d: &mut StateDigest, reachable: &Reachable) {
        d.item(&(self.node, self.level, self.retry_armed, self.rescue_again));
        d.item(&(&self.split_list, &self.stuck_collects, &self.cache, self.frozen_buffer_cap));
        // `last_heard` carries raw timestamps: freshness decisions
        // depend on them, so they must split states that would behave
        // differently — as a sweep's `started_at` does (it dates the
        // `rescue.duration` record the recovery budget reads).
        d.item(&(&self.view, &self.rescue, &self.backoff));
        d.word(self.components.len() as u64);
        for (id, hosted) in self.components.iter() {
            d.item(&(id, &hosted.comp, hosted.frozen, hosted.frozen_by));
            digest_tokens(&hosted.buffer, d);
            digest_ledger(&hosted.seen, reachable, d);
        }
        d.word(self.splits.len() as u64);
        for id in self.splits.keys() {
            d.item(id);
        }
        d.word(self.merges.len() as u64);
        for (id, op) in &self.merges {
            d.item(&(id, &op.reporters, op.stalled_rounds, op.requester));
            for entry in &op.collected {
                d.item(&entry.as_ref().map(|(comp, _)| comp));
                if let Some((_, seen)) = entry {
                    digest_seen(seen, d);
                }
            }
        }
        d.word(self.unacked.len() as u64);
        for (guid, u) in self.unacked.iter() {
            d.guid(guid);
            u.t.digest(d);
            d.word(u.sent_at);
        }
        let accepted = || self.accepted.iter().filter(|arrival| reachable.contains(arrival));
        d.word(accepted().count() as u64);
        for (from, guid) in accepted() {
            d.word(from.0);
            d.guid(guid);
        }
        d.word(self.handoffs.len() as u64);
        for (id, h) in &self.handoffs {
            d.item(&(id, &h.comp, h.sent_to, h.cause));
            digest_seen(&h.seen, d);
            digest_tokens(&h.buffer, d);
        }
    }
}

impl Collector {
    /// Folds the exactly-once state: per-wire counts, the dedup ledger
    /// (token ids renamed), the duplicate tally the oracles read, and
    /// the mutation switch. Latency aggregates are telemetry-only and
    /// excluded.
    fn digest(&self, d: &mut StateDigest) {
        d.item(&(&self.counts, self.duplicate_drops, self.mutation_no_dedup));
        d.word(self.seen.count());
        for t in self.seen.ids() {
            d.token(t);
        }
    }
}

impl Deployment {
    /// A canonical fingerprint of the complete deployment state: the
    /// world (topology, membership, mutation switches), the simulator
    /// clock, per-link delivery clocks, every pending event (headers in
    /// the canonical delivery order, payloads digested structurally —
    /// raw queue sequence numbers, which encode allocation order rather
    /// than behaviour, are excluded), and every process's protocol
    /// state.
    ///
    /// GUIDs and end-to-end token ids are renamed to first-encounter
    /// indices, so two states identical up to a bijective renaming of
    /// those allocator-issued ids — the id-symmetry quotient — produce
    /// the same fingerprint. The distributed schedule explorer keys its
    /// cross-execution memoization on this value; statistics counters
    /// and telemetry aggregates are deliberately excluded so observation
    /// never splits equivalence classes.
    #[must_use]
    pub fn canonical_fingerprint(&self) -> u64 {
        let mut d = StateDigest::new();
        self.world.borrow().digest(&mut d);
        d.item(&(self.level_period, self.sim.now()));
        d.item(&self.sim.link_clocks().collect::<Vec<_>>());
        let pending = self.sim.pending_snapshot();
        d.word(pending.len() as u64);
        for (ev, payload) in &pending {
            d.item(&(ev.time, ev.to, ev.from, ev.timer_tag, ev.lossy, payload.is_some()));
            if let Some(m) = payload {
                m.digest(&mut d);
            }
        }
        let pids: Vec<ProcessId> = self.sim.process_ids().collect();
        let mut reachable: Vec<(ProcessId, u64)> = pending
            .iter()
            .filter_map(|(ev, m)| match (ev.from, m) {
                (Some(from), Some(Msg::Token { guid, .. })) => Some((from, *guid)),
                _ => None,
            })
            .collect();
        for &pid in &pids {
            if let Some(Proc::Node(np)) = self.sim.process(pid) {
                reachable.extend(np.unacked.guids().map(|guid| (pid, guid)));
            }
        }
        reachable.sort_unstable();
        let reachable = Reachable(reachable);
        d.word(pids.len() as u64);
        for pid in pids {
            d.word(pid.0);
            match self.sim.process(pid) {
                Some(Proc::Node(np)) => {
                    d.word(1);
                    np.digest(&mut d, &reachable);
                }
                Some(Proc::Collector(c)) => {
                    d.word(2);
                    c.digest(&mut d);
                }
                None => d.word(0),
            }
        }
        d.finish()
    }
}

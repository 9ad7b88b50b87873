//! The canonical state fingerprint the schedule explorer memoizes on:
//! every field that influences future behaviour, with allocator-issued
//! ids renamed to first-encounter indices.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use acn_simnet::ProcessId;

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
        d.word(self.hops);
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

impl Msg {
    /// Folds the message into a [`StateDigest`], renaming GUIDs and
    /// token ids. Variants are tagged so field coincidences between
    /// different message kinds cannot collide.
    fn digest(&self, d: &mut StateDigest) {
        match self {
            Msg::ClientInject { wire } => {
                d.word(0);
                d.word(*wire as u64);
            }
            Msg::Token { guid, token, addr, injected_at, attempt, hops } => {
                d.word(1);
                d.guid(*guid);
                d.token(*token);
                d.item(addr);
                d.word(*injected_at);
                d.word(u64::from(*attempt));
                d.word(*hops);
            }
            Msg::TokenAck { guid } => {
                d.word(2);
                d.guid(*guid);
            }
            Msg::TokenNack { guid, attempt } => {
                d.word(3);
                d.guid(*guid);
                d.word(u64::from(*attempt));
            }
            Msg::Exit { wire, token, injected_at, hops } => {
                d.word(4);
                d.word(*wire as u64);
                d.token(*token);
                d.word(*injected_at);
                d.word(*hops);
            }
            Msg::Install { comp, seen } => {
                d.word(5);
                d.item(comp);
                digest_seen(seen, d);
            }
            Msg::InstallAck { id } => {
                d.word(6);
                d.item(id);
            }
            Msg::FreezeCollect { id, parent } => {
                d.word(7);
                d.item(id);
                d.item(parent);
            }
            Msg::CollectReply { comp, seen, parent } => {
                d.word(8);
                d.item(comp);
                digest_seen(seen, d);
                d.item(parent);
            }
            Msg::CollectMissing { id, parent } => {
                d.word(9);
                d.item(id);
                d.item(parent);
            }
            Msg::RemoveFrozen { id } => {
                d.word(10);
                d.item(id);
            }
            Msg::AbortFreeze { id } => {
                d.word(11);
                d.item(id);
            }
            Msg::Ping => d.word(12),
            Msg::Pong => d.word(13),
            Msg::ViewGossip { known, dead } => {
                d.word(14);
                d.item(known);
                d.item(dead);
            }
            Msg::RescueQuery => d.word(15),
            Msg::RescueReport { covered } => {
                d.word(16);
                d.word(covered.len() as u64);
                for (id, frozen) in covered {
                    d.item(id);
                    d.word(u64::from(*frozen));
                }
            }
            Msg::RescueInstall { comp } => {
                d.word(17);
                d.item(comp);
            }
            Msg::RescueAck { id } => {
                d.word(18);
                d.item(id);
            }
            Msg::TokenBusy { guid } => {
                d.word(19);
                d.guid(*guid);
            }
            Msg::Migrate { comp, seen, buffer } => {
                d.word(20);
                d.item(comp);
                digest_seen(seen, d);
                digest_tokens(buffer, d);
            }
            Msg::MigrateAck { id } => {
                d.word(21);
                d.item(id);
            }
            Msg::MergeOrphan { child, parent } => {
                d.word(22);
                d.item(child);
                d.item(parent);
            }
            Msg::SplitListHandoff { entries } => {
                d.word(23);
                d.item(entries);
            }
        }
    }
}

impl World {
    /// Folds the protocol-relevant world state: topology, membership,
    /// and mutation switches — not the statistics counters or the
    /// GUID/token allocators (the renaming quotient exists precisely
    /// to forget allocator positions).
    fn digest(&self, d: &mut StateDigest) {
        d.item(&self.tree);
        d.item(&self.style);
        d.word(self.ring.len() as u64);
        for n in self.ring.nodes() {
            d.word(n.0);
        }
        // Crash and detection logs fold in *with timestamps*: the
        // recovery oracles' verdicts depend on both, so two states
        // that differ only in when a crash was detected must not be
        // memoized as one.
        d.word(self.crashed.len() as u64);
        for (n, t) in &self.crashed {
            d.word(n.0);
            d.word(*t);
        }
        d.word(self.detections.len() as u64);
        for (n, t) in &self.detections {
            d.word(n.0);
            d.word(*t);
        }
        d.word(u64::from(self.mutation_no_ack_dedup));
    }
}

impl NodeProc {
    /// Folds every field that influences this node's future behaviour.
    /// Excludes `world` (digested once by the deployment) and
    /// `level_period` (a deployment constant).
    fn digest(&self, d: &mut StateDigest) {
        d.word(self.node.0);
        d.word(self.level as u64);
        d.word(u64::from(self.retry_armed));
        d.word(self.components.len() as u64);
        for (id, hosted) in &self.components {
            d.item(id);
            d.item(&hosted.comp);
            d.word(u64::from(hosted.frozen));
            d.word(hosted.frozen_by.map_or(u64::MAX, |p| p.0));
            digest_tokens(&hosted.buffer, d);
            digest_seen(&hosted.seen, d);
        }
        d.item(&self.split_list);
        d.word(self.splits.len() as u64);
        for (id, op) in &self.splits {
            d.item(id);
            d.item(&op.pending);
            digest_seen(&op.seen, d);
            d.word(u64::from(op.stalled_rounds));
        }
        d.word(self.merges.len() as u64);
        for (id, op) in &self.merges {
            d.item(id);
            d.word(op.collected.len() as u64);
            for entry in &op.collected {
                match entry {
                    Some((comp, seen)) => {
                        d.word(1);
                        d.item(comp);
                        digest_seen(seen, d);
                    }
                    None => d.word(0),
                }
            }
            d.word(op.reporters.len() as u64);
            for r in &op.reporters {
                d.word(r.map_or(u64::MAX, |p| p.0));
            }
            d.word(u64::from(op.stalled_rounds));
            d.word(u64::from(op.awaiting_install));
            match &op.requester {
                Some((pid, cid)) => {
                    d.word(1);
                    d.word(pid.0);
                    d.item(cid);
                }
                None => d.word(0),
            }
        }
        d.word(self.unacked.len() as u64);
        for (guid, u) in &self.unacked {
            d.guid(*guid);
            u.t.digest(d);
            d.word(u.sent_at);
        }
        d.word(self.seen.len() as u64);
        for g in &self.seen {
            d.guid(*g);
        }
        d.word(self.stuck_collects.len() as u64);
        for (id, parent) in &self.stuck_collects {
            d.item(id);
            d.item(parent);
        }
        d.item(&self.cache);
        // Failure-detector and membership state. `last_heard` carries
        // raw timestamps: freshness decisions depend on them, so they
        // must split states that would behave differently — as does a
        // sweep's `started_at` (it dates the `rescue.duration` record).
        d.item(&self.view);
        d.item(&self.rescue);
        d.word(u64::from(self.rescue_again));
        d.word(self.migrating.len() as u64);
        for (id, m) in &self.migrating {
            d.item(id);
            d.item(&m.comp);
            digest_seen(&m.seen, d);
            digest_tokens(&m.buffer, d);
            d.word(m.sent_at);
        }
        d.item(&self.backoff);
        d.word(self.frozen_buffer_cap as u64);
    }
}

impl Collector {
    /// Folds the exactly-once state: per-wire counts, the dedup ledger
    /// (token ids renamed), the duplicate tally the oracles read, and
    /// the mutation switch. Latency aggregates are telemetry-only and
    /// excluded.
    fn digest(&self, d: &mut StateDigest) {
        d.word(self.counts.len() as u64);
        for c in &self.counts {
            d.word(*c);
        }
        d.word(self.duplicate_drops);
        d.word(u64::from(self.mutation_no_dedup));
        d.word(self.seen.len() as u64);
        for t in &self.seen {
            d.token(*t);
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
        d.word(self.level_period);
        d.word(self.sim.now());
        let clocks: Vec<((ProcessId, ProcessId), u64)> = self.sim.link_clocks().collect();
        d.word(clocks.len() as u64);
        for ((a, b), t) in clocks {
            d.word(a.0);
            d.word(b.0);
            d.word(t);
        }
        let pending = self.sim.pending_snapshot();
        d.word(pending.len() as u64);
        for (ev, payload) in pending {
            d.word(ev.time);
            d.word(ev.to.0);
            d.word(ev.from.map_or(u64::MAX, |f| f.0));
            d.word(ev.timer_tag.map_or(u64::MAX, |t| t));
            d.word(u64::from(ev.lossy));
            match payload {
                Some(m) => {
                    d.word(1);
                    m.digest(&mut d);
                }
                None => d.word(0),
            }
        }
        let pids: Vec<ProcessId> = self.sim.process_ids().collect();
        d.word(pids.len() as u64);
        for pid in pids {
            d.word(pid.0);
            match self.sim.process(pid) {
                Some(Proc::Node(np)) => {
                    d.word(1);
                    np.digest(&mut d);
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

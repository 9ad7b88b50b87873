//! Membership as one node sees it: the gossiped 2P-set CRDT, the hash
//! ring materialized from it, and the failure detector watching the
//! ring predecessor. Pure state — no `Context`, no `World` — so its laws
//! are tested here without a simulator.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use acn_overlay::{NodeId, Ring};

/// Consecutive silent failure-detector ticks before a node suspects
/// its monitored predecessor. Each tick is one `level_period`, so
/// detection takes at most `FD_STRIKE_LIMIT + 1` periods after the
/// crash — far above the simulated RTT, so a live-but-slow peer is
/// never falsely suspected under seeded delivery.
const FD_STRIKE_LIMIT: u32 = 3;

/// What one failure-detector tick decided ([`View::fd_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FdStep {
    /// Nobody to monitor, or the predecessor was heard from within the
    /// lease period.
    Idle,
    /// The predecessor has been silent: probe it.
    Ping(NodeId),
    /// [`FD_STRIKE_LIMIT`] consecutive silent ticks: declare it crashed.
    Suspect(NodeId),
}

/// What one node believes the membership is, and the failure detector
/// watching its ring predecessor. Pure state: it sends nothing and
/// reads no clock but the `now` it is handed, so the CRDT laws and the
/// detector's strike counting are testable without a simulator.
#[derive(Debug, Clone)]
pub(super) struct View {
    me: NodeId,
    /// Membership CRDT: every node ever known. Monotone (ids are never
    /// reused), so the view epoch `|known| + |dead|` only grows and
    /// gossip merge is a plain union.
    known: BTreeSet<NodeId>,
    /// Membership CRDT: tombstones for crashed/departed nodes.
    dead: BTreeSet<NodeId>,
    /// Materialized ring over `known - dead`: what *this node believes*
    /// the membership is. All hot-path ownership lookups resolve here —
    /// never against the harness's ground-truth `World::ring`.
    ring: Ring,
    /// Virtual time each peer was last heard from (any message counts
    /// as a heartbeat; explicit pings fill idle gaps).
    last_heard: BTreeMap<NodeId, u64>,
    /// The predecessor currently being monitored (strikes reset when
    /// the view changes it).
    fd_target: Option<NodeId>,
    /// Consecutive silent failure-detector ticks for `fd_target`.
    fd_strikes: u32,
}

impl View {
    /// The view of a node that knows only itself.
    pub(super) fn new(me: NodeId) -> Self {
        let mut view = View {
            me,
            known: BTreeSet::from([me]),
            dead: BTreeSet::new(),
            ring: Ring::new(),
            last_heard: BTreeMap::new(),
            fd_target: None,
            fd_strikes: 0,
        };
        view.rebuild_ring();
        view
    }

    fn rebuild_ring(&mut self) {
        let mut ring = Ring::new();
        for &n in self.known.difference(&self.dead) {
            ring.add_node(n);
        }
        self.ring = ring;
    }

    /// Adds bootstrap/join contacts.
    pub(super) fn seed(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.known.extend(nodes);
        self.rebuild_ring();
    }

    /// The membership epoch `|known| + |dead|`. Both sets are monotone,
    /// so the epoch totally orders a single node's view history and a
    /// gossip merge never moves it backwards.
    pub(super) fn epoch(&self) -> u64 {
        (self.known.len() + self.dead.len()) as u64
    }

    /// Union-merges a gossiped view into this one. Returns whether
    /// anything changed (the re-broadcast trigger).
    pub(super) fn merge(&mut self, known: &BTreeSet<NodeId>, dead: &BTreeSet<NodeId>) -> bool {
        let before = self.epoch();
        self.known.extend(known.iter().copied());
        self.known.extend(dead.iter().copied());
        self.dead.extend(dead.iter().copied());
        let changed = self.epoch() != before;
        if changed {
            self.rebuild_ring();
        }
        changed
    }

    /// Tombstones `n`; `false` if it already was.
    pub(super) fn tombstone(&mut self, n: NodeId) -> bool {
        self.known.insert(n);
        let new = self.dead.insert(n);
        if new {
            self.rebuild_ring();
        }
        new
    }

    /// Whether `n` is tombstoned.
    pub(super) fn is_dead(&self, n: NodeId) -> bool {
        self.dead.contains(&n)
    }

    /// Whether this node itself is tombstoned — it departed, or was
    /// (rightly or not) declared crashed. A ghost stops claiming
    /// ownership and sheds its state like a graceful leaver, so the
    /// network converges to a single host per component.
    pub(super) fn is_ghost(&self) -> bool {
        self.dead.contains(&self.me)
    }

    /// The live membership as this node sees it.
    pub(super) fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The live owner of hashed `name`; this node itself when the ring
    /// is empty (an excommunicated ghost with no live peers left —
    /// nothing useful to do but keep the state).
    pub(super) fn owner_of_name(&self, name: u64) -> NodeId {
        if self.ring.is_empty() {
            self.me
        } else {
            self.ring.owner_of_name(name)
        }
    }

    /// Every other node ever known, tombstoned ones included (the
    /// gossip fan-out).
    pub(super) fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.known.iter().copied().filter(|&n| n != self.me)
    }

    /// The two CRDT sets, as gossiped.
    pub(super) fn sets(&self) -> (&BTreeSet<NodeId>, &BTreeSet<NodeId>) {
        (&self.known, &self.dead)
    }

    /// Notes a message from `from` at `now` (every message is a
    /// heartbeat).
    pub(super) fn heard(&mut self, from: NodeId, now: u64) {
        self.last_heard.insert(from, now);
    }

    /// One failure-detector tick of a live node: monitor the ring
    /// predecessor, ask for a ping while it has been silent for a lease
    /// `period`, and for a suspicion after [`FD_STRIKE_LIMIT`]
    /// consecutive silent ticks.
    pub(super) fn fd_tick(&mut self, now: u64, period: u64) -> FdStep {
        let pred = self.ring.predecessor(self.me);
        if pred == self.me {
            return FdStep::Idle;
        }
        if self.fd_target != Some(pred) {
            self.fd_target = Some(pred);
            self.fd_strikes = 0;
        }
        let fresh = self.last_heard.get(&pred).is_some_and(|&t| now.saturating_sub(t) < period);
        if fresh {
            self.fd_strikes = 0;
            return FdStep::Idle;
        }
        self.fd_strikes += 1;
        if self.fd_strikes >= FD_STRIKE_LIMIT {
            self.fd_strikes = 0;
            FdStep::Suspect(pred)
        } else {
            FdStep::Ping(pred)
        }
    }
}

/// `ring` is `known - dead` materialized, and `me` is the owning
/// process's key: neither adds state.
impl Hash for View {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (&self.known, &self.dead, &self.last_heard, self.fd_target, self.fd_strikes).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ME: NodeId = NodeId(1_000);

    fn nodes(raw: &BTreeSet<u64>) -> BTreeSet<NodeId> {
        raw.iter().map(|&n| NodeId(n)).collect()
    }

    fn state(v: &View) -> (BTreeSet<NodeId>, BTreeSet<NodeId>, BTreeSet<NodeId>) {
        (v.known.clone(), v.dead.clone(), v.ring.nodes().collect())
    }

    proptest! {
        #[test]
        fn merge_is_commutative_idempotent_and_epoch_monotone(
            a_known in proptest::collection::btree_set(0u64..24, 0..8),
            a_dead in proptest::collection::btree_set(0u64..24, 0..4),
            b_known in proptest::collection::btree_set(0u64..24, 0..8),
            b_dead in proptest::collection::btree_set(0u64..24, 0..4),
        ) {
            let (a, b) = ((nodes(&a_known), nodes(&a_dead)), (nodes(&b_known), nodes(&b_dead)));
            let (mut ab, mut ba) = (View::new(ME), View::new(ME));
            let before = ab.epoch();
            let changed = ab.merge(&a.0, &a.1);
            let after_a = ab.epoch();
            prop_assert!(after_a >= before);
            prop_assert_eq!(changed, after_a > before);
            ab.merge(&b.0, &b.1);
            prop_assert!(ab.epoch() >= after_a);
            ba.merge(&b.0, &b.1);
            ba.merge(&a.0, &a.1);
            prop_assert_eq!(state(&ab), state(&ba));
            let merged = state(&ab);
            prop_assert!(!ab.merge(&a.0, &a.1) && !ab.merge(&b.0, &b.1));
            prop_assert_eq!(state(&ab), merged.clone());
            let live: BTreeSet<NodeId> = merged.0.difference(&merged.1).copied().collect();
            prop_assert_eq!(merged.2, live);
            prop_assert!(merged.1.is_subset(&merged.0), "a tombstone names a known node");
        }
    }

    #[test]
    fn a_node_that_tombstones_itself_is_a_ghost_owning_what_nobody_else_can() {
        let mut v = View::new(ME);
        assert!(!v.is_ghost());
        assert_eq!(v.owner_of_name(7), ME);
        assert!(v.tombstone(ME));
        assert!(v.is_ghost() && v.is_dead(ME) && v.ring().is_empty());
        assert_eq!(v.owner_of_name(7), ME, "an empty ring falls back to the node itself");
        assert!(!v.tombstone(ME), "a second tombstone changes nothing");
        v.seed([NodeId(5)]);
        assert_eq!(v.owner_of_name(7), NodeId(5), "a live peer owns everything a ghost does not");
    }

    #[test]
    fn three_silent_ticks_suspect_the_predecessor_and_a_heartbeat_resets_them() {
        let period = 100;
        let mut v = View::new(ME);
        assert_eq!(v.fd_tick(period, period), FdStep::Idle, "nobody to monitor");
        v.seed([NodeId(10), NodeId(20)]);
        let pred = v.ring().predecessor(ME);
        assert_eq!(v.fd_tick(period, period), FdStep::Ping(pred));
        assert_eq!(v.fd_tick(2 * period, period), FdStep::Ping(pred));
        assert_eq!(v.fd_tick(3 * period, period), FdStep::Suspect(pred));
        // The count starts over after a suspicion, and after a heartbeat.
        assert_eq!(v.fd_tick(4 * period, period), FdStep::Ping(pred));
        assert_eq!(v.fd_tick(5 * period, period), FdStep::Ping(pred));
        v.heard(pred, 5 * period + 1);
        assert_eq!(v.fd_tick(6 * period, period), FdStep::Idle);
        assert_eq!(v.fd_tick(7 * period, period), FdStep::Ping(pred), "the lease ran out again");
        assert_eq!(v.fd_tick(8 * period, period), FdStep::Ping(pred));
        assert_eq!(v.fd_tick(9 * period, period), FdStep::Suspect(pred));
    }

    #[test]
    fn a_new_predecessor_starts_with_no_strikes() {
        let period = 100;
        let mut v = View::new(ME);
        v.seed([NodeId(10), NodeId(20)]);
        let first = v.ring().predecessor(ME);
        assert_eq!(v.fd_tick(period, period), FdStep::Ping(first));
        assert_eq!(v.fd_tick(2 * period, period), FdStep::Ping(first));
        assert!(v.tombstone(first));
        let second = v.ring().predecessor(ME);
        assert_ne!(second, first);
        assert_eq!(v.fd_tick(3 * period, period), FdStep::Ping(second), "strikes are per target");
        assert_eq!(v.fd_tick(4 * period, period), FdStep::Ping(second));
        assert_eq!(v.fd_tick(5 * period, period), FdStep::Suspect(second));
    }
}

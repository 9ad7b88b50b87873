//! Membership as one node sees it: the gossiped 2P-set CRDT, the hash
//! ring kept over it, what a merge found new and who is then told how
//! much, and the failure detector watching the ring predecessor. Pure
//! state — no `Context`, no `World` — so its laws
//! are tested here without a simulator.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

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

/// What a [`View::merge`] added: the ids it had not known, and the ones
/// it had not tombstoned — which is all the node then has to tell the
/// peers it already knew.
#[derive(Debug, Default)]
pub(super) struct News {
    known: BTreeSet<NodeId>,
    dead: BTreeSet<NodeId>,
}

impl News {
    pub(super) fn is_empty(&self) -> bool {
        self.known.is_empty() && self.dead.is_empty()
    }
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
    /// as a heartbeat; explicit pings fill idle gaps), sorted by peer:
    /// every message updates it, and a new peer is rare.
    last_heard: Vec<(NodeId, u64)>,
    /// The predecessor currently being monitored (strikes reset when
    /// the view changes it).
    fd_target: Option<NodeId>,
    /// Consecutive silent failure-detector ticks for `fd_target`.
    fd_strikes: u32,
}

impl View {
    /// The view of a node that knows only itself.
    pub(super) fn new(me: NodeId) -> Self {
        let mut ring = Ring::new();
        ring.add_node(me);
        View {
            me,
            known: BTreeSet::from([me]),
            dead: BTreeSet::new(),
            ring,
            last_heard: Vec::new(),
            fd_target: None,
            fd_strikes: 0,
        }
    }

    /// Adds bootstrap/join contacts.
    pub(super) fn seed(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for n in nodes {
            // Not known, so not tombstoned either: `dead` is a subset.
            if self.known.insert(n) {
                self.ring.add_node(n);
            }
        }
    }

    /// The membership epoch `|known| + |dead|`. Both sets are monotone,
    /// so the epoch totally orders a single node's view history and a
    /// gossip merge never moves it backwards.
    pub(super) fn epoch(&self) -> u64 {
        (self.known.len() + self.dead.len()) as u64
    }

    /// Union-merges gossiped membership into this view and returns what
    /// was new to it (empty: nothing changed, nothing to re-tell). The
    /// ring follows one id at a time: a new live id is added, a new
    /// tombstone removed, and an id that arrives already tombstoned
    /// never enters it.
    pub(super) fn merge(&mut self, known: &BTreeSet<NodeId>, dead: &BTreeSet<NodeId>) -> News {
        let mut news = News::default();
        for &n in dead {
            if self.dead.insert(n) {
                news.dead.insert(n);
                if self.known.insert(n) {
                    news.known.insert(n);
                } else {
                    self.ring.remove_node(n);
                }
            }
        }
        for &n in known {
            if self.known.insert(n) {
                news.known.insert(n);
                self.ring.add_node(n);
            }
        }
        news
    }

    /// Tombstones `n` (and learns of it, if it was unknown); returns
    /// what that changed, empty if `n` already was tombstoned.
    pub(super) fn tombstone(&mut self, n: NodeId) -> News {
        self.merge(&BTreeSet::new(), &BTreeSet::from([n]))
    }

    /// One broadcast of `news`, which this node has just adopted:
    /// calls `send(peer, known, dead)` once for every other node ever
    /// known, tombstoned ones included. A peer named in `news.known` —
    /// this node learned *of* it just now — is sent the whole view;
    /// every other peer is sent `news` alone, since whatever else this
    /// node knows it sent down that link when it learned it. Either
    /// payload is built once and shared.
    ///
    /// A ghost names itself in `dead` each time: a leaver tombstones
    /// itself without a word (the harness tells its successor), the one
    /// thing a node can know and not have sent.
    pub(super) fn gossip(
        &self,
        mut news: News,
        mut send: impl FnMut(NodeId, &Rc<BTreeSet<NodeId>>, &Rc<BTreeSet<NodeId>>),
    ) {
        if self.is_ghost() {
            news.dead.insert(self.me);
        }
        let news = (Rc::new(news.known), Rc::new(news.dead));
        let mut whole = None;
        for peer in self.peers() {
            let (known, dead) = if news.0.contains(&peer) {
                whole.get_or_insert_with(|| {
                    (Rc::new(self.known.clone()), Rc::new(self.dead.clone()))
                })
            } else {
                &news
            };
            send(peer, known, dead);
        }
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
    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.known.iter().copied().filter(|&n| n != self.me)
    }

    /// Notes a message from `from` at `now` (every message is a
    /// heartbeat).
    pub(super) fn heard(&mut self, from: NodeId, now: u64) {
        match self.last_heard.binary_search_by_key(&from, |&(n, _)| n) {
            Ok(i) => self.last_heard[i].1 = now,
            Err(i) => self.last_heard.insert(i, (from, now)),
        }
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
        let heard = self.last_heard.binary_search_by_key(&pred, |&(n, _)| n);
        let fresh = heard.is_ok_and(|i| now.saturating_sub(self.last_heard[i].1) < period);
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
    use acn_overlay::splitmix64;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

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
            let news = ab.merge(&a.0, &a.1);
            let after_a = ab.epoch();
            prop_assert!(after_a >= before);
            prop_assert_eq!(!news.is_empty(), after_a > before);
            ab.merge(&b.0, &b.1);
            prop_assert!(ab.epoch() >= after_a);
            ba.merge(&b.0, &b.1);
            ba.merge(&a.0, &a.1);
            prop_assert_eq!(state(&ab), state(&ba));
            let merged = state(&ab);
            prop_assert!(ab.merge(&a.0, &a.1).is_empty() && ab.merge(&b.0, &b.1).is_empty());
            prop_assert_eq!(state(&ab), merged.clone());
            let live: BTreeSet<NodeId> = merged.0.difference(&merged.1).copied().collect();
            prop_assert_eq!(merged.2, live);
            prop_assert!(merged.1.is_subset(&merged.0), "a tombstone names a known node");
        }

        /// Whatever a view has been through, `merge` (and `tombstone`,
        /// which is one) reports exactly what it added to each set —
        /// nothing when nothing changed — and the ring, kept up one id
        /// at a time, is `known - dead`.
        #[test]
        fn news_is_the_set_difference_and_the_ring_follows_it(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::btree_set(0u64..16, 0..5),
                    proptest::collection::btree_set(0u64..16, 0..3),
                ),
                1..12,
            ),
        ) {
            let mut v = View::new(ME);
            for (op, known, dead) in ops {
                let (known, dead) = (nodes(&known), nodes(&dead));
                let before = state(&v);
                let news = match op {
                    0 => {
                        v.seed(known.iter().copied());
                        None
                    }
                    1 => Some(v.merge(&known, &dead)),
                    _ => dead.first().map(|&n| v.tombstone(n)),
                };
                let after = state(&v);
                if let Some(news) = news {
                    let added = |now: &BTreeSet<NodeId>, was: &BTreeSet<NodeId>| {
                        now.difference(was).copied().collect::<BTreeSet<_>>()
                    };
                    prop_assert_eq!(&news.known, &added(&after.0, &before.0));
                    prop_assert_eq!(&news.dead, &added(&after.1, &before.1));
                    prop_assert_eq!(news.is_empty(), after == before);
                }
                let live: BTreeSet<NodeId> = after.0.difference(&after.1).copied().collect();
                prop_assert_eq!(&after.2, &live);
                prop_assert!(after.1.is_subset(&after.0), "a tombstone names a known node");
            }
        }
    }

    /// What one gossip message holds: `known` and `dead`.
    type Payload = (BTreeSet<NodeId>, BTreeSet<NodeId>);

    /// Pure views joined by reliable FIFO links, every broadcast counted.
    /// `whole_state` is the rule gossip had before it carried only news:
    /// every message holds the sender's whole view. It lives on here,
    /// as the specification [`View::gossip`] is held to.
    struct Net {
        whole_state: bool,
        views: BTreeMap<NodeId, View>,
        links: BTreeMap<(NodeId, NodeId), VecDeque<Payload>>,
        broadcasts: usize,
    }

    /// The harness end of the links its announcements travel on.
    const HARNESS: NodeId = NodeId(u64::MAX);

    impl Net {
        fn broadcast(&mut self, from: NodeId, news: News) {
            self.broadcasts += 1;
            let (view, links) = (&self.views[&from], &mut self.links);
            let mut send = |peer, known: &BTreeSet<NodeId>, dead: &BTreeSet<NodeId>| {
                links.entry((from, peer)).or_default().push_back((known.clone(), dead.clone()));
            };
            if self.whole_state {
                view.peers().for_each(|peer| send(peer, &view.known, &view.dead));
            } else {
                view.gossip(news, |peer, known, dead| send(peer, known, dead));
            }
        }

        /// Delivers the head of the `pick`-th non-empty link; `false`
        /// when nothing is in flight.
        fn deliver(&mut self, pick: usize) -> bool {
            let busy: Vec<_> =
                self.links.iter().filter(|(_, q)| !q.is_empty()).map(|(&link, _)| link).collect();
            let Some(&link) = busy.get(pick % busy.len().max(1)) else { return false };
            let (known, dead) = self.links.get_mut(&link).and_then(VecDeque::pop_front).unwrap();
            let news = self.views.get_mut(&link.1).unwrap().merge(&known, &dead);
            if !news.is_empty() {
                self.broadcast(link.1, news);
            }
            true
        }

        /// The harness tells `contact` that `node` exists — and, with
        /// `dead`, that it has left.
        fn announce(&mut self, contact: NodeId, node: NodeId, dead: bool) {
            let (known, dead) = (BTreeSet::from([node]), BTreeSet::from_iter(dead.then_some(node)));
            self.links.entry((HARNESS, contact)).or_default().push_back((known, dead));
        }

        fn in_flight(&self) -> Vec<((NodeId, NodeId), usize)> {
            self.links.iter().filter(|(_, q)| !q.is_empty()).map(|(&l, q)| (l, q.len())).collect()
        }

        /// What the two rules must agree on after every step: each
        /// view, how many messages wait on each link (not what they
        /// hold), and the broadcasts so far.
        fn observable(&self) -> impl PartialEq + std::fmt::Debug {
            (self.views.values().map(state).collect::<Vec<_>>(), self.in_flight(), self.broadcasts)
        }
    }

    proptest! {
        /// The equivalence the runtime relies on: over reliable FIFO
        /// links and under any delivery order, gossiping the news (and
        /// the whole view on first contact) teaches every node what
        /// gossiping the whole view every time does, from the same
        /// message, with the same number of broadcasts — through joins
        /// announced to one contact, leaves the leaver itself keeps
        /// quiet about, and suspicions of anyone by anyone.
        #[test]
        fn gossiping_the_news_is_gossiping_the_whole_view(
            size in 2usize..7,
            booted in 1usize..7,
            steps in proptest::collection::vec((0u8..8, 0usize..6, 0usize..6, any::<usize>()), 0..48),
            drain in any::<u64>(),
        ) {
            let ids: Vec<NodeId> = (1..=size as u64).map(|i| NodeId(i * 10)).collect();
            let boot = &ids[..booted.min(size)];
            let mut nets = [true, false].map(|whole_state| {
                let views = ids.iter().map(|&id| {
                    let mut view = View::new(id);
                    if boot.contains(&id) {
                        view.seed(boot.iter().copied());
                    }
                    (id, view)
                });
                Net { whole_state, views: views.collect(), links: BTreeMap::new(), broadcasts: 0 }
            });
            for (op, a, b, pick) in steps {
                let (a, b) = (ids[a % size], ids[b % size]);
                for net in &mut nets {
                    match op {
                        // A join: `a`, who knows nobody, is announced to `b`.
                        0 if a != b && net.views[&a].epoch() == 1 => net.announce(b, a, false),
                        // A leave: `a` tombstones itself and says nothing.
                        1 if a != b && !net.views[&a].is_ghost() => {
                            let _ = net.views.get_mut(&a).unwrap().tombstone(a);
                            net.announce(b, a, true);
                        }
                        // A suspicion: `a` tombstones `b` and says so.
                        2 if a != b => {
                            let news = net.views.get_mut(&a).unwrap().tombstone(b);
                            if !news.is_empty() {
                                net.broadcast(a, news);
                            }
                        }
                        0..=2 => {}
                        _ => {
                            net.deliver(pick);
                        }
                    }
                }
                prop_assert_eq!(nets[0].observable(), nets[1].observable());
            }
            let mut drain = drain;
            while nets.each_mut().map(|net| net.deliver(drain as usize)).contains(&true) {
                prop_assert_eq!(nets[0].observable(), nets[1].observable());
                let _ = splitmix64(&mut drain);
            }
            prop_assert!(nets.iter().all(|net| net.in_flight().is_empty()));
        }
    }

    proptest! {
        /// The limit that comes with gossiping only news, and what it
        /// leaves standing: no later wave repairs a lost message, but
        /// among four nodes or more one loss needs no repair — whoever
        /// learns of a leave re-tells every peer, so each of the others
        /// is told twice at least.
        #[test]
        fn one_lost_message_of_a_leave_wave_is_covered_by_the_rest(
            size in 4usize..7,
            leaver in 0usize..6,
            contact in 0usize..5,
            lost in 0usize..12,
            order in any::<u64>(),
        ) {
            let ids: Vec<NodeId> = (1..=size as u64).map(|i| NodeId(i * 10)).collect();
            let contact = ids[(leaver + 1 + contact % (size - 1)) % size];
            let leaver = ids[leaver % size];
            let views = ids.iter().map(|&id| {
                let mut view = View::new(id);
                view.seed(ids.iter().copied());
                (id, view)
            });
            let mut net =
                Net { whole_state: false, views: views.collect(), links: BTreeMap::new(), broadcasts: 0 };
            let _ = net.views.get_mut(&leaver).unwrap().tombstone(leaver);
            net.announce(contact, leaver, true);
            // The `lost`-th message between nodes is dropped, if the
            // wave gets that far; the harness's announcement never is.
            let (mut order, mut between_nodes) = (order, 0);
            loop {
                let pick = splitmix64(&mut order) as usize;
                let busy = net.in_flight();
                let Some(&(link, _)) = busy.get(pick % busy.len().max(1)) else { break };
                between_nodes += usize::from(link.0 != HARNESS);
                if link.0 != HARNESS && between_nodes == lost + 1 {
                    net.links.get_mut(&link).unwrap().pop_front();
                } else {
                    net.deliver(pick);
                }
            }
            for (id, view) in &net.views {
                prop_assert!(view.is_dead(leaver), "{id:?} never heard that {leaver:?} left");
            }
        }
    }

    #[test]
    fn a_node_that_tombstones_itself_is_a_ghost_owning_what_nobody_else_can() {
        let mut v = View::new(ME);
        assert!(!v.is_ghost());
        assert_eq!(v.owner_of_name(7), ME);
        assert!(!v.tombstone(ME).is_empty());
        assert!(v.is_ghost() && v.is_dead(ME) && v.ring().is_empty());
        assert_eq!(v.owner_of_name(7), ME, "an empty ring falls back to the node itself");
        assert!(v.tombstone(ME).is_empty(), "a second tombstone changes nothing");
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
        assert!(!v.tombstone(first).is_empty());
        let second = v.ring().predecessor(ME);
        assert_ne!(second, first);
        assert_eq!(v.fd_tick(3 * period, period), FdStep::Ping(second), "strikes are per target");
        assert_eq!(v.fd_tick(4 * period, period), FdStep::Ping(second));
        assert_eq!(v.fd_tick(5 * period, period), FdStep::Suspect(second));
    }
}

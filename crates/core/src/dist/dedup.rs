//! The state of the three token-dedup layers, and the rule by which
//! each forgets what no copy can reach any more. Pure tables, no
//! simulator: `wire` drives them on the token path, `deploy`'s
//! collector keeps the last one.
//!
//! The rule rests on the per-link FIFO of the channel (DESIGN.md, S9):
//! a sender stamps every token it sends down a link with an *ack
//! watermark*, below which every guid that used the link is acked and
//! went nowhere else. By FIFO every copy of such a guid has already
//! arrived, and an acked guid is never sent again, so the receiver may
//! drop the guids it accepted from that sender below the watermark —
//! and the ledger entries those arrivals recorded with them.
//!
//! The per-guid tables — a sender's unacked guids per link, the guids a
//! receiver accepted per sender, and the node's unacked obligations —
//! are [`GuidDeque`]s: guid-sorted deques, not trees. Guids come from
//! one global counter, so a sender's sends, and a receiver's arrivals
//! from one sender, come mostly in ascending guid order, and acks and
//! watermarks retire them mostly oldest first: an insert is a push at
//! the back, a retirement a pop at the front, and only an out-of-order
//! guid (a retransmission, an adopted guid, an obligation first sent
//! after its probe chain ran out) pays a binary search and a shift.

use std::collections::{btree_map, BTreeMap, VecDeque};

use acn_simnet::ProcessId;
use acn_topology::{ComponentId, WireAddress};

use super::msg::SeenTokens;

/// A table keyed by guid, kept as a deque sorted by guid: ascending
/// inserts push at the back, retiring the oldest pops at the front,
/// and every other access binary-searches. Iteration is in guid order,
/// as a `BTreeMap`'s would be (the state digest reads that order).
#[derive(Debug, Clone)]
pub(super) struct GuidDeque<V> {
    entries: VecDeque<(u64, V)>,
}

impl<V> Default for GuidDeque<V> {
    fn default() -> Self {
        GuidDeque { entries: VecDeque::new() }
    }
}

impl<V> GuidDeque<V> {
    fn search(&self, guid: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&guid, |&(g, _)| g)
    }

    /// Inserts `guid` with `value`, returning the value it replaced.
    pub(super) fn insert(&mut self, guid: u64, value: V) -> Option<V> {
        match self.entries.back() {
            Some(&(last, _)) if last >= guid => match self.search(guid) {
                Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
                Err(i) => {
                    self.entries.insert(i, (guid, value));
                    None
                }
            },
            _ => {
                self.entries.push_back((guid, value));
                None
            }
        }
    }

    /// Removes `guid`, returning its value.
    pub(super) fn remove(&mut self, guid: u64) -> Option<V> {
        let i = self.search(guid).ok()?;
        self.entries.remove(i).map(|(_, value)| value)
    }

    /// The value of `guid`.
    pub(super) fn get_mut(&mut self, guid: u64) -> Option<&mut V> {
        let i = self.search(guid).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Whether `guid` is in the table.
    pub(super) fn contains(&self, guid: u64) -> bool {
        self.search(guid).is_ok()
    }

    /// The smallest guid held.
    pub(super) fn first(&self) -> Option<u64> {
        self.entries.front().map(|&(g, _)| g)
    }

    /// Removes and returns the smallest guid, if it is below `mark`.
    pub(super) fn pop_below(&mut self, mark: u64) -> Option<(u64, V)> {
        if self.first()? < mark {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Every guid with its value, ascending.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.entries.iter().map(|(g, v)| (*g, v))
    }

    /// Every guid, ascending.
    pub(super) fn guids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(g, _)| g)
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Where the copies of one send obligation went: what the sender's
/// watermark needs to know of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Copies {
    /// No copy sent yet (the probe chain ran out first).
    Unsent,
    /// Every copy went to this node.
    One(ProcessId),
    /// Copies went to more than one node, or the guid changed hands:
    /// it holds back the watermark of every link it used, for good.
    Scattered,
}

/// One outgoing link of a sender.
#[derive(Debug, Clone, Default)]
struct Link {
    /// Unacked guids all of whose copies went down this link.
    unacked: GuidDeque<()>,
    /// The smallest scattered guid that used this link.
    scattered: Option<u64>,
}

impl Link {
    /// The link's watermark.
    fn floor(&self) -> u64 {
        let unacked = self.unacked.first().unwrap_or(u64::MAX);
        unacked.min(self.scattered.unwrap_or(u64::MAX))
    }
}

/// The sender side of layer 1: per destination, what holds its ack
/// watermark back.
#[derive(Debug, Clone, Default)]
pub(super) struct Watermarks {
    links: BTreeMap<ProcessId, Link>,
}

impl Watermarks {
    /// A copy of obligation `guid`, whose earlier copies are `copies`,
    /// goes to `to`: records it (updating `copies`) and returns the
    /// watermark the copy carries, which is at most `guid`.
    pub(super) fn send(&mut self, guid: u64, copies: &mut Copies, to: ProcessId) -> u64 {
        match *copies {
            Copies::Unsent => {
                *copies = Copies::One(to);
                let link = self.links.entry(to).or_default();
                link.unacked.insert(guid, ());
                return link.floor();
            }
            Copies::One(earlier) if earlier == to => {}
            Copies::One(earlier) => {
                let link = self.links.get_mut(&earlier).expect("an earlier copy used the link");
                link.unacked.remove(guid);
                self.scatter(earlier, guid);
                self.scatter(to, guid);
                *copies = Copies::Scattered;
            }
            Copies::Scattered => self.scatter(to, guid),
        }
        self.acked_below(to)
    }

    fn scatter(&mut self, to: ProcessId, guid: u64) {
        let scattered = &mut self.links.entry(to).or_default().scattered;
        *scattered = Some(scattered.map_or(guid, |s| s.min(guid)));
    }

    /// Obligation `guid` is discharged — acked, or consumed here by the
    /// retry pass — and will never be sent again.
    pub(super) fn discharge(&mut self, guid: u64, copies: Copies) {
        if let Copies::One(to) = copies {
            if let Some(link) = self.links.get_mut(&to) {
                link.unacked.remove(guid);
            }
        }
    }

    /// The watermark for `to`: the smallest guid that had a copy sent
    /// to `to` and is unacked or scattered (`u64::MAX` if none).
    fn acked_below(&self, to: ProcessId) -> u64 {
        self.links.get(&to).map_or(u64::MAX, Link::floor)
    }
}

/// A `(token, addr)` ledger key.
pub(super) type Entry = (u64, WireAddress);

/// The `(sender, guid)` of the wire arrival that recorded a ledger
/// entry.
pub(super) type Tag = (ProcessId, u64);

/// The ledger entry an accepted guid recorded, and the level of the
/// component it was recorded at (a candidate of the entry's address, so
/// the level names it).
pub(super) type Twin = (Entry, u8);

/// The receiver side of layer 1: the guids accepted from each sender,
/// each with the ledger entry its first component records if the
/// arrival is unchained (its *twin*), until the sender's watermark
/// passes it. The twin is noted on acceptance; where the component
/// buffered the token or already held the entry, no entry carries the
/// arrival's tag and forgetting the twin is a no-op.
#[derive(Debug, Clone, Default)]
pub(super) struct Accepted {
    by_sender: BTreeMap<ProcessId, GuidDeque<Option<Twin>>>,
}

impl Accepted {
    /// Drops `from`'s guids below `acked_below`, passing every twin to
    /// `forget` with the tag it was recorded under.
    pub(super) fn prune(
        &mut self,
        from: ProcessId,
        acked_below: u64,
        mut forget: impl FnMut(Twin, Tag),
    ) {
        let Some(guids) = self.by_sender.get_mut(&from) else { return };
        while let Some((guid, twin)) = guids.pop_below(acked_below) {
            if let Some(twin) = twin {
                forget(twin, (from, guid));
            }
        }
    }

    /// Whether `guid` from `from` was accepted and not yet forgotten.
    pub(super) fn contains(&self, from: ProcessId, guid: u64) -> bool {
        self.by_sender.get(&from).is_some_and(|guids| guids.contains(guid))
    }

    /// Accepts `guid` from `from`, with the ledger entry it will tag.
    pub(super) fn accept(&mut self, from: ProcessId, guid: u64, twin: Option<Twin>) {
        self.by_sender.entry(from).or_default().insert(guid, twin);
    }

    /// Every accepted guid, by sender then guid.
    pub(super) fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.by_sender.iter().flat_map(|(&from, guids)| guids.guids().map(move |g| (from, g)))
    }

    /// Accepted guids held, over all senders.
    pub(super) fn len(&self) -> usize {
        self.by_sender.values().map(GuidDeque::len).sum()
    }
}

/// Layer 2: a hosted component's `(token, addr)` ledger. A
/// feed-forward network processes a token at a wire address at most
/// once, so a second copy meeting an entry is a duplicate and is
/// dropped. Entries are recorded only where a second copy can arrive:
/// at the first component after a wire arrival, a drain or the retry
/// pass (an injected token is new, and a later local hop follows a
/// component that has just consumed the token once).
#[derive(Debug, Clone, Default)]
pub(super) struct Ledger {
    /// Entries kept for good: chained arrivals, drained tokens, the
    /// retry pass's own local processing, and everything that arrived
    /// with the component from another node.
    pinned: SeenTokens,
    /// Entries recorded after an unchained wire arrival, by that
    /// arrival's tag: forgotten with the receiver's guid.
    tagged: BTreeMap<Entry, Tag>,
}

impl Ledger {
    /// A ledger of pinned entries (a component arriving from another
    /// node).
    pub(super) fn pinned(pinned: SeenTokens) -> Self {
        Ledger { pinned, tagged: BTreeMap::new() }
    }

    /// Whether a copy of `entry` was already consumed here.
    pub(super) fn contains(&self, entry: &Entry) -> bool {
        self.pinned.contains(entry) || self.tagged.contains_key(entry)
    }

    /// Records `entry`, tagged or (`None`) pinned; `false`, recording
    /// nothing, if it is already there.
    pub(super) fn record(&mut self, entry: Entry, tag: Option<Tag>) -> bool {
        if self.pinned.contains(&entry) {
            return false;
        }
        match (self.tagged.entry(entry), tag) {
            (btree_map::Entry::Occupied(_), _) => false,
            (btree_map::Entry::Vacant(slot), Some(tag)) => {
                slot.insert(tag);
                true
            }
            (btree_map::Entry::Vacant(_), None) => self.pinned.insert(entry),
        }
    }

    /// Drops `entry` if it is still tagged `tag`; reports whether it
    /// did.
    pub(super) fn forget(&mut self, entry: &Entry, tag: Tag) -> bool {
        match self.tagged.entry(*entry) {
            btree_map::Entry::Occupied(slot) if *slot.get() == tag => {
                slot.remove();
                true
            }
            _ => false,
        }
    }

    /// Every entry, pinned: what the component carries when it leaves
    /// the node (no receiver there holds the guids of its tags).
    pub(super) fn into_pinned(self) -> SeenTokens {
        let mut pinned = self.pinned;
        pinned.extend(self.tagged.into_keys());
        pinned
    }

    /// A pinned copy of every entry (a frozen child's state reported to
    /// a merge).
    pub(super) fn to_pinned(&self) -> SeenTokens {
        self.clone().into_pinned()
    }

    /// Takes in `other`'s entries (a second copy of a resident
    /// component arrived).
    pub(super) fn absorb(&mut self, other: Ledger) {
        for entry in other.pinned {
            self.tagged.remove(&entry);
            self.pinned.insert(entry);
        }
        for (entry, tag) in other.tagged {
            if !self.pinned.contains(&entry) {
                self.tagged.entry(entry).or_insert(tag);
            }
        }
    }

    /// The entries a split child inherits: those at addresses it
    /// covers, each kept as it was. No other address can reach the
    /// child, and a merge gets them back from the sibling that covers
    /// them.
    pub(super) fn for_child(&self, child: &ComponentId) -> Ledger {
        let covers = |(_, addr): &&Entry| {
            let balancer = addr.balancer();
            child.level() <= balancer.level() && balancer.prefix(child.level()) == *child
        };
        Ledger {
            pinned: self.pinned.iter().filter(covers).copied().collect(),
            tagged: self
                .tagged
                .iter()
                .filter(|(entry, _)| covers(entry))
                .map(|(entry, tag)| (*entry, *tag))
                .collect(),
        }
    }

    /// Pinned entries, in key order.
    pub(super) fn pinned_entries(&self) -> &SeenTokens {
        &self.pinned
    }

    /// Tagged entries with their tags, in key order.
    pub(super) fn tagged_entries(&self) -> impl Iterator<Item = (&Entry, &Tag)> + '_ {
        self.tagged.iter()
    }

    /// Entries of both kinds.
    pub(super) fn len(&self) -> usize {
        self.pinned.len() + self.tagged.len()
    }
}

/// Layer 3: the token ids the collector has counted, as disjoint
/// inclusive runs `first -> last`. Ids are issued in order and exit
/// roughly in order, so the set holds a handful of runs plus one gap
/// per token lost for good (a crash took it).
#[derive(Debug, Clone, Default)]
pub(super) struct IdRuns {
    runs: BTreeMap<u64, u64>,
    /// Ids held, over all runs.
    ids: u64,
}

impl IdRuns {
    /// Adds `id`; `false` if it was already in.
    pub(super) fn insert(&mut self, id: u64) -> bool {
        let left = self.runs.range(..=id).next_back().map(|(&first, &last)| (first, last));
        if left.is_some_and(|(_, last)| id <= last) {
            return false;
        }
        // `last < id` here, so `last + 1` cannot overflow.
        let first = match left {
            Some((first, last)) if last + 1 == id => first,
            _ => id,
        };
        let last = id.checked_add(1).and_then(|next| self.runs.remove(&next)).unwrap_or(id);
        self.runs.insert(first, last);
        self.ids += 1;
        true
    }

    /// Every id held, ascending.
    pub(super) fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|(&first, &last)| first..=last)
    }

    /// How many ids are held.
    pub(super) fn count(&self) -> u64 {
        self.ids
    }

    /// How many runs hold them.
    pub(super) fn runs(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use acn_topology::{network_input_address, Tree, WiringStyle};
    use proptest::prelude::*;

    use super::*;

    const NODES: u64 = 4;

    /// One obligation of the reference model: every node a copy went
    /// to (`NODES` stands for "adopted from elsewhere"), and whether it
    /// is discharged.
    #[derive(Debug, Default)]
    struct Model {
        sent_to: BTreeSet<u64>,
        discharged: bool,
    }

    /// The watermark by its definition, over the whole history.
    fn reference(model: &BTreeMap<u64, Model>, to: u64) -> u64 {
        model
            .iter()
            .filter(|(_, m)| m.sent_to.contains(&to) && (!m.discharged || m.sent_to.len() > 1))
            .map(|(&g, _)| g)
            .next()
            .unwrap_or(u64::MAX)
    }

    proptest! {
        /// Against a `BTreeMap`, a guid deque holds the same guids and
        /// values in the same order after every step: inserts mostly at
        /// the back and some out of order (re-inserts of a held guid
        /// included), removes, prunes below a mark, and lookups.
        #[test]
        fn a_guid_deque_keeps_the_contents_and_order_of_a_tree(
            ops in proptest::collection::vec((0u8..6, 0u64..48), 1..160),
        ) {
            let mut deque = GuidDeque::default();
            let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
            let mut next = 100;
            for (step, (kind, pick)) in ops.into_iter().enumerate() {
                let value = step as u64;
                match kind {
                    // The next guid of the counter, or a few past it.
                    0 | 1 => {
                        next += 1 + pick % 3;
                        prop_assert_eq!(deque.insert(next, value), tree.insert(next, value));
                    }
                    // Out of order: a guid below the counter.
                    2 => {
                        let guid = next.saturating_sub(pick);
                        prop_assert_eq!(deque.insert(guid, value), tree.insert(guid, value));
                    }
                    3 => {
                        let guid = next.saturating_sub(pick);
                        prop_assert_eq!(deque.remove(guid), tree.remove(&guid));
                    }
                    4 => {
                        let mark = next.saturating_sub(pick);
                        let mut popped = Vec::new();
                        while let Some(entry) = deque.pop_below(mark) {
                            popped.push(entry);
                        }
                        let mut expected = Vec::new();
                        while let Some(oldest) = tree.first_entry() {
                            if *oldest.key() >= mark {
                                break;
                            }
                            expected.push(oldest.remove_entry());
                        }
                        prop_assert_eq!(popped, expected);
                    }
                    _ => {
                        let guid = next.saturating_sub(pick);
                        prop_assert_eq!(deque.contains(guid), tree.contains_key(&guid));
                        prop_assert_eq!(deque.get_mut(guid).copied(), tree.get(&guid).copied());
                    }
                }
                let held: Vec<(u64, u64)> = deque.iter().map(|(g, &v)| (g, v)).collect();
                let expected: Vec<(u64, u64)> = tree.iter().map(|(&g, &v)| (g, v)).collect();
                prop_assert_eq!(held, expected);
                prop_assert_eq!(deque.first(), tree.keys().next().copied());
                prop_assert_eq!((deque.len(), deque.is_empty()), (tree.len(), tree.is_empty()));
            }
        }

        /// Against a reference that remembers every copy ever sent, the
        /// watermark for a node never passes a guid that had a copy
        /// sent there and is unacked or scattered — and passes every
        /// other guid.
        #[test]
        fn watermark_is_the_smallest_unacked_or_scattered_guid_per_link(
            ops in proptest::collection::vec((0u8..4, 0usize..64, 0u64..NODES), 1..120),
        ) {
            let mut wm = Watermarks::default();
            let mut model: BTreeMap<u64, Model> = BTreeMap::new();
            let mut live: Vec<(u64, Copies)> = Vec::new();
            let mut next_guid = 1;
            for (kind, pick, to) in ops {
                match kind {
                    0 => {
                        live.push((next_guid, Copies::Unsent));
                        model.insert(next_guid, Model::default());
                        next_guid += 1;
                    }
                    1 if !live.is_empty() => {
                        let i = pick % live.len();
                        let (guid, copies) = &mut live[i];
                        let carried = wm.send(*guid, copies, ProcessId(to));
                        prop_assert!(carried <= *guid);
                        model.get_mut(guid).expect("live").sent_to.insert(to);
                    }
                    2 if !live.is_empty() => {
                        let (guid, copies) = live.swap_remove(pick % live.len());
                        wm.discharge(guid, copies);
                        model.get_mut(&guid).expect("live").discharged = true;
                    }
                    3 => {
                        // An adopted guid: scattered before its first copy.
                        live.push((next_guid, Copies::Scattered));
                        let adopted = Model { sent_to: BTreeSet::from([NODES]), ..Model::default() };
                        model.insert(next_guid, adopted);
                        next_guid += 1;
                    }
                    _ => {}
                }
                for node in 0..NODES {
                    prop_assert_eq!(wm.acked_below(ProcessId(node)), reference(&model, node));
                }
            }
        }
    }

    #[test]
    fn a_scattered_guid_holds_back_every_link_it_used_for_good() {
        let (a, b, c) = (ProcessId(1), ProcessId(2), ProcessId(3));
        let mut wm = Watermarks::default();
        let (mut first, mut second) = (Copies::Unsent, Copies::Unsent);
        assert_eq!(wm.send(5, &mut first, a), 5);
        assert_eq!(wm.send(5, &mut first, a), 5, "a retransmission down the same link");
        assert_eq!(wm.send(7, &mut second, b), 7);
        wm.discharge(7, second);
        assert_eq!(wm.acked_below(b), u64::MAX, "acked, and sent nowhere else");
        assert_eq!(wm.send(5, &mut first, b), 5, "re-routed after a NACK");
        assert_eq!(first, Copies::Scattered);
        wm.discharge(5, first);
        assert_eq!((wm.acked_below(a), wm.acked_below(b), wm.acked_below(c)), (5, 5, u64::MAX));
    }

    fn entry(tree: &Tree, token: u64, wire: usize) -> Entry {
        (token, network_input_address(tree, wire, WiringStyle::Ahs))
    }

    #[test]
    fn a_forgotten_guid_takes_its_twin_and_nothing_else() {
        let tree = Tree::new(8);
        let (s, r) = (ProcessId(10), ProcessId(20));
        let mut accepted = Accepted::default();
        let mut ledger = Ledger::default();
        for guid in 1..=3 {
            let e = entry(&tree, guid, guid as usize);
            accepted.accept(s, guid, Some((e, 0)));
            assert!(ledger.record(e, Some((s, guid))));
        }
        accepted.accept(r, 1, None);
        let pinned = entry(&tree, 9, 0);
        assert!(ledger.record(pinned, None));
        assert!(!ledger.record(pinned, Some((s, 4))), "a hit records nothing");
        accepted.prune(s, 3, |(e, level), tag| {
            assert_eq!(level, 0);
            assert!(ledger.forget(&e, tag));
        });
        assert!(!accepted.contains(s, 2) && accepted.contains(s, 3) && accepted.contains(r, 1));
        assert!(!ledger.contains(&entry(&tree, 1, 1)) && !ledger.contains(&entry(&tree, 2, 2)));
        assert!(ledger.contains(&entry(&tree, 3, 3)) && ledger.contains(&pinned));
        assert_eq!((accepted.len(), ledger.len()), (2, 2));
        // A tag that does not match (the entry was re-recorded, or is
        // pinned) is not dropped.
        assert!(!ledger.forget(&pinned, (s, 9)));
        assert!(!ledger.forget(&entry(&tree, 3, 3), (r, 3)));
    }

    #[test]
    fn leaving_pins_everything_and_a_child_keeps_what_it_covers() {
        // At width 4 the root's children are balancers themselves: a
        // child covers the wires of its own balancer too.
        for width in [4, 8, 16] {
            let tree = Tree::new(width);
            let s = ProcessId(10);
            let mut ledger = Ledger::default();
            for wire in 0..width {
                ledger.record(entry(&tree, 1, wire), (wire % 2 == 0).then_some((s, wire as u64)));
            }
            let children = tree.children(&ComponentId::root());
            let inherited: Vec<Ledger> = children.iter().map(|c| ledger.for_child(c)).collect();
            let kept: usize = inherited.iter().map(Ledger::len).sum();
            assert_eq!(kept, width, "width {width}: each address has one child");
            for (child, kept) in children.iter().zip(&inherited) {
                let tagged = kept.tagged_entries().map(|(e, _)| e);
                for e in kept.pinned_entries().iter().chain(tagged) {
                    let covered = e.1.candidates().any(|c| c == *child);
                    assert!(covered, "{child} does not cover {}", e.1);
                }
            }
            let carried = ledger.into_pinned();
            assert_eq!(carried.len(), width);
            let mut arrived = Ledger::pinned(carried);
            assert!(!arrived.forget(&entry(&tree, 1, 0), (s, 0)), "pinned once it left");
            arrived.absorb(inherited[0].clone());
            assert_eq!(arrived.len(), width, "absorbing known entries adds nothing");
        }
    }

    #[test]
    fn id_runs_count_each_id_once_in_any_order() {
        let mut runs = IdRuns::default();
        for id in [3, 1, 2, 7, 5, 6] {
            assert!(runs.insert(id), "{id}");
        }
        for id in [1, 2, 3, 5, 6, 7] {
            assert!(!runs.insert(id), "duplicate {id}");
        }
        assert_eq!((runs.count(), runs.runs()), (6, 2), "4 is a hole");
        assert_eq!(runs.ids().collect::<Vec<_>>(), vec![1, 2, 3, 5, 6, 7]);
        assert!(runs.insert(4));
        assert_eq!((runs.count(), runs.runs()), (7, 1), "the hole closed");
        assert!(runs.insert(u64::MAX) && !runs.insert(u64::MAX));
        assert!(runs.insert(u64::MAX - 1));
        assert_eq!(runs.runs(), 2);
    }

    #[test]
    fn holes_left_by_lost_tokens_stay_one_run_each() {
        let mut runs = IdRuns::default();
        let lost = |id: u64| id % 100 == 37;
        // Out of order within windows of 8, every 100th-ish id lost.
        for base in (0..2_000u64).step_by(8) {
            for id in (base..base + 8).rev().filter(|&id| id > 0 && !lost(id)) {
                assert!(runs.insert(id));
            }
        }
        assert_eq!(runs.runs(), 21, "one run per gap, plus the last");
        assert_eq!(runs.count(), 1_999 - 20);
        let counted: BTreeSet<u64> = runs.ids().collect();
        assert!(counted.iter().all(|&id| !lost(id)) && counted.len() as u64 == runs.count());
    }
}

//! One three-method interface over every counter in the repo, so all
//! `*.next*_ns` probes share one timing loop.
//!
//! The adaptive counters are built at the workloads' level-2 cut, so
//! `concurrent.next_value_1t_ns` and `frontend.next_value_1t_ns` are
//! the per-layer shares of the `shm_*` workloads' cost.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acn_bitonic::{
    bitonic_network, AtomicNetworkCounter, CentralCounter, ReactiveTreeCounter, TreeCounter,
};
use acn_core::{AdaptError, LocalAdaptiveNetwork, ShardedFrontEnd, SharedAdaptiveNetwork};
use acn_periodic::{AdaptivePeriodic, PId};
use acn_topology::{ComponentId, Tree};

/// A source of counter values of a given width (the three-method
/// interface of SNIPPETS.md snippet 1).
pub trait Counter {
    fn new(width: usize) -> Self;
    /// Only the tests ask; the probes build every counter at one width.
    #[cfg_attr(not(test), allow(dead_code))]
    fn width(&self) -> usize;
    fn next(&self) -> u64;
}

thread_local! {
    /// This thread's lane: its index among the driving threads (the
    /// front-end shard it uses) and the state of its wire generator.
    static LANE: Cell<(usize, u64)> = const { Cell::new((0, 0x9E37_79B9_7F4A_7C15)) };
}

/// The next pseudo-random input wire of this thread, and its lane.
fn next_wire(width: usize) -> (usize, usize) {
    LANE.with(|lane| {
        let (index, state) = lane.get();
        let state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lane.set((index, state));
        (index, (state >> 33) as usize % width)
    })
}

/// The ids the level-2 cut is reached through: the root, then each of
/// its children that can still be split.
pub fn level2_splits(width: usize) -> Vec<ComponentId> {
    let tree = Tree::new(width);
    let root = ComponentId::root();
    let mut ids = vec![root.clone()];
    ids.extend(
        tree.children(&root)
            .into_iter()
            .filter(|child| tree.info(child).is_some_and(|info| !info.is_balancer())),
    );
    ids
}

/// `SharedAdaptiveNetwork` (either mode) split to the level-2 cut.
pub fn shared_level2(net: SharedAdaptiveNetwork) -> Result<SharedAdaptiveNetwork, AdaptError> {
    for id in level2_splits(net.width()) {
        net.split(&id)?;
    }
    Ok(net)
}

impl Counter for CentralCounter {
    fn new(_width: usize) -> Self {
        CentralCounter::new()
    }
    fn width(&self) -> usize {
        1
    }
    fn next(&self) -> u64 {
        acn_bitonic::Counter::next(self)
    }
}

impl Counter for TreeCounter {
    fn new(width: usize) -> Self {
        TreeCounter::new(width)
    }
    fn width(&self) -> usize {
        TreeCounter::width(self)
    }
    fn next(&self) -> u64 {
        acn_bitonic::Counter::next(self)
    }
}

/// The DLS00 reactive tree with its root unfolded, so a token crosses a
/// toggle and not only the folded counter.
impl Counter for ReactiveTreeCounter {
    fn new(width: usize) -> Self {
        let tree = ReactiveTreeCounter::new(width.trailing_zeros());
        tree.unfold_root();
        tree
    }
    fn width(&self) -> usize {
        ReactiveTreeCounter::width(self) as usize
    }
    fn next(&self) -> u64 {
        acn_bitonic::Counter::next(self)
    }
}

/// The static BITONIC[w] balancer network on atomics.
impl Counter for AtomicNetworkCounter {
    fn new(width: usize) -> Self {
        AtomicNetworkCounter::new(bitonic_network(width))
    }
    fn width(&self) -> usize {
        AtomicNetworkCounter::width(self)
    }
    fn next(&self) -> u64 {
        self.next_value()
    }
}

/// The adaptive periodic network, split once (three BLOCK components).
pub struct Periodic(RefCell<AdaptivePeriodic>);

impl Counter for Periodic {
    fn new(width: usize) -> Self {
        let mut net = AdaptivePeriodic::new(width);
        net.split(&PId::root()).expect("the periodic root splits");
        Periodic(RefCell::new(net))
    }
    fn width(&self) -> usize {
        self.0.borrow().width()
    }
    fn next(&self) -> u64 {
        let mut net = self.0.borrow_mut();
        let width = net.width();
        let out = net.push(next_wire(width).1);
        out as u64 + (net.output_counts()[out] - 1) * width as u64
    }
}

/// The sequential reference network at the level-2 cut.
pub struct Local(RefCell<LocalAdaptiveNetwork>);

impl Counter for Local {
    fn new(width: usize) -> Self {
        let mut net = LocalAdaptiveNetwork::new(width);
        for id in level2_splits(width) {
            net.split(&id)
                .expect("level-2 split of a quiescent network");
        }
        Local(RefCell::new(net))
    }
    fn width(&self) -> usize {
        self.0.borrow().width()
    }
    fn next(&self) -> u64 {
        let mut net = self.0.borrow_mut();
        let wire = next_wire(net.width()).1;
        net.next_value(wire)
    }
}

/// `SharedAdaptiveNetwork` in `ExecMode::LockFree`.
pub struct Shared(pub SharedAdaptiveNetwork);

impl Counter for Shared {
    fn new(width: usize) -> Self {
        Shared(shared_level2(SharedAdaptiveNetwork::new(width)).expect("level-2 split"))
    }
    fn width(&self) -> usize {
        self.0.width()
    }
    fn next(&self) -> u64 {
        self.0.next_value(next_wire(self.0.width()).1)
    }
}

/// `SharedAdaptiveNetwork` in `ExecMode::Locked`.
pub struct SharedLocked(SharedAdaptiveNetwork);

impl Counter for SharedLocked {
    fn new(width: usize) -> Self {
        SharedLocked(
            shared_level2(SharedAdaptiveNetwork::new_locked(width)).expect("level-2 split"),
        )
    }
    fn width(&self) -> usize {
        self.0.width()
    }
    fn next(&self) -> u64 {
        self.0.next_value(next_wire(self.0.width()).1)
    }
}

/// A two-shard front-end; a driving thread uses the shard of its lane.
impl Counter for ShardedFrontEnd {
    fn new(width: usize) -> Self {
        ShardedFrontEnd::new(Arc::new(Shared::new(width).0), 2)
    }
    fn width(&self) -> usize {
        self.network().width()
    }
    fn next(&self) -> u64 {
        let (lane, wire) = next_wire(self.network().width());
        self.next_value(lane % self.shards(), wire)
    }
}

/// The one timing loop: calls `next` in blocks of 64 until `until`,
/// as lane `lane`; returns the calls made.
fn drive<C: Counter>(counter: &C, lane: usize, until: Instant) -> u64 {
    LANE.with(|l| l.set((lane, 0x9E37_79B9_7F4A_7C15 ^ (lane as u64) << 32)));
    let mut calls = 0u64;
    let mut sink = 0u64;
    while Instant::now() < until {
        for _ in 0..64 {
            sink = sink.wrapping_add(counter.next());
        }
        calls += 64;
    }
    std::hint::black_box(sink);
    calls
}

/// Wall nanoseconds per `next` call on one thread.
pub fn ns_per_next<C: Counter>(counter: &C, budget: Duration) -> f64 {
    let start = Instant::now();
    let calls = drive(counter, 0, start + budget);
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Wall nanoseconds per `next` call with `threads` threads calling at
/// once (inverse aggregate throughput).
pub fn ns_per_next_threads<C: Counter + Sync>(
    counter: &C,
    threads: usize,
    budget: Duration,
) -> f64 {
    let start = Instant::now();
    let calls: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| scope.spawn(move || drive(counter, lane, start + budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    start.elapsed().as_nanos() as f64 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every adaptor hands out 0..n exactly once when driven alone.
    fn dense<C: Counter>() {
        let counter = C::new(16);
        assert!(
            counter.width() == 16 || counter.width() == 1,
            "central counters have width 1"
        );
        let mut values: Vec<u64> = (0..200).map(|_| counter.next()).collect();
        values.sort_unstable();
        assert_eq!(values, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn every_adaptor_counts_densely() {
        dense::<CentralCounter>();
        dense::<TreeCounter>();
        dense::<ReactiveTreeCounter>();
        dense::<AtomicNetworkCounter>();
        dense::<Periodic>();
        dense::<Local>();
        dense::<Shared>();
        dense::<SharedLocked>();
    }

    #[test]
    fn the_front_end_counts_densely_once_its_stashes_are_drained() {
        let fe = <ShardedFrontEnd as Counter>::new(16);
        let mut values: Vec<u64> = (0..200).map(|_| Counter::next(&fe)).collect();
        values.extend(fe.drain_outstanding());
        values.sort_unstable();
        assert_eq!(values, (0..values.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn the_level2_cut_of_width_64_has_the_expected_shape() {
        let net = Shared::new(64).0;
        assert_eq!(level2_splits(64).len(), 7);
        assert!(net.structure_consistent());
        assert_eq!(net.cut().leaves().len(), 24);
    }
}

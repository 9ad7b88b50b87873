//! The sharded, batching **front-end** of the shared executor.
//!
//! [`SharedAdaptiveNetwork`]'s scalar path is one shared read pin plus
//! one `fetch_add` per leaf crossed, which is optimal *per token* but
//! still serializes every token of every thread through the same few
//! hot cache lines. [`ShardedFrontEnd`] amortizes that with two
//! stacked moves:
//!
//! 1. **Per-shard value stashes**: each shard (one per core/thread)
//!    holds a small stash of pre-claimed counter values behind its own
//!    cache-padded mutex. `next_value` is a stash pop — no shared
//!    atomics at all — until the stash runs dry.
//! 2. **Batched refills**: a dry stash refills with
//!    [`SharedAdaptiveNetwork::next_batch`], claiming `B` values in
//!    one traversal (one `fetch_add` per leaf for the whole batch).
//!    `B` adapts on one always-on signal, a shared refill *ticket*: a
//!    refill whose ticket is not adjacent to the shard's previous one
//!    interleaved with other shards' refills and multiplies `B` by
//!    the size of the observed burst, toward `BATCH_MAX`; `B` halves
//!    toward `BATCH_MIN` only after a full `QUIET_WINDOW` of
//!    evidence-free refills (peers on an oversubscribed core surface
//!    as rare bursts, once per scheduler quantum — instant shrinking
//!    would floor the batch in between), so a lone thread decays back
//!    to the scalar path in bounded time and never over-claims.
//!
//! A refill is therefore: ticket probe → grow/shrink → `next_value`
//! (batch of one) or `next_batch`. Nothing in it reads telemetry, so
//! attaching a registry cannot change what the front-end hands out.
//!
//! # Consistency
//!
//! Values served from a stash were claimed at refill time, so a
//! batched counter is **quiescently consistent**, not linearizable:
//! real-time order between values of different shards is not
//! preserved, but no value is ever duplicated or lost, and at any
//! quiescent point `consumed ∪ outstanding stashes` is exactly
//! `0..total` (DESIGN.md §12; `acn-check` explores the refill and
//! reconfiguration races under `VirtualSync`).

use std::sync::Arc;

use acn_sync::{CachePadded, Ordering, RealSync, SyncApi, SyncAtomicU64, SyncMutex};
use acn_telemetry::{Counter, Registry};

use crate::concurrent::SharedAdaptiveNetwork;

/// Smallest refill batch (also the initial size): a shard that
/// observes no concurrency degenerates to the scalar path — perfect
/// freshness, nothing to amortize.
const BATCH_MIN: u64 = 1;
/// Largest refill batch.
const BATCH_MAX: u64 = 256;
/// Consecutive refills with no foreign ticket before the batch halves.
/// One quantum of a descheduled peer can span thousands of our refills
/// on an oversubscribed core, so aloneness needs sustained evidence
/// (≲ a scheduler quantum of max-batch refills); concurrency (a
/// foreign-ticket burst) is believed immediately.
const QUIET_WINDOW: u64 = 1024;

/// The mutable state of one shard, behind its cache-padded mutex.
#[derive(Debug, Hash)]
struct ShardState {
    /// Pre-claimed values, served LIFO.
    stash: Vec<u64>,
    /// Current adaptive batch size, in `[BATCH_MIN, BATCH_MAX]`.
    batch: u64,
    /// The ticket this shard would draw next if nobody else refilled
    /// in between (concurrency probe).
    next_ticket: u64,
    /// Consecutive refills with no concurrency evidence, in
    /// `[0, QUIET_WINDOW)`; hitting the window halves the batch.
    quiet: u64,
}

/// Telemetry handles (`acn.exec.*`); all no-ops until
/// [`ShardedFrontEnd::attach_telemetry`].
#[derive(Debug, Default)]
struct FrontMetrics {
    /// `acn.exec.refills` — stash refills (traversals issued by the
    /// front-end).
    refills: Counter,
    /// `acn.exec.batch_grow` — refills that saw a foreign ticket and
    /// grew the batch (already-at-max refills count too).
    batch_grow: Counter,
    /// `acn.exec.batch_shrink` — batch halvings after a full quiet
    /// window of alone refills (already-at-min halvings count too).
    batch_shrink: Counter,
}

impl FrontMetrics {
    fn attach(registry: &Registry) -> FrontMetrics {
        FrontMetrics {
            refills: registry.counter("acn.exec.refills"),
            batch_grow: registry.counter("acn.exec.batch_grow"),
            batch_shrink: registry.counter("acn.exec.batch_shrink"),
        }
    }
}

/// The sharded batching front-end. See the [module docs](self).
///
/// Callers address a shard explicitly (`shard` argument, typically
/// the worker's index modulo [`shards`](Self::shards)) so placement
/// stays deterministic under the model checker.
pub struct ShardedFrontEnd<S: SyncApi = RealSync> {
    net: Arc<SharedAdaptiveNetwork<S>>,
    shards: Vec<CachePadded<S::Mutex<ShardState>>>,
    /// Global refill ticket counter: each refill claims a ticket; a
    /// shard whose consecutive tickets are non-adjacent knows other
    /// shards refilled in between.
    refill_seq: CachePadded<S::AtomicU64>,
    metrics: FrontMetrics,
}

impl ShardedFrontEnd<RealSync> {
    /// A front-end over `net` with `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(net: Arc<SharedAdaptiveNetwork>, shards: usize) -> Self {
        Self::new_in(net, shards)
    }
}

impl<S: SyncApi> ShardedFrontEnd<S> {
    /// A front-end under an explicit [`SyncApi`] (the model checker
    /// instantiates this with `VirtualSync`).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new_in(net: Arc<SharedAdaptiveNetwork<S>>, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        ShardedFrontEnd {
            net,
            shards: (0..shards)
                .map(|_| {
                    CachePadded::new(S::Mutex::new(ShardState {
                        stash: Vec::new(),
                        batch: BATCH_MIN,
                        next_ticket: 0,
                        quiet: 0,
                    }))
                })
                .collect(),
            refill_seq: CachePadded::new(S::AtomicU64::new(0)),
            metrics: FrontMetrics::default(),
        }
    }

    /// Registers the front-end's metrics (`acn.exec.refills`,
    /// `acn.exec.batch_grow`/`batch_shrink`) with `registry`. Call
    /// before sharing across threads (it needs `&mut`).
    /// Observation-only.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = FrontMetrics::attach(registry);
    }

    /// The number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &SharedAdaptiveNetwork<S> {
        &self.net
    }

    /// The next counter value, served from `shard`'s stash (refilled
    /// in batches through `wire` when dry). Quiescently consistent;
    /// see the [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()` or `wire >= width`.
    pub fn next_value(&self, shard: usize, wire: usize) -> u64 {
        let mut st = self.shards[shard].lock();
        if let Some(v) = st.stash.pop() {
            return v;
        }
        self.refill(&mut st, wire);
        st.stash.pop().expect("a refill stashes at least one value")
    }

    /// Refills a dry stash: adapt the batch size from the ticket
    /// probe, then traverse.
    fn refill(&self, st: &mut ShardState, wire: usize) {
        self.metrics.refills.inc();
        // lint: relaxed-ok(monotone ticket counter; only the caller's own before/after delta is compared, no cross-location ordering consumed)
        let ticket = self.refill_seq.fetch_add(1, Ordering::Relaxed);
        // `foreign` counts the peer refills that interleaved. On an
        // oversubscribed core peers surface as rare huge bursts (one
        // per scheduler quantum), so growth scales with the burst
        // while shrinking waits out a quiet window.
        let foreign = ticket.saturating_sub(st.next_ticket);
        st.next_ticket = ticket + 1;
        if foreign > 0 {
            st.quiet = 0;
            self.metrics.batch_grow.inc();
            st.batch = st.batch.saturating_mul(foreign + 1).min(BATCH_MAX);
        } else {
            st.quiet += 1;
            if st.quiet >= QUIET_WINDOW {
                st.quiet = 0;
                self.metrics.batch_shrink.inc();
                st.batch = (st.batch / 2).max(BATCH_MIN);
            }
        }
        // A batch of one IS the scalar path — take it directly (no
        // batch bookkeeping, no Vec).
        if st.batch == 1 {
            st.stash.push(self.net.next_value(wire));
        } else {
            st.stash = self.net.next_batch(wire, st.batch);
        }
    }

    /// Each shard's current adaptive batch size (diagnostics; exact
    /// only at quiescence).
    #[must_use]
    pub fn batch_sizes(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.lock().batch).collect()
    }

    /// Total values claimed from the network but not yet handed out
    /// (the stashes' fill). Exact only at quiescence. The conservation
    /// oracle is `consumed + outstanding() == network total`.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().stash.len() as u64).sum()
    }

    /// Drains and returns every stashed value (for quiescent density
    /// accounting in tests: `consumed ∪ drain_outstanding()` must be
    /// dense).
    #[must_use]
    pub fn drain_outstanding(&self) -> Vec<u64> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().stash);
        }
        all
    }
}

impl<S: SyncApi> std::fmt::Debug for ShardedFrontEnd<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFrontEnd").field("shards", &self.shards.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_topology::ComponentId;

    fn front(width: usize, shards: usize) -> ShardedFrontEnd {
        let net = Arc::new(SharedAdaptiveNetwork::new(width));
        net.split(&ComponentId::root()).unwrap();
        ShardedFrontEnd::new(net, shards)
    }

    #[test]
    fn single_shard_hands_out_values_and_conserves() {
        let fe = front(8, 1);
        let got: Vec<u64> = (0..40).map(|i| fe.next_value(0, i % 8)).collect();
        // No duplicates among served values.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), got.len(), "duplicated value");
        // Conservation: consumed + stashed = claimed from the network.
        assert_eq!(got.len() as u64 + fe.outstanding(), fe.network().total_exited());
        // Density at quiescence.
        let mut all = got;
        all.extend(fe.drain_outstanding());
        all.sort_unstable();
        assert_eq!(all, (0..all.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn threads_on_distinct_shards_stay_dense() {
        let fe = Arc::new(front(8, 4));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let fe = Arc::clone(&fe);
                std::thread::spawn(move || {
                    (0..500).map(|i| fe.next_value(t, (t + i) % 8)).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        assert_eq!(all.len() as u64 + fe.outstanding(), fe.network().total_exited());
        all.extend(fe.drain_outstanding());
        all.sort_unstable();
        assert_eq!(all, (0..all.len() as u64).collect::<Vec<u64>>());
    }

    #[test]
    fn batch_size_adapts_up_under_concurrency_and_down_alone() {
        let fe = front(8, 2);
        // Drains the stash so the next call refills.
        let refill = |shard: usize| {
            fe.shards[shard].lock().stash.clear();
            let _ = fe.next_value(shard, 0);
        };
        // Interleave refills of two shards: each sees the other's
        // ticket between its own → contended → batches grow.
        for _ in 0..BATCH_MAX.ilog2() + 2 {
            refill(0);
            refill(1);
        }
        assert_eq!(fe.batch_sizes(), vec![BATCH_MAX; 2], "interleaved refills grow the batch");

        // Now refill only shard 0 repeatedly: adjacent tickets →
        // uncontended — but the batch must survive a full quiet
        // window before each halving (aloneness needs sustained
        // evidence; see QUIET_WINDOW) ...
        for _ in 0..QUIET_WINDOW - 1 {
            refill(0);
        }
        assert_eq!(fe.batch_sizes()[0], BATCH_MAX, "shrinking before the window");

        // ... and then decays back to the minimum.
        for _ in 0..u64::from(BATCH_MAX.ilog2() + 1) * QUIET_WINDOW {
            refill(0);
        }
        assert_eq!(fe.batch_sizes()[0], BATCH_MIN);
    }
}

//! A thread-safe shared-memory adaptive counting network.
//!
//! Counting networks were born as shared-memory structures (the paper's
//! lineage runs through Aspnes–Herlihy–Shavit and diffracting trees);
//! [`SharedAdaptiveNetwork`] brings the *adaptive* construction into that
//! setting. It is exactly two things behind **one** reader–writer lock:
//!
//! - the authoritative [`LocalAdaptiveNetwork`] — the sequential
//!   reference model the oracles compare against, and the only place
//!   split/merge surgery is implemented;
//! - the **routes compiled from it**: per leaf, one cache-padded atomic
//!   round-robin counter (a component *is* one mod-k counter, paper §3)
//!   plus precomputed output routing.
//!
//! A token takes **one shared read pin** for its traversal and does
//! **one `fetch_add` per leaf** crossed (plus the arrival tally harvest
//! needs). `split`/`merge` take the write side, which *drains* every
//! pinned token; they *harvest* the atomic residues back into the model
//! (an exact batch transfer — round-robin output is oblivious to
//! arrival order), call [`LocalAdaptiveNetwork::split`] /
//! [`merge`](LocalAdaptiveNetwork::merge), and recompile the routes.
//! The lock's release/acquire edge is the only ordering the protocol
//! needs; there is no epoch and no retry. See `DESIGN.md` §8 for why
//! residue transfer preserves the step property.
//!
//! [`SharedAdaptiveNetwork::new_locked`] builds a **reference** network
//! instead: every token runs the sequential model under the exclusive
//! side of the same lock. It exists so tests and the benchmark can
//! compare the compiled routes against the reference algorithm under
//! identical concurrency; it is not a serving mode.
//!
//! # Synchronization abstraction
//!
//! The network is generic over [`SyncApi`]: production code uses the
//! default [`RealSync`] (parking_lot + std atomics, zero-cost), while
//! `acn-check`'s `VirtualSync` routes every primitive through a
//! schedule-exploring model checker.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use acn_core::SharedAdaptiveNetwork;
//!
//! let net = Arc::new(SharedAdaptiveNetwork::new(8));
//! let workers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let net = Arc::clone(&net);
//!         std::thread::spawn(move || (0..100).map(|i| net.next_value((t + i) % 8)).count())
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//! assert_eq!(net.total_exited(), 400);
//! ```

use std::hash::{Hash, Hasher};

use acn_sync::{CachePadded, Ordering, RealSync, SyncApi, SyncAtomicU64, SyncRwLock};
use acn_telemetry::{Counter, Histogram, Registry};
use acn_trace::{Span, Tracer};

use acn_topology::{ComponentId, Cut, CutWiring, Route};

use crate::component::port_emissions;
use crate::local::{AdaptError, LocalAdaptiveNetwork};

/// One live leaf component, reduced to its fast-path essentials: an
/// atomic round-robin counter plus an atomic arrival profile, next to
/// its output routes (copied out of the [`CutWiring`], so a hop reads
/// them from the leaf it is at).
///
/// `base_tokens` is the model component's counter at compile time; the
/// j-th token through this leaf (j = `hops.fetch_add(1)`) leaves on
/// output port `(base_tokens + j) mod width` — exactly what
/// [`Component::process_token`](crate::Component::process_token) would
/// have computed, because a component's output behaviour depends only
/// on its counter, never on arrival order. The arrival profile is
/// tallied so the writer's harvest can replay the batch into the model
/// exactly.
///
/// The hot per-leaf atomics are individually cache-line padded
/// ([`CachePadded`]): `hops` and each per-port arrival tally get their
/// own line, so tokens contending on *different* leaves (or different
/// ports of one leaf) never false-share (the benchmark ledger's
/// `sync.fetch_add_shared_2t_ns` vs `sync.fetch_add_padded_2t_ns`).
struct FastLeaf<S: SyncApi> {
    id: ComponentId,
    width: usize,
    base_tokens: u64,
    hops: CachePadded<S::AtomicU64>,
    arrivals: Vec<CachePadded<S::AtomicU64>>,
    routes: Vec<Route>,
}

/// The routes compiled from one state of the model: immutable apart
/// from the per-leaf atomics, replaced wholesale by every
/// reconfiguration.
struct FastSnapshot<S: SyncApi> {
    /// Network input wire -> (leaf index, input port).
    entries: Vec<(usize, usize)>,
    /// The cut's leaves in `ComponentId` order.
    leaves: Vec<FastLeaf<S>>,
}

impl<S: SyncApi> Hash for FastLeaf<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.width.hash(state);
        self.base_tokens.hash(state);
        self.hops.hash(state);
        self.arrivals.hash(state);
        self.routes.hash(state);
    }
}

impl<S: SyncApi> Hash for FastSnapshot<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.hash(state);
        self.leaves.hash(state);
    }
}

impl<S: SyncApi> FastSnapshot<S> {
    /// Reduces the model's cut to its fast-path form: the cut's
    /// [`CutWiring`] plus per-leaf atomic round-robin counters.
    fn compile(model: &LocalAdaptiveNetwork) -> Self {
        let wiring = CutWiring::with_style(model.tree(), model.cut(), model.style());
        let leaves = wiring
            .leaves()
            .enumerate()
            .map(|(i, id)| {
                let comp = model.component(id).expect("cut leaf has a live component");
                assert_eq!(
                    comp.floating(),
                    0,
                    "shared-memory reconfigurations are quiescent, so components \
                     never owe in-flight tokens"
                );
                let width = comp.width();
                FastLeaf {
                    id: *id,
                    width,
                    base_tokens: comp.tokens(),
                    hops: CachePadded::new(S::AtomicU64::new(0)),
                    arrivals: (0..width)
                        .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                        .collect(),
                    routes: wiring.routes(i).to_vec(),
                }
            })
            .collect();
        let entries = (0..model.width()).map(|wire| wiring.input(wire)).collect();
        FastSnapshot { entries, leaves }
    }

    /// Whether these routes were compiled from `model` as it stands:
    /// same leaves, same counter bases. Holds whenever the lock is
    /// free, because the model only changes under the write side,
    /// which recompiles before releasing.
    fn mirrors(&self, model: &LocalAdaptiveNetwork) -> bool {
        self.leaves.len() == model.cut().leaves().len()
            && self.leaves.iter().all(|leaf| {
                model.component(&leaf.id).is_some_and(|c| c.tokens() == leaf.base_tokens)
            })
    }

    /// Carries one token from `wire` to its exit wire: one `fetch_add`
    /// per leaf crossed (two with the arrival tally). Per leaf, the
    /// arrival tally precedes the hop claim; at the harvest quiescent
    /// point both sums agree (every token did both or neither — the
    /// read pin guarantees it).
    fn walk(&self, wire: usize, metrics: &ConcMetrics) -> usize {
        let (mut leaf_idx, mut port) = self.entries[wire];
        let mut depth = 0u64;
        loop {
            let leaf = &self.leaves[leaf_idx];
            // lint: relaxed-ok(arrival tally; read only at the harvest quiescent point, where the write-lock acquisition supplies the edge)
            leaf.arrivals[port].fetch_add(1, Ordering::Relaxed);
            // lint: relaxed-ok(the output port comes from this leaf's own RMW modification order, which alone determines it; harvest reads under the write-lock edge)
            let hop = leaf.hops.fetch_add(1, Ordering::Relaxed);
            let out_port = ((leaf.base_tokens + hop) % leaf.width as u64) as usize;
            depth += 1;
            match leaf.routes[out_port] {
                Route::Leaf { leaf: next, port: next_port } => {
                    leaf_idx = next;
                    port = next_port;
                }
                Route::Exit(out) => {
                    metrics.traversal_depth.record(depth);
                    return out;
                }
            }
        }
    }

    /// Carries `weight` tokens from `wire` with **one `fetch_add` per
    /// leaf crossed** (two with the arrival tally), however large the
    /// batch, reporting each `(exit wire, tokens)` to `exit`.
    ///
    /// The batch claims positions `[h, h + k)` of a leaf's
    /// modification order atomically (`hops.fetch_add(k)`), and
    /// round-robin output is a pure function of position, so the
    /// tokens leaving on output port `q` number
    /// `port_emissions(base + h + k, width, q) -
    ///  port_emissions(base + h, width, q)` — the same delta
    /// arithmetic [`Component::absorb_batch`](crate::Component::absorb_batch)
    /// uses, which is why the residue harvest stays exact under
    /// weighted tokens: arrivals and hops are bumped by equal totals,
    /// and absorb only ever looks at sums.
    ///
    /// Downstream weights are accumulated per (leaf, port) and
    /// processed in increasing leaf index: routes only ever point at
    /// strictly higher leaf indices ([`CutWiring`] asserts it), so a
    /// single in-order sweep settles the whole batch.
    fn walk_batch(
        &self,
        wire: usize,
        weight: u64,
        metrics: &ConcMetrics,
        mut exit: impl FnMut(usize, u64),
    ) {
        let mut pending: Vec<Vec<u64>> =
            self.leaves.iter().map(|l| vec![0u64; l.width]).collect();
        let (leaf0, port0) = self.entries[wire];
        pending[leaf0][port0] = weight;
        let mut depth = 0u64;
        for leaf_idx in leaf0..self.leaves.len() {
            let leaf = &self.leaves[leaf_idx];
            let total: u64 = pending[leaf_idx].iter().sum();
            if total == 0 {
                continue;
            }
            depth += 1;
            for (port, &k) in pending[leaf_idx].iter().enumerate() {
                if k > 0 {
                    // lint: relaxed-ok(arrival tally; read only at the harvest quiescent point, where the write-lock acquisition supplies the edge)
                    leaf.arrivals[port].fetch_add(k, Ordering::Relaxed);
                }
            }
            // lint: relaxed-ok(the claimed position range comes from this leaf's own RMW modification order, which alone determines the outputs; harvest reads under the write-lock edge)
            let h = leaf.hops.fetch_add(total, Ordering::Relaxed);
            let before = leaf.base_tokens + h;
            for (q, route) in leaf.routes.iter().enumerate() {
                let emitted = port_emissions(before + total, leaf.width, q)
                    - port_emissions(before, leaf.width, q);
                if emitted == 0 {
                    continue;
                }
                match *route {
                    Route::Leaf { leaf: next, port } => pending[next][port] += emitted,
                    Route::Exit(out) => exit(out, emitted),
                }
            }
        }
        // One depth sample per batch: leaves crossed by the batch
        // (its widest token path), not per token.
        metrics.traversal_depth.record(depth);
    }

    /// Folds the per-leaf counter residues back into `model`. Called
    /// with the write lock held: its acquisition happens-after every
    /// drained token's release, so the relaxed tallies read exactly.
    ///
    /// The batch transfer is exact because a component's output
    /// behaviour depends only on its counter: `n` tokens through a
    /// leaf with arrival profile `deltas` leave the component in
    /// precisely the state `n` sequential `process_token` calls would
    /// have ([`Component::absorb_batch`](crate::Component::absorb_batch)).
    /// The caller must recompile afterwards, whatever else it does:
    /// the harvest moves the model past every `base_tokens` here.
    fn harvest_into(&self, model: &mut LocalAdaptiveNetwork) {
        for leaf in &self.leaves {
            let deltas: Vec<u64> =
                leaf.arrivals.iter().map(|a| a.load(Ordering::Acquire)).collect();
            let n: u64 = deltas.iter().sum();
            if n == 0 {
                continue;
            }
            debug_assert_eq!(
                n,
                leaf.hops.load(Ordering::Acquire),
                "drained tokens tally arrivals and hops equally"
            );
            let comp = model.component_mut(&leaf.id).expect("routes mirror the model");
            debug_assert_eq!(comp.tokens(), leaf.base_tokens, "compiled base out of date");
            comp.absorb_batch(&deltas);
        }
    }
}

/// Telemetry handles for the shared runtime (all no-ops by default).
#[derive(Debug, Default)]
struct ConcMetrics {
    /// `acn.conc.traversal_depth` — components crossed per token.
    traversal_depth: Histogram,
    /// `acn.conc.tokens` — tokens routed through the network.
    tokens: Counter,
    /// `acn.conc.splits` / `acn.conc.merges` — reconfigurations applied.
    splits: Counter,
    merges: Counter,
    /// `acn.conc.fastpath_hits` — tokens that crossed the compiled
    /// routes under a read pin (every token, except on a reference
    /// network).
    fastpath_hits: Counter,
    /// `acn.exec.batch_flushes` — batched traversals executed
    /// ([`SharedAdaptiveNetwork::push_batch`] /
    /// [`SharedAdaptiveNetwork::next_batch`] calls with nonzero weight).
    batch_flushes: Counter,
    /// `acn.exec.batch_tokens` — tokens carried by batched traversals
    /// (`batch_tokens / batch_flushes` = mean realized batch size).
    batch_tokens: Counter,
}

impl ConcMetrics {
    fn attach(registry: &Registry) -> Self {
        ConcMetrics {
            traversal_depth: registry.histogram("acn.conc.traversal_depth"),
            tokens: registry.counter("acn.conc.tokens"),
            splits: registry.counter("acn.conc.splits"),
            merges: registry.counter("acn.conc.merges"),
            fastpath_hits: registry.counter("acn.conc.fastpath_hits"),
            batch_flushes: registry.counter("acn.exec.batch_flushes"),
            batch_tokens: registry.counter("acn.exec.batch_tokens"),
        }
    }
}

/// Everything the one lock protects: the reference model and the
/// routes compiled from it. Only the model's cut and components are
/// authoritative here; its own per-wire ledgers are not maintained on
/// the compiled path (the network's padded atomics are the ledgers).
struct State<S: SyncApi> {
    model: LocalAdaptiveNetwork,
    routes: FastSnapshot<S>,
}

impl<S: SyncApi> Hash for State<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.model.hash(state);
        self.routes.hash(state);
    }
}

/// A concurrent adaptive counting network for one address space.
///
/// Cloneable via `Arc`; see the module docs for the one-lock protocol.
/// Generic over [`SyncApi`] (default [`RealSync`]) so the same code is
/// both the production executor and the model-checked artifact.
pub struct SharedAdaptiveNetwork<S: SyncApi = RealSync> {
    width: usize,
    /// A reference network ([`new_locked`](Self::new_locked)): tokens
    /// run the model itself under the write side instead of walking
    /// the compiled routes under the read side.
    reference: bool,
    /// Tokens pin the read side for their whole traversal; a
    /// reconfiguring writer takes the write side, which blocks until
    /// in-flight tokens finish and stalls new ones — the quiescent
    /// point at which residues are harvested and routes recompiled.
    state: S::RwLock<State<S>>,
    /// Per-wire arrival/exit tallies, cache-line padded: adjacent
    /// wires are hammered by different threads, and unpadded they
    /// false-share (same flat-scaling failure as the leaf atomics).
    input_counts: Vec<CachePadded<S::AtomicU64>>,
    output_counts: Vec<CachePadded<S::AtomicU64>>,
    metrics: ConcMetrics,
    /// Sampled `exec.traverse` spans with monotonic timestamps from the
    /// [`SyncApi`] clock seam. Disabled (one branch per token) unless
    /// [`attach_tracer`](Self::attach_tracer) is called.
    tracer: Tracer,
}

impl SharedAdaptiveNetwork<RealSync> {
    /// A new shared network of width `w`, starting as one component.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new(w: usize) -> Self {
        Self::new_in(w)
    }

    /// A new **reference** network of width `w`: every token runs the
    /// sequential model under the exclusive lock. For differential
    /// tests and the benchmark baseline, not for serving.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_locked(w: usize) -> Self {
        Self::new_locked_in(w)
    }
}

impl<S: SyncApi> SharedAdaptiveNetwork<S> {
    /// A new shared network of width `w` under an explicit [`SyncApi`]
    /// (the model checker instantiates this with `VirtualSync`).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_in(w: usize) -> Self {
        Self::build(w, false)
    }

    /// A new reference network (see [`new_locked`](Self::new_locked))
    /// of width `w` under an explicit [`SyncApi`].
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a power of two or `w < 2`.
    #[must_use]
    pub fn new_locked_in(w: usize) -> Self {
        Self::build(w, true)
    }

    fn build(w: usize, reference: bool) -> Self {
        let model = LocalAdaptiveNetwork::new(w);
        let routes = FastSnapshot::compile(&model);
        SharedAdaptiveNetwork {
            width: w,
            reference,
            state: S::RwLock::new(State { model, routes }),
            input_counts: (0..w).map(|_| CachePadded::new(S::AtomicU64::new(0))).collect(),
            output_counts: (0..w).map(|_| CachePadded::new(S::AtomicU64::new(0))).collect(),
            metrics: ConcMetrics::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Registers this network's metrics (`acn.conc.*`) with `registry`.
    ///
    /// Call before sharing the network across threads (it needs `&mut`).
    /// Telemetry is observation-only: routed values and step-property
    /// behaviour are identical with or without a registry attached.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = ConcMetrics::attach(registry);
    }

    /// Routes sampled `exec.traverse` spans (one per sampled token,
    /// timestamped with [`SyncApi::monotonic_now`]) into `tracer`.
    ///
    /// Call before sharing the network across threads (it needs `&mut`).
    /// A token's pseudo trace id is `arrival * width + wire`, so a
    /// sampling mask of `2^k - 1` keeps roughly one token in `2^k`;
    /// use [`Tracer::with_sampling`] to bound the fast-path overhead
    /// (the disabled/unsampled cost is a single branch per token).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// The network width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// A snapshot of the current cut.
    #[must_use]
    pub fn cut(&self) -> Cut {
        self.state.read().model.cut().clone()
    }

    /// Whether the model's component set is exactly its cut's leaf set
    /// and the compiled routes mirror it — the reconfiguration
    /// atomicity invariant (a token must never observe a
    /// half-installed child set or routes older than the last
    /// harvest). The model checker asserts this at every quiescent
    /// point. (A reference network's tokens advance the model itself,
    /// past the routes it never walks.)
    #[must_use]
    pub fn structure_consistent(&self) -> bool {
        let state = self.state.read();
        state.model.is_consistent() && (self.reference || state.routes.mirrors(&state.model))
    }

    /// Routes one token from `wire` to an output wire. Many threads may
    /// push concurrently; the quiescent per-wire exit counts always have
    /// the step property.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn push(&self, wire: usize) -> usize {
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        let arrival = self.input_counts[wire].fetch_add(1, Ordering::Relaxed);
        self.metrics.tokens.inc();
        let span = self.start_traverse_span(wire, arrival);
        let out = self.route_token(wire);
        if let Some((trace, start)) = span {
            self.tracer.record(
                Span::new("exec.traverse", trace)
                    .between(start, S::monotonic_now())
                    .with("out", out as u64),
            );
        }
        // lint: relaxed-ok(RMWs on one location totally order in the modification order; cross-wire step claims hold only at quiescence)
        self.output_counts[out].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// The one place that chooses between the compiled routes and the
    /// reference model: routes `weight` tokens from `wire`, reporting
    /// each `(exit wire, tokens)` to `exit`.
    #[inline]
    fn route(&self, wire: usize, weight: u64, mut exit: impl FnMut(usize, u64)) {
        if self.reference {
            let mut state = self.state.write();
            (0..weight).for_each(|_| exit(state.model.push(wire), 1));
            return;
        }
        let pin = self.state.read();
        self.metrics.fastpath_hits.add(weight);
        if weight == 1 {
            exit(pin.routes.walk(wire, &self.metrics), 1);
        } else {
            pin.routes.walk_batch(wire, weight, &self.metrics, exit);
        }
    }

    #[inline]
    fn route_token(&self, wire: usize) -> usize {
        let mut out = 0;
        self.route(wire, 1, |exit, _| out = exit);
        out
    }

    /// The per-output-wire exit counts of `weight` tokens from `wire`,
    /// after tallying the batch's arrival and telemetry.
    fn route_batch(&self, wire: usize, weight: u64) -> Vec<u64> {
        let mut exits = vec![0u64; self.width];
        if weight == 0 {
            return exits;
        }
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        self.input_counts[wire].fetch_add(weight, Ordering::Relaxed);
        self.metrics.tokens.add(weight);
        self.metrics.batch_flushes.inc();
        self.metrics.batch_tokens.add(weight);
        self.route(wire, weight, |out, n| exits[out] += n);
        exits
    }

    /// Routes `weight` tokens from `wire` in one batched traversal:
    /// **one read pin and one `fetch_add` per leaf crossed** for the
    /// whole batch, instead of `weight` full traversals. Returns the
    /// per-output-wire exit counts (sum = `weight`). Quiescent totals
    /// keep the step property: a batch is indistinguishable from
    /// `weight` back-to-back tokens because round-robin output depends
    /// only on the counter, never on arrival order (DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn push_batch(&self, wire: usize, weight: u64) -> Vec<u64> {
        let exits = self.route_batch(wire, weight);
        for (out, &count) in exits.iter().enumerate() {
            if count > 0 {
                // lint: relaxed-ok(RMWs on one location totally order in the modification order; cross-wire step claims hold only at quiescence)
                self.output_counts[out].fetch_add(count, Ordering::Relaxed);
            }
        }
        exits
    }

    /// Batched [`next_value`](Self::next_value): claims `weight`
    /// distinct counter values in one traversal and returns them
    /// (unordered). Concurrent batches never overlap, and at
    /// quiescence the union of all handed-out values is dense — but
    /// values *within and across* in-flight batches may be claimed out
    /// of real-time order, so a batched counter is quiescently
    /// consistent rather than linearizable (the standard trade of
    /// batched id allocation; see DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn next_batch(&self, wire: usize, weight: u64) -> Vec<u64> {
        let mut values = Vec::with_capacity(weight as usize);
        let w = self.width as u64;
        for (out, &count) in self.route_batch(wire, weight).iter().enumerate() {
            if count == 0 {
                continue;
            }
            // lint: relaxed-ok(the rounds come from this wire's own RMW modification order, which alone determines the handed-out values)
            let round = self.output_counts[out].fetch_add(count, Ordering::Relaxed);
            values.extend((0..count).map(|j| out as u64 + (round + j) * w));
        }
        values
    }

    /// Distributed-counter semantics: routes a token and returns
    /// `out + w * round`. Concurrent calls hand out distinct values with
    /// no gaps once quiescent.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= width`.
    pub fn next_value(&self, wire: usize) -> u64 {
        // lint: relaxed-ok(per-wire arrival tally; only read at quiescence, where the caller's join/sync supplies the edge)
        let arrival = self.input_counts[wire].fetch_add(1, Ordering::Relaxed);
        self.metrics.tokens.inc();
        let span = self.start_traverse_span(wire, arrival);
        let out = self.route_token(wire);
        // lint: relaxed-ok(the round comes from this wire's own RMW modification order, which alone determines the handed-out value)
        let round = self.output_counts[out].fetch_add(1, Ordering::Relaxed);
        let value = out as u64 + round * self.width as u64;
        // The span must close *after* the round claim: the fetch_add
        // above is the linearization point of a single-component
        // counter, and the history oracle reconstructs invocation/
        // response intervals (and the handed-out value) from these
        // spans. Closing early would shrink the interval past the
        // effect and break the real-time precedence order.
        if let Some((trace, start)) = span {
            self.tracer.record(
                Span::new("exec.traverse", trace)
                    .between(start, S::monotonic_now())
                    .with("out", out as u64)
                    .with("value", value),
            );
        }
        value
    }

    /// Opens a sampled `exec.traverse` span for the token that is the
    /// `arrival`-th on `wire`: `Some((trace, start))` if the token is
    /// sampled, `None` (a single branch when tracing is disabled)
    /// otherwise. The pseudo trace id interleaves wires so any
    /// power-of-two sampling mask stays uniform across wires.
    #[inline]
    fn start_traverse_span(&self, wire: usize, arrival: u64) -> Option<(u64, u64)> {
        let trace = arrival * self.width as u64 + wire as u64;
        if self.tracer.should_sample(trace) {
            Some((trace, S::monotonic_now()))
        } else {
            None
        }
    }

    /// Drains in-flight tokens (the write lock waits out every read
    /// pin), harvests their residues into the model, applies `change`
    /// to it, and recompiles the routes — **also when `change` fails**:
    /// the harvest already moved the model past the old routes'
    /// `base_tokens`, so they are stale either way.
    fn reconfigure(
        &self,
        change: impl FnOnce(&mut LocalAdaptiveNetwork) -> Result<(), AdaptError>,
    ) -> Result<(), AdaptError> {
        let mut guard = self.state.write();
        let State { model, routes } = &mut *guard;
        routes.harvest_into(model);
        let result = change(model);
        *routes = FastSnapshot::compile(model);
        result
    }

    /// Splits leaf `id`, blocking until in-flight tokens drain (so the
    /// state transfer is exact).
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is not a splittable leaf.
    pub fn split(&self, id: &ComponentId) -> Result<(), AdaptError> {
        self.reconfigure(|model| model.split(id))?;
        self.metrics.splits.inc();
        Ok(())
    }

    /// Merges the subtree under `id` back into one component (recursive,
    /// like [`LocalAdaptiveNetwork::merge`]).
    ///
    /// # Errors
    ///
    /// Returns [`AdaptError::Cut`] if `id` is a leaf already or not
    /// covered by the cut.
    pub fn merge(&self, id: &ComponentId) -> Result<(), AdaptError> {
        self.reconfigure(|model| model.merge(id))?;
        self.metrics.merges.inc();
        Ok(())
    }

    /// Tokens that exited per output wire (quiescent snapshots have the
    /// step property). `Acquire` pairs with the caller's quiescence
    /// protocol (thread join or stronger); the per-wire RMWs themselves
    /// stay `Relaxed`.
    #[must_use]
    pub fn output_counts(&self) -> Vec<u64> {
        self.output_counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Tokens that arrived per input wire (diagnostic; exact once
    /// quiescent).
    #[must_use]
    pub fn input_counts(&self) -> Vec<u64> {
        self.input_counts.iter().map(|c| c.load(Ordering::Acquire)).collect()
    }

    /// Total tokens that exited.
    #[must_use]
    pub fn total_exited(&self) -> u64 {
        self.output_counts.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }
}

impl<S: SyncApi> std::fmt::Debug for SharedAdaptiveNetwork<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedAdaptiveNetwork")
            .field("width", &self.width)
            .field("components", &self.state.read().model.cut().leaves().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_behaviour_matches_local() {
        let shared = SharedAdaptiveNetwork::new(16);
        let mut local = crate::LocalAdaptiveNetwork::new(16);
        let root = ComponentId::root();
        for t in 0..10usize {
            assert_eq!(shared.push(t % 16), local.push(t % 16));
        }
        shared.split(&root).unwrap();
        local.split(&root).unwrap();
        for t in 10..30usize {
            assert_eq!(shared.push((t * 3) % 16), local.push((t * 3) % 16));
        }
        shared.merge(&root).unwrap();
        local.merge(&root).unwrap();
        for t in 30..40usize {
            assert_eq!(shared.push(t % 16), local.push(t % 16));
        }
    }

    #[test]
    fn concurrent_values_are_distinct_and_dense() {
        let net = Arc::new(SharedAdaptiveNetwork::new(8));
        net.split(&ComponentId::root()).unwrap();
        let mut handles = Vec::new();
        for t in 0..8usize {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                (0..200).map(|i| net.next_value((t + i) % 8)).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..1600u64).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_pushes_with_live_reconfiguration() {
        let net = Arc::new(SharedAdaptiveNetwork::new(16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut n = 0u64;
                // lint: relaxed-ok(test stop flag; any stale read only runs one more harmless iteration)
                while !stop.load(Ordering::Relaxed) {
                    let _ = net.push((t * 5 + n as usize) % 16);
                    n += 1;
                }
                n
            }));
        }
        // Reconfigure while traffic flows.
        let root = ComponentId::root();
        for _ in 0..30 {
            net.split(&root).expect("split at quiescence");
            net.split(&root.child(0)).expect("split at quiescence");
            net.merge(&root).expect("merge at quiescence");
        }
        // lint: relaxed-ok(test stop flag; workers observe it eventually, exactness is not required)
        stop.store(true, Ordering::Relaxed);
        let pushed: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        assert_eq!(net.total_exited(), pushed, "token conservation");
        let counts = net.output_counts();
        assert!(
            acn_bitonic::step::is_step_sequence(&counts),
            "step property violated: {counts:?}"
        );
        assert!(net.structure_consistent(), "components must mirror the cut");
    }

    #[test]
    fn telemetry_counts_tokens_depth_and_reconfigurations() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        let net = Arc::new(net);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        for t in 0..40usize {
            net.push(t % 8);
        }
        net.merge(&root).unwrap();
        for t in 0..10usize {
            let _ = net.next_value(t % 8);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.conc.tokens"), Some(50));
        assert_eq!(snap.counter("acn.conc.splits"), Some(1));
        assert_eq!(snap.counter("acn.conc.merges"), Some(1));
        let depth = snap.histogram("acn.conc.traversal_depth").expect("depth histogram");
        assert_eq!(depth.count, 50);
        // Every token crosses at least one component; under the split cut
        // a token crosses two.
        assert!(depth.sum >= 50 + 40, "sum {} too small", depth.sum);
    }

    #[test]
    fn locked_and_lockfree_modes_agree() {
        // The compiled routes against the reference model: a
        // deterministic single-threaded run must agree exactly, across
        // reconfigurations.
        let fast = SharedAdaptiveNetwork::new(16);
        let locked = SharedAdaptiveNetwork::new_locked(16);
        let root = ComponentId::root();
        for t in 0..20usize {
            assert_eq!(fast.push((t * 7) % 16), locked.push((t * 7) % 16));
        }
        fast.split(&root).unwrap();
        locked.split(&root).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.next_value(t % 16), locked.next_value(t % 16));
        }
        fast.split(&root.child(0)).unwrap();
        locked.split(&root.child(0)).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.push((t * 3) % 16), locked.push((t * 3) % 16));
        }
        fast.merge(&root).unwrap();
        locked.merge(&root).unwrap();
        for t in 0..20usize {
            assert_eq!(fast.next_value(t % 16), locked.next_value(t % 16));
        }
        assert_eq!(fast.output_counts(), locked.output_counts());
    }

    #[test]
    fn fastpath_telemetry_counts_hits_and_retries() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        for t in 0..24usize {
            net.push(t % 8);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.conc.fastpath_hits"), Some(24));
    }

    #[test]
    fn failed_reconfiguration_with_residues_in_flight_keeps_counting() {
        // A failed split/merge has already harvested the residues into
        // the model, so only the recompile-after-error stands between
        // it and routes with stale counter bases (which would misroute
        // the very next token).
        let net = SharedAdaptiveNetwork::new(8);
        let root = ComponentId::root();
        net.split(&root).unwrap();
        let cut = net.cut();
        // Sequential tokens take values 0, 1, 2, ... from any wire.
        let mut next = 0u64;
        let mut draw = |n: u64| {
            for _ in 0..n {
                assert_eq!(net.next_value((next as usize * 3) % 8), next);
                next += 1;
            }
        };
        draw(5);
        assert!(net.split(&root).is_err(), "the root is no longer a leaf");
        assert!(net.structure_consistent());
        draw(6);
        assert!(net.merge(&root.child(0)).is_err(), "a leaf has nothing to merge");
        assert!(net.structure_consistent());
        draw(9);
        assert_eq!(net.cut(), cut, "failed reconfigurations leave the cut alone");
        assert!(acn_bitonic::step::is_step_sequence(&net.output_counts()));
    }

    #[test]
    fn batched_traversal_matches_sequential_replay() {
        // A weight-n batch must be indistinguishable (in exit counts
        // and subsequent behaviour) from n sequential pushes on a twin
        // network — round-robin output is oblivious to arrival order.
        let batched = SharedAdaptiveNetwork::new(8);
        let twin = SharedAdaptiveNetwork::new(8);
        let root = ComponentId::root();
        batched.split(&root).unwrap();
        twin.split(&root).unwrap();

        let exits = batched.push_batch(3, 10);
        let mut expect = vec![0u64; 8];
        for _ in 0..10 {
            expect[twin.push(3)] += 1;
        }
        assert_eq!(exits, expect);
        assert_eq!(exits.iter().sum::<u64>(), 10);

        // Scalar tokens after the batch still agree hop for hop.
        for t in 0..16usize {
            assert_eq!(batched.push(t % 8), twin.push(t % 8));
        }
        assert_eq!(batched.output_counts(), twin.output_counts());

        // And a batch after a reconfiguration (exact residue harvest
        // of the weighted arrivals) still agrees.
        batched.merge(&root).unwrap();
        twin.merge(&root).unwrap();
        let exits = batched.push_batch(1, 7);
        let mut expect = vec![0u64; 8];
        for _ in 0..7 {
            expect[twin.push(1)] += 1;
        }
        assert_eq!(exits, expect);
    }

    #[test]
    fn next_batch_values_are_dense_with_mixed_scalars() {
        let net = SharedAdaptiveNetwork::new(8);
        net.split(&ComponentId::root()).unwrap();
        let mut all = net.next_batch(0, 5);
        all.push(net.next_value(3));
        all.extend(net.next_batch(6, 4));
        all.push(net.next_value(1));
        all.extend(net.next_batch(2, 1));
        all.sort_unstable();
        assert_eq!(all, (0..12u64).collect::<Vec<u64>>());
        let counts = net.output_counts();
        assert!(
            acn_bitonic::step::is_step_sequence(&counts),
            "step property violated: {counts:?}"
        );
    }

    #[test]
    fn locked_mode_batches_agree_with_lockfree() {
        let fast = SharedAdaptiveNetwork::new(8);
        let locked = SharedAdaptiveNetwork::new_locked(8);
        let root = ComponentId::root();
        fast.split(&root).unwrap();
        locked.split(&root).unwrap();
        for (wire, weight) in [(0usize, 6u64), (5, 1), (3, 9), (3, 0), (7, 4)] {
            assert_eq!(fast.push_batch(wire, weight), locked.push_batch(wire, weight));
        }
        let mut a = fast.next_batch(2, 5);
        let mut b = locked.next_batch(2, 5);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(fast.output_counts(), locked.output_counts());
    }

    #[test]
    fn batch_telemetry_counts_flushes_and_tokens() {
        let registry = Registry::new();
        let mut net = SharedAdaptiveNetwork::new(8);
        net.attach_telemetry(&registry);
        net.split(&ComponentId::root()).unwrap();
        let _ = net.push_batch(0, 12);
        let _ = net.next_batch(4, 8);
        let _ = net.push_batch(1, 0); // zero-weight: not a flush
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.exec.batch_flushes"), Some(2));
        assert_eq!(snap.counter("acn.exec.batch_tokens"), Some(20));
        // Batched tokens count as fast-path hits and tokens too.
        assert_eq!(snap.counter("acn.conc.fastpath_hits"), Some(20));
        assert_eq!(snap.counter("acn.conc.tokens"), Some(20));
    }

    #[test]
    fn concurrent_batches_with_live_reconfiguration() {
        let net = Arc::new(SharedAdaptiveNetwork::new(16));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let net = Arc::clone(&net);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut values = Vec::new();
                let mut n = 0u64;
                // lint: relaxed-ok(test stop flag; any stale read only runs one more harmless iteration)
                while !stop.load(Ordering::Relaxed) {
                    values.extend(net.next_batch((t * 5 + n as usize) % 16, 1 + n % 7));
                    n += 1;
                }
                values
            }));
        }
        let root = ComponentId::root();
        for _ in 0..20 {
            net.split(&root).expect("split at quiescence");
            net.merge(&root).expect("merge at quiescence");
        }
        // lint: relaxed-ok(test stop flag; workers observe it eventually, exactness is not required)
        stop.store(true, Ordering::Relaxed);
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..all.len() as u64).collect();
        assert_eq!(all, expect, "batched values must be distinct and dense");
        assert!(net.structure_consistent());
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedAdaptiveNetwork>();
    }
}

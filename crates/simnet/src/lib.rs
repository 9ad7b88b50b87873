//! A deterministic discrete-event message-passing simulator.
//!
//! This crate is the execution substrate for the distributed runtime of
//! the adaptive counting network: each overlay node is a [`Process`], all
//! interaction happens through timestamped messages, and the simulator
//! delivers them in deterministic order from a seeded random latency
//! model. Links are FIFO per (sender, receiver) pair — the property the
//! merge-drain protocol of the paper's Section 2.2 relies on — and
//! asynchrony is otherwise unconstrained.
//!
//! The simulator is generic over the message type, so it carries no
//! application knowledge. Processes can be added and removed while the
//! simulation runs (node joins, leaves, and crashes); messages addressed
//! to absent processes are counted and dropped.
//!
//! # Delivery order and the `DeliveryPolicy` seam
//!
//! *Which pending event fires next* is decided by the simulator's
//! [`DeliveryPolicy`]:
//!
//! - [`DeliveryPolicy::Seeded`] (the default, and the fast path — per
//!   event one heap pop, one process-map lookup, and the handler run in
//!   place): events fire in the explicit total order documented on
//!   the internal heap key — `(time, destination, kind, sender/tag,
//!   sequence)`, with messages before timers at the same instant. The
//!   timestamps come from the seeded latency model, so runs are
//!   reproducible from the [`SimConfig::seed`].
//! - [`DeliveryPolicy::External`]: the environment — in this workspace,
//!   the `acn-check` distributed-protocol explorer — picks each
//!   delivery via [`Simulator::fire`] from the set returned by
//!   [`Simulator::enabled_events`]. The latency model still stamps
//!   every event (so [`Context::now`] stays meaningful), but the
//!   *order* is unconstrained except for per-link FIFO: only the
//!   oldest in-flight message of each `(from, to)` link is enabled.
//!   Time is taken from the fired event and may therefore run
//!   backwards across links; handlers only ever observe their own
//!   event's timestamp, which is what makes deliveries to different
//!   processes commute for the explorer's partial-order reduction.
//!
//! # Delivery
//!
//! A handler runs on its process where it lives in the process map — the
//! process is not moved out and back — and can reach the simulator only
//! through its [`Context`], which buffers sends and timer requests. The
//! simulator applies them when the handler returns and reuses the two
//! buffers from event to event, so the event loop itself allocates only
//! when the heap or a buffer grows.
//!
//! # Example
//!
//! ```
//! use acn_simnet::{Context, Process, ProcessId, SimConfig, Simulator};
//!
//! struct Relay;
//! impl Process<u32> for Relay {
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, msg: u32) {
//!         if msg > 0 {
//!             // Bounce the (decremented) message to the other process.
//!             let peer = if ctx.self_id() == ProcessId(1) { ProcessId(2) } else { ProcessId(1) };
//!             ctx.send(peer, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! sim.add_process(ProcessId(1), Relay);
//! sim.add_process(ProcessId(2), Relay);
//! sim.send_external(ProcessId(1), 10);
//! assert!(sim.run_until_idle(10_000));
//! assert_eq!(sim.stats().messages_delivered, 11);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;

use acn_sync::{RealSync, SyncApi};
use acn_telemetry::{Counter, Gauge, Histogram, Registry};
use acn_trace::{Span, Tracer, SYSTEM_TRACE};

/// Identifier of a process (the counting layer uses the overlay node id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u64);

impl ProcessId {
    /// The pseudo-sender used by [`Simulator::send_external`] for
    /// messages injected by the environment (clients, harnesses).
    pub const EXTERNAL: ProcessId = ProcessId(u64::MAX);
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ProcessId::EXTERNAL {
            write!(f, "p(external)")
        } else {
            write!(f, "p{:x}", self.0)
        }
    }
}

/// Behaviour of a simulated node.
pub trait Process<M> {
    /// Handles a message delivered to this process.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Handles a timer previously set with [`Context::set_timer`]. The
    /// default implementation ignores timers.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// Configuration of the simulator's latency model and RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Minimum one-way message latency, in simulated time units.
    pub base_latency: u64,
    /// Maximum extra random latency added per message.
    pub jitter: u64,
    /// Drop probability (per mille) for messages sent through
    /// [`Context::send_lossy`]. Reliable sends are never dropped.
    pub loss_per_mille: u32,
    /// Seed of the deterministic RNG driving latencies.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { base_latency: 10, jitter: 10, loss_per_mille: 0, seed: 0xAC17 }
    }
}

/// Counters the simulator maintains.
///
/// Two counters track messages that never reach a handler, and they are
/// deliberately distinct:
///
/// - [`messages_dropped`](SimStats::messages_dropped) counts *absent
///   destination* drops: the message was enqueued (and consumed latency
///   randomness), but at delivery time no process was registered under
///   the destination id — the node had left, crashed, or never existed.
///   This applies to every send path, including
///   [`Simulator::send_external`].
/// - [`messages_lost`](SimStats::messages_lost) counts *loss-model*
///   drops: the message was sent through [`Context::send_lossy`] and the
///   configured [`SimConfig::loss_per_mille`] coin removed it at send
///   time, before it was ever enqueued. Reliable sends are never counted
///   here.
///
/// A lost message is decided at send time and consumes one RNG draw; a
/// dropped message is decided at delivery time and still advances the
/// link's FIFO clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered to a live process.
    pub messages_delivered: u64,
    /// Messages dropped at delivery time because the destination process
    /// was absent (left, crashed, or never registered). See the type
    /// docs for how this differs from [`messages_lost`](Self::messages_lost).
    pub messages_dropped: u64,
    /// Lossy-channel messages removed at send time by the configured
    /// [`SimConfig::loss_per_mille`] rate. See the type docs for how
    /// this differs from [`messages_dropped`](Self::messages_dropped).
    pub messages_lost: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Events processed in total.
    pub events_processed: u64,
}

/// Pre-resolved telemetry handles for the simulator's hot path
/// (`acn.sim.*`). All handles are no-ops until
/// [`Simulator::attach_telemetry`] is called with an enabled registry.
#[derive(Debug, Default, Clone)]
struct SimMetrics {
    /// Per-message delivery latency (delivery time − send time), ticks.
    latency: Histogram,
    /// Event-queue depth sampled after every processed event.
    queue_depth: Gauge,
    /// Messages delivered to a live process.
    delivered: Counter,
    /// Timer events fired.
    timers_fired: Counter,
    /// Absent-destination drops (mirrors `SimStats::messages_dropped`).
    drops_absent: Counter,
    /// Loss-model drops (mirrors `SimStats::messages_lost`).
    drops_loss: Counter,
}

impl SimMetrics {
    fn attach(registry: &Registry) -> Self {
        SimMetrics {
            latency: registry.histogram("acn.sim.latency"),
            queue_depth: registry.gauge("acn.sim.queue_depth"),
            delivered: registry.counter("acn.sim.delivered"),
            timers_fired: registry.counter("acn.sim.timers_fired"),
            drops_absent: registry.counter("acn.sim.drops_absent"),
            drops_loss: registry.counter("acn.sim.drops_loss"),
        }
    }
}

/// The per-handler view a process uses to interact with the world.
/// Sends and timers are buffered and applied when the handler returns,
/// which keeps handlers pure with respect to the event queue.
pub struct Context<'a, M> {
    self_id: ProcessId,
    now: u64,
    outbox: &'a mut Vec<(ProcessId, ProcessId, M, bool)>,
    timers: &'a mut Vec<(ProcessId, u64, u64)>,
    rng: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This process's identifier.
    #[must_use]
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Sends `msg` to process `to` reliably (delivered after the
    /// configured latency, in FIFO order per link).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((self.self_id, to, msg, false));
    }

    /// Sends `msg` over the *lossy* channel: it is dropped with the
    /// configured per-mille probability (deterministically, from the
    /// simulation RNG). Models an unreliable datagram fast path next to
    /// a reliable control plane.
    pub fn send_lossy(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((self.self_id, to, msg, true));
    }

    /// Schedules `on_timer(tag)` on this process after `delay` time
    /// units.
    pub fn set_timer(&mut self, delay: u64, tag: u64) {
        self.timers.push((self.self_id, delay, tag));
    }

    /// A deterministic pseudo-random `u64` from the simulation's RNG
    /// stream (for randomized process behaviour that must stay
    /// reproducible).
    pub fn random(&mut self) -> u64 {
        splitmix(self.rng)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// How the simulator decides which pending event fires next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryPolicy {
    /// Timestamp order from the seeded latency model — the default and
    /// the fast path (a `BinaryHeap` pop per event).
    #[default]
    Seeded,
    /// The environment picks each delivery via [`Simulator::fire`]
    /// from [`Simulator::enabled_events`] (per-link FIFO heads plus
    /// every pending timer). [`Simulator::step`] falls back to the
    /// enabled event with the smallest sequence number, so a run that
    /// never calls `fire` is still deterministic.
    External,
}

/// One pending event, as exposed to an external scheduler
/// ([`DeliveryPolicy::External`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEvent {
    /// Stable handle for [`Simulator::fire`] / [`Simulator::drop_pending`]
    /// (the internal sequence number; unique per event and deterministic
    /// given the same prefix of deliveries).
    pub key: u64,
    /// The destination process.
    pub to: ProcessId,
    /// The sender (`None` for timers).
    pub from: Option<ProcessId>,
    /// The latency-model timestamp of the event.
    pub time: u64,
    /// The timer tag (`None` for messages).
    pub timer_tag: Option<u64>,
    /// Whether the message rode the lossy datagram channel
    /// ([`Context::send_lossy`]); only such events may be removed by
    /// [`Simulator::drop_pending`]. Always `false` for timers.
    pub lossy: bool,
}

#[derive(Clone)]
enum Payload<M> {
    Message { from: ProcessId, msg: M },
    Timer { tag: u64 },
}

#[derive(Clone)]
struct Event<M> {
    time: u64,
    seq: u64,
    /// Simulated time the event was scheduled (for latency telemetry).
    sent_at: u64,
    to: ProcessId,
    /// Whether the message was sent on the lossy datagram channel
    /// (External-policy fault injection may drop it in flight).
    lossy: bool,
    payload: Payload<M>,
}

impl<M> Event<M> {
    fn pending(&self) -> PendingEvent {
        let (from, timer_tag) = match &self.payload {
            Payload::Message { from, .. } => (Some(*from), None),
            Payload::Timer { tag } => (None, Some(*tag)),
        };
        PendingEvent {
            key: self.seq,
            to: self.to,
            from,
            time: self.time,
            timer_tag,
            lossy: self.lossy,
        }
    }
}

impl<M> Event<M> {
    /// The documented total delivery order of the simulator
    /// (earliest-first under the seeded policy):
    ///
    /// 1. **time** — the latency-model timestamp;
    /// 2. **destination process id** — same-instant events are grouped
    ///    by receiver, ascending;
    /// 3. **kind** — at the same instant and receiver, *messages
    ///    deliver before timers* (in-flight data beats timeouts, so a
    ///    retransmission timer never races a same-tick ack spuriously);
    /// 4. **sender id** (messages) / **tag** (timers) — same-instant
    ///    arrivals from different links, and same-instant timers with
    ///    different tags, order by these explicit protocol-visible
    ///    values;
    /// 5. **sequence number** — the final disambiguator, reachable only
    ///    by genuinely identical events (two timers with the same
    ///    receiver, deadline, and tag), where either order is
    ///    indistinguishable to the process.
    ///
    /// Components 2–4 are what makes the order *insertion-order
    /// independent*: before this key existed, ties at the same
    /// timestamp fell through to the global sequence number, so the
    /// delivery order of same-tick events silently depended on the
    /// order in which a harness happened to iterate processes
    /// (`ProcessId`-incidental ordering). The regression test
    /// `tie_break_is_insertion_order_independent` pins the fix.
    fn key(&self) -> (u64, u64, u8, u64, u64) {
        let (kind, sub) = match &self.payload {
            Payload::Message { from, .. } => (0u8, from.0),
            Payload::Timer { tag } => (1u8, *tag),
        };
        (self.time, self.to.0, kind, sub, self.seq)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        // `seq` is unique per event, so equality (and `Ord::cmp ==
        // Equal`, which compares `key()` ending in `seq`) holds only
        // for the same event.
        self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first under
        // the explicit total order documented on [`Event::key`].
        other.key().cmp(&self.key())
    }
}

/// The discrete-event simulator.
///
/// A clone (where messages and processes clone) is an independent
/// simulator in the same state: the same pending events, clocks and
/// RNG, so it continues exactly as the original would. Attached
/// telemetry and tracers are shared handles, and a clone shares them
/// ([`is_observed`](Self::is_observed)).
#[derive(Clone)]
pub struct Simulator<M, P> {
    /// Registered processes. A `BTreeMap` so that `process_ids()` has a
    /// deterministic (sorted) order: harnesses iterate it for sweeps
    /// like component migration, and a randomized order would leak
    /// nondeterminism into otherwise seeded runs.
    processes: BTreeMap<ProcessId, P>,
    /// Pending events under [`DeliveryPolicy::Seeded`]: a max-heap
    /// popped in the documented `(time, to, kind, sub, seq)` order.
    queue: BinaryHeap<Event<M>>,
    /// Pending events under [`DeliveryPolicy::External`], keyed by
    /// sequence number so an external scheduler can fire or drop any
    /// enabled event by stable handle. A lookup, insert or removal is
    /// `O(log pending)`.
    open: BTreeMap<u64, Event<M>>,
    /// The in-flight messages of every `(from, to)` link with one
    /// pending, oldest first ([`DeliveryPolicy::External`]). Sequence
    /// numbers only grow, so appending keeps each queue sorted; a link
    /// whose queue empties leaves the map.
    links: BTreeMap<(ProcessId, ProcessId), VecDeque<u64>>,
    /// The enabled events under [`DeliveryPolicy::External`], by
    /// sequence number: the front of every queue in `links` plus every
    /// pending timer, kept up to date as events are pushed, fired,
    /// dropped and stepped.
    enabled: BTreeMap<u64, PendingEvent>,
    policy: DeliveryPolicy,
    /// Last scheduled delivery time per (from, to) link, to enforce
    /// FIFO. A `BTreeMap` for the same determinism discipline as
    /// `processes`: simnet state must never depend on hash iteration
    /// order (enforced by `acn-lint`).
    link_clock: BTreeMap<(ProcessId, ProcessId), u64>,
    time: u64,
    seq: u64,
    rng: u64,
    config: SimConfig,
    stats: SimStats,
    metrics: SimMetrics,
    /// Wire-level causal spans (drops and losses), virtual-clock
    /// timestamps. Disabled (no-op) by default.
    tracer: Tracer,
    /// Self-profiling spans around the event-loop hot path, *monotonic*
    /// (wall-clock) timestamps from the `acn-sync` clock seam. Kept as
    /// a separate tracer so real-time profiles never mix with
    /// virtual-clock traces in one ring.
    self_profiler: Tracer,
    outbox: Vec<(ProcessId, ProcessId, M, bool)>,
    timer_requests: Vec<(ProcessId, u64, u64)>,
}

impl<M, P: Process<M>> Simulator<M, P> {
    /// A fresh simulator with the given configuration and the default
    /// [`DeliveryPolicy::Seeded`].
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self::with_policy(config, DeliveryPolicy::Seeded)
    }

    /// A fresh simulator with an explicit [`DeliveryPolicy`].
    #[must_use]
    pub fn with_policy(config: SimConfig, policy: DeliveryPolicy) -> Self {
        Simulator {
            processes: BTreeMap::new(),
            queue: BinaryHeap::new(),
            open: BTreeMap::new(),
            links: BTreeMap::new(),
            enabled: BTreeMap::new(),
            policy,
            link_clock: BTreeMap::new(),
            time: 0,
            seq: 0,
            rng: config.seed,
            config,
            stats: SimStats::default(),
            metrics: SimMetrics::default(),
            tracer: Tracer::disabled(),
            self_profiler: Tracer::disabled(),
            outbox: Vec::new(),
            timer_requests: Vec::new(),
        }
    }

    /// The delivery policy this simulator was created with.
    #[must_use]
    pub fn delivery_policy(&self) -> DeliveryPolicy {
        self.policy
    }

    /// Routes the simulator's telemetry into `registry`: the
    /// `acn.sim.latency` histogram (per-message delivery latency in
    /// ticks), the `acn.sim.queue_depth` gauge (event-queue depth after
    /// each event), the `acn.sim.delivered` / `acn.sim.timers_fired` /
    /// `acn.sim.drops_absent` / `acn.sim.drops_loss` counters. Each
    /// drop itself is a span (see [`attach_tracer`](Self::attach_tracer)).
    ///
    /// Telemetry is strictly observation-only: attaching it changes no
    /// delivery order, consumes no randomness, and leaves
    /// [`SimStats`] identical to an untelemetered run.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = SimMetrics::attach(registry);
    }

    /// Routes the simulator's wire-level causal spans into `tracer`:
    /// one `sim.loss` span per lossy-channel drop and one
    /// `sim.drop_absent` span per absent-destination drop, both
    /// timestamped with the virtual clock. Observation-only, like
    /// [`attach_telemetry`](Self::attach_telemetry).
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Routes *self-profiling* spans into `tracer`: one `sim.step`
    /// span per processed event, measured with **monotonic wall-clock
    /// nanoseconds** from the [`acn_sync`] clock seam (covering the
    /// `BinaryHeap` pop / External head removal, the handler, and the
    /// outbox flush). Keep this tracer separate from the one passed to
    /// [`attach_tracer`](Self::attach_tracer): its timestamps are real
    /// time, not virtual ticks, so the two must not share a ring.
    pub fn attach_self_profiler(&mut self, tracer: &Tracer) {
        self.self_profiler = tracer.clone();
    }

    /// Whether a registry, tracer or self-profiler is attached: a clone
    /// would report into the same handles as the original.
    #[must_use]
    pub fn is_observed(&self) -> bool {
        self.metrics.delivered.is_enabled()
            || self.tracer.is_enabled()
            || self.self_profiler.is_enabled()
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Simulation statistics so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Registers a process. Replaces (and returns) any previous process
    /// with the same id.
    pub fn add_process(&mut self, id: ProcessId, process: P) -> Option<P> {
        self.processes.insert(id, process)
    }

    /// Removes a process (leave/crash). In-flight messages to it will be
    /// dropped at delivery time.
    ///
    /// Also prunes every FIFO link clock touching `id`: the clocks exist
    /// only to order deliveries within one incarnation of a link, and
    /// keeping them alive after the endpoint left made `link_clock` grow
    /// monotonically under churn (entries for departed processes were
    /// never reclaimed). A later process reusing the same id is a *new*
    /// incarnation and starts its links fresh.
    pub fn remove_process(&mut self, id: ProcessId) -> Option<P> {
        self.link_clock.retain(|&(from, to), _| from != id && to != id);
        self.processes.remove(&id)
    }

    /// Whether a process is registered.
    #[must_use]
    pub fn contains(&self, id: ProcessId) -> bool {
        self.processes.contains_key(&id)
    }

    /// Shared access to a process (for assertions and measurements).
    #[must_use]
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.processes.get(&id)
    }

    /// Exclusive access to a process (the harness mutating node state
    /// out-of-band, e.g. when transferring components on a planned
    /// leave).
    #[must_use]
    pub fn process_mut(&mut self, id: ProcessId) -> Option<&mut P> {
        self.processes.get_mut(&id)
    }

    /// Exclusive access to every process, in ascending id order.
    pub fn processes_mut(&mut self) -> impl Iterator<Item = &mut P> + '_ {
        self.processes.values_mut()
    }

    /// Iterates over the registered process ids in ascending order
    /// (deterministic, so harness sweeps over processes are replayable).
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.processes.keys().copied()
    }

    /// Injects a message from the environment (sender =
    /// [`ProcessId::EXTERNAL`]); always reliable.
    pub fn send_external(&mut self, to: ProcessId, msg: M) {
        self.enqueue_message(ProcessId::EXTERNAL, to, msg, false);
    }

    /// Schedules a timer on a process from the environment.
    pub fn set_timer_external(&mut self, on: ProcessId, delay: u64, tag: u64) {
        let _ = self.schedule_timer(on, delay, tag);
    }

    /// Like [`set_timer_external`](Self::set_timer_external), but
    /// returns the event's stable key so an external scheduler
    /// ([`DeliveryPolicy::External`]) can [`fire`](Self::fire) it at a
    /// chosen point.
    pub fn schedule_timer(&mut self, on: ProcessId, delay: u64, tag: u64) -> u64 {
        let time = self.time + delay;
        let seq = self.next_seq();
        let sent_at = self.time;
        self.push_event(Event {
            time,
            seq,
            sent_at,
            to: on,
            lossy: false,
            payload: Payload::Timer { tag },
        });
        seq
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Stores a pending event in whichever structure the policy uses.
    fn push_event(&mut self, event: Event<M>) {
        match self.policy {
            DeliveryPolicy::Seeded => self.queue.push(event),
            DeliveryPolicy::External => self.push_open(event),
        }
    }

    /// Adds an event to the External tables: a timer is enabled at
    /// once, a message joins the back of its link's queue and is
    /// enabled only if that queue was empty.
    #[inline(never)]
    fn push_open(&mut self, event: Event<M>) {
        let seq = event.seq;
        let head = match &event.payload {
            Payload::Message { from, .. } => {
                let queue = self.links.entry((*from, event.to)).or_default();
                queue.push_back(seq);
                queue.len() == 1
            }
            Payload::Timer { .. } => true,
        };
        if head {
            self.enabled.insert(seq, event.pending());
        }
        self.open.insert(seq, event);
    }

    /// Removes a pending event from the External tables — a message
    /// from anywhere in its link's queue — and enables the message
    /// behind it if it was the link's head. The caller checked that
    /// `key` is pending.
    #[inline(never)]
    fn take_open(&mut self, key: u64) -> Event<M> {
        let event = self.open.remove(&key).expect("taken event is pending");
        self.enabled.remove(&key);
        if let Payload::Message { from, .. } = &event.payload {
            let link = (*from, event.to);
            let queue = self.links.get_mut(&link).expect("pending message has a link queue");
            if queue.front() == Some(&key) {
                queue.pop_front();
                if let Some(&next) = queue.front() {
                    self.enabled.insert(next, self.open[&next].pending());
                }
            } else {
                let at = queue.iter().position(|&k| k == key).expect("message is queued");
                queue.remove(at);
            }
            if queue.is_empty() {
                self.links.remove(&link);
            }
        }
        event
    }

    fn enqueue_message(&mut self, from: ProcessId, to: ProcessId, msg: M, lossy: bool) {
        // Send-time drops happen *before* the FIFO clock is touched: a
        // dropped message never occupies a delivery slot, so it must not
        // advance (and thereby delay) later messages on the same link.
        if lossy
            && self.config.loss_per_mille > 0
            && splitmix(&mut self.rng) % 1000 < u64::from(self.config.loss_per_mille)
        {
            self.count_loss(from, to);
            return;
        }
        let latency = self.config.base_latency
            + if self.config.jitter == 0 { 0 } else { splitmix(&mut self.rng) % (self.config.jitter + 1) };
        let earliest = self.time + latency.max(1);
        // FIFO per link: never deliver before an earlier message on the
        // same (from, to) pair.
        let clock = self.link_clock.entry((from, to)).or_insert(0);
        let time = earliest.max(*clock + 1);
        *clock = time;
        let seq = self.next_seq();
        let sent_at = self.time;
        self.push_event(Event {
            time,
            seq,
            sent_at,
            to,
            lossy,
            payload: Payload::Message { from, msg },
        });
    }

    /// The pending events an external scheduler may fire next: the
    /// oldest in-flight message of every `(from, to)` link (per-link
    /// FIFO is the one ordering constraint the protocol layer relies
    /// on) plus every pending timer, in ascending key order.
    ///
    /// The set is kept up to date as events are pushed, fired and
    /// dropped, so listing it is one walk over the enabled events, not
    /// a scan of everything pending.
    ///
    /// Under [`DeliveryPolicy::Seeded`] this returns at most the single
    /// event the next [`step`](Self::step) would deliver.
    #[must_use]
    pub fn enabled_events(&self) -> Vec<PendingEvent> {
        match self.policy {
            DeliveryPolicy::Seeded => self.queue.peek().map(Event::pending).into_iter().collect(),
            DeliveryPolicy::External => self.enabled.values().copied().collect(),
        }
    }

    /// A deterministic snapshot of **every** pending event — not just
    /// the enabled FIFO heads — in the documented delivery order
    /// (`Event::key`), paired with the message payload (`None` for
    /// timers). External schedulers use this to fingerprint the whole
    /// transport state: in-flight messages behind their link heads and
    /// future-dated timers are state too.
    #[must_use]
    pub fn pending_snapshot(&self) -> Vec<(PendingEvent, Option<&M>)> {
        let mut events: Vec<&Event<M>> = self.queue.iter().chain(self.open.values()).collect();
        events.sort_by_key(|e| e.key());
        events
            .into_iter()
            .map(|e| {
                let payload = match &e.payload {
                    Payload::Message { msg, .. } => Some(msg),
                    Payload::Timer { .. } => None,
                };
                (e.pending(), payload)
            })
            .collect()
    }

    /// The per-link FIFO clocks: `(from, to) -> latest scheduled
    /// delivery time` on that link. Part of the transport state a
    /// fingerprint must cover, because each clock floors the timestamp
    /// of the link's next send.
    pub fn link_clocks(&self) -> impl Iterator<Item = ((ProcessId, ProcessId), u64)> + '_ {
        self.link_clock.iter().map(|(&link, &t)| (link, t))
    }

    /// Fires one pending event by key ([`DeliveryPolicy::External`]
    /// only). Returns `false` — without delivering anything — if the
    /// key is unknown or names a message that is not its link's FIFO
    /// head. The FIFO guard is one membership test in the enabled set;
    /// taking the event out and enabling the message behind it is
    /// `O(log pending)`.
    pub fn fire(&mut self, key: u64) -> bool {
        debug_assert!(
            self.policy == DeliveryPolicy::External,
            "fire() requires DeliveryPolicy::External"
        );
        if !self.enabled.contains_key(&key) {
            return false;
        }
        let event = self.take_open(key);
        self.deliver(event);
        true
    }

    /// Removes a pending *lossy-channel message* without delivering it
    /// (explored fault injection: the datagram was lost in flight).
    /// Counts as [`SimStats::messages_lost`]. Returns `false` for
    /// unknown keys, timers, and reliable messages.
    pub fn drop_pending(&mut self, key: u64) -> bool {
        debug_assert!(
            self.policy == DeliveryPolicy::External,
            "drop_pending() requires DeliveryPolicy::External"
        );
        let droppable = self
            .open
            .get(&key)
            .is_some_and(|e| e.lossy && matches!(e.payload, Payload::Message { .. }));
        if !droppable {
            return false;
        }
        let event = self.take_open(key);
        let Payload::Message { from, .. } = &event.payload else { unreachable!() };
        self.count_loss(*from, event.to);
        true
    }

    /// Takes the *reliable* message `key`, its link's FIFO head, out of
    /// flight without delivering it ([`DeliveryPolicy::External`]
    /// only): explored fault injection on a channel the simulator never
    /// loses on its own. It is accounted exactly like a delivery to an
    /// absent process — time advances to the message's timestamp, it
    /// counts as a processed event and as [`SimStats::messages_dropped`],
    /// with a `sim.drop_absent` span — but the
    /// receiver stays registered and every link clock is kept, so later
    /// sends into it still queue behind the messages already in
    /// flight. Returns `false` for unknown keys, timers, lossy messages
    /// (see [`drop_pending`](Self::drop_pending)) and messages that are
    /// not their link's head.
    pub fn drop_delivery(&mut self, key: u64) -> bool {
        debug_assert!(
            self.policy == DeliveryPolicy::External,
            "drop_delivery() requires DeliveryPolicy::External"
        );
        let droppable = self.enabled.get(&key).is_some_and(|e| !e.lossy && e.timer_tag.is_none());
        if !droppable {
            return false;
        }
        let event = self.take_open(key);
        let Payload::Message { from, .. } = &event.payload else { unreachable!() };
        self.time = event.time;
        self.stats.events_processed += 1;
        self.count_absent_drop(*from, event.to);
        self.metrics.queue_depth.set(self.pending_events() as f64);
        true
    }

    /// The accounting of a lossy message the channel lost.
    fn count_loss(&mut self, from: ProcessId, to: ProcessId) {
        self.stats.messages_lost += 1;
        self.metrics.drops_loss.inc();
        if self.tracer.is_enabled() {
            self.tracer.record(
                Span::new("sim.loss", SYSTEM_TRACE).at(self.time).node(to.0).with("from", from.0),
            );
        }
    }

    /// The accounting of a message that reached no handler at delivery
    /// time.
    fn count_absent_drop(&mut self, from: ProcessId, to: ProcessId) {
        self.stats.messages_dropped += 1;
        self.metrics.drops_absent.inc();
        if self.tracer.is_enabled() {
            self.tracer.record(
                Span::new("sim.drop_absent", SYSTEM_TRACE)
                    .at(self.time)
                    .node(to.0)
                    .with("from", from.0),
            );
        }
    }

    /// Read access to a pending message's payload (for an external
    /// scheduler that wants to classify choices). `None` for timers
    /// and unknown keys.
    #[must_use]
    pub fn pending_payload(&self, key: u64) -> Option<&M> {
        match &self.open.get(&key)?.payload {
            Payload::Message { msg, .. } => Some(msg),
            Payload::Timer { .. } => None,
        }
    }

    /// Processes a single event. Returns `false` if the queue is empty.
    ///
    /// Under [`DeliveryPolicy::External`] the enabled event with the
    /// smallest key fires, so stepping without an external scheduler is
    /// still deterministic (but *not* timestamp-ordered).
    pub fn step(&mut self) -> bool {
        // Self-profiling (opt-in): one monotonic-clock span around the
        // whole event — the `BinaryHeap` pop (Seeded) or the External
        // tables' head removal, the handler, and the outbox flush.
        let profile_start =
            if self.self_profiler.is_enabled() { Some(RealSync::monotonic_now()) } else { None };
        let event = match self.policy {
            DeliveryPolicy::Seeded => {
                let Some(event) = self.queue.pop() else {
                    return false;
                };
                debug_assert!(event.time >= self.time, "time went backwards");
                event
            }
            DeliveryPolicy::External => {
                let Some((&head, _)) = self.enabled.first_key_value() else {
                    return false;
                };
                self.take_open(head)
            }
        };
        let to = event.to;
        self.deliver(event);
        if let Some(start) = profile_start {
            self.self_profiler.record(
                Span::new("sim.step", SYSTEM_TRACE)
                    .between(start, RealSync::monotonic_now())
                    .node(to.0)
                    .with("pending", self.pending_events() as u64),
            );
        }
        true
    }

    /// Delivers one event: advances time to the event's own timestamp,
    /// runs the handler on the process *in place*, and applies its
    /// buffered sends and timers.
    ///
    /// In place is sound because a handler reaches the simulator only
    /// through its [`Context`], and the context borrows three fields —
    /// the outbox, the timer requests and the RNG — that are disjoint
    /// from `processes`. Whatever a handler asks for is applied after it
    /// returns, so it can neither observe nor disturb the process map.
    fn deliver(&mut self, event: Event<M>) {
        self.time = event.time;
        self.stats.events_processed += 1;
        let Some(process) = self.processes.get_mut(&event.to) else {
            if let Payload::Message { from, .. } = &event.payload {
                self.count_absent_drop(*from, event.to);
            }
            self.metrics.queue_depth.set(self.pending_events() as f64);
            return;
        };
        let mut ctx = Context {
            self_id: event.to,
            now: self.time,
            outbox: &mut self.outbox,
            timers: &mut self.timer_requests,
            rng: &mut self.rng,
        };
        match event.payload {
            Payload::Message { from, msg } => {
                self.stats.messages_delivered += 1;
                self.metrics.delivered.inc();
                self.metrics.latency.record(event.time.saturating_sub(event.sent_at));
                process.on_message(&mut ctx, from, msg);
            }
            Payload::Timer { tag } => {
                self.stats.timers_fired += 1;
                self.metrics.timers_fired.inc();
                process.on_timer(&mut ctx, tag);
            }
        }
        // Apply buffered sends and timers. The buffers are drained and
        // put back, so they keep their capacity from event to event.
        let mut outbox = std::mem::take(&mut self.outbox);
        for (from, to, msg, lossy) in outbox.drain(..) {
            self.enqueue_message(from, to, msg, lossy);
        }
        self.outbox = outbox;
        let mut timers = std::mem::take(&mut self.timer_requests);
        for (on, delay, tag) in timers.drain(..) {
            self.schedule_timer(on, delay.max(1), tag);
        }
        self.timer_requests = timers;
        self.metrics.queue_depth.set(self.pending_events() as f64);
    }

    /// Runs until the event queue is empty or `max_events` events have
    /// been processed. Returns `true` if the queue drained (the system is
    /// idle).
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.pending_events() == 0
    }

    /// The timestamp of the next event [`step`](Self::step) would fire,
    /// if any. Under [`DeliveryPolicy::External`] this is the smallest
    /// *enabled* key's timestamp, which need not be the globally
    /// earliest one.
    fn next_event_time(&self) -> Option<u64> {
        match self.policy {
            DeliveryPolicy::Seeded => self.queue.peek().map(|e| e.time),
            DeliveryPolicy::External => self.enabled.values().next().map(|e| e.time),
        }
    }

    /// Runs until simulated time reaches `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: u64) {
        while let Some(next) = self.next_event_time() {
            if next > deadline {
                break;
            }
            let _ = self.step();
        }
        self.time = self.time.max(deadline);
    }

    /// Number of events currently pending (either policy).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records every message it receives.
    struct Recorder {
        log: Rc<RefCell<Vec<(u64, ProcessId, u32)>>>,
    }

    impl Process<u32> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            self.log.borrow_mut().push((ctx.now(), from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
            self.log.borrow_mut().push((ctx.now(), ctx.self_id(), tag as u32 + 1000));
        }
    }

    #[test]
    fn messages_arrive_in_fifo_order_per_link() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> =
            Simulator::new(SimConfig { base_latency: 5, jitter: 50, loss_per_mille: 0, seed: 3 });
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&log) });
        for i in 0..100 {
            sim.send_external(ProcessId(1), i);
        }
        assert!(sim.run_until_idle(1000));
        let got: Vec<u32> = log.borrow().iter().map(|&(_, _, m)| m).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>(), "FIFO violated");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim: Simulator<u32, Recorder> =
                Simulator::new(SimConfig { base_latency: 2, jitter: 17, loss_per_mille: 0, seed: 42 });
            for p in 0..4 {
                sim.add_process(ProcessId(p), Recorder { log: Rc::clone(&log) });
            }
            for i in 0..50 {
                sim.send_external(ProcessId(u64::from(i % 4)), i);
            }
            sim.run_until_idle(10_000);
            let result = log.borrow().clone();
            (result, sim.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn handler_may_send_to_itself_and_set_a_zero_delay_timer() {
        // The handler runs on the process in place, so its own id is in
        // the map while it asks for a self-send and an immediate timer;
        // both are buffered and land on it after it returns.
        struct Echo(Rc<RefCell<Vec<(u64, u32)>>>);
        impl Process<u32> for Echo {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                self.0.borrow_mut().push((ctx.now(), msg));
                if msg == 0 {
                    ctx.send(ctx.self_id(), 1);
                    ctx.set_timer(0, 9);
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, u32>, tag: u64) {
                self.0.borrow_mut().push((ctx.now(), 1000 + tag as u32));
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Echo> =
            Simulator::new(SimConfig { base_latency: 3, jitter: 0, loss_per_mille: 0, seed: 1 });
        sim.add_process(ProcessId(1), Echo(Rc::clone(&log)));
        sim.send_external(ProcessId(1), 0);
        assert!(sim.run_until_idle(10));
        // A zero delay still fires strictly later than the handler.
        assert_eq!(log.borrow().as_slice(), &[(3, 0), (4, 1009), (6, 1)]);
        let stats = sim.stats();
        assert_eq!((stats.messages_delivered, stats.timers_fired), (2, 1));
    }

    #[test]
    fn process_removed_between_its_pending_events_drops_the_rest() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> =
            Simulator::new(SimConfig { base_latency: 2, jitter: 0, loss_per_mille: 0, seed: 1 });
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&log) });
        sim.send_external(ProcessId(1), 1);
        sim.send_external(ProcessId(1), 2);
        assert!(sim.step());
        assert!(sim.remove_process(ProcessId(1)).is_some());
        assert!(sim.run_until_idle(10));
        assert_eq!(log.borrow().len(), 1, "only the first event reached the process");
        let stats = sim.stats();
        assert_eq!((stats.messages_delivered, stats.messages_dropped), (1, 1));
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    fn replacing_a_live_process_hands_it_the_pending_events() {
        let (old_log, new_log) = (Rc::default(), Rc::default());
        let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig::default());
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&old_log) });
        sim.send_external(ProcessId(1), 7);
        sim.set_timer_external(ProcessId(1), 50, 3);
        let replaced = sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&new_log) });
        assert!(replaced.is_some());
        assert!(sim.run_until_idle(10));
        assert!(old_log.borrow().is_empty());
        assert_eq!(new_log.borrow().len(), 2, "message and timer both reach the new process");
        assert_eq!(sim.stats().messages_dropped, 0);
    }

    struct PingPong {
        count: Rc<RefCell<u32>>,
    }

    impl Process<u32> for PingPong {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, msg: u32) {
            *self.count.borrow_mut() += 1;
            if msg > 0 && from != ProcessId::EXTERNAL {
                ctx.send(from, msg - 1);
            } else if msg > 0 {
                // Kick the ball to the peer process.
                let peer = if ctx.self_id() == ProcessId(1) { ProcessId(2) } else { ProcessId(1) };
                ctx.send(peer, msg - 1);
            }
        }
    }

    #[test]
    fn ping_pong_exchanges_the_right_number_of_messages() {
        let count = Rc::new(RefCell::new(0));
        let mut sim: Simulator<u32, PingPong> = Simulator::new(SimConfig::default());
        sim.add_process(ProcessId(1), PingPong { count: Rc::clone(&count) });
        sim.add_process(ProcessId(2), PingPong { count: Rc::clone(&count) });
        sim.send_external(ProcessId(1), 9);
        assert!(sim.run_until_idle(100));
        assert_eq!(*count.borrow(), 10);
        assert_eq!(sim.stats().messages_delivered, 10);
    }

    #[test]
    fn messages_to_absent_processes_are_dropped_and_counted() {
        let mut sim: Simulator<u32, PingPong> = Simulator::new(SimConfig::default());
        sim.send_external(ProcessId(7), 1);
        assert!(sim.run_until_idle(10));
        assert_eq!(sim.stats().messages_dropped, 1);
        assert_eq!(sim.stats().messages_delivered, 0);
    }

    #[test]
    fn timers_fire_at_the_right_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> =
            Simulator::new(SimConfig { base_latency: 1, jitter: 0, loss_per_mille: 0, seed: 1 });
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&log) });
        sim.set_timer_external(ProcessId(1), 100, 7);
        sim.set_timer_external(ProcessId(1), 50, 3);
        assert!(sim.run_until_idle(10));
        let got = log.borrow().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (50, ProcessId(1), 1003));
        assert_eq!(got[1], (100, ProcessId(1), 1007));
    }

    #[test]
    fn run_until_respects_deadline() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> =
            Simulator::new(SimConfig { base_latency: 1, jitter: 0, loss_per_mille: 0, seed: 1 });
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&log) });
        sim.set_timer_external(ProcessId(1), 10, 0);
        sim.set_timer_external(ProcessId(1), 1000, 1);
        sim.run_until(500);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.now(), 500);
        sim.run_until(2000);
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn remove_process_drops_future_messages() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig::default());
        sim.add_process(ProcessId(1), Recorder { log: Rc::clone(&log) });
        sim.send_external(ProcessId(1), 1);
        sim.remove_process(ProcessId(1));
        assert!(sim.run_until_idle(10));
        assert!(log.borrow().is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    struct LossyRelay;
    impl Process<u32> for LossyRelay {
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ProcessId, msg: u32) {
            if msg > 0 {
                ctx.send_lossy(ctx.self_id(), msg - 1);
            }
        }
    }

    #[test]
    fn lossy_channel_drops_deterministically() {
        let run = |loss| {
            let mut sim: Simulator<u32, LossyRelay> = Simulator::new(SimConfig {
                base_latency: 1,
                jitter: 0,
                loss_per_mille: loss,
                seed: 77,
            });
            sim.add_process(ProcessId(1), LossyRelay);
            sim.send_external(ProcessId(1), 10_000);
            assert!(sim.run_until_idle(100_000));
            sim.stats()
        };
        let clean = run(0);
        assert_eq!(clean.messages_lost, 0);
        assert_eq!(clean.messages_delivered, 10_001);
        let lossy = run(200);
        assert!(lossy.messages_lost > 0, "no losses at 20%");
        // The chain dies at the first loss, so deliveries shrink a lot.
        assert!(lossy.messages_delivered < clean.messages_delivered);
        // Determinism across runs.
        assert_eq!(run(200), lossy);
    }

    #[test]
    fn dropped_means_absent_destination_not_loss_model() {
        // A reliable send to a never-registered process: counted as
        // dropped (absent destination), never as lost.
        let mut sim: Simulator<u32, PingPong> = Simulator::new(SimConfig {
            base_latency: 1,
            jitter: 0,
            loss_per_mille: 1000, // full loss, but only for lossy sends
            seed: 5,
        });
        sim.send_external(ProcessId(9), 1);
        assert!(sim.run_until_idle(10));
        let stats = sim.stats();
        assert_eq!(stats.messages_dropped, 1, "absent destination counts as dropped");
        assert_eq!(stats.messages_lost, 0, "reliable sends never hit the loss model");
    }

    #[test]
    fn lost_means_loss_model_not_absent_destination() {
        // A lossy send to a *live* process under 100% loss: counted as
        // lost at send time, never as dropped.
        struct LossySender;
        impl Process<u32> for LossySender {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                if msg > 0 {
                    ctx.send_lossy(ctx.self_id(), msg - 1);
                }
            }
        }
        let mut sim: Simulator<u32, LossySender> = Simulator::new(SimConfig {
            base_latency: 1,
            jitter: 0,
            loss_per_mille: 1000,
            seed: 5,
        });
        sim.add_process(ProcessId(1), LossySender);
        sim.send_external(ProcessId(1), 3);
        assert!(sim.run_until_idle(10));
        let stats = sim.stats();
        assert_eq!(stats.messages_delivered, 1, "the external injection still arrives");
        assert_eq!(stats.messages_lost, 1, "the lossy resend dies at send time");
        assert_eq!(stats.messages_dropped, 0, "a live destination never counts as dropped");
    }

    #[test]
    fn send_external_to_departed_process_is_dropped() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig::default());
        sim.add_process(ProcessId(4), Recorder { log: Rc::clone(&log) });
        sim.send_external(ProcessId(4), 1);
        assert!(sim.run_until_idle(10));
        assert_eq!(sim.stats().messages_delivered, 1);
        // The node departs; a late external injection is dropped and
        // counted, not delivered and not "lost".
        sim.remove_process(ProcessId(4));
        sim.send_external(ProcessId(4), 2);
        assert!(sim.run_until_idle(10));
        let stats = sim.stats();
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.messages_lost, 0);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn telemetry_mirrors_stats_and_tags_drop_causes() {
        let registry = Registry::new();
        let tracer = Tracer::new(128);

        struct LossyForwarder;
        impl Process<u32> for LossyForwarder {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, msg: u32) {
                if msg > 0 {
                    ctx.send_lossy(ProcessId(2), msg - 1);
                }
            }
            fn on_timer(&mut self, _: &mut Context<'_, u32>, _: u64) {}
        }
        let mut sim: Simulator<u32, LossyForwarder> = Simulator::new(SimConfig {
            base_latency: 3,
            jitter: 4,
            loss_per_mille: 1000,
            seed: 11,
        });
        sim.attach_telemetry(&registry);
        sim.attach_tracer(&tracer);
        sim.add_process(ProcessId(1), LossyForwarder);
        sim.send_external(ProcessId(1), 5); // delivered; lossy resend lost
        sim.send_external(ProcessId(3), 1); // absent: dropped
        sim.set_timer_external(ProcessId(1), 7, 0);
        assert!(sim.run_until_idle(100));

        let stats = sim.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("acn.sim.delivered"), Some(stats.messages_delivered));
        assert_eq!(snap.counter("acn.sim.drops_absent"), Some(stats.messages_dropped));
        assert_eq!(snap.counter("acn.sim.drops_loss"), Some(stats.messages_lost));
        assert_eq!(snap.counter("acn.sim.timers_fired"), Some(stats.timers_fired));
        let latency = snap.histogram("acn.sim.latency").expect("latency histogram");
        assert_eq!(latency.count, stats.messages_delivered);
        assert!(latency.sum >= 3 * stats.messages_delivered, "latency >= base");
        assert_eq!(snap.gauge("acn.sim.queue_depth"), Some(0.0), "idle queue is empty");

        let count = |kind| tracer.spans().iter().filter(|s| s.kind == kind).count() as u64;
        assert_eq!(count("sim.loss"), stats.messages_lost);
        assert_eq!(count("sim.drop_absent"), stats.messages_dropped);
        assert!(stats.messages_lost > 0 && stats.messages_dropped > 0, "{stats:?}");
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn remove_process_prunes_link_clocks_under_churn() {
        // Regression: link clocks used to be retained forever, so a
        // churning system leaked one entry per (from, to) pair ever
        // used. After every leave, no clock may mention the departed id.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig::default());
        for i in 1..=64u64 {
            sim.add_process(ProcessId(i), Recorder { log: Rc::clone(&log) });
            sim.send_external(ProcessId(i), i as u32);
            assert!(sim.run_until_idle(100));
            assert!(sim.remove_process(ProcessId(i)).is_some());
            assert!(
                sim.link_clock.is_empty(),
                "stale link clocks survived churn: {:?}",
                sim.link_clock.keys().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn remove_process_prunes_both_link_directions() {
        let count = Rc::new(RefCell::new(0));
        let mut sim: Simulator<u32, PingPong> = Simulator::new(SimConfig::default());
        sim.add_process(ProcessId(1), PingPong { count: Rc::clone(&count) });
        sim.add_process(ProcessId(2), PingPong { count: Rc::clone(&count) });
        sim.send_external(ProcessId(1), 8);
        assert!(sim.run_until_idle(100));
        assert!(
            sim.link_clock.keys().any(|&(f, _)| f == ProcessId(1)),
            "the rally must have populated 1->2"
        );
        sim.remove_process(ProcessId(1));
        assert!(
            sim.link_clock.keys().all(|&(f, t)| f != ProcessId(1) && t != ProcessId(1)),
            "clocks naming the departed process must be pruned"
        );
        // The peer's clocks not involving process 1 are untouched.
        sim.remove_process(ProcessId(2));
        assert!(sim.link_clock.is_empty());
    }

    #[test]
    fn drop_delivery_keeps_the_receivers_link_clocks() {
        // Dropping one reliable message must not prune link clocks the
        // way `remove_process` does: a later send on *another* link into
        // the receiver would then be timestamped before that link's
        // messages still in flight.
        let (p1, p2, p3) = (ProcessId(1), ProcessId(2), ProcessId(3));
        let log = Rc::new(RefCell::new(Vec::new()));
        let config = SimConfig { base_latency: 5, jitter: 0, loss_per_mille: 0, seed: 1 };
        let mut sim: Simulator<u32, Recorder> =
            Simulator::with_policy(config, DeliveryPolicy::External);
        for p in [p1, p2, p3] {
            sim.add_process(p, Recorder { log: Rc::clone(&log) });
        }
        sim.enqueue_message(p2, p3, 20, false); // due at t=5
        let tick = sim.schedule_timer(p1, 15, 0);
        assert!(sim.fire(tick)); // now t=15
        sim.enqueue_message(p1, p3, 10, false); // due at t=20
        sim.enqueue_message(p1, p3, 11, false); // due at t=21
        let clocks: Vec<_> = sim.link_clocks().collect();
        let enabled = sim.enabled_events();
        let on = |from| enabled.iter().find(|e| e.from == Some(from)).expect("link head").key;
        let (dropped, head) = (on(p2), on(p1));

        // Only an enabled reliable message can be dropped this way.
        let behind = sim.pending_snapshot().iter().map(|(e, _)| e.key).max().expect("pending");
        let timer = sim.schedule_timer(p1, 50, 1);
        assert!(!sim.drop_delivery(behind), "not its link's head");
        assert!(!sim.drop_delivery(timer), "a timer");
        assert!(!sim.drop_delivery(u64::MAX), "unknown");
        assert!(sim.drop_delivery(dropped));
        assert!(!sim.drop_delivery(dropped), "already gone");

        // Accounted like a delivery to an absent process ...
        let stats = sim.stats();
        assert_eq!((stats.events_processed, stats.messages_dropped), (2, 1));
        assert_eq!(sim.now(), 5, "time is the dropped message's own");
        // ... but the receiver and every link clock stay.
        assert!(sim.contains(p3));
        assert_eq!(sim.link_clocks().collect::<Vec<_>>(), clocks);
        sim.enqueue_message(p1, p3, 12, false);
        let link: Vec<u64> = sim
            .pending_snapshot()
            .iter()
            .filter(|(e, _)| e.from == Some(p1))
            .map(|(e, _)| e.time)
            .collect();
        assert_eq!(link, vec![20, 21, 22], "the new send queues behind the link's in-flight");
        assert!(sim.fire(head));
        assert!(sim.run_until_idle(10));
        let got: Vec<(u64, u32)> =
            log.borrow().iter().filter(|&&(_, _, m)| m < 1000).map(|&(t, _, m)| (t, m)).collect();
        assert_eq!(got, vec![(20, 10), (21, 11), (22, 12)]);
    }

    #[test]
    fn send_time_losses_leave_fifo_clocks_untouched() {
        // A loss-model drop happens at send time, before the message
        // claims a FIFO slot: the link clock must not advance, and a
        // later reliable message must arrive at plain base latency
        // instead of being pushed out behind phantom deliveries.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig {
            base_latency: 4,
            jitter: 0,
            loss_per_mille: 1000, // every lossy send drops
            seed: 9,
        });
        sim.add_process(ProcessId(2), Recorder { log: Rc::clone(&log) });
        for i in 0..50 {
            sim.enqueue_message(ProcessId(1), ProcessId(2), i, true);
        }
        assert_eq!(sim.stats().messages_lost, 50);
        assert!(
            !sim.link_clock.contains_key(&(ProcessId(1), ProcessId(2))),
            "dropped sends must not reserve delivery slots"
        );
        sim.enqueue_message(ProcessId(1), ProcessId(2), 99, false);
        assert!(sim.run_until_idle(10));
        assert_eq!(log.borrow().as_slice(), &[(4, ProcessId(1), 99)]);
    }

    #[test]
    fn tie_break_is_insertion_order_independent() {
        // Same-timestamp deliveries must order by the explicit key
        // (time, to, kind, from/tag, seq), not by insertion order.
        // With jitter 0 every send at t=0 lands at t=base_latency, so
        // permuting the insertion order exercises the tie-break; the
        // two runs must produce identical delivery sequences.
        let run = |order: &[u32]| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim: Simulator<u32, Recorder> = Simulator::new(SimConfig {
                base_latency: 7,
                jitter: 0,
                loss_per_mille: 0,
                seed: 1,
            });
            for p in 1..=3u64 {
                sim.add_process(ProcessId(p), Recorder { log: Rc::clone(&log) });
            }
            // Each op id encodes one environment action; apply them in
            // the permuted order.
            for &op in order {
                match op {
                    0 => sim.send_external(ProcessId(1), 10),
                    1 => sim.send_external(ProcessId(2), 20),
                    2 => sim.send_external(ProcessId(3), 30),
                    3 => sim.set_timer_external(ProcessId(1), 7, 5),
                    4 => sim.set_timer_external(ProcessId(2), 7, 6),
                    5 => sim.set_timer_external(ProcessId(3), 7, 4),
                    _ => unreachable!(),
                }
            }
            assert!(sim.run_until_idle(100));
            let result = log.borrow().clone();
            result
        };
        let forward = run(&[0, 1, 2, 3, 4, 5]);
        let permuted = run(&[5, 2, 4, 1, 3, 0]);
        assert_eq!(
            forward, permuted,
            "same-tick delivery order leaked the insertion order"
        );
        // And the documented order itself: ascending destination, with
        // the message delivered before the same-tick timer per process.
        let msgs: Vec<u32> = forward.iter().map(|&(_, _, m)| m).collect();
        assert_eq!(msgs, vec![10, 1005, 20, 1006, 30, 1004]);
    }

    #[test]
    fn context_random_is_deterministic() {
        struct R(Rc<RefCell<Vec<u64>>>);
        impl Process<u32> for R {
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _: ProcessId, _: u32) {
                let v = ctx.random();
                self.0.borrow_mut().push(v);
            }
        }
        let run = || {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim: Simulator<u32, R> = Simulator::new(SimConfig::default());
            sim.add_process(ProcessId(1), R(Rc::clone(&log)));
            for i in 0..10 {
                sim.send_external(ProcessId(1), i);
            }
            sim.run_until_idle(100);
            let result = log.borrow().clone();
            result
        };
        assert_eq!(run(), run());
    }
}

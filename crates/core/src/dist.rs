//! The distributed, message-passing runtime of the adaptive counting
//! network, executing on the deterministic simulator of [`acn_simnet`].
//!
//! Every overlay node is a [`NodeProc`]; all interaction is via
//! [`Msg`] messages. The runtime implements, faithfully to the paper:
//!
//! - **token routing** (Section 3.5): tokens carry the cut-independent
//!   wire address of their destination; senders guess the live owner
//!   from a per-node cache and walk the ancestor name chain on a miss
//!   (each guess is one DHT lookup in a real deployment). Tokens ride a
//!   *lossy* datagram channel: each send carries a GUID, receivers
//!   acknowledge accepted sends, and senders retransmit obligations
//!   that stay silent (the control plane is reliable, like TCP next to
//!   a fast datagram path). Exactly-once *traversal and counting* is
//!   then enforced by three dedup layers, each catching a duplicate
//!   class the previous one structurally cannot: per-receiver GUID
//!   suppression (same-node retransmit races), a travelling
//!   per-component `(token, wire)` idempotency ledger ([`SeenTokens`] —
//!   a retried obligation re-routed to a *different* node after a
//!   reconfiguration, while the delayed original is still in flight;
//!   found by the schedule explorer in `acn-check`), and collector-side
//!   end-to-end token-id dedup as the last line for the counting
//!   oracle;
//! - **splitting** (Section 2.2): the host freezes the component,
//!   installs initialized children at their hash owners, then removes
//!   the component and re-routes anything buffered meanwhile;
//! - **merging** (Section 2.2): the node that split a component
//!   coordinates the merge — children are frozen and collected
//!   (recursively merging grandchildren first), the parent is
//!   reconstructed from the output-side children's counters, installed,
//!   and only then are the frozen children discarded and their buffered
//!   tokens re-routed;
//! - **distributed decisions** (Section 3.2): a periodic local timer
//!   re-estimates the system size from successor distances and enforces
//!   the invariant "every component on `v` is at level `>= l_v`";
//! - **churn** (Section 3.4): joins migrate components to their new hash
//!   owners; graceful leaves hand components and pending merge
//!   obligations to the successor; crashes lose state, and a repair
//!   sweep re-covers the cut (the \[HT03\]-style stabilization hook).
//!
//! Exited tokens are reported to a collector process which serves as the
//! measurement endpoint for the experiments.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use acn_overlay::{NodeId, Ring};
use acn_simnet::{Context, DeliveryPolicy, Process, ProcessId, SimConfig, Simulator};
use acn_telemetry::{Counter, Event as TelemetryEvent, Histogram, Registry};
use acn_trace::{Span, Tracer, SYSTEM_TRACE};
use acn_topology::{
    input_port_of, network_input_address, resolve_output, ComponentId, Cut, OutputDestination,
    Tree, WireAddress, WiringStyle,
};

use crate::component::{merge_components, split_component, Component};

/// Timer tags used by [`NodeProc`].
const TIMER_LEVEL: u64 = 0;
const TIMER_RETRY: u64 = 1;
/// The failure-detector lease tick: each node monitors its ring
/// predecessor (the unique node whose successor it is), pinging it
/// when it has been silent for a lease period and suspecting it after
/// [`FD_STRIKE_LIMIT`] consecutive silent ticks.
const TIMER_FD: u64 = 3;

/// Consecutive silent failure-detector ticks before a node suspects
/// its monitored predecessor. Each tick is one `level_period`, so
/// detection takes at most `FD_STRIKE_LIMIT + 1` periods after the
/// crash — far above the simulated RTT, so a live-but-slow peer is
/// never falsely suspected under seeded delivery.
const FD_STRIKE_LIMIT: u32 = 3;

/// Default bound on tokens a *remote sender* may park in one frozen
/// component's buffer. Past it the receiver sheds with a backpressure
/// NACK ([`Msg::TokenBusy`]) and the sender retries under backoff.
/// Locally re-routed tokens (buffer drains, client injections) are
/// exempt — they have no sender to push back on — so the buffer stays
/// bounded by wire admission plus a bounded local refill.
const DEFAULT_FROZEN_BUFFER_CAP: usize = 64;

/// Base of the harness-injected "force a split now" timer tags: the
/// low bits carry the packed [`ComponentId`] (see
/// [`force_split_tag`]). The distributed model checker schedules these
/// so reconfiguration happens at *explored* points instead of waiting
/// for the estimator-driven level tick.
const TIMER_FORCE_SPLIT_BASE: u64 = 1 << 48;
/// Base of the "force a merge now" timer tags (see [`force_merge_tag`]).
const TIMER_FORCE_MERGE_BASE: u64 = 2 << 48;
/// Mask extracting the packed component id from a force tag.
const FORCE_TAG_ID_MASK: u64 = (1 << 48) - 1;

/// The timer tag that makes the receiving [`NodeProc`] start splitting
/// hosted component `id` (no-op if it does not host `id` live and
/// unfrozen). Harness/checker use; deterministic and explorable, unlike
/// the estimator-driven level tick.
#[must_use]
pub fn force_split_tag(id: &ComponentId) -> u64 {
    TIMER_FORCE_SPLIT_BASE | id.to_u64()
}

/// The timer tag that makes the receiving [`NodeProc`] start merging
/// split component `id` (no-op unless `id` is on its split list with no
/// merge already in flight). Harness/checker use.
#[must_use]
pub fn force_merge_tag(id: &ComponentId) -> u64 {
    TIMER_FORCE_MERGE_BASE | id.to_u64()
}

/// Sentinel for "first try, use the cache" probing attempts.
const ATTEMPT_CACHED: u8 = u8::MAX;

/// The process id of the measurement collector.
pub const COLLECTOR: ProcessId = ProcessId(u64::MAX - 1);

/// Messages of the distributed runtime.
///
/// Every pending event carries one `Msg` through the simulator's heap,
/// so the enum is kept small: ids and wire addresses are inline `Copy`
/// values, and the four reconfiguration variants that move a whole
/// [`Component`] box it (see the size guard below the enum).
#[derive(Debug, Clone)]
pub enum Msg {
    /// A client asks the receiving node to inject a token on this input
    /// wire (clients may contact any node, paper Section 1.4).
    ClientInject {
        /// Network input wire, `0..w`.
        wire: usize,
    },
    /// A token travelling towards the component owning `addr`. Tokens
    /// ride the **lossy** channel (an unreliable datagram fast path);
    /// delivery is guaranteed end to end by acknowledgement,
    /// retransmission, and two dedup layers: a per-receiver GUID check
    /// (suppresses a retransmission racing its own ack at the *same*
    /// node) and a collector-side `token` check (suppresses the copy
    /// that escapes to a *different* path when a timed-out obligation
    /// is re-routed after reconfiguration while the original send is
    /// still in flight — a race the schedule explorer found; see
    /// `Collector`).
    Token {
        /// Per-send obligation identifier (receiver-side duplicate
        /// suppression and ack/nack correlation). Fresh per forward,
        /// stable across retransmissions of the same obligation.
        guid: u64,
        /// Stable end-to-end identity of the injected token: assigned
        /// once at injection, preserved across forwards, buffering,
        /// migration, and retransmission. The collector counts each
        /// `token` at most once.
        token: u64,
        /// The cut-independent destination wire.
        addr: WireAddress,
        /// Simulated time at which the token entered the network.
        injected_at: u64,
        /// Probe progress: `ATTEMPT_CACHED` for the cached guess,
        /// otherwise an index into the canonical candidate chain.
        attempt: u8,
        /// Inter-node forwards this token has taken so far (telemetry:
        /// the `acn.dist.routing_hops` histogram at network output).
        hops: u64,
    },
    /// The receiver accepted (processed or buffered) the token; the
    /// sender releases its retransmission obligation. Reliable.
    TokenAck {
        /// The accepted token.
        guid: u64,
    },
    /// The receiver hosts no live candidate for the token's wire; the
    /// sender advances the probe. Reliable.
    TokenNack {
        /// The rejected send's obligation id; the sender still holds
        /// the token under it.
        guid: u64,
        /// Echo of the failed attempt.
        attempt: u8,
    },
    /// A token exited the network (sent to [`COLLECTOR`]).
    Exit {
        /// The network output wire.
        wire: usize,
        /// End-to-end token identity (collector-side exactly-once
        /// dedup).
        token: u64,
        /// When the token was injected (for latency accounting).
        injected_at: u64,
        /// Inter-node forwards the token took end to end.
        hops: u64,
    },
    /// Install a component on the receiver (split child or merge
    /// result).
    Install {
        /// The full component state to install.
        comp: Box<Component>,
        /// The travelling `(token, addr)` idempotency ledger: the
        /// parent's ledger for split children, the union of the
        /// children's for a merge result.
        seen: SeenTokens,
    },
    /// Acknowledges an [`Msg::Install`].
    InstallAck {
        /// The installed component.
        id: ComponentId,
    },
    /// Merge protocol: freeze `id` and report its state to the
    /// coordinator merging `parent`.
    FreezeCollect {
        /// The child component to freeze.
        id: ComponentId,
        /// The component being reconstructed.
        parent: ComponentId,
    },
    /// Reply to [`Msg::FreezeCollect`] with the frozen state.
    CollectReply {
        /// The frozen child's full state.
        comp: Box<Component>,
        /// The frozen child's travelling idempotency ledger (unioned
        /// into the merge result's).
        seen: SeenTokens,
        /// The component being reconstructed.
        parent: ComponentId,
    },
    /// The receiver neither hosts `id` nor can reconstruct it right now.
    CollectMissing {
        /// The requested child.
        id: ComponentId,
        /// The component being reconstructed.
        parent: ComponentId,
    },
    /// The merge coordinator is done: drop the frozen child and re-route
    /// its buffered tokens.
    RemoveFrozen {
        /// The frozen child to remove.
        id: ComponentId,
    },
    /// The merge was deferred (unsettled traffic): unfreeze the child in
    /// place and process its buffered tokens.
    AbortFreeze {
        /// The frozen child to release.
        id: ComponentId,
    },
    /// Failure-detector liveness probe: the sender has not heard from
    /// the receiver for a lease period.
    Ping,
    /// Liveness reply to [`Msg::Ping`].
    Pong,
    /// Epoch-stamped membership gossip. Both sets grow monotonically
    /// (node ids are never reused), so merging is a plain set union and
    /// every node's view epoch `|known| + |dead|` only moves forward —
    /// a state-based CRDT that converges regardless of delivery order.
    ViewGossip {
        /// Every node the sender has ever known.
        known: BTreeSet<NodeId>,
        /// Tombstones: nodes the sender knows to be crashed or departed.
        dead: BTreeSet<NodeId>,
    },
    /// Rescue sweep: the coordinator (the suspector of a crash) asks a
    /// peer for the slice of the cut it covers.
    RescueQuery,
    /// Reply to [`Msg::RescueQuery`]: components this node covers —
    /// hosted ones plus in-flight obligations (pending split children,
    /// merge parents awaiting install) — with their frozen flags.
    RescueReport {
        /// `(component, frozen)` for everything this node covers.
        covered: Vec<(ComponentId, bool)>,
    },
    /// Install a freshly initialized replacement component for a
    /// subtree orphaned by a crash. Token history of the lost component
    /// is gone by definition; the receiver installs only if nothing it
    /// hosts already overlaps the subtree, and acknowledges either way.
    RescueInstall {
        /// The replacement component (freshly initialized).
        comp: Box<Component>,
    },
    /// Acknowledges a [`Msg::RescueInstall`].
    RescueAck {
        /// The replacement component's id.
        id: ComponentId,
    },
    /// Backpressure NACK: the receiver's covering component is frozen
    /// and its buffer is full. The sender keeps the obligation and
    /// retries under escalated backoff.
    TokenBusy {
        /// The shed token's obligation id.
        guid: u64,
    },
    /// Hand a component to its current hash owner (view-driven
    /// migration). Carries the travelling idempotency ledger and the
    /// frozen-buffer backlog; the sender keeps a copy until
    /// [`Msg::MigrateAck`] so a crash of the target cannot lose it.
    Migrate {
        /// The migrating component.
        comp: Box<Component>,
        /// Its travelling `(token, addr)` idempotency ledger.
        seen: SeenTokens,
        /// Tokens that were buffered at the component.
        buffer: Vec<Token>,
    },
    /// Acknowledges a [`Msg::Migrate`]; the sender drops its copy.
    MigrateAck {
        /// The migrated component.
        id: ComponentId,
    },
    /// The sender hosts `child` frozen for a merge whose coordinator
    /// died. The receiver is the current hash owner of `parent`: it
    /// either adopts the merge obligation or, if it already hosts the
    /// parent live, tells the sender to drop the leftover child.
    MergeOrphan {
        /// The frozen child orphaned by the coordinator's crash.
        child: ComponentId,
        /// The merge parent whose coordinator died.
        parent: ComponentId,
    },
    /// Split-list obligations handed to the receiver (the entries'
    /// current hash owner) by a gracefully departing node.
    SplitListHandoff {
        /// The handed-off split-list entries.
        entries: Vec<ComponentId>,
    },
}

// `Install`, `CollectReply`, `Migrate` and `RescueInstall` box their
// `Component` (three `Vec`s and an id: 120 bytes). They are a handful
// per reconfiguration; `Token`/`TokenAck`/`Exit` are a dozen per token,
// and every one of them is sifted through the event heap at the size of
// the largest variant.
const _: () = assert!(std::mem::size_of::<Msg>() <= 80);

/// A token as a node holds it — while routing it, buffered at a frozen
/// component, riding a [`Msg::Migrate`], or awaiting an ack. On the
/// wire [`Msg::Token`] carries the same four fields flat: nested, the
/// 25-byte align-1 `WireAddress` would pad every `Msg` from 64 to 72
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Stable end-to-end identity (see [`Msg::Token`]).
    pub id: u64,
    /// The cut-independent destination wire.
    pub addr: WireAddress,
    /// Simulated time at which the token entered the network.
    pub injected_at: u64,
    /// Inter-node forwards taken so far.
    pub hops: u64,
}

impl Token {
    /// The wire form of one send of this token.
    fn into_msg(self, guid: u64, attempt: u8) -> Msg {
        let Token { id, addr, injected_at, hops } = self;
        Msg::Token { guid, token: id, addr, injected_at, attempt, hops }
    }
}

/// Pre-resolved telemetry handles for the distributed runtime
/// (`acn.dist.*`). All handles are no-ops until
/// [`Deployment::attach_telemetry`] wires in an enabled registry.
#[derive(Debug, Default)]
pub(crate) struct DistMetrics {
    /// Inter-node hops a token took before exiting (recorded at the
    /// network output).
    routing_hops: Histogram,
    /// Duration of completed splits (freeze → parent removed), ticks.
    split_duration: Histogram,
    /// Duration of completed merges (begin → parent live), ticks.
    merge_duration: Histogram,
    /// Mirrors `World::splits_done`.
    splits: Counter,
    /// Mirrors `World::merges_done`.
    merges: Counter,
    /// Merges aborted (unsettled traffic / stalled collection).
    merge_aborts: Counter,
    /// Mirrors `World::token_nacks`.
    nacks: Counter,
    /// Mirrors `World::token_retransmits`.
    retransmits: Counter,
    /// Mirrors `World::duplicate_traversal_drops`.
    dup_traversals: Counter,
    /// Mirrors `World::dht_lookups`.
    dht_lookups: Counter,
    /// Tokens drained from frozen buffers when a merge discards its
    /// children.
    merge_drained: Counter,
    /// Tokens drained from the parent's buffer when a split completes.
    split_drained: Counter,
    /// Components migrated to a new hash owner (churn sweeps).
    migrations: Counter,
    /// Node crashes injected by the harness.
    crashes: Counter,
    /// Components re-installed by cut repair after crashes.
    /// Level-estimate changes observed at `level_tick` (the adaptivity
    /// signal of paper Section 3.2).
    level_changes: Counter,
    /// Failure-detector pings sent (`acn.dist.fd.pings`).
    fd_pings: Counter,
    /// Crash suspicions raised (`acn.dist.fd.suspects`).
    fd_suspects: Counter,
    /// Virtual time from harness crash to first in-protocol suspicion
    /// (`acn.dist.fd.detection_latency`).
    fd_detection_latency: Histogram,
    /// Membership gossip messages sent (`acn.dist.fd.gossip`).
    fd_gossip: Counter,
    /// Rescue sweeps started (`acn.dist.rescue.sweeps`).
    rescue_sweeps: Counter,
    /// Replacement components installed by rescue sweeps
    /// (`acn.dist.rescue.installs`).
    rescue_installs: Counter,
    /// Virtual time from sweep start to last install ack
    /// (`acn.dist.rescue.duration`).
    rescue_duration: Histogram,
    /// Leftover duplicate components discarded during a sweep
    /// (`acn.dist.rescue.duplicate_discards`).
    rescue_discards: Counter,
    /// Retry-timer delays actually armed, jitter included
    /// (`acn.dist.backoff.interval`).
    backoff_interval: Histogram,
    /// Backoff escalations — unproductive retry rounds or backpressure
    /// NACKs doubling the interval (`acn.dist.backoff.escalations`).
    backoff_escalations: Counter,
    /// Backoff resets on acknowledged progress
    /// (`acn.dist.backoff.resets`).
    backoff_resets: Counter,
    /// Tokens shed with a backpressure NACK at a full frozen buffer
    /// (`acn.dist.backoff.sheds`).
    busy_sheds: Counter,
    /// Instrumented size/level estimation (`acn.estimator.*`).
    estimator: acn_estimator::InstrumentedEstimator,
    /// Event stream for `split.*` / `merge.*` / `dist.*` events.
    registry: Registry,
}

impl DistMetrics {
    fn attach(registry: &Registry) -> Self {
        DistMetrics {
            routing_hops: registry.histogram("acn.dist.routing_hops"),
            split_duration: registry.histogram("acn.dist.split_duration"),
            merge_duration: registry.histogram("acn.dist.merge_duration"),
            splits: registry.counter("acn.dist.splits"),
            merges: registry.counter("acn.dist.merges"),
            merge_aborts: registry.counter("acn.dist.merge_aborts"),
            nacks: registry.counter("acn.dist.token_nacks"),
            retransmits: registry.counter("acn.dist.token_retransmits"),
            dup_traversals: registry.counter("acn.dist.duplicate_traversal_drops"),
            dht_lookups: registry.counter("acn.dist.dht_lookups"),
            merge_drained: registry.counter("acn.dist.merge_drained_tokens"),
            split_drained: registry.counter("acn.dist.split_drained_tokens"),
            migrations: registry.counter("acn.dist.component_migrations"),
            crashes: registry.counter("acn.dist.crashes"),
            level_changes: registry.counter("acn.dist.level_changes"),
            fd_pings: registry.counter("acn.dist.fd.pings"),
            fd_suspects: registry.counter("acn.dist.fd.suspects"),
            fd_detection_latency: registry.histogram("acn.dist.fd.detection_latency"),
            fd_gossip: registry.counter("acn.dist.fd.gossip"),
            rescue_sweeps: registry.counter("acn.dist.rescue.sweeps"),
            rescue_installs: registry.counter("acn.dist.rescue.installs"),
            rescue_duration: registry.histogram("acn.dist.rescue.duration"),
            rescue_discards: registry.counter("acn.dist.rescue.duplicate_discards"),
            backoff_interval: registry.histogram("acn.dist.backoff.interval"),
            backoff_escalations: registry.counter("acn.dist.backoff.escalations"),
            backoff_resets: registry.counter("acn.dist.backoff.resets"),
            busy_sheds: registry.counter("acn.dist.backoff.sheds"),
            estimator: acn_estimator::InstrumentedEstimator::attach(registry),
            registry: registry.clone(),
        }
    }
}

/// Global state shared by all processes of one simulation: the overlay
/// ring (authoritative membership), the decomposition tree, and
/// aggregate statistics.
#[derive(Debug)]
pub struct World {
    /// The decomposition tree of the network.
    pub tree: Tree,
    /// Wiring style (AHS unless running the wiring ablation).
    pub style: WiringStyle,
    /// The overlay ring.
    pub ring: Ring,
    /// DHT ownership queries performed (each is `O(log N)` routing hops
    /// in a real deployment).
    pub dht_lookups: u64,
    /// Split operations completed.
    pub splits_done: u64,
    /// Merge operations completed.
    pub merges_done: u64,
    /// Token NACKs (stale routing guesses).
    pub token_nacks: u64,
    /// Token retransmissions after loss or silence.
    pub token_retransmits: u64,
    /// Duplicate token copies dropped by a component's travelling
    /// `(token, addr)` ledger (a re-routed retransmission raced its
    /// merely-delayed original).
    pub duplicate_traversal_drops: u64,
    /// Harness-stamped crash log: node -> virtual crash time. Ground
    /// truth for the detection-latency oracle and metric; no protocol
    /// path reads it.
    pub crashed: BTreeMap<NodeId, u64>,
    /// First in-protocol suspicion per crashed/suspected node (min over
    /// detectors). The recovery oracle checks every entry of `crashed`
    /// appears here within the detection budget.
    pub detections: BTreeMap<NodeId, u64>,
    /// Next globally unique per-send obligation id.
    next_guid: u64,
    /// Next globally unique end-to-end token id.
    next_token_id: u64,
    /// Test-only mutation switch: when set, receivers skip the
    /// GUID-dedup branch of the token handler, so a retransmission that
    /// races its ack is processed twice. Exists solely so the
    /// distributed model checker can prove it would catch the bug
    /// (mutation testing); never set in production paths. Disabling
    /// this layer alone is masked by the collector's end-to-end dedup —
    /// [`Deployment::test_disable_token_dedup`] removes both.
    mutation_no_ack_dedup: bool,
    /// Pre-resolved `acn.dist.*` telemetry handles (no-ops by default).
    pub(crate) metrics: DistMetrics,
    /// Causal span recorder (no-op by default). Trace ids are the
    /// stable end-to-end token ids; timestamps are the simulator's
    /// virtual clock, so recorded span DAGs are deterministic per seed.
    pub(crate) tracer: Tracer,
}

impl World {
    /// Creates the shared world for a network of width `w` over `ring`.
    #[must_use]
    pub fn new(w: usize, ring: Ring) -> Rc<RefCell<World>> {
        Rc::new(RefCell::new(World {
            tree: Tree::new(w),
            style: WiringStyle::Ahs,
            ring,
            dht_lookups: 0,
            splits_done: 0,
            merges_done: 0,
            token_nacks: 0,
            token_retransmits: 0,
            duplicate_traversal_drops: 0,
            crashed: BTreeMap::new(),
            detections: BTreeMap::new(),
            next_guid: 0,
            next_token_id: 0,
            mutation_no_ack_dedup: false,
            metrics: DistMetrics::default(),
            tracer: Tracer::disabled(),
        }))
    }

    /// Disables the receiver-side GUID dedup of the token channel.
    ///
    /// This is a **deliberately planted bug** for mutation-testing the
    /// distributed model checker (`acn-check`): with dedup off, a
    /// retransmission racing its own ack is processed twice and the
    /// exactly-once oracle must catch it with a replayable schedule.
    #[doc(hidden)]
    pub fn test_disable_ack_dedup(&mut self) {
        self.mutation_no_ack_dedup = true;
    }

    /// Allocates a globally unique per-send obligation id.
    pub fn fresh_guid(&mut self) -> u64 {
        self.next_guid += 1;
        self.next_guid
    }

    /// Allocates a stable end-to-end token identity (assigned once at
    /// injection; the collector counts each at most once).
    pub fn fresh_token_id(&mut self) -> u64 {
        self.next_token_id += 1;
        self.next_token_id
    }

    /// The current hash owner of component `id` per the harness's
    /// ground-truth ring. Boot and harness paths only: protocol hot
    /// paths resolve ownership against each node's *local membership
    /// view* ([`NodeProc::owner_of`]), which is all a real node can see.
    #[must_use]
    pub fn host_of(&mut self, id: &ComponentId) -> NodeId {
        self.dht_lookups += 1;
        self.metrics.dht_lookups.inc();
        self.ring.owner_of_name(self.tree.preorder_index(id))
    }

    /// Records an in-protocol crash suspicion (min-merged across
    /// detectors, so gossip adoption order cannot change the record).
    pub(crate) fn note_detection(&mut self, node: NodeId, at: u64) {
        self.metrics.fd_suspects.inc();
        let first = !self.detections.contains_key(&node);
        let entry = self.detections.entry(node).or_insert(at);
        if at < *entry {
            *entry = at;
        }
        if first {
            if let Some(&crashed_at) = self.crashed.get(&node) {
                self.metrics.fd_detection_latency.record(at.saturating_sub(crashed_at));
            }
            self.metrics.registry.emit(
                TelemetryEvent::new("fd.suspect").at(at).node(node.0),
            );
        }
    }
}

/// A token awaiting end-to-end acknowledgement. (The probe attempt is
/// not stored: a timed-out obligation restarts probing from the cache.)
#[derive(Debug, Clone)]
struct UnackedToken {
    t: Token,
    sent_at: u64,
}

/// Per-component idempotency ledger: `(token, addr)` pairs this
/// component (or its decomposition-lineage ancestors) has already
/// consumed. A feed-forward network processes each token at each wire
/// address at most once, so a repeat is always a duplicate copy — the
/// re-route of a timed-out retransmission racing its merely-delayed
/// original. The ledger **travels with the component**: split children
/// inherit the parent's ledger, a merge takes the union of the
/// children's, and migration carries it — so whichever node ends up
/// hosting the covering component can recognize the second copy, which
/// per-node receiver state cannot (the copies may land on different
/// nodes). Keying on `(token, addr)` rather than `token` alone keeps a
/// merge from swallowing a token that legitimately passed one child's
/// region and is still in flight towards a sibling's. (A real
/// deployment would expire entries; the simulation keeps them all.)
pub type SeenTokens = BTreeSet<(u64, WireAddress)>;

/// What one failure-detector tick decided ([`View::fd_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FdStep {
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
pub(crate) struct View {
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
    pub(crate) fn new(me: NodeId) -> Self {
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
    pub(crate) fn seed(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.known.extend(nodes);
        self.rebuild_ring();
    }

    /// The membership epoch `|known| + |dead|`. Both sets are monotone,
    /// so the epoch totally orders a single node's view history and a
    /// gossip merge never moves it backwards.
    pub(crate) fn epoch(&self) -> u64 {
        (self.known.len() + self.dead.len()) as u64
    }

    /// Union-merges a gossiped view into this one. Returns whether
    /// anything changed (the re-broadcast trigger).
    pub(crate) fn merge(&mut self, known: &BTreeSet<NodeId>, dead: &BTreeSet<NodeId>) -> bool {
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
    pub(crate) fn tombstone(&mut self, n: NodeId) -> bool {
        self.known.insert(n);
        let new = self.dead.insert(n);
        if new {
            self.rebuild_ring();
        }
        new
    }

    /// Whether `n` is tombstoned.
    pub(crate) fn is_dead(&self, n: NodeId) -> bool {
        self.dead.contains(&n)
    }

    /// Whether this node itself is tombstoned — it departed, or was
    /// (rightly or not) declared crashed. A ghost stops claiming
    /// ownership and sheds its state like a graceful leaver, so the
    /// network converges to a single host per component.
    pub(crate) fn is_ghost(&self) -> bool {
        self.dead.contains(&self.me)
    }

    /// The live membership as this node sees it.
    pub(crate) fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The live owner of hashed `name`; this node itself when the ring
    /// is empty (an excommunicated ghost with no live peers left —
    /// nothing useful to do but keep the state).
    pub(crate) fn owner_of_name(&self, name: u64) -> NodeId {
        if self.ring.is_empty() {
            self.me
        } else {
            self.ring.owner_of_name(name)
        }
    }

    /// Every other node ever known, tombstoned ones included (the
    /// gossip fan-out).
    pub(crate) fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.known.iter().copied().filter(|&n| n != self.me)
    }

    /// The two CRDT sets, as gossiped.
    pub(crate) fn sets(&self) -> (&BTreeSet<NodeId>, &BTreeSet<NodeId>) {
        (&self.known, &self.dead)
    }

    /// Notes a message from `from` at `now` (every message is a
    /// heartbeat).
    pub(crate) fn heard(&mut self, from: NodeId, now: u64) {
        self.last_heard.insert(from, now);
    }

    /// One failure-detector tick of a live node: monitor the ring
    /// predecessor, ask for a ping while it has been silent for a lease
    /// `period`, and for a suspicion after [`FD_STRIKE_LIMIT`]
    /// consecutive silent ticks.
    pub(crate) fn fd_tick(&mut self, now: u64, period: u64) -> FdStep {
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

/// The retry timer's seeded, jittered exponential backoff.
#[derive(Debug, Clone, Hash)]
pub(crate) struct Backoff {
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
    pub(crate) fn new(node: NodeId) -> Self {
        Backoff { interval: 0, rng: node.0 ^ 0x9E37_79B9_7F4A_7C15 }
    }

    fn current(&self, period: u64) -> u64 {
        self.interval.max(period / 4 + 1)
    }

    /// The next retry-timer delay: the current interval plus jitter
    /// below a quarter of it. The base interval far exceeds the
    /// simulated RTT, so a retransmission never races a still-pending
    /// ack; escalation only widens that margin.
    pub(crate) fn next_delay(&mut self, period: u64) -> u64 {
        let interval = self.current(period);
        interval + acn_overlay::splitmix64(&mut self.rng) % (interval / 4 + 1)
    }

    /// Doubles the interval (cap: one period).
    pub(crate) fn escalate(&mut self, period: u64) {
        self.interval = (self.current(period) * 2).min(period);
    }

    /// Back to base; reports whether that changed anything.
    pub(crate) fn reset(&mut self) -> bool {
        std::mem::take(&mut self.interval) != 0
    }
}

/// The cut a rescue sweep assembles from peer reports:
/// id -> (reporter, frozen).
type Covered = BTreeMap<ComponentId, (NodeId, bool)>;

/// Merge debris in a reported cut: a *frozen* covered id under a *live*
/// covered proper ancestor (the coordinator died between installing
/// the parent and dismissing the children), with its reporter. Split
/// children under their frozen parent are live, so they are never
/// discarded; the frozen split parent itself has no covered ancestor.
fn rescue_discards(covered: &Covered) -> Vec<(ComponentId, NodeId)> {
    covered
        .iter()
        .filter(|(id, (_, frozen))| {
            *frozen
                && id.ancestors().any(|a| covered.get(&a).is_some_and(|(_, afrozen)| !afrozen))
        })
        .map(|(id, (reporter, _))| (*id, *reporter))
        .collect()
}

/// The maximal subtrees of `tree` that nothing in `covered` lies in,
/// above, or below: where a sweep installs fresh replacements.
fn uncovered_subtrees(tree: &Tree, covered: &Covered) -> Vec<ComponentId> {
    let mut uncovered = Vec::new();
    let mut stack = vec![ComponentId::root()];
    while let Some(id) = stack.pop() {
        if covered.contains_key(&id) || id.ancestors().any(|a| covered.contains_key(&a)) {
            continue;
        }
        if !covered.keys().any(|l| id.is_ancestor_of(l)) {
            uncovered.push(id);
            continue;
        }
        let info = tree.info(&id).expect("valid node");
        for c in 0..info.child_count() as u8 {
            stack.push(id.child(c));
        }
    }
    uncovered
}

/// Whether `id` lies above or below any *other* id in `covering`.
fn overlaps<'a>(id: &ComponentId, mut covering: impl Iterator<Item = &'a ComponentId>) -> bool {
    covering.any(|c| c != id && (c.is_ancestor_of(id) || id.is_ancestor_of(c)))
}

/// A hosted component plus its runtime bookkeeping.
#[derive(Debug, Clone)]
struct Hosted {
    comp: Component,
    frozen: bool,
    /// The remote coordinator that froze this component (a
    /// `FreezeCollect` sender or nested-merge requester), if any.
    /// `None` for locally driven freezes. When the freezer is later
    /// tombstoned, the merge obligation is orphaned and this node
    /// nudges the parent's current hash owner ([`Msg::MergeOrphan`])
    /// instead of waiting forever.
    frozen_by: Option<ProcessId>,
    /// Tokens buffered while frozen.
    buffer: Vec<Token>,
    /// The travelling `(token, addr)` idempotency ledger.
    seen: SeenTokens,
}

/// An in-progress split at its coordinator.
#[derive(Debug, Clone)]
struct SplitOp {
    /// Children still awaiting install acks, with their full state so
    /// a stalled install (target crashed) can be re-sent to the
    /// child's *new* hash owner.
    pending: BTreeMap<ComponentId, Component>,
    /// The parent's idempotency ledger (children inherit it), kept for
    /// re-sent installs.
    seen: SeenTokens,
    /// Ticks without an install ack (re-drive trigger).
    stalled_rounds: u32,
    /// When the split froze the parent (telemetry: split duration).
    started_at: u64,
}

/// A component handed off to its new owner, retained until the
/// [`Msg::MigrateAck`] so a crash of the target cannot lose it.
#[derive(Debug, Clone)]
struct MigratingComponent {
    comp: Component,
    seen: SeenTokens,
    buffer: Vec<Token>,
    /// When the hand-off was (last) sent; stale entries are re-sent to
    /// the *current* view owner by the retry timer.
    sent_at: u64,
}

/// An in-progress rescue sweep at its coordinator (the node that
/// suspected a crash). The sweep is global: it reassembles the whole
/// covered cut from peer reports, discards leftover duplicates, and
/// installs fresh components over every uncovered subtree — so a sweep
/// triggered by one crash also heals holes left by earlier ones (e.g.
/// a previous coordinator that died mid-sweep).
#[derive(Debug, Clone, Hash)]
struct RescueOp {
    /// When the sweep started (telemetry: rescue duration).
    started_at: u64,
    /// Peers still to report their covered slice.
    pending: BTreeSet<NodeId>,
    /// Covered components reported so far: id -> (reporter, frozen).
    covered: Covered,
    /// Replacement installs awaiting acks: id -> last target.
    installs: BTreeMap<ComponentId, NodeId>,
    /// Failure-detector ticks without progress (re-drive trigger).
    stalled_rounds: u32,
}

/// An in-progress merge at its coordinator.
#[derive(Debug, Clone)]
struct MergeOp {
    /// When the merge was started (telemetry: merge duration).
    started_at: u64,
    /// Collected child states (with their idempotency ledgers), by
    /// child index.
    collected: Vec<Option<(Component, SeenTokens)>>,
    /// The process that reported each child (for `RemoveFrozen`).
    reporters: Vec<Option<ProcessId>>,
    /// Collection rounds that made no progress (stall detector).
    stalled_rounds: u32,
    /// Set while waiting for a remote install ack of the parent.
    awaiting_install: bool,
    /// For nested merges: reply to this coordinator when reconstructed.
    requester: Option<(ProcessId, ComponentId)>,
}

/// One overlay node of the distributed adaptive counting network.
#[derive(Debug)]
pub struct NodeProc {
    world: Rc<RefCell<World>>,
    node: NodeId,
    /// The decomposition tree and wiring style: deployment constants,
    /// copied out of the world at construction.
    tree: Tree,
    style: WiringStyle,
    components: BTreeMap<ComponentId, Hosted>,
    /// Components this node split and has not merged back yet (the
    /// paper's per-node split list).
    split_list: BTreeSet<ComponentId>,
    splits: BTreeMap<ComponentId, SplitOp>,
    merges: BTreeMap<ComponentId, MergeOp>,
    /// Tokens this node is responsible for until acknowledged, by the
    /// guid of the outstanding (or exhausted) send.
    unacked: BTreeMap<u64, UnackedToken>,
    /// GUIDs of tokens this node has accepted (duplicate suppression).
    seen: BTreeSet<u64>,
    /// Merge collections to retry (child is mid-reconfiguration).
    stuck_collects: Vec<(ComponentId, ComponentId)>,
    /// Whether a retry timer is already armed.
    retry_armed: bool,
    /// Last known owner level per wire address (the Section 3.5 cache).
    cache: BTreeMap<WireAddress, usize>,
    /// Current level estimate `l_v`.
    level: usize,
    /// Period of the level-maintenance timer.
    level_period: u64,
    /// Local membership view and failure detector.
    view: View,
    /// In-progress rescue sweep this node coordinates.
    rescue: Option<RescueOp>,
    /// A suspicion arrived while a sweep was running: run another
    /// sweep when the current one completes.
    rescue_again: bool,
    /// Components handed off and awaiting [`Msg::MigrateAck`].
    migrating: BTreeMap<ComponentId, MigratingComponent>,
    /// Backoff of the retry timer.
    backoff: Backoff,
    /// Bound on remotely sent tokens parked in one frozen buffer.
    frozen_buffer_cap: usize,
}

impl NodeProc {
    /// Creates the process for overlay node `node`.
    #[must_use]
    pub fn new(world: Rc<RefCell<World>>, node: NodeId, level_period: u64) -> Self {
        let (tree, style) = {
            let w = world.borrow();
            (w.tree, w.style)
        };
        NodeProc {
            world,
            node,
            tree,
            style,
            components: BTreeMap::new(),
            split_list: BTreeSet::new(),
            splits: BTreeMap::new(),
            merges: BTreeMap::new(),
            unacked: BTreeMap::new(),
            seen: BTreeSet::new(),
            stuck_collects: Vec::new(),
            retry_armed: false,
            cache: BTreeMap::new(),
            level: 0,
            level_period,
            view: View::new(node),
            rescue: None,
            rescue_again: false,
            migrating: BTreeMap::new(),
            backoff: Backoff::new(node),
            frozen_buffer_cap: DEFAULT_FROZEN_BUFFER_CAP,
        }
    }

    /// Seeds the initial membership view (bootstrap/join contact list).
    pub fn seed_view(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.view.seed(nodes);
    }

    /// Whether `n` is tombstoned in this node's view.
    #[must_use]
    pub fn view_dead_contains(&self, n: NodeId) -> bool {
        self.view.is_dead(n)
    }

    /// In-flight split operations this node coordinates.
    #[must_use]
    pub fn splits_in_flight(&self) -> usize {
        self.splits.len()
    }

    /// In-flight merge operations this node coordinates.
    #[must_use]
    pub fn merges_in_flight(&self) -> usize {
        self.merges.len()
    }

    /// Overrides the per-component frozen-buffer capacity (tests drive
    /// the backpressure path with tiny caps).
    pub fn set_frozen_buffer_cap(&mut self, cap: usize) {
        self.frozen_buffer_cap = cap.max(1);
    }

    /// The deployment-wide `acn.dist.*` handles. With
    /// [`trace`](Self::trace), the world's mirrored counters, its two
    /// id allocators and the planted-mutation switch this is all that
    /// protocol code touches of the shared [`World`]: write-only
    /// observation, never membership or harness ground truth.
    fn metrics(&self) -> Ref<'_, DistMetrics> {
        Ref::map(self.world.borrow(), |w| &w.metrics)
    }

    /// Records `span` (a no-op while no tracer is attached).
    fn trace(&self, span: Span) {
        self.world.borrow().tracer.record(span);
    }

    /// Whether the dedup layers are on (off only under the planted
    /// checker mutation), and whether `token`'s spans are sampled.
    fn token_flags(&self, token: u64) -> (bool, bool) {
        let w = self.world.borrow();
        (!w.mutation_no_ack_dedup, w.tracer.should_sample(token))
    }

    /// Gossips the local view to every known peer. Sent only on change,
    /// so each membership event costs O(N^2) messages before every
    /// view converges and the wave dies out. Tombstoned peers are
    /// included deliberately: a ghost (departed, or falsely suspected)
    /// may still hold frozen state whose coordinator just died, and it
    /// needs the tombstone to nudge the orphan back into the protocol.
    /// Sends to genuinely crashed processes are dropped by the plane.
    fn broadcast_view(&self, ctx: &mut Context<'_, Msg>) {
        let (known, dead) = self.view.sets();
        let mut sent = 0;
        for peer in self.view.peers() {
            ctx.send(
                ProcessId(peer.0),
                Msg::ViewGossip { known: known.clone(), dead: dead.clone() },
            );
            sent += 1;
        }
        self.metrics().fd_gossip.add(sent);
    }

    /// The hash owner of component `id` per this node's *local view*
    /// (one DHT lookup in a real deployment).
    fn owner_of(&self, id: &ComponentId) -> NodeId {
        {
            let mut w = self.world.borrow_mut();
            w.dht_lookups += 1;
            w.metrics.dht_lookups.inc();
        }
        self.view.owner_of_name(self.tree.preorder_index(id))
    }

    /// The overlay node this process represents.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Whether this node is a ghost: it gracefully departed, or was
    /// declared crashed and adopted its own tombstone. Ghosts still
    /// NACK tokens so none are lost while senders re-resolve.
    #[must_use]
    pub fn departed(&self) -> bool {
        self.view.is_ghost()
    }

    /// Installs a component with its travelling `(token, addr)` ledger:
    /// inherited on a split, unioned on a merge, carried by a migration,
    /// and empty at boot and after a rescue, where token history is gone
    /// by definition.
    fn install(&mut self, comp: Component, seen: SeenTokens) {
        self.components.insert(
            *comp.id(),
            Hosted { comp, frozen: false, frozen_by: None, buffer: Vec::new(), seen },
        );
    }

    /// The live components on this node with their frozen flags.
    pub fn components(&self) -> impl Iterator<Item = (&ComponentId, bool)> {
        self.components.iter().map(|(id, h)| (id, h.frozen))
    }

    /// The hosted components with their full state, frozen flag, and
    /// buffered-token count (the distributed checker's oracles import
    /// these to audit conservation and ledger legality).
    pub fn hosted_components(
        &self,
    ) -> impl Iterator<Item = (&ComponentId, &Component, bool, usize)> {
        self.components.iter().map(|(id, h)| (id, &h.comp, h.frozen, h.buffer.len()))
    }

    /// The split list (components this node is responsible for merging).
    #[must_use]
    pub fn split_list(&self) -> &BTreeSet<ComponentId> {
        &self.split_list
    }

    /// Whether a merge of `id` is currently coordinated by this node.
    #[must_use]
    pub fn has_merge_in_progress(&self, id: &ComponentId) -> bool {
        self.merges.contains_key(id)
    }

    /// Marks the node as departed: it tombstones itself in its own
    /// view (so its migration sweeps shed every component to the
    /// remaining owners) and NACKs tokens so senders re-resolve.
    /// Returns the split-list entries to hand to the successor: all but
    /// those whose merge is already in flight here — the ghost finishes
    /// those itself, and handing them off too would duplicate the
    /// obligation.
    fn depart(&mut self) -> Vec<ComponentId> {
        self.view.tombstone(self.node);
        let mut handed_off = Vec::new();
        self.split_list.retain(|id| {
            let keep = self.merges.contains_key(id);
            if !keep {
                handed_off.push(*id);
            }
            keep
        });
        handed_off
    }

    /// Debug rendering of in-flight operations (diagnostics).
    #[must_use]
    pub fn ops_debug(&self) -> String {
        let merges: Vec<String> = self
            .merges
            .iter()
            .map(|(id, op)| {
                let collected: Vec<usize> = op
                    .collected
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_some())
                    .map(|(i, _)| i)
                    .collect();
                format!(
                    "merge {id}: collected {collected:?} awaiting_install={} requester={:?}",
                    op.awaiting_install,
                    op.requester.as_ref().map(|(p, g)| format!("{p}/{g}"))
                )
            })
            .collect();
        let splits: Vec<String> = self
            .splits
            .iter()
            .map(|(id, op)| format!("split {id}: pending {:?}", op.pending.len()))
            .collect();
        format!(
            "retry_armed={} unacked={} stuck_collects={:?} splits={splits:?} merges={merges:?}",
            self.retry_armed,
            self.unacked.len(),
            self.stuck_collects
                .iter()
                .map(|(c, p)| format!("{c} for {p}"))
                .collect::<Vec<_>>(),
        )
    }

    /// Whether the node currently has reconfiguration operations or
    /// unresolved tokens in flight.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.splits.is_empty()
            && self.merges.is_empty()
            && self.unacked.is_empty()
            && self.stuck_collects.is_empty()
            && self.migrating.is_empty()
            && self.rescue.is_none()
    }

    /// Arms the retry timer (if it is not already) with the next
    /// backoff delay.
    fn arm_retry(&mut self, ctx: &mut Context<'_, Msg>) {
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
    fn escalate_backoff(&mut self) {
        self.backoff.escalate(self.level_period);
        self.metrics().backoff_escalations.inc();
    }

    /// Acknowledged progress: back to the base interval.
    fn reset_backoff(&mut self) {
        if self.backoff.reset() {
            self.metrics().backoff_resets.inc();
        }
    }

    /// The hosted candidate (if any) covering `addr`.
    fn hosted_candidate(&self, addr: &WireAddress) -> Option<ComponentId> {
        addr.candidates().find(|c| self.components.contains_key(c))
    }

    /// Where a token arriving from outside (a client, a peer, or this
    /// node's own retry pass) enters local routing: the hosted candidate
    /// covering `addr` — or nowhere when this node is a ghost, which
    /// must not consume traffic it no longer owns.
    fn entry_point(&self, addr: &WireAddress) -> Option<ComponentId> {
        if self.view.is_ghost() {
            None
        } else {
            self.hosted_candidate(addr)
        }
    }

    /// Re-routes tokens drained from a frozen buffer (a split or merge
    /// finished, a freeze was released, a hand-off landed). No ghost
    /// check: a departed node still processes its own drained tokens at
    /// whatever it hosts.
    fn drain(&mut self, ctx: &mut Context<'_, Msg>, buffer: Vec<Token>) {
        for t in buffer {
            let start = self.hosted_candidate(&t.addr);
            self.route(ctx, None, t, start);
        }
    }

    /// Routes a token: processes it at `start` and onwards for as long
    /// as this node hosts the next owner, then sends it on (or to the
    /// collector). `start` is the hosted candidate of `t.addr` the
    /// caller probed, `None` to go straight to the wire. A supplied
    /// `guid` (the retry pass re-routing its own obligation) names the
    /// onward send only if no component processed the token here first;
    /// past a local hop the send is a new obligation with a fresh guid.
    fn route(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        mut guid: Option<u64>,
        t: Token,
        start: Option<ComponentId>,
    ) {
        let Token { id: token, mut addr, injected_at, hops } = t;
        let (dedup, traced) = self.token_flags(token);
        let mut candidate = start;
        while let Some(id) = candidate {
            let hosted = self.components.get_mut(&id).expect("candidate is hosted");
            if hosted.frozen {
                hosted.buffer.push(Token { addr, ..t });
                if traced {
                    self.trace(
                        Span::new("token.buffer", token)
                            .at(ctx.now())
                            .node(self.node.0)
                            .with("level", id.level() as u64),
                    );
                }
                return;
            }
            if dedup && !hosted.seen.insert((token, addr)) {
                // This component (or its lineage) already consumed this
                // token at this wire: the copy is a re-routed
                // retransmission whose original was delayed, not lost.
                // Dropping it here keeps the balancer states — and hence
                // the step property — exactly as if the token traversed
                // once.
                let mut w = self.world.borrow_mut();
                w.duplicate_traversal_drops += 1;
                w.metrics.dup_traversals.inc();
                if traced {
                    w.tracer.record(
                        Span::new("token.dup_drop", token)
                            .at(ctx.now())
                            .node(self.node.0)
                            .with("level", id.level() as u64),
                    );
                }
                return;
            }
            let in_port = input_port_of(&self.tree, &id, &addr, self.style);
            let port = hosted.comp.process_token(in_port);
            guid = None;
            if traced {
                self.trace(
                    Span::new("token.route", token)
                        .at(ctx.now())
                        .node(self.node.0)
                        .with("level", id.level() as u64)
                        .with("in_port", in_port.map_or(u64::MAX, |p| p as u64))
                        .with("out_port", port as u64),
                );
            }
            match resolve_output(&self.tree, &id, port, self.style) {
                OutputDestination::NetworkOutput(wire) => {
                    self.metrics().routing_hops.record(hops);
                    if traced {
                        self.trace(
                            Span::new("token.exit", token)
                                .at(ctx.now())
                                .node(self.node.0)
                                .with("wire", wire as u64)
                                .with("hops", hops),
                        );
                    }
                    ctx.send(COLLECTOR, Msg::Exit { wire, token, injected_at, hops });
                    return;
                }
                OutputDestination::Wire(next) => {
                    addr = next;
                    candidate = self.hosted_candidate(&addr);
                }
            }
        }
        self.send_token(ctx, guid, Token { addr, ..t }, ATTEMPT_CACHED);
    }

    /// Sends a token towards a guessed owner of its wire address,
    /// registering the retransmission obligation under `guid` (a fresh
    /// one if `None`). `attempt` is `ATTEMPT_CACHED` for the
    /// cache-directed first try, otherwise the number of levels above
    /// the balancer to probe: the owner candidates of a wire are the
    /// prefixes of its balancer's path, deepest first.
    fn send_token(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        guid: Option<u64>,
        t: Token,
        attempt: u8,
    ) {
        let Token { id: token, addr, hops, .. } = t;
        let (guid, traced) = {
            let mut w = self.world.borrow_mut();
            (guid.unwrap_or_else(|| w.fresh_guid()), w.tracer.should_sample(token))
        };
        let balancer = addr.balancer();
        let depth = balancer.level();
        let mut attempt = attempt;
        loop {
            let guess = if attempt == ATTEMPT_CACHED {
                let level = self.cache.get(&addr).copied().unwrap_or(self.level);
                balancer.prefix(level.min(depth))
            } else if usize::from(attempt) <= depth {
                balancer.prefix(depth - usize::from(attempt))
            } else {
                // Chain exhausted (reconfiguration window): keep the
                // obligation and let the retry timer start over.
                self.unacked.insert(guid, UnackedToken { t, sent_at: ctx.now() });
                self.arm_retry(ctx);
                return;
            };
            let host = self.owner_of(&guess);
            if ProcessId(host.0) == ctx.self_id() && !self.components.contains_key(&guess) {
                // We own this name and know it is dead; skip ahead.
                attempt = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
                continue;
            }
            self.cache.insert(addr, guess.level());
            self.unacked.insert(guid, UnackedToken { t, sent_at: ctx.now() });
            self.arm_retry(ctx);
            if traced {
                self.trace(
                    Span::new("token.send", token)
                        .at(ctx.now())
                        .node(self.node.0)
                        .with("to", host.0)
                        .with("guid", guid)
                        .with("hops", hops),
                );
            }
            ctx.send_lossy(ProcessId(host.0), t.into_msg(guid, attempt));
            return;
        }
    }

    /// Begins splitting hosted component `id`. Defers (no-op) if the
    /// component's traffic has not settled; the next level tick retries.
    fn start_split(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        let children = {
            let hosted = self.components.get(id).expect("split target is hosted");
            debug_assert!(!hosted.frozen);
            match split_component(&self.tree, &hosted.comp, self.style) {
                Ok(children) => children,
                Err(_) => return, // transient; retry at the next tick
            }
        };
        let hosted = self.components.get_mut(id).expect("split target is hosted");
        hosted.frozen = true;
        // Children inherit the parent's idempotency ledger: the parent
        // covered their regions, so any token it consumed must not be
        // consumed again by a child processing a delayed duplicate.
        let parent_seen = hosted.seen.clone();
        self.metrics().registry.emit(
            TelemetryEvent::new("split.begin")
                .at(ctx.now())
                .node(self.node.0)
                .component(id.to_string())
                .with("level", id.level() as u64),
        );
        let mut op = SplitOp {
            pending: BTreeMap::new(),
            seen: parent_seen.clone(),
            stalled_rounds: 0,
            started_at: ctx.now(),
        };
        let mut local_installs = Vec::new();
        for child in children {
            let host = self.owner_of(child.id());
            if ProcessId(host.0) == ctx.self_id() {
                local_installs.push(child);
            } else {
                op.pending.insert(*child.id(), child.clone());
                ctx.send(
                    ProcessId(host.0),
                    Msg::Install { comp: Box::new(child), seen: parent_seen.clone() },
                );
            }
        }
        for child in local_installs {
            self.install(child, parent_seen.clone());
        }
        if op.pending.is_empty() {
            self.finish_split(ctx, *id, op.started_at);
        } else {
            self.splits.insert(*id, op);
        }
    }

    /// All children installed: drop the parent and re-route its buffer.
    fn finish_split(&mut self, ctx: &mut Context<'_, Msg>, id: ComponentId, started_at: u64) {
        let hosted = self.components.remove(&id).expect("split parent is hosted");
        let drained = hosted.buffer.len() as u64;
        {
            let mut w = self.world.borrow_mut();
            w.splits_done += 1;
            w.metrics.splits.inc();
            w.metrics.split_drained.add(drained);
            let duration = ctx.now().saturating_sub(started_at);
            w.metrics.split_duration.record(duration);
            w.metrics.registry.emit(
                TelemetryEvent::new("split.end")
                    .at(ctx.now())
                    .node(self.node.0)
                    .component(id.to_string())
                    .with("duration", duration)
                    .with("drained", drained),
            );
            w.tracer.record(
                Span::new("net.split", SYSTEM_TRACE)
                    .between(started_at, ctx.now())
                    .node(self.node.0)
                    .with("level", id.level() as u64)
                    .with("drained", drained),
            );
        }
        self.split_list.insert(id);
        self.drain(ctx, hosted.buffer);
    }

    /// Begins merging split component `id` back together.
    fn start_merge(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        id: &ComponentId,
        requester: Option<(ProcessId, ComponentId)>,
    ) {
        let children = self.tree.children(id);
        let arity = children.len();
        self.metrics().registry.emit(
            TelemetryEvent::new("merge.begin")
                .at(ctx.now())
                .node(self.node.0)
                .component(id.to_string())
                .with("level", id.level() as u64)
                .with("nested", requester.is_some()),
        );
        self.merges.insert(
            *id,
            MergeOp {
                started_at: ctx.now(),
                collected: vec![None; arity],
                reporters: vec![None; arity],
                stalled_rounds: 0,
                awaiting_install: false,
                requester,
            },
        );
        for child in children {
            self.collect_child(ctx, &child, id);
        }
    }

    /// Asks for (or locally performs) the freeze-and-collect of one
    /// child of an in-progress merge.
    fn collect_child(&mut self, ctx: &mut Context<'_, Msg>, child: &ComponentId, parent: &ComponentId) {
        if let Some(hosted) = self.components.get_mut(child) {
            if self.splits.contains_key(child) {
                // Mid-split: retry once the split finishes.
                self.stuck_collects.push((*child, *parent));
                self.arm_retry(ctx);
                return;
            }
            hosted.frozen = true;
            let comp = hosted.comp.clone();
            let seen = hosted.seen.clone();
            let me = ctx.self_id();
            self.record_collect(ctx, comp, seen, parent, me);
        } else if self.split_list.contains(child) {
            let me = ctx.self_id();
            if let Some(op) = self.merges.get_mut(child) {
                // Already merging it for ourselves: attach the requester.
                op.requester = Some((me, *parent));
            } else {
                self.start_merge(ctx, child, Some((me, *parent)));
            }
        } else {
            let host = self.owner_of(child);
            if ProcessId(host.0) == ctx.self_id() {
                // We own the name but have nothing: transient window.
                self.stuck_collects.push((*child, *parent));
                self.arm_retry(ctx);
            } else {
                ctx.send(
                    ProcessId(host.0),
                    Msg::FreezeCollect { id: *child, parent: *parent },
                );
            }
        }
    }

    /// Records a collected child state; completes the merge when all
    /// children have reported.
    fn record_collect(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        comp: Component,
        seen: SeenTokens,
        parent: &ComponentId,
        reporter: ProcessId,
    ) {
        let Some(op) = self.merges.get_mut(parent) else { return };
        if op.awaiting_install {
            return;
        }
        let index = comp.id().child_index().expect("child has an index") as usize;
        op.collected[index] = Some((comp, seen));
        op.reporters[index] = Some(reporter);
        op.stalled_rounds = 0;
        if op.collected.iter().all(Option::is_some) {
            self.complete_merge(ctx, *parent);
        }
    }

    /// All children collected: reconstruct the parent.
    fn complete_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: ComponentId) {
        let (merged, merged_seen, nested_requester) = {
            let op = self.merges.get(&parent).expect("merge in progress");
            let children: Vec<Component> = op
                .collected
                .iter()
                .map(|c| c.clone().expect("all collected").0)
                .collect();
            // The merge result inherits the union of the children's
            // idempotency ledgers: it covers all their regions.
            let mut merged_seen = SeenTokens::new();
            for c in op.collected.iter() {
                merged_seen.extend(c.as_ref().expect("all collected").1.iter().copied());
            }
            match merge_components(&self.tree, &parent, &children, self.style) {
                Ok(m) => (m, merged_seen, op.requester),
                Err(_) => {
                    // Unsettled traffic: release the children and retry
                    // at a later tick.
                    self.abort_merge(ctx, &parent);
                    return;
                }
            }
        };
        if let Some((req_pid, grandparent)) = nested_requester {
            // Reconstruct locally, frozen, and report upward; the
            // requester will `RemoveFrozen` us like any other child.
            let frozen_by = (req_pid != ctx.self_id()).then_some(req_pid);
            self.components.insert(
                parent,
                Hosted {
                    comp: merged.clone(),
                    frozen: true,
                    frozen_by,
                    buffer: Vec::new(),
                    seen: merged_seen.clone(),
                },
            );
            let started_at = self.cleanup_merge(ctx, &parent);
            self.split_list.remove(&parent);
            self.note_merge_done(ctx, &parent, started_at);
            if req_pid == ctx.self_id() {
                let me = ctx.self_id();
                self.record_collect(ctx, merged, merged_seen, &grandparent, me);
            } else {
                ctx.send(
                    req_pid,
                    Msg::CollectReply {
                        comp: Box::new(merged),
                        seen: merged_seen,
                        parent: grandparent,
                    },
                );
            }
            return;
        }
        // Top-level merge: install the parent at its current hash owner
        // per the local view.
        let host = self.owner_of(&parent);
        if ProcessId(host.0) == ctx.self_id() {
            self.install(merged, merged_seen);
            let started_at = self.cleanup_merge(ctx, &parent);
            self.split_list.remove(&parent);
            self.note_merge_done(ctx, &parent, started_at);
        } else {
            self.merges
                .get_mut(&parent)
                .expect("merge in progress")
                .awaiting_install = true;
            ctx.send(
                ProcessId(host.0),
                Msg::Install { comp: Box::new(merged), seen: merged_seen },
            );
        }
    }

    /// After the parent is live, dismiss the frozen children. Returns
    /// the time the merge started (for duration telemetry).
    fn cleanup_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: &ComponentId) -> u64 {
        let op = self.merges.remove(parent).expect("merge in progress");
        for (index, reporter) in op.reporters.iter().enumerate() {
            let child = parent.child(index as u8);
            let reporter = reporter.expect("all children reported");
            if reporter == ctx.self_id() {
                self.remove_frozen(ctx, &child);
            } else {
                ctx.send(reporter, Msg::RemoveFrozen { id: child });
            }
        }
        op.started_at
    }

    /// Records a completed merge: counters, duration histogram, and the
    /// `merge.end` event.
    fn note_merge_done(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        parent: &ComponentId,
        started_at: u64,
    ) {
        let mut w = self.world.borrow_mut();
        w.merges_done += 1;
        w.metrics.merges.inc();
        let duration = ctx.now().saturating_sub(started_at);
        w.metrics.merge_duration.record(duration);
        w.metrics.registry.emit(
            TelemetryEvent::new("merge.end")
                .at(ctx.now())
                .node(self.node.0)
                .component(parent.to_string())
                .with("duration", duration),
        );
        w.tracer.record(
            Span::new("net.merge", SYSTEM_TRACE)
                .between(started_at, ctx.now())
                .node(self.node.0)
                .with("level", parent.level() as u64),
        );
    }

    /// Aborts an in-progress merge: children are unfrozen in place and
    /// their buffered tokens resume; a nested requester is told to
    /// retry.
    fn abort_merge(&mut self, ctx: &mut Context<'_, Msg>, parent: &ComponentId) {
        let op = self.merges.remove(parent).expect("merge in progress");
        {
            let m = self.metrics();
            m.merge_aborts.inc();
            m.registry.emit(
                TelemetryEvent::new("merge.abort")
                    .at(ctx.now())
                    .node(self.node.0)
                    .component(parent.to_string()),
            );
        }
        for (index, reporter) in op.reporters.iter().enumerate() {
            let child = parent.child(index as u8);
            let Some(reporter) = *reporter else { continue };
            if reporter == ctx.self_id() {
                self.release_frozen(ctx, &child);
            } else {
                ctx.send(reporter, Msg::AbortFreeze { id: child });
            }
        }
        if let Some((req_pid, grandparent)) = op.requester {
            if req_pid == ctx.self_id() {
                self.stuck_collects.push((*parent, grandparent));
                self.arm_retry(ctx);
            } else {
                ctx.send(
                    req_pid,
                    Msg::CollectMissing { id: *parent, parent: grandparent },
                );
            }
        }
    }

    /// Unfreezes a component in place and processes its buffered tokens.
    fn release_frozen(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        if let Some(hosted) = self.components.get_mut(id) {
            hosted.frozen = false;
            hosted.frozen_by = None;
            let buffered = std::mem::take(&mut hosted.buffer);
            self.drain(ctx, buffered);
        }
    }

    /// Drops a frozen component and re-routes its buffered tokens (the
    /// merge-drain step of the protocol).
    fn remove_frozen(&mut self, ctx: &mut Context<'_, Msg>, id: &ComponentId) {
        if let Some(hosted) = self.components.remove(id) {
            self.metrics().merge_drained.add(hosted.buffer.len() as u64);
            self.drain(ctx, hosted.buffer);
        }
    }

    /// The level-maintenance tick: re-estimate, split what is too
    /// coarse, merge what is too fine (paper Section 3.2), shed
    /// components whose view-owner changed, and re-drive stalled
    /// operations.
    fn level_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.view.is_ghost() {
            // Ghost (departed or excommunicated): no adaptivity
            // decisions, but keep shedding state and finishing
            // in-flight obligations, re-arming only while any remain.
            self.migration_sweep(ctx);
            self.redrive_splits(ctx);
            self.redrive_merges(ctx);
            if !(self.components.is_empty()
                && self.splits.is_empty()
                && self.merges.is_empty()
                && self.migrating.is_empty())
            {
                ctx.set_timer(self.level_period, TIMER_LEVEL);
            }
            return;
        }
        let level = self
            .metrics()
            .estimator
            .node_level_at(self.view.ring(), self.node, ctx.now())
            .min(self.tree.max_level());
        if level != self.level {
            let m = self.metrics();
            m.level_changes.inc();
            m.registry.emit(
                TelemetryEvent::new("dist.level_change")
                    .at(ctx.now())
                    .node(self.node.0)
                    .with("from", self.level as u64)
                    .with("to", level as u64),
            );
        }
        self.level = level;
        // Splitting rule.
        let to_split: Vec<ComponentId> = self
            .components
            .iter()
            .filter(|(id, hosted)| {
                !hosted.frozen && hosted.comp.width() >= 4 && id.level() < self.level
            })
            .map(|(id, _)| *id)
            .collect();
        for id in to_split {
            self.start_split(ctx, &id);
        }
        // Zombie split-list entries: if we host the component itself
        // live, someone (typically a departed node's ghost) already
        // completed the merge — drop the duplicated obligation.
        let zombies: Vec<ComponentId> = self
            .split_list
            .iter()
            .filter(|id| self.components.contains_key(*id))
            .copied()
            .collect();
        for id in zombies {
            self.split_list.remove(&id);
            if self.merges.contains_key(&id) {
                self.abort_merge(ctx, &id);
            }
        }
        // Merging rule.
        let to_merge: Vec<ComponentId> = self
            .split_list
            .iter()
            .filter(|id| id.level() >= self.level && !self.merges.contains_key(*id))
            .copied()
            .collect();
        for id in to_merge {
            self.start_merge(ctx, &id, None);
        }
        self.redrive_splits(ctx);
        self.redrive_merges(ctx);
        self.migration_sweep(ctx);
        ctx.set_timer(self.level_period, TIMER_LEVEL);
    }

    /// Re-sends `Install`s for split children whose ack is overdue
    /// (the original target crashed): ownership is recomputed against
    /// the current view, and a child we now own is installed locally.
    fn redrive_splits(&mut self, ctx: &mut Context<'_, Msg>) {
        let stalled: Vec<ComponentId> = self
            .splits
            .iter_mut()
            .filter_map(|(id, op)| {
                op.stalled_rounds += 1;
                (op.stalled_rounds > 2).then_some(*id)
            })
            .collect();
        for parent in stalled {
            let (children, seen) = {
                let op = self.splits.get_mut(&parent).expect("listed above");
                op.stalled_rounds = 0;
                (op.pending.clone(), op.seen.clone())
            };
            for (cid, comp) in children {
                let host = self.owner_of(&cid);
                if ProcessId(host.0) == ctx.self_id() {
                    self.install(comp, seen.clone());
                    let op = self.splits.get_mut(&parent).expect("still present");
                    op.pending.remove(&cid);
                    if op.pending.is_empty() {
                        let op = self.splits.remove(&parent).expect("present");
                        self.finish_split(ctx, parent, op.started_at);
                        break;
                    }
                } else {
                    // Re-send; the receiver installs if absent and acks
                    // either way, so a duplicate is harmless.
                    ctx.send(
                        ProcessId(host.0),
                        Msg::Install { comp: Box::new(comp), seen: seen.clone() },
                    );
                }
            }
        }
    }

    /// Re-drives stalled merges: children migrate under churn, so a
    /// FreezeCollect can land on a node that no longer (or does not
    /// yet) host the child. Re-request every still-missing child;
    /// merges that stall for many rounds are aborted — a genuinely
    /// merged-away ("zombie") obligation is then dropped, while a
    /// real one is retried from scratch with fresh topology.
    fn redrive_merges(&mut self, ctx: &mut Context<'_, Msg>) {
        let in_progress: Vec<ComponentId> = self
            .merges
            .iter()
            .filter(|(_, op)| !op.awaiting_install)
            .map(|(id, _)| *id)
            .collect();
        for parent in in_progress {
            let (missing, progressed): (Vec<ComponentId>, bool) = {
                let op = self.merges.get_mut(&parent).expect("listed above");
                let missing: Vec<ComponentId> = op
                    .collected
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_none())
                    .map(|(i, _)| parent.child(i as u8))
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                op.stalled_rounds += 1;
                (missing, op.stalled_rounds <= 8)
            };
            if progressed {
                for child in missing {
                    self.collect_child(ctx, &child, &parent);
                }
            } else {
                let collected_any = self
                    .merges
                    .get(&parent)
                    .map(|op| op.collected.iter().any(Option::is_some))
                    .unwrap_or(false);
                self.abort_merge(ctx, &parent);
                if !collected_any {
                    // No child was ever found: the obligation is stale
                    // (the merge happened elsewhere). Correctness does
                    // not depend on the entry — worst case the network
                    // stays finer than ideal.
                    self.split_list.remove(&parent);
                }
            }
        }
    }

    /// Hands every unfrozen component whose view-owner is not this
    /// node to that owner. The component is retained in `migrating`
    /// until acked, so a crash of the target cannot lose it. This is
    /// the in-protocol replacement for the old harness
    /// `migrate_components` sweep: it runs on every level tick and
    /// after every view change.
    fn migration_sweep(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.view.ring().is_empty() {
            return; // no live peer to shed to; keep the state
        }
        let ids: Vec<ComponentId> = self
            .components
            .iter()
            .filter(|(_, h)| !h.frozen)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let owner = self.owner_of(&id);
            if owner == self.node && !self.view.is_ghost() {
                continue;
            }
            if ProcessId(owner.0) == ctx.self_id() {
                continue; // excommunicated with nowhere else to go
            }
            if self.migrating.contains_key(&id) {
                continue; // already in flight; the retry timer re-sends
            }
            let Hosted { comp, buffer, seen, .. } =
                self.components.remove(&id).expect("listed above");
            {
                let m = self.metrics();
                m.migrations.inc();
                m.registry.emit(
                    TelemetryEvent::new("dist.migrate")
                        .at(ctx.now())
                        .node(owner.0)
                        .component(id.to_string())
                        .with("from", self.node.0),
                );
            }
            self.trace(
                Span::new("net.migrate", SYSTEM_TRACE)
                    .at(ctx.now())
                    .node(owner.0)
                    .with("from", self.node.0)
                    .with("level", id.level() as u64),
            );
            self.migrating.insert(
                id,
                MigratingComponent {
                    comp: comp.clone(),
                    seen: seen.clone(),
                    buffer: buffer.clone(),
                    sent_at: ctx.now(),
                },
            );
            ctx.send(ProcessId(owner.0), Msg::Migrate { comp: Box::new(comp), seen, buffer });
            self.arm_retry(ctx);
        }
    }

    /// The failure-detector tick: monitor the view predecessor, ping
    /// it when silent for a lease period, suspect it after
    /// [`FD_STRIKE_LIMIT`] consecutive silent ticks. Any received
    /// message counts as a heartbeat (`last_heard`), so explicit pings
    /// only flow when the link is otherwise idle.
    fn fd_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        let period = self.level_period;
        self.redrive_rescue(ctx);
        if self.view.is_ghost() {
            // Ghosts keep the lease timer only while they still have
            // cleanup (a rescue they coordinate) to finish.
            if self.rescue.is_some() {
                ctx.set_timer(period, TIMER_FD);
            }
            return;
        }
        match self.view.fd_tick(ctx.now(), period) {
            FdStep::Idle => {}
            FdStep::Ping(pred) => {
                self.metrics().fd_pings.inc();
                ctx.send(ProcessId(pred.0), Msg::Ping);
            }
            FdStep::Suspect(pred) => self.suspect(ctx, pred),
        }
        ctx.set_timer(period, TIMER_FD);
    }

    /// Declares `dead` crashed: tombstone it, gossip the new view, and
    /// coordinate a rescue sweep. Only the suspector coordinates —
    /// every node monitors exactly its predecessor, so each crash has
    /// exactly one rescue coordinator (its successor at detection
    /// time); if that coordinator dies mid-sweep, *its* suspector's
    /// sweep re-covers everything, because sweeps are global.
    fn suspect(&mut self, ctx: &mut Context<'_, Msg>, dead: NodeId) {
        if !self.view.tombstone(dead) {
            return;
        }
        self.world.borrow_mut().note_detection(dead, ctx.now());
        self.trace(
            Span::new("fd.suspect", SYSTEM_TRACE)
                .at(ctx.now())
                .node(self.node.0)
                .with("dead", dead.0)
                .with("epoch", self.view.epoch()),
        );
        self.broadcast_view(ctx);
        self.after_view_change(ctx);
        self.start_rescue_sweep(ctx);
    }

    /// Reacts to an adopted view change: orphaned-merge nudges and an
    /// ownership sweep (which, if the change tombstoned this node
    /// itself, sheds everything it hosts).
    fn after_view_change(&mut self, ctx: &mut Context<'_, Msg>) {
        // Components frozen for a coordinator that is now tombstoned:
        // the merge will never complete. Nudge the parent's current
        // owner to adopt (or disown) the obligation.
        let orphans: Vec<(ComponentId, ComponentId)> = self
            .components
            .iter()
            .filter_map(|(id, h)| match h.frozen_by {
                Some(pid) if self.view.is_dead(NodeId(pid.0)) => {
                    id.parent().map(|p| (*id, p))
                }
                _ => None,
            })
            .collect();
        for (child, parent) in orphans {
            let owner = self.owner_of(&parent);
            if ProcessId(owner.0) == ctx.self_id() {
                self.adopt_merge_orphan(ctx, None, child, parent);
            } else {
                ctx.send(ProcessId(owner.0), Msg::MergeOrphan { child, parent });
            }
        }
        self.migration_sweep(ctx);
    }

    /// Handles a [`Msg::MergeOrphan`] nudge as the parent's hash owner
    /// (`reporter` is `None` when the orphaned child is local).
    fn adopt_merge_orphan(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        reporter: Option<ProcessId>,
        child: ComponentId,
        parent: ComponentId,
    ) {
        if let Some(h) = self.components.get(&parent) {
            if !h.frozen {
                // The parent is already live (the dead coordinator got
                // its install out before crashing): the frozen child is
                // a leftover duplicate of a region the parent covers.
                match reporter {
                    Some(pid) => ctx.send(pid, Msg::RemoveFrozen { id: child }),
                    None => self.remove_frozen(ctx, &child),
                }
            }
            return;
        }
        self.split_list.insert(parent);
        if !self.merges.contains_key(&parent) {
            self.start_merge(ctx, &parent, None);
        }
        if let Some(pid) = reporter {
            // The orphaned child lives on the reporter (typically a
            // ghost), not at its hash owner — collect it directly so
            // the merge does not stall probing an owner that has
            // nothing. `FreezeCollect` re-homes `frozen_by` to us.
            ctx.send(pid, Msg::FreezeCollect { id: child, parent });
        }
    }

    /// Everything this node *covers* for a rescue sweep: hosted
    /// components plus invisible in-flight obligations (split children
    /// whose installs are pending, merge parents awaiting install,
    /// rescue installs in flight, migrating hand-offs) — so a
    /// concurrent sweep never installs a duplicate over them.
    fn covered_report(&self) -> Vec<(ComponentId, bool)> {
        let mut covered: Vec<(ComponentId, bool)> = self
            .components
            .iter()
            .map(|(id, h)| (*id, h.frozen))
            .collect();
        for op in self.splits.values() {
            covered.extend(op.pending.keys().map(|id| (*id, false)));
        }
        for (parent, op) in &self.merges {
            if op.awaiting_install {
                covered.push((*parent, false));
            }
        }
        if let Some(op) = &self.rescue {
            covered.extend(op.installs.keys().map(|id| (*id, false)));
        }
        covered.extend(self.migrating.keys().map(|id| (*id, false)));
        covered
    }

    /// Whether accepting a *fresh* copy of `id` would double-cover a
    /// region this node already covers through something else: an
    /// unfrozen resident, a pending split-child install, an in-flight
    /// hand-off, or an active split of `id` itself. A positive answer
    /// means the incoming copy is a stale duplicate of an obligation
    /// already discharged (install/migrate retransmits race their
    /// acks), and installing it would resurrect a component on top of
    /// its own live descendants — an invalid cut. Frozen residents are
    /// deliberately ignored: a merge-parent install legitimately lands
    /// on a node still holding children it froze for that very merge.
    fn accepting_would_double_cover(&self, id: &ComponentId) -> bool {
        let resident = self.components.iter().filter(|(_, h)| !h.frozen).map(|(c, _)| c);
        let in_flight = self.splits.values().flat_map(|op| op.pending.keys());
        self.splits.contains_key(id)
            || overlaps(id, resident.chain(in_flight).chain(self.migrating.keys()))
    }

    /// Starts (or queues) a global rescue sweep: collect every peer's
    /// covered slice, then re-cover the holes.
    fn start_rescue_sweep(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.rescue.is_some() {
            self.rescue_again = true;
            return;
        }
        let peers: BTreeSet<NodeId> =
            self.view.ring().nodes().filter(|&n| n != self.node).collect();
        let mut op = RescueOp {
            started_at: ctx.now(),
            pending: peers.clone(),
            covered: BTreeMap::new(),
            installs: BTreeMap::new(),
            stalled_rounds: 0,
        };
        for (id, frozen) in self.covered_report() {
            op.covered.insert(id, (self.node, frozen));
        }
        self.rescue = Some(op);
        {
            let m = self.metrics();
            m.rescue_sweeps.inc();
            m.registry.emit(TelemetryEvent::new("rescue.begin").at(ctx.now()).node(self.node.0));
        }
        self.trace(
            Span::new("rescue.begin", SYSTEM_TRACE)
                .at(ctx.now())
                .node(self.node.0)
                .with("peers", peers.len() as u64),
        );
        // Make sure the sweep gets re-driven even if this node's FD
        // lease timer is the only thing keeping time.
        ctx.set_timer(self.level_period, TIMER_FD);
        if peers.is_empty() {
            self.finalize_rescue(ctx);
        } else {
            for p in peers {
                ctx.send(ProcessId(p.0), Msg::RescueQuery);
            }
        }
    }

    /// Records a peer's covered slice; finalizes once all have
    /// reported.
    fn on_rescue_report(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        covered: Vec<(ComponentId, bool)>,
    ) {
        let reporter = NodeId(from.0);
        let done = {
            let Some(op) = &mut self.rescue else { return };
            if !op.pending.remove(&reporter) {
                return; // stale or duplicate report
            }
            for (id, frozen) in covered {
                op.covered.insert(id, (reporter, frozen));
            }
            op.stalled_rounds = 0;
            op.pending.is_empty()
        };
        if done {
            self.finalize_rescue(ctx);
        }
    }

    /// All reports in: discard leftover duplicates, walk the tree for
    /// uncovered maximal subtrees, and install fresh replacements at
    /// their view-owners. Lost token history is gone by definition —
    /// the bounded step-deviation after crashes is what the crash
    /// experiments measure.
    fn finalize_rescue(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(mut op) = self.rescue.take() else { return };
        // The sweep's self-coverage was snapshotted when it started;
        // components can land here while reports are in flight
        // (migration shed from a departing peer, split-child installs).
        // Refresh local coverage so the walk below doesn't resurrect an
        // ancestor of something we now host.
        for (id, h) in &self.components {
            op.covered.insert(*id, (self.node, h.frozen));
        }
        for id in self
            .splits
            .values()
            .flat_map(|s| s.pending.keys())
            .chain(self.migrating.keys())
        {
            op.covered.insert(*id, (self.node, false));
        }
        let discards = rescue_discards(&op.covered);
        for (id, reporter) in discards {
            self.metrics().rescue_discards.inc();
            if reporter == self.node {
                self.remove_frozen(ctx, &id);
            } else {
                ctx.send(ProcessId(reporter.0), Msg::RemoveFrozen { id });
            }
        }
        let to_install = uncovered_subtrees(&self.tree, &op.covered);
        for id in to_install {
            let owner = self.owner_of(&id);
            {
                let m = self.metrics();
                m.rescue_installs.inc();
                m.registry.emit(
                    TelemetryEvent::new("rescue.install")
                        .at(ctx.now())
                        .node(owner.0)
                        .component(id.to_string()),
                );
            }
            self.trace(
                Span::new("rescue.install", SYSTEM_TRACE)
                    .at(ctx.now())
                    .node(owner.0)
                    .with("level", id.level() as u64),
            );
            let fresh = Component::new(&self.tree, &id);
            if ProcessId(owner.0) == ctx.self_id() && !self.view.is_ghost() {
                self.install(fresh, SeenTokens::new());
            } else {
                op.installs.insert(id, owner);
                ctx.send(ProcessId(owner.0), Msg::RescueInstall { comp: Box::new(fresh) });
            }
        }
        if op.installs.is_empty() {
            self.rescue_done(ctx, op.started_at);
        } else {
            self.rescue = Some(op);
        }
    }

    /// The sweep is complete (all replacement installs acked).
    fn rescue_done(&mut self, ctx: &mut Context<'_, Msg>, started_at: u64) {
        {
            let m = self.metrics();
            let duration = ctx.now().saturating_sub(started_at);
            m.rescue_duration.record(duration);
            m.registry.emit(
                TelemetryEvent::new("rescue.end")
                    .at(ctx.now())
                    .node(self.node.0)
                    .with("duration", duration),
            );
        }
        self.trace(
            Span::new("rescue.end", SYSTEM_TRACE).between(started_at, ctx.now()).node(self.node.0),
        );
        if self.rescue_again {
            self.rescue_again = false;
            self.start_rescue_sweep(ctx);
        }
    }

    /// Re-drives a stalled rescue sweep from the FD tick: prune
    /// reporters that died since, re-query the stragglers, and re-send
    /// pending installs to their *current* view-owners.
    fn redrive_rescue(&mut self, ctx: &mut Context<'_, Msg>) {
        let (requery, reinstall, finalize) = {
            let Some(op) = &mut self.rescue else { return };
            op.stalled_rounds += 1;
            if op.stalled_rounds <= 2 {
                return;
            }
            op.stalled_rounds = 0;
            op.pending.retain(|n| !self.view.is_dead(*n));
            let requery: Vec<NodeId> = op.pending.iter().copied().collect();
            let reinstall: Vec<ComponentId> = if requery.is_empty() {
                op.installs.keys().copied().collect()
            } else {
                Vec::new()
            };
            (requery, reinstall, op.pending.is_empty() && op.installs.is_empty())
        };
        if finalize {
            self.finalize_rescue(ctx);
            return;
        }
        for p in requery {
            ctx.send(ProcessId(p.0), Msg::RescueQuery);
        }
        for id in reinstall {
            let owner = self.owner_of(&id);
            let fresh = Component::new(&self.tree, &id);
            if ProcessId(owner.0) == ctx.self_id() && !self.view.is_ghost() {
                // The install was computed at finalize time; state may
                // have moved since (a migration landed, a split
                // started). Same refusal the remote handler applies.
                if !self.accepting_would_double_cover(&id) {
                    self.install(fresh, SeenTokens::new());
                }
                if let Some(op) = &mut self.rescue {
                    op.installs.remove(&id);
                    if op.pending.is_empty() && op.installs.is_empty() {
                        let started_at = op.started_at;
                        self.rescue = None;
                        self.rescue_done(ctx, started_at);
                    }
                }
            } else {
                if let Some(op) = &mut self.rescue {
                    op.installs.insert(id, owner);
                }
                ctx.send(ProcessId(owner.0), Msg::RescueInstall { comp: Box::new(fresh) });
            }
        }
    }
}

impl Process<Msg> for NodeProc {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        // Every protocol message doubles as a heartbeat: the failure
        // detector only sends explicit pings over otherwise-idle links.
        if from != ProcessId::EXTERNAL && from != COLLECTOR && from != ctx.self_id() {
            self.view.heard(NodeId(from.0), ctx.now());
        }
        match msg {
            Msg::ClientInject { wire } => {
                let addr = network_input_address(&self.tree, wire, self.style);
                let now = ctx.now();
                let token = {
                    let mut w = self.world.borrow_mut();
                    let token = w.fresh_token_id();
                    if w.tracer.should_sample(token) {
                        w.tracer.open_trace(token, now);
                        w.tracer.record(
                            Span::new("token.inject", token)
                                .at(now)
                                .node(self.node.0)
                                .with("wire", wire as u64),
                        );
                    }
                    token
                };
                let t = Token { id: token, addr, injected_at: now, hops: 0 };
                let start = self.entry_point(&addr);
                self.route(ctx, None, t, start);
            }
            Msg::Token { guid, token, addr, injected_at, attempt, hops } => {
                let (dedup, traced) = self.token_flags(token);
                if dedup && self.seen.contains(&guid) {
                    // Duplicate (retransmission raced the ack): already
                    // accepted; just re-acknowledge.
                    if traced {
                        self.trace(
                            Span::new("token.dup_recv", token)
                                .at(ctx.now())
                                .node(self.node.0)
                                .with("guid", guid),
                        );
                    }
                    ctx.send(from, Msg::TokenAck { guid });
                    return;
                }
                // One probe of the candidate chain answers all three
                // questions: do we own the wire, is its owner shedding,
                // and where does routing start.
                let candidate = self.entry_point(&addr);
                let Some(id) = candidate else {
                    {
                        let mut w = self.world.borrow_mut();
                        w.token_nacks += 1;
                        w.metrics.nacks.inc();
                    }
                    if traced {
                        self.trace(
                            Span::new("token.nack", token)
                                .at(ctx.now())
                                .node(self.node.0)
                                .with("guid", guid),
                        );
                    }
                    if from == ProcessId::EXTERNAL {
                        // Re-injected buffer token with no live sender:
                        // adopt the obligation ourselves.
                        let t = Token { id: token, addr, injected_at, hops };
                        self.send_token(ctx, Some(guid), t, attempt);
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
                    // Backpressure: the owning component is frozen and
                    // its buffer is at capacity. Shed the token back to
                    // the sender instead of queueing unboundedly — the
                    // sender keeps the obligation, escalates its
                    // backoff, and retries after the freeze drains.
                    self.metrics().busy_sheds.inc();
                    if traced {
                        self.trace(
                            Span::new("token.busy", token)
                                .at(ctx.now())
                                .node(self.node.0)
                                .with("guid", guid),
                        );
                    }
                    ctx.send(from, Msg::TokenBusy { guid });
                    return;
                }
                self.seen.insert(guid);
                if traced {
                    self.trace(
                        Span::new("token.deliver", token)
                            .at(ctx.now())
                            .node(self.node.0)
                            .with("from", from.0)
                            .with("guid", guid)
                            .with("hops", hops + 1),
                    );
                }
                ctx.send(from, Msg::TokenAck { guid });
                // Accepting the forward counts as one routing hop.
                let t = Token { id: token, addr, injected_at, hops: hops + 1 };
                self.route(ctx, None, t, candidate);
            }
            Msg::TokenAck { guid } => {
                if self.unacked.remove(&guid).is_some() {
                    self.reset_backoff();
                }
            }
            Msg::TokenNack { guid, attempt } => {
                let Some(u) = self.unacked.remove(&guid) else {
                    // Stale NACK for an obligation already satisfied
                    // through a different path.
                    return;
                };
                let next = if attempt == ATTEMPT_CACHED { 0 } else { attempt + 1 };
                self.send_token(ctx, Some(guid), u.t, next);
            }
            Msg::Install { comp, seen } => {
                // Install-if-absent: a crash re-drive can duplicate an
                // Install whose original (and its ack) were merely
                // slow. The resident copy may already have processed
                // tokens, so it must not be clobbered; likewise a
                // stale duplicate must not resurrect a region we since
                // split or re-covered. Ack either way — the sender's
                // obligation is discharged by the region being
                // covered, not by this exact copy landing.
                let id = *comp.id();
                if !self.components.contains_key(&id)
                    && !self.accepting_would_double_cover(&id)
                {
                    self.install(*comp, seen);
                }
                ctx.send(from, Msg::InstallAck { id });
            }
            Msg::InstallAck { id } => {
                // Split-child ack?
                if let Some(parent) = id.parent() {
                    if let Some(op) = self.splits.get_mut(&parent) {
                        op.pending.remove(&id);
                        if op.pending.is_empty() {
                            let op = self.splits.remove(&parent).expect("present");
                            self.finish_split(ctx, parent, op.started_at);
                        }
                        return;
                    }
                }
                // Merge-parent ack?
                if self.merges.get(&id).map(|op| op.awaiting_install).unwrap_or(false) {
                    let started_at = self.cleanup_merge(ctx, &id);
                    self.split_list.remove(&id);
                    self.note_merge_done(ctx, &id, started_at);
                }
            }
            Msg::FreezeCollect { id, parent } => {
                if self.components.contains_key(&id) && !self.splits.contains_key(&id) {
                    let hosted = self.components.get_mut(&id).expect("hosted");
                    hosted.frozen = true;
                    // Remember who froze us: if the coordinator crashes
                    // before the merge completes, the tombstone adoption
                    // nudges the parent's new owner to take over.
                    hosted.frozen_by = (from != ctx.self_id()).then_some(from);
                    let comp = hosted.comp.clone();
                    let seen = hosted.seen.clone();
                    ctx.send(from, Msg::CollectReply { comp: Box::new(comp), seen, parent });
                } else if self.split_list.contains(&id) {
                    if let Some(op) = self.merges.get_mut(&id) {
                        op.requester = Some((from, parent));
                    } else {
                        self.start_merge(ctx, &id, Some((from, parent)));
                    }
                } else {
                    ctx.send(from, Msg::CollectMissing { id, parent });
                }
            }
            Msg::CollectReply { comp, seen, parent } => {
                self.record_collect(ctx, *comp, seen, &parent, from);
            }
            Msg::CollectMissing { id, parent } => {
                // Transient window (split in progress / migration):
                // retry after a delay.
                self.stuck_collects.push((id, parent));
                self.arm_retry(ctx);
            }
            Msg::RemoveFrozen { id } => {
                self.remove_frozen(ctx, &id);
            }
            Msg::AbortFreeze { id } => {
                self.release_frozen(ctx, &id);
            }
            Msg::Ping => {
                ctx.send(from, Msg::Pong);
            }
            Msg::Pong => {
                // The heartbeat refresh at the top of `on_message`
                // already cleared the strike window.
            }
            Msg::ViewGossip { known, dead } => {
                if self.view.merge(&known, &dead) {
                    self.broadcast_view(ctx);
                    self.after_view_change(ctx);
                }
            }
            Msg::RescueQuery => {
                let covered = self.covered_report();
                ctx.send(from, Msg::RescueReport { covered });
            }
            Msg::RescueReport { covered } => {
                self.on_rescue_report(ctx, from, covered);
            }
            Msg::RescueInstall { comp } => {
                // Silence (no ack) when we cannot host: the
                // coordinator's re-drive resolves the current owner.
                if self.view.is_ghost() {
                    return;
                }
                let id = *comp.id();
                if !self.components.contains_key(&id)
                    && !self.accepting_would_double_cover(&id)
                {
                    self.install(*comp, SeenTokens::new());
                }
                ctx.send(from, Msg::RescueAck { id });
            }
            Msg::RescueAck { id } => {
                let done = {
                    let Some(op) = &mut self.rescue else { return };
                    op.installs.remove(&id);
                    op.stalled_rounds = 0;
                    op.pending.is_empty() && op.installs.is_empty()
                };
                if done {
                    let started_at = self.rescue.take().expect("checked above").started_at;
                    self.rescue_done(ctx, started_at);
                }
            }
            Msg::TokenBusy { guid } => {
                // The receiver shed our token under backpressure: the
                // obligation stays ours. Make it immediately eligible
                // for the next retry pass and widen the retry interval.
                if let Some(t) = self.unacked.get_mut(&guid) {
                    t.sent_at = ctx.now().saturating_sub(self.level_period);
                    self.escalate_backoff();
                    self.arm_retry(ctx);
                }
            }
            Msg::Migrate { comp, seen, buffer } => {
                if self.view.is_ghost() {
                    // Cannot adopt: stay silent so the sender's retry
                    // re-resolves ownership against a fresher view.
                    return;
                }
                let id = *comp.id();
                match self.components.get_mut(&id) {
                    Some(h) => {
                        // Double cover: a rescue installed a fresh
                        // replacement while the authentic copy was in
                        // flight. Keep the resident, union the ledgers
                        // (so delayed duplicates still drop), and
                        // re-route the travelling buffer.
                        h.seen.extend(seen);
                    }
                    None => {
                        // A retransmitted hand-off can race its own
                        // ack: if we accepted the first copy and have
                        // since split (or re-shed) the component, the
                        // region is already covered and this copy is
                        // stale — ack so the sender drops the
                        // obligation, but do not resurrect it.
                        if !self.accepting_would_double_cover(&id) {
                            self.install(*comp, seen);
                        }
                    }
                }
                ctx.send(from, Msg::MigrateAck { id });
                self.drain(ctx, buffer);
            }
            Msg::MigrateAck { id } => {
                if self.migrating.remove(&id).is_some() {
                    self.reset_backoff();
                }
            }
            Msg::MergeOrphan { child, parent } => {
                self.adopt_merge_orphan(ctx, Some(from), child, parent);
            }
            Msg::SplitListHandoff { entries } => {
                self.split_list.extend(entries);
            }
            Msg::Exit { .. } => {
                debug_assert!(false, "Exit delivered to a node");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match tag {
            TIMER_LEVEL => self.level_tick(ctx),
            TIMER_FD => self.fd_tick(ctx),
            TIMER_RETRY => {
                self.retry_armed = false;
                // Retransmit every token obligation that has been silent
                // for longer than the retry interval (lost message, or
                // an exhausted probe chain waiting out a reconfiguration
                // window). The interval far exceeds the simulated RTT,
                // so a retransmission never races a still-pending ack.
                let timeout = self.level_period / 4;
                let now = ctx.now();
                let stale: Vec<u64> = self
                    .unacked
                    .iter()
                    .filter(|(_, t)| now.saturating_sub(t.sent_at) >= timeout)
                    .map(|(&g, _)| g)
                    .collect();
                if !stale.is_empty() {
                    // A full interval elapsed without an ack: widen the
                    // next one (reset happens on the first ack).
                    self.escalate_backoff();
                }
                for guid in stale {
                    let UnackedToken { t, sent_at } =
                        self.unacked.remove(&guid).expect("listed above");
                    {
                        let mut w = self.world.borrow_mut();
                        w.token_retransmits += 1;
                        w.metrics.retransmits.inc();
                        if w.tracer.should_sample(t.id) {
                            w.tracer.record(
                                Span::new("token.retry", t.id)
                                    .at(now)
                                    .node(self.node.0)
                                    .with("guid", guid)
                                    .with("silent_for", now.saturating_sub(sent_at)),
                            );
                        }
                    }
                    // Re-route: we may host the owner by now. The
                    // timed-out send may *still* arrive (silence is not
                    // loss): this copy and the in-flight one then race
                    // on *different* paths, where no receiver-side GUID
                    // check can see both. The stable `t.id` travels with
                    // both, and the component ledgers and the collector
                    // count it once.
                    let start = self.entry_point(&t.addr);
                    self.route(ctx, Some(guid), t, start);
                }
                let collects = std::mem::take(&mut self.stuck_collects);
                for (child, parent) in collects {
                    if self.merges.contains_key(&parent) {
                        self.collect_child(ctx, &child, &parent);
                    }
                }
                // Unacked migrations: the target may have crashed
                // before acking. Re-resolve against the current view —
                // ownership may even have swung back to us.
                let stale_migrations: Vec<ComponentId> = self
                    .migrating
                    .iter()
                    .filter(|(_, m)| now.saturating_sub(m.sent_at) >= timeout)
                    .map(|(id, _)| *id)
                    .collect();
                for id in stale_migrations {
                    let owner = self.owner_of(&id);
                    if ProcessId(owner.0) == ctx.self_id() {
                        if self.view.is_ghost() {
                            continue; // nowhere to shed to yet; keep holding
                        }
                        let m = self.migrating.remove(&id).expect("listed above");
                        self.install(m.comp, m.seen);
                        self.drain(ctx, m.buffer);
                    } else {
                        let m = self.migrating.get_mut(&id).expect("listed above");
                        m.sent_at = now;
                        let (comp, seen, buffer) =
                            (Box::new(m.comp.clone()), m.seen.clone(), m.buffer.clone());
                        ctx.send(ProcessId(owner.0), Msg::Migrate { comp, seen, buffer });
                    }
                }
                if !self.unacked.is_empty()
                    || !self.stuck_collects.is_empty()
                    || !self.migrating.is_empty()
                {
                    self.arm_retry(ctx);
                }
            }
            tag if tag & TIMER_FORCE_SPLIT_BASE != 0 => {
                let id = ComponentId::from_u64(tag & FORCE_TAG_ID_MASK);
                let splittable = self
                    .components
                    .get(&id)
                    .map(|h| !h.frozen && h.comp.width() >= 4)
                    .unwrap_or(false);
                if splittable && !self.splits.contains_key(&id) && !self.view.is_ghost() {
                    self.start_split(ctx, &id);
                }
            }
            tag if tag & TIMER_FORCE_MERGE_BASE != 0 => {
                let id = ComponentId::from_u64(tag & FORCE_TAG_ID_MASK);
                if self.split_list.contains(&id)
                    && !self.merges.contains_key(&id)
                    && !self.view.is_ghost()
                {
                    self.start_merge(ctx, &id, None);
                }
            }
            _ => {}
        }
    }
}

/// The measurement endpoint: records every exited token — **at most
/// once per end-to-end token identity**.
///
/// The per-receiver GUID dedup in the token handler only suppresses a
/// retransmission that lands on the *same* node as the original send.
/// After a reconfiguration, a timed-out obligation may be re-routed
/// along a different path while the original (merely delayed, not
/// lost) copy is still in flight to the old destination; the two
/// copies then reach *different* receivers and both are accepted. The
/// schedule explorer found exactly this interleaving (a retry timer
/// preempting a pending delivery), so exactly-once counting is
/// enforced end to end here, where every copy of a token converges.
#[derive(Debug, Default)]
pub struct Collector {
    /// Exits per output wire.
    pub counts: Vec<u64>,
    /// Total latency (exit time - inject time) across tokens.
    pub total_latency: u64,
    /// Maximum single-token latency.
    pub max_latency: u64,
    /// Duplicate exits suppressed (same token identity seen twice: a
    /// re-routed retransmission raced the delayed original).
    pub duplicate_drops: u64,
    /// End-to-end token identities already counted.
    seen: BTreeSet<u64>,
    /// Test-only mutation switch mirroring
    /// [`World::test_disable_ack_dedup`]: skip the end-to-end dedup so
    /// the model checker can prove it would catch its removal.
    mutation_no_dedup: bool,
    /// Telemetry: end-to-end token latency distribution.
    latency_hist: Histogram,
    /// Telemetry: tokens collected.
    exits: Counter,
    /// Telemetry: mirrors `duplicate_drops`.
    dup_drops: Counter,
    /// Tracing: closes each token's trace on its first (counted) exit.
    tracer: Tracer,
}

impl Collector {
    /// A collector for a width-`w` network.
    #[must_use]
    pub fn new(w: usize) -> Self {
        Collector {
            counts: vec![0; w],
            total_latency: 0,
            max_latency: 0,
            duplicate_drops: 0,
            seen: BTreeSet::new(),
            mutation_no_dedup: false,
            latency_hist: Histogram::default(),
            exits: Counter::default(),
            dup_drops: Counter::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Routes the collector's measurements into `registry`
    /// (`acn.dist.token_latency` histogram, `acn.dist.exits` and
    /// `acn.dist.duplicate_exit_drops` counters).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.latency_hist = registry.histogram("acn.dist.token_latency");
        self.exits = registry.counter("acn.dist.exits");
        self.dup_drops = registry.counter("acn.dist.duplicate_exit_drops");
    }

    /// Total tokens collected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Process<Msg> for Collector {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: ProcessId, msg: Msg) {
        if let Msg::Exit { wire, token, injected_at, hops: _ } = msg {
            if !self.mutation_no_dedup && !self.seen.insert(token) {
                // Second exit of the same injected token: a re-routed
                // retransmission raced the delayed original. Count once.
                self.duplicate_drops += 1;
                self.dup_drops.inc();
                if self.tracer.should_sample(token) {
                    self.tracer.record(
                        Span::new("token.dup_exit", token)
                            .at(ctx.now())
                            .with("wire", wire as u64),
                    );
                }
                return;
            }
            self.counts[wire] += 1;
            let latency = ctx.now().saturating_sub(injected_at);
            self.total_latency += latency;
            self.max_latency = self.max_latency.max(latency);
            self.exits.inc();
            self.latency_hist.record(latency);
            if self.tracer.should_sample(token) {
                self.tracer.close_trace(token, ctx.now());
                self.tracer.record(
                    Span::new("token.count", token)
                        .at(ctx.now())
                        .with("wire", wire as u64)
                        .with("latency", latency),
                );
            }
        }
    }
}

/// Either a node or the collector — the single process type the
/// simulator hosts.
///
/// The variants differ in size (`NodeProc` is much larger than
/// `Collector`), but there is exactly one `Proc` per simulated
/// process and they live in the simulator's process map, so the
/// per-variant waste is bounded and boxing would only add an
/// indirection on every message dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Proc {
    /// An overlay node.
    Node(NodeProc),
    /// The measurement collector.
    Collector(Collector),
}

impl Process<Msg> for Proc {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        match self {
            Proc::Node(n) => n.on_message(ctx, from, msg),
            Proc::Collector(c) => c.on_message(ctx, from, msg),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        match self {
            Proc::Node(n) => n.on_timer(ctx, tag),
            Proc::Collector(c) => c.on_timer(ctx, tag),
        }
    }
}

/// Why a [`Deployment::crash_node`] request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashError {
    /// The target is the only live node: crashing it would leave no
    /// suspector and no rescue target, so the deployment could never
    /// recover. Chaos harnesses skip the action instead of aborting.
    LastLiveNode,
}

impl std::fmt::Display for CrashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashError::LastLiveNode => {
                write!(f, "refusing to crash the last live node (unrecoverable)")
            }
        }
    }
}

impl std::error::Error for CrashError {}

/// A fully wired distributed deployment: simulator + world + helpers.
/// This is the harness the integration tests and experiments drive.
pub struct Deployment {
    /// The discrete-event simulator.
    pub sim: Simulator<Msg, Proc>,
    /// The shared world.
    pub world: Rc<RefCell<World>>,
    /// Period of the per-node level timers.
    pub level_period: u64,
    seed: u64,
}

impl Deployment {
    /// Boots a deployment of width `w` with `n` overlay nodes: the ring
    /// is created, every node gets a process and a level timer, the root
    /// component is installed at its hash owner, and a collector is
    /// registered.
    #[must_use]
    pub fn new(w: usize, n: usize, seed: u64) -> Self {
        Self::with_loss(w, n, seed, 0)
    }

    /// Boots a deployment whose *token* channel drops the given per-mille
    /// fraction of messages (the control plane stays reliable); the
    /// ack/retransmit/dedup layer guarantees exactly-once token delivery
    /// regardless.
    #[must_use]
    pub fn with_loss(w: usize, n: usize, seed: u64, loss_per_mille: u32) -> Self {
        Self::with_sim(
            w,
            n,
            seed,
            SimConfig { base_latency: 5, jitter: 10, loss_per_mille, seed },
            DeliveryPolicy::Seeded,
        )
    }

    /// Boots a deployment with an explicit simulator configuration and
    /// [`DeliveryPolicy`]. The distributed model checker uses this with
    /// `jitter == 0`, `loss_per_mille == 0`, and
    /// [`DeliveryPolicy::External`] so every timestamp is a
    /// deterministic function of the delivery sequence alone (losses
    /// are then modelled as explicit in-flight drop choices).
    #[must_use]
    pub fn with_sim(
        w: usize,
        n: usize,
        seed: u64,
        config: SimConfig,
        policy: DeliveryPolicy,
    ) -> Self {
        let mut ring = Ring::new();
        let mut s = seed;
        for _ in 0..n {
            ring.add_random_node(&mut s);
        }
        let world = World::new(w, ring);
        let mut sim = Simulator::with_policy(config, policy);
        let level_period = 2_000;
        let nodes: Vec<NodeId> = world.borrow().ring.nodes().collect();
        for (i, node) in nodes.iter().enumerate() {
            let mut proc = NodeProc::new(Rc::clone(&world), *node, level_period);
            // Boot membership is configuration, not failure recovery:
            // every node starts with the full initial view. Everything
            // after boot (joins, leaves, crashes) travels via
            // `ViewGossip` and the failure detector.
            proc.seed_view(nodes.iter().copied());
            sim.add_process(ProcessId(node.0), Proc::Node(proc));
            // Stagger the level timers.
            sim.set_timer_external(
                ProcessId(node.0),
                1 + (i as u64 * 37) % level_period,
                TIMER_LEVEL,
            );
            // Stagger the failure-detector lease timers on a different
            // phase so fd and level ticks interleave.
            sim.set_timer_external(
                ProcessId(node.0),
                level_period / 2 + (i as u64 * 53) % level_period,
                TIMER_FD,
            );
        }
        sim.add_process(COLLECTOR, Proc::Collector(Collector::new(w)));
        // Install the root component at its owner.
        let root = ComponentId::root();
        let owner = world.borrow_mut().host_of(&root);
        let tree = world.borrow().tree;
        if let Some(Proc::Node(np)) = sim.process_mut(ProcessId(owner.0)) {
            np.install(Component::new(&tree, &root), SeenTokens::new());
        }
        Deployment { sim, world, level_period, seed: s }
    }

    /// Routes the whole deployment's telemetry into `registry`: the
    /// simulator's `acn.sim.*` metrics, the runtime's `acn.dist.*`
    /// metrics and `split.*`/`merge.*`/`dist.*` events, and the
    /// collector's token measurements.
    ///
    /// Telemetry is observation-only: an attached deployment produces
    /// bit-identical [`SimStats`](acn_simnet::SimStats), counters, and
    /// token outcomes to a detached one (pinned by the determinism
    /// regression test in the root crate).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.sim.attach_telemetry(registry);
        self.world.borrow_mut().metrics = DistMetrics::attach(registry);
        if let Some(Proc::Collector(c)) = self.sim.process_mut(COLLECTOR) {
            c.attach_telemetry(registry);
        }
    }

    /// Routes the whole deployment's causal spans into `tracer`: every
    /// token hop (inject, route, buffer, send, deliver, nack, retry,
    /// exit, count) plus the `net.split`/`net.merge`/`net.migrate`
    /// system spans, all timestamped with the simulator's virtual
    /// clock, and the simulator's own wire-level spans.
    ///
    /// Like [`attach_telemetry`](Self::attach_telemetry), tracing is
    /// observation-only: an attached deployment produces bit-identical
    /// outcomes to a detached one.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.sim.attach_tracer(tracer);
        self.world.borrow_mut().tracer = tracer.clone();
        if let Some(Proc::Collector(c)) = self.sim.process_mut(COLLECTOR) {
            c.tracer = tracer.clone();
        }
    }

    /// Disables **both** token-dedup layers — the receiver-side GUID
    /// check and the collector's end-to-end identity check.
    ///
    /// This is a **deliberately planted bug** for mutation-testing the
    /// distributed model checker (`acn-check`): with the defenses off,
    /// a retransmission racing its own ack is counted twice and the
    /// exactly-once oracle must catch it with a replayable schedule.
    /// (Disabling only one layer is masked by the other — that is the
    /// point of defense in depth.)
    #[doc(hidden)]
    pub fn test_disable_token_dedup(&mut self) {
        self.world.borrow_mut().test_disable_ack_dedup();
        if let Some(Proc::Collector(c)) = self.sim.process_mut(COLLECTOR) {
            c.mutation_no_dedup = true;
        }
    }

    /// Sets every node's frozen-buffer capacity (tests drive the
    /// backpressure shed path with tiny caps).
    pub fn set_frozen_buffer_cap(&mut self, cap: usize) {
        let pids: Vec<ProcessId> = self.sim.process_ids().filter(|p| *p != COLLECTOR).collect();
        for pid in pids {
            if let Some(Proc::Node(np)) = self.sim.process_mut(pid) {
                np.set_frozen_buffer_cap(cap);
            }
        }
    }

    /// Injects a token on input wire `wire` via a uniformly random node.
    pub fn inject(&mut self, wire: usize) {
        let draw = acn_overlay::splitmix64(&mut self.seed) as usize;
        let w = self.world.borrow();
        let pick = w.ring.nodes().nth(draw % w.ring.len()).expect("index is below the ring size");
        drop(w);
        self.sim.send_external(ProcessId(pick.0), Msg::ClientInject { wire });
    }

    /// The collector's state.
    ///
    /// # Panics
    ///
    /// Panics if the collector process is missing.
    #[must_use]
    pub fn collector(&self) -> &Collector {
        match self.sim.process(COLLECTOR) {
            Some(Proc::Collector(c)) => c,
            _ => panic!("collector process missing"),
        }
    }

    /// Runs the simulation for `duration` time units.
    pub fn run_for(&mut self, duration: u64) {
        let deadline = self.sim.now() + duration;
        self.sim.run_until(deadline);
    }

    /// The union of live (unfrozen) components across all nodes as a
    /// [`Cut`], plus a flag telling whether any reconfiguration is still
    /// in flight.
    #[must_use]
    pub fn live_cut(&self) -> (Cut, bool) {
        let mut leaves = Vec::new();
        let mut busy = false;
        for pid in self.sim.process_ids().collect::<Vec<_>>() {
            if let Some(Proc::Node(np)) = self.sim.process(pid) {
                busy |= !np.is_quiet();
                for (id, frozen) in np.components() {
                    if frozen {
                        busy = true;
                    } else {
                        leaves.push(*id);
                    }
                }
            }
        }
        (Cut::from_leaves(leaves), busy)
    }

    /// Node join: adds an overlay node and process, then announces it
    /// to its ring successor via [`Msg::ViewGossip`] (Section 3.4
    /// "Node Joins"). Membership and component hand-off propagate
    /// entirely in-protocol: the successor's gossip floods the new
    /// view, and every node's next migration sweep sheds the
    /// components the newcomer now owns.
    pub fn join_node(&mut self) -> NodeId {
        let node = {
            let mut w = self.world.borrow_mut();
            w.ring.add_random_node(&mut self.seed)
        };
        let proc = NodeProc::new(Rc::clone(&self.world), node, self.level_period);
        self.sim.add_process(ProcessId(node.0), Proc::Node(proc));
        self.sim.set_timer_external(ProcessId(node.0), 1, TIMER_LEVEL);
        self.sim.set_timer_external(ProcessId(node.0), 1 + self.level_period / 2, TIMER_FD);
        let succ = self.world.borrow().ring.successor(node);
        if succ != node {
            self.sim.send_external(
                ProcessId(succ.0),
                Msg::ViewGossip {
                    known: BTreeSet::from([node]),
                    dead: BTreeSet::new(),
                },
            );
        }
        node
    }

    /// Graceful leave: migrates the node's components and split list to
    /// the new owners, removes it from the ring, and leaves a departed
    /// ghost that NACKs stragglers (Section 3.4 "Node Leaves").
    ///
    /// A leaving node first finishes its pending reconfiguration
    /// business (the paper's "before leaving, the node has to move all
    /// the components it currently holds" implies completing in-flight
    /// splits/merges): departing while hosting a frozen mid-merge
    /// component would strand that merge, because its coordinator keeps
    /// asking the component's *hash owner* while the ghost holds the
    /// frozen state.
    pub fn leave_node(&mut self, node: NodeId) {
        for _ in 0..100 {
            let busy = match self.sim.process(ProcessId(node.0)) {
                Some(Proc::Node(np)) => {
                    !np.is_quiet() || np.components().any(|(_, frozen)| frozen)
                }
                _ => false,
            };
            if !busy {
                break;
            }
            let period = self.level_period;
            self.run_for(period);
        }
        {
            let mut w = self.world.borrow_mut();
            assert!(w.ring.len() > 1, "cannot remove the last node");
            w.ring.remove_node(node);
        }
        // The leaver tombstones itself and hands the split-list entries
        // it will not finish itself to the ring successor, via a
        // protocol message.
        let entries = match self.sim.process_mut(ProcessId(node.0)) {
            Some(Proc::Node(np)) => np.depart(),
            _ => Vec::new(),
        };
        let succ = self.world.borrow().ring.successor_of_point(node.0);
        if !entries.is_empty() {
            self.sim
                .send_external(ProcessId(succ.0), Msg::SplitListHandoff { entries });
        }
        // Announce the departure: the successor adopts the tombstone
        // and gossip floods it; every node's next migration sweep then
        // routes around the leaver, and the ghost sheds its own
        // components to the new owners.
        self.sim.send_external(
            ProcessId(succ.0),
            Msg::ViewGossip {
                known: BTreeSet::from([node]),
                dead: BTreeSet::from([node]),
            },
        );
        self.run_for(2 * self.level_period);
    }

    /// Crash: the node vanishes with all its state (components are
    /// lost). Detection and recovery are in-protocol — the crashed
    /// node's view successor suspects it after missed heartbeats and
    /// coordinates a rescue sweep; keep the simulation running (e.g.
    /// via [`settle`](Deployment::settle)) and the cut re-covers
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`CrashError::LastLiveNode`] when `node` is the only
    /// live node left: with every peer gone there is no suspector and
    /// no rescue target, so the deployment would be unrecoverable.
    /// Chaos sweeps treat this as a skipped action, not a panic.
    pub fn crash_node(&mut self, node: NodeId) -> Result<(), CrashError> {
        if self.world.borrow().ring.len() <= 1 {
            return Err(CrashError::LastLiveNode);
        }
        let lost_components = match self.sim.process(ProcessId(node.0)) {
            Some(Proc::Node(np)) => np.components().count() as u64,
            _ => 0,
        };
        {
            let mut w = self.world.borrow_mut();
            w.ring.remove_node(node);
            w.metrics.crashes.inc();
            let now = self.sim.now();
            w.crashed.insert(node, now);
            w.metrics.registry.emit(
                TelemetryEvent::new("dist.crash")
                    .at(now)
                    .node(node.0)
                    .with("lost_components", lost_components),
            );
        }
        self.sim.remove_process(ProcessId(node.0));
        Ok(())
    }

    /// Runs in level-period slices until the network is quiescent (live
    /// cut valid, no frozen components, no pending operations). Returns
    /// `false` if the budget ran out.
    pub fn settle(&mut self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            self.run_for(self.level_period);
            let (cut, busy) = self.live_cut();
            let tree = self.world.borrow().tree;
            if !busy && cut.is_valid(&tree) {
                return true;
            }
        }
        false
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use acn_bitonic::step::is_step_sequence;

    #[test]
    fn single_node_deployment_counts() {
        let mut d = Deployment::new(8, 1, 7);
        for i in 0..24 {
            d.inject(i % 8);
        }
        d.run_for(50_000);
        let c = d.collector();
        assert_eq!(c.total(), 24);
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn deployment_self_organizes_and_counts() {
        let mut d = Deployment::new(64, 32, 13);
        assert!(d.settle(50), "network did not settle");
        assert!(d.world.borrow().splits_done > 0, "no splits happened");
        let (cut, _) = d.live_cut();
        assert!(cut.is_valid(&d.world.borrow().tree), "invalid live cut: {cut}");
        let mut seed = 5u64;
        for _ in 0..200 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
            d.inject(wire);
        }
        d.run_for(200_000);
        let c = d.collector();
        assert_eq!(c.total(), 200, "tokens lost or duplicated");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn tokens_survive_reconfiguration() {
        let mut d = Deployment::new(32, 24, 99);
        let mut injected = 0u64;
        let mut seed = 1u64;
        for _ in 0..40 {
            for _ in 0..5 {
                let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 32;
                d.inject(wire);
                injected += 1;
            }
            d.run_for(500); // interleave with reconfiguration
        }
        assert!(d.settle(100), "network did not settle");
        d.run_for(100_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "token conservation violated");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn join_and_leave_churn() {
        let mut d = Deployment::new(64, 4, 21);
        assert!(d.settle(50));
        let mut injected = 0u64;
        let mut seed = 3u64;
        for _ in 0..30 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
            d.inject(wire);
            injected += 1;
        }
        // Grow to 40 nodes.
        for _ in 0..36 {
            d.join_node();
            d.run_for(300);
        }
        assert!(d.settle(100), "did not settle after joins");
        assert!(d.world.borrow().splits_done > 0, "growth did not split");
        for _ in 0..30 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
            d.inject(wire);
            injected += 1;
        }
        // Shrink back to 6 nodes (graceful leaves).
        let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(34).collect();
        for v in victims {
            d.leave_node(v);
            d.run_for(300);
            d.run_for(2 * d.level_period);
        }
        assert!(d.settle(200), "did not settle after leaves");
        assert!(d.world.borrow().merges_done > 0, "shrink did not merge");
        for _ in 0..30 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 64;
            d.inject(wire);
            injected += 1;
        }
        d.run_for(300_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "token conservation violated");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn crash_and_repair() {
        let mut d = Deployment::new(16, 8, 55);
        assert!(d.settle(50));
        let mut injected = 0u64;
        let mut seed = 9u64;
        for _ in 0..40 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 16;
            d.inject(wire);
            injected += 1;
        }
        d.run_for(100_000);
        assert_eq!(d.collector().total(), injected);
        // Crash a node that hosts at least one component.
        let victim = {
            let pids: Vec<ProcessId> =
                d.sim.process_ids().filter(|p| *p != COLLECTOR).collect();
            let mut victim = None;
            for pid in pids {
                if let Some(Proc::Node(np)) = d.sim.process(pid) {
                    if np.components().next().is_some() && !np.departed() {
                        victim = Some(np.node_id());
                        break;
                    }
                }
            }
            victim.expect("some node hosts a component")
        };
        d.crash_node(victim).expect("not the last node");
        d.settle(64);
        let (cut, _) = d.live_cut();
        assert!(cut.is_valid(&d.world.borrow().tree), "repair left an invalid cut: {cut}");
        // Counting resumes and new tokens are conserved.
        let before_new = d.collector().total();
        let mut new_tokens = 0u64;
        for _ in 0..40 {
            let wire = (acn_overlay::splitmix64(&mut seed) as usize) % 16;
            d.inject(wire);
            new_tokens += 1;
        }
        assert!(d.settle(100));
        d.run_for(200_000);
        let c = d.collector();
        assert!(
            c.total() >= before_new + new_tokens,
            "post-repair tokens lost: {} vs {}",
            c.total(),
            before_new + new_tokens
        );
        // The lost component forgot a bounded amount of round-robin
        // offset: the counts may deviate from a step sequence by at most
        // the lost width.
        let max = *c.counts.iter().max().unwrap();
        let min = *c.counts.iter().min().unwrap();
        assert!(max - min <= 1 + 16, "crash deviation too large: {:?}", c.counts);
    }

    #[test]
    fn join_storm_without_settling() {
        // 30 joins with no settling in between, traffic interleaved.
        let mut d = Deployment::new(32, 2, 0x5707);
        let mut seed = 11u64;
        let mut injected = 0u64;
        for burst in 0..30 {
            d.join_node();
            if burst % 2 == 0 {
                d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
                injected += 1;
            }
            d.run_for(73); // deliberately not a multiple of anything
        }
        assert!(d.settle(300), "join storm did not settle");
        d.run_for(200_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "token conservation violated");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
        assert!(d.world.borrow().splits_done > 0);
    }

    #[test]
    fn crash_during_reconfiguration() {
        // Crash a component-hosting node while the network is still
        // splitting/merging; repair must restore a valid cut and new
        // traffic must flow.
        let mut d = Deployment::new(32, 4, 0xCAFE);
        d.run_for(2_500); // mid-reconfiguration, deliberately unsettled
        for _ in 0..12 {
            d.join_node();
            d.run_for(400);
        }
        // Crash the first node that hosts any component.
        let victim = d
            .sim
            .process_ids()
            .filter(|p| *p != COLLECTOR)
            .find_map(|pid| match d.sim.process(pid) {
                Some(Proc::Node(np))
                    if np.components().next().is_some() && !np.departed() =>
                {
                    Some(np.node_id())
                }
                _ => None,
            })
            .expect("someone hosts a component");
        d.crash_node(victim).expect("not the last node");
        // Let in-flight protocol messages to the dead node drain, then
        // repair and settle.
        d.run_for(20_000);
        d.settle(64);
        assert!(d.settle(300), "network did not settle after crash+repair");
        let (cut, _) = d.live_cut();
        assert!(cut.is_valid(&d.world.borrow().tree), "invalid cut after repair: {cut}");
        // New traffic flows and is conserved.
        let before = d.collector().total();
        let mut seed = 3u64;
        for _ in 0..25 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
        }
        d.run_for(300_000);
        assert_eq!(d.collector().total(), before + 25, "post-crash tokens lost");
    }

    #[test]
    fn crash_last_node_is_recoverable_error() {
        let mut d = Deployment::new(8, 1, 42);
        let node = d.world.borrow().ring.nodes().next().expect("one node");
        assert_eq!(d.crash_node(node), Err(CrashError::LastLiveNode));
        // The refused crash left the deployment fully functional.
        d.inject(0);
        d.run_for(50_000);
        assert_eq!(d.collector().total(), 1);
    }

    #[test]
    fn crash_recovers_in_protocol_without_repair() {
        let mut d = Deployment::new(16, 4, 0xBEEF);
        assert!(d.settle(50));
        let victim = d
            .sim
            .process_ids()
            .filter(|p| *p != COLLECTOR)
            .find_map(|pid| match d.sim.process(pid) {
                Some(Proc::Node(np))
                    if np.components().next().is_some() && !np.departed() =>
                {
                    Some(np.node_id())
                }
                _ => None,
            })
            .expect("someone hosts a component");
        d.crash_node(victim).expect("not the last node");
        // No harness help: the failure detector must
        // suspect the crash and the rescue sweep must re-cover the cut
        // purely via protocol messages.
        assert!(d.settle(100), "in-protocol recovery did not converge");
        let w = d.world.borrow();
        let detected_at = *w.detections.get(&victim).expect("crash went undetected");
        let crashed_at = w.crashed[&victim];
        assert!(
            detected_at - crashed_at <= 16 * d.level_period,
            "detection took {} periods",
            (detected_at - crashed_at) / d.level_period
        );
        drop(w);
        let (cut, _) = d.live_cut();
        assert!(cut.is_valid(&d.world.borrow().tree), "cut not re-covered: {cut}");
        // Counting still works end to end.
        let before = d.collector().total();
        for i in 0..16 {
            d.inject(i % 16);
        }
        d.run_for(200_000);
        assert_eq!(d.collector().total(), before + 16, "post-rescue tokens lost");
    }

    #[test]
    fn tiny_frozen_buffer_cap_conserves_tokens() {
        // With a capacity-1 frozen buffer, reconfiguration windows shed
        // tokens back to their senders (TokenBusy); backoff + retry
        // must still deliver every one exactly once.
        let mut d = Deployment::new(32, 6, 0x77);
        d.set_frozen_buffer_cap(1);
        let mut seed = 1u64;
        let mut injected = 0u64;
        for i in 0..120u64 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
            injected += 1;
            d.run_for(97);
            if i % 40 == 20 {
                d.join_node();
            }
        }
        assert!(d.settle(300), "did not settle under backpressure");
        d.run_for(300_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "token conservation violated under shed");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn leave_everything_back_to_one_node() {
        // Shrink all the way down to a single node: the network must end
        // as (at most a few) coarse components on that node.
        let mut d = Deployment::new(16, 12, 0x0E0);
        assert!(d.settle(100));
        let mut seed = 9u64;
        for _ in 0..30 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 16);
        }
        d.run_for(100_000);
        let victims: Vec<NodeId> = d.world.borrow().ring.nodes().take(11).collect();
        for v in victims {
            d.leave_node(v);
            d.run_for(500);
            d.run_for(2 * d.level_period);
        }
        assert!(d.settle(300), "did not settle at N=1");
        let (cut, _) = d.live_cut();
        assert!(cut.is_valid(&d.world.borrow().tree));
        assert_eq!(cut.leaves().len(), 1, "N=1 must converge to the root: {cut}");
        for _ in 0..10 {
            d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 16);
        }
        d.run_for(100_000);
        assert_eq!(d.collector().total(), 40);
        assert!(is_step_sequence(&d.collector().counts));
    }

    #[test]
    fn lossy_tokens_are_delivered_exactly_once() {
        // 15% token loss: the ack/retransmit/dedup layer must still
        // deliver every token exactly once, with the step property.
        let mut d = Deployment::with_loss(32, 16, 0x1055, 150);
        assert!(d.settle(100));
        let mut seed = 5u64;
        let mut injected = 0u64;
        for _ in 0..40 {
            for _ in 0..4 {
                d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
                injected += 1;
            }
            d.run_for(400);
        }
        assert!(d.settle(400), "lossy deployment did not settle");
        d.run_for(400_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "exactly-once delivery violated");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
        let world = d.world.borrow();
        assert!(world.token_retransmits > 0, "loss never exercised retransmission");
        assert!(d.sim.stats().messages_lost > 0, "the lossy channel never dropped");
    }

    #[test]
    fn lossy_tokens_survive_churn() {
        let mut d = Deployment::with_loss(32, 4, 0x1056, 100);
        assert!(d.settle(100));
        let mut seed = 7u64;
        let mut injected = 0u64;
        for round in 0..30 {
            if round % 3 == 0 {
                d.join_node();
            }
            for _ in 0..3 {
                d.inject((acn_overlay::splitmix64(&mut seed) as usize) % 32);
                injected += 1;
            }
            d.run_for(600);
        }
        assert!(d.settle(400), "lossy churn did not settle");
        d.run_for(400_000);
        let c = d.collector();
        assert_eq!(c.total(), injected, "exactly-once delivery violated under churn");
        assert!(is_step_sequence(&c.counts), "{:?}", c.counts);
    }

    #[test]
    fn latency_accounting() {
        let mut d = Deployment::new(16, 16, 77);
        assert!(d.settle(50));
        for i in 0..50 {
            d.inject(i % 16);
        }
        d.run_for(200_000);
        let c = d.collector();
        assert_eq!(c.total(), 50);
        assert!(c.max_latency >= c.total_latency / 50);
    }
}

//! What all processes of one simulation share: the harness's
//! ground-truth ring, the deployment constants, aggregate statistics,
//! the two id allocators and the telemetry handles.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use acn_overlay::{NodeId, Ring};
use acn_telemetry::{Counter, Histogram, Registry};
use acn_topology::{ComponentId, Tree, WiringStyle};
use acn_trace::Tracer;

/// Pre-resolved telemetry handles for the distributed runtime
/// (`acn.dist.*`). All handles are no-ops until
/// [`Deployment::attach_telemetry`](super::Deployment::attach_telemetry) wires in an enabled registry.
#[derive(Debug, Default)]
pub(super) struct DistMetrics {
    /// Inter-node hops a token took before exiting (recorded at the
    /// network output).
    pub(super) routing_hops: Histogram,
    /// Duration of completed splits (freeze → parent removed), ticks.
    pub(super) split_duration: Histogram,
    /// Duration of completed merges (begin → parent live), ticks.
    pub(super) merge_duration: Histogram,
    /// Mirrors `World::splits_done`.
    pub(super) splits: Counter,
    /// Mirrors `World::merges_done`.
    pub(super) merges: Counter,
    /// Merges aborted (unsettled traffic / stalled collection).
    pub(super) merge_aborts: Counter,
    /// Mirrors `World::token_nacks`.
    pub(super) nacks: Counter,
    /// Mirrors `World::token_retransmits`.
    pub(super) retransmits: Counter,
    /// Mirrors `World::duplicate_traversal_drops`.
    pub(super) dup_traversals: Counter,
    /// Mirrors `World::scattered_guids`.
    pub(super) scattered_guids: Counter,
    /// Mirrors `World::dht_lookups`: one per lookup made, i.e. per
    /// route-cache miss on the token path.
    pub(super) dht_lookups: Counter,
    /// Tokens drained from frozen buffers when a merge discards its
    /// children.
    pub(super) merge_drained: Counter,
    /// Tokens drained from the parent's buffer when a split completes.
    pub(super) split_drained: Counter,
    /// Components migrated to a new hash owner (churn sweeps).
    pub(super) migrations: Counter,
    /// Node crashes injected by the harness.
    pub(super) crashes: Counter,
    /// Level-estimate changes observed at `level_tick` (the adaptivity
    /// signal of paper Section 3.2).
    pub(super) level_changes: Counter,
    /// Failure-detector pings sent (`acn.dist.fd.pings`).
    pub(super) fd_pings: Counter,
    /// Crash suspicions raised (`acn.dist.fd.suspects`).
    pub(super) fd_suspects: Counter,
    /// Virtual time from harness crash to first in-protocol suspicion
    /// (`acn.dist.fd.detection_latency`).
    pub(super) fd_detection_latency: Histogram,
    /// Membership gossip messages sent (`acn.dist.fd.gossip`).
    pub(super) fd_gossip: Counter,
    /// Node ids those messages carried, `known` and `dead` together
    /// (`acn.dist.fd.gossip_ids`): over `fd_gossip`, the ids per
    /// message, which must not grow with the roster.
    pub(super) fd_gossip_ids: Counter,
    /// Rescue sweeps started (`acn.dist.rescue.sweeps`).
    pub(super) rescue_sweeps: Counter,
    /// Replacement components installed by rescue sweeps
    /// (`acn.dist.rescue.installs`).
    pub(super) rescue_installs: Counter,
    /// Virtual time from sweep start to last install ack
    /// (`acn.dist.rescue.duration`).
    pub(super) rescue_duration: Histogram,
    /// Leftover duplicate components discarded during a sweep
    /// (`acn.dist.rescue.duplicate_discards`).
    pub(super) rescue_discards: Counter,
    /// Retry-timer delays actually armed, jitter included
    /// (`acn.dist.backoff.interval`).
    pub(super) backoff_interval: Histogram,
    /// Backoff escalations — unproductive retry rounds or backpressure
    /// NACKs doubling the interval (`acn.dist.backoff.escalations`).
    pub(super) backoff_escalations: Counter,
    /// Backoff resets on acknowledged progress
    /// (`acn.dist.backoff.resets`).
    pub(super) backoff_resets: Counter,
    /// Tokens shed with a backpressure NACK at a full frozen buffer
    /// (`acn.dist.backoff.sheds`).
    pub(super) busy_sheds: Counter,
    /// Instrumented size/level estimation (`acn.estimator.*`).
    pub(super) estimator: acn_estimator::InstrumentedEstimator,
}

impl DistMetrics {
    pub(super) fn attach(registry: &Registry) -> Self {
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
            scattered_guids: registry.counter("acn.dist.scattered_guids"),
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
            fd_gossip_ids: registry.counter("acn.dist.fd.gossip_ids"),
            rescue_sweeps: registry.counter("acn.dist.rescue.sweeps"),
            rescue_installs: registry.counter("acn.dist.rescue.installs"),
            rescue_duration: registry.histogram("acn.dist.rescue.duration"),
            rescue_discards: registry.counter("acn.dist.rescue.duplicate_discards"),
            backoff_interval: registry.histogram("acn.dist.backoff.interval"),
            backoff_escalations: registry.counter("acn.dist.backoff.escalations"),
            backoff_resets: registry.counter("acn.dist.backoff.resets"),
            busy_sheds: registry.counter("acn.dist.backoff.sheds"),
            estimator: acn_estimator::InstrumentedEstimator::attach(registry),
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
    /// in a real deployment). A token hop over a component's memoised
    /// route makes none: on the token path this counts the misses of
    /// the out-neighbour cache (and every NACK probe), not the sends.
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
    /// Send obligations whose copies went to more than one node (or
    /// that changed hands): each holds back the ack watermark of every
    /// link it used, so the receivers there keep what they accepted
    /// from that sender since.
    pub scattered_guids: u64,
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
    /// Test-only mutation switch: when set, nodes skip both of their
    /// dedup layers — the receiver's GUID check and the components'
    /// travelling `(token, wire)` ledgers — so a retransmission that
    /// races its ack is processed twice. Exists solely so the
    /// distributed model checker can prove it would catch the bug
    /// (mutation testing); never set in production paths. On its own
    /// this is masked by the collector's end-to-end dedup —
    /// [`Deployment::test_disable_token_dedup`](super::Deployment::test_disable_token_dedup) removes all three.
    pub(super) mutation_no_ack_dedup: bool,
    /// Pre-resolved `acn.dist.*` telemetry handles (no-ops by default).
    pub(super) metrics: DistMetrics,
    /// Causal span recorder (no-op by default). Trace ids are the
    /// stable end-to-end token ids; timestamps are the simulator's
    /// virtual clock, so recorded span DAGs are deterministic per seed.
    pub(super) tracer: Tracer,
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
            scattered_guids: 0,
            crashed: BTreeMap::new(),
            detections: BTreeMap::new(),
            next_guid: 0,
            next_token_id: 0,
            mutation_no_ack_dedup: false,
            metrics: DistMetrics::default(),
            tracer: Tracer::disabled(),
        }))
    }

    /// Disables the node-side dedup of the token channel: the
    /// receiver's GUID check and the travelling component ledgers.
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

    /// Whether the dedup layers are on (off only under the planted
    /// checker mutation), and whether `token`'s spans are sampled.
    pub(super) fn token_flags(&self, token: u64) -> (bool, bool) {
        (!self.mutation_no_ack_dedup, self.tracer.should_sample(token))
    }

    /// The current hash owner of component `id` per the harness's
    /// ground-truth ring. Boot and harness paths only: protocol hot
    /// paths resolve ownership against each node's *local membership
    /// view* (`NodeProc::owner_of`), which is all a real node can see.
    #[must_use]
    pub fn host_of(&mut self, id: &ComponentId) -> NodeId {
        self.dht_lookups += 1;
        self.metrics.dht_lookups.inc();
        self.ring.owner_of_name(self.tree.preorder_index(id))
    }

    /// Records an in-protocol crash suspicion (min-merged across
    /// detectors, so gossip adoption order cannot change the record).
    pub(super) fn note_detection(&mut self, node: NodeId, at: u64) {
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
        }
    }
}

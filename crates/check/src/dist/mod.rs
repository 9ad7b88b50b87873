//! Schedule exploration for the **distributed** runtime: the
//! message-passing split/merge/routing/stabilization protocol of
//! `acn_core::dist`, driven through `acn_simnet`'s
//! [`DeliveryPolicy::External`] seam.
//!
//! The shared-memory checker ([`crate::explore`]) explores thread
//! interleavings; this module explores **message schedules**: which
//! pending delivery, timer firing, in-flight drop, or fault action
//! happens next. The real [`NodeProc`] and
//! collector processes run unmodified — only the scheduler changes.
//!
//! # Choice-point model
//!
//! At every branching state the explorer may:
//!
//! - **deliver** the oldest in-flight message of any `(from, to)` link
//!   (per-link FIFO is the one ordering the transport guarantees);
//! - **fire a pending timer** *ahead of* pending messages, while the
//!   scenario's preemption budget lasts (this is what makes
//!   retransmit-vs-ack races reachable without unbounded timer chains);
//! - **drop** a pending lossy-channel message (tokens ride the lossy
//!   datagram path), while the drop budget lasts;
//! - **apply the next scripted fault action** — a forced split or
//!   merge, a node crash, a graceful leave, a join, a repair sweep, or
//!   a mid-run injection. Actions apply in scenario order; *when* each
//!   one happens relative to deliveries is the explored dimension.
//!
//! When no branching choice exists but the system is not yet quiet, the
//! run **drains deterministically**: the pending event with the
//! canonically smallest `(time, to, kind, from/tag)` key fires until a
//! branching state or quiescence is reached. Drained steps are
//! recomputed on replay, so recorded schedules stay short.
//!
//! # DPOR equivalence
//!
//! Exhaustive mode prunes with sleep sets over the dependence relation
//! "two deliveries are dependent iff they target the same process".
//! Deliveries to *different* receivers commute because a handler only
//! observes its own process state, its own event's timestamp
//! (`External` policy time is per-event), and the shared `World` —
//! whose mutations along any handler path are commutative counter
//! increments plus GUID allocation, which is rename-invariant (GUIDs
//! are only compared for equality). Drops and fault actions are
//! conservatively dependent with everything.

pub mod explore;
pub mod oracles;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use acn_core::component::split_component;
use acn_core::dist::{force_merge_tag, force_split_tag, Deployment, Msg, NodeProc, Proc};
use acn_overlay::NodeId;
use acn_simnet::{DeliveryPolicy, PendingEvent, ProcessId, SimConfig};
use acn_topology::ComponentId;
use acn_trace::{format_spans, Tracer};

use crate::engine::{Frontier, Run};

pub use explore::{check_dist, replay_dist_schedule, DistCheckConfig, DistReport};
pub use oracles::OracleConfig;

/// One scripted fault action of a [`DistScenario`]. Actions are applied
/// in list order; the explorer varies *when* each fires relative to
/// message deliveries and timer firings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistAction {
    /// Ensure this component is split: force the live host to start
    /// splitting (enabled once the component is hosted, unfrozen, wide
    /// enough, and *settled* — a split that would be deferred with
    /// `TokensInFlight`/`Unsettled` is not offered, because the forced
    /// path fires exactly once and has no next-tick retry). If the
    /// adaptive level estimator already split it on its own, the
    /// action is an enabled no-op — scripted reconfiguration races
    /// with the protocol's *own* adaptivity by design, and the deep
    /// random explorer found exactly that race (see
    /// `scripted_reconfig_survives_estimator_automerge`).
    Split(ComponentId),
    /// Ensure this component is merged back: force the split-list
    /// holder to start merging (enabled once the split completed). If
    /// the estimator already merged it back — it legally does so under
    /// low traffic after enough level ticks — the action is an enabled
    /// no-op rather than a never-enabled stuck state.
    Merge(ComponentId),
    /// Crash the `i`-th initial node: its process and all hosted state
    /// vanish (enabled while the node is alive and not the last one).
    Crash(usize),
    /// Gracefully leave the `i`-th initial node (hand-off + departed
    /// ghost). Runs the harness's deterministic settle loop, so it is
    /// one atomic choice.
    Leave(usize),
    /// Add a fresh node and migrate components to it.
    Join,
    /// Inject one token on this input wire mid-run.
    Inject(usize),
    /// Crash whichever live node currently has a split in flight
    /// (enabled only while one exists and it is not the last node):
    /// exercises the crash-mid-split rescue path in-protocol.
    CrashMidSplit,
    /// Crash whichever live node currently has a merge in flight:
    /// exercises the crash-mid-merge orphan-adoption path.
    CrashMidMerge,
    /// Crash the node that a hand-off in flight from some live node was
    /// sent to (a split child's, a merge parent's, a migrating
    /// component's or a rescue replacement's new host; the first in id
    /// order): the sender must still hold the component and place it at
    /// the next owner.
    CrashHandOffTarget,
}

impl fmt::Display for DistAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistAction::Split(id) => write!(f, "split {id}"),
            DistAction::Merge(id) => write!(f, "merge {id}"),
            DistAction::Crash(i) => write!(f, "crash node #{i}"),
            DistAction::Leave(i) => write!(f, "leave node #{i}"),
            DistAction::Join => write!(f, "join a node"),
            DistAction::Inject(w) => write!(f, "inject on wire {w}"),
            DistAction::CrashMidSplit => write!(f, "crash the split coordinator"),
            DistAction::CrashMidMerge => write!(f, "crash the merge coordinator"),
            DistAction::CrashHandOffTarget => write!(f, "crash a hand-off target"),
        }
    }
}

/// A bounded configuration of the distributed runtime to explore.
#[derive(Debug, Clone)]
pub struct DistScenario {
    /// Network width `w`.
    pub width: usize,
    /// Overlay nodes at boot.
    pub nodes: usize,
    /// Seed for ring placement and injection targeting (all RNG draws
    /// happen at scenario-construction points, never inside handlers,
    /// so the run is a deterministic function of the choice sequence).
    pub seed: u64,
    /// Tokens injected at boot, one per listed input wire.
    pub injections: Vec<usize>,
    /// Scripted fault actions (applied in order at explored points).
    pub actions: Vec<DistAction>,
    /// How many times a pending timer may fire *ahead of* pending
    /// messages (bounds the schedule space; retransmit races need 1+).
    pub timer_preemptions: u32,
    /// How many lossy-channel messages may be dropped in flight.
    pub max_drops: u32,
    /// How many `ViewGossip` messages between nodes may be dropped in
    /// flight. The control plane is reliable in every seeded run and in
    /// every other exploration; this budget is how a test looks at what
    /// DESIGN.md §13.2 states as the limit of gossiping only what
    /// changed. The harness's own announcement of a join or leave is
    /// never dropped: it is one message, with no wave behind it.
    pub gossip_drops: u32,
    /// Mutation-testing hook: disable the receiver-side GUID dedup in
    /// `acn_core::dist` (the exactly-once oracle must then fail).
    pub disable_ack_dedup: bool,
    /// Which terminal oracles to assert.
    pub oracles: OracleConfig,
}

impl DistScenario {
    /// A scenario with no faults: `injections` tokens through a
    /// `width`-wide network on `nodes` nodes, all oracles on.
    #[must_use]
    pub fn new(width: usize, nodes: usize, seed: u64, injections: Vec<usize>) -> Self {
        DistScenario {
            width,
            nodes,
            seed,
            injections,
            actions: Vec::new(),
            timer_preemptions: 0,
            max_drops: 0,
            gossip_drops: 0,
            disable_ack_dedup: false,
            oracles: OracleConfig::default(),
        }
    }
}

/// One recorded scheduling decision (replayable via
/// [`replay_dist_schedule`]). Indices refer to the canonical
/// time-ordered enabled list at that state, which is a deterministic
/// function of the preceding choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistChoice {
    /// Deliver (or fire) the `i`-th enabled event.
    Deliver(usize),
    /// Drop the `i`-th enabled event in flight (a lossy message, or a
    /// `ViewGossip` under [`DistScenario::gossip_drops`]).
    Drop(usize),
    /// Apply the next scripted fault action.
    Action,
}

/// Identity of a choice for the sleep-set dependence relation
/// (rename-invariant across DPOR-equivalent prefixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ChoiceId {
    /// Deliver the FIFO head of link `from -> to`.
    Msg {
        /// Sender process.
        from: u64,
        /// Receiver process.
        to: u64,
    },
    /// Fire the timer `(to, tag)` scheduled for `time`.
    Timer {
        /// Owning process.
        to: u64,
        /// Timer tag.
        tag: u64,
        /// Scheduled firing time (disambiguates re-armed duplicates).
        time: u64,
    },
    /// Drop the FIFO head of link `from -> to`.
    DropMsg {
        /// Sender process.
        from: u64,
        /// Receiver process.
        to: u64,
    },
    /// Apply scripted action number `index`.
    Action(usize),
}

impl ChoiceId {
    /// The sleep-set dependence relation: deliveries/timer firings
    /// commute iff they target different processes; drops and fault
    /// actions conflict with everything (conservative).
    pub(crate) fn dependent(&self, other: &ChoiceId) -> bool {
        use ChoiceId::{Msg, Timer};
        match (self, other) {
            (Msg { to: a, .. } | Timer { to: a, .. }, Msg { to: b, .. } | Timer { to: b, .. }) => {
                a == b
            }
            _ => true,
        }
    }
}

/// Why a distributed check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistFailureKind {
    /// A terminal-state protocol oracle was violated.
    OracleViolation,
    /// The run could not reach quiescence within the step budget
    /// (leaked retransmit obligation, frozen-forever component, or a
    /// scripted action that never became enabled).
    Stuck,
    /// A recorded choice did not match the current enabled set on
    /// replay.
    ReplayDivergence,
}

/// A failed schedule: what went wrong, the full numbered schedule, and
/// the choice list that reproduces it.
#[derive(Debug, Clone)]
pub struct DistFailure {
    /// Failure class.
    pub kind: DistFailureKind,
    /// Human-readable description of the violation.
    pub message: String,
    /// Numbered human-readable schedule (branching choices and the
    /// deterministic drain steps between them).
    pub schedule: Vec<String>,
    /// The branching choices to feed [`replay_dist_schedule`].
    pub choices: Vec<DistChoice>,
    /// Random-mode iteration seed, when applicable.
    pub seed: Option<u64>,
    /// Flight-recorder dump: the causally-ordered spans of the
    /// offending token trace(s) — tokens whose trace terminated more
    /// than once — or, when no specific token can be blamed, the last
    /// spans in the recorder's ring. Empty if nothing was recorded.
    pub flight_dump: String,
}

impl fmt::Display for DistFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:?}: {}", self.kind, self.message)?;
        writeln!(f, "schedule ({} steps):", self.schedule.len())?;
        for (i, step) in self.schedule.iter().enumerate() {
            writeln!(f, "  {i:4}. {step}")?;
        }
        if let Some(seed) = self.seed {
            writeln!(f, "iteration seed: {seed:#x}")?;
        }
        if !self.flight_dump.is_empty() {
            writeln!(f, "flight recorder (causal order):")?;
            f.write_str(&self.flight_dump)?;
        }
        writeln!(f, "replay choices: {:?}", self.choices)
    }
}

/// How many spans the per-run flight recorder retains (oldest evicted
/// first). Big enough to hold every hop of a bounded exploration
/// scenario; a cap keeps deep random runs at fixed memory.
const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// One execution of a scenario under external scheduling.
pub(crate) struct DistRun {
    /// The deployment under test (External delivery policy, zero
    /// jitter, zero send-time loss).
    pub(crate) d: Deployment,
    pub(crate) scenario: DistScenario,
    /// Tokens injected so far (boot injections + `Inject` actions).
    pub(crate) injected: u64,
    /// Injection ledger per input wire (the trusted client-side ledger
    /// for the stabilization oracle).
    pub(crate) injected_per_wire: Vec<u64>,
    /// Next scripted action to apply.
    pub(crate) next_action: usize,
    timer_budget: u32,
    drop_budget: u32,
    gossip_drop_budget: u32,
    /// The boot-time overlay nodes (action indices refer to these).
    pub(crate) initial_nodes: Vec<NodeId>,
    steps: usize,
    max_steps: usize,
    memoize: bool,
    /// The identity of the last applied choice (the sleep-set wake
    /// rule's "previous step").
    last: Option<ChoiceId>,
    /// Human-readable schedule so far.
    pub(crate) trace: Vec<String>,
    /// Branching choices taken so far (the replay schedule).
    pub(crate) choices_taken: Vec<DistChoice>,
    /// Timer-ahead-of-messages firings taken.
    pub(crate) timer_preemptions_used: u64,
    /// In-flight drops taken.
    pub(crate) drops_done: u64,
    /// Fault actions applied.
    pub(crate) fault_actions_done: u64,
    /// Always-on bounded flight recorder: every token hop of the run,
    /// virtual-clock timestamped, dumped alongside failed oracles.
    pub(crate) tracer: Tracer,
}

impl DistRun {
    pub(crate) fn new(scenario: &DistScenario, check: &DistCheckConfig) -> Self {
        let config = SimConfig {
            base_latency: 5,
            jitter: 0,
            loss_per_mille: 0,
            seed: scenario.seed,
        };
        // The explorer's soundness argument needs timestamps to be a
        // deterministic function of the delivery sequence: no RNG draw
        // may depend on delivery order.
        assert_eq!(config.jitter, 0, "explorer configs must be jitter-free");
        assert_eq!(config.loss_per_mille, 0, "losses are explicit drop choices");
        let mut d = Deployment::with_sim(
            scenario.width,
            scenario.nodes,
            scenario.seed,
            config,
            DeliveryPolicy::External,
        );
        if scenario.disable_ack_dedup {
            // Mutation under test: both token-dedup layers off (the
            // receiver-side GUID check and the collector's end-to-end
            // identity check — either alone masks the other).
            d.test_disable_token_dedup();
        }
        // The flight recorder: every token hop of the run lands in this
        // bounded ring so a failed oracle can print the offending
        // token's full causal path. Tracing is observation-only, so it
        // cannot perturb the explored schedules (pinned by the root
        // crate's determinism regression test).
        let tracer = Tracer::new(FLIGHT_RECORDER_CAPACITY);
        d.attach_tracer(&tracer);
        let initial_nodes: Vec<NodeId> = d.world.borrow().ring.nodes().collect();
        let mut injected_per_wire = vec![0u64; scenario.width];
        let mut injected = 0u64;
        for &wire in &scenario.injections {
            d.inject(wire);
            injected += 1;
            injected_per_wire[wire] += 1;
        }
        DistRun {
            d,
            scenario: scenario.clone(),
            injected,
            injected_per_wire,
            next_action: 0,
            timer_budget: scenario.timer_preemptions,
            drop_budget: scenario.max_drops,
            gossip_drop_budget: scenario.gossip_drops,
            initial_nodes,
            steps: 0,
            max_steps: check.max_steps,
            memoize: check.memoize,
            last: None,
            trace: Vec::new(),
            choices_taken: Vec::new(),
            timer_preemptions_used: 0,
            drops_done: 0,
            fault_actions_done: 0,
            tracer,
        }
    }

    /// The enabled events in canonical order: `(time, to, kind,
    /// from/tag)`, messages before timers. The order is invariant under
    /// the sequence-number renaming that distinguishes DPOR-equivalent
    /// prefixes, so choice indices and the deterministic drain are
    /// stable across equivalent executions.
    pub(crate) fn enabled(&self) -> Vec<PendingEvent> {
        let mut evs = self.d.sim.enabled_events();
        evs.sort_by_key(|e| {
            (
                e.time,
                e.to.0,
                u8::from(e.timer_tag.is_some()),
                e.timer_tag.unwrap_or_else(|| e.from.map_or(0, |f| f.0)),
                e.key,
            )
        });
        evs
    }

    fn has_pending_messages(&self) -> bool {
        self.d.sim.enabled_events().iter().any(|e| e.timer_tag.is_none())
    }

    /// Every node process (departed ghosts included), in process order.
    fn nodes(&self) -> impl Iterator<Item = (ProcessId, &NodeProc)> {
        self.d.sim.process_ids().filter_map(|pid| match self.d.sim.process(pid) {
            Some(Proc::Node(np)) => Some((pid, np)),
            _ => None,
        })
    }

    /// Whether every node is quiet (no splits/merges/unacked
    /// obligations/stuck collects) and nothing is frozen.
    pub(crate) fn all_quiet(&self) -> bool {
        self.nodes().all(|(_, np)| np.is_quiet() && !np.components().any(|(_, frozen)| frozen))
    }

    /// Debug rendering of every non-quiet node (stuck diagnostics).
    fn busy_debug(&self) -> String {
        let busy: Vec<String> = self
            .nodes()
            .filter_map(|(pid, np)| {
                let frozen = np.components().filter(|(_, f)| *f).count();
                (!np.is_quiet() || frozen > 0)
                    .then(|| format!("{pid}: frozen={frozen} {}", np.ops_debug()))
            })
            .collect();
        busy.join("; ")
    }

    /// Terminal = no pending messages, every scripted action applied,
    /// all nodes quiet, nothing frozen, and every crash both detected
    /// and tombstoned in every live view. (Pending timers are fine:
    /// the level and failure-detector timers re-arm forever by design;
    /// it is `recovery_complete` that keeps the drain firing them
    /// until the in-protocol rescue has converged.)
    pub(crate) fn terminal(&self) -> bool {
        !self.has_pending_messages()
            && self.next_action >= self.scenario.actions.len()
            && self.all_quiet()
            && self.recovery_complete()
    }

    /// Whether every crashed node has been tombstoned in the local
    /// view of every live (non-departed, still-in-ring) node. Until
    /// this holds the run is not terminal, so the frontier drain keeps
    /// firing failure-detector ticks and the suspicion/rescue protocol
    /// runs to convergence without any harness help. (`all_quiet`
    /// already guarantees no rescue sweep or merge is mid-flight.)
    pub(crate) fn recovery_complete(&self) -> bool {
        let w = self.d.world.borrow();
        w.crashed.is_empty()
            || self
                .nodes()
                .filter(|(_, np)| !np.departed())
                .all(|(_, np)| w.crashed.keys().all(|&c| np.view_dead_contains(c)))
    }

    /// Whether the next scripted action can fire in the current state.
    fn action_enabled(&self) -> bool {
        let Some(action) = self.scenario.actions.get(self.next_action) else {
            return false;
        };
        match action {
            DistAction::Split(id) => self.split_host(id).is_some() || self.already_split(id),
            DistAction::Merge(id) => {
                self.merge_coordinator(id).is_some() || self.whole_and_unfrozen(id)
            }
            DistAction::Crash(i) | DistAction::Leave(i) => {
                let Some(&node) = self.initial_nodes.get(*i) else { return false };
                let w = self.d.world.borrow();
                w.ring.contains(node) && w.ring.len() > 1
            }
            // The mid-op crashes are always enabled with ensure
            // semantics (like `Split`/`Merge`): the preceding scripted
            // action starts the split/merge *synchronously*, so at the
            // first branch point the window is open and most schedules
            // crash a genuinely mid-flight coordinator — but a
            // schedule that drains the reconfiguration first must
            // still terminate, so the closed-window case is a no-op
            // rather than a never-enabled stuck state.
            DistAction::Join
            | DistAction::Inject(_)
            | DistAction::CrashMidSplit
            | DistAction::CrashMidMerge
            | DistAction::CrashHandOffTarget => true,
        }
    }

    /// The live in-ring node that the first hand-off (in id order) in
    /// flight from a live node was sent to — the victim for
    /// [`DistAction::CrashHandOffTarget`].
    fn hand_off_target_node(&self) -> Option<NodeId> {
        let w = self.d.world.borrow();
        if w.ring.len() <= 1 {
            return None;
        }
        self.nodes()
            .filter(|(_, np)| !np.departed())
            .flat_map(|(_, np)| np.hand_offs_in_flight())
            .filter(|(_, to)| w.ring.contains(*to))
            .min_by_key(|(id, _)| **id)
            .map(|(_, to)| to)
    }

    /// A live in-ring node that is `busy` (a split or merge in flight)
    /// and has a peer to survive it — the victim for
    /// [`DistAction::CrashMidSplit`] / [`DistAction::CrashMidMerge`].
    fn mid_op_victim(&self, busy: impl Fn(&NodeProc) -> bool) -> Option<NodeId> {
        let w = self.d.world.borrow();
        if w.ring.len() <= 1 {
            return None;
        }
        self.nodes()
            .map(|(_, np)| np)
            .find(|np| !np.departed() && w.ring.contains(np.node_id()) && busy(np))
            .map(NodeProc::node_id)
    }

    /// The process hosting `id` live, unfrozen, and splittable *right
    /// now*: `start_split` defers with `TokensInFlight`/`Unsettled`
    /// when the component is mid-traffic, and the forced path has no
    /// next-tick retry, so a deferred split would silently no-op and
    /// strand a later scripted merge. The enabledness check therefore
    /// runs the same `split_component` the handler will run.
    fn split_host(&self, id: &ComponentId) -> Option<ProcessId> {
        let (tree, style) = {
            let w = self.d.world.borrow();
            (w.tree, w.style)
        };
        self.nodes()
            .filter(|(_, np)| !np.departed())
            .find(|(_, np)| {
                np.hosted_components().any(|(cid, comp, frozen, _)| {
                    cid == id
                        && !frozen
                        && comp.width() >= 4
                        && split_component(&tree, comp, style).is_ok()
                })
            })
            .map(|(pid, _)| pid)
    }

    /// Whether `id` is currently split (a split-list entry exists, or a
    /// proper descendant is hosted somewhere): the ensure-split no-op
    /// case.
    fn already_split(&self, id: &ComponentId) -> bool {
        self.nodes().any(|(_, np)| {
            np.split_list().contains(id)
                || np.components().any(|(cid, _)| cid != id && id.is_ancestor_of(cid))
        })
    }

    /// Whether `id` is hosted whole and unfrozen (the ensure-merge
    /// no-op case: the estimator merged it back, or a split aborted).
    fn whole_and_unfrozen(&self, id: &ComponentId) -> bool {
        self.nodes().any(|(_, np)| np.components().any(|(cid, frozen)| cid == id && !frozen))
    }

    /// The process holding `id` on its split list with no merge in
    /// flight.
    fn merge_coordinator(&self, id: &ComponentId) -> Option<ProcessId> {
        self.nodes()
            .find(|(_, np)| {
                !np.departed() && np.split_list().contains(id) && !np.has_merge_in_progress(id)
            })
            .map(|(pid, _)| pid)
    }

    /// The branching choices available right now, each with its
    /// sleep-set identity. Empty means either terminal or "only
    /// deterministic drain work remains".
    fn choices(&self) -> Vec<(DistChoice, ChoiceId)> {
        let evs = self.enabled();
        let msgs = evs.iter().any(|e| e.timer_tag.is_none());
        let mut out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            match e.timer_tag {
                // Timers branch only as *preemptions* (ahead of pending
                // messages, budget permitting). With no messages left
                // the deterministic drain fires them.
                Some(tag) => {
                    if msgs && self.timer_budget > 0 {
                        let id = ChoiceId::Timer { to: e.to.0, tag, time: e.time };
                        out.push((DistChoice::Deliver(i), id));
                    }
                }
                None => {
                    let (from, to) = (e.from.expect("messages have senders").0, e.to.0);
                    out.push((DistChoice::Deliver(i), ChoiceId::Msg { from, to }));
                    if (e.lossy && self.drop_budget > 0) || self.droppable_gossip(e) {
                        out.push((DistChoice::Drop(i), ChoiceId::DropMsg { from, to }));
                    }
                }
            }
        }
        if self.action_enabled() {
            out.push((DistChoice::Action, ChoiceId::Action(self.next_action)));
        }
        out
    }

    /// Whether `e` is a `ViewGossip` from one node to another that is
    /// still there, with gossip-drop budget left.
    fn droppable_gossip(&self, e: &PendingEvent) -> bool {
        self.gossip_drop_budget > 0
            && e.from.is_some_and(|from| from != ProcessId::EXTERNAL)
            && self.d.sim.contains(e.to)
            && matches!(self.d.sim.pending_payload(e.key), Some(Msg::ViewGossip { .. }))
    }

    fn describe_event(&self, e: &PendingEvent) -> String {
        match e.timer_tag {
            Some(tag) => format!("fire timer tag={tag:#x} on {} @t={}", e.to, e.time),
            None => {
                let from = e.from.expect("messages have senders");
                let what = self
                    .d
                    .sim
                    .pending_payload(e.key)
                    .map_or_else(|| "<?>".to_string(), msg_name);
                format!("deliver {what} {from}->{} @t={}", e.to, e.time)
            }
        }
    }

    fn budget_failure(&self) -> DistFailure {
        self.failure(
            DistFailureKind::Stuck,
            format!(
                "no quiescence within {} steps: {}",
                self.max_steps,
                if self.next_action < self.scenario.actions.len() {
                    format!(
                        "action '{}' never became enabled",
                        self.scenario.actions[self.next_action]
                    )
                } else {
                    format!("busy nodes: {}", self.busy_debug())
                }
            ),
        )
    }

    /// Builds a failure with the current schedule and a flight-recorder
    /// dump attached. The dump is narrowed to the *offending* traces —
    /// tokens that terminated at the collector more than once (the
    /// exactly-once violations the explorer hunts) — falling back to
    /// the recorder's full ring when no token can be blamed.
    pub(crate) fn failure(&self, kind: DistFailureKind, message: String) -> DistFailure {
        let spans = self.tracer.spans();
        let mut terminations: BTreeMap<u64, usize> = BTreeMap::new();
        for s in &spans {
            if s.kind == "token.count" || s.kind == "token.dup_exit" {
                *terminations.entry(s.trace).or_default() += 1;
            }
        }
        let offenders: BTreeSet<u64> =
            terminations.into_iter().filter(|&(_, n)| n >= 2).map(|(t, _)| t).collect();
        let selected: Vec<_> = if offenders.is_empty() {
            spans
        } else {
            spans.into_iter().filter(|s| offenders.contains(&s.trace)).collect()
        };
        DistFailure {
            kind,
            message,
            schedule: self.trace.clone(),
            choices: self.choices_taken.clone(),
            seed: None,
            flight_dump: format_spans(&selected),
        }
    }

    fn fire_key(&mut self, key: u64) -> Result<(), DistFailure> {
        if self.steps >= self.max_steps {
            return Err(self.budget_failure());
        }
        self.steps += 1;
        assert!(self.d.sim.fire(key), "fired event must be enabled");
        Ok(())
    }

    fn apply_action(&mut self, action: &DistAction) -> Result<(), DistFailure> {
        match action {
            DistAction::Split(id) => {
                if let Some(pid) = self.split_host(id) {
                    let key = self.d.sim.schedule_timer(pid, 0, force_split_tag(id));
                    self.fire_key(key)?;
                }
                // else: the estimator already split it — ensure
                // semantics, nothing left to force.
            }
            DistAction::Merge(id) => {
                if let Some(pid) = self.merge_coordinator(id) {
                    let key = self.d.sim.schedule_timer(pid, 0, force_merge_tag(id));
                    self.fire_key(key)?;
                }
                // else: the estimator auto-merged it back during the
                // drain — ensure semantics, nothing left to force.
            }
            DistAction::Crash(i) => {
                // Enabledness guaranteed a surviving peer.
                self.d
                    .crash_node(self.initial_nodes[*i])
                    .expect("enabledness checked: not the last live node");
            }
            DistAction::CrashMidSplit => {
                // Ensure semantics: no-op if the split already drained
                // (or no crashable coordinator exists).
                if let Some(victim) = self.mid_op_victim(|np| np.splits_in_flight() > 0) {
                    self.d.crash_node(victim).expect("victim search checked ring.len() > 1");
                }
            }
            DistAction::CrashMidMerge => {
                if let Some(victim) = self.mid_op_victim(|np| np.merges_in_flight() > 0) {
                    self.d.crash_node(victim).expect("victim search checked ring.len() > 1");
                }
            }
            DistAction::CrashHandOffTarget => {
                if let Some(victim) = self.hand_off_target_node() {
                    self.d.crash_node(victim).expect("victim search checked ring.len() > 1");
                }
            }
            DistAction::Leave(i) => self.d.leave_node(self.initial_nodes[*i]),
            DistAction::Join => {
                let _ = self.d.join_node();
            }
            DistAction::Inject(wire) => {
                self.d.inject(*wire);
                self.injected += 1;
                self.injected_per_wire[*wire] += 1;
            }
        }
        Ok(())
    }

    /// The collector's per-wire exit counts.
    pub(crate) fn exit_counts(&self) -> Vec<u64> {
        self.d.collector().counts.clone()
    }

    /// Sanity access for oracles: the collector process must exist.
    pub(crate) fn collector_total(&self) -> u64 {
        self.d.collector().total()
    }
}

impl Run for DistRun {
    type Choice = DistChoice;
    type Id = ChoiceId;
    type Failure = DistFailure;
    const VARIANTS: bool = false;

    /// Advances the deterministic drain until a branching state or
    /// quiescence; a quiescent state is checked against the terminal
    /// oracles.
    fn frontier(&mut self) -> Result<Frontier<DistChoice, ChoiceId>, DistFailure> {
        let choices = loop {
            let choices = self.choices();
            if !choices.is_empty() || self.terminal() {
                break choices;
            }
            // Only deterministic work remains (typically timers a quiet
            // protocol still needs, e.g. retries): fire the canonical
            // head.
            let Some(head) = self.enabled().first().copied() else {
                return Err(self.failure(
                    DistFailureKind::Stuck,
                    format!(
                        "nothing pending but the network is not quiet: {}",
                        self.busy_debug()
                    ),
                ));
            };
            self.trace.push(format!("(drain) {}", self.describe_event(&head)));
            self.fire_key(head.key)?;
        };
        if choices.is_empty() {
            oracles::check_terminal(self, &self.scenario.oracles)
                .map_err(|msg| self.failure(DistFailureKind::OracleViolation, msg))?;
        }
        let ranked = choices.iter().map(|(_, id)| *id).collect();
        Ok(Frontier { choices, ranked })
    }

    fn wakes(&self, sleeper: ChoiceId) -> bool {
        self.last.is_some_and(|last| sleeper.dependent(&last))
    }

    /// The deployment's id-symmetry-quotient fingerprint
    /// ([`Deployment::canonical_fingerprint`]) combined with the
    /// run-local scheduling state (scripted-action cursor, fault
    /// budgets, and the client-side injection ledger). Two runs with
    /// equal fingerprints and equal remaining budget have identical
    /// continuations for every choice sequence.
    fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        if !self.memoize {
            return None;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.d.canonical_fingerprint().hash(&mut h);
        self.next_action.hash(&mut h);
        self.timer_budget.hash(&mut h);
        self.drop_budget.hash(&mut h);
        self.gossip_drop_budget.hash(&mut h);
        self.injected.hash(&mut h);
        self.injected_per_wire.hash(&mut h);
        Some(h.finish())
    }

    /// Memoization must only prune when the recorded visit had at
    /// least as much budget left, or a state that previously quiesced
    /// within budget could mask a later visit that would have hit
    /// [`DistFailureKind::Stuck`].
    fn remaining(&self) -> usize {
        self.max_steps - self.steps
    }

    fn apply(&mut self, choice: DistChoice, id: ChoiceId) -> Result<(), DistFailure> {
        self.last = Some(id);
        self.choices_taken.push(choice);
        match choice {
            DistChoice::Deliver(i) => {
                let e = self.enabled()[i];
                if e.timer_tag.is_some() && self.has_pending_messages() {
                    self.timer_budget = self.timer_budget.saturating_sub(1);
                    self.timer_preemptions_used += 1;
                }
                self.trace.push(self.describe_event(&e));
                self.fire_key(e.key)
            }
            DistChoice::Drop(i) => {
                let e = self.enabled()[i];
                self.trace.push(format!("DROP {} (in-flight loss)", self.describe_event(&e)));
                self.drops_done += 1;
                if e.lossy {
                    self.drop_budget = self.drop_budget.saturating_sub(1);
                    assert!(self.d.sim.drop_pending(e.key), "dropped event must be pending+lossy");
                } else {
                    // The simulator never loses a reliable message, so
                    // the receiver is out for this one delivery: the
                    // plane drops it as it would for a crashed process.
                    self.gossip_drop_budget -= 1;
                    let receiver = self.d.sim.remove_process(e.to).expect("checked: present");
                    assert!(self.d.sim.fire(e.key), "dropped event must be enabled");
                    self.d.sim.add_process(e.to, receiver);
                }
                Ok(())
            }
            DistChoice::Action => {
                let action = self.scenario.actions[self.next_action].clone();
                self.trace.push(format!("ACTION {action}"));
                self.next_action += 1;
                self.fault_actions_done += 1;
                self.apply_action(&action)
            }
        }
    }
}

/// Short display name of a protocol message (schedule rendering).
fn msg_name(m: &Msg) -> String {
    match m {
        Msg::ClientInject { wire } => format!("ClientInject(wire={wire})"),
        Msg::Token { guid, attempt, hops, .. } => {
            format!("Token(guid={guid}, attempt={attempt}, hops={hops})")
        }
        Msg::TokenAck { guid } => format!("TokenAck(guid={guid})"),
        Msg::TokenNack { guid, .. } => format!("TokenNack(guid={guid})"),
        Msg::Exit { wire, .. } => format!("Exit(wire={wire})"),
        Msg::HandOff { comp, buffer, .. } => {
            format!("HandOff({}, {} buffered)", comp.id(), buffer.len())
        }
        Msg::HandOffAck { id } => format!("HandOffAck({id})"),
        Msg::FreezeCollect { id, parent } => format!("FreezeCollect({id} for {parent})"),
        Msg::CollectReply { comp, parent, .. } => {
            format!("CollectReply({} for {parent})", comp.id())
        }
        Msg::CollectMissing { id, parent } => format!("CollectMissing({id} for {parent})"),
        Msg::RemoveFrozen { id } => format!("RemoveFrozen({id})"),
        Msg::AbortFreeze { id } => format!("AbortFreeze({id})"),
        Msg::Ping => "Ping".to_string(),
        Msg::Pong => "Pong".to_string(),
        Msg::ViewGossip { known, dead } => {
            format!("ViewGossip(known={}, dead={})", known.len(), dead.len())
        }
        Msg::RescueQuery => "RescueQuery".to_string(),
        Msg::RescueReport { covered } => format!("RescueReport({} covered)", covered.len()),
        Msg::TokenBusy { guid } => format!("TokenBusy(guid={guid})"),
        Msg::MergeOrphan { child, parent } => format!("MergeOrphan({child} for {parent})"),
        Msg::SplitListHandoff { entries } => {
            format!("SplitListHandoff({} entries)", entries.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracles::check_terminal;
    use super::*;

    /// Regression test for a real finding of the deep random explorer
    /// (iteration seed `0x8e9d1fe37a19ad1` on the fault-injection
    /// scenario): with a scripted `Split(root)` applied early and the
    /// `Merge(root)` deferred long enough, the adaptive level
    /// estimator *auto-merged* the children back to the root during
    /// the deterministic drain — a legal protocol move under low
    /// traffic — which permanently disabled the scripted merge under
    /// the old "merge needs a split-list entry" enabledness rule and
    /// drove the run to a spurious `Stuck` verdict. The fix gives
    /// scripted reconfiguration "ensure" semantics: the action stays
    /// enabled as a no-op once the protocol has already reached the
    /// requested state.
    #[test]
    fn scripted_reconfig_survives_estimator_automerge() {
        let root = ComponentId::root();
        let mut s = DistScenario::new(4, 2, 0xA07031, vec![0, 3]);
        s.actions = vec![DistAction::Split(root), DistAction::Merge(root)];
        let config = DistCheckConfig { max_steps: 200_000, ..DistCheckConfig::default() };
        let mut run = DistRun::new(&s, &config);
        let action = |frontier: &[(DistChoice, ChoiceId)]| {
            frontier.iter().copied().find(|(c, _)| *c == DistChoice::Action)
        };

        // Apply the scripted split as soon as it is offered, then keep
        // delivering (never taking the merge action) until the split
        // has visibly completed.
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 10_000, "split never completed");
            let frontier = run.frontier().expect("no stuck while splitting").choices;
            assert!(!frontier.is_empty(), "terminal before the split completed");
            if let Some((c, id)) = action(&frontier).filter(|_| run.next_action == 0) {
                run.apply(c, id).expect("apply split");
                continue;
            }
            let Some(&(c, id)) = frontier.iter().find(|(c, _)| *c != DistChoice::Action) else {
                // Only the merge action is on offer but the split has
                // not completed yet: drain one canonical head by hand.
                let head = run.enabled()[0];
                run.fire_key(head.key).expect("drain");
                continue;
            };
            run.apply(c, id).expect("apply delivery");
            if run.next_action == 1 && run.already_split(&ComponentId::root()) {
                break;
            }
        }

        // Now *withhold* the scripted merge and drain the network by
        // hand until the level estimator merges the children back on
        // its own (low traffic, many level ticks).
        let mut guard = 0usize;
        while run.already_split(&ComponentId::root())
            || !run.whole_and_unfrozen(&ComponentId::root())
        {
            guard += 1;
            assert!(guard < 100_000, "estimator never auto-merged");
            let head = *run.enabled().first().expect("network went empty mid-merge");
            run.fire_key(head.key).expect("drain towards auto-merge");
        }

        // The root is whole again and no split-list entry survives:
        // before the fix the scripted merge was now permanently
        // disabled and the run could only end Stuck. With ensure
        // semantics it is an enabled no-op.
        let frontier = run.frontier().expect("no stuck after auto-merge").choices;
        let (c, id) = action(&frontier)
            .expect("ensure-merge must stay enabled after the estimator auto-merge");
        run.apply(c, id).expect("apply merge as no-op");

        // The run terminates cleanly and every oracle holds.
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 10_000, "no quiescence after the no-op merge");
            let frontier = run.frontier().expect("no stuck finishing").choices;
            let Some(&(c, id)) = frontier.first() else { break };
            run.apply(c, id).expect("apply tail choice");
        }
        check_terminal(&run, &s.oracles).expect("oracles hold in the terminal state");
    }
}

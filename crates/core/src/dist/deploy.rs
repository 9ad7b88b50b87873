//! The harness around the protocol: the measurement [`Collector`], the
//! [`Proc`] the simulator hosts, and the [`Deployment`] that boots a
//! network and injects tokens, churn and crashes.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use acn_overlay::{NodeId, Ring};
use acn_simnet::{Context, DeliveryPolicy, Process, ProcessId, SimConfig, Simulator};
use acn_telemetry::{Counter, Histogram, Registry};
use acn_topology::{ComponentId, Cut};
use acn_trace::{Span, Tracer, SYSTEM_TRACE};

use crate::component::Component;

use super::dedup::{IdRuns, Ledger};
use super::msg::{Msg, COLLECTOR};
use super::node::{NodeProc, TIMER_FD, TIMER_LEVEL};
use super::world::{DistMetrics, World};

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
    /// End-to-end token identities already counted, as runs of
    /// consecutive ids: a handful, plus one per token lost for good.
    pub(super) seen: IdRuns,
    /// Test-only mutation switch mirroring
    /// [`World::test_disable_ack_dedup`]: skip the end-to-end dedup so
    /// the model checker can prove it would catch its removal.
    pub(super) mutation_no_dedup: bool,
    /// Telemetry: end-to-end token latency distribution.
    pub(super) latency_hist: Histogram,
    /// Telemetry: tokens collected.
    pub(super) exits: Counter,
    /// Telemetry: mirrors `duplicate_drops`.
    pub(super) dup_drops: Counter,
    /// Tracing: closes each token's trace on its first (counted) exit.
    pub(super) tracer: Tracer,
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
            seen: IdRuns::default(),
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
        let nodes: Vec<NodeId> = ring.nodes().collect();
        let world = World::new(w, ring);
        let mut sim = Simulator::with_policy(config, policy);
        let level_period = 2_000;
        for (i, node) in nodes.iter().enumerate() {
            let mut proc = NodeProc::new(Rc::clone(&world), *node, level_period);
            // Boot membership is configuration, not failure recovery:
            // every node starts with the full initial view. Everything
            // after boot (joins, leaves, crashes) travels via
            // `ViewGossip` and the failure detector.
            proc.seed_view(nodes.iter().copied());
            sim.add_process(ProcessId(node.0), Proc::Node(proc));
            // Stagger the level timers.
            let stagger = |step: u64| (i as u64 * step) % level_period;
            sim.set_timer_external(ProcessId(node.0), 1 + stagger(37), TIMER_LEVEL);
            // Stagger the failure-detector lease timers on a different
            // phase so fd and level ticks interleave.
            sim.set_timer_external(ProcessId(node.0), level_period / 2 + stagger(53), TIMER_FD);
        }
        sim.add_process(COLLECTOR, Proc::Collector(Collector::new(w)));
        // Install the root component at its owner.
        let root = ComponentId::root();
        let (owner, tree) = {
            let mut w = world.borrow_mut();
            (w.host_of(&root), w.tree)
        };
        if let Some(Proc::Node(np)) = sim.process_mut(ProcessId(owner.0)) {
            np.install(Component::new(&tree, &root), Ledger::default());
        }
        Deployment { sim, world, level_period, seed: s }
    }

    /// Routes the whole deployment's metrics into `registry`: the
    /// simulator's `acn.sim.*`, the runtime's `acn.dist.*` and
    /// `acn.estimator.*`, and the collector's token measurements. What
    /// happened when (a split, a merge, a level change, a crash) is a
    /// span, recorded by [`attach_tracer`](Self::attach_tracer).
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
    /// exit, count) plus the runtime's system spans (splits, merges,
    /// migrations, level changes, crashes, suspicions and rescues;
    /// DESIGN.md §10 lists them), all timestamped with the simulator's
    /// virtual clock, and the simulator's own wire-level spans.
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

    /// Disables **all three** token-dedup layers — the receiver-side
    /// GUID check, the components' travelling `(token, wire)` ledgers
    /// and the collector's end-to-end identity check.
    ///
    /// This is a **deliberately planted bug** for mutation-testing the
    /// distributed model checker (`acn-check`): with the defenses off,
    /// a retransmission racing its own ack is counted twice and the
    /// exactly-once oracle must catch it with a replayable schedule.
    /// (Disabling the node-side layers alone is masked by the
    /// collector — that is the point of defense in depth.)
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

    /// Entries the token-dedup layers hold right now: the guids every
    /// node has accepted and not yet forgotten, the ledger entries of
    /// every hosted component, and the runs of ids the collector has
    /// counted. With static membership this stays flat however many
    /// tokens pass; what makes it grow is churn (scattered guids) and
    /// tokens lost for good.
    #[must_use]
    pub fn dedup_entries(&self) -> usize {
        let nodes: usize = self
            .sim
            .process_ids()
            .filter_map(|pid| match self.sim.process(pid) {
                Some(Proc::Node(np)) => Some(
                    np.accepted.len() + np.components.values().map(|h| h.seen.len()).sum::<usize>(),
                ),
                _ => None,
            })
            .sum();
        nodes + self.collector().seen.runs()
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
        let (node, succ) = {
            let mut w = self.world.borrow_mut();
            let node = w.ring.add_random_node(&mut self.seed);
            (node, w.ring.successor(node))
        };
        let proc = NodeProc::new(Rc::clone(&self.world), node, self.level_period);
        self.sim.add_process(ProcessId(node.0), Proc::Node(proc));
        self.sim.set_timer_external(ProcessId(node.0), 1, TIMER_LEVEL);
        self.sim.set_timer_external(ProcessId(node.0), 1 + self.level_period / 2, TIMER_FD);
        if succ != node {
            let (known, dead) = (Rc::new(BTreeSet::from([node])), Rc::default());
            self.sim.send_external(ProcessId(succ.0), Msg::ViewGossip { known, dead });
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
            self.run_for(self.level_period);
        }
        let succ = {
            let mut w = self.world.borrow_mut();
            assert!(w.ring.len() > 1, "cannot remove the last node");
            w.ring.remove_node(node);
            w.ring.successor_of_point(node.0)
        };
        // The leaver tombstones itself and hands the split-list entries
        // it will not finish itself to the ring successor, via a
        // protocol message.
        let entries = match self.sim.process_mut(ProcessId(node.0)) {
            Some(Proc::Node(np)) => np.depart(),
            _ => Vec::new(),
        };
        if !entries.is_empty() {
            self.sim.send_external(ProcessId(succ.0), Msg::SplitListHandoff { entries });
        }
        // Announce the departure: the successor adopts the tombstone
        // and gossip floods it; every node's next migration sweep then
        // routes around the leaver, and the ghost sheds its own
        // components to the new owners.
        let known = Rc::new(BTreeSet::from([node]));
        let dead = Rc::clone(&known);
        self.sim.send_external(ProcessId(succ.0), Msg::ViewGossip { known, dead });
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
        let lost_components = match self.sim.process(ProcessId(node.0)) {
            Some(Proc::Node(np)) => np.components().count() as u64,
            _ => 0,
        };
        {
            let mut w = self.world.borrow_mut();
            if w.ring.len() <= 1 {
                return Err(CrashError::LastLiveNode);
            }
            w.ring.remove_node(node);
            w.metrics.crashes.inc();
            let now = self.sim.now();
            w.crashed.insert(node, now);
            w.tracer.record(
                Span::new("dist.crash", SYSTEM_TRACE)
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

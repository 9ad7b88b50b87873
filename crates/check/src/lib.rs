//! `acn-check`: the workspace's verification toolbox.
//!
//! Three pillars, all dependency-free (the workspace is vendored and
//! offline). The first two are one schedule explorer — exhaustive DFS
//! with sleep sets and state memoization, a seeded randomized
//! PCT-style mode, and choice-list replay, written once — driving two
//! kinds of run:
//!
//! 1. **A model checker for the `SyncApi`-generic concurrent
//!    executors.** [`VirtualSync`] routes every lock acquisition,
//!    atomic access, and join through a cooperative scheduler
//!    ([`sched`]); [`check`] explores the thread interleavings
//!    ([`explore`]), asserting the shared quiescent oracles
//!    ([`oracles`]) in every final state. Invariant violations print
//!    the full offending schedule, replayable by choice list
//!    ([`replay_schedule`]) or by seed.
//!
//! 2. **A protocol checker for the distributed runtime** ([`dist`],
//!    shipped as the `acn-dist-explore` and `acn-chaos` binaries): the
//!    real `acn_core::dist` node/collector processes run under
//!    `acn_simnet`'s external delivery policy while [`check_dist`]
//!    explores message schedules whose choice points include fault
//!    actions (drops, crashes, leaves, joins, forced splits/merges,
//!    timer preemptions). Every terminal state is checked against
//!    protocol oracles ([`dist::oracles`]): exactly-once counting, the
//!    step property, cut well-formedness, audit-clean snapshot import,
//!    and stabilization recovery. Failures print numbered
//!    seed-replayable schedules ([`replay_dist_schedule`]), and
//!    [`shrink`] minimizes them under the budget they were found with.
//!
//! 3. **Workspace discipline lints** ([`lint`], shipped as the
//!    `acn-lint` binary): line-level checks that hash-ordered
//!    collections stay out of the deterministic subsystems (`hash`),
//!    that every `Ordering::Relaxed` carries a justification
//!    (`relaxed`), that raw `std::sync` locks don't sneak past the
//!    `parking_lot` convention (`std-sync`), that no hand-rolled
//!    published-snapshot cell appears (`snapshot`), that protocol
//!    handlers and span construction draw no ambient nondeterminism
//!    (`determinism-seam`, `trace-determinism`), that the dist protocol
//!    layers do not read the harness's ground truth (`ground-truth`),
//!    and that every `unsafe` carries a safety argument
//!    (`unsafe-audit`).
//!
//! # Checking an executor
//!
//! ```
//! use acn_check::{check, vthread, CheckConfig, VirtualSync};
//! use acn_core::SharedAdaptiveNetwork;
//! use std::sync::Arc;
//!
//! let report = check(CheckConfig::exhaustive(), || {
//!     let net = Arc::new(SharedAdaptiveNetwork::<VirtualSync>::new_in(4));
//!     let handles: Vec<_> = (0..2)
//!         .map(|wire| {
//!             let net = Arc::clone(&net);
//!             vthread::spawn(move || net.next_value(wire))
//!         })
//!         .collect();
//!     let values: Vec<u64> = handles.into_iter().map(|h| h.join()).collect();
//!     acn_check::oracles::assert_values_dense(&values);
//!     acn_check::oracles::assert_network_quiescent(&net.output_counts(), 2);
//! });
//! report.assert_ok();
//! assert!(report.schedules > 1, "interleavings were actually explored");
//! ```

#![warn(missing_docs)]

pub mod dist;
mod engine;
pub mod explore;
pub mod history;
pub mod lint;
pub mod oracles;
pub mod rng;
pub mod sched;
pub mod shrink;
pub mod virtual_sync;
pub mod vthread;

pub use dist::{
    check_dist, replay_dist_schedule, DistAction, DistCheckConfig, DistChoice, DistFailure,
    DistFailureKind, DistReport, DistScenario, OracleConfig,
};
pub use explore::{check, replay_schedule, CheckConfig, Mode, Report};
pub use history::{CounterSpec, History, HistoryRecorder, OpRecord, SeqSpec};
pub use sched::{Choice, Failure, FailureKind, ScheduleStep};
pub use shrink::{shrink_dist, shrink_dist_choices, shrink_thread_choices, ShrinkStats, ShrunkDist};
pub use virtual_sync::VirtualSync;

//! Facade crate for the *Adaptive Counting Networks* reproduction
//! (Tirthapura, ICDCS 2005).
//!
//! This crate re-exports the member crates of the workspace so that
//! examples and downstream users can depend on a single package:
//!
//! - [`topology`] — the decomposition tree `T_w`, cuts, wiring, metrics.
//! - [`bitonic`] — static balancer-level counting networks and baselines.
//! - [`overlay`] — the simulated Chord-style peer-to-peer overlay.
//! - [`estimator`] — decentralized system-size and level estimation.
//! - [`simnet`] — the deterministic discrete-event message simulator.
//! - [`core`] — the adaptive counting network itself (local and
//!   distributed runtimes, split/merge protocols, routing).
//! - [`periodic`] — the adaptive *periodic* network: the paper's
//!   generality claim transferred to a second recursive decomposition.
//! - [`telemetry`] — the metrics registry (counters, gauges, log₂
//!   histograms, snapshots) used to observe all of the above (see
//!   `DESIGN.md` §6).
//! - [`trace`] — causal per-token span tracing, the flight recorder,
//!   and the Chrome `trace_event` exporter (see `DESIGN.md` §10).

pub use acn_bitonic as bitonic;
pub use acn_core as core;
pub use acn_estimator as estimator;
pub use acn_overlay as overlay;
pub use acn_periodic as periodic;
pub use acn_simnet as simnet;
pub use acn_telemetry as telemetry;
pub use acn_topology as topology;
pub use acn_trace as trace;

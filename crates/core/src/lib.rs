//! The adaptive counting network (Tirthapura, ICDCS 2005).
//!
//! This is the paper's primary contribution: a bitonic counting network
//! whose degree of parallelism adapts to the size of the distributed
//! system hosting it. The network is implemented by variable-width
//! *components* — the leaves of a cut of the decomposition tree `T_w`
//! (see [`acn_topology`]) — each of which is a single mod-`k` round-robin
//! counter living on one node of a Chord-style overlay. Components
//! *split* into their children when nodes estimate the system has grown
//! and *merge* back when it shrinks; all decisions are local, driven by
//! the size estimator of [`acn_estimator`].
//!
//! The crate provides three layers:
//!
//! - [`component`]: the component state machine and the split/merge
//!   state-transfer rules that preserve the counting invariant;
//! - [`local`]: [`LocalAdaptiveNetwork`], a single-address-space runtime
//!   — the reference implementation used to validate Theorem 2.1 (every
//!   cut counts) and the split/merge correctness, and the fastest way to
//!   embed an adaptive counting network in one process;
//! - [`manager`] and [`routing`]: the decentralized placement rules
//!   (Sections 3.2–3.3 of the paper) computing where components live and
//!   what the converged network looks like for a given overlay;
//! - [`dist`]: the full message-passing runtime on the deterministic
//!   simulator of [`acn_simnet`], one module per protocol layer — token
//!   routing and name probing (`wire`), freeze-and-transfer
//!   split/merge/migrate (`reconfig`), membership and failure detection
//!   (`view`), crash recovery (`rescue`).
//!
//! # Quick start
//!
//! ```
//! use acn_core::LocalAdaptiveNetwork;
//!
//! // An adaptive BITONIC[8] that starts as a single component.
//! let mut net = LocalAdaptiveNetwork::new(8);
//! assert_eq!(net.next_value(0), 0);
//! assert_eq!(net.next_value(5), 1);
//!
//! // Grow: split the root into six components; counting continues.
//! let root = acn_topology::ComponentId::root();
//! net.split(&root).unwrap();
//! assert_eq!(net.next_value(2), 2);
//! assert_eq!(net.next_value(0), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod concurrent;
pub mod dist;
pub mod frontend;
pub mod local;
pub mod manager;
pub mod matching;
pub mod routing;
pub mod service;
pub mod stabilize;

pub use component::Component;
pub use concurrent::SharedAdaptiveNetwork;
pub use frontend::ShardedFrontEnd;
pub use local::{AdaptError, LocalAdaptiveNetwork, TokenPos};
pub use manager::{ConvergedNetwork, NetworkSnapshot};
pub use matching::{MatchMaker, MatchOutcome};
pub use routing::{NeighborCache, ProbeStats};
pub use service::ElasticCounter;

//! The distributed, message-passing runtime of the adaptive counting
//! network, executing on the deterministic simulator of [`acn_simnet`].
//!
//! Every overlay node is a [`NodeProc`]; all interaction is via
//! [`Msg`] messages. The runtime implements, faithfully to the paper:
//!
//! - **token routing** (Section 3.5): tokens carry the cut-independent
//!   wire address of their destination. Each hosted component memoises,
//!   per output port, where the port leads and who hosts that (the
//!   out-neighbour cache), valid until the node's view, its hosted set
//!   or a guess of its owner-level cache changes; a hop over a warm
//!   route makes no lookup. On a miss the sender guesses the live
//!   owner from the per-node level cache and walks the ancestor name
//!   chain on a NACK (each guess is one DHT lookup in a real
//!   deployment). Tokens ride a
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
//!   oracle. None of them keeps what no copy can reach any more: every
//!   token send carries its link's ack watermark, and since links are
//!   FIFO the receiver forgets the guids it accepted below it, with the
//!   ledger entries they recorded; the collector keeps runs of counted
//!   ids. With static membership the dedup state stays flat however
//!   many tokens pass;
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
//!   obligations to the successor; crashes lose state, are detected by
//!   the crashed node's ring successor, and a rescue sweep it
//!   coordinates re-covers the cut.
//!
//! Exited tokens are reported to a collector process which serves as the
//! measurement endpoint for the experiments.
//!
//! # Layers
//!
//! One file per layer; each owns the state it names and handles the
//! messages and timers that touch it (DESIGN.md §13 has the full map):
//! `msg` is the wire format and the [`Token`] value; `view` the
//! membership CRDT, the hash ring kept over it, what a merge found new
//! and who is told how much of it (news to a known peer, the whole view
//! on first contact), and the failure detector (pure state, no
//! simulator); `wire` token routing, the lossy
//! send with its ack/nack/busy replies and the retry timer's backoff,
//! over `dedup`'s tables (the sender's ack watermarks, the accepted
//! guids, the component ledgers and the collector's id runs — pure,
//! like `view`);
//! `reconfig` split, merge and migrate by freeze-drain-forward;
//! `handoff` the one way a component they (or a rescue) place reaches
//! its hash owner: retained, acknowledged, re-driven; `rescue` the
//! crash-recovery sweep and its pure plan; `node` the [`NodeProc`]
//! struct, the level and failure-detector ticks, and a `Process` impl
//! that only dispatches. Around them: `world` (what a simulation shares:
//! harness ground truth, counters, telemetry handles — protocol code
//! only writes observations to it), `deploy` (the harness: collector and
//! [`Deployment`]) and `digest` (the explorer's state fingerprint).

mod dedup;
mod deploy;
mod digest;
mod handoff;
mod msg;
mod node;
mod reconfig;
mod rescue;
#[cfg(test)]
mod tests;
mod view;
mod wire;
mod world;

pub use deploy::{Collector, CrashError, Deployment, Proc};
pub use msg::{Msg, SeenTokens, Token, COLLECTOR};
pub use node::{force_merge_tag, force_split_tag, NodeProc};
pub use world::World;

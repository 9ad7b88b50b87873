//! The wire format: [`Msg`], the [`Token`] value a node holds between
//! messages, and the travelling [`SeenTokens`] ledger.

use std::collections::BTreeSet;
use std::rc::Rc;

use acn_overlay::NodeId;
use acn_simnet::ProcessId;
use acn_topology::{ComponentId, WireAddress};

use crate::component::Component;

/// Sentinel for "first try, use the cache" probing attempts.
pub(super) const ATTEMPT_CACHED: u8 = u8::MAX;

/// The process id of the measurement collector.
pub const COLLECTOR: ProcessId = ProcessId(u64::MAX - 1);

/// Messages of the distributed runtime.
///
/// Every pending event carries one `Msg` through the simulator's heap,
/// so the enum is kept small: ids and wire addresses are inline `Copy`
/// values, and the two variants that move a whole [`Component`] box it
/// (see the size guard below the enum).
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
    /// retransmission, and the three dedup layers of the module docs:
    /// the receiver's per-sender `guid` check, the covering component's
    /// `(token, addr)` ledger, and the collector's `token` check. The
    /// payload is a [`Token`] carried flat (see there); `acked_below`
    /// and `chained` tell the receiver what of the first two layers it
    /// may forget.
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
        hops: u32,
        /// The sender's ack watermark for this link: every guid below
        /// it that had a copy sent to the receiver is acked and had no
        /// copy sent anywhere else. The link is FIFO, so every such
        /// copy has arrived; the receiver drops the sender's guids
        /// below it, and the ledger entries they recorded.
        acked_below: u64,
        /// The token was drained from a frozen buffer: an earlier
        /// obligation already delivered this `(token, addr)` somewhere,
        /// so the receiver's ledger entry for it is kept for good.
        chained: bool,
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
    /// Put a component at the receiver, its hash owner per the sender's
    /// view: a split child, a merge result, a component re-homed by a
    /// join or leave, or a rescue sweep's fresh replacement. The sender
    /// keeps a copy until [`Msg::HandOffAck`], and sends it again — to
    /// whoever owns the name by then — once its view has tombstoned the
    /// receiver, so a crash of the receiver cannot lose the component.
    HandOff {
        /// The full component state.
        comp: Box<Component>,
        /// The travelling `(token, addr)` idempotency ledger, every
        /// entry kept for good: the parent's entries at the addresses a
        /// split child covers, the union of the children's for a merge
        /// result, the component's own on a migration, empty for a
        /// replacement.
        seen: SeenTokens,
        /// Tokens that were buffered at the component when it left.
        buffer: Vec<Token>,
    },
    /// The receiver covers the region of the [`Msg::HandOff`] — by this
    /// copy or by what it already had; the sender drops its copy.
    HandOffAck {
        /// The handed-off component.
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
        /// The frozen child's travelling idempotency ledger, every
        /// entry kept for good (unioned into the merge result's).
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
    /// Membership gossip: what the sender has just learned — or, to a
    /// receiver the sender has just learned *of*, everything it knows.
    /// Both sets only grow at every node (ids are never reused), so the
    /// receiver merges by plain union, in any order, and re-tells what
    /// was new to it. One broadcast shares its payload between all the
    /// messages that carry it.
    ViewGossip {
        /// Nodes the receiver may not know yet.
        known: Rc<BTreeSet<NodeId>>,
        /// Tombstones the receiver may not have yet: crashed or
        /// departed nodes.
        dead: Rc<BTreeSet<NodeId>>,
    },
    /// Rescue sweep: the coordinator (the suspector of a crash) asks a
    /// peer for the slice of the cut it covers.
    RescueQuery,
    /// Reply to [`Msg::RescueQuery`]: components this node covers —
    /// hosted ones plus every hand-off still awaiting its ack — with
    /// their frozen flags.
    RescueReport {
        /// `(component, frozen)` for everything this node covers.
        covered: Vec<(ComponentId, bool)>,
    },
    /// Backpressure NACK: the receiver's covering component is frozen
    /// and its buffer is full. The sender keeps the obligation and
    /// retries under escalated backoff.
    TokenBusy {
        /// The shed token's obligation id.
        guid: u64,
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

// `HandOff` and `CollectReply` box their `Component` (three `Vec`s and
// an id: 120 bytes). They are a handful per reconfiguration;
// `Token`/`TokenAck`/`Exit` are a dozen per token, and every one of them
// is sifted through the event heap at the size of the largest variant.
const _: () = assert!(std::mem::size_of::<Msg>() <= 64);

/// A token as a node holds it — while routing it, buffered at a frozen
/// component, riding a [`Msg::HandOff`], or awaiting an ack. On the
/// wire [`Msg::Token`] carries the same four fields flat: nested, the
/// 25-byte align-1 `WireAddress` would pad every `Msg` past 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Stable end-to-end identity (see [`Msg::Token`]).
    pub id: u64,
    /// The cut-independent destination wire.
    pub addr: WireAddress,
    /// Simulated time at which the token entered the network.
    pub injected_at: u64,
    /// Inter-node forwards taken so far.
    pub hops: u32,
}

/// What one send of a [`Token`] carries besides the token: the fields
/// of [`Msg::Token`] that name the send.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub(super) guid: u64,
    pub(super) attempt: u8,
    pub(super) acked_below: u64,
    pub(super) chained: bool,
}

impl Token {
    /// The wire form of one send of this token.
    pub(super) fn into_msg(self, h: Header) -> Msg {
        let Token { id, addr, injected_at, hops } = self;
        let Header { guid, attempt, acked_below, chained } = h;
        Msg::Token { guid, token: id, addr, injected_at, attempt, hops, acked_below, chained }
    }
}

/// A component's `(token, addr)` ledger as it travels: the entries
/// of a component handed to another node ([`Msg::HandOff`]) or
/// reported to a merge ([`Msg::CollectReply`]). A feed-forward network
/// processes each token at each wire address at most once, so a repeat
/// is a duplicate copy — the re-route of a timed-out retransmission
/// racing its merely-delayed original. The ledger **travels with the
/// component**: split children inherit the entries at addresses they
/// cover, a merge takes the union of the children's, and migration
/// carries it — so whichever node ends up hosting the covering
/// component can recognize the second copy, which per-node receiver
/// state cannot (the copies may land on different nodes). Keying on
/// `(token, addr)` rather than `token` alone keeps a merge from
/// swallowing a token that legitimately passed one child's region and
/// is still in flight towards a sibling's.
///
/// A hosted component also keeps entries *tagged* with the wire
/// arrival that recorded them, which the node forgets once the
/// sender's ack watermark shows no copy of that arrival can come back.
/// No receiver elsewhere knows those arrivals, so a component that
/// leaves its node carries every entry here, kept for good.
pub type SeenTokens = BTreeSet<(u64, WireAddress)>;

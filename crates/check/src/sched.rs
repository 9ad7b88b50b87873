//! The cooperative scheduler kernel behind `VirtualSync`.
//!
//! # Execution model
//!
//! A *checked execution* runs the scenario on real OS threads, but the
//! kernel lets **exactly one logical thread run at a time**. Before
//! every visible operation (atomic load/store/RMW, lock acquisition,
//! join) a worker parks in `Kernel::decision`; the controller (the
//! explorer in [`crate::explore`]) waits until every live thread is
//! parked, picks one enabled pending operation, applies its semantics
//! to the kernel's *virtual* object state, and grants that thread the
//! result. Workers therefore never block on real locks: lock
//! acquisition is a decision that is only granted when the virtual
//! lock is free, and the real (`std::sync`) cells protecting the data
//! are always uncontended.
//!
//! Lock **releases are not decisions**: a guard drop applies its
//! semantics immediately and execution continues to the holder's next
//! decision. This bundles each release with the preceding operation of
//! the same thread, which loses only interleavings distinguishable by
//! observing "lock currently held" without acquiring it — and the
//! [`acn_sync::SyncApi`] surface has no such operation (no `try_lock`).
//!
//! # Memory orderings
//!
//! The kernel *interprets* orderings instead of flattening everything
//! to sequential consistency, via per-atomic store histories and
//! vector clocks:
//!
//! - every store is recorded with the storing thread's vector clock;
//!   `Release`/`AcqRel`/`SeqCst` stores are marked as release stores;
//! - a `Relaxed` or `Acquire` **load** may read any store that is
//!   (a) not older than one the thread already read (per-thread
//!   coherence frontier) and (b) not older than the newest store that
//!   happens-before the load — each such candidate is a separate
//!   scheduling *variant*, so stale reads are explored exhaustively;
//! - an `Acquire`/`SeqCst` load that reads a release store joins the
//!   storer's clock (the synchronizes-with edge); a `Relaxed` load
//!   never does, which is exactly how missing-`Release`/`Acquire`
//!   publication bugs become reachable states;
//! - RMWs read the latest store (C++ guarantees RMWs read the last
//!   value in the modification order), `SeqCst` loads are approximated
//!   as reading the latest store;
//! - mutex/rwlock release publishes the holder's clock; acquisition
//!   joins it.
//!
//! This is an honest approximation, not a full axiomatic C11 model: it
//! catches lost-publication and stale-flag bugs while keeping the
//! state space explorable. The candidate window is capped at
//! [`MAX_LOAD_CANDIDATES`] stale stores.
//!
//! # Lock-order ranks
//!
//! Mutexes carry the rank declared via `SyncMutex::with_rank`. When a
//! thread that already holds a ranked lock acquires another ranked
//! lock of equal or lower rank, the kernel records a
//! [`FailureKind::LockOrder`] failure with the full schedule.

// The kernel deliberately builds on std primitives: it must not depend
// on the very abstraction layer it checks, and acn-check stays
// vendored-dependency-free.
// lint: std-sync-ok(the checker kernel cannot be built on the lock layer it model-checks)
use std::sync::{Condvar, Mutex, PoisonError};

use acn_sync::Ordering;

/// Logical thread id (dense, 0 = the scenario root thread).
pub type Tid = usize;

/// Cap on how many stale stores a weak load branches over.
pub const MAX_LOAD_CANDIDATES: usize = 3;

/// Panic payload used to unwind workers when an execution is aborted
/// (prune, failure elsewhere, or wind-down). The worker wrapper in
/// [`crate::vthread`] swallows it.
pub struct PoisonPayload;

/// A vector clock over logical threads.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, tid: Tid) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn tick(&mut self, tid: Tid) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            self.0[i] = self.0[i].max(v);
        }
    }
}

/// Memory ordering reduced to the classes the kernel distinguishes.
/// The derived order is by strength: `Relaxed < AcqRel < SeqCst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OrdClass {
    /// `Relaxed`.
    Relaxed,
    /// `Acquire` / `Release` / `AcqRel` (direction depends on the op).
    AcqRel,
    /// `SeqCst`.
    SeqCst,
}

impl OrdClass {
    fn of(order: Ordering) -> OrdClass {
        match order {
            // lint: relaxed-ok(matching on the Ordering enum to classify it, not performing an atomic access)
            Ordering::Relaxed => OrdClass::Relaxed,
            Ordering::SeqCst => OrdClass::SeqCst,
            _ => OrdClass::AcqRel,
        }
    }

    fn acquires(self) -> bool {
        !matches!(self, OrdClass::Relaxed)
    }

    fn releases(self) -> bool {
        !matches!(self, OrdClass::Relaxed)
    }
}

/// A visible operation a worker parks on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Atomic load.
    Load {
        /// Object id.
        obj: u64,
        /// Ordering class.
        ord: OrdClass,
    },
    /// Atomic store.
    Store {
        /// Object id.
        obj: u64,
        /// Value to store.
        value: u64,
        /// Ordering class.
        ord: OrdClass,
    },
    /// Atomic fetch-add (read-modify-write).
    RmwAdd {
        /// Object id.
        obj: u64,
        /// Addend.
        value: u64,
        /// Ordering class.
        ord: OrdClass,
    },
    /// Atomic compare-exchange (strong): a read-modify-write when the
    /// latest store equals `expected`, otherwise a load of the latest
    /// store. The returned value is the observed one; callers infer
    /// success from `observed == expected`.
    Cas {
        /// Object id.
        obj: u64,
        /// Value the exchange requires.
        expected: u64,
        /// Replacement value on success.
        new: u64,
        /// Ordering class (the success ordering; failures acquire
        /// whenever this class does).
        ord: OrdClass,
    },
    /// Blocking mutex acquisition (enabled only while free).
    MutexLock {
        /// Object id.
        obj: u64,
    },
    /// Shared rwlock acquisition (enabled while no writer).
    RwRead {
        /// Object id.
        obj: u64,
    },
    /// Exclusive rwlock acquisition (enabled while no readers/writer).
    RwWrite {
        /// Object id.
        obj: u64,
    },
    /// Join on another logical thread (enabled once it finished).
    Join {
        /// Thread to join.
        target: Tid,
    },
}

impl Op {
    /// The shared object this op touches (`None` for joins).
    #[must_use]
    pub fn obj(&self) -> Option<u64> {
        match self {
            Op::Load { obj, .. }
            | Op::Store { obj, .. }
            | Op::RmwAdd { obj, .. }
            | Op::Cas { obj, .. }
            | Op::MutexLock { obj }
            | Op::RwRead { obj }
            | Op::RwWrite { obj } => Some(*obj),
            Op::Join { .. } => None,
        }
    }

    /// Whether two pending/executed ops do **not** commute (same object
    /// and at least one of them writes or transfers ownership). The
    /// sleep-set wake rule uses this.
    #[must_use]
    pub fn dependent(&self, other: &Op) -> bool {
        match (self.obj(), other.obj()) {
            (Some(a), Some(b)) if a == b => !matches!(
                (self, other),
                (Op::Load { .. }, Op::Load { .. }) | (Op::RwRead { .. }, Op::RwRead { .. })
            ),
            _ => false,
        }
    }

    fn describe(&self) -> String {
        match self {
            Op::Load { obj, ord } => format!("load(a{obj},{ord:?})"),
            Op::Store { obj, value, ord } => format!("store(a{obj}={value},{ord:?})"),
            Op::RmwAdd { obj, value, ord } => format!("rmw(a{obj}+={value},{ord:?})"),
            Op::Cas { obj, expected, new, ord } => {
                format!("cas(a{obj}:{expected}=>{new},{ord:?})")
            }
            Op::MutexLock { obj } => format!("lock(m{obj})"),
            Op::RwRead { obj } => format!("read(rw{obj})"),
            Op::RwWrite { obj } => format!("write(rw{obj})"),
            Op::Join { target } => format!("join(t{target})"),
        }
    }
}

/// One granted step of a schedule, as printed in failure reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The thread that ran.
    pub tid: Tid,
    /// Which variant of the op was granted (loads: which store was
    /// read, newest candidate = 0).
    pub variant: u32,
    /// Human-readable op description with the observed result.
    pub desc: String,
}

/// A scheduling choice: which thread runs, and (for weak loads) which
/// visible store it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Choice {
    /// Thread granted.
    pub tid: Tid,
    /// Variant index (0 unless the op branches over stale stores).
    pub variant: u32,
}

/// Why a check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A worker panicked (oracle assertion, `unwrap`, ...).
    Panic,
    /// Ranked locks acquired out of order.
    LockOrder,
    /// No pending operation was enabled.
    Deadlock,
    /// An execution exceeded the step bound.
    DepthExceeded,
}

/// A failed schedule: everything needed to print and replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Human-readable diagnosis.
    pub message: String,
    /// The granted steps, in order.
    pub schedule: Vec<ScheduleStep>,
    /// The replayable choice sequence (`replay_schedule` re-runs it).
    pub choices: Vec<Choice>,
    /// The iteration seed, when found by the randomized mode.
    pub seed: Option<u64>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:?}: {}", self.kind, self.message)?;
        writeln!(f, "offending schedule ({} steps):", self.schedule.len())?;
        for (i, step) in self.schedule.iter().enumerate() {
            writeln!(f, "  {i:>3}: t{} {}", step.tid, step.desc)?;
        }
        let encoded: Vec<String> =
            self.choices.iter().map(|c| format!("{}:{}", c.tid, c.variant)).collect();
        writeln!(f, "replay choices: [{}]", encoded.join(", "))?;
        if let Some(seed) = self.seed {
            writeln!(f, "replay seed: {seed} (random mode)")?;
        }
        Ok(())
    }
}

/// One recorded store of an atomic's modification order.
#[derive(Debug, Clone, Hash)]
struct StoreRec {
    value: u64,
    vc: VClock,
    tid: Tid,
    release: bool,
}

#[derive(Debug, Hash)]
enum ObjRec {
    Atomic {
        history: Vec<StoreRec>,
    },
    Mutex {
        rank: u64,
        held_by: Option<Tid>,
        data_hash: u64,
        release_clock: VClock,
    },
    Rw {
        readers: Vec<Tid>,
        writer: Option<Tid>,
        data_hash: u64,
        release_clock: VClock,
        /// Join of every read-release so far. A write acquisition
        /// synchronizes with *all* prior unlocks (read and write) —
        /// that is what makes "write-lock to drain readers, then
        /// observe their plain/relaxed effects" protocols sound, and
        /// real rwlocks (parking_lot included) guarantee it.
        reader_clock: VClock,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Status {
    Running,
    Parked(Op),
    Finished,
}

#[derive(Debug, Hash)]
struct ThreadRec {
    status: Status,
    clock: VClock,
    /// Folded hash of everything this thread has observed; part of the
    /// state fingerprint so threads in "the same state" really will
    /// behave identically.
    obs: u64,
    /// Held ranked mutexes `(obj, rank)` in acquisition order.
    held: Vec<(u64, u64)>,
    /// Per-atomic coherence frontier: the newest store index already
    /// read.
    frontier: std::collections::BTreeMap<u64, usize>,
    /// Whether some thread has already joined this one. A finished,
    /// joined thread is inert: its handle is consumed, so no future op
    /// can observe its record (see
    /// [`Kernel::canonical_fingerprint`]'s `symmetric` mode).
    joined: bool,
}

#[derive(Debug)]
struct KState {
    threads: Vec<ThreadRec>,
    objects: Vec<ObjRec>,
    grant: Option<(Tid, GrantMsg)>,
    failure: Option<Failure>,
    schedule: Vec<ScheduleStep>,
    choices: Vec<Choice>,
    /// Objects released since the last decision node (wake info for
    /// sleep sets: releases are bundled with the preceding op).
    touched: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
enum GrantMsg {
    Go(u64),
    Poison,
}

/// A pending operation at a decision node, as seen by the explorer.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The parked thread.
    pub tid: Tid,
    /// Its pending op.
    pub op: Op,
    /// Whether the op can be granted now.
    pub enabled: bool,
    /// How many variants the op has (loads branching over stale
    /// stores; 1 otherwise).
    pub variants: u32,
}

/// What the controller found after waiting for quiescence.
#[derive(Debug)]
pub enum WaitOutcome {
    /// Every logical thread finished; the execution is complete.
    AllFinished,
    /// All live threads are parked; time for a scheduling decision.
    Node(Vec<Pending>),
    /// A failure was recorded (worker panic); wind down.
    Failed,
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

pub(crate) fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::hash::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The scheduler kernel: one per checked execution.
pub struct Kernel {
    state: Mutex<KState>,
    worker_cv: Condvar,
    ctrl_cv: Condvar,
    real_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Kernel {
    /// A fresh kernel with the root thread (tid 0) registered as
    /// running.
    #[must_use]
    pub fn new() -> Kernel {
        Kernel {
            state: Mutex::new(KState {
                threads: vec![ThreadRec {
                    status: Status::Running,
                    clock: VClock::default(),
                    obs: 0,
                    held: Vec::new(),
                    frontier: std::collections::BTreeMap::new(),
                    joined: false,
                }],
                objects: Vec::new(),
                grant: None,
                failure: None,
                schedule: Vec::new(),
                choices: Vec::new(),
                touched: Vec::new(),
            }),
            worker_cv: Condvar::new(),
            ctrl_cv: Condvar::new(),
            real_handles: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, KState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps a real thread handle for end-of-execution joining.
    pub(crate) fn adopt_handle(&self, handle: std::thread::JoinHandle<()>) {
        self.real_handles.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
    }

    // ------------------------------------------------------------------
    // Worker-side API (called from controlled threads via `vthread`).
    // ------------------------------------------------------------------

    /// Registers a new atomic initialized to `value`; returns its id.
    pub(crate) fn register_atomic(&self, value: u64) -> u64 {
        let mut st = self.lock();
        let id = st.objects.len() as u64;
        st.objects.push(ObjRec::Atomic {
            history: vec![StoreRec { value, vc: VClock::default(), tid: 0, release: true }],
        });
        id
    }

    /// Registers a new mutex (with the given data hash and rank).
    pub(crate) fn register_mutex(&self, data_hash: u64, rank: u64) -> u64 {
        let mut st = self.lock();
        let id = st.objects.len() as u64;
        st.objects.push(ObjRec::Mutex {
            rank,
            held_by: None,
            data_hash,
            release_clock: VClock::default(),
        });
        id
    }

    /// Registers a new rwlock (with the given data hash).
    pub(crate) fn register_rw(&self, data_hash: u64) -> u64 {
        let mut st = self.lock();
        let id = st.objects.len() as u64;
        st.objects.push(ObjRec::Rw {
            readers: Vec::new(),
            writer: None,
            data_hash,
            release_clock: VClock::default(),
            reader_clock: VClock::default(),
        });
        id
    }

    /// Registers a newly spawned logical thread (child of `parent`);
    /// the child starts in `Running` and inherits the parent's clock.
    pub(crate) fn spawn_thread(&self, parent: Tid) -> Tid {
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads[parent].clock.tick(parent);
        let mut clock = st.threads[parent].clock.clone();
        clock.tick(tid);
        st.threads.push(ThreadRec {
            status: Status::Running,
            clock,
            obs: 0,
            held: Vec::new(),
            frontier: std::collections::BTreeMap::new(),
            joined: false,
        });
        tid
    }

    /// Parks the calling worker on `op` and blocks until the controller
    /// grants it, returning the op's result.
    ///
    /// # Panics
    ///
    /// Panics with [`PoisonPayload`] when the controller winds the
    /// execution down; the `vthread` wrapper swallows that payload.
    pub(crate) fn decision(&self, tid: Tid, op: Op) -> u64 {
        let mut st = self.lock();
        st.threads[tid].status = Status::Parked(op);
        self.ctrl_cv.notify_all();
        loop {
            if let Some((target, msg)) = st.grant {
                if target == tid {
                    st.grant = None;
                    match msg {
                        GrantMsg::Go(result) => return result,
                        GrantMsg::Poison => {
                            drop(st);
                            std::panic::panic_any(PoisonPayload);
                        }
                    }
                }
            }
            st = self.worker_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Applies a mutex release (guard drop): frees the virtual lock,
    /// publishes the holder's clock and the new data hash. Not a
    /// decision — see the module docs.
    pub(crate) fn mutex_release(&self, tid: Tid, obj: u64, new_data_hash: u64) {
        let mut st = self.lock();
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        st.threads[tid].held.retain(|&(o, _)| o != obj);
        if let ObjRec::Mutex { held_by, data_hash, release_clock, .. } =
            &mut st.objects[obj as usize]
        {
            debug_assert_eq!(*held_by, Some(tid));
            *held_by = None;
            *data_hash = new_data_hash;
            *release_clock = clock;
        }
        st.touched.push(obj);
    }

    /// Applies a rwlock read release. The reader's clock is folded
    /// into the lock's `reader_clock` so a later *write* acquisition
    /// happens-after everything the reader did while pinned (readers
    /// do not synchronize with one another).
    pub(crate) fn rw_read_release(&self, tid: Tid, obj: u64) {
        let mut st = self.lock();
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        if let ObjRec::Rw { readers, reader_clock, .. } = &mut st.objects[obj as usize] {
            if let Some(pos) = readers.iter().position(|&r| r == tid) {
                readers.swap_remove(pos);
            }
            reader_clock.join(&clock);
        }
        st.touched.push(obj);
    }

    /// Applies a rwlock write release (publishes clock + data hash).
    pub(crate) fn rw_write_release(&self, tid: Tid, obj: u64, new_data_hash: u64) {
        let mut st = self.lock();
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock.clone();
        if let ObjRec::Rw { writer, data_hash, release_clock, .. } =
            &mut st.objects[obj as usize]
        {
            debug_assert_eq!(*writer, Some(tid));
            *writer = None;
            *data_hash = new_data_hash;
            *release_clock = clock;
        }
        st.touched.push(obj);
    }

    /// Marks a worker finished. A non-poison panic message records a
    /// [`FailureKind::Panic`] failure carrying the schedule so far.
    pub(crate) fn finish_thread(&self, tid: Tid, panic_message: Option<String>) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        if let Some(message) = panic_message {
            if st.failure.is_none() {
                let failure = Failure {
                    kind: FailureKind::Panic,
                    message: format!("thread t{tid} panicked: {message}"),
                    schedule: st.schedule.clone(),
                    choices: st.choices.clone(),
                    seed: None,
                };
                st.failure = Some(failure);
            }
        }
        self.ctrl_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Controller-side API (called from the explorer).
    // ------------------------------------------------------------------

    /// Blocks until every live thread is parked (or all finished, or a
    /// failure was recorded).
    pub fn wait_quiescent(&self) -> WaitOutcome {
        let mut st = self.lock();
        loop {
            if st.failure.is_some() {
                return WaitOutcome::Failed;
            }
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                return WaitOutcome::AllFinished;
            }
            if st.threads.iter().all(|t| !matches!(t.status, Status::Running)) {
                let pending = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(tid, t)| match &t.status {
                        Status::Parked(op) => Some(Pending {
                            tid,
                            op: op.clone(),
                            enabled: Self::enabled(&st, tid, op),
                            variants: Self::variants(&st, tid, op),
                        }),
                        _ => None,
                    })
                    .collect();
                return WaitOutcome::Node(pending);
            }
            st = self.ctrl_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn enabled(st: &KState, tid: Tid, op: &Op) -> bool {
        match op {
            Op::MutexLock { obj } => matches!(
                &st.objects[*obj as usize],
                ObjRec::Mutex { held_by: None, .. }
            ),
            Op::RwRead { obj } => {
                matches!(&st.objects[*obj as usize], ObjRec::Rw { writer: None, .. })
            }
            Op::RwWrite { obj } => matches!(
                &st.objects[*obj as usize],
                ObjRec::Rw { writer: None, readers, .. } if readers.is_empty()
            ),
            Op::Join { target } => st.threads[*target].status == Status::Finished,
            _ => {
                let _ = tid;
                true
            }
        }
    }

    /// The store-history indices a load by `tid` may read, newest
    /// first.
    fn load_candidates(st: &KState, tid: Tid, obj: u64, ord: OrdClass) -> Vec<usize> {
        let ObjRec::Atomic { history } = &st.objects[obj as usize] else {
            unreachable!("load on non-atomic object");
        };
        let latest = history.len() - 1;
        if ord == OrdClass::SeqCst {
            // Approximation: SeqCst accesses behave sequentially
            // consistently.
            return vec![latest];
        }
        let frontier = st.threads[tid].frontier.get(&obj).copied().unwrap_or(0);
        // The newest store that happens-before the load: reading
        // anything older would violate coherence + happens-before.
        let clock = &st.threads[tid].clock;
        let hb_min = history
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| s.vc.get(s.tid) <= clock.get(s.tid))
            .map_or(0, |(i, _)| i);
        let min = frontier.max(hb_min);
        (min..=latest).rev().take(MAX_LOAD_CANDIDATES).collect()
    }

    fn variants(st: &KState, tid: Tid, op: &Op) -> u32 {
        match op {
            Op::Load { obj, ord } => Self::load_candidates(st, tid, *obj, *ord).len() as u32,
            _ => 1,
        }
    }

    /// Grants `choice` (which must be enabled): applies the op's
    /// semantics, records the schedule step, and wakes the thread.
    pub fn grant(&self, choice: Choice) {
        let mut st = self.lock();
        let tid = choice.tid;
        let Status::Parked(op) = st.threads[tid].status.clone() else {
            panic!("granting a thread that is not parked: t{tid}");
        };
        debug_assert!(Self::enabled(&st, tid, &op), "granting a disabled op: {op:?}");
        st.threads[tid].clock.tick(tid);
        let result = match &op {
            Op::Load { obj, ord } => {
                let candidates = Self::load_candidates(&st, tid, *obj, *ord);
                let idx = candidates[choice.variant as usize];
                let ObjRec::Atomic { history } = &st.objects[*obj as usize] else {
                    unreachable!()
                };
                let rec = history[idx].clone();
                st.threads[tid].frontier.insert(*obj, idx);
                if ord.acquires() && rec.release {
                    let vc = rec.vc.clone();
                    st.threads[tid].clock.join(&vc);
                }
                rec.value
            }
            Op::Store { obj, value, ord } => {
                let vc = st.threads[tid].clock.clone();
                let release = ord.releases();
                let ObjRec::Atomic { history } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                history.push(StoreRec { value: *value, vc, tid, release });
                let idx = history.len() - 1;
                st.threads[tid].frontier.insert(*obj, idx);
                *value
            }
            Op::RmwAdd { obj, value, ord } => {
                // RMWs read the latest store in the modification order.
                let (old, joins) = {
                    let ObjRec::Atomic { history } = &st.objects[*obj as usize] else {
                        unreachable!()
                    };
                    let last = history.last().expect("history starts with init");
                    (last.value, (ord.acquires() && last.release).then(|| last.vc.clone()))
                };
                if let Some(vc) = joins {
                    st.threads[tid].clock.join(&vc);
                }
                let vc = st.threads[tid].clock.clone();
                let release = ord.releases();
                let new = old.wrapping_add(*value);
                let ObjRec::Atomic { history } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                history.push(StoreRec { value: new, vc, tid, release });
                let idx = history.len() - 1;
                st.threads[tid].frontier.insert(*obj, idx);
                old
            }
            Op::Cas { obj, expected, new, ord } => {
                // Like every RMW, a compare-exchange reads the latest
                // store in the modification order (a failed strong CAS
                // is modeled as a load of the latest store — a legal
                // and coherence-maximal choice).
                let (old, joins) = {
                    let ObjRec::Atomic { history } = &st.objects[*obj as usize] else {
                        unreachable!()
                    };
                    let last = history.last().expect("history starts with init");
                    (last.value, (ord.acquires() && last.release).then(|| last.vc.clone()))
                };
                if let Some(vc) = joins {
                    st.threads[tid].clock.join(&vc);
                }
                let vc = st.threads[tid].clock.clone();
                let release = ord.releases();
                let ObjRec::Atomic { history } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                if old == *expected {
                    history.push(StoreRec { value: *new, vc, tid, release });
                }
                let idx = history.len() - 1;
                st.threads[tid].frontier.insert(*obj, idx);
                old
            }
            Op::MutexLock { obj } => {
                let (free, rank, data_hash, release_clock) = {
                    let ObjRec::Mutex { held_by, rank, data_hash, release_clock } =
                        &st.objects[*obj as usize]
                    else {
                        unreachable!()
                    };
                    (held_by.is_none(), *rank, *data_hash, release_clock.clone())
                };
                debug_assert!(free, "blocking lock granted while held");
                // Dynamic lock-order check over ranked locks.
                let worst = st.threads[tid]
                    .held
                    .iter()
                    .filter(|&&(_, r)| r > 0)
                    .map(|&(o, r)| (o, r))
                    .max_by_key(|&(_, r)| r);
                if rank > 0 {
                    if let Some((held_obj, held_rank)) = worst {
                        if rank <= held_rank && st.failure.is_none() {
                            let mut schedule = st.schedule.clone();
                            schedule.push(ScheduleStep {
                                tid,
                                variant: 0,
                                desc: format!("{} [out of order]", op.describe()),
                            });
                            st.failure = Some(Failure {
                                kind: FailureKind::LockOrder,
                                message: format!(
                                    "t{tid} acquired m{obj} (rank {rank:#x}) while \
                                     holding m{held_obj} (rank {held_rank:#x}); ranked \
                                     locks must be taken in ascending rank order"
                                ),
                                schedule,
                                choices: st.choices.clone(),
                                seed: None,
                            });
                        }
                    }
                }
                let ObjRec::Mutex { held_by, .. } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                *held_by = Some(tid);
                st.threads[tid].held.push((*obj, rank));
                st.threads[tid].clock.join(&release_clock);
                st.threads[tid].obs ^= mix64(data_hash);
                1 // acquired
            }
            Op::RwRead { obj } => {
                let (data_hash, release_clock) = {
                    let ObjRec::Rw { data_hash, release_clock, .. } =
                        &st.objects[*obj as usize]
                    else {
                        unreachable!()
                    };
                    (*data_hash, release_clock.clone())
                };
                let ObjRec::Rw { readers, .. } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                readers.push(tid);
                st.threads[tid].clock.join(&release_clock);
                st.threads[tid].obs ^= mix64(data_hash);
                0
            }
            Op::RwWrite { obj } => {
                let (data_hash, release_clock, reader_clock) = {
                    let ObjRec::Rw { data_hash, release_clock, reader_clock, .. } =
                        &st.objects[*obj as usize]
                    else {
                        unreachable!()
                    };
                    (*data_hash, release_clock.clone(), reader_clock.clone())
                };
                let ObjRec::Rw { writer, .. } = &mut st.objects[*obj as usize] else {
                    unreachable!()
                };
                *writer = Some(tid);
                // A write acquisition synchronizes with every prior
                // unlock: the last write release *and* all read
                // releases (drained readers' effects become visible).
                st.threads[tid].clock.join(&release_clock);
                st.threads[tid].clock.join(&reader_clock);
                st.threads[tid].obs ^= mix64(data_hash);
                0
            }
            Op::Join { target } => {
                let target_clock = st.threads[*target].clock.clone();
                st.threads[tid].clock.join(&target_clock);
                st.threads[*target].joined = true;
                0
            }
        };
        let desc = format!("{} -> {result}", op.describe());
        st.threads[tid].obs =
            mix64(st.threads[tid].obs ^ hash_of(&(op.clone(), result, choice.variant)));
        st.schedule.push(ScheduleStep { tid, variant: choice.variant, desc });
        st.choices.push(choice);
        st.threads[tid].status = Status::Running;
        st.grant = Some((tid, GrantMsg::Go(result)));
        self.worker_cv.notify_all();
    }

    /// Drains the objects released since the last call (wake
    /// information for sleep sets).
    pub fn take_touched(&self) -> Vec<u64> {
        std::mem::take(&mut self.lock().touched)
    }

    /// Whether logical thread `tid` has finished.
    #[must_use]
    pub fn is_finished(&self, tid: Tid) -> bool {
        self.lock().threads[tid].status == Status::Finished
    }

    /// The schedule granted so far (for failure construction by the
    /// explorer).
    #[must_use]
    pub fn schedule(&self) -> (Vec<ScheduleStep>, Vec<Choice>) {
        let st = self.lock();
        (st.schedule.clone(), st.choices.clone())
    }

    /// The failure recorded by a worker or the kernel, if any.
    #[must_use]
    pub fn take_failure(&self) -> Option<Failure> {
        self.lock().failure.take()
    }

    /// A fingerprint of the entire virtual state: object states,
    /// thread clocks/observation hashes/pending ops. Two executions at
    /// nodes with equal fingerprints have identical continuations, so
    /// the explorer may prune (subject to its sleep-set bookkeeping).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let st = self.lock();
        debug_assert!(st.touched.is_empty(), "fingerprint before draining wake info");
        hash_of(&(&st.objects, &st.threads))
    }

    /// A *canonical* state fingerprint: like
    /// [`fingerprint`](Self::fingerprint), but quotiented by state
    /// differences no future operation can observe, so more
    /// genuinely-equivalent interleavings collapse to one memo entry.
    ///
    /// Two reductions apply:
    ///
    /// - **Dead-store truncation.** For every atomic, the prefix of the
    ///   modification order that *no* live thread may ever read again is
    ///   dropped before hashing. A load by thread `t` is bounded below
    ///   by `t`'s happens-before minimum (`hb_min`, the newest store
    ///   with `s.vc[s.tid] <= clock_t[s.tid]`), and `hb_min` is
    ///   monotone in the clock — so the minimum of `hb_min` over all
    ///   non-finished threads is a sound cutoff even for threads
    ///   spawned later (a child inherits its parent's clock, never a
    ///   smaller one). Per-thread coherence frontiers are rebased to
    ///   the truncated indexing (entries that rebase to the implicit
    ///   floor 0 are dropped). States that differ only in how a
    ///   now-invisible write order came about become equal.
    ///
    /// - **Inert-thread bucketing** (only when `symmetric`). A thread
    ///   that is `Finished` *and* already joined is inert: its handle
    ///   is consumed (join handles are affine, so a second join can
    ///   never be issued) and no kernel op reads its record again. Its
    ///   entire record hashes as a constant. This is opt-in because it
    ///   additionally forgets the inert thread's observation hash —
    ///   sound for the kernel's state machine, but intentionally
    ///   separate so the default canonical mode stays a pure
    ///   dead-store quotient.
    ///
    /// Both reductions only ever *merge* states whose continuations are
    /// behaviourally identical; a hash collision (as with the plain
    /// fingerprint) can at worst suppress exploration of a schedule,
    /// never produce a false failure.
    #[must_use]
    pub fn canonical_fingerprint(&self, symmetric: bool) -> u64 {
        use std::hash::{Hash, Hasher};
        let st = self.lock();
        debug_assert!(st.touched.is_empty(), "fingerprint before draining wake info");
        // Per-atomic cutoff: the oldest store index any non-finished
        // thread may still read. At least the newest store survives.
        let mut cuts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for (obj, rec) in st.objects.iter().enumerate() {
            let ObjRec::Atomic { history } = rec else { continue };
            let mut cut = history.len() - 1;
            for t in &st.threads {
                if t.status == Status::Finished {
                    continue;
                }
                let hb_min = history
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, s)| s.vc.get(s.tid) <= t.clock.get(s.tid))
                    .map_or(0, |(i, _)| i);
                cut = cut.min(hb_min);
            }
            cuts.insert(obj as u64, cut);
        }
        let mut h = std::hash::DefaultHasher::new();
        st.objects.len().hash(&mut h);
        for (obj, rec) in st.objects.iter().enumerate() {
            match rec {
                ObjRec::Atomic { history } => {
                    let cut = cuts[&(obj as u64)];
                    0u8.hash(&mut h);
                    history[cut..].hash(&mut h);
                }
                other => {
                    1u8.hash(&mut h);
                    other.hash(&mut h);
                }
            }
        }
        st.threads.len().hash(&mut h);
        for t in &st.threads {
            if symmetric && t.joined && t.status == Status::Finished {
                u64::MAX.hash(&mut h);
                continue;
            }
            t.status.hash(&mut h);
            t.clock.hash(&mut h);
            t.obs.hash(&mut h);
            t.held.hash(&mut h);
            let rebased: Vec<(u64, usize)> = t
                .frontier
                .iter()
                .filter_map(|(&obj, &idx)| {
                    let cut = cuts.get(&obj).copied().unwrap_or(0);
                    let r = idx.max(cut) - cut;
                    (r != 0).then_some((obj, r))
                })
                .collect();
            rebased.hash(&mut h);
        }
        h.finish()
    }

    /// Winds the execution down: repeatedly grants a poison to every
    /// parked thread until all logical threads finish, then joins the
    /// real threads.
    pub fn poison_and_join(&self) {
        loop {
            let mut st = self.lock();
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                break;
            }
            if st.grant.is_none() {
                let parked = st
                    .threads
                    .iter()
                    .position(|t| matches!(t.status, Status::Parked(_)));
                if let Some(tid) = parked {
                    st.threads[tid].status = Status::Running;
                    st.grant = Some((tid, GrantMsg::Poison));
                    self.worker_cv.notify_all();
                }
            }
            let (guard, _timeout) = self
                .ctrl_cv
                .wait_timeout(st, std::time::Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
        let handles =
            std::mem::take(&mut *self.real_handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

/// Maps an [`Ordering`] to the kernel's class (public for
/// `virtual_sync`).
#[must_use]
pub fn ord_class(order: Ordering) -> OrdClass {
    OrdClass::of(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vclock_join_and_tick() {
        let mut a = VClock::default();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::default();
        b.tick(1);
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        assert!(a.get(1) == 0);
    }

    #[test]
    fn dependence_is_object_and_write_sensitive() {
        let load = Op::Load { obj: 3, ord: OrdClass::Relaxed };
        let load2 = Op::Load { obj: 3, ord: OrdClass::SeqCst };
        let store = Op::Store { obj: 3, value: 1, ord: OrdClass::Relaxed };
        let other = Op::Store { obj: 4, value: 1, ord: OrdClass::Relaxed };
        let lock = Op::MutexLock { obj: 7 };
        assert!(!load.dependent(&load2), "two loads commute");
        assert!(load.dependent(&store));
        assert!(!store.dependent(&other), "different objects commute");
        assert!(lock.dependent(&lock.clone()), "lock ops on one mutex conflict");
        let rr = Op::RwRead { obj: 9 };
        let rw = Op::RwWrite { obj: 9 };
        assert!(!rr.dependent(&rr.clone()), "shared reads commute");
        assert!(rr.dependent(&rw));
        assert!(!lock.dependent(&Op::Join { target: 1 }));
    }

    #[test]
    fn failure_display_is_replayable() {
        let f = Failure {
            kind: FailureKind::Panic,
            message: "step property violated".into(),
            schedule: vec![
                ScheduleStep { tid: 1, variant: 0, desc: "lock(m0) -> 1".into() },
                ScheduleStep { tid: 2, variant: 1, desc: "load(a1,Relaxed) -> 0".into() },
            ],
            choices: vec![Choice { tid: 1, variant: 0 }, Choice { tid: 2, variant: 1 }],
            seed: Some(99),
        };
        let text = f.to_string();
        assert!(text.contains("t1 lock(m0)"), "{text}");
        assert!(text.contains("replay choices: [1:0, 2:1]"), "{text}");
        assert!(text.contains("replay seed: 99"), "{text}");
    }
}

//! `VirtualSync`: the [`SyncApi`] implementation that routes every
//! primitive through the model-checking scheduler.
//!
//! Data still lives in real `std::sync` cells — but because the kernel
//! only ever lets one logical thread run, and only grants a lock
//! decision while the *virtual* lock is free, those cells are always
//! uncontended: they exist purely to hand out `&mut T` with the same
//! guard shapes production code uses. All contention, blocking, and
//! memory-ordering semantics live in the kernel ([`crate::sched`]).
//!
//! Instantiate the workspace executors with this to model-check them:
//! `SharedAdaptiveNetwork::<VirtualSync>::new_in(w)`,
//! `AtomicNetworkCounter::<VirtualSync>::new_in(net)`.

// lint: std-sync-ok(uncontended data cells behind the checker kernel; see module docs)
use std::sync::PoisonError;
use std::sync::Arc;

use acn_sync::{Ordering, SyncApi, SyncAtomicU64, SyncData, SyncMutex, SyncRwLock, SyncSnapshot};

use crate::sched::{hash_of, ord_class, Kernel, Op, Tid};
use crate::vthread::with_kernel;

/// The model-checked synchronization family. See the module docs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VirtualSync;

impl SyncApi for VirtualSync {
    type AtomicU64 = VAtomicU64;
    type Mutex<T: SyncData> = VMutex<T>;
    type RwLock<T: SyncData + Sync> = VRwLock<T>;
    type Snapshot<T: SyncData + Sync> = VSnapshot<T>;

    /// A deterministic logical tick. Deliberately **not** a kernel
    /// decision: tracing is observation-only, so taking a timestamp
    /// must not create a scheduling point (it would change the
    /// explored interleaving space). A process-wide counter under the
    /// cooperative scheduler advances in program order, which is all
    /// monotonicity asks for.
    fn monotonic_now() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICKS: AtomicU64 = AtomicU64::new(0);
        // lint: relaxed-ok(single kernel thread; the counter only needs per-call uniqueness and program-order monotonicity)
        TICKS.fetch_add(1, Ordering::Relaxed)
    }
}

/// A checked atomic: state lives in the kernel's store history.
#[derive(Debug)]
pub struct VAtomicU64 {
    obj: u64,
}

impl std::hash::Hash for VAtomicU64 {
    /// Hashes the kernel object id (stable across executions because
    /// registration order is deterministic). The atomic's *value* is
    /// fingerprinted by the kernel itself.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.obj.hash(state);
    }
}

impl SyncAtomicU64 for VAtomicU64 {
    fn new(value: u64) -> Self {
        VAtomicU64 { obj: with_kernel(|kernel, _| kernel.register_atomic(value)) }
    }

    fn load(&self, order: Ordering) -> u64 {
        let op = Op::Load { obj: self.obj, ord: ord_class(order) };
        with_kernel(|kernel, tid| kernel.decision(tid, op))
    }

    fn store(&self, value: u64, order: Ordering) {
        let op = Op::Store { obj: self.obj, value, ord: ord_class(order) };
        with_kernel(|kernel, tid| kernel.decision(tid, op));
    }

    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        let op = Op::RmwAdd { obj: self.obj, value, ord: ord_class(order) };
        with_kernel(|kernel, tid| kernel.decision(tid, op))
    }

    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        // One kernel decision covers both outcomes; the class is the
        // stronger of the two orderings so failure-path acquires are
        // not lost.
        let ord = ord_class(success).max(ord_class(failure));
        let op = Op::Cas { obj: self.obj, expected: current, new, ord };
        let observed = with_kernel(|kernel, tid| kernel.decision(tid, op));
        if observed == current {
            Ok(observed)
        } else {
            Err(observed)
        }
    }
}

/// A checked mutex: the virtual lock lives in the kernel; the data
/// cell is an uncontended `std::sync::Mutex`.
#[derive(Debug)]
pub struct VMutex<T> {
    obj: u64,
    // lint: std-sync-ok(uncontended data cell behind the checker kernel; see module docs)
    data: std::sync::Mutex<T>,
}

/// RAII guard of a [`VMutex`]; reports the release (with the new data
/// hash) to the kernel on drop.
pub struct VMutexGuard<'a, T: SyncData> {
    kernel: Arc<Kernel>,
    tid: Tid,
    obj: u64,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: SyncData> std::ops::Deref for VMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: SyncData> std::ops::DerefMut for VMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: SyncData> Drop for VMutexGuard<'_, T> {
    fn drop(&mut self) {
        let data_hash = hash_of(&**self);
        drop(self.inner.take());
        self.kernel.mutex_release(self.tid, self.obj, data_hash);
    }
}

impl<T: SyncData> SyncMutex<T> for VMutex<T> {
    type Guard<'a>
        = VMutexGuard<'a, T>
    where
        Self: 'a;

    fn new(value: T) -> Self {
        Self::with_rank(value, 0)
    }

    fn with_rank(value: T, rank: u64) -> Self {
        let data_hash = hash_of(&value);
        VMutex {
            obj: with_kernel(|kernel, _| kernel.register_mutex(data_hash, rank)),
            // lint: std-sync-ok(inert data cell; all scheduling goes through the kernel, this mutex is never contended)
            data: std::sync::Mutex::new(value),
        }
    }

    fn lock(&self) -> Self::Guard<'_> {
        let (kernel, tid) = with_kernel(|kernel, tid| {
            let granted = kernel.decision(tid, Op::MutexLock { obj: self.obj });
            debug_assert_eq!(granted, 1, "blocking lock grants imply acquisition");
            (Arc::clone(kernel), tid)
        });
        let inner = self.data.lock().unwrap_or_else(PoisonError::into_inner);
        VMutexGuard { kernel, tid, obj: self.obj, inner: Some(inner) }
    }
}

impl<T: std::hash::Hash> std::hash::Hash for VMutex<T> {
    /// Hashes the protected data when free. (The kernel keeps its own
    /// authoritative data hashes for fingerprints; this impl exists
    /// for the `SyncApi` bound and ad-hoc hashing of free structures.)
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        if let Ok(data) = self.data.try_lock() {
            data.hash(state);
        }
    }
}

/// A checked snapshot cell.
///
/// The published value is modeled as a kernel atomic holding a
/// *version index* into an append-only list of every `Arc<T>` ever
/// stored. A `load` is an acquire-class load of the version atomic,
/// so the kernel explores **stale pins**: unless a happens-before
/// edge orders the latest `store` before the reader, the load may
/// resolve to an older index — exactly the behaviour of an atomic
/// pointer swap, and deliberately *weaker* than `RealSnapshot`'s
/// lock-backed cell. Fast paths proven here are therefore robust to
/// a future unsynchronized-pointer implementation, and their
/// epoch-validation retry branches genuinely get explored.
#[derive(Debug)]
pub struct VSnapshot<T> {
    /// Kernel atomic holding the current version index.
    obj: u64,
    /// Every value ever published, indexed by version. Append-only so
    /// stale pins handed out by the kernel remain resolvable.
    // lint: std-sync-ok(uncontended data cell behind the checker kernel; see module docs)
    values: std::sync::Mutex<Vec<Arc<T>>>,
}

impl<T: SyncData + Sync> SyncSnapshot<T> for VSnapshot<T> {
    fn new(value: Arc<T>) -> Self {
        VSnapshot {
            obj: with_kernel(|kernel, _| kernel.register_atomic(0)),
            // lint: std-sync-ok(inert data cell; all scheduling goes through the kernel, this mutex is never contended)
            values: std::sync::Mutex::new(vec![value]),
        }
    }

    fn load(&self) -> Arc<T> {
        let op = Op::Load { obj: self.obj, ord: ord_class(Ordering::Acquire) };
        let version = with_kernel(|kernel, tid| kernel.decision(tid, op));
        let values = self.values.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&values[version as usize])
    }

    fn store(&self, value: Arc<T>) {
        let version = {
            let mut values = self.values.lock().unwrap_or_else(PoisonError::into_inner);
            values.push(value);
            (values.len() - 1) as u64
        };
        let op = Op::Store { obj: self.obj, value: version, ord: ord_class(Ordering::Release) };
        with_kernel(|kernel, tid| kernel.decision(tid, op));
    }
}

/// A checked reader–writer lock.
#[derive(Debug)]
pub struct VRwLock<T> {
    obj: u64,
    // lint: std-sync-ok(uncontended data cell behind the checker kernel; see module docs)
    data: std::sync::RwLock<T>,
}

/// Shared-read guard of a [`VRwLock`].
pub struct VRwReadGuard<'a, T: SyncData> {
    kernel: Arc<Kernel>,
    tid: Tid,
    obj: u64,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: SyncData> std::ops::Deref for VRwReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: SyncData> Drop for VRwReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        self.kernel.rw_read_release(self.tid, self.obj);
    }
}

/// Exclusive-write guard of a [`VRwLock`].
pub struct VRwWriteGuard<'a, T: SyncData> {
    kernel: Arc<Kernel>,
    tid: Tid,
    obj: u64,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: SyncData> std::ops::Deref for VRwWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: SyncData> std::ops::DerefMut for VRwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: SyncData> Drop for VRwWriteGuard<'_, T> {
    fn drop(&mut self) {
        let data_hash = hash_of(&**self);
        drop(self.inner.take());
        self.kernel.rw_write_release(self.tid, self.obj, data_hash);
    }
}

impl<T: SyncData + Sync> SyncRwLock<T> for VRwLock<T> {
    type ReadGuard<'a>
        = VRwReadGuard<'a, T>
    where
        Self: 'a;
    type WriteGuard<'a>
        = VRwWriteGuard<'a, T>
    where
        Self: 'a;

    fn new(value: T) -> Self {
        let data_hash = hash_of(&value);
        VRwLock {
            obj: with_kernel(|kernel, _| kernel.register_rw(data_hash)),
            // lint: std-sync-ok(inert data cell; all scheduling goes through the kernel, this lock is never contended)
            data: std::sync::RwLock::new(value),
        }
    }

    fn read(&self) -> Self::ReadGuard<'_> {
        let (kernel, tid) = with_kernel(|kernel, tid| {
            kernel.decision(tid, Op::RwRead { obj: self.obj });
            (Arc::clone(kernel), tid)
        });
        let inner = self.data.read().unwrap_or_else(PoisonError::into_inner);
        VRwReadGuard { kernel, tid, obj: self.obj, inner: Some(inner) }
    }

    fn write(&self) -> Self::WriteGuard<'_> {
        let (kernel, tid) = with_kernel(|kernel, tid| {
            kernel.decision(tid, Op::RwWrite { obj: self.obj });
            (Arc::clone(kernel), tid)
        });
        let inner = self.data.write().unwrap_or_else(PoisonError::into_inner);
        VRwWriteGuard { kernel, tid, obj: self.obj, inner: Some(inner) }
    }
}

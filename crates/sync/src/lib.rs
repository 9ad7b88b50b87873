//! The synchronization abstraction layer of the workspace.
//!
//! The concurrent executors ([`SharedAdaptiveNetwork`] in `acn-core`,
//! [`AtomicNetworkCounter`] in `acn-bitonic`) are generic over a
//! [`SyncApi`]: the small set of primitives they actually use — a
//! mutex, a reader–writer lock (the adaptive network's; the bitonic
//! counter's network never changes, so it needs only the atomics), and
//! a 64-bit atomic with explicit memory orderings. ([`SyncSnapshot`] and [`ExchangeSlot`] are no
//! longer used by any executor; they remain only because the frozen
//! benchmark probes them, see ROADMAP.md open item 2.)
//!
//! Two implementations exist:
//!
//! - [`RealSync`] (this crate): zero-cost forwarding to `parking_lot`
//!   locks and `std::sync::atomic`. Every production path uses it; it
//!   is the default type parameter everywhere, so callers never see
//!   the abstraction.
//! - `VirtualSync` (in `acn-check`): routes every acquire/load/store
//!   through a cooperative single-threaded scheduler that *explores
//!   interleavings* — an in-repo model checker in the spirit of loom,
//!   built from scratch because the workspace is vendored/offline.
//!
//! The traits use GATs for the guard types so that both the
//! `parking_lot` guards and the checker's instrumented guards fit
//! without boxing.
//!
//! # Data bounds
//!
//! Lock payloads must satisfy [`SyncData`] (`Send + Hash + 'static`).
//! The `Hash` bound is what lets the model checker fingerprint the
//! whole shared state at every scheduling point for its
//! visited-state pruning; for `RealSync` it costs nothing (the real
//! lock types implement `Hash` as a no-op and never call `T::hash`).
//!
//! [`SharedAdaptiveNetwork`]: https://docs.rs/acn-core
//! [`AtomicNetworkCounter`]: https://docs.rs/acn-bitonic

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

pub use std::sync::atomic::Ordering;

pub mod exchange;

pub use exchange::{ExchangeSlot, OfferOutcome};

/// Pads and aligns a value to (at least) a 128-byte cache-line
/// boundary so that two `CachePadded` neighbours in an array never
/// share a line.
///
/// 128 bytes covers both the 64-byte x86-64 line (and its adjacent-
/// line prefetcher, which drags pairs of lines) and the 128-byte
/// aarch64 line. The hot per-leaf atomics of the shared executor
/// (`hops`, per-port arrival tallies, the per-wire entry/exit counts)
/// are wrapped in this: without it, independent counters allocated
/// side by side false-share lines and the throughput curve goes flat
/// even when the algorithmic contention is gone (the benchmark's
/// `sync.fetch_add_shared_2t_ns` / `sync.fetch_add_padded_2t_ns` rows
/// measure exactly this).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: Hash> Hash for CachePadded<T> {
    /// Padding is invisible to state fingerprints: hashes exactly as
    /// the wrapped value does.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

/// Bounds required of data protected by a [`SyncApi`] lock.
///
/// `Hash` exists for the model checker's state fingerprinting;
/// `RealSync` never calls it.
pub trait SyncData: Send + Hash + 'static {}
impl<T: Send + Hash + 'static> SyncData for T {}

/// A 64-bit atomic with explicit memory orderings.
///
/// The checker's implementation *interprets* the orderings: `Relaxed`
/// loads may observe stale values unless a happens-before edge makes
/// the latest store visible, so choosing too-weak orderings is a
/// checkable bug rather than a latent one.
pub trait SyncAtomicU64: Send + Sync + 'static {
    /// A new atomic holding `value`.
    fn new(value: u64) -> Self;
    /// Atomically loads the value.
    fn load(&self, order: Ordering) -> u64;
    /// Atomically stores `value`.
    fn store(&self, value: u64, order: Ordering);
    /// Atomically adds `value`, returning the previous value.
    fn fetch_add(&self, value: u64, order: Ordering) -> u64;
    /// Atomically replaces the value with `new` if it equals
    /// `current`: `Ok(previous)` on success, `Err(actual)` on failure
    /// (the strong variant — no spurious failures). `failure` must not
    /// be `Release`/`AcqRel`, mirroring `std`.
    ///
    /// This is the **exchange primitive** behind the elimination layer
    /// (`ExchangeSlot`): under the model checker every `Cas` is a
    /// scheduling point with read-modify-write coherence, so
    /// pairing/timeout races are explored rather than assumed.
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;
}

/// A mutual-exclusion lock.
pub trait SyncMutex<T: SyncData>: Send + Sync + Sized + 'static {
    /// RAII guard; unlocks on drop.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a;

    /// A new mutex protecting `value`.
    fn new(value: T) -> Self;

    /// A new mutex carrying a *lock-order rank*: whenever a thread
    /// acquires two ranked locks simultaneously it must take them in
    /// ascending rank order. `RealSync` ignores the rank; the model
    /// checker enforces it dynamically and reports the offending
    /// schedule on violation.
    fn with_rank(value: T, rank: u64) -> Self {
        let _ = rank;
        Self::new(value)
    }

    /// Acquires the lock, blocking until available.
    fn lock(&self) -> Self::Guard<'_>;
}

/// An epoch-published immutable snapshot: the safe-Rust equivalent
/// of an atomic pointer swap.
///
/// A snapshot cell holds an `Arc<T>`. Readers [`load`](Self::load) a
/// clone of the current `Arc` — a wait-free operation in spirit (the
/// real implementation is a short uncontended read-lock around a
/// refcount bump; no `T` is ever cloned) — and then work against the
/// immutable value with no further synchronization. Writers
/// [`store`](Self::store) a replacement `Arc`, after which new
/// readers observe the new value while in-flight readers keep their
/// (now stale) pin alive until they drop it.
///
/// The checker's implementation *interprets* publication: a `load`
/// may observe any value not yet ordered before the reader by a
/// happens-before edge, so fast paths that validate snapshots with a
/// separate epoch atomic get their stale-read retry logic explored
/// rather than assumed.
pub trait SyncSnapshot<T: SyncData + Sync>: Send + Sync + Sized + 'static {
    /// A new cell publishing `value`.
    fn new(value: Arc<T>) -> Self;
    /// Pins and returns the currently published value.
    fn load(&self) -> Arc<T>;
    /// Publishes `value`, replacing the current one. In-flight pins
    /// obtained from earlier [`load`](Self::load)s stay valid.
    fn store(&self, value: Arc<T>);
}

/// A reader–writer lock.
pub trait SyncRwLock<T: SyncData>: Send + Sync + Sized + 'static {
    /// Shared-read guard.
    type ReadGuard<'a>: Deref<Target = T>
    where
        Self: 'a;
    /// Exclusive-write guard.
    type WriteGuard<'a>: DerefMut<Target = T>
    where
        Self: 'a;

    /// A new lock protecting `value`.
    fn new(value: T) -> Self;
    /// Acquires shared read access.
    fn read(&self) -> Self::ReadGuard<'_>;
    /// Acquires exclusive write access.
    fn write(&self) -> Self::WriteGuard<'_>;
}

/// The family of synchronization primitives a concurrent executor is
/// built from.
pub trait SyncApi: Send + Sync + 'static {
    /// The atomic 64-bit integer. `Hash` exists so atomics may live
    /// inside lock payloads and snapshot values (which must be
    /// fingerprintable by the checker); the real implementation
    /// hashes nothing — an atomic's momentary value is not part of
    /// any structure's logical identity.
    type AtomicU64: SyncAtomicU64 + Hash;
    /// The mutex. `Hash` feeds the checker's state fingerprints; the
    /// real implementation hashes nothing.
    type Mutex<T: SyncData>: SyncMutex<T> + Hash;
    /// The reader–writer lock (payloads are additionally `Sync`,
    /// since readers share them).
    type RwLock<T: SyncData + Sync>: SyncRwLock<T>;
    /// The epoch-published immutable snapshot cell (payloads are
    /// additionally `Sync`, since pinned readers share them).
    type Snapshot<T: SyncData + Sync>: SyncSnapshot<T>;

    /// A monotonic timestamp in implementation-defined units — the
    /// **clock seam** for tracing (`acn-trace`): span timestamps taken
    /// through this method are wall-clock nanoseconds under
    /// [`RealSync`] but a deterministic logical counter under the
    /// model checker's `VirtualSync`, so instrumented executors stay
    /// bit-reproducible when explored. Successive calls never go
    /// backwards; beyond that no relationship between the units of
    /// different `SyncApi` implementations is promised.
    ///
    /// This is deliberately the *only* sanctioned time source in trace
    /// construction outside simnet's virtual clock — the
    /// `trace-determinism` lint rejects ambient `Instant::now` there.
    fn monotonic_now() -> u64;
}

/// Production synchronization: `parking_lot` locks, `std` atomics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RealSync;

/// [`RealSync`]'s atomic: a transparent `std::sync::atomic::AtomicU64`.
#[derive(Debug, Default)]
pub struct RealAtomicU64(AtomicU64);

impl SyncAtomicU64 for RealAtomicU64 {
    #[inline]
    fn new(value: u64) -> Self {
        RealAtomicU64(AtomicU64::new(value))
    }

    #[inline]
    fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    #[inline]
    fn store(&self, value: u64, order: Ordering) {
        self.0.store(value, order)
    }

    #[inline]
    fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        self.0.fetch_add(value, order)
    }

    #[inline]
    fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.0.compare_exchange(current, new, success, failure)
    }
}

impl Hash for RealAtomicU64 {
    /// Production atomics contribute nothing to state fingerprints
    /// (fingerprinting is a checker concern); hashing is a no-op.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

/// [`RealSync`]'s mutex: a transparent `parking_lot::Mutex`.
#[derive(Debug, Default)]
pub struct RealMutex<T>(parking_lot::Mutex<T>);

impl<T: SyncData> SyncMutex<T> for RealMutex<T> {
    type Guard<'a>
        = parking_lot::MutexGuard<'a, T>
    where
        Self: 'a;

    #[inline]
    fn new(value: T) -> Self {
        RealMutex(parking_lot::Mutex::new(value))
    }

    #[inline]
    fn lock(&self) -> Self::Guard<'_> {
        self.0.lock()
    }
}

impl<T> Hash for RealMutex<T> {
    /// Production locks contribute nothing to state fingerprints
    /// (fingerprinting is a checker concern); hashing is a no-op.
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

/// [`RealSync`]'s reader–writer lock: a transparent
/// `parking_lot::RwLock`.
#[derive(Debug, Default)]
pub struct RealRwLock<T>(parking_lot::RwLock<T>);

impl<T: SyncData + Sync> SyncRwLock<T> for RealRwLock<T> {
    type ReadGuard<'a>
        = parking_lot::RwLockReadGuard<'a, T>
    where
        Self: 'a;
    type WriteGuard<'a>
        = parking_lot::RwLockWriteGuard<'a, T>
    where
        Self: 'a;

    #[inline]
    fn new(value: T) -> Self {
        RealRwLock(parking_lot::RwLock::new(value))
    }

    #[inline]
    fn read(&self) -> Self::ReadGuard<'_> {
        self.0.read()
    }

    #[inline]
    fn write(&self) -> Self::WriteGuard<'_> {
        self.0.write()
    }
}

/// [`RealSync`]'s snapshot cell: a `parking_lot::RwLock<Arc<T>>`.
///
/// `load` takes the read lock only long enough to clone the `Arc`
/// (a refcount bump — `T` itself is never copied); `store` takes the
/// write lock only long enough to swap the pointer. Neither side
/// holds the lock while the snapshot is *used*, so the cell behaves
/// like an atomic pointer swap without any `unsafe`.
#[derive(Debug)]
pub struct RealSnapshot<T>(parking_lot::RwLock<Arc<T>>);

impl<T: SyncData + Sync> SyncSnapshot<T> for RealSnapshot<T> {
    #[inline]
    fn new(value: Arc<T>) -> Self {
        RealSnapshot(parking_lot::RwLock::new(value))
    }

    #[inline]
    fn load(&self) -> Arc<T> {
        Arc::clone(&self.0.read())
    }

    #[inline]
    fn store(&self, value: Arc<T>) {
        *self.0.write() = value;
    }
}

impl SyncApi for RealSync {
    type AtomicU64 = RealAtomicU64;
    type Mutex<T: SyncData> = RealMutex<T>;
    type RwLock<T: SyncData + Sync> = RealRwLock<T>;
    type Snapshot<T: SyncData + Sync> = RealSnapshot<T>;

    /// Nanoseconds since the first call in this process (a process-
    /// local origin keeps the values small enough for log2 latency
    /// buckets while staying monotonic).
    fn monotonic_now() -> u64 {
        use std::sync::OnceLock;
        use std::time::Instant;
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let origin = *ORIGIN.get_or_init(Instant::now);
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A tiny SyncApi-generic structure, exercised under RealSync the
    /// way the executors are.
    struct PaddedCounter<S: SyncApi> {
        fast: S::AtomicU64,
        slow: S::Mutex<u64>,
    }

    impl<S: SyncApi> PaddedCounter<S> {
        fn new() -> Self {
            PaddedCounter { fast: S::AtomicU64::new(0), slow: S::Mutex::new(0) }
        }

        fn bump(&self) -> u64 {
            let n = self.fast.fetch_add(1, Ordering::AcqRel);
            *self.slow.lock() += 1;
            n
        }
    }

    #[test]
    fn real_sync_round_trip() {
        let c: Arc<PaddedCounter<RealSync>> = Arc::new(PaddedCounter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || (0..100).map(|_| c.bump()).max())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.fast.load(Ordering::Acquire), 400);
        assert_eq!(*c.slow.lock(), 400);
    }

    #[test]
    fn rwlock_readers_share() {
        let l: RealRwLock<Vec<u8>> = SyncRwLock::new(vec![1, 2]);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a, *b);
        drop((a, b));
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn ranked_mutex_defaults_to_plain() {
        let m: RealMutex<u8> = SyncMutex::with_rank(9, 42);
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn snapshot_load_pins_while_store_publishes() {
        let cell: RealSnapshot<Vec<u64>> = SyncSnapshot::new(Arc::new(vec![1, 2, 3]));
        let pinned = cell.load();
        cell.store(Arc::new(vec![9]));
        // The old pin stays valid and immutable...
        assert_eq!(*pinned, vec![1, 2, 3]);
        // ...while new loads observe the published replacement.
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn snapshot_is_shared_across_threads() {
        let cell: Arc<RealSnapshot<u64>> = Arc::new(SyncSnapshot::new(Arc::new(0)));
        let handles: Vec<_> = (1..=4u64)
            .map(|i| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    cell.store(Arc::new(i));
                    *cell.load()
                })
            })
            .collect();
        for h in handles {
            let seen = h.join().unwrap();
            assert!((1..=4).contains(&seen), "loads only ever see published values");
        }
        assert!((1..=4).contains(&*cell.load()));
    }

    #[test]
    fn atomic_orderings_forward() {
        let a = RealAtomicU64::new(5);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 5);
        a.store(11, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 11);
    }
}

//! Epoch-stamped model snapshots and the lock-free cell that
//! publishes them.
//!
//! The serving problem: shards must read the learnt state (scaler +
//! model + phase) on every admission decision, while the background
//! trainer replaces that state after every retrain. A lock — even a
//! reader/writer lock — would put every packet behind a contended
//! atomic RMW on the reader side and let a publishing writer stall
//! the decision path. Instead the gateway uses an RCU-style
//! [`SnapshotCell`]:
//!
//! * the current [`ModelSnapshot`] lives behind one `AtomicPtr`;
//!   **readers never take a lock** — pinning is two `SeqCst` loads and
//!   one store on a reader-private epoch slot, with no RMW on any
//!   shared cache line,
//! * the writer swaps in a freshly boxed snapshot and **retires** the
//!   old pointer instead of freeing it; retired snapshots are
//!   reclaimed only after a grace period — once every registered
//!   reader has been observed past the retiring epoch (quiescent-state
//!   reclamation),
//! * snapshots are immutable once published, so a reader that pinned
//!   an older epoch simply keeps serving the older (still coherent)
//!   model until its next pin.
//!
//! This module and the pipeline's SPSC ring (`super::spsc`) hold
//! the only `unsafe` in the workspace; the invariant this one rests
//! on is spelled out at the private `SnapshotCell::reclaim` method,
//! the ring's in its module-level Safety section.

use std::sync::Arc;

use crate::sync::{AtomicPtr, AtomicU64, Mutex, Ordering};

use exbox_ml::Label;

use crate::admittance::{AdmittanceClassifier, Phase, Serving};
use crate::matrix::TrafficMatrix;

/// One immutable generation of learnt state, as published by the
/// background trainer and served concurrently by every shard.
///
/// # Examples
///
/// Export a trained classifier's serving state once and decide from
/// the immutable snapshot — shared references only, no lock, no
/// `&mut` (this is what every shard does per admission):
///
/// ```
/// use exbox_core::gateway::ModelSnapshot;
/// use exbox_core::prelude::*;
/// use exbox_ml::Label;
/// use exbox_net::AppClass;
///
/// // Learn a tiny region online: at most two streaming flows fit.
/// let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
///     batch_size: 8,
///     ..AdmittanceConfig::default()
/// });
/// for n in 0..80u32 {
///     let total = n % 8;
///     let mut m = TrafficMatrix::empty();
///     for _ in 0..total {
///         m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
///     }
///     let y = if total <= 2 { Label::Pos } else { Label::Neg };
///     ac.observe(m, y);
/// }
/// assert_eq!(ac.phase(), Phase::Online);
///
/// let snap = ModelSnapshot::from_classifier(1, &ac);
/// assert!(snap.model_available() && snap.stamps_consistent());
/// let mut crowded = TrafficMatrix::empty();
/// for _ in 0..6 {
///     crowded.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
/// }
/// let (label, margin) = snap.decide(&crowded);
/// assert_eq!(label, Label::Neg);
/// assert!(margin.unwrap() < 0.0);
/// ```
///
/// The scaler and model are stamped with the epoch they were exported
/// under (`scaler_epoch` / `model_epoch`); because a snapshot is built
/// in one piece and never mutated after publication, the stamps always
/// agree with [`ModelSnapshot::epoch`] — the linearizability smoke
/// test spins readers against a publishing writer and asserts exactly
/// that (a torn scaler/model pair would surface as a stamp mismatch).
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    epoch: u64,
    serving: Serving,
    scaler_epoch: u64,
    model_epoch: u64,
}

impl ModelSnapshot {
    /// The pre-training snapshot: bootstrap phase, no model, epoch 0.
    pub fn initial() -> Self {
        ModelSnapshot {
            epoch: 0,
            serving: Serving::bootstrap(),
            scaler_epoch: 0,
            model_epoch: 0,
        }
    }

    /// Export the classifier's current serving state as epoch `epoch`.
    /// Called by the trainer once per publish (phase change or
    /// successful retrain) — never on the packet path.
    pub fn from_classifier(epoch: u64, classifier: &AdmittanceClassifier) -> Self {
        ModelSnapshot {
            epoch,
            serving: classifier.serving().clone(),
            scaler_epoch: epoch,
            model_epoch: epoch,
        }
    }

    /// The generation counter this snapshot was published under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The classifier phase at publish time.
    pub fn phase(&self) -> Phase {
        self.serving.phase()
    }

    /// Whether a scaler/model pair is servable.
    pub fn model_available(&self) -> bool {
        self.serving.model_available()
    }

    /// True when the epoch stamps on the scaler and model both match
    /// the snapshot epoch — the invariant the linearizability test
    /// asserts under concurrent publishes.
    pub fn stamps_consistent(&self) -> bool {
        self.scaler_epoch == self.epoch && self.model_epoch == self.epoch
    }

    /// Signed decision score for the matrix that would result from an
    /// admission; `None` until a model exists. Allocation-free and
    /// `&self` — many shards evaluate one snapshot concurrently.
    /// Bit-exact with [`AdmittanceClassifier::decision_value`] on the
    /// same state: both run the one serving value's code.
    #[inline]
    pub fn decision_value(&self, resulting: &TrafficMatrix) -> Option<f64> {
        self.serving.decision_value(resulting)
    }

    /// Single-pass decision: admit everything in bootstrap; online,
    /// the margin sign decides (admit when no model exists — the
    /// degraded fallback gates that case upstream).
    ///
    /// This is [`AdmittanceClassifier::decide`] **without the
    /// monotonicity guard**: the guard reads the trainer's sample
    /// store, which a snapshot does not carry, so a classifier built
    /// with [`monotone_guard`](crate::admittance::AdmittanceConfig::monotone_guard)
    /// can answer `Neg` where its snapshot answers `Pos` (and vice
    /// versa).
    #[inline]
    pub fn decide(&self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        self.serving.decide(resulting)
    }
}

/// A reader's pin slot: the epoch it is currently pinned at, or
/// [`IDLE`] when not inside a read-side critical section.
#[derive(Debug)]
struct ReaderSlot {
    pinned: AtomicU64,
}

/// Sentinel for "not pinned".
const IDLE: u64 = u64::MAX;

/// A retired pointer waiting for its grace period: the cell epoch at
/// the moment of retirement, and the boxed value it replaced.
struct Retired<T> {
    tag: u64,
    ptr: *mut T,
}

/// Lock-free single-writer/multi-reader publication cell (RCU with
/// quiescent-state-based reclamation), built on `std::sync::atomic`
/// only.
///
/// * [`SnapshotReader::pin`] gives wait-free read access to the
///   current value — no locks, no shared-line RMW.
/// * [`SnapshotCell::publish`] swaps in a new boxed value, retires the
///   old pointer, and frees retirements whose grace period has passed
///   (no reader still pinned at or before their tag).
///
/// Values must be `Send + Sync`: readers on any thread dereference
/// the shared pointer, and retired boxes are dropped on the writer's
/// thread.
pub struct SnapshotCell<T> {
    current: AtomicPtr<T>,
    /// Publish counter; also the clock retirement tags and reader pins
    /// are measured against.
    epoch: AtomicU64,
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    retired: Mutex<Vec<Retired<T>>>,
    /// Model-checking canary: addresses freed by `reclaim` and not yet
    /// reused by a later `publish`. Guards assert their pointer is not
    /// in this set before dereferencing, turning a protocol bug
    /// (use-after-retire) into a deterministic panic with a replayable
    /// trace instead of UB. Plain `std::sync::Mutex` on purpose — it is
    /// checker bookkeeping, not part of the modelled protocol, and is
    /// never held across a switch point.
    #[cfg(exbox_loom)]
    freed: std::sync::Mutex<std::collections::HashSet<usize>>,
}

// SAFETY: the raw pointers inside `current`/`retired` all originate
// from `Box<T>` and are only dereferenced (readers) or dropped
// (writer, after the grace period) under the protocol proven at
// `reclaim`. With `T: Send + Sync`, sharing the cell across threads
// shares `&T` (needs `Sync`) and drops boxes on another thread (needs
// `Send`).
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch.load(Ordering::SeqCst))
            .field(
                "retired",
                &self.retired.lock().expect("retired list poisoned").len(),
            )
            .finish()
    }
}

impl<T: Send + Sync> SnapshotCell<T> {
    /// A cell initially holding `value` at epoch 0.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(SnapshotCell {
            current: AtomicPtr::new(Box::into_raw(Box::new(value))),
            epoch: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            #[cfg(exbox_loom)]
            freed: std::sync::Mutex::new(std::collections::HashSet::new()),
        })
    }

    /// Register a reader. Each shard holds exactly one; the slot is
    /// garbage-collected after the reader is dropped.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader<T> {
        let slot = Arc::new(ReaderSlot {
            pinned: AtomicU64::new(IDLE),
        });
        self.readers
            .lock()
            .expect("reader list poisoned")
            .push(Arc::clone(&slot));
        SnapshotReader {
            cell: Arc::clone(self),
            slot,
        }
    }

    /// Number of publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Retired values still waiting for their grace period (test and
    /// debugging aid).
    pub fn retired_len(&self) -> usize {
        self.retired.lock().expect("retired list poisoned").len()
    }

    /// Publish `value` as the new current snapshot. The old snapshot
    /// is retired, not freed: readers pinned on it keep serving it,
    /// and it is reclaimed on a later publish once no reader can still
    /// hold it. Publishers are expected to be a single trainer thread,
    /// but concurrent publishes are safe (the swap linearises them).
    pub fn publish(&self, value: T) {
        let fresh = Box::into_raw(Box::new(value));
        // The allocator may hand back an address reclaimed earlier;
        // it is live again now, so it leaves the canary set.
        #[cfg(exbox_loom)]
        self.freed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(fresh as usize));
        let old = self.current.swap(fresh, Ordering::SeqCst);
        // The tag is the epoch *before* the bump: any reader that
        // could have loaded `old` re-checked the epoch at a value
        // <= tag while its pin was already visible (see `pin`).
        let tag = self.epoch.fetch_add(1, Ordering::SeqCst);
        self.retired
            .lock()
            .expect("retired list poisoned")
            .push(Retired { tag, ptr: old });
        self.reclaim();
    }
}

// Reclamation is unbounded by `T: Send + Sync` so `SnapshotReader`'s
// `Drop` (which has no bounds) can call it; sharing the cell across
// threads still requires the bounds via the `Sync` impl above.
impl<T> SnapshotCell<T> {
    /// Free retired values whose grace period has passed.
    ///
    /// Invariant: a reader pinned at epoch `e` can only be holding a
    /// pointer that was current at some epoch `>= e`; such a pointer,
    /// if retired at all, is retired with `tag >= e`. Proof sketch of
    /// why the writer always observes the pin: the reader stores
    /// `pinned = e` (`SeqCst`) *before* re-checking `epoch == e`
    /// (`SeqCst`), and only then loads the pointer. The writer swaps
    /// the pointer, *then* bumps the epoch (`SeqCst`), *then* reads
    /// the pin slots here. If the reader's re-check saw `e`, it
    /// happened before the writer's bump in the total `SeqCst` order,
    /// so the reader's earlier `pinned = e` store is visible to the
    /// writer's later pin load. Therefore freeing only retirements
    /// with `tag < min(pinned)` never frees a pointer a reader can
    /// still dereference.
    fn reclaim(&self) {
        let readers = self.readers.lock().expect("reader list poisoned");
        // Every slot in the list belongs to a live reader:
        // `SnapshotReader::drop` unregisters its slot (and re-runs
        // reclamation), so a departed reader can never pin the retired
        // list forever.
        let min_pinned = readers
            .iter()
            .map(|slot| slot.pinned.load(Ordering::SeqCst))
            .min()
            .unwrap_or(IDLE);
        drop(readers);
        let mut retired = self.retired.lock().expect("retired list poisoned");
        retired.retain(|r| {
            if r.tag < min_pinned {
                #[cfg(exbox_loom)]
                self.freed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(r.ptr as usize);
                // SAFETY: `r.ptr` came from `Box::into_raw` in
                // `publish` (or `new`), was swapped out exactly once,
                // and by the invariant above no reader can still hold
                // it; it is removed from the list here, so it is
                // dropped exactly once.
                drop(unsafe { Box::from_raw(r.ptr) });
                false
            } else {
                true
            }
        });
        // Quiescence bound (PR-9 reclamation sweep): with no reader
        // pinned, nothing may remain retired. A long-pinned reader can
        // legitimately hold many retirements, so the bound is
        // conditional on quiescence — exactly what the model checks.
        debug_assert!(
            min_pinned != IDLE || retired.is_empty(),
            "retired list not drained at quiescence ({} left)",
            retired.len()
        );
    }

    /// Remove `slot` from the reader list (reader drop path) and
    /// reclaim anything its pin was holding back.
    fn unregister(&self, slot: &Arc<ReaderSlot>) {
        slot.pinned.store(IDLE, Ordering::SeqCst);
        let mut readers = self.readers.lock().expect("reader list poisoned");
        readers.retain(|s| !Arc::ptr_eq(s, slot));
        drop(readers);
        self.reclaim();
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // No readers can exist: every `SnapshotReader` holds an `Arc`
        // to the cell, so `drop` implies zero readers remain.
        let current = *self.current.get_mut();
        // SAFETY: sole owner at this point; `current` and every
        // retired pointer are live `Box<T>` allocations, each dropped
        // exactly once.
        unsafe {
            drop(Box::from_raw(current));
            for r in self.retired.get_mut().expect("retired list poisoned") {
                drop(Box::from_raw(r.ptr));
            }
        }
    }
}

/// One reader's handle to a [`SnapshotCell`]. Not cloneable and pins
/// through `&mut self`, so at most one [`SnapshotGuard`] per reader
/// exists at a time — the property the pin slot relies on.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    cell: Arc<SnapshotCell<T>>,
    slot: Arc<ReaderSlot>,
}

impl<T: Send + Sync> SnapshotReader<T> {
    /// Enter a read-side critical section and return a guard
    /// dereferencing the current snapshot. Lock-free: two `SeqCst`
    /// epoch loads and one store on this reader's private slot; the
    /// retry loop only spins if a publish lands between them (publishes
    /// are per-retrain, i.e. rare).
    pub fn pin(&mut self) -> SnapshotGuard<'_, T> {
        loop {
            let e = self.cell.epoch.load(Ordering::SeqCst);
            self.slot.pinned.store(e, Ordering::SeqCst);
            if self.cell.epoch.load(Ordering::SeqCst) == e {
                let ptr = self.cell.current.load(Ordering::SeqCst);
                return SnapshotGuard {
                    ptr,
                    slot: &self.slot,
                    #[cfg(exbox_loom)]
                    freed: &self.cell.freed,
                };
            }
            // A publish raced the pin; un-pin and retry so the writer
            // is never blocked on a stale pin value.
            self.slot.pinned.store(IDLE, Ordering::SeqCst);
        }
    }

    /// The cell this reader is registered with.
    pub fn cell(&self) -> &Arc<SnapshotCell<T>> {
        &self.cell
    }
}

impl<T> Drop for SnapshotReader<T> {
    fn drop(&mut self) {
        // A guard cannot outlive the reader (it borrows it), so the
        // slot is idle here. Unregister it and reclaim: before PR 9 a
        // dropped reader's slot lingered until the *next* publish, so
        // a reader pinned during the final publish of a run pinned the
        // retired list forever (found by the `reader_drop_releases_
        // retired` model; regression trace checked in).
        self.cell.unregister(&self.slot);
    }
}

/// RAII read-side critical section: dereferences the pinned snapshot;
/// dropping it un-pins the reader, allowing the snapshot's eventual
/// reclamation.
#[derive(Debug)]
pub struct SnapshotGuard<'a, T> {
    ptr: *const T,
    slot: &'a Arc<ReaderSlot>,
    /// Use-after-retire canary (see [`SnapshotCell`]'s `freed` field).
    #[cfg(exbox_loom)]
    freed: &'a std::sync::Mutex<std::collections::HashSet<usize>>,
}

impl<T> std::ops::Deref for SnapshotGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Model builds verify the invariant the SAFETY comment claims:
        // a pinned guard's pointer is never reclaimed under it.
        #[cfg(exbox_loom)]
        assert!(
            !self
                .freed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&(self.ptr as usize)),
            "use-after-retire: pinned snapshot was reclaimed"
        );
        // SAFETY: `ptr` was the current snapshot while this reader's
        // pin was visible (see `SnapshotReader::pin`); the pin blocks
        // reclamation (`SnapshotCell::reclaim` invariant) until this
        // guard drops, and published snapshots are never mutated.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for SnapshotGuard<'_, T> {
    fn drop(&mut self) {
        self.slot.pinned.store(IDLE, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn pin_sees_latest_publish() {
        let cell = SnapshotCell::new(1u64);
        let mut reader = cell.reader();
        assert_eq!(*reader.pin(), 1);
        cell.publish(2);
        assert_eq!(*reader.pin(), 2);
        assert_eq!(cell.publish_count(), 1);
    }

    #[test]
    fn pinned_reader_blocks_reclamation_until_unpin() {
        let cell = SnapshotCell::new(10u64);
        let mut reader = cell.reader();
        let guard = reader.pin();
        cell.publish(20);
        // The old value is retired but must not be freed while the
        // guard is live — and the guard must still read it coherently.
        assert_eq!(cell.retired_len(), 1);
        assert_eq!(*guard, 10);
        drop(guard);
        cell.publish(30);
        assert_eq!(cell.retired_len(), 0, "old epochs reclaimed after unpin");
        assert_eq!(*reader.pin(), 30);
    }

    #[test]
    fn dropped_readers_are_garbage_collected() {
        let cell = SnapshotCell::new(0u64);
        let reader = cell.reader();
        drop(reader);
        cell.publish(1);
        cell.publish(2);
        // With no readers left, nothing can block reclamation past
        // the most recent retirement.
        assert_eq!(cell.retired_len(), 0);
    }

    #[test]
    fn concurrent_readers_never_see_torn_pairs() {
        // Each published value is a (x, x) pair; readers assert the
        // halves always agree while a writer publishes continuously.
        let cell = SnapshotCell::new((0u64, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut reader = cell.reader();
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let g = reader.pin();
                        let (a, b) = *g;
                        assert_eq!(a, b, "torn pair observed");
                        assert!(a >= last, "epoch went backwards");
                        last = a;
                    }
                });
            }
            for i in 1..=2000u64 {
                cell.publish((i, i));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.publish_count(), 2000);
    }

    #[test]
    fn model_snapshot_stamps_are_consistent() {
        let snap = ModelSnapshot::initial();
        assert!(snap.stamps_consistent());
        assert!(!snap.model_available());
        assert_eq!(snap.decide(&TrafficMatrix::empty()), (Label::Pos, None));
    }
}

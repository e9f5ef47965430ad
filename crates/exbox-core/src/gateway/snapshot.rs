//! Epoch-stamped model snapshots and the cell that publishes them.
//!
//! The serving problem: shards read the learnt state (scaler + model +
//! phase + guard) on every admission decision, while the background trainer
//! replaces it once per retrain — one refit per batch of observations,
//! one observation per poll, against a pin per arrival. Publishes are
//! rare and reads constant, so [`SnapshotCell`] makes the read cheap
//! and lets the publish take a lock:
//!
//! * the current [`ModelSnapshot`] is an `Arc` kept beside the publish
//!   count under one short mutex, and the count is mirrored in an
//!   atomic;
//! * each [`SnapshotReader`] keeps its own `Arc` and the count it was
//!   loaded at: **between publishes a pin is one atomic load and a
//!   compare** — no lock, no RMW, no shared cache line written. Only
//!   the first pin after a publish takes the lock, for one `Arc` clone;
//! * snapshots are immutable once published, and an old generation is
//!   freed by whichever holder lets go of it last — the writer, or a
//!   reader at its next pin or drop.
//!
//! All of it is safe Rust over `Arc`, one mutex and one atomic.

use std::sync::Arc;

use crate::sync::{AtomicU64, Mutex, Ordering};

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
    /// the [`monotone_guard`](crate::admittance::AdmittanceConfig::monotone_guard)
    /// where a stored sample settles the query, else the margin sign
    /// (admit when no model exists — the degraded fallback gates that
    /// case upstream).
    ///
    /// This is [`AdmittanceClassifier::decide`] on the classifier's
    /// state at publish time: the snapshot carries the guard's
    /// antichains with the model, so between publishes the guard lags
    /// the trainer's store exactly as the model does.
    #[inline]
    pub fn decide(&self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        self.serving.decide(resulting)
    }
}

/// Single-slot publication cell: one current `Arc<T>` and a publish
/// count, many readers that each cache the generation they last saw.
///
/// * [`SnapshotReader::pin`] is one atomic load and a compare while no
///   publish has landed since the reader's last pin; after one, the
///   reader takes the cell's lock for a single `Arc` clone.
/// * [`SnapshotCell::publish`] holds that lock for a pointer swap and a
///   counter bump only: the new value is allocated before it, the old
///   one released after it.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// The current generation and the number of publishes behind it.
    current: Mutex<(Arc<T>, u64)>,
    /// Mirror of the count in `current`, stored while the lock is held:
    /// monotone, and never ahead of the value it counts.
    count: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// A cell initially holding `value` at publish count 0.
    pub fn new(value: T) -> Arc<Self> {
        Arc::new(SnapshotCell {
            current: Mutex::new((Arc::new(value), 0)),
            count: AtomicU64::new(0),
        })
    }

    /// A reader starting at the current generation. Each shard holds
    /// exactly one.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader<T> {
        let (value, seen) = self.load_counted();
        SnapshotReader {
            cell: Arc::clone(self),
            value,
            seen,
        }
    }

    /// Number of publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// The current generation, shared — for control-plane reads that
    /// have no reader of their own. Takes the lock; the packet path
    /// pins through a [`SnapshotReader`] instead.
    pub fn load(&self) -> Arc<T> {
        self.load_counted().0
    }

    /// The current generation and the publish count it belongs to.
    fn load_counted(&self) -> (Arc<T>, u64) {
        let current = self.current.lock().expect("snapshot cell poisoned");
        (Arc::clone(&current.0), current.1)
    }

    /// Publish `value` as the new current generation. Readers still
    /// holding the old one keep serving it until their next pin; it is
    /// freed when the last of them (or this call) lets go. Publishers
    /// are expected to be a single trainer thread, but concurrent
    /// publishes are safe (the lock orders them).
    pub fn publish(&self, value: T) {
        let new = Arc::new(value);
        let old = {
            let mut current = self.current.lock().expect("snapshot cell poisoned");
            let old = std::mem::replace(&mut current.0, new);
            current.1 += 1;
            self.count.store(current.1, Ordering::SeqCst);
            old
        };
        // Released outside the lock, so a free never runs under it.
        drop(old);
    }
}

/// One reader's handle to a [`SnapshotCell`]: the generation it last
/// pinned and the publish count that generation was loaded at.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    cell: Arc<SnapshotCell<T>>,
    value: Arc<T>,
    seen: u64,
}

impl<T> SnapshotReader<T> {
    /// The current snapshot. One atomic load and a compare unless a
    /// publish landed since this reader's last pin; then one locked
    /// `Arc` clone, which yields that publish's value or a newer one
    /// (the count is stored after the value, under the same lock).
    pub fn pin(&mut self) -> &T {
        if self.cell.publish_count() != self.seen {
            (self.value, self.seen) = self.cell.load_counted();
        }
        &self.value
    }

    /// The cell this reader reads.
    pub fn cell(&self) -> &Arc<SnapshotCell<T>> {
        &self.cell
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

    /// A generation outlives its replacement while any reader still
    /// holds it, and is freed exactly once when the last holder pins
    /// again or goes away.
    #[test]
    fn old_generation_lives_until_its_last_reader_lets_go() {
        use std::sync::atomic::AtomicUsize;

        struct Counted(u64, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let value = |v| Counted(v, Arc::clone(&drops));
        let dropped = || drops.load(Ordering::SeqCst);

        let cell = SnapshotCell::new(value(10));
        let mut pins_again = cell.reader();
        let goes_away = cell.reader();
        cell.publish(value(20));
        assert_eq!(dropped(), 0, "freed under the readers still holding it");
        assert_eq!(goes_away.value.0, 10, "an unpinned reader keeps its view");
        assert_eq!(pins_again.pin().0, 20);
        assert_eq!(dropped(), 0, "one reader still holds generation 10");
        drop(goes_away);
        assert_eq!(dropped(), 1, "last holder gone: freed, once");
        // With no reader on it, a replaced generation goes at the publish.
        drop(pins_again);
        cell.publish(value(30));
        assert_eq!(dropped(), 2);
        drop(cell);
        assert_eq!(dropped(), 3, "each generation freed exactly once");
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

//! The background trainer: retraining, checkpointing and recovery off
//! the packet path.
//!
//! The trainer thread owns the full [`AdmittanceClassifier`] (sample
//! store, warm-start duals, retry backoff — everything too heavy for
//! the serving path) and consumes observation batches from a
//! **bounded** MPSC channel fed by the shards' polls. When an
//! observation triggers a phase change or a successful retrain, the
//! trainer exports the new serving state and publishes it as the next
//! [`ModelSnapshot`](super::ModelSnapshot) — shards pick it up on
//! their next pin, without ever blocking.
//!
//! Backpressure is explicit: the channel is bounded and shards use a
//! non-blocking send, dropping the observation (counted by
//! `gateway.obs_dropped`) rather than stalling a packet. Checkpoint
//! requests travel the same queue, so a checkpoint write can never
//! stall a decision either.
//!
//! Retrain fault injection (`EXBOX_FAULTS` `retrain_fail` /
//! `retrain_nonconverge`) fires inside [`AdmittanceClassifier::retrain`]
//! — which now runs **here**, on the trainer thread. A failed retrain
//! publishes nothing: the previous snapshot keeps serving and the
//! degraded fallback engages on the shards only if no model was ever
//! servable.

use std::path::PathBuf;
use std::sync::mpsc::{Sender, TryRecvError};
use std::sync::Arc;

use exbox_ml::Label;

use crate::admittance::AdmittanceClassifier;
use crate::matrix::TrafficMatrix;
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::sync::{thread, AtomicBool, Ordering};

use super::channel::{BoundedReceiver, BoundedSender};
use super::snapshot::{ModelSnapshot, SnapshotCell};

type JoinHandle<T> = thread::JoinHandle<T>;

/// Messages consumed by the trainer thread.
pub(crate) enum TrainerMsg {
    /// One `(X_m, Y)` observation from a shard poll.
    Observe {
        /// The traffic matrix observed.
        matrix: TrafficMatrix,
        /// Conjunction label over the observing shard's flows.
        label: Label,
    },
    /// Write a checkpoint of the learnt state to `path`, replying with
    /// the write result.
    Checkpoint {
        path: PathBuf,
        ack: Sender<std::io::Result<()>>,
    },
    /// Drain barrier: reply once every earlier message was processed.
    Flush { ack: Sender<()> },
    /// Stop the trainer loop (the classifier is returned via join).
    Shutdown,
}

/// The trainer thread's instrument handles, bound to the gateway's
/// trainer registry before spawn.
pub(crate) struct TrainerMetrics {
    /// `recovery.checkpoint_writes` — successful checkpoint files.
    pub(crate) checkpoint_writes: Arc<exbox_obs::Counter>,
    /// `gateway.snapshot_staleness` — observations absorbed since the
    /// last snapshot publish.
    pub(crate) staleness: Arc<exbox_obs::Gauge>,
    /// `trainer.dropped_results` — observations still queued when the
    /// trainer shut down: learning the channel accepted but that never
    /// reached the store. Zero in a clean drain; non-zero makes an
    /// interrupted retrain visible instead of silently lost.
    pub(crate) dropped_results: Arc<exbox_obs::Counter>,
    /// `gateway.stamp_mismatch` — snapshots that failed
    /// [`ModelSnapshot::stamps_consistent`] at publish time. Always 0
    /// unless the export path is broken; checked here (debug-assert +
    /// counter), not just in tests.
    pub(crate) stamp_mismatch: Arc<exbox_obs::Counter>,
}

/// Publish `snap`, enforcing the stamp invariant at the publish site.
fn publish_checked(
    cell: &SnapshotCell<ModelSnapshot>,
    metrics: &TrainerMetrics,
    snap: ModelSnapshot,
) {
    let consistent = snap.stamps_consistent();
    debug_assert!(
        consistent,
        "publishing snapshot with mismatched stamps (epoch {})",
        snap.epoch()
    );
    if !consistent {
        metrics.stamp_mismatch.inc();
    }
    cell.publish(snap);
}

/// Handle to the running trainer thread.
pub(crate) struct TrainerHandle {
    pub(crate) tx: BoundedSender<TrainerMsg>,
    join: Option<JoinHandle<AdmittanceClassifier>>,
}

impl std::fmt::Debug for TrainerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainerHandle").finish_non_exhaustive()
    }
}

impl TrainerHandle {
    /// Spawn the trainer thread. `classifier` seeds the publication
    /// epoch: if it is already trained, its state is what the initial
    /// snapshot in `cell` was built from.
    pub(crate) fn spawn(
        classifier: AdmittanceClassifier,
        estimator: QoeEstimator,
        cell: Arc<SnapshotCell<ModelSnapshot>>,
        recovering: Arc<AtomicBool>,
        metrics: TrainerMetrics,
        rx: BoundedReceiver<TrainerMsg>,
        tx: BoundedSender<TrainerMsg>,
    ) -> Self {
        let join = thread::Builder::new()
            .name("exbox-trainer".into())
            .spawn(move || run_trainer(classifier, estimator, cell, recovering, metrics, rx))
            .expect("failed to spawn trainer thread");
        TrainerHandle {
            tx,
            join: Some(join),
        }
    }

    /// Stop the trainer and take back the classifier (for inspection
    /// or a final synchronous checkpoint).
    pub(crate) fn shutdown(mut self) -> AdmittanceClassifier {
        let _ = self.tx.send(TrainerMsg::Shutdown);
        self.join
            .take()
            .expect("trainer already joined")
            .join()
            .expect("trainer thread panicked")
    }
}

impl Drop for TrainerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(TrainerMsg::Shutdown);
            if join.join().is_err() && !std::thread::panicking() {
                panic!("trainer thread panicked");
            }
        }
    }
}

/// The trainer loop body.
fn run_trainer(
    mut classifier: AdmittanceClassifier,
    estimator: QoeEstimator,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    recovering: Arc<AtomicBool>,
    metrics: TrainerMetrics,
    rx: BoundedReceiver<TrainerMsg>,
) -> AdmittanceClassifier {
    // The initial snapshot was published by the gateway constructor at
    // this epoch; later publishes continue from it.
    let mut epoch = cell.publish_count();
    // `gateway.snapshot_staleness`: observations absorbed into the
    // store but not yet reflected in the served snapshot. Grows by one
    // per observation, snaps back to zero on every publish — the
    // operator-facing measure of how far serving lags learning.
    let mut lag: u64 = 0;
    while let Ok(msg) = rx.recv() {
        match msg {
            TrainerMsg::Observe { matrix, label } => {
                // Serving-state fingerprint: phase transitions and
                // *successful* retrains advance it; a failed retrain
                // (injected or real) leaves it unchanged, so the old
                // snapshot keeps serving and no epoch is burned.
                let before = (classifier.phase(), classifier.retrain_count());
                classifier.observe(matrix, label);
                if (classifier.phase(), classifier.retrain_count()) != before {
                    epoch += 1;
                    publish_checked(
                        &cell,
                        &metrics,
                        ModelSnapshot::from_classifier(epoch, &classifier),
                    );
                    if classifier.model_available() {
                        recovering.store(false, Ordering::SeqCst);
                    }
                    lag = 0;
                } else {
                    lag += 1;
                }
                metrics.staleness.set(lag as f64);
            }
            TrainerMsg::Checkpoint { path, ack } => {
                let result = persist::save_checkpoint_to_path(&classifier, &estimator, &path);
                if result.is_ok() {
                    metrics.checkpoint_writes.inc();
                }
                let _ = ack.send(result);
            }
            TrainerMsg::Flush { ack } => {
                let _ = ack.send(());
            }
            TrainerMsg::Shutdown => break,
        }
    }
    // Shutdown drain (PR-9 shutdown-ordering sweep): shards on other
    // threads may have enqueued between the Shutdown send and now.
    // Nothing may be *silently* lost — queued observations are counted
    // as dropped results, checkpoint/flush callers get an answer
    // instead of a hung ack channel.
    loop {
        match rx.try_recv() {
            Ok(TrainerMsg::Observe { .. }) => metrics.dropped_results.inc(),
            Ok(TrainerMsg::Checkpoint { ack, .. }) => {
                let _ = ack.send(Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "trainer shut down before writing the checkpoint",
                )));
            }
            Ok(TrainerMsg::Flush { ack }) => {
                let _ = ack.send(());
            }
            Ok(TrainerMsg::Shutdown) => {}
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
        }
    }
    classifier
}

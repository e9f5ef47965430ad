//! The background trainer: retraining, checkpointing and recovery off
//! the packet path.
//!
//! The trainer thread owns the full [`AdmittanceClassifier`] (sample
//! store, warm-start duals, retry backoff — everything too heavy for
//! the serving path) and consumes observation batches from a
//! **bounded** `std::sync::mpsc::sync_channel` fed by the shards'
//! polls. When an observation triggers a phase change or a successful
//! retrain, the trainer exports the new serving state and publishes it
//! as the next [`ModelSnapshot`](super::ModelSnapshot) — shards pick
//! it up on their next pin, without ever blocking.
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
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;

use exbox_ml::Label;
use exbox_obs::MetricsRegistry;

use crate::admittance::AdmittanceClassifier;
use crate::matrix::TrafficMatrix;
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::sync::{thread, AtomicBool, Ordering};

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
    checkpoint_writes: Arc<exbox_obs::Counter>,
    /// `gateway.snapshot_staleness` — observations absorbed since the
    /// last snapshot publish.
    staleness: Arc<exbox_obs::Gauge>,
    /// `trainer.dropped_results` — observations still queued behind
    /// `Shutdown`: learning the queue accepted but that never reached
    /// the store. Zero in a clean drain; non-zero makes an interrupted
    /// retrain visible instead of silently lost.
    dropped_results: Arc<exbox_obs::Counter>,
    /// `gateway.stamp_mismatch` — snapshots that failed
    /// [`ModelSnapshot::stamps_consistent`] at publish time. Always 0
    /// unless the export path is broken; checked here (debug-assert +
    /// counter), not just in tests.
    stamp_mismatch: Arc<exbox_obs::Counter>,
}

impl TrainerMetrics {
    /// Bind every trainer instrument in `registry`.
    pub(crate) fn bind(registry: &MetricsRegistry) -> Self {
        TrainerMetrics {
            checkpoint_writes: registry.counter("recovery.checkpoint_writes"),
            staleness: registry.gauge("gateway.snapshot_staleness"),
            dropped_results: registry.counter("trainer.dropped_results"),
            stamp_mismatch: registry.counter("gateway.stamp_mismatch"),
        }
    }
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
    pub(crate) tx: SyncSender<TrainerMsg>,
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
        rx: Receiver<TrainerMsg>,
        tx: SyncSender<TrainerMsg>,
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
    rx: Receiver<TrainerMsg>,
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
    // Shutdown drain: shards on other threads may have enqueued
    // behind the Shutdown message. Queued observations are counted as
    // dropped results, and checkpoint / flush callers get an answer
    // instead of a hung ack channel. A shard still running on its own
    // thread can slip one send in after the final `Empty` and before
    // `rx` drops with this frame: std drops it with the queue,
    // uncounted, as it refuses a send that comes a moment later.
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

#[cfg(test)]
mod tests {
    //! The shutdown drain over the real trainer loop and std's queue:
    //! one exact case, and a seeded stress test of shards racing the
    //! shutdown (CI's concurrency job runs it under ThreadSanitizer).

    use std::sync::mpsc::{self, sync_channel};
    use std::sync::Barrier;

    use super::*;
    use crate::admittance::AdmittanceConfig;

    /// Every observation carries one matrix and one label: the store
    /// keeps a single sample, so the classifier never leaves bootstrap
    /// and an observation costs no retrain.
    fn observation() -> TrainerMsg {
        TrainerMsg::Observe {
            matrix: TrafficMatrix::from_counts([1, 0, 0, 0, 0, 0]),
            label: Label::Pos,
        }
    }

    /// A trainer over a queue of `cap` slots that `fill` loaded before
    /// the thread started.
    fn spawn(
        cap: usize,
        fill: impl FnOnce(&SyncSender<TrainerMsg>),
    ) -> (TrainerHandle, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        let (tx, rx) = sync_channel(cap);
        fill(&tx);
        let handle = TrainerHandle::spawn(
            AdmittanceClassifier::with_registry(AdmittanceConfig::default(), &reg),
            crate::engine::tests::estimator(),
            SnapshotCell::new(ModelSnapshot::initial()),
            Arc::new(AtomicBool::new(false)),
            TrainerMetrics::bind(&reg),
            rx,
            tx,
        );
        (handle, reg)
    }

    fn dropped(reg: &MetricsRegistry) -> u64 {
        reg.snapshot()
            .counter("trainer.dropped_results")
            .unwrap_or(0)
    }

    /// Observations queued ahead of `Shutdown` are learnt, those
    /// behind it are counted, and a flush behind it is still answered.
    #[test]
    fn shutdown_drain_counts_what_queued_behind_it() {
        let (ack, acked) = mpsc::channel();
        let (handle, reg) = spawn(8, |tx| {
            for _ in 0..3 {
                tx.try_send(observation()).unwrap();
            }
            tx.try_send(TrainerMsg::Shutdown).unwrap();
            for _ in 0..2 {
                tx.try_send(observation()).unwrap();
            }
            tx.try_send(TrainerMsg::Flush { ack }).unwrap();
        });
        assert_eq!(handle.shutdown().num_observations(), 3);
        assert_eq!(dropped(&reg), 2);
        assert_eq!(acked.recv(), Ok(()));
    }

    /// Caller-threaded shards racing a shutdown, over seeded shard
    /// counts, queue bounds and batch sizes. Each shard `try_send`s a
    /// first batch, meets the gateway at a barrier, then sends a
    /// second batch while the gateway shuts the trainer down (odd
    /// rounds join the shards first instead). Properties:
    /// - every observation accepted before the barrier is learnt: FIFO
    ///   puts it ahead of `Shutdown`;
    /// - learnt plus counted never exceeds what the queue accepted, so
    ///   nothing is learnt or counted twice;
    /// - with the shards joined first, learnt plus counted is exactly
    ///   what the queue accepted.
    #[test]
    fn shutdown_drain_never_loses_an_observation_queued_ahead_of_it() {
        let mut seed = 0x00e8_b0c5_u64;
        let mut next = move |bound: u64| {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for round in 0..48 {
            let shards = 1 + next(3) as usize;
            let cap = 1 + next(8) as usize;
            let (first, second) = (next(16), next(32));
            let race = round % 2 == 0;
            let (handle, reg) = spawn(cap, |_| {});
            let barrier = Arc::new(Barrier::new(shards + 1));
            let senders: Vec<_> = (0..shards)
                .map(|_| {
                    let tx = handle.tx.clone();
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let send = |n: u64| {
                            (0..n)
                                .filter(|_| tx.try_send(observation()).is_ok())
                                .count() as u64
                        };
                        let early = send(first);
                        barrier.wait();
                        (early, early + send(second))
                    })
                })
                .collect();
            barrier.wait();
            let join = |senders: Vec<std::thread::JoinHandle<(u64, u64)>>| {
                senders
                    .into_iter()
                    .map(|s| s.join().unwrap())
                    .fold((0, 0), |(e, a), (early, all)| (e + early, a + all))
            };
            let (early, accepted, learnt) = if race {
                let learnt = handle.shutdown().num_observations();
                let (early, accepted) = join(senders);
                (early, accepted, learnt)
            } else {
                let (early, accepted) = join(senders);
                (early, accepted, handle.shutdown().num_observations())
            };
            let counted = dropped(&reg);
            let case = format!("round {round}: {shards} shards, cap {cap}, {first}+{second} sends");
            assert!(
                learnt >= early,
                "{case}: learnt {learnt} < accepted early {early}"
            );
            assert!(
                learnt + counted <= accepted,
                "{case}: {learnt} + {counted} > {accepted}"
            );
            if !race {
                assert_eq!(
                    learnt + counted,
                    accepted,
                    "{case}: an observation was lost"
                );
            }
        }
    }
}

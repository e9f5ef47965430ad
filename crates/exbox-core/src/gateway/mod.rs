//! The ExBox gateway (paper Fig. 5): `Arc`-published model snapshots,
//! off-path retraining, sharded packet serving.
//!
//! Serving and learning are split so admission never waits on the SVM:
//!
//! ```text
//!            packets (flow-hashed)                 observations
//!   ┌──────┐  ┌───────────────┐   try_send (bounded)  ┌─────────────┐
//!   │ NIC  │─▶│ GatewayShard 0│──────────────────────▶│             │
//!   │ RSS  │─▶│ GatewayShard 1│──────────────────────▶│   trainer   │
//!   │      │─▶│      ...      │──────────────────────▶│   thread    │
//!   └──────┘  └───────┬───────┘                       └──────┬──────┘
//!                     │ pin (one atomic load)                │ publish
//!                     ▼                                      ▼
//!              ┌─────────────────────────────────────────────────┐
//!              │ SnapshotCell<ModelSnapshot>  (epoch-stamped Arc)│
//!              └─────────────────────────────────────────────────┘
//! ```
//!
//! - **Sharding.** [`ConcurrentGateway`] partitions flow state across
//!   `N` [`GatewayShard`]s by flow hash ([`ConcurrentGateway::shard_for`]).
//!   Each shard owns a flow engine — flow table, early classifier, QoS
//!   meters, rejected set — plus its decision cache and metrics
//!   registry, so the packet path takes no cross-shard lock and
//!   bounces no shared cache line.
//! - **Snapshots.** Learnt state (scaler + compacted model + phase +
//!   the monotonicity guard's antichains) is published as an immutable
//!   epoch-stamped [`ModelSnapshot`] behind a [`SnapshotCell`]: each
//!   reader keeps its own `Arc` of the generation it last saw, so a pin
//!   between publishes is one atomic load; the writer swaps the current
//!   `Arc` under a short lock, and an old generation is freed by
//!   whichever holder lets go last (see [`snapshot`]).
//! - **Off-path training.** Observations travel a *bounded* std
//!   `sync_channel` to one background trainer thread that owns the full
//!   [`AdmittanceClassifier`]; retrains, checkpoints and recovery
//!   never run on the packet path. Backpressure drops observations
//!   (counted as `gateway.obs_dropped`) rather than stalling packets.
//!
//! - **Data plane.** [`ConcurrentGateway::start_pipeline`] turns the
//!   shards into a run-to-completion multi-core pipeline: per-shard
//!   lock-free SPSC ingress rings fed by a flow-hashing dispatcher,
//!   verdicts merged back into one globally-ordered stream that is
//!   byte-identical to sequential driving (see [`pipeline`]).
//!
//! Shard count is the [`GatewayConfig::shards`] field; a one-shard
//! gateway driven sequentially is the single-threaded middlebox. Tests
//! that need a poll's observation to be learnt before the next step
//! call [`ConcurrentGateway::flush_trainer`] in between.

pub mod pipeline;
pub mod shard;
pub mod snapshot;
pub(crate) mod spsc;
mod trainer;

#[cfg(all(test, exbox_loom))]
mod loom_models;

use std::io;
use std::path::Path;
use std::sync::{mpsc, Arc};

use crate::sync::{AtomicBool, Ordering};

use exbox_ml::Label;
use exbox_net::{FlowKey, Instant, Packet};
use exbox_obs::{MetricsRegistry, MetricsSnapshot};

use crate::admittance::{AdmittanceClassifier, AdmittanceConfig};
use crate::engine::{is_degraded, Action, FlowEngine, MiddleboxConfig, PollVerdict};
use crate::matrix::{SnrLevel, TrafficMatrix};
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::recovery::FaultPlan;

pub use pipeline::PipelineHandle;
use shard::ShardLink;
pub use shard::{GatewayShard, SharedMatrix};
pub use snapshot::{ModelSnapshot, SnapshotCell, SnapshotReader};

use trainer::{TrainerHandle, TrainerMetrics, TrainerMsg};

/// The gateway's stable flow-routing function: the shard owning `key`
/// out of `shards` lanes.
///
/// **Stable-routing contract.** Routing is a pure function of the flow
/// key and the shard count — `hash_flow_key(key) % shards`, a seedless
/// FxHash independent of the flow tables' own hash — with no
/// per-process seed, so a given flow maps to the same shard across runs, processes and
/// driving styles (sequential, `take_shards`, pipeline). Tests pin
/// concrete assignments (`tests/gateway_concurrent.rs`); changing this
/// function redistributes flow state and is a breaking change to any
/// deployment that persists per-shard artifacts.
#[inline]
pub(crate) fn route(key: &FlowKey, shards: usize) -> usize {
    // Everything routes to the only shard there is: skip the hash
    // (`h % 1` is 0 whatever `h`).
    if shards == 1 {
        return 0;
    }
    (crate::flowtable::hash_flow_key(key) % shards as u64) as usize
}

/// Gateway assembly knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Number of serving shards (≥ 1). Each shard is independently
    /// drivable by one worker thread.
    pub shards: usize,
    /// Per-shard flow-engine knobs (classify window, poll interval,
    /// rejected-set capacity, fallback cap, …).
    pub middlebox: MiddleboxConfig,
    /// Bound of the shard → trainer observation queue. A full queue
    /// drops observations (`gateway.obs_dropped`) instead of blocking.
    pub obs_queue: usize,
    /// Pipeline ingress batch size (≥ 1): packets a worker drains per
    /// pass through [`GatewayShard`]'s batch path, and the dispatcher's
    /// ring-publish stride ([`pipeline`]).
    pub batch: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 1,
            middlebox: MiddleboxConfig::default(),
            obs_queue: 256,
            batch: 64,
        }
    }
}

/// The sharded serving layer plus its background trainer.
///
/// Three driving styles:
///
/// - **Pipeline** (multi-core deployments): call
///   [`start_pipeline`](Self::start_pipeline) to move every shard
///   onto a dedicated worker behind a lock-free SPSC ingress ring and
///   drive the returned [`PipelineHandle`] — ordered verdicts,
///   built-in backpressure, byte-identical to sequential driving.
/// - **Sequential** (tests, traces, single-core deployments): call
///   [`process_packet`](Self::process_packet) /
///   [`poll`](Self::poll) / [`flow_departed`](Self::flow_departed) on
///   the gateway itself; packets are routed to their owner shard
///   in-line. Deterministic — replaying a trace yields the same
///   verdict multiset for any shard count.
/// - **Concurrent** (today only the ThreadSanitizer suites in
///   `tests/gateway_concurrent.rs`): move the shards out with
///   [`take_shards`](Self::take_shards) and drive each from its own
///   thread (a shard is `Send`, methods take `&mut self`).
///   The gateway keeps the registries, snapshot cell and trainer, so
///   [`merged_metrics`](Self::merged_metrics), checkpointing and
///   shutdown still work while the shards are out.
#[derive(Debug)]
pub struct ConcurrentGateway {
    cfg: GatewayConfig,
    shards: Vec<GatewayShard>,
    shard_registries: Vec<MetricsRegistry>,
    trainer_registry: MetricsRegistry,
    /// `pipeline.*` / `gateway.ring_*` counters; cumulative across
    /// every pipeline started on this gateway.
    pipeline_registry: MetricsRegistry,
    shared: Arc<SharedMatrix>,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    recovering: Arc<AtomicBool>,
    obs_tx: mpsc::SyncSender<TrainerMsg>,
    trainer: Option<TrainerHandle>,
    /// Per-batch shard-index scratch for the sequential batched driver
    /// (one `route` per packet, reused across calls).
    route_scratch: Vec<u32>,
}

impl Drop for ConcurrentGateway {
    fn drop(&mut self) {
        // Join the trainer *first*: field drop order would tear down
        // the shard/trainer registries, shared matrix and snapshot
        // readers while a retrain could still be in flight, so a
        // publish (and its metrics updates) could land mid-teardown
        // and be lost without trace. Shutting down here guarantees the
        // trainer drained its queue (counting leftovers in
        // `trainer.dropped_results`) before anything else goes away.
        let _ = self.shutdown();
    }
}

impl ConcurrentGateway {
    /// Assemble a gateway around a (fresh or pre-trained) classifier
    /// and spawn its background trainer. The classifier's current
    /// serving state becomes the initial published snapshot (epoch 0);
    /// fault injection follows `EXBOX_FAULTS`.
    ///
    /// Every verdict is [`ModelSnapshot::decide`], the classifier's own
    /// rule, [`AdmittanceConfig::monotone_guard`] included; the guard
    /// moves with each publish.
    pub fn new(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: AdmittanceClassifier,
    ) -> Self {
        Self::build(cfg, estimator, Some(classifier), None, false)
    }

    /// Like [`ConcurrentGateway::new`] with an explicit fault plan
    /// (shared by the trainer's classifier and every shard's poll
    /// path) instead of reading `EXBOX_FAULTS`.
    pub fn with_fault_plan(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: AdmittanceClassifier,
        faults: FaultPlan,
    ) -> Self {
        Self::build(cfg, estimator, Some(classifier), Some(faults), false)
    }

    /// Assemble a gateway that only serves: `snapshot` is published
    /// once and never replaced, no trainer thread is spawned, and
    /// shard observations are discarded. This is the configuration
    /// for deterministic replay (shard-count invariance tests) and
    /// for throughput benchmarks that must not retrain mid-run.
    pub fn serving_only(
        cfg: GatewayConfig,
        estimator: QoeEstimator,
        snapshot: ModelSnapshot,
    ) -> Self {
        let gw = Self::build(cfg, estimator, None, None, false);
        // `build` published ModelSnapshot::initial(); replace it with
        // the caller's snapshot so readers see exactly one state.
        gw.cell.publish(snapshot);
        gw
    }

    /// Restore a gateway from a checkpoint file (written by
    /// [`checkpoint_to_path`](Self::checkpoint_to_path)), resuming with
    /// the learnt region instead of re-entering bootstrap, and
    /// degrading instead of dying: on any restore error a fresh gateway
    /// is assembled around `fallback_estimator` with
    /// [`is_recovering`](Self::is_recovering) set, so the occupancy
    /// fallback gates admissions on every shard until the background
    /// trainer re-learns a model and publishes it. The error, if any,
    /// is returned alongside for logging.
    pub fn recover_from_path<P: AsRef<Path>>(
        cfg: GatewayConfig,
        acfg: AdmittanceConfig,
        fallback_estimator: QoeEstimator,
        path: P,
        registry: &MetricsRegistry,
    ) -> (Self, Option<io::Error>) {
        let faults = FaultPlan::from_env(registry);
        match persist::load_checkpoint_from_path(path.as_ref(), acfg.clone(), registry, &faults) {
            Ok((classifier, estimator)) => {
                registry.counter("recovery.restores").inc();
                let gw = Self::build(cfg, estimator, Some(classifier), Some(faults), false);
                (gw, None)
            }
            Err(err) => {
                let fresh = AdmittanceClassifier::with_registry(acfg, registry);
                let gw = Self::build(cfg, fallback_estimator, Some(fresh), Some(faults), true);
                (gw, Some(err))
            }
        }
    }

    fn build(
        mut cfg: GatewayConfig,
        estimator: QoeEstimator,
        classifier: Option<AdmittanceClassifier>,
        faults: Option<FaultPlan>,
        recovering_now: bool,
    ) -> Self {
        cfg.shards = cfg.shards.max(1);
        let initial = match &classifier {
            Some(classifier) => ModelSnapshot::from_classifier(0, classifier),
            None => ModelSnapshot::initial(),
        };
        let cell = SnapshotCell::new(initial);
        let shared = Arc::new(SharedMatrix::new());
        let recovering = Arc::new(AtomicBool::new(recovering_now));
        // At least one slot: std's zero-bound queue is a rendezvous, on
        // which a shard's `try_send` would fail whenever the trainer is busy.
        let (obs_tx, obs_rx) = mpsc::sync_channel(cfg.obs_queue.max(1));

        let trainer_registry = MetricsRegistry::new();
        let trainer = classifier.map(|mut classifier| {
            let plan = faults
                .clone()
                .unwrap_or_else(|| FaultPlan::from_env(&trainer_registry));
            classifier.set_fault_plan(plan);
            TrainerHandle::spawn(
                classifier,
                estimator.clone(),
                Arc::clone(&cell),
                Arc::clone(&recovering),
                TrainerMetrics::bind(&trainer_registry),
                obs_rx,
                obs_tx.clone(),
            )
        });
        // Serving-only: the closure above never ran, so `obs_rx` was
        // dropped with it and shard observations hit a disconnected
        // channel (discarded by design).

        let mut shard_registries = Vec::with_capacity(cfg.shards);
        let mut shards = Vec::with_capacity(cfg.shards);
        for id in 0..cfg.shards {
            let reg = MetricsRegistry::new();
            let plan = faults.clone().unwrap_or_else(|| FaultPlan::from_env(&reg));
            let engine = FlowEngine::new(cfg.middlebox.clone(), estimator.clone(), plan, &reg);
            let link = ShardLink::new(
                Arc::clone(&shared),
                obs_tx.clone(),
                Arc::clone(&recovering),
                &reg,
            );
            shards.push(GatewayShard::new(id, engine, cell.reader(), link));
            shard_registries.push(reg);
        }

        ConcurrentGateway {
            cfg,
            shards,
            shard_registries,
            trainer_registry,
            pipeline_registry: MetricsRegistry::new(),
            shared,
            cell,
            recovering,
            obs_tx,
            trainer,
            route_scratch: Vec::new(),
        }
    }

    /// Number of serving shards.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// The shard index owning `key`'s flow state; every packet, QoS
    /// report and departure for one flow must reach this shard.
    ///
    /// Routing is the seedless FxHash
    /// [`crate::flowtable::hash_flow_key`] — a few multiply-xor steps
    /// instead of the SipHash rounds `DefaultHasher` used to spend per
    /// packet, skipped with one shard — and follows the stable-routing
    /// contract documented on `route`: deterministic across runs,
    /// processes and driving styles for a given shard count.
    pub fn shard_for(&self, key: &FlowKey) -> usize {
        route(key, self.cfg.shards)
    }

    /// Move the shards out for concurrent driving (one thread each).
    /// The sequential drivers panic afterwards; everything else on the
    /// gateway — metrics, checkpointing, shutdown — keeps working.
    pub fn take_shards(&mut self) -> Vec<GatewayShard> {
        std::mem::take(&mut self.shards)
    }

    /// Start the multi-core data plane ([`pipeline`]): every shard
    /// moves onto a dedicated worker thread draining a bounded SPSC
    /// ingress ring, and the returned [`PipelineHandle`] becomes the
    /// dispatcher — [`ingest`](PipelineHandle::ingest) routes packets
    /// by flow hash, [`drain_verdicts`](PipelineHandle::drain_verdicts)
    /// returns the globally-ordered verdict stream (byte-identical to
    /// sequential driving, DESIGN.md §10). The sequential drivers
    /// panic while the pipeline runs; retire it with
    /// [`finish_pipeline`](Self::finish_pipeline) to get them back.
    pub fn start_pipeline(&mut self) -> PipelineHandle {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; return them before starting a pipeline"
        );
        let shards = self.take_shards();
        PipelineHandle::start(pipeline::PipelineSpec {
            shards,
            batch: self.cfg.batch,
            registry: &self.pipeline_registry,
        })
    }

    /// Drain and shut down a pipeline started by
    /// [`start_pipeline`](Self::start_pipeline): blocks until every
    /// in-flight packet's verdict is merged, closes the ingress rings,
    /// joins the workers (always *before* the trainer — the gateway's
    /// `Drop` only joins the trainer, so retiring the handle first is
    /// what the drop order already enforces for callers who keep both
    /// on one scope), puts the shards back for sequential driving, and
    /// returns the tail of the ordered verdict stream.
    pub fn finish_pipeline(&mut self, handle: PipelineHandle) -> Vec<Action> {
        let (mut shards, tail) = handle.finish();
        shards.sort_by_key(GatewayShard::id);
        self.shards = shards;
        tail
    }

    fn shard_mut(&mut self, idx: usize) -> &mut GatewayShard {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        &mut self.shards[idx]
    }

    /// Sequential driver: route one packet to its owner shard.
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        let idx = self.shard_for(&pkt.flow);
        self.shard_mut(idx).process_packet(pkt, snr)
    }

    /// Sequential batched driver: route a packet stream to its owner
    /// shards in maximal consecutive same-shard runs, preserving
    /// global arrival order. Verdict-identical to calling
    /// [`process_packet`](Self::process_packet) per element — runs
    /// never reorder packets, so the shared matrix and every shard's
    /// flow state evolve exactly as under per-packet driving, while
    /// each run amortises the snapshot pin and counter updates via
    /// [`GatewayShard::process_packets`]. The returned `Vec` is the
    /// call's only allocation; [`process_packets_into`](Self::process_packets_into)
    /// avoids even that.
    pub fn process_packets(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        let mut out = Vec::new();
        self.process_packets_into(pkts, &mut out);
        out
    }

    /// [`process_packets`](Self::process_packets) appending one verdict
    /// per packet to the caller's buffer: once `out` (and the gateway's
    /// tables) have reached their size, a call touches no heap at all.
    // Inlined so `process_packets` compiles to the loop over its own
    // local `Vec`: called out of line, the wrapper cost `day_serve`
    // ≈ 3.5 % on `step_p50_us` in alternated ledger pairs.
    #[inline]
    pub fn process_packets_into(&mut self, pkts: &[(Packet, SnrLevel)], out: &mut Vec<Action>) {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        // One `route` per packet (no hash at all with a single shard),
        // kept in a reused scratch.
        let shards = self.cfg.shards;
        self.route_scratch.clear();
        self.route_scratch
            .extend(pkts.iter().map(|(pkt, _)| route(&pkt.flow, shards) as u32));
        out.reserve(pkts.len());
        let mut i = 0;
        while i < pkts.len() {
            let idx = self.route_scratch[i];
            let mut j = i + 1;
            while j < pkts.len() && self.route_scratch[j] == idx {
                j += 1;
            }
            self.shards[idx as usize].process_packets_into(&pkts[i..j], out);
            i = j;
        }
    }

    /// Sequential driver: poll every shard (shard order), concatenating
    /// the verdicts.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut verdicts = Vec::new();
        self.poll_into(now, &mut verdicts);
        verdicts
    }

    /// Allocation-free twin of [`poll`](Self::poll): verdicts are
    /// appended to the caller's buffer (shard order), each shard
    /// filling it directly via [`GatewayShard::poll_into`] — no
    /// per-shard intermediate vectors, no per-poll allocation once the
    /// buffer warmed up (`gateway.poll_buf_grows` stays flat).
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<(FlowKey, PollVerdict)>) {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        for shard in &mut self.shards {
            shard.poll_into(now, out);
        }
    }

    /// Sequential driver: record a delivery report for an admitted flow.
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        let idx = self.shard_for(key);
        self.shard_mut(idx)
            .record_delivery(key, sent, received, size);
    }

    /// Sequential driver: record a drop report for an admitted flow.
    pub fn record_drop(&mut self, key: &FlowKey) {
        let idx = self.shard_for(key);
        self.shard_mut(idx).record_drop(key);
    }

    /// Sequential driver: a flow ended — release its admission.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        let idx = self.shard_for(key);
        self.shard_mut(idx).flow_departed(key);
    }

    /// Register a known server endpoint with every shard's early
    /// classifier (the DNS/SNI prior; see `exbox_net::EarlyClassifier`).
    pub fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: exbox_net::AppClass) {
        assert!(
            !self.shards.is_empty(),
            "gateway shards were taken; drive them directly"
        );
        for shard in &mut self.shards {
            shard.learn_server_hint(server, class);
        }
    }

    /// Flows currently admitted across all (non-taken) shards.
    pub fn admitted_flows(&self) -> usize {
        self.shards.iter().map(GatewayShard::admitted_flows).sum()
    }

    /// Point-in-time copy of the cell-wide traffic matrix.
    pub fn matrix(&self) -> TrafficMatrix {
        self.shared.snapshot()
    }

    /// The shared occupancy cell (for tests asserting global state
    /// while shards are driven on other threads).
    pub fn shared_matrix(&self) -> Arc<SharedMatrix> {
        Arc::clone(&self.shared)
    }

    /// Epoch of the currently published snapshot.
    pub fn snapshot_epoch(&self) -> u64 {
        self.cell.load().epoch()
    }

    /// Number of snapshots published since construction (including the
    /// initial one published by the constructor).
    pub fn publish_count(&self) -> u64 {
        self.cell.publish_count()
    }

    /// An extra reader handle onto the snapshot cell (for tests that
    /// watch publishes from other threads).
    pub fn snapshot_reader(&self) -> SnapshotReader<ModelSnapshot> {
        self.cell.reader()
    }

    /// The snapshot cell itself, for tests that publish replacement
    /// models onto a [`serving_only`](Self::serving_only) gateway —
    /// e.g. the batched-ingest property suite, which forces snapshot
    /// publication between (and during) batches and asserts verdicts
    /// stay identical to per-packet driving.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell<ModelSnapshot>> {
        Arc::clone(&self.cell)
    }

    /// True while admissions are served by the occupancy fallback
    /// instead of the learnt region: the published snapshot carries no
    /// model and either the trainer already left bootstrap (it lost or
    /// never regained its model) or the gateway is recovering from a
    /// failed restore.
    pub fn is_degraded(&self) -> bool {
        let recovering = self.recovering.load(Ordering::SeqCst);
        let snapshot = self.cell.load();
        is_degraded(snapshot.model_available(), snapshot.phase(), recovering)
    }

    /// True while the gateway is recovering from a failed restore and
    /// no re-learnt model has been published yet.
    pub fn is_recovering(&self) -> bool {
        self.recovering.load(Ordering::SeqCst)
    }

    /// Feed one observation straight to the background trainer
    /// (blocking; tests and offline trace feeds). Returns `false` when
    /// the gateway is serving-only or the trainer exited.
    pub fn inject_observation(&self, matrix: TrafficMatrix, label: Label) -> bool {
        self.obs_tx
            .send(TrainerMsg::Observe { matrix, label })
            .is_ok()
    }

    /// Wait until the trainer processed every message sent before this
    /// call. Returns `false` when there is no trainer.
    pub fn flush_trainer(&self) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.obs_tx.send(TrainerMsg::Flush { ack: ack_tx }).is_err() {
            return false;
        }
        ack_rx.recv().is_ok()
    }

    /// Checkpoint the learnt state through the trainer queue — the
    /// write happens on the trainer thread, after every observation
    /// queued before this call, and never stalls a shard.
    pub fn checkpoint_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.obs_tx
            .send(TrainerMsg::Checkpoint {
                path: path.as_ref().to_path_buf(),
                ack: ack_tx,
            })
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::Unsupported,
                    "serving-only gateway has no trainer to checkpoint",
                )
            })?;
        ack_rx.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "trainer exited before acknowledging the checkpoint",
            )
        })?
    }

    /// Per-shard metrics registries, indexed by shard id.
    pub fn shard_registries(&self) -> &[MetricsRegistry] {
        &self.shard_registries
    }

    /// The trainer thread's registry (`recovery.checkpoint_writes`,
    /// plus fault-plan counters when the plan was bound here).
    pub fn trainer_registry(&self) -> &MetricsRegistry {
        &self.trainer_registry
    }

    /// The pipeline registry (`pipeline.*`, `gateway.ring_*`);
    /// counters accumulate across every pipeline started on this
    /// gateway.
    pub fn pipeline_registry(&self) -> &MetricsRegistry {
        &self.pipeline_registry
    }

    /// One coherent metrics view across every shard and the trainer:
    /// counters summed, gauges maxed, histograms merged bucket-wise
    /// (see [`MetricsSnapshot::merged`]). The engine's counters keep
    /// their `middlebox.*` names whatever the shard count.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut parts: Vec<MetricsSnapshot> = self
            .shard_registries
            .iter()
            .map(MetricsRegistry::snapshot)
            .collect();
        parts.push(self.trainer_registry.snapshot());
        parts.push(self.pipeline_registry.snapshot());
        MetricsSnapshot::merged(&parts)
    }

    /// Stop the background trainer and take back the classifier (for
    /// inspection or a final synchronous checkpoint). `None` for a
    /// serving-only gateway. Shards keep serving the last published
    /// snapshot after shutdown.
    pub fn shutdown(&mut self) -> Option<AdmittanceClassifier> {
        self.trainer.take().map(TrainerHandle::shutdown)
    }
}

//! The ExBox middlebox: the packet-facing assembly (paper Fig. 5).
//!
//! Wires the substrates into the gateway-resident pipeline:
//!
//! 1. every packet updates the flow table; the first packets of a new
//!    flow run through early traffic classification (§4.2: "a flow
//!    needs to be admitted briefly before any admission control
//!    decision is made"),
//! 2. once classified, the flow's `(class, SNR-level)` forms the
//!    arrival tuple and the Admittance Classifier decides,
//! 3. admitted flows are QoS-metered; periodic polls estimate QoE via
//!    the fitted IQX models, feed `(X, Y)` observations back into the
//!    classifier, and re-evaluate admitted flows whose circumstances
//!    changed (§4.3 — mobility, app adaptation).
//!
//! ## Crash safety and degraded mode
//!
//! [`Middlebox::checkpoint`] snapshots the learnt state (classifier +
//! QoE fits) into the `exbox-ckpt` format; [`Middlebox::restore`]
//! resumes from it without re-entering bootstrap. When no model is
//! servable — a checkpoint failed to restore, or retraining keeps
//! failing — the middlebox degrades to the occupancy baseline
//! (the paper's `MaxClient` rule: admit while the cell holds fewer
//! than `fallback_max_flows` flows) instead of blindly admitting or
//! rejecting, counted by `recovery.fallback_decisions`. Fault injection
//! for all of this lives in [`crate::recovery`] (`EXBOX_FAULTS`).
//!
//! ## One engine, two model sources
//!
//! The pipeline above is written once, in the crate's flow engine: it
//! owns the per-partition state (admitted flows and their QoS meters,
//! the bounded rejected set, the poll timer wheel, the early
//! classifier, the decision log, the `middlebox.*` metric handles) and
//! the steps over it — probe, decide→apply, meter, depart, poll. The
//! engine is generic over *where the model and the occupancy live*:
//!
//! * **inline** — [`Middlebox`]: an owned [`AdmittanceClassifier`] and
//!   [`TrafficMatrix`]. Poll observations train the classifier on the
//!   caller's thread, decisions go through its (optional) monotone
//!   guard and are not memoised, `checkpoint()` runs where it is
//!   called.
//! * **pinned** — [`GatewayShard`](crate::gateway::GatewayShard): the
//!   published [`ModelSnapshot`](crate::gateway::ModelSnapshot)
//!   and the cell-wide [`SharedMatrix`](crate::gateway::SharedMatrix).
//!   Observations travel the bounded channel to the background
//!   trainer, arrival decisions go through the shard's epoch-keyed
//!   cache, checkpoints execute on the trainer thread.
//!
//! So a `Middlebox` *is* a one-partition
//! [`ConcurrentGateway`](crate::gateway::ConcurrentGateway) whose
//! trainer runs inline — by construction, not by mirroring; what this
//! module adds on top of the engine is the checkpoint/restore surface.
//! Today the `flow_scale_soak` binary, the `pcap_gateway` example and
//! the test suites drive the single-threaded API; the DES simulator and
//! the figure pipeline score [`ExBoxController`](crate::baselines::ExBoxController)
//! and never touch the packet path.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use exbox_ml::Label;
use exbox_net::{FlowKey, Instant, Packet};
use exbox_obs::{Counter, EventRing, MetricsRegistry};

use crate::admittance::{AdmittanceClassifier, AdmittanceConfig, Phase};
use crate::engine::{is_degraded, FlowEngine, ModelSource, Run};
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use crate::persist;
use crate::qoe::QoeEstimator;
use crate::recovery::FaultPlan;

pub use crate::engine::{
    Action, DecisionEvent, DecisionKind, DecisionReason, MiddleboxConfig, PollVerdict,
};

/// The inline model source: the classifier and the occupancy are owned
/// values, and observations train the classifier where the poll runs.
#[derive(Debug)]
struct InlineModel {
    admittance: AdmittanceClassifier,
    matrix: TrafficMatrix,
    /// Set when a restore failed and the middlebox started fresh; the
    /// fallback then gates admissions (even during bootstrap) until a
    /// model is re-learnt.
    recovering: bool,
}

impl ModelSource for InlineModel {
    fn matrix(&self) -> TrafficMatrix {
        self.matrix
    }

    fn add(&mut self, kind: FlowKind) {
        self.matrix.add(kind);
    }

    fn remove(&mut self, kind: FlowKind) {
        self.matrix.remove(kind);
    }

    fn phase(&self) -> Phase {
        self.admittance.phase()
    }

    fn model_available(&self) -> bool {
        self.admittance.model_available()
    }

    fn recovering(&self) -> bool {
        self.recovering
    }

    fn decide(&mut self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        self.admittance.decide(resulting)
    }

    fn observe(&mut self, label: Label) {
        self.admittance.observe(self.matrix, label);
        // What the gateway's trainer does after each observation.
        if self.admittance.model_available() {
            self.recovering = false;
        }
    }
}

/// The assembled middlebox for one cell: one flow engine over an
/// inline model source, plus the checkpoint/restore surface.
#[derive(Debug)]
pub struct Middlebox {
    engine: FlowEngine,
    model: InlineModel,
    /// `recovery.checkpoint_writes` — checkpoints written successfully.
    checkpoint_writes: Arc<Counter>,
    /// `recovery.restores` — middleboxes restored from a checkpoint.
    restores: Arc<Counter>,
}

impl Middlebox {
    /// Assemble a middlebox from a trained QoE estimator and a fresh
    /// (or pre-trained) Admittance Classifier, reporting metrics to
    /// the process-wide [`exbox_obs::global`] registry.
    pub fn new(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        admittance: AdmittanceClassifier,
    ) -> Self {
        Self::with_registry(cfg, estimator, admittance, exbox_obs::global())
    }

    /// Like [`Middlebox::new`] but reporting to an explicit registry,
    /// so tests can assert exact counter values in isolation.
    pub fn with_registry(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        mut admittance: AdmittanceClassifier,
        registry: &MetricsRegistry,
    ) -> Self {
        let faults = FaultPlan::from_env(registry);
        admittance.set_fault_plan(faults.clone());
        Middlebox {
            engine: FlowEngine::new(cfg, estimator, faults, registry),
            model: InlineModel {
                admittance,
                matrix: TrafficMatrix::empty(),
                recovering: false,
            },
            checkpoint_writes: registry.counter("recovery.checkpoint_writes"),
            restores: registry.counter("recovery.restores"),
        }
    }

    /// Replace the fault-injection plan (tests and fault drills); the
    /// wrapped classifier shares the same plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.model.admittance.set_fault_plan(plan.clone());
        self.engine.set_fault_plan(plan);
    }

    /// True while admission decisions are served by the occupancy
    /// fallback instead of the learnt region: no model is servable and
    /// either the classifier already left bootstrap (it lost or never
    /// regained its model) or the middlebox is recovering from a
    /// failed restore.
    pub fn is_degraded(&self) -> bool {
        let model = &self.model;
        is_degraded(model.model_available(), model.phase(), model.recovering)
    }

    /// True until the first model is (re-)learnt after a failed
    /// restore.
    pub fn is_recovering(&self) -> bool {
        self.model.recovering
    }

    /// The bounded audit trail of admit/reject/revoke decisions,
    /// newest last.
    pub fn decision_log(&self) -> &EventRing<DecisionEvent> {
        self.engine.decision_log()
    }

    /// Register a known server endpoint with the early classifier
    /// (the DNS/SNI prior; see `exbox_net::EarlyClassifier`).
    pub fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: exbox_net::AppClass) {
        self.engine.learn_server_hint(server, class);
    }

    /// Current traffic matrix as the middlebox believes it.
    pub fn matrix(&self) -> TrafficMatrix {
        self.model.matrix
    }

    /// The wrapped Admittance Classifier.
    pub fn admittance(&self) -> &AdmittanceClassifier {
        &self.model.admittance
    }

    /// Number of currently admitted flows.
    pub fn admitted_flows(&self) -> usize {
        self.engine.admitted_flows()
    }

    /// Snapshot the learnt state (Admittance Classifier + QoE fits)
    /// into the versioned `exbox-ckpt` format. Live flow-table state
    /// is deliberately not checkpointed: after a crash the flows are
    /// re-discovered through early classification, while the learnt
    /// region — the expensive part — survives.
    pub fn checkpoint<W: Write>(&self, out: W) -> io::Result<()> {
        persist::save_checkpoint(&self.model.admittance, self.engine.estimator(), out)?;
        self.checkpoint_writes.inc();
        Ok(())
    }

    /// [`Middlebox::checkpoint`] to a file, written atomically (temp
    /// file + fsync + rename) so a crash mid-write never clobbers the
    /// previous good checkpoint.
    pub fn checkpoint_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        persist::save_checkpoint_to_path(
            &self.model.admittance,
            self.engine.estimator(),
            path.as_ref(),
        )?;
        self.checkpoint_writes.inc();
        Ok(())
    }

    /// Rebuild a middlebox from a checkpoint, resuming with the learnt
    /// region instead of re-entering bootstrap. Reports to the
    /// process-wide registry.
    pub fn restore<R: Read>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        input: R,
    ) -> io::Result<Self> {
        Self::restore_with_registry(cfg, acfg, input, exbox_obs::global())
    }

    /// Like [`Middlebox::restore`] with an explicit registry.
    pub fn restore_with_registry<R: Read>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        input: R,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        let (admittance, estimator) = persist::load_checkpoint(input, acfg, registry)?;
        let mb = Self::with_registry(cfg, estimator, admittance, registry);
        mb.restores.inc();
        Ok(mb)
    }

    /// [`Middlebox::restore`] from a checkpoint file. Checkpoint-read
    /// faults (`ckpt_corrupt` / `ckpt_truncate` in `EXBOX_FAULTS`) are
    /// injected here, against the in-memory copy — the file itself is
    /// never touched.
    pub fn restore_from_path<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        path: P,
    ) -> io::Result<Self> {
        Self::restore_from_path_with_registry(cfg, acfg, path, exbox_obs::global())
    }

    /// Like [`Middlebox::restore_from_path`] with an explicit registry.
    pub fn restore_from_path_with_registry<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        path: P,
        registry: &MetricsRegistry,
    ) -> io::Result<Self> {
        let faults = FaultPlan::from_env(registry);
        let (admittance, estimator) =
            persist::load_checkpoint_from_path(path.as_ref(), acfg, registry, &faults)?;
        let mb = Self::with_registry(cfg, estimator, admittance, registry);
        mb.restores.inc();
        Ok(mb)
    }

    /// Restore from a checkpoint file, degrading instead of dying: on
    /// any restore error (missing, torn, corrupt, malformed) a fresh
    /// middlebox is assembled around `fallback_estimator` with
    /// [`Middlebox::is_recovering`] set, so the occupancy baseline
    /// gates admissions until a model is re-learnt. The error, if any,
    /// is returned alongside for logging.
    pub fn recover_from_path<P: AsRef<Path>>(
        cfg: MiddleboxConfig,
        acfg: AdmittanceConfig,
        fallback_estimator: QoeEstimator,
        path: P,
        registry: &MetricsRegistry,
    ) -> (Self, Option<io::Error>) {
        match Self::restore_from_path_with_registry(cfg.clone(), acfg.clone(), path, registry) {
            Ok(mb) => (mb, None),
            Err(err) => {
                let fresh = AdmittanceClassifier::with_registry(acfg, registry);
                let mut mb = Self::with_registry(cfg, fallback_estimator, fresh, registry);
                mb.model.recovering = true;
                (mb, Some(err))
            }
        }
    }

    /// Process one packet crossing the gateway. `snr` is the client's
    /// current SNR level as reported by the AP/eNodeB (§3.3).
    ///
    /// # Example
    ///
    /// ```
    /// use exbox_core::admittance::{AdmittanceClassifier, AdmittanceConfig};
    /// use exbox_core::matrix::SnrLevel;
    /// use exbox_core::middlebox::{Action, Middlebox, MiddleboxConfig};
    /// use exbox_core::qoe::{paper_directions, train_estimator, QoeEstimator, QosScale};
    /// use exbox_net::packet::{Direction, FlowKey, Packet, Protocol};
    /// use exbox_net::time::Instant;
    ///
    /// let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
    ///     (0..20).map(|i| { let q = i as f64 / 19.0; (q, a + b * (-g * q).exp()) }).collect()
    /// };
    /// let estimator = train_estimator(
    ///     &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
    ///     QoeEstimator::paper_thresholds(),
    ///     paper_directions(),
    ///     QosScale::new(1e3, 1e8),
    /// );
    /// let mut mb = Middlebox::new(
    ///     MiddleboxConfig::default(),
    ///     estimator,
    ///     AdmittanceClassifier::new(AdmittanceConfig::default()),
    /// );
    /// let flow = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
    /// let pkt = Packet::new(Instant::from_nanos(0), 1200, flow, Direction::Downlink, 0);
    /// // Pre-admission packets are forwarded while the early classifier
    /// // gathers evidence (§4.2).
    /// assert_eq!(mb.process_packet(&pkt, SnrLevel::High), Action::Forward);
    /// ```
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        let mut run = Run::default();
        let action = self.engine.step(&mut run, &mut self.model, pkt, snr);
        self.engine.flush(run);
        action
    }

    /// Process a batch of packets, amortising the per-packet overheads:
    /// the packet counter is flushed once per batch, and consecutive
    /// packets of one flow in a *terminal* state (already admitted or
    /// already rejected) skip the hash lookups entirely via a
    /// run-length disposition cache. Terminal states cannot flip
    /// mid-batch — revocation happens only in [`Middlebox::poll`] and
    /// departure only in [`Middlebox::flow_departed`], neither of which
    /// can run inside a batch — so the returned verdicts are identical
    /// to calling [`Middlebox::process_packet`] per packet, for every
    /// split of the stream (property-tested in `tests/batch_props.rs`).
    ///
    /// # Example
    ///
    /// ```
    /// use exbox_core::admittance::{AdmittanceClassifier, AdmittanceConfig};
    /// use exbox_core::matrix::SnrLevel;
    /// use exbox_core::middlebox::{Action, Middlebox, MiddleboxConfig};
    /// use exbox_core::qoe::{paper_directions, train_estimator, QoeEstimator, QosScale};
    /// use exbox_net::packet::{Direction, FlowKey, Packet, Protocol};
    /// use exbox_net::time::Instant;
    ///
    /// let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
    ///     (0..20).map(|i| { let q = i as f64 / 19.0; (q, a + b * (-g * q).exp()) }).collect()
    /// };
    /// let estimator = train_estimator(
    ///     &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
    ///     QoeEstimator::paper_thresholds(),
    ///     paper_directions(),
    ///     QosScale::new(1e3, 1e8),
    /// );
    /// let mut mb = Middlebox::new(
    ///     MiddleboxConfig::default(),
    ///     estimator,
    ///     AdmittanceClassifier::new(AdmittanceConfig::default()),
    /// );
    /// let flow = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
    /// let batch: Vec<(Packet, SnrLevel)> = (0..4)
    ///     .map(|i| {
    ///         let p = Packet::new(Instant::from_nanos(i), 1200, flow, Direction::Downlink, i);
    ///         (p, SnrLevel::High)
    ///     })
    ///     .collect();
    /// let verdicts = mb.process_batch(&batch);
    /// assert_eq!(verdicts.len(), 4);
    /// assert!(verdicts.iter().all(|v| *v == Action::Forward));
    /// ```
    pub fn process_batch(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        let mut run = Run::default();
        let out = pkts
            .iter()
            .map(|(pkt, snr)| self.engine.step(&mut run, &mut self.model, pkt, *snr))
            .collect();
        self.engine.flush(run);
        out
    }

    /// Record a delivery report for an admitted flow (from the AP's
    /// transmission-status feed in a real deployment, or from the
    /// simulator here).
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        self.engine.record_delivery(key, sent, received, size);
    }

    /// Record a drop report for an admitted flow.
    pub fn record_drop(&mut self, key: &FlowKey) {
        self.engine.record_drop(key);
    }

    /// A flow ended (FIN/idle-eviction): release its admission.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        if let Some(kind) = self.engine.flow_departed(key) {
            self.model.matrix.remove(kind);
        }
    }

    /// Periodic poll (paper §4.3): estimate admitted flows' QoE from
    /// their metered QoS, feed the aggregate observation to the
    /// Admittance Classifier, and re-evaluate the admitted set against
    /// the (possibly re-learnt) region. Returns **only the revoked
    /// flows** (empty when everything was kept — kept flows are tallied
    /// in the `middlebox.keeps` counter instead of materialised), in
    /// deterministic admission order, oldest first. A no-op before
    /// `poll_interval` has elapsed since the last poll.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut verdicts = Vec::new();
        self.engine.poll_into(&mut self.model, now, &mut verdicts);
        verdicts
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::admittance::AdmittanceConfig;
    use crate::qoe::{paper_directions, train_estimator, QoeEstimator};
    use crate::recovery::FaultKind;
    use exbox_net::{AppClass, Direction, Duration, Protocol};

    pub(crate) fn estimator() -> QoeEstimator {
        let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
            (0..20)
                .map(|i| {
                    let q = i as f64 / 19.0;
                    (q, a + b * (-g * q).exp())
                })
                .collect()
        };
        train_estimator(
            &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
            QoeEstimator::paper_thresholds(),
            paper_directions(),
            crate::qoe::QosScale::new(1e3, 1e8),
        )
    }

    pub(crate) fn streaming_pkts(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::new(
                    Instant::from_millis(2 * i as u64),
                    1400,
                    key,
                    Direction::Downlink,
                    i as u64,
                )
            })
            .collect()
    }

    fn mb() -> Middlebox {
        Middlebox::new(
            MiddleboxConfig::default(),
            estimator(),
            AdmittanceClassifier::new(AdmittanceConfig::default()),
        )
    }

    #[test]
    fn classifies_then_admits_during_bootstrap() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            assert_eq!(m.process_packet(&p, SnrLevel::High), Action::Forward);
        }
        assert_eq!(m.admitted_flows(), 1);
        assert_eq!(m.matrix().total(), 1);
    }

    #[test]
    fn rejected_flow_packets_are_dropped() {
        // Pre-train the admittance classifier to reject everything
        // beyond 1 flow.
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        for n in 0..80u32 {
            let total = n % 8;
            let mut mat = TrafficMatrix::empty();
            for _ in 0..total {
                mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            }
            let y = if total <= 1 { Label::Pos } else { Label::Neg };
            ac.observe(mat, y);
        }
        assert_eq!(ac.phase(), Phase::Online);
        let mut m = Middlebox::new(MiddleboxConfig::default(), estimator(), ac);

        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.admitted_flows(), 1);

        // Second flow exceeds the learnt region.
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let pkts = streaming_pkts(k2, 12);
        let actions: Vec<Action> = pkts
            .iter()
            .map(|p| m.process_packet(p, SnrLevel::High))
            .collect();
        assert_eq!(actions.last(), Some(&Action::Drop));
        assert_eq!(m.admitted_flows(), 1);
        // Subsequent packets of the rejected flow keep dropping.
        assert_eq!(
            m.process_packet(&streaming_pkts(k2, 13)[12], SnrLevel::High),
            Action::Drop
        );
    }

    #[test]
    fn departure_frees_matrix_slot() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.matrix().total(), 1);
        m.flow_departed(&key);
        assert_eq!(m.matrix().total(), 0);
        assert_eq!(m.admitted_flows(), 0);
    }

    #[test]
    fn poll_feeds_observations_to_classifier() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        // Healthy QoS deliveries.
        for i in 0..50u64 {
            m.record_delivery(
                &key,
                Instant::from_millis(i * 10),
                Instant::from_millis(i * 10 + 5),
                1400,
            );
        }
        let before = m.admittance().num_samples();
        let verdicts = m.poll(Instant::from_secs(5));
        assert!(m.admittance().num_samples() > before, "poll must observe");
        assert!(verdicts.is_empty() || verdicts.iter().all(|(_, v)| *v == PollVerdict::Keep));
    }

    /// A classifier pre-trained to admit only a single streaming flow.
    fn single_flow_classifier() -> AdmittanceClassifier {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        for n in 0..80u32 {
            let total = n % 8;
            let mut mat = TrafficMatrix::empty();
            for _ in 0..total {
                mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            }
            let y = if total <= 1 { Label::Pos } else { Label::Neg };
            ac.observe(mat, y);
        }
        assert_eq!(ac.phase(), Phase::Online);
        ac
    }

    #[test]
    fn rejected_set_is_bounded_and_counts_evictions() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig {
                rejected_capacity: 2,
                ..MiddleboxConfig::default()
            },
            estimator(),
            single_flow_classifier(),
            &reg,
        );
        // One admitted flow fills the region; every later arrival is
        // rejected (scan-like traffic).
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        assert_eq!(m.admitted_flows(), 1);
        let scans: Vec<FlowKey> = (2..5)
            .map(|i| FlowKey::synthetic(i, i, 1, Protocol::Tcp))
            .collect();
        for &k in &scans {
            for p in streaming_pkts(k, 12) {
                m.process_packet(&p, SnrLevel::High);
            }
        }
        assert_eq!(
            reg.snapshot().gauge("middlebox.rejected_occupancy"),
            Some(2.0),
            "rejected set must stay bounded"
        );
        assert_eq!(
            reg.snapshot()
                .counter("middlebox.rejected_evictions")
                .unwrap(),
            1,
            "third rejection must evict the oldest record"
        );
        // The evicted (oldest) scan flow is no longer auto-dropped: it
        // re-enters early classification and its first packet forwards.
        assert_eq!(
            m.process_packet(&streaming_pkts(scans[0], 1)[0], SnrLevel::High),
            Action::Forward
        );
        // The still-remembered newest scan flow keeps dropping.
        assert_eq!(
            m.process_packet(&streaming_pkts(scans[2], 1)[0], SnrLevel::High),
            Action::Drop
        );
    }

    #[test]
    fn checkpoint_restore_resumes_online_with_identical_decisions() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig::default(),
            estimator(),
            single_flow_classifier(),
            &reg,
        );
        let mut buf = Vec::new();
        m.checkpoint(&mut buf).unwrap();
        assert_eq!(
            reg.snapshot()
                .counter("recovery.checkpoint_writes")
                .unwrap(),
            1
        );

        let restored_reg = MetricsRegistry::new();
        let mut r = Middlebox::restore_with_registry(
            MiddleboxConfig::default(),
            AdmittanceConfig::default(),
            &buf[..],
            &restored_reg,
        )
        .expect("restore must succeed");
        assert_eq!(r.admittance().phase(), Phase::Online, "no re-bootstrap");
        assert!(!r.is_degraded());
        assert_eq!(
            restored_reg
                .snapshot()
                .counter("recovery.restores")
                .unwrap(),
            1
        );

        // The restarted gateway must reach the same verdicts on the
        // same traffic as the original would have.
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let drive = |mb: &mut Middlebox| -> Vec<Action> {
            let mut out = Vec::new();
            for p in streaming_pkts(k1, 10) {
                out.push(mb.process_packet(&p, SnrLevel::High));
            }
            for p in streaming_pkts(k2, 12) {
                out.push(mb.process_packet(&p, SnrLevel::High));
            }
            out
        };
        assert_eq!(drive(&mut m), drive(&mut r));
        assert_eq!(r.admitted_flows(), 1);
    }

    #[test]
    fn failed_restore_degrades_to_occupancy_fallback() {
        let reg = MetricsRegistry::new();
        let (mut m, err) = Middlebox::recover_from_path(
            MiddleboxConfig {
                fallback_max_flows: 1,
                ..MiddleboxConfig::default()
            },
            AdmittanceConfig::default(),
            estimator(),
            "/nonexistent/exbox-gateway.ckpt",
            &reg,
        );
        assert!(err.is_some(), "missing checkpoint must surface an error");
        assert!(m.is_recovering());
        assert!(m.is_degraded());

        // The occupancy fallback (cap 1) gates admissions instead of
        // bootstrap's admit-everything.
        let k1 = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(k1, 10) {
            assert_eq!(m.process_packet(&p, SnrLevel::High), Action::Forward);
        }
        assert_eq!(m.admitted_flows(), 1);
        let k2 = FlowKey::synthetic(2, 2, 1, Protocol::Tcp);
        let last = streaming_pkts(k2, 12)
            .iter()
            .map(|p| m.process_packet(p, SnrLevel::High))
            .last();
        assert_eq!(last, Some(Action::Drop), "fallback must cap occupancy");
        assert_eq!(m.admitted_flows(), 1);

        let events = m.decision_log().snapshot();
        assert!(!events.is_empty());
        for ev in &events {
            assert_eq!(ev.reason, DecisionReason::DegradedFallback);
            assert_eq!(ev.margin, None, "no model, no margin");
        }
        assert_eq!(
            reg.snapshot()
                .counter("recovery.fallback_decisions")
                .unwrap(),
            2,
            "one fallback decision per classified arrival"
        );
    }

    #[test]
    fn injected_poll_error_skips_observation_feed() {
        let reg = MetricsRegistry::new();
        let mut m = Middlebox::with_registry(
            MiddleboxConfig::default(),
            estimator(),
            AdmittanceClassifier::with_registry(AdmittanceConfig::default(), &reg),
            &reg,
        );
        m.set_fault_plan(crate::recovery::FaultPlan::with_registry(
            &[(FaultKind::PollError, 1.0)],
            9,
            &reg,
        ));
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        for i in 0..50u64 {
            m.record_delivery(
                &key,
                Instant::from_millis(i * 10),
                Instant::from_millis(i * 10 + 5),
                1400,
            );
        }
        let before = m.admittance().num_samples();
        let _ = m.poll(Instant::from_secs(5));
        assert_eq!(
            m.admittance().num_samples(),
            before,
            "a failed poll must not feed observations"
        );
        assert_eq!(reg.snapshot().counter("recovery.poll_errors").unwrap(), 1);
    }

    #[test]
    fn poll_respects_interval() {
        let mut m = mb();
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 10) {
            m.process_packet(&p, SnrLevel::High);
        }
        m.record_delivery(&key, Instant::ZERO, Instant::from_millis(5), 1400);
        let _ = m.poll(Instant::from_secs(5));
        // Immediately again: below the interval, no-op.
        m.record_delivery(&key, Instant::ZERO, Instant::from_millis(5), 1400);
        let before = m.admittance().num_samples();
        let v = m.poll(Instant::from_secs(5) + Duration::from_millis(100));
        assert!(v.is_empty());
        assert_eq!(m.admittance().num_samples(), before);
    }
}

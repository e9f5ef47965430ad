//! Per-shard serving state and the shared atomic occupancy cell.
//!
//! A [`GatewayShard`] is one flow-hash partition of the middlebox
//! pipeline: its own flow engine (flow table, early classifier, QoS
//! meters, rejected set, decision log), decision cache and `exbox-obs`
//! sub-registry — so the packet path touches no cross-shard locks and
//! increments no shared counters. The only cross-shard state a
//! decision reads is the [`SharedMatrix`] (the cell-wide traffic
//! matrix, six atomic counters) and the published [`ModelSnapshot`] (a
//! pin is one atomic load between publishes): together they are the
//! engine's model source.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::TrySendError;
use std::sync::Arc;

use crate::sync::{AtomicBool, AtomicU32, Ordering};

use super::channel::BoundedSender;

use exbox_ml::Label;
use exbox_net::{AppClass, FlowKey, Instant, Packet};
use exbox_obs::{Counter, EventRing, MetricsRegistry};

use crate::admittance::Phase;
use crate::engine::{
    is_degraded, Action, DecisionEvent, FlowEngine, ModelSource, PollVerdict, Probe, Run,
};
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};

use super::pipeline::OrderGate;
use super::snapshot::{ModelSnapshot, SnapshotCell, SnapshotReader};
use super::trainer::TrainerMsg;

/// Abstraction over the two batch-input shapes — the sequential
/// driver's `&[(Packet, SnrLevel)]` and the pipeline's
/// sequence-tagged `&[(u64, Packet, SnrLevel)]` — so both run the
/// *same* batch loop ([`GatewayShard::process_batch_inner`]) and can
/// never drift apart in decision semantics.
trait BatchInput {
    fn len(&self) -> usize;
    fn item(&self, i: usize) -> (&Packet, SnrLevel);
    /// Global ingress sequence of element `i` (its index for untagged
    /// input, where nothing consumes it).
    fn seq(&self, i: usize) -> u64;
}

impl BatchInput for [(Packet, SnrLevel)] {
    fn len(&self) -> usize {
        self.len()
    }

    fn item(&self, i: usize) -> (&Packet, SnrLevel) {
        (&self[i].0, self[i].1)
    }

    fn seq(&self, i: usize) -> u64 {
        i as u64
    }
}

impl BatchInput for [(u64, Packet, SnrLevel)] {
    fn len(&self) -> usize {
        self.len()
    }

    fn item(&self, i: usize) -> (&Packet, SnrLevel) {
        (&self[i].1, self[i].2)
    }

    fn seq(&self, i: usize) -> u64 {
        self[i].0
    }
}

/// The cell-wide traffic matrix as atomics: shard decisions read a
/// point-in-time [`TrafficMatrix`] from it and admissions/departures
/// update it, so every shard decides against the *global* occupancy —
/// which is what makes verdicts shard-count-invariant when a trace is
/// replayed deterministically.
///
/// All operations are `SeqCst` (six counters; the cost is noise next
/// to the model evaluation). Under concurrent serving a snapshot is
/// each counter's latest value, not an inter-counter consistent cut —
/// the same tolerance the paper's periodic-poll design already has.
#[derive(Debug, Default)]
pub struct SharedMatrix {
    counts: [AtomicU32; TrafficMatrix::DIMS],
}

impl SharedMatrix {
    /// The empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time copy as a value-type matrix.
    pub fn snapshot(&self) -> TrafficMatrix {
        TrafficMatrix::from_counts(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::SeqCst)
        }))
    }

    /// Record an admission.
    pub fn add(&self, kind: FlowKind) {
        self.counts[kind.flat_index()].fetch_add(1, Ordering::SeqCst);
    }

    /// Record a departure or revocation (saturating at zero).
    pub fn remove(&self, kind: FlowKind) {
        let _ =
            self.counts[kind.flat_index()].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Total admitted flows right now.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|c| c.load(Ordering::SeqCst)).sum()
    }
}

/// Multiply-fold hasher for the decision memo's keys. A
/// [`TrafficMatrix`] is six small counters of the gateway's own
/// admissions — nothing an outsider picks freely, and the memo is
/// capped and cleared — so SipHash's keyed rounds buy nothing on a
/// lookup every arrival decision makes. Folds whatever `Hash` writes,
/// eight bytes at a time, FxHash-style.
#[derive(Debug, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        // The product's entropy sits in the high bits; the map picks
        // buckets from both ends.
        self.0 ^ (self.0 >> 32)
    }
}

/// Distinct matrices a shard's decision memo holds before it clears.
/// Matrices live on a small lattice and recur constantly under steady
/// load; no caller ever asked for another size.
const DECISION_CACHE_CAP: usize = 4096;

/// Bounded decision memo keyed by `(snapshot epoch, resulting
/// matrix)`. A new epoch clears the map lazily on first insert, so a
/// snapshot publish costs the shard nothing until it actually decides
/// again.
#[derive(Debug)]
struct ShardDecisionCache {
    cap: usize,
    epoch: u64,
    map: HashMap<TrafficMatrix, (Label, f64), BuildHasherDefault<FoldHasher>>,
}

impl ShardDecisionCache {
    fn new(cap: usize) -> Self {
        ShardDecisionCache {
            cap,
            epoch: 0,
            map: HashMap::default(),
        }
    }

    fn get(&self, epoch: u64, key: &TrafficMatrix) -> Option<(Label, f64)> {
        if epoch != self.epoch {
            return None;
        }
        self.map.get(key).copied()
    }

    fn insert(&mut self, epoch: u64, key: TrafficMatrix, label: Label, margin: f64) {
        if epoch != self.epoch {
            self.map.clear();
            self.epoch = epoch;
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, (label, margin));
    }
}

/// A shard's side of the pinned model source: its links to the rest
/// of the gateway (shared matrix, trainer queue, recovery flag), its
/// epoch-keyed decision cache and the `gateway.*` counters. Each shard
/// binds its **own** registry, so the hot-path increments land on
/// shard-private cache lines and only
/// [`exbox_obs::MetricsSnapshot::merged`] ever sums them.
#[derive(Debug)]
pub(super) struct ShardLink {
    shared: Arc<SharedMatrix>,
    obs_tx: BoundedSender<TrainerMsg>,
    recovering: Arc<AtomicBool>,
    cache: ShardDecisionCache,
    /// `gateway.obs_dropped` — observations dropped because the
    /// bounded trainer queue was full (backpressure made visible).
    obs_dropped: Arc<Counter>,
    /// `gateway.cache_hits` / `gateway.cache_misses` — the shard's
    /// epoch-keyed decision cache.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// `gateway.poll_buf_grows` — times a poll had to grow the
    /// caller's verdict buffer; stays 0 in steady state when callers
    /// reuse a buffer via [`GatewayShard::poll_into`].
    poll_buf_grows: Arc<Counter>,
}

impl ShardLink {
    pub(super) fn new(
        shared: Arc<SharedMatrix>,
        obs_tx: BoundedSender<TrainerMsg>,
        recovering: Arc<AtomicBool>,
        registry: &MetricsRegistry,
    ) -> Self {
        ShardLink {
            shared,
            obs_tx,
            recovering,
            cache: ShardDecisionCache::new(DECISION_CACHE_CAP),
            obs_dropped: registry.counter("gateway.obs_dropped"),
            cache_hits: registry.counter("gateway.cache_hits"),
            cache_misses: registry.counter("gateway.cache_misses"),
            poll_buf_grows: registry.counter("gateway.poll_buf_grows"),
        }
    }
}

/// The pinned model source: one pinned [`ModelSnapshot`] over the
/// shard's [`ShardLink`]. Lives as long as the pin — one decision, one
/// poll, or a batch's stretch between publications.
struct Pinned<'a> {
    snapshot: &'a ModelSnapshot,
    link: &'a mut ShardLink,
}

impl ModelSource for Pinned<'_> {
    fn matrix(&self) -> TrafficMatrix {
        self.link.shared.snapshot()
    }

    fn add(&mut self, kind: FlowKind) {
        self.link.shared.add(kind);
    }

    fn remove(&mut self, kind: FlowKind) {
        self.link.shared.remove(kind);
    }

    fn phase(&self) -> Phase {
        self.snapshot.phase()
    }

    fn model_available(&self) -> bool {
        self.snapshot.model_available()
    }

    fn recovering(&self) -> bool {
        self.link.recovering.load(Ordering::SeqCst)
    }

    fn decide(&mut self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        let epoch = self.snapshot.epoch();
        if let Some((label, margin)) = self.link.cache.get(epoch, resulting) {
            self.link.cache_hits.inc();
            return (label, Some(margin));
        }
        let (label, margin) = self.snapshot.decide(resulting);
        if let Some(m) = margin {
            self.link.cache_misses.inc();
            self.link.cache.insert(epoch, *resulting, label, m);
        }
        (label, margin)
    }

    /// Poll re-evaluations bypass the arrival cache (and its counters):
    /// a standing matrix is scored once per poll, not once per packet.
    fn reevaluate(&mut self, standing: &TrafficMatrix) -> (Label, Option<f64>) {
        self.snapshot.decide(standing)
    }

    /// Non-blocking: a full trainer queue drops the observation and
    /// counts `gateway.obs_dropped` rather than stalling the shard.
    fn learn(&mut self, label: Label) {
        let matrix = self.link.shared.snapshot();
        match self
            .link
            .obs_tx
            .try_send(TrainerMsg::Observe { matrix, label })
        {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.link.obs_dropped.inc(),
            // Training disabled or trainer shut down: the observation
            // has nowhere to go by design.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

/// One flow-hash partition of the serving pipeline: a flow engine
/// driven over the pinned model source. Owned by exactly one worker
/// thread at a time (`GatewayShard` is `Send`, methods take
/// `&mut self`); all cross-shard coupling goes through the shared
/// matrix, the snapshot cell and the trainer queue.
#[derive(Debug)]
pub struct GatewayShard {
    id: usize,
    engine: FlowEngine,
    reader: SnapshotReader<ModelSnapshot>,
    /// The cell `reader` pins, held beside it so the batch loop can
    /// watch the publish count while a pin borrows the reader.
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    link: ShardLink,
}

impl GatewayShard {
    pub(super) fn new(
        id: usize,
        engine: FlowEngine,
        reader: SnapshotReader<ModelSnapshot>,
        link: ShardLink,
    ) -> Self {
        GatewayShard {
            id,
            engine,
            cell: Arc::clone(reader.cell()),
            reader,
            link,
        }
    }

    /// This shard's index within the gateway.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Flows currently admitted *by this shard*.
    pub fn admitted_flows(&self) -> usize {
        self.engine.admitted_flows()
    }

    /// This shard's bounded admit/reject/revoke audit ring.
    pub fn decision_log(&self) -> &EventRing<DecisionEvent> {
        self.engine.decision_log()
    }

    /// Register a known server endpoint with this shard's early
    /// classifier.
    pub(super) fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: AppClass) {
        self.engine.learn_server_hint(server, class);
    }

    /// The cell-wide traffic matrix as this shard reads it.
    pub fn matrix(&self) -> TrafficMatrix {
        self.link.shared.snapshot()
    }

    /// True while this shard serves admissions through the occupancy
    /// fallback: the published snapshot carries no model and either
    /// the trainer already left bootstrap or the gateway is recovering
    /// from a failed restore. Same rule as
    /// [`ConcurrentGateway::is_degraded`](super::ConcurrentGateway::is_degraded).
    pub fn is_degraded(&self) -> bool {
        let recovering = self.link.recovering.load(Ordering::SeqCst);
        let snapshot = self.cell.load();
        is_degraded(snapshot.model_available(), snapshot.phase(), recovering)
    }

    /// Process one packet of this shard's partition: the engine's
    /// probe, then — only when an admission decision is owed — a pin
    /// of the published [`ModelSnapshot`] to decide against.
    pub fn process_packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        let mut run = Run::default();
        let action = match self.engine.probe(&mut run, pkt) {
            Probe::Done(action) => action,
            Probe::Classified(class) => {
                let mut src = Pinned {
                    snapshot: self.reader.pin(),
                    link: &mut self.link,
                };
                self.engine.decide(&mut run, &mut src, pkt, snr, class)
            }
        };
        self.engine.flush(run);
        action
    }

    /// Process a slice of packets in one pass, pinning the model
    /// snapshot once instead of per packet.
    ///
    /// Verdict-equivalent to calling [`GatewayShard::process_packet`]
    /// for each element in order:
    ///
    /// - The snapshot is re-pinned whenever the cell's
    ///   [`SnapshotCell::publish_count`](super::SnapshotCell::publish_count)
    ///   moves, so a publication landing mid-batch takes effect at
    ///   exactly the packet where per-packet pinning would have
    ///   observed it.
    /// - The engine's run-length disposition cache skips the
    ///   rejected-set and flow-table probes for consecutive packets of
    ///   the same flow. Admission and rejection are terminal within a
    ///   batch (revocation happens only in `poll`, departure only in
    ///   `flow_departed`), so the cached verdict cannot go stale.
    /// - `middlebox.packets` and `middlebox.drops_rejected` are flushed
    ///   once per batch instead of per packet.
    pub fn process_packets(&mut self, pkts: &[(Packet, SnrLevel)]) -> Vec<Action> {
        let mut out = Vec::with_capacity(pkts.len());
        self.process_packets_into(pkts, &mut out);
        out
    }

    /// [`process_packets`](Self::process_packets) appending to the
    /// caller's buffer — how the gateway's sequential driver collects
    /// every shard's run into the one `Vec` it returns.
    pub(super) fn process_packets_into(
        &mut self,
        pkts: &[(Packet, SnrLevel)],
        out: &mut Vec<Action>,
    ) {
        self.process_batch_inner(pkts, None, |_seq, act| out.push(act));
    }

    /// The pipeline's gated twin of
    /// [`GatewayShard::process_packets`]: input carries global ingress
    /// sequence numbers, verdicts are emitted as `(seq, action)`
    /// pairs, and before every shared-matrix decision the worker waits
    /// on the [`OrderGate`] until all earlier sequences (on every
    /// lane) have completed — which is what keeps the merged pipeline
    /// verdict stream byte-identical to sequential driving
    /// (DESIGN.md §10). Both entry points share one loop, so the
    /// decision semantics cannot drift.
    pub(crate) fn process_packets_tagged(
        &mut self,
        pkts: &[(u64, Packet, SnrLevel)],
        gate: &OrderGate,
        lane: usize,
        out: &mut Vec<(u64, Action)>,
    ) {
        self.process_batch_inner(pkts, Some((gate, lane)), |seq, act| out.push((seq, act)));
    }

    fn process_batch_inner<I: BatchInput + ?Sized>(
        &mut self,
        pkts: &I,
        gate: Option<(&OrderGate, usize)>,
        mut emit: impl FnMut(u64, Action),
    ) {
        let cell = &self.cell;
        let mut run = Run::default();
        // Set when a publication landed between a packet's
        // classification and its decision: the probe's side effects
        // for `pkts[idx]` already ran, only the decision is owed (under
        // a fresh pin, exactly as per-packet pinning would take it).
        let mut pending: Option<AppClass> = None;
        let mut idx = 0;
        while idx < pkts.len() {
            // Count first, then pin: the pin serves generation `at` or
            // a newer one, and in the second case the count has moved,
            // which the staleness check below answers by re-pinning.
            let at = cell.publish_count();
            let mut src = Pinned {
                snapshot: self.reader.pin(),
                link: &mut self.link,
            };
            // Serve packets under this pin until a publication lands.
            // Only decisions consult the snapshot, so staleness is
            // checked at decision points — the probe stays free of
            // atomic loads.
            while idx < pkts.len() {
                let (pkt, snr) = pkts.item(idx);
                let seq = pkts.seq(idx);
                let class = match pending.take() {
                    // `begin(seq)` already ran when this packet was
                    // probed, so the lane's cursor still holds its
                    // sequence.
                    Some(class) => class,
                    None => {
                        // Publish per-packet progress: everything this
                        // lane owns below `seq` is complete. Probed
                        // packets never wait — only decisions do.
                        if let Some((gate, lane)) = gate {
                            gate.begin(lane, seq);
                        }
                        match self.engine.probe(&mut run, pkt) {
                            Probe::Done(action) => {
                                idx += 1;
                                emit(seq, action);
                                continue;
                            }
                            Probe::Classified(class) if cell.publish_count() != at => {
                                // A publication landed since the pin:
                                // re-pin and decide this packet under
                                // the fresh snapshot.
                                pending = Some(class);
                                break;
                            }
                            Probe::Classified(class) => class,
                        }
                    }
                };
                idx += 1;
                if let Some((gate, lane)) = gate {
                    gate.wait_turn(lane, seq);
                }
                emit(seq, self.engine.decide(&mut run, &mut src, pkt, snr, class));
            }
        }
        self.engine.flush(run);
    }

    /// Record a delivery report for a flow admitted by this shard.
    pub fn record_delivery(&mut self, key: &FlowKey, sent: Instant, received: Instant, size: u32) {
        self.engine.record_delivery(key, sent, received, size);
    }

    /// Record a drop report for a flow admitted by this shard.
    pub fn record_drop(&mut self, key: &FlowKey) {
        self.engine.record_drop(key);
    }

    /// A flow of this shard's partition ended: release its admission.
    pub fn flow_departed(&mut self, key: &FlowKey) {
        if let Some(kind) = self.engine.flow_departed(key) {
            self.link.shared.remove(kind);
        }
    }

    /// Periodic poll over this shard's flows: QoE estimation, one
    /// observation shipped to the background trainer (non-blocking —
    /// a full queue drops the observation and counts
    /// `gateway.obs_dropped` rather than stalling), and region
    /// re-evaluation against the pinned snapshot. A no-op before
    /// `poll_interval` has elapsed.
    ///
    /// Sharded-observation semantics: the label is the conjunction
    /// over *this shard's* flows against the *global* matrix. With one
    /// shard this is the paper's label; with many, each shard sends
    /// its own partial conjunction and the trainer does **not** combine
    /// them:
    /// [`AdmittanceClassifier::observe`](crate::admittance::AdmittanceClassifier::observe)
    /// keeps the *last* label per matrix, so a later shard's `Pos`
    /// replaces an earlier shard's `Neg` for the same matrix. The label
    /// is not network-wide until the trainer merges one `Neg`-wins
    /// label per poll round.
    pub fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut verdicts = Vec::new();
        self.poll_into(now, &mut verdicts);
        verdicts
    }

    /// Allocation-free twin of [`GatewayShard::poll`]: verdicts are
    /// *appended* to the caller's buffer, so a reused buffer makes
    /// steady-state polling allocation-free (the engine's slot scratch
    /// already persists across polls). `gateway.poll_buf_grows` counts
    /// the polls that had to grow `out` — 0 once the buffer warmed up.
    pub fn poll_into(&mut self, now: Instant, out: &mut Vec<(FlowKey, PollVerdict)>) {
        // Most calls land inside the interval: skip the pin for those.
        if !self.engine.poll_due(now) {
            return;
        }
        let cap_before = out.capacity();
        let mut src = Pinned {
            snapshot: self.reader.pin(),
            link: &mut self.link,
        };
        self.engine.poll_into(&mut src, now, out);
        if out.capacity() != cap_before {
            self.link.poll_buf_grows.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::super::channel;
    use super::*;
    use crate::admittance::{AdmittanceClassifier, AdmittanceConfig};

    /// Far fewer entries than the test's matrix lattice has points, so
    /// every run overflows the memo.
    const CAP: usize = 8;

    /// Epoch 0 is the model-less initial snapshot; epochs 1.. alternate
    /// between two classifiers trained on different capacity regions,
    /// so consecutive epochs give one matrix different margin bits and
    /// a verdict served across an epoch change cannot pass unnoticed.
    fn snapshots() -> &'static [ModelSnapshot] {
        static SNAPSHOTS: OnceLock<Vec<ModelSnapshot>> = OnceLock::new();
        SNAPSHOTS.get_or_init(|| {
            let trained = |limit: u32| {
                let reg = MetricsRegistry::new();
                let mut ac = AdmittanceClassifier::with_registry(AdmittanceConfig::default(), &reg);
                for a in 0..4 {
                    for b in 0..4 {
                        for c in 0..4 {
                            let m = TrafficMatrix::from_counts([a, b, c, 0, 0, 0]);
                            let y = if m.total() <= limit {
                                Label::Pos
                            } else {
                                Label::Neg
                            };
                            ac.observe(m, y);
                        }
                    }
                }
                assert_eq!(ac.phase(), Phase::Online);
                ac
            };
            let models = [trained(6), trained(3)];
            let mut snaps = vec![ModelSnapshot::initial()];
            snaps.extend(
                (1..=16u64).map(|e| ModelSnapshot::from_classifier(e, &models[e as usize % 2])),
            );
            snaps
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Decide(TrafficMatrix),
        Publish,
    }

    /// One publication per eight operations or so.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..4, 0u32..4, 0u32..4, 0u32..8).prop_map(|(a, b, c, publish)| {
            if publish == 0 {
                Op::Publish
            } else {
                Op::Decide(TrafficMatrix::from_counts([a, b, c, 0, 0, 0]))
            }
        })
    }

    proptest! {
        /// The shard's memo is invisible: through any interleaving of
        /// decisions and epoch changes, with more distinct matrices
        /// than the memo holds, `Pinned::decide` returns exactly what
        /// `ModelSnapshot::decide` returns under the pinned epoch.
        #[test]
        fn cached_decisions_equal_the_pinned_snapshots(
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let snaps = snapshots();
            let reg = MetricsRegistry::new();
            let (obs_tx, _obs_rx) = channel::bounded(1);
            let mut link = ShardLink::new(
                Arc::new(SharedMatrix::new()),
                obs_tx,
                Arc::new(AtomicBool::new(false)),
                &reg,
            );
            link.cache = ShardDecisionCache::new(CAP);
            let counter = |name: &str| reg.snapshot().counter(name).unwrap_or(0);

            let mut at = 0;
            let mut with_model = 0u64;
            let mut last: Option<TrafficMatrix> = None;
            for op in &ops {
                let m = match op {
                    Op::Publish => {
                        at = (at + 1).min(snaps.len() - 1);
                        last = None;
                        continue;
                    }
                    Op::Decide(m) => m,
                };
                let snapshot = &snaps[at];
                let hits_before = counter("gateway.cache_hits");
                let (label, margin) = Pinned { snapshot, link: &mut link }.decide(m);
                let (want_label, want_margin) = snapshot.decide(m);
                prop_assert_eq!(label, want_label);
                prop_assert_eq!(margin.map(f64::to_bits), want_margin.map(f64::to_bits));
                prop_assert!(link.cache.map.len() <= CAP, "memo outgrew its capacity");
                with_model += u64::from(margin.is_some());
                // Not vacuous: an immediate repeat under one epoch is
                // served from the memo.
                if margin.is_some() && last == Some(*m) {
                    prop_assert_eq!(counter("gateway.cache_hits"), hits_before + 1);
                }
                last = Some(*m);
            }
            prop_assert_eq!(
                counter("gateway.cache_hits") + counter("gateway.cache_misses"),
                with_model,
                "every decision that had a model is one hit or one miss"
            );
        }
    }
}

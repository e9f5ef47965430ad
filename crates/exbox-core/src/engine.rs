//! The flow state machine behind every gateway shard (paper Fig. 5):
//! early classify → admit → meter → poll/revoke, written once.
//!
//! A [`FlowEngine`] owns one partition's serving state — the flow
//! index, the admitted flows with their QoS meters, the bounded
//! rejected-flow FIFO, the poll due list, the early classifier's
//! windows, the decision audit ring and the `middlebox.*` /
//! `recovery.*` metric handles — and the steps over it. What it does
//! *not* own is the learnt model and the cell-wide occupancy: those
//! live behind a [`ModelSource`] — in production a
//! [`GatewayShard`](crate::gateway::GatewayShard)'s pinned
//! [`ModelSnapshot`](crate::gateway::ModelSnapshot) and the
//! [`SharedMatrix`](crate::gateway::SharedMatrix), with observations
//! shipped to the background trainer.
//!
//! ## One index, one owner per flow
//!
//! A flow the engine knows is in exactly one place, and one keyed
//! [`FlowIndex`] says which: `Classifying(window)` while its first
//! packets fill a classification window, `Admitted(slot)` in the
//! admitted-flow arena, or `Rejected(stamp)` in the FIFO. One owner
//! per flow is structural — a key has one bucket and a bucket one
//! place — and a flow that moves on is retagged in its bucket: the
//! deciding packet turns `Classifying` into `Admitted` or `Rejected`,
//! a revocation turns `Admitted` into `Rejected`. A departure, or
//! eviction from the bounded FIFO, unindexes the flow altogether, so a
//! revoked flow whose record is later evicted is simply unknown again
//! — classified and decided afresh, never forwarded on a stale
//! classification.
//!
//! ## One hash, one probe
//!
//! Every packet takes [`FlowEngine::probe`]: the run-length
//! disposition of the previous packet when it is the same flow in a
//! terminal state, else one keyed hash and one index probe, whose
//! place answers — admitted forwards, rejected drops, and an undecided
//! flow's packet joins its window ([`EarlyClassifier::feed`]; the
//! packet is forwarded meanwhile, §4.2, and so is one for which no
//! window is free, counted in `middlebox.windows_refused`). Only a
//! packet that settles a flow reaches [`FlowEngine::decide`], the
//! single place an arrival is admitted or rejected, and it retags the
//! bucket the probe ended on (kept in the batch's [`Run`]; nothing
//! inserts into or removes from the index in between, and the index
//! refuses a spot older than its last insert or removal) without
//! probing again. Admission and
//! rejection are terminal until a poll revokes or the flow departs,
//! neither of which can run inside a batch, so the run-length
//! disposition never serves a stale verdict. A delivery or drop
//! report, a departure, a poll's revoke and a FIFO eviction are one
//! hash and one probe each. The routing hash
//! ([`crate::flowtable::hash_flow_key`]) is not computed here.

use std::fmt;
use std::sync::Arc;

use exbox_ml::Label;
use exbox_net::{
    AppClass, Duration, EarlyClassifier, FlowIndex, FlowKey, IndexKey, Instant, Packet, Place,
    QosMeter, Spot, WindowStep,
};
use exbox_obs::{buckets, Counter, EventRing, Gauge, Histogram, MetricsRegistry};

use crate::admittance::Phase;
use crate::flowtable::{Arena, FlowSlot, RejectFifo, TimerWheel};
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use crate::qoe::QoeEstimator;
use crate::recovery::{FaultKind, FaultPlan};

/// What the datapath should do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Forward normally.
    Forward,
    /// Drop: the flow was rejected by admission control.
    Drop,
}

/// Outcome of a periodic poll for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollVerdict {
    /// Flow keeps its admission.
    Keep,
    /// Flow should be discontinued or offloaded (§4.3).
    Revoke,
}

/// What happened to a flow in a [`DecisionEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Flow admitted at arrival.
    Admit,
    /// Flow rejected at arrival.
    Reject,
    /// Admission revoked by a later poll (§4.3).
    Revoke,
}

/// Why the middlebox decided the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Classifier still bootstrapping: every arrival is admitted.
    Bootstrap,
    /// The resulting matrix scored inside the learnt ExCR.
    InsideRegion,
    /// The resulting matrix scored outside the learnt ExCR.
    OutsideRegion,
    /// A poll re-evaluated the standing matrix against a re-learnt
    /// region and found it inadmissible.
    RegionReevaluation,
    /// No model was servable (failed restore or repeated retrain
    /// failures): the occupancy baseline decided instead.
    DegradedFallback,
}

/// One structured admission-control decision, kept in the middlebox's
/// bounded audit ring so rejections and revocations are explainable
/// after the fact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// When the decision was taken (packet timestamp or poll time).
    pub at: Instant,
    /// The flow decided on.
    pub flow: FlowKey,
    /// Its classified application class.
    pub class: AppClass,
    /// Its SNR level at decision time.
    pub snr: SnrLevel,
    /// Admit / reject / revoke.
    pub verdict: DecisionKind,
    /// Signed classifier score of the matrix the decision was about
    /// (positive ⇒ inside the region); `None` before the first model.
    pub margin: Option<f64>,
    /// The rule that produced the verdict.
    pub reason: DecisionReason,
}

impl fmt::Display for DecisionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {} ({}, {:?} SNR) at {:?}: {:?}",
            self.verdict, self.flow, self.class, self.snr, self.at, self.reason
        )?;
        match self.margin {
            Some(m) => write!(f, " margin={m:.4}"),
            None => write!(f, " margin=n/a"),
        }
    }
}

/// Configuration of one flow engine (every gateway shard runs one).
#[derive(Debug, Clone)]
pub struct MiddleboxConfig {
    /// Packets buffered before early classification fires.
    pub classify_window: usize,
    /// Poll cadence for QoE estimation and re-evaluation.
    pub poll_interval: Duration,
    /// Most recent [`DecisionEvent`]s retained in the audit ring.
    pub decision_log_capacity: usize,
    /// Most rejected flows remembered for packet dropping (minimum 1,
    /// at most 2^28 − 1 — the flow index keeps record stamps modulo
    /// 2^29; building an engine past that panics).
    /// Oldest rejection records are evicted FIFO beyond this, counted
    /// by `middlebox.rejected_evictions`; an evicted flow that keeps
    /// sending re-enters early classification.
    pub rejected_capacity: usize,
    /// Flow cap of the degraded-mode occupancy fallback (the paper's
    /// `MaxClient` baseline) used when no classifier model is servable
    /// (minimum 1).
    pub fallback_max_flows: u32,
    /// Incremental polling: flows carry a next-evaluation deadline in
    /// the [`TimerWheel`] due list and a poll evaluates only the flows
    /// whose meters saw traffic since their last window — O(due), not
    /// O(all flows). `false` selects the full scan, the reference the
    /// wheel is property-tested against (`tests/flowtable_props.rs`).
    pub poll_wheel: bool,
}

impl Default for MiddleboxConfig {
    fn default() -> Self {
        MiddleboxConfig {
            classify_window: 8,
            poll_interval: Duration::from_secs(2),
            decision_log_capacity: 1024,
            rejected_capacity: 4096,
            fallback_max_flows: 10,
            poll_wheel: true,
        }
    }
}

/// True while admission decisions are served by the occupancy fallback
/// instead of the learnt region: no model is servable and either the
/// classifier already left bootstrap (it lost or never regained its
/// model) or the gateway is recovering from a failed restore.
pub(crate) fn is_degraded(model_available: bool, phase: Phase, recovering: bool) -> bool {
    !model_available && (recovering || phase == Phase::Online)
}

/// Where the learnt model and the cell-wide occupancy live. One
/// production source implements it — the shard's pinned snapshot over
/// the shared matrix — and the seam stays so the engine's tests can
/// drive every path through a scripted fake instead of a trained SVM.
pub(crate) trait ModelSource {
    /// The cell-wide traffic matrix right now.
    fn matrix(&self) -> TrafficMatrix;
    /// Record an admission in the matrix.
    fn add(&mut self, kind: FlowKind);
    /// Record a departure or revocation in the matrix.
    fn remove(&mut self, kind: FlowKind);
    /// The classifier's learning phase.
    fn phase(&self) -> Phase;
    /// Whether a model is servable at all.
    fn model_available(&self) -> bool;
    /// Whether a failed restore is still waiting for its first model.
    fn recovering(&self) -> bool;
    /// Label and margin for the matrix an arrival would produce.
    fn decide(&mut self, resulting: &TrafficMatrix) -> (Label, Option<f64>);
    /// Label and margin for the standing matrix during a poll.
    fn reevaluate(&mut self, standing: &TrafficMatrix) -> (Label, Option<f64>) {
        self.decide(standing)
    }
    /// Feed a poll's verdict on the standing matrix to the trainer.
    fn learn(&mut self, label: Label);
}

/// Instrumentation handles for the engine's hot paths. Counter pairs
/// are exact: `admits`/`rejects` tally arrival decisions one-to-one
/// with the returned [`Action`]s; `revokes` tallies the
/// [`PollVerdict::Revoke`]s a poll returns, and `keeps` counts every
/// flow a poll left admitted (kept flows are counted in bulk, not
/// returned). A shard binds its own registry, so the increments land
/// on shard-private cache lines.
///
/// What the per-event path carries is deliberately this little: packet
/// and drop tallies batched per call ([`FlowEngine::flush`]), one
/// relaxed add per decision, and an owned push into the decision ring
/// — no clock read, no histogram, no process-global counter. The
/// decision count is `admits + rejects`; a per-decision timer would
/// cost more than the cheapest decisions it times.
#[derive(Debug)]
struct EngineMetrics {
    /// `middlebox.packets` — packets probed.
    packets: Arc<Counter>,
    /// `middlebox.admits` — arrival decisions that admitted the flow.
    admits: Arc<Counter>,
    /// `middlebox.rejects` — arrival decisions that rejected the flow.
    rejects: Arc<Counter>,
    /// `middlebox.drops_rejected` — packets dropped because their flow
    /// was already rejected.
    drops_rejected: Arc<Counter>,
    /// `middlebox.keeps` — poll verdicts keeping a flow.
    keeps: Arc<Counter>,
    /// `middlebox.revokes` — poll verdicts revoking a flow.
    revokes: Arc<Counter>,
    /// `middlebox.departures` — admitted flows that ended.
    departures: Arc<Counter>,
    /// `middlebox.polls` — polls that actually ran (interval elapsed).
    polls: Arc<Counter>,
    /// `middlebox.rejected_evictions` — rejected-flow records evicted
    /// because the bounded rejected set hit its capacity.
    rejected_evictions: Arc<Counter>,
    /// `middlebox.rejected_occupancy` — live records in the bounded
    /// rejected set (capacity pressure made visible).
    rejected_occupancy: Arc<Gauge>,
    /// `middlebox.classifying_flows` — flows with a classification
    /// window open, sampled at each executed poll. A flow that sends
    /// fewer than `classify_window` packets and never departs (DNS, a
    /// scan) holds its window for good; this gauge is what reports
    /// them — nothing evicts half-open flows.
    classifying_flows: Arc<Gauge>,
    /// `middlebox.windows_refused` — packets of flows with no window
    /// forwarded unrecorded because all
    /// [`MAX_OPEN_WINDOWS`](exbox_net::classify::MAX_OPEN_WINDOWS)
    /// classification windows were open; such a flow is classified
    /// once a window frees.
    windows_refused: Arc<Counter>,
    /// `recovery.fallback_decisions` — arrival decisions served by the
    /// occupancy baseline because no model was available.
    fallback_decisions: Arc<Counter>,
    /// `recovery.poll_errors` — polls whose QoE-estimation pass failed
    /// (injected or real); the observation feed is skipped.
    poll_errors: Arc<Counter>,
    /// `middlebox.poll_latency_ns` — time per executed poll. The only
    /// clock the engine reads: a poll costs microseconds and runs once
    /// per interval, so two clock reads are noise beside it.
    poll_latency_ns: Arc<Histogram>,
}

impl EngineMetrics {
    fn bind(reg: &MetricsRegistry) -> Self {
        EngineMetrics {
            packets: reg.counter("middlebox.packets"),
            admits: reg.counter("middlebox.admits"),
            rejects: reg.counter("middlebox.rejects"),
            drops_rejected: reg.counter("middlebox.drops_rejected"),
            keeps: reg.counter("middlebox.keeps"),
            revokes: reg.counter("middlebox.revokes"),
            departures: reg.counter("middlebox.departures"),
            polls: reg.counter("middlebox.polls"),
            rejected_evictions: reg.counter("middlebox.rejected_evictions"),
            rejected_occupancy: reg.gauge("middlebox.rejected_occupancy"),
            classifying_flows: reg.gauge("middlebox.classifying_flows"),
            windows_refused: reg.counter("middlebox.windows_refused"),
            fallback_decisions: reg.counter("recovery.fallback_decisions"),
            poll_errors: reg.counter("recovery.poll_errors"),
            poll_latency_ns: reg.histogram("middlebox.poll_latency_ns", &buckets::latency_ns()),
        }
    }
}

/// Per-flow serving state held in the slab arena. `next_eval` is the
/// flow's timer-wheel deadline in poll ticks (`u64::MAX` while
/// unscheduled): set when the first QoS report of a window arrives,
/// cleared when a poll evaluates the flow.
#[derive(Debug)]
struct FlowState {
    kind: FlowKind,
    meter: QosMeter,
    next_eval: u64,
}

/// Per-batch probe state: the run-length disposition cache (the last
/// flow seen and its terminal verdict, if any — `None` also covers
/// still-unclassified flows, whose every packet must feed the early
/// classifier) and the counter deltas flushed once per batch by
/// [`FlowEngine::flush`].
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// The flow the last probe looked up, packed and hashed — the
    /// packet a `Probe::Classified` is about.
    key: IndexKey,
    /// Where that probe ended: the bucket [`FlowEngine::decide`]
    /// retags (or fills, for a flow settled on its first packet).
    spot: Spot,
    /// That flow's terminal verdict, if it has one.
    last: Option<Action>,
    packets: u64,
    drops: u64,
}

impl Run {
    /// Serve a flow's terminal verdict, and remember it for the flow's
    /// next packet.
    fn serve(&mut self, verdict: Action) -> Probe {
        self.last = Some(verdict);
        self.drops += u64::from(verdict == Action::Drop);
        Probe::Done(verdict)
    }
}

/// What [`FlowEngine::probe`] found for a packet.
#[derive(Debug)]
pub(crate) enum Probe {
    /// The verdict is known without a decision: the flow is rejected,
    /// admitted, or still being classified (forwarded, §4.2).
    Done(Action),
    /// This packet settled the flow's class: an admission decision is
    /// owed, and [`FlowEngine::decide`] must take it before anything
    /// else touches the engine.
    Classified(AppClass),
}

/// One partition's flow state machine; see the module docs.
#[derive(Debug)]
pub(crate) struct FlowEngine {
    cfg: MiddleboxConfig,
    early: EarlyClassifier,
    estimator: QoeEstimator,
    /// Every flow the engine knows, and where it is.
    index: FlowIndex,
    /// Admitted flows' states, oldest admission first.
    flows: Arena<FlowState>,
    /// Rejection records, oldest first.
    rejected: RejectFifo,
    /// Next-evaluation deadlines for admitted flows, in poll ticks.
    wheel: TimerWheel,
    /// Polls executed so far == the wheel's current tick.
    poll_seq: u64,
    /// Reusable per-poll slot buffer (due flows on the wheel path, the
    /// whole arena on the scan path) — no per-poll allocation.
    poll_scratch: Vec<FlowSlot>,
    last_poll: Instant,
    metrics: EngineMetrics,
    decisions: EventRing<DecisionEvent>,
    faults: FaultPlan,
}

impl FlowEngine {
    pub(crate) fn new(
        cfg: MiddleboxConfig,
        estimator: QoeEstimator,
        faults: FaultPlan,
        registry: &MetricsRegistry,
    ) -> Self {
        FlowEngine {
            early: EarlyClassifier::with_default_profiles(cfg.classify_window),
            estimator,
            index: FlowIndex::new(),
            flows: Arena::new(),
            rejected: RejectFifo::new(cfg.rejected_capacity),
            wheel: TimerWheel::new(),
            poll_seq: 0,
            poll_scratch: Vec::new(),
            last_poll: Instant::ZERO,
            metrics: EngineMetrics::bind(registry),
            decisions: EventRing::new(cfg.decision_log_capacity.max(1)),
            faults,
            cfg,
        }
    }

    pub(crate) fn learn_server_hint(&mut self, server: std::net::Ipv4Addr, class: AppClass) {
        self.early.learn_server_hint(server, class);
    }

    pub(crate) fn admitted_flows(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn decision_log(&self) -> &EventRing<DecisionEvent> {
        &self.decisions
    }

    /// The pre-decision path of one packet: the run-length disposition,
    /// else one index probe (module docs).
    pub(crate) fn probe(&mut self, run: &mut Run, pkt: &Packet) -> Probe {
        run.packets += 1;
        let (addr, ports) = pkt.flow.words();
        if run.key.words() != (addr, ports) {
            run.key = self.index.key_words(addr, ports);
        } else if let Some(verdict) = run.last {
            return run.serve(verdict);
        }
        let (spot, place) = self.index.find(&run.key);
        run.spot = spot;
        let window = match place {
            Some(Place::Admitted(_)) => return run.serve(Action::Forward),
            Some(Place::Rejected(_)) => return run.serve(Action::Drop),
            Some(Place::Classifying(window)) => Some(window),
            None => None,
        };
        // An undecided flow: its packets fill the classification
        // window and are forwarded meanwhile (brief pre-admission,
        // §4.2) — so is a packet for which no window is free.
        run.last = None;
        match self.early.feed(window, pkt) {
            WindowStep::Opened(window) => {
                self.index.put(spot, &run.key, Place::Classifying(window));
                Probe::Done(Action::Forward)
            }
            WindowStep::Pending => Probe::Done(Action::Forward),
            WindowStep::Full => {
                self.metrics.windows_refused.inc();
                Probe::Done(Action::Forward)
            }
            WindowStep::Settled(class) => Probe::Classified(class),
        }
    }

    /// Decide the arrival of `pkt`'s flow, just classified as `class`,
    /// and apply the verdict: the matrix the admission would produce is
    /// scored by the model source — or, in degraded mode, the current
    /// occupancy is held against the fallback cap and the margin is
    /// unknowable. The verdict retags the flow's bucket, which the
    /// packet's probe left in `run`.
    pub(crate) fn decide<S: ModelSource>(
        &mut self,
        run: &mut Run,
        src: &mut S,
        pkt: &Packet,
        snr: SnrLevel,
        class: AppClass,
    ) -> Action {
        let kind = FlowKind::new(class, snr);
        let matrix = src.matrix();
        let resulting = matrix.with_arrival(kind);
        let phase = src.phase();
        let degraded = is_degraded(src.model_available(), phase, src.recovering());
        let (label, margin) = if degraded {
            let below_cap = matrix.total() < self.cfg.fallback_max_flows.max(1);
            (if below_cap { Label::Pos } else { Label::Neg }, None)
        } else {
            src.decide(&resulting)
        };
        let reason = if degraded {
            self.metrics.fallback_decisions.inc();
            DecisionReason::DegradedFallback
        } else {
            match (phase, label) {
                (Phase::Bootstrap, _) => DecisionReason::Bootstrap,
                (Phase::Online, Label::Pos) => DecisionReason::InsideRegion,
                (Phase::Online, Label::Neg) => DecisionReason::OutsideRegion,
            }
        };
        let (verdict, action) = match label {
            Label::Pos => {
                src.add(kind);
                let state = FlowState {
                    kind,
                    meter: QosMeter::new(),
                    next_eval: u64::MAX,
                };
                let slot = self.flows.push(pkt.flow, state);
                self.index
                    .put(run.spot, &run.key, Place::Admitted(slot.index()));
                self.metrics.admits.inc();
                (DecisionKind::Admit, Action::Forward)
            }
            Label::Neg => {
                self.note_rejection(run.spot, &run.key);
                self.metrics.rejects.inc();
                (DecisionKind::Reject, Action::Drop)
            }
        };
        self.decisions.push(DecisionEvent {
            at: pkt.timestamp,
            flow: pkt.flow,
            class,
            snr,
            verdict,
            margin,
            reason,
        });
        run.last = Some(action);
        action
    }

    /// Fold a finished batch's counter deltas into the registry.
    pub(crate) fn flush(&self, run: Run) {
        self.metrics.packets.add(run.packets);
        if run.drops > 0 {
            self.metrics.drops_rejected.add(run.drops);
        }
    }

    /// A flow stops being served (arrival rejection or revocation):
    /// retag its bucket, found at `spot`, as a record of the bounded
    /// FIFO so its packets drop. The record is all that remembers it —
    /// once it is evicted the flow is classified and decided afresh.
    /// Maintains the eviction counter, the occupancy gauge and the
    /// warn-once capacity-pressure log.
    fn note_rejection(&mut self, spot: Spot, key: &IndexKey) {
        let ins = self.rejected.file(&mut self.index, spot, key);
        self.metrics.rejected_evictions.add(ins.evicted);
        self.metrics
            .rejected_occupancy
            .set(self.rejected.len() as f64);
        if ins.pressure {
            eprintln!(
                "exbox: rejected-set eviction rate caught up with insertions \
                 ({} live / {} evicted) — raise rejected_capacity or expect \
                 re-classification churn",
                self.rejected.len(),
                self.rejected.evictions(),
            );
        }
    }

    /// A QoS report arrived for `key`: apply it to the flow's meter
    /// and, on the first report of the flow's window, put the flow on
    /// the wheel for the next poll tick — so an incremental poll visits
    /// exactly the flows with fresh meter data. One index probe finds
    /// the flow's arena slot; a report for a flow not admitted is
    /// ignored.
    #[inline]
    fn meter_report(&mut self, key: &FlowKey, report: impl FnOnce(&mut QosMeter)) {
        let Some(Place::Admitted(index)) = self.index.get(&self.index.key(key)) else {
            return;
        };
        let (slot, fs) = self.flows.at_mut(index);
        report(&mut fs.meter);
        if self.cfg.poll_wheel && fs.next_eval == u64::MAX {
            fs.next_eval = self.wheel.now() + 1;
            self.wheel.schedule(slot, fs.next_eval);
        }
    }

    /// Record a delivery report for an admitted flow (from the AP's
    /// transmission-status feed in a real deployment, or from the
    /// simulator here).
    pub(crate) fn record_delivery(
        &mut self,
        key: &FlowKey,
        sent: Instant,
        received: Instant,
        size: u32,
    ) {
        self.meter_report(key, |meter| meter.deliver(sent, received, size));
    }

    /// Record a drop report for an admitted flow. Drop-only flows are
    /// scheduled too: they evaluate to "no estimate" exactly like the
    /// scan path, but their meters must be reset at the window edge.
    pub(crate) fn record_drop(&mut self, key: &FlowKey) {
        self.meter_report(key, QosMeter::drop_packet);
    }

    /// A flow ended (FIN/idle-eviction): unindex it and release what
    /// its place held — an arena slot, a rejection record or a
    /// half-filled window — returning its kind, if it was admitted,
    /// for the caller to take out of the matrix. Any pending due-list
    /// entry goes stale and is skipped at its tick (the slot's
    /// generation no longer resolves).
    pub(crate) fn flow_departed(&mut self, key: &FlowKey) -> Option<FlowKind> {
        match self.index.remove(&self.index.key(key))? {
            Place::Admitted(index) => {
                self.metrics.departures.inc();
                Some(self.flows.take(index).1.kind)
            }
            Place::Rejected(_) => {
                self.rejected.forget();
                self.metrics
                    .rejected_occupancy
                    .set(self.rejected.len() as f64);
                None
            }
            Place::Classifying(window) => {
                self.early.close_window(window);
                None
            }
        }
    }

    /// Whether `poll_interval` has elapsed since the last executed
    /// poll.
    pub(crate) fn poll_due(&self, now: Instant) -> bool {
        now.saturating_since(self.last_poll) >= self.cfg.poll_interval
    }

    /// Periodic poll (paper §4.3): estimate admitted flows' QoE from
    /// their metered QoS, feed the aggregate observation to the
    /// trainer, and re-evaluate the admitted set against the (possibly
    /// re-learnt) region. **Only the revoked flows** are appended to
    /// `out` (kept flows are tallied in `middlebox.keeps` instead of
    /// materialised), in deterministic admission order, oldest first.
    /// A no-op until [`poll_due`](Self::poll_due).
    pub(crate) fn poll_into<S: ModelSource>(
        &mut self,
        src: &mut S,
        now: Instant,
        out: &mut Vec<(FlowKey, PollVerdict)>,
    ) {
        if !self.poll_due(now) {
            return;
        }
        self.last_poll = now;
        self.metrics.polls.inc();
        self.metrics
            .classifying_flows
            .set(self.early.classifying_flows() as f64);
        let ((), poll_ns) = exbox_obs::time_ns(|| self.run_poll(src, now, out));
        self.metrics.poll_latency_ns.record(poll_ns);
    }

    /// The body of an executed poll (separated so
    /// [`poll_into`](Self::poll_into) can time it).
    fn run_poll<S: ModelSource>(
        &mut self,
        src: &mut S,
        now: Instant,
        out: &mut Vec<(FlowKey, PollVerdict)>,
    ) {
        // One executed poll == one wheel tick. The wheel advances even
        // through empty polls so deadlines stay aligned with poll_seq.
        self.poll_seq += 1;
        let mut scratch = std::mem::take(&mut self.poll_scratch);
        scratch.clear();
        if self.cfg.poll_wheel {
            // Incremental path: only flows whose meters saw traffic
            // since their last window are due.
            self.wheel.advance(self.poll_seq, &mut scratch);
        } else {
            // Reference scan: the whole arena in insertion order.
            self.flows.collect_slots(&mut scratch);
        }

        // Estimate acceptability per flow; the matrix label is the
        // conjunction (a matrix is achievable iff ALL flows are OK),
        // kept as counts of acceptable / unacceptable flows, tallied
        // into `qoe.*` once per poll. Idle flows (no traffic this
        // window) yield no evidence on either path: the scan visits
        // and skips them, the wheel never schedules them. One visit
        // per due slot: a departed flow's slot is stale (generation
        // mismatch) and skipped; a live one is sampled, judged by its
        // class's cut (two compares off the guard band, `qoe` module
        // docs) and, on the wheel path, given a fresh window at once —
        // revocation below only removes flows, so resetting first
        // changes nothing it can see. Serial on purpose: a due flow
        // costs about 14 ns, poll overhead included (the ledger's
        // `flash_state` on a 2-vCPU Xeon: ≈ 1.15 µs per executed poll
        // of ≈ 80 due flows), far below a thread hand-off, and under
        // the gateway the shards already are the parallelism.
        let (mut ok, mut not_ok) = (0u64, 0u64);
        for &slot in &scratch {
            let Some((_, fs)) = self.flows.get_slot_mut(slot) else {
                continue;
            };
            let sample = fs.meter.sample();
            if sample.throughput_bps > 0.0 {
                if self.estimator.verdict(fs.kind.class, &sample) {
                    ok += 1;
                } else {
                    not_ok += 1;
                }
            }
            if self.cfg.poll_wheel {
                fs.meter.reset();
                fs.next_eval = u64::MAX;
            }
        }
        self.estimator.count_verdicts(ok, not_ok);
        if self.flows.is_empty() {
            self.poll_scratch = scratch;
            return;
        }
        // A failed estimation pass (injected here; a wedged AP stats
        // feed in a real deployment) yields no trustworthy labels, so
        // the observation is skipped — re-evaluation against the
        // already-learnt region below still runs.
        if self.faults.should_inject(FaultKind::PollError) {
            self.metrics.poll_errors.inc();
        } else if ok + not_ok > 0 {
            src.learn(if not_ok == 0 { Label::Pos } else { Label::Neg });
        }

        // Re-evaluate the admitted set against the current region; an
        // inadmissible matrix sheds flows (offload/discontinue is
        // policy, the middlebox just reports). X_m for an ongoing flow
        // is the current matrix (it already contains the flow), so the
        // matrix only changes when a flow is revoked — one decision
        // per matrix state, tracked in a working copy. Revocations shed
        // this partition's oldest admission first (deterministic arena
        // insertion order); kept flows are counted in bulk.
        if src.phase() == Phase::Online {
            let mut matrix = src.matrix();
            let (mut label, mut margin) = src.reevaluate(&matrix);
            if label == Label::Pos {
                self.metrics.keeps.add(self.flows.len() as u64);
            }
            while label == Label::Neg {
                let Some((slot, key, kind)) = self.flows.front().map(|(s, k, fs)| (s, *k, fs.kind))
                else {
                    break;
                };
                src.remove(kind);
                matrix.remove(kind);
                let hashed = self.index.key(&key);
                let (spot, place) = self.index.find(&hashed);
                debug_assert_eq!(place, Some(Place::Admitted(slot.index())));
                self.flows.take(slot.index());
                self.note_rejection(spot, &hashed);
                out.push((key, PollVerdict::Revoke));
                self.metrics.revokes.inc();
                self.decisions.push(DecisionEvent {
                    at: now,
                    flow: key,
                    class: kind.class,
                    snr: kind.snr,
                    verdict: DecisionKind::Revoke,
                    margin,
                    reason: DecisionReason::RegionReevaluation,
                });
                // Removing one flow may already fix the matrix;
                // re-check before revoking more.
                (label, margin) = src.reevaluate(&matrix);
            }
        }
        // The reference scan opens fresh measurement windows for every
        // flow here; the wheel path already did so for the flows it
        // evaluated (everything else has an empty meter by
        // construction).
        if !self.cfg.poll_wheel {
            self.flows.for_each_value_mut(|fs| fs.meter.reset());
        }
        scratch.clear();
        self.poll_scratch = scratch;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The engine driven through a scripted model source: `decide`
    //! answers from a closure, so every path — admit, reject, revoke,
    //! eviction, re-classification, degraded fallback, poll errors —
    //! is reachable without training an SVM per case.

    use super::*;
    use crate::qoe::{paper_directions, train_estimator, QosScale};
    use exbox_net::{Direction, Protocol};

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
            QosScale::new(1e3, 1e8),
        )
    }

    fn streaming_pkts(key: FlowKey, n: usize) -> Vec<Packet> {
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

    struct Scripted {
        matrix: TrafficMatrix,
        phase: Phase,
        model: bool,
        recovering: bool,
        /// Whether a matrix lies inside the scripted region.
        admissible: Box<dyn Fn(&TrafficMatrix) -> bool>,
        observed: Vec<(TrafficMatrix, Label)>,
    }

    impl Scripted {
        /// Online, with a model admitting at most `cap` flows.
        fn online(cap: u32) -> Self {
            Scripted {
                matrix: TrafficMatrix::empty(),
                phase: Phase::Online,
                model: true,
                recovering: false,
                admissible: Box::new(move |m| m.total() <= cap),
                observed: Vec::new(),
            }
        }
    }

    impl ModelSource for Scripted {
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
            self.phase
        }

        fn model_available(&self) -> bool {
            self.model
        }

        fn recovering(&self) -> bool {
            self.recovering
        }

        fn decide(&mut self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
            match (self.phase, self.model) {
                (Phase::Bootstrap, _) | (Phase::Online, false) => (Label::Pos, None),
                (Phase::Online, true) if (self.admissible)(resulting) => (Label::Pos, Some(1.0)),
                (Phase::Online, true) => (Label::Neg, Some(-1.0)),
            }
        }

        fn learn(&mut self, label: Label) {
            self.observed.push((self.matrix, label));
        }
    }

    fn engine(cfg: MiddleboxConfig, faults: FaultPlan, reg: &MetricsRegistry) -> FlowEngine {
        FlowEngine::new(cfg, estimator(), faults, reg)
    }

    fn key(id: u32) -> FlowKey {
        FlowKey::synthetic(id, id, 1, Protocol::Tcp)
    }

    /// The state of admitted flow `id`.
    fn admitted(e: &FlowEngine, id: u32) -> &FlowState {
        match e.index.get(&e.index.key(&key(id))) {
            Some(Place::Admitted(index)) => e.flows.at(index).1,
            place => panic!("flow {id} is {place:?}"),
        }
    }

    /// Feed `n` packets of flow `id` as one batch.
    fn send(e: &mut FlowEngine, src: &mut Scripted, id: u32, n: usize) -> Vec<Action> {
        let mut run = Run::default();
        let out = streaming_pkts(key(id), n)
            .iter()
            .map(|p| match e.probe(&mut run, p) {
                Probe::Done(action) => action,
                Probe::Classified(class) => e.decide(&mut run, src, p, SnrLevel::High, class),
            })
            .collect();
        e.flush(run);
        out
    }

    fn poll(e: &mut FlowEngine, src: &mut Scripted, secs: u64) -> Vec<(FlowKey, PollVerdict)> {
        let mut out = Vec::new();
        e.poll_into(src, Instant::from_secs(secs), &mut out);
        out
    }

    /// `n` forwards (the pre-admission window) then drops.
    fn window_then_drops(actions: &[Action], window: usize) -> bool {
        let (head, tail) = actions.split_at(window - 1);
        head.iter().all(|a| *a == Action::Forward) && tail.iter().all(|a| *a == Action::Drop)
    }

    #[test]
    fn admit_reject_revoke_evict_reclassify() {
        let reg = MetricsRegistry::new();
        let cfg = MiddleboxConfig {
            rejected_capacity: 1,
            ..MiddleboxConfig::default()
        };
        let window = cfg.classify_window;
        let mut e = engine(cfg, FaultPlan::disabled(), &reg);
        let mut src = Scripted::online(2);

        // Two arrivals fit, the third does not: its deciding packet and
        // everything after it drops.
        for id in [1, 2] {
            assert!(send(&mut e, &mut src, id, 12)
                .iter()
                .all(|a| *a == Action::Forward));
        }
        assert!(window_then_drops(&send(&mut e, &mut src, 3, 12), window));
        assert_eq!((e.admitted_flows(), src.matrix.total()), (2, 2));

        // The region shrinks to one flow: the poll sheds the oldest
        // admission, whose rejection record evicts flow 3's from the
        // one-slot ring.
        src.admissible = Box::new(|m| m.total() <= 1);
        assert_eq!(
            poll(&mut e, &mut src, 5),
            vec![(key(1), PollVerdict::Revoke)]
        );
        assert_eq!((e.admitted_flows(), src.matrix.total()), (1, 1));
        assert_eq!(send(&mut e, &mut src, 1, 3), vec![Action::Drop; 3]);

        // Flow 3 is no longer remembered: it is classified and decided
        // afresh (rejected again — the cell is full), which in turn
        // evicts the revoked flow 1's record ...
        assert!(window_then_drops(&send(&mut e, &mut src, 3, 12), window));
        // ... and a revoked-then-evicted flow is re-decided too, not
        // forwarded forever on a stale classification.
        assert!(window_then_drops(&send(&mut e, &mut src, 1, 40), window));
        assert_eq!((e.admitted_flows(), src.matrix.total()), (1, 1));

        let log: Vec<(FlowKey, DecisionKind, DecisionReason)> = e
            .decision_log()
            .snapshot()
            .iter()
            .map(|ev| (ev.flow, ev.verdict, ev.reason))
            .collect();
        use DecisionKind::{Admit, Reject, Revoke};
        use DecisionReason::{InsideRegion, OutsideRegion, RegionReevaluation};
        assert_eq!(
            log,
            vec![
                (key(1), Admit, InsideRegion),
                (key(2), Admit, InsideRegion),
                (key(3), Reject, OutsideRegion),
                (key(1), Revoke, RegionReevaluation),
                (key(3), Reject, OutsideRegion),
                (key(1), Reject, OutsideRegion),
            ]
        );
        let snap = reg.snapshot();
        let count = |name: &str| snap.counter(name).unwrap();
        assert_eq!(count("middlebox.packets"), 12 * 4 + 3 + 40);
        assert_eq!(count("middlebox.admits"), 2);
        assert_eq!(count("middlebox.rejects"), 3);
        assert_eq!(count("middlebox.revokes"), 1);
        assert_eq!(count("middlebox.rejected_evictions"), 3);
        // Three evictions later the ring still holds its one record.
        assert_eq!(snap.gauge("middlebox.rejected_occupancy"), Some(1.0));
        // Packets after a flow's rejection; the deciding packet itself
        // is the reject. Flow 3 twice, flow 1 revoked, flow 1 re-decided.
        let after = |sent: u64| sent - window as u64;
        assert_eq!(
            count("middlebox.drops_rejected"),
            after(12) + 3 + after(12) + after(40)
        );
    }

    #[test]
    fn abandoned_windows_show_in_the_gauge_until_the_flow_departs() {
        let reg = MetricsRegistry::new();
        let mut e = engine(MiddleboxConfig::default(), FaultPlan::disabled(), &reg);
        let mut src = Scripted::online(8);
        let gauge = || reg.snapshot().gauge("middlebox.classifying_flows");

        // Three flows stop short of their window (a DNS exchange, a
        // scan); a fourth completes it and leaves the classifier.
        for id in [1, 2, 3] {
            assert_eq!(send(&mut e, &mut src, id, 3), vec![Action::Forward; 3]);
        }
        send(&mut e, &mut src, 4, 12);
        assert_eq!(e.admitted_flows(), 1);
        assert_eq!(gauge(), Some(0.0), "sampled by polls, not per packet");
        poll(&mut e, &mut src, 5);
        assert_eq!(gauge(), Some(3.0));

        // A departure mid-window releases the window; the next
        // executed poll (not the one inside the interval) reports it.
        assert_eq!(e.flow_departed(&key(2)), None);
        poll(&mut e, &mut src, 6);
        assert_eq!(gauge(), Some(3.0));
        poll(&mut e, &mut src, 8);
        assert_eq!(gauge(), Some(2.0));
        for id in [1, 3] {
            e.flow_departed(&key(id));
        }
        assert_eq!(e.early.classifying_flows(), 0);
        // Departed means forgotten: flow 2 starts a whole new window.
        let window = MiddleboxConfig::default().classify_window;
        assert_eq!(e.admitted_flows(), 1);
        send(&mut e, &mut src, 2, window - 1);
        assert_eq!((e.admitted_flows(), e.early.classifying_flows()), (1, 1));
        send(&mut e, &mut src, 2, 1);
        assert_eq!((e.admitted_flows(), e.early.classifying_flows()), (2, 0));
    }

    #[test]
    fn degraded_mode_gates_on_occupancy_until_a_model_exists() {
        let reg = MetricsRegistry::new();
        let cfg = MiddleboxConfig {
            fallback_max_flows: 1,
            ..MiddleboxConfig::default()
        };
        let mut e = engine(cfg, FaultPlan::disabled(), &reg);
        let last = |e: &FlowEngine| *e.decision_log().snapshot().last().unwrap();

        // Bootstrap without a failed restore is not degraded: admit.
        let mut src = Scripted::online(0);
        (src.phase, src.model) = (Phase::Bootstrap, false);
        send(&mut e, &mut src, 1, 12);
        assert_eq!(last(&e).reason, DecisionReason::Bootstrap);
        assert_eq!(e.admitted_flows(), 1);

        // Recovering (or online) with no model: the cap of one flow is
        // already reached, whatever the source would have said.
        src.recovering = true;
        assert_eq!(send(&mut e, &mut src, 2, 12).last(), Some(&Action::Drop));
        assert_eq!(
            (last(&e).reason, last(&e).margin),
            (DecisionReason::DegradedFallback, None)
        );
        (src.phase, src.recovering) = (Phase::Online, false);
        src.remove(e.flow_departed(&key(1)).expect("flow 1 was admitted"));
        assert_eq!(send(&mut e, &mut src, 3, 12).last(), Some(&Action::Forward));
        assert_eq!(last(&e).reason, DecisionReason::DegradedFallback);
        assert_eq!(
            reg.snapshot().counter("recovery.fallback_decisions"),
            Some(2)
        );

        // A model arrives: the region decides again (here: nothing fits).
        src.model = true;
        assert_eq!(send(&mut e, &mut src, 4, 12).last(), Some(&Action::Drop));
        assert_eq!(
            (last(&e).reason, last(&e).margin),
            (DecisionReason::OutsideRegion, Some(-1.0))
        );
        assert_eq!(
            reg.snapshot().counter("recovery.fallback_decisions"),
            Some(2)
        );
    }

    #[test]
    fn a_poll_tallies_its_verdicts_once_and_labels_their_conjunction() {
        // 50 × 1400 B at 5 ms: an index far above the scale's top.
        let healthy = |from_ms: u64| {
            (0..50u64).map(move |i| {
                let sent = Instant::from_millis(from_ms + i * 10);
                (sent, sent + Duration::from_millis(5), 1400)
            })
        };
        // 5 × 50 B at 900 ms: an index below the scale's floor.
        let starved = |from_ms: u64| {
            (0..5u64).map(move |i| {
                let sent = Instant::from_millis(from_ms + i * 1_000);
                (sent, sent + Duration::from_millis(900), 50)
            })
        };
        for poll_wheel in [true, false] {
            let reg = MetricsRegistry::new();
            let est = estimator();
            let est = QoeEstimator::with_registry(
                AppClass::ALL.map(|c| *est.model(c)),
                est.scale(),
                &reg,
            );
            let cfg = MiddleboxConfig {
                poll_wheel,
                ..MiddleboxConfig::default()
            };
            let mut e = FlowEngine::new(cfg, est, FaultPlan::disabled(), &reg);
            let mut src = Scripted::online(8);
            for id in 1..=6 {
                send(&mut e, &mut src, id, 12);
            }
            let tally = || {
                let snap = reg.snapshot();
                (
                    snap.counter("qoe.acceptable").unwrap_or(0),
                    snap.counter("qoe.unacceptable").unwrap_or(0),
                )
            };

            // Flows 1–3 healthy, 4–5 starved, 6 idle: five measured, two
            // of them unacceptable. `expected` is what one counted
            // verdict per measured flow adds up to.
            let mut expected = (0, 0);
            for id in 1..=5 {
                let window: Vec<_> = if id <= 3 {
                    healthy(0).collect()
                } else {
                    starved(0).collect()
                };
                let mut mirror = QosMeter::new();
                for &(sent, received, size) in &window {
                    e.record_delivery(&key(id), sent, received, size);
                    mirror.deliver(sent, received, size);
                }
                let class = admitted(&e, id).kind.class;
                let ok = e.estimator.verdict(class, &mirror.sample());
                assert_eq!(ok, id <= 3, "flow {id}");
                expected = (expected.0 + u64::from(ok), expected.1 + u64::from(!ok));
            }
            assert_eq!(tally(), (0, 0), "nothing is counted before the poll");
            assert!(poll(&mut e, &mut src, 5).is_empty());
            assert_eq!(tally(), expected);
            assert_eq!(src.observed.last().map(|o| o.1), Some(Label::Neg));

            // Windows reset: a second poll sees only the fresh reports.
            for id in [2, 3] {
                for (sent, received, size) in healthy(6_000) {
                    e.record_delivery(&key(id), sent, received, size);
                }
            }
            assert!(poll(&mut e, &mut src, 10).is_empty());
            assert_eq!(tally(), (5, 2));
            assert_eq!(src.observed.last().map(|o| o.1), Some(Label::Pos));
            assert_eq!(src.observed.len(), 2);
        }
    }

    #[test]
    fn poll_error_skips_the_observation_but_not_the_reevaluation() {
        let healthy_window = |e: &mut FlowEngine, from_ms: u64| {
            for i in 0..50u64 {
                let sent = Instant::from_millis(from_ms + i * 10);
                e.record_delivery(&key(1), sent, sent + Duration::from_millis(5), 1400);
            }
        };
        let reg = MetricsRegistry::new();
        let always = FaultPlan::with_registry(&[(FaultKind::PollError, 1.0)], 9, &reg);
        let mut e = engine(MiddleboxConfig::default(), always, &reg);
        let mut src = Scripted::online(2);
        for id in [1, 2] {
            send(&mut e, &mut src, id, 12);
        }

        healthy_window(&mut e, 0);
        src.admissible = Box::new(|m| m.total() <= 1);
        assert_eq!(
            poll(&mut e, &mut src, 5),
            vec![(key(1), PollVerdict::Revoke)]
        );
        assert!(src.observed.is_empty(), "a failed pass feeds no label");
        assert_eq!(reg.snapshot().counter("recovery.poll_errors"), Some(1));

        // Same engine, estimation pass healthy again: the window's
        // verdict on the standing matrix reaches the trainer.
        e.faults = FaultPlan::disabled();
        send(&mut e, &mut src, 1, 1);
        e.record_delivery(
            &key(2),
            Instant::from_secs(6),
            Instant::from_secs(6) + Duration::from_millis(5),
            1400,
        );
        e.record_delivery(
            &key(2),
            Instant::from_secs(6) + Duration::from_millis(10),
            Instant::from_secs(6) + Duration::from_millis(15),
            1400,
        );
        assert!(poll(&mut e, &mut src, 6).is_empty(), "inside the interval");
        assert!(poll(&mut e, &mut src, 8).is_empty());
        assert_eq!(src.observed.len(), 1);
        assert_eq!(src.observed[0].0, src.matrix);
        assert_eq!(reg.snapshot().counter("recovery.poll_errors"), Some(1));
        assert_eq!(reg.snapshot().counter("middlebox.polls"), Some(2));
    }

    #[test]
    fn engines_built_in_one_process_hash_under_different_secrets() {
        let reg = MetricsRegistry::new();
        let fresh = || engine(MiddleboxConfig::default(), FaultPlan::disabled(), &reg);
        let (a, b) = (fresh(), fresh());
        let differ = (0..200)
            .filter(|&id| a.index.key(&key(id)) != b.index.key(&key(id)))
            .count();
        assert!(differ > 190, "only {differ} of 200 keys hash apart");
    }

    #[test]
    #[should_panic(expected = "stamp span (2 · capacity + 1): 536870913 is past 2^29 - 1")]
    fn an_engine_past_the_stamp_bits_is_refused() {
        let reg = MetricsRegistry::new();
        let with_capacity = |rejected_capacity| MiddleboxConfig {
            rejected_capacity,
            ..MiddleboxConfig::default()
        };
        engine(with_capacity((1 << 28) - 1), FaultPlan::disabled(), &reg);
        engine(with_capacity(1 << 28), FaultPlan::disabled(), &reg);
    }

    mod differential;
}

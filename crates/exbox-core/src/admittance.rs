//! The Admittance Classifier (paper §3.1, Fig. 4).
//!
//! A binary classifier over traffic matrices that learns the ExCR
//! boundary online:
//!
//! * **Bootstrap phase** — every flow is admitted; observed
//!   `(X_m, Y_m)` tuples accumulate. Periodic n-fold cross-validation
//!   gates the exit: once held-out accuracy crosses the configured
//!   threshold, the classifier goes online.
//! * **Online phase** — each arrival is classified admissible /
//!   inadmissible; after every batch of `B` recorded outcomes the
//!   model retrains on the sample store, with repeated traffic
//!   matrices taking their *latest* observed label (the paper's
//!   freshness rule, which is what lets ExBox adapt when the network
//!   itself changes — Fig. 11). The store is append-only with
//!   in-place label replacement; with
//!   [`AdmittanceConfig::max_samples`] set it is
//!   bounded by deterministic seeded stratified-reservoir compaction,
//!   so steady-state retrain cost is O(cap) rather than growing with
//!   everything ever observed.
//!
//! ## Training fast path
//!
//! Retrains are engineered to cost O(Δ·n) in kernel evaluations, not
//! O(n²), in the steady state (DESIGN.md §8):
//!
//! * A [`PersistentKernelCache`] is carried across warm retrains; it
//!   validates the stored feature rows bit-exactly against the new
//!   (scaled) dataset and recomputes only the Gram rows/columns for
//!   fresh samples. `admittance.gram_incremental_rows` records how
//!   many rows each retrain actually evaluated.
//! * [`AdmittanceConfig::sticky_scaler`] keeps the fitted
//!   [`StandardScaler`] across retrains (refitting only after
//!   compaction), which is what keeps previously-scaled rows
//!   bit-stable so the cache can reuse them. Off by default: the
//!   per-retrain refit matches the paper's batch procedure exactly.
//! * Every Gram cell, cached or fresh, comes from the same
//!   `Kernel::eval_with_norms` arithmetic, so cached and cold retrains
//!   produce the same model bits (DESIGN.md §6).
//!
//! ## Serving fast path
//!
//! The learnt state sits on the gateway's per-arrival datapath, so the
//! online decision is engineered around two observations:
//!
//! 1. A trained [`SvmModel`] is converted into a [`CompactSvm`]
//!    (flattened support vectors, pruned zero coefficients, linear
//!    kernel collapsed to one dot product) after every retrain.
//! 2. The decision rule — phase, the optional monotonicity guard,
//!    scaler transform, one margin evaluation, label from its sign —
//!    is written once, in the serving value the classifier owns.
//!    [`AdmittanceClassifier::decide`] runs it; a published
//!    [`ModelSnapshot`](crate::gateway::ModelSnapshot) carries a clone
//!    and runs the same code, so the two cannot drift.
//!
//! The classifier itself memoises nothing: the one decision cache is
//! the gateway shard's, keyed by `(snapshot epoch, matrix)`.

use std::collections::HashMap;
use std::sync::Arc;

use exbox_ml::prelude::*;
use exbox_obs::{buckets, Counter, Gauge, Histogram, MetricsRegistry};

use crate::matrix::TrafficMatrix;
use crate::recovery::{FaultKind, FaultPlan, RetryBackoff};

/// Instrumentation handles for the classifier, resolved once at
/// construction so the hot paths touch only atomics.
#[derive(Debug)]
struct AdmittanceMetrics {
    /// `admittance.observations` — total `(X_m, Y_m)` tuples fed in.
    observations: Arc<Counter>,
    /// `admittance.retrains` — model (re)trainings.
    retrains: Arc<Counter>,
    /// `admittance.bootstrap_exits` — transitions bootstrap → online.
    bootstrap_exits: Arc<Counter>,
    /// `admittance.retrain_wall_ns` — wall time per retrain.
    retrain_wall_ns: Arc<Histogram>,
    /// `admittance.train_batch_samples` — store size at each retrain.
    train_batch_samples: Arc<Histogram>,
    /// `admittance.gram_incremental_rows` — kernel-matrix rows the
    /// persistent cache actually evaluated per retrain (Δ for an
    /// append, the full store after an invalidation, 0 for a replay).
    gram_incremental_rows: Arc<Histogram>,
    /// `admittance.store_compactions` — stratified-reservoir
    /// compactions of the bounded sample store.
    store_compactions: Arc<Counter>,
    /// `admittance.smo_iterations` — SMO α-pair optimisation steps per
    /// SVM retrain (absent for non-SVM backends).
    smo_iterations: Arc<Histogram>,
    /// `admittance.warm_start_alphas` — multipliers carried over into
    /// each warm-started retrain (0 for cold fits).
    warm_start_alphas: Arc<Histogram>,
    /// `svm.shrunk_fraction` — peak fraction of multipliers the
    /// shrinking heuristic removed from the working set per retrain.
    shrunk_fraction: Arc<Histogram>,
    /// `admittance.nonconverged_retrains` — retrains that stopped at
    /// the SMO `max_iters` backstop instead of reaching quiescence.
    nonconverged_retrains: Arc<Counter>,
    /// `admittance.cv_accuracy` — latest bootstrap cross-validation
    /// accuracy.
    cv_accuracy: Arc<Gauge>,
    /// `recovery.retrain_failures` — retrain attempts that failed
    /// (today only injectable via [`FaultPlan`]; the hook is where a
    /// real trainer error would land).
    retrain_failures: Arc<Counter>,
    /// `recovery.retrain_retries` — retrain attempts made after one or
    /// more failures, once the backoff window elapsed.
    retrain_retries: Arc<Counter>,
}

impl AdmittanceMetrics {
    fn bind(reg: &MetricsRegistry) -> Self {
        AdmittanceMetrics {
            observations: reg.counter("admittance.observations"),
            retrains: reg.counter("admittance.retrains"),
            bootstrap_exits: reg.counter("admittance.bootstrap_exits"),
            retrain_wall_ns: reg.histogram("admittance.retrain_wall_ns", &buckets::latency_ns()),
            train_batch_samples: reg
                .histogram("admittance.train_batch_samples", &buckets::counts_wide()),
            gram_incremental_rows: reg
                .histogram("admittance.gram_incremental_rows", &buckets::counts_wide()),
            store_compactions: reg.counter("admittance.store_compactions"),
            smo_iterations: reg.histogram("admittance.smo_iterations", &buckets::counts()),
            warm_start_alphas: reg.histogram("admittance.warm_start_alphas", &buckets::counts()),
            shrunk_fraction: reg.histogram("svm.shrunk_fraction", &buckets::unit()),
            nonconverged_retrains: reg.counter("admittance.nonconverged_retrains"),
            cv_accuracy: reg.gauge("admittance.cv_accuracy"),
            retrain_failures: reg.counter("recovery.retrain_failures"),
            retrain_retries: reg.counter("recovery.retrain_retries"),
        }
    }
}

/// Which learning backend drives the classifier. The paper uses an
/// RBF-kernel SVM but stresses the module is swappable; the
/// alternatives here power the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClassifierBackend {
    /// SMO-trained SVM with an RBF kernel (`gamma = None` ⇒ 1/dims).
    SvmRbf {
        /// Soft-margin cost.
        c: f64,
        /// Kernel width; `None` selects `1/dims`.
        gamma: Option<f64>,
    },
    /// SMO-trained SVM with a linear kernel.
    SvmLinear {
        /// Soft-margin cost.
        c: f64,
    },
    /// SMO-trained SVM with a polynomial kernel. Degree 2 is the
    /// default backend: capacity-region boundaries are smooth and
    /// near-convex in count space (paper Fig. 2c), and polynomial
    /// decision functions extrapolate monotonically — unlike RBF,
    /// whose decision collapses to the bias far outside the training
    /// hull and can admit absurdly large matrices.
    SvmPoly {
        /// Soft-margin cost.
        c: f64,
        /// Polynomial degree (2 recommended).
        degree: u32,
    },
    /// Logistic regression (full-batch gradient descent).
    Logistic,
    /// Pegasos linear SVM (fast primal path for large stores).
    PegasosLinear,
}

/// Configuration of the Admittance Classifier.
#[derive(Debug, Clone)]
pub struct AdmittanceConfig {
    /// Learning backend.
    pub backend: ClassifierBackend,
    /// Online batch size `B` (paper: 20 WiFi / 10 LTE testbed,
    /// 100–400 at scale).
    pub batch_size: usize,
    /// Monotonicity guard (extension beyond the paper): capacity
    /// regions are downward closed — adding flows never improves
    /// anyone's QoE — so a query matrix that componentwise dominates
    /// a stored inadmissible matrix must be inadmissible, and one
    /// dominated by a stored admissible matrix must be admissible.
    /// Applied before the model; makes the controller conservative
    /// under label noise (the `ablation_guard` bench quantifies it).
    ///
    /// The guard lives in the serving value as the store's
    /// Pareto-minimal `Neg` and Pareto-maximal `Pos` matrices, so every
    /// driver honours it. The classifier refreshes them on every
    /// observation; a [`ConcurrentGateway`](crate::gateway::ConcurrentGateway)
    /// serves them from its published snapshot, so on the gateway the
    /// guard updates **per publish** (a phase change or a successful
    /// retrain), not per observation.
    pub monotone_guard: bool,
    /// Minimum samples before bootstrap exit is considered (paper:
    /// "bootstrapping can be done with ≈50 samples").
    pub bootstrap_min_samples: usize,
    /// Held-out accuracy needed to leave bootstrap.
    pub bootstrap_accuracy: f64,
    /// Folds for the bootstrap cross-validation.
    pub cv_folds: usize,
    /// Warm-start SVM retrains from the previous fit's dual state
    /// (α per stored sample plus bias). Sample-store indices are
    /// stable — repeats replace in place — so multipliers stay aligned
    /// across retrains; a sample whose label flipped restarts at
    /// α = 0. Steady-state retrains then re-verify KKT conditions
    /// instead of re-optimising from scratch. No effect on non-SVM
    /// backends.
    pub warm_start: bool,
    /// Training seed.
    pub seed: u64,
    /// Bound on the sample store (distinct matrices); `0` keeps the
    /// store unbounded (the paper's "all observed so far"). When the
    /// store exceeds the bound, deterministic seeded
    /// stratified-reservoir compaction shrinks it to ¾ of the cap
    /// (hysteresis, so compaction is amortised rather than
    /// per-observation), keeping at least one sample of each present
    /// label so the monotonicity guard can still fire in both
    /// directions.
    pub max_samples: usize,
    /// Reuse the fitted feature scaler across retrains instead of
    /// refitting on every batch (it is still refitted after a
    /// compaction, which changes the store distribution). Keeping the
    /// scaler fixed keeps previously-scaled rows bit-stable, which is
    /// what lets the persistent kernel cache reuse its Gram block —
    /// the enabler for O(Δ·n) incremental retrains. Off by default to
    /// match the paper's batch procedure (and the committed CSVs)
    /// exactly.
    pub sticky_scaler: bool,
}

impl Default for AdmittanceConfig {
    fn default() -> Self {
        AdmittanceConfig {
            backend: ClassifierBackend::SvmPoly { c: 10.0, degree: 2 },
            batch_size: 20,
            monotone_guard: false,
            bootstrap_min_samples: 50,
            bootstrap_accuracy: 0.7,
            cv_folds: 5,
            warm_start: true,
            seed: 0xADB0,
            max_samples: 0,
            sticky_scaler: false,
        }
    }
}

/// Operating phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Observing only; all flows admitted.
    Bootstrap,
    /// Classifying arrivals; batch retraining.
    Online,
}

/// A trained model of whichever backend. SVM fits are stored in their
/// compact serving form — the full [`SvmModel`] is only a training
/// intermediate (the warm-start state lives in [`WarmState`]).
#[derive(Debug, Clone)]
enum Model {
    Svm(CompactSvm),
    Logistic(LogisticRegression),
    Pegasos(LinearSvm),
}

/// Raw training output before metrics extraction; SVM fits keep the
/// full dual state for the next warm start.
enum Fitted {
    Svm(SvmFit),
    Logistic(LogisticRegression),
    Pegasos(LinearSvm),
}

impl Model {
    fn decision_value(&self, x: &[f64]) -> f64 {
        match self {
            Model::Svm(m) => m.decision_value(x),
            Model::Logistic(m) => m.decision_value(x),
            Model::Pegasos(m) => m.decision_value(x),
        }
    }
}

/// The serving view of the learnt state — the phase, the monotonicity
/// guard's antichains and, once trained, the fitted scaler and model —
/// and the one place the decision rule is written. The classifier owns
/// one and decides through it; `ModelSnapshot::from_classifier` clones
/// it, so every shard evaluates the very same code on the very same
/// values (`Send + Sync`: the compact SVM, logistic and Pegasos forms
/// are all plain owned data, read through `&self`).
#[derive(Debug, Clone)]
pub(crate) struct Serving {
    phase: Phase,
    scaler: Option<StandardScaler>,
    model: Option<Model>,
    /// Pareto-minimal stored `Neg` matrices. Empty (no allocation)
    /// while [`AdmittanceConfig::monotone_guard`] is off.
    min_neg: Vec<TrafficMatrix>,
    /// Pareto-maximal stored `Pos` matrices; empty with the guard off.
    max_pos: Vec<TrafficMatrix>,
}

impl Serving {
    /// The pre-training state: bootstrap phase, no model, no guard.
    pub(crate) fn bootstrap() -> Self {
        Serving {
            phase: Phase::Bootstrap,
            scaler: None,
            model: None,
            min_neg: Vec::new(),
            max_pos: Vec::new(),
        }
    }

    /// Rebuild the guard's antichains from a sample store. A matrix
    /// dominates some stored `Neg` iff it dominates a minimal one (and
    /// is dominated by some stored `Pos` iff by a maximal one), so the
    /// antichains answer exactly what a scan of the whole store would.
    fn set_guard(&mut self, samples: &[(TrafficMatrix, Label)]) {
        let labelled = |label: Label| -> Vec<TrafficMatrix> {
            samples
                .iter()
                .filter(|(_, y)| *y == label)
                .map(|(m, _)| *m)
                .collect()
        };
        // Ascending total: anything a `Neg` strictly dominates is
        // visited before it. Descending for `Pos`, mirrored.
        let mut neg = labelled(Label::Neg);
        neg.sort_by_key(TrafficMatrix::total);
        self.min_neg = antichain(neg, |kept, m| m.dominates(kept));
        let mut pos = labelled(Label::Pos);
        pos.sort_by_key(|m| std::cmp::Reverse(m.total()));
        self.max_pos = antichain(pos, |kept, m| kept.dominates(m));
    }

    /// The guard's verdict: `Neg` when the query dominates a minimal
    /// `Neg`, else `Pos` when a maximal `Pos` dominates it, else none.
    /// Exact matches are covered by both rules (dominance is
    /// reflexive), negatives winning ties.
    #[inline]
    fn guard(&self, query: &TrafficMatrix) -> Option<Label> {
        if self.min_neg.iter().any(|n| query.dominates(n)) {
            Some(Label::Neg)
        } else if self.max_pos.iter().any(|p| p.dominates(query)) {
            Some(Label::Pos)
        } else {
            None
        }
    }

    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether a scaler/model pair is servable.
    pub(crate) fn model_available(&self) -> bool {
        self.scaler.is_some() && self.model.is_some()
    }

    /// Signed distance-like score for the matrix that would result
    /// from an admission: positive ⇒ inside the learnt ExCR. `None`
    /// until a model exists.
    ///
    /// Allocation-free: features and scaled features live in stack
    /// arrays sized by [`TrafficMatrix::DIMS`].
    #[inline]
    pub(crate) fn decision_value(&self, resulting: &TrafficMatrix) -> Option<f64> {
        let scaler = self.scaler.as_ref()?;
        let model = self.model.as_ref()?;
        let mut raw = [0.0f64; TrafficMatrix::DIMS];
        resulting.features_into(&mut raw);
        let mut scaled = [0.0f64; TrafficMatrix::DIMS];
        scaler.transform_into(&raw, &mut scaled);
        Some(model.decision_value(&scaled))
    }

    /// Single-pass decision: one margin evaluation; online, the guard
    /// settles the label where a stored sample does, the margin's sign
    /// everywhere else. Everything is admissible in bootstrap, and
    /// online while neither guard nor model answers (the degraded
    /// fallback gates that case upstream). The margin is always the
    /// model's.
    #[inline]
    pub(crate) fn decide(&self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        let margin = self.decision_value(resulting);
        let label = match self.phase {
            Phase::Bootstrap => Label::Pos,
            Phase::Online => match (self.guard(resulting), margin) {
                (Some(label), _) => label,
                (None, Some(v)) => Label::from_signum(v),
                (None, None) => Label::Pos,
            },
        };
        (label, margin)
    }
}

/// Keep each row that no previously kept row `covers` — one pass that
/// yields an antichain when `rows` are ordered so a row comes after
/// everything it covers.
fn antichain(
    rows: Vec<TrafficMatrix>,
    covers: impl Fn(&TrafficMatrix, &TrafficMatrix) -> bool,
) -> Vec<TrafficMatrix> {
    let mut kept: Vec<TrafficMatrix> = Vec::new();
    for m in rows {
        if !kept.iter().any(|k| covers(k, &m)) {
            kept.push(m);
        }
    }
    kept
}

// The serving value must be shareable across shard threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Serving>();
};

/// Dual state carried between SVM retrains: per-sample (label at the
/// time of the fit, α) plus the bias. Aligned to sample-store indices,
/// which are stable because repeats replace in place.
#[derive(Debug, Clone)]
struct WarmState {
    alphas: Vec<(Label, f64)>,
    bias: f64,
}

/// The Admittance Classifier.
#[derive(Debug)]
pub struct AdmittanceClassifier {
    cfg: AdmittanceConfig,
    /// Phase, scaler and model: what a decision reads.
    serving: Serving,
    /// Insertion-ordered sample store; the map gives the index of the
    /// latest entry for each distinct matrix so repeats *replace*.
    samples: Vec<(TrafficMatrix, Label)>,
    index: HashMap<TrafficMatrix, usize>,
    pending: usize,
    observations: u64,
    retrain_count: u64,
    /// Sticky-scaler mode only: set by compaction to force a scaler
    /// refit at the next retrain (the store distribution changed).
    scaler_stale: bool,
    warm: Option<WarmState>,
    /// Gram matrix carried across warm retrains (rebuildable —
    /// deliberately not checkpointed).
    kernel_cache: PersistentKernelCache,
    metrics: AdmittanceMetrics,
    faults: FaultPlan,
    backoff: RetryBackoff,
}

/// The classifier's complete learnt state, as captured into and
/// restored from an `exbox-ckpt` checkpoint (see [`crate::persist`]).
/// Everything needed to resume decision-making bit-exactly: phase,
/// sample store, counters, scaler statistics, the served model and the
/// warm-start dual state.
#[derive(Debug, Clone)]
pub(crate) struct ClassifierState {
    pub phase: Phase,
    pub samples: Vec<(TrafficMatrix, Label)>,
    pub pending: usize,
    pub observations: u64,
    pub retrain_count: u64,
    /// `(means, stds)` of the fitted scaler.
    pub scaler: Option<(Vec<f64>, Vec<f64>)>,
    pub model: Option<ModelState>,
    /// `(per-sample (label, alpha), bias)` warm-start dual state.
    pub warm: Option<(Vec<(Label, f64)>, f64)>,
}

/// Serialisable form of [`Model`]. SVMs travel as a full [`SvmModel`]
/// (the checkpoint embeds the existing `exbox-svm v1` document);
/// linear-family models are just weights and a bias.
#[derive(Debug, Clone)]
pub(crate) enum ModelState {
    Svm(SvmModel),
    Logistic(Vec<f64>, f64),
    Pegasos(Vec<f64>, f64),
}

impl ModelState {
    /// Feature dimensionality the restored model expects. The serving
    /// path evaluates models from stack buffers sized by
    /// [`TrafficMatrix::DIMS`], so restore rejects any other value —
    /// see the cross-check in [`crate::persist::load_checkpoint`].
    pub(crate) fn dims(&self) -> usize {
        match self {
            ModelState::Svm(m) => exbox_ml::Classifier::dims(m),
            ModelState::Logistic(w, _) | ModelState::Pegasos(w, _) => w.len(),
        }
    }
}

impl AdmittanceClassifier {
    /// New classifier in the bootstrap phase, reporting metrics to the
    /// process-wide [`exbox_obs::global`] registry.
    ///
    /// # Panics
    /// Panics on nonsensical configuration (zero batch, folds < 2,
    /// accuracy outside (0, 1]).
    pub fn new(cfg: AdmittanceConfig) -> Self {
        Self::with_registry(cfg, exbox_obs::global())
    }

    /// Like [`AdmittanceClassifier::new`] but reporting to an explicit
    /// registry (tests and side-by-side controller comparisons).
    ///
    /// # Panics
    /// Panics on nonsensical configuration (zero batch, folds < 2,
    /// accuracy outside (0, 1]).
    pub fn with_registry(cfg: AdmittanceConfig, registry: &MetricsRegistry) -> Self {
        assert!(cfg.batch_size >= 1, "batch size must be at least 1");
        assert!(cfg.cv_folds >= 2, "cross-validation needs >= 2 folds");
        assert!(
            cfg.bootstrap_accuracy > 0.0 && cfg.bootstrap_accuracy <= 1.0,
            "bootstrap accuracy must be in (0, 1]"
        );
        AdmittanceClassifier {
            cfg,
            serving: Serving::bootstrap(),
            samples: Vec::new(),
            index: HashMap::new(),
            pending: 0,
            observations: 0,
            retrain_count: 0,
            scaler_stale: false,
            warm: None,
            kernel_cache: PersistentKernelCache::new(),
            metrics: AdmittanceMetrics::bind(registry),
            faults: FaultPlan::disabled(),
            backoff: RetryBackoff::default(),
        }
    }

    /// Install a fault-injection plan (see [`FaultPlan`]); the default
    /// is [`FaultPlan::disabled`]. The gateway forwards its own plan
    /// here so one `EXBOX_FAULTS` spec drives trainer and shards.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// `true` when a trained model (and its scaler) is loaded, i.e.
    /// [`AdmittanceClassifier::decision_value`] can produce a margin.
    /// `false` during bootstrap-before-first-train and after a failed
    /// restore — the states the gateway serves in degraded mode.
    pub fn model_available(&self) -> bool {
        self.serving.model_available()
    }

    /// Failed retrain attempts since the last success (0 in healthy
    /// operation).
    pub fn consecutive_retrain_failures(&self) -> u32 {
        self.backoff.consecutive_failures()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.serving.phase
    }

    /// Number of distinct traffic matrices stored (repeats replace).
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Total observations fed in, counting repeats — the paper's
    /// notion of "samples".
    pub fn num_observations(&self) -> u64 {
        self.observations
    }

    /// How many times the model has been (re)trained.
    pub fn retrain_count(&self) -> u64 {
        self.retrain_count
    }

    /// Record one observation: the matrix that resulted from an
    /// admission and whether all flows' QoE stayed acceptable
    /// (`Label::Pos`) or not. Repeated matrices replace their stored
    /// label. Returns `true` if this observation triggered a phase
    /// change or a retrain.
    pub fn observe(&mut self, matrix: TrafficMatrix, label: Label) -> bool {
        self.observations += 1;
        self.metrics.observations.inc();
        match self.index.get(&matrix) {
            Some(&i) => self.samples[i].1 = label,
            None => {
                self.index.insert(matrix, self.samples.len());
                self.samples.push((matrix, label));
                self.maybe_compact();
            }
        }
        // A label flip or a compaction can change either antichain, so
        // the guard is rebuilt from the store — only when it is on.
        if self.cfg.monotone_guard {
            self.serving.set_guard(&self.samples);
        }
        match self.serving.phase {
            Phase::Bootstrap => self.try_exit_bootstrap(),
            Phase::Online => {
                self.pending += 1;
                if self.pending >= self.cfg.batch_size {
                    self.pending = 0;
                    if self.backoff.ready() {
                        if self.backoff.consecutive_failures() > 0 {
                            self.metrics.retrain_retries.inc();
                        }
                        self.retrain();
                        true
                    } else {
                        // A recent retrain failure armed the backoff:
                        // skip this trigger rather than hammering a
                        // failing trainer every batch.
                        self.backoff.tick();
                        false
                    }
                } else {
                    false
                }
            }
        }
    }

    /// Attempt the bootstrap-exit check: enough samples, both classes
    /// present, and CV accuracy above threshold.
    fn try_exit_bootstrap(&mut self) -> bool {
        if self.observations < self.cfg.bootstrap_min_samples as u64 {
            return false;
        }
        let ds = self.dataset();
        if !ds.has_both_classes() || ds.len() < self.cfg.cv_folds {
            return false;
        }
        let acc = self.cv_accuracy(&ds);
        self.metrics.cv_accuracy.set(acc);
        if acc >= self.cfg.bootstrap_accuracy {
            self.retrain();
            self.serving.phase = Phase::Online;
            self.metrics.bootstrap_exits.inc();
            true
        } else {
            false
        }
    }

    /// The SMO trainer for SVM backends (`None` for the others); the
    /// single construction point shared by cross-validation and
    /// (re)training.
    fn svm_trainer(cfg: &AdmittanceConfig, dims: usize) -> Option<SvmTrainer> {
        let (kernel, c) = match cfg.backend {
            ClassifierBackend::SvmRbf { c, gamma } => {
                let kernel = match gamma {
                    Some(g) => Kernel::rbf(g),
                    None => Kernel::rbf_default(dims),
                };
                (kernel, c)
            }
            ClassifierBackend::SvmLinear { c } => (Kernel::Linear, c),
            ClassifierBackend::SvmPoly { c, degree } => {
                (Kernel::poly(1.0 / dims as f64, 1.0, degree), c)
            }
            ClassifierBackend::Logistic | ClassifierBackend::PegasosLinear => return None,
        };
        Some(SvmTrainer::new(kernel).c(c).seed(cfg.seed))
    }

    /// Cross-validated accuracy on the (scaled) sample store.
    fn cv_accuracy(&self, ds: &Dataset) -> f64 {
        let scaler = StandardScaler::fit(ds);
        let scaled = scaler.transform_dataset(ds);
        if let Some(t) = Self::svm_trainer(&self.cfg, scaled.dims()) {
            return cross_validate(&t, &scaled, self.cfg.cv_folds, self.cfg.seed).accuracy();
        }
        match self.cfg.backend {
            ClassifierBackend::Logistic => {
                let t = LogisticRegressionTrainer::new();
                cross_validate(&t, &scaled, self.cfg.cv_folds, self.cfg.seed).accuracy()
            }
            ClassifierBackend::PegasosLinear => {
                let t = LinearSvmTrainer::new().seed(self.cfg.seed);
                cross_validate(&t, &scaled, self.cfg.cv_folds, self.cfg.seed).accuracy()
            }
            _ => unreachable!("SVM backends handled above"),
        }
    }

    /// Sample store as an ML dataset.
    fn dataset(&self) -> Dataset {
        let mut ds = Dataset::new(TrafficMatrix::DIMS);
        for (m, y) in &self.samples {
            ds.push(m.features(), *y);
        }
        ds
    }

    /// Compact the sample store when it exceeds
    /// [`AdmittanceConfig::max_samples`]: a deterministic seeded
    /// stratified reservoir keeps ¾ of the cap (hysteresis),
    /// allocating survivors proportionally per label with at least one
    /// sample of each present label, so the monotonicity guard can
    /// still fire in both directions and retrain cost is O(cap) in the
    /// steady state.
    ///
    /// Determinism: the draw is seeded by `cfg.seed ^ observations`,
    /// both of which are checkpointed — a restored classifier compacts
    /// identically (property-tested).
    fn maybe_compact(&mut self) {
        let cap = self.cfg.max_samples;
        let n = self.samples.len();
        if cap == 0 || n <= cap {
            return;
        }
        let target = (cap * 3 / 4).clamp(2, n);
        let pos: Vec<usize> = (0..n)
            .filter(|&i| self.samples[i].1 == Label::Pos)
            .collect();
        let neg: Vec<usize> = (0..n)
            .filter(|&i| self.samples[i].1 == Label::Neg)
            .collect();
        // Proportional allocation, ≥1 per non-empty stratum, spare
        // capacity rebalanced to whichever stratum can absorb it.
        let mut keep_pos = ((pos.len() * target + n / 2) / n)
            .clamp(usize::from(!pos.is_empty()), pos.len())
            .min(target);
        let mut keep_neg = (target - keep_pos).clamp(usize::from(!neg.is_empty()), neg.len());
        let spare = target.saturating_sub(keep_pos + keep_neg);
        keep_pos = (keep_pos + spare).min(pos.len());
        let spare = target.saturating_sub(keep_pos + keep_neg);
        keep_neg = (keep_neg + spare).min(neg.len());

        let mut state = self.cfg.seed ^ self.observations ^ 0x5EED_C0DE;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Partial Fisher-Yates: an exact uniform k-of-n draw per
        // stratum.
        let mut pick = |stratum: &[usize], k: usize| -> Vec<usize> {
            let mut v = stratum.to_vec();
            let m = v.len();
            for i in 0..k.min(m) {
                let j = i + (next() % (m - i) as u64) as usize;
                v.swap(i, j);
            }
            v.truncate(k.min(m));
            v
        };
        let mut retained = pick(&pos, keep_pos);
        retained.extend(pick(&neg, keep_neg));
        // Ascending store order: survivors keep their relative
        // insertion order, so a compaction that happens to retain a
        // pure prefix stays reusable by the persistent kernel cache.
        retained.sort_unstable();

        let old = std::mem::take(&mut self.samples);
        let old_warm = self.warm.take();
        self.index.clear();
        self.samples.reserve(retained.len());
        for &i in &retained {
            let (m, y) = old[i];
            self.index.insert(m, self.samples.len());
            self.samples.push((m, y));
        }
        // Subset the warm-start duals to the survivors; the Σαy = 0
        // constraint is repaired inside the next fit_warm.
        if let Some(w) = old_warm {
            self.warm = Some(WarmState {
                alphas: retained
                    .iter()
                    .map(|&i| w.alphas.get(i).copied().unwrap_or((old[i].1, 0.0)))
                    .collect(),
                bias: w.bias,
            });
        }
        // Dropped rows change what the next scaler fit sees.
        self.scaler_stale = true;
        self.metrics.store_compactions.inc();
    }

    /// Previous dual state aligned to the *current* store: the carried
    /// α for each sample whose label is unchanged since the last fit,
    /// 0 for flipped or new samples. `None` when warm starting is off
    /// or there is no previous SVM fit.
    fn carried_warm(&self) -> Option<(Vec<f64>, f64)> {
        if !self.cfg.warm_start {
            return None;
        }
        let warm = self.warm.as_ref()?;
        let alpha = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, (_, label))| match warm.alphas.get(i) {
                Some((prev_label, a)) if prev_label == label => *a,
                _ => 0.0,
            })
            .collect();
        Some((alpha, warm.bias))
    }

    /// Retrain the model from the full store (paper: "re-computes the
    /// Admittance Classifier with all the (X_m, Y_m) observed so far").
    /// SVM backends warm-start from the previous fit's dual state when
    /// [`AdmittanceConfig::warm_start`] is on.
    pub fn retrain(&mut self) {
        let ds = self.dataset();
        if ds.is_empty() {
            return;
        }
        // Fault hook: a forced training failure leaves the previous
        // model (possibly none) serving and arms the retry backoff.
        if self.faults.should_inject(FaultKind::RetrainFail) {
            self.metrics.retrain_failures.inc();
            self.backoff.on_failure();
            return;
        }
        // Drawn before the timing closure so the injector sees a
        // stable draw order regardless of trainer internals.
        let sabotage_convergence = self.faults.should_inject(FaultKind::RetrainNonConverge);
        let batch = ds.len();
        let cfg = &self.cfg;
        let carried = self.carried_warm();
        // Sticky-scaler mode reuses the fitted scaler so the scaled
        // rows stay bit-stable across retrains — the enabler for the
        // persistent cache's incremental Gram reuse. A compaction
        // marks it stale (the store distribution changed).
        let prev_scaler = (cfg.sticky_scaler && !self.scaler_stale)
            .then(|| self.serving.scaler.clone())
            .flatten();
        let kcache = &mut self.kernel_cache;
        let (fitted, wall_ns) = exbox_obs::time_ns(move || {
            let scaler = prev_scaler.unwrap_or_else(|| StandardScaler::fit(&ds));
            let scaled = scaler.transform_dataset(&ds);
            let fit = match Self::svm_trainer(cfg, scaled.dims()) {
                Some(trainer) => {
                    let trainer = if sabotage_convergence {
                        // One SMO step, then the max_iters backstop
                        // fires: the fit reports converged() == false
                        // exactly like a genuinely stuck solver.
                        trainer.max_iters(1)
                    } else {
                        trainer
                    };
                    let warm = carried
                        .as_ref()
                        .map(|(alpha, bias)| WarmStart { alpha, bias: *bias });
                    Fitted::Svm(trainer.fit_warm_cached(&scaled, warm, kcache))
                }
                None => match cfg.backend {
                    ClassifierBackend::Logistic => {
                        Fitted::Logistic(LogisticRegressionTrainer::new().train(&scaled))
                    }
                    ClassifierBackend::PegasosLinear => {
                        Fitted::Pegasos(LinearSvmTrainer::new().seed(cfg.seed).train(&scaled))
                    }
                    _ => unreachable!("SVM backends handled above"),
                },
            };
            (scaler, fit)
        });
        let (scaler, fit) = fitted;
        let model = match fit {
            Fitted::Svm(fit) => {
                self.metrics
                    .smo_iterations
                    .record(fit.model.smo_iterations() as f64);
                self.metrics
                    .warm_start_alphas
                    .record(fit.warm_carried as f64);
                self.metrics.shrunk_fraction.record(fit.shrunk_fraction);
                if !fit.model.converged() {
                    self.metrics.nonconverged_retrains.inc();
                }
                self.warm = Some(WarmState {
                    alphas: self
                        .samples
                        .iter()
                        .map(|(_, label)| *label)
                        .zip(fit.alpha.iter().copied())
                        .collect(),
                    bias: fit.model.bias(),
                });
                Model::Svm(fit.model.compact())
            }
            Fitted::Logistic(m) => Model::Logistic(m),
            Fitted::Pegasos(m) => Model::Pegasos(m),
        };
        self.metrics.retrain_wall_ns.record(wall_ns);
        self.metrics.train_batch_samples.record(batch as f64);
        if self.kernel_cache.len() == batch {
            // The cached path ran: record how much of the Gram this
            // retrain actually had to evaluate.
            self.metrics
                .gram_incremental_rows
                .record(self.kernel_cache.last_fresh_rows() as f64);
        }
        self.metrics.retrains.inc();
        self.serving.scaler = Some(scaler);
        self.scaler_stale = false;
        self.serving.model = Some(model);
        self.retrain_count += 1;
        self.backoff.on_success();
    }

    /// Capture the complete learnt state for checkpointing. The SVM
    /// variant re-expands the served [`CompactSvm`] into a full
    /// [`SvmModel`]: the served coefficients are all non-zero (exact
    /// zeros were pruned at compaction), so re-compacting on restore
    /// rebuilds identical rows, coefficients and cached norms —
    /// decisions round-trip bit-exactly.
    pub(crate) fn export_state(&self) -> ClassifierState {
        let model = self.serving.model.as_ref().map(|m| match m {
            Model::Svm(compact) => {
                let mut support = Vec::with_capacity(compact.num_support_vectors());
                let mut coef = Vec::with_capacity(compact.num_support_vectors());
                for (c, row) in compact.support_iter() {
                    coef.push(c);
                    support.push(row.to_vec());
                }
                ModelState::Svm(SvmModel::from_parts(
                    compact.kernel(),
                    support,
                    coef,
                    compact.bias(),
                    compact.dims(),
                ))
            }
            Model::Logistic(m) => ModelState::Logistic(m.weights().to_vec(), m.bias()),
            Model::Pegasos(m) => ModelState::Pegasos(m.weights().to_vec(), m.bias()),
        });
        ClassifierState {
            phase: self.serving.phase,
            samples: self.samples.clone(),
            pending: self.pending,
            observations: self.observations,
            retrain_count: self.retrain_count,
            scaler: self
                .serving
                .scaler
                .as_ref()
                .map(|s| (s.means().to_vec(), s.stds().to_vec())),
            model,
            warm: self.warm.as_ref().map(|w| (w.alphas.clone(), w.bias)),
        }
    }

    /// Rebuild a classifier from a restored [`ClassifierState`]. The
    /// fault plan and backoff start fresh (they are runtime policy,
    /// not learnt state).
    pub(crate) fn import_state(
        cfg: AdmittanceConfig,
        state: ClassifierState,
        registry: &MetricsRegistry,
    ) -> Self {
        let mut ac = Self::with_registry(cfg, registry);
        ac.serving.phase = state.phase;
        ac.index = state
            .samples
            .iter()
            .enumerate()
            .map(|(i, (m, _))| (*m, i))
            .collect();
        ac.samples = state.samples;
        ac.pending = state.pending;
        ac.observations = state.observations;
        ac.retrain_count = state.retrain_count;
        ac.serving.scaler = state
            .scaler
            .map(|(mean, std)| StandardScaler::from_parts(mean, std));
        ac.serving.model = state.model.map(|m| match m {
            ModelState::Svm(model) => Model::Svm(model.compact()),
            ModelState::Logistic(w, b) => Model::Logistic(LogisticRegression::from_parts(w, b)),
            ModelState::Pegasos(w, b) => Model::Pegasos(LinearSvm::from_parts(w, b)),
        });
        ac.warm = state.warm.map(|(alphas, bias)| WarmState { alphas, bias });
        if ac.cfg.monotone_guard {
            ac.serving.set_guard(&ac.samples);
        }
        ac
    }

    /// Signed distance-like score for the matrix that would result
    /// from an admission: positive ⇒ inside the learnt ExCR. `None`
    /// until a model exists (bootstrap before first training).
    /// Allocation-free.
    pub fn decision_value(&self, resulting: &TrafficMatrix) -> Option<f64> {
        self.serving.decision_value(resulting)
    }

    /// The serving value a [`crate::gateway::ModelSnapshot`] clones —
    /// once per publish (off the packet path), never per decision.
    pub(crate) fn serving(&self) -> &Serving {
        &self.serving
    }

    /// Classify an arrival (by the matrix it would produce): the label
    /// of [`AdmittanceClassifier::decide`].
    pub fn classify(&self, resulting: &TrafficMatrix) -> Label {
        self.decide(resulting).0
    }

    /// Single-pass decision: label and margin from one model
    /// evaluation — the serving value's rule, the same one every
    /// published snapshot runs. During bootstrap every flow is
    /// admissible by definition; the margin is `None` until a model
    /// exists. Online, the optional monotonicity guard is consulted
    /// first and, where a stored sample settles the query, overrides
    /// the margin's sign.
    ///
    /// # Examples
    ///
    /// ```
    /// use exbox_core::prelude::*;
    /// use exbox_ml::Label;
    ///
    /// let ac = AdmittanceClassifier::new(AdmittanceConfig::default());
    /// // Bootstrap: every matrix is admissible by definition, and
    /// // there is no model yet, hence no margin.
    /// let (label, margin) = ac.decide(&TrafficMatrix::empty());
    /// assert_eq!(label, Label::Pos);
    /// assert!(margin.is_none());
    /// ```
    pub fn decide(&self, resulting: &TrafficMatrix) -> (Label, Option<f64>) {
        self.serving.decide(resulting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{FlowKind, SnrLevel};
    use exbox_net::AppClass;

    /// Synthetic ground truth: the network supports total ≤ 6 flows
    /// (a simple ExCR).
    fn truth(m: &TrafficMatrix) -> Label {
        if m.total() <= 6 {
            Label::Pos
        } else {
            Label::Neg
        }
    }

    fn matrix(web: u32, stream: u32, conf: u32) -> TrafficMatrix {
        let mut m = TrafficMatrix::empty();
        for _ in 0..web {
            m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
        }
        for _ in 0..stream {
            m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        for _ in 0..conf {
            m.add(FlowKind::new(AppClass::Conferencing, SnrLevel::High));
        }
        m
    }

    fn feed_bootstrap(ac: &mut AdmittanceClassifier) {
        // Diverse grid of observations spanning both labels.
        for w in 0..4 {
            for s in 0..4 {
                for c in 0..4 {
                    let m = matrix(w, s, c);
                    ac.observe(m, truth(&m));
                }
            }
        }
    }

    #[test]
    fn starts_in_bootstrap_and_admits_everything() {
        let ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        assert_eq!(ac.phase(), Phase::Bootstrap);
        assert_eq!(ac.classify(&matrix(30, 30, 30)), Label::Pos);
    }

    #[test]
    fn exits_bootstrap_when_learnable() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Online, "should have gone online");
        assert!(ac.retrain_count() >= 1);
    }

    #[test]
    fn online_classification_matches_simple_excr() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Online);
        assert_eq!(ac.classify(&matrix(1, 1, 1)), Label::Pos);
        assert_eq!(ac.classify(&matrix(4, 4, 4)), Label::Neg);
    }

    #[test]
    fn bootstrap_requires_min_samples() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            bootstrap_min_samples: 1_000,
            ..AdmittanceConfig::default()
        });
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Bootstrap);
    }

    #[test]
    fn repeated_matrix_replaces_label() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        let m = matrix(1, 0, 0);
        ac.observe(m, Label::Pos);
        assert_eq!(ac.num_samples(), 1);
        ac.observe(m, Label::Neg);
        assert_eq!(ac.num_samples(), 1, "repeat must replace, not append");
    }

    #[test]
    fn online_retrains_every_batch() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 5,
            ..AdmittanceConfig::default()
        });
        feed_bootstrap(&mut ac);
        let base = ac.retrain_count();
        // 5 new distinct observations => exactly one retrain.
        for w in 10..15 {
            let m = matrix(w, 0, 0);
            ac.observe(m, truth(&m));
        }
        assert_eq!(ac.retrain_count(), base + 1);
    }

    #[test]
    fn adapts_to_relabelled_world() {
        // The Fig. 11 mechanism: after the network changes, fresh
        // labels replace stale ones and retraining moves the boundary.
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 10,
            ..AdmittanceConfig::default()
        });
        feed_bootstrap(&mut ac);
        assert_eq!(ac.classify(&matrix(2, 2, 1)), Label::Pos);
        // Network throttled: now only total <= 2 is acceptable.
        let new_truth = |m: &TrafficMatrix| {
            if m.total() <= 2 {
                Label::Pos
            } else {
                Label::Neg
            }
        };
        // The workload revisits the whole grid under the new regime;
        // the freshness rule replaces every stale label.
        for _round in 0..3 {
            for w in 0..4 {
                for s in 0..4 {
                    for c in 0..4 {
                        let m = matrix(w, s, c);
                        ac.observe(m, new_truth(&m));
                    }
                }
            }
        }
        assert_eq!(ac.classify(&matrix(2, 2, 1)), Label::Neg, "failed to adapt");
        assert_eq!(ac.classify(&matrix(1, 0, 0)), Label::Pos);
    }

    #[test]
    fn decision_value_orders_by_depth_in_region() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        feed_bootstrap(&mut ac);
        let shallow = ac.decision_value(&matrix(2, 2, 2)).unwrap();
        let deep = ac.decision_value(&matrix(0, 0, 1)).unwrap();
        assert!(
            deep > shallow,
            "deeper inside the ExCR should score higher: {deep} vs {shallow}"
        );
    }

    #[test]
    fn all_backends_learn_the_simple_excr() {
        for backend in [
            ClassifierBackend::SvmRbf {
                c: 10.0,
                gamma: None,
            },
            ClassifierBackend::SvmLinear { c: 10.0 },
            ClassifierBackend::SvmPoly { c: 10.0, degree: 2 },
            ClassifierBackend::Logistic,
            ClassifierBackend::PegasosLinear,
        ] {
            let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
                backend,
                ..AdmittanceConfig::default()
            });
            feed_bootstrap(&mut ac);
            assert_eq!(ac.phase(), Phase::Online, "{backend:?} stuck in bootstrap");
            assert_eq!(
                ac.classify(&matrix(1, 1, 0)),
                Label::Pos,
                "{backend:?} rejects tiny matrix"
            );
            // Query inside the observed range (RBF cannot be trusted
            // outside the training hull — that is why SvmPoly is the
            // default backend).
            assert_eq!(
                ac.classify(&matrix(3, 3, 3)),
                Label::Neg,
                "{backend:?} admits overloaded matrix"
            );
        }
    }

    #[test]
    fn decide_matches_classify_and_decision_value() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        feed_bootstrap(&mut ac);
        for w in 0..5 {
            for s in 0..5 {
                let m = matrix(w, s, 1);
                let (label, margin) = ac.decide(&m);
                assert_eq!(label, ac.classify(&m));
                assert_eq!(margin, ac.decision_value(&m));
            }
        }
    }

    #[test]
    fn monotone_guard_observation_flips_verdict_without_retrain() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            monotone_guard: true,
            // Huge batch so the observes below never retrain — only
            // the guard can move the verdict.
            batch_size: 100_000,
            ..AdmittanceConfig::default()
        });
        feed_bootstrap(&mut ac);
        let probe = matrix(2, 2, 2);
        assert_eq!(ac.decide(&probe).0, Label::Pos);
        // A dominated inadmissible observation flips the guard verdict
        // for the probe without any retrain.
        ac.observe(matrix(1, 1, 1), Label::Neg);
        assert_eq!(ac.decide(&probe).0, Label::Neg);
        // The guard overrides the label only; the margin is the model's.
        assert_eq!(ac.decide(&probe).1, ac.decision_value(&probe));
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let _ = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 0,
            ..AdmittanceConfig::default()
        });
    }

    /// Replay one scripted middlebox workload into a classifier:
    /// bootstrap grid, then three online batches — load growth, a
    /// quiet period of repeats, and a partial relabelling after a
    /// (synthetic) capacity drop to `total <= 5`.
    fn run_trace(ac: &mut AdmittanceClassifier) {
        feed_bootstrap(ac);
        assert_eq!(ac.phase(), Phase::Online);
        for w in 4..8 {
            for s in 0..3 {
                let m = matrix(w, s, 0);
                ac.observe(m, truth(&m));
            }
        }
        for _ in 0..2 {
            for w in 0..4 {
                for s in 0..4 {
                    let m = matrix(w, s, 1);
                    ac.observe(m, truth(&m));
                }
            }
        }
        let drop_truth = |m: &TrafficMatrix| {
            if m.total() <= 5 {
                Label::Pos
            } else {
                Label::Neg
            }
        };
        for w in 0..4 {
            for c in 0..4 {
                let m = matrix(w, 2, c);
                ac.observe(m, drop_truth(&m));
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_predictions_on_trace() {
        // Warm starting changes the optimisation path, not the
        // problem: after the same scripted trace, warm and cold
        // classifiers must agree on (nearly all of) the query grid.
        let mut warm = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 8,
            ..AdmittanceConfig::default()
        });
        let mut cold = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 8,
            warm_start: false,
            ..AdmittanceConfig::default()
        });
        run_trace(&mut warm);
        run_trace(&mut cold);
        assert!(warm.retrain_count() >= 3, "trace must retrain repeatedly");
        assert_eq!(warm.retrain_count(), cold.retrain_count());
        let mut agree = 0u32;
        let mut total = 0u32;
        for w in 0..5 {
            for s in 0..5 {
                for c in 0..5 {
                    total += 1;
                    if warm.classify(&matrix(w, s, c)) == cold.classify(&matrix(w, s, c)) {
                        agree += 1;
                    }
                }
            }
        }
        assert!(
            agree * 100 >= total * 95,
            "warm/cold disagree on {} of {total} grid points",
            total - agree
        );
    }

    #[test]
    fn warm_retrain_uses_fewer_smo_iterations_than_cold() {
        // Steady state: a retrain over a store that barely changed
        // must mostly *verify* the carried dual state rather than
        // re-optimise from zero. Asserted through the metrics the
        // middlebox exports, as an operator would see it.
        let reg = MetricsRegistry::new();
        // Batch larger than the trace so only the bootstrap exit and
        // the explicit retrain below ever train.
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                batch_size: 1_000,
                ..AdmittanceConfig::default()
            },
            &reg,
        );
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Online);
        assert_eq!(ac.retrain_count(), 1, "bootstrap exit trains cold once");
        let smo_sum = |reg: &MetricsRegistry| {
            reg.snapshot()
                .histogram("admittance.smo_iterations")
                .expect("smo_iterations recorded")
                .sum
        };
        let cold_iters = smo_sum(&reg);
        assert!(cold_iters > 0.0, "cold fit must report SMO work");

        // The bootstrap exit trained mid-feed, so the store has grown
        // since: this retrain absorbs the growth (and the scaler
        // shift that comes with it) into the carried dual state.
        ac.retrain();
        let absorb_iters = smo_sum(&reg);

        // Steady state: the store is unchanged since the last fit, so
        // the warm retrain merely verifies the carried state instead
        // of re-optimising from zero.
        ac.retrain();
        assert_eq!(ac.retrain_count(), 3);
        let warm_iters = smo_sum(&reg) - absorb_iters;
        assert!(
            warm_iters < cold_iters / 2.0,
            "steady-state warm retrain should need far fewer SMO updates: \
             warm {warm_iters} vs cold {cold_iters}"
        );
        let carried = reg
            .snapshot()
            .histogram("admittance.warm_start_alphas")
            .expect("warm_start_alphas recorded")
            .clone();
        assert_eq!(carried.count, 3, "every retrain records carried alphas");
        assert!(
            carried.sum > 0.0,
            "warm retrains must carry multipliers over"
        );
    }

    #[test]
    fn injected_retrain_failure_arms_backoff_and_keeps_old_model() {
        let reg = MetricsRegistry::new();
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                batch_size: 1,
                ..AdmittanceConfig::default()
            },
            &reg,
        );
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Online);
        let trained = ac.retrain_count();
        assert!(ac.model_available());

        ac.set_fault_plan(FaultPlan::with_registry(
            &[(FaultKind::RetrainFail, 1.0)],
            11,
            &reg,
        ));
        let m = matrix(1, 1, 0);
        // batch_size 1: each observation is a retrain trigger. With
        // every attempt failing, the backoff schedule (1, 2, 4, …)
        // spaces the attempts out: 8 triggers see attempts at
        // trigger 1, 3, 6 and skips elsewhere.
        for _ in 0..8 {
            ac.observe(m, truth(&m));
        }
        assert_eq!(ac.retrain_count(), trained, "no failed retrain may count");
        assert!(ac.model_available(), "old model must keep serving");
        assert!(ac.consecutive_retrain_failures() >= 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("recovery.retrain_failures"), Some(3));
        assert_eq!(snap.counter("recovery.retrain_retries"), Some(2));
        assert_eq!(snap.counter("faults.injected"), Some(3));

        // Heal the trainer: the next ready trigger retrains and the
        // backoff resets.
        ac.set_fault_plan(FaultPlan::disabled());
        for _ in 0..8 {
            ac.observe(m, truth(&m));
        }
        assert!(ac.retrain_count() > trained);
        assert_eq!(ac.consecutive_retrain_failures(), 0);
    }

    #[test]
    fn injected_nonconvergence_surfaces_in_metrics() {
        let reg = MetricsRegistry::new();
        // Cold fits only: a warm steady-state verify could finish
        // inside even a sabotaged iteration budget.
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                warm_start: false,
                ..AdmittanceConfig::default()
            },
            &reg,
        );
        feed_bootstrap(&mut ac);
        let base = reg
            .snapshot()
            .counter("admittance.nonconverged_retrains")
            .unwrap_or(0);
        ac.set_fault_plan(FaultPlan::with_registry(
            &[(FaultKind::RetrainNonConverge, 1.0)],
            5,
            &reg,
        ));
        ac.retrain();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("admittance.nonconverged_retrains"),
            Some(base + 1),
            "sabotaged fit must report nonconvergence"
        );
        // A capped fit still produces a (bad) model; serving continues.
        assert!(ac.model_available());
    }

    #[test]
    fn state_roundtrip_preserves_decisions_and_counters() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 8,
            ..AdmittanceConfig::default()
        });
        run_trace(&mut ac);
        let reg = MetricsRegistry::new();
        let restored = AdmittanceClassifier::import_state(
            AdmittanceConfig {
                batch_size: 8,
                ..AdmittanceConfig::default()
            },
            ac.export_state(),
            &reg,
        );
        assert_eq!(restored.phase(), ac.phase());
        assert_eq!(restored.num_samples(), ac.num_samples());
        assert_eq!(restored.num_observations(), ac.num_observations());
        assert_eq!(restored.retrain_count(), ac.retrain_count());
        for w in 0..6 {
            for s in 0..6 {
                for c in 0..4 {
                    let m = matrix(w, s, c);
                    assert_eq!(restored.classify(&m), ac.classify(&m));
                    let (a, b) = (ac.decision_value(&m), restored.decision_value(&m));
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "margin not bit-exact at {m:?}"
                    );
                }
            }
        }
    }

    /// Feed `n` distinct matrices (spanning both labels) on top of the
    /// bootstrap grid.
    fn feed_distinct(ac: &mut AdmittanceClassifier, n: u32) {
        for i in 0..n {
            let m = matrix(i % 9, (i / 9) % 9, i / 81);
            ac.observe(m, truth(&m));
        }
    }

    #[test]
    fn bounded_store_compacts_deterministically() {
        let build = || {
            let reg = MetricsRegistry::new();
            let mut ac = AdmittanceClassifier::with_registry(
                AdmittanceConfig {
                    batch_size: 25,
                    max_samples: 60,
                    ..AdmittanceConfig::default()
                },
                &reg,
            );
            feed_bootstrap(&mut ac);
            feed_distinct(&mut ac, 300);
            (ac, reg)
        };
        let (a, reg) = build();
        assert!(
            a.num_samples() <= 60,
            "store must stay within the bound, got {}",
            a.num_samples()
        );
        let compactions = reg
            .snapshot()
            .counter("admittance.store_compactions")
            .unwrap_or(0);
        assert!(compactions > 0, "the bound must have forced compactions");
        // Both labels survive every compaction so the monotone guard
        // and the trainer keep working in both directions.
        let has = |ac: &AdmittanceClassifier, l: Label| ac.samples.iter().any(|&(_, y)| y == l);
        assert!(has(&a, Label::Pos) && has(&a, Label::Neg));
        // Same feed ⇒ bit-identical store, independent of environment.
        let (b, _) = build();
        assert_eq!(a.samples, b.samples, "compaction must be deterministic");
        // The index stays consistent with the compacted store.
        for (i, (m, _)) in a.samples.iter().enumerate() {
            assert_eq!(a.index.get(m), Some(&i));
        }
    }

    #[test]
    fn compaction_keeps_classifier_learnable() {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            batch_size: 25,
            max_samples: 80,
            monotone_guard: true,
            ..AdmittanceConfig::default()
        });
        feed_bootstrap(&mut ac);
        assert_eq!(ac.phase(), Phase::Online);
        feed_distinct(&mut ac, 400);
        // The boundary is still learnt despite the bounded store.
        assert_eq!(ac.classify(&matrix(1, 1, 0)), Label::Pos);
        assert_eq!(ac.classify(&matrix(8, 8, 8)), Label::Neg);
        // Guard verdicts only ever derive from retained samples, all
        // of which carry their observed labels — a dominated-by-Pos
        // query stays Pos, a dominating-a-Neg query stays Neg.
        assert_eq!(ac.serving.guard(&matrix(0, 0, 0)), Some(Label::Pos));
        assert_eq!(ac.serving.guard(&matrix(20, 20, 20)), Some(Label::Neg));
    }

    /// The guard as a scan of the whole sample store, per query: the
    /// obviously correct reference the antichains are held to.
    fn reference_guard(ac: &AdmittanceClassifier, query: &TrafficMatrix) -> Option<Label> {
        let qf = query.features();
        let dominates = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x >= y);
        let mut dominated_by_pos = false;
        for (m, y) in &ac.samples {
            let mf = m.features();
            match y {
                Label::Neg if dominates(&qf, &mf) => return Some(Label::Neg),
                Label::Pos if dominates(&mf, &qf) => dominated_by_pos = true,
                _ => {}
            }
        }
        dominated_by_pos.then_some(Label::Pos)
    }

    /// The decision rule over the store scan, then the margin's sign:
    /// the reference for `Serving::decide`.
    fn reference_decide(ac: &AdmittanceClassifier, query: &TrafficMatrix) -> (Label, Option<f64>) {
        let margin = ac.decision_value(query);
        let label = match ac.phase() {
            Phase::Bootstrap => Label::Pos,
            Phase::Online => {
                let guarded = ac.cfg.monotone_guard.then(|| reference_guard(ac, query));
                guarded
                    .flatten()
                    .unwrap_or(margin.map_or(Label::Pos, Label::from_signum))
            }
        };
        (label, margin)
    }

    #[test]
    fn checkpoint_roundtrip_rebuilds_the_same_guard() {
        let cfg = AdmittanceConfig {
            batch_size: 8,
            max_samples: 40,
            monotone_guard: true,
            ..AdmittanceConfig::default()
        };
        let mut ac = AdmittanceClassifier::new(cfg.clone());
        run_trace(&mut ac);
        let guard = (&ac.serving.min_neg, &ac.serving.max_pos);
        assert!(!guard.0.is_empty() && !guard.1.is_empty());

        let mut buf = Vec::new();
        crate::persist::save_checkpoint(&ac, &crate::engine::tests::estimator(), &mut buf).unwrap();
        let reg = MetricsRegistry::new();
        let (restored, _) = crate::persist::load_checkpoint(&buf[..], cfg, &reg).unwrap();
        assert_eq!(
            (&restored.serving.min_neg, &restored.serving.max_pos),
            guard
        );
    }

    mod guard_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The antichain guard is the full-store scan, exactly:
            /// over stores built from noisy repeats (labels flip) and,
            /// with a small cap, compactions, every query gets the
            /// reference's label and the same margin bits. With the
            /// guard off the antichains stay empty and unallocated.
            #[test]
            fn antichain_guard_equals_the_full_store_scan(
                feed in prop::collection::vec((0u32..6, 0u32..6, 0u32..4, 0u8..6), 20..160),
                queries in prop::collection::vec((0u32..8, 0u32..8, 0u32..6), 1..40),
                cap_pick in 0usize..3,
                guard in any::<bool>(),
            ) {
                let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
                    batch_size: 16,
                    // Unbounded, or small enough that compaction runs.
                    max_samples: [0, 24, 48][cap_pick],
                    monotone_guard: guard,
                    ..AdmittanceConfig::default()
                });
                feed_bootstrap(&mut ac);
                let queries: Vec<TrafficMatrix> =
                    queries.iter().map(|&(w, s, c)| matrix(w, s, c)).collect();
                for &(w, s, c, noise) in &feed {
                    let m = matrix(w, s, c);
                    let y = if noise == 0 { truth(&m).flip() } else { truth(&m) };
                    ac.observe(m, y);
                    // Fresh after every observation, not just the last.
                    for q in queries.iter().filter(|_| guard) {
                        prop_assert_eq!(ac.serving.guard(q), reference_guard(&ac, q));
                    }
                }
                prop_assert_eq!(ac.phase(), Phase::Online);
                if !guard {
                    prop_assert_eq!(ac.serving.min_neg.capacity(), 0);
                    prop_assert_eq!(ac.serving.max_pos.capacity(), 0);
                }
                for q in &queries {
                    let (label, margin) = ac.decide(q);
                    let (want_label, want_margin) = reference_decide(&ac, q);
                    prop_assert_eq!(label, want_label);
                    prop_assert_eq!(margin.map(f64::to_bits), want_margin.map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn sticky_scaler_enables_incremental_gram_reuse() {
        let reg = MetricsRegistry::new();
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                batch_size: 1_000,
                sticky_scaler: true,
                ..AdmittanceConfig::default()
            },
            &reg,
        );
        feed_bootstrap(&mut ac);
        assert_eq!(ac.retrain_count(), 1, "bootstrap exit trains cold once");
        let fresh_rows = |reg: &MetricsRegistry| {
            reg.snapshot()
                .histogram("admittance.gram_incremental_rows")
                .expect("cached retrains record fresh rows")
                .sum
        };
        // The bootstrap exit trained mid-feed; absorb the growth since
        // so the store matches the cache exactly.
        ac.retrain();
        let cold_rows = fresh_rows(&reg);
        assert!(cold_rows > 0.0, "cold fit evaluates the full Gram");
        // Grow the store by a handful of rows: with the scaler held
        // fixed, the cached retrain evaluates only the fresh rows.
        let n0 = ac.num_samples();
        for w in 4..8 {
            let m = matrix(w, 4, 4);
            ac.observe(m, truth(&m));
        }
        let delta = ac.num_samples() - n0;
        assert!(delta > 0);
        ac.retrain();
        let grown = fresh_rows(&reg) - cold_rows;
        assert_eq!(
            grown, delta as f64,
            "sticky-scaler retrain must be incremental: {grown} rows for Δ = {delta}"
        );
        // Unchanged store ⇒ zero fresh rows.
        ac.retrain();
        assert_eq!(
            fresh_rows(&reg) - cold_rows,
            grown,
            "replay evaluates nothing"
        );
    }

    mod compaction_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Bounded-store invariants under arbitrary feeds: the
            /// store never exceeds the cap, identical feeds compact
            /// bit-identically, every survivor is a
            /// genuine observation carrying its latest label — which
            /// is what keeps monotone-guard verdicts sound — and both
            /// labels survive whenever the history produced both.
            #[test]
            fn compaction_is_deterministic_bounded_and_sound(
                feed in prop::collection::vec((0u32..10, 0u32..10, 0u32..6), 60..220),
                cap in 30usize..80,
            ) {
                let build = || {
                    let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
                        batch_size: 50,
                        max_samples: cap,
                        monotone_guard: true,
                        ..AdmittanceConfig::default()
                    });
                    let mut latest: HashMap<TrafficMatrix, Label> = HashMap::new();
                    for &(w, s, c) in &feed {
                        let m = matrix(w, s, c);
                        let y = truth(&m);
                        latest.insert(m, y);
                        ac.observe(m, y);
                    }
                    (ac, latest)
                };
                let (a, latest) = build();
                let (b, _) = build();
                prop_assert_eq!(&a.samples, &b.samples, "compaction must be deterministic");
                prop_assert!(a.num_samples() <= cap, "store exceeded its bound");
                for (m, y) in &a.samples {
                    prop_assert_eq!(latest.get(m), Some(y), "survivor not a genuine observation");
                }
                for (i, (m, _)) in a.samples.iter().enumerate() {
                    prop_assert_eq!(a.index.get(m), Some(&i), "index out of sync");
                }
                // Labels never flip under the fixed truth, so each
                // compaction's ≥1-per-stratum rule guarantees both
                // labels survive to the end whenever both occurred.
                for want in [Label::Pos, Label::Neg] {
                    if latest.values().any(|&y| y == want) {
                        prop_assert!(
                            a.samples.iter().any(|&(_, y)| y == want),
                            "label {want:?} lost by compaction"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_refit_scaler_still_matches_uncached_decisions() {
        // Without sticky_scaler the per-retrain scaler refit rescales
        // every row, so the persistent cache rebuilds — but decisions
        // must stay bit-exact with the history before the cache
        // existed (the committed CSVs pin this globally; this is the
        // local version).
        let mut cached = AdmittanceClassifier::new(AdmittanceConfig::default());
        run_trace(&mut cached);
        let mut direct = AdmittanceClassifier::new(AdmittanceConfig::default());
        run_trace(&mut direct);
        for w in 0..8 {
            for s in 0..4 {
                let m = matrix(w, s, 1);
                assert_eq!(
                    cached.decision_value(&m).map(f64::to_bits),
                    direct.decision_value(&m).map(f64::to_bits)
                );
            }
        }
    }
}

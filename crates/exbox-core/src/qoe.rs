//! The QoE Estimator (paper §3.2).
//!
//! ExBox estimates per-flow QoE on the *network side*: a training
//! device measures real QoE under controlled QoS profiles once, an
//! IQX model is fitted per application class, and thereafter QoE is
//! predicted purely from passive QoS measurements at the gateway.
//! Pre-defined thresholds (paper ref. 39) then map each estimate to
//! `Y ∈ {+1, −1}`.
//!
//! ## The per-class cut
//!
//! The reference verdict for a flow of one class is
//! [`ClassQoeModel::acceptable_at`] of [`QosScale::normalize`] of its
//! raw QoS index: an `ln`, an `exp` and a compare. The IQX curve is
//! monotone in the index and the threshold is fixed, so the verdict
//! flips at most once. [`QoeEstimator::with_registry`] therefore
//! certifies, per class, a cut on the raw index: one constant verdict
//! for `idx < lo`, the other for `idx > hi`, and the formula itself in
//! the guard band `lo ≤ idx ≤ hi` and for NaN. A due flow's verdict is
//! then two compares ([`QoeEstimator::verdict`]).
//!
//! The cut is exact, not approximate. The computed QoE at any index is
//! within a bound `E` of the exact IQX value of the exact normalised
//! index (`error_bound`: an ulp each for `ln` and `exp`, half an ulp
//! per other operation, carried through the curve's slope). The flip
//! point `t` is found by bisection over the bit order of
//! `[min_index, max_index]`, and the band's edges by two more: `lo` is
//! the first index where the computed curve no longer clears the
//! threshold by `2E` on the side of the verdict below `t`, `hi` the
//! last before it clears it by `2E` on the side of the verdict above
//! `t`. The exact curve then clears by more than
//! `E` at both innermost constant indices and at both ends of the
//! scale; being monotone, it does so on every index between (and the
//! normalised index clamps beyond the ends), so the computed verdict is
//! the constant wherever the cut uses it.
//!
//! A class keeps the formula everywhere when it cannot be certified:
//! a non-finite model or bound, or a curve that sits within `2E` of the
//! threshold at an end of the scale (a flat `β = 0` curve on its
//! threshold is one). A class whose curve never crosses the threshold
//! takes one constant everywhere. Nothing chooses between these but the
//! model, and the cut is rebuilt, never stored: checkpoints carry the
//! model alone.

use std::sync::Arc;

use exbox_net::{AppClass, QosSample};
use exbox_obs::{buckets, Counter, Histogram, MetricsRegistry};

use crate::iqx::IqxModel;

/// Instrumentation handles for the estimator. Clones share the same
/// underlying instruments, so estimator copies aggregate naturally.
#[derive(Debug, Clone)]
struct QoeMetrics {
    /// `qoe.estimate.<class>` — distribution of QoE estimates, in the
    /// class metric's native unit (seconds or dB).
    estimates: [Arc<Histogram>; AppClass::COUNT],
    /// `qoe.acceptable` — acceptability verdicts that passed.
    acceptable: Arc<Counter>,
    /// `qoe.unacceptable` — acceptability verdicts that failed.
    unacceptable: Arc<Counter>,
}

impl QoeMetrics {
    fn bind(reg: &MetricsRegistry) -> Self {
        // 0–50 covers both delay-like metrics (seconds) and PSNR (dB).
        let bounds = buckets::linear(2.5, 2.5, 20);
        QoeMetrics {
            estimates: AppClass::ALL
                .map(|c| reg.histogram(&format!("qoe.estimate.{}", c.name()), &bounds)),
            acceptable: reg.counter("qoe.acceptable"),
            unacceptable: reg.counter("qoe.unacceptable"),
        }
    }
}

/// Normalisation of the raw QoS index (`throughput / delay`) onto the
/// `[0, 1]` scale the IQX models are fitted on.
///
/// The raw index spans several orders of magnitude between a starved
/// and a healthy flow, so the scale is logarithmic: the training
/// sweep's worst observed index maps to 0, its best to 1, and
/// everything interpolates on `ln`. (A linear scale would squash the
/// entire unusable-to-mediocre range into a sliver near 0 and make
/// the fitted curves useless for discrimination.)
///
/// The raw bounds are kept beside their logarithms, so a checkpoint
/// writes back exactly the indices the scale was built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosScale {
    min_index: f64,
    max_index: f64,
    ln_min: f64,
    ln_max: f64,
}

impl QosScale {
    /// Build from the worst and best raw QoS indices observed during
    /// training.
    ///
    /// # Panics
    /// Panics unless `0 < min_index < max_index`.
    pub fn new(min_index: f64, max_index: f64) -> Self {
        assert!(
            min_index > 0.0 && min_index.is_finite(),
            "min index must be positive"
        );
        assert!(
            max_index > min_index && max_index.is_finite(),
            "max index must exceed min index"
        );
        QosScale {
            min_index,
            max_index,
            ln_min: min_index.ln(),
            ln_max: max_index.ln(),
        }
    }

    /// The raw (min, max) index bounds this scale was built from.
    pub fn bounds(&self) -> (f64, f64) {
        (self.min_index, self.max_index)
    }

    /// Normalise a raw index onto `[0, 1]` (clamped).
    pub fn normalize(&self, raw_index: f64) -> f64 {
        if raw_index <= 0.0 {
            return 0.0;
        }
        ((raw_index.ln() - self.ln_min) / (self.ln_max - self.ln_min)).clamp(0.0, 1.0)
    }
}

/// Whether smaller or larger values of a QoE metric mean happier
/// users (page load time vs PSNR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricDirection {
    /// Smaller is better (page load time, startup delay).
    LowerIsBetter,
    /// Larger is better (PSNR).
    HigherIsBetter,
}

/// Fitted QoE model plus acceptability threshold for one class.
#[derive(Debug, Clone, Copy)]
pub struct ClassQoeModel {
    /// The fitted IQX curve mapping normalised QoS to the QoE metric.
    pub iqx: IqxModel,
    /// Acceptability threshold in the metric's native unit.
    pub threshold: f64,
    /// Direction of the metric.
    pub direction: MetricDirection,
}

impl ClassQoeModel {
    /// Is the QoE estimate at this (normalised) QoS acceptable?
    pub fn acceptable_at(&self, normalized_qos: f64) -> bool {
        let qoe = self.iqx.qoe(normalized_qos);
        match self.direction {
            MetricDirection::LowerIsBetter => qoe <= self.threshold,
            MetricDirection::HigherIsBetter => qoe >= self.threshold,
        }
    }
}

/// One class's verdict as a cut on the raw QoS index (module docs):
/// `below` for `idx < lo`, `above` for `idx > hi`, the formula between
/// and for NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cut {
    lo: f64,
    hi: f64,
    below: bool,
    above: bool,
}

impl Cut {
    /// The formula on every index: no comparison ever succeeds.
    const FORMULA: Cut = Cut {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        below: false,
        above: false,
    };

    /// Certify `model`'s cut on `scale`, or fall back to
    /// [`Cut::FORMULA`].
    fn certify(model: &ClassQoeModel, scale: &QosScale) -> Cut {
        let f = |idx: f64| model.acceptable_at(scale.normalize(idx));
        let err = error_bound(model, scale);
        let clears = |idx: f64, side: bool| margin(model, scale, idx, side) > 2.0 * err;
        let (min, max) = scale.bounds();
        let (below, above) = (f(min), f(max));
        if !(err.is_finite() && clears(min, below) && clears(max, above)) {
            return Cut::FORMULA;
        }
        if below == above {
            // Every index below +∞ takes the constant; ∞ and NaN the
            // formula, which agrees at ∞.
            return Cut {
                lo: f64::INFINITY,
                hi: f64::INFINITY,
                below,
                above,
            };
        }
        let t = bisect(min, max, |x| f(x) == above);
        Cut {
            lo: bisect(min, t, |x| !clears(x, below)),
            hi: next_down(bisect(next_down(t), max, |x| clears(x, above))),
            below,
            above,
        }
    }
}

/// The verdict's signed distance from the threshold at `idx`, as
/// computed: positive when the computed QoE lies on the `side` verdict's
/// side (`true` = acceptable).
fn margin(model: &ClassQoeModel, scale: &QosScale, idx: f64, side: bool) -> f64 {
    let qoe = model.iqx.qoe(scale.normalize(idx));
    let good = match model.direction {
        MetricDirection::LowerIsBetter => model.threshold - qoe,
        MetricDirection::HigherIsBetter => qoe - model.threshold,
    };
    if side {
        good
    } else {
        -good
    }
}

/// An upper bound, with a fourfold margin, on the distance between the
/// computed `model.iqx.qoe(scale.normalize(idx))` and the exact IQX
/// value of the exact normalised index, for every `idx`. Non-finite
/// when the model is.
///
/// `normalize`: `ln` errs by an ulp, the subtraction and division by
/// half an ulp each; where the exact normalised index leaves `[−2, 2]`
/// before the clamp, both clamp alike (unless the scale spans a handful
/// of ulps, which is refused). `−γ·q` adds half an ulp, and `exp`
/// scales the exponent's error by its value (at most `top`) and adds an
/// ulp. `β·e` and `α + β·e` add half an ulp each.
fn error_bound(model: &ClassQoeModel, scale: &QosScale) -> f64 {
    let eps = f64::EPSILON;
    let IqxModel { alpha, beta, gamma } = model.iqx;
    let span = scale.ln_max - scale.ln_min;
    let ln_abs = scale.ln_min.abs().max(scale.ln_max.abs()) + 2.0 * span;
    let dq = eps * (ln_abs / span + 2.0);
    let dx = gamma.abs() * (dq + eps);
    let top = (-gamma).exp().max(1.0) * dx.exp();
    let de = top * (dx + eps);
    let raw = beta.abs() * (de + eps * top) + eps * (alpha.abs() + beta.abs() * top);
    let finite = [alpha, beta, gamma, model.threshold]
        .iter()
        .all(|v| v.is_finite());
    if finite && dq < 0.25 {
        4.0 * raw
    } else {
        f64::INFINITY
    }
}

/// The first float of `[a, b]` (positive, in bit order) where `pred`
/// holds with its predecessor failing it, given `!pred(a)` and
/// `pred(b)`: at most 64 evaluations.
fn bisect(a: f64, b: f64, pred: impl Fn(f64) -> bool) -> f64 {
    let (mut a, mut b) = (a.to_bits(), b.to_bits());
    while b - a > 1 {
        let m = a + (b - a) / 2;
        if pred(f64::from_bits(m)) {
            b = m;
        } else {
            a = m;
        }
    }
    f64::from_bits(b)
}

/// The next smaller float below a positive `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Per-class QoE estimation from gateway QoS samples.
#[derive(Debug, Clone)]
pub struct QoeEstimator {
    models: [ClassQoeModel; AppClass::COUNT],
    scale: QosScale,
    /// Per-class cuts, derived from `models` and `scale` (module docs).
    cuts: [Cut; AppClass::COUNT],
    metrics: QoeMetrics,
}

impl QoeEstimator {
    /// Build from per-class models (indexed by [`AppClass::index`])
    /// and the QoS normalisation scale fitted during training.
    /// Estimates and acceptability verdicts are reported to the
    /// process-wide [`exbox_obs::global`] registry; the gateway tallies
    /// its verdicts there once per executed poll
    /// ([`count_verdicts`](Self::count_verdicts)), not once per flow.
    pub fn new(models: [ClassQoeModel; AppClass::COUNT], scale: QosScale) -> Self {
        Self::with_registry(models, scale, exbox_obs::global())
    }

    /// Like [`QoeEstimator::new`] but reporting to an explicit
    /// registry. Certifies each class's cut (module docs): about 200
    /// `ln`/`exp` evaluations per class.
    pub fn with_registry(
        models: [ClassQoeModel; AppClass::COUNT],
        scale: QosScale,
        registry: &MetricsRegistry,
    ) -> Self {
        QoeEstimator {
            cuts: models.map(|m| Cut::certify(&m, &scale)),
            models,
            scale,
            metrics: QoeMetrics::bind(registry),
        }
    }

    /// The model for one class.
    pub fn model(&self, class: AppClass) -> &ClassQoeModel {
        &self.models[class.index()]
    }

    /// Normalise a raw QoS sample onto the `[0, 1]` scale the IQX
    /// models were fitted on.
    pub fn normalize(&self, qos: &QosSample) -> f64 {
        self.scale.normalize(qos.qos_index())
    }

    /// The normalisation scale.
    pub fn scale(&self) -> QosScale {
        self.scale
    }

    /// Estimated QoE metric value for a flow of `class` with measured
    /// `qos`.
    pub fn estimate(&self, class: AppClass, qos: &QosSample) -> f64 {
        let qoe = self.model(class).iqx.qoe(self.normalize(qos));
        self.metrics.estimates[class.index()].record(qoe);
        qoe
    }

    /// Thresholded acceptability, the `Y ∈ {+1, −1}` mapping, uncounted:
    /// the class's cut on the raw QoS index, equal to
    /// [`ClassQoeModel::acceptable_at`] of [`normalize`](Self::normalize)
    /// for every sample (module docs).
    pub fn verdict(&self, class: AppClass, qos: &QosSample) -> bool {
        self.verdict_at(class, qos.qos_index())
    }

    fn verdict_at(&self, class: AppClass, idx: f64) -> bool {
        let cut = &self.cuts[class.index()];
        if idx < cut.lo {
            cut.below
        } else if idx > cut.hi {
            cut.above
        } else {
            self.model(class).acceptable_at(self.scale.normalize(idx))
        }
    }

    /// [`verdict`](Self::verdict), counted in `qoe.acceptable` /
    /// `qoe.unacceptable` one call at a time. The gateway's poll takes
    /// uncounted verdicts and tallies them once per executed poll
    /// instead ([`count_verdicts`](Self::count_verdicts)).
    pub fn acceptable(&self, class: AppClass, qos: &QosSample) -> bool {
        let ok = self.verdict(class, qos);
        self.count_verdicts(u64::from(ok), u64::from(!ok));
        ok
    }

    /// Add `ok` acceptable and `not_ok` unacceptable verdicts to the
    /// counters: at most two relaxed adds.
    pub fn count_verdicts(&self, ok: u64, not_ok: u64) {
        if ok > 0 {
            self.metrics.acceptable.add(ok);
        }
        if not_ok > 0 {
            self.metrics.unacceptable.add(not_ok);
        }
    }

    /// Default thresholds from the paper: 3 s page load (§5.3),
    /// 5 s startup delay (§2), 25 dB PSNR.
    pub fn paper_thresholds() -> [f64; AppClass::COUNT] {
        [3.0, 5.0, 25.0]
    }
}

/// Train a [`QoeEstimator`] from per-class `(normalized_qos, qoe)`
/// training sweeps — the paper's controlled training-device runs
/// (§5.3 "Estimating QoE using IQX"). Thresholds are supplied per
/// class in the metric's native unit.
///
/// # Panics
/// Panics if any class has fewer than 3 training points.
pub fn train_estimator(
    sweeps: &[Vec<(f64, f64)>; AppClass::COUNT],
    thresholds: [f64; AppClass::COUNT],
    directions: [MetricDirection; AppClass::COUNT],
    scale: QosScale,
) -> QoeEstimator {
    let models = [
        ClassQoeModel {
            iqx: IqxModel::fit(&sweeps[0]),
            threshold: thresholds[0],
            direction: directions[0],
        },
        ClassQoeModel {
            iqx: IqxModel::fit(&sweeps[1]),
            threshold: thresholds[1],
            direction: directions[1],
        },
        ClassQoeModel {
            iqx: IqxModel::fit(&sweeps[2]),
            threshold: thresholds[2],
            direction: directions[2],
        },
    ];
    for class in AppClass::ALL {
        let rmse = models[class.index()].iqx.rmse(&sweeps[class.index()]);
        exbox_obs::global()
            .gauge(&format!("qoe.fit_rmse.{}", class.name()))
            .set(rmse);
    }
    QoeEstimator::new(models, scale)
}

/// Canonical metric directions for the paper's three classes:
/// page load time ↓, startup delay ↓, PSNR ↑.
pub fn paper_directions() -> [MetricDirection; AppClass::COUNT] {
    [
        MetricDirection::LowerIsBetter,
        MetricDirection::LowerIsBetter,
        MetricDirection::HigherIsBetter,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use exbox_net::Duration;

    fn sample(throughput_bps: f64, delay_ms: u64) -> QosSample {
        QosSample {
            throughput_bps,
            mean_delay: Duration::from_millis(delay_ms),
            loss_ratio: 0.0,
        }
    }

    fn estimator() -> QoeEstimator {
        // Synthetic but shape-correct sweeps on normalised QoS [0,1].
        let plt: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let q = i as f64 / 29.0;
                (q, 1.0 + 11.0 * (-5.0 * q).exp())
            })
            .collect();
        let startup: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let q = i as f64 / 29.0;
                (q, 2.0 + 20.0 * (-6.0 * q).exp())
            })
            .collect();
        let psnr: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let q = i as f64 / 29.0;
                (q, 42.0 - 30.0 * (-4.0 * q).exp())
            })
            .collect();
        train_estimator(
            &[plt, startup, psnr],
            QoeEstimator::paper_thresholds(),
            paper_directions(),
            // Scale: index 1e3 (starved) .. 1e8 (10 Mbps at 100 ms).
            QosScale::new(1e3, 1e8),
        )
    }

    #[test]
    fn good_qos_is_acceptable_for_all_classes() {
        let est = estimator();
        let good = sample(20_000_000.0, 20); // index 1e9, clamps to 1
        for class in AppClass::ALL {
            assert!(est.acceptable(class, &good), "{class} rejected good QoS");
        }
    }

    #[test]
    fn terrible_qos_is_unacceptable_for_all_classes() {
        let est = estimator();
        let bad = sample(1_000.0, 1_000); // index 1e3 => scale floor
        for class in AppClass::ALL {
            assert!(!est.acceptable(class, &bad), "{class} accepted awful QoS");
        }
    }

    #[test]
    fn estimates_follow_direction() {
        let est = estimator();
        let good = sample(20_000_000.0, 20);
        let bad = sample(1_000.0, 1_000);
        // Delay-like metrics shrink with better QoS.
        assert!(est.estimate(AppClass::Web, &good) < est.estimate(AppClass::Web, &bad));
        // PSNR grows with better QoS.
        assert!(
            est.estimate(AppClass::Conferencing, &good)
                > est.estimate(AppClass::Conferencing, &bad)
        );
    }

    #[test]
    fn normalization_clamps_to_unit() {
        let est = estimator();
        let huge = sample(1e9, 1);
        assert!(est.normalize(&huge) <= 1.0);
        let idle = sample(0.0, 0);
        assert_eq!(est.normalize(&idle), 0.0);
    }

    #[test]
    fn qos_scale_is_log_linear() {
        let s = QosScale::new(1e2, 1e6);
        assert_eq!(s.normalize(1e2), 0.0);
        assert_eq!(s.normalize(1e6), 1.0);
        assert!((s.normalize(1e4) - 0.5).abs() < 1e-12);
        assert_eq!(s.normalize(1.0), 0.0); // below min clamps
        assert_eq!(s.normalize(1e9), 1.0); // above max clamps
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn qos_scale_rejects_inverted_range() {
        let _ = QosScale::new(1e6, 1e2);
    }

    #[test]
    fn acceptability_boundary_is_threshold_crossing() {
        let est = estimator();
        let model = est.model(AppClass::Web);
        // Find the QoS where estimated PLT crosses 3 s; acceptability
        // must flip exactly there.
        let mut flip = None;
        for i in 0..1000 {
            let q = i as f64 / 999.0;
            let acc = model.acceptable_at(q);
            if acc {
                flip = Some(q);
                break;
            }
        }
        let q_flip = flip.expect("threshold crossing exists");
        assert!(!model.acceptable_at(q_flip - 0.01));
        assert!(model.acceptable_at(q_flip + 0.01));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_min_panics() {
        let _ = QosScale::new(0.0, 1.0);
    }

    // -----------------------------------------------------------------
    // The per-class cut against the formula it replaces.

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// The reference verdict at a raw index.
    fn formula(est: &QoeEstimator, class: AppClass, idx: f64) -> bool {
        est.model(class).acceptable_at(est.scale.normalize(idx))
    }

    /// Indices every cut is checked at, whatever its shape: zero,
    /// negatives, subnormals, the scale's ends, the largest float,
    /// infinity and NaN.
    fn special_indices(scale: &QosScale) -> Vec<f64> {
        let (min, max) = scale.bounds();
        vec![
            0.0,
            -0.0,
            -1.0,
            -f64::MAX,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            next_down(min),
            min,
            next_up(min),
            next_down(max),
            max,
            next_up(max),
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ]
    }

    /// The cut's proof obligations (module docs): both ends of the
    /// scale and the innermost index of each constant region clear the
    /// threshold by twice the error bound, on their constant's side.
    /// Returns the flip point of a crossing cut.
    fn assert_certified(est: &QoeEstimator, class: AppClass) -> Option<f64> {
        let (model, scale) = (est.model(class), &est.scale);
        let cut = est.cuts[class.index()];
        if cut == Cut::FORMULA {
            return None;
        }
        let err = error_bound(model, scale);
        let clears = |idx: f64, side: bool| margin(model, scale, idx, side) > 2.0 * err;
        let (min, max) = scale.bounds();
        assert!(err.is_finite());
        assert!(clears(min, cut.below), "{cut:?}: min not certified");
        assert!(clears(max, cut.above), "{cut:?}: max not certified");
        if cut.lo == f64::INFINITY {
            assert_eq!(cut.below, cut.above, "{cut:?}");
            return None;
        }
        assert_ne!(cut.below, cut.above, "{cut:?}");
        let t = bisect(min, max, |x| formula(est, class, x) == cut.above);
        assert_eq!(formula(est, class, next_down(t)), cut.below);
        assert_eq!(formula(est, class, t), cut.above);
        assert!(min < cut.lo && cut.lo <= t, "{cut:?} t={t}");
        assert!(next_down(t) <= cut.hi && cut.hi < max, "{cut:?} t={t}");
        assert!(
            clears(next_down(cut.lo), cut.below),
            "{cut:?}: index below lo not certified"
        );
        assert!(
            clears(next_up(cut.hi), cut.above),
            "{cut:?}: index above hi not certified"
        );
        Some(t)
    }

    /// `verdict == formula` at `idx`.
    fn agrees(est: &QoeEstimator, class: AppClass, idx: f64) -> Result<(), String> {
        let (v, f) = (est.verdict_at(class, idx), formula(est, class, idx));
        if v == f {
            Ok(())
        } else {
            Err(format!(
                "idx {idx:e} ({:#x}): cut {v}, formula {f}, {:?}",
                idx.to_bits(),
                est.cuts[class.index()]
            ))
        }
    }

    #[test]
    fn shape_correct_models_get_narrow_certified_cuts() {
        let est = estimator();
        for class in AppClass::ALL {
            let t = assert_certified(&est, class).expect("each class crosses its threshold");
            let cut = est.cuts[class.index()];
            let width = next_up(cut.hi).to_bits() - next_down(cut.lo).to_bits();
            assert!(width < 1 << 16, "{class}: band {width} ulps wide");
            for k in -(1i64 << 16)..=1 << 16 {
                agrees(
                    &est,
                    class,
                    f64::from_bits(t.to_bits().wrapping_add_signed(k)),
                )
                .unwrap();
            }
            for idx in special_indices(&est.scale) {
                agrees(&est, class, idx).unwrap();
            }
            // Samples off the scale's ends take the constants.
            assert_eq!(est.verdict(class, &sample(1_000.0, 1_000)), cut.below);
            assert_eq!(est.verdict(class, &sample(20_000_000.0, 20)), cut.above);
        }
    }

    #[test]
    fn flat_curve_on_its_threshold_keeps_the_formula() {
        let on = ClassQoeModel {
            iqx: IqxModel {
                alpha: 3.0,
                beta: 0.0,
                gamma: 5.0,
            },
            threshold: 3.0,
            direction: MetricDirection::LowerIsBetter,
        };
        let off = ClassQoeModel {
            threshold: 2.0,
            ..on
        };
        let scale = QosScale::new(1e3, 1e8);
        assert_eq!(Cut::certify(&on, &scale), Cut::FORMULA);
        let constant = Cut::certify(&off, &scale);
        assert_eq!(
            (constant.lo, constant.below, constant.above),
            (f64::INFINITY, false, false)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// For random IQX fits — either direction, either sign of β,
        /// thresholds inside and outside the curve's range on [0, 1],
        /// flat curves — and random scales, the cut's verdict equals
        /// the formula's on random indices, on every float within 2¹⁶
        /// ulps of the flip point, at the band's edges and at the
        /// special indices; and the cut meets its proof obligations.
        #[test]
        fn cut_verdict_equals_the_formula(
            higher in proptest::prelude::any::<bool>(),
            alpha in -50.0f64..50.0,
            beta in -40.0f64..40.0,
            gamma in -5.0f64..30.0,
            shape in 0u8..8,
            at in 0.0f64..1.0,
            min_exp in -3.0f64..6.0,
            span_exp in 0.01f64..8.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut iqx = IqxModel { alpha, beta, gamma };
            if shape == 7 {
                iqx.beta = 0.0;
            }
            let (q0, q1) = (iqx.qoe(0.0), iqx.qoe(1.0));
            let threshold = match shape {
                // Inside the curve's range on [0, 1].
                0..=2 => iqx.qoe(at),
                // Outside it, on either side.
                3 => q0.max(q1) + 1.0 + 10.0 * at,
                4 => q0.min(q1) - 1.0 - 10.0 * at,
                // Exactly at an end: within error there.
                5 => if at < 0.5 { q0 } else { q1 },
                // Flat: on its own threshold, or off it.
                _ => if at < 0.5 { iqx.alpha } else { iqx.alpha + at },
            };
            let model = ClassQoeModel {
                iqx,
                threshold,
                direction: if higher {
                    MetricDirection::HigherIsBetter
                } else {
                    MetricDirection::LowerIsBetter
                },
            };
            let min = 10f64.powf(min_exp);
            let scale = QosScale::new(min, min * 10f64.powf(span_exp));
            let est = QoeEstimator::with_registry([model; AppClass::COUNT], scale, &MetricsRegistry::new());
            let class = AppClass::Web;
            let t = assert_certified(&est, class);

            let mut idx = special_indices(&scale);
            let cut = est.cuts[class.index()];
            for edge in [cut.lo, cut.hi] {
                if edge.is_finite() && edge > 0.0 {
                    idx.extend([next_down(next_down(edge)), next_down(edge), edge, next_up(edge), next_up(next_up(edge))]);
                }
            }
            if let Some(t) = t {
                idx.extend((-(1i64 << 16)..=1 << 16).map(|k| f64::from_bits(t.to_bits().wrapping_add_signed(k))));
            }
            let mut rng = proptest::TestRng::new(seed);
            let (ln_lo, ln_hi) = ((min / 10.0).ln(), (scale.bounds().1 * 10.0).ln());
            let near = t.unwrap_or(min);
            idx.extend((0..100_000).map(|i| match i % 4 {
                // Log-uniform around the scale ...
                0 | 1 => (ln_lo + rng.next_f64() * (ln_hi - ln_lo)).exp(),
                // ... close to the flip point ...
                2 => near * (1.0 + (rng.next_f64() - 0.5) * 1e-9),
                // ... and any bit pattern at all.
                _ => f64::from_bits(rng.next_u64()),
            }));
            for x in idx {
                if let Err(e) = agrees(&est, class, x) {
                    proptest::prop_assert!(false, "{}", e);
                }
            }
        }
    }
}

//! Soft-margin SVM trained with Sequential Minimal Optimization.
//!
//! This is the learning engine of the paper's Admittance Classifier
//! (§3.1): a binary SVM whose separating hyperplane *is* the boundary
//! of the Experiential Capacity Region. The implementation follows
//! Platt's SMO in the simplified form popularised by the Stanford
//! CS229 notes, extended with:
//!
//! * an incrementally-maintained error cache (`E_i = f(x_i) − y_i`),
//! * an optional precomputed Gram matrix for small/medium datasets,
//! * a bounded LRU kernel-**row** cache for the `n > gram_limit`
//!   regime, sized to the same memory envelope as a full Gram at the
//!   limit,
//! * precomputed squared norms so RBF evaluations reduce to one dot
//!   product (`‖x−z‖² = ‖x‖² + ‖z‖² − 2·x·z`),
//! * **warm starts**: [`SvmTrainer::fit_warm`] accepts the previous
//!   fit's α vector, clamps it into the new box, repairs the
//!   equality constraint `Σαᵢyᵢ = 0`, and rebuilds the error cache —
//!   the basis of the Admittance Classifier's incremental online
//!   retraining,
//! * the standard **shrinking** heuristic: multipliers locked at a
//!   bound with comfortably-satisfied KKT conditions for several
//!   passes drop out of the working set; before convergence is
//!   declared their errors are reconstructed and the full problem is
//!   re-verified,
//! * deterministic, seedable index selection.
//!
//! The dual problem solved is
//!
//! ```text
//! max Σαᵢ − ½ ΣΣ αᵢαⱼ yᵢyⱼ K(xᵢ,xⱼ)   s.t. 0 ≤ αᵢ ≤ C, Σαᵢyᵢ = 0
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

use crate::data::Dataset;
use crate::kernel::{dot, gram_matrix, Kernel};
use crate::{Classifier, TrainClassifier};

/// Consecutive quiescent-at-bound passes before a multiplier is
/// shrunk out of the working set.
const SHRINK_AFTER: u8 = 3;
/// Problem size below which shrinking bookkeeping is not worth it.
const SHRINK_MIN_SAMPLES: usize = 128;
/// KKT violation tolerance.
const TOL: f64 = 1e-3;
/// Consecutive full passes without any α update before training stops.
const MAX_PASSES: u32 = 5;

/// Hyper-parameters and driver for SMO training.
#[derive(Debug, Clone)]
pub struct SvmTrainer {
    kernel: Kernel,
    c: f64,
    max_iters: u64,
    gram_limit: usize,
    shrinking: bool,
    seed: u64,
}

impl SvmTrainer {
    /// Create a trainer with the given kernel and defaults:
    /// `C = 1.0`, Gram matrix cached for up to 4096 samples, shrinking
    /// on.
    pub fn new(kernel: Kernel) -> Self {
        SvmTrainer {
            kernel,
            c: 1.0,
            max_iters: 2_000_000,
            gram_limit: 4096,
            shrinking: true,
            seed: 0xE5B0,
        }
    }

    /// Set the soft-margin cost `C` (> 0). Larger values penalise
    /// violations harder and fit the training data more tightly.
    ///
    /// # Panics
    /// Panics unless `c` is positive and finite.
    pub fn c(mut self, c: f64) -> Self {
        assert!(c > 0.0 && c.is_finite(), "C must be positive");
        self.c = c;
        self
    }

    /// Hard cap on total inner-loop iterations as a divergence
    /// backstop. A fit that hits the cap reports
    /// [`SvmModel::converged`]` == false`.
    pub fn max_iters(mut self, iters: u64) -> Self {
        self.max_iters = iters;
        self
    }

    /// Largest sample count for which the full Gram matrix is
    /// precomputed (`n²` doubles of memory). Above this, kernel rows
    /// are served from a bounded LRU cache of the same memory budget.
    pub fn gram_limit(mut self, limit: usize) -> Self {
        self.gram_limit = limit;
        self
    }

    /// Enable/disable the shrinking heuristic (default on). Shrinking
    /// never changes the verdict — the full problem is re-verified
    /// before convergence is declared — but skips bound-locked
    /// multipliers in the meantime.
    pub fn shrinking(mut self, on: bool) -> Self {
        self.shrinking = on;
        self
    }

    /// Seed for the deterministic second-index selection stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Train a model — inherent alias for [`TrainClassifier::fit`].
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn train(&self, data: &Dataset) -> SvmModel {
        self.fit(data)
    }

    /// Train with an optional warm start: `warm` carries the α vector
    /// and bias of a previous fit, aligned by sample index (shorter or
    /// longer α vectors are fine — extra entries are ignored, missing
    /// ones start at zero). Carried values are clamped into the new
    /// box `[0, C]` and the equality constraint `Σαᵢyᵢ = 0` is
    /// repaired before optimisation, so any α vector is a legal hint.
    ///
    /// Returns the full [`SvmFit`], whose [`SvmFit::warm_start`] feeds
    /// the next retrain.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn fit_warm(&self, data: &Dataset, warm: Option<WarmStart<'_>>) -> SvmFit {
        assert!(!data.is_empty(), "cannot train SVM on empty dataset");
        if let Some(fit) = self.one_class_fit(data) {
            return fit;
        }
        let cache = KernelCache::new(self.kernel, data, self.gram_limit);
        self.smo_optimize(data, warm, &cache)
    }

    /// [`SvmTrainer::fit_warm`] backed by a [`PersistentKernelCache`]
    /// carried across retrains: the cache is synchronised against
    /// `data` first (bit-exact prefix comparison of the stored feature
    /// rows), so a store that merely grew by Δ rows since the last fit
    /// computes only the Δ new Gram rows/columns — O(Δ·n) kernel
    /// evaluations instead of O(n²) — and an unchanged store computes
    /// none at all. Any prefix mismatch (scaler refit, compaction,
    /// reordering) falls back to a full rebuild inside the cache.
    /// Results are bit-identical to [`SvmTrainer::fit_warm`] in every
    /// case.
    ///
    /// Datasets above [`SvmTrainer::gram_limit`] (the LRU row-cache
    /// regime) and degenerate one-class datasets bypass the persistent
    /// cache and delegate to `fit_warm` unchanged.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn fit_warm_cached(
        &self,
        data: &Dataset,
        warm: Option<WarmStart<'_>>,
        cache: &mut PersistentKernelCache,
    ) -> SvmFit {
        assert!(!data.is_empty(), "cannot train SVM on empty dataset");
        if !data.has_both_classes() || data.len() > self.gram_limit {
            // Bypass regimes never consult the cache again this fit;
            // drop the stale Gram rather than holding O(n²) memory.
            cache.invalidate();
            return self.fit_warm(data, warm);
        }
        cache.sync(self.kernel, data);
        let kc = KernelCache::from_persistent(self.kernel, data, cache);
        self.smo_optimize(data, warm, &kc)
    }

    /// Degenerate one-class datasets: return a constant classifier
    /// at the majority sign. The bootstrap phase guards against
    /// this, but figure harnesses may hit it with tiny batches.
    fn one_class_fit(&self, data: &Dataset) -> Option<SvmFit> {
        if data.has_both_classes() {
            return None;
        }
        let sign = data.y(0).signum();
        Some(SvmFit {
            model: SvmModel {
                kernel: self.kernel,
                support: Vec::new(),
                coef: Vec::new(),
                support_norms: Vec::new(),
                bias: sign,
                dims: data.dims(),
                smo_iters: 0,
                converged: true,
            },
            alpha: vec![0.0; data.len()],
            warm_carried: 0,
            shrunk_fraction: 0.0,
        })
    }

    /// The SMO driver shared by [`SvmTrainer::fit_warm`] and
    /// [`SvmTrainer::fit_warm_cached`]; `cache` carries the kernel
    /// values (full Gram or LRU rows) however they were built.
    fn smo_optimize(
        &self,
        data: &Dataset,
        warm: Option<WarmStart<'_>>,
        cache: &KernelCache<'_>,
    ) -> SvmFit {
        let n = data.len();
        let dims = data.dims();
        let ys: Vec<f64> = (0..n).map(|i| data.y(i).signum()).collect();
        let c = self.c;

        // ---- α initialisation (warm start) -------------------------
        let mut alpha = vec![0.0f64; n];
        if let Some(init) = warm {
            let init = init.alpha;
            for i in 0..n.min(init.len()) {
                let a = init[i].clamp(0.0, c);
                if a > 1e-12 {
                    alpha[i] = a;
                }
            }
            // Repair the dual equality constraint Σαᵢyᵢ = 0 (label
            // flips and clamping can unbalance a carried vector):
            // shave the surplus side from the highest indices down —
            // deterministic, stays inside the box.
            let s: f64 = alpha.iter().zip(&ys).map(|(a, y)| a * y).sum();
            if s.abs() > 1e-12 {
                let side = s.signum();
                let mut excess = s.abs();
                for i in (0..n).rev() {
                    if excess <= 0.0 {
                        break;
                    }
                    if ys[i] == side && alpha[i] > 0.0 {
                        let cut = alpha[i].min(excess);
                        alpha[i] -= cut;
                        excess -= cut;
                    }
                }
            }
        }
        let warm_carried = alpha.iter().filter(|&&a| a > 0.0).count();

        // ---- bias + error-cache initialisation ---------------------
        // With all α = 0 and b = 0: f(x) = 0, so err[t] = −y_t. On a
        // warm start we resume the previous (α, b) state verbatim:
        // rebuild f₀(x_t) = Σ αᵢyᵢK(i,t) and set
        // err[t] = f₀(t) + b − y_t. The error cache is then exactly
        // consistent with the carried decision function, so an
        // unchanged dataset replays the previous quiescent state
        // instead of re-optimising (SMO's bias updates self-correct b
        // as soon as any α moves, so a stale b is a hint, never a
        // wound).
        let mut b = warm.map(|w| w.bias).unwrap_or(0.0);
        let mut err: Vec<f64>;
        if warm_carried > 0 {
            let targets: Vec<usize> = (0..n).collect();
            let f0 = cache.decision_sums(&alpha, &ys, &targets);
            err = (0..n).map(|t| f0[t] + b - ys[t]).collect();
        } else {
            err = ys.iter().map(|y| b - y).collect();
        }

        // xorshift64* stream for the second-index heuristic.
        let mut rng_state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next_rand = move || {
            rng_state ^= rng_state >> 12;
            rng_state ^= rng_state << 25;
            rng_state ^= rng_state >> 27;
            rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };

        // ---- SMO main loop with shrinking --------------------------
        let shrink_enabled = self.shrinking && n >= SHRINK_MIN_SAMPLES;
        let mut active: Vec<usize> = (0..n).collect();
        let mut shrunk = vec![false; n];
        let mut streak = vec![0u8; n];
        let mut shrunk_peak = 0usize;
        let mut quiescent = 0u32;
        let mut iters = 0u64;
        let mut updates = 0u64;
        let mut capped = false;

        'outer: loop {
            let mut num_changed = 0usize;
            for pos in 0..active.len() {
                if iters >= self.max_iters {
                    capped = true;
                    break 'outer;
                }
                iters += 1;
                let i = active[pos];
                let ei = err[i];
                let yi = ys[i];
                let r = yi * ei;
                // KKT check with tolerance.
                if !((r < -TOL && alpha[i] < c) || (r > TOL && alpha[i] > 0.0)) {
                    continue;
                }

                // Attempt a joint step on (i, j); mutates α, b and the
                // error cache and evaluates to `true` on success. A
                // macro rather than a closure so it can borrow the
                // surrounding state mutably.
                macro_rules! try_step {
                    ($cand:expr) => {{
                        let j: usize = $cand;
                        let ei = err[i];
                        let ej = err[j];
                        let yj = ys[j];
                        let (ai_old, aj_old) = (alpha[i], alpha[j]);

                        // Feasible segment for α_j.
                        let (lo, hi) = if yi != yj {
                            ((aj_old - ai_old).max(0.0), (c + aj_old - ai_old).min(c))
                        } else {
                            ((ai_old + aj_old - c).max(0.0), (ai_old + aj_old).min(c))
                        };
                        let eta = 2.0 * cache.pair(i, j) - cache.diag(i) - cache.diag(j);
                        // Degenerate segment or non-negative curvature:
                        // no usable descent direction on this pair.
                        if hi - lo < 1e-12 || eta >= -1e-12 {
                            false
                        } else {
                            let aj_new = (aj_old - yj * (ei - ej) / eta).clamp(lo, hi);
                            if (aj_new - aj_old).abs() < 1e-7 {
                                false
                            } else {
                                let ai_new = ai_old + yi * yj * (aj_old - aj_new);
                                let kij = cache.pair(i, j);
                                let kii = cache.diag(i);
                                let kjj = cache.diag(j);

                                // Bias update (Platt eqs. 20–21).
                                let b1 = b
                                    - ei
                                    - yi * (ai_new - ai_old) * kii
                                    - yj * (aj_new - aj_old) * kij;
                                let b2 = b
                                    - ej
                                    - yi * (ai_new - ai_old) * kij
                                    - yj * (aj_new - aj_old) * kjj;
                                let b_new = if ai_new > 0.0 && ai_new < c {
                                    b1
                                } else if aj_new > 0.0 && aj_new < c {
                                    b2
                                } else {
                                    0.5 * (b1 + b2)
                                };

                                // Incremental error-cache update over the
                                // active set: f(x) gains
                                // Δαᵢ yᵢ K(xᵢ,x) + Δαⱼ yⱼ K(xⱼ,x) + Δb.
                                // Shrunk indices keep stale errors; they
                                // are reconstructed before convergence is
                                // declared.
                                let dai = ai_new - ai_old;
                                let daj = aj_new - aj_old;
                                let db = b_new - b;
                                {
                                    let row_i = cache.row(i);
                                    let row_j = cache.row(j);
                                    for &t in &active {
                                        err[t] += dai * yi * row_i[t] + daj * yj * row_j[t] + db;
                                    }
                                }

                                alpha[i] = ai_new;
                                alpha[j] = aj_new;
                                b = b_new;
                                true
                            }
                        }
                    }};
                }

                // Platt's second-choice hierarchy. 1: the j maximising
                // |Ei − Ej| among active non-bound multipliers (best
                // single-step progress). A deterministic argmax alone
                // can wedge on a pair whose step clips to nothing, so
                // on failure 2: the remaining non-bound candidates from
                // a random offset, then 3: everything else from a
                // random offset.
                let mut stepped = false;
                let mut best_j = usize::MAX;
                {
                    let mut best = -1.0;
                    for &cand in &active {
                        if cand != i && alpha[cand] > 0.0 && alpha[cand] < c {
                            let gap = (ei - err[cand]).abs();
                            if gap > best {
                                best = gap;
                                best_j = cand;
                            }
                        }
                    }
                }
                if best_j != usize::MAX {
                    stepped = try_step!(best_j);
                }
                if !stepped && active.len() >= 2 {
                    let offset = (next_rand() % active.len() as u64) as usize;
                    for k in 0..active.len() {
                        let cand = active[(offset + k) % active.len()];
                        if cand == i || cand == best_j || alpha[cand] <= 0.0 || alpha[cand] >= c {
                            continue;
                        }
                        if try_step!(cand) {
                            stepped = true;
                            break;
                        }
                    }
                }
                if !stepped && active.len() >= 2 {
                    let offset = (next_rand() % active.len() as u64) as usize;
                    for k in 0..active.len() {
                        let cand = active[(offset + k) % active.len()];
                        if cand == i || (alpha[cand] > 0.0 && alpha[cand] < c) {
                            continue;
                        }
                        if try_step!(cand) {
                            stepped = true;
                            break;
                        }
                    }
                }
                if stepped {
                    num_changed += 1;
                    updates += 1;
                }
            }

            if num_changed == 0 {
                quiescent += 1;
            } else {
                quiescent = 0;
            }

            if quiescent >= MAX_PASSES {
                if active.len() < n {
                    // Quiescent on the shrunk problem: reconstruct the
                    // stale errors, reactivate everything and demand
                    // one more clean pass over the full set.
                    let targets: Vec<usize> = (0..n).filter(|&t| shrunk[t]).collect();
                    let sums = cache.decision_sums(&alpha, &ys, &targets);
                    for (k, &t) in targets.iter().enumerate() {
                        err[t] = sums[k] + b - ys[t];
                    }
                    shrunk.iter_mut().for_each(|s| *s = false);
                    streak.iter_mut().for_each(|s| *s = 0);
                    active = (0..n).collect();
                    quiescent = MAX_PASSES - 1;
                } else {
                    break;
                }
            } else if shrink_enabled && num_changed > 0 {
                // Update bound-lock streaks; shrink indices whose KKT
                // conditions hold with margin for SHRINK_AFTER passes.
                let mut any = false;
                for &i in &active {
                    let r = ys[i] * err[i];
                    let locked_lo = alpha[i] <= 0.0 && r > TOL;
                    let locked_hi = alpha[i] >= c && r < -TOL;
                    if locked_lo || locked_hi {
                        streak[i] = streak[i].saturating_add(1);
                        if streak[i] >= SHRINK_AFTER {
                            shrunk[i] = true;
                            any = true;
                        }
                    } else {
                        streak[i] = 0;
                    }
                }
                if any {
                    active.retain(|&i| !shrunk[i]);
                    shrunk_peak = shrunk_peak.max(n - active.len());
                }
            }
        }

        // ---- bias finalisation (Keerthi et al.) --------------------
        // Pair updates are bias-blind (Eᵢ − Eⱼ cancels b), so the loop
        // can quiesce in a state whose α is optimal while the running
        // Platt-midpoint bias sits outside the KKT-feasible interval —
        // classically when the last step leaves both multipliers at
        // bound. Derive that interval from the KKT inequalities: each
        // sample bounds b via v = y − f₀ (α at 0 / at C pushes b from
        // one side, a free multiplier pins it from both). A bias
        // already inside the tol-relaxed interval is kept bit-exact —
        // every cleanly converged fit lands here, which preserves
        // exact warm-start replay — otherwise snap to the interval
        // midpoint.
        if capped && active.len() < n {
            // A capped run can exit mid-shrink with stale errors;
            // reconstruct them so f₀ below is exact.
            let targets: Vec<usize> = (0..n).filter(|&t| shrunk[t]).collect();
            let sums = cache.decision_sums(&alpha, &ys, &targets);
            for (k, &t) in targets.iter().enumerate() {
                err[t] = sums[k] + b - ys[t];
            }
        }
        let mut b_lo = f64::NEG_INFINITY;
        let mut b_hi = f64::INFINITY;
        for i in 0..n {
            let v = ys[i] - (err[i] + ys[i] - b); // y − f₀
                                                  // Classify against the box with the same 1e-8 slack the
                                                  // support-vector extraction uses: step arithmetic leaves
                                                  // ~1e-17 residues that must not masquerade as free
                                                  // multipliers (a free multiplier pins b exactly).
            let at_lower = alpha[i] <= 1e-8;
            let at_upper = alpha[i] >= c - 1e-8;
            if (at_lower && ys[i] > 0.0) || (at_upper && ys[i] < 0.0) || (!at_lower && !at_upper) {
                b_lo = b_lo.max(v);
            }
            if (at_lower && ys[i] < 0.0) || (at_upper && ys[i] > 0.0) || (!at_lower && !at_upper) {
                b_hi = b_hi.min(v);
            }
        }
        if !(b >= b_lo - TOL && b <= b_hi + TOL) {
            b = if b_lo.is_finite() && b_hi.is_finite() {
                0.5 * (b_lo + b_hi)
            } else if b_lo.is_finite() {
                b_lo
            } else if b_hi.is_finite() {
                b_hi
            } else {
                b
            };
        }
        // Even the best bias cannot satisfy contradictory bounds; that
        // means true KKT violations remain despite pairwise quiescence.
        let kkt_ok = b_lo <= b_hi + 2.0 * TOL;

        // Extract support vectors.
        let mut support = Vec::new();
        let mut coef = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-8 {
                support.push(data.x(i).to_vec());
                coef.push(alpha[i] * ys[i]);
            }
        }
        let support_norms = support_norms(self.kernel, &support);
        SvmFit {
            model: SvmModel {
                kernel: self.kernel,
                support,
                coef,
                support_norms,
                bias: b,
                dims,
                smo_iters: updates,
                converged: !capped && kkt_ok,
            },
            alpha,
            warm_carried,
            shrunk_fraction: shrunk_peak as f64 / n as f64,
        }
    }
}

impl TrainClassifier for SvmTrainer {
    type Model = SvmModel;

    fn fit(&self, data: &Dataset) -> SvmModel {
        self.fit_warm(data, None).model
    }
}

/// Dual state carried from a previous fit into
/// [`SvmTrainer::fit_warm`]: the multipliers (aligned by sample
/// index) and the bias they were quiescent with. Resuming both is
/// essential — α alone with a re-derived bias would shift every
/// cached error and manufacture KKT "violations" to re-optimise.
#[derive(Debug, Clone, Copy)]
pub struct WarmStart<'a> {
    /// Previous fit's multipliers, aligned to sample indices.
    pub alpha: &'a [f64],
    /// Previous fit's bias term.
    pub bias: f64,
}

/// Result of one [`SvmTrainer::fit_warm`] call: the model plus the
/// training-state the online retraining loop carries forward.
#[derive(Debug, Clone)]
pub struct SvmFit {
    /// The trained model.
    pub model: SvmModel,
    /// Final multipliers, aligned to the input sample order — feed
    /// these back as the next retrain's warm start.
    pub alpha: Vec<f64>,
    /// Number of α values carried in non-zero after clamping and
    /// constraint repair (0 for cold fits).
    pub warm_carried: usize,
    /// Peak fraction of multipliers shrunk out of the working set
    /// (0.0 when shrinking never engaged).
    pub shrunk_fraction: f64,
}

impl SvmFit {
    /// Borrow this fit's final state as the next retrain's warm start.
    pub fn warm_start(&self) -> WarmStart<'_> {
        WarmStart {
            alpha: &self.alpha,
            bias: self.model.bias(),
        }
    }
}

/// Squared norms of the support vectors (RBF fast path); empty for
/// kernels that do not use them.
fn support_norms(kernel: Kernel, support: &[Vec<f64>]) -> Vec<f64> {
    match kernel {
        Kernel::Rbf { .. } => support.iter().map(|sv| dot(sv, sv)).collect(),
        _ => Vec::new(),
    }
}

/// A full Gram matrix either owned by this fit or borrowed from a
/// [`PersistentKernelCache`] that outlives it.
enum GramRef<'a> {
    Owned(Vec<f64>),
    Borrowed(&'a [f64]),
}

impl Deref for GramRef<'_> {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match self {
            GramRef::Owned(v) => v,
            GramRef::Borrowed(s) => s,
        }
    }
}

/// A kernel matrix carried across retrains. The cache owns bit-exact
/// copies of the (scaled) feature rows its Gram was computed from, so
/// [`PersistentKernelCache::sync`] can decide *by comparison, not by
/// protocol* how much of the matrix is still valid:
///
/// - stored rows are a bit-exact prefix of the new dataset → the old
///   `n₀ × n₀` block is reused verbatim and only the Δ = n − n₀ new
///   rows/columns are evaluated (O(Δ·n) kernel evaluations);
/// - any mismatch — a scaler refit rescaled every row, compaction
///   removed interior rows, the kernel or dimensionality changed — →
///   full rebuild.
///
/// Label flips never invalidate the cache (the Gram is
/// label-independent), and the RBF squared-norm precompute is carried
/// and appended incrementally alongside the matrix. All evaluation
/// routes through the same arithmetic as a cold
/// [`SvmTrainer::fit_warm`], so cached fits are bit-identical to
/// uncached ones.
///
/// Memory: O(n²) for the Gram plus O(n·dims) for the row copies, with
/// `n` capped by [`SvmTrainer::gram_limit`]
/// ([`SvmTrainer::fit_warm_cached`] bypasses the cache above it).
#[derive(Debug, Clone, Default)]
pub struct PersistentKernelCache {
    kernel: Option<Kernel>,
    dims: usize,
    n: usize,
    /// Flattened copies of the feature rows the Gram was built from.
    rows: Vec<f64>,
    /// `‖xᵢ‖²` per row (RBF kernels only; empty otherwise).
    norms: Vec<f64>,
    /// Row-major `n × n` kernel matrix.
    gram: Vec<f64>,
    fresh_rows: usize,
}

impl PersistentKernelCache {
    /// An empty cache; the first [`sync`](Self::sync) fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows currently cached.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of Gram rows the last [`sync`](Self::sync) had to
    /// evaluate: 0 for an unchanged store, Δ for an append, the full
    /// `n` after an invalidating change.
    pub fn last_fresh_rows(&self) -> usize {
        self.fresh_rows
    }

    /// The cached row-major `len() × len()` Gram matrix.
    pub fn gram(&self) -> &[f64] {
        &self.gram
    }

    /// Drop everything; the next [`sync`](Self::sync) rebuilds from
    /// scratch.
    pub fn invalidate(&mut self) {
        *self = Self {
            kernel: self.kernel,
            dims: self.dims,
            ..Self::default()
        };
    }

    /// Keep only the first `keep` rows (no-op when `keep >= len`).
    /// Shrinks the Gram in place; also lets tests replay an append
    /// without refeeding a store.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.n {
            return;
        }
        let n = self.n;
        for i in 0..keep {
            self.gram.copy_within(i * n..i * n + keep, i * keep);
        }
        self.gram.truncate(keep * keep);
        self.rows.truncate(keep * self.dims);
        self.norms.truncate(keep.min(self.norms.len()));
        self.n = keep;
    }

    fn reset_for(&mut self, kernel: Kernel, dims: usize) {
        self.kernel = Some(kernel);
        self.dims = dims;
        self.n = 0;
        self.rows.clear();
        self.norms.clear();
        self.gram.clear();
    }

    /// Bring the cache up to date with `data`: validate the stored
    /// rows bit-exactly against the dataset prefix, reuse what
    /// matches, evaluate what doesn't (see the type docs for the
    /// reuse/invalidate rules). Returns the number of Gram rows
    /// evaluated.
    pub fn sync(&mut self, kernel: Kernel, data: &Dataset) -> usize {
        let n = data.len();
        let dims = data.dims();
        let prefix_ok = self.kernel == Some(kernel) && self.dims == dims && {
            let keep = self.n.min(n);
            (0..keep).all(|i| {
                self.rows[i * dims..(i + 1) * dims]
                    .iter()
                    .zip(data.x(i))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        };
        if !prefix_ok {
            self.reset_for(kernel, dims);
        } else if self.n > n {
            self.truncate(n);
        }
        let n0 = self.n;
        self.fresh_rows = n - n0;
        if n0 == n {
            return 0;
        }
        for i in n0..n {
            self.rows.extend_from_slice(data.x(i));
        }
        if matches!(kernel, Kernel::Rbf { .. }) {
            for i in n0..n {
                let x = data.x(i);
                self.norms.push(dot(x, x));
            }
        }
        self.n = n;
        if n0 == 0 {
            // Full rebuild: the triangular builder halves the work.
            self.gram = gram_matrix(kernel, data);
            return n;
        }
        // Incremental append: grow the matrix by a strided copy of the
        // old block (O(n²) moves, no kernel evaluations), then compute
        // the Δ fresh rows in full and mirror them into the fresh
        // columns. A fresh cell (i, j) with j < i is evaluated with
        // query xᵢ where the triangular builder uses query xⱼ — equal
        // bits regardless, because IEEE-754 addition and multiplication
        // commute, so K(xᵢ,xⱼ) and K(xⱼ,xᵢ) share every intermediate
        // (asserted bit-exactly by the training property suite).
        let mut g = vec![0.0; n * n];
        for i in 0..n0 {
            g[i * n..i * n + n0].copy_from_slice(&self.gram[i * n0..(i + 1) * n0]);
        }
        let norms = &self.norms;
        let norm = |i: usize| norms.get(i).copied().unwrap_or(0.0);
        for i in n0..n {
            let xi = data.x(i);
            let ni = norm(i);
            for j in 0..n {
                let v = kernel.eval_with_norms(xi, ni, data.x(j), norm(j));
                g[i * n + j] = v;
                if j < i {
                    g[j * n + i] = v;
                }
            }
        }
        self.gram = g;
        n - n0
    }
}

/// A kernel-row handle: either a slice of the full Gram matrix or a
/// shared row from the LRU cache.
enum RowHandle<'g> {
    Slice(&'g [f64]),
    Shared(Rc<Vec<f64>>),
}

impl Deref for RowHandle<'_> {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match self {
            RowHandle::Slice(s) => s,
            RowHandle::Shared(r) => r,
        }
    }
}

/// Bounded LRU cache of full kernel rows for the `n > gram_limit`
/// regime. Eviction scans for the oldest stamp — capacities are small
/// (the budget keeps `cap · n ≤ gram_limit²` values), so O(cap) is
/// fine.
struct RowCache {
    cap: usize,
    stamp: u64,
    rows: HashMap<usize, (u64, Rc<Vec<f64>>)>,
}

impl RowCache {
    fn get(&mut self, i: usize) -> Option<Rc<Vec<f64>>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.rows.get_mut(&i).map(|e| {
            e.0 = stamp;
            Rc::clone(&e.1)
        })
    }

    fn insert(&mut self, i: usize, row: Rc<Vec<f64>>) {
        if self.rows.len() >= self.cap {
            if let Some(&oldest) = self
                .rows
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                self.rows.remove(&oldest);
            }
        }
        self.stamp += 1;
        self.rows.insert(i, (self.stamp, row));
    }
}

/// Unified kernel-value access for the SMO: full Gram below the
/// limit (owned, or borrowed from a [`PersistentKernelCache`]),
/// LRU-cached rows above it, RBF norms precomputed either way. All
/// evaluations route through [`Kernel::eval_with_norms`], so the
/// regimes agree bit-for-bit.
struct KernelCache<'a> {
    kernel: Kernel,
    data: &'a Dataset,
    norms: Vec<f64>,
    diag: Vec<f64>,
    gram: Option<GramRef<'a>>,
    lru: RefCell<RowCache>,
}

impl<'a> KernelCache<'a> {
    fn new(kernel: Kernel, data: &'a Dataset, gram_limit: usize) -> Self {
        let n = data.len();
        let norms = match kernel {
            Kernel::Rbf { .. } => data.squared_norms(),
            _ => Vec::new(),
        };
        let gram = (n <= gram_limit).then(|| GramRef::Owned(gram_matrix(kernel, data)));
        let diag: Vec<f64> = match &gram {
            Some(g) => (0..n).map(|i| g[i * n + i]).collect(),
            None => (0..n)
                .map(|i| {
                    let x = data.x(i);
                    let nx = norms.get(i).copied().unwrap_or(0.0);
                    kernel.eval_with_norms(x, nx, x, nx)
                })
                .collect(),
        };
        // Same memory envelope as a full Gram at the limit:
        // cap · n ≤ max(gram_limit, 64)² values.
        let cap = if gram.is_some() {
            0
        } else {
            (gram_limit.max(64).pow(2) / n.max(1)).clamp(8, n)
        };
        KernelCache {
            kernel,
            data,
            norms,
            diag,
            gram,
            lru: RefCell::new(RowCache {
                cap,
                stamp: 0,
                rows: HashMap::new(),
            }),
        }
    }

    /// Wrap a synced [`PersistentKernelCache`]: borrow its Gram and
    /// reuse its squared-norm precompute instead of recomputing
    /// either. Caller must have called [`PersistentKernelCache::sync`]
    /// on `cache` with this exact `(kernel, data)` first.
    fn from_persistent(
        kernel: Kernel,
        data: &'a Dataset,
        cache: &'a PersistentKernelCache,
    ) -> Self {
        let n = data.len();
        debug_assert_eq!(cache.len(), n, "persistent cache not synced to dataset");
        let diag: Vec<f64> = (0..n).map(|i| cache.gram[i * n + i]).collect();
        KernelCache {
            kernel,
            data,
            norms: cache.norms.clone(),
            diag,
            gram: Some(GramRef::Borrowed(&cache.gram)),
            lru: RefCell::new(RowCache {
                cap: 0,
                stamp: 0,
                rows: HashMap::new(),
            }),
        }
    }

    #[inline]
    fn norm(&self, i: usize) -> f64 {
        self.norms.get(i).copied().unwrap_or(0.0)
    }

    #[inline]
    fn eval_idx(&self, i: usize, j: usize) -> f64 {
        self.kernel
            .eval_with_norms(self.data.x(i), self.norm(i), self.data.x(j), self.norm(j))
    }

    #[inline]
    fn diag(&self, i: usize) -> f64 {
        self.diag[i]
    }

    /// `K(xᵢ, xⱼ)` — Gram lookup, cached-row peek, or direct eval.
    fn pair(&self, i: usize, j: usize) -> f64 {
        match &self.gram {
            Some(g) => g[i * self.data.len() + j],
            None => {
                {
                    let lru = self.lru.borrow();
                    if let Some((_, r)) = lru.rows.get(&i) {
                        return r[j];
                    }
                    if let Some((_, r)) = lru.rows.get(&j) {
                        return r[i];
                    }
                }
                self.eval_idx(i, j)
            }
        }
    }

    /// The full row `K(xᵢ, ·)`, computed and LRU-cached on demand in
    /// the row-cache regime.
    fn row(&self, i: usize) -> RowHandle<'_> {
        let n = self.data.len();
        match &self.gram {
            Some(g) => RowHandle::Slice(&g[i * n..(i + 1) * n]),
            None => {
                if let Some(r) = self.lru.borrow_mut().get(i) {
                    return RowHandle::Shared(r);
                }
                let row = Rc::new((0..n).map(|t| self.eval_idx(i, t)).collect::<Vec<f64>>());
                self.lru.borrow_mut().insert(i, Rc::clone(&row));
                RowHandle::Shared(row)
            }
        }
    }

    /// `Σᵢ αᵢyᵢK(i, t)` for each `t` in `targets`, summed in index
    /// order. Used to rebuild the error cache on warm starts and
    /// un-shrinks.
    fn decision_sums(&self, alpha: &[f64], ys: &[f64], targets: &[usize]) -> Vec<f64> {
        let sv: Vec<usize> = (0..alpha.len()).filter(|&i| alpha[i] > 0.0).collect();
        let n = self.data.len();
        targets
            .iter()
            .map(|&t| {
                let mut sum = 0.0;
                match self.gram.as_deref() {
                    Some(g) => {
                        for &i in &sv {
                            sum += alpha[i] * ys[i] * g[i * n + t];
                        }
                    }
                    None => {
                        for &i in &sv {
                            sum += alpha[i] * ys[i] * self.eval_idx(i, t);
                        }
                    }
                }
                sum
            })
            .collect()
    }
}

/// A trained SVM: support vectors, their signed coefficients
/// `αᵢ yᵢ`, and the bias term.
#[derive(Debug, Clone)]
pub struct SvmModel {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    coef: Vec<f64>,
    /// `‖svᵢ‖²` for the RBF fast path (empty for other kernels).
    support_norms: Vec<f64>,
    bias: f64,
    dims: usize,
    smo_iters: u64,
    converged: bool,
}

impl SvmModel {
    /// Number of support vectors retained by training.
    pub fn num_support_vectors(&self) -> usize {
        self.support.len()
    }

    /// Number of α-pair optimisation steps training performed
    /// (libsvm-style iteration count; 0 for models reassembled via
    /// [`SvmModel::from_parts`], and near 0 for warm restarts that
    /// only re-verify KKT conditions).
    pub fn smo_iterations(&self) -> u64 {
        self.smo_iters
    }

    /// `false` when training stopped at the `max_iters` divergence
    /// backstop instead of reaching KKT quiescence — the partial
    /// pass's progress is kept, but the model may be short of the
    /// dual optimum. Models reassembled via [`SvmModel::from_parts`]
    /// report `true`.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Bias term `b` of the decision function.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Iterate over `(coefficient αᵢ·yᵢ, support vector)` pairs.
    pub fn support_iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        self.coef
            .iter()
            .copied()
            .zip(self.support.iter().map(|v| v.as_slice()))
    }

    /// Reassemble a model from raw parts (used by persistence).
    ///
    /// # Panics
    /// Panics if `support` and `coef` lengths differ or any support
    /// vector has the wrong dimensionality.
    pub fn from_parts(
        kernel: Kernel,
        support: Vec<Vec<f64>>,
        coef: Vec<f64>,
        bias: f64,
        dims: usize,
    ) -> SvmModel {
        assert_eq!(support.len(), coef.len(), "support/coef length mismatch");
        assert!(
            support.iter().all(|x| x.len() == dims),
            "support vector dimensionality mismatch"
        );
        let support_norms = support_norms(kernel, &support);
        SvmModel {
            kernel,
            support,
            coef,
            support_norms,
            bias,
            dims,
            smo_iters: 0,
            converged: true,
        }
    }

    /// For a **linear** kernel, reconstruct the explicit weight vector
    /// `w = Σ αᵢ yᵢ xᵢ`. Returns `None` for non-linear kernels where
    /// `w` lives in feature space.
    pub fn linear_weights(&self) -> Option<Vec<f64>> {
        if self.kernel != Kernel::Linear {
            return None;
        }
        let mut w = vec![0.0; self.dims];
        for (sv, &c) in self.support.iter().zip(&self.coef) {
            for (wk, &xk) in w.iter_mut().zip(sv) {
                *wk += c * xk;
            }
        }
        Some(w)
    }
}

impl Classifier for SvmModel {
    fn decision_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "input dimensionality mismatch");
        let mut f = self.bias;
        match self.kernel {
            Kernel::Rbf { .. } => {
                // Norm-precomputed path: one dot per support vector.
                let nx = dot(x, x);
                for ((sv, &c), &ns) in self.support.iter().zip(&self.coef).zip(&self.support_norms)
                {
                    f += c * self.kernel.eval_with_norms(sv, ns, x, nx);
                }
            }
            _ => {
                for (sv, &c) in self.support.iter().zip(&self.coef) {
                    f += c * self.kernel.eval(sv, x);
                }
            }
        }
        f
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;

    fn linearly_separable() -> Dataset {
        // Two well-separated clusters on the x-axis.
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            ds.push(vec![-3.0 - 0.1 * i as f64, i as f64 * 0.05], Label::Pos);
            ds.push(vec![3.0 + 0.1 * i as f64, -(i as f64) * 0.05], Label::Neg);
        }
        ds
    }

    /// A noisy capacity-region-like dataset big enough to engage
    /// shrinking (n >= SHRINK_MIN_SAMPLES).
    fn capacity_region(n: usize) -> Dataset {
        let mut ds = Dataset::new(3);
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..n {
            let x: Vec<f64> = (0..3).map(|_| (next() % 10) as f64).collect();
            let y = if x.iter().sum::<f64>() <= 13.0 {
                Label::Pos
            } else {
                Label::Neg
            };
            ds.push(x, y);
        }
        ds
    }

    #[test]
    fn separates_linear_clusters_with_linear_kernel() {
        let model = SvmTrainer::new(Kernel::Linear)
            .c(10.0)
            .train(&linearly_separable());
        assert_eq!(model.predict(&[-3.0, 0.0]), Label::Pos);
        assert_eq!(model.predict(&[3.0, 0.0]), Label::Neg);
        // Margin signs on the training data itself.
        for (x, y) in linearly_separable().iter() {
            assert_eq!(model.predict(x), y, "misclassified training point {x:?}");
        }
    }

    #[test]
    fn training_reports_smo_iterations_and_convergence() {
        let model = SvmTrainer::new(Kernel::Linear)
            .c(10.0)
            .train(&linearly_separable());
        assert!(model.smo_iterations() > 0, "real training must iterate");
        assert!(model.converged(), "easy problem must converge");
        let rebuilt = SvmModel::from_parts(Kernel::Linear, Vec::new(), Vec::new(), 1.0, 2);
        assert_eq!(rebuilt.smo_iterations(), 0);
        assert!(rebuilt.converged());
    }

    #[test]
    fn iteration_cap_marks_nonconvergence() {
        let model = SvmTrainer::new(Kernel::rbf(0.5))
            .c(10.0)
            .max_iters(3)
            .train(&linearly_separable());
        assert!(!model.converged(), "capped fit must report nonconvergence");
    }

    #[test]
    fn separates_linear_clusters_with_rbf_kernel() {
        let model = SvmTrainer::new(Kernel::rbf(0.5))
            .c(10.0)
            .train(&linearly_separable());
        for (x, y) in linearly_separable().iter() {
            assert_eq!(model.predict(x), y);
        }
    }

    #[test]
    fn learns_nonlinear_boundary_xor() {
        // XOR demands a non-linear boundary.
        let mut ds = Dataset::new(2);
        for _ in 0..4 {
            ds.push(vec![0.0, 0.0], Label::Pos);
            ds.push(vec![1.0, 1.0], Label::Pos);
            ds.push(vec![0.0, 1.0], Label::Neg);
            ds.push(vec![1.0, 0.0], Label::Neg);
        }
        let model = SvmTrainer::new(Kernel::rbf(4.0)).c(100.0).train(&ds);
        assert_eq!(model.predict(&[0.0, 0.0]), Label::Pos);
        assert_eq!(model.predict(&[1.0, 1.0]), Label::Pos);
        assert_eq!(model.predict(&[0.0, 1.0]), Label::Neg);
        assert_eq!(model.predict(&[1.0, 0.0]), Label::Neg);
    }

    #[test]
    fn learns_capacity_region_like_boundary() {
        // A convex "capacity region": admissible iff 2a + 3b <= 24,
        // the same family of shapes the ExCR takes in Fig. 2c.
        let mut ds = Dataset::new(2);
        for a in 0..12 {
            for b in 0..12 {
                let y = if 2 * a + 3 * b <= 24 {
                    Label::Pos
                } else {
                    Label::Neg
                };
                ds.push(vec![a as f64, b as f64], y);
            }
        }
        let model = SvmTrainer::new(Kernel::rbf(0.05)).c(50.0).train(&ds);
        let mut correct = 0;
        let mut total = 0;
        for (x, y) in ds.iter() {
            total += 1;
            if model.predict(x) == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.93, "training accuracy too low: {acc}");
    }

    #[test]
    fn decision_value_sign_matches_predict() {
        let model = SvmTrainer::new(Kernel::Linear).train(&linearly_separable());
        for x in [[-5.0, 1.0], [5.0, -1.0], [0.1, 0.0]] {
            let dv = model.decision_value(&x);
            let p = model.predict(&x);
            assert_eq!(p, Label::from_signum(dv));
        }
    }

    #[test]
    fn one_class_dataset_yields_constant_model() {
        let mut ds = Dataset::new(1);
        ds.push(vec![1.0], Label::Pos);
        ds.push(vec![2.0], Label::Pos);
        let model = SvmTrainer::new(Kernel::Linear).train(&ds);
        assert_eq!(model.predict(&[100.0]), Label::Pos);
        assert_eq!(model.predict(&[-100.0]), Label::Pos);
        assert_eq!(model.num_support_vectors(), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = linearly_separable();
        let m1 = SvmTrainer::new(Kernel::rbf(0.5)).seed(9).train(&ds);
        let m2 = SvmTrainer::new(Kernel::rbf(0.5)).seed(9).train(&ds);
        assert_eq!(m1.bias(), m2.bias());
        assert_eq!(m1.num_support_vectors(), m2.num_support_vectors());
        for x in [[0.5, 0.5], [-2.0, 1.0]] {
            assert_eq!(m1.decision_value(&x), m2.decision_value(&x));
        }
    }

    #[test]
    fn gram_and_on_demand_paths_agree() {
        let ds = linearly_separable();
        let with_gram = SvmTrainer::new(Kernel::rbf(0.5))
            .gram_limit(1000)
            .train(&ds);
        let no_gram = SvmTrainer::new(Kernel::rbf(0.5)).gram_limit(0).train(&ds);
        for x in [[-3.0, 0.0], [3.0, 0.0], [0.0, 0.0]] {
            let a = with_gram.decision_value(&x);
            let b = no_gram.decision_value(&x);
            assert!((a - b).abs() < 1e-9, "gram path diverged: {a} vs {b}");
        }
    }

    #[test]
    fn row_cache_regime_matches_gram_regime_exactly() {
        // Same dataset through the full-Gram and tiny-LRU regimes;
        // every evaluation routes through eval_with_norms either way,
        // so the fits agree bit-for-bit.
        let ds = capacity_region(150);
        let gram = SvmTrainer::new(Kernel::rbf(0.3))
            .c(5.0)
            .gram_limit(4096)
            .train(&ds);
        let lru = SvmTrainer::new(Kernel::rbf(0.3))
            .c(5.0)
            .gram_limit(0)
            .train(&ds);
        assert_eq!(gram.bias().to_bits(), lru.bias().to_bits());
        assert_eq!(gram.num_support_vectors(), lru.num_support_vectors());
        for x in [[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]] {
            assert_eq!(
                gram.decision_value(&x).to_bits(),
                lru.decision_value(&x).to_bits()
            );
        }
    }

    #[test]
    fn shrinking_does_not_change_predictions() {
        let ds = capacity_region(300);
        let on = SvmTrainer::new(Kernel::rbf(0.2)).c(5.0).train(&ds);
        let off = SvmTrainer::new(Kernel::rbf(0.2))
            .c(5.0)
            .shrinking(false)
            .train(&ds);
        let mut agree = 0;
        for (x, _) in ds.iter() {
            if on.predict(x) == off.predict(x) {
                agree += 1;
            }
        }
        // Both converge to the same dual optimum up to tolerance;
        // allow a sliver of boundary cells to differ.
        assert!(
            agree as f64 / ds.len() as f64 > 0.98,
            "shrinking changed {} / {} predictions",
            ds.len() - agree,
            ds.len()
        );
    }

    #[test]
    fn warm_start_from_own_alpha_converges_almost_instantly() {
        let ds = capacity_region(300);
        let trainer = SvmTrainer::new(Kernel::rbf(0.2)).c(5.0);
        let cold = trainer.fit_warm(&ds, None);
        let warm = trainer.fit_warm(&ds, Some(cold.warm_start()));
        assert!(warm.warm_carried > 0, "no multipliers carried");
        assert!(
            warm.model.smo_iterations() < cold.model.smo_iterations() / 2,
            "warm restart should re-verify, not re-optimise: {} !< {}/2",
            warm.model.smo_iterations(),
            cold.model.smo_iterations()
        );
        // Both fits satisfy KKT within tol, so they agree everywhere
        // except (at most) a sliver of boundary cells.
        let agree = ds
            .iter()
            .filter(|(x, _)| warm.model.predict(x) == cold.model.predict(x))
            .count();
        assert!(
            agree as f64 / ds.len() as f64 > 0.98,
            "warm/cold predictions diverged on {} / {} samples",
            ds.len() - agree,
            ds.len()
        );
    }

    #[test]
    fn warm_start_repairs_violated_constraint() {
        // A deliberately unbalanced warm vector (all-ones) violates
        // Σαy = 0; fit_warm must repair it and still learn.
        let ds = linearly_separable();
        let bogus = vec![1.0; ds.len()];
        let fit = SvmTrainer::new(Kernel::rbf(0.5)).c(10.0).fit_warm(
            &ds,
            Some(WarmStart {
                alpha: &bogus,
                bias: 0.0,
            }),
        );
        for (x, y) in ds.iter() {
            assert_eq!(fit.model.predict(x), y);
        }
        let s: f64 = fit
            .alpha
            .iter()
            .enumerate()
            .map(|(i, a)| a * ds.y(i).signum())
            .sum();
        assert!(s.abs() < 1e-6, "equality constraint violated: {s}");
    }

    #[test]
    fn linear_weights_reconstruction() {
        let model = SvmTrainer::new(Kernel::Linear)
            .c(10.0)
            .train(&linearly_separable());
        let w = model.linear_weights().expect("linear kernel has weights");
        assert_eq!(w.len(), 2);
        // Boundary is near x0 = 0 with Pos on the negative side, so
        // w0 must be strongly negative relative to w1.
        assert!(w[0] < 0.0);
        assert!(w[0].abs() > w[1].abs());
        // w·x + b must match decision_value for linear kernels.
        let x = [1.5, -0.3];
        let manual = w[0] * x[0] + w[1] * x[1] + model.bias();
        assert!((manual - model.decision_value(&x)).abs() < 1e-9);
    }

    #[test]
    fn rbf_weights_are_none() {
        let model = SvmTrainer::new(Kernel::rbf(1.0)).train(&linearly_separable());
        assert!(model.linear_weights().is_none());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dataset_panics() {
        let ds = Dataset::new(1);
        let _ = SvmTrainer::new(Kernel::Linear).train(&ds);
    }

    #[test]
    fn fit_warm_cached_matches_fit_warm_bitwise() {
        let full = capacity_region(320);
        let mut prefix = Dataset::new(3);
        for (x, y) in full.iter().take(300) {
            prefix.push(x.to_vec(), y);
        }
        let trainer = SvmTrainer::new(Kernel::rbf(0.05)).c(10.0);
        let mut cache = PersistentKernelCache::new();

        let cold = trainer.fit_warm_cached(&prefix, None, &mut cache);
        assert_eq!(cache.len(), 300);
        assert_eq!(cache.last_fresh_rows(), 300, "first sync is a full build");
        let cold_ref = trainer.fit_warm(&prefix, None);
        assert_eq!(cold.model.bias().to_bits(), cold_ref.model.bias().to_bits());

        // Grow by Δ = 20 rows: only the fresh rows may be evaluated,
        // and the fit must be bit-identical to the uncached path.
        let warm = WarmStart {
            alpha: &cold.alpha,
            bias: cold.model.bias(),
        };
        let inc = trainer.fit_warm_cached(&full, Some(warm), &mut cache);
        assert_eq!(cache.len(), 320);
        assert_eq!(cache.last_fresh_rows(), 20, "append must be incremental");
        let warm_ref = WarmStart {
            alpha: &cold.alpha,
            bias: cold.model.bias(),
        };
        let reference = trainer.fit_warm(&full, Some(warm_ref));
        assert_eq!(inc.model.bias().to_bits(), reference.model.bias().to_bits());
        assert_eq!(inc.alpha.len(), reference.alpha.len());
        for (a, b) in inc.alpha.iter().zip(&reference.alpha) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (x, _) in full.iter() {
            assert_eq!(
                inc.model.decision_value(x).to_bits(),
                reference.model.decision_value(x).to_bits()
            );
        }
    }

    #[test]
    fn persistent_cache_truncate_then_resync_is_incremental_and_exact() {
        let data = capacity_region(120);
        let kernel = Kernel::rbf(0.1);
        let mut cache = PersistentKernelCache::new();
        cache.sync(kernel, &data);
        let full_gram = cache.gram.clone();

        cache.truncate(90);
        assert_eq!(cache.len(), 90);
        let fresh = cache.sync(kernel, &data);
        assert_eq!(fresh, 30, "resync after truncate recomputes only Δ");
        assert_eq!(cache.gram.len(), full_gram.len());
        for (a, b) in cache.gram.iter().zip(&full_gram) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "incremental gram must match full build"
            );
        }
    }

    #[test]
    fn persistent_cache_invalidates_on_changed_prefix_and_kernel() {
        let data = capacity_region(60);
        let kernel = Kernel::rbf(0.1);
        let mut cache = PersistentKernelCache::new();
        cache.sync(kernel, &data);
        assert_eq!(cache.sync(kernel, &data), 0, "unchanged store is free");

        // A changed interior row (compaction, scaler refit) forces a
        // full rebuild.
        let mut changed = Dataset::new(3);
        for (i, (x, y)) in data.iter().enumerate() {
            let mut x = x.to_vec();
            if i == 10 {
                x[0] += 1.0;
            }
            changed.push(x, y);
        }
        assert_eq!(cache.sync(kernel, &changed), 60, "changed prefix rebuilds");

        // A kernel change also rebuilds.
        assert_eq!(cache.sync(Kernel::rbf(0.2), &changed), 60);
        assert_eq!(cache.last_fresh_rows(), 60);
    }
}

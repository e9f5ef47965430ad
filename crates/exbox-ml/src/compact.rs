//! Compact, serving-optimised SVM evaluation form.
//!
//! [`SvmModel`] stores its support vectors as `Vec<Vec<f64>>` — fine
//! for training-side bookkeeping, but every decision then chases one
//! pointer per support vector. The Admittance Classifier sits on the
//! gateway's per-arrival fast path (paper §4.2/§5.3), so after every
//! (re)train the model is converted into a [`CompactSvm`]:
//!
//! * support vectors flattened into one contiguous **row-major**
//!   buffer — the kernel expansion walks a single cache-friendly
//!   allocation and the inner dot products autovectorise,
//! * exactly-zero coefficients pruned (they cannot contribute;
//!   [`CompactSvm::from_model_pruned`] additionally drops near-zero
//!   coefficients when a lossy, smaller model is acceptable),
//! * the **linear** kernel collapsed to its explicit weight vector
//!   `w = Σ αᵢyᵢ xᵢ`, making a decision a single `dims`-length dot
//!   product regardless of the support-vector count.
//!
//! For the kernel-expansion paths (RBF / polynomial) the per-vector
//! arithmetic and the accumulation order are *identical* to
//! [`SvmModel::decision_value`], so compact decisions are **bit-exact**
//! with the uncompacted model (property-tested in
//! `tests/compact_props.rs`). The collapsed linear form re-associates
//! the sum `Σ cᵢ (xᵢ·x)` into `(Σ cᵢ xᵢ)·x` and therefore agrees to
//! floating-point round-off rather than bit-for-bit.
//!
//! Conversion also picks a [`KernelEngine`] — scalar reference loops
//! or the lane-blocked SIMD form in [`crate::engine`] — and, for the
//! `Lanes` engine, precomputes a feature-major copy of the
//! support-vector buffer. Both engines are bit-identical (that is the
//! [`crate::engine`] determinism contract), so the choice only moves
//! latency: `simd` builds use `Lanes`, every other build `Scalar`.

use crate::engine::{self, KernelEngine};
use crate::kernel::{dot, Kernel};
use crate::svm::SvmModel;
use crate::Classifier;

/// A trained SVM flattened for low-latency serving. Build one with
/// [`CompactSvm::from_model`] (or [`SvmModel::compact`]).
///
/// A `CompactSvm` is plain owned data (no interior mutability, no
/// shared state), so it is `Send + Sync` and its shared-reference
/// [`CompactSvm::decision_value`] can be evaluated from many serving
/// threads at once — the property the concurrent gateway's published
/// model snapshots rely on. This is asserted at compile time below.
///
/// # Memory layout
///
/// * `sv` — support vectors **row-major**: row `i` is
///   `sv[i*dims .. (i+1)*dims]`. This buffer is authoritative: the
///   checkpoint path serialises from it via
///   [`CompactSvm::support_iter`].
/// * `coef`, `norms` — per-row signed coefficients `αᵢyᵢ` and cached
///   `‖svᵢ‖²` (RBF only), aligned with `sv`'s rows.
/// * `lanes` — only under the `Lanes` engine: the same rows regrouped
///   **feature-major in blocks of 4** (`lanes[b*dims*4 + k*4 + j]` is
///   feature `k` of block `b`'s row `j`, zero-padded tail), so the
///   kernel expansion advances four rows per pass over the query. A
///   derived copy, never serialised.
///
/// # Example
///
/// ```
/// use exbox_ml::prelude::*;
///
/// let mut ds = Dataset::new(2);
/// for a in 0..8 {
///     for b in 0..8 {
///         let y = if a + b <= 6 { Label::Pos } else { Label::Neg };
///         ds.push(vec![a as f64, b as f64], y);
///     }
/// }
/// let model = SvmTrainer::new(Kernel::rbf(0.5)).c(10.0).train(&ds);
/// let compact = model.compact();
/// // Same bits as the training-side model, whatever engine was picked
/// // (fast-math builds renounce this and must skip the comparison).
/// let x = [2.0, 3.0];
/// if exbox_ml::determinism_guaranteed() {
///     assert_eq!(
///         model.decision_value(&x).to_bits(),
///         compact.decision_value(&x).to_bits(),
///     );
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CompactSvm {
    kernel: Kernel,
    dims: usize,
    bias: f64,
    /// Support vectors, row-major: row `i` is `sv[i*dims..(i+1)*dims]`.
    sv: Vec<f64>,
    /// Signed coefficients `αᵢyᵢ`, aligned with the rows of `sv`.
    coef: Vec<f64>,
    /// `‖svᵢ‖²` for the RBF fast path (empty otherwise).
    norms: Vec<f64>,
    /// Explicit weight vector for the collapsed linear kernel.
    weights: Option<Vec<f64>>,
    /// Feature-major lane blocks of `sv` (Lanes engine only).
    lanes: Vec<f64>,
    /// Inner-loop implementation picked at conversion time.
    engine: KernelEngine,
    /// Coefficients dropped at conversion time.
    pruned: usize,
}

impl CompactSvm {
    /// Lossless conversion: prunes only exactly-zero coefficients and
    /// collapses the linear kernel. Kernel-expansion decisions
    /// (RBF / polynomial) are bit-exact with the source model. The
    /// kernel engine is chosen by [`KernelEngine::select`] (`Lanes`
    /// iff the `simd` feature is on).
    pub fn from_model(model: &SvmModel) -> Self {
        Self::convert(model, 0.0, KernelEngine::select())
    }

    /// [`CompactSvm::from_model`] with an explicit engine, bypassing
    /// the feature selection — the bit-identity tests use this to
    /// evaluate the *same* model under both engines on any build.
    pub fn from_model_with_engine(model: &SvmModel, engine: KernelEngine) -> Self {
        Self::convert(model, 0.0, engine)
    }

    /// Lossy conversion: additionally prunes every coefficient with
    /// `|αᵢyᵢ| <= tol`. The decision function shifts by at most
    /// `Σ_pruned |cᵢ| · max|K|` (for RBF/poly with bounded inputs a
    /// tiny, testable bound); use when model size matters more than
    /// the last bits of the margin.
    ///
    /// # Panics
    /// Panics if `tol` is negative or not finite.
    pub fn from_model_pruned(model: &SvmModel, tol: f64) -> Self {
        assert!(
            tol >= 0.0 && tol.is_finite(),
            "prune tolerance must be >= 0"
        );
        Self::convert(model, tol, KernelEngine::select())
    }

    fn convert(model: &SvmModel, tol: f64, engine: KernelEngine) -> Self {
        let dims = model.dims();
        let kernel = model.kernel();
        let mut sv = Vec::new();
        let mut coef = Vec::new();
        let mut pruned = 0usize;
        for (c, x) in model.support_iter() {
            if c.abs() <= tol {
                pruned += 1;
                continue;
            }
            coef.push(c);
            sv.extend_from_slice(x);
        }
        let norms = match kernel {
            Kernel::Rbf { .. } => sv.chunks_exact(dims).map(|row| dot(row, row)).collect(),
            _ => Vec::new(),
        };
        let weights = (kernel == Kernel::Linear).then(|| {
            let mut w = vec![0.0; dims];
            for (row, &c) in sv.chunks_exact(dims).zip(&coef) {
                for (wk, &xk) in w.iter_mut().zip(row) {
                    *wk += c * xk;
                }
            }
            w
        });
        // The lane buffer only serves the kernel-expansion paths; a
        // collapsed linear model decides from `weights` alone.
        let lanes = match engine {
            KernelEngine::Lanes if weights.is_none() => engine::interleave_rows(&sv, dims),
            _ => Vec::new(),
        };
        CompactSvm {
            kernel,
            dims,
            bias: model.bias(),
            sv,
            coef,
            norms,
            weights,
            lanes,
            engine,
            pruned,
        }
    }

    /// Support vectors retained after pruning (0 for a collapsed
    /// linear model's storage — the rows are kept only for
    /// introspection there, the decision never touches them).
    pub fn num_support_vectors(&self) -> usize {
        self.coef.len()
    }

    /// Coefficients dropped at conversion.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The kernel this model evaluates.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The inner-loop engine picked at conversion time.
    pub fn engine(&self) -> KernelEngine {
        self.engine
    }

    /// The collapsed weight vector (linear kernel only).
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// `true` when decisions are a single dot product.
    pub fn is_collapsed(&self) -> bool {
        self.weights.is_some()
    }

    /// `(coefficient, support-vector row)` pairs in serving order.
    /// The checkpoint path serialises the *served* model from these,
    /// so a reload (via [`SvmModel::from_parts`] + [`SvmModel::compact`])
    /// rebuilds identical rows, coefficients and cached norms — and
    /// therefore bit-identical decisions.
    pub fn support_iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        // `max(1)` keeps chunks_exact well-defined for a degenerate
        // zero-dim model (sv is empty there, so the iterator is too).
        self.coef
            .iter()
            .copied()
            .zip(self.sv.chunks_exact(self.dims.max(1)))
    }
}

impl Classifier for CompactSvm {
    /// Signed margin of `x`. Dispatches on the engine picked at
    /// conversion; both engines produce the same bits (the
    /// [`crate::engine`] determinism contract), so callers never need
    /// to know which one is running.
    fn decision_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "input dimensionality mismatch");
        if let Some(w) = &self.weights {
            return match self.engine {
                KernelEngine::Scalar => dot(w, x),
                KernelEngine::Lanes => engine::dot_ordered(w, x),
            } + self.bias;
        }
        if self.engine == KernelEngine::Lanes {
            return match self.kernel {
                Kernel::Rbf { gamma } => engine::rbf_lanes(
                    &self.lanes,
                    self.dims,
                    &self.coef,
                    &self.norms,
                    gamma,
                    x,
                    self.bias,
                ),
                Kernel::Poly {
                    gamma,
                    coef0,
                    degree,
                } => engine::poly_lanes(
                    &self.lanes,
                    self.dims,
                    &self.coef,
                    gamma,
                    coef0,
                    degree,
                    x,
                    self.bias,
                ),
                // Linear always collapses to `weights` above.
                Kernel::Linear => unreachable!("linear kernel is always collapsed"),
            };
        }
        let mut f = self.bias;
        match self.kernel {
            Kernel::Rbf { gamma } => {
                let nx = dot(x, x);
                for ((row, &c), &ns) in self
                    .sv
                    .chunks_exact(self.dims)
                    .zip(&self.coef)
                    .zip(&self.norms)
                {
                    // Same arithmetic as Kernel::eval_with_norms with
                    // the support vector first — keeps compact and
                    // naive evaluation bit-identical.
                    let d2 = (ns + nx - 2.0 * dot(row, x)).max(0.0);
                    f += c * (-gamma * d2).exp();
                }
            }
            Kernel::Linear => {
                for (row, &c) in self.sv.chunks_exact(self.dims).zip(&self.coef) {
                    f += c * dot(row, x);
                }
            }
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => {
                for (row, &c) in self.sv.chunks_exact(self.dims).zip(&self.coef) {
                    f += c * (gamma * dot(row, x) + coef0).powi(degree as i32);
                }
            }
        }
        f
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

impl SvmModel {
    /// Convert into the serving-optimised form — see [`CompactSvm`].
    pub fn compact(&self) -> CompactSvm {
        CompactSvm::from_model(self)
    }
}

// Compile-time guarantee for the concurrent serving layer: the compact
// model can be shared by reference across shard threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompactSvm>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, Label};
    use crate::svm::SvmTrainer;

    fn grid_dataset() -> Dataset {
        let mut ds = Dataset::new(2);
        for a in 0..10 {
            for b in 0..10 {
                let y = if 2 * a + 3 * b <= 18 {
                    Label::Pos
                } else {
                    Label::Neg
                };
                ds.push(vec![a as f64, b as f64], y);
            }
        }
        ds
    }

    fn queries() -> Vec<[f64; 2]> {
        let mut q = Vec::new();
        for a in 0..12 {
            for b in 0..12 {
                q.push([a as f64 * 0.7, b as f64 * 0.9]);
            }
        }
        q
    }

    #[test]
    fn rbf_compact_is_bit_exact() {
        if !crate::engine::determinism_guaranteed() {
            eprintln!("skipped: fast-math build forfeits bit-equality");
            return;
        }
        let model = SvmTrainer::new(Kernel::rbf(0.3))
            .c(10.0)
            .train(&grid_dataset());
        let compact = model.compact();
        assert_eq!(compact.num_support_vectors(), model.num_support_vectors());
        for q in queries() {
            assert_eq!(
                model.decision_value(&q).to_bits(),
                compact.decision_value(&q).to_bits(),
                "rbf compact diverged at {q:?}"
            );
        }
    }

    #[test]
    fn poly_compact_is_bit_exact() {
        let model = SvmTrainer::new(Kernel::poly(0.5, 1.0, 2))
            .c(10.0)
            .train(&grid_dataset());
        let compact = model.compact();
        for q in queries() {
            assert_eq!(
                model.decision_value(&q).to_bits(),
                compact.decision_value(&q).to_bits(),
                "poly compact diverged at {q:?}"
            );
        }
    }

    #[test]
    fn linear_collapses_to_single_dot_product() {
        let model = SvmTrainer::new(Kernel::Linear)
            .c(10.0)
            .train(&grid_dataset());
        let compact = model.compact();
        assert!(compact.is_collapsed());
        let w = compact.weights().expect("collapsed weights");
        let model_w = model.linear_weights().expect("linear weights");
        for (a, b) in w.iter().zip(&model_w) {
            assert!((a - b).abs() < 1e-12, "collapsed w diverged: {a} vs {b}");
        }
        for q in queries() {
            let naive = model.decision_value(&q);
            let fast = compact.decision_value(&q);
            assert!(
                (naive - fast).abs() <= 1e-9 * (1.0 + naive.abs()),
                "collapsed linear diverged at {q:?}: {naive} vs {fast}"
            );
        }
    }

    #[test]
    fn zero_coefficients_are_pruned_losslessly() {
        if !crate::engine::determinism_guaranteed() {
            eprintln!("skipped: fast-math build forfeits bit-equality");
            return;
        }
        let support = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let coef = vec![0.5, 0.0, -0.25];
        let model = SvmModel::from_parts(Kernel::rbf(0.4), support, coef, 0.1, 2);
        let compact = model.compact();
        assert_eq!(compact.pruned(), 1);
        assert_eq!(compact.num_support_vectors(), 2);
        for q in queries() {
            assert_eq!(
                model.decision_value(&q).to_bits(),
                compact.decision_value(&q).to_bits()
            );
        }
    }

    #[test]
    fn lossy_pruning_bounds_the_margin_shift() {
        if !crate::engine::determinism_guaranteed() {
            eprintln!("skipped: fast-math build forfeits exact-margin bound");
            return;
        }
        let support = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let coef = vec![1.0, 1e-9, -2.0];
        let model = SvmModel::from_parts(Kernel::rbf(0.5), support, coef, 0.0, 2);
        let compact = CompactSvm::from_model_pruned(&model, 1e-6);
        assert_eq!(compact.pruned(), 1);
        for q in queries() {
            let naive = model.decision_value(&q);
            let fast = compact.decision_value(&q);
            // RBF kernel values are <= 1, so the shift is bounded by
            // the pruned mass.
            assert!((naive - fast).abs() <= 1e-9 + 1e-15);
        }
    }

    #[test]
    fn degenerate_constant_model_compacts() {
        let model = SvmModel::from_parts(Kernel::rbf(1.0), Vec::new(), Vec::new(), -1.0, 3);
        let compact = model.compact();
        assert_eq!(compact.num_support_vectors(), 0);
        assert_eq!(compact.decision_value(&[0.0, 0.0, 0.0]), -1.0);
        assert_eq!(compact.predict(&[9.0, 9.0, 9.0]), Label::Neg);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_dims_panics() {
        let model = SvmModel::from_parts(Kernel::Linear, Vec::new(), Vec::new(), 0.0, 2);
        let _ = model.compact().decision_value(&[1.0]);
    }

    #[test]
    fn lanes_engine_is_bit_identical_to_scalar() {
        // The determinism contract (crate::engine): the lane-blocked
        // engine must reproduce the scalar reference bit for bit over
        // every kernel, including support counts that leave a ragged
        // tail block. fast-math deliberately breaks this for RBF and
        // the test refuses to certify such a build.
        for kernel in [
            Kernel::rbf(0.3),
            Kernel::poly(0.5, 1.0, 2),
            Kernel::poly(1.0 / 2.0, 1.0, 3),
            Kernel::Linear,
        ] {
            if matches!(kernel, Kernel::Rbf { .. }) && !crate::engine::determinism_guaranteed() {
                eprintln!("skipped RBF case: fast-math build forfeits bit-equality");
                continue;
            }
            let model = SvmTrainer::new(kernel).c(10.0).train(&grid_dataset());
            let scalar = CompactSvm::from_model_with_engine(&model, KernelEngine::Scalar);
            let lanes = CompactSvm::from_model_with_engine(&model, KernelEngine::Lanes);
            assert_eq!(scalar.engine(), KernelEngine::Scalar);
            assert_eq!(lanes.engine(), KernelEngine::Lanes);
            for q in queries() {
                assert_eq!(
                    scalar.decision_value(&q).to_bits(),
                    lanes.decision_value(&q).to_bits(),
                    "engines diverged for {kernel:?} at {q:?}"
                );
            }
        }
    }

    #[test]
    fn lanes_engine_handles_ragged_and_degenerate_models() {
        // 1..=9 support vectors: exercises partial, exact and ragged
        // lane blocks (LANES = 4), plus the empty model.
        for n in 0..10usize {
            let support: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64 * 0.7 - 1.0, (i * i) as f64 * 0.3])
                .collect();
            let coef: Vec<f64> = (0..n).map(|i| (i as f64 - 2.5) * 0.4).collect();
            for kernel in [Kernel::rbf(0.4), Kernel::poly(0.5, 1.0, 2)] {
                if matches!(kernel, Kernel::Rbf { .. }) && !crate::engine::determinism_guaranteed()
                {
                    continue;
                }
                let model = SvmModel::from_parts(kernel, support.clone(), coef.clone(), 0.25, 2);
                let scalar = CompactSvm::from_model_with_engine(&model, KernelEngine::Scalar);
                let lanes = CompactSvm::from_model_with_engine(&model, KernelEngine::Lanes);
                for q in queries() {
                    assert_eq!(
                        scalar.decision_value(&q).to_bits(),
                        lanes.decision_value(&q).to_bits(),
                        "engines diverged for {kernel:?}, n={n}, at {q:?}"
                    );
                }
            }
        }
    }
}

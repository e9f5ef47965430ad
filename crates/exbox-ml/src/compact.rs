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
//! * exactly-zero coefficients pruned (they cannot contribute),
//! * the **linear** kernel collapsed to its explicit weight vector
//!   `w = Σ αᵢyᵢ xᵢ`, making a decision a single `dims`-length dot
//!   product regardless of the support-vector count.
//!
//! For the kernel-expansion paths (RBF / polynomial) the per-vector
//! arithmetic and the accumulation order are *identical* to
//! [`SvmModel::decision_value`], so compact decisions are **bit-exact**
//! with the uncompacted model (property-tested in
//! `tests/proptests.rs`). The one liberty taken is the polynomial
//! power: the degree dispatch is hoisted out of the row loop and
//! degrees 1–4 are written as the product tree `f64::powi` evaluates
//! (see `powi_tree`) — same bits, no libcall per support vector. The
//! collapsed linear form re-associates the sum `Σ cᵢ (xᵢ·x)` into
//! `(Σ cᵢ xᵢ)·x` and therefore agrees to floating-point round-off
//! rather than bit-for-bit.

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
///   `sv[i*dims .. (i+1)*dims]`. The checkpoint path serialises from
///   it via [`CompactSvm::support_iter`].
/// * `coef`, `norms` — per-row signed coefficients `αᵢyᵢ` and cached
///   `‖svᵢ‖²` (RBF only), aligned with `sv`'s rows.
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
/// // Same bits as the training-side model.
/// let x = [2.0, 3.0];
/// assert_eq!(
///     model.decision_value(&x).to_bits(),
///     compact.decision_value(&x).to_bits(),
/// );
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
    /// Coefficients dropped at conversion time.
    pruned: usize,
}

impl CompactSvm {
    /// Lossless conversion: prunes only exactly-zero coefficients and
    /// collapses the linear kernel. Kernel-expansion decisions
    /// (RBF / polynomial) are bit-exact with the source model.
    pub fn from_model(model: &SvmModel) -> Self {
        let dims = model.dims();
        let kernel = model.kernel();
        let mut sv = Vec::new();
        let mut coef = Vec::new();
        let mut pruned = 0usize;
        for (c, x) in model.support_iter() {
            if c == 0.0 {
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
        CompactSvm {
            kernel,
            dims,
            bias: model.bias(),
            sv,
            coef,
            norms,
            weights,
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

    /// `bias + Σᵢ cᵢ·(γ·svᵢ·x + c₀)^degree`, rows in order.
    #[inline(always)]
    fn poly_rows(&self, x: &[f64], gamma: f64, coef0: f64, degree: u32) -> f64 {
        let mut f = self.bias;
        for (row, &c) in self.sv.chunks_exact(self.dims).zip(&self.coef) {
            f += c * powi_tree(gamma * dot(row, x) + coef0, degree);
        }
        f
    }
}

impl Classifier for CompactSvm {
    /// Signed margin of `x`: one row-major pass over the support
    /// vectors, accumulated in row order.
    fn decision_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "input dimensionality mismatch");
        if let Some(w) = &self.weights {
            return dot(w, x) + self.bias;
        }
        match self.kernel {
            Kernel::Rbf { gamma } => {
                let nx = dot(x, x);
                let mut f = self.bias;
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
                f
            }
            // The degree dispatch sits out here, not in the row loop:
            // `poly_rows` is inlined into each arm with a literal
            // degree, which folds `powi_tree`'s match away and leaves
            // degrees 1–4 a loop of plain multiplies.
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => match degree {
                1 => self.poly_rows(x, gamma, coef0, 1),
                2 => self.poly_rows(x, gamma, coef0, 2),
                3 => self.poly_rows(x, gamma, coef0, 3),
                4 => self.poly_rows(x, gamma, coef0, 4),
                d => self.poly_rows(x, gamma, coef0, d),
            },
            Kernel::Linear => unreachable!("linear kernel is always collapsed"),
        }
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

/// `t.powi(degree)`, with degrees 1–4 written as the product tree the
/// `__powidf2` square-and-multiply routine behind `f64::powi`
/// evaluates (`r = 1; r *= t` on set exponent bits, `t *= t` between).
/// Multiplying by 1 is exact and IEEE-754 multiplication commutes, so
/// the expansion has the same bits as the call — it only skips the
/// call. `degree` must fit an `i32` ([`Kernel::poly`] and the model
/// loader both check).
#[inline(always)]
fn powi_tree(t: f64, degree: u32) -> f64 {
    match degree {
        1 => t,
        2 => t * t,
        3 => (t * t) * t,
        4 => {
            let s = t * t;
            s * s
        }
        _ => t.powi(degree as i32),
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
    fn ragged_and_empty_models_match_the_reference() {
        // 0..=9 support vectors, the empty model included.
        for n in 0..10usize {
            let support: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![i as f64 * 0.7 - 1.0, (i * i) as f64 * 0.3])
                .collect();
            let coef: Vec<f64> = (0..n).map(|i| (i as f64 - 2.5) * 0.4).collect();
            for kernel in [Kernel::rbf(0.4), Kernel::poly(0.5, 1.0, 2)] {
                let model = SvmModel::from_parts(kernel, support.clone(), coef.clone(), 0.25, 2);
                let compact = model.compact();
                for q in queries() {
                    assert_eq!(
                        model.decision_value(&q).to_bits(),
                        compact.decision_value(&q).to_bits(),
                        "compact diverged for {kernel:?}, n={n}, at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn powi_tree_is_bit_identical_to_powi() {
        // ±0, subnormals, values whose powers under/overflow, and
        // ordinary ones whose powers round differently per tree.
        let pos = [
            0.0, 5e-324, 5.6e-309, 1e-150, 1e150, 0.1, 1.1, 3.3, 1234.5678,
        ];
        let ts: Vec<f64> = pos.iter().flat_map(|&t| [t, -t]).collect();
        for degree in 1..=8u32 {
            for &t in &ts {
                assert_eq!(
                    powi_tree(t, degree).to_bits(),
                    t.powi(degree as i32).to_bits(),
                    "powi_tree({t:e}, {degree})"
                );
            }
            assert!(powi_tree(f64::NAN, degree).is_nan());
        }
    }
}

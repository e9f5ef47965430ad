//! Kernel functions for the SVM.
//!
//! The Admittance Classifier's capacity-region boundary is generally a
//! curved surface in traffic-matrix space (see the paper's Fig. 2c),
//! so the default backend is a degree-2 polynomial kernel (smooth, and
//! it extrapolates monotonically outside the training hull); RBF and
//! the linear kernel are kept for ablation (linear is markedly faster
//! at prediction time — the paper's §5.3 latency discussion blames
//! "choice of SVM kernel" for its ≈5 ms decision latency).

/// A positive-definite kernel `K(x, z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(x, z) = x·z`
    Linear,
    /// `K(x, z) = exp(−γ‖x−z‖²)`
    Rbf {
        /// Width parameter γ (> 0). Larger γ ⇒ more local fits.
        gamma: f64,
    },
    /// `K(x, z) = (γ x·z + c₀)^d`
    Poly {
        /// Scale on the dot product (> 0).
        gamma: f64,
        /// Additive constant (≥ 0 keeps the kernel PD for integer `degree`).
        coef0: f64,
        /// Polynomial degree (≥ 1).
        degree: u32,
    },
}

impl Kernel {
    /// Convenience constructor for an RBF kernel.
    ///
    /// # Panics
    /// Panics if `gamma` is not strictly positive and finite.
    pub fn rbf(gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        Kernel::Rbf { gamma }
    }

    /// Convenience constructor for a polynomial kernel.
    ///
    /// # Panics
    /// Panics if `gamma` is not strictly positive and finite, `coef0`
    /// is not finite (every margin would be NaN), `degree == 0`, or
    /// `degree > i32::MAX` (`powi` takes an `i32`; a wrapped exponent
    /// would turn the power into a reciprocal).
    pub fn poly(gamma: f64, coef0: f64, degree: u32) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        assert!(coef0.is_finite(), "coef0 must be finite");
        assert!(
            (1..=i32::MAX as u32).contains(&degree),
            "degree must be in 1..=i32::MAX"
        );
        Kernel::Poly {
            gamma,
            coef0,
            degree,
        }
    }

    /// Evaluate the kernel on two vectors.
    ///
    /// # Panics
    /// Panics in debug builds when `x` and `z` differ in length
    /// (release builds evaluate over the shorter of the two).
    #[inline]
    pub fn eval(&self, x: &[f64], z: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), z.len(), "kernel arg dimension mismatch");
        match *self {
            Kernel::Linear => dot(x, z),
            Kernel::Rbf { gamma } => (-gamma * sq_dist(x, z)).exp(),
            Kernel::Poly {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(x, z) + coef0).powi(degree as i32),
        }
    }

    /// Evaluate the kernel given precomputed squared norms
    /// `nx = ‖x‖²`, `nz = ‖z‖²`. For RBF this replaces the per-eval
    /// difference walk with a single dot product
    /// (`‖x−z‖² = nx + nz − 2·x·z`); other kernels ignore the norms.
    /// The tiny negative residues floating-point cancellation can
    /// leave are clamped to zero, keeping `K(x, x) = 1` exact.
    #[inline]
    pub fn eval_with_norms(&self, x: &[f64], nx: f64, z: &[f64], nz: f64) -> f64 {
        match *self {
            Kernel::Rbf { gamma } => {
                let d2 = (nx + nz - 2.0 * dot(x, z)).max(0.0);
                (-gamma * d2).exp()
            }
            _ => self.eval(x, z),
        }
    }

    /// A sensible default RBF width for `dims`-dimensional
    /// standardised features: `γ = 1/dims`, the scikit-learn "scale"
    /// heuristic for unit-variance inputs.
    pub fn rbf_default(dims: usize) -> Self {
        Kernel::rbf(1.0 / dims.max(1) as f64)
    }
}

/// Build the full `n × n` Gram matrix `G[i·n + j] = K(xᵢ, xⱼ)`: the
/// upper triangle is evaluated and mirrored in place.
pub fn gram_matrix(kernel: Kernel, data: &crate::data::Dataset) -> Vec<f64> {
    let n = data.len();
    let norms = match kernel {
        Kernel::Rbf { .. } => data.squared_norms(),
        _ => Vec::new(),
    };
    let norm = |i: usize| norms.get(i).copied().unwrap_or(0.0);
    // Capacity in whole 16-row steps. The folds of one cross-validation
    // build and drop Grams a row apart in size; with exact-size buffers
    // the hole one leaves is a few KB short for the next, the allocator
    // grows the heap instead, and peak RSS comes to depend on how the
    // fold sizes fall (measured on the ledger: 8.6 or 10.3 MB by seed).
    // Equal capacities let one hole serve every fold.
    let mut g = Vec::with_capacity(n.next_multiple_of(16).pow(2));
    g.resize(n * n, 0.0);
    for i in 0..n {
        let xi = data.x(i);
        let ni = norm(i);
        for j in i..n {
            let v = kernel.eval_with_norms(xi, ni, data.x(j), norm(j));
            g[i * n + j] = v;
            g[j * n + i] = v;
        }
    }
    g
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(x: &[f64], z: &[f64]) -> f64 {
    x.iter().zip(z).map(|(a, b)| a * b).sum()
}

/// Squared Euclidean distance of two equal-length slices.
#[inline]
pub fn sq_dist(x: &[f64], z: &[f64]) -> f64 {
    x.iter()
        .zip(z)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_identity_is_one() {
        let k = Kernel::rbf(0.7);
        let x = [0.3, -1.2, 5.0];
        assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rbf_decays_with_distance() {
        let k = Kernel::rbf(1.0);
        let near = k.eval(&[0.0], &[0.1]);
        let far = k.eval(&[0.0], &[2.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn rbf_symmetry() {
        let k = Kernel::rbf(0.5);
        let a = [1.0, 2.0];
        let b = [-0.5, 4.0];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn poly_matches_manual() {
        let k = Kernel::poly(2.0, 1.0, 2);
        // (2*(1*2) + 1)^2 = 25
        assert_eq!(k.eval(&[1.0], &[2.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rbf_rejects_nonpositive_gamma() {
        let _ = Kernel::rbf(0.0);
    }

    #[test]
    #[should_panic(expected = "coef0")]
    fn poly_rejects_non_finite_coef0() {
        let _ = Kernel::poly(0.5, f64::NAN, 2);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn poly_rejects_degree_beyond_i32() {
        let _ = Kernel::poly(0.5, 1.0, i32::MAX as u32 + 1);
    }

    #[test]
    fn default_gamma_scales_with_dims() {
        match Kernel::rbf_default(4) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.25).abs() < 1e-12),
            _ => panic!("expected rbf"),
        }
    }

    #[test]
    fn gram_matrix_matches_direct_eval() {
        use crate::data::{Dataset, Label};
        let mut ds = Dataset::new(2);
        ds.push(vec![0.0, 1.0], Label::Pos);
        ds.push(vec![2.0, -1.0], Label::Neg);
        ds.push(vec![-3.0, 0.5], Label::Pos);
        let k = Kernel::rbf(0.4);
        let g = gram_matrix(k, &ds);
        for i in 0..3 {
            for j in 0..3 {
                let direct = k.eval(ds.x(i), ds.x(j));
                assert!(
                    (g[i * 3 + j] - direct).abs() < 1e-12,
                    "gram[{i},{j}] = {} vs direct {direct}",
                    g[i * 3 + j]
                );
            }
        }
    }

    #[test]
    fn gram_matrix_is_positive_semidefinite_diagonally_dominant_check() {
        // Weak PSD sanity: all 2x2 principal minors of the Gram matrix
        // are non-negative for the RBF kernel.
        let k = Kernel::rbf(0.3);
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 0.0], vec![1.0, 2.0], vec![-3.0, 0.5]];
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                let kii = k.eval(&pts[i], &pts[i]);
                let kjj = k.eval(&pts[j], &pts[j]);
                let kij = k.eval(&pts[i], &pts[j]);
                assert!(kii * kjj - kij * kij >= -1e-12);
            }
        }
    }
}

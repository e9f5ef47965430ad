//! Kernel functions for the SVM.
//!
//! The Admittance Classifier's capacity-region boundary is generally a
//! curved surface in traffic-matrix space (see the paper's Fig. 2c),
//! so the default kernel is RBF; the linear kernel is kept for
//! ablation (and is markedly faster at prediction time — the paper's
//! §5.3 latency discussion blames "choice of SVM kernel" for its
//! ≈5 ms decision latency).

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
    /// Panics if `gamma <= 0` or `degree == 0`.
    pub fn poly(gamma: f64, coef0: f64, degree: u32) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        assert!(degree >= 1, "degree must be at least 1");
        Kernel::Poly {
            gamma,
            coef0,
            degree,
        }
    }

    /// Evaluate the kernel on two vectors.
    ///
    /// # Panics
    /// Panics (debug builds) on length mismatch via the zip below being
    /// silently truncating is avoided with an explicit assert.
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

/// Build the full `n × n` Gram matrix `G[i·n + j] = K(xᵢ, xⱼ)` with
/// row blocks of the upper triangle computed in parallel on `pool`
/// and mirrored. The per-cell arithmetic is identical for every
/// thread count, so the result is byte-identical whether built
/// serially or on 8 threads — the determinism guarantee the
/// committed `results/*.csv` rely on.
pub fn gram_matrix(
    kernel: Kernel,
    data: &crate::data::Dataset,
    pool: &exbox_par::ThreadPool,
) -> Vec<f64> {
    let n = data.len();
    let norms = match kernel {
        Kernel::Rbf { .. } => data.squared_norms(),
        _ => Vec::new(),
    };
    let norm = |i: usize| norms.get(i).copied().unwrap_or(0.0);
    // Upper-triangle rows (i..n); ragged lengths balance through the
    // pool's dynamic chunking.
    let rows: Vec<Vec<f64>> = pool.parallel_map(n, |i| {
        let xi = data.x(i);
        let ni = norm(i);
        (i..n)
            .map(|j| kernel.eval_with_norms(xi, ni, data.x(j), norm(j)))
            .collect()
    });
    let mut g = vec![0.0; n * n];
    for (i, row) in rows.iter().enumerate() {
        for (off, &v) in row.iter().enumerate() {
            let j = i + off;
            g[i * n + j] = v;
            g[j * n + i] = v;
        }
    }
    g
}

/// [`gram_matrix`] with an explicit [`KernelEngine`](crate::engine::KernelEngine)
/// choice. `Scalar` is the reference
/// build above; `Lanes` walks the same upper triangle but evaluates
/// each query row against a feature-major lane block of the dataset
/// ([`crate::engine::kernel_rows_lanes`]), advancing four row dot
/// products per pass over the query. The lanes build is
/// **bit-identical** to the scalar build on every configuration — the
/// training path never takes the `fast-math` approximation — so the
/// engine choice can only move throughput.
pub fn gram_matrix_with_engine(
    kernel: Kernel,
    data: &crate::data::Dataset,
    pool: &exbox_par::ThreadPool,
    engine: crate::engine::KernelEngine,
) -> Vec<f64> {
    use crate::engine::{interleave_rows, kernel_rows_lanes, KernelEngine, LANES};
    let n = data.len();
    let dims = data.dims();
    if engine == KernelEngine::Scalar || dims == 0 || n == 0 {
        return gram_matrix(kernel, data, pool);
    }
    let norms = match kernel {
        Kernel::Rbf { .. } => data.squared_norms(),
        _ => Vec::new(),
    };
    let norm = |i: usize| norms.get(i).copied().unwrap_or(0.0);
    let mut flat = Vec::with_capacity(n * dims);
    for i in 0..n {
        flat.extend_from_slice(data.x(i));
    }
    let lanes = interleave_rows(&flat, dims);
    // Upper-triangle rows as in `gram_matrix`; each row starts at its
    // lane-block boundary (≤ LANES−1 wasted evaluations per row) and
    // the j < i prefix is skipped at mirror time — draining it here
    // would memmove O(n) per row, an O(n²) tax the scalar build never
    // pays.
    let rows: Vec<Vec<f64>> = pool.parallel_map(n, |i| {
        let start = (i / LANES) * LANES;
        let sub = &lanes[(start / LANES) * dims * LANES..];
        let nsub = if norms.is_empty() {
            &norms[..]
        } else {
            &norms[start..]
        };
        let mut out = vec![0.0; n - start];
        kernel_rows_lanes(kernel, sub, dims, nsub, data.x(i), norm(i), &mut out);
        out
    });
    let mut g = vec![0.0; n * n];
    for (i, row) in rows.iter().enumerate() {
        let start = (i / LANES) * LANES;
        for (off, &v) in row[i - start..].iter().enumerate() {
            let j = i + off;
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
    fn default_gamma_scales_with_dims() {
        match Kernel::rbf_default(4) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.25).abs() < 1e-12),
            _ => panic!("expected rbf"),
        }
    }

    #[test]
    fn gram_matrix_is_thread_count_invariant() {
        use crate::data::{Dataset, Label};
        let mut ds = Dataset::new(3);
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for i in 0..97 {
            let x: Vec<f64> = (0..3).map(|_| (next() % 1000) as f64 / 100.0).collect();
            let y = if i % 2 == 0 { Label::Pos } else { Label::Neg };
            ds.push(x, y);
        }
        for kernel in [Kernel::Linear, Kernel::rbf(0.7), Kernel::poly(0.5, 1.0, 3)] {
            let grams: Vec<Vec<f64>> = [1usize, 2, 8]
                .iter()
                .map(|&t| gram_matrix(kernel, &ds, &exbox_par::ThreadPool::new(t)))
                .collect();
            for g in &grams[1..] {
                assert_eq!(grams[0].len(), g.len());
                for (a, b) in grams[0].iter().zip(g) {
                    assert_eq!(a.to_bits(), b.to_bits(), "gram differs across threads");
                }
            }
        }
    }

    #[test]
    fn gram_matrix_engines_agree_bitwise() {
        use crate::data::{Dataset, Label};
        use crate::engine::KernelEngine;
        let mut state = 0x6EA4u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        // Ragged and exact lane-block sample counts.
        for n in [1usize, 4, 5, 31, 64] {
            let mut ds = Dataset::new(5);
            for i in 0..n {
                let x: Vec<f64> = (0..5).map(|_| (next() % 1000) as f64 / 50.0).collect();
                let y = if i % 2 == 0 { Label::Pos } else { Label::Neg };
                ds.push(x, y);
            }
            let pool = exbox_par::ThreadPool::new(2);
            for kernel in [
                Kernel::Linear,
                Kernel::rbf(0.4),
                Kernel::poly(0.5, 1.0, 2),
                Kernel::poly(0.2, 0.0, 3),
            ] {
                let scalar = gram_matrix_with_engine(kernel, &ds, &pool, KernelEngine::Scalar);
                let lanes = gram_matrix_with_engine(kernel, &ds, &pool, KernelEngine::Lanes);
                assert_eq!(scalar.len(), lanes.len());
                for (k, (a, b)) in scalar.iter().zip(&lanes).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "engines diverged at cell {k} for {kernel:?} (n={n})"
                    );
                }
            }
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
        let g = gram_matrix(k, &ds, &exbox_par::ThreadPool::serial());
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

//! Kernel evaluation engines: scalar reference vs. lane-blocked SIMD.
//!
//! The Admittance Classifier's decision cost is dominated by the
//! kernel expansion over [`crate::compact::CompactSvm`]'s contiguous
//! support-vector buffer. That loop has two latency problems the
//! scalar form cannot fix:
//!
//! 1. each row's dot product is a *serial* chain of `dims` dependent
//!    additions (6 for the traffic matrix), and
//! 2. rows are separated by an `exp`/`powi` call plus the ordered
//!    accumulation into `f`, so the compiler cannot overlap row `i+1`'s
//!    dot product with row `i`'s tail.
//!
//! The [`KernelEngine::Lanes`] engine restructures the data, not the
//! arithmetic: support vectors are regrouped into blocks of
//! [`LANES`] = 4 rows stored *feature-major* (`block[k*4 + j]` is
//! feature `k` of block-row `j`), so one pass over the query vector
//! advances four independent accumulator chains at unit stride —
//! autovectorisable to `f64x4` where the target has the width, and
//! still ~4-way instruction-level parallelism where it does not. No
//! new dependencies and no `unsafe`: the lane loops are plain chunked
//! slices on stable Rust.
//!
//! # Determinism contract
//!
//! Every float produced by the Lanes engine is **bit-identical** to
//! the Scalar engine (and therefore to [`crate::svm::SvmModel`] and to
//! the committed `results/*.csv`), because lanes are mapped to *rows*,
//! never across a single reduction:
//!
//! * within a block, lane `j` accumulates row `j`'s dot product
//!   sequentially over `k = 0..dims` — the exact operation sequence of
//!   the scalar `dot`;
//! * the kernel transform (`exp` / `powi`) is applied per lane with
//!   the identical expression the scalar path uses;
//! * the final `f += cᵢ·K(svᵢ, x)` accumulation runs strictly
//!   sequentially in row order, block by block, lane by lane.
//!
//! [`dot_ordered`] (used for the collapsed linear weight vector and
//! anywhere else a plain dot product sits on the fast path) likewise
//! evaluates four *products* at a time but folds them into a single
//! accumulator in element order — the same reduction order as the
//! scalar `dot`, hence the same bits.
//!
//! The only sanctioned deviation is the **`fast-math`** cargo feature,
//! which swaps the RBF `exp` in the Lanes engine for a Schraudolph-style
//! approximation (≲4% relative error). It changes margins, therefore
//! verdicts, therefore CSVs; [`determinism_guaranteed`] reports `false`
//! under it and every bit-equality test refuses to run. The Scalar
//! engine is never approximated — it is the reference.
//!
//! Engine choice is made once, at model-compaction time (see
//! [`crate::compact::CompactSvm::from_model`]): `Lanes` when the
//! `simd` feature is enabled and `Scalar` otherwise. Code that needs a
//! particular engine whatever the build (the bit-identity tests) forces
//! it with [`crate::compact::CompactSvm::from_model_with_engine`].

use crate::kernel::{dot, Kernel};

/// Rows evaluated per lane block. Four `f64`s fill an AVX2 register;
/// on narrower targets the four independent chains still hide FP add
/// latency.
pub const LANES: usize = 4;

/// Which inner-loop implementation a [`crate::compact::CompactSvm`]
/// uses for its decision function. See the [module docs](self) for the
/// determinism contract binding the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEngine {
    /// Row-at-a-time reference implementation. Always exact; the
    /// arithmetic is shared bit-for-bit with `SvmModel::decision_value`.
    Scalar,
    /// Lane-blocked implementation over the feature-major buffer built
    /// by [`interleave_rows`]. Bit-identical to `Scalar` unless the
    /// `fast-math` feature is enabled.
    Lanes,
}

impl KernelEngine {
    /// The engine compaction selects by default: `Lanes` iff the
    /// `simd` cargo feature is enabled.
    pub fn select() -> Self {
        if cfg!(feature = "simd") {
            KernelEngine::Lanes
        } else {
            KernelEngine::Scalar
        }
    }

    /// Stable lower-case name (`"scalar"` / `"lanes"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelEngine::Scalar => "scalar",
            KernelEngine::Lanes => "lanes",
        }
    }
}

/// `true` when every engine is bit-identical to the scalar reference —
/// i.e. whenever the `fast-math` feature is **off**. Determinism tests
/// (and any tooling that regenerates `results/*.csv`) must check this
/// and refuse to certify a `fast-math` build.
pub const fn determinism_guaranteed() -> bool {
    !cfg!(feature = "fast-math")
}

/// Dot product with four products in flight but a **single**
/// accumulator folded in element order — bit-identical to
/// [`crate::kernel::dot`] (`LLVM` cannot re-associate float adds, so
/// only the independent multiplies vectorise). Used for the collapsed
/// linear weight vector and the scaler fast path.
#[inline]
pub fn dot_ordered(x: &[f64], z: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), z.len(), "dot_ordered dimension mismatch");
    let head = x.len() - x.len() % LANES;
    // -0.0 is the scalar `sum()` fold identity; starting from +0.0
    // would flip the sign of an all-negative-zero (or empty) sum.
    let mut acc = -0.0;
    for (xs, zs) in x[..head]
        .chunks_exact(LANES)
        .zip(z[..head].chunks_exact(LANES))
    {
        // Independent multiplies (vectorisable) …
        let p = [xs[0] * zs[0], xs[1] * zs[1], xs[2] * zs[2], xs[3] * zs[3]];
        // … folded in element order (not re-associated).
        acc += p[0];
        acc += p[1];
        acc += p[2];
        acc += p[3];
    }
    for (a, b) in x[head..].iter().zip(&z[head..]) {
        acc += a * b;
    }
    acc
}

/// Regroup a row-major support-vector buffer (`rows × dims`) into
/// feature-major lane blocks: block `b` covers rows `b*LANES ..`, and
/// `out[b*dims*LANES + k*LANES + j]` holds feature `k` of the block's
/// row `j`. The tail block is zero-padded; padded lanes are skipped at
/// accumulation time (their coefficients do not exist), so the padding
/// never contributes to a decision.
pub fn interleave_rows(sv: &[f64], dims: usize) -> Vec<f64> {
    if dims == 0 || sv.is_empty() {
        return Vec::new();
    }
    debug_assert_eq!(sv.len() % dims, 0, "ragged support-vector buffer");
    let rows = sv.len() / dims;
    let blocks = rows.div_ceil(LANES);
    let mut out = vec![0.0; blocks * dims * LANES];
    for (r, row) in sv.chunks_exact(dims).enumerate() {
        let base = (r / LANES) * dims * LANES + r % LANES;
        for (k, &v) in row.iter().enumerate() {
            out[base + k * LANES] = v;
        }
    }
    out
}

/// The RBF `exp` used by the Lanes engine. Exact by default; under the
/// `fast-math` feature it is a Schraudolph bit-twiddle approximation
/// (≲4% relative error, monotone) — see the module docs for why that
/// forfeits the determinism contract.
#[inline]
fn exp_kernel(t: f64) -> f64 {
    #[cfg(feature = "fast-math")]
    {
        // Schraudolph (1999) extended to the full f64 mantissa:
        // reinterpret ⌊2⁵²·t/ln2 + 1023·2⁵²⌋ as the bit pattern of
        // 2^(t/ln2) ≈ eᵗ, with the classic 60801-style bias correction
        // scaled up to minimise mean error. RBF arguments are ≤ 0;
        // anything under the subnormal cliff snaps to 0.
        if t < -700.0 {
            return 0.0;
        }
        const A: f64 = 4_503_599_627_370_496.0 / std::f64::consts::LN_2; // 2^52 / ln 2
        const B: f64 = 1023.0 * 4_503_599_627_370_496.0; // exponent bias << 52
        const C: f64 = 60801.0 * 4_294_967_296.0; // error-centering shift
        return f64::from_bits((A * t + (B - C)) as u64);
    }
    #[cfg(not(feature = "fast-math"))]
    t.exp()
}

/// Lanes-engine RBF decision value over an [`interleave_rows`] buffer:
/// `bias + Σᵢ cᵢ·exp(−γ‖svᵢ−x‖²)` with `‖svᵢ−x‖²` recovered from the
/// cached row norms. Bit-identical to the scalar path (see module
/// docs) unless `fast-math` is enabled.
pub fn rbf_lanes(
    lanes: &[f64],
    dims: usize,
    coef: &[f64],
    norms: &[f64],
    gamma: f64,
    x: &[f64],
    bias: f64,
) -> f64 {
    debug_assert_eq!(x.len(), dims);
    debug_assert_eq!(coef.len(), norms.len());
    let nx = dot(x, x);
    let mut f = bias;
    for (b, block) in lanes.chunks_exact(dims * LANES).enumerate() {
        let base = b * LANES;
        // -0.0: the scalar per-row `dot` folds from the float additive
        // identity, and sign-of-zero is part of the bits contract.
        let mut acc = [-0.0f64; LANES];
        for (col, &xk) in block.chunks_exact(LANES).zip(x) {
            for (a, &sv) in acc.iter_mut().zip(col) {
                *a += sv * xk;
            }
        }
        // Ordered tail: kernel transform + accumulation lane by lane,
        // in global row order — the scalar reduction order exactly.
        // (Zipping against the coefficient slice also drops the padded
        // tail lanes, whose coefficients do not exist.)
        let row = &coef[base..coef.len().min(base + LANES)];
        let nrm = &norms[base..base + row.len()];
        for ((&a, &c), &n) in acc.iter().zip(row).zip(nrm) {
            let d2 = (n + nx - 2.0 * a).max(0.0);
            f += c * exp_kernel(-gamma * d2);
        }
    }
    f
}

/// Shared lane loop for the polynomial kernel, generic over the
/// per-lane transform so [`poly_lanes`] can hoist the degree dispatch
/// out of the hot loop (each instantiation monomorphises with its
/// transform inlined — no per-lane branch, no libcall).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn poly_lanes_body(
    lanes: &[f64],
    dims: usize,
    coef: &[f64],
    gamma: f64,
    coef0: f64,
    x: &[f64],
    bias: f64,
    xf: impl Fn(f64) -> f64,
) -> f64 {
    let mut f = bias;
    let full = coef.len() / LANES;
    for (b, block) in lanes.chunks_exact(dims * LANES).enumerate() {
        let base = b * LANES;
        // -0.0: the scalar per-row `dot` folds from the float additive
        // identity, and sign-of-zero is part of the bits contract.
        let mut acc = [-0.0f64; LANES];
        for (col, &xk) in block.chunks_exact(LANES).zip(x) {
            for (a, &sv) in acc.iter_mut().zip(col) {
                *a += sv * xk;
            }
        }
        // Kernel transforms are lane-independent (vectorisable); only
        // the fold below is order-sensitive.
        let mut p = [0.0f64; LANES];
        for (pj, &a) in p.iter_mut().zip(&acc) {
            *pj = xf(gamma * a + coef0);
        }
        // Ordered fold, lane by lane in global row order — the scalar
        // reduction order exactly. Full blocks take the unrolled path;
        // the tail block zips against the coefficient remainder, which
        // also drops the zero-padded lanes (their coefficients do not
        // exist).
        if b < full {
            let c = &coef[base..base + LANES];
            f += c[0] * p[0];
            f += c[1] * p[1];
            f += c[2] * p[2];
            f += c[3] * p[3];
        } else {
            for (&pj, &c) in p.iter().zip(&coef[base..]) {
                f += c * pj;
            }
        }
    }
    f
}

/// Lanes-engine polynomial decision value:
/// `bias + Σᵢ cᵢ·(γ·svᵢ·x + c₀)^d`. Always bit-identical to the
/// scalar path — the low-degree arms below expand the exact product
/// tree the `__powidf2` square-and-multiply libcall behind
/// `f64::powi` evaluates (`b²`, then `b·b²`, `(b²)²`, …;
/// multiplication by 1 is exact and multiplication is commutative per
/// IEEE 754, so the expansion cannot change the bits — it only skips
/// the call overhead). `fast-math` does not touch this path.
#[allow(clippy::too_many_arguments)]
pub fn poly_lanes(
    lanes: &[f64],
    dims: usize,
    coef: &[f64],
    gamma: f64,
    coef0: f64,
    degree: u32,
    x: &[f64],
    bias: f64,
) -> f64 {
    debug_assert_eq!(x.len(), dims);
    match degree {
        1 => poly_lanes_body(lanes, dims, coef, gamma, coef0, x, bias, |t| t),
        2 => poly_lanes_body(lanes, dims, coef, gamma, coef0, x, bias, |t| t * t),
        3 => poly_lanes_body(lanes, dims, coef, gamma, coef0, x, bias, |t| (t * t) * t),
        4 => poly_lanes_body(lanes, dims, coef, gamma, coef0, x, bias, |t| {
            let sq = t * t;
            sq * sq
        }),
        _ => poly_lanes_body(lanes, dims, coef, gamma, coef0, x, bias, |t| {
            t.powi(degree as i32)
        }),
    }
}

/// Shared lane loop for the training-side kernel-row evaluators:
/// accumulate one query row's dot product against every block row,
/// then hand each finished dot to the per-row transform `xf(row, dot)`
/// in global row order. The per-lane accumulation is the exact scalar
/// `dot` operation sequence (see the module docs), so the transform
/// receives bit-identical inputs to a scalar `Kernel::eval_with_norms`
/// walk over the same rows.
#[inline(always)]
fn kernel_rows_body(
    lanes: &[f64],
    dims: usize,
    x: &[f64],
    out: &mut [f64],
    xf: impl Fn(usize, f64) -> f64,
) {
    debug_assert_eq!(x.len(), dims);
    for (b, block) in lanes.chunks_exact(dims * LANES).enumerate() {
        let base = b * LANES;
        if base >= out.len() {
            break;
        }
        // -0.0: the scalar per-row `dot` folds from the float additive
        // identity, and sign-of-zero is part of the bits contract.
        let mut acc = [-0.0f64; LANES];
        for (col, &xk) in block.chunks_exact(LANES).zip(x) {
            for (a, &sv) in acc.iter_mut().zip(col) {
                *a += sv * xk;
            }
        }
        // Clipping to `out` drops the zero-padded tail lanes.
        let row = &mut out[base..];
        for (j, o) in row.iter_mut().take(LANES).enumerate() {
            *o = xf(base + j, acc[j]);
        }
    }
}

/// Lanes-engine **training** kernel row: `out[r] = K(x, rowᵣ)` for
/// every row of an [`interleave_rows`] buffer, the building block of
/// the SIMD Gram construction and the on-demand kernel rows in the
/// SMO's LRU regime. For RBF, `norms[r]` must hold `‖rowᵣ‖²` and `nx`
/// must hold `‖x‖²`; other kernels ignore both.
///
/// Unlike the serving-side [`rbf_lanes`], this path **never** takes
/// the `fast-math` approximation: Gram bits feed warm-start replay and
/// the committed `results/*.csv`, so every value is computed with the
/// exact expression of [`Kernel::eval_with_norms`] and is bit-identical
/// to the scalar path on every build configuration.
pub fn kernel_rows_lanes(
    kernel: Kernel,
    lanes: &[f64],
    dims: usize,
    norms: &[f64],
    x: &[f64],
    nx: f64,
    out: &mut [f64],
) {
    match kernel {
        Kernel::Linear => kernel_rows_body(lanes, dims, x, out, |_, a| a),
        Kernel::Rbf { gamma } => {
            debug_assert!(norms.len() >= out.len(), "RBF rows need per-row norms");
            kernel_rows_body(lanes, dims, x, out, |r, a| {
                let d2 = (nx + norms[r] - 2.0 * a).max(0.0);
                (-gamma * d2).exp()
            })
        }
        Kernel::Poly {
            gamma,
            coef0,
            degree,
        } => kernel_rows_body(lanes, dims, x, out, |_, a| {
            (gamma * a + coef0).powi(degree as i32)
        }),
    }
}

/// Standardise `x` into `out` with four elements in flight:
/// `out[k] = (x[k] − mean[k]) / std[k]`. Element-wise, so chunking is
/// trivially bit-identical to the sequential loop — no feature gate
/// needed.
#[inline]
pub fn scale_lanes(x: &[f64], mean: &[f64], std: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), mean.len());
    debug_assert_eq!(x.len(), std.len());
    debug_assert_eq!(x.len(), out.len());
    let head = x.len() - x.len() % LANES;
    for (((xs, ms), ss), os) in x[..head]
        .chunks_exact(LANES)
        .zip(mean[..head].chunks_exact(LANES))
        .zip(std[..head].chunks_exact(LANES))
        .zip(out[..head].chunks_exact_mut(LANES))
    {
        os[0] = (xs[0] - ms[0]) / ss[0];
        os[1] = (xs[1] - ms[1]) / ss[1];
        os[2] = (xs[2] - ms[2]) / ss[2];
        os[3] = (xs[3] - ms[3]) / ss[3];
    }
    for k in head..x.len() {
        out[k] = (x[k] - mean[k]) / std[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_F491_4F6C_DD1D) % 2000) as f64 / 100.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn dot_ordered_is_bit_identical_to_dot() {
        // Cover every tail length 0..LANES, including the empty slice.
        for n in 0..23 {
            let x = pseudo(0xA11CE + n as u64, n);
            let z = pseudo(0xB0B + n as u64, n);
            assert_eq!(
                dot(&x, &z).to_bits(),
                dot_ordered(&x, &z).to_bits(),
                "dot_ordered diverged at n={n}"
            );
        }
    }

    #[test]
    fn interleave_roundtrips_rows() {
        for rows in 0..10usize {
            let dims = 6;
            let sv = pseudo(7 + rows as u64, rows * dims);
            let lanes = interleave_rows(&sv, dims);
            if rows == 0 {
                assert!(lanes.is_empty());
                continue;
            }
            assert_eq!(lanes.len(), rows.div_ceil(LANES) * dims * LANES);
            for r in 0..rows {
                for k in 0..dims {
                    let got = lanes[(r / LANES) * dims * LANES + k * LANES + r % LANES];
                    assert_eq!(got.to_bits(), sv[r * dims + k].to_bits());
                }
            }
        }
    }

    #[test]
    fn rbf_lanes_matches_scalar_reduction() {
        if !determinism_guaranteed() {
            eprintln!("skipped: fast-math build forfeits bit-equality");
            return;
        }
        let dims = 6;
        // 0, partial, exact and ragged block counts.
        for rows in [0usize, 1, 3, 4, 5, 8, 11, 107] {
            let sv = pseudo(42 + rows as u64, rows * dims);
            let coef = pseudo(43 + rows as u64, rows);
            let norms: Vec<f64> = sv.chunks_exact(dims).map(|r| dot(r, r)).collect();
            let lanes = interleave_rows(&sv, dims);
            let x = pseudo(99, dims);
            let gamma = 1.0 / dims as f64;
            let nx = dot(&x, &x);
            let mut expect = 0.125f64;
            for ((row, &c), &ns) in sv.chunks_exact(dims).zip(&coef).zip(&norms) {
                let d2 = (ns + nx - 2.0 * dot(row, &x)).max(0.0);
                expect += c * (-gamma * d2).exp();
            }
            let got = rbf_lanes(&lanes, dims, &coef, &norms, gamma, &x, 0.125);
            assert_eq!(
                expect.to_bits(),
                got.to_bits(),
                "rbf diverged at rows={rows}"
            );
        }
    }

    #[test]
    fn poly_lanes_matches_scalar_reduction() {
        let dims = 6;
        for rows in [0usize, 1, 4, 6, 107] {
            let sv = pseudo(77 + rows as u64, rows * dims);
            let coef = pseudo(78 + rows as u64, rows);
            let lanes = interleave_rows(&sv, dims);
            let x = pseudo(11, dims);
            let (gamma, coef0, degree) = (1.0 / dims as f64, 1.0, 2u32);
            let mut expect = -0.5f64;
            for (row, &c) in sv.chunks_exact(dims).zip(&coef) {
                expect += c * (gamma * dot(row, &x) + coef0).powi(degree as i32);
            }
            let got = poly_lanes(&lanes, dims, &coef, gamma, coef0, degree, &x, -0.5);
            assert_eq!(
                expect.to_bits(),
                got.to_bits(),
                "poly diverged at rows={rows}"
            );
        }
    }

    #[test]
    fn kernel_rows_lanes_matches_eval_with_norms_bitwise() {
        // The training-row evaluator is exact on every build config
        // (it never takes the fast-math approximation), so this test
        // runs unconditionally — unlike the serving-side rbf test.
        let dims = 6;
        for rows in [1usize, 3, 4, 5, 8, 107] {
            let sv = pseudo(21 + rows as u64, rows * dims);
            let norms: Vec<f64> = sv.chunks_exact(dims).map(|r| dot(r, r)).collect();
            let lanes = interleave_rows(&sv, dims);
            let x = pseudo(55, dims);
            let nx = dot(&x, &x);
            for kernel in [
                Kernel::Linear,
                Kernel::rbf(1.0 / dims as f64),
                Kernel::poly(0.5, 1.0, 2),
                Kernel::poly(0.3, 0.5, 4),
            ] {
                let mut got = vec![0.0; rows];
                kernel_rows_lanes(kernel, &lanes, dims, &norms, &x, nx, &mut got);
                for (r, row) in sv.chunks_exact(dims).enumerate() {
                    let want = kernel.eval_with_norms(&x, nx, row, norms[r]);
                    assert_eq!(
                        want.to_bits(),
                        got[r].to_bits(),
                        "row {r}/{rows} diverged for {kernel:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scale_lanes_matches_sequential() {
        for n in 0..13usize {
            let x = pseudo(1 + n as u64, n);
            let mean = pseudo(2 + n as u64, n);
            let std: Vec<f64> = pseudo(3 + n as u64, n)
                .iter()
                .map(|v| v.abs() + 0.5)
                .collect();
            let mut got = vec![0.0; n];
            scale_lanes(&x, &mean, &std, &mut got);
            for k in 0..n {
                let want = (x[k] - mean[k]) / std[k];
                assert_eq!(
                    want.to_bits(),
                    got[k].to_bits(),
                    "scale diverged at {k}/{n}"
                );
            }
        }
    }

    #[cfg(feature = "fast-math")]
    #[test]
    fn fast_math_exp_is_close_but_not_exact() {
        // The approximation must stay within ~4% relative error over
        // the RBF argument range and clamp the underflow tail to zero.
        for i in 0..1000 {
            let t = -(i as f64) / 50.0; // 0 .. -20
            let approx = exp_kernel(t);
            let exact = t.exp();
            assert!(
                (approx - exact).abs() <= 0.05 * exact + 1e-12,
                "approx {approx} vs exact {exact} at t={t}"
            );
        }
        assert_eq!(exp_kernel(-1000.0), 0.0);
    }

    #[test]
    fn select_honours_feature_default() {
        assert_eq!(
            KernelEngine::select() == KernelEngine::Lanes,
            cfg!(feature = "simd")
        );
        assert_eq!(KernelEngine::Scalar.name(), "scalar");
        assert_eq!(KernelEngine::Lanes.name(), "lanes");
    }
}

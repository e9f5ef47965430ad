//! Property-based tests for exbox-ml invariants.

use exbox_ml::prelude::*;
use proptest::prelude::*;

fn finite_vec(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, dims)
}

proptest! {
    /// RBF kernel values always lie in [0, 1] (0 only by floating-point
    /// underflow at extreme distances) and K(x,x) == 1.
    #[test]
    fn rbf_kernel_bounded(x in finite_vec(4), z in finite_vec(4), gamma in 0.01f64..5.0) {
        let k = Kernel::rbf(gamma);
        let v = k.eval(&x, &z);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "K = {v}");
        prop_assert!((k.eval(&x, &x) - 1.0).abs() < 1e-12);
    }

    /// Kernels are symmetric.
    #[test]
    fn kernel_symmetry(x in finite_vec(3), z in finite_vec(3), gamma in 0.01f64..2.0) {
        for k in [Kernel::Linear, Kernel::rbf(gamma), Kernel::poly(gamma, 1.0, 2)] {
            prop_assert!((k.eval(&x, &z) - k.eval(&z, &x)).abs() < 1e-9);
        }
    }

    /// StandardScaler output has ~zero mean and ~unit variance on each
    /// non-constant column of the data it was fitted on.
    #[test]
    fn scaler_normalises(rows in prop::collection::vec(finite_vec(3), 5..40)) {
        let mut ds = Dataset::new(3);
        for r in &rows {
            ds.push(r.clone(), Label::Pos);
        }
        let scaler = StandardScaler::fit(&ds);
        let t = scaler.transform_dataset(&ds);
        let n = t.len() as f64;
        for col in 0..3 {
            let vals: Vec<f64> = (0..t.len()).map(|i| t.x(i)[col]).collect();
            let mean = vals.iter().sum::<f64>() / n;
            prop_assert!(mean.abs() < 1e-6, "column {col} mean {mean}");
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            // Either ~unit variance or a constant column (var 0).
            prop_assert!((var - 1.0).abs() < 1e-6 || var < 1e-6, "column {col} var {var}");
        }
    }

    /// Confusion-matrix metrics are always in [0, 1].
    #[test]
    fn metrics_bounded(tp in 0u64..500, fp in 0u64..500, tn in 0u64..500, fn_ in 0u64..500) {
        let cm = ConfusionMatrix { tp, fp, tn, fn_ };
        let m = cm.metrics();
        for v in [m.precision, m.recall, m.accuracy, m.f1] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
    }

    /// An SVM trained on well-separated clusters classifies cluster
    /// centroids correctly regardless of where the clusters sit.
    #[test]
    fn svm_separates_arbitrary_separated_clusters(
        centre in -20.0f64..20.0,
        gap in 4.0f64..20.0,
        jitter in 0.0f64..0.5,
    ) {
        let mut ds = Dataset::new(1);
        for i in 0..8 {
            let e = jitter * ((i % 3) as f64 - 1.0);
            ds.push(vec![centre - gap / 2.0 + e], Label::Pos);
            ds.push(vec![centre + gap / 2.0 + e], Label::Neg);
        }
        let model = SvmTrainer::new(Kernel::Linear).c(10.0).train(&ds);
        prop_assert_eq!(model.predict(&[centre - gap / 2.0]), Label::Pos);
        prop_assert_eq!(model.predict(&[centre + gap / 2.0]), Label::Neg);
    }

    /// Dataset shuffling never loses or duplicates samples.
    #[test]
    fn shuffle_preserves_multiset(vals in prop::collection::vec(-50.0f64..50.0, 1..60), seed in any::<u64>()) {
        let mut ds = Dataset::new(1);
        for &v in &vals {
            ds.push(vec![v], Label::Pos);
        }
        let mut shuffled = ds.clone();
        shuffled.shuffle(seed);
        let mut a: Vec<f64> = (0..ds.len()).map(|i| ds.x(i)[0]).collect();
        let mut b: Vec<f64> = (0..shuffled.len()).map(|i| shuffled.x(i)[0]).collect();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        prop_assert_eq!(a, b);
    }

    /// Fold indices always partition the dataset.
    #[test]
    fn folds_partition(n_samples in 2usize..50, folds in 2usize..10) {
        prop_assume!(folds <= n_samples);
        let mut ds = Dataset::new(1);
        for i in 0..n_samples {
            ds.push(vec![i as f64], Label::Pos);
        }
        let fs = ds.fold_indices(folds);
        let mut all: Vec<usize> = fs.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..n_samples).collect();
        prop_assert_eq!(all, expect);
    }

    /// The zero-allocation scaler path is bit-identical to the
    /// allocating one.
    #[test]
    fn scaler_transform_into_matches_transform(
        rows in prop::collection::vec(finite_vec(3), 2..20),
        q in finite_vec(3),
    ) {
        let mut ds = Dataset::new(3);
        for r in &rows {
            ds.push(r.clone(), Label::Pos);
        }
        let s = StandardScaler::fit(&ds);
        let heap = s.transform(&q);
        let mut stack = [0.0f64; 3];
        s.transform_into(&q, &mut stack);
        for (a, b) in heap.iter().zip(&stack) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Logistic-regression probabilities are monotone in the decision
    /// value and bounded.
    #[test]
    fn logreg_probability_monotone(a in -5.0f64..5.0, b in -5.0f64..5.0) {
        let mut ds = Dataset::new(1);
        for i in 0..6 {
            ds.push(vec![-1.0 - i as f64 * 0.3], Label::Pos);
            ds.push(vec![1.0 + i as f64 * 0.3], Label::Neg);
        }
        let m = LogisticRegressionTrainer::new().epochs(100).train(&ds);
        let (lo, hi) = if m.decision_value(&[a]) <= m.decision_value(&[b]) { (a, b) } else { (b, a) };
        prop_assert!(m.probability(&[lo]) <= m.probability(&[hi]) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&m.probability(&[a])));
    }
}

// SVM training is the expensive part of these properties, so they run
// in their own block with a reduced case count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CompactSvm decisions are bit-exact with the source SvmModel for
    /// the kernel-expansion kernels (RBF / polynomial) on arbitrary
    /// training data and query points.
    #[test]
    fn compact_svm_matches_model_bitwise(
        rows in prop::collection::vec(finite_vec(3), 8..20),
        queries in prop::collection::vec(finite_vec(3), 1..4),
        gamma in 0.05f64..2.0,
    ) {
        let mut ds = Dataset::new(3);
        for (i, r) in rows.iter().enumerate() {
            // Alternating labels guarantee both classes are present.
            let y = if i % 2 == 0 { Label::Pos } else { Label::Neg };
            ds.push(r.clone(), y);
        }
        let poly = SvmTrainer::new(Kernel::poly(gamma, 1.0, 2)).c(5.0).train(&ds);
        let mut models = vec![SvmTrainer::new(Kernel::rbf(gamma)).c(5.0).train(&ds)];
        // Degrees 1–4 take the hoisted product trees, 5–6 the `powi`
        // fallback; coef0 = 0 lets zero and negative bases through.
        // The sweep re-labels the polynomial fit's support set rather
        // than refitting: only evaluation differs by degree.
        let (coef, support): (Vec<f64>, Vec<Vec<f64>>) =
            poly.support_iter().map(|(c, x)| (c, x.to_vec())).unzip();
        for degree in 1..=6 {
            for coef0 in [0.0, 1.0] {
                let kernel = Kernel::poly(gamma, coef0, degree);
                let (support, coef) = (support.clone(), coef.clone());
                models.push(SvmModel::from_parts(kernel, support, coef, poly.bias(), 3));
            }
        }
        models.push(poly);
        for model in &models {
            let compact = model.compact();
            for q in &queries {
                prop_assert_eq!(
                    model.decision_value(q).to_bits(),
                    compact.decision_value(q).to_bits(),
                    "compact diverged for {:?} at {:?}", model.kernel(), q
                );
            }
        }
    }

    /// The collapsed linear form agrees with the naive kernel
    /// expansion to floating-point round-off and never flips a label
    /// away from the margin.
    #[test]
    fn compact_linear_collapse_agrees(
        rows in prop::collection::vec(finite_vec(3), 8..20),
        queries in prop::collection::vec(finite_vec(3), 1..4),
    ) {
        let mut ds = Dataset::new(3);
        for (i, r) in rows.iter().enumerate() {
            let y = if i % 2 == 0 { Label::Pos } else { Label::Neg };
            ds.push(r.clone(), y);
        }
        let model = SvmTrainer::new(Kernel::Linear).c(5.0).train(&ds);
        let compact = model.compact();
        prop_assert!(compact.is_collapsed());
        for q in &queries {
            let naive = model.decision_value(q);
            let fast = compact.decision_value(q);
            // Support vectors and queries are bounded by ±100, so an
            // absolute tolerance scaled by the margin magnitude holds.
            prop_assert!(
                (naive - fast).abs() <= 1e-7 * (1.0 + naive.abs()),
                "collapsed linear diverged at {:?}: {} vs {}", q, naive, fast
            );
        }
    }
}

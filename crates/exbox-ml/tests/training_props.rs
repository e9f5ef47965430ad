//! Property tests for the retrain fast path (DESIGN.md §8): the
//! persistent incremental kernel cache must be bit-identical to the
//! full-rebuild reference under every mutation sequence a bounded
//! sample store can produce — appends, label flips and seeded
//! compactions in any order.

use exbox_ml::prelude::*;
use exbox_ml::{gram_matrix, PersistentKernelCache};
use proptest::prelude::*;

const DIMS: usize = 4;

fn finite_vec(dims: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, dims)
}

/// The kernel matrix exercised below: one of each family plus
/// degree/width variants.
fn kernels() -> [Kernel; 5] {
    [
        Kernel::Linear,
        Kernel::rbf(0.5),
        Kernel::rbf_default(DIMS),
        Kernel::poly(0.5, 1.0, 2),
        Kernel::poly(0.3, 0.5, 4),
    ]
}

/// One mutation of a sample store, as the admittance classifier
/// produces them.
#[derive(Debug, Clone)]
enum Op {
    /// Append fresh rows (labels alternate).
    Append(Vec<Vec<f64>>),
    /// Flip one sample's label — features unchanged, so the Gram must
    /// survive untouched.
    Flip(usize),
    /// Seeded stratum-free reservoir compaction down to `keep`
    /// survivors in store order.
    Compact { seed: u64, keep: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(finite_vec(DIMS), 1..8).prop_map(Op::Append),
        prop::collection::vec(finite_vec(DIMS), 1..8).prop_map(Op::Append),
        (0usize..64).prop_map(Op::Flip),
        (0u64..u64::MAX, 2usize..32).prop_map(|(seed, keep)| Op::Compact { seed, keep }),
    ]
}

fn apply(store: &mut Vec<(Vec<f64>, Label)>, op: &Op) {
    match op {
        Op::Append(rows) => {
            for r in rows {
                let label = if store.len().is_multiple_of(2) {
                    Label::Pos
                } else {
                    Label::Neg
                };
                store.push((r.clone(), label));
            }
        }
        Op::Flip(i) => {
            if !store.is_empty() {
                let i = i % store.len();
                store[i].1 = match store[i].1 {
                    Label::Pos => Label::Neg,
                    Label::Neg => Label::Pos,
                };
            }
        }
        Op::Compact { seed, keep } => {
            if store.len() <= *keep {
                return;
            }
            // Partial Fisher-Yates over the indices, survivors kept in
            // store order — the classifier's compaction shape.
            let mut idx: Vec<usize> = (0..store.len()).collect();
            let mut state = *seed | 1;
            let n = idx.len();
            for i in 0..*keep {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let j = i + (r % (n - i) as u64) as usize;
                idx.swap(i, j);
            }
            idx.truncate(*keep);
            idx.sort_unstable();
            *store = idx.iter().map(|&i| store[i].clone()).collect();
        }
    }
}

fn dataset(store: &[(Vec<f64>, Label)]) -> Dataset {
    let mut ds = Dataset::new(DIMS);
    for (x, y) in store {
        ds.push(x.clone(), *y);
    }
    ds
}

proptest! {
    /// Tentpole invariant: after ANY sequence of appends, label flips
    /// and compactions, the incrementally-maintained Gram is bit-equal
    /// to a scalar from-scratch rebuild, label flips cost zero fresh
    /// rows, and clean appends cost exactly Δ.
    #[test]
    fn incremental_gram_matches_full_rebuild_bitwise(
        initial in prop::collection::vec(finite_vec(DIMS), 1..12),
        ops in prop::collection::vec(op_strategy(), 1..10),
        kernel_idx in 0usize..5,
    ) {
        let kernel = kernels()[kernel_idx];
        let mut cache = PersistentKernelCache::new();
        let mut store: Vec<(Vec<f64>, Label)> = Vec::new();
        apply(&mut store, &Op::Append(initial));
        cache.sync(kernel, &dataset(&store));

        for op in &ops {
            let before = store.len();
            apply(&mut store, op);
            let ds = dataset(&store);
            let fresh = cache.sync(kernel, &ds);
            match op {
                Op::Flip(_) => prop_assert_eq!(
                    fresh, 0,
                    "label flips leave the (label-independent) Gram valid"
                ),
                Op::Append(rows) => prop_assert_eq!(
                    fresh, rows.len(),
                    "a clean append evaluates exactly the new rows"
                ),
                Op::Compact { .. } => prop_assert!(
                    fresh <= store.len(),
                    "compaction may rebuild, never more than the store"
                ),
            }
            prop_assert!(store.len() <= before || matches!(op, Op::Append(_)));
            let reference = gram_matrix(kernel, &ds);
            prop_assert_eq!(cache.gram().len(), reference.len());
            for (a, b) in cache.gram().iter().zip(&reference) {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "incremental Gram diverged from full rebuild"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end: a cached warm fit after a random mutation history
    /// is bit-identical to the uncached trainer on the same store.
    #[test]
    fn cached_fit_matches_uncached_after_mutations(
        initial in prop::collection::vec(finite_vec(DIMS), 8..24),
        ops in prop::collection::vec(op_strategy(), 1..6),
        kernel_idx in 0usize..5,
    ) {
        let kernel = kernels()[kernel_idx];
        let trainer = SvmTrainer::new(kernel).c(5.0);
        let mut cache = PersistentKernelCache::new();
        let mut store: Vec<(Vec<f64>, Label)> = Vec::new();
        apply(&mut store, &Op::Append(initial));
        let mut prev: Option<SvmFit> = None;
        for op in &ops {
            apply(&mut store, op);
            let ds = dataset(&store);
            let warm = prev.as_ref().filter(|f| f.alpha.len() == ds.len()).map(|f| WarmStart {
                alpha: &f.alpha,
                bias: f.model.bias(),
            });
            let warm2 = warm;
            let cached = trainer.fit_warm_cached(&ds, warm, &mut cache);
            let direct = trainer.fit_warm(&ds, warm2);
            prop_assert_eq!(cached.model.bias().to_bits(), direct.model.bias().to_bits());
            for (a, b) in cached.alpha.iter().zip(&direct.alpha) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "alphas diverged");
            }
            for (x, _) in ds.iter() {
                prop_assert_eq!(
                    cached.model.decision_value(x).to_bits(),
                    direct.model.decision_value(x).to_bits(),
                    "cached decision diverged"
                );
            }
            prev = Some(cached);
        }
    }
}

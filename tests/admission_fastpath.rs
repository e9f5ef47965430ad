//! Steady-state admission fast path: the matrix-keyed decision cache
//! must make recurring decisions at least 2x faster at the median than
//! re-running the model every time, without changing a single verdict.
//!
//! This is the acceptance gate for the fast-path work. What the cache
//! buys a serving gateway is the ledger's `arrival_storm` workload
//! (`bench/`): `gateway.shard.cache_hit_ratio` and `decision_p50_us`.

use exbox_core::prelude::*;
use exbox_ml::Label;
use exbox_net::AppClass;
use exbox_obs::MetricsRegistry;

/// Deterministic LCG for label noise (no rand dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn kind(c: usize, s: usize) -> FlowKind {
    FlowKind::new(AppClass::from_index(c), SnrLevel::from_index(s))
}

/// A spread of matrices along the capacity boundary.
fn matrix(seed: u64) -> TrafficMatrix {
    let mut rng = Lcg(seed.wrapping_add(0x9e37_79b9));
    let mut m = TrafficMatrix::empty();
    let n = (rng.next() % 12) as usize;
    for _ in 0..n {
        m.add(kind((rng.next() % 3) as usize, (rng.next() % 2) as usize));
    }
    m
}

/// Train a classifier to steady state on a noisy boundary so the SVM
/// retains plenty of support vectors (an expensive uncached eval).
fn trained(cache_size: usize, reg: &MetricsRegistry) -> AdmittanceClassifier {
    let cfg = AdmittanceConfig {
        batch_size: 400, // one big online batch; no retrain during timing
        bootstrap_min_samples: 160,
        bootstrap_accuracy: 0.5, // noisy labels; accept the fit
        decision_cache_size: cache_size,
        ..AdmittanceConfig::default()
    };
    let mut ac = AdmittanceClassifier::with_registry(cfg, reg);
    let mut rng = Lcg(7);
    for i in 0..240u64 {
        let m = matrix(i);
        let truth = m.total() <= 6;
        // ~12% label noise inflates the support-vector count.
        let noisy = if rng.next() % 100 < 12 { !truth } else { truth };
        let y = if noisy { Label::Pos } else { Label::Neg };
        ac.observe(m, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "classifier must leave bootstrap");
    ac
}

fn median(mut ns: Vec<f64>) -> f64 {
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

#[test]
fn cached_admission_p50_at_least_2x_faster() {
    let reg_cached = MetricsRegistry::new();
    let reg_uncached = MetricsRegistry::new();
    let mut cached = trained(4096, &reg_cached);
    let mut uncached = trained(0, &reg_uncached);

    // A steady-state working set of recurring matrices.
    let working_set: Vec<TrafficMatrix> = (1000..1016).map(matrix).collect();

    // Verdicts must be identical cache on or off, and the cache warm-up
    // round doubles as the correctness check.
    for m in &working_set {
        let (l_cached, v_cached) = cached.decide(m);
        let (l_uncached, v_uncached) = uncached.decide(m);
        assert_eq!(l_cached, l_uncached, "cache changed a verdict for {m}");
        assert_eq!(
            v_cached.map(f64::to_bits),
            v_uncached.map(f64::to_bits),
            "cache changed a margin for {m}"
        );
    }

    const ROUNDS: usize = 400;
    let mut ns_cached = Vec::with_capacity(ROUNDS * working_set.len());
    let mut ns_uncached = Vec::with_capacity(ROUNDS * working_set.len());
    for _ in 0..ROUNDS {
        for m in &working_set {
            let (_, dt) = exbox_obs::time_ns(|| cached.decide(m));
            ns_cached.push(dt);
            let (_, dt) = exbox_obs::time_ns(|| uncached.decide(m));
            ns_uncached.push(dt);
        }
    }

    // The cache must actually be serving: every timed decision was a
    // repeat of the warm-up set.
    let hits = reg_cached
        .snapshot()
        .counter("admittance.cache_hits")
        .unwrap_or(0);
    assert!(
        hits >= (ROUNDS * working_set.len()) as u64,
        "expected >= {} cache hits, metrics report {hits}",
        ROUNDS * working_set.len()
    );
    let uncached_hits = reg_uncached
        .snapshot()
        .counter("admittance.cache_hits")
        .unwrap_or(0);
    assert_eq!(uncached_hits, 0, "disabled cache must never hit");

    let p50_cached = median(ns_cached);
    let p50_uncached = median(ns_uncached);
    eprintln!(
        "admission p50: cached {p50_cached}ns, uncached {p50_uncached}ns \
         ({:.1}x)",
        p50_uncached / p50_cached.max(1.0)
    );
    assert!(
        p50_cached * 2.0 <= p50_uncached,
        "steady-state admission p50: cached {p50_cached}ns vs uncached \
         {p50_uncached}ns — need >= 2x improvement"
    );
}

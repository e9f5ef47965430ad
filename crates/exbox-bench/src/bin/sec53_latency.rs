//! §5.3 latency study (experiment E11): time per admission decision
//! and Admittance Classifier training time vs training-set size.
//!
//! The paper measures "the time interval between the instant a new
//! flow arrives and the admission decision" — ≤2 ms median for
//! RateBased/MaxClient, ≈5 ms for ExBox's Python SVM — and training
//! at "≈360 ms median" for 50 samples growing to "more than 2
//! seconds" at 1000, citing primal optimisation as the remedy. The
//! shapes to reproduce are the ordering (baselines ≪ ExBox) and the
//! growth (superlinear for kernel SMO, near-linear for the Pegasos
//! primal path); the absolute numbers are Rust's, not Python's.
//!
//! Unlike every other figure binary the values are wall-clock, so the
//! CSV differs between runs and machines. Quantiles are read from the
//! sorted raw samples. A decision costs nanoseconds, less than a
//! clock read, so a decision sample is the mean over one block of
//! [`BLOCK`] calls (`reps` counts blocks, `max_ns` is the slowest
//! block); a training sample is one fit. The controller keeps no
//! decision cache, so every ExBox call evaluates the trained model —
//! the quantity the paper timed. What the cache-served gateway path
//! pays is the ledger's `decision_p50_us` (`bench/`).
//!
//! Output: `name,n,reps,mean_ns,p50_ns,p95_ns,max_ns` on stdout;
//! machine shape and metrics snapshot on stderr.

use std::hint::black_box;
use std::time::Instant;

use exbox_core::prelude::*;
use exbox_ml::prelude::*;
use exbox_net::AppClass;

/// Decision calls per timed sample.
const BLOCK: usize = 1_000;
/// Timed blocks per decision row.
const DECISION_REPS: usize = 200;
/// Timed fits per training row.
const TRAINING_REPS: usize = 20;

/// One unrecorded warm-up sample, then `reps` recorded ones; each is
/// the mean ns per call over `calls` back-to-back calls of `f`.
fn sample(reps: usize, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut one = || {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    one();
    (0..reps).map(|_| one()).collect()
}

/// Print one CSV row, quantiles by nearest rank over the sorted samples.
fn row(name: &str, n: usize, mut ns: Vec<f64>) {
    ns.sort_by(f64::total_cmp);
    let rank = |p: f64| ns[((p * ns.len() as f64).ceil() as usize).max(1) - 1];
    let mean = ns.iter().sum::<f64>() / ns.len() as f64;
    println!(
        "{name},{n},{},{mean:.1},{:.1},{:.1},{:.1}",
        ns.len(),
        rank(0.50),
        rank(0.95),
        ns[ns.len() - 1]
    );
}

/// Time `fit` on `data`, one fit per sample, as the row `name/<rows>`.
fn training<M>(name: &str, data: &Dataset, fit: impl Fn(&Dataset) -> M) {
    let ns = sample(TRAINING_REPS, 1, || {
        black_box(fit(black_box(data)));
    });
    row(&format!("{name}/{}", data.len()), data.len(), ns);
}

/// `n` seeded samples — 0–11 flows of each of the six kinds, admissible
/// while the network carries at most 30 in all — behind both the ExBox
/// rows and the training rows.
fn samples(n: usize) -> Vec<(TrafficMatrix, Label)> {
    let mut rng = exbox_traffic::dist::Rng::new(0x5EED);
    let mut draw = || {
        let m = TrafficMatrix::from_counts(std::array::from_fn(|_| (rng.next_u64() % 12) as u32));
        let admissible = m.total() <= 30;
        (m, if admissible { Label::Pos } else { Label::Neg })
    };
    (0..n).map(|_| draw()).collect()
}

/// ExBox trained online on `n` samples.
fn trained_exbox(n: usize) -> ExBoxController {
    let mut ex = ExBoxController::new(AdmittanceClassifier::new(AdmittanceConfig::default()));
    for (m, label) in samples(n) {
        ex.on_observation(m, label);
    }
    assert!(!ex.is_bootstrapping(), "{n} samples must leave bootstrap");
    ex
}

/// The same `n` samples as a standardised dataset for the bare trainers.
fn dataset(n: usize) -> Dataset {
    let mut ds = Dataset::new(TrafficMatrix::DIMS);
    for (m, label) in samples(n) {
        ds.push(m.features(), label);
    }
    StandardScaler::fit(&ds).transform_dataset(&ds)
}

fn main() {
    eprintln!(
        "machine: {} hardware threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("name,n,reps,mean_ns,p50_ns,p95_ns,max_ns");

    let req = FlowRequest {
        kind: FlowKind::new(AppClass::Streaming, SnrLevel::High),
        demand_bps: 2_500_000.0,
        resulting_matrix: TrafficMatrix::from_counts([1, 1, 1, 1, 1, 0]),
    };
    let decision = |name: &str, n: usize, ctl: &mut dyn AdmissionController| {
        let ns = sample(DECISION_REPS, BLOCK, || {
            black_box(ctl.decide(black_box(&req)));
        });
        row(name, n, ns);
    };
    decision("RateBased", 1, &mut RateBased::new(20_000_000.0));
    decision("MaxClient", 1, &mut MaxClient::new(10));
    for n in [50, 200, 1000] {
        let name = format!("ExBox/{n}-samples");
        decision(&name, n, &mut trained_exbox(n));
    }

    let dims = TrafficMatrix::DIMS;
    let poly = SvmTrainer::new(Kernel::poly(1.0 / dims as f64, 1.0, 2)).c(10.0);
    let rbf = SvmTrainer::new(Kernel::rbf_default(dims)).c(10.0);
    let (pegasos, logistic) = (LinearSvmTrainer::new(), LogisticRegressionTrainer::new());
    for n in [50, 200, 1000] {
        let data = dataset(n);
        training("smo_poly2", &data, |d| poly.train(d));
        training("smo_rbf", &data, |d| rbf.train(d));
        training("pegasos_linear", &data, |d| pegasos.train(d));
        training("logistic", &data, |d| logistic.train(d));
    }

    exbox_bench::dump_metrics();
}

//! Staleness-bounded catch-up under capacity drift.
//!
//! A [`ConcurrentGateway`] trainer is fed seeded observation rounds
//! labelled by a synthetic capacity truth (`total flows <= cap`). Mid
//! run the truth shifts to a smaller capacity — the shaped-network
//! event of Fig. 11, but driven through the concurrent trainer so the
//! `gateway.snapshot_staleness` gauge and the retrain fast path
//! (persistent kernel cache + sticky scaler, DESIGN.md §8) are the
//! thing under test. Every round flushes the trainer, then reads the
//! *served* snapshot the way a shard would (`ModelSnapshot::decide`)
//! against a fixed probe set.
//!
//! Output: one CSV row per round of logical quantities only —
//! `round,truth_cap,observations,distinct,staleness,publishes,retrains,compactions,accuracy`
//! — so the committed `results/drift_catchup.csv` regenerates
//! byte-identically (no wall times in the CSV; `--assert` measures
//! them separately and only asserts bounds).
//!
//! ```sh
//! cargo run --release -p exbox-bench --bin drift_catchup \
//!     > results/drift_catchup.csv 2> results/drift_catchup.log
//! # CI bounded-store soak: 10x store churn must keep retrains flat
//! cargo run --release -p exbox-bench --bin drift_catchup -- --assert
//! ```
//!
//! `--assert` switches to a bounded-store soak: the sample cap is set
//! (default 100, `--max-samples` overrides), the
//! draw space is widened so the store churns through ≥ 10× the cap in
//! distinct matrices, and the run asserts (a) per-round trainer wall
//! time stays flat (late median ≤ 1.5× early median + scheduling
//! slack), (b) the post-shift accuracy catches back up to the
//! pre-shift baseline in finitely many rounds, and (c) the staleness
//! gauge returns to its pre-shift steady-state bound.

use std::collections::HashSet;
use std::time::Instant as WallInstant;

use exbox_core::gateway::{ConcurrentGateway, GatewayConfig};
use exbox_core::prelude::*;
use exbox_core::qoe::QosScale;
use exbox_ml::Label;
use exbox_net::AppClass;
use exbox_obs::{MetricsRegistry, MetricsSnapshot};

fn estimator() -> QoeEstimator {
    let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
        (0..20)
            .map(|i| {
                let q = i as f64 / 19.0;
                (q, a + b * (-g * q).exp())
            })
            .collect()
    };
    train_estimator(
        &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
        QoeEstimator::paper_thresholds(),
        paper_directions(),
        QosScale::new(1e3, 1e8),
    )
}

/// xorshift64* — the repo's seeded-workload generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..=max`.
    fn count(&mut self, max: u64) -> u32 {
        (self.next() % (max + 1)) as u32
    }
}

fn mix(web: u32, stream: u32, conf: u32) -> TrafficMatrix {
    let mut m = TrafficMatrix::empty();
    for _ in 0..web {
        m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
    }
    for _ in 0..stream {
        m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
    }
    for _ in 0..conf {
        m.add(FlowKind::new(AppClass::Conferencing, SnrLevel::High));
    }
    m
}

/// Ground truth: the network admits a mix iff its total flow count is
/// within the (drifting) capacity.
fn truth(m: &TrafficMatrix, cap: u32) -> Label {
    if m.total() <= cap {
        Label::Pos
    } else {
        Label::Neg
    }
}

struct Round {
    staleness: f64,
    accuracy: f64,
    wall_ns: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: drift_catchup [--rounds N] [--round-obs N] [--shift N] [--max-samples N] [--assert]\n\
         defaults: 72 rounds x 48 observations, shift after round 24, unbounded store;\n\
         --assert: bounded-store soak (30 rounds, cap 100, widened draw space) with\n\
         flat-retrain / finite-catch-up / staleness assertions"
    );
    std::process::exit(2);
}

fn main() {
    let mut do_assert = false;
    let mut rounds: usize = 0; // 0 = per-mode default
    let mut round_obs: usize = 48;
    let mut shift: usize = 0; // 0 = rounds / 2
    let mut max_samples: Option<usize> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> u64 {
            argv.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric value");
                usage();
            })
        };
        match flag.as_str() {
            "--rounds" => rounds = value("--rounds") as usize,
            "--round-obs" => round_obs = value("--round-obs") as usize,
            "--shift" => shift = value("--shift") as usize,
            "--max-samples" => max_samples = Some(value("--max-samples") as usize),
            "--assert" => do_assert = true,
            _ => usage(),
        }
    }
    if rounds == 0 {
        rounds = if do_assert { 30 } else { 72 };
    }
    if shift == 0 {
        shift = rounds / 3;
    }
    if round_obs == 0 || shift >= rounds {
        usage();
    }
    // Plain mode draws from a small mix space (counts 0..=8 per app)
    // so repeats re-label and the learnt boundary is crisp; assert
    // mode widens the space (0..=24) so nearly every draw is a fresh
    // distinct matrix and the bounded store genuinely churns.
    let (draw_max, cap_pre, cap_post) = if do_assert { (24, 36, 24) } else { (8, 10, 6) };
    let cap = max_samples.unwrap_or(if do_assert { 100 } else { 0 });

    let reg = MetricsRegistry::new();
    let classifier = AdmittanceClassifier::with_registry(
        AdmittanceConfig {
            max_samples: cap,
            // The drift soak is the fast path's showcase: keep the
            // bootstrap scaler across warm retrains so post-shift
            // catch-up pays incremental Gram appends, not rebuilds.
            sticky_scaler: true,
            ..AdmittanceConfig::default()
        },
        &reg,
    );
    let mut gw = ConcurrentGateway::new(GatewayConfig::default(), estimator(), classifier);
    let mut reader = gw.snapshot_reader();

    // Fixed probe set, disjoint seed: accuracy is always "how does the
    // *served* snapshot score fresh mixes against the current truth".
    let mut probe_rng = Rng(0x00D2_1F7A_11CE_0001);
    let probes: Vec<TrafficMatrix> = (0..256)
        .map(|_| {
            mix(
                probe_rng.count(draw_max),
                probe_rng.count(draw_max),
                probe_rng.count(draw_max),
            )
        })
        .collect();

    exbox_bench::csv_header(&[
        "round",
        "truth_cap",
        "observations",
        "distinct",
        "staleness",
        "publishes",
        "retrains",
        "compactions",
        "accuracy",
    ]);

    let mut obs_rng = Rng(0x00D2_1F7A_0B5E_0002);
    let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut observations: u64 = 0;
    let mut history: Vec<Round> = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        let truth_cap = if round <= shift { cap_pre } else { cap_post };
        let wall = WallInstant::now();
        for _ in 0..round_obs {
            let (w, s, c) = (
                obs_rng.count(draw_max),
                obs_rng.count(draw_max),
                obs_rng.count(draw_max),
            );
            seen.insert((w, s, c));
            let m = mix(w, s, c);
            let label = truth(&m, truth_cap);
            assert!(gw.inject_observation(m, label), "trainer exited mid-run");
            observations += 1;
        }
        assert!(gw.flush_trainer(), "trainer exited mid-run");
        let wall_ns = wall.elapsed().as_nanos() as u64;

        let trainer = gw.trainer_registry().snapshot();
        let staleness = trainer.gauge("gateway.snapshot_staleness").unwrap_or(0.0);
        let learnt = reg.snapshot();
        let retrains = learnt.counter("admittance.retrains").unwrap_or(0);
        let compactions = learnt.counter("admittance.store_compactions").unwrap_or(0);
        let snapshot = reader.pin();
        let correct = probes
            .iter()
            .filter(|m| snapshot.decide(m).0 == truth(m, truth_cap))
            .count();
        let accuracy = correct as f64 / probes.len() as f64;
        println!(
            "{round},{truth_cap},{observations},{},{staleness:.0},{},{retrains},{compactions},{}",
            seen.len(),
            gw.publish_count(),
            exbox_bench::f(accuracy),
        );
        history.push(Round {
            staleness,
            accuracy,
            wall_ns,
        });
    }

    // Catch-up: rounds after the shift until the served accuracy is
    // back within two probe errors of the last pre-shift round.
    let baseline = history[shift - 1].accuracy;
    let tolerance = 2.0 / probes.len() as f64;
    let caught_up = history[shift..]
        .iter()
        .position(|r| r.accuracy >= baseline - tolerance)
        .map(|i| i + 1);
    let pre_staleness_max = history[..shift]
        .iter()
        .map(|r| r.staleness)
        .fold(0.0f64, f64::max);
    match caught_up {
        Some(n) => eprintln!(
            "caught up {n} round(s) after the shift (baseline accuracy {}, final {})",
            exbox_bench::f(baseline),
            exbox_bench::f(history[rounds - 1].accuracy),
        ),
        None => eprintln!(
            "NOT caught up within {} post-shift rounds (baseline accuracy {})",
            rounds - shift,
            exbox_bench::f(baseline),
        ),
    }

    if do_assert {
        let distinct = seen.len();
        assert!(
            cap > 0 && distinct >= 10 * cap,
            "soak must churn >= 10x the {cap}-sample cap; saw only {distinct} distinct mixes"
        );
        assert!(
            caught_up.is_some(),
            "served accuracy never returned to the pre-shift baseline"
        );
        let last = &history[rounds - 1];
        assert!(
            last.staleness <= pre_staleness_max,
            "staleness {} did not return to the pre-shift bound {}",
            last.staleness,
            pre_staleness_max
        );
        // Flat-retrain bound: with the store capped, a late round
        // costs what an early online round cost. Medians over 6-round
        // windows; 500 µs absolute slack absorbs scheduler jitter on
        // loaded CI runners without masking unbounded growth (an
        // uncapped store is several times slower by the last window).
        let median = |w: &[Round]| -> u64 {
            let mut ns: Vec<u64> = w.iter().map(|r| r.wall_ns).collect();
            ns.sort_unstable();
            ns[ns.len() / 2]
        };
        let early = median(&history[2..8]);
        let late = median(&history[rounds - 6..]);
        eprintln!("round wall time: early median {early} ns, late median {late} ns");
        assert!(
            late <= early * 3 / 2 + 500_000,
            "late rounds ({late} ns) are not within 1.5x of early rounds ({early} ns): \
             the bounded store did not keep retrains flat"
        );
        eprintln!("bounded-store soak ok: {distinct} distinct mixes through a {cap}-sample cap");
    }

    // Full metrics to stderr: the learnt-state registry (retrains,
    // gram_incremental_rows, store_compactions, ...) merged with the
    // gateway's trainer/shard registries.
    let parts = [reg.snapshot(), gw.merged_metrics()];
    eprintln!("{}", MetricsSnapshot::merged(&parts).render());
    gw.shutdown();
}

//! # exbox-bench — figure regeneration binaries
//!
//! One binary per table/figure in the paper's evaluation (see
//! `DESIGN.md` §4 for the experiment index; the §5.3 latency study is
//! `sec53_latency`), plus `ablation_*` binaries for the design choices
//! DESIGN.md calls out. Every binary prints a CSV series matching the
//! paper's axes to stdout and progress notes to stderr;
//! `EXPERIMENTS.md` records paper-vs-measured shape for each.
//! Performance numbers come from the ledger in `bench/`, not from here.
//!
//! Run e.g.:
//! ```sh
//! cargo run --release -p exbox-bench --bin fig07_wifi_testbed
//! ```

pub mod soak;
pub use soak::{peak_rss_kb, run_soak, SoakConfig, SoakReport};

use exbox_core::prelude::*;
use exbox_net::Duration;
use exbox_sim::fluid::{FluidLte, FluidWifi};
use exbox_sim::lte::LteConfig;
use exbox_sim::wifi::{Backhaul, WifiConfig};
use exbox_testbed::cell::{AppModelSet, CellLabeler, CellModel};
use exbox_testbed::training::{
    fit_estimator_from_sweep, paper_grid, run_training_sweep, TrainingSweep,
};

/// The paper's measured WiFi testbed capacity: "20 Mbps iperf UDP
/// throughput" (§5.1) — the `C` used by the RateBased baseline.
pub const WIFI_CAPACITY_BPS: f64 = 20_000_000.0;
/// The paper's measured LTE capacity: "more than 30 Mbps" (§5.1).
pub const LTE_CAPACITY_BPS: f64 = 30_000_000.0;
/// MaxClient cap used by the paper (Aruba/IBM defaults).
pub const MAX_CLIENT_CAP: u32 = 10;

/// Run the §5.3 training sweep once and fit the QoE estimator.
/// Returns (estimator, per-class RMSE, the sweep itself).
pub fn standard_estimator() -> (QoeEstimator, [f64; 3], TrainingSweep) {
    let (rates, delays) = paper_grid();
    let sweep = run_training_sweep(&rates, &delays, 3, 0x1F12);
    let (est, rmse) = fit_estimator_from_sweep(&sweep, QoeEstimator::paper_thresholds());
    (est, rmse, sweep)
}

/// The WiFi testbed cell: packet-level DES, 12 s per matrix (long
/// enough for pages, startups and PSNR to settle; the paper's ns-3
/// runs use 16 s). Calibrated to the paper's laptop AP: the raised
/// per-transmission overhead caps saturated goodput at ≈18 Mbps
/// (their measured "20 Mbps iperf UDP throughput … an artifact of
/// the WiFi driver on the laptop"), and the heavier testbed app
/// profile reflects what real phones pulled.
pub fn wifi_testbed_labeler(seed: u64) -> CellLabeler {
    CellLabeler::new(
        CellModel::WifiDes {
            cfg: WifiConfig {
                per_tx_overhead: Duration::from_micros(450),
                ..WifiConfig::default()
            },
            duration: Duration::from_secs(12),
            models: AppModelSet::testbed(),
        },
        seed,
    )
}

/// The LTE testbed cell: packet-level DES. The radio (50 PRB ≈
/// 35 Mbps at CQI 15) matches the paper's ">30 Mbps" measurement;
/// the lab-grade OpenEPC core — "each component runs in a
/// Linux-based virtual machine" — is modelled as a shared 18 Mbps /
/// 30 ms backhaul (the paper measured "≈30–40 ms latency" through
/// it; lab-grade VM chains forward well below the radio's iperf
/// ceiling under real multi-flow load), whose FIFO is what congests
/// first under bursty traffic.
pub fn lte_testbed_labeler(seed: u64) -> CellLabeler {
    CellLabeler::new(
        CellModel::LteDes {
            cfg: LteConfig {
                backhaul: Backhaul {
                    rate_bps: 18_000_000,
                    delay: Duration::from_millis(30),
                    loss: 0.0,
                },
                ..LteConfig::default()
            },
            duration: Duration::from_secs(12),
            models: AppModelSet::testbed(),
        },
        seed,
    )
}

/// Fluid WiFi cell for scale-up sweeps, running the trace-replay
/// demand profile (see `scaleup_fluid_demands`).
pub fn wifi_fluid_labeler(label_noise: f64, seed: u64) -> CellLabeler {
    CellLabeler::new(
        CellModel::WifiFluid {
            cfg: FluidWifi::default(),
            label_noise,
            demands: exbox_testbed::cell::scaleup_fluid_demands(),
        },
        seed,
    )
}

/// Fluid LTE cell for scale-up sweeps (trace-replay demands).
pub fn lte_fluid_labeler(label_noise: f64, seed: u64) -> CellLabeler {
    CellLabeler::new(
        CellModel::LteFluid {
            cfg: FluidLte::default(),
            label_noise,
            demands: exbox_testbed::cell::scaleup_fluid_demands(),
        },
        seed,
    )
}

/// The scale-up cell's measured saturation capacity (the `C` a
/// network admin would measure with iperf on the simulated 802.11n
/// cell), used by RateBased in the §6 studies.
pub const SCALEUP_WIFI_CAPACITY_BPS: f64 = 28_000_000.0;
/// LTE scale-up capacity (50 PRB at CQI 15).
pub const SCALEUP_LTE_CAPACITY_BPS: f64 = 35_000_000.0;

/// A fresh ExBox controller with the given online batch size and
/// bootstrap length.
pub fn exbox_controller(batch_size: usize, bootstrap_min: usize) -> ExBoxController {
    ExBoxController::new(AdmittanceClassifier::new(AdmittanceConfig {
        batch_size,
        bootstrap_min_samples: bootstrap_min,
        ..AdmittanceConfig::default()
    }))
}

/// Print a CSV header line.
pub fn csv_header(cols: &[&str]) {
    println!("{}", cols.join(","));
}

/// Format a float compactly for CSV.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

/// Run ExBox + the two baselines over the same samples; returns
/// `(name, report)` triples in the paper's legend order.
pub fn run_three_controllers(
    samples: &[exbox_testbed::Sample],
    eval_every: usize,
    batch_size: usize,
    bootstrap_min: usize,
    capacity_bps: f64,
) -> Vec<(&'static str, exbox_testbed::EvalReport)> {
    let mut exbox = exbox_controller(batch_size, bootstrap_min);
    let mut rate = RateBased::new(capacity_bps);
    let mut maxc = MaxClient::new(MAX_CLIENT_CAP);
    vec![
        (
            "ExBox",
            exbox_testbed::evaluate_online(&mut exbox, samples, eval_every),
        ),
        (
            "RateBased",
            exbox_testbed::evaluate_online(&mut rate, samples, eval_every),
        ),
        (
            "MaxClient",
            exbox_testbed::evaluate_online(&mut maxc, samples, eval_every),
        ),
    ]
}

/// Print one learning-curve series in the standard CSV layout
/// (`pattern,controller,fed,precision,recall,accuracy` — window
/// metrics, as the paper's fluctuating curves suggest).
pub fn print_series(pattern: &str, name: &str, report: &exbox_testbed::EvalReport) {
    for p in &report.points {
        println!(
            "{pattern},{name},{},{},{},{}",
            p.fed,
            f(p.window.precision),
            f(p.window.recall),
            f(p.window.accuracy)
        );
    }
}

/// Print the process-wide metrics snapshot to stderr. Every bench
/// binary calls this as its final statement, so the regeneration
/// loop's `2> results/<bin>.log` redirect captures an instrumentation
/// audit alongside each figure's CSV.
pub fn dump_metrics() {
    eprintln!("{}", exbox_obs::global().snapshot().render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_paper() {
        assert_eq!(WIFI_CAPACITY_BPS, 20e6);
        assert_eq!(LTE_CAPACITY_BPS, 30e6);
        assert_eq!(MAX_CLIENT_CAP, 10);
    }

    #[test]
    fn controllers_construct() {
        let ex = exbox_controller(20, 50);
        assert!(ex.is_bootstrapping());
    }
}

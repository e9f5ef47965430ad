//! Figure 2 (a/b/c): QoE as a function of the number of flows of two
//! applications in a simulated WiFi network.
//!
//! Method follows the paper's §2 exactly: "QoS is modeled as the
//! ratio of average throughput to delay. We use the IQX model to map
//! such QoS values to corresponding QoE values. The QoE values are
//! normalized for comparison purposes and also to calculate the
//! average QoE of the network." The IQX models come from the same
//! training-device sweep the real system fits (Fig. 12 machinery).
//!
//! Expected shape: streaming QoE collapses as streaming count grows
//! but tolerates conferencing peers (Fig. 2a); conferencing QoE has a
//! different, larger region (Fig. 2b); the overall network region is
//! multi-dimensional — no single flow count bounds it (Fig. 2c).
//!
//! Output: `conf,stream,qoe_streaming,qoe_conferencing,qoe_network`.

use exbox_bench::{csv_header, f, standard_estimator};
use exbox_core::qoe::QoeEstimator;
use exbox_net::AppClass;
use exbox_sim::fluid::{FluidFlow, FluidWifi};
use exbox_sim::SnrLevel;
use exbox_testbed::cell::nominal_demand_bps;

/// Normalise a per-class QoE metric to [0, 1].
fn normalize_qoe(class: AppClass, metric: f64) -> f64 {
    match class {
        // Startup delay: 1 s or less is perfect, 20 s unusable.
        AppClass::Streaming => ((20.0 - metric) / 19.0).clamp(0.0, 1.0),
        // PSNR: 10 dB unusable, 42 dB pristine.
        AppClass::Conferencing => ((metric - 10.0) / 32.0).clamp(0.0, 1.0),
        // Page load time: 1 s perfect, 15 s unusable.
        AppClass::Web => ((15.0 - metric) / 14.0).clamp(0.0, 1.0),
    }
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    eprintln!("fitting IQX models from the training sweep...");
    let (estimator, _, _) = standard_estimator();
    let cell = FluidWifi::default();
    csv_header(&[
        "conf",
        "stream",
        "qoe_streaming",
        "qoe_conferencing",
        "qoe_network",
    ]);

    for conf in (0..=50u32).step_by(2) {
        for stream in (0..=50u32).step_by(2) {
            let (qs, qc, qn) = grid_point(&estimator, &cell, conf, stream);
            println!("{conf},{stream},{},{},{}", f(qs), f(qc), f(qn));
        }
    }

    exbox_bench::dump_metrics();
}

fn grid_point(
    estimator: &QoeEstimator,
    cell: &FluidWifi,
    conf: u32,
    stream: u32,
) -> (f64, f64, f64) {
    if conf == 0 && stream == 0 {
        return (1.0, 1.0, 1.0);
    }
    let mut flows = Vec::new();
    for _ in 0..stream {
        flows.push(FluidFlow::new(
            AppClass::Streaming,
            SnrLevel::High,
            nominal_demand_bps(AppClass::Streaming),
            1400,
        ));
    }
    for _ in 0..conf {
        flows.push(FluidFlow::new(
            AppClass::Conferencing,
            SnrLevel::High,
            nominal_demand_bps(AppClass::Conferencing),
            1400,
        ));
    }
    let qos = cell.predict(&flows);
    let mut stream_qoes = Vec::new();
    let mut conf_qoes = Vec::new();
    for (fl, q) in flows.iter().zip(&qos) {
        let sample = q.as_qos_sample();
        let metric = estimator.estimate(fl.class, &sample);
        let norm = normalize_qoe(fl.class, metric);
        match fl.class {
            AppClass::Streaming => stream_qoes.push(norm),
            AppClass::Conferencing => conf_qoes.push(norm),
            AppClass::Web => unreachable!("no web flows in this grid"),
        }
    }
    let qs = median(&mut stream_qoes.clone());
    let qc = median(&mut conf_qoes.clone());
    let mut all: Vec<f64> = stream_qoes.into_iter().chain(conf_qoes).collect();
    let qn = median(&mut all);
    (qs, qc, qn)
}

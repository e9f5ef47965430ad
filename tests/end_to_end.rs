//! Cross-crate integration tests: the full ExBox pipeline from
//! traffic generation through simulation, QoE estimation, learning
//! and admission decisions.

use exbox::ml::Label;
use exbox::net::AppClass;
use exbox::prelude::*;
use exbox::sim::wifi::WifiConfig;
use exbox::testbed::cell::{AppModelSet, CellLabeler, CellModel};
use exbox::testbed::training::{fit_estimator_from_sweep, run_training_sweep};

fn wifi_labeler(seed: u64) -> CellLabeler {
    CellLabeler::new(
        CellModel::WifiDes {
            cfg: WifiConfig::default(),
            duration: Duration::from_secs(10),
            models: AppModelSet::default(),
        },
        seed,
    )
}

/// The headline loop: random workload → DES ground truth → online
/// learning → ExBox beats both baselines on accuracy.
#[test]
fn exbox_beats_baselines_end_to_end() {
    let mixes = RandomPattern::new(6, 16, 0xE2E).matrices(120);
    let mut labeler = wifi_labeler(1);
    let samples = build_samples(&mixes, SnrPolicy::AllHigh, &mut labeler, None);
    assert!(samples.len() > 150, "workload too small: {}", samples.len());

    let mut exbox = ExBoxController::new(AdmittanceClassifier::new(AdmittanceConfig {
        bootstrap_min_samples: 50,
        ..AdmittanceConfig::default()
    }));
    let mut rate = RateBased::new(25_000_000.0);
    let mut maxc = MaxClient::new(10);

    let ex = evaluate_online(&mut exbox, &samples, 50).metrics();
    let rb = evaluate_online(&mut rate, &samples, 50).metrics();
    let mc = evaluate_online(&mut maxc, &samples, 50).metrics();

    assert!(ex.accuracy > 0.8, "ExBox accuracy {}", ex.accuracy);
    assert!(
        ex.accuracy > rb.accuracy && ex.accuracy > mc.accuracy,
        "ExBox {} must beat RateBased {} and MaxClient {}",
        ex.accuracy,
        rb.accuracy,
        mc.accuracy
    );
}

/// The estimation pipeline: IQX models fitted on a shaped-link sweep
/// agree with app-level ground truth on clearly-good and clearly-bad
/// matrices.
#[test]
fn iqx_estimates_agree_with_ground_truth_at_extremes() {
    let sweep = run_training_sweep(
        &[250_000, 1_000_000, 4_000_000, 12_000_000],
        &[Duration::from_millis(20), Duration::from_millis(150)],
        2,
        9,
    );
    let (estimator, _) = fit_estimator_from_sweep(&sweep, QoeEstimator::paper_thresholds());

    let mut labeler = wifi_labeler(2);
    let light = {
        let mut m = TrafficMatrix::empty();
        m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
        m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        m
    };
    let heavy = {
        let mut m = TrafficMatrix::empty();
        for _ in 0..10 {
            m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
        }
        m
    };
    let light_out = labeler.label(&light);
    let heavy_out = labeler.label(&heavy);
    assert_eq!(light_out.truth, Label::Pos);
    assert_eq!(heavy_out.truth, Label::Neg);
    assert_eq!(light_out.estimated_label(&estimator), Label::Pos);
    assert_eq!(heavy_out.estimated_label(&estimator), Label::Neg);
}

/// SNR diversity shrinks the learnt region: a workload of low-SNR
/// clients saturates at smaller matrices than the same workload at
/// high SNR (the Fig. 3 phenomenon driving the k·r matrix encoding).
#[test]
fn low_snr_workload_has_smaller_capacity() {
    let mut labeler = wifi_labeler(3);
    let cap = |snr: SnrLevel, labeler: &mut CellLabeler| -> u32 {
        let mut last_pos = 0;
        for n in 1..=12 {
            let mut m = TrafficMatrix::empty();
            for _ in 0..n {
                m.add(FlowKind::new(AppClass::Streaming, snr));
            }
            if labeler.label(&m).truth == Label::Pos {
                last_pos = n;
            }
        }
        last_pos
    };
    let high = cap(SnrLevel::High, &mut labeler);
    let low = cap(SnrLevel::Low, &mut labeler);
    assert!(
        low < high,
        "low-SNR streaming capacity {low} should be below high-SNR {high}"
    );
    assert!(high >= 3, "high-SNR cell should hold several streams");
}

/// The packet-facing gateway drives the same learning machinery:
/// classify → admit → meter → poll → observe.
#[test]
fn middlebox_pipeline_learns_from_polls() {
    use exbox::net::{Direction, FlowKey, Packet, Protocol};

    let sweep = run_training_sweep(
        &[500_000, 4_000_000, 16_000_000],
        &[Duration::from_millis(20)],
        1,
        4,
    );
    let (estimator, _) = fit_estimator_from_sweep(&sweep, QoeEstimator::paper_thresholds());
    let mut gw = ConcurrentGateway::new(
        GatewayConfig::default(),
        estimator,
        AdmittanceClassifier::new(AdmittanceConfig::default()),
    );

    // A streaming-shaped flow arrives and is admitted (bootstrap).
    let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
    for i in 0..10u64 {
        let pkt = Packet::new(
            Instant::from_millis(2 * i),
            1400,
            key,
            Direction::Downlink,
            i,
        );
        assert_eq!(gw.process_packet(&pkt, SnrLevel::High), Action::Forward);
    }
    assert_eq!(gw.admitted_flows(), 1);

    // Healthy delivery reports, then a poll: one observation lands.
    for i in 0..100u64 {
        gw.record_delivery(
            &key,
            Instant::from_millis(i * 10),
            Instant::from_millis(i * 10 + 4),
            1400,
        );
    }
    gw.poll(Instant::from_secs(3));
    let classifier = gw.shutdown().expect("the gateway trains");
    assert_eq!(classifier.num_observations(), 1);
}

/// Determinism across the whole pipeline: identical seeds give
/// identical evaluation reports.
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let mixes = RandomPattern::new(5, 12, 7).matrices(60);
        let mut labeler = wifi_labeler(11);
        let samples = build_samples(&mixes, SnrPolicy::AllHigh, &mut labeler, None);
        let mut exbox = ExBoxController::new(AdmittanceClassifier::new(AdmittanceConfig {
            bootstrap_min_samples: 40,
            ..AdmittanceConfig::default()
        }));
        let report = evaluate_online(&mut exbox, &samples, 20);
        (
            report.bootstrap_used,
            report.confusion,
            report.metrics().accuracy,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// §4.3 end to end: a client walks to the cell edge mid-run; the
/// gateway's periodic poll sees the QoS collapse, feeds a negative
/// observation, the trainer re-learns and publishes, and the next poll
/// revokes the flow.
#[test]
fn middlebox_revokes_after_mobility_degrades_qoe() {
    use exbox::core::PollVerdict;
    use exbox::net::{Direction, FlowKey, Packet, Protocol};

    // Estimator from a quick sweep.
    let sweep = run_training_sweep(
        &[500_000, 4_000_000, 16_000_000],
        &[Duration::from_millis(20)],
        1,
        4,
    );
    let (estimator, _) = fit_estimator_from_sweep(&sweep, QoeEstimator::paper_thresholds());

    // Admittance classifier pre-trained on a simple region: one flow
    // is fine, and the matrix label follows observed QoE.
    // The monotone guard makes relabelled matrices take effect at the
    // next publish (the SVM alone can be outvoted by its stale
    // neighbours until several batches re-learn the area).
    let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
        batch_size: 1, // retrain on every observation for the test
        monotone_guard: true,
        ..AdmittanceConfig::default()
    });
    for w in 0..5u32 {
        for st in 0..5u32 {
            for _rep in 0..3 {
                let mut m = TrafficMatrix::empty();
                for _ in 0..w {
                    m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
                }
                for _ in 0..st {
                    m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
                }
                let y = if w + st <= 4 {
                    exbox::ml::Label::Pos
                } else {
                    exbox::ml::Label::Neg
                };
                ac.observe(m, y);
            }
        }
    }
    let mut gw = ConcurrentGateway::new(GatewayConfig::default(), estimator, ac);

    // Admit one streaming flow while the client is healthy.
    let key = FlowKey::synthetic(1, 1, 2, Protocol::Tcp);
    for i in 0..10u64 {
        let pkt = Packet::new(
            Instant::from_millis(2 * i),
            1400,
            key,
            Direction::Downlink,
            i,
        );
        gw.process_packet(&pkt, SnrLevel::High);
    }
    assert_eq!(gw.admitted_flows(), 1);

    // Phase 1: healthy QoS -> poll keeps the flow.
    for i in 0..100u64 {
        gw.record_delivery(
            &key,
            Instant::from_millis(i * 10),
            Instant::from_millis(i * 10 + 4),
            1400,
        );
    }
    let verdicts = gw.poll(Instant::from_secs(3));
    assert!(verdicts.iter().all(|(_, v)| *v == PollVerdict::Keep));
    assert!(gw.flush_trainer());
    assert_eq!(gw.admitted_flows(), 1);

    // Phase 2: the client walked away; deliveries crawl (trickle at
    // huge delay). A poll observes unacceptable QoE, the trainer
    // relabels the matrix and publishes, and a later poll revokes.
    let mut revoked = false;
    for round in 0..5u64 {
        for i in 0..40u64 {
            let t = 4_000 + round * 2_000 + i * 50;
            gw.record_delivery(
                &key,
                Instant::from_millis(t),
                Instant::from_millis(t + 2_000), // 2 s one-way delay
                200,                             // starved rate
            );
        }
        let verdicts = gw.poll(Instant::from_secs(6 + 2 * round));
        assert!(gw.flush_trainer());
        if verdicts.iter().any(|(_, v)| *v == PollVerdict::Revoke) {
            revoked = true;
            break;
        }
    }
    assert!(revoked, "gateway never revoked the degraded flow");
    assert_eq!(gw.admitted_flows(), 0);
}

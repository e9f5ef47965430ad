//! End-to-end observability check: drive a scripted packet trace
//! through a [`Middlebox`] bound to an isolated registry and assert
//! the `middlebox.*` counters agree *exactly* with the `Action`s and
//! `PollVerdict`s the middlebox returned, and that the decision ring
//! holds a structured event for every admit / reject / revoke.

use exbox_core::prelude::*;
use exbox_core::qoe::QosScale;
use exbox_core::{DecisionKind, DecisionReason};
use exbox_ml::Label;
use exbox_net::{AppClass, Direction, Duration, FlowKey, Instant, Packet, Protocol};
use exbox_obs::MetricsRegistry;

fn estimator(reg: &MetricsRegistry) -> QoeEstimator {
    let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
        (0..20)
            .map(|i| {
                let q = i as f64 / 19.0;
                (q, a + b * (-g * q).exp())
            })
            .collect()
    };
    let trained = train_estimator(
        &[mk(1.0, 11.0, 5.0), mk(2.0, 20.0, 6.0), mk(42.0, -30.0, 4.0)],
        QoeEstimator::paper_thresholds(),
        paper_directions(),
        QosScale::new(1e3, 1e8),
    );
    // Rebind the fitted models to the test's isolated registry.
    QoeEstimator::with_registry(
        [
            *trained.model(AppClass::Web),
            *trained.model(AppClass::Streaming),
            *trained.model(AppClass::Conferencing),
        ],
        trained.scale(),
        reg,
    )
}

fn streaming_matrix(total: u32) -> TrafficMatrix {
    let mut m = TrafficMatrix::empty();
    for _ in 0..total {
        m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
    }
    m
}

/// Classifier trained online (monotone guard on, so region answers
/// are deterministic dominance lookups) to accept ≤ 2 flows.
fn trained_classifier(reg: &MetricsRegistry) -> AdmittanceClassifier {
    let mut ac = AdmittanceClassifier::with_registry(
        AdmittanceConfig {
            batch_size: 1,
            monotone_guard: true,
            bootstrap_min_samples: 50,
            ..AdmittanceConfig::default()
        },
        reg,
    );
    for n in 0..80u32 {
        let total = n % 8;
        let y = if total <= 2 { Label::Pos } else { Label::Neg };
        ac.observe(streaming_matrix(total), y);
    }
    assert_eq!(ac.phase(), Phase::Online, "classifier must be online");
    ac
}

fn streaming_pkts(key: FlowKey, n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            Packet::new(
                Instant::from_millis(2 * i as u64),
                1400,
                key,
                Direction::Downlink,
                i as u64,
            )
        })
        .collect()
}

#[test]
fn counters_match_returned_verdicts_exactly() {
    let reg = MetricsRegistry::new();
    let mut mb = Middlebox::with_registry(
        MiddleboxConfig::default(),
        estimator(&reg),
        trained_classifier(&reg),
        &reg,
    );

    // Tallies recomputed purely from the middlebox's return values.
    let mut packets = 0u64;
    let mut dropped = 0u64;
    let mut rejected_flows = 0u64;
    let mut keeps = 0u64;
    let mut revokes = 0u64;

    let keys: Vec<FlowKey> = (1..=3)
        .map(|i| FlowKey::synthetic(i, i, i as u8, Protocol::Tcp))
        .collect();
    for key in &keys {
        let mut flow_dropped = false;
        for p in streaming_pkts(*key, 12) {
            packets += 1;
            if mb.process_packet(&p, SnrLevel::High) == Action::Drop {
                dropped += 1;
                if !flow_dropped {
                    flow_dropped = true;
                    rejected_flows += 1;
                }
            }
        }
    }
    // ≤2-flow region: flows 1 and 2 admitted, flow 3 rejected.
    assert_eq!(mb.admitted_flows(), 2);
    assert_eq!(rejected_flows, 1);
    let admits = keys.len() as u64 - rejected_flows;

    // Terrible QoS for both admitted flows; the poll must label the
    // matrix inadmissible, retrain (batch size 1), and — thanks to the
    // dominance guard — deterministically revoke exactly one flow
    // (after which the 1-flow matrix is dominated by a stored
    // admissible sample and the re-check stops).
    for key in &keys[..2] {
        for i in 0..20u64 {
            mb.record_delivery(
                key,
                Instant::from_millis(i * 1_000),
                Instant::from_millis(i * 1_000 + 900),
                50,
            );
        }
    }
    // Polls return only revocations; kept flows are tallied in bulk
    // into `middlebox.keeps` without materialising Keep verdicts.
    let verdicts = mb.poll(Instant::from_secs(10));
    for (_, v) in &verdicts {
        match v {
            PollVerdict::Keep => unreachable!("polls return revocations only"),
            PollVerdict::Revoke => revokes += 1,
        }
    }
    assert_eq!(revokes, 1, "expected exactly one revocation");
    assert_eq!(mb.admitted_flows(), 1);

    // A second poll inside the interval must be a silent no-op.
    assert!(mb
        .poll(Instant::from_secs(10) + Duration::from_millis(1))
        .is_empty());

    // Healthy QoS for the surviving flow: the next poll leaves it
    // admitted and counts it as kept (one bulk increment per admitted
    // flow when the matrix re-evaluates inside the region).
    for i in 0..50u64 {
        mb.record_delivery(
            &keys[1],
            Instant::from_millis(i * 10),
            Instant::from_millis(i * 10 + 5),
            1400,
        );
    }
    let kept = mb.poll(Instant::from_secs(20));
    assert!(kept.is_empty(), "a healthy matrix must revoke nothing");
    keeps += mb.admitted_flows() as u64;
    assert_eq!(mb.admitted_flows(), 1);

    // One of the two originally admitted flows was revoked; departing
    // both must count exactly one real departure.
    mb.flow_departed(&keys[0]);
    mb.flow_departed(&keys[1]);
    assert_eq!(mb.admitted_flows(), 0);

    let snap = reg.snapshot();
    assert_eq!(snap.counter("middlebox.packets"), Some(packets));
    assert_eq!(snap.counter("middlebox.admits"), Some(admits));
    assert_eq!(snap.counter("middlebox.rejects"), Some(rejected_flows));
    // Every returned Drop is either the deciding rejection or a
    // subsequent packet of an already-rejected flow.
    assert_eq!(
        snap.counter("middlebox.drops_rejected"),
        Some(dropped - rejected_flows)
    );
    assert_eq!(snap.counter("middlebox.keeps"), Some(keeps));
    assert_eq!(snap.counter("middlebox.revokes"), Some(revokes));
    assert_eq!(snap.counter("middlebox.polls"), Some(2));
    assert_eq!(snap.counter("middlebox.departures"), Some(1));

    // One decision-log event per arrival decision and revocation (the
    // decision path reads no clock); one latency observation per
    // executed poll.
    assert_eq!(
        mb.decision_log().total_pushed(),
        admits + rejected_flows + revokes
    );
    assert_eq!(
        snap.histogram("middlebox.poll_latency_ns").unwrap().count,
        2
    );

    // The classifier's own instruments live in the same registry.
    assert_eq!(
        snap.counter("admittance.observations"),
        Some(mb.admittance().num_observations())
    );
    assert_eq!(
        snap.counter("admittance.retrains"),
        Some(mb.admittance().retrain_count())
    );

    // The decision ring mirrors the counters, with explainable
    // reasons and margins on the online-phase verdicts.
    let log = mb.decision_log().snapshot();
    let count = |k: DecisionKind| log.iter().filter(|e| e.verdict == k).count() as u64;
    assert_eq!(count(DecisionKind::Admit), admits);
    assert_eq!(count(DecisionKind::Reject), rejected_flows);
    assert_eq!(count(DecisionKind::Revoke), revokes);
    for e in &log {
        assert_eq!(e.class, AppClass::Streaming);
        match e.verdict {
            DecisionKind::Admit => assert_eq!(e.reason, DecisionReason::InsideRegion),
            DecisionKind::Reject => assert_eq!(e.reason, DecisionReason::OutsideRegion),
            DecisionKind::Revoke => assert_eq!(e.reason, DecisionReason::RegionReevaluation),
        }
        // Each event renders to a one-line explanation.
        assert!(!format!("{e}").is_empty());
    }

    // The snapshot round-trips through both export formats.
    let json = reg.snapshot().to_json();
    assert!(json.contains("\"middlebox.admits\":2"));
    let csv = reg.snapshot().to_csv();
    assert!(csv.contains("middlebox.revokes,counter,1"));
}

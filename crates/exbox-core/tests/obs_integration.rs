//! End-to-end observability check: drive a scripted packet trace
//! through a one-shard [`ConcurrentGateway`] and assert the merged
//! `middlebox.*` counters agree *exactly* with the `Action`s and
//! `PollVerdict`s the gateway returned, and that the decision ring
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
    let mut gw = ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(&reg),
        trained_classifier(&reg),
        FaultPlan::disabled(),
    );

    // Tallies recomputed purely from the gateway's return values.
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
            if gw.process_packet(&p, SnrLevel::High) == Action::Drop {
                dropped += 1;
                if !flow_dropped {
                    flow_dropped = true;
                    rejected_flows += 1;
                }
            }
        }
    }
    // ≤2-flow region: flows 1 and 2 admitted, flow 3 rejected.
    assert_eq!(gw.admitted_flows(), 2);
    assert_eq!(rejected_flows, 1);
    let admits = keys.len() as u64 - rejected_flows;

    // Terrible QoS for both admitted flows; the poll must label the
    // matrix inadmissible and the trainer retrain (batch size 1) and
    // publish. The poll itself re-evaluates against the snapshot it
    // pinned, so it keeps both flows.
    for key in &keys[..2] {
        for i in 0..20u64 {
            gw.record_delivery(
                key,
                Instant::from_millis(i * 1_000),
                Instant::from_millis(i * 1_000 + 900),
                50,
            );
        }
    }
    // Polls return only revocations; kept flows are tallied in bulk
    // into `middlebox.keeps` without materialising Keep verdicts.
    assert!(gw.poll(Instant::from_secs(10)).is_empty());
    keeps += 2;
    assert!(gw.flush_trainer());

    // A second poll inside the interval must be a silent no-op.
    assert!(gw
        .poll(Instant::from_secs(10) + Duration::from_millis(1))
        .is_empty());

    // The next poll serves the published guard: the standing matrix
    // dominates the stored inadmissible one, so exactly one flow is
    // revoked (after which the 1-flow matrix is dominated by a stored
    // admissible sample and the re-check stops).
    for (_, v) in gw.poll(Instant::from_secs(12)) {
        match v {
            PollVerdict::Keep => unreachable!("polls return revocations only"),
            PollVerdict::Revoke => revokes += 1,
        }
    }
    assert_eq!(revokes, 1, "expected exactly one revocation");
    assert_eq!(gw.admitted_flows(), 1);

    // Healthy QoS for the surviving flow: the next poll leaves it
    // admitted and counts it as kept (one bulk increment per admitted
    // flow when the matrix re-evaluates inside the region).
    for i in 0..50u64 {
        gw.record_delivery(
            &keys[1],
            Instant::from_millis(i * 10),
            Instant::from_millis(i * 10 + 5),
            1400,
        );
    }
    let kept = gw.poll(Instant::from_secs(20));
    assert!(kept.is_empty(), "a healthy matrix must revoke nothing");
    keeps += gw.admitted_flows() as u64;
    assert_eq!(gw.admitted_flows(), 1);

    // One of the two originally admitted flows was revoked; departing
    // both must count exactly one real departure.
    gw.flow_departed(&keys[0]);
    gw.flow_departed(&keys[1]);
    assert_eq!(gw.admitted_flows(), 0);

    let snap = gw.merged_metrics();
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
    assert_eq!(snap.counter("middlebox.polls"), Some(3));
    assert_eq!(snap.counter("middlebox.departures"), Some(1));
    // One latency observation per executed poll.
    assert_eq!(
        snap.histogram("middlebox.poll_latency_ns").unwrap().count,
        3
    );

    // The classifier's own instruments live in the registry it was
    // built with.
    let classifier = gw.shutdown().expect("the gateway trains");
    let own = reg.snapshot();
    assert_eq!(
        own.counter("admittance.observations"),
        Some(classifier.num_observations())
    );
    assert_eq!(
        own.counter("admittance.retrains"),
        Some(classifier.retrain_count())
    );

    // One decision-log event per arrival decision and revocation (the
    // decision path reads no clock), mirroring the counters, with
    // explainable reasons and margins on the online-phase verdicts.
    let shard = gw.take_shards().pop().unwrap();
    assert_eq!(
        shard.decision_log().total_pushed(),
        admits + rejected_flows + revokes
    );
    let log = shard.decision_log().snapshot();
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
    let json = snap.to_json();
    assert!(json.contains("\"middlebox.admits\":2"));
    let csv = snap.to_csv();
    assert!(csv.contains("middlebox.revokes,counter,1"));
}

//! Crash-safety end-to-end tests: kill-and-restore of a live gateway,
//! corrupt checkpoints degrading to the occupancy fallback (not
//! crashing, not blindly admitting), and a multi-seed fault-injection
//! sweep over the whole pipeline.
//!
//! Every test here is robust to `EXBOX_FAULTS` carrying the
//! retrain/poll fault kinds (CI re-runs this suite with them armed);
//! checkpoint-read faults are always set explicitly so the expected
//! outcome is deterministic.

use std::path::PathBuf;

use exbox::core::qoe::QosScale;
use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;

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

fn acfg() -> AdmittanceConfig {
    AdmittanceConfig {
        batch_size: 8,
        ..AdmittanceConfig::default()
    }
}

/// A classifier trained online to admit at most two streaming flows.
fn trained_classifier(reg: &MetricsRegistry) -> AdmittanceClassifier {
    let mut ac = AdmittanceClassifier::with_registry(acfg(), reg);
    for n in 0..80u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 2 { Label::Pos } else { Label::Neg };
        ac.observe(mat, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
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

/// Drive `flows` distinct streaming flows to a classified decision
/// each; returns the last action per flow.
fn drive_flows(gw: &mut ConcurrentGateway, first_id: u32, flows: u32) -> Vec<Action> {
    (0..flows)
        .map(|i| {
            let key = FlowKey::synthetic(first_id + i, first_id + i, 1, Protocol::Tcp);
            streaming_pkts(key, 12)
                .iter()
                .map(|p| gw.process_packet(p, SnrLevel::High))
                .last()
                .unwrap()
        })
        .collect()
}

/// A gateway around `classifier` whose decisions do not depend on
/// whatever `EXBOX_FAULTS` is set to.
fn fault_free_gateway(classifier: AdmittanceClassifier) -> ConcurrentGateway {
    ConcurrentGateway::with_fault_plan(
        GatewayConfig::default(),
        estimator(),
        classifier,
        FaultPlan::disabled(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exbox-crash-safety-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Kill-and-restore: a gateway checkpointed mid-operation comes back
/// online (no re-bootstrap) and reaches the same verdicts on the same
/// traffic as the original.
#[test]
fn gateway_kill_and_restore_resumes_where_it_left_off() {
    let reg = MetricsRegistry::new();
    let mut gw = fault_free_gateway(trained_classifier(&reg));
    let before = drive_flows(&mut gw, 1, 4);
    let path = temp_path("gateway.ckpt");
    gw.checkpoint_to_path(&path).expect("checkpoint must write");
    drop(gw); // the crash

    // No poll runs below, so ambient retrain/poll faults cannot fire.
    let reg2 = MetricsRegistry::new();
    let (mut restored, err) = ConcurrentGateway::recover_from_path(
        GatewayConfig::default(),
        acfg(),
        estimator(),
        &path,
        &reg2,
    );
    assert!(err.is_none(), "restore must succeed");
    assert!(!restored.is_recovering());
    assert!(!restored.is_degraded());
    assert_eq!(reg2.snapshot().counter("recovery.restores").unwrap(), 1);
    // Same traffic, same verdicts: 2 admits then 2 rejects against the
    // <= 2 streaming-flow region.
    let after = drive_flows(&mut restored, 1, 4);
    assert_eq!(after, before);
    assert_eq!(restored.admitted_flows(), 2);
    assert_eq!(
        restored.shutdown().unwrap().phase(),
        Phase::Online,
        "no re-bootstrap"
    );

    std::fs::remove_file(&path).ok();
}

/// A corrupt checkpoint is rejected with an error — and the gateway
/// keeps serving through the occupancy fallback instead of dying or
/// admitting everything, observable in `recovery.*` metrics.
#[test]
fn corrupt_checkpoint_degrades_but_keeps_serving() {
    let reg = MetricsRegistry::new();
    let gw = fault_free_gateway(trained_classifier(&reg));
    let path = temp_path("corrupt.ckpt");
    gw.checkpoint_to_path(&path).unwrap();
    drop(gw);

    // Flip one byte in the middle of the file (bit rot / torn sector).
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let reg2 = MetricsRegistry::new();
    let (mut degraded, err) = ConcurrentGateway::recover_from_path(
        GatewayConfig {
            middlebox: MiddleboxConfig {
                fallback_max_flows: 2,
                ..MiddleboxConfig::default()
            },
            ..GatewayConfig::default()
        },
        acfg(),
        estimator(),
        &path,
        &reg2,
    );
    assert!(err.is_some(), "corruption must surface an error");
    assert!(degraded.is_recovering());
    assert!(degraded.is_degraded());
    assert_eq!(
        reg2.snapshot().counter("recovery.restores").unwrap_or(0),
        0,
        "a rejected checkpoint must not count as a restore"
    );

    // Still serving: the MaxClient fallback admits up to its cap and
    // rejects beyond it — no panic, no admit-everything bootstrap.
    let actions = drive_flows(&mut degraded, 10, 4);
    assert_eq!(
        actions,
        vec![Action::Forward, Action::Forward, Action::Drop, Action::Drop],
        "fallback must cap occupancy at 2"
    );
    let fallbacks = degraded
        .merged_metrics()
        .counter("recovery.fallback_decisions")
        .unwrap();
    assert!(
        fallbacks >= 4,
        "expected >= 4 fallback decisions, got {fallbacks}"
    );
    let shard = degraded.take_shards().pop().unwrap();
    let events = shard.decision_log().snapshot();
    assert!(!events.is_empty());
    for ev in &events {
        assert_eq!(ev.reason, DecisionReason::DegradedFallback);
        assert_eq!(ev.margin, None, "no model, no margin");
    }

    std::fs::remove_file(&path).ok();
}

/// The full fault matrix, many seeds: retrain failures,
/// non-convergence, poll errors and checkpoint read faults all firing
/// together must never panic, and every mangled checkpoint load must
/// come back as a clean error (or a clean success when the mangle
/// happened to be harmless — never a wrong model).
#[test]
fn full_fault_sweep_never_panics() {
    let base_reg = MetricsRegistry::new();
    let mut seed_ckpt = Vec::new();
    save_checkpoint(&trained_classifier(&base_reg), &estimator(), &mut seed_ckpt).unwrap();
    let path = temp_path("sweep.ckpt");

    let mut total_injected = 0u64;
    for seed in 1..=10u64 {
        let reg = MetricsRegistry::new();
        let (classifier, est) = load_checkpoint(&seed_ckpt[..], acfg(), &reg).unwrap();
        let plan = FaultPlan::with_registry(
            &[
                (FaultKind::RetrainFail, 0.5),
                (FaultKind::RetrainNonConverge, 0.4),
                (FaultKind::CheckpointCorrupt, 0.6),
                (FaultKind::CheckpointTruncate, 0.4),
                (FaultKind::PollError, 0.5),
            ],
            seed,
            &reg,
        );
        let mut gw = ConcurrentGateway::with_fault_plan(
            GatewayConfig::default(),
            est,
            classifier,
            plan.clone(),
        );

        let mut buf = Vec::new();
        for round in 0..12u32 {
            let key = FlowKey::synthetic(100 + round, round, 1, Protocol::Tcp);
            for p in streaming_pkts(key, 12) {
                gw.process_packet(&p, SnrLevel::High);
            }
            for i in 0..20u64 {
                gw.record_delivery(
                    &key,
                    Instant::from_millis(i * 10),
                    Instant::from_millis(i * 10 + 5),
                    1400,
                );
            }
            gw.poll(Instant::from_secs(3 * (round as u64 + 1)));

            // Checkpoint under fire: the write always succeeds; a
            // mangled read must fail cleanly or load the real thing.
            gw.checkpoint_to_path(&path).unwrap();
            buf = std::fs::read(&path).unwrap();
            let mut mangled = buf.clone();
            plan.mangle_checkpoint(&mut mangled);
            let probe = MetricsRegistry::new();
            match load_checkpoint(&mangled[..], acfg(), &probe) {
                Ok(_) => assert_eq!(mangled, buf, "a changed stream must never load"),
                Err(_) => assert_ne!(mangled, buf, "pristine stream must load"),
            }
        }
        // The last checkpoint holds the trainer's state as it stopped.
        let live = gw.shutdown().unwrap();
        let (written, _) = load_checkpoint(&buf[..], acfg(), &MetricsRegistry::new()).unwrap();
        assert_eq!(written.num_samples(), live.num_samples());
        total_injected += plan.injected();
    }
    assert!(total_injected > 0, "the sweep must actually inject faults");
    std::fs::remove_file(&path).ok();
}

/// Concurrent gateway: retrain-failure injection fires on the
/// **background trainer**, not the serving path — the shards keep
/// serving the last good snapshot (no new epoch is published, no
/// degraded fallback engages) while every retrain attempt fails.
#[test]
fn concurrent_retrain_faults_hit_trainer_not_serving_path() {
    let reg = MetricsRegistry::new();
    let classifier = trained_classifier(&reg);
    let plan = FaultPlan::with_registry(&[(FaultKind::RetrainFail, 1.0)], 7, &reg);
    let cfg = exbox::core::gateway::GatewayConfig {
        shards: 2,
        ..Default::default()
    };
    let mut gw = exbox::core::gateway::ConcurrentGateway::with_fault_plan(
        cfg,
        estimator(),
        classifier,
        plan,
    );

    // Feed enough labelled batches to trigger several retrain attempts
    // (batch_size 8); every one of them fails on the trainer thread.
    for n in 0..64u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        let y = if total <= 2 {
            exbox::ml::Label::Pos
        } else {
            exbox::ml::Label::Neg
        };
        assert!(gw.inject_observation(mat, y));
    }
    assert!(gw.flush_trainer());

    let failures = reg
        .snapshot()
        .counter("recovery.retrain_failures")
        .unwrap_or(0);
    assert!(failures > 0, "retrain faults must fire on the trainer");
    assert_eq!(
        gw.publish_count(),
        0,
        "a failed retrain must not publish a new snapshot"
    );
    assert!(
        !gw.is_degraded(),
        "the pre-fault model must keep serving (not the fallback)"
    );
    // The learnt <= 2 streaming region still decides admissions.
    let verdicts: Vec<Action> = (1..=4u32)
        .map(|id| {
            let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
            streaming_pkts(key, 12)
                .iter()
                .map(|p| gw.process_packet(p, SnrLevel::High))
                .last()
                .unwrap()
        })
        .collect();
    assert_eq!(
        verdicts,
        vec![Action::Forward, Action::Forward, Action::Drop, Action::Drop]
    );
    let merged = gw.merged_metrics();
    assert_eq!(
        merged.counter("recovery.fallback_decisions").unwrap_or(0),
        0,
        "no shard may have fallen back to the occupancy baseline"
    );
}

/// Concurrent gateway: a failed restore degrades every shard to the
/// occupancy fallback, and the gateway **heals through the trainer** —
/// once re-learnt state is published, the shards flip back to
/// region-based admission without any serving-path intervention.
#[test]
fn concurrent_recovery_heals_through_background_trainer() {
    let reg = MetricsRegistry::new();
    let cfg = exbox::core::gateway::GatewayConfig {
        shards: 2,
        middlebox: MiddleboxConfig {
            fallback_max_flows: 2,
            ..MiddleboxConfig::default()
        },
        ..Default::default()
    };
    let missing = temp_path("never-written.ckpt");
    std::fs::remove_file(&missing).ok();
    let (mut gw, err) = exbox::core::gateway::ConcurrentGateway::recover_from_path(
        cfg,
        acfg(),
        estimator(),
        &missing,
        &reg,
    );
    assert!(err.is_some(), "missing checkpoint must surface an error");
    assert!(gw.is_recovering());
    assert!(gw.is_degraded());

    // Degraded serving: the occupancy fallback caps at 2 flows on
    // every shard (shared matrix, so the cap is global).
    let verdicts: Vec<Action> = (10..=13u32)
        .map(|id| {
            let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
            streaming_pkts(key, 12)
                .iter()
                .map(|p| gw.process_packet(p, SnrLevel::High))
                .last()
                .unwrap()
        })
        .collect();
    assert_eq!(
        verdicts,
        vec![Action::Forward, Action::Forward, Action::Drop, Action::Drop],
        "fallback must cap global occupancy at 2"
    );
    let merged = gw.merged_metrics();
    assert!(merged.counter("recovery.fallback_decisions").unwrap_or(0) >= 4);

    // Heal: feed labelled observations until the trainer publishes a
    // model. Generous cap so ambient EXBOX_FAULTS retrain failures
    // only delay the heal, never flake the test.
    'heal: for _round in 0..200u32 {
        for n in 0..8u32 {
            let total = n % 8;
            let mut mat = TrafficMatrix::empty();
            for _ in 0..total {
                mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
            }
            let y = if total <= 2 {
                exbox::ml::Label::Pos
            } else {
                exbox::ml::Label::Neg
            };
            assert!(gw.inject_observation(mat, y));
        }
        assert!(gw.flush_trainer());
        if !gw.is_recovering() {
            break 'heal;
        }
    }
    assert!(!gw.is_recovering(), "trainer must heal the gateway");
    assert!(!gw.is_degraded());
    assert!(gw.publish_count() >= 1);
    // Fresh arrivals are decided by the re-learnt region again: the
    // fallback counter must not move any further.
    let fallbacks_at_heal = gw
        .merged_metrics()
        .counter("recovery.fallback_decisions")
        .unwrap_or(0);
    let key = FlowKey::synthetic(99, 99, 1, Protocol::Tcp);
    for p in streaming_pkts(key, 12) {
        gw.process_packet(&p, SnrLevel::High);
    }
    assert_eq!(
        gw.merged_metrics()
            .counter("recovery.fallback_decisions")
            .unwrap_or(0),
        fallbacks_at_heal,
        "post-heal decisions must come from the model, not the fallback"
    );
}

/// Smoke: a default gateway (whatever `EXBOX_FAULTS` says) serves a
/// mixed workload with consistent bookkeeping and no panics.
#[test]
fn default_gateway_serves_under_ambient_faults() {
    let reg = MetricsRegistry::new();
    let mut gw = ConcurrentGateway::new(
        GatewayConfig::default(),
        estimator(),
        AdmittanceClassifier::with_registry(acfg(), &reg),
    );
    let mut fed = 0u64;
    for round in 0..8u32 {
        let key = FlowKey::synthetic(round + 1, round + 1, 1, Protocol::Tcp);
        for p in streaming_pkts(key, 12) {
            gw.process_packet(&p, SnrLevel::High);
            fed += 1;
        }
        for i in 0..20u64 {
            gw.record_delivery(
                &key,
                Instant::from_millis(i * 10),
                Instant::from_millis(i * 10 + 5),
                1400,
            );
        }
        gw.poll(Instant::from_secs(3 * (round as u64 + 1)));
    }
    let snap = gw.merged_metrics();
    assert_eq!(snap.counter("middlebox.packets").unwrap(), fed);
    let admits = snap.counter("middlebox.admits").unwrap_or(0);
    let rejects = snap.counter("middlebox.rejects").unwrap_or(0);
    assert!(admits + rejects > 0, "flows must reach decisions");
    // No departures in this workload, so the standing flow count is
    // exactly the admissions minus later poll revocations.
    let revokes = snap.counter("middlebox.revokes").unwrap_or(0);
    assert_eq!(gw.admitted_flows() as u64, admits - revokes);
}

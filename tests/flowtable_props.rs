//! Property tests for the slab flow-state layer (`exbox-core::flowtable`)
//! and the incremental-polling determinism contract.
//!
//! * [`FlowMap`] must behave exactly like `HashMap<FlowKey, V>` plus an
//!   insertion-order list, under arbitrary churn including slot reuse:
//!   fresh keys append, overwrites keep position and handle, removal +
//!   re-insert moves to the tail, stale handles always miss.
//! * [`RejectedRing`] must behave exactly like a bounded FIFO of live
//!   records: duplicate inserts are no-ops, departures delete, evictions
//!   drop the oldest live record only.
//! * A timer-wheel gateway (`poll_wheel: true`) must return verdicts
//!   identical to the full-scan gateway (`poll_wheel: false`) over any
//!   interleaving of arrivals, QoS reports, departures and polls — the
//!   scan path is kept as the reference the wheel is checked against.

use std::collections::{HashMap, VecDeque};

use exbox::core::{FlowMap, FlowSlot, RejectedRing};
use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;
use proptest::prelude::*;

fn key(n: u32) -> FlowKey {
    FlowKey::synthetic(n, n, 1, Protocol::Tcp)
}

/// Ops over a small key space so sequences revisit keys (slot reuse,
/// overwrite, re-insert) instead of only growing.
fn map_ops_strategy() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    prop::collection::vec((0u8..4, 0u32..12, 0u32..1000), 1..150)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `FlowMap` == `HashMap` + insertion-order vector, under any op
    /// sequence; handles stay stable while live and miss once stale.
    #[test]
    fn flowmap_matches_hashmap_model(ops in map_ops_strategy()) {
        let mut map: FlowMap<u64> = FlowMap::new();
        let mut model: HashMap<FlowKey, u64> = HashMap::new();
        let mut order: Vec<FlowKey> = Vec::new();
        let mut live: HashMap<FlowKey, FlowSlot> = HashMap::new();
        let mut stale: Vec<FlowSlot> = Vec::new();

        for &(kind, id, val) in &ops {
            let k = key(id);
            // Three insert arms to one remove arm keeps the map
            // populated enough to exercise churn.
            if kind < 3 {
                let slot = map.insert(k, val as u64);
                if model.insert(k, val as u64).is_none() {
                    order.push(k); // fresh key appends at the tail
                }
                if let Some(prev) = live.insert(k, slot) {
                    prop_assert_eq!(prev, slot, "overwrite must keep the handle");
                }
            } else {
                prop_assert_eq!(map.remove(&k), model.remove(&k));
                if let Some(slot) = live.remove(&k) {
                    order.retain(|x| x != &k);
                    stale.push(slot);
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }

        // Point lookups agree over the whole key space.
        for id in 0u32..12 {
            let k = key(id);
            prop_assert_eq!(map.get(&k), model.get(&k));
            prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
        }

        // Iteration is exactly insertion order, on every access path.
        let want: Vec<(FlowKey, u64)> = order.iter().map(|k| (*k, model[k])).collect();
        let via_iter: Vec<(FlowKey, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(&via_iter, &want);
        prop_assert_eq!(map.front().map(|(k, v)| (*k, *v)), want.first().copied());
        let mut slots = Vec::new();
        map.collect_slots(&mut slots);
        let via_slots: Vec<(FlowKey, u64)> = slots
            .iter()
            .map(|&s| {
                let (k, v) = map.get_slot(s).expect("collected handles are live");
                (*k, *v)
            })
            .collect();
        prop_assert_eq!(&via_slots, &want);

        // Live handles resolve to their key; stale handles never do,
        // even when the arena slot was reused since.
        for (k, slot) in &live {
            let resolved = map.get_slot(*slot).map(|(kk, vv)| (*kk, *vv));
            prop_assert_eq!(resolved, Some((*k, model[k])));
            prop_assert_eq!(map.slot_of(k), Some(*slot));
        }
        for slot in &stale {
            prop_assert!(map.get_slot(*slot).is_none(), "stale handle must miss");
        }
    }

    /// `RejectedRing` == a bounded FIFO over live records.
    #[test]
    fn rejected_ring_matches_fifo_model(
        cap in 1usize..6,
        ops in prop::collection::vec((0u8..3, 0u32..10), 1..200),
    ) {
        let mut ring = RejectedRing::new(cap);
        let mut model: VecDeque<FlowKey> = VecDeque::new();
        let mut model_evictions = 0u64;
        let mut model_inserts = 0u64;

        for &(kind, id) in &ops {
            let k = key(id);
            if kind < 2 {
                let ins = ring.insert(k);
                let mut want_evicted = 0u64;
                if !model.contains(&k) {
                    model.push_back(k);
                    model_inserts += 1;
                    while model.len() > cap {
                        model.pop_front();
                        want_evicted += 1;
                    }
                }
                model_evictions += want_evicted;
                prop_assert_eq!(ins.evicted, want_evicted);
            } else {
                ring.remove(&k);
                model.retain(|x| x != &k);
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert!(ring.len() <= cap, "ring must stay bounded");
            for probe in 0u32..10 {
                let pk = key(probe);
                prop_assert_eq!(ring.contains(&pk), model.contains(&pk));
            }
        }
        prop_assert_eq!(ring.inserts(), model_inserts);
        prop_assert_eq!(ring.evictions(), model_evictions);
    }
}

// ---------------------------------------------------------------------------
// Wheel-poll == scan-poll verdict equivalence on a live-training gateway.

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
        exbox::core::qoe::QosScale::new(1e3, 1e8),
    )
}

/// A classifier trained online to admit at most 2 streaming flows,
/// with a small retrain batch so poll observations matter quickly.
/// Training is deterministic, so both gateways get identical models.
fn trained_classifier(reg: &MetricsRegistry) -> AdmittanceClassifier {
    let mut ac = AdmittanceClassifier::with_registry(
        AdmittanceConfig {
            batch_size: 8,
            ..AdmittanceConfig::default()
        },
        reg,
    );
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

/// A gateway polling by due list or by scan, with its estimator's
/// `qoe.*` counters on a registry of its own.
fn gateway(poll_wheel: bool) -> (ConcurrentGateway, MetricsRegistry) {
    let cfg = GatewayConfig {
        middlebox: MiddleboxConfig {
            poll_wheel,
            ..MiddleboxConfig::default()
        },
        ..GatewayConfig::default()
    };
    let reg = MetricsRegistry::new();
    let est = estimator();
    let est = QoeEstimator::with_registry(AppClass::ALL.map(|c| *est.model(c)), est.scale(), &reg);
    let gw = ConcurrentGateway::with_fault_plan(
        cfg,
        est,
        trained_classifier(&reg),
        FaultPlan::disabled(),
    );
    (gw, reg)
}

/// One step of the scripted cell, applied identically to both sides.
fn apply(
    gw: &mut ConcurrentGateway,
    t_ms: u64,
    kind: u8,
    id: u32,
) -> Option<Vec<(FlowKey, PollVerdict)>> {
    let k = key(id);
    match kind {
        // Arrival: enough packets to classify (window 8) and decide.
        0 => {
            for i in 0..10u64 {
                let p = Packet::new(
                    Instant::from_millis(t_ms + 2 * i),
                    1400,
                    k,
                    Direction::Downlink,
                    i,
                );
                gw.process_packet(&p, SnrLevel::High);
            }
            None
        }
        // Healthy QoS window for the flow (if admitted).
        1 => {
            for i in 0..5u64 {
                gw.record_delivery(
                    &k,
                    Instant::from_millis(t_ms + i * 10),
                    Instant::from_millis(t_ms + i * 10 + 5),
                    1400,
                );
            }
            None
        }
        // Terrible QoS window: near-second delays on tiny packets.
        2 => {
            for i in 0..5u64 {
                gw.record_delivery(
                    &k,
                    Instant::from_millis(t_ms + i * 1_000),
                    Instant::from_millis(t_ms + i * 1_000 + 900),
                    50,
                );
            }
            None
        }
        // Drop-only window: evidence-free on both poll paths.
        3 => {
            for _ in 0..3 {
                gw.record_drop(&k);
            }
            None
        }
        4 => {
            gw.flow_departed(&k);
            None
        }
        // Poll (may be an interval no-op; both sides share the clock),
        // then let the trainer learn its observation before the next
        // step, as a trainer running inside the poll would.
        _ => {
            let verdicts = gw.poll(Instant::from_millis(t_ms));
            assert!(gw.flush_trainer());
            Some(verdicts)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over any schedule of arrivals, deliveries, drops, departures
    /// and polls, the timer-wheel gateway returns verdicts, state and
    /// counters identical to the full-scan gateway.
    #[test]
    fn wheel_polls_equal_scan_polls(
        ops in prop::collection::vec((0u8..6, 0u32..6), 1..80),
    ) {
        let (mut wheel, wheel_qoe) = gateway(true);
        let (mut scan, scan_qoe) = gateway(false);
        let mut t_ms: u64 = 0;
        for &(kind, id) in &ops {
            // Half a poll interval per step: consecutive polls
            // alternate between executing and no-op on both sides.
            t_ms += 1_000;
            let w = apply(&mut wheel, t_ms, kind, id);
            let s = apply(&mut scan, t_ms, kind, id);
            prop_assert_eq!(w, s, "poll verdicts diverged at t={}ms", t_ms);
            prop_assert_eq!(wheel.admitted_flows(), scan.admitted_flows());
            prop_assert_eq!(wheel.matrix(), scan.matrix());
        }
        // Final poll after a full interval: flush any pending window.
        t_ms += 5_000;
        prop_assert_eq!(
            apply(&mut wheel, t_ms, 5, 0),
            apply(&mut scan, t_ms, 5, 0)
        );

        // The exact counter trail and the learnt state must agree —
        // same observations fed, same revocations taken.
        let (w, s) = (wheel.merged_metrics(), scan.merged_metrics());
        for name in [
            "middlebox.packets",
            "middlebox.admits",
            "middlebox.rejects",
            "middlebox.keeps",
            "middlebox.revokes",
            "middlebox.polls",
            "middlebox.departures",
        ] {
            prop_assert_eq!(w.counter(name), s.counter(name), "counter {}", name);
        }
        // Verdicts tallied once per poll add up to the same totals on
        // both paths.
        let (w, s) = (wheel_qoe.snapshot(), scan_qoe.snapshot());
        for name in ["qoe.acceptable", "qoe.unacceptable"] {
            prop_assert_eq!(w.counter(name), s.counter(name), "counter {}", name);
        }
        let (w, s) = (wheel.shutdown().unwrap(), scan.shutdown().unwrap());
        prop_assert_eq!(w.num_samples(), s.num_samples());
        prop_assert_eq!(w.num_observations(), s.num_observations());
        prop_assert_eq!(w.retrain_count(), s.retrain_count());
    }
}

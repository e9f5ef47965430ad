//! Layer probes: the inputs one workload pass recorded, replayed into
//! one layer's public functions alone. Each probe reports nanoseconds
//! per operation (median over a few repetitions on fresh state); the
//! README says which end-to-end metric each should move.
//!
//! Probes touch no layer's source and share no state with the passes:
//! they run after the measured repetitions of a traced run.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant as WallClock;

use exbox_core::matrix::{FlowKind, SnrLevel};
use exbox_core::{
    AdmittanceClassifier, FlowMap, FlowSlot, ModelSnapshot, RejectedRing, SharedMatrix,
    SnapshotCell, TimerWheel,
};
use exbox_net::{
    AppClass, Duration, EarlyClassifier, FlowKey, FlowTable, Instant, Packet, Protocol, QosMeter,
};
use exbox_obs::MetricsRegistry;

use crate::cpu::Pin;
use crate::stats::median;
use crate::traffic::{estimator, live_trainer_config, WINDOW};
use crate::workloads::{serving_gateway, Workload};

const REPS: usize = 5;

/// Median over [`REPS`] of `ns / operations`: `setup` builds fresh
/// state outside the clock, `work` runs on it and returns how many
/// operations it did.
fn probe<S>(mut setup: impl FnMut() -> S, mut work: impl FnMut(&mut S) -> usize) -> f64 {
    let per_op: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let begun = WallClock::now();
            let ops = work(&mut state);
            let spent = begun.elapsed().as_nanos() as f64;
            black_box(&state);
            spent / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// `pin` is what confined the passes to one CPU; the single-threaded
/// probes run under it too, the pipeline probe after it is dropped.
pub fn run(
    w: &dyn Workload,
    recorded: &[(Packet, SnrLevel)],
    quick: bool,
    pin: Pin,
) -> Vec<(&'static str, f64)> {
    let iterations = if quick { 10_000 } else { 100_000 };
    let mut out = Vec::new();

    // Flow keys in first-seen order, and as many keys no pass used.
    let mut seen = HashSet::new();
    let keys: Vec<FlowKey> = recorded
        .iter()
        .map(|(p, _)| p.flow)
        .filter(|k| seen.insert(*k))
        .collect();
    let absent: Vec<FlowKey> = (0..keys.len() as u32)
        .map(|i| FlowKey::synthetic(i, i >> 16, 200, Protocol::Udp))
        .collect();
    let full_map = || {
        let mut map = FlowMap::new();
        for (i, k) in keys.iter().enumerate() {
            map.insert(*k, i as u64);
        }
        map
    };

    // The gateway classifies only packets of flows it has not decided.
    let window: Vec<&Packet> = recorded
        .iter()
        .map(|(p, _)| p)
        .filter(|p| p.seq < WINDOW as u64)
        .collect();
    out.push((
        "net.classify.observe_ns",
        probe(
            || EarlyClassifier::with_default_profiles(WINDOW),
            |early| {
                for p in &window {
                    black_box(early.observe(p));
                }
                window.len()
            },
        ),
    ));
    out.push((
        "net.flow.observe_ns",
        probe(FlowTable::new, |table| {
            for (p, _) in recorded {
                black_box(table.observe(p));
            }
            recorded.len()
        }),
    ));

    out.push((
        "core.flowtable.hit_ns",
        probe(full_map, |map| {
            for (p, _) in recorded {
                black_box(map.get(&p.flow));
            }
            recorded.len()
        }),
    ));
    out.push((
        "core.flowtable.miss_ns",
        probe(full_map, |map| {
            for k in &absent {
                black_box(map.get(k));
            }
            absent.len()
        }),
    ));
    out.push((
        "core.flowtable.insert_ns",
        probe(FlowMap::new, |map| {
            for (i, k) in keys.iter().enumerate() {
                black_box(map.insert(*k, i as u64));
            }
            keys.len()
        }),
    ));
    out.push((
        "core.flowtable.remove_ns",
        probe(full_map, |map| {
            for k in &keys {
                black_box(map.remove(k));
            }
            keys.len()
        }),
    ));
    out.push((
        "core.flowtable.rejected_probe_ns",
        probe(
            || {
                // Every fourth flow rejected, up to the ring's default size.
                let mut ring = RejectedRing::new(4096);
                for k in keys.iter().step_by(4).take(4096) {
                    ring.insert(*k);
                }
                ring
            },
            |ring| {
                for (p, _) in recorded {
                    black_box(ring.contains(&p.flow));
                }
                recorded.len()
            },
        ),
    ));
    let slots = || -> Vec<FlowSlot> {
        let mut map = FlowMap::new();
        keys.iter().map(|k| map.insert(*k, 0u64)).collect()
    };
    out.push((
        "core.flowtable.wheel_schedule_ns",
        probe(
            || (TimerWheel::new(), slots()),
            |(wheel, slots)| {
                for &slot in slots.iter() {
                    wheel.schedule(slot, 1);
                }
                slots.len()
            },
        ),
    ));
    out.push((
        "core.flowtable.wheel_advance_ns_per_due",
        probe(
            || {
                let mut wheel = TimerWheel::new();
                for slot in slots() {
                    wheel.schedule(slot, 1);
                }
                (wheel, Vec::with_capacity(keys.len()))
            },
            |(wheel, due)| {
                wheel.advance(1, due);
                due.len()
            },
        ),
    ));

    out.push((
        "core.matrix.shared_rmw_ns",
        probe(SharedMatrix::new, |shared| {
            for i in 0..iterations {
                let kind = FlowKind::new(AppClass::from_index(i % AppClass::COUNT), SnrLevel::High);
                shared.add(kind);
                black_box(shared.snapshot());
                shared.remove(kind);
            }
            iterations
        }),
    ));

    // The admittance layer on the workload's own observations, as the
    // live trainer would absorb them; one run, its clock split between
    // plain observations and those that retrained.
    let observations = w.observations();
    let observations = &observations[..observations.len().min(4_800)];
    let mut classifier =
        AdmittanceClassifier::with_registry(live_trainer_config(), &MetricsRegistry::new());
    let (mut observe_ns, mut plain, mut retrain_ns, mut retrains) = (0u128, 0u32, 0u128, 0u32);
    for &(matrix, label) in observations {
        let begun = WallClock::now();
        let retrained = classifier.observe(matrix, label);
        let spent = begun.elapsed().as_nanos();
        if retrained {
            retrain_ns += spent;
            retrains += 1;
        } else {
            observe_ns += spent;
            plain += 1;
        }
    }
    out.push((
        "core.admittance.observe_ns",
        observe_ns as f64 / f64::from(plain.max(1)),
    ));
    out.push((
        "core.admittance.retrain_ns",
        retrain_ns as f64 / f64::from(retrains.max(1)),
    ));
    out.push(("core.admittance.retrains", f64::from(retrains)));

    let snapshot = ModelSnapshot::from_classifier(1, &classifier);
    out.push((
        "core.snapshot.pin_ns",
        probe(
            || SnapshotCell::new(snapshot.clone()).reader(),
            |reader| {
                for _ in 0..iterations {
                    black_box(reader.pin().epoch());
                }
                iterations
            },
        ),
    ));
    let decisions = iterations / 5;
    out.push((
        "core.snapshot.decide_ns",
        probe(
            || (),
            |()| {
                for (matrix, _) in observations.iter().cycle().take(decisions) {
                    black_box(snapshot.decide(matrix));
                }
                decisions
            },
        ),
    ));
    let builds = iterations / 50;
    out.push((
        "core.snapshot.build_ns",
        probe(
            || (),
            |()| {
                for epoch in 0..builds {
                    black_box(ModelSnapshot::from_classifier(epoch as u64, &classifier));
                }
                builds
            },
        ),
    ));
    out.push((
        "core.snapshot.publish_ns",
        probe(
            || {
                let cell = SnapshotCell::new(snapshot.clone());
                (cell, vec![snapshot.clone(); builds])
            },
            |(cell, fresh)| {
                let n = fresh.len();
                for snap in fresh.drain(..) {
                    cell.publish(snap);
                }
                n
            },
        ),
    ));

    let sent = Instant::from_secs(1);
    out.push((
        "net.qos.deliver_ns",
        probe(QosMeter::new, |meter| {
            for i in 0..iterations as u64 {
                let at = sent + Duration::from_micros(i);
                meter.deliver(at, at + Duration::from_millis(5), 1200);
            }
            iterations
        }),
    ));
    let metered = || {
        let mut meter = QosMeter::new();
        for i in 0..64 {
            let at = sent + Duration::from_millis(i);
            meter.deliver(at, at + Duration::from_millis(5), 1200);
        }
        meter
    };
    out.push((
        "net.qos.sample_ns",
        probe(metered, |meter| {
            for _ in 0..iterations {
                black_box(meter.sample());
            }
            iterations
        }),
    ));
    let qoe = estimator();
    let sample = metered().sample();
    out.push((
        "core.qoe.acceptable_ns",
        probe(
            || (),
            |()| {
                for i in 0..iterations {
                    let class = AppClass::from_index(i % AppClass::COUNT);
                    black_box(qoe.acceptable(class, black_box(&sample)));
                }
                iterations
            },
        ),
    ));

    // The pipeline data plane, one lane (dispatcher + one worker: two
    // busy threads, this box's `nproc`, so it gets both CPUs back),
    // against sequential driving of the same packets on the same model.
    drop(pin);
    let sequential: Vec<_> = {
        let mut gw = serving_gateway(snapshot.clone());
        recorded
            .chunks(256)
            .flat_map(|chunk| gw.process_packets(chunk))
            .collect()
    };
    let mut matches = true;
    let (mut ring_full, mut reorder) = (0.0, 0.0);
    out.push((
        "core.pipeline.pkt_ns",
        probe(
            || serving_gateway(snapshot.clone()),
            |gw| {
                let mut pipe = gw.start_pipeline();
                let mut verdicts = Vec::with_capacity(recorded.len());
                for chunk in recorded.chunks(256) {
                    pipe.ingest(chunk);
                    pipe.drain_verdicts(&mut verdicts);
                }
                verdicts.extend(gw.finish_pipeline(pipe));
                matches &= verdicts == sequential;
                let counters = gw.merged_metrics();
                ring_full = counters.counter("gateway.ring_full_stalls").unwrap_or(0) as f64;
                reorder = counters.counter("pipeline.reorder_stalls").unwrap_or(0) as f64;
                recorded.len()
            },
        ),
    ));
    out.push(("core.pipeline.ring_full_stalls", ring_full));
    out.push(("core.pipeline.reorder_stalls", reorder));
    out.push(("core.pipeline.verdicts_match", f64::from(u8::from(matches))));
    out
}

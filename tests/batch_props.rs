//! Split-equivalence property tests for batched packet ingest: over
//! **any** split of a packet stream into batches, `process_packets`
//! must reach verdicts byte-identical to per-packet
//! driving — including run-length-cache interactions (bursty streams),
//! the deferred counter flush, and model snapshots published between
//! batches. This is the contract that lets operators turn
//! `GatewayConfig::batch` up or down without ever changing an admission
//! decision — and, since the multi-core pipeline (DESIGN.md §10), turn
//! `GatewayConfig::shards` up or down without changing one either.

use std::collections::HashMap;
use std::sync::OnceLock;

use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;
use proptest::prelude::*;

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

/// A classifier trained online to admit at most `cap` streaming flows.
/// Training is deterministic, so two calls build bit-identical models.
fn trained_classifier(cap: u32, reg: &MetricsRegistry) -> AdmittanceClassifier {
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
        let y = if total <= cap { Label::Pos } else { Label::Neg };
        ac.observe(mat, y);
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
    ac
}

/// Published snapshots for the two capacity regions used below, built
/// once (training per proptest case would dominate the suite).
fn snapshot(cap: u32) -> ModelSnapshot {
    static TIGHT: OnceLock<ModelSnapshot> = OnceLock::new();
    static ROOMY: OnceLock<ModelSnapshot> = OnceLock::new();
    let (cell, epoch) = if cap == 2 { (&TIGHT, 1) } else { (&ROOMY, 2) };
    cell.get_or_init(|| {
        let reg = MetricsRegistry::new();
        ModelSnapshot::from_classifier(epoch, &trained_classifier(cap, &reg))
    })
    .clone()
}

/// Expand `(flow_id, run_len)` runs into a packet stream with
/// monotone timestamps and correct per-flow sequence numbers. Runs
/// are what make the batch paths interesting: consecutive same-flow
/// packets exercise the run-length verdict cache, interleavings break
/// it, and short runs leave flows unclassified (< 8 packets).
fn build_stream(runs: &[(u32, usize)]) -> Vec<(Packet, SnrLevel)> {
    let mut seq: HashMap<u32, u64> = HashMap::new();
    let mut out = Vec::new();
    let mut t = 0u64;
    for &(id, len) in runs {
        let key = FlowKey::synthetic(id, id, 1, Protocol::Tcp);
        for _ in 0..len {
            let s = seq.entry(id).or_insert(0);
            out.push((
                Packet::new(
                    Instant::from_millis(2 * t),
                    1400,
                    key,
                    Direction::Downlink,
                    *s,
                ),
                SnrLevel::High,
            ));
            *s += 1;
            t += 1;
        }
    }
    out
}

/// Cut `stream` into consecutive batches whose sizes cycle through
/// `sizes` — an arbitrary split, including size-1 batches (degenerate
/// per-packet) and batches spanning many flows.
fn split<'a>(stream: &'a [(Packet, SnrLevel)], sizes: &[usize]) -> Vec<&'a [(Packet, SnrLevel)]> {
    let mut out = Vec::new();
    let (mut i, mut k) = (0, 0);
    while i < stream.len() {
        let n = sizes[k % sizes.len()].clamp(1, stream.len() - i);
        out.push(&stream[i..i + n]);
        i += n;
        k += 1;
    }
    out
}

fn runs_strategy() -> impl Strategy<Value = Vec<(u32, usize)>> {
    prop::collection::vec((1u32..6, 1usize..12), 1..40)
}

fn sizes_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..17, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `ConcurrentGateway::process_packets` over any split == per-packet
    /// `process_packet`, for every supported shard count (maximal
    /// same-shard runs must preserve global arrival order), in
    /// verdicts, occupancy, admissions and the (batch-deferred)
    /// counters.
    #[test]
    fn gateway_batch_equals_per_packet_for_any_split(
        runs in runs_strategy(),
        sizes in sizes_strategy(),
        shards in 1usize..5,
    ) {
        let stream = build_stream(&runs);
        let cfg = GatewayConfig { shards, ..GatewayConfig::default() };
        let mut reference =
            ConcurrentGateway::serving_only(cfg.clone(), estimator(), snapshot(2));
        let expect: Vec<Action> = stream
            .iter()
            .map(|(p, snr)| reference.process_packet(p, *snr))
            .collect();
        let mut subject = ConcurrentGateway::serving_only(cfg, estimator(), snapshot(2));
        let mut got = Vec::with_capacity(stream.len());
        for chunk in split(&stream, &sizes) {
            got.extend(subject.process_packets(chunk));
        }
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(subject.matrix(), reference.matrix());
        prop_assert_eq!(subject.admitted_flows(), reference.admitted_flows());
        // The batch path defers counter updates to the end of each
        // batch; once flushed they must agree exactly.
        let (r, s) = (reference.merged_metrics(), subject.merged_metrics());
        for name in [
            "middlebox.packets",
            "middlebox.admits",
            "middlebox.rejects",
            "middlebox.drops_rejected",
        ] {
            prop_assert_eq!(r.counter(name), s.counter(name), "counter {}", name);
        }
    }

    /// A model published part-way through the stream: the batched run
    /// publishes at a batch boundary, the per-packet reference at the
    /// same packet index — verdicts must still match exactly. (The
    /// tight → roomy region swap changes real verdicts once three or
    /// more flows contend, so this exercises decisions under both
    /// snapshots plus the decision-cache interaction across the swap.)
    #[test]
    fn mid_stream_publication_keeps_split_equivalence(
        runs in runs_strategy(),
        sizes in sizes_strategy(),
        publish_pick in 0usize..64,
    ) {
        let stream = build_stream(&runs);
        let cfg = GatewayConfig { shards: 1, ..GatewayConfig::default() };
        let batches = split(&stream, &sizes);
        // Publish before batch `pi` — possibly before the first or
        // after the last — at stream offset `k`.
        let pi = publish_pick % (batches.len() + 1);
        let k: usize = batches[..pi].iter().map(|b| b.len()).sum();

        let mut reference =
            ConcurrentGateway::serving_only(cfg.clone(), estimator(), snapshot(2));
        let ref_cell = reference.snapshot_cell();
        let mut expect = Vec::with_capacity(stream.len());
        for (i, (p, snr)) in stream.iter().enumerate() {
            if i == k {
                ref_cell.publish(snapshot(4));
            }
            expect.push(reference.process_packet(p, *snr));
        }
        if k == stream.len() {
            ref_cell.publish(snapshot(4));
        }

        let mut subject = ConcurrentGateway::serving_only(cfg, estimator(), snapshot(2));
        let sub_cell = subject.snapshot_cell();
        let mut got = Vec::with_capacity(stream.len());
        for (ci, chunk) in batches.iter().enumerate() {
            if ci == pi {
                sub_cell.publish(snapshot(4));
            }
            got.extend(subject.process_packets(chunk));
        }
        if pi == batches.len() {
            sub_cell.publish(snapshot(4));
        }

        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(subject.matrix(), reference.matrix());
        prop_assert_eq!(subject.admitted_flows(), reference.admitted_flows());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multi-core pipeline over any split == per-packet sequential
    /// driving, in verdicts (global ingress order), matrix occupancy
    /// and admissions — for every supported worker count, with
    /// verdicts drained opportunistically mid-stream. This is the
    /// DESIGN.md §10 determinism contract: the shard count may change
    /// the core count, never a verdict.
    #[test]
    fn pipeline_equals_sequential_for_any_split(
        runs in runs_strategy(),
        sizes in sizes_strategy(),
        shards in 1usize..5,
    ) {
        let stream = build_stream(&runs);
        let cfg = GatewayConfig { shards, ..GatewayConfig::default() };
        let mut reference =
            ConcurrentGateway::serving_only(cfg.clone(), estimator(), snapshot(2));
        let expect: Vec<Action> = stream
            .iter()
            .map(|(p, snr)| reference.process_packet(p, *snr))
            .collect();

        let mut subject = ConcurrentGateway::serving_only(cfg, estimator(), snapshot(2));
        let mut pipe = subject.start_pipeline();
        let mut got = Vec::with_capacity(stream.len());
        for chunk in split(&stream, &sizes) {
            pipe.ingest(chunk);
            // Opportunistic mid-stream drain: whatever is ready must
            // already be in ingress order.
            pipe.drain_verdicts(&mut got);
        }
        got.extend(subject.finish_pipeline(pipe));
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(subject.matrix(), reference.matrix());
        prop_assert_eq!(subject.admitted_flows(), reference.admitted_flows());
    }

    /// A model republished part-way through a pipeline run: the
    /// pipeline quiesces (`flush`), publishes, and keeps ingesting; the
    /// per-packet reference publishes at the same stream offset.
    /// Verdicts, matrix and admissions must still match exactly, under
    /// every worker count — republication is only verdict-deterministic
    /// at a flush point, which is exactly how the trainer-facing driver
    /// uses it.
    #[test]
    fn pipeline_republication_at_flush_points_keeps_equivalence(
        runs in runs_strategy(),
        sizes in sizes_strategy(),
        shards in 1usize..5,
        publish_pick in 0usize..64,
    ) {
        let stream = build_stream(&runs);
        let cfg = GatewayConfig { shards, ..GatewayConfig::default() };
        let batches = split(&stream, &sizes);
        let pi = publish_pick % (batches.len() + 1);
        let k: usize = batches[..pi].iter().map(|b| b.len()).sum();

        let mut reference =
            ConcurrentGateway::serving_only(cfg.clone(), estimator(), snapshot(2));
        let ref_cell = reference.snapshot_cell();
        let mut expect = Vec::with_capacity(stream.len());
        for (i, (p, snr)) in stream.iter().enumerate() {
            if i == k {
                ref_cell.publish(snapshot(4));
            }
            expect.push(reference.process_packet(p, *snr));
        }
        if k == stream.len() {
            ref_cell.publish(snapshot(4));
        }

        let mut subject = ConcurrentGateway::serving_only(cfg, estimator(), snapshot(2));
        let sub_cell = subject.snapshot_cell();
        let mut pipe = subject.start_pipeline();
        let mut got = Vec::with_capacity(stream.len());
        for (ci, chunk) in batches.iter().enumerate() {
            if ci == pi {
                pipe.flush(&mut got);
                sub_cell.publish(snapshot(4));
            }
            pipe.ingest(chunk);
            pipe.drain_verdicts(&mut got);
        }
        got.extend(subject.finish_pipeline(pipe));
        if pi == batches.len() {
            sub_cell.publish(snapshot(4));
        }

        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(subject.matrix(), reference.matrix());
        prop_assert_eq!(subject.admitted_flows(), reference.admitted_flows());
    }
}

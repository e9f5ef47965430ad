//! Interleaving models for the gateway's load-bearing concurrency
//! primitives, driven by the vendored `exbox-loom` explorer.
//!
//! Only built under `--cfg exbox_loom`; run with
//! `RUSTFLAGS='--cfg exbox_loom' cargo test -p exbox-core --lib`
//! (or `scripts/loom_check.sh`). Every test here checks a *property*,
//! not just "no crash": a snapshot reader's view only moves forward in
//! publish order and a finished publish is visible to the next pin, a
//! visible publish count never runs ahead of its value, the
//! pipeline's SPSC ring (lossless in-order transfer with atomic batch
//! publication, fresh values out of reused slots across wraparound,
//! and the close-after-publish protocol that lets a worker exit
//! without stranding packets), the occupancy matrix's saturating
//! remove, and the shards' one-writer tally cells, whose registry
//! total a racing reader sees only grow and end exact. The trainer
//! queue is std's `sync_channel`; its shutdown drain is a stress test
//! in `gateway::trainer`.
//!
//! Bounds: every model runs under the explorer's default preemption
//! bound of 2 (documented in `DESIGN.md` §9) unless it passes an
//! explicit [`Config`]; `EXBOX_LOOM_EXHAUSTIVE=1` lifts the bound for
//! the nightly CI leg. Counterexamples dump replayable traces to
//! `EXBOX_LOOM_TRACE_DIR`.

use std::sync::Arc;

use exbox_loom::{explore, model, thread, Config};

use exbox_net::AppClass;
use exbox_obs::MetricsRegistry;

use crate::matrix::{FlowKind, SnrLevel};

use super::shard::SharedMatrix;
use super::snapshot::SnapshotCell;
use super::spsc;

/// 2 writers × 2 readers over one `SnapshotCell`, explored to
/// exhaustion within the preemption bound.
///
/// The publish order is read back from the final state: the value the
/// cell ends on was published second, the other one first. Properties
/// checked on every schedule:
/// * a reader's view never moves back in publish order (its second pin
///   is not older than its first);
/// * a pin after both writers joined never serves the initial value —
///   every reader, old or fresh, then pins the last publish.
#[test]
fn snapshot_two_writers_two_readers_exhaustive() {
    let report = explore(Config::default(), || {
        let cell = SnapshotCell::new(0u64);
        let mut writers = Vec::new();
        for v in 1..=2u64 {
            let cell = Arc::clone(&cell);
            writers.push(thread::spawn(move || cell.publish(v)));
        }
        let mut readers = Vec::new();
        for _ in 0..2 {
            let mut reader = cell.reader();
            readers.push(thread::spawn(move || {
                let first = *reader.pin();
                let second = *reader.pin();
                (first, second, reader)
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(cell.publish_count(), 2);
        let last = *cell.load();
        assert_ne!(last, 0, "published snapshot never became visible");
        // Position in publish order: initial, first publish, last.
        let rank = |v: u64| match v {
            0 => 0,
            v if v == last => 2,
            _ => 1,
        };
        for r in readers {
            let (first, second, mut reader) = r.join().unwrap();
            assert!(
                rank(first) <= rank(second),
                "view moved back: {first} then {second} (last publish {last})"
            );
            assert_eq!(*reader.pin(), last, "reader stuck on an old generation");
        }
        assert_eq!(*cell.reader().pin(), last);
    })
    .unwrap_or_else(|cex| {
        panic!(
            "snapshot model failed: {}\nreplay: EXBOX_LOOM_REPLAY='{}'",
            cex.message, cex.trace
        )
    });
    assert!(
        report.exhausted,
        "schedule space not exhausted within bounds: {report:?}"
    );
}

/// A visible count never runs ahead of its value: the writer stores
/// the count after the value, under the same lock, so a reader that
/// saw count `c` and then pins is served publish `c` or a later one.
/// Publish `n` carries the value `n`.
#[test]
fn snapshot_count_never_runs_ahead_of_value() {
    model(|| {
        let cell = SnapshotCell::new(0u64);
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.publish(1);
                cell.publish(2);
            })
        };
        let mut reader = cell.reader();
        for _ in 0..2 {
            let count = cell.publish_count();
            let value = *reader.pin();
            assert!(value >= count, "count {count} visible before its value");
        }
        writer.join().unwrap();
    });
}

/// The pipeline's SPSC ring under a racing producer and consumer,
/// explored to exhaustion within the preemption bound: no loss, no
/// duplication, no reorder — and **publish atomicity**: values pushed
/// in one batch become visible together, so a concurrent drain
/// observes a batch-aligned prefix (0, 2 or 4 values), never a torn
/// batch. Capacity ≥ item count, so neither side ever has to spin
/// (models stay finite without livelock heuristics).
#[test]
fn spsc_transfer_exhaustive_no_loss_no_tear() {
    let report = explore(Config::default(), || {
        let (mut tx, mut rx) = spsc::ring::<u64>(3);
        // Capacity rounds up to a power of two even under the shims.
        assert_eq!(tx.capacity(), 4);
        let producer = thread::spawn(move || {
            tx.push(0).unwrap();
            tx.push(1).unwrap();
            assert_eq!(tx.unpublished(), 2, "pushes published early");
            tx.publish();
            assert_eq!(tx.unpublished(), 0);
            tx.push(2).unwrap();
            tx.push(3).unwrap();
            tx.publish();
        });
        // Racing drains: each sees whatever prefix is published.
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                rx.drain_into(&mut got, 4);
                assert!(
                    got.len() % 2 == 0,
                    "torn batch: drained {} values mid-publish",
                    got.len()
                );
            }
            (got, rx)
        });
        producer.join().unwrap();
        let (mut got, mut rx) = consumer.join().unwrap();
        // The producer has joined (and its Drop published + closed):
        // one more drain must surface everything, in push order.
        rx.drain_into(&mut got, 4);
        assert_eq!(got, vec![0, 1, 2, 3], "loss, duplication or reorder");
        assert!(rx.is_closed(), "producer drop must hang up the ring");
    })
    .unwrap_or_else(|cex| {
        panic!(
            "spsc model failed: {}\nreplay: EXBOX_LOOM_REPLAY='{}'",
            cex.message, cex.trace
        )
    });
    assert!(
        report.exhausted,
        "schedule space not exhausted within bounds: {report:?}"
    );
}

/// Slot reuse across threads: a capacity-2 ring carries four values
/// through two producer/consumer handoffs, so every slot is written,
/// consumed, and **rewritten by a different round** — the consumer
/// must see the new values, never a stale first-round occupant
/// (the invariant-2 ownership transfer under wraparound).
#[test]
fn spsc_wraparound_handoff_sees_fresh_values() {
    model(|| {
        let (mut tx, rx) = spsc::ring::<u64>(2);
        tx.push(10).unwrap();
        tx.push(11).unwrap();
        tx.publish();
        let first = thread::spawn(move || {
            let mut rx = rx;
            let a = rx.pop().expect("published value missing");
            let b = rx.pop().expect("published value missing");
            assert_eq!((a, b), (10, 11));
            rx
        });
        let rx = first.join().unwrap();
        // Same two slots, second round.
        tx.push(20).unwrap();
        tx.push(21).unwrap();
        tx.publish();
        let second = thread::spawn(move || {
            let mut rx = rx;
            let a = rx.pop().expect("reused slot missing");
            let b = rx.pop().expect("reused slot missing");
            assert_eq!((a, b), (20, 21), "stale value out of a reused slot");
            assert!(rx.pop().is_none(), "phantom value");
        });
        second.join().unwrap();
    });
}

/// The close/drain protocol the pipeline workers rely on: `closed` is
/// set only *after* the final publish, so any consumer that observes
/// `closed` and then drains nothing has provably received everything.
/// The explorer checks the implication on every interleaving of a
/// closing producer against a polling consumer.
#[test]
fn spsc_close_after_publish_never_strands_values() {
    model(|| {
        let (mut tx, mut rx) = spsc::ring::<u64>(4);
        let producer = thread::spawn(move || {
            tx.push(1).unwrap();
            tx.push(2).unwrap();
            tx.close(); // publishes, then hangs up
        });
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..3 {
                let closed_before = rx.is_closed();
                let n = rx.drain_into(&mut got, 4);
                if closed_before && n == 0 {
                    // Worker-loop exit condition: must imply completion.
                    assert_eq!(
                        got,
                        vec![1, 2],
                        "observed closed + empty with values still in flight"
                    );
                }
            }
            (got, rx)
        });
        producer.join().unwrap();
        let (mut got, mut rx) = consumer.join().unwrap();
        rx.drain_into(&mut got, 4);
        assert_eq!(got, vec![1, 2], "value stranded across close");
        assert!(rx.is_closed());
    });
}

/// Concurrent admissions/departures on the shared occupancy matrix:
/// the saturating-remove CAS loop never loses an admission and never
/// underflows, whatever the interleaving.
#[test]
fn shared_matrix_concurrent_add_remove() {
    model(|| {
        let kind = FlowKind::new(AppClass::Streaming, SnrLevel::High);
        let m = Arc::new(SharedMatrix::new());
        let adder = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                m.add(kind);
                m.add(kind);
            })
        };
        let remover = {
            let m = Arc::clone(&m);
            // May interleave anywhere among the adds: saturates at
            // zero instead of underflowing.
            thread::spawn(move || m.remove(kind))
        };
        adder.join().unwrap();
        remover.join().unwrap();
        let total = m.total();
        assert!(
            total == 1 || total == 2,
            "occupancy drifted: {total} (lost add or underflow)"
        );
    });
}

/// Two shards' one-writer tally cells under one name, each bumped
/// twice by its own thread with a load and a plain store, against a
/// reader snapshotting the registry: the totals it reads never go
/// back, and once the shards joined the total is exact — with one
/// writer per cell, a store loses no increment.
#[test]
fn counter_cells_sum_exactly_under_a_racing_reader() {
    model(|| {
        let reg = MetricsRegistry::new();
        let shards: Vec<_> = (0..2)
            .map(|_| {
                let mut cell = reg.counter_cell("middlebox.admits");
                thread::spawn(move || {
                    cell.inc();
                    cell.inc();
                })
            })
            .collect();
        let total = || reg.snapshot().counter("middlebox.admits").unwrap();
        let (first, second) = (total(), total());
        assert!(first <= second, "total went back: {first} then {second}");
        for shard in shards {
            shard.join().unwrap();
        }
        assert_eq!(total(), 4, "a cell increment was lost");
    });
}

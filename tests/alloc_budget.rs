//! The arrival path's allocation budget, counted by an allocator hook.
//!
//! Once a gateway's tables, its rejected ring, the classifier's window
//! pool and the poll due list have reached their size, serving a new
//! flow — classification window, decision, delivery reports, a poll,
//! its departure — allocates exactly once per `process_packets` call:
//! the `Vec<Action>` the call returns. Nothing else on the path touches
//! the heap, per packet or per flow, so `process_packets_into` with a
//! warm verdict buffer allocates nothing at all.
//!
//! The hook counts per thread and only around gateway calls, so
//! neither the test harness's threads nor the driving code below show
//! up in the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exbox::ml::Label;
use exbox::net::{AppClass, Direction, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox_obs::MetricsRegistry;

thread_local! {
    /// Heap requests (`alloc`, `alloc_zeroed`, `realloc`) this thread made.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator outlives a dying thread's locals.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, so counting neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap requests `call` made on this thread, and what it returned.
fn counted<T>(call: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTS.with(Cell::get);
    let out = call();
    (REQUESTS.with(Cell::get) - before, out)
}

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

/// A model admitting at most two streaming flows.
fn snapshot() -> ModelSnapshot {
    let acfg = AdmittanceConfig {
        batch_size: 8,
        ..AdmittanceConfig::default()
    };
    let mut ac = AdmittanceClassifier::with_registry(acfg, &MetricsRegistry::new());
    for n in 0..80u32 {
        let total = n % 8;
        let mut mat = TrafficMatrix::empty();
        for _ in 0..total {
            mat.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        }
        ac.observe(mat, if total <= 2 { Label::Pos } else { Label::Neg });
    }
    assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
    ModelSnapshot::from_classifier(1, &ac)
}

/// Flows arriving together per round.
const GROUP: u32 = 4;
/// Rounds a rejected flow lingers before it gives up and departs.
const LINGER: u32 = 8;
const WARM_ROUNDS: u32 = 200;
const MEASURED_ROUNDS: u32 = 260;

/// Heap requests of the measured rounds, by the gateway call that made
/// them, beside how many `process_packets` calls there were.
#[derive(Debug, Default, PartialEq)]
struct Budget {
    ingest_calls: u64,
    ingest: u64,
    delivery: u64,
    poll: u64,
    depart: u64,
}

/// The two batch entry points the budget is measured through.
#[derive(Clone, Copy)]
enum Ingest {
    /// `process_packets`: returns a fresh `Vec` per call.
    Returned,
    /// `process_packets_into`: appends to one reused buffer.
    Into,
}

/// Serve `pkts` through `entry`, leaving the verdicts in `out`; the
/// heap requests the gateway call made.
fn ingest(
    gw: &mut ConcurrentGateway,
    entry: Ingest,
    pkts: &[(Packet, SnrLevel)],
    out: &mut Vec<Action>,
) -> u64 {
    match entry {
        Ingest::Returned => {
            let (n, verdicts) = counted(|| gw.process_packets(pkts));
            *out = verdicts;
            n
        }
        Ingest::Into => {
            out.clear();
            counted(|| gw.process_packets_into(pkts, out)).0
        }
    }
}

/// Warm a gateway up, then drive the measured rounds through `entry`
/// and return their budget. Asserts the verdicts along the way.
fn measured_budget(entry: Ingest) -> Budget {
    let cfg = GatewayConfig {
        middlebox: MiddleboxConfig {
            // Small enough that the warm-up rounds take the ring's
            // queue through its stale-entry sweep to its final size.
            rejected_capacity: 64,
            ..MiddleboxConfig::default()
        },
        ..GatewayConfig::default()
    };
    let window = cfg.middlebox.classify_window;
    let mut gw = ConcurrentGateway::serving_only(cfg, estimator(), snapshot());
    let key = |id: u32| FlowKey::synthetic(id, id, 1, Protocol::Tcp);
    let pkt = |id: u32, i: usize, at: Instant| {
        let at = at + Duration::from_millis(2 * i as u64);
        (
            Packet::new(at, 1400, key(id), Direction::Downlink, i as u64),
            SnrLevel::High,
        )
    };

    let mut budget = Budget::default();
    let (mut admitted, mut rejected) = (0u32, 0u32);
    let mut batch = Vec::new();
    let mut verdicts = Vec::new();
    let mut polled = Vec::new();
    for round in 0..WARM_ROUNDS + MEASURED_ROUNDS {
        if round == WARM_ROUNDS {
            budget = Budget::default();
            (admitted, rejected) = (0, 0);
        }
        let at = Instant::from_secs(2 * u64::from(round));
        let ids = round * GROUP + 1..=round * GROUP + GROUP;

        // The classification windows, interleaved, in one call; then
        // each flow's deciding packet in a call of its own, and one
        // more packet of every flow that was turned away.
        batch.clear();
        for i in 0..window - 1 {
            batch.extend(ids.clone().map(|id| pkt(id, i, at)));
        }
        budget.ingest += ingest(&mut gw, entry, &batch, &mut verdicts);
        budget.ingest_calls += 1;
        assert!(verdicts.iter().all(|v| *v == Action::Forward));
        let mut served = Vec::new();
        for id in ids.clone() {
            let deciding = [pkt(id, window - 1, at)];
            budget.ingest += ingest(&mut gw, entry, &deciding, &mut verdicts);
            budget.ingest_calls += 1;
            if verdicts == [Action::Forward] {
                admitted += 1;
                served.push(id);
            } else {
                rejected += 1;
                let next = [pkt(id, window, at)];
                budget.ingest += ingest(&mut gw, entry, &next, &mut verdicts);
                budget.ingest_calls += 1;
                assert_eq!(verdicts, [Action::Drop]);
            }
        }

        // Delivery and drop reports for the admitted flows, then the
        // poll that evaluates them (every round is one poll interval).
        for &id in &served {
            for i in 0..3 {
                let sent = at + Duration::from_millis(100 + 10 * i);
                let (n, ()) = counted(|| {
                    gw.record_delivery(&key(id), sent, sent + Duration::from_millis(5), 1400)
                });
                budget.delivery += n;
            }
            budget.delivery += counted(|| gw.record_drop(&key(id))).0;
        }
        polled.clear();
        let now = at + Duration::from_secs(2);
        budget.poll += counted(|| gw.poll_into(now, &mut polled)).0;
        assert!(polled.is_empty(), "two flows fit the region: no revoke");

        // The admitted flows leave; rejected ones linger a few rounds.
        for &id in &served {
            budget.depart += counted(|| gw.flow_departed(&key(id))).0;
        }
        if let Some(old) = round.checked_sub(LINGER) {
            for id in old * GROUP + 1..=old * GROUP + GROUP {
                budget.depart += counted(|| gw.flow_departed(&key(id))).0;
            }
        }
    }

    // Both verdicts, every round: two flows fit, two do not.
    assert_eq!(
        (admitted, rejected),
        (2 * MEASURED_ROUNDS, 2 * MEASURED_ROUNDS)
    );
    assert!(admitted + rejected >= 1_000);
    let metrics = gw.merged_metrics();
    assert_eq!(
        metrics.counter("middlebox.polls"),
        Some(u64::from(WARM_ROUNDS + MEASURED_ROUNDS))
    );
    budget
}

#[test]
fn arrival_path_allocates_once_per_process_packets_call() {
    let budget = measured_budget(Ingest::Returned);
    assert_eq!(
        budget,
        Budget {
            ingest_calls: budget.ingest_calls,
            ingest: budget.ingest_calls,
            delivery: 0,
            poll: 0,
            depart: 0,
        },
        "one allocation per process_packets call (the returned Vec) and none elsewhere"
    );
}

#[test]
fn arrival_path_allocates_nothing_through_process_packets_into() {
    let budget = measured_budget(Ingest::Into);
    assert_eq!(
        budget,
        Budget {
            ingest_calls: budget.ingest_calls,
            ..Budget::default()
        },
        "a warm verdict buffer leaves the arrival path nothing to allocate"
    );
}

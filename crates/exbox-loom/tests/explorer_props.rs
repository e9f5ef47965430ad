//! Properties of the explorer itself: it finds seeded races, proves
//! correct code race-free within its bounds, detects deadlocks,
//! honours the preemption bound, and replays counterexamples
//! deterministically.
//!
//! Model sizes are deliberately tiny — the CI container is
//! single-core, and the point is schedule coverage, not throughput.

use exbox_loom::sync::{Arc, AtomicU64, Mutex, Ordering};
use exbox_loom::{explore, replay, Config};

/// The classic lost update: two unsynchronised load+store increments.
fn lost_update_model() {
    let n = Arc::new(AtomicU64::new(0));
    let n2 = Arc::clone(&n);
    let t = exbox_loom::thread::spawn(move || {
        let v = n2.load(Ordering::SeqCst);
        n2.store(v + 1, Ordering::SeqCst);
    });
    let v = n.load(Ordering::SeqCst);
    n.store(v + 1, Ordering::SeqCst);
    t.join().unwrap();
    assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
}

#[test]
fn finds_seeded_lost_update() {
    let cex = explore(Config::default(), lost_update_model)
        .expect_err("explorer must find the lost update");
    assert!(
        cex.message.contains("lost update"),
        "unexpected failure: {}",
        cex.message
    );
    assert!(cex.trace.starts_with("v1:"), "trace: {}", cex.trace);
}

#[test]
fn preemption_bound_zero_hides_the_race_bound_one_finds_it() {
    // The lost update needs one preemption (switch away from a
    // runnable thread mid-increment); a bound of 0 explores only
    // run-to-completion schedules, where each increment is atomic.
    let report = explore(
        Config {
            preemptions: Some(0),
            ..Config::default()
        },
        lost_update_model,
    )
    .expect("no failure within 0 preemptions");
    assert!(report.exhausted, "bounded space should be exhausted");

    explore(
        Config {
            preemptions: Some(1),
            ..Config::default()
        },
        lost_update_model,
    )
    .expect_err("one preemption suffices to lose the update");
}

#[test]
fn fetch_add_increments_are_race_free() {
    // The corrected program: the same counter bumped via a single
    // atomic RMW per thread. Exhaustive within the default bound.
    let report = explore(Config::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = exbox_loom::thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2);
    })
    .expect("atomic increments cannot lose updates");
    assert!(report.executions > 1, "should explore >1 interleaving");
}

#[test]
fn mutex_guarantees_mutual_exclusion() {
    let report = explore(Config::default(), || {
        let m = Arc::new(Mutex::new((0u64, 0u64)));
        let m2 = Arc::clone(&m);
        let t = exbox_loom::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            g.0 += 1;
            g.1 += 1;
        });
        {
            let mut g = m.lock().unwrap();
            g.0 += 1;
            g.1 += 1;
        }
        t.join().unwrap();
        let g = m.lock().unwrap();
        assert_eq!(g.0, g.1, "critical section torn");
        assert_eq!(g.0, 2);
    })
    .expect("mutex-protected increments are race-free");
    assert!(report.executions >= 1);
}

#[test]
fn detects_abba_deadlock() {
    let cex = explore(Config::default(), || {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::new(Mutex::new(0u64));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = exbox_loom::thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_ga, _gb));
        t.join().unwrap();
    })
    .expect_err("AB/BA lock order must deadlock in some schedule");
    assert!(
        cex.message.contains("deadlock"),
        "unexpected failure: {}",
        cex.message
    );
}

#[test]
fn counterexample_replays_deterministically() {
    let cex = explore(Config::default(), lost_update_model)
        .expect_err("explorer must find the lost update");
    // Replaying the trace must reproduce the same failure, repeatedly.
    for _ in 0..3 {
        let again = replay(&cex.trace, lost_update_model)
            .expect_err("pinned replay must reproduce the failure");
        assert!(again.message.contains("lost update"));
    }
    // A replay of the default schedule (empty pin) must pass — the
    // failure needs its specific interleaving.
    replay("v1:", lost_update_model).expect("default schedule runs to completion");
}

#[test]
fn pruning_preserves_the_verdict() {
    let unpruned = explore(
        Config {
            prune: false,
            ..Config::default()
        },
        lost_update_model,
    );
    let pruned = explore(Config::default(), lost_update_model);
    assert!(unpruned.is_err() && pruned.is_err());

    let unpruned_ok = explore(
        Config {
            prune: false,
            ..Config::default()
        },
        || {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = exbox_loom::thread::spawn(move || {
                n2.fetch_add(1, Ordering::SeqCst);
            });
            n.fetch_add(2, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 3);
        },
    )
    .expect("race-free");
    let pruned_ok = explore(Config::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = exbox_loom::thread::spawn(move || {
            n2.fetch_add(1, Ordering::SeqCst);
        });
        n.fetch_add(2, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 3);
    })
    .expect("race-free");
    assert!(
        pruned_ok.executions <= unpruned_ok.executions,
        "pruning must not widen the search: {} vs {}",
        pruned_ok.executions,
        unpruned_ok.executions
    );
}

#[test]
fn three_thread_counter_exhausts_within_bound() {
    // ≥2 writers + main: checks the explorer handles >2 threads and
    // that the report's exhausted flag is meaningful.
    let report = explore(Config::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let ts: Vec<_> = (0..2)
            .map(|_| {
                let n = Arc::clone(&n);
                exbox_loom::thread::spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in ts {
            t.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    })
    .expect("race-free");
    assert!(report.exhausted, "{report:?}");
}

//! Differential tests: the shim layer must be behavior-identical to
//! `std::sync` both as a passthrough (no model running) and under the
//! trivial single-interleaving scheduler (`Config::trivial()`).
//!
//! Each case runs the same deterministic program twice — once on
//! `std::sync` primitives, once on the shims — and asserts identical
//! observable results. The exbox workspace relies on this equivalence:
//! `--cfg exbox_loom` builds run the entire ordinary unit-test suite
//! through these shims.

use std::sync::mpsc;

use exbox_loom::sync::{Arc, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering};
use exbox_loom::Config;

/// A deterministic single-thread op sequence over one u64 atomic;
/// returns every intermediate observation.
fn u64_op_trace(
    load: impl Fn() -> u64,
    store: impl Fn(u64),
    fetch_add: impl Fn(u64) -> u64,
    swap: impl Fn(u64) -> u64,
    cas: impl Fn(u64, u64) -> Result<u64, u64>,
) -> Vec<u64> {
    let mut out = Vec::new();
    out.push(load());
    store(7);
    out.push(load());
    out.push(fetch_add(5));
    out.push(swap(100));
    out.push(load());
    out.push(match cas(100, 1) {
        Ok(v) => v,
        Err(v) => v + 1000,
    });
    out.push(match cas(999, 2) {
        Ok(v) => v,
        Err(v) => v + 1000,
    });
    out.push(load());
    out
}

fn shim_u64_trace() -> Vec<u64> {
    let a = AtomicU64::new(3);
    u64_op_trace(
        || a.load(Ordering::SeqCst),
        |v| a.store(v, Ordering::SeqCst),
        |v| a.fetch_add(v, Ordering::SeqCst),
        |v| a.swap(v, Ordering::SeqCst),
        |c, n| a.compare_exchange(c, n, Ordering::SeqCst, Ordering::SeqCst),
    )
}

fn std_u64_trace() -> Vec<u64> {
    let a = std::sync::atomic::AtomicU64::new(3);
    use std::sync::atomic::Ordering::SeqCst;
    u64_op_trace(
        || a.load(SeqCst),
        |v| a.store(v, SeqCst),
        |v| a.fetch_add(v, SeqCst),
        |v| a.swap(v, SeqCst),
        |c, n| a.compare_exchange(c, n, SeqCst, SeqCst),
    )
}

#[test]
fn atomic_u64_passthrough_matches_std() {
    assert_eq!(shim_u64_trace(), std_u64_trace());
}

#[test]
fn atomic_u64_under_trivial_scheduler_matches_std() {
    let expected = std_u64_trace();
    let (tx, rx) = mpsc::channel();
    exbox_loom::model_with(Config::trivial(), move || {
        let _ = tx.send(shim_u64_trace());
    });
    assert_eq!(rx.recv().unwrap(), expected);
}

#[test]
fn atomic_misc_passthrough_matches_std() {
    // bool
    let b = AtomicBool::new(false);
    assert!(!b.swap(true, Ordering::SeqCst));
    assert!(b.load(Ordering::SeqCst));
    assert_eq!(
        b.compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst),
        Ok(true)
    );
    // u32 / usize fetch_update parity with std
    let u = AtomicU32::new(10);
    let su = std::sync::atomic::AtomicU32::new(10);
    let r = u.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(4));
    let sr = su.fetch_update(
        std::sync::atomic::Ordering::SeqCst,
        std::sync::atomic::Ordering::SeqCst,
        |v| v.checked_sub(4),
    );
    assert_eq!(r, sr);
    assert_eq!(
        u.load(Ordering::SeqCst),
        su.load(std::sync::atomic::Ordering::SeqCst)
    );
    let z = AtomicUsize::new(1);
    assert_eq!(z.fetch_sub(1, Ordering::SeqCst), 1);
    assert_eq!(z.load(Ordering::SeqCst), 0);
}

#[test]
fn mutex_passthrough_matches_std() {
    // Two real threads pushing through one shim Mutex, passthrough
    // mode: every push lands, and each thread's pushes keep their order.
    let q = Arc::new(Mutex::new(Vec::new()));
    let q2 = Arc::clone(&q);
    let t = std::thread::spawn(move || {
        for i in 0..10u32 {
            q2.lock().unwrap().push(i);
        }
    });
    for i in 10..20u32 {
        q.lock().unwrap().push(i);
    }
    t.join().unwrap();
    let got = Arc::try_unwrap(q).unwrap().into_inner().unwrap();
    let (low, high): (Vec<u32>, Vec<u32>) = got.iter().partition(|&&v| v < 10);
    assert_eq!(low, (0..10).collect::<Vec<_>>());
    assert_eq!(high, (10..20).collect::<Vec<_>>());
}

#[test]
fn thread_shim_passthrough_matches_std() {
    let h = exbox_loom::thread::Builder::new()
        .name("diff-test".into())
        .spawn(|| {
            assert_eq!(std::thread::current().name(), Some("diff-test"));
            42u64
        })
        .unwrap();
    assert_eq!(h.join().unwrap(), 42);
    exbox_loom::thread::yield_now();
}

#[test]
fn mutex_under_trivial_scheduler_matches_std() {
    let expected = {
        let m = std::sync::Mutex::new(0u64);
        for _ in 0..5 {
            *m.lock().unwrap() += 3;
        }
        m.into_inner().unwrap()
    };
    let (tx, rx) = mpsc::channel();
    exbox_loom::model_with(Config::trivial(), move || {
        let m = Mutex::new(0u64);
        for _ in 0..5 {
            *m.lock().unwrap() += 3;
        }
        let _ = tx.send(m.into_inner().unwrap());
    });
    assert_eq!(rx.recv().unwrap(), expected);
}

#[test]
fn spawn_join_under_trivial_scheduler_matches_std() {
    let (tx, rx) = mpsc::channel();
    exbox_loom::model_with(Config::trivial(), move || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = exbox_loom::thread::spawn(move || {
            n2.fetch_add(41, Ordering::SeqCst);
            1u64
        });
        let ret = t.join().unwrap();
        let _ = tx.send(n.load(Ordering::SeqCst) + ret);
    });
    assert_eq!(rx.recv().unwrap(), 42);
}

//! Bounded lock-free single-producer/single-consumer ring buffer —
//! the per-shard ingress (and egress) queue of the
//! [`pipeline`](super::pipeline) data plane.
//!
//! Layout and protocol follow the classic Lamport queue with the two
//! refinements high-rate packet rings need:
//!
//! * **Cache-line-padded indexes.** `head` (consumer cursor) and
//!   `tail` (producer publication cursor) live in separate
//!   [`CachePadded`] cells, so the producer core and the consumer core
//!   never write the same line. Each side additionally keeps a *local
//!   cache* of the other side's index and only re-reads the shared
//!   atomic when the cached value says the ring looks full/empty —
//!   in steady state a push or pop touches one shared line, not two.
//! * **Batched producer publish.** [`Producer::push`] writes the slot
//!   and advances only the producer's private cursor; the write
//!   becomes visible to the consumer at the next explicit
//!   [`Producer::publish`]. The dispatcher pushes a whole batch of
//!   packets and publishes once — one store + one (implied) fence per
//!   batch instead of per packet.
//!
//! Indexes are monotonically increasing `u64`s (never wrapped); the
//! slot for index `i` is `i & mask`. Capacity is rounded up to a power
//! of two. At 10 M ops/s a `u64` index overflows after ~58 000 years,
//! so wraparound of the *index* is out of scope; wraparound of the
//! *slot array* is exercised constantly and covered by unit and loom
//! models.
//!
//! # Safety
//!
//! This module contains `unsafe` — the only instance in the
//! workspace. The invariants it rests on:
//!
//! 1. Exactly one [`Producer`] and one [`Consumer`] exist per ring
//!    (enforced by construction — [`ring`] returns each endpoint by
//!    value and neither is `Clone`), so slot writes race with nothing:
//!    the producer only writes slots in `[tail, head + cap)` and the
//!    consumer only reads slots in `[head, tail)`.
//! 2. A slot is initialised before the index advance that makes it
//!    reachable is published (`tail` store is `SeqCst`, after the
//!    write), and is logically uninitialised again the moment `head`
//!    moves past it — the consumer takes ownership with
//!    `MaybeUninit::assume_init_read` exactly once per index.
//! 3. Everything is `SeqCst` through [`crate::sync`], so the loom
//!    models in `gateway::loom_models` explore exactly the behaviours
//!    the release build can exhibit (DESIGN.md §9/§10).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{AtomicBool, AtomicU64, CachePadded, Ordering};

/// Shared state of one ring: the slot array and the two cursors.
struct Shared<T> {
    /// `capacity` slots; slot `i & mask` holds index `i`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// First index not yet consumed (owned by the consumer).
    head: CachePadded<AtomicU64>,
    /// First index not yet *published* (owned by the producer). The
    /// producer's private cursor may run ahead of this between
    /// [`Producer::publish`] calls.
    tail: CachePadded<AtomicU64>,
    /// Producer hung up; set after the final publish, so once the
    /// consumer sees `closed` and an empty ring it has seen everything.
    closed: AtomicBool,
}

// SAFETY: the ring moves `T` values across threads (invariants 1–2 in
// the module docs make every slot access exclusive), so the endpoints
// are `Send`/`Sync` exactly when `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // `&mut self`: both endpoints are gone, the cursors are final.
        // Anything published but never consumed still owns a `T`.
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        for i in head..tail {
            let slot = self.slots[(i & self.mask) as usize].get();
            // SAFETY: `[head, tail)` slots are initialised (invariant 2)
            // and no endpoint remains to read them.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// Write half of a ring; exactly one exists per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Private write cursor; `>= shared.tail` between publishes.
    next: u64,
    /// Last observed consumer cursor; refreshed only when the ring
    /// looks full against the cache.
    cached_head: u64,
}

/// Read half of a ring; exactly one exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Private read cursor; the shared `head` is published per
    /// pop/drain so the producer sees freed slots.
    next: u64,
    /// Last observed publication cursor; refreshed only when the ring
    /// looks empty against the cache.
    cached_tail: u64,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer")
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer")
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// Build a ring holding at least `capacity` elements (rounded up to a
/// power of two, minimum 2).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        mask: (cap - 1) as u64,
        head: CachePadded::new(AtomicU64::new(0)),
        tail: CachePadded::new(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            next: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            next: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slot count of the ring.
    #[cfg_attr(not(any(test, exbox_loom)), allow(dead_code))]
    pub fn capacity(&self) -> usize {
        (self.shared.mask + 1) as usize
    }

    /// Write one value into the next free slot **without publishing
    /// it** — the consumer cannot see it until [`Producer::publish`].
    /// Returns the value back when every slot is occupied (counting
    /// unpublished writes).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let cap = self.shared.mask + 1;
        if self.next - self.cached_head == cap {
            self.cached_head = self.shared.head.load(Ordering::SeqCst);
            if self.next - self.cached_head == cap {
                return Err(value);
            }
        }
        let slot = self.shared.slots[(self.next & self.shared.mask) as usize].get();
        // SAFETY: `next < cached_head + cap`, so the consumer has moved
        // past this slot's previous occupant; nothing reads it until
        // the publish below (invariants 1–2).
        unsafe { (*slot).write(value) };
        self.next += 1;
        Ok(())
    }

    /// Make every pushed-but-unpublished value visible to the
    /// consumer. One `SeqCst` store, however large the batch.
    pub fn publish(&mut self) {
        self.shared.tail.store(self.next, Ordering::SeqCst);
    }

    /// Values written but not yet published.
    #[cfg_attr(not(any(test, exbox_loom)), allow(dead_code))]
    pub fn unpublished(&self) -> u64 {
        self.next - self.shared.tail.load(Ordering::SeqCst)
    }

    /// Publish pending writes and mark the ring closed; the consumer
    /// drains what remains and then reads the hang-up.
    pub fn close(mut self) {
        self.publish();
        self.shared.closed.store(true, Ordering::SeqCst);
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // A producer that goes away without `close` must still not
        // leak unpublished slots nor leave the consumer waiting.
        self.publish();
        self.shared.closed.store(true, Ordering::SeqCst);
    }
}

impl<T> Consumer<T> {
    /// Take the next published value, if any.
    #[cfg_attr(not(any(test, exbox_loom)), allow(dead_code))]
    pub fn pop(&mut self) -> Option<T> {
        if self.next == self.cached_tail {
            self.cached_tail = self.shared.tail.load(Ordering::SeqCst);
            if self.next == self.cached_tail {
                return None;
            }
        }
        let slot = self.shared.slots[(self.next & self.shared.mask) as usize].get();
        // SAFETY: `next < cached_tail <= tail`, so the slot was
        // initialised before the publish we observed; advancing `head`
        // below transfers ownership to us exactly once (invariant 2).
        let value = unsafe { (*slot).assume_init_read() };
        self.next += 1;
        self.shared.head.store(self.next, Ordering::SeqCst);
        Some(value)
    }

    /// Pop up to `max` published values into `out`, publishing the
    /// freed slots with a single `head` store. Returns the count.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.next == self.cached_tail {
            self.cached_tail = self.shared.tail.load(Ordering::SeqCst);
        }
        let avail = (self.cached_tail - self.next).min(max as u64);
        for _ in 0..avail {
            let slot = self.shared.slots[(self.next & self.shared.mask) as usize].get();
            // SAFETY: as in `pop` — every index below `cached_tail` is
            // published and initialised, and read exactly once.
            out.push(unsafe { (*slot).assume_init_read() });
            self.next += 1;
        }
        if avail > 0 {
            self.shared.head.store(self.next, Ordering::SeqCst);
        }
        avail as usize
    }

    /// True once the producer hung up. Values may still be queued;
    /// drain until [`Consumer::pop`] returns `None` *after* observing
    /// the close — the close flag is set after the final publish, so
    /// that order guarantees nothing is left behind.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }
}

#[cfg(all(test, not(exbox_loom)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u32>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u32>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn push_invisible_until_publish() {
        let (mut tx, mut rx) = ring::<u32>(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.pop(), None, "unpublished write leaked");
        assert_eq!(tx.unpublished(), 2);
        tx.publish();
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut tx, mut rx) = ring::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(3), "over-capacity push accepted");
        tx.publish();
        assert_eq!(rx.pop(), Some(1));
        // One slot freed: the producer sees it via the head refresh.
        tx.push(3).unwrap();
        tx.publish();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn wraparound_preserves_fifo() {
        let (mut tx, mut rx) = ring::<u64>(4);
        // 3 full laps around a 4-slot ring.
        for v in 0..12u64 {
            tx.push(v).unwrap();
            tx.publish();
            assert_eq!(rx.pop(), Some(v));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn drain_into_batches() {
        let (mut tx, mut rx) = ring::<u32>(8);
        for v in 0..6 {
            tx.push(v).unwrap();
        }
        tx.publish();
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.drain_into(&mut out, 16), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.drain_into(&mut out, 16), 0);
    }

    #[test]
    fn close_drains_then_hangs_up() {
        let (mut tx, mut rx) = ring::<u32>(4);
        tx.push(7).unwrap();
        tx.close(); // publishes the pending write
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn unconsumed_values_dropped_with_ring() {
        let probe = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(4);
        for _ in 0..3 {
            tx.push(Arc::clone(&probe)).unwrap();
        }
        tx.publish();
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&probe), 1, "ring leaked slot values");
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        let producer = thread::spawn(move || {
            let mut v = 0;
            while v < N {
                // Irregular batch sizes to exercise partial publishes.
                let batch = 1 + (v % 7);
                let mut pushed = 0;
                while pushed < batch && v < N {
                    match tx.push(v) {
                        Ok(()) => {
                            v += 1;
                            pushed += 1;
                        }
                        Err(_) => break,
                    }
                }
                tx.publish();
                if pushed == 0 {
                    thread::yield_now();
                }
            }
            tx.close();
        });
        let mut seen = 0u64;
        let mut buf = Vec::new();
        loop {
            let closed = rx.is_closed();
            buf.clear();
            if rx.drain_into(&mut buf, 1024) == 0 {
                if closed {
                    break;
                }
                thread::yield_now();
                continue;
            }
            for &v in &buf {
                assert_eq!(v, seen, "loss, duplication or reorder");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, N);
    }
}

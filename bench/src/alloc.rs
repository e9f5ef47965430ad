//! Counting global allocator: `alloc.per_kpkt` / `alloc.bytes_per_kpkt`.
//!
//! Wraps the system allocator and counts calls and requested bytes.
//! The counters are statistics that publish no other data, so
//! `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The ledger's `#[global_allocator]`.
pub struct Counting;

#[inline]
fn count(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// two atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocation calls, bytes requested)` since process start, all
/// threads.
pub fn totals() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_bytes() {
        // Other test threads allocate too, so only lower bounds hold.
        let (c0, b0) = totals();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        std::hint::black_box(&v);
        let (c1, b1) = totals();
        assert!(c1 > c0);
        assert!(b1 - b0 >= 1 << 16);
        drop(v);
        let (c2, _) = totals();
        assert!(c2 >= c1, "frees are not counted as allocations");
    }
}

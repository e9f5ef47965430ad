//! cfg-selected synchronisation layer.
//!
//! Every concurrency primitive on the gateway's modelled paths — the
//! [`SnapshotCell`](crate::gateway::SnapshotCell), the
//! [`SharedMatrix`](crate::gateway::SharedMatrix) occupancy cell, the
//! pipeline's SPSC ring — imports its atomics, locks and threads from
//! here instead of `std::sync` directly:
//!
//! * **default builds** re-export `std::sync` / `std::thread`
//!   unchanged — zero cost, identical codegen;
//! * **`--cfg exbox_loom` builds** (set via
//!   `RUSTFLAGS='--cfg exbox_loom'`, see `scripts/loom_check.sh`)
//!   re-export the `exbox-loom` shims, which pass through to std
//!   outside a model and become scheduler switch points inside one.
//!
//! The swap is sound because everything ported here uses `SeqCst`
//! exclusively, so the model's sequentially-consistent exploration
//! covers exactly the behaviours the real code can exhibit (DESIGN.md
//! §9). Keep it that way: new code on these paths must not introduce
//! weaker orderings without revisiting that argument.

#[cfg(not(exbox_loom))]
pub(crate) use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
#[cfg(not(exbox_loom))]
pub(crate) use std::sync::Mutex;
#[cfg(not(exbox_loom))]
pub(crate) use std::thread;

#[cfg(exbox_loom)]
pub(crate) use exbox_loom::sync::{AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};
#[cfg(exbox_loom)]
pub(crate) use exbox_loom::thread;

/// Pads and aligns `T` to a 128-byte boundary so two neighbouring
/// values never share a cache line (128 covers the spatial-prefetcher
/// pairing on x86 and the 128-byte lines on some AArch64 parts).
///
/// Used by the gateway's SPSC ingress rings and order gate, where a
/// producer-written index sitting next to a consumer-written index
/// would otherwise ping-pong one line between cores on every packet.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub(crate) const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

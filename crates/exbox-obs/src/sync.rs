//! cfg-selected atomics: `std` by default, the `exbox-loom` shims
//! under `--cfg exbox_loom`.
//!
//! Every instrument ([`crate::Counter`], [`crate::Gauge`],
//! [`crate::Histogram`] and the one-writer cells built on them) routes
//! its atomics through this module, so the interleaving explorer can
//! drive metric updates like any other shared state: a model in which
//! a shard bumps its `middlebox.admits` cell while another thread
//! snapshots the registry explores the cell's load and store against
//! the reader's load, and the differential suite proves the shims
//! behave identically to `std` outside a model. `MetricsRegistry`
//! stays on a plain `std` lock — it is registration/export
//! bookkeeping, never part of a modelled protocol — and `EventRing` has
//! no shared state at all: its one writer owns it.

#[cfg(not(exbox_loom))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(exbox_loom)]
pub(crate) use exbox_loom::sync::{AtomicU64, Ordering};

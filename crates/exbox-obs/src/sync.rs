//! cfg-selected atomics: `std` by default, the `exbox-loom` shims
//! under `--cfg exbox_loom`.
//!
//! The hot-path instruments ([`crate::Counter`], [`crate::Gauge`],
//! [`crate::Histogram`]) route their atomics through this module so
//! the interleaving explorer can drive metric updates like any other
//! shared state: a gateway model that increments `gateway.obs_dropped`
//! from two shards explores the increments' interleavings too, and the
//! differential suite proves the shims behave identically to `std`
//! outside a model. `MetricsRegistry` stays on a plain `std` lock —
//! it is registration/export bookkeeping, never part of a modelled
//! protocol — and `EventRing` has no shared state at all: its one
//! writer owns it.

#[cfg(not(exbox_loom))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(exbox_loom)]
pub(crate) use exbox_loom::sync::{AtomicU64, Ordering};

//! # exbox-obs — observability substrate for the ExBox reproduction
//!
//! ExBox's premise is a middlebox that *measures itself*: per-flow
//! QoS meters, IQX-estimated QoE, and an online classifier whose
//! retrains are themselves part of the control loop (paper §4). This
//! crate is the telemetry layer those components report into — and
//! the layer every performance PR measures itself with.
//!
//! Hand-rolled with **zero external dependencies** (the build must
//! succeed offline; see `REPRODUCING.md`):
//!
//! * [`Counter`] — a monotonically increasing atomic counter.
//! * [`Gauge`] — a last-write-wins `f64` cell (CV accuracy, fit RMSE).
//! * [`Histogram`] — fixed-bucket distribution with atomic buckets,
//!   exact min/max and quantile estimates ([`buckets`] has standard
//!   bucket layouts: exponential latency ladders, linear grids).
//! * [`CounterCell`] / [`HistogramCell`] — the same two instruments
//!   with one writer: owned, written through `&mut self`, and so each
//!   update is a relaxed load and a plain store — no locked
//!   read-modify-write. A gateway shard's per-event tallies are cells.
//! * [`EventRing`] — a bounded ring-buffer event log that keeps the
//!   most recent `N` structured events and counts what it evicted
//!   (the middlebox's admission-decision audit trail lives in one);
//!   an owned value, pushed through `&mut`, with no lock.
//! * [`MetricsRegistry`] — names the above, hands out shared handles
//!   and fresh cells, and exports point-in-time [`MetricsSnapshot`]s
//!   as JSON, CSV, or aligned text, where a name's value is the sum of
//!   its shared instrument and every cell under it. A process-wide
//!   registry is available via [`global()`]; every bench binary dumps
//!   it to stderr on exit so `results/*.log` carries the full counter
//!   state of the run.
//!
//! Metric names are dot-namespaced by component
//! (`middlebox.admitted`, `admittance.retrain_wall_ns`, …); the
//! README's *Metrics reference* section lists every name the
//! workspace emits.
//!
//! ## Example
//!
//! ```
//! use exbox_obs::{buckets, MetricsRegistry};
//!
//! let reg = MetricsRegistry::new();
//! // Shared: any number of holders, each add a locked RMW.
//! let admits = reg.counter("middlebox.admitted");
//! // Cells: one writer each, each add a load and a store.
//! let (mut shard0, mut shard1) = (
//!     reg.counter_cell("middlebox.admitted"),
//!     reg.counter_cell("middlebox.admitted"),
//! );
//! let mut lat = reg.histogram_cell("middlebox.poll_latency_ns", &buckets::latency_ns());
//! admits.inc();
//! shard0.add(2);
//! shard1.inc();
//! lat.record(12_500.0);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("middlebox.admitted"), Some(4));
//! assert!(snap.to_json().contains("poll_latency_ns"));
//! ```

mod hist;
mod registry;
mod ring;
mod sync;

pub use hist::{buckets, Histogram, HistogramCell, HistogramSnapshot};
pub use registry::{global, MetricsRegistry, MetricsSnapshot};
pub use ring::EventRing;

use crate::sync::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as WallInstant;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A [`Counter`] with one writer, from
/// [`MetricsRegistry::counter_cell`]. It is owned and not `Clone`, and
/// it counts through `&mut self`, so an add is a relaxed load and a
/// store: no locked instruction, which would wait for every earlier
/// store to drain. The registry keeps the other handle and only reads
/// it, summing the cell into its name at every snapshot.
#[derive(Debug)]
pub struct CounterCell(Arc<Counter>);

impl CounterCell {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        let cell = &(self.0).0;
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// This cell's count (not its name's total).
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A last-write-wins `f64` cell (stored as atomic bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at 0.0.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Run `f`, returning its result and the elapsed wall time in
/// nanoseconds — the unit every `*_wall_ns` / `*_latency_ns`
/// histogram in the workspace records.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = WallInstant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_cell_semantics() {
        let mut c = MetricsRegistry::new().counter_cell("c");
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_overwrites() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.875);
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }

    #[test]
    fn time_ns_measures_something() {
        let (out, ns) = time_ns(|| (0..1000u64).sum::<u64>());
        assert_eq!(out, 499_500);
        assert!(ns >= 0.0);
    }
}

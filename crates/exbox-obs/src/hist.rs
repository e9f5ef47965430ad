//! Fixed-bucket histograms with atomic recording.

use std::sync::Arc;

use crate::sync::{AtomicU64, Ordering};

/// Standard bucket layouts.
pub mod buckets {
    /// `count` upper bounds starting at `start`, each `factor` times
    /// the previous — the classic latency ladder.
    ///
    /// # Panics
    /// Panics unless `start > 0`, `factor > 1` and `count >= 1`.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Vec<f64> {
        assert!(start > 0.0 && factor > 1.0 && count >= 1, "bad bucket spec");
        let mut b = Vec::with_capacity(count);
        let mut v = start;
        for _ in 0..count {
            b.push(v);
            v *= factor;
        }
        b
    }

    /// `count` upper bounds `start, start+step, …`.
    ///
    /// # Panics
    /// Panics unless `step > 0` and `count >= 1`.
    pub fn linear(start: f64, step: f64, count: usize) -> Vec<f64> {
        assert!(step > 0.0 && count >= 1, "bad bucket spec");
        (0..count).map(|i| start + step * i as f64).collect()
    }

    /// Nanosecond latency ladder: 1 µs … ≈8.6 s, doubling.
    pub fn latency_ns() -> Vec<f64> {
        exponential(1_000.0, 2.0, 24)
    }

    /// Unit-interval grid (20 buckets of 0.05) for ratios and
    /// normalised QoS/QoE values.
    pub fn unit() -> Vec<f64> {
        linear(0.05, 0.05, 20)
    }

    /// Small-count grid (1 … 10 000, ×10) for batch sizes, iteration
    /// counts and sample-store sizes.
    pub fn counts() -> Vec<f64> {
        exponential(1.0, 10.0, 8)
    }

    /// Wide-count grid (1 … ≈10⁹, ×4) for quantities that span from
    /// single digits to million-user scale — sample-store sizes and
    /// incremental Gram row counts — without saturating the top
    /// bucket.
    pub fn counts_wide() -> Vec<f64> {
        exponential(1.0, 4.0, 16)
    }
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are defined by ascending upper bounds; an implicit
/// overflow bucket catches everything above the last bound. Recording
/// is lock-free (relaxed atomics); `sum`/`min`/`max` are maintained
/// with CAS loops over the value's bit pattern, entered only when the
/// sample moves them.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>, // bounds.len() + 1 (overflow)
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// Histogram over ascending upper `bounds`.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one observation. Non-finite values are ignored.
    pub fn record(&self, v: f64) {
        self.record_by::<false>(v);
    }

    /// The one body of [`record`](Self::record) and
    /// [`HistogramCell::record`]: with `SOLE` — sound only while
    /// nothing else writes this histogram, which a cell's ownership
    /// guarantees — every update is a relaxed load and a store instead
    /// of an atomic add or a CAS loop.
    fn record_by<const SOLE: bool>(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        Self::bump::<SOLE>(&self.counts[idx]);
        Self::bump::<SOLE>(&self.count);
        Self::update::<SOLE>(&self.sum_bits, |s| s + v);
        Self::update::<SOLE>(&self.min_bits, |m| m.min(v));
        Self::update::<SOLE>(&self.max_bits, |m| m.max(v));
    }

    fn bump<const SOLE: bool>(cell: &AtomicU64) {
        if SOLE {
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        } else {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn update<const SOLE: bool>(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            // A sample that does not move the value — nearly every one,
            // for min and max — needs no write: the update took effect,
            // unchanged, at the load that read `cur`.
            if next == cur {
                return;
            }
            if SOLE {
                cell.store(next, Ordering::Relaxed);
                return;
            }
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let per_bucket: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: per_bucket,
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
        }
    }
}

/// A [`Histogram`] with one writer, from
/// [`MetricsRegistry::histogram_cell`](crate::MetricsRegistry::histogram_cell):
/// owned, not `Clone`, and recorded into through `&mut self`, so each
/// bucket, count, sum, min and max update is a relaxed load and a
/// store. The registry merges it into its name at every snapshot, as
/// [`MetricsSnapshot::merged`](crate::MetricsSnapshot::merged) merges
/// shared histograms.
#[derive(Debug)]
pub struct HistogramCell(pub(crate) Arc<Histogram>);

impl HistogramCell {
    /// Record one observation. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        self.0.record_by::<true>(v);
    }
}

/// Frozen view of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one extra overflow bucket at the end.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Add `other`'s observations into this view of histogram `name`:
    /// counts element-wise, `count` and `sum` added, `min`/`max`
    /// combined.
    ///
    /// # Panics
    /// When the two have different bucket bounds — merging those would
    /// corrupt quantiles, and only a programming error does it.
    pub(crate) fn absorb(&mut self, name: &str, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram `{name}` merged across mismatched bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if self.count == other.count {
                // This view was empty until now.
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the
    /// bucket containing the `q`-th observation, clamped to the exact
    /// observed `[min, max]`. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let ub = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return ub.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 5000.0] {
            h.record(v);
        }
        let s = h.snapshot();
        // <=1, <=10, <=100, overflow
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 5000.0);
        assert!((s.sum - 5056.5).abs() < 1e-9);
    }

    #[test]
    fn ignores_non_finite() {
        let h = Histogram::new(&[1.0]);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_bracket_distribution() {
        let h = Histogram::new(&buckets::exponential(1.0, 2.0, 12));
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((256.0..=1024.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= p50);
        assert!(p99 <= s.max);
        assert_eq!(s.quantile(0.0).max(1.0), 1.0);
        assert_eq!(s.quantile(1.0), 1000.0);
    }

    #[test]
    fn concurrent_recorders_converge_to_true_min_max() {
        // Four recorders released together, each walking its own
        // residue class inwards from both ends, so new minima and
        // maxima keep racing samples that move neither.
        const PER_THREAD: u64 = 20_000;
        let h = Histogram::new(&buckets::exponential(1.0, 4.0, 10));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (h, start) = (&h, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let step = (i / 2) * 4 + t;
                        let v = if i % 2 == 0 {
                            4 * PER_THREAD - step
                        } else {
                            step + 1
                        };
                        h.record(v as f64);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4 * PER_THREAD);
        assert_eq!((s.min, s.max), (1.0, (4 * PER_THREAD) as f64));
        // Every integer in 1..=4·PER_THREAD was recorded exactly once.
        let n = (4 * PER_THREAD) as f64;
        assert_eq!(s.sum, n * (n + 1.0) / 2.0);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Histogram::new(&[1.0]).snapshot();
        assert_eq!(
            (s.count, s.min, s.max, s.mean(), s.quantile(0.5)),
            (0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn standard_layouts_are_sane() {
        assert_eq!(buckets::exponential(1.0, 10.0, 3), vec![1.0, 10.0, 100.0]);
        assert_eq!(buckets::linear(0.5, 0.5, 3), vec![0.5, 1.0, 1.5]);
        assert!(buckets::latency_ns().len() > 16);
        assert_eq!(buckets::unit().len(), 20);
        assert!(buckets::counts().starts_with(&[1.0, 10.0]));
        let wide = buckets::counts_wide();
        assert!(wide.starts_with(&[1.0, 4.0, 16.0]));
        assert!(
            *wide.last().unwrap() >= 1e6,
            "wide counts must cover million-sample stores"
        );
    }
}

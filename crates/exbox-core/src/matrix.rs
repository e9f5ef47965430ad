//! Traffic matrices and the Experiential Capacity Region.
//!
//! The paper's central object (§2.1): with `k` application classes
//! and `r` SNR levels, the network state is the matrix
//! `<a_{1,1}, …, a_{k,r}>` where `a_{i,j}` counts active flows of
//! class `i` whose wireless link sits in SNR level `s_j`. A matrix is
//! *achievable* when every flow's (thresholded) QoE is acceptable
//! simultaneously; the set of achievable matrices is the Experiential
//! Capacity Region (ExCR). ExBox learns the ExCR *boundary* rather
//! than enumerating the region.

use exbox_net::AppClass;

/// Discrete SNR level — mirrors `exbox_sim::phy::SnrLevel` without
/// depending on the simulator crate (the middlebox must not peek at
/// simulator internals; it receives levels from AP/eNodeB reports,
/// §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SnrLevel {
    /// Cell-edge link.
    Low,
    /// Near-AP link.
    High,
}

impl SnrLevel {
    /// Number of levels (`r`).
    pub const COUNT: usize = 2;
    /// All levels in canonical order.
    pub const ALL: [SnrLevel; 2] = [SnrLevel::Low, SnrLevel::High];

    /// Canonical index in `0..COUNT`.
    pub const fn index(self) -> usize {
        match self {
            SnrLevel::Low => 0,
            SnrLevel::High => 1,
        }
    }

    /// Inverse of [`SnrLevel::index`].
    ///
    /// # Panics
    /// Panics if `i >= COUNT`.
    pub fn from_index(i: usize) -> SnrLevel {
        Self::ALL[i]
    }
}

impl std::fmt::Display for SnrLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnrLevel::Low => f.write_str("low"),
            SnrLevel::High => f.write_str("high"),
        }
    }
}

/// A `(class, SNR-level)` cell of the traffic matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKind {
    /// Application class.
    pub class: AppClass,
    /// SNR level of the client's link.
    pub snr: SnrLevel,
}

impl FlowKind {
    /// Construct a kind.
    pub fn new(class: AppClass, snr: SnrLevel) -> Self {
        FlowKind { class, snr }
    }

    /// Flat index into the `k·r` matrix vector (class-major).
    pub fn flat_index(self) -> usize {
        self.class.index() * SnrLevel::COUNT + self.snr.index()
    }
}

/// The traffic matrix `<a_{1,1}, …, a_{k,r}>` with `k = 3` classes
/// and `r = 2` SNR levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TrafficMatrix {
    counts: [u32; AppClass::COUNT * SnrLevel::COUNT],
}

impl TrafficMatrix {
    /// Dimensionality of the matrix vector (`k·r = 6`).
    pub const DIMS: usize = AppClass::COUNT * SnrLevel::COUNT;

    /// The empty network.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Count for one `(class, snr)` cell.
    pub fn count(&self, kind: FlowKind) -> u32 {
        self.counts[kind.flat_index()]
    }

    /// Rebuild a matrix from raw per-cell counts in canonical
    /// [`FlowKind::flat_index`] order. This is how the concurrent
    /// gateway's shared atomic occupancy cell materialises a
    /// [`TrafficMatrix`] for a decision without walking flow tables.
    pub fn from_counts(counts: [u32; Self::DIMS]) -> Self {
        TrafficMatrix { counts }
    }

    /// The raw per-cell counts in canonical [`FlowKind::flat_index`]
    /// order (the inverse of [`TrafficMatrix::from_counts`]).
    pub fn counts(&self) -> [u32; Self::DIMS] {
        self.counts
    }

    /// Total flows of a class across SNR levels.
    pub fn class_total(&self, class: AppClass) -> u32 {
        SnrLevel::ALL
            .iter()
            .map(|&s| self.count(FlowKind::new(class, s)))
            .sum()
    }

    /// Total active flows.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// A copy with one more flow of `kind` — the matrix that would
    /// result from admitting it.
    pub fn with_arrival(&self, kind: FlowKind) -> TrafficMatrix {
        let mut m = *self;
        m.counts[kind.flat_index()] += 1;
        m
    }

    /// A copy with one less flow of `kind` (saturating at zero).
    pub fn with_departure(&self, kind: FlowKind) -> TrafficMatrix {
        let mut m = *self;
        let c = &mut m.counts[kind.flat_index()];
        *c = c.saturating_sub(1);
        m
    }

    /// Componentwise `≥`: every cell of `self` holds at least as many
    /// flows as the same cell of `other` (reflexive).
    pub(crate) fn dominates(&self, other: &TrafficMatrix) -> bool {
        self.counts.iter().zip(&other.counts).all(|(a, b)| a >= b)
    }

    /// Record an arrival in place.
    pub fn add(&mut self, kind: FlowKind) {
        self.counts[kind.flat_index()] += 1;
    }

    /// Record a departure in place (saturating).
    pub fn remove(&mut self, kind: FlowKind) {
        let c = &mut self.counts[kind.flat_index()];
        *c = c.saturating_sub(1);
    }

    /// The matrix as an `f64` feature vector in canonical order —
    /// the `X_m` encoding fed to the Admittance Classifier. The label
    /// `Y_m` is a property of the *resulting* matrix (paper §3.1:
    /// "+1 denotes that if flow m is admitted then still the new
    /// traffic matrix will have an acceptable QoE"), so the resulting
    /// matrix itself is the natural feature encoding, giving the
    /// `k·r + 1`-dimensional hyperplane the paper describes.
    pub fn features(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    /// [`TrafficMatrix::features`] into a caller-provided buffer —
    /// typically a `[f64; TrafficMatrix::DIMS]` stack array, keeping
    /// the per-packet admission path allocation-free.
    ///
    /// # Panics
    /// Panics unless `out.len() == DIMS`.
    pub fn features_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), Self::DIMS, "feature buffer length mismatch");
        for (o, &c) in out.iter_mut().zip(&self.counts) {
            *o = c as f64;
        }
    }

    /// Enumerate all kinds with non-zero count, with their counts.
    pub fn iter_kinds(&self) -> impl Iterator<Item = (FlowKind, u32)> + '_ {
        AppClass::ALL.into_iter().flat_map(move |class| {
            SnrLevel::ALL.into_iter().filter_map(move |snr| {
                let kind = FlowKind::new(class, snr);
                let c = self.count(kind);
                (c > 0).then_some((kind, c))
            })
        })
    }
}

impl std::fmt::Display for TrafficMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_indices_are_unique_and_dense() {
        let mut seen = [false; TrafficMatrix::DIMS];
        for class in AppClass::ALL {
            for snr in SnrLevel::ALL {
                let i = FlowKind::new(class, snr).flat_index();
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn arrival_departure_roundtrip() {
        let kind = FlowKind::new(AppClass::Streaming, SnrLevel::Low);
        let m = TrafficMatrix::empty().with_arrival(kind);
        assert_eq!(m.count(kind), 1);
        assert_eq!(m.total(), 1);
        let back = m.with_departure(kind);
        assert_eq!(back, TrafficMatrix::empty());
    }

    #[test]
    fn departure_saturates_at_zero() {
        let kind = FlowKind::new(AppClass::Web, SnrLevel::High);
        let m = TrafficMatrix::empty().with_departure(kind);
        assert_eq!(m.count(kind), 0);
    }

    #[test]
    fn class_total_sums_levels() {
        let mut m = TrafficMatrix::empty();
        m.add(FlowKind::new(AppClass::Web, SnrLevel::Low));
        m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
        m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
        assert_eq!(m.class_total(AppClass::Web), 3);
        assert_eq!(m.class_total(AppClass::Streaming), 0);
    }

    #[test]
    fn features_match_counts() {
        let mut m = TrafficMatrix::empty();
        let kind = FlowKind::new(AppClass::Conferencing, SnrLevel::High);
        m.add(kind);
        m.add(kind);
        let f = m.features();
        assert_eq!(f.len(), TrafficMatrix::DIMS);
        assert_eq!(f[kind.flat_index()], 2.0);
        assert_eq!(f.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn iter_kinds_lists_nonzero_only() {
        let mut m = TrafficMatrix::empty();
        m.add(FlowKind::new(AppClass::Web, SnrLevel::Low));
        m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
        let kinds: Vec<(FlowKind, u32)> = m.iter_kinds().collect();
        assert_eq!(kinds.len(), 2);
        assert!(kinds.iter().all(|&(_, c)| c == 1));
    }

    #[test]
    fn display_format() {
        let mut m = TrafficMatrix::empty();
        m.add(FlowKind::new(AppClass::Web, SnrLevel::Low));
        assert_eq!(format!("{m}"), "<1,0,0,0,0,0>");
    }

    #[test]
    fn matrices_are_hashable_for_dedup() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let kind = FlowKind::new(AppClass::Web, SnrLevel::Low);
        set.insert(TrafficMatrix::empty());
        set.insert(TrafficMatrix::empty().with_arrival(kind));
        set.insert(TrafficMatrix::empty()); // duplicate
        assert_eq!(set.len(), 2);
    }
}

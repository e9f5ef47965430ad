//! Experiential Capacity Region exploration.
//!
//! The Admittance Classifier stores the ExCR implicitly — a decision
//! function over traffic matrices. Operators, however, think in
//! Fig. 2c pictures: "how many streaming flows can I still take with
//! 10 conferencing flows up?" This module extracts that view:
//!
//! * [`region_slice`] — evaluate the learnt region over a 2-D grid of
//!   two flow kinds (the other counts fixed), yielding a heatmap like
//!   the paper's Fig. 2.
//! * [`max_admissible`] — the largest admissible count of one kind on
//!   top of a fixed background matrix (the per-axis capacity the
//!   paper quotes: "maximum count of admissible conferencing flows is
//!   ≈40, but … streaming … only ≈25").
//! * [`boundary_points`] — the frontier cells of a slice, i.e. the
//!   last admissible count per row — a compact description of the
//!   learnt surface for monitoring/diffing between retrains.

use exbox_ml::Label;

use crate::admittance::AdmittanceClassifier;
use crate::matrix::{FlowKind, TrafficMatrix};

/// One evaluated grid cell of a region slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionCell {
    /// Count of the first (x-axis) kind.
    pub x: u32,
    /// Count of the second (y-axis) kind.
    pub y: u32,
    /// Classifier verdict for the resulting matrix.
    pub admissible: bool,
    /// Decision value (depth inside the region; `None` while the
    /// classifier has no trained model).
    pub score: Option<f64>,
}

/// Evaluate the learnt region over the grid
/// `background + x·kind_x + y·kind_y` for `x ∈ 0..=max_x`,
/// `y ∈ 0..=max_y`. Row-major (y outer) order.
pub fn region_slice(
    classifier: &AdmittanceClassifier,
    background: &TrafficMatrix,
    kind_x: FlowKind,
    max_x: u32,
    kind_y: FlowKind,
    max_y: u32,
) -> Vec<RegionCell> {
    let mut cells = Vec::with_capacity((max_x as usize + 1) * (max_y as usize + 1));
    let mut row_base = *background;
    for y in 0..=max_y {
        let mut m = row_base;
        for x in 0..=max_x {
            let (label, score) = classifier.decide(&m);
            cells.push(RegionCell {
                x,
                y,
                admissible: label == Label::Pos,
                score,
            });
            m.add(kind_x);
        }
        row_base.add(kind_y);
    }
    cells
}

/// The largest `n ≤ limit` such that `background + n·kind` is
/// admissible — 0 when even one flow of `kind` is rejected.
pub fn max_admissible(
    classifier: &AdmittanceClassifier,
    background: &TrafficMatrix,
    kind: FlowKind,
    limit: u32,
) -> u32 {
    let mut m = *background;
    for n in 1..=limit {
        m.add(kind);
        if classifier.classify(&m) != Label::Pos {
            return n - 1;
        }
    }
    limit
}

/// For each `y` row of a slice, the largest admissible `x` (or `None`
/// when the row starts inadmissible) — the learnt frontier.
pub fn boundary_points(cells: &[RegionCell], max_x: u32) -> Vec<Option<u32>> {
    let width = (max_x + 1) as usize;
    cells
        .chunks(width)
        .map(|row| {
            let mut last = None;
            for c in row {
                if c.admissible {
                    last = Some(c.x);
                } else {
                    break;
                }
            }
            last
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admittance::AdmittanceConfig;
    use crate::matrix::SnrLevel;
    use exbox_net::AppClass;

    fn web() -> FlowKind {
        FlowKind::new(AppClass::Web, SnrLevel::High)
    }
    fn stream() -> FlowKind {
        FlowKind::new(AppClass::Streaming, SnrLevel::High)
    }

    /// Train on: admissible iff web + 2*stream <= 8.
    fn trained() -> AdmittanceClassifier {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        for w in 0..10u32 {
            for s in 0..6u32 {
                let mut m = TrafficMatrix::empty();
                for _ in 0..w {
                    m.add(web());
                }
                for _ in 0..s {
                    m.add(stream());
                }
                let y = if w + 2 * s <= 8 {
                    Label::Pos
                } else {
                    Label::Neg
                };
                ac.observe(m, y);
            }
        }
        assert_eq!(ac.phase(), crate::admittance::Phase::Online);
        ac
    }

    #[test]
    fn slice_covers_full_grid() {
        let ac = trained();
        let cells = region_slice(&ac, &TrafficMatrix::empty(), web(), 7, stream(), 5);
        assert_eq!(cells.len(), 8 * 6);
        // Origin is always admissible, the far corner never.
        assert!(cells[0].admissible);
        assert!(!cells.last().expect("non-empty").admissible);
    }

    #[test]
    fn boundary_shrinks_along_expensive_axis() {
        let ac = trained();
        let cells = region_slice(&ac, &TrafficMatrix::empty(), web(), 7, stream(), 5);
        let frontier = boundary_points(&cells, 7);
        assert_eq!(frontier.len(), 6);
        // With more streams (cost 2), fewer web flows (cost 1) fit:
        // the frontier is non-increasing in y.
        let vals: Vec<i64> = frontier
            .iter()
            .map(|f| f.map_or(-1, |v| v as i64))
            .collect();
        for w in vals.windows(2) {
            assert!(w[1] <= w[0], "frontier not monotone: {vals:?}");
        }
        assert!(vals[0] >= 6, "row y=0 should admit ~8 web flows");
    }

    #[test]
    fn max_admissible_matches_trained_rule() {
        let ac = trained();
        let cap_web = max_admissible(&ac, &TrafficMatrix::empty(), web(), 20);
        let cap_stream = max_admissible(&ac, &TrafficMatrix::empty(), stream(), 20);
        // Rule: web <= 8 alone, stream <= 4 alone.
        assert!((7..=9).contains(&cap_web), "web cap {cap_web}");
        assert!((3..=5).contains(&cap_stream), "stream cap {cap_stream}");
        // On a background of 4 web flows, stream capacity shrinks.
        let mut bg = TrafficMatrix::empty();
        for _ in 0..4 {
            bg.add(web());
        }
        let cap_with_bg = max_admissible(&ac, &bg, stream(), 20);
        assert!(cap_with_bg < cap_stream, "{cap_with_bg} !< {cap_stream}");
    }

    #[test]
    fn bootstrapping_classifier_reports_everything_admissible() {
        let ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        let cap = max_admissible(&ac, &TrafficMatrix::empty(), web(), 10);
        assert_eq!(cap, 10, "bootstrap admits everything");
        let cells = region_slice(&ac, &TrafficMatrix::empty(), web(), 3, stream(), 3);
        assert!(cells.iter().all(|c| c.admissible && c.score.is_none()));
    }
}

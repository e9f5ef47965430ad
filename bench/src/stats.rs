//! Exact order statistics over raw samples.
//!
//! The ledger never reads a latency from an `exbox-obs` histogram
//! bucket (2x-wide, see ROADMAP): every quantile here is an element of
//! the sample set itself.

/// Nearest-rank `q`-quantile of `samples` (`0 < q <= 1`): the smallest
/// element with at least `q * n` samples at or below it. Reorders the
/// slice; `None` when it is empty.
pub fn quantile(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    Some(*samples.select_nth_unstable(idx).1)
}

/// Median of per-repetition values (mean of the two middle values for
/// an even count). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What a run reports for a timing metric: the decile of its
/// per-repetition values on the metric's *better* side (nearest rank,
/// so the best value when there are fewer than eleven). `NaN` when
/// empty.
///
/// The work of a repetition is fixed, so repetitions differ only by
/// what the machine did to them, and on the shared reference box that
/// is one-sided: for seconds at a time a neighbour slows everything to
/// about 0.7x. The median of a run's repetitions then reports how much
/// of the run the neighbour was busy; the fast decile reports the
/// program, as long as a tenth of the run was undisturbed, and unlike
/// the single best value it is not set by one lucky repetition.
pub fn fast_decile(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    if higher_is_better {
        v.reverse();
    }
    let rank = (0.10 * v.len() as f64).ceil() as usize;
    v[rank.max(1) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_on_raw_samples() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5), Some(50));
        assert_eq!(quantile(&mut s, 0.99), Some(99));
        assert_eq!(quantile(&mut s, 1.0), Some(100));
        assert_eq!(quantile(&mut s, 0.001), Some(1));
        let mut odd = vec![9, 1, 5];
        assert_eq!(quantile(&mut odd, 0.5), Some(5));
        assert_eq!(quantile(&mut [], 0.5), None);
        // Always an element of the set, never an interpolation.
        let mut gap = vec![10, 1000];
        assert_eq!(quantile(&mut gap, 0.5), Some(10));
    }

    #[test]
    fn fast_decile_sits_on_the_better_side() {
        let times: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(fast_decile(&times, false), 3.0);
        assert_eq!(fast_decile(&times, true), 28.0);
        // Fewer than eleven values: the best one.
        assert_eq!(fast_decile(&[5.0, 2.0, 9.0], false), 2.0);
        assert_eq!(fast_decile(&[5.0, 2.0, 9.0], true), 9.0);
        // A slow half does not move it; one lucky value does not set it.
        let mut mixed = vec![10.0; 20];
        mixed.extend(vec![14.0; 20]);
        mixed.push(5.0);
        assert_eq!(fast_decile(&mixed, false), 10.0);
        assert!(fast_decile(&[], false).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}

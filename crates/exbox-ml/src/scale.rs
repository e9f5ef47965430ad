//! Feature scaling.
//!
//! SVMs are scale-sensitive: traffic-matrix counts (0–50) and SNR
//! level indices (0–1) live on different ranges, so the Admittance
//! Classifier standardises features before training. Scalers are
//! fitted on the training set only and then applied to incoming test
//! points, exactly as a deployed middlebox must.

use crate::data::Dataset;

/// Zero-mean / unit-variance standardisation.
///
/// Fitted scalers are plain owned data and therefore `Send + Sync`
/// (asserted at compile time below): the concurrent gateway publishes
/// one scaler per model snapshot and every shard transforms features
/// through `&self` concurrently.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

// Compile-time guarantee for the concurrent serving layer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StandardScaler>();
};

impl StandardScaler {
    /// Fit the scaler on a dataset.
    ///
    /// Features with zero variance get `std = 1` so they pass through
    /// centred but un-scaled (avoids division by zero).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit scaler on empty dataset");
        let d = data.dims();
        let n = data.len() as f64;
        let mut mean = vec![0.0; d];
        for (x, _) in data.iter() {
            for (m, &v) in mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for (x, _) in data.iter() {
            for k in 0..d {
                let dv = x[k] - mean[k];
                var[k] += dv * dv;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Transform one feature vector.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.transform_into(x, &mut out);
        out
    }

    /// Transform one feature vector into a caller-provided buffer —
    /// the zero-allocation form the admission fast path uses with a
    /// stack scratch array.
    ///
    /// # Panics
    /// Panics when `x` does not match the fitted dimensionality or
    /// `out` does not match `x` in length.
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimensionality mismatch");
        assert_eq!(out.len(), x.len(), "output buffer length mismatch");
        for ((o, &v), (&m, &sd)) in out.iter_mut().zip(x).zip(self.mean.iter().zip(&self.std)) {
            *o = (v - m) / sd;
        }
    }

    /// Transform a whole dataset (labels preserved).
    pub fn transform_dataset(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.dims());
        for (x, y) in data.iter() {
            out.push(self.transform(x), y);
        }
        out
    }

    /// Reassemble a scaler from persisted statistics (the
    /// checkpoint/restore path). `mean` and `std` must be the values a
    /// fitted scaler reported via [`StandardScaler::means`] /
    /// [`StandardScaler::stds`]; transforms are then bit-identical to
    /// the original scaler's.
    ///
    /// # Panics
    /// Panics when the vectors are empty, differ in length, contain
    /// non-finite values, or any std is not positive.
    pub fn from_parts(mean: Vec<f64>, std: Vec<f64>) -> Self {
        assert!(!mean.is_empty(), "scaler needs at least one feature");
        assert_eq!(mean.len(), std.len(), "mean/std length mismatch");
        assert!(mean.iter().all(|v| v.is_finite()), "means must be finite");
        assert!(
            std.iter().all(|v| v.is_finite() && *v > 0.0),
            "stds must be finite and positive"
        );
        StandardScaler { mean, std }
    }

    /// Per-feature means learned at fit time.
    pub fn means(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviations learned at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;

    fn ds() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(vec![0.0, 10.0], Label::Pos);
        d.push(vec![2.0, 10.0], Label::Pos);
        d.push(vec![4.0, 10.0], Label::Neg);
        d
    }

    #[test]
    fn standard_scaler_centres_and_scales() {
        let s = StandardScaler::fit(&ds());
        let t = s.transform_dataset(&ds());
        // Column 0: mean 2, population std sqrt(8/3).
        let col0: Vec<f64> = (0..3).map(|i| t.x(i)[0]).collect();
        let mean: f64 = col0.iter().sum::<f64>() / 3.0;
        let var: f64 = col0.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standard_scaler_constant_feature_passthrough() {
        let s = StandardScaler::fit(&ds());
        // Column 1 is constant 10 -> std forced to 1, transform = v-10.
        assert_eq!(s.transform(&[2.0, 10.0])[1], 0.0);
        assert_eq!(s.transform(&[2.0, 12.0])[1], 2.0);
    }

    #[test]
    fn scalers_preserve_labels() {
        let s = StandardScaler::fit(&ds());
        let t = s.transform_dataset(&ds());
        assert_eq!(t.y(0), Label::Pos);
        assert_eq!(t.y(2), Label::Neg);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_empty_panics() {
        let _ = StandardScaler::fit(&Dataset::new(1));
    }

    #[test]
    fn from_parts_roundtrips_bit_exact() {
        let s = StandardScaler::fit(&ds());
        let rebuilt = StandardScaler::from_parts(s.means().to_vec(), s.stds().to_vec());
        for x in [[0.0, 10.0], [3.7, 11.2], [-5.0, 9.9]] {
            let a = s.transform(&x);
            let b = rebuilt.transform(&x);
            assert_eq!(a[0].to_bits(), b[0].to_bits());
            assert_eq!(a[1].to_bits(), b[1].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_parts_rejects_zero_std() {
        let _ = StandardScaler::from_parts(vec![0.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_parts_rejects_nan_mean() {
        let _ = StandardScaler::from_parts(vec![f64::NAN], vec![1.0]);
    }
}

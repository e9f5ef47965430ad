//! n-fold cross-validation.
//!
//! The Admittance Classifier's bootstrap phase (paper §3.1, Fig. 4)
//! "performs n-fold cross validation on the training set periodically
//! … When a predefined accuracy threshold is reached, ExBox stops the
//! bootstrapping phase." This module provides that machinery for any
//! [`TrainClassifier`].

use crate::data::Dataset;
use crate::metrics::ConfusionMatrix;
use crate::{Classifier, TrainClassifier};

/// Result of one cross-validation run.
#[derive(Debug, Clone, Copy)]
pub struct CvReport {
    /// Number of folds evaluated.
    pub folds: usize,
    /// Pooled confusion matrix over all held-out folds.
    pub confusion: ConfusionMatrix,
    /// Mean held-out accuracy across folds (unweighted).
    pub mean_accuracy: f64,
}

impl CvReport {
    /// Pooled held-out accuracy (all decisions together). This is the
    /// quantity the bootstrap phase compares against its threshold.
    pub fn accuracy(&self) -> f64 {
        self.confusion.metrics().accuracy
    }
}

/// Run deterministic `n`-fold cross-validation: shuffle with `seed`,
/// split into `n` folds, train on `n−1` and evaluate on the held-out
/// fold, pooling the confusion counts.
///
/// # Panics
/// Panics if `n < 2` or the dataset has fewer than `n` samples.
pub fn cross_validate<T: TrainClassifier>(
    trainer: &T,
    data: &Dataset,
    n: usize,
    seed: u64,
) -> CvReport {
    assert!(n >= 2, "cross-validation needs at least 2 folds");
    let mut shuffled = data.clone();
    shuffled.shuffle(seed);
    let folds = shuffled.fold_indices(n);

    let mut pooled = ConfusionMatrix::new();
    let mut acc_sum = 0.0;
    for held in 0..n {
        let mut train_idx = Vec::new();
        for (f, idxs) in folds.iter().enumerate() {
            if f != held {
                train_idx.extend_from_slice(idxs);
            }
        }
        let train = shuffled.subset(&train_idx);
        let test = shuffled.subset(&folds[held]);
        let model = trainer.fit(&train);
        let mut cm = ConfusionMatrix::new();
        for (x, y) in test.iter() {
            cm.record(model.predict(x), y);
        }
        acc_sum += cm.metrics().accuracy;
        pooled.merge(&cm);
    }

    CvReport {
        folds: n,
        confusion: pooled,
        mean_accuracy: acc_sum / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;
    use crate::kernel::Kernel;
    use crate::svm::SvmTrainer;

    fn separable(n: usize) -> Dataset {
        let mut ds = Dataset::new(1);
        for i in 0..n {
            ds.push(vec![-1.0 - i as f64 * 0.01], Label::Pos);
            ds.push(vec![1.0 + i as f64 * 0.01], Label::Neg);
        }
        ds
    }

    #[test]
    fn cv_on_separable_data_is_accurate() {
        let trainer = SvmTrainer::new(Kernel::Linear).c(10.0);
        let report = cross_validate(&trainer, &separable(20), 5, 1);
        assert_eq!(report.folds, 5);
        assert!(report.accuracy() > 0.9, "accuracy {}", report.accuracy());
        assert!(report.mean_accuracy > 0.9);
    }

    #[test]
    fn cv_covers_every_sample_exactly_once() {
        let trainer = SvmTrainer::new(Kernel::Linear);
        let data = separable(10);
        let report = cross_validate(&trainer, &data, 4, 7);
        assert_eq!(report.confusion.total() as usize, data.len());
    }

    #[test]
    fn cv_on_random_labels_is_near_chance() {
        // Same x for both labels => nothing learnable; accuracy ~0.5.
        let mut ds = Dataset::new(1);
        for i in 0..40 {
            let y = if i % 2 == 0 { Label::Pos } else { Label::Neg };
            ds.push(vec![(i % 5) as f64], y);
        }
        let trainer = SvmTrainer::new(Kernel::rbf(1.0));
        let report = cross_validate(&trainer, &ds, 5, 3);
        assert!(
            report.accuracy() < 0.75,
            "unlearnable data scored {}",
            report.accuracy()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let trainer = SvmTrainer::new(Kernel::Linear);
        let data = separable(15);
        let a = cross_validate(&trainer, &data, 3, 42);
        let b = cross_validate(&trainer, &data, 3, 42);
        assert_eq!(a.confusion, b.confusion);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_fold_panics() {
        let trainer = SvmTrainer::new(Kernel::Linear);
        let _ = cross_validate(&trainer, &separable(4), 1, 0);
    }
}

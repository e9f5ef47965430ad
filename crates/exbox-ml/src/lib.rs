//! # exbox-ml — machine-learning substrate for ExBox
//!
//! ExBox's Admittance Classifier (paper §3.1) is a binary classifier
//! over traffic-matrix feature vectors. The paper uses an off-the-shelf
//! SVM with batch online updates; this crate provides that substrate
//! from scratch:
//!
//! * [`svm`] — soft-margin Support Vector Machine trained with the
//!   Sequential Minimal Optimization (SMO) algorithm, with linear,
//!   polynomial and RBF kernels ([`kernel`]).
//! * [`compact`] — a flattened, pruned serving form of a trained SVM
//!   ([`CompactSvm`]) for the per-arrival admission fast path.
//! * [`linear`] — a fast primal solver (Pegasos-style SGD) for linear
//!   SVMs, used when training sets grow large.
//! * [`logreg`] — logistic regression, provided because the paper notes
//!   "the actual learning technique is not central to the concept of
//!   ExBox and can be implemented as a separate module".
//! * [`scale`] — feature standardisation (zero mean / unit variance).
//! * [`cv`] — n-fold cross-validation, used by the bootstrap phase to
//!   decide when the classifier is accurate enough to go online.
//! * [`metrics`] — precision / recall / accuracy / F1, the metrics the
//!   paper evaluates (§5.3 "Macro results").
//! * [`persist`] — text-format save/load of trained models, enabling
//!   the paper's §4.4 model sharing across networks.
//! * [`data`] — dataset container with deterministic shuffling and
//!   stratified splitting.
//!
//! All classifiers implement the [`Classifier`] trait so the
//! Admittance Classifier in `exbox-core` can swap them freely.
//!
//! ## Example
//!
//! ```
//! use exbox_ml::prelude::*;
//!
//! // Learn the boundary x0 + x1 <= 6 (a toy capacity region).
//! let mut ds = Dataset::new(2);
//! for a in 0..8 {
//!     for b in 0..8 {
//!         let y = if a + b <= 6 { Label::Pos } else { Label::Neg };
//!         ds.push(vec![a as f64, b as f64], y);
//!     }
//! }
//! let model = SvmTrainer::new(Kernel::rbf(0.5)).c(10.0).train(&ds);
//! assert_eq!(model.predict(&[1.0, 1.0]), Label::Pos);
//! assert_eq!(model.predict(&[7.0, 7.0]), Label::Neg);
//! ```

pub mod compact;
pub mod cv;
pub mod data;
pub mod kernel;
pub mod linear;
pub mod logreg;
pub mod metrics;
pub mod persist;
pub mod scale;
pub mod svm;

pub use compact::CompactSvm;
pub use cv::{cross_validate, CvReport};
pub use data::{Dataset, Label};
pub use kernel::{gram_matrix, Kernel};
pub use linear::{LinearSvm, LinearSvmTrainer};
pub use logreg::{LogisticRegression, LogisticRegressionTrainer};
pub use metrics::{BinaryMetrics, ConfusionMatrix};
pub use scale::StandardScaler;
pub use svm::{PersistentKernelCache, SvmFit, SvmModel, SvmTrainer, WarmStart};

/// A trained binary classifier over dense `f64` feature vectors.
///
/// Implementations must be deterministic: the same model and input
/// always produce the same output. The decision value's sign gives the
/// predicted [`Label`]; its magnitude is a confidence proxy — for SVMs
/// it is proportional to the distance from the separating hyperplane,
/// which ExBox uses for network selection (paper §4.1: pick the network
/// where the test point lies furthest *inside* the capacity region).
pub trait Classifier {
    /// Signed decision value; positive means [`Label::Pos`].
    fn decision_value(&self, x: &[f64]) -> f64;

    /// Predicted label: the sign of [`Classifier::decision_value`].
    /// A decision value of exactly zero is resolved as [`Label::Pos`],
    /// matching the convention `sign(0) = +1` used by libsvm.
    fn predict(&self, x: &[f64]) -> Label {
        if self.decision_value(x) >= 0.0 {
            Label::Pos
        } else {
            Label::Neg
        }
    }

    /// Number of features the classifier expects.
    fn dims(&self) -> usize;
}

/// A training algorithm producing a [`Classifier`].
///
/// Trainers carry hyper-parameters; calling [`TrainClassifier::fit`]
/// consumes a dataset and returns a trained model. Training must be
/// deterministic given the trainer's configured seed.
pub trait TrainClassifier {
    /// The model type this trainer produces.
    type Model: Classifier;

    /// Train on the given dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty or contains inconsistent
    /// dimensionality (enforced by [`Dataset::push`]).
    fn fit(&self, data: &Dataset) -> Self::Model;
}

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::compact::CompactSvm;
    pub use crate::cv::{cross_validate, CvReport};
    pub use crate::data::{Dataset, Label};
    pub use crate::kernel::Kernel;
    pub use crate::linear::{LinearSvm, LinearSvmTrainer};
    pub use crate::logreg::{LogisticRegression, LogisticRegressionTrainer};
    pub use crate::metrics::{BinaryMetrics, ConfusionMatrix};
    pub use crate::scale::StandardScaler;
    pub use crate::svm::{PersistentKernelCache, SvmFit, SvmModel, SvmTrainer, WarmStart};
    pub use crate::{Classifier, TrainClassifier};
}

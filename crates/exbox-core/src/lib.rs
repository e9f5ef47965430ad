//! # exbox-core — the ExBox experience-management middlebox
//!
//! Reproduction of the primary contribution of *“ExBox: Experience
//! Management Middlebox for Wireless Networks”* (CoNEXT 2016):
//! rethinking wireless capacity as an **Experiential Capacity Region
//! (ExCR)** — the set of traffic matrices whose flows all meet their
//! QoE thresholds — and learning its boundary online to drive
//! admission control and network selection from a gateway middlebox.
//!
//! * [`matrix`] — traffic matrices `<a_{1,1} … a_{k,r}>` over
//!   (application class × SNR level) and their feature encoding.
//! * [`iqx`] — the IQX hypothesis `QoE = α + β·e^(−γ·QoS)` with a
//!   robust least-squares fitter (paper §3.2, Fig. 12).
//! * [`qoe`] — the QoE Estimator: per-class IQX models plus
//!   acceptability thresholds mapping QoE to `Y ∈ {+1, −1}`.
//! * [`admittance`] — the Admittance Classifier: bootstrap phase with
//!   cross-validated exit, online batch retraining (paper §3.1).
//! * [`baselines`] — the `RateBased` and `MaxClient` industry
//!   baselines behind the same [`baselines::AdmissionController`]
//!   trait as ExBox itself (paper §5.3).
//! * [`selection`] — hyperplane-distance network selection across
//!   multiple cells (paper §4.1).
//! * [`apps`] — app-based admission control (the paper's §4.5 future
//!   work): subsidiary flows ride their app's dominant-flow decision.
//! * [`excr`] — extract the learnt region as Fig.-2-style slices,
//!   per-axis capacities and frontier curves.
//! * [`persist`] — save/load fitted QoE estimators (the paper's §4.4
//!   model sharing across networks) and full-state `exbox-ckpt`
//!   checkpoints for crash-safe restarts.
//! * [`recovery`] — deterministic fault injection ([`FaultPlan`], the
//!   `EXBOX_FAULTS` knob) and the bounded retrain backoff behind the
//!   gateway's degraded-mode policy.
//! * [`gateway`] — the packet-facing middlebox (paper Fig. 5, §4.3):
//!   each flow-hash shard runs one flow engine — early classification
//!   → admission → QoS metering → periodic re-evaluation — against
//!   `Arc`-published epoch-stamped model snapshots, while a background
//!   trainer keeps retraining and checkpointing off the packet path.
//! * [`flowtable`] — the million-flow state layer: slab-backed
//!   [`flowtable::FlowMap`] with stable slots and insertion-order
//!   iteration, the generation-stamped [`flowtable::RejectedRing`],
//!   and the [`flowtable::TimerWheel`] due list behind incremental
//!   polling.
//!
//! ## Quick start
//!
//! ```
//! use exbox_core::prelude::*;
//! use exbox_ml::Label;
//! use exbox_net::AppClass;
//!
//! // Learn a toy ExCR: the cell supports at most 5 flows.
//! let mut exbox = ExBoxController::new(AdmittanceClassifier::new(
//!     AdmittanceConfig::default(),
//! ));
//! for n in 0..80u32 {
//!     let total = n % 9;
//!     let mut m = TrafficMatrix::empty();
//!     for _ in 0..total {
//!         m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
//!     }
//!     let y = if total <= 5 { Label::Pos } else { Label::Neg };
//!     exbox.on_observation(m, y);
//! }
//! assert!(!exbox.is_bootstrapping());
//! ```

pub mod admittance;
pub mod apps;
pub mod baselines;
pub(crate) mod engine;
pub mod excr;
pub mod flowtable;
pub mod gateway;
pub mod iqx;
pub mod matrix;
pub mod persist;
pub mod qoe;
pub mod recovery;
pub mod selection;
pub(crate) mod sync;

pub use admittance::{AdmittanceClassifier, AdmittanceConfig, ClassifierBackend, Phase};
pub use apps::{AppAdmission, AppKey};
pub use baselines::{
    AdmissionController, Decision, ExBoxController, FlowRequest, MaxClient, RateBased,
};
pub use engine::{
    Action, DecisionEvent, DecisionKind, DecisionReason, MiddleboxConfig, PollVerdict,
};
pub use excr::{boundary_points, max_admissible, region_slice, RegionCell};
pub use flowtable::{FlowMap, FlowSlot, RejectedRing, TimerWheel};
pub use gateway::{
    ConcurrentGateway, GatewayConfig, GatewayShard, ModelSnapshot, SharedMatrix, SnapshotCell,
    SnapshotReader,
};
pub use iqx::IqxModel;
pub use matrix::{FlowKind, SnrLevel, TrafficMatrix};
pub use persist::{
    load_checkpoint, load_checkpoint_from_path, load_estimator, save_checkpoint,
    save_checkpoint_to_path, save_estimator,
};
pub use qoe::{ClassQoeModel, MetricDirection, QoeEstimator};
pub use recovery::{FaultKind, FaultPlan, RetryBackoff};
pub use selection::{NetworkCell, NetworkSelector, Selection};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::admittance::{AdmittanceClassifier, AdmittanceConfig, ClassifierBackend, Phase};
    pub use crate::apps::{AppAdmission, AppKey};
    pub use crate::baselines::{
        AdmissionController, Decision, ExBoxController, FlowRequest, MaxClient, RateBased,
    };
    pub use crate::engine::{
        Action, DecisionEvent, DecisionKind, DecisionReason, MiddleboxConfig, PollVerdict,
    };
    pub use crate::gateway::{
        ConcurrentGateway, GatewayConfig, GatewayShard, ModelSnapshot, PipelineHandle, SharedMatrix,
    };
    pub use crate::iqx::IqxModel;
    pub use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
    pub use crate::persist::{
        load_checkpoint, load_checkpoint_from_path, save_checkpoint, save_checkpoint_to_path,
    };
    pub use crate::qoe::{
        paper_directions, train_estimator, ClassQoeModel, MetricDirection, QoeEstimator,
    };
    pub use crate::recovery::{FaultKind, FaultPlan, RetryBackoff};
    pub use crate::selection::{NetworkCell, NetworkSelector, Selection};
}

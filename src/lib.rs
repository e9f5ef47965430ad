//! # ExBox — experience management middlebox for wireless networks
//!
//! A from-scratch Rust reproduction of *“ExBox: Experience Management
//! Middlebox for Wireless Networks”* (ACM CoNEXT 2016): QoE-driven
//! admission control and network selection for WiFi/LTE cells, built
//! on the notion of an **Experiential Capacity Region** — the set of
//! traffic matrices whose flows all meet their QoE thresholds — whose
//! boundary is learnt online with an SVM.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] | ExCR, IQX QoE estimation, Admittance Classifier, baselines, network selection, the gateway |
//! | [`ml`] | SMO SVM, Pegasos, logistic regression, cross-validation, metrics |
//! | [`net`] | packets, flow table, QoS meters, shaper, early traffic classification, pcap |
//! | [`sim`] | discrete-event 802.11 DCF + LTE TTI cell simulators, fluid models, app QoE |
//! | [`traffic`] | web / streaming / conferencing generators, Random + LiveLab workloads |
//! | [`testbed`] | emulated testbeds, IQX training sweeps, online evaluation harness |
//!
//! ## Quick start
//!
//! ```
//! use exbox::prelude::*;
//! use exbox::ml::Label;
//! use exbox::net::AppClass;
//!
//! // Learn a toy capacity region (<= 5 flows) and make decisions.
//! let mut exbox = ExBoxController::new(AdmittanceClassifier::new(
//!     AdmittanceConfig::default(),
//! ));
//! for n in 0..80u32 {
//!     let total = n % 9;
//!     let mut m = TrafficMatrix::empty();
//!     for _ in 0..total {
//!         m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
//!     }
//!     let label = if total <= 5 { Label::Pos } else { Label::Neg };
//!     exbox.on_observation(m, label);
//! }
//! assert!(!exbox.is_bootstrapping());
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/exbox-bench` for the paper's figure reproductions.

pub use exbox_core as core;
pub use exbox_ml as ml;
pub use exbox_net as net;
pub use exbox_sim as sim;
pub use exbox_testbed as testbed;
pub use exbox_traffic as traffic;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use exbox_core::prelude::*;
    pub use exbox_ml::prelude::*;
    pub use exbox_net::{AppClass, Duration, Instant, QosSample};
    pub use exbox_testbed::{build_samples, evaluate_online, Sample, SnrPolicy};
    pub use exbox_traffic::{ClassMix, LiveLabGenerator, RandomPattern};
}

//! Property-based tests for exbox-core invariants.

use exbox_core::prelude::*;
use exbox_ml::Label;
use exbox_net::AppClass;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = FlowKind> {
    (0usize..3, 0usize..2)
        .prop_map(|(c, s)| FlowKind::new(AppClass::from_index(c), SnrLevel::from_index(s)))
}

fn arb_matrix() -> impl Strategy<Value = TrafficMatrix> {
    prop::collection::vec(arb_kind(), 0..40).prop_map(|kinds| {
        let mut m = TrafficMatrix::empty();
        for k in kinds {
            m.add(k);
        }
        m
    })
}

proptest! {
    /// Arrival then departure of the same kind is the identity.
    #[test]
    fn matrix_arrival_departure_identity(m in arb_matrix(), k in arb_kind()) {
        prop_assert_eq!(m.with_arrival(k).with_departure(k), m);
    }

    /// Total always equals the sum of the feature vector.
    #[test]
    fn matrix_total_is_feature_sum(m in arb_matrix()) {
        let sum: f64 = m.features().iter().sum();
        prop_assert_eq!(sum as u32, m.total());
    }

    /// Departures never underflow.
    #[test]
    fn matrix_departure_saturates(k in arb_kind(), n in 0u32..5) {
        let mut m = TrafficMatrix::empty();
        for _ in 0..n {
            m.add(k);
        }
        for _ in 0..(n + 3) {
            m.remove(k);
        }
        prop_assert_eq!(m.total(), 0);
    }

    /// Feature encoding is injective over distinct matrices.
    #[test]
    fn matrix_features_injective(a in arb_matrix(), b in arb_matrix()) {
        if a != b {
            prop_assert_ne!(a.features(), b.features());
        } else {
            prop_assert_eq!(a.features(), b.features());
        }
    }

    /// IQX evaluation is monotone for positive β and γ.
    #[test]
    fn iqx_monotone_decreasing(
        alpha in -10.0f64..10.0,
        beta in 0.1f64..50.0,
        gamma in 0.1f64..10.0,
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let m = IqxModel { alpha, beta, gamma };
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(m.qoe(lo) >= m.qoe(hi) - 1e-12);
    }

    /// IQX fit never increases RMSE above the flat-model baseline
    /// (the fit family contains β = 0).
    #[test]
    fn iqx_fit_beats_flat_model(points in prop::collection::vec((0.0f64..1.0, 0.0f64..50.0), 3..40)) {
        let fit = IqxModel::fit(&points);
        let mean = points.iter().map(|&(_, e)| e).sum::<f64>() / points.len() as f64;
        let flat = IqxModel { alpha: mean, beta: 0.0, gamma: 1.0 };
        prop_assert!(fit.rmse(&points) <= flat.rmse(&points) + 1e-9,
            "fit rmse {} worse than flat {}", fit.rmse(&points), flat.rmse(&points));
    }

    /// QosScale::normalize is monotone and bounded.
    #[test]
    fn qos_scale_monotone(lo in 1.0f64..1e4, span in 2.0f64..1e6, a in 0.0f64..1e10, b in 0.0f64..1e10) {
        let scale = exbox_core::qoe::QosScale::new(lo, lo * span);
        let (na, nb) = (scale.normalize(a), scale.normalize(b));
        prop_assert!((0.0..=1.0).contains(&na));
        prop_assert!((0.0..=1.0).contains(&nb));
        if a <= b {
            prop_assert!(na <= nb + 1e-12);
        }
    }

    /// The Admittance Classifier's store deduplicates: observing the
    /// same matrix many times holds one entry with the latest label.
    #[test]
    fn admittance_store_dedups(m in arb_matrix(), labels in prop::collection::vec(any::<bool>(), 1..20)) {
        let mut ac = AdmittanceClassifier::new(AdmittanceConfig {
            bootstrap_min_samples: 10_000, // stay in bootstrap
            ..AdmittanceConfig::default()
        });
        for &pos in &labels {
            let y = if pos { Label::Pos } else { Label::Neg };
            ac.observe(m, y);
        }
        prop_assert_eq!(ac.num_samples(), 1);
        prop_assert_eq!(ac.num_observations(), labels.len() as u64);
    }

    /// During bootstrap everything classifies as admissible.
    #[test]
    fn bootstrap_admits_everything(m in arb_matrix()) {
        let ac = AdmittanceClassifier::new(AdmittanceConfig::default());
        prop_assert_eq!(ac.classify(&m), Label::Pos);
    }

    /// RateBased commitment tracking never goes negative and admits
    /// iff there is room.
    #[test]
    fn rate_based_commitment_invariant(events in prop::collection::vec((any::<bool>(), 1.0f64..10e6), 1..100)) {
        let mut rb = RateBased::new(50e6);
        for (arrive, demand) in events {
            if arrive {
                let req = FlowRequest {
                    kind: FlowKind::new(AppClass::Web, SnrLevel::High),
                    demand_bps: demand,
                    resulting_matrix: TrafficMatrix::empty(),
                };
                if rb.decide(&req) == Decision::Admit {
                    rb.on_admitted(&req);
                }
            } else {
                rb.on_departure(FlowKind::new(AppClass::Web, SnrLevel::High), demand);
            }
            prop_assert!(rb.committed_bps() >= 0.0);
            prop_assert!(rb.committed_bps() <= 50e6 + 1e-6);
        }
    }

    /// MaxClient active count is bounded by the cap under any event
    /// sequence.
    #[test]
    fn max_client_never_exceeds_cap(cap in 1u32..20, events in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut mc = MaxClient::new(cap);
        let req = FlowRequest {
            kind: FlowKind::new(AppClass::Web, SnrLevel::High),
            demand_bps: 1.0,
            resulting_matrix: TrafficMatrix::empty(),
        };
        for arrive in events {
            if arrive {
                if mc.decide(&req) == Decision::Admit {
                    mc.on_admitted(&req);
                }
            } else {
                mc.on_departure(req.kind, 1.0);
            }
            prop_assert!(mc.active() <= cap);
        }
    }
}

//! `arrival_storm`: nothing but arrivals.
//!
//! Flows arrive sixteen at a time, each sends exactly its
//! classification window and is decided. Admitted flows leave oldest
//! first at a rate that swings around the arrival rate, so occupancy
//! wanders up to the model's boundary (arrivals rejected) and back
//! below it (all admitted). There are no steady packets, deliveries or
//! polls: what `day_serve` lives on is absent here.

use std::collections::VecDeque;

use exbox_core::matrix::TrafficMatrix;
use exbox_core::{AdmittanceClassifier, ConcurrentGateway, ModelSnapshot};
use exbox_ml::Label;
use exbox_net::{Duration, FlowKey, Instant};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;

use super::{serve_group, serving_gateway, Workload, GROUP};
use crate::harness::{Harness, Role};
use crate::traffic::{bootstrap_classifier, capacity_samples, Mix, Session};

const MIX: Mix = Mix {
    class_share: [0.6, 0.2, 0.2],
    low_snr: 0.25,
};
/// Weighted-load capacity truth: about 18 flows of [`MIX`], few enough
/// that the walk along the boundary comes back to matrices it has
/// decided before (two decisions in five are cache hits).
const CAP: u32 = 36;
const BOOTSTRAP_SAMPLES: usize = 600;
/// Arrival groups the reference box serves per second.
const GROUPS_PER_SECOND: f64 = 24_000.0;
/// Groups per swing of the departure rate.
const SWING_GROUPS: f64 = 40.0;
/// Rejected flows give up (and their state is released) once this many
/// later rejections have queued behind them.
const REJECTED_LINGER: usize = 1024;

pub struct ArrivalStorm {
    flows: Vec<Session>,
    /// Oldest-first departures of admitted flows after each group.
    departures: Vec<u8>,
    samples: Vec<(TrafficMatrix, Label)>,
    classifier: AdmittanceClassifier,
}

impl ArrivalStorm {
    pub fn prepare(seed: u64, quick: bool) -> ArrivalStorm {
        let groups = if quick { 1_500 } else { 6_000 };
        let rng = Rng::new(seed).derive(0x5702);
        let mut flow_rng = rng.derive(1);
        let flows = (0..groups * GROUP)
            .map(|id| {
                let (class, snr) = MIX.draw(&mut flow_rng);
                Session::new(id as u64, class, snr)
            })
            .collect();
        // Departures swing between 4 and 18 a group around a mean of
        // 11, against 16 arrivals: below 16 occupancy climbs to the
        // boundary and the surplus is rejected, above it drains.
        let mut dep_rng = rng.derive(2);
        let departures = (0..groups)
            .map(|g| {
                let swing = (g as f64 / SWING_GROUPS * std::f64::consts::TAU).sin();
                let jitter = dep_rng.index(5) as f64 - 2.0;
                (11.0 + 7.0 * swing + jitter).round().clamp(0.0, 24.0) as u8
            })
            .collect();
        let samples = capacity_samples(&mut rng.derive(3), BOOTSTRAP_SAMPLES, &MIX, CAP);
        let classifier = bootstrap_classifier(&samples);
        ArrivalStorm {
            flows,
            departures,
            samples,
            classifier,
        }
    }
}

impl Workload for ArrivalStorm {
    fn gateway(&self, _: &MetricsRegistry) -> ConcurrentGateway {
        serving_gateway(ModelSnapshot::from_classifier(1, &self.classifier))
    }

    fn pass(&self, h: &mut Harness) {
        let mut admitted: VecDeque<FlowKey> = VecDeque::new();
        let mut rejected: VecDeque<FlowKey> = VecDeque::new();
        let mut scratch = Vec::new();
        let mut forwarded = Vec::new();
        let mut at = Instant::ZERO;
        for (group, &leave) in self.flows.chunks(GROUP).zip(&self.departures) {
            serve_group(h, group, at, Role::Step, &mut scratch, &mut forwarded);
            for (flow, &ok) in group.iter().zip(&forwarded) {
                if ok {
                    admitted.push_back(flow.key);
                } else {
                    rejected.push_back(flow.key);
                }
            }
            for _ in 0..leave {
                let Some(key) = admitted.pop_front() else {
                    break;
                };
                h.depart(&key);
            }
            while rejected.len() > REJECTED_LINGER {
                let key = rejected.pop_front().expect("non-empty");
                h.depart(&key);
            }
            at += Duration::from_millis(250);
        }
    }

    fn passes_per_second(&self) -> f64 {
        GROUPS_PER_SECOND / self.departures.len() as f64
    }

    fn ops(&self, h: &Harness) -> u64 {
        h.packets
    }

    fn observations(&self) -> &[(TrafficMatrix, Label)] {
        &self.samples
    }
}

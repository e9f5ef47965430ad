//! `drift_learn`: the live trainer under capacity drift.
//!
//! Rounds of 40 injected observations, labelled by a capacity truth
//! that shrinks a third of the way in, each closed by one
//! `flush_trainer` and followed by a 64-flow burst served against
//! whatever the trainer just published. The store is bounded and the
//! scaler sticky, as a deployment that runs for days would configure
//! it. Retrain, snapshot build and publish dominate, and every burst
//! decides on a cold decision cache — so work moved from decision time
//! to publish time shows as a cost here and as a gain on
//! `arrival_storm`.
//!
//! Flushing once per round keeps verdicts a function of the seed with
//! one thread hand-off per round (~2 ms), not one per observation.

use exbox_core::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use exbox_core::{AdmittanceClassifier, ConcurrentGateway};
use exbox_ml::Label;
use exbox_net::{AppClass, Duration, Instant};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;

use super::{gateway_config, serve_group, Workload, GROUP};
use crate::harness::{Harness, Role, Seg};
use crate::traffic::{estimator, live_trainer_config, Mix, Session};

/// Two of the trainer's 20-observation batches, so every round pays
/// for exactly two retrains and the step's median is not the edge
/// between two kinds of round.
const ROUND_OBSERVATIONS: usize = 40;
const BURST_FLOWS: usize = 64;
/// Rounds the reference box completes per second.
const ROUNDS_PER_SECOND: f64 = 600.0;
/// Per-class flow counts are drawn from `0..=DRAW_MAX`, wide enough
/// that nearly every draw is a matrix the store has not seen.
const DRAW_MAX: usize = 24;
/// The truth admits a matrix while its total flow count is within the
/// capacity, which shifts from `CAP_BEFORE` to `CAP_AFTER`.
const CAP_BEFORE: u32 = 36;
const CAP_AFTER: u32 = 24;
const BURST_MIX: Mix = Mix {
    class_share: [0.6, 0.2, 0.2],
    low_snr: 0.0,
};

pub struct DriftLearn {
    /// `ROUND_OBSERVATIONS` per round, labelled by that round's truth.
    observations: Vec<(TrafficMatrix, Label)>,
    /// `BURST_FLOWS` per round.
    flows: Vec<Session>,
}

impl DriftLearn {
    pub fn prepare(seed: u64, quick: bool) -> DriftLearn {
        let rounds = if quick { 30 } else { 300 };
        let rng = Rng::new(seed).derive(0xD21F);
        let mut obs_rng = rng.derive(1);
        let observations = (0..rounds * ROUND_OBSERVATIONS)
            .map(|i| {
                let cap = if i / ROUND_OBSERVATIONS < rounds / 3 {
                    CAP_BEFORE
                } else {
                    CAP_AFTER
                };
                let mut counts = [0u32; TrafficMatrix::DIMS];
                for class in AppClass::ALL {
                    counts[FlowKind::new(class, SnrLevel::High).flat_index()] =
                        obs_rng.index(DRAW_MAX + 1) as u32;
                }
                let matrix = TrafficMatrix::from_counts(counts);
                let label = if matrix.total() <= cap {
                    Label::Pos
                } else {
                    Label::Neg
                };
                (matrix, label)
            })
            .collect();
        let mut flow_rng = rng.derive(2);
        let flows = (0..rounds * BURST_FLOWS)
            .map(|id| {
                let (class, snr) = BURST_MIX.draw(&mut flow_rng);
                Session::new(id as u64, class, snr)
            })
            .collect();
        DriftLearn {
            observations,
            flows,
        }
    }
}

impl Workload for DriftLearn {
    fn gateway(&self, registry: &MetricsRegistry) -> ConcurrentGateway {
        let classifier = AdmittanceClassifier::with_registry(live_trainer_config(), registry);
        ConcurrentGateway::new(gateway_config(), estimator(), classifier)
    }

    fn pass(&self, h: &mut Harness) {
        let mut scratch = Vec::new();
        let mut forwarded = Vec::new();
        let mut at = Instant::ZERO;
        for (round, burst) in self
            .observations
            .chunks(ROUND_OBSERVATIONS)
            .zip(self.flows.chunks(BURST_FLOWS))
        {
            // The step: a round's observations and the flush that
            // waits for the trainer to absorb them.
            let begun = h.clock_ns();
            for &(matrix, label) in round {
                h.observe(matrix, label);
            }
            h.flush();
            h.record_step(h.clock_ns() - begun);

            for group in burst.chunks(GROUP) {
                serve_group(h, group, at, Role::Other, &mut scratch, &mut forwarded);
                at += Duration::from_millis(250);
            }
            for flow in burst {
                h.depart(&flow.key);
            }
        }
    }

    fn passes_per_second(&self) -> f64 {
        ROUNDS_PER_SECOND / (self.observations.len() / ROUND_OBSERVATIONS) as f64
    }

    fn ops(&self, h: &Harness) -> u64 {
        h.calls[Seg::Observe as usize]
    }

    fn observations(&self) -> &[(TrafficMatrix, Label)] {
        &self.observations
    }
}

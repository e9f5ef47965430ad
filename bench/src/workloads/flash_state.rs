//! `flash_state`: the flow-state layer under a flash crowd.
//!
//! A large population with long sessions and a stadium letting out at
//! noon, served admit-all (`ModelSnapshot::initial()`), so the table
//! holds the whole concurrency — tens of thousands of flows, far more
//! than any cache. Every event is followed by delivery reports to
//! pseudo-random open flows and polls run every 2 s, so the layer is
//! used the other way round from `day_serve`: inserts, removes, wheel
//! scheduling and due-flow QoE evaluation beside the reads. It is also
//! the workload on which `peak_rss_mb` means bytes per flow.

use exbox_core::matrix::TrafficMatrix;
use exbox_core::{ConcurrentGateway, ModelSnapshot};
use exbox_ml::Label;
use exbox_net::{Duration, FlowKey, Instant};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;
use exbox_traffic::{LiveLabGenerator, Regime, WorkloadEvent};

use super::{serve_group, serving_gateway, Day, OpenSessions, Workload};
use crate::harness::{Harness, Role, Seg};
use crate::traffic::{capacity_samples, Mix};

/// Delivery reports after every event.
const REPORTS: usize = 8;
const POLL_EVERY: Duration = Duration::from_secs(2);
/// Users whose day the reference box serves per second.
const USERS_PER_SECOND: f64 = 20_000.0;
const MIX: Mix = Mix {
    class_share: [0.39, 0.32, 0.29],
    low_snr: 0.2,
};

pub struct FlashState {
    users: usize,
    day: Day,
    report_seed: u64,
    /// Only for the layer probes: this workload serves no model.
    samples: Vec<(TrafficMatrix, Label)>,
}

impl FlashState {
    pub fn prepare(seed: u64, quick: bool) -> FlashState {
        let users = if quick { 2_500 } else { 25_000 };
        let rng = Rng::new(seed).derive(0xF1A5);
        let day = Day::generate(
            LiveLabGenerator {
                users,
                days: 1,
                session_length_scale: 8.0,
                seed: rng.derive(1).next_u64(),
                ..LiveLabGenerator::default()
            },
            Regime::FlashCrowd {
                start_secs: 43_200.0,
                duration_secs: 1_800.0,
                boost: 8.0,
            },
            &MIX,
            &mut rng.derive(2),
        );
        FlashState {
            users,
            day,
            report_seed: rng.derive(3).next_u64(),
            samples: capacity_samples(&mut rng.derive(4), 600, &MIX, 500),
        }
    }
}

impl Workload for FlashState {
    fn gateway(&self, _: &MetricsRegistry) -> ConcurrentGateway {
        serving_gateway(ModelSnapshot::initial())
    }

    fn pass(&self, h: &mut Harness) {
        let sessions = &self.day.sessions;
        let mut open = OpenSessions::new(sessions.len());
        let mut next_poll = Instant::ZERO + POLL_EVERY;
        let mut rng = Rng::new(self.report_seed);
        let mut scratch = Vec::new();
        let mut forwarded = Vec::new();
        let mut targets: Vec<FlowKey> = Vec::with_capacity(REPORTS);

        for &(at, event) in &self.day.events {
            match event {
                WorkloadEvent::Arrival(class) => {
                    let session = sessions[open.arrive(class) as usize];
                    serve_group(h, &[session], at, Role::Other, &mut scratch, &mut forwarded);
                }
                WorkloadEvent::Departure(class) => {
                    if let Some(id) = open.depart(class) {
                        h.depart(&sessions[id as usize].key);
                    }
                }
            }
            let live = open.live();
            if !live.is_empty() {
                targets.clear();
                for _ in 0..REPORTS {
                    let id = live[rng.index(live.len())];
                    targets.push(sessions[id as usize].key);
                }
                h.deliver_to(&targets, at, Duration::from_millis(5), 1200);
            }
            if at >= next_poll {
                h.poll(at, Role::Step);
                next_poll = at + POLL_EVERY;
            }
        }
    }

    fn passes_per_second(&self) -> f64 {
        USERS_PER_SECOND / self.users as f64
    }

    fn ops(&self, h: &Harness) -> u64 {
        h.packets + h.calls[Seg::Delivery as usize]
    }

    fn observations(&self) -> &[(TrafficMatrix, Label)] {
        &self.samples
    }
}

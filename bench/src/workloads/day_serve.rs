//! `day_serve`: a LiveLab day served by a trained gateway.
//!
//! Arrivals are rare beside packets: every workload event is followed
//! by 256 steady packets spread round-robin over the live sessions
//! (rejected ones keep sending and are dropped), every forwarded
//! packet gets a delivery report, polls run every 2 s of trace time.
//! The model's capacity sits between the midday and the evening peak,
//! so the evening crosses the boundary and the day holds admissions,
//! rejections and drops of rejected flows in realistic proportion.

use exbox_core::matrix::{SnrLevel, TrafficMatrix};
use exbox_core::{AdmittanceClassifier, ConcurrentGateway, ModelSnapshot};
use exbox_ml::Label;
use exbox_net::{Duration, Instant, Packet};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;
use exbox_traffic::{LiveLabGenerator, Regime, WorkloadEvent};

use super::{serve_group, serving_gateway, Day, OpenSessions, Workload};
use crate::harness::{Harness, Role};
use crate::traffic::{bootstrap_classifier, capacity_samples, steady_packet, weight, Mix, WINDOW};

/// Steady packets per `process_packets` call: the ledger's step.
const STEADY_BATCH: usize = 128;
/// Steady calls per workload event.
const STEADY_BATCHES: usize = 2;
/// Weighted-load capacity truth per hundred users. A day offers up
/// to ≈10.8 per hundred around noon and ≈11.8 through the evening
/// (hourly maxima), so the evening sits above the boundary for hours
/// and noon touches it.
const CAP_PER_100_USERS: u32 = 9;
/// Session mix a LiveLab day settles into (class popularity × session
/// length), for spreading the bootstrap samples along the day's path.
const MIX: Mix = Mix {
    class_share: [0.39, 0.32, 0.29],
    low_snr: 0.2,
};
const BOOTSTRAP_SAMPLES: usize = 600;
const POLL_EVERY: Duration = Duration::from_secs(2);
/// Users whose day the reference box serves per second.
const USERS_PER_SECOND: f64 = 2_500.0;

pub struct DayServe {
    users: u32,
    day: Day,
    cap: u32,
    samples: Vec<(TrafficMatrix, Label)>,
    classifier: AdmittanceClassifier,
}

impl DayServe {
    pub fn prepare(seed: u64, quick: bool) -> DayServe {
        // Capacity scales with the population so the quick day crosses
        // its boundary at the same hours.
        let users: u32 = if quick { 400 } else { 2_000 };
        let cap = users / 100 * CAP_PER_100_USERS;
        let rng = Rng::new(seed).derive(0xDA15);
        let day = Day::generate(
            LiveLabGenerator {
                users: users as usize,
                days: 1,
                seed: rng.derive(1).next_u64(),
                ..LiveLabGenerator::default()
            },
            Regime::Steady,
            &MIX,
            &mut rng.derive(2),
        );
        let samples = capacity_samples(&mut rng.derive(3), BOOTSTRAP_SAMPLES, &MIX, cap);
        let classifier = bootstrap_classifier(&samples);
        DayServe {
            users,
            day,
            cap,
            samples,
            classifier,
        }
    }
}

impl Workload for DayServe {
    fn gateway(&self, _: &MetricsRegistry) -> ConcurrentGateway {
        serving_gateway(ModelSnapshot::from_classifier(1, &self.classifier))
    }

    fn pass(&self, h: &mut Harness) {
        let sessions = &self.day.sessions;
        let mut open = OpenSessions::new(sessions.len());
        // Last sequence number each session sent (the window came first).
        let mut sent: Vec<u32> = vec![WINDOW as u32 - 1; sessions.len()];
        let mut offered: u32 = 0;
        let mut cursor: usize = 0;
        let mut next_poll = Instant::ZERO + POLL_EVERY;
        let mut batch: Vec<(Packet, SnrLevel)> = Vec::with_capacity(STEADY_BATCH);
        let mut forwarded = Vec::new();

        for &(at, event) in &self.day.events {
            match event {
                WorkloadEvent::Arrival(class) => {
                    let session = sessions[open.arrive(class) as usize];
                    serve_group(h, &[session], at, Role::Other, &mut batch, &mut forwarded);
                    offered += weight(session.kind());
                }
                WorkloadEvent::Departure(class) => {
                    if let Some(id) = open.depart(class) {
                        let session = sessions[id as usize];
                        h.depart(&session.key);
                        offered -= weight(session.kind());
                    }
                }
            }
            let live = open.live();
            for call in 0..STEADY_BATCHES {
                if live.is_empty() {
                    break;
                }
                batch.clear();
                for i in 0..STEADY_BATCH {
                    let id = live[(cursor + i) % live.len()] as usize;
                    sent[id] += 1;
                    let when = at + Duration::from_micros((call * STEADY_BATCH + i) as u64);
                    batch.push((
                        steady_packet(&sessions[id], when, u64::from(sent[id])),
                        sessions[id].snr,
                    ));
                }
                cursor = (cursor + STEADY_BATCH) % live.len();
                h.ingest(&batch, Role::Step);
                // The cell degrades for everyone once the offered load
                // passes its capacity — admitted or not, the air is shared.
                let delay = if offered > self.cap {
                    Duration::from_millis(80)
                } else {
                    Duration::from_millis(5)
                };
                h.deliver_forwarded(&batch, delay);
            }
            if at >= next_poll {
                h.poll(at, Role::Other);
                next_poll = at + POLL_EVERY;
            }
        }
    }

    fn passes_per_second(&self) -> f64 {
        USERS_PER_SECOND / self.users as f64
    }

    fn ops(&self, h: &Harness) -> u64 {
        h.packets
    }

    fn observations(&self) -> &[(TrafficMatrix, Label)] {
        &self.samples
    }
}

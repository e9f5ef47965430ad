//! The four workloads. Each is prepared once from a seed (input
//! generation and model training: the set-up the ledger times) and
//! then replayed, identically, on a fresh gateway per repetition.

mod arrival_storm;
mod day_serve;
mod drift_learn;
mod flash_state;

use std::collections::VecDeque;

use exbox_core::matrix::{SnrLevel, TrafficMatrix};
use exbox_core::{ConcurrentGateway, GatewayConfig, MiddleboxConfig, ModelSnapshot};
use exbox_ml::Label;
use exbox_net::{AppClass, Instant, Packet};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;
use exbox_traffic::{LiveLabGenerator, Regime, ScaledWorkload, WorkloadEvent};

use crate::harness::{Harness, Role};
use crate::traffic::{signature_packet, Mix, Session, WINDOW};

/// The workloads `BENCHMARK.json` gates, in its order, with why each
/// exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "day_serve",
        "realistic day: arrivals are rare beside packets, so established-flow lookup, rejected-ring probe and metering do the work",
    ),
    (
        "arrival_storm",
        "every flow is new: early classification, cache probe, kernel evaluation and rejected-ring inserts dominate; no steady path",
    ),
    (
        "flash_state",
        "flash crowd under admit-all: 3x10^4 live flows, so table inserts/removes, wheel scheduling and due-flow QoE polls dominate",
    ),
];

/// Measured and reported like the others, but judged by nobody: on the
/// shared 2-core reference box its two busy threads (driver and live
/// trainer) put run-to-run quartile spreads at 8-13 %, and a bound of
/// `BENCHMARK.json` holds for every workload it lists (`NOISE.md`).
pub const REPORTED_ONLY: [(&str, &str); 1] = [(
    "drift_learn",
    "live trainer under capacity drift: retrain, snapshot build and publish dominate and every burst decides on a cold cache",
)];

/// Every workload the ledger can run.
pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().chain(&REPORTED_ONLY).map(|w| w.0)
}

pub trait Workload {
    /// A fresh gateway serving this workload's model; a live trainer
    /// reports to `registry` (`admittance.*`).
    fn gateway(&self, registry: &MetricsRegistry) -> ConcurrentGateway;

    /// Drive the whole deterministic pass through `h`.
    fn pass(&self, h: &mut Harness);

    /// Passes the reference box completes per second, one significant
    /// digit: it turns `--seconds` into a fixed number of repetitions.
    fn passes_per_second(&self) -> f64;

    /// Operations the pass attempted, in the workload's own unit.
    fn ops(&self, h: &Harness) -> u64;

    /// The labelled matrices this workload's model learns from, for
    /// the admittance and snapshot layer probes.
    fn observations(&self) -> &[(TrafficMatrix, Label)];
}

/// Generate the inputs of `name` from `seed` and train what it serves.
/// `quick` shrinks every size by about an order of magnitude and
/// changes nothing else.
pub fn prepare(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "day_serve" => Box::new(day_serve::DayServe::prepare(seed, quick)),
        "arrival_storm" => Box::new(arrival_storm::ArrivalStorm::prepare(seed, quick)),
        "flash_state" => Box::new(flash_state::FlashState::prepare(seed, quick)),
        "drift_learn" => Box::new(drift_learn::DriftLearn::prepare(seed, quick)),
        _ => return None,
    })
}

/// The gateway configuration every workload runs: one shard driven
/// sequentially, library defaults, and the timer-wheel poll path
/// stated rather than read from `EXBOX_POLL_WHEEL`.
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        middlebox: MiddleboxConfig {
            classify_window: WINDOW,
            poll_wheel: true,
            ..MiddleboxConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// A serving-only gateway on `snapshot` with [`gateway_config`].
pub fn serving_gateway(snapshot: ModelSnapshot) -> ConcurrentGateway {
    ConcurrentGateway::serving_only(gateway_config(), crate::traffic::estimator(), snapshot)
}

/// Flows interleaved per arrival group.
pub const GROUP: usize = 16;

/// A group of flows arriving together: the first `WINDOW - 1` packets
/// of every flow interleaved into one batch (the classification-window
/// batch, `role`), then each flow's deciding packet in a call of its
/// own. `forwarded[i]` tells whether flow `i` was admitted.
pub fn serve_group(
    h: &mut Harness,
    flows: &[Session],
    start: Instant,
    window_role: Role,
    scratch: &mut Vec<(Packet, SnrLevel)>,
    forwarded: &mut Vec<bool>,
) {
    scratch.clear();
    for i in 0..WINDOW - 1 {
        for s in flows {
            scratch.push((signature_packet(s, start, i), s.snr));
        }
    }
    h.ingest(scratch, window_role);
    forwarded.clear();
    for s in flows {
        let deciding = [(signature_packet(s, start, WINDOW - 1), s.snr)];
        h.ingest(&deciding, Role::Decision);
        forwarded.push(h.verdicts().first() == Some(&exbox_core::Action::Forward));
    }
}

/// A materialised `ScaledWorkload` day: its chronological events and
/// one [`Session`] per arrival, in arrival order.
pub struct Day {
    pub events: Vec<(Instant, WorkloadEvent)>,
    pub sessions: Vec<Session>,
}

impl Day {
    pub fn generate(
        generator: LiveLabGenerator,
        regime: Regime,
        mix: &Mix,
        snr_rng: &mut Rng,
    ) -> Day {
        let events: Vec<_> = ScaledWorkload::new(generator, regime).stream().collect();
        let sessions = events
            .iter()
            .filter_map(|(_, e)| match e {
                WorkloadEvent::Arrival(class) => Some(*class),
                WorkloadEvent::Departure(_) => None,
            })
            .enumerate()
            .map(|(id, class)| Session::new(id as u64, class, mix.draw_snr(snr_rng)))
            .collect();
        Day { events, sessions }
    }
}

/// The open sessions of a [`Day`] while it is replayed. A departure
/// event names only its class, so that class's oldest open session
/// ends — which preserves the per-class concurrency the stream encodes.
pub struct OpenSessions {
    /// Open session ids in an order that only changes at departures
    /// (swap-remove): what round-robin and random picks index.
    live: Vec<u32>,
    /// `slot[id]` is where session `id` sits in `live`.
    slot: Vec<u32>,
    oldest_first: [VecDeque<u32>; AppClass::COUNT],
    next_id: u32,
}

impl OpenSessions {
    pub fn new(sessions: usize) -> OpenSessions {
        OpenSessions {
            live: Vec::new(),
            slot: vec![u32::MAX; sessions],
            oldest_first: Default::default(),
            next_id: 0,
        }
    }

    /// The next arrival opens; returns its session id.
    pub fn arrive(&mut self, class: AppClass) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.slot[id as usize] = self.live.len() as u32;
        self.live.push(id);
        self.oldest_first[class.index()].push_back(id);
        id
    }

    /// The oldest open session of `class` ends; returns its id.
    pub fn depart(&mut self, class: AppClass) -> Option<u32> {
        let id = self.oldest_first[class.index()].pop_front()?;
        let at = self.slot[id as usize] as usize;
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.slot[moved as usize] = at as u32;
        }
        Some(id)
    }

    pub fn live(&self) -> &[u32] {
        &self.live
    }
}

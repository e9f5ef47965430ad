//! Streamed large-population soak driver (behind the
//! `flow_scale_soak` CI binary).
//!
//! Drives a [`ScaledWorkload`] event stream — 10⁵–10⁶ users, never
//! materialised — through a one-shard [`ConcurrentGateway`]: every
//! arrival becomes a synthetic flow classified by endpoint hint on its
//! first packet, gets one delivery report (so polls have QoS
//! evidence), and departs when its class's oldest open session ends.
//! Memory must stay O(users + concurrent flows); the caller checks the
//! process peak RSS ([`peak_rss_kb`]) against a ceiling to catch
//! accidental materialisation of the trace or unbounded per-flow state.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use exbox_core::matrix::SnrLevel;
use exbox_core::qoe::QoeEstimator;
use exbox_core::{Action, ConcurrentGateway, GatewayConfig, ModelSnapshot};
use exbox_net::{AppClass, Direction, Duration, FlowKey, Packet, Protocol};
use exbox_traffic::{LiveLabGenerator, Regime, ScaledWorkload, WorkloadEvent};

/// Parameters of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Population size (the paper's LiveLab trace has 34 users; the
    /// flow-state layer is sized for 10⁵–10⁶).
    pub users: usize,
    /// Simulated span in days.
    pub days: u32,
    /// Arrival/departure regime driven through the cell.
    pub regime: Regime,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        // A stadium letting out at noon of day one: the flash crowd
        // spikes concurrency well above the steady plateau, which is
        // exactly the moment a flow-table regression would blow the
        // RSS ceiling.
        SoakConfig {
            users: 100_000,
            days: 1,
            regime: Regime::FlashCrowd {
                start_secs: 43_200.0,
                duration_secs: 1_800.0,
                boost: 8.0,
            },
            seed: 0x11FE,
        }
    }
}

/// What one soak run did, for reporting and assertions.
#[derive(Debug, Clone, Copy)]
pub struct SoakReport {
    /// Total workload events consumed from the stream.
    pub events: u64,
    /// Session arrivals driven through admission.
    pub arrivals: u64,
    /// Most flows admitted at any instant.
    pub peak_flows: usize,
    /// Admitted flows left when the stream ended (should be ~0 —
    /// every session departs by the horizon).
    pub final_flows: usize,
    /// Executed polls (interval elapsed).
    pub polls: u64,
}

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or if the field is missing.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Unique synthetic key for the `id`-th session. `FlowKey::synthetic`
/// folds `client_id` to 16 bits and `flow_id` to a 20,000-port range,
/// so the id is split across both fields — unique for any population
/// this side of a billion sessions.
fn session_key(id: u64, class: AppClass) -> FlowKey {
    FlowKey::synthetic(
        (id % 65_536) as u32,
        (id / 65_536) as u32,
        class.index() as u8 + 1,
        Protocol::Tcp,
    )
}

/// Run one soak: stream the workload through a fresh gateway and
/// report. The gateway serves the bootstrap snapshot with no trainer
/// (admit-everything), so the admitted set tracks the workload's
/// session concurrency — the quantity the flow table must hold —
/// rather than a learnt region's whims.
pub fn run_soak(cfg: SoakConfig, estimator: QoeEstimator) -> SoakReport {
    let workload = ScaledWorkload::new(
        LiveLabGenerator {
            users: cfg.users,
            days: cfg.days,
            seed: cfg.seed,
            ..LiveLabGenerator::default()
        },
        cfg.regime,
    );
    let mut gw = ConcurrentGateway::serving_only(
        GatewayConfig::default(),
        estimator,
        ModelSnapshot::initial(),
    );
    // Endpoint hints classify every flow on its first packet, so one
    // packet per arrival exercises the full admission path.
    for class in AppClass::ALL {
        gw.learn_server_hint(Ipv4Addr::new(192, 168, 1, class.index() as u8 + 1), class);
    }

    // Departure events carry only the class; sessions of one class
    // end oldest-first, which preserves the per-class concurrency the
    // stream encodes.
    let mut open: [VecDeque<FlowKey>; 3] = [VecDeque::new(), VecDeque::new(), VecDeque::new()];
    let mut report = SoakReport {
        events: 0,
        arrivals: 0,
        peak_flows: 0,
        final_flows: 0,
        polls: 0,
    };
    let mut next_id: u64 = 0;
    for (t, event) in workload.stream() {
        report.events += 1;
        match event {
            WorkloadEvent::Arrival(class) => {
                report.arrivals += 1;
                let key = session_key(next_id, class);
                next_id += 1;
                let pkt = Packet::new(t, 1200, key, Direction::Downlink, 0);
                // The bootstrap snapshot admits everything; checking
                // the verdict keeps the departure FIFOs honest anyway.
                if gw.process_packet(&pkt, SnrLevel::High) == Action::Forward {
                    // One healthy delivery so the next poll has
                    // evidence for this flow (and the timer wheel a
                    // deadline).
                    gw.record_delivery(&key, t, t + Duration::from_millis(5), 1200);
                    open[class.index()].push_back(key);
                }
            }
            WorkloadEvent::Departure(class) => {
                if let Some(key) = open[class.index()].pop_front() {
                    gw.flow_departed(&key);
                }
            }
        }
        report.peak_flows = report.peak_flows.max(gw.admitted_flows());
        let _ = gw.poll(t);
    }
    report.polls = gw.merged_metrics().counter("middlebox.polls").unwrap_or(0);
    report.final_flows = gw.admitted_flows();
    report
}

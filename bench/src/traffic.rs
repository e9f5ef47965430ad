//! Inputs shared by the workloads: flow identities, the packets a flow
//! sends, the capacity truth that labels observations, and the model
//! fixtures built from them. Everything is a pure function of its
//! arguments, so a seed fixes every input.

use exbox_core::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use exbox_core::qoe::{paper_directions, train_estimator, QoeEstimator, QosScale};
use exbox_core::{AdmittanceClassifier, AdmittanceConfig, Phase};
use exbox_ml::Label;
use exbox_net::{AppClass, Direction, Duration, FlowKey, Instant, Packet, Protocol};
use exbox_obs::MetricsRegistry;
use exbox_traffic::dist::Rng;

/// Packets the gateway buffers before early classification fires
/// (`MiddleboxConfig::classify_window`, pinned by the ledger).
pub const WINDOW: usize = 8;

/// One flow as the driver sees it.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub key: FlowKey,
    pub class: AppClass,
    pub snr: SnrLevel,
}

impl Session {
    pub fn new(id: u64, class: AppClass, snr: SnrLevel) -> Session {
        Session {
            key: session_key(id, class),
            class,
            snr,
        }
    }

    pub fn kind(&self) -> FlowKind {
        FlowKind::new(self.class, self.snr)
    }
}

/// Unique key for the `id`-th flow: `FlowKey::synthetic` folds the
/// client id to 16 bits and the flow id to 20 000 ports, so the id is
/// split across both.
pub fn session_key(id: u64, class: AppClass) -> FlowKey {
    FlowKey::synthetic(
        (id % 65_536) as u32,
        (id / 65_536) as u32,
        class.index() as u8 + 1,
        Protocol::Tcp,
    )
}

/// `(microseconds since the previous packet, bytes, direction)` for
/// the first [`WINDOW`] packets of a flow of each class, shaped after
/// the `exbox-traffic` generators so the gateway's default-profile
/// early classifier names the class the session was drawn as
/// (asserted in this module's tests).
const SIGNATURE: [[(u32, u32, Direction); WINDOW]; AppClass::COUNT] = [
    // Web: request/response, mixed sizes, a third uplink, bursty.
    [
        (0, 320, Direction::Uplink),
        (18_000, 1400, Direction::Downlink),
        (2_000, 1100, Direction::Downlink),
        (1_000, 240, Direction::Downlink),
        (30_000, 400, Direction::Uplink),
        (20_000, 900, Direction::Downlink),
        (3_000, 180, Direction::Downlink),
        (10_000, 380, Direction::Downlink),
    ],
    // Streaming: MTU-sized downlink chunks, tight spacing.
    [
        (0, 1400, Direction::Downlink),
        (3_000, 1400, Direction::Downlink),
        (3_000, 1400, Direction::Downlink),
        (3_000, 1200, Direction::Downlink),
        (3_000, 1400, Direction::Downlink),
        (3_000, 1400, Direction::Downlink),
        (3_000, 1500, Direction::Downlink),
        (3_000, 1400, Direction::Downlink),
    ],
    // Conferencing: mid-size frames at a steady ~25 ms cadence.
    [
        (0, 1000, Direction::Downlink),
        (25_000, 1200, Direction::Downlink),
        (25_000, 800, Direction::Downlink),
        (25_000, 700, Direction::Uplink),
        (25_000, 1250, Direction::Downlink),
        (25_000, 950, Direction::Downlink),
        (25_000, 750, Direction::Downlink),
        (25_000, 1050, Direction::Downlink),
    ],
];

/// The `i`-th (`< WINDOW`) packet of a flow that started at `start`.
pub fn signature_packet(s: &Session, start: Instant, i: usize) -> Packet {
    let sig = &SIGNATURE[s.class.index()];
    let offset_us: u64 = sig[..=i].iter().map(|&(dt, _, _)| u64::from(dt)).sum();
    let (_, size, direction) = sig[i];
    Packet::new(
        start + Duration::from_micros(offset_us),
        size,
        s.key,
        direction,
        i as u64,
    )
}

/// A post-classification downlink packet.
pub fn steady_packet(s: &Session, at: Instant, seq: u64) -> Packet {
    Packet::new(at, 1200, s.key, Direction::Downlink, seq)
}

/// Airtime weight of one flow in the capacity truth: streaming costs
/// more than conferencing than web, and a low-SNR client twice as much
/// (the paper's Fig. 3 effect).
pub fn weight(kind: FlowKind) -> u32 {
    let class = match kind.class {
        AppClass::Web => 1,
        AppClass::Streaming => 3,
        AppClass::Conferencing => 2,
    };
    match kind.snr {
        SnrLevel::High => class,
        SnrLevel::Low => 2 * class,
    }
}

/// Weighted load of a matrix under [`weight`].
pub fn load(matrix: &TrafficMatrix) -> u32 {
    matrix.iter_kinds().map(|(kind, n)| n * weight(kind)).sum()
}

/// The capacity truth: a matrix is admissible while its weighted load
/// is within `cap`.
pub fn truth(matrix: &TrafficMatrix, cap: u32) -> Label {
    if load(matrix) <= cap {
        Label::Pos
    } else {
        Label::Neg
    }
}

/// Share of flows per class, then the share of those on a low-SNR link.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub class_share: [f64; AppClass::COUNT],
    pub low_snr: f64,
}

impl Mix {
    pub fn draw(&self, rng: &mut Rng) -> (AppClass, SnrLevel) {
        let u = rng.uniform();
        let class = if u < self.class_share[0] {
            AppClass::Web
        } else if u < self.class_share[0] + self.class_share[1] {
            AppClass::Streaming
        } else {
            AppClass::Conferencing
        };
        (class, self.draw_snr(rng))
    }

    pub fn draw_snr(&self, rng: &mut Rng) -> SnrLevel {
        if rng.chance(self.low_snr) {
            SnrLevel::Low
        } else {
            SnrLevel::High
        }
    }

    fn kind_share(&self, kind: FlowKind) -> f64 {
        let snr = match kind.snr {
            SnrLevel::Low => self.low_snr,
            SnrLevel::High => 1.0 - self.low_snr,
        };
        self.class_share[kind.class.index()] * snr
    }
}

/// `n` labelled matrices spread over both sides of the `cap` boundary
/// around the workload's own mix: the observations a bootstrap phase
/// on that traffic would have collected.
///
/// Each sample is a crowd of up to three times the boundary's flow
/// count, its flows drawn one by one from a mix of its own (every
/// kind's share scaled by 0.25-1.75). Admission skews the flows a
/// gateway holds towards the light kinds, so it meets matrices far
/// from the offered mix; a model trained along the mix alone has holes
/// there, and a hole beyond the boundary admits without end.
pub fn capacity_samples(
    rng: &mut Rng,
    n: usize,
    mix: &Mix,
    cap: u32,
) -> Vec<(TrafficMatrix, Label)> {
    let kinds: Vec<FlowKind> = AppClass::ALL
        .iter()
        .flat_map(|&c| SnrLevel::ALL.iter().map(move |&s| FlowKind::new(c, s)))
        .collect();
    let mean_weight: f64 = kinds
        .iter()
        .map(|&k| mix.kind_share(k) * f64::from(weight(k)))
        .sum();
    let boundary_flows = f64::from(cap) / mean_weight;
    (0..n)
        .map(|_| {
            let total = rng.uniform_range(0.0, 3.0 * boundary_flows).round() as usize;
            let shares: Vec<f64> = kinds
                .iter()
                .map(|&k| mix.kind_share(k) * rng.uniform_range(0.25, 1.75))
                .collect();
            let whole: f64 = shares.iter().sum();
            let mut counts = [0u32; TrafficMatrix::DIMS];
            for _ in 0..total {
                let mut u = rng.uniform() * whole;
                let drawn = shares.iter().position(|&share| {
                    u -= share;
                    u < 0.0
                });
                counts[kinds[drawn.unwrap_or(kinds.len() - 1)].flat_index()] += 1;
            }
            let matrix = TrafficMatrix::from_counts(counts);
            (matrix, truth(&matrix, cap))
        })
        .collect()
}

/// Bootstrap-train a classifier on `samples` in one fit: the bootstrap
/// exit is held until the last sample, so set-up pays one
/// cross-validation and one training run whatever the sample count.
///
/// # Panics
/// Panics if the samples do not take the classifier online — the
/// fixture would then serve admit-all and measure nothing.
pub fn bootstrap_classifier(samples: &[(TrafficMatrix, Label)]) -> AdmittanceClassifier {
    let mut classifier = AdmittanceClassifier::with_registry(
        AdmittanceConfig {
            bootstrap_min_samples: samples.len(),
            batch_size: usize::MAX,
            ..AdmittanceConfig::default()
        },
        &MetricsRegistry::new(),
    );
    for &(matrix, label) in samples {
        classifier.observe(matrix, label);
    }
    assert_eq!(
        classifier.phase(),
        Phase::Online,
        "bootstrap samples must take the classifier online"
    );
    classifier
}

/// The live trainer of the ledger: a bounded sample store and a
/// sticky scaler (the incremental-retrain fast path), library defaults
/// otherwise. Stated here rather than read from `EXBOX_MAX_SAMPLES`.
pub fn live_trainer_config() -> AdmittanceConfig {
    AdmittanceConfig {
        max_samples: 300,
        sticky_scaler: true,
        ..AdmittanceConfig::default()
    }
}

/// The QoE estimator every gateway of the ledger serves with: IQX fits
/// over shape-correct synthetic sweeps (page load time and startup
/// delay fall with QoS, PSNR rises), as the repository's other
/// harnesses use.
pub fn estimator() -> QoeEstimator {
    let sweep = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
        (0..20)
            .map(|i| {
                let q = f64::from(i) / 19.0;
                (q, a + b * (-g * q).exp())
            })
            .collect()
    };
    train_estimator(
        &[
            sweep(1.0, 11.0, 5.0),
            sweep(2.0, 20.0, 6.0),
            sweep(42.0, -30.0, 4.0),
        ],
        QoeEstimator::paper_thresholds(),
        paper_directions(),
        QosScale::new(1e3, 1e8),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exbox_net::EarlyClassifier;

    #[test]
    fn signatures_classify_as_their_class() {
        for class in AppClass::ALL {
            let session = Session::new(7, class, SnrLevel::High);
            let mut early = EarlyClassifier::with_default_profiles(WINDOW);
            let mut verdict = None;
            for i in 0..WINDOW {
                let pkt = signature_packet(&session, Instant::from_secs(5), i);
                assert_eq!(pkt.seq, i as u64);
                verdict = early.observe(&pkt);
                assert_eq!(verdict.is_some(), i == WINDOW - 1, "{class} packet {i}");
            }
            assert_eq!(verdict, Some(class));
        }
    }

    #[test]
    fn session_keys_are_unique_across_the_id_split() {
        let ids = [0u64, 1, 65_535, 65_536, 65_537, 1_000_000];
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                assert_ne!(session_key(a, AppClass::Web), session_key(b, AppClass::Web));
            }
        }
        assert_ne!(
            session_key(1, AppClass::Web),
            session_key(1, AppClass::Streaming)
        );
    }

    #[test]
    fn capacity_samples_straddle_the_boundary_and_train() {
        let mix = Mix {
            class_share: [0.6, 0.2, 0.2],
            low_snr: 0.25,
        };
        let samples = capacity_samples(&mut Rng::new(3), 400, &mix, 120);
        let pos = samples.iter().filter(|(_, l)| *l == Label::Pos).count();
        assert!(pos > 100 && pos < 300, "{pos} admissible of 400");
        let classifier = bootstrap_classifier(&samples);
        // Far inside and far outside the region.
        let light = TrafficMatrix::from_counts([5, 1, 2, 0, 2, 0]);
        let heavy = TrafficMatrix::from_counts([60, 20, 20, 8, 20, 8]);
        assert_eq!(classifier.classify(&light), Label::Pos);
        assert_eq!(classifier.classify(&heavy), Label::Neg);
    }
}

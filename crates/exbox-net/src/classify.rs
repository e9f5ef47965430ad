//! Early traffic classification.
//!
//! ExBox "assumes a priori knowledge of the application class to which
//! a flow belongs" (paper §7) and leans on the early-classification
//! literature (their refs 41, 58, 69, 47, 42, 67, 54, 32, 33):
//! the first few packets of a flow are enough to identify the
//! application, even for encrypted traffic, because sizes, directions
//! and timing leak the application's shape. This module implements
//! such a classifier: a server-endpoint hint map (the DNS/SNI prior
//! every production classifier leans on — video CDNs, conferencing
//! relays and web origins are disjoint endpoint sets) backed by
//! statistical features over the first `N` packets fed to a
//! nearest-centroid model for unknown endpoints.
//!
//! §4.2 of the paper: "a flow needs to be admitted briefly before any
//! admission control decision is made" — mirrored here by
//! [`EarlyClassifier::observe`] returning `None` until it has seen
//! enough packets and `Some(class)` on the packet that completes the
//! window, at which point the flow is the caller's: the classifier
//! keeps state for *in-progress windows only*.
//!
//! That state is the one table on the gateway that takes a key on the
//! first packet of any unknown flow, so whoever can open flows chooses
//! what goes into it. Its bucket choice therefore mixes in a secret
//! drawn from `std`'s `RandomState` when the classifier is built — the
//! collision-crafting protection a default `HashMap` would give, at
//! two multiplies a key instead of SipHash. Nothing iterates the table
//! and buffers are handed out by a pool, so no output depends on where
//! a key landed.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::net::Ipv4Addr;

use crate::packet::{Direction, FlowKey, Packet};
use crate::time::Instant;

/// Application classes used throughout the reproduction — the three
/// classes the paper evaluates (§5.2): their QoE depends on different
/// underlying network attributes (latency for web, throughput for
/// streaming, both for conferencing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// Web browsing; QoE metric: page load time.
    Web,
    /// Video streaming (YouTube-like); QoE metric: startup delay.
    Streaming,
    /// Video conferencing (Skype/Hangouts-like); QoE metric: PSNR.
    Conferencing,
}

impl AppClass {
    /// All classes in canonical order (matches the paper's traffic
    /// matrix ordering `<a_web, a_streaming, a_conferencing>`).
    pub const ALL: [AppClass; 3] = [AppClass::Web, AppClass::Streaming, AppClass::Conferencing];

    /// Number of application classes (`k` in the paper's notation).
    pub const COUNT: usize = 3;

    /// Canonical index in `0..COUNT`.
    pub const fn index(self) -> usize {
        match self {
            AppClass::Web => 0,
            AppClass::Streaming => 1,
            AppClass::Conferencing => 2,
        }
    }

    /// Inverse of [`AppClass::index`].
    ///
    /// # Panics
    /// Panics if `i >= COUNT`.
    pub fn from_index(i: usize) -> AppClass {
        Self::ALL[i]
    }

    /// Short lowercase name (stable; used in CSV output).
    pub const fn name(self) -> &'static str {
        match self {
            AppClass::Web => "web",
            AppClass::Streaming => "streaming",
            AppClass::Conferencing => "conferencing",
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistical features over the first packets of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowFeatures {
    /// Mean downlink packet size in bytes.
    pub mean_down_size: f64,
    /// Standard deviation of downlink packet sizes.
    pub std_down_size: f64,
    /// Mean inter-arrival time between consecutive packets, ms.
    pub mean_iat_ms: f64,
    /// Uplink-to-total packet-count ratio in `[0, 1]`.
    pub uplink_ratio: f64,
    /// Coefficient of variation of inter-arrival times (std/mean) —
    /// the burstiness signature that separates paced media streams
    /// (≈0) from request/response traffic and framed video (≫1).
    pub iat_cov: f64,
}

/// One observed packet: arrival time, size in bytes, direction.
pub type PacketRecord = (Instant, u32, Direction);

impl FlowFeatures {
    /// Compute features from packet records (any direction mix),
    /// reading the slice in place: the sums below are the same folds,
    /// in the same order, a collected `Vec<f64>` would be summed with.
    ///
    /// # Panics
    /// Panics if `packets` is empty.
    pub fn from_packets(packets: &[PacketRecord]) -> FlowFeatures {
        assert!(!packets.is_empty(), "need at least one packet");
        let down = || {
            packets
                .iter()
                .filter(|(_, _, d)| *d == Direction::Downlink)
                .map(|(_, s, _)| *s as f64)
        };
        let downs = down().count();
        let (mean_down_size, std_down_size) = if downs == 0 {
            (0.0, 0.0)
        } else {
            let m = down().sum::<f64>() / downs as f64;
            let v = down().map(|s| (s - m) * (s - m)).sum::<f64>() / downs as f64;
            (m, v.sqrt())
        };
        let iats = || {
            packets
                .windows(2)
                .map(|w| w[1].0.saturating_since(w[0].0).as_secs_f64() * 1e3)
        };
        let gaps = packets.len() - 1;
        let (mean_iat_ms, iat_cov) = if gaps == 0 {
            (0.0, 0.0)
        } else {
            let m = iats().sum::<f64>() / gaps as f64;
            let var = iats().map(|v| (v - m) * (v - m)).sum::<f64>() / gaps as f64;
            let cov = if m > 1e-9 { var.sqrt() / m } else { 0.0 };
            (m, cov)
        };
        FlowFeatures {
            mean_down_size,
            std_down_size,
            mean_iat_ms,
            uplink_ratio: (packets.len() - downs) as f64 / packets.len() as f64,
            iat_cov,
        }
    }

    /// Feature vector used for centroid distance (normalised scales:
    /// sizes /1500, IAT /100 ms, CoV /4 so all coordinates are O(1)).
    fn as_vector(&self) -> [f64; 5] {
        [
            self.mean_down_size / 1500.0,
            self.std_down_size / 1500.0,
            self.mean_iat_ms / 100.0,
            self.uplink_ratio,
            self.iat_cov / 4.0,
        ]
    }
}

/// Per-class centroid in normalised feature space.
#[derive(Debug, Clone, Copy)]
struct Profile {
    class: AppClass,
    centroid: [f64; 5],
}

/// Keyed multiply-fold of a flow key (the wyhash short-input shape):
/// each packed word is masked with a secret word and the two are
/// folded through a 64×64→128-bit product; a second product with a
/// fixed odd constant spreads the result into the low bits that pick
/// the bucket. Without the secret an outsider cannot tell which keys
/// share a bucket.
#[inline]
fn keyed_hash(secret: &[u64; 2], key: &FlowKey) -> u64 {
    #[inline]
    fn fold(x: u64, y: u64) -> u64 {
        let p = u128::from(x) * u128::from(y);
        p as u64 ^ (p >> 64) as u64
    }
    let (a, b) = key.words();
    fold(fold(a ^ secret[0], b ^ secret[1]), 0x9e37_79b9_7f4a_7c15)
}

/// The in-progress classification windows: an open-addressed
/// `FlowKey → record buffer` table (linear probing, backward-shift
/// deletion, power-of-two capacity, ≤ 7/8 load) over [`keyed_hash`],
/// whose buffers come from and go back to a pool — once the pool has
/// grown to the most windows ever open at once, a flow's whole
/// classification allocates nothing. Never iterated.
struct Windows {
    secret: [u64; 2],
    buckets: Vec<Option<(FlowKey, Vec<PacketRecord>)>>,
    live: usize,
    pool: Vec<Vec<PacketRecord>>,
}

impl std::fmt::Debug for Windows {
    /// Sizes only: the secret stays out of logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Windows")
            .field("live", &self.live)
            .field("pooled", &self.pool.len())
            .finish_non_exhaustive()
    }
}

impl Windows {
    fn new() -> Self {
        let state = RandomState::new();
        Windows {
            secret: [state.hash_one(0u8), state.hash_one(1u8)],
            buckets: (0..16).map(|_| None).collect(),
            live: 0,
            pool: Vec::new(),
        }
    }

    /// The bucket holding `key`, or the vacant one its probe ends on
    /// (the load bound guarantees there is one).
    fn probe(&self, key: &FlowKey) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = keyed_hash(&self.secret, key) as usize & mask;
        while matches!(&self.buckets[i], Some((k, _)) if k != key) {
            i = (i + 1) & mask;
        }
        i
    }

    /// The bucket and record buffer of `key`'s window, opening an
    /// empty window of capacity `window` if the flow has none.
    fn open(&mut self, key: FlowKey, window: usize) -> (usize, &mut Vec<PacketRecord>) {
        if (self.live + 1) * 8 >= self.buckets.len() * 7 {
            self.grow();
        }
        let i = self.probe(&key);
        let (_, buf) = self.buckets[i].get_or_insert_with(|| {
            self.live += 1;
            let pooled = self.pool.pop();
            (key, pooled.unwrap_or_else(|| Vec::with_capacity(window)))
        });
        (i, buf)
    }

    /// Close the window in bucket `i`: its buffer goes back to the
    /// pool, and displaced entries are pulled over the hole so probe
    /// chains stay contiguous without tombstones.
    fn close(&mut self, i: usize) {
        let (_, mut buf) = self.buckets[i].take().expect("closing an open window");
        buf.clear();
        self.pool.push(buf);
        self.live -= 1;
        let mask = self.buckets.len() - 1;
        let (mut hole, mut j) = (i, i);
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.buckets[j] else {
                break;
            };
            let home = keyed_hash(&self.secret, k) as usize & mask;
            // Move the entry back iff its probe from `home` passes
            // through `hole`: `home` outside the cyclic (hole, j].
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = self.buckets[j].take();
                hole = j;
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, (0..doubled).map(|_| None).collect());
        for entry in old.into_iter().flatten() {
            let i = self.probe(&entry.0);
            self.buckets[i] = Some(entry);
        }
    }
}

/// Early flow classifier: buffers the first `window` packets of each
/// flow, classifies on the packet that completes the window and hands
/// the flow over — see [`EarlyClassifier::observe`] for the contract.
/// It writes nothing outside itself: how many flows it classified is
/// the caller's to count (the gateway's `middlebox.admits` /
/// `middlebox.rejects`).
#[derive(Debug)]
pub struct EarlyClassifier {
    window: usize,
    profiles: Vec<Profile>,
    /// Server-endpoint prior learned at training time: flows to a
    /// known video CDN / conferencing relay / web origin classify by
    /// endpoint, as production classifiers do via DNS/SNI.
    server_hints: HashMap<Ipv4Addr, AppClass>,
    windows: Windows,
}

impl EarlyClassifier {
    /// Classifier with hand-built default profiles matched to the
    /// three workload generators in `exbox-traffic`:
    ///
    /// * web — mixed sizes, bursty, notable uplink share (requests),
    /// * streaming — MTU-sized downlink, tight spacing within chunks,
    /// * conferencing — mid-size frames at a steady ≈20–30 ms cadence.
    pub fn with_default_profiles(window: usize) -> Self {
        assert!(window >= 2, "classification window needs >= 2 packets");
        EarlyClassifier {
            window,
            profiles: vec![
                Profile {
                    class: AppClass::Web,
                    // The burstiness coordinate is window-length dependent, so the
                    // hand-built defaults keep it neutral; trained centroids use it.
                    centroid: [700.0 / 1500.0, 450.0 / 1500.0, 12.0 / 100.0, 0.30, 0.5],
                },
                Profile {
                    class: AppClass::Streaming,
                    centroid: [1400.0 / 1500.0, 120.0 / 1500.0, 3.0 / 100.0, 0.05, 0.5],
                },
                Profile {
                    class: AppClass::Conferencing,
                    centroid: [1000.0 / 1500.0, 220.0 / 1500.0, 25.0 / 100.0, 0.10, 0.5],
                },
            ],
            server_hints: HashMap::new(),
            windows: Windows::new(),
        }
    }

    /// Train centroids from labelled example flows, replacing the
    /// defaults. Each example is (class, packets-of-one-flow).
    /// Endpoint hints are *not* learnt through this entry point (the
    /// tuples carry no addresses); see
    /// [`EarlyClassifier::learn_server_hint`].
    ///
    /// # Panics
    /// Panics if any class has no examples or any example is empty.
    pub fn train(window: usize, examples: &[(AppClass, Vec<PacketRecord>)]) -> Self {
        assert!(window >= 2, "classification window needs >= 2 packets");
        let mut sums: HashMap<AppClass, ([f64; 5], usize)> = HashMap::new();
        for (class, pkts) in examples {
            let truncated: Vec<_> = pkts.iter().copied().take(window).collect();
            let v = FlowFeatures::from_packets(&truncated).as_vector();
            let entry = sums.entry(*class).or_insert(([0.0; 5], 0));
            for (acc, x) in entry.0.iter_mut().zip(v) {
                *acc += x;
            }
            entry.1 += 1;
        }
        let mut profiles = Vec::new();
        for class in AppClass::ALL {
            let (sum, n) = sums
                .get(&class)
                .unwrap_or_else(|| panic!("no training examples for {class}"));
            let mut centroid = [0.0; 5];
            for k in 0..5 {
                centroid[k] = sum[k] / *n as f64;
            }
            profiles.push(Profile { class, centroid });
        }
        EarlyClassifier {
            window,
            profiles,
            server_hints: HashMap::new(),
            windows: Windows::new(),
        }
    }

    /// Register a known server endpoint (the DNS/SNI prior): flows to
    /// this address classify by endpoint without waiting for the full
    /// statistical window.
    pub fn learn_server_hint(&mut self, server: Ipv4Addr, class: AppClass) {
        self.server_hints.insert(server, class);
    }

    /// Number of registered endpoint hints.
    pub fn num_server_hints(&self) -> usize {
        self.server_hints.len()
    }

    /// Feed one packet of a flow the caller has not decided yet.
    /// Returns `Some(class)` on the packet that settles the flow —
    /// the first one for a known endpoint, otherwise the one that
    /// completes its statistical window — and `None` before that.
    ///
    /// At `Some` the flow is the caller's: the classifier keeps no
    /// record of it, so a later packet of the same flow opens a fresh
    /// window. The caller stops feeding a flow it has decided (the
    /// gateway probes its admitted and rejected tables first) and
    /// calls [`forget`](Self::forget) for one that ends mid-window.
    pub fn observe(&mut self, pkt: &Packet) -> Option<AppClass> {
        if let Some(&class) = self.server_hints.get(&pkt.flow.server_ip) {
            // A window opened before the hint was learnt ends here.
            self.forget(&pkt.flow);
            return Some(class);
        }
        let (bucket, buf) = self.windows.open(pkt.flow, self.window);
        buf.push((pkt.timestamp, pkt.size, pkt.direction));
        if buf.len() < self.window {
            return None;
        }
        let feats = FlowFeatures::from_packets(buf);
        self.windows.close(bucket);
        Some(self.classify_features(&feats))
    }

    /// Classify a feature vector directly (nearest centroid).
    pub fn classify_features(&self, feats: &FlowFeatures) -> AppClass {
        let v = feats.as_vector();
        self.profiles
            .iter()
            .min_by(|a, b| {
                let da: f64 = a
                    .centroid
                    .iter()
                    .zip(&v)
                    .map(|(c, x)| (c - x) * (c - x))
                    .sum();
                let db: f64 = b
                    .centroid
                    .iter()
                    .zip(&v)
                    .map(|(c, x)| (c - x) * (c - x))
                    .sum();
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("profiles non-empty")
            .class
    }

    /// Release the half-filled window of a flow that ended (or was
    /// settled another way) before completing it; a no-op for a flow
    /// with no window open.
    pub fn forget(&mut self, key: &FlowKey) {
        let bucket = self.windows.probe(key);
        if self.windows.buckets[bucket].is_some() {
            self.windows.close(bucket);
        }
    }

    /// Flows with a window open: seen, not yet classified. A flow that
    /// sends fewer than `window` packets and is never
    /// [forgotten](Self::forget) stays counted here.
    pub fn classifying_flows(&self) -> usize {
        self.windows.live
    }

    /// Number of packets buffered before deciding.
    pub fn window(&self) -> usize {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;
    use proptest::prelude::*;

    fn mk_pkt(key: FlowKey, ms: u64, size: u32, dir: Direction) -> Packet {
        Packet::new(Instant::from_millis(ms), size, key, dir, 0)
    }

    /// Streaming-shaped flow: MTU downlink packets, 2 ms apart.
    fn streaming_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| mk_pkt(key, 2 * i as u64, 1400, Direction::Downlink))
            .collect()
    }

    /// Conferencing-shaped flow: ~1000 B frames, 25 ms apart.
    fn conferencing_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| mk_pkt(key, 25 * i as u64, 1000, Direction::Downlink))
            .collect()
    }

    /// Web-shaped flow: small uplink requests then mixed responses.
    fn web_packets(key: FlowKey, n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    mk_pkt(key, 12 * i as u64, 250, Direction::Uplink)
                } else {
                    mk_pkt(
                        key,
                        12 * i as u64,
                        300 + 700 * (i as u32 % 2),
                        Direction::Downlink,
                    )
                }
            })
            .collect()
    }

    #[test]
    fn app_class_index_roundtrip() {
        for c in AppClass::ALL {
            assert_eq!(AppClass::from_index(c.index()), c);
        }
        assert_eq!(AppClass::COUNT, 3);
    }

    #[test]
    fn classifies_each_default_shape() {
        let mut clf = EarlyClassifier::with_default_profiles(8);
        let cases = [
            (
                streaming_packets(FlowKey::synthetic(1, 1, 1, Protocol::Tcp), 8),
                AppClass::Streaming,
            ),
            (
                conferencing_packets(FlowKey::synthetic(2, 2, 2, Protocol::Udp), 8),
                AppClass::Conferencing,
            ),
            (
                web_packets(FlowKey::synthetic(3, 3, 3, Protocol::Tcp), 8),
                AppClass::Web,
            ),
        ];
        for (pkts, expect) in cases {
            let mut decided = None;
            for p in &pkts {
                if let Some(c) = clf.observe(p) {
                    decided = Some(c);
                }
            }
            assert_eq!(decided, Some(expect));
        }
    }

    #[test]
    fn window_completion_hands_the_flow_over() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(4);
        let pkts = streaming_packets(key, 6);
        let verdicts: Vec<_> = pkts.iter().map(|p| clf.observe(p)).collect();
        // `Some` on the packet completing the window and no record
        // after it: packets 5 and 6 open a fresh window.
        assert_eq!(
            verdicts,
            [None, None, None, Some(AppClass::Streaming), None, None]
        );
        assert_eq!(clf.classifying_flows(), 1);
        assert_eq!(clf.windows.pool.len(), 0, "the released buffer was reused");
    }

    #[test]
    fn no_decision_before_window_fills() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(6);
        for p in streaming_packets(key, 5) {
            assert_eq!(clf.observe(&p), None);
        }
        assert_eq!(clf.classifying_flows(), 1);
    }

    #[test]
    fn hinted_server_classifies_on_the_first_packet() {
        let key = FlowKey::synthetic(1, 1, 9, Protocol::Udp);
        let mut clf = EarlyClassifier::with_default_profiles(4);
        let pkts = streaming_packets(key, 3);
        // A window opened before the hint was learnt is released by it.
        assert_eq!(clf.observe(&pkts[0]), None);
        clf.learn_server_hint(key.server_ip, AppClass::Conferencing);
        assert_eq!(clf.observe(&pkts[1]), Some(AppClass::Conferencing));
        assert_eq!(clf.classifying_flows(), 0);
        // Nothing is kept for a hinted flow either: every packet the
        // caller still feeds classifies again.
        assert_eq!(clf.observe(&pkts[2]), Some(AppClass::Conferencing));
        assert_eq!(clf.classifying_flows(), 0);
    }

    #[test]
    fn trained_profiles_beat_arbitrary_shapes() {
        // Train on deliberately odd shapes the defaults would confuse.
        let mk = |ms_step: u64, size: u32| -> Vec<PacketRecord> {
            (0..8)
                .map(|i| (Instant::from_millis(ms_step * i), size, Direction::Downlink))
                .collect()
        };
        let examples = vec![
            (AppClass::Web, mk(1, 60)),
            (AppClass::Streaming, mk(50, 600)),
            (AppClass::Conferencing, mk(200, 1500)),
        ];
        let clf = EarlyClassifier::train(8, &examples);
        let f = FlowFeatures::from_packets(&mk(200, 1500));
        assert_eq!(clf.classify_features(&f), AppClass::Conferencing);
        let f = FlowFeatures::from_packets(&mk(1, 60));
        assert_eq!(clf.classify_features(&f), AppClass::Web);
    }

    #[test]
    fn forget_releases_a_half_filled_window() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut clf = EarlyClassifier::with_default_profiles(4);
        let pkts = streaming_packets(key, 6);
        for p in &pkts[..2] {
            assert_eq!(clf.observe(p), None);
        }
        clf.forget(&key);
        assert_eq!((clf.classifying_flows(), clf.windows.pool.len()), (0, 1));
        clf.forget(&key); // nothing open: a no-op
        assert_eq!((clf.classifying_flows(), clf.windows.pool.len()), (0, 1));
        // The flow starts over — a full window from here, in the
        // pooled buffer.
        let verdicts: Vec<_> = pkts[2..].iter().map(|p| clf.observe(p)).collect();
        assert_eq!(verdicts, [None, None, None, Some(AppClass::Streaming)]);
        assert_eq!((clf.classifying_flows(), clf.windows.pool.len()), (0, 1));
    }

    #[test]
    fn windows_survive_table_growth_and_churn() {
        // Many windows open at once (the table doubles several times),
        // closed in an order unrelated to how they were opened.
        let mut clf = EarlyClassifier::with_default_profiles(3);
        let key = |n: u32| FlowKey::synthetic(n, n / 7, 1, Protocol::Tcp);
        for round in 0..2 {
            for n in 0..500 {
                assert_eq!(clf.observe(&streaming_packets(key(n), 1)[0]), None);
            }
            assert_eq!(clf.classifying_flows(), 500);
            for n in (0..500).filter(|n| n % 3 == round) {
                clf.forget(&key(n));
            }
            for n in (0..500).rev().filter(|n| n % 3 != round) {
                let pkts = streaming_packets(key(n), 3);
                assert_eq!(clf.observe(&pkts[1]), None);
                assert_eq!(clf.observe(&pkts[2]), Some(AppClass::Streaming), "flow {n}");
            }
            assert_eq!((clf.classifying_flows(), clf.windows.pool.len()), (0, 500));
        }
    }

    #[test]
    fn the_secret_moves_buckets_but_not_classes() {
        let keys: Vec<FlowKey> = (0..200)
            .map(|n| FlowKey::synthetic(n, n, 1, Protocol::Tcp))
            .collect();
        let run = |secret: [u64; 2]| {
            let mut clf = EarlyClassifier::with_default_profiles(8);
            clf.windows.secret = secret;
            let homes: Vec<usize> = keys
                .iter()
                .map(|k| keyed_hash(&secret, k) as usize & 0xff)
                .collect();
            let mut classes = Vec::new();
            for i in 0..8 {
                for (n, key) in keys.iter().enumerate() {
                    let pkts = match n % 3 {
                        0 => web_packets(*key, 8),
                        1 => streaming_packets(*key, 8),
                        _ => conferencing_packets(*key, 8),
                    };
                    classes.extend(clf.observe(&pkts[i]));
                }
            }
            (homes, classes)
        };
        let (homes_a, classes_a) = run([1, 2]);
        let (homes_b, classes_b) = run([0x9e37_79b9_7f4a_7c15, 0xdead_beef]);
        assert_eq!(classes_a.len(), keys.len());
        assert_eq!(classes_a, classes_b);
        let moved = homes_a.iter().zip(&homes_b).filter(|(a, b)| a != b).count();
        assert!(moved > 150, "only {moved} of 200 keys changed bucket");
        // And two classifiers built in one process draw different secrets.
        let fresh = |_| EarlyClassifier::with_default_profiles(8).windows.secret;
        assert_ne!(fresh(0), fresh(1));
    }

    #[test]
    fn features_from_mixed_directions() {
        let key = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let pkts = vec![
            (Instant::from_millis(0), 100u32, Direction::Uplink),
            (Instant::from_millis(10), 1000, Direction::Downlink),
            (Instant::from_millis(20), 1000, Direction::Downlink),
            (Instant::from_millis(30), 100, Direction::Uplink),
        ];
        let _ = key;
        let f = FlowFeatures::from_packets(&pkts);
        assert_eq!(f.mean_down_size, 1000.0);
        assert_eq!(f.uplink_ratio, 0.5);
        assert!((f.mean_iat_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn empty_features_panic() {
        let _ = FlowFeatures::from_packets(&[]);
    }

    /// `from_packets` as it was before it read the slice in place:
    /// sizes and gaps collected into two `Vec<f64>`, then summed. The
    /// reference the in-place version must match bit for bit.
    fn from_packets_collected(packets: &[PacketRecord]) -> FlowFeatures {
        let down: Vec<f64> = packets
            .iter()
            .filter(|(_, _, d)| *d == Direction::Downlink)
            .map(|(_, s, _)| *s as f64)
            .collect();
        let (mean_down_size, std_down_size) = if down.is_empty() {
            (0.0, 0.0)
        } else {
            let m = down.iter().sum::<f64>() / down.len() as f64;
            let v = down.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / down.len() as f64;
            (m, v.sqrt())
        };
        let mut iats = Vec::new();
        for w in packets.windows(2) {
            iats.push(w[1].0.saturating_since(w[0].0).as_secs_f64() * 1e3);
        }
        let (mean_iat_ms, iat_cov) = if iats.is_empty() {
            (0.0, 0.0)
        } else {
            let m = iats.iter().sum::<f64>() / iats.len() as f64;
            let var = iats.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / iats.len() as f64;
            let cov = if m > 1e-9 { var.sqrt() / m } else { 0.0 };
            (m, cov)
        };
        let ups = packets
            .iter()
            .filter(|(_, _, d)| *d == Direction::Uplink)
            .count();
        FlowFeatures {
            mean_down_size,
            std_down_size,
            mean_iat_ms,
            uplink_ratio: ups as f64 / packets.len() as f64,
            iat_cov,
        }
    }

    fn bits(f: &FlowFeatures) -> [u64; 5] {
        [
            f.mean_down_size,
            f.std_down_size,
            f.mean_iat_ms,
            f.uplink_ratio,
            f.iat_cov,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn in_place_features_match_the_collected_reference_on_edge_windows() {
        use Direction::{Downlink, Uplink};
        let at = Instant::from_micros;
        let windows: [&[PacketRecord]; 5] = [
            &[(at(7), 1400, Downlink)],
            &[(at(7), 60, Uplink)],
            &[
                (at(0), 90, Uplink),
                (at(40), 120, Uplink),
                (at(95), 70, Uplink),
            ],
            &[
                (at(5), 1400, Downlink),
                (at(5), 1, Downlink),
                (at(5), 0, Uplink),
            ],
            &[
                (at(900), 333, Downlink),
                (at(20), 1500, Uplink),
                (at(450), 7, Downlink),
            ],
        ];
        for w in windows {
            assert_eq!(
                bits(&FlowFeatures::from_packets(w)),
                bits(&from_packets_collected(w)),
                "{w:?}"
            );
        }
    }

    /// The windows the ledger's flows open with (`bench/src/traffic.rs`):
    /// same features, so the same class, as the collected reference.
    #[test]
    fn bench_signature_windows_keep_their_class() {
        use Direction::{Downlink, Uplink};
        /// `(microseconds since the previous packet, bytes, direction)`.
        type Signature = [(u64, u32, Direction); 8];
        let signatures: [(AppClass, Signature); 3] = [
            (
                AppClass::Web,
                [
                    (0, 320, Uplink),
                    (18_000, 1400, Downlink),
                    (2_000, 1100, Downlink),
                    (1_000, 240, Downlink),
                    (30_000, 400, Uplink),
                    (20_000, 900, Downlink),
                    (3_000, 180, Downlink),
                    (10_000, 380, Downlink),
                ],
            ),
            (
                AppClass::Streaming,
                [
                    (0, 1400, Downlink),
                    (3_000, 1400, Downlink),
                    (3_000, 1400, Downlink),
                    (3_000, 1200, Downlink),
                    (3_000, 1400, Downlink),
                    (3_000, 1400, Downlink),
                    (3_000, 1500, Downlink),
                    (3_000, 1400, Downlink),
                ],
            ),
            (
                AppClass::Conferencing,
                [
                    (0, 1000, Downlink),
                    (25_000, 1200, Downlink),
                    (25_000, 800, Downlink),
                    (25_000, 700, Uplink),
                    (25_000, 1250, Downlink),
                    (25_000, 950, Downlink),
                    (25_000, 750, Downlink),
                    (25_000, 1050, Downlink),
                ],
            ),
        ];
        let clf = EarlyClassifier::with_default_profiles(8);
        for (class, signature) in signatures {
            for start_ms in [0, 250, 5_000, 1_499_750] {
                let mut at = Instant::from_millis(start_ms);
                let window: Vec<PacketRecord> = signature
                    .iter()
                    .map(|&(gap_us, size, dir)| {
                        at += crate::time::Duration::from_micros(gap_us);
                        (at, size, dir)
                    })
                    .collect();
                let (got, want) = (
                    FlowFeatures::from_packets(&window),
                    from_packets_collected(&window),
                );
                assert_eq!(bits(&got), bits(&want), "{class} from {start_ms} ms");
                assert_eq!(clf.classify_features(&got), class);
                assert_eq!(clf.classify_features(&want), class);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any window of 1–40 records: timestamps from a 50-value grid
        /// (so equal and out-of-order ones are the rule), at nanosecond
        /// or millisecond pitch; one window in four all-uplink.
        #[test]
        fn in_place_features_match_the_collected_reference(
            raw in prop::collection::vec((0u64..50, 0u32..1600, 0u8..4), 1..41),
            pitch_ns in prop_oneof![Just(1u64), Just(1_000_000u64)],
            downlink_share in 0u8..4,
        ) {
            let window: Vec<PacketRecord> = raw
                .iter()
                .map(|&(tick, size, d)| {
                    let dir = if d < downlink_share {
                        Direction::Downlink
                    } else {
                        Direction::Uplink
                    };
                    (Instant::from_nanos(tick * pitch_ns), size, dir)
                })
                .collect();
            prop_assert_eq!(
                bits(&FlowFeatures::from_packets(&window)),
                bits(&from_packets_collected(&window))
            );
        }
    }
}

//! The engine against a reference written to be read: a `HashMap` of
//! each undecided flow's records (hint first, then the window, then
//! `FlowFeatures::from_packets` and `classify_features` on a full one),
//! a `HashMap` of admitted flows beside their admission order, and a
//! `VecDeque` FIFO of rejected flows. None of it shares the window
//! arena or the flow index with the engine. One owner per flow is what
//! the engine's single index makes structural; here it is simply what
//! the reference does. The early classifier's own `observe` runs
//! beside the reference's windows, fed the same packets, and must
//! settle every flow on the same packet as the same class.
//!
//! Random schedules interleave window packets of several flows in one
//! batch, learn a server hint while windows are open, depart flows
//! mid-window, shrink the scripted region so polls revoke, and run the
//! rejected FIFO at capacity 2 so records are evicted. After every step
//! both sides must agree on every verdict, the decision log, the
//! matrix, `classifying_flows` and `rejected_occupancy`.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use exbox_net::classify::PacketRecord;
use exbox_net::{Direction, FlowFeatures, Protocol};
use proptest::prelude::*;

use super::*;

/// Flows in a schedule.
const FLOWS: u32 = 6;
/// Flows `id` with `id % 3 == 2` talk to this server, the one hints
/// name; the others never settle early.
const HINTED: u8 = 3;
const CAPACITY: usize = 2;

fn flow(id: u32) -> FlowKey {
    FlowKey::synthetic(id, id, (id % 3) as u8 + 1, Protocol::Tcp)
}

fn snr(id: u32) -> SnrLevel {
    if id & 1 == 0 {
        SnrLevel::High
    } else {
        SnrLevel::Low
    }
}

/// Packet `seq` of flow `id` at `at_ms`, shaped by the flow so windows
/// settle as different classes.
fn packet(id: u32, seq: u64, at_ms: u64) -> Packet {
    let (size, direction) = match (id % 3, seq % 3) {
        (0, _) => (1400, Direction::Downlink),
        (1, _) => (1000, Direction::Downlink),
        (_, 0) => (250, Direction::Uplink),
        _ => (300 + 700 * (seq % 2) as u32, Direction::Downlink),
    };
    Packet::new(Instant::from_millis(at_ms), size, flow(id), direction, seq)
}

struct Reference {
    window: usize,
    hints: HashMap<Ipv4Addr, AppClass>,
    /// The records of every undecided flow that has sent any.
    windows: HashMap<FlowKey, Vec<PacketRecord>>,
    /// Only its default profiles are used, through `classify_features`.
    profiles: EarlyClassifier,
    /// `observe`, fed what `windows` is fed.
    observer: EarlyClassifier,
    admitted: HashMap<FlowKey, FlowKind>,
    /// Admission order, oldest first: what a poll revokes first.
    order: Vec<FlowKey>,
    rejected: VecDeque<FlowKey>,
    src: Scripted,
    log: Vec<DecisionEvent>,
}

impl Reference {
    fn new(window: usize) -> Self {
        Reference {
            window,
            hints: HashMap::new(),
            windows: HashMap::new(),
            profiles: EarlyClassifier::with_default_profiles(window),
            observer: EarlyClassifier::with_default_profiles(window),
            admitted: HashMap::new(),
            order: Vec::new(),
            rejected: VecDeque::new(),
            src: Scripted::online(2),
            log: Vec::new(),
        }
    }

    fn learn_server_hint(&mut self, server: Ipv4Addr, class: AppClass) {
        self.hints.insert(server, class);
        self.observer.learn_server_hint(server, class);
    }

    /// A packet of an undecided flow: its class when it settles the
    /// flow — the first one to a hinted server, else the one filling
    /// the window — and `None` before.
    fn classify(&mut self, pkt: &Packet) -> Option<AppClass> {
        let settled = if let Some(&class) = self.hints.get(&pkt.flow.server_ip) {
            self.windows.remove(&pkt.flow);
            Some(class)
        } else {
            let records = self.windows.entry(pkt.flow).or_default();
            records.push((pkt.timestamp, pkt.size, pkt.direction));
            if records.len() == self.window {
                let features = FlowFeatures::from_packets(records);
                self.windows.remove(&pkt.flow);
                Some(self.profiles.classify_features(&features))
            } else {
                None
            }
        };
        assert_eq!(self.observer.observe(pkt), settled, "observe on {pkt:?}");
        settled
    }

    fn packet(&mut self, pkt: &Packet, snr: SnrLevel) -> Action {
        if self.admitted.contains_key(&pkt.flow) {
            return Action::Forward;
        }
        if self.rejected.contains(&pkt.flow) {
            return Action::Drop;
        }
        let Some(class) = self.classify(pkt) else {
            return Action::Forward;
        };
        let kind = FlowKind::new(class, snr);
        let (label, margin) = self.src.decide(&self.src.matrix.with_arrival(kind));
        let (verdict, reason, action) = match label {
            Label::Pos => {
                self.src.add(kind);
                self.admitted.insert(pkt.flow, kind);
                self.order.push(pkt.flow);
                (
                    DecisionKind::Admit,
                    DecisionReason::InsideRegion,
                    Action::Forward,
                )
            }
            Label::Neg => {
                self.reject(pkt.flow);
                (
                    DecisionKind::Reject,
                    DecisionReason::OutsideRegion,
                    Action::Drop,
                )
            }
        };
        self.log.push(DecisionEvent {
            at: pkt.timestamp,
            flow: pkt.flow,
            class,
            snr,
            verdict,
            margin,
            reason,
        });
        action
    }

    fn reject(&mut self, key: FlowKey) {
        self.rejected.push_back(key);
        while self.rejected.len() > CAPACITY {
            self.rejected.pop_front();
        }
    }

    fn depart(&mut self, key: &FlowKey) -> Option<FlowKind> {
        if let Some(kind) = self.admitted.remove(key) {
            self.order.retain(|k| k != key);
            self.src.remove(kind);
            return Some(kind);
        }
        if let Some(at) = self.rejected.iter().position(|k| k == key) {
            self.rejected.remove(at);
        } else {
            self.windows.remove(key);
            self.observer.forget(key);
        }
        None
    }

    /// No QoS report reaches either side, so a poll only re-evaluates:
    /// oldest admission first, until the matrix fits.
    fn poll(&mut self, now: Instant) -> Vec<(FlowKey, PollVerdict)> {
        let mut out = Vec::new();
        let mut matrix = self.src.matrix;
        let (mut label, mut margin) = self.src.reevaluate(&matrix);
        while label == Label::Neg && !self.order.is_empty() {
            let key = self.order.remove(0);
            let kind = self
                .admitted
                .remove(&key)
                .expect("ordered flows are admitted");
            self.src.remove(kind);
            matrix.remove(kind);
            self.reject(key);
            out.push((key, PollVerdict::Revoke));
            self.log.push(DecisionEvent {
                at: now,
                flow: key,
                class: kind.class,
                snr: kind.snr,
                verdict: DecisionKind::Revoke,
                margin,
                reason: DecisionReason::RegionReevaluation,
            });
            (label, margin) = self.src.reevaluate(&matrix);
        }
        out
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// `rounds` packets of every listed flow, interleaved, in one
    /// batch (a flow listed twice sends back-to-back packets).
    Burst(Vec<u32>, usize),
    /// The hinted server's class becomes known, mid-window for its
    /// flows that have one open.
    Hint(AppClass),
    Depart(u32),
    /// The scripted region now admits at most this many flows.
    Region(u32),
    Poll,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..12,
        prop::collection::vec(0..FLOWS, 1..4),
        1usize..5,
        0u32..FLOWS,
    )
        .prop_map(|(op, ids, rounds, n)| match op {
            0..=5 => Step::Burst(ids, rounds),
            6 => Step::Hint(AppClass::from_index(n as usize % AppClass::COUNT)),
            7 | 8 => Step::Depart(n),
            9 => Step::Region(n % 4),
            _ => Step::Poll,
        })
}

/// A batch through the engine the way a shard drives one.
fn serve(e: &mut FlowEngine, src: &mut Scripted, batch: &[(u32, Packet)]) -> Vec<Action> {
    let mut run = Run::default();
    let out = batch
        .iter()
        .map(|(id, p)| match e.probe(&mut run, p) {
            Probe::Done(action) => action,
            Probe::Classified(class) => e.decide(&mut run, src, p, snr(*id), class),
        })
        .collect();
    e.flush(run);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_engine_equals_the_reference(steps in prop::collection::vec(step(), 1..160)) {
        let reg = MetricsRegistry::new();
        let cfg = MiddleboxConfig {
            rejected_capacity: CAPACITY,
            decision_log_capacity: 4096,
            ..MiddleboxConfig::default()
        };
        let mut reference = Reference::new(cfg.classify_window);
        let mut e = engine(cfg, FaultPlan::disabled(), &reg);
        let mut src = Scripted::online(2);
        let (mut clock_ms, mut secs) = (0u64, 0u64);
        let mut seq = [0u64; FLOWS as usize];
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Burst(ids, rounds) => {
                    let mut batch = Vec::new();
                    for _ in 0..*rounds {
                        for &id in ids {
                            clock_ms += 3;
                            batch.push((id, packet(id, seq[id as usize], clock_ms)));
                            seq[id as usize] += 1;
                        }
                    }
                    let want: Vec<Action> = batch
                        .iter()
                        .map(|(id, p)| reference.packet(p, snr(*id)))
                        .collect();
                    prop_assert_eq!(serve(&mut e, &mut src, &batch), want, "step {}", i);
                }
                Step::Hint(class) => {
                    let server = Ipv4Addr::new(192, 168, 1, HINTED);
                    e.learn_server_hint(server, *class);
                    reference.learn_server_hint(server, *class);
                }
                Step::Depart(id) => {
                    let got = e.flow_departed(&flow(*id));
                    if let Some(kind) = got {
                        src.remove(kind);
                    }
                    prop_assert_eq!(got, reference.depart(&flow(*id)), "step {}", i);
                }
                Step::Region(cap) => {
                    let cap = *cap;
                    src.admissible = Box::new(move |m| m.total() <= cap);
                    reference.src.admissible = Box::new(move |m| m.total() <= cap);
                }
                Step::Poll => {
                    secs += 2;
                    let now = Instant::from_secs(secs);
                    let mut got = Vec::new();
                    e.poll_into(&mut src, now, &mut got);
                    prop_assert_eq!(got, reference.poll(now), "step {}", i);
                }
            }
            prop_assert_eq!(
                e.decision_log().snapshot(),
                reference.log.clone(),
                "decision log after step {}: {:?}",
                i,
                step
            );
            prop_assert_eq!(src.matrix, reference.src.matrix, "step {}", i);
            prop_assert_eq!(e.admitted_flows(), reference.admitted.len(), "step {}", i);
            prop_assert_eq!(
                e.early.classifying_flows(),
                reference.windows.len(),
                "classifying flows after step {}: {:?}",
                i,
                step
            );
            prop_assert_eq!(
                reference.observer.classifying_flows(),
                reference.windows.len(),
                "observe's windows after step {}: {:?}",
                i,
                step
            );
            let occupancy = reg.snapshot().gauge("middlebox.rejected_occupancy");
            prop_assert_eq!(
                occupancy.unwrap_or(0.0),
                reference.rejected.len() as f64,
                "rejected occupancy after step {}: {:?}",
                i,
                step
            );
        }
    }
}

//! The one place the ledger touches the gateway.
//!
//! A [`Harness`] owns a fresh [`ConcurrentGateway`] for one pass and
//! wraps each call of the public driving API (`process_packets`,
//! `record_delivery`, `poll_into`, `flow_departed`,
//! `inject_observation`, `flush_trainer`) in a timed segment. Segments
//! are contiguous: whatever runs between two gateway calls — input
//! materialisation, checksum folding, sample bookkeeping — is the
//! `driver.generate` segment that precedes the next call, so the
//! segments of a pass add up to its wall time and nothing the program
//! did is timed as the driver's, or the reverse.
//!
//! A pass is also cut into [`Slice`]s of [`SLICE_CALLS`] gateway calls
//! each. The calls of a pass are a function of the seed, so slice `j`
//! is the same work in every repetition, and a run can tell what that
//! work costs from what a neighbour's burst did to one repetition of it.
//!
//! The same code runs traced and untraced; tracing only adds the push
//! of one [`Span`] per segment.

use std::time::Instant as WallClock;

use exbox_core::flowtable::hash_flow_key;
use exbox_core::matrix::{SnrLevel, TrafficMatrix};
use exbox_core::{Action, ConcurrentGateway, PollVerdict};
use exbox_ml::Label;
use exbox_net::{Duration, FlowKey, Instant, Packet};

use crate::cpu;

/// What a timed segment was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    Generate,
    Ingest,
    Delivery,
    Poll,
    Depart,
    Observe,
    Flush,
}

impl Seg {
    pub const ALL: [Seg; 7] = [
        Seg::Generate,
        Seg::Ingest,
        Seg::Delivery,
        Seg::Poll,
        Seg::Depart,
        Seg::Observe,
        Seg::Flush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Seg::Generate => "driver.generate",
            Seg::Ingest => "gateway.ingest",
            Seg::Delivery => "gateway.delivery",
            Seg::Poll => "gateway.poll",
            Seg::Depart => "gateway.depart",
            Seg::Observe => "gateway.observe",
            Seg::Flush => "trainer.flush",
        }
    }
}

/// One traced segment; times are nanoseconds since the pass began.
/// The parent of every segment is the pass itself.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub seg: Seg,
    /// Packets, delivery reports, ... the call carried.
    pub items: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Gateway calls per [`Slice`]: about a millisecond of any workload.
pub const SLICE_CALLS: u32 = 512;

/// What [`SLICE_CALLS`] consecutive gateway calls cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Time inside the gateway calls (the driver's own excluded).
    pub busy_ns: u64,
    /// Process CPU time, all threads, the driver's own included.
    pub cpu_ns: u64,
}

/// Which latency sample an ingest call contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The workload's dominant call (`step_p50_us`).
    Step,
    /// A single packet that completes a flow's classification window
    /// and so carries its admission decision (`decision_p50_us`).
    Decision,
    Other,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug)]
pub struct Harness {
    gw: ConcurrentGateway,
    origin: WallClock,
    /// End of the last closed segment, ns since `origin`.
    mark: u64,
    pub busy_ns: [u64; Seg::ALL.len()],
    pub calls: [u64; Seg::ALL.len()],
    pub packets: u64,
    pub decisions: u64,
    pub revokes: u64,
    pub refused_observations: u64,
    /// Operations whose outcome was wrong: a verdict missing for a
    /// packet, an observation refused, a flush unanswered.
    pub failed: u64,
    /// FNV-1a fold of every verdict, in order.
    pub checksum: u64,
    pub step_ns: Vec<u32>,
    pub decision_ns: Vec<u32>,
    pub slices: Vec<Slice>,
    /// The open slice: its busy time and calls so far, and the CPU
    /// clock when it opened.
    open_busy_ns: u64,
    open_calls: u32,
    open_cpu_ns: u64,
    verdicts: Vec<Action>,
    poll_buf: Vec<(FlowKey, PollVerdict)>,
    spans: Option<Vec<Span>>,
    recorded: Option<Vec<(Packet, SnrLevel)>>,
}

/// Packets kept for the layer probes when recording is on: 4 096
/// flows' windows, so a replay without departures cannot overflow the
/// gateway's rejected ring.
const RECORD_CAP: usize = 1 << 15;

impl Harness {
    pub fn new(gw: ConcurrentGateway, trace: bool, record: bool) -> Harness {
        Harness {
            gw,
            origin: WallClock::now(),
            mark: 0,
            busy_ns: [0; Seg::ALL.len()],
            calls: [0; Seg::ALL.len()],
            packets: 0,
            decisions: 0,
            revokes: 0,
            refused_observations: 0,
            failed: 0,
            checksum: FNV_OFFSET,
            step_ns: Vec::new(),
            decision_ns: Vec::new(),
            slices: Vec::new(),
            open_busy_ns: 0,
            open_calls: 0,
            open_cpu_ns: 0,
            verdicts: Vec::new(),
            poll_buf: Vec::new(),
            spans: trace.then(Vec::new),
            recorded: record.then(|| Vec::with_capacity(RECORD_CAP)),
        }
    }

    /// Start the pass clock. Call once, right before the pass.
    pub fn start(&mut self) {
        self.open_cpu_ns = cpu::process_cpu_ns();
        self.origin = WallClock::now();
        self.mark = 0;
    }

    /// Close the last slice and read the wall time since
    /// [`Harness::start`] — independently of the segments, whose sum
    /// must reconstruct it. Call once, right after the pass.
    pub fn finish(&mut self) -> u64 {
        let wall_ns = self.origin.elapsed().as_nanos() as u64;
        if self.open_calls > 0 {
            self.close_slice();
        }
        wall_ns
    }

    /// The CPU clock is a system call: read once per slice, in the
    /// driver's own time (the segment after it is `driver.generate`).
    fn close_slice(&mut self) {
        let cpu_now = cpu::process_cpu_ns();
        self.slices.push(Slice {
            busy_ns: self.open_busy_ns,
            cpu_ns: cpu_now - self.open_cpu_ns,
        });
        self.open_busy_ns = 0;
        self.open_calls = 0;
        self.open_cpu_ns = cpu_now;
    }

    /// Close the segment running since the last close as `seg`.
    #[inline]
    fn lap(&mut self, seg: Seg, items: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let spent = now - self.mark;
        self.busy_ns[seg as usize] += spent;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                seg,
                items,
                start_ns: self.mark,
                end_ns: now,
            });
        }
        self.mark = now;
        if seg != Seg::Generate {
            self.open_busy_ns += spent;
            self.open_calls += 1;
            if self.open_calls == SLICE_CALLS {
                self.close_slice();
            }
        }
        spent
    }

    #[inline]
    fn fold(&mut self, byte: u64) {
        self.checksum = (self.checksum ^ byte).wrapping_mul(FNV_PRIME);
    }

    /// `process_packets`; the verdicts stay readable through
    /// [`Harness::verdicts`] until the next ingest.
    pub fn ingest(&mut self, pkts: &[(Packet, SnrLevel)], role: Role) {
        if let Some(rec) = &mut self.recorded {
            let room = RECORD_CAP - rec.len();
            rec.extend_from_slice(&pkts[..pkts.len().min(room)]);
        }
        self.lap(Seg::Generate, 0);
        self.verdicts = self.gw.process_packets(pkts);
        let spent = self.lap(Seg::Ingest, pkts.len() as u32);
        self.calls[Seg::Ingest as usize] += 1;
        self.packets += pkts.len() as u64;
        let sample = spent.min(u64::from(u32::MAX)) as u32;
        match role {
            Role::Step => self.step_ns.push(sample),
            Role::Decision => {
                self.decisions += 1;
                self.decision_ns.push(sample);
            }
            Role::Other => {}
        }
        self.failed += pkts.len().abs_diff(self.verdicts.len()) as u64;
        for i in 0..self.verdicts.len() {
            self.fold(self.verdicts[i] as u64);
        }
    }

    /// Verdicts of the last [`Harness::ingest`], one per packet.
    pub fn verdicts(&self) -> &[Action] {
        &self.verdicts
    }

    /// One `record_delivery` per packet of the last ingest that was
    /// forwarded, `delay` after it was sent. Timed as one segment: a
    /// clock read around each ~20 ns call would double its cost.
    pub fn deliver_forwarded(&mut self, pkts: &[(Packet, SnrLevel)], delay: Duration) {
        self.lap(Seg::Generate, 0);
        let mut n = 0u32;
        for ((pkt, _), verdict) in pkts.iter().zip(&self.verdicts) {
            if *verdict == Action::Forward {
                self.gw
                    .record_delivery(&pkt.flow, pkt.timestamp, pkt.timestamp + delay, pkt.size);
                n += 1;
            }
        }
        self.lap(Seg::Delivery, n);
        self.calls[Seg::Delivery as usize] += u64::from(n);
    }

    /// One `record_delivery` per key, sent at `sent` (one segment).
    pub fn deliver_to(&mut self, keys: &[FlowKey], sent: Instant, delay: Duration, size: u32) {
        self.lap(Seg::Generate, 0);
        for key in keys {
            self.gw.record_delivery(key, sent, sent + delay, size);
        }
        self.lap(Seg::Delivery, keys.len() as u32);
        self.calls[Seg::Delivery as usize] += keys.len() as u64;
    }

    /// `poll_into`; revocations are folded into the checksum.
    pub fn poll(&mut self, now: Instant, role: Role) {
        self.poll_buf.clear();
        self.lap(Seg::Generate, 0);
        self.gw.poll_into(now, &mut self.poll_buf);
        let spent = self.lap(Seg::Poll, self.poll_buf.len() as u32);
        self.calls[Seg::Poll as usize] += 1;
        if role == Role::Step {
            self.step_ns.push(spent.min(u64::from(u32::MAX)) as u32);
        }
        for i in 0..self.poll_buf.len() {
            let (key, verdict) = self.poll_buf[i];
            self.fold(hash_flow_key(&key));
            self.fold(verdict as u64);
            self.revokes += u64::from(verdict == PollVerdict::Revoke);
        }
    }

    pub fn depart(&mut self, key: &FlowKey) {
        self.lap(Seg::Generate, 0);
        self.gw.flow_departed(key);
        self.lap(Seg::Depart, 1);
        self.calls[Seg::Depart as usize] += 1;
    }

    pub fn observe(&mut self, matrix: TrafficMatrix, label: Label) {
        self.lap(Seg::Generate, 0);
        let accepted = self.gw.inject_observation(matrix, label);
        self.lap(Seg::Observe, 1);
        self.calls[Seg::Observe as usize] += 1;
        if !accepted {
            self.refused_observations += 1;
            self.failed += 1;
        }
    }

    pub fn flush(&mut self) {
        self.lap(Seg::Generate, 0);
        let answered = self.gw.flush_trainer();
        self.lap(Seg::Flush, 1);
        self.calls[Seg::Flush as usize] += 1;
        self.failed += u64::from(!answered);
    }

    /// End of the last gateway call, ns since the pass began: the two
    /// ends of a step that spans several calls.
    pub fn clock_ns(&self) -> u64 {
        self.mark
    }

    pub fn record_step(&mut self, ns: u64) {
        self.step_ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    pub fn gateway(&self) -> &ConcurrentGateway {
        &self.gw
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }

    pub fn take_recorded(&mut self) -> Vec<(Packet, SnrLevel)> {
        self.recorded.take().unwrap_or_default()
    }
}

//! Multi-core packet data plane: per-shard SPSC ingress rings, pinned
//! run-to-completion workers, and a sequence-ordered verdict merge.
//!
//! ```text
//!                     ┌ spsc ring ┐   ┌──────────┐  ┌ spsc ring ┐
//!          ┌─ route ─▶│ (seq,pkt) │──▶│ worker 0 │─▶│(seq,act)  │─┐
//!  caller ─┤          └───────────┘   │ shard 0  │  └───────────┘ │  ordered
//!  ingest  │          ┌───────────┐   ├──────────┤  ┌───────────┐ ├─▶ merge ─▶ verdicts
//!          └─ route ─▶│ (seq,pkt) │──▶│ worker 1 │─▶│(seq,act)  │─┘  (reorder ring)
//!                     └───────────┘   │ shard 1  │  └───────────┘
//!                                     └────┬─────┘
//!                                      OrderGate (decision ordering)
//! ```
//!
//! [`ConcurrentGateway::start_pipeline`](super::ConcurrentGateway::start_pipeline)
//! moves the shards onto dedicated worker threads; the caller drives
//! the [`PipelineHandle`]: [`ingest`](PipelineHandle::ingest) assigns
//! every packet a global **ingress sequence number**, routes it by
//! flow hash (the same [`hash_flow_key`](crate::flowtable::hash_flow_key)
//! routing as the sequential drivers) into its shard's bounded
//! `spsc` ring, and publishes rings in batches. Each
//! worker drains its ring run-to-completion through the shard's batch
//! path and emits `(seq, action)` onto its verdict ring; the handle
//! merges those per-shard streams through a pre-sized reorder ring
//! back into one globally-ordered verdict stream.
//!
//! # Determinism (DESIGN.md §10)
//!
//! The merged verdict stream is **byte-identical** to driving the same
//! packet slice through the sequential
//! [`ConcurrentGateway::process_packets`](super::ConcurrentGateway::process_packets),
//! at any shard count. Shard-local state only ever sees its own flows
//! in ingress order (SPSC FIFO), so the only cross-shard races are
//! admission decisions against the [`SharedMatrix`](super::SharedMatrix).
//! The `OrderGate` serialises exactly those: a decision for sequence
//! `s` waits until every *other* lane's progress cursor passed `s`, so
//! matrix reads and writes happen in global ingress order — the same
//! interleaving the sequential driver produces — while the ~97% of
//! packets that never touch the matrix (rejected-probe drops, known
//! flows, classification warm-up) stream through in parallel.
//!
//! Gate liveness rests on two invariants encoded here:
//!
//! 1. **Prefix publication.** A sweep publishes *every* ring before
//!    advancing the shared watermark, so watermark `w` implies all
//!    sequences `< w` are visible in their rings.
//! 2. **Idle self-advance.** A worker that reads watermark `w` *and
//!    then* observes its ring empty has completed every owned sequence
//!    `< w`, so it may raise its progress cursor to `w`; sequences
//!    assigned later are `≥ w`, keeping the cursor monotone. A worker
//!    whose ring closed and drained retires its cursor to `u64::MAX`.
//!
//! Together these make the minimum outstanding decision always
//! eligible — no deadlock — without any worker ever blocking on a
//! lock.
//!
//! # Backpressure
//!
//! Everything is bounded: ingress rings hold `4 × batch` packets, and
//! at most `depth` (= shard count × ring capacity) packets are
//! in flight (assigned but unmerged), which also pre-sizes the reorder
//! ring and verdict rings so the merge never allocates and workers
//! never stall on verdict publication. [`PipelineHandle::try_ingest`]
//! returns early when a ring or the in-flight window is full;
//! [`PipelineHandle::ingest`] spins — publishing, merging and yielding
//! so workers keep draining — and counts each episode in
//! `gateway.ring_full_stalls` / `pipeline.reorder_stalls`.

use std::sync::Arc;

use exbox_net::Packet;
use exbox_obs::Counter;

use crate::engine::Action;
use crate::matrix::SnrLevel;
use crate::sync::{thread, AtomicU64, CachePadded, Ordering};

use super::shard::GatewayShard;
use super::spsc;

/// One queued packet: global ingress sequence number, packet, SNR.
pub(crate) type IngressSlot = (u64, Packet, SnrLevel);

/// Decision-ordering gate shared by the dispatcher and every worker.
///
/// `progress[lane]` is the lane's cursor: every sequence the lane owns
/// below it is fully processed. `published` is the dispatcher's
/// watermark: every sequence below it is visible in its ring. See the
/// module docs for the invariants.
#[derive(Debug)]
pub(crate) struct OrderGate {
    progress: Box<[CachePadded<AtomicU64>]>,
    published: CachePadded<AtomicU64>,
    gate_waits: Arc<Counter>,
}

impl OrderGate {
    fn new(lanes: usize, gate_waits: Arc<Counter>) -> Self {
        OrderGate {
            progress: (0..lanes)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            published: CachePadded::new(AtomicU64::new(0)),
            gate_waits,
        }
    }

    /// Lane `lane` starts processing sequence `seq`; everything it
    /// owns below `seq` is complete.
    #[inline]
    pub(crate) fn begin(&self, lane: usize, seq: u64) {
        self.progress[lane].store(seq, Ordering::SeqCst);
    }

    /// Block (spin + yield) until every *other* lane's cursor passed
    /// `seq` — called immediately before a shared-matrix decision, so
    /// decisions commit in global ingress order.
    pub(crate) fn wait_turn(&self, lane: usize, seq: u64) {
        let mut waited = false;
        loop {
            let blocked = self
                .progress
                .iter()
                .enumerate()
                .any(|(j, p)| j != lane && p.load(Ordering::SeqCst) <= seq);
            if !blocked {
                return;
            }
            if !waited {
                waited = true;
                self.gate_waits.inc();
            }
            std::hint::spin_loop();
            thread::yield_now();
        }
    }

    /// Idle self-advance: `watermark` was read *before* the lane
    /// observed its ring empty (invariant 2 in the module docs).
    #[inline]
    fn idle(&self, lane: usize, watermark: u64) {
        self.progress[lane].store(watermark, Ordering::SeqCst);
    }

    /// The lane's ring closed and drained: no sequence will ever wait
    /// on it again.
    fn retire(&self, lane: usize) {
        self.progress[lane].store(u64::MAX, Ordering::SeqCst);
    }

    #[inline]
    fn watermark(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Advance the watermark to `seq`; the caller must have published
    /// every ring first (invariant 1).
    fn publish_watermark(&self, seq: u64) {
        self.published.store(seq, Ordering::SeqCst);
    }
}

/// Pre-sized sequence-indexed reorder ring: verdicts arrive per shard
/// in shard-local seq order and leave in global seq order. Capacity is
/// the in-flight bound, so inserts can never collide and the merge
/// never allocates (`pipeline.reorder_stalls` counts the dispatcher
/// waiting for the window to drain instead).
#[derive(Debug)]
struct Reorder {
    /// Next sequence to emit.
    base: u64,
    mask: u64,
    slots: Vec<Option<Action>>,
}

impl Reorder {
    fn new(depth: usize) -> Self {
        let cap = depth.next_power_of_two();
        Reorder {
            base: 0,
            mask: (cap - 1) as u64,
            slots: vec![None; cap],
        }
    }

    #[inline]
    fn insert(&mut self, seq: u64, act: Action) {
        let slot = &mut self.slots[(seq & self.mask) as usize];
        debug_assert!(
            slot.is_none() && seq >= self.base && seq - self.base <= self.mask,
            "verdict outside the in-flight window"
        );
        *slot = Some(act);
    }

    /// Append the contiguous ready prefix to `out`.
    fn emit_into(&mut self, out: &mut Vec<Action>) -> usize {
        let before = self.base;
        while let Some(act) = self.slots[(self.base & self.mask) as usize].take() {
            out.push(act);
            self.base += 1;
        }
        (self.base - before) as usize
    }
}

/// Counters bound from the gateway's pipeline registry; see the README
/// metrics reference.
struct PipelineMetrics {
    ingested: Arc<Counter>,
    merged: Arc<Counter>,
    ring_full_stalls: Arc<Counter>,
    reorder_stalls: Arc<Counter>,
    ring_publishes: Arc<Counter>,
    merge_out_grows: Arc<Counter>,
}

pub(super) struct PipelineSpec<'a> {
    pub shards: Vec<GatewayShard>,
    pub batch: usize,
    pub registry: &'a exbox_obs::MetricsRegistry,
}

/// Caller-side handle of a running pipeline. Obtained from
/// [`ConcurrentGateway::start_pipeline`](super::ConcurrentGateway::start_pipeline);
/// retired by
/// [`ConcurrentGateway::finish_pipeline`](super::ConcurrentGateway::finish_pipeline),
/// which drains in-flight packets, joins the workers and hands the
/// shards back (dropping the handle instead joins the workers but
/// discards shard state).
pub struct PipelineHandle {
    lanes: usize,
    batch: u64,
    depth: u64,
    producers: Vec<spsc::Producer<IngressSlot>>,
    verdict_rx: Vec<spsc::Consumer<(u64, Action)>>,
    workers: Vec<thread::JoinHandle<GatewayShard>>,
    gate: Arc<OrderGate>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// `next_seq` as of the last sweep (== the gate watermark).
    published_seq: u64,
    reorder: Reorder,
    /// Merged-but-undelivered verdicts (filled while `ingest` waits out
    /// a stall); drained first by [`drain_verdicts`](Self::drain_verdicts).
    ready: Vec<Action>,
    /// Scratch for draining verdict rings; pre-sized to `depth`.
    merge_scratch: Vec<(u64, Action)>,
    metrics: PipelineMetrics,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("lanes", &self.lanes)
            .field("next_seq", &self.next_seq)
            .field("merged_seq", &self.reorder.base)
            .finish_non_exhaustive()
    }
}

impl PipelineHandle {
    pub(super) fn start(spec: PipelineSpec<'_>) -> Self {
        let lanes = spec.shards.len();
        assert!(lanes > 0, "pipeline needs at least one shard");
        let batch = spec.batch.max(1);
        let ring_cap = (batch * 4).next_power_of_two();
        let depth = (lanes * ring_cap).next_power_of_two();
        let reg = spec.registry;
        let gate = Arc::new(OrderGate::new(lanes, reg.counter("pipeline.gate_waits")));
        let worker_batches = reg.counter("pipeline.worker_batches");

        let mut producers = Vec::with_capacity(lanes);
        let mut verdict_rx = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for (lane, shard) in spec.shards.into_iter().enumerate() {
            let (tx, rx) = spsc::ring::<IngressSlot>(ring_cap);
            let (vtx, vrx) = spsc::ring::<(u64, Action)>(depth);
            let gate = Arc::clone(&gate);
            let batches = Arc::clone(&worker_batches);
            let handle = thread::Builder::new()
                .name(format!("exbox-pipe-{lane}"))
                .spawn(move || worker_loop(shard, lane, rx, vtx, gate, batch, batches))
                .expect("spawn pipeline worker");
            producers.push(tx);
            verdict_rx.push(vrx);
            workers.push(handle);
        }

        PipelineHandle {
            lanes,
            batch: batch as u64,
            depth: depth as u64,
            producers,
            verdict_rx,
            workers,
            gate,
            next_seq: 0,
            published_seq: 0,
            reorder: Reorder::new(depth),
            ready: Vec::with_capacity(depth),
            merge_scratch: Vec::with_capacity(depth),
            metrics: PipelineMetrics {
                ingested: reg.counter("pipeline.ingested"),
                merged: reg.counter("pipeline.merged"),
                ring_full_stalls: reg.counter("gateway.ring_full_stalls"),
                reorder_stalls: reg.counter("pipeline.reorder_stalls"),
                ring_publishes: reg.counter("gateway.ring_publishes"),
                merge_out_grows: reg.counter("pipeline.merge_out_grows"),
            },
        }
    }

    /// Number of worker lanes (== shard count).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Packets assigned a sequence number but not yet merged.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.reorder.base
    }

    /// Publish every ring, then advance the watermark (invariant 1:
    /// never the other way around).
    fn sweep(&mut self) {
        if self.published_seq == self.next_seq {
            return;
        }
        for p in &mut self.producers {
            p.publish();
        }
        self.gate.publish_watermark(self.next_seq);
        self.published_seq = self.next_seq;
        self.metrics.ring_publishes.inc();
    }

    /// Drain whatever the verdict rings hold into the reorder ring and
    /// move the ready prefix to `self.ready`.
    fn merge_pending(&mut self) -> usize {
        for rx in &mut self.verdict_rx {
            self.merge_scratch.clear();
            rx.drain_into(&mut self.merge_scratch, self.depth as usize);
            for &(seq, act) in &self.merge_scratch {
                self.reorder.insert(seq, act);
            }
        }
        let n = self.reorder.emit_into(&mut self.ready);
        self.metrics.merged.add(n as u64);
        n
    }

    /// Blocking ingest: every packet is assigned the next global
    /// sequence number and queued on its owner shard's ring, waiting
    /// out full rings (`gateway.ring_full_stalls`) and a full in-flight
    /// window (`pipeline.reorder_stalls`) by publishing, merging and
    /// yielding so the workers can drain. Rings are published every
    /// `batch` packets and once at the end.
    pub fn ingest(&mut self, pkts: &[(Packet, SnrLevel)]) {
        for &(pkt, snr) in pkts {
            let mut stalled = false;
            while self.in_flight() >= self.depth {
                if !stalled {
                    stalled = true;
                    self.metrics.reorder_stalls.inc();
                }
                self.sweep();
                if self.merge_pending() == 0 {
                    thread::yield_now();
                }
            }
            let lane = super::route(&pkt.flow, self.lanes);
            let mut item = (self.next_seq, pkt, snr);
            let mut stalled = false;
            loop {
                match self.producers[lane].push(item) {
                    Ok(()) => break,
                    Err(back) => {
                        item = back;
                        if !stalled {
                            stalled = true;
                            self.metrics.ring_full_stalls.inc();
                        }
                        // Make our earlier pushes visible so the worker
                        // has something to drain, keep verdicts moving,
                        // then let it run.
                        self.sweep();
                        self.merge_pending();
                        thread::yield_now();
                    }
                }
            }
            self.next_seq += 1;
            if self.next_seq - self.published_seq >= self.batch {
                self.sweep();
            }
        }
        self.sweep();
        self.metrics.ingested.add(pkts.len() as u64);
    }

    /// Non-blocking ingest: queue packets until a ring or the
    /// in-flight window fills, then publish what was taken and return
    /// the number accepted (counting the refusal as a stall). The
    /// caller retries the rest after a [`drain_verdicts`](Self::drain_verdicts).
    pub fn try_ingest(&mut self, pkts: &[(Packet, SnrLevel)]) -> usize {
        for (i, &(pkt, snr)) in pkts.iter().enumerate() {
            if self.in_flight() >= self.depth {
                self.metrics.reorder_stalls.inc();
                self.sweep();
                self.metrics.ingested.add(i as u64);
                return i;
            }
            let lane = super::route(&pkt.flow, self.lanes);
            if self.producers[lane]
                .push((self.next_seq, pkt, snr))
                .is_err()
            {
                self.metrics.ring_full_stalls.inc();
                self.sweep();
                self.metrics.ingested.add(i as u64);
                return i;
            }
            self.next_seq += 1;
            if self.next_seq - self.published_seq >= self.batch {
                self.sweep();
            }
        }
        self.sweep();
        self.metrics.ingested.add(pkts.len() as u64);
        pkts.len()
    }

    /// Append every merged-and-ready verdict to `out`, in global
    /// ingress order, without blocking. Returns the number appended.
    /// With a caller-reused `out` (and draining at least once per
    /// `depth` ingested packets) this path never allocates;
    /// `pipeline.merge_out_grows` counts the times it had to.
    pub fn drain_verdicts(&mut self, out: &mut Vec<Action>) -> usize {
        self.merge_pending();
        let cap_before = out.capacity();
        let n = self.ready.len();
        out.append(&mut self.ready);
        if out.capacity() != cap_before {
            self.metrics.merge_out_grows.inc();
        }
        n
    }

    /// Block until every ingested packet's verdict has been merged,
    /// appending them all to `out` (ingress order). Returns the number
    /// appended.
    pub fn flush(&mut self, out: &mut Vec<Action>) -> usize {
        self.sweep();
        while self.reorder.base < self.next_seq {
            if self.merge_pending() == 0 {
                thread::yield_now();
            }
        }
        let cap_before = out.capacity();
        let n = self.ready.len();
        out.append(&mut self.ready);
        if out.capacity() != cap_before {
            self.metrics.merge_out_grows.inc();
        }
        n
    }

    /// Drain, close the rings, join the workers; returns the shards
    /// (any order) and the tail of the verdict stream.
    pub(super) fn finish(mut self) -> (Vec<GatewayShard>, Vec<Action>) {
        let mut tail = Vec::new();
        self.flush(&mut tail);
        for p in self.producers.drain(..) {
            p.close();
        }
        let shards = self
            .workers
            .drain(..)
            .map(|w| w.join().expect("pipeline worker panicked"))
            .collect();
        (shards, tail)
    }
}

impl Drop for PipelineHandle {
    fn drop(&mut self) {
        // `finish` already emptied both vectors; an abandoned handle
        // still hangs up the rings and joins the workers so no thread
        // outlives the pipeline (shard state is discarded — use
        // `ConcurrentGateway::finish_pipeline` to keep it).
        for p in self.producers.drain(..) {
            p.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Per-shard worker: drain the ingress ring run-to-completion through
/// the shard's gated batch path, publish verdicts per batch, and keep
/// the lane's gate cursor honest while idle.
fn worker_loop(
    mut shard: GatewayShard,
    lane: usize,
    mut rx: spsc::Consumer<IngressSlot>,
    mut vtx: spsc::Producer<(u64, Action)>,
    gate: Arc<OrderGate>,
    batch: usize,
    worker_batches: Arc<Counter>,
) -> GatewayShard {
    let mut buf: Vec<IngressSlot> = Vec::with_capacity(batch);
    let mut verdicts: Vec<(u64, Action)> = Vec::with_capacity(batch);
    loop {
        // Watermark *before* the emptiness check: invariant 2 — an
        // empty ring after this read proves every owned seq < w done.
        let w = gate.watermark();
        buf.clear();
        if rx.drain_into(&mut buf, batch) == 0 {
            if rx.is_closed() && rx.drain_into(&mut buf, batch) == 0 {
                // Close lands after the final publish, so a post-close
                // empty drain means the ring is truly exhausted.
                break;
            }
            if buf.is_empty() {
                gate.idle(lane, w);
                std::hint::spin_loop();
                thread::yield_now();
                continue;
            }
        }
        worker_batches.inc();
        verdicts.clear();
        shard.process_packets_tagged(&buf, &gate, lane, &mut verdicts);
        for &(seq, act) in &verdicts {
            let mut item = (seq, act);
            // By the depth invariant the verdict ring (capacity ==
            // in-flight bound) cannot be full; spin as a backstop so a
            // future sizing bug degrades instead of losing verdicts.
            while let Err(back) = vtx.push(item) {
                debug_assert!(false, "verdict ring overflow: depth invariant broken");
                item = back;
                vtx.publish();
                thread::yield_now();
            }
        }
        vtx.publish();
    }
    gate.retire(lane);
    vtx.close();
    shard
}

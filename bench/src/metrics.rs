//! The ledger's metric names: the contract `BENCHMARK.json` records
//! and every later change is judged on (a test holds the two equal).

/// Measuring time of a run when `--seconds` is not given; the same
/// number is `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 25.0;

/// An end-to-end metric: what a user of the gateway would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "step_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "decision_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_op",
        unit: "ns",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    // Driver spans around each gateway call.
    ("gateway.ingest.calls", "count", "lower"),
    ("gateway.ingest.pkts", "count", "higher"),
    ("gateway.ingest.busy_ns", "ns", "lower"),
    ("gateway.delivery.calls", "count", "higher"),
    ("gateway.delivery.busy_ns", "ns", "lower"),
    ("gateway.poll.calls", "count", "lower"),
    ("gateway.poll.executed", "count", "lower"),
    ("gateway.poll.busy_ns", "ns", "lower"),
    ("gateway.poll.revokes", "count", "lower"),
    ("gateway.depart.calls", "count", "lower"),
    ("gateway.depart.busy_ns", "ns", "lower"),
    ("gateway.observe.calls", "count", "higher"),
    ("gateway.observe.busy_ns", "ns", "lower"),
    ("gateway.observe.refused", "count", "lower"),
    ("trainer.flush.calls", "count", "lower"),
    ("trainer.flush.wait_ns", "ns", "lower"),
    ("driver.generate_ns", "ns", "lower"),
    ("driver.wall_ns", "ns", "lower"),
    ("driver.unattributed_share", "share", "lower"),
    ("driver.step_p99_us", "us", "lower"),
    ("driver.decision_p99_us", "us", "lower"),
    ("driver.step_samples", "count", "higher"),
    ("driver.decision_samples", "count", "higher"),
    ("trace.overhead_share", "share", "lower"),
    // Counts made by the program; they repeat exactly for a seed.
    ("gateway.shard.admits", "count", "higher"),
    ("gateway.shard.rejects", "count", "lower"),
    ("gateway.shard.drops_rejected", "count", "lower"),
    ("gateway.shard.revokes", "count", "lower"),
    ("gateway.shard.polls", "count", "lower"),
    ("gateway.shard.cache_hits", "count", "higher"),
    ("gateway.shard.cache_misses", "count", "lower"),
    ("gateway.shard.cache_hit_ratio", "ratio", "higher"),
    ("gateway.shard.fallback_decisions", "count", "lower"),
    ("gateway.shard.rejected_evictions", "count", "lower"),
    ("gateway.shard.obs_dropped", "count", "lower"),
    ("trainer.publishes", "count", "lower"),
    ("trainer.retrains", "count", "lower"),
    ("alloc.per_kpkt", "1/kpkt", "lower"),
    ("alloc.bytes_per_kpkt", "B/kpkt", "lower"),
    // Layer probes: one layer's public functions alone.
    ("net.classify.observe_ns", "ns", "lower"),
    ("net.flow.observe_ns", "ns", "lower"),
    ("core.flowtable.hit_ns", "ns", "lower"),
    ("core.flowtable.miss_ns", "ns", "lower"),
    ("core.flowtable.insert_ns", "ns", "lower"),
    ("core.flowtable.remove_ns", "ns", "lower"),
    ("core.flowtable.rejected_probe_ns", "ns", "lower"),
    ("core.flowtable.wheel_schedule_ns", "ns", "lower"),
    ("core.flowtable.wheel_advance_ns_per_due", "ns", "lower"),
    ("core.matrix.shared_rmw_ns", "ns", "lower"),
    ("core.snapshot.pin_ns", "ns", "lower"),
    ("core.snapshot.decide_ns", "ns", "lower"),
    ("core.snapshot.build_ns", "ns", "lower"),
    ("core.snapshot.publish_ns", "ns", "lower"),
    ("net.qos.deliver_ns", "ns", "lower"),
    ("net.qos.sample_ns", "ns", "lower"),
    ("core.qoe.acceptable_ns", "ns", "lower"),
    ("core.admittance.observe_ns", "ns", "lower"),
    ("core.admittance.retrain_ns", "ns", "lower"),
    ("core.admittance.retrains", "count", "lower"),
    ("core.pipeline.pkt_ns", "ns", "lower"),
    ("core.pipeline.ring_full_stalls", "count", "lower"),
    ("core.pipeline.reorder_stalls", "count", "lower"),
    ("core.pipeline.verdicts_match", "count", "higher"),
];

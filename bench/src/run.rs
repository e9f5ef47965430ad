//! One run of one workload: set-up, warm-up, measured repetitions,
//! correctness checks, and the report.
//!
//! A run prepares the workload (generation + model training) and
//! replays it once on a fresh gateway — that is one set-up, done
//! [`SETUPS`] times so `setup_s` is steady and the caches are warm —
//! then repeats the identical pass on a fresh gateway a fixed number
//! of times: what `--seconds` of passes come to on the reference box
//! ([`Workload::passes_per_second`]), so a slower change is ranked
//! over as many repetitions as its parent. A pass is fixed work, so
//! every timing metric is built from [`fast_decile`]s over the
//! repetitions, part by part ([`undisturbed`]): slices of the pass for
//! the two rates, chunks of the samples for the two latencies. Every
//! pass is checked against the first one and against the counter
//! identities. The driving thread is pinned to one CPU and a live
//! trainer thread to another ([`cpu::Pin`]).

use std::path::PathBuf;
use std::time::Instant as WallClock;

use exbox_core::matrix::SnrLevel;
use exbox_net::Packet;
use exbox_obs::MetricsRegistry;

use crate::harness::{Harness, Seg, Span};
use crate::json::{obj, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::shape::Shape;
use crate::stats::{fast_decile, median, quantile};
use crate::workloads::{self, prepare, Workload};
use crate::{alloc, cpu, golden, probes, trace};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Measuring time on the reference box, which fixes the number of
    /// repetitions.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Set-ups (prepare + warm-up pass) per run.
const SETUPS: usize = 5;
/// Fewest repetitions a phase may report a decile of.
const MIN_REPS: usize = 3;

/// Counts made by the program during one pass. They are a function of
/// the seed alone, so they must agree between any two passes.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    packets: u64,
    admits: u64,
    rejects: u64,
    drops_rejected: u64,
    revokes: u64,
    departures: u64,
    polls: u64,
    cache_hits: u64,
    cache_misses: u64,
    fallback_decisions: u64,
    rejected_evictions: u64,
    obs_dropped: u64,
    publishes: u64,
    retrains: u64,
    admitted_at_end: u64,
    checksum: u64,
}

/// Everything one pass yielded.
struct Rep {
    wall_ns: u64,
    busy_ns: [u64; Seg::ALL.len()],
    calls: [u64; Seg::ALL.len()],
    packets: u64,
    ops: u64,
    step: Latency,
    decision: Latency,
    /// What each [`Slice`] of the pass cost.
    slice_busy_ns: Vec<f64>,
    slice_cpu_ns: Vec<f64>,
    allocs: u64,
    alloc_bytes: u64,
    refused_observations: u64,
    failed: u64,
    counts: Counts,
    violations: Vec<String>,
}

/// Latency samples per chunk of [`Latency::chunk_p50_us`].
const LATENCY_CHUNK: usize = 256;

struct Latency {
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    /// Median of every [`LATENCY_CHUNK`] consecutive samples: like a
    /// slice, chunk `j` is the same calls in every repetition.
    chunk_p50_us: Vec<f64>,
}

impl Latency {
    fn of(samples: &mut [u32]) -> Latency {
        let us = |ns: Option<u32>| ns.map_or(f64::NAN, |ns| f64::from(ns) / 1e3);
        // Chunks first: a quantile reorders what it is taken of.
        let chunk_p50_us = samples
            .chunks_mut(LATENCY_CHUNK)
            .map(|chunk| us(quantile(chunk, 0.5)))
            .collect();
        Latency {
            p50_us: us(quantile(samples, 0.5)),
            p99_us: us(quantile(samples, 0.99)),
            samples: samples.len(),
            chunk_p50_us,
        }
    }
}

struct PassOutput {
    rep: Rep,
    spans: Vec<Span>,
    recorded: Vec<(Packet, SnrLevel)>,
}

/// One pass on a fresh gateway. The gateway is built on
/// `trainer_cpu`: a live trainer thread (and the training pool under
/// it) inherits the CPU of the thread that spawns it, and a
/// serving-only gateway spawns nothing. The pass itself runs wherever
/// the caller is pinned.
fn run_pass(
    w: &dyn Workload,
    trainer_cpu: usize,
    trace: bool,
    record: bool,
) -> Result<PassOutput, String> {
    let registry = MetricsRegistry::new();
    let gateway = {
        let _pin = cpu::Pin::to(trainer_cpu)?;
        w.gateway(&registry)
    };
    let mut h = Harness::new(gateway, trace, record);
    let (allocs0, bytes0) = alloc::totals();
    h.start();
    w.pass(&mut h);
    let wall_ns = h.finish();
    let (allocs1, bytes1) = alloc::totals();

    let shard = h.gateway().merged_metrics();
    let trainer = registry.snapshot();
    let count = |name: &str| shard.counter(name).unwrap_or(0);
    let counts = Counts {
        packets: count("middlebox.packets"),
        admits: count("middlebox.admits"),
        rejects: count("middlebox.rejects"),
        drops_rejected: count("middlebox.drops_rejected"),
        revokes: count("middlebox.revokes"),
        departures: count("middlebox.departures"),
        polls: count("middlebox.polls"),
        cache_hits: count("gateway.cache_hits"),
        cache_misses: count("gateway.cache_misses"),
        fallback_decisions: count("recovery.fallback_decisions"),
        rejected_evictions: count("middlebox.rejected_evictions"),
        obs_dropped: count("gateway.obs_dropped"),
        publishes: h.gateway().publish_count(),
        retrains: trainer.counter("admittance.retrains").unwrap_or(0),
        admitted_at_end: h.gateway().admitted_flows() as u64,
        checksum: h.checksum,
    };

    let mut violations = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    require(h.failed == 0, format!("{} operations failed", h.failed));
    require(
        h.slices.iter().map(|s| s.busy_ns).sum::<u64>()
            == h.busy_ns.iter().sum::<u64>() - h.busy_ns[Seg::Generate as usize],
        "slices do not add up to the time inside gateway calls".into(),
    );
    require(
        counts.packets == h.packets,
        format!(
            "gateway counted {} packets, driver sent {}",
            counts.packets, h.packets
        ),
    );
    require(
        counts.admits == counts.departures + counts.revokes + counts.admitted_at_end,
        format!(
            "admits {} != departures {} + revokes {} + still admitted {}",
            counts.admits, counts.departures, counts.revokes, counts.admitted_at_end
        ),
    );
    require(
        counts.revokes == h.revokes,
        format!(
            "gateway counted {} revokes, polls returned {}",
            counts.revokes, h.revokes
        ),
    );
    // Without ring evictions every flow is classified exactly once.
    require(
        counts.rejected_evictions > 0 || counts.admits + counts.rejects == h.decisions,
        format!(
            "admits {} + rejects {} != deciding packets {}",
            counts.admits, counts.rejects, h.decisions
        ),
    );
    require(
        counts.obs_dropped == 0,
        format!("{} observations dropped", counts.obs_dropped),
    );
    require(
        counts.fallback_decisions == 0,
        format!("{} fallback decisions", counts.fallback_decisions),
    );

    let rep = Rep {
        wall_ns,
        busy_ns: h.busy_ns,
        calls: h.calls,
        packets: h.packets,
        ops: w.ops(&h),
        step: Latency::of(&mut h.step_ns),
        decision: Latency::of(&mut h.decision_ns),
        slice_busy_ns: h.slices.iter().map(|s| s.busy_ns as f64).collect(),
        slice_cpu_ns: h.slices.iter().map(|s| s.cpu_ns as f64).collect(),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        refused_observations: h.refused_observations,
        failed: h.failed,
        counts,
        violations,
    };
    Ok(PassOutput {
        spans: h.take_spans(),
        recorded: h.take_recorded(),
        rep,
    })
}

impl Rep {
    /// Time inside gateway calls: every segment but the driver's own.
    fn gateway_ns(&self) -> u64 {
        self.busy_ns.iter().sum::<u64>() - self.busy_ns[Seg::Generate as usize]
    }

    fn cpu_ns(&self) -> f64 {
        self.slice_cpu_ns.iter().sum()
    }
}

/// What each part of a pass costs when nothing disturbs it: per part,
/// the [`fast_decile`] of its cost over the repetitions.
///
/// A repetition lists one cost per part — per [`Slice`], per latency
/// chunk — and part `j` is the same gateway calls in every repetition,
/// so it has as many measurements as there are repetitions. On the
/// shared reference box a neighbour slows a vCPU for milliseconds to
/// seconds at a time: that ruins a repetition's total, but only the
/// parts it overlapped, and other repetitions measured those
/// undisturbed. Over ten runs the sum of these spreads a third as wide
/// as the fast decile of the repetitions' totals (`bench/NOISE.md`).
///
/// One `NaN` when the repetitions were not cut alike (which the
/// counter checks report as well).
fn undisturbed(reps: &[&[f64]]) -> Vec<f64> {
    let parts = reps.first().map_or(0, |r| r.len());
    if reps.iter().any(|r| r.len() != parts) {
        return vec![f64::NAN];
    }
    (0..parts)
        .map(|j| fast_decile(&reps.iter().map(|r| r[j]).collect::<Vec<_>>(), false))
        .collect()
}

/// The pass, `reps` times; the spans kept are the last repetition's.
fn repeat(
    w: &dyn Workload,
    trainer_cpu: usize,
    trace: bool,
    reps: usize,
) -> Result<(Vec<Rep>, Vec<Span>), String> {
    let mut done = Vec::with_capacity(reps);
    let mut spans = Vec::new();
    for _ in 0..reps {
        let out = run_pass(w, trainer_cpu, trace, false)?;
        done.push(out.rep);
        spans = out.spans;
    }
    Ok((done, spans))
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    pub shape: Shape,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
    pub golden: &'static str,
    pub violations: Vec<String>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-repetition values behind each reported metric.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

pub fn run(opts: &Options) -> Result<Report, String> {
    // The stamp first: under the pin the machine looks one CPU wide.
    let shape = Shape::detect();
    // The driver takes the last CPU it may use and the trainer the
    // first (of trainer first, driver first and both on one CPU, the
    // steadiest on the reference box); with one CPU they share it and
    // the stamp's `nproc` says so.
    let cpus = cpu::Pin::allowed()?;
    let (&trainer_cpu, &driver_cpu) = cpus.first().zip(cpus.last()).ok_or("no CPU to run on")?;
    let pin = cpu::Pin::to(driver_cpu)?;
    let mut setups_s = Vec::new();
    let mut prepared: Option<(Box<dyn Workload>, PassOutput)> = None;
    for i in 0..SETUPS {
        // Free the previous set-up first: peak RSS is one workload's.
        drop(prepared.take());
        let begun = WallClock::now();
        let w = prepare(&opts.workload, opts.seed, opts.quick).ok_or_else(|| {
            let known: Vec<_> = workloads::names().collect();
            format!(
                "unknown workload '{}' (known: {})",
                opts.workload,
                known.join(" ")
            )
        })?;
        let warm = run_pass(
            w.as_ref(),
            trainer_cpu,
            false,
            opts.trace && i + 1 == SETUPS,
        )?;
        setups_s.push(begun.elapsed().as_secs_f64());
        prepared = Some((w, warm));
    }
    let (w, warm) = prepared.expect("SETUPS > 0");
    let w = w.as_ref();

    let mut metrics = Vec::new();
    let mut raw = Vec::new();
    let mut violations = Vec::new();
    let reps = |seconds: f64| ((seconds * w.passes_per_second()).round() as usize).max(MIN_REPS);
    let measured: Vec<Rep> = if opts.trace {
        // The probes take the rest of the measuring time.
        let (untraced, _) = repeat(w, trainer_cpu, false, reps(0.35 * opts.seconds))?;
        let (traced, spans) = repeat(w, trainer_cpu, true, reps(0.35 * opts.seconds))?;
        let probed = probes::run(w, &warm.recorded, opts.quick, pin);
        if !probed.contains(&("core.pipeline.verdicts_match", 1.0)) {
            violations.push("pipeline verdicts differ from sequential driving".into());
        }
        per_layer(&untraced, &traced, &probed, &mut metrics, &mut raw);
        trace::write(&opts.out_dir, &opts.workload, opts.seed, &spans)
            .map_err(|e| format!("writing the trace: {e}"))?;
        untraced.into_iter().chain(traced).collect()
    } else {
        let (measured, _) = repeat(w, trainer_cpu, false, reps(opts.seconds))?;
        end_to_end(&measured, &setups_s, &mut metrics, &mut raw);
        measured
    };

    for (i, rep) in std::iter::once(&warm.rep).chain(&measured).enumerate() {
        for v in &rep.violations {
            violations.push(format!("pass {i}: {v}"));
        }
        if rep.counts != warm.rep.counts {
            violations.push(format!(
                "pass {i}: counts differ from the first pass: {:?} vs {:?}",
                rep.counts, warm.rep.counts
            ));
        }
    }
    let checksum = warm.rep.counts.checksum;
    let golden = match golden::lookup(&opts.workload, opts.seed, opts.quick) {
        None => "none",
        Some(want) if want == checksum => "match",
        Some(want) => {
            violations.push(format!(
                "verdict checksum {checksum:#018x} != golden {want:#018x}"
            ));
            "mismatch"
        }
    };
    for &(name, value, _) in &metrics {
        if !value.is_finite() {
            violations.push(format!("{name} could not be measured"));
        }
    }
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        quick: opts.quick,
        trace: opts.trace,
        shape,
        correct: violations.is_empty(),
        attempted: measured.iter().map(|r| r.ops).sum(),
        failed: measured.iter().map(|r| r.failed).sum(),
        checksum,
        golden,
        violations,
        metrics,
        raw,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;
type Raw = Vec<(&'static str, Vec<f64>)>;

fn end_to_end(reps: &[Rep], setups_s: &[f64], metrics: &mut Metrics, raw: &mut Raw) {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let parts = |f: fn(&Rep) -> &[f64]| undisturbed(&reps.iter().map(f).collect::<Vec<_>>());
    // Every repetition attempts the same operations.
    let ops = reps.first().map_or(f64::NAN, |r| r.ops as f64);
    for spec in &END_TO_END {
        let value = match spec.name {
            "setup_s" => fast_decile(setups_s, false),
            "ops_per_s" => ops / (parts(|r| &r.slice_busy_ns).iter().sum::<f64>() / 1e9),
            "step_p50_us" => median(&parts(|r| &r.step.chunk_p50_us)),
            "decision_p50_us" => median(&parts(|r| &r.decision.chunk_p50_us)),
            "cpu_ns_per_op" => parts(|r| &r.slice_cpu_ns).iter().sum::<f64>() / ops,
            "peak_rss_mb" => cpu::peak_rss_mb().unwrap_or(f64::NAN),
            other => unreachable!("no measurement for end-to-end metric {other}"),
        };
        metrics.push((spec.name, value, spec.unit));
    }
    // For a reader of the report: what each repetition as a whole read.
    raw.extend([
        ("setup_s", setups_s.to_vec()),
        (
            "ops_per_s",
            per_rep(&|r| r.ops as f64 / (r.gateway_ns() as f64 / 1e9)),
        ),
        ("step_p50_us", per_rep(&|r| r.step.p50_us)),
        ("decision_p50_us", per_rep(&|r| r.decision.p50_us)),
        ("cpu_ns_per_op", per_rep(&|r| r.cpu_ns() / r.ops as f64)),
    ]);
}

fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    probed: &[(&'static str, f64)],
    metrics: &mut Metrics,
    raw: &mut Raw,
) {
    let low = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| {
        fast_decile(&reps.iter().map(f).collect::<Vec<_>>(), false)
    };
    let traced_low = |f: &dyn Fn(&Rep) -> f64| low(traced, f);
    let busy = |seg: Seg| traced_low(&|r| r.busy_ns[seg as usize] as f64);
    let calls = |seg: Seg| traced_low(&|r| r.calls[seg as usize] as f64);
    let last = &traced.last().expect("MIN_REPS > 0").counts;
    let wall_untraced = low(untraced, &|r| r.wall_ns as f64);
    let wall_traced = traced_low(&|r| r.wall_ns as f64);
    let decided = (last.cache_hits + last.cache_misses) as f64;
    let kpkt = |r: &Rep| (r.packets as f64 / 1e3).max(f64::MIN_POSITIVE);

    let mut values: Vec<(&'static str, f64)> = vec![
        ("gateway.ingest.calls", calls(Seg::Ingest)),
        ("gateway.ingest.pkts", traced_low(&|r| r.packets as f64)),
        ("gateway.ingest.busy_ns", busy(Seg::Ingest)),
        ("gateway.delivery.calls", calls(Seg::Delivery)),
        ("gateway.delivery.busy_ns", busy(Seg::Delivery)),
        ("gateway.poll.calls", calls(Seg::Poll)),
        ("gateway.poll.executed", last.polls as f64),
        ("gateway.poll.busy_ns", busy(Seg::Poll)),
        ("gateway.poll.revokes", last.revokes as f64),
        ("gateway.depart.calls", calls(Seg::Depart)),
        ("gateway.depart.busy_ns", busy(Seg::Depart)),
        ("gateway.observe.calls", calls(Seg::Observe)),
        ("gateway.observe.busy_ns", busy(Seg::Observe)),
        (
            "gateway.observe.refused",
            traced_low(&|r| r.refused_observations as f64),
        ),
        ("trainer.flush.calls", calls(Seg::Flush)),
        ("trainer.flush.wait_ns", busy(Seg::Flush)),
        ("driver.generate_ns", busy(Seg::Generate)),
        ("driver.wall_ns", wall_traced),
        (
            "driver.unattributed_share",
            traced_low(&|r| 1.0 - r.busy_ns.iter().sum::<u64>() as f64 / r.wall_ns as f64),
        ),
        ("driver.step_p99_us", traced_low(&|r| r.step.p99_us)),
        ("driver.decision_p99_us", traced_low(&|r| r.decision.p99_us)),
        (
            "driver.step_samples",
            traced_low(&|r| r.step.samples as f64),
        ),
        (
            "driver.decision_samples",
            traced_low(&|r| r.decision.samples as f64),
        ),
        (
            "trace.overhead_share",
            (wall_traced - wall_untraced) / wall_untraced,
        ),
        ("gateway.shard.admits", last.admits as f64),
        ("gateway.shard.rejects", last.rejects as f64),
        ("gateway.shard.drops_rejected", last.drops_rejected as f64),
        ("gateway.shard.revokes", last.revokes as f64),
        ("gateway.shard.polls", last.polls as f64),
        ("gateway.shard.cache_hits", last.cache_hits as f64),
        ("gateway.shard.cache_misses", last.cache_misses as f64),
        (
            "gateway.shard.cache_hit_ratio",
            if decided > 0.0 {
                last.cache_hits as f64 / decided
            } else {
                0.0
            },
        ),
        (
            "gateway.shard.fallback_decisions",
            last.fallback_decisions as f64,
        ),
        (
            "gateway.shard.rejected_evictions",
            last.rejected_evictions as f64,
        ),
        ("gateway.shard.obs_dropped", last.obs_dropped as f64),
        ("trainer.publishes", last.publishes as f64),
        ("trainer.retrains", last.retrains as f64),
        ("alloc.per_kpkt", traced_low(&|r| r.allocs as f64 / kpkt(r))),
        (
            "alloc.bytes_per_kpkt",
            traced_low(&|r| r.alloc_bytes as f64 / kpkt(r)),
        ),
    ];
    values.extend_from_slice(probed);
    for &(name, unit, _) in &PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v);
        metrics.push((name, value, unit));
    }
    raw.push((
        "driver.wall_ns.untraced",
        untraced.iter().map(|r| r.wall_ns as f64).collect(),
    ));
    raw.push((
        "driver.wall_ns.traced",
        traced.iter().map(|r| r.wall_ns as f64).collect(),
    ));
}

impl Report {
    /// The driver's contract: the last line of standard output.
    pub fn result_line(&self) -> String {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        obj([
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The full report, as written next to the trace and as read back
    /// by `compare` and `agree`.
    pub fn to_json(&self) -> Value {
        obj([
            ("schema", Value::Str("exbox-ledger/1".into())),
            ("shape", self.shape.to_json()),
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::Num(self.seed as f64)),
            ("quick", Value::Bool(self.quick)),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "verdict_checksum",
                Value::Str(format!("{:#018x}", self.checksum)),
            ),
            ("golden", Value::Str(self.golden.into())),
            (
                "violations",
                Value::Arr(self.violations.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics", self.metrics_json()),
            (
                "repetitions",
                Value::Obj(
                    self.raw
                        .iter()
                        .map(|(name, values)| {
                            (
                                name.to_string(),
                                Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, for a person.
    pub fn render(&self) -> String {
        let s = &self.shape;
        let mut out = format!(
            "workload {}  seed {}{}  trace {}\n\
             machine  {} x {}  simd={} fast-math={}  {}  git {}\n\
             verdict checksum {:#018x} (golden: {})\n",
            self.workload,
            self.seed,
            if self.quick { "  (quick)" } else { "" },
            u8::from(self.trace),
            s.nproc,
            s.cpu_model,
            s.simd,
            s.fast_math,
            s.rustc,
            s.git_rev,
            self.checksum,
            self.golden,
        );
        for &(name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<42} {value:>18.4} {unit}\n"));
        }
        out.push_str(&format!(
            "ops attempted {}  failed {}  correct {}\n",
            self.attempted, self.failed, self.correct
        ));
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn any_cpu() -> usize {
        cpu::Pin::allowed().unwrap()[0]
    }

    fn quick_run(workload: &str, seed: u64, trace: bool) -> Report {
        let out_dir = std::env::temp_dir().join(format!(
            "exbox-ledger-run-{}-{workload}-{seed}-{trace}",
            std::process::id()
        ));
        let report = run(&Options {
            workload: workload.into(),
            seed,
            seconds: 0.2,
            trace,
            quick: true,
            out_dir: out_dir.clone(),
        })
        .expect("known workload");
        if trace {
            let spans = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.json")))
                .expect("a traced run writes its spans");
            assert!(parse(&spans).is_ok());
            std::fs::remove_dir_all(&out_dir).unwrap();
        }
        report
    }

    /// The smoke mode: same code path, sizes cut tenfold, seconds not
    /// minutes, and every metric of the contract present and finite.
    #[test]
    fn quick_runs_are_correct_and_report_every_metric() {
        for workload in workloads::names() {
            for trace in [false, true] {
                let begun = WallClock::now();
                let report = quick_run(workload, 5, trace);
                assert!(
                    report.correct,
                    "{workload} trace={trace}: {:?}",
                    report.violations
                );
                assert!(report.attempted > 0 && report.failed == 0);
                let names: Vec<_> = report.metrics.iter().map(|m| m.0).collect();
                let expected: Vec<_> = if trace {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, expected);
                if !trace {
                    for &(name, value, _) in &report.metrics {
                        assert!(value > 0.0, "{workload} {name} must never be 0");
                    }
                }
                let line = parse(&report.result_line()).unwrap();
                let keys: Vec<_> = line.as_object().unwrap().iter().map(|f| &f.0).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                // A smoke run is an optimized build's; an unoptimized
                // one is twenty times slower and nobody's measurement.
                assert!(
                    cfg!(debug_assertions) || begun.elapsed().as_secs() < 10,
                    "{workload} quick run too slow"
                );
            }
        }
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_diverge_across_seeds() {
        for workload in workloads::names() {
            let pass = |seed| {
                let w = prepare(workload, seed, true).unwrap();
                run_pass(w.as_ref(), any_cpu(), false, false).unwrap().rep
            };
            let (first, again, other) = (pass(3), pass(3), pass(4));
            assert!(first.violations.is_empty(), "{:?}", first.violations);
            assert_eq!(
                first.counts, again.counts,
                "{workload}: same seed, same pass"
            );
            assert_eq!(first.ops, again.ops);
            assert_ne!(
                first.counts.checksum, other.counts.checksum,
                "{workload}: another seed, other verdicts"
            );
        }
    }

    /// The issue sized `arrival_storm` at about three rejections and
    /// four decision-cache hits in ten decisions; `decision_p50_us`
    /// and `ops_per_s` are read against that mix of cache probes and
    /// kernel evaluations.
    #[test]
    fn arrival_storm_decides_in_the_specified_mix() {
        for seed in [3, 4] {
            let w = prepare("arrival_storm", seed, true).unwrap();
            let counts = run_pass(w.as_ref(), any_cpu(), false, false)
                .unwrap()
                .rep
                .counts;
            let decided = (counts.cache_hits + counts.cache_misses) as f64;
            let hit_ratio = counts.cache_hits as f64 / decided;
            let rejected = counts.rejects as f64 / decided;
            assert!((0.33..=0.47).contains(&hit_ratio), "hit ratio {hit_ratio}");
            assert!((0.25..=0.40).contains(&rejected), "rejected {rejected}");
        }
    }

    #[test]
    fn undisturbed_reads_each_part_from_the_repetitions_that_ran_it_clean() {
        // Twelve repetitions of three unit parts; a burst doubles one
        // part of every repetition, a different one each time.
        let reps: Vec<Vec<f64>> = (0..12)
            .map(|k| {
                (0..3)
                    .map(|j| if j == k % 3 { 200.0 } else { 100.0 })
                    .collect()
            })
            .collect();
        let totals: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        assert_eq!(
            fast_decile(&totals, false),
            400.0,
            "no repetition was clean"
        );
        let listed: Vec<&[f64]> = reps.iter().map(Vec::as_slice).collect();
        assert_eq!(undisturbed(&listed), [100.0, 100.0, 100.0]);
        // Repetitions cut differently cannot be laid side by side.
        let cut = undisturbed(&[&reps[0], &[100.0]]);
        assert!(cut.len() == 1 && cut[0].is_nan());
    }

    #[test]
    fn latency_chunks_are_medians_of_consecutive_samples() {
        let mut samples: Vec<u32> = (0..LATENCY_CHUNK as u32 + 3)
            .map(|i| 1000 * (i + 1))
            .collect();
        let latency = Latency::of(&mut samples);
        assert_eq!(latency.samples, LATENCY_CHUNK + 3);
        assert_eq!(
            latency.chunk_p50_us,
            [LATENCY_CHUNK as f64 / 2.0, LATENCY_CHUNK as f64 + 2.0]
        );
        assert_eq!(latency.p50_us, (LATENCY_CHUNK as f64 + 3.0 + 1.0) / 2.0);
    }

    #[test]
    fn span_sums_reconstruct_the_wall() {
        for workload in workloads::names() {
            let w = prepare(workload, 9, true).unwrap();
            let out = run_pass(w.as_ref(), any_cpu(), true, false).unwrap();
            let spanned: u64 = out.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
            let wall = out.rep.wall_ns as f64;
            assert!(
                (wall - spanned as f64).abs() <= 0.10 * wall,
                "{workload}: spans cover {spanned} ns of {wall} ns"
            );
            assert_eq!(spanned, out.rep.busy_ns.iter().sum::<u64>());
            // Segments are contiguous: each starts where the last ended.
            assert!(out.spans.windows(2).all(|p| p[0].end_ns == p[1].start_ns));
            assert!(out
                .spans
                .iter()
                .any(|s| s.seg == Seg::Ingest && s.items > 0));
        }
    }

    #[test]
    fn benchmark_json_records_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

        let workloads: Vec<_> = listed("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<_> = workloads::WORKLOADS
            .iter()
            .map(|&(n, why)| (n.to_string(), why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::metrics::RUN_SECONDS)
        );
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(theirs, "name"), ours.name);
            assert_eq!(text(theirs, "unit"), ours.unit);
            assert_eq!(text(theirs, "better"), ours.better);
            assert_eq!(theirs.get("bound").unwrap().as_f64(), Some(ours.bound));
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(theirs, "name"), name);
            assert_eq!(text(theirs, "unit"), unit);
            assert_eq!(text(theirs, "better"), better);
        }
    }
}

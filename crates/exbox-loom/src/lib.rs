//! # exbox-loom — vendored bounded-exhaustive interleaving explorer
//!
//! A zero-dependency, loom-style model checker for the workspace's
//! concurrency primitives, following the offline vendoring convention
//! set by `exbox-proptest`: a small, documented API subset of the real
//! thing, no network, fully deterministic.
//!
//! ## Model
//!
//! [`model`] runs a closure under the explorer: every operation on the
//! shimmed primitives in [`sync`] and [`thread`] is a scheduler switch
//! point, and a DFS enumerates every schedule within the configured
//! bounds (preemption bound, branch cap, execution cap — see
//! [`Config`]). Shared state that lives entirely behind the shims is
//! therefore explored over all sequentially-consistent interleavings.
//! The same types degrade to zero-bookkeeping passthrough wrappers
//! outside a model, which is how the workspace builds with
//! `--cfg exbox_loom` run their ordinary unit tests unchanged.
//!
//! ```
//! use exbox_loom::sync::{Arc, AtomicU64, Ordering};
//!
//! // Two racing read-modify-write sequences lose an update in some
//! // interleaving — the explorer finds it.
//! let cex = exbox_loom::explore(exbox_loom::Config::default(), || {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = exbox_loom::thread::spawn(move || {
//!         let v = n2.load(Ordering::SeqCst);
//!         n2.store(v + 1, Ordering::SeqCst);
//!     });
//!     let v = n.load(Ordering::SeqCst);
//!     n.store(v + 1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
//! })
//! .unwrap_err();
//! assert!(cex.message.contains("lost update"));
//! ```
//!
//! ## Counterexamples and replay
//!
//! A property violation (panic or deadlock) aborts the execution and
//! reports the schedule as a trace string (`v1:0.1.0...` — the chosen
//! thread id at each switch point). [`model`] additionally writes the
//! trace to `EXBOX_LOOM_TRACE_DIR` (default `target/loom-traces`) and
//! panics with replay instructions. [`replay`] pins a single execution
//! to a trace; decoding is tolerant, so a saved trace keeps working
//! (degrading toward the default schedule) as the code under test
//! evolves.
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `EXBOX_LOOM_PREEMPTIONS` | preemption bound (`none` = unbounded) |
//! | `EXBOX_LOOM_MAX_EXECUTIONS` | execution cap |
//! | `EXBOX_LOOM_MAX_BRANCHES` | per-schedule branch cap |
//! | `EXBOX_LOOM_EXHAUSTIVE=1` | unbounded preemptions + large caps |
//! | `EXBOX_LOOM_REPLAY` | pin `model` to one trace |
//! | `EXBOX_LOOM_TRACE_DIR` | where `model` writes failure traces |

mod explorer;
pub mod sync;
pub mod thread;

use std::sync::Arc;

pub use explorer::Counterexample;

/// Exploration bounds. `Default` is sized for CI smoke runs.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum involuntary context switches per schedule (`None` =
    /// unbounded, i.e. truly exhaustive). Two preemptions catch the
    /// overwhelming majority of real concurrency bugs while keeping
    /// the schedule space polynomial.
    pub preemptions: Option<usize>,
    /// Cap on recorded decision points per schedule; deeper executions
    /// stop branching (reported via [`Report::truncated`]).
    pub max_branches: usize,
    /// Cap on explored executions.
    pub max_executions: u64,
    /// Enable state-fingerprint pruning.
    pub prune: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemptions: Some(2),
            max_branches: 2_000,
            max_executions: 200_000,
            prune: true,
        }
    }
}

impl Config {
    /// The trivial scheduler: a single execution on the default
    /// (current-thread-first) schedule. Used by the differential tests
    /// asserting shim/std behavioural identity.
    pub fn trivial() -> Self {
        Config {
            preemptions: Some(0),
            max_branches: 0,
            max_executions: 1,
            prune: false,
        }
    }

    /// Apply `EXBOX_LOOM_*` environment overrides.
    pub fn from_env(mut self) -> Self {
        if std::env::var("EXBOX_LOOM_EXHAUSTIVE").as_deref() == Ok("1") {
            self.preemptions = None;
            self.max_branches = 100_000;
            self.max_executions = 5_000_000;
        }
        if let Ok(v) = std::env::var("EXBOX_LOOM_PREEMPTIONS") {
            self.preemptions = if v.eq_ignore_ascii_case("none") {
                None
            } else {
                v.parse().ok().map(Some).unwrap_or(self.preemptions)
            };
        }
        if let Ok(v) = std::env::var("EXBOX_LOOM_MAX_EXECUTIONS") {
            if let Ok(n) = v.parse() {
                self.max_executions = n;
            }
        }
        if let Ok(v) = std::env::var("EXBOX_LOOM_MAX_BRANCHES") {
            if let Ok(n) = v.parse() {
                self.max_branches = n;
            }
        }
        self
    }
}

/// Exploration statistics returned on success.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Executions run.
    pub executions: u64,
    /// Total switch points taken across all executions.
    pub switches: u64,
    /// Branches skipped by state-fingerprint pruning.
    pub pruned: u64,
    /// Some execution hit the branch cap (coverage incomplete).
    pub truncated: bool,
    /// The bounded schedule space was fully explored (vs. stopping at
    /// the execution cap).
    pub exhausted: bool,
}

/// Explore `body` under `cfg` without panicking: `Err(counterexample)`
/// if some schedule violates a property (panics or deadlocks),
/// `Ok(report)` otherwise. Environment overrides are **not** applied —
/// callers that want them compose with [`Config::from_env`].
pub fn explore<F>(cfg: Config, body: F) -> Result<Report, Counterexample>
where
    F: Fn() + Send + Sync + 'static,
{
    let ex = explorer::Explorer::new(cfg.clone());
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut executions = 0u64;
    let mut exhausted = false;
    loop {
        let outcome = ex.run_one(&body, None);
        executions += 1;
        if let Some(cex) = outcome.failure {
            return Err(cex);
        }
        if executions >= cfg.max_executions {
            break;
        }
        if !ex.backtrack() {
            exhausted = true;
            break;
        }
    }
    let (execs, switches, pruned, truncated) = ex.stats();
    Ok(Report {
        executions: execs,
        switches,
        pruned,
        truncated,
        exhausted,
    })
}

/// Run one execution pinned to `trace` (a `v1:...` string from a
/// counterexample). Decoding is tolerant: steps that no longer match a
/// runnable thread fall back to the default schedule, so regression
/// traces survive code evolution.
pub fn replay<F>(trace: &str, body: F) -> Result<Report, Counterexample>
where
    F: Fn() + Send + Sync + 'static,
{
    let ex = explorer::Explorer::new(Config {
        max_executions: 1,
        ..Config::default()
    });
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let pinned = explorer::decode_trace(trace);
    let outcome = ex.run_one(&body, Some(pinned));
    if let Some(cex) = outcome.failure {
        return Err(cex);
    }
    let (execs, switches, pruned, truncated) = ex.stats();
    Ok(Report {
        executions: execs,
        switches,
        pruned,
        truncated,
        exhausted: false,
    })
}

/// Model-check `body`: explore with env overrides applied, write any
/// counterexample trace to `EXBOX_LOOM_TRACE_DIR`, and panic with the
/// failure plus replay instructions. Honors `EXBOX_LOOM_REPLAY` by
/// pinning a single execution to the given trace.
pub fn model<F>(body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Config::default(), body)
}

/// [`model`] with explicit base bounds (env overrides still apply on
/// top, so CI can widen a suite without code changes).
pub fn model_with<F>(cfg: Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let cfg = cfg.from_env();
    let result = if let Ok(trace) = std::env::var("EXBOX_LOOM_REPLAY") {
        replay(&trace, body)
    } else {
        explore(cfg, body)
    };
    match result {
        Ok(report) => report,
        Err(cex) => {
            let path = dump_trace(&cex);
            let hint = match &path {
                Some(p) => format!("trace written to {}", p.display()),
                None => "trace could not be written".to_string(),
            };
            panic!(
                "exbox-loom: property violated on execution {}\n  \
                 failure: {}\n  {hint}\n  replay with: \
                 EXBOX_LOOM_REPLAY='{}'\n",
                cex.execution, cex.message, cex.trace
            );
        }
    }
}

/// Write a counterexample trace file; returns its path on success.
fn dump_trace(cex: &Counterexample) -> Option<std::path::PathBuf> {
    let dir =
        std::env::var("EXBOX_LOOM_TRACE_DIR").unwrap_or_else(|_| "target/loom-traces".to_string());
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).ok()?;
    let name = std::thread::current()
        .name()
        .unwrap_or("model")
        .replace("::", "__")
        .replace(['/', ' '], "_");
    let path = dir.join(format!("{name}.trace"));
    let body = format!(
        "# exbox-loom counterexample\n# failure: {}\n# execution: {}\n{}\n",
        cex.message.replace('\n', " / "),
        cex.execution,
        cex.trace
    );
    std::fs::write(&path, body).ok()?;
    Some(path)
}

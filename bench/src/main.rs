//! `exbox-ledger`: the repository's performance ledger.
//!
//! ```sh
//! cargo run --release --manifest-path bench/Cargo.toml -- \
//!     --workload day_serve --seed 1 [--seconds 25] [--trace 0|1] [--quick]
//! ```
//!
//! generates the workload's inputs from the seed, drives a
//! `ConcurrentGateway` through its public API, checks the outputs and
//! prints every metric by name with its unit; the last line of standard
//! output is the machine-readable result. See `bench/README.md`.

mod alloc;
mod cpu;
mod golden;
mod harness;
mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod shape;
mod stats;
mod trace;
mod traffic;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  exbox-ledger --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
               [--quick] [--report <file>]
  exbox-ledger compare <parent-report.json> <change-report.json>
  exbox-ledger agree <set-a-report.json>... -- <set-b-report.json>...

workloads: day_serve arrival_storm flash_state (gated by BENCHMARK.json),
           drift_learn (reported only)
--seconds   measuring time on the reference box (default 25): it fixes the
            number of repetitions, a slower machine takes longer over them
--trace 1   per-layer metrics, layer probes and bench/out/<workload>.trace.json
--quick     sizes cut four- to tenfold, same code path, for smoke use
--report    where the full report goes (default bench/out/<workload>.seed<n>.trace<t>.json)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("agree") => report::agree(&args[1..]),
        _ => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("exbox-ledger: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn measure(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = metrics::RUN_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut report_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a positive number up to 60")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => quick = true,
            "--report" => report_path = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let opts = run::Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
        out_dir: PathBuf::from("bench/out"),
    };

    // The library reads run-time knobs from the environment
    // (EXBOX_POLL_WHEEL, EXBOX_FAULTS, EXBOX_KERNEL_ENGINE, ...). A
    // ledger entry must not depend on the caller's shell, so they are
    // dropped before anything is built; a knob is measured by a build
    // or a change that sets it in code.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("EXBOX_") {
            std::env::remove_var(name);
        }
    }

    let report = run::run(&opts)?;
    print!("{}", report.render());
    let path = report_path.unwrap_or_else(|| {
        opts.out_dir.join(format!(
            "{}.seed{}.trace{}.json",
            opts.workload,
            opts.seed,
            u8::from(opts.trace)
        ))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report.to_json().render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report {}", path.display());
    println!("{}", report.result_line());
    Ok(report.correct)
}

//! Reading reports back: `compare` (one parent report against one
//! change report) and `agree` (do two sets of runs of the same code
//! agree with each other — the instrument checking itself).
//!
//! Both refuse reports whose machine shapes differ.

use std::path::Path;

use crate::json::{parse, Value};
use crate::metrics::END_TO_END;
use crate::shape::Shape;
use crate::stats::median;

/// `agree` fails a gated metric of which any run lies further than
/// this share from the median of its set: a single run must be worth
/// reading on its own.
const FAR_RUN: f64 = 0.10;

struct Loaded {
    path: String,
    shape: Shape,
    workload: String,
    seed: f64,
    trace: bool,
    quick: bool,
    correct: bool,
    checksum: String,
    metrics: Vec<(String, f64, String)>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| format!("{path}: not a ledger report (no '{name}')"))
    };
    let flag = |name: &str| -> Result<bool, String> {
        field(name)?
            .as_bool()
            .ok_or_else(|| format!("{path}: '{name}' is not a boolean"))
    };
    let text_of = |name: &str| -> Result<String, String> {
        Ok(field(name)?
            .as_str()
            .ok_or_else(|| format!("{path}: '{name}' is not a string"))?
            .to_string())
    };
    let metrics = field("metrics")?
        .as_object()
        .ok_or_else(|| format!("{path}: 'metrics' is not an object"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(Loaded {
        path: path.to_string(),
        shape: Shape::from_json(field("shape")?)
            .ok_or_else(|| format!("{path}: malformed machine shape"))?,
        workload: text_of("workload")?,
        seed: field("seed")?.as_f64().unwrap_or(f64::NAN),
        trace: flag("trace")?,
        quick: flag("quick")?,
        correct: flag("correct")?,
        checksum: text_of("verdict_checksum")?,
        metrics,
    })
}

/// Refuse to set `b` beside `a` unless they measured the same thing on
/// the same kind of machine.
fn comparable(a: &Loaded, b: &Loaded) -> Result<(), String> {
    if let Some(why) = a.shape.mismatch(&b.shape) {
        return Err(format!(
            "refusing to compare {} and {}: machine shapes differ ({why})",
            a.path, b.path
        ));
    }
    if (a.workload.as_str(), a.trace, a.quick) != (b.workload.as_str(), b.trace, b.quick) {
        return Err(format!(
            "refusing to compare {} and {}: different workload, trace mode or size",
            a.path, b.path
        ));
    }
    Ok(())
}

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative: better).
fn worsening(better: &str, parent: f64, change: f64) -> f64 {
    match better {
        "higher" => (parent - change) / parent,
        _ => (change - parent) / parent,
    }
}

/// `compare <parent> <change>`: every metric side by side, end-to-end
/// ones against their bound. `Ok(false)` when a bound is exceeded. One
/// pair is a reading, not a claim: see the README for the ten-pair rule.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare takes two report files".into());
    };
    let (parent, change) = (load(parent)?, load(change)?);
    comparable(&parent, &change)?;
    println!(
        "{} seed {} vs {}: parent git {} -> change git {}",
        parent.workload, parent.seed, change.seed, parent.shape.git_rev, change.shape.git_rev
    );
    println!(
        "{:<42} {:>16} {:>16} {:>9}  verdict",
        "metric", "parent", "change", "change/parent"
    );
    let mut within = parent.correct && change.correct;
    if !within {
        println!("a side reported incorrect outputs");
    }
    for (name, p, unit) in &parent.metrics {
        let Some((_, c, _)) = change.metrics.iter().find(|(n, _, _)| n == name) else {
            continue;
        };
        let verdict = match END_TO_END.iter().find(|m| m.name == name) {
            None => String::new(),
            Some(spec) => {
                let worse = worsening(spec.better, *p, *c);
                if exceeds(worse, spec.bound) {
                    within = false;
                    format!(
                        "WORSE by {:.1}% (bound {:.0}%)",
                        worse * 100.0,
                        spec.bound * 100.0
                    )
                } else {
                    format!("within {:.0}%", spec.bound * 100.0)
                }
            }
        };
        println!(
            "{name:<42} {p:>16.4} {c:>16.4} {:>9.4}  {verdict} [{unit}]",
            c / p
        );
    }
    Ok(within)
}

/// `agree <set A>... -- <set B>...`: do two sets of runs of one
/// workload on the same code agree? Prints a Markdown table row per
/// end-to-end metric: both set medians, their gap, each set's spread
/// (the distance between its quartiles as a share of its median — what
/// `BENCHMARK.json`'s driver gates), and the largest distance of any
/// run from its own set's median. `Ok(false)` when a gap exceeds the
/// metric's bound, when a spread does or a run lies over 10 % from its
/// set's median (`setup_s` excepted from both, as the driver excepts
/// it from the spread: it is a fraction of a second), when a run was
/// incorrect, or when two runs of one seed disagree on the verdict
/// checksum.
pub fn agree(args: &[String]) -> Result<bool, String> {
    let mut sets = args.split(|a| a == "--");
    let (Some(a), Some(b), None) = (sets.next(), sets.next(), sets.next()) else {
        return Err("agree takes two sets of report files separated by '--'".into());
    };
    let load_set = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (load_set(a)?, load_set(b)?);
    if a.len() < 2 || b.len() < 2 {
        return Err("agree needs at least two reports per set".into());
    }
    let first = &a[0];
    let mut ok = true;
    let mut by_seed: Vec<&Loaded> = Vec::new();
    for other in a.iter().chain(&b) {
        comparable(first, other)?;
        if !other.correct {
            println!("{}: outputs were not correct", other.path);
            ok = false;
        }
        match by_seed.iter().find(|r| r.seed == other.seed) {
            Some(same) if same.checksum != other.checksum => {
                println!(
                    "{}: verdict checksum {} differs from {} of {} for the same seed",
                    other.path, other.checksum, same.checksum, same.path
                );
                ok = false;
            }
            Some(_) => {}
            None => by_seed.push(other),
        }
    }
    for spec in &END_TO_END {
        let values = |set: &[Loaded]| -> Vec<f64> {
            set.iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == spec.name))
                .map(|&(_, v, _)| v)
                .collect()
        };
        let (va, vb) = (values(&a), values(&b));
        if va.len() != a.len() || vb.len() != b.len() {
            return Err(format!(
                "a report lacks {}: agree reads untraced (--trace 0) reports",
                spec.name
            ));
        }
        let (ma, mb) = (median(&va), median(&vb));
        let gap = worsening(spec.better, ma, mb).abs();
        let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
        let distance = va
            .iter()
            .map(|v| (v - ma).abs() / ma)
            .chain(vb.iter().map(|v| (v - mb).abs() / mb))
            .fold(0.0, f64::max);
        let gated = spec.name != "setup_s";
        let verdict = if exceeds(gap, spec.bound) {
            "GAP OVER BOUND"
        } else if gated && (exceeds(sa, spec.bound) || exceeds(sb, spec.bound)) {
            "SPREAD OVER BOUND"
        } else if gated && exceeds(distance, FAR_RUN) {
            "A RUN OVER 10%"
        } else {
            "ok"
        };
        ok &= verdict == "ok";
        println!(
            "| {} | {} | {} | {:.5} | {:.5} | {:.2}% | {:.2}% | {:.2}% | {:.0}% | {:.2}% | {} |",
            first.workload,
            spec.name,
            spec.unit,
            ma,
            mb,
            gap * 100.0,
            sa * 100.0,
            sb * 100.0,
            spec.bound * 100.0,
            distance * 100.0,
            verdict
        );
    }
    Ok(ok)
}

/// Whether `value` is over `limit`; a value that could not be computed
/// is.
fn exceeds(value: f64, limit: f64) -> bool {
    value.is_nan() || value > limit
}

/// Distance between the first and third quartile of `values` as a
/// share of their median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
/// Needs two values, as Python does.
fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles of fewer than two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    let at = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, interpolated.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (at(3) - at(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn metric(value: f64, unit: &str) -> Value {
        obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ])
    }

    fn report_file(dir: &Path, name: &str, nproc: f64, ops_per_s: f64) -> String {
        let metrics = obj([
            ("setup_s", metric(1.0, "s")),
            ("ops_per_s", metric(ops_per_s, "1/s")),
            ("step_p50_us", metric(10.0, "us")),
            ("decision_p50_us", metric(1.0, "us")),
            ("cpu_ns_per_op", metric(100.0, "ns")),
            ("peak_rss_mb", metric(20.0, "MB")),
        ]);
        report_with(dir, name, nproc, metrics)
    }

    fn report_with(dir: &Path, name: &str, nproc: f64, metrics: Value) -> String {
        let doc = obj([
            (
                "shape",
                obj([
                    ("nproc", Value::Num(nproc)),
                    ("cpu_model", Value::Str("cpu".into())),
                    ("simd", Value::Bool(false)),
                    ("fast_math", Value::Bool(false)),
                    ("rustc", Value::Str("rustc 1".into())),
                    ("git_rev", Value::Str(name.into())),
                ]),
            ),
            ("workload", Value::Str("day_serve".into())),
            ("seed", Value::Num(1.0)),
            ("quick", Value::Bool(false)),
            ("trace", Value::Bool(false)),
            ("correct", Value::Bool(true)),
            ("verdict_checksum", Value::Str("0x1".into())),
            ("metrics", metrics),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.render()).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_and_agree_judge_by_bounds_and_refuse_other_shapes() {
        let dir = std::env::temp_dir().join(format!("exbox-ledger-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = report_file(&dir, "base.json", 2.0, 1000.0);
        let same = report_file(&dir, "same.json", 2.0, 1010.0);
        let slow = report_file(&dir, "slow.json", 2.0, 700.0);
        let wide = report_file(&dir, "wide.json", 8.0, 1000.0);

        assert_eq!(compare(&[base.clone(), same.clone()]), Ok(true));
        assert_eq!(compare(&[base.clone(), slow.clone()]), Ok(false));
        let refused = compare(&[base.clone(), wide.clone()]).unwrap_err();
        assert!(refused.contains("machine shapes differ"), "{refused}");

        let sep = "--".to_string();
        let set = |x: &String, y: &String| vec![x.clone(), y.clone()];
        let mut args = set(&base, &same);
        args.push(sep.clone());
        args.extend(set(&same, &base));
        assert_eq!(agree(&args), Ok(true));
        let mut args = set(&base, &same);
        args.push(sep.clone());
        args.extend(set(&slow, &slow));
        assert_eq!(agree(&args), Ok(false));
        let mut args = set(&base, &same);
        args.push(sep.clone());
        args.extend(set(&wide, &wide));
        assert!(agree(&args).is_err());

        // Medians and quartiles agree, but one run of five is 12 % off.
        let far = report_file(&dir, "far.json", 2.0, 880.0);
        let mut args = vec![base.clone(); 4];
        args.push(far);
        args.push(sep.clone());
        args.extend(vec![base.clone(); 5]);
        assert_eq!(agree(&args), Ok(false));

        // A metric that could not be measured is not within any bound,
        // and traced reports carry no end-to-end metric to agree on.
        let unit_only = obj([("unit", Value::Str("1/s".into()))]);
        let unmeasured = report_with(&dir, "nan.json", 2.0, obj([("ops_per_s", unit_only)]));
        assert_eq!(compare(&[unmeasured, base.clone()]), Ok(false));
        let layers = obj([("gateway.ingest.calls", metric(3.0, "count"))]);
        let traced = report_with(&dir, "traced.json", 2.0, layers);
        let mut args = set(&traced, &traced);
        args.push(sep);
        args.extend(set(&traced, &traced));
        let refused = agree(&args).unwrap_err();
        assert!(refused.contains("--trace 0"), "{refused}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening("higher", 100.0, 120.0) < 0.0);
    }
}

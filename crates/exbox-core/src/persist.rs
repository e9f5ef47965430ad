//! Persistence for the QoE Estimator — the §4.4 model-sharing path —
//! and full-state middlebox checkpoints for crash-safe restarts.
//!
//! "If ExBox can be deployed widely, it is also possible to share IQX
//! models over different networks of similar characteristics. This
//! will reduce the training effort substantially." A trained
//! [`QoeEstimator`] serialises to a small, diffable text file that a
//! fleet of gateways can distribute:
//!
//! ```text
//! exbox-qoe v1
//! scale <min_index> <max_index>
//! class web lower 3 <alpha> <beta> <gamma>
//! class streaming lower 5 <alpha> <beta> <gamma>
//! class conferencing higher 25 <alpha> <beta> <gamma>
//! ```
//!
//! ## Checkpoints (`exbox-ckpt v1`)
//!
//! A gateway that restarts should resume with the ExCR it spent hours
//! learning, not re-enter bootstrap. [`save_checkpoint`] captures the
//! *complete* [`AdmittanceClassifier`] — phase, sample store,
//! observation/retrain counters, scaler statistics, the served model
//! and the warm-start dual state — plus the [`QoeEstimator`], in the
//! same line-oriented text style as the other formats:
//!
//! ```text
//! exbox-ckpt v1
//! phase online
//! counters <observations> <retrain_count> <pending>
//! sample <+1|-1> <a_11> … <a_kr>        (one per stored matrix)
//! scaler-mean <m_1> … <m_d>
//! scaler-std <s_1> … <s_d>
//! model-svm-begin                        (embeds an exbox-svm v1 doc)
//! …
//! model-svm-end
//! warm-bias <b>
//! warm <+1|-1> <alpha>                   (one per stored sample)
//! qoe-begin                              (embeds an exbox-qoe v1 doc)
//! …
//! qoe-end
//! checksum <fnv1a64 of everything above, 16 hex digits>
//! ```
//!
//! Floats use Rust's shortest-round-trip `Display`, so a reload
//! reproduces every parameter bit-for-bit and restored decisions are
//! **bit-identical** to the pre-crash classifier (property-tested in
//! `tests/checkpoint_props.rs`). The trailing checksum makes torn or
//! corrupted files *detectable*: [`load_checkpoint`] verifies it
//! before parsing a single field, so a half-written checkpoint is an
//! error, never a half-restored model. [`save_checkpoint_to_path`]
//! writes atomically (temp file in the same directory, `fsync`, then
//! rename) so a crash mid-checkpoint leaves the previous checkpoint
//! intact.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use exbox_ml::{Label, SvmModel};
use exbox_net::AppClass;
use exbox_obs::MetricsRegistry;

use crate::admittance::{
    AdmittanceClassifier, AdmittanceConfig, ClassifierState, ModelState, Phase,
};
use crate::iqx::IqxModel;
use crate::matrix::{FlowKind, SnrLevel, TrafficMatrix};
use crate::qoe::{ClassQoeModel, MetricDirection, QoeEstimator, QosScale};
use crate::recovery::FaultPlan;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write the estimator in the text format.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn save_estimator<W: Write>(est: &QoeEstimator, mut out: W) -> io::Result<()> {
    writeln!(out, "exbox-qoe v1")?;
    let (min_index, max_index) = est.scale().bounds();
    writeln!(out, "scale {min_index} {max_index}")?;
    for class in AppClass::ALL {
        let m = est.model(class);
        let dir = match m.direction {
            MetricDirection::LowerIsBetter => "lower",
            MetricDirection::HigherIsBetter => "higher",
        };
        writeln!(
            out,
            "class {} {} {} {} {} {}",
            class.name(),
            dir,
            m.threshold,
            m.iqx.alpha,
            m.iqx.beta,
            m.iqx.gamma
        )?;
    }
    Ok(())
}

/// Read an estimator written by [`save_estimator`].
///
/// # Errors
/// `InvalidData` on malformed input or missing classes.
pub fn load_estimator<R: Read>(input: R) -> io::Result<QoeEstimator> {
    let mut lines = BufReader::new(input).lines();
    let header = lines.next().ok_or_else(|| bad("empty estimator file"))??;
    if header.trim() != "exbox-qoe v1" {
        return Err(bad(format!("unsupported header {header:?}")));
    }

    let mut scale = None;
    let mut models: [Option<ClassQoeModel>; AppClass::COUNT] = [None; AppClass::COUNT];

    for line in lines {
        let line = line?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => continue,
            ["scale", lo, hi] => {
                let lo: f64 = lo.parse().map_err(|_| bad("bad scale min"))?;
                let hi: f64 = hi.parse().map_err(|_| bad("bad scale max"))?;
                if !(lo > 0.0 && hi > lo && hi.is_finite()) {
                    return Err(bad("scale bounds out of range"));
                }
                scale = Some(QosScale::new(lo, hi));
            }
            ["class", name, dir, thr, a, b, g] => {
                let class = AppClass::ALL
                    .into_iter()
                    .find(|c| c.name() == *name)
                    .ok_or_else(|| bad(format!("unknown class {name}")))?;
                let direction = match *dir {
                    "lower" => MetricDirection::LowerIsBetter,
                    "higher" => MetricDirection::HigherIsBetter,
                    other => return Err(bad(format!("unknown direction {other}"))),
                };
                let threshold: f64 = thr.parse().map_err(|_| bad("bad threshold"))?;
                let alpha: f64 = a.parse().map_err(|_| bad("bad alpha"))?;
                let beta: f64 = b.parse().map_err(|_| bad("bad beta"))?;
                let gamma: f64 = g.parse().map_err(|_| bad("bad gamma"))?;
                if ![threshold, alpha, beta, gamma]
                    .iter()
                    .all(|v| v.is_finite())
                {
                    return Err(bad("non-finite model values"));
                }
                models[class.index()] = Some(ClassQoeModel {
                    iqx: IqxModel { alpha, beta, gamma },
                    threshold,
                    direction,
                });
            }
            _ => return Err(bad(format!("unknown line {line:?}"))),
        }
    }

    let scale = scale.ok_or_else(|| bad("missing scale"))?;
    let models = [
        models[0].ok_or_else(|| bad("missing class web"))?,
        models[1].ok_or_else(|| bad("missing class streaming"))?,
        models[2].ok_or_else(|| bad("missing class conferencing"))?,
    ];
    Ok(QoeEstimator::new(models, scale))
}

/// FNV-1a 64-bit hash — the checkpoint's torn-write detector. Not
/// cryptographic; it only needs to catch truncation and bit flips.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn label_str(y: Label) -> &'static str {
    match y {
        Label::Pos => "+1",
        Label::Neg => "-1",
    }
}

fn parse_label(s: &str) -> io::Result<Label> {
    match s {
        "+1" => Ok(Label::Pos),
        "-1" => Ok(Label::Neg),
        other => Err(bad(format!("bad label {other:?}"))),
    }
}

fn finite_f64(s: &str, what: &str) -> io::Result<f64> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| bad(format!("bad {what}: {s:?}")))
}

fn finite_row(parts: &[&str], what: &str) -> io::Result<Vec<f64>> {
    if parts.len() != TrafficMatrix::DIMS {
        return Err(bad(format!(
            "{what} has {} values, expected {}",
            parts.len(),
            TrafficMatrix::DIMS
        )));
    }
    parts.iter().map(|p| finite_f64(p, what)).collect()
}

/// Write a full-state checkpoint of the classifier and estimator.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn save_checkpoint<W: Write>(
    classifier: &AdmittanceClassifier,
    estimator: &QoeEstimator,
    mut out: W,
) -> io::Result<()> {
    let state = classifier.export_state();
    // The body is staged in memory so the checksum covers exactly the
    // bytes that reach the writer.
    let mut body: Vec<u8> = Vec::new();
    writeln!(body, "exbox-ckpt v1")?;
    let phase = match state.phase {
        Phase::Bootstrap => "bootstrap",
        Phase::Online => "online",
    };
    writeln!(body, "phase {phase}")?;
    writeln!(
        body,
        "counters {} {} {}",
        state.observations, state.retrain_count, state.pending
    )?;
    for (m, y) in &state.samples {
        write!(body, "sample {}", label_str(*y))?;
        for class in AppClass::ALL {
            for snr in SnrLevel::ALL {
                write!(body, " {}", m.count(FlowKind::new(class, snr)))?;
            }
        }
        writeln!(body)?;
    }
    if let Some((mean, std)) = &state.scaler {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        writeln!(body, "scaler-mean {}", join(mean))?;
        writeln!(body, "scaler-std {}", join(std))?;
    }
    match &state.model {
        Some(ModelState::Svm(model)) => {
            writeln!(body, "model-svm-begin")?;
            model.save(&mut body)?;
            writeln!(body, "model-svm-end")?;
        }
        Some(ModelState::Logistic(w, b)) => {
            write!(body, "model-logistic {b}")?;
            for v in w {
                write!(body, " {v}")?;
            }
            writeln!(body)?;
        }
        Some(ModelState::Pegasos(w, b)) => {
            write!(body, "model-pegasos {b}")?;
            for v in w {
                write!(body, " {v}")?;
            }
            writeln!(body)?;
        }
        None => {}
    }
    if let Some((alphas, bias)) = &state.warm {
        writeln!(body, "warm-bias {bias}")?;
        for (y, a) in alphas {
            writeln!(body, "warm {} {}", label_str(*y), a)?;
        }
    }
    writeln!(body, "qoe-begin")?;
    save_estimator(estimator, &mut body)?;
    writeln!(body, "qoe-end")?;

    let sum = fnv1a64(&body);
    out.write_all(&body)?;
    writeln!(out, "checksum {sum:016x}")
}

/// Which embedded document the body parser is currently inside.
enum CkptSection {
    Top,
    Svm(String),
    Qoe(String),
}

/// Read a checkpoint written by [`save_checkpoint`], rebuilding the
/// classifier (under `cfg`, reporting to `registry`) and the
/// estimator. Restored decisions are bit-identical to the
/// checkpointed classifier's.
///
/// # Errors
/// `InvalidData` on checksum mismatch (torn/corrupted file), malformed
/// or duplicated lines, missing required sections, dimensionality
/// mismatches, or non-finite parameters. Never panics on untrusted
/// input.
pub fn load_checkpoint<R: Read>(
    mut input: R,
    cfg: AdmittanceConfig,
    registry: &MetricsRegistry,
) -> io::Result<(AdmittanceClassifier, QoeEstimator)> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    let text = std::str::from_utf8(&bytes).map_err(|_| bad("checkpoint is not valid UTF-8"))?;

    // Locate and verify the trailing checksum before trusting a
    // single field of the body.
    let pos = text
        .rfind("checksum ")
        .ok_or_else(|| bad("missing checksum line (truncated checkpoint?)"))?;
    if pos != 0 && text.as_bytes()[pos - 1] != b'\n' {
        return Err(bad("checksum marker not at start of line"));
    }
    let (body, tail) = text.split_at(pos);
    let tail = tail.trim_end();
    if tail.lines().count() != 1 {
        return Err(bad("data after checksum line"));
    }
    let hex = tail
        .strip_prefix("checksum ")
        .expect("tail starts at the marker")
        .trim();
    let expected = u64::from_str_radix(hex, 16).map_err(|_| bad("bad checksum value"))?;
    let actual = fnv1a64(body.as_bytes());
    if actual != expected {
        return Err(bad(format!(
            "checksum mismatch: file says {expected:016x}, body hashes to {actual:016x} \
             (torn write or corruption)"
        )));
    }

    let mut lines = body.lines();
    let header = lines.next().ok_or_else(|| bad("empty checkpoint"))?;
    if header.trim() != "exbox-ckpt v1" {
        return Err(bad(format!("unsupported header {header:?}")));
    }

    let mut section = CkptSection::Top;
    let mut phase: Option<Phase> = None;
    let mut counters: Option<(u64, u64, usize)> = None;
    let mut samples: Vec<(TrafficMatrix, Label)> = Vec::new();
    let mut scaler_mean: Option<Vec<f64>> = None;
    let mut scaler_std: Option<Vec<f64>> = None;
    let mut model: Option<ModelState> = None;
    let mut warm_bias: Option<f64> = None;
    let mut warm_alphas: Vec<(Label, f64)> = Vec::new();
    let mut estimator: Option<QoeEstimator> = None;

    for line in lines {
        match &mut section {
            CkptSection::Svm(doc) => {
                if line.trim() == "model-svm-end" {
                    let parsed = SvmModel::load(doc.as_bytes())?;
                    if exbox_ml::Classifier::dims(&parsed) != TrafficMatrix::DIMS {
                        return Err(bad("embedded SVM dimensionality mismatch"));
                    }
                    model = Some(ModelState::Svm(parsed));
                    section = CkptSection::Top;
                } else {
                    doc.push_str(line);
                    doc.push('\n');
                }
                continue;
            }
            CkptSection::Qoe(doc) => {
                if line.trim() == "qoe-end" {
                    estimator = Some(load_estimator(doc.as_bytes())?);
                    section = CkptSection::Top;
                } else {
                    doc.push_str(line);
                    doc.push('\n');
                }
                continue;
            }
            CkptSection::Top => {}
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => continue,
            ["phase", p] => {
                if phase.is_some() {
                    return Err(bad("duplicate phase line"));
                }
                phase = Some(match *p {
                    "bootstrap" => Phase::Bootstrap,
                    "online" => Phase::Online,
                    other => return Err(bad(format!("unknown phase {other:?}"))),
                });
            }
            ["counters", obs, retrains, pending] => {
                if counters.is_some() {
                    return Err(bad("duplicate counters line"));
                }
                let obs: u64 = obs.parse().map_err(|_| bad("bad observations counter"))?;
                let retrains: u64 = retrains.parse().map_err(|_| bad("bad retrain counter"))?;
                let pending: usize = pending.parse().map_err(|_| bad("bad pending counter"))?;
                counters = Some((obs, retrains, pending));
            }
            ["sample", y, counts @ ..] => {
                if counts.len() != TrafficMatrix::DIMS {
                    return Err(bad("sample dimensionality mismatch"));
                }
                let label = parse_label(y)?;
                let mut m = TrafficMatrix::empty();
                let kinds = AppClass::ALL.into_iter().flat_map(|class| {
                    SnrLevel::ALL
                        .into_iter()
                        .map(move |snr| FlowKind::new(class, snr))
                });
                for (c, kind) in counts.iter().zip(kinds) {
                    let n: u32 = c.parse().map_err(|_| bad("bad sample count"))?;
                    for _ in 0..n {
                        m.add(kind);
                    }
                }
                samples.push((m, label));
            }
            ["scaler-mean", rest @ ..] => {
                if scaler_mean.is_some() {
                    return Err(bad("duplicate scaler-mean line"));
                }
                scaler_mean = Some(finite_row(rest, "scaler mean")?);
            }
            ["scaler-std", rest @ ..] => {
                if scaler_std.is_some() {
                    return Err(bad("duplicate scaler-std line"));
                }
                let std = finite_row(rest, "scaler std")?;
                if std.iter().any(|v| *v <= 0.0) {
                    return Err(bad("scaler stds must be positive"));
                }
                scaler_std = Some(std);
            }
            ["model-svm-begin"] => {
                if model.is_some() {
                    return Err(bad("duplicate model"));
                }
                section = CkptSection::Svm(String::new());
            }
            ["model-logistic", b, w @ ..] => {
                if model.is_some() {
                    return Err(bad("duplicate model"));
                }
                let bias = finite_f64(b, "logistic bias")?;
                model = Some(ModelState::Logistic(
                    finite_row(w, "logistic weights")?,
                    bias,
                ));
            }
            ["model-pegasos", b, w @ ..] => {
                if model.is_some() {
                    return Err(bad("duplicate model"));
                }
                let bias = finite_f64(b, "pegasos bias")?;
                model = Some(ModelState::Pegasos(finite_row(w, "pegasos weights")?, bias));
            }
            ["warm-bias", b] => {
                if warm_bias.is_some() {
                    return Err(bad("duplicate warm-bias line"));
                }
                warm_bias = Some(finite_f64(b, "warm bias")?);
            }
            ["warm", y, a] => {
                warm_alphas.push((parse_label(y)?, finite_f64(a, "warm alpha")?));
            }
            ["qoe-begin"] => {
                if estimator.is_some() {
                    return Err(bad("duplicate qoe section"));
                }
                section = CkptSection::Qoe(String::new());
            }
            _ => return Err(bad(format!("unknown line {line:?}"))),
        }
    }
    if !matches!(section, CkptSection::Top) {
        return Err(bad("unterminated embedded section"));
    }

    let phase = phase.ok_or_else(|| bad("missing phase"))?;
    let (observations, retrain_count, pending) = counters.ok_or_else(|| bad("missing counters"))?;
    let estimator = estimator.ok_or_else(|| bad("missing qoe section"))?;
    let scaler = match (scaler_mean, scaler_std) {
        (Some(mean), Some(std)) => Some((mean, std)),
        (None, None) => None,
        _ => return Err(bad("scaler-mean and scaler-std must appear together")),
    };
    // A model without its scaler (or vice versa) cannot produce the
    // margins it was checkpointed with — reject rather than guess.
    if model.is_some() != scaler.is_some() {
        return Err(bad("model and scaler must be checkpointed together"));
    }
    // The decide path evaluates the restored model from stack buffers
    // sized by `TrafficMatrix::DIMS` (`features_into` /
    // `transform_into`), and `CompactSvm::decision_value` asserts its
    // input length. Any dimensionality drift must therefore surface
    // here as a load error, never as a packet-path panic. The per-line
    // parsers above already pin each row to the constant; this is the
    // single authoritative check should the format ever grow
    // variable-width rows.
    if let Some(m) = &model {
        if m.dims() != TrafficMatrix::DIMS {
            return Err(bad(format!(
                "model dimensionality {} does not match TrafficMatrix::DIMS ({})",
                m.dims(),
                TrafficMatrix::DIMS
            )));
        }
    }
    if let Some((mean, std)) = &scaler {
        if mean.len() != TrafficMatrix::DIMS || std.len() != TrafficMatrix::DIMS {
            return Err(bad(format!(
                "scaler dimensionality {}/{} does not match TrafficMatrix::DIMS ({})",
                mean.len(),
                std.len(),
                TrafficMatrix::DIMS
            )));
        }
    }
    let warm = match (warm_bias, warm_alphas.is_empty()) {
        (Some(bias), _) => {
            // The dual state is aligned to store indices as of the
            // last fit; the store may have grown since, so fewer
            // alphas than samples is normal — more is not.
            if warm_alphas.len() > samples.len() {
                return Err(bad("more warm-start alphas than stored samples"));
            }
            Some((warm_alphas, bias))
        }
        (None, true) => None,
        (None, false) => return Err(bad("warm lines without warm-bias")),
    };

    let state = ClassifierState {
        phase,
        samples,
        pending,
        observations,
        retrain_count,
        scaler,
        model,
        warm,
    };
    Ok((
        AdmittanceClassifier::import_state(cfg, state, registry),
        estimator,
    ))
}

/// [`save_checkpoint`] to a file, atomically: the checkpoint is
/// staged as a hidden temp file in the same directory, fsynced, then
/// renamed over `path` (and the directory fsynced on Unix). A crash at
/// any point leaves either the old checkpoint or the new one — never
/// a torn file at `path`.
///
/// # Errors
/// I/O errors from the filesystem; `InvalidData` when `path` has no
/// file name.
pub fn save_checkpoint_to_path(
    classifier: &AdmittanceClassifier,
    estimator: &QoeEstimator,
    path: &Path,
) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| bad("checkpoint path has no file name"))?;
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(".{}.tmp", name.to_string_lossy()));
    let result = (|| {
        let mut file = File::create(&tmp)?;
        save_checkpoint(classifier, estimator, &mut file)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    #[cfg(unix)]
    if let Ok(d) = File::open(&dir) {
        // Persist the rename itself; ignore filesystems that refuse
        // directory fsync.
        let _ = d.sync_all();
    }
    Ok(())
}

/// [`load_checkpoint`] from a file, with read faults injectable: the
/// raw bytes pass through [`FaultPlan::mangle_checkpoint`] before
/// parsing, so `ckpt_corrupt` / `ckpt_truncate` plans exercise the
/// rejection path against real files.
///
/// # Errors
/// I/O errors reading the file; `InvalidData` as [`load_checkpoint`].
pub fn load_checkpoint_from_path(
    path: &Path,
    cfg: AdmittanceConfig,
    registry: &MetricsRegistry,
    faults: &FaultPlan,
) -> io::Result<(AdmittanceClassifier, QoeEstimator)> {
    let mut bytes = fs::read(path)?;
    faults.mangle_checkpoint(&mut bytes);
    load_checkpoint(&bytes[..], cfg, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qoe::{paper_directions, train_estimator};
    use exbox_net::{Duration, QosSample};

    fn estimator() -> QoeEstimator {
        let mk = |a: f64, b: f64, g: f64| -> Vec<(f64, f64)> {
            (0..20)
                .map(|i| {
                    let q = i as f64 / 19.0;
                    (q, a + b * (-g * q).exp())
                })
                .collect()
        };
        train_estimator(
            &[mk(1.0, 11.0, 4.0), mk(2.0, 20.0, 4.0), mk(42.0, -30.0, 1.2)],
            QoeEstimator::paper_thresholds(),
            paper_directions(),
            QosScale::new(1e3, 1e8),
        )
    }

    #[test]
    fn roundtrip_preserves_estimates() {
        let est = estimator();
        let mut buf = Vec::new();
        save_estimator(&est, &mut buf).unwrap();
        let loaded = load_estimator(&buf[..]).unwrap();
        let samples = [
            QosSample {
                throughput_bps: 5e6,
                mean_delay: Duration::from_millis(30),
                loss_ratio: 0.0,
            },
            QosSample {
                throughput_bps: 2e5,
                mean_delay: Duration::from_millis(300),
                loss_ratio: 0.1,
            },
        ];
        for class in AppClass::ALL {
            for s in &samples {
                assert!((est.estimate(class, s) - loaded.estimate(class, s)).abs() < 1e-9);
                assert_eq!(est.acceptable(class, s), loaded.acceptable(class, s));
            }
        }
    }

    #[test]
    fn roundtrip_keeps_the_scale_bit_for_bit() {
        // ln(exp(ln x)) != ln x for this min index: a scale that wrote
        // back exp(ln min) restored a different normalisation.
        let min = 1.994902581852944;
        let est = estimator();
        let models = AppClass::ALL.map(|c| *est.model(c));
        let est =
            QoeEstimator::with_registry(models, QosScale::new(min, 1e8), &MetricsRegistry::new());
        let mut buf = Vec::new();
        save_estimator(&est, &mut buf).unwrap();
        let loaded = load_estimator(&buf[..]).unwrap();
        assert_eq!(loaded.scale(), est.scale());
        for idx in [min, 2.5, 1e3, 4.2e5, 1e7] {
            assert_eq!(
                loaded.scale().normalize(idx).to_bits(),
                est.scale().normalize(idx).to_bits(),
                "normalize({idx})"
            );
        }
    }

    #[test]
    fn format_is_inspectable() {
        let mut buf = Vec::new();
        save_estimator(&estimator(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("exbox-qoe v1\n"));
        assert!(text.contains("class web lower 3"));
        assert!(text.contains("class conferencing higher 25"));
    }

    #[test]
    fn rejects_missing_class() {
        let text = "exbox-qoe v1\nscale 1000 100000000\nclass web lower 3 1 11 4\n";
        assert!(load_estimator(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_header_and_scale() {
        assert!(load_estimator(&b"nope\n"[..]).is_err());
        let text = "exbox-qoe v1\nscale -1 5\nclass web lower 3 1 11 4\n";
        assert!(load_estimator(text.as_bytes()).is_err());
    }

    fn trained_classifier(backend: crate::admittance::ClassifierBackend) -> AdmittanceClassifier {
        let reg = MetricsRegistry::new();
        let mut ac = AdmittanceClassifier::with_registry(
            AdmittanceConfig {
                backend,
                batch_size: 8,
                ..AdmittanceConfig::default()
            },
            &reg,
        );
        for w in 0..4u32 {
            for s in 0..4u32 {
                for c in 0..4u32 {
                    let mut m = TrafficMatrix::empty();
                    for _ in 0..w {
                        m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
                    }
                    for _ in 0..s {
                        m.add(FlowKind::new(AppClass::Streaming, SnrLevel::High));
                    }
                    for _ in 0..c {
                        m.add(FlowKind::new(AppClass::Conferencing, SnrLevel::Low));
                    }
                    let y = if m.total() <= 6 {
                        Label::Pos
                    } else {
                        Label::Neg
                    };
                    ac.observe(m, y);
                }
            }
        }
        assert_eq!(ac.phase(), Phase::Online, "fixture must go online");
        ac
    }

    fn query_grid() -> Vec<TrafficMatrix> {
        let mut out = Vec::new();
        for w in 0..6u32 {
            for s in 0..5u32 {
                let mut m = TrafficMatrix::empty();
                for _ in 0..w {
                    m.add(FlowKind::new(AppClass::Web, SnrLevel::High));
                }
                for _ in 0..s {
                    m.add(FlowKind::new(AppClass::Streaming, SnrLevel::Low));
                }
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact_for_every_backend() {
        use crate::admittance::ClassifierBackend;
        for backend in [
            ClassifierBackend::SvmPoly { c: 10.0, degree: 2 },
            ClassifierBackend::SvmRbf {
                c: 10.0,
                gamma: None,
            },
            ClassifierBackend::Logistic,
            ClassifierBackend::PegasosLinear,
        ] {
            let ac = trained_classifier(backend);
            let est = estimator();
            let mut buf = Vec::new();
            save_checkpoint(&ac, &est, &mut buf).unwrap();
            let reg = MetricsRegistry::new();
            let (restored, rest) = load_checkpoint(
                &buf[..],
                AdmittanceConfig {
                    backend,
                    batch_size: 8,
                    ..AdmittanceConfig::default()
                },
                &reg,
            )
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
            assert_eq!(restored.phase(), ac.phase());
            assert_eq!(restored.num_samples(), ac.num_samples());
            assert_eq!(restored.num_observations(), ac.num_observations());
            assert_eq!(restored.retrain_count(), ac.retrain_count());
            for m in query_grid() {
                assert_eq!(restored.classify(&m), ac.classify(&m), "{backend:?} at {m}");
                assert_eq!(
                    restored.decision_value(&m).map(f64::to_bits),
                    ac.decision_value(&m).map(f64::to_bits),
                    "{backend:?} margin not bit-exact at {m}"
                );
            }
            let s = QosSample {
                throughput_bps: 3e6,
                mean_delay: Duration::from_millis(40),
                loss_ratio: 0.01,
            };
            for class in AppClass::ALL {
                assert_eq!(
                    est.estimate(class, &s).to_bits(),
                    rest.estimate(class, &s).to_bits()
                );
            }
        }
    }

    #[test]
    fn checkpoint_format_is_inspectable() {
        let ac = trained_classifier(crate::admittance::ClassifierBackend::SvmPoly {
            c: 10.0,
            degree: 2,
        });
        let mut buf = Vec::new();
        save_checkpoint(&ac, &estimator(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("exbox-ckpt v1\n"));
        assert!(text.contains("\nphase online\n"));
        assert!(text.contains("\nmodel-svm-begin\nexbox-svm v1\n"));
        assert!(text.contains("\nqoe-begin\nexbox-qoe v1\n"));
        let last = text.trim_end().lines().last().unwrap();
        assert!(last.starts_with("checksum "));
        assert_eq!(last.len(), "checksum ".len() + 16);
    }

    #[test]
    fn checkpoint_rejects_any_corruption_without_panicking() {
        let ac = trained_classifier(crate::admittance::ClassifierBackend::SvmPoly {
            c: 10.0,
            degree: 2,
        });
        let mut buf = Vec::new();
        save_checkpoint(&ac, &estimator(), &mut buf).unwrap();
        let reg = MetricsRegistry::new();
        // A spread of byte flips, including inside the checksum line.
        for idx in [0, 1, buf.len() / 3, buf.len() / 2, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[idx] ^= 0x01;
            assert!(
                load_checkpoint(&bad[..], AdmittanceConfig::default(), &reg).is_err(),
                "flip at {idx} must be rejected"
            );
        }
        // Truncations at every record-ish boundary (the deepest cut
        // lands mid-checksum, so the declared hash no longer matches).
        for cut in [0, 1, 13, buf.len() / 4, buf.len() / 2, buf.len() - 10] {
            assert!(
                load_checkpoint(&buf[..cut], AdmittanceConfig::default(), &reg).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_structural_damage() {
        let reg = MetricsRegistry::new();
        let with_checksum = |body: &str| {
            let sum = fnv1a64(body.as_bytes());
            format!("{body}checksum {sum:016x}\n")
        };
        // Valid checksum, bad structure: each must fail in the parser.
        for body in [
            "exbox-ckpt v1\ncounters 1 0 0\nqoe-begin\nqoe-end\n", // missing phase
            "exbox-ckpt v1\nphase online\nqoe-begin\nqoe-end\n",   // missing counters
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\n",       // missing qoe
            "exbox-ckpt v1\nphase online\nphase online\ncounters 1 0 0\n", // dup phase
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\nmodel-svm-begin\n", // unterminated
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\nsample +1 1 2\n", // short sample
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\nwarm +1 0.5\n", // warm w/o bias
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\nscaler-mean 0 0 0 0 0 0\n", // lone mean
            "exbox-ckpt v1\nphase nowhere\ncounters 1 0 0\n",      // bad phase
            "exbox-ckpt v1\nphase online\ncounters 1 0 0\nbogus line\n", // unknown key
        ] {
            let file = with_checksum(body);
            let err = load_checkpoint(file.as_bytes(), AdmittanceConfig::default(), &reg)
                .expect_err(body);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body}");
        }
        // Scaler without model (and vice versa) is inconsistent.
        let body = "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                    scaler-mean 0 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                    qoe-begin\nqoe-end\n";
        assert!(load_checkpoint(
            with_checksum(body).as_bytes(),
            AdmittanceConfig::default(),
            &reg
        )
        .is_err());
    }

    #[test]
    fn checkpoint_rejects_dimensionality_drift_at_load() {
        // The packet path scores restored models from stack buffers
        // sized by `TrafficMatrix::DIMS`; a checkpoint whose model or
        // scaler disagrees must die here with `InvalidData`, never
        // reach a decide-time assert (and never silently zip-truncate
        // features). One case per model family plus the scaler.
        let reg = MetricsRegistry::new();
        let with_checksum = |body: &str| {
            let sum = fnv1a64(body.as_bytes());
            format!("{body}checksum {sum:016x}\n")
        };
        let cases: [(&str, &str); 4] = [
            (
                // Well-formed embedded SVM document declaring 5 dims.
                "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                 scaler-mean 0 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                 model-svm-begin\nexbox-svm v1\nkernel linear\ndims 5\n\
                 bias 0\nsv 1 1 0 0 0 0\nmodel-svm-end\n\
                 qoe-begin\nqoe-end\n",
                "dimensionality",
            ),
            (
                "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                 scaler-mean 0 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                 model-logistic 0.5 1 2 3 4 5\n\
                 qoe-begin\nqoe-end\n",
                "logistic weights has 5 values, expected 6",
            ),
            (
                "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                 scaler-mean 0 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                 model-pegasos 0.5 1 2 3 4 5 6 7\n\
                 qoe-begin\nqoe-end\n",
                "pegasos weights has 7 values, expected 6",
            ),
            (
                "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                 scaler-mean 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                 model-logistic 0.5 1 2 3 4 5 6\n\
                 qoe-begin\nqoe-end\n",
                "scaler mean has 5 values, expected 6",
            ),
        ];
        for (body, needle) in cases {
            let file = with_checksum(body);
            let err = load_checkpoint(file.as_bytes(), AdmittanceConfig::default(), &reg)
                .expect_err(body);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body}");
            assert!(
                err.to_string().contains(needle),
                "error {err:?} should name the dims mismatch ({needle})"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_poisoned_poly_kernel() {
        // A NaN coef0 makes every margin NaN, which reads as "reject
        // every arrival"; the embedded model loader must refuse it
        // behind a valid checksum.
        let body = "exbox-ckpt v1\nphase online\ncounters 1 0 0\n\
                    scaler-mean 0 0 0 0 0 0\nscaler-std 1 1 1 1 1 1\n\
                    model-svm-begin\nexbox-svm v1\nkernel poly 0.5 NaN 2\ndims 6\n\
                    bias 0\nsv 1 1 0 0 0 0 0\nmodel-svm-end\n\
                    qoe-begin\nqoe-end\n";
        let file = format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()));
        let err = load_checkpoint(
            file.as_bytes(),
            AdmittanceConfig::default(),
            &MetricsRegistry::new(),
        )
        .expect_err("NaN coef0 must not restore");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("poly params"), "{err}");
    }

    #[test]
    fn degraded_checkpoint_roundtrips_without_model() {
        // Online phase with no model — the post-crash degraded state —
        // must checkpoint and restore cleanly.
        use crate::admittance::{ClassifierState, Phase};
        let reg = MetricsRegistry::new();
        let kind = FlowKind::new(AppClass::Web, SnrLevel::High);
        let state = ClassifierState {
            phase: Phase::Online,
            samples: vec![(TrafficMatrix::empty().with_arrival(kind), Label::Pos)],
            pending: 3,
            observations: 57,
            retrain_count: 0,
            scaler: None,
            model: None,
            warm: None,
        };
        let ac = AdmittanceClassifier::import_state(AdmittanceConfig::default(), state, &reg);
        assert!(!ac.model_available());
        let mut buf = Vec::new();
        save_checkpoint(&ac, &estimator(), &mut buf).unwrap();
        let (restored, _) = load_checkpoint(&buf[..], AdmittanceConfig::default(), &reg).unwrap();
        assert_eq!(restored.phase(), Phase::Online);
        assert!(!restored.model_available());
        assert_eq!(restored.num_observations(), 57);
        assert_eq!(restored.num_samples(), 1);
    }

    #[test]
    fn path_checkpoint_is_atomic_and_faultable() {
        let dir = std::env::temp_dir().join(format!("exbox-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gateway.ckpt");
        let ac = trained_classifier(crate::admittance::ClassifierBackend::SvmPoly {
            c: 10.0,
            degree: 2,
        });
        let est = estimator();
        save_checkpoint_to_path(&ac, &est, &path).unwrap();
        // No temp residue after a successful write.
        assert!(
            !dir.join(".gateway.ckpt.tmp").exists(),
            "temp file left behind"
        );
        let reg = MetricsRegistry::new();
        let (restored, _) = load_checkpoint_from_path(
            &path,
            AdmittanceConfig {
                batch_size: 8,
                ..AdmittanceConfig::default()
            },
            &reg,
            &FaultPlan::disabled(),
        )
        .unwrap();
        assert_eq!(restored.retrain_count(), ac.retrain_count());

        // An injected read fault must surface as an error, not a
        // half-restored classifier — and the file itself is untouched.
        use crate::recovery::FaultKind;
        let plan = FaultPlan::with_registry(&[(FaultKind::CheckpointCorrupt, 1.0)], 99, &reg);
        assert!(
            load_checkpoint_from_path(&path, AdmittanceConfig::default(), &reg, &plan).is_err()
        );
        assert!(load_checkpoint_from_path(
            &path,
            AdmittanceConfig {
                batch_size: 8,
                ..AdmittanceConfig::default()
            },
            &reg,
            &FaultPlan::disabled()
        )
        .is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}

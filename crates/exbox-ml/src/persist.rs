//! Model persistence: save/load trained models as a plain text format.
//!
//! The paper's §4.4 proposes sharing fitted models "over different
//! networks of similar characteristics. This will reduce the training
//! effort substantially". That requires models to leave the process.
//! The format is deliberately simple — versioned header, one
//! whitespace-separated record per line — so operators can inspect and
//! diff models, and no serialisation dependency is needed.
//!
//! ```text
//! exbox-svm v1
//! kernel rbf 0.25
//! dims 6
//! bias -0.37218
//! sv <coef> <x0> <x1> ... <x5>
//! ...
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};

use crate::kernel::Kernel;
use crate::svm::SvmModel;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialise a kernel as `name params…`.
fn kernel_to_line(k: &Kernel) -> String {
    match k {
        Kernel::Linear => "linear".to_string(),
        Kernel::Rbf { gamma } => format!("rbf {gamma}"),
        Kernel::Poly {
            gamma,
            coef0,
            degree,
        } => format!("poly {gamma} {coef0} {degree}"),
    }
}

/// Parse a kernel line produced by [`kernel_to_line`].
fn kernel_from_parts(parts: &[&str]) -> io::Result<Kernel> {
    match parts {
        ["linear"] => Ok(Kernel::Linear),
        ["rbf", g] => {
            let gamma: f64 = g.parse().map_err(|_| bad("bad rbf gamma"))?;
            if !(gamma > 0.0 && gamma.is_finite()) {
                return Err(bad("rbf gamma out of range"));
            }
            Ok(Kernel::Rbf { gamma })
        }
        ["poly", g, c0, d] => {
            let gamma: f64 = g.parse().map_err(|_| bad("bad poly gamma"))?;
            let coef0: f64 = c0.parse().map_err(|_| bad("bad poly coef0"))?;
            let degree: u32 = d.parse().map_err(|_| bad("bad poly degree"))?;
            // A non-finite coef0 makes every margin NaN (which reads
            // as "reject"), and `powi` takes the degree as an `i32`.
            let in_range = gamma > 0.0
                && gamma.is_finite()
                && coef0.is_finite()
                && (1..=i32::MAX as u32).contains(&degree);
            if !in_range {
                return Err(bad("poly params out of range"));
            }
            Ok(Kernel::Poly {
                gamma,
                coef0,
                degree,
            })
        }
        _ => Err(bad("unknown kernel line")),
    }
}

impl SvmModel {
    /// Write the model in the text format.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn save<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "exbox-svm v1")?;
        writeln!(out, "kernel {}", kernel_to_line(&self.kernel()))?;
        writeln!(out, "dims {}", crate::Classifier::dims(self))?;
        writeln!(out, "bias {}", self.bias())?;
        for (coef, sv) in self.support_iter() {
            write!(out, "sv {coef}")?;
            for v in sv {
                write!(out, " {v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Read a model written by [`SvmModel::save`].
    ///
    /// # Errors
    /// `InvalidData` on malformed input; I/O errors from the reader.
    pub fn load<R: Read>(input: R) -> io::Result<SvmModel> {
        let mut lines = BufReader::new(input).lines();
        let header = lines.next().ok_or_else(|| bad("empty model file"))??;
        if header.trim() != "exbox-svm v1" {
            return Err(bad(format!("unsupported header {header:?}")));
        }

        let mut kernel = None;
        let mut dims = None;
        let mut bias = None;
        let mut support = Vec::new();
        let mut coef = Vec::new();

        for line in lines {
            let line = line?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                [] => continue,
                ["kernel", rest @ ..] => {
                    if kernel.is_some() {
                        return Err(bad("duplicate kernel line"));
                    }
                    kernel = Some(kernel_from_parts(rest)?);
                }
                ["dims", d] => {
                    if dims.is_some() {
                        return Err(bad("duplicate dims line"));
                    }
                    dims = Some(d.parse::<usize>().map_err(|_| bad("bad dims"))?);
                }
                ["bias", b] => {
                    if bias.is_some() {
                        return Err(bad("duplicate bias line"));
                    }
                    bias = Some(b.parse::<f64>().map_err(|_| bad("bad bias"))?);
                }
                ["sv", rest @ ..] => {
                    if rest.is_empty() {
                        return Err(bad("empty sv line"));
                    }
                    let c: f64 = rest[0].parse().map_err(|_| bad("bad sv coef"))?;
                    let x: Result<Vec<f64>, _> = rest[1..].iter().map(|v| v.parse()).collect();
                    let x = x.map_err(|_| bad("bad sv coordinate"))?;
                    coef.push(c);
                    support.push(x);
                }
                _ => return Err(bad(format!("unknown line {line:?}"))),
            }
        }

        let kernel = kernel.ok_or_else(|| bad("missing kernel"))?;
        let dims = dims.ok_or_else(|| bad("missing dims"))?;
        let bias = bias.ok_or_else(|| bad("missing bias"))?;
        // The sv/dims lines may arrive in any order, so every row is
        // validated against the final dims here rather than during the
        // line loop (where a row preceding `dims` would slip through).
        if support.iter().any(|x| x.len() != dims) {
            return Err(bad("sv dimensionality mismatch"));
        }
        if !support.iter().all(|x| x.iter().all(|v| v.is_finite()))
            || !coef.iter().all(|c| c.is_finite())
            || !bias.is_finite()
        {
            return Err(bad("non-finite model values"));
        }
        Ok(SvmModel::from_parts(kernel, support, coef, bias, dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, Label};
    use crate::svm::SvmTrainer;
    use crate::Classifier;

    fn trained() -> SvmModel {
        let mut ds = Dataset::new(2);
        for i in 0..10 {
            ds.push(vec![-2.0 - 0.1 * i as f64, 0.5], Label::Pos);
            ds.push(vec![2.0 + 0.1 * i as f64, -0.5], Label::Neg);
        }
        SvmTrainer::new(Kernel::rbf(0.7)).c(5.0).train(&ds)
    }

    #[test]
    fn roundtrip_preserves_decisions() {
        let model = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = SvmModel::load(&buf[..]).unwrap();
        assert_eq!(loaded.num_support_vectors(), model.num_support_vectors());
        for x in [[-2.5, 0.0], [2.5, 0.0], [0.1, 0.2], [-0.1, -0.2]] {
            let a = model.decision_value(&x);
            let b = loaded.decision_value(&x);
            assert!((a - b).abs() < 1e-9, "decision diverged: {a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_all_kernels() {
        let mut ds = Dataset::new(1);
        for i in 0..6 {
            ds.push(vec![-1.0 - i as f64 * 0.2], Label::Pos);
            ds.push(vec![1.0 + i as f64 * 0.2], Label::Neg);
        }
        for kernel in [Kernel::Linear, Kernel::rbf(1.3), Kernel::poly(0.5, 1.0, 3)] {
            let model = SvmTrainer::new(kernel).train(&ds);
            let mut buf = Vec::new();
            model.save(&mut buf).unwrap();
            let loaded = SvmModel::load(&buf[..]).unwrap();
            assert_eq!(loaded.kernel(), kernel);
            assert!((loaded.decision_value(&[0.3]) - model.decision_value(&[0.3])).abs() < 1e-9);
        }
    }

    #[test]
    fn format_is_human_readable() {
        let mut buf = Vec::new();
        trained().save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("exbox-svm v1\n"));
        assert!(text.contains("kernel rbf 0.7"));
        assert!(text.contains("dims 2"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(SvmModel::load(&b"not-a-model\n"[..]).is_err());
        assert!(SvmModel::load(&b""[..]).is_err());
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let text = "exbox-svm v1\nkernel linear\ndims 2\nbias 0\nsv 1.0 0.5\n";
        assert!(SvmModel::load(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_missing_fields() {
        let text = "exbox-svm v1\ndims 2\nbias 0\n";
        assert!(SvmModel::load(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_garbage_numbers() {
        let text = "exbox-svm v1\nkernel rbf nan\ndims 1\nbias 0\n";
        assert!(SvmModel::load(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_poly_params() {
        // NaN/inf coef0 poisons every margin; a degree above i32::MAX
        // wraps negative in `powi`.
        for params in [
            "0.5 NaN 2",
            "0.5 inf 2",
            "0.5 1 4294967295",
            "0.5 1 2147483648",
        ] {
            let text = format!("exbox-svm v1\nkernel poly {params}\ndims 1\nbias 0\nsv 1.0 1.0\n");
            let err = SvmModel::load(text.as_bytes()).expect_err("poly params must be checked");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{params}");
        }
        let ok = "exbox-svm v1\nkernel poly 0.5 1 2147483647\ndims 1\nbias 0\nsv 1.0 1.0\n";
        assert!(SvmModel::load(ok.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_non_finite_coefficients() {
        // A NaN/inf *coefficient* must be rejected just like a NaN
        // support coordinate or bias.
        for c in ["NaN", "inf", "-inf"] {
            let text = format!("exbox-svm v1\nkernel linear\ndims 1\nbias 0\nsv {c} 1.0\n");
            let err = SvmModel::load(text.as_bytes()).expect_err("coef must be finite");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        // Non-finite support coordinates and bias stay rejected too.
        let text = "exbox-svm v1\nkernel linear\ndims 1\nbias 0\nsv 1.0 inf\n";
        assert!(SvmModel::load(text.as_bytes()).is_err());
        let text = "exbox-svm v1\nkernel linear\ndims 1\nbias NaN\nsv 1.0 1.0\n";
        assert!(SvmModel::load(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_sv_before_dims_with_wrong_width() {
        // The sv line precedes dims, so the old in-loop check never
        // ran; the row must still be validated against dims.
        let text = "exbox-svm v1\nkernel linear\nsv 1.0 0.5\ndims 2\nbias 0\n";
        let err = SvmModel::load(text.as_bytes()).expect_err("wrong-width sv must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A correctly sized row before dims is fine.
        let ok = "exbox-svm v1\nkernel linear\nsv 1.0 0.5 0.5\ndims 2\nbias 0\n";
        assert!(SvmModel::load(ok.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_duplicate_keys() {
        for dup in ["kernel linear", "dims 2", "bias 0"] {
            let text = format!("exbox-svm v1\nkernel linear\ndims 2\nbias 0\n{dup}\n");
            let err = SvmModel::load(text.as_bytes()).expect_err("duplicate key must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let mut buf = Vec::new();
        trained().save(&mut buf).unwrap();
        // Cutting the file anywhere inside the header/metadata (or mid
        // sv line, leaving a dangling token) must error, never panic.
        for cut in [1, 8, 14, 30, buf.len() * 2 / 3] {
            let prefix = &buf[..cut.min(buf.len())];
            match SvmModel::load(prefix) {
                Ok(m) => {
                    // Only acceptable if the cut landed exactly on a
                    // record boundary past all required fields.
                    assert!(m.num_support_vectors() <= trained().num_support_vectors());
                }
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
        }
        // Cut mid-way through the required fields: always an error.
        assert!(SvmModel::load(&b"exbox-svm v1\nkernel rbf 0.7\ndims"[..]).is_err());
    }
}

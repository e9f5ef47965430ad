//! Machine-shape stamp carried by every report.
//!
//! Two reports are comparable only when they were measured by the same
//! build settings on the same kind of machine; the git revision is
//! stamped too but naturally differs between the sides of a compare.

use std::path::Path;
use std::process::Command;

use crate::json::{obj, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd: bool,
    pub fast_math: bool,
    pub rustc: String,
    pub git_rev: String,
}

impl Shape {
    /// Read the stamp of this process: the machine it runs on, the
    /// features it was built with, the checkout it runs in.
    pub fn detect() -> Shape {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Shape {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            simd: cfg!(feature = "simd"),
            fast_math: cfg!(feature = "fast-math"),
            rustc,
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("nproc", Value::Num(self.nproc as f64)),
            ("cpu_model", Value::Str(self.cpu_model.clone())),
            ("simd", Value::Bool(self.simd)),
            ("fast_math", Value::Bool(self.fast_math)),
            ("rustc", Value::Str(self.rustc.clone())),
            ("git_rev", Value::Str(self.git_rev.clone())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Shape> {
        Some(Shape {
            nproc: v.get("nproc")?.as_f64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            simd: v.get("simd")?.as_bool()?,
            fast_math: v.get("fast_math")?.as_bool()?,
            rustc: v.get("rustc")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
        })
    }

    /// Why two reports must not be compared, if they must not.
    pub fn mismatch(&self, other: &Shape) -> Option<String> {
        let mut diffs = Vec::new();
        if self.nproc != other.nproc {
            diffs.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.cpu_model != other.cpu_model {
            diffs.push(format!("cpu '{}' vs '{}'", self.cpu_model, other.cpu_model));
        }
        if self.simd != other.simd {
            diffs.push(format!("simd {} vs {}", self.simd, other.simd));
        }
        if self.fast_math != other.fast_math {
            diffs.push(format!(
                "fast-math {} vs {}",
                self.fast_math, other.fast_math
            ));
        }
        if self.rustc != other.rustc {
            diffs.push(format!("rustc '{}' vs '{}'", self.rustc, other.rustc));
        }
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.join("; "))
        }
    }
}

/// HEAD of the checkout in the working directory, read from the git
/// files directly (the driver's checkout is no repository: "unknown").
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips_and_refuses_other_machines() {
        let here = Shape::detect();
        assert!(here.nproc >= 1);
        let back = Shape::from_json(&crate::json::parse(&here.to_json().render()).unwrap());
        assert_eq!(back.as_ref(), Some(&here));

        let mut other_rev = here.clone();
        other_rev.git_rev = "0123abc".into();
        assert_eq!(
            here.mismatch(&other_rev),
            None,
            "revisions are what we compare"
        );

        let mut bigger = here.clone();
        bigger.nproc += 2;
        bigger.simd = !bigger.simd;
        let why = here.mismatch(&bigger).expect("different shape");
        assert!(why.contains("nproc") && why.contains("simd"), "{why}");
    }
}

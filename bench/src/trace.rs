//! The span file of a traced run: `<out-dir>/<workload>.trace.json`.
//!
//! Spans are kept in memory while the pass runs and written here after
//! the run ended. The file holds the spans of the last traced
//! repetition: the pass as the root span and every driver segment
//! (gateway call or input generation) as its child.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::harness::Span;

/// Spans written at most; a storm pass has half a million. The header
/// says how many there were.
const MAX_WRITTEN: usize = 50_000;

pub fn write(out_dir: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut out = BufWriter::new(File::create(
        out_dir.join(format!("{workload}.trace.json")),
    )?);
    let end_ns = spans.last().map_or(0, |s| s.end_ns);
    let written = spans.len().min(MAX_WRITTEN);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans_written\":{written},",
        spans.len()
    )?;
    writeln!(
        out,
        "\"spans\":[\n{{\"id\":0,\"name\":\"pass\",\"start_ns\":0,\"end_ns\":{end_ns},\"parent\":null}}"
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        writeln!(
            out,
            ",{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{},\"parent\":0}}",
            i + 1,
            s.seg.name(),
            s.start_ns,
            s.end_ns,
            s.items
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Seg;
    use crate::json::parse;

    #[test]
    fn trace_file_is_json_with_parented_spans() {
        let dir = std::env::temp_dir().join(format!("exbox-ledger-trace-{}", std::process::id()));
        let spans = [
            Span {
                seg: Seg::Generate,
                items: 0,
                start_ns: 0,
                end_ns: 40,
            },
            Span {
                seg: Seg::Ingest,
                items: 128,
                start_ns: 40,
                end_ns: 900,
            },
        ];
        write(&dir, "unit", 7, &spans).unwrap();
        let text = std::fs::read_to_string(dir.join("unit.trace.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = parse(&text).unwrap();
        let listed = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), 3);
        assert_eq!(listed[0].get("end_ns").unwrap().as_f64(), Some(900.0));
        assert_eq!(
            listed[2].get("name").unwrap().as_str(),
            Some("gateway.ingest")
        );
        assert_eq!(listed[2].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(listed[2].get("items").unwrap().as_f64(), Some(128.0));
    }
}

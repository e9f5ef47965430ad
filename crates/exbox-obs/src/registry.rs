//! Named metric registry and snapshot export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramCell, HistogramSnapshot};
use crate::{Counter, CounterCell, Gauge};

/// Every instrument registered under one name: the shared one, made on
/// the first ask for it, and one per cell handed out. The registry
/// only reads the cells' side.
#[derive(Debug)]
struct Named<T> {
    shared: Option<Arc<T>>,
    cells: Vec<Arc<T>>,
}

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named {
            shared: None,
            cells: Vec::new(),
        }
    }
}

impl<T> Named<T> {
    /// The shared instrument and every cell; never empty, since a name
    /// is entered only with an instrument.
    fn all(&self) -> impl Iterator<Item = &T> {
        self.shared.iter().chain(&self.cells).map(|i| &**i)
    }
}

/// Names counters, gauges and histograms and hands out handles.
/// Asking for an existing name's shared instrument returns the existing
/// one, so independent components (or multiple instances of one
/// component) naturally aggregate into the same metric. A cell
/// ([`counter_cell`](Self::counter_cell),
/// [`histogram_cell`](Self::histogram_cell)) is fresh on every call
/// and has one writer; a snapshot sums every cell and the shared
/// instrument of a name into one value, so readers cannot tell the
/// two apart.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Named<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Named<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the shared counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.counters.lock().expect("registry poisoned");
        let named = g.entry(name.to_string()).or_default();
        Arc::clone(named.shared.get_or_insert_with(|| Arc::new(Counter::new())))
    }

    /// A fresh one-writer counter counted under `name`.
    pub fn counter_cell(&self, name: &str) -> CounterCell {
        let cell = Arc::new(Counter::new());
        let mut g = self.counters.lock().expect("registry poisoned");
        g.entry(name.to_string())
            .or_default()
            .cells
            .push(Arc::clone(&cell));
        CounterCell(cell)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.gauges.lock().expect("registry poisoned");
        Arc::clone(
            g.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get or create the shared histogram `name`. The bucket `bounds`
    /// apply only on its first creation; later callers share the
    /// existing instrument unchanged.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut g = self.histograms.lock().expect("registry poisoned");
        let named = g.entry(name.to_string()).or_default();
        Arc::clone(
            named
                .shared
                .get_or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A fresh one-writer histogram over `bounds`, merged into `name`.
    /// Every instrument of a name must have the same bounds: a
    /// [`snapshot`](Self::snapshot) panics otherwise, as
    /// [`MetricsSnapshot::merged`] does.
    pub fn histogram_cell(&self, name: &str, bounds: &[f64]) -> HistogramCell {
        let cell = Arc::new(Histogram::new(bounds));
        let mut g = self.histograms.lock().expect("registry poisoned");
        g.entry(name.to_string())
            .or_default()
            .cells
            .push(Arc::clone(&cell));
        HistogramCell(cell)
    }

    /// Point-in-time snapshot of every registered metric: a name's
    /// counter is the sum of its instruments, its histogram their
    /// bucket-wise merge.
    ///
    /// # Panics
    /// When one name's histograms have different bucket bounds.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.all().map(Counter::get).sum()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| {
                    let mut parts = v.all().map(Histogram::snapshot);
                    let mut merged = parts.next().expect("a name has an instrument");
                    parts.for_each(|h| merged.absorb(k, &h));
                    (k.clone(), merged)
                })
                .collect(),
        }
    }
}

/// The process-wide default registry. Components bind to it unless
/// constructed with an explicit registry; bench binaries dump it on
/// exit.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A frozen, ordered view of a registry. All export formats list
/// metrics in lexicographic name order, so diffs between runs are
/// stable.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Merge several snapshots into one aggregate view — how the
    /// concurrent gateway exports its per-shard sub-registries (each
    /// shard writes its own cells; the sums only materialise at export
    /// time, within a registry by [`MetricsRegistry::snapshot`] and
    /// across registries here, by the same rules).
    ///
    /// Semantics per metric kind:
    /// * **counters** — summed by name (exact: each shard's verdict
    ///   tally adds up to the fleet total);
    /// * **histograms** — merged bucket-wise (counts element-wise,
    ///   `count`/`sum` added, `min`/`max` combined), which is exact
    ///   because every shard binds the same code and therefore the
    ///   same bucket bounds;
    /// * **gauges** — the maximum across parts (a gauge is a
    ///   point-in-time level, not a flow; max is the deterministic
    ///   choice that never under-reports).
    ///
    /// # Panics
    /// Panics when two parts carry the same histogram name with
    /// different bucket bounds — merging those would corrupt
    /// quantiles, and it can only happen through a programming error.
    pub fn merged<'a, I>(parts: I) -> MetricsSnapshot
    where
        I: IntoIterator<Item = &'a MetricsSnapshot>,
    {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for part in parts {
            for (name, v) in &part.counters {
                *counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, v) in &part.gauges {
                gauges
                    .entry(name.clone())
                    .and_modify(|cur| *cur = cur.max(*v))
                    .or_insert(*v);
            }
            for (name, h) in &part.histograms {
                match histograms.entry(name.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(h.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().absorb(name, h);
                    }
                }
            }
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialize as a single JSON object:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{count,sum,min,max,mean,p50,p95,p99,buckets:[[le,n],…]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(name), json_num(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
                json_escape(name),
                h.count,
                json_num(h.sum),
                json_num(h.min),
                json_num(h.max),
                json_num(h.mean()),
                json_num(h.quantile(0.50)),
                json_num(h.quantile(0.95)),
                json_num(h.quantile(0.99)),
            );
            for (j, &c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let le = h
                    .bounds
                    .get(j)
                    .copied()
                    .map(json_num)
                    .unwrap_or_else(|| "null".into());
                let _ = write!(out, "[{le},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Serialize as CSV with header `metric,kind,value`; histograms
    /// expand into `count/mean/min/max/p50/p95/p99` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,value\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name},counter,{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name},gauge,{v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name}.count,histogram,{}", h.count);
            let _ = writeln!(out, "{name}.mean,histogram,{}", h.mean());
            let _ = writeln!(out, "{name}.min,histogram,{}", h.min);
            let _ = writeln!(out, "{name}.max,histogram,{}", h.max);
            let _ = writeln!(out, "{name}.p50,histogram,{}", h.quantile(0.50));
            let _ = writeln!(out, "{name}.p95,histogram,{}", h.quantile(0.95));
            let _ = writeln!(out, "{name}.p99,histogram,{}", h.quantile(0.99));
        }
        out
    }

    /// Human-readable aligned text block (what bench binaries print
    /// to stderr on exit).
    pub fn render(&self) -> String {
        let mut out = String::from("== metrics snapshot ==\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<44} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<44} {v:.6}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<44} n={} mean={:.1} p50={:.1} p95={:.1} max={:.1}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.max,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets;

    #[test]
    fn same_name_shares_instrument() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.counter("a.b").inc();
        assert_eq!(reg.snapshot().counter("a.b"), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").add(3);
        reg.gauge("m.acc").set(0.75);
        reg.histogram("h.lat", &buckets::latency_ns())
            .record(2_000.0);
        let s = reg.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        assert_eq!(s.gauge("m.acc"), Some(0.75));
        assert_eq!(s.histogram("h.lat").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn json_export_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("c\"tricky").inc();
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[1.0, 2.0]).record(1.5);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"c\\\"tricky\":1"));
        assert!(json.contains("\"g\":1.5"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"buckets\":[[1,0],[2,1],[null,0]]"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let reg = MetricsRegistry::new();
        reg.counter("admitted").add(7);
        reg.histogram("lat", &[10.0]).record(5.0);
        let csv = reg.snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("metric,kind,value"));
        assert!(csv.contains("admitted,counter,7"));
        assert!(csv.contains("lat.count,histogram,1"));
        assert!(csv.contains("lat.p95,histogram,"));
    }

    #[test]
    fn render_mentions_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("one").inc();
        reg.gauge("two").set(2.0);
        reg.histogram("three", &[1.0]).record(0.5);
        let text = reg.snapshot().render();
        for name in ["one", "two", "three"] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
    }

    #[test]
    fn merged_sums_counters_and_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("mb.admits").add(3);
        b.counter("mb.admits").add(4);
        b.counter("mb.rejects").add(2);
        a.gauge("acc").set(0.5);
        b.gauge("acc").set(0.9);
        a.histogram("lat", &[10.0, 100.0]).record(5.0);
        a.histogram("lat", &[10.0, 100.0]).record(50.0);
        b.histogram("lat", &[10.0, 100.0]).record(500.0);
        let m = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        assert_eq!(m.counter("mb.admits"), Some(7));
        assert_eq!(m.counter("mb.rejects"), Some(2));
        assert_eq!(m.gauge("acc"), Some(0.9));
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.sum, 555.0);
        assert_eq!((h.min, h.max), (5.0, 500.0));
    }

    #[test]
    fn merged_empty_histogram_does_not_poison_min_max() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.histogram("lat", &[10.0]); // registered, never recorded
        b.histogram("lat", &[10.0]).record(4.0);
        let m = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        let h = m.histogram("lat").unwrap();
        assert_eq!((h.count, h.min, h.max), (1, 4.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "mismatched bucket bounds")]
    fn merged_rejects_mismatched_bounds() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.histogram("lat", &[10.0]);
        b.histogram("lat", &[20.0]);
        let _ = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
    }

    #[test]
    fn cells_and_a_shared_counter_sum_under_one_name() {
        let a = MetricsRegistry::new();
        let (mut c0, mut c1) = (a.counter_cell("mb.admits"), a.counter_cell("mb.admits"));
        c0.add(3);
        c1.inc();
        a.counter("mb.admits").add(10);
        c1.add(5);
        assert_eq!(
            (c0.get(), c1.get()),
            (3, 6),
            "each cell keeps its own count"
        );
        assert_eq!(a.snapshot().counter("mb.admits"), Some(19));
        // A name bound only as a cell is reported like any other.
        let _ = a.counter_cell("mb.idle");
        assert_eq!(a.snapshot().counter("mb.idle"), Some(0));

        let b = MetricsRegistry::new();
        b.counter_cell("mb.admits").add(100);
        let m = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        assert_eq!(m.counter("mb.admits"), Some(119));
        assert_eq!(m.counter("mb.idle"), Some(0));
    }

    /// A reader snapshots while three writers count: every name's total
    /// (one name is two cells, one a single cell) only ever grows, and
    /// ends exact. Run under ThreadSanitizer by CI's concurrency job.
    #[test]
    fn reader_sees_every_cell_monotone() {
        const PER_WRITER: u64 = 20_000;
        let reg = MetricsRegistry::new();
        let cells = [
            reg.counter_cell("pair"),
            reg.counter_cell("pair"),
            reg.counter_cell("solo"),
        ];
        let mut lat = reg.histogram_cell("lat", &[10.0, 100.0]);
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for mut cell in cells {
                let done = &done;
                scope.spawn(move || {
                    for _ in 0..PER_WRITER {
                        cell.inc();
                    }
                    done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            let (reg, done) = (&reg, &done);
            scope.spawn(move || {
                let mut last = (0, 0, 0);
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::SeqCst) == 3;
                    let s = reg.snapshot();
                    let now = (
                        s.counter("pair").unwrap(),
                        s.counter("solo").unwrap(),
                        s.histogram("lat").unwrap().count,
                    );
                    assert!(
                        now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2,
                        "{now:?} after {last:?}"
                    );
                    last = now;
                    if finished {
                        break;
                    }
                }
            });
            for i in 0..PER_WRITER {
                lat.record((i % 200) as f64);
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.counter("pair"), Some(2 * PER_WRITER));
        assert_eq!(s.counter("solo"), Some(PER_WRITER));
        assert_eq!(s.histogram("lat").unwrap().count, PER_WRITER);
    }

    #[test]
    fn histogram_cells_merge_like_shared_ones() {
        let bounds = [10.0, 100.0];
        let samples = [5.0, 50.0, 500.0, 7.0, 70.0];
        let shared = MetricsRegistry::new();
        for v in samples {
            shared.histogram("lat", &bounds).record(v);
        }
        let celled = MetricsRegistry::new();
        let (mut c0, mut c1) = (
            celled.histogram_cell("lat", &bounds),
            celled.histogram_cell("lat", &bounds),
        );
        let _never_recorded = celled.histogram_cell("lat", &bounds);
        c0.record(5.0);
        c0.record(50.0);
        c1.record(500.0);
        celled.histogram("lat", &bounds).record(7.0);
        c1.record(70.0);
        c1.record(f64::NAN); // ignored, as by a shared histogram

        let key = |h: &HistogramSnapshot| (h.counts.clone(), h.count, h.sum, h.min, h.max);
        let want = key(shared.snapshot().histogram("lat").unwrap());
        assert_eq!(key(celled.snapshot().histogram("lat").unwrap()), want);
        assert_eq!(want, (vec![2, 2, 1], 5, 632.0, 5.0, 500.0));
        // Across registries, cells merge as shared histograms do.
        let other = MetricsRegistry::new();
        other.histogram_cell("lat", &bounds).record(1.0);
        let m = MetricsSnapshot::merged([&celled.snapshot(), &other.snapshot()]);
        assert_eq!(
            key(m.histogram("lat").unwrap()),
            (vec![3, 2, 1], 6, 633.0, 1.0, 500.0)
        );
    }

    #[test]
    #[should_panic(expected = "mismatched bucket bounds")]
    fn cells_with_mismatched_bounds_panic_in_snapshot() {
        let reg = MetricsRegistry::new();
        let _a = reg.histogram_cell("lat", &[10.0]);
        let _b = reg.histogram_cell("lat", &[20.0]);
        let _ = reg.snapshot();
    }

    #[test]
    #[should_panic(expected = "mismatched bucket bounds")]
    fn cells_with_mismatched_bounds_panic_in_merged() {
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        let _a = a.histogram_cell("lat", &[10.0]);
        let _b = b.histogram_cell("lat", &[20.0]);
        let _ = MetricsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
    }

    #[test]
    fn global_is_a_singleton() {
        let c = global().counter("obs.selftest");
        let before = c.get();
        global().counter("obs.selftest").inc();
        assert_eq!(c.get(), before + 1);
    }
}

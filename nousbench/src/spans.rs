//! The benchmark's own spans around every public call it makes, and the
//! per-layer table built from them plus the registry series the program
//! already records.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Raw spans kept for the span dump (totals are always exact).
const KEEP_RAW: usize = 100_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's span log. Untraced and traced runs record the same
/// spans, so the two differ only in the program's own tracing.
pub struct SpanLog {
    origin: Instant,
    raw: Vec<Span>,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            raw: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Record a span measured by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        let t = self.totals.entry(name).or_insert((0, 0));
        t.0 += 1;
        t.1 += dur_ns;
        if self.raw.len() < KEEP_RAW {
            self.raw.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e9)
    }

    /// Fold another log into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        for (name, (n, ns)) in other.totals {
            let t = self.totals.entry(name).or_insert((0, 0));
            t.0 += n;
            t.1 += ns;
        }
        let room = KEEP_RAW.saturating_sub(self.raw.len());
        self.raw.extend(other.raw.into_iter().take(room));
    }

    /// Write the spans out: one JSON object per line, totals first.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, (n, ns)) in &self.totals {
            writeln!(out, r#"{{"total":"{name}","count":{n},"nanos":{ns}}}"#)?;
        }
        for s in &self.raw {
            writeln!(
                out,
                r#"{{"span":"{}","start_ns":{},"dur_ns":{}}}"#,
                s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Layers of the table, one per crate the workloads reach.
pub const LAYERS: [&str; 10] = [
    "extract", "link", "core", "embed", "persist", "graph", "query", "qa", "mining", "serve",
];

/// One row of a layer table: `(layer, what, seconds)`.
pub type Row = (&'static str, &'static str, f64);

/// The rows of the fastest of several repeats of the same work, each
/// listing rows that add up to its time: like every timing of the
/// benchmark, the repeat a shared host slowed least.
pub fn fastest<'a>(repeats: impl IntoIterator<Item = &'a Vec<Row>>) -> &'a Vec<Row> {
    let total = |rows: &[Row]| rows.iter().map(|r| r.2).sum::<f64>();
    repeats
        .into_iter()
        .min_by(|a, b| total(a).total_cmp(&total(b)))
        .expect("at least one repeat")
}

/// Row-by-row sums of tables that list the same rows in the same order.
pub fn sum_rows(tables: &[&Vec<Row>]) -> Vec<Row> {
    let mut out = tables[0].clone();
    for t in &tables[1..] {
        for (o, r) in out.iter_mut().zip(t.iter()) {
            o.2 += r.2;
        }
    }
    out
}

/// Self time per layer for one workload, against the untraced run's
/// wall time of the same work. Whatever the rows do not explain stays
/// visible as the residual instead of being spread across them.
pub struct LayerTable {
    /// What one unit of work is ("round of 4000 docs", ...).
    pub per: &'static str,
    /// Untraced wall time of the work the table attributes, seconds.
    pub wall_untraced: f64,
    /// Rows from the traced run's repeats of the same work.
    pub rows: Vec<Row>,
}

impl LayerTable {
    pub fn new(per: &'static str, wall_untraced: f64, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| LAYERS.contains(&r.0)), "unknown layer");
        Self {
            per,
            wall_untraced,
            rows,
        }
    }

    pub fn layer_secs(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.0 == layer)
            .map(|r| r.2)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    pub fn residual(&self) -> f64 {
        self.wall_untraced - self.rows.iter().map(|r| r.2).sum::<f64>()
    }

    /// Residual as a share of the untraced wall time.
    pub fn residual_share(&self) -> f64 {
        self.residual() / self.wall_untraced
    }

    /// `<layer>.self_share` for every layer and `table.residual_share`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = LAYERS
            .iter()
            .map(|l| {
                (
                    format!("{l}.self_share"),
                    self.layer_secs(l) / self.wall_untraced,
                )
            })
            .collect();
        out.push(("table.residual_share".into(), self.residual_share()));
        out
    }

    pub fn print(&self, workload: &str) {
        let (scale, unit) = if self.wall_untraced < 0.1 {
            (1e6, "us")
        } else {
            (1.0, "s")
        };
        eprintln!(
            "\nlayer table for {workload}: self time per {}, untraced wall {:.4} {unit}",
            self.per,
            self.wall_untraced * scale
        );
        eprintln!("  {:<9} {:<26} {:>12} {:>7}", "layer", "row", unit, "share");
        for layer in LAYERS {
            for (l, what, s) in self.rows.iter().filter(|r| r.0 == layer) {
                eprintln!(
                    "  {l:<9} {what:<26} {:>12.4} {:>6.1}%",
                    s * scale,
                    100.0 * s / self.wall_untraced
                );
            }
        }
        let ok = self.residual_share().abs() <= 0.10;
        eprintln!(
            "  {:<9} {:<26} {:>12.4} {:>6.1}%  ({})",
            "residual",
            "wall - sum of rows",
            self.residual() * scale,
            100.0 * self.residual_share(),
            if ok {
                "within the 10% bound"
            } else {
                "OUTSIDE the 10% bound"
            }
        );
    }
}

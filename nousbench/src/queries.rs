//! In-process query calls (`parse` + `execute_shared`), timed per query
//! and per class, and checked against reference answers.

use std::collections::BTreeMap;
use std::time::Instant;

use nous_core::SharedSession;
use nous_query::{execute_shared, parse, query_class, QueryResult};

use crate::inputs::{Group, GROUPS};
use crate::spans::SpanLog;
use crate::stats::{percentile, positional_min};

/// Query classes, in reporting order.
pub const CLASSES: [&str; 6] = ["entity", "timeline", "match", "why", "paths", "trending"];

fn exec_span(class: &str) -> &'static str {
    match class {
        "entity" => "query.exec.entity",
        "timeline" => "query.exec.timeline",
        "match" => "query.exec.match",
        "why" => "query.exec.why",
        "paths" => "query.exec.paths",
        _ => "query.exec.trending",
    }
}

/// Per-layer latency samples in microseconds.
#[derive(Default)]
pub struct Latencies {
    pub parse: Vec<f64>,
    /// `execute_shared` alone, per class.
    pub exec: BTreeMap<&'static str, Vec<f64>>,
}

impl Latencies {
    /// `query.parse_p50_us` and `query.<class>.exec_p50_us`/`_p99_us`;
    /// a percentile the sample cannot support reads 0.
    pub fn per_layer(&self) -> Vec<(String, f64)> {
        let mut out = vec![(
            "query.parse_p50_us".to_owned(),
            percentile(&self.parse, 50).unwrap_or(0.0),
        )];
        for c in CLASSES {
            let s = self.exec.get(c).map(Vec::as_slice).unwrap_or(&[]);
            for pct in [50, 99] {
                out.push((
                    format!("query.{c}.exec_p{pct}_us"),
                    percentile(s, pct).unwrap_or(0.0),
                ));
            }
        }
        out
    }
}

/// Run one query through the public entry points and record its timings.
/// Returns the answer and the query's latency (`parse` + `execute_shared`)
/// in microseconds.
pub fn run(
    session: &SharedSession,
    text: &str,
    log: &mut SpanLog,
    lat: &mut Latencies,
) -> (QueryResult, f64) {
    let t0 = Instant::now();
    let query = parse(text);
    let t1 = Instant::now();
    let query = query.expect("generated queries parse");
    let class = query_class(&query);
    let t2 = Instant::now();
    let result = execute_shared(session, &query);
    let t3 = Instant::now();
    log.record("query.parse", t0, t1);
    log.record(exec_span(class), t2, t3);
    let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
    lat.parse.push(us(t0, t1));
    lat.exec.entry(class).or_default().push(us(t2, t3));
    (result, us(t0, t1) + us(t2, t3))
}

/// The answer to every query of `qs`: the references timed passes are
/// checked against. Its timings are discarded.
pub fn references(session: &SharedSession, qs: &[(Group, String)]) -> Vec<QueryResult> {
    let mut log = SpanLog::new(Instant::now());
    let mut lat = Latencies::default();
    qs.iter()
        .map(|(_, text)| run(session, text, &mut log, &mut lat).0)
        .collect()
}

/// One timed pass over `qs` in order, each answer compared with its
/// reference outside the timed call. Returns every query's latency in
/// microseconds, in sequence order, and the number of wrong answers.
pub fn pass(
    session: &SharedSession,
    qs: &[(Group, String)],
    refs: &[QueryResult],
    log: &mut SpanLog,
    lat: &mut Latencies,
) -> (Vec<f64>, u64) {
    let mut failed = 0;
    let us = qs
        .iter()
        .zip(refs)
        .map(|((_, text), reference)| {
            let (r, us) = run(session, text, log, lat);
            if &r != reference {
                failed += 1;
                eprintln!("`{text}` differs from its reference");
            }
            us
        })
        .collect();
    (us, failed)
}

/// End-to-end query metrics from repeated passes over `qs`. Each query's
/// latency is its fastest over the passes; `<group>_p50_us`/`_p99_us` are
/// percentiles of those latencies within the group, and `query_qps` is
/// the sequence length over their sum (one reader's capacity).
pub fn e2e(qs: &[(Group, String)], passes: &[Vec<f64>]) -> Result<Vec<(String, f64)>, String> {
    let best = positional_min(passes);
    let total_s = best.iter().sum::<f64>() / 1e6;
    let mut out = vec![("query_qps".to_owned(), qs.len() as f64 / total_s)];
    for g in GROUPS {
        let s: Vec<f64> = qs
            .iter()
            .zip(&best)
            .filter(|((h, _), _)| *h == g)
            .map(|(_, &us)| us)
            .collect();
        for pct in [50, 99] {
            let v = percentile(&s, pct).ok_or_else(|| {
                format!("{} samples of {} cannot support p{pct}", s.len(), g.name())
            })?;
            out.push((format!("{}_p{pct}_us", g.name()), v));
        }
    }
    Ok(out)
}

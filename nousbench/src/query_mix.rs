//! `query_mix`: a closed-loop reader on a fixed graph, nothing writes.
//!
//! Each repeat sets the graph up (Large world plus 2,000 warm documents,
//! LDA topics, the trend window; the same graph for every seed, which
//! draws the query sequence) and then one reader makes two timed passes
//! over the query sequence, calling `parse` then `execute_shared` and
//! comparing each answer with its reference outside the timed call. The
//! references are rendered once, on the first build, so every later build
//! is checked against them too. A run repeats set-up and passes until its
//! time is up, dropping each build before the next, and takes every
//! operation's fastest time over the repeats: a host slowdown reaches the
//! figures only if it hits every repeat of that operation. The query, qa,
//! mining and graph read paths do all the timed query work; ingest,
//! persist and serve do none.
//!
//! One reader, not one per CPU: on a 2-vCPU host that often delivers
//! about one CPU to two busy threads, two readers moved the WHY and
//! TRENDING medians by 34-42% (quartile spread over median) from run to
//! run. The warm ingest inside set-up (no journal) gives this workload's
//! ingest metrics. A `--trace 1` run ends with a short closed-loop pass
//! of the same queries over HTTP, for the serve layer this workload
//! otherwise bypasses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nous_core::{IngestPipeline, SharedSession};
use nous_obs::MetricsRegistry;
use nous_query::QueryResult;

use crate::inputs::World0;
use crate::queries::{self, Latencies, CLASSES};
use crate::regs::Snap;
use crate::serve;
use crate::spans::{self, LayerTable, Row, SpanLog};
use crate::stats::{median, median_by_name, percentile, positional_min};
use crate::system::{self, GraphState};
use crate::Outcome;

/// Warm documents and documents per `ingest_batch` call in setup: 1,000
/// batches, enough for a freshness p99 with ten samples beyond it.
const WARM: usize = 2000;
const WARM_BATCH: usize = 2;
/// Distinct queries per group.
const QUERIES_PER_GROUP: usize = 2500;
/// Set-ups per side at least, and timed passes after each set-up.
const MIN_BUILDS: usize = 3;
const PASSES_PER_BUILD: usize = 2;
/// Length of the closed-loop HTTP pass of a `--trace 1` run.
const SERVE_PASS: Duration = Duration::from_secs(2);

/// A built fixed graph.
struct Built {
    session: SharedSession,
    /// The pipeline that ingested the warm documents.
    pipe: IngestPipeline,
    reg: MetricsRegistry,
    setup_s: f64,
    /// Per warm batch: the `ingest_batch` call, seconds.
    batch_s: Vec<f64>,
    /// Registry deltas over the warm ingest.
    warm: Snap,
    failed: u64,
    attempted: u64,
}

/// Build the warm session: Large world, `WARM` documents in
/// `WARM_BATCH`-document calls, topics and the trend window.
fn build(w: &World0, warm: &[nous_corpus::Article], traced: bool) -> Built {
    let t = Instant::now();
    let reg = system::registry(traced);
    let session = system::base_session(w, &reg);
    let mut pipe = system::pipeline(WARM_BATCH, &reg);
    let mut failed = 0;
    let before = Snap::read(&reg);
    let batch_s = system::ingest_timed(&session, &mut pipe, warm, WARM_BATCH, &mut failed);
    let warm_delta = Snap::read(&reg).since(&before);
    system::finish_warm(&session);
    system::settle(&session);
    Built {
        session,
        pipe,
        reg,
        setup_s: t.elapsed().as_secs_f64(),
        attempted: batch_s.len() as u64,
        batch_s,
        warm: warm_delta,
        failed,
    }
}

/// Where one traced pass's time went, seconds: the registry deltas `d`
/// and the benchmark's spans `log` over the pass.
fn rows(d: &Snap, log: &SpanLog) -> Vec<Row> {
    let exec_spans: f64 = CLASSES
        .iter()
        .map(|c| log.secs(&format!("query.exec.{c}")))
        .sum();
    vec![
        ("query", "parse", log.secs("query.parse")),
        (
            "query",
            "execute_shared dispatch",
            exec_spans - d.query_exec_s() - d.get("trends_wait_s"),
        ),
        (
            "query",
            "lookup executors",
            d.get("q_entity_s") + d.get("q_timeline_s") + d.get("q_match_s"),
        ),
        ("query", "WHY executor", d.get("q_why_s") - d.get("qa_s")),
        ("qa", "WHY coherent search", d.get("qa_s")),
        ("qa", "PATHS executor (search)", d.get("q_paths_s")),
        ("mining", "trending executor", d.get("q_trending_s")),
        ("core", "trend-lock wait", d.get("trends_wait_s")),
    ]
}

/// What one timed pass over the query sequence measured.
struct Pass {
    /// Per query, microseconds.
    us: Vec<f64>,
    /// Where the pass's time went (meaningful for traced passes).
    rows: Vec<Row>,
    trends_wait_s: f64,
}

/// What one set-up-then-query repeat measured.
struct Repeat {
    setup_s: f64,
    batch_s: Vec<f64>,
    /// Registry deltas over the warm ingest.
    warm: Snap,
    passes: Vec<Pass>,
}

pub fn run(w: &World0, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let warm = w.warm(WARM);
    let qs = w.queries(seed, QUERIES_PER_GROUP);
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut log = SpanLog::new(start);
    let (mut lat, mut tlat) = (Latencies::default(), Latencies::default());
    // Rendered on the first build, with the exact path-search counts of
    // one pass, the graph's state and the trend miner's size.
    let mut reference: Option<(Vec<QueryResult>, Snap, GraphState, usize)> = None;
    let (mut plain, mut traced): (Vec<Repeat>, Vec<Repeat>) = (Vec::new(), Vec::new());
    let mut last_plain: Option<Built> = None;
    // Repeats of set-up then timed passes; with --trace 1, pairs of an
    // untraced and a traced repeat in alternating order. A build is
    // dropped before the next starts, except that a --trace 1 run keeps
    // the last untraced one for its HTTP pass.
    while plain.len() < MIN_BUILDS || start.elapsed().as_secs() < seconds {
        let order: &[bool] = match (trace, plain.len() % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &is_traced in order {
            let b = build(w, &warm, is_traced);
            out.attempted += b.attempted;
            out.failed += b.failed;
            let (refs, ..) = reference.get_or_insert_with(|| {
                let before = Snap::read(&b.reg);
                let refs = queries::references(&b.session, &qs);
                let ref_pass = Snap::read(&b.reg).since(&before);
                let state = system::graph_state(&b.session, system::edge_count(&b.session));
                let patterns = b
                    .session
                    .with_trends_only(|t| t.miner_mut().tracked_patterns());
                (refs, ref_pass, state, patterns)
            });
            let lat = if is_traced { &mut tlat } else { &mut lat };
            let mut pass_logs = Vec::new();
            let passes = (0..PASSES_PER_BUILD)
                .map(|_| {
                    let before = Snap::read(&b.reg);
                    let mut pass_log = SpanLog::new(start);
                    let (us, wrong) = queries::pass(&b.session, &qs, refs, &mut pass_log, lat);
                    let delta = Snap::read(&b.reg).since(&before);
                    out.attempted += qs.len() as u64;
                    out.failed += wrong;
                    let pass = Pass {
                        us,
                        rows: rows(&delta, &pass_log),
                        trends_wait_s: delta.get("trends_wait_s"),
                    };
                    pass_logs.push(pass_log);
                    pass
                })
                .collect();
            let r = Repeat {
                setup_s: b.setup_s,
                batch_s: b.batch_s.clone(),
                warm: b.warm.clone(),
                passes,
            };
            if is_traced {
                for l in pass_logs {
                    log.absorb(l);
                }
                traced.push(r);
            } else {
                plain.push(r);
                if trace {
                    last_plain = Some(b);
                }
            }
        }
    }
    if !trace {
        let batches: Vec<Vec<f64>> = plain.iter().map(|r| r.batch_s.clone()).collect();
        let fresh_ms: Vec<f64> = positional_min(&batches).iter().map(|s| s * 1e3).collect();
        let pct = |pct| {
            percentile(&fresh_ms, pct).ok_or_else(|| {
                format!("{} freshness samples cannot support p{pct}", fresh_ms.len())
            })
        };
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        out.push("setup_s", median(&setups));
        out.push(
            "ingest_docs_per_s",
            WARM as f64 / (fresh_ms.iter().sum::<f64>() / 1e3),
        );
        out.push("freshness_p50_ms", pct(50)?);
        out.push("freshness_p99_ms", pct(99)?);
        let passes: Vec<Vec<f64>> = plain
            .iter()
            .flat_map(|r| r.passes.iter().map(|p| p.us.clone()))
            .collect();
        out.extend(queries::e2e(&qs, &passes)?);
        return Ok(out);
    }

    let (_, ref_pass, state, patterns) = reference.expect("at least one build");
    let warm_metrics: Vec<Vec<(String, f64)>> =
        plain.iter().map(|r| r.warm.ingest_metrics()).collect();
    out.extend(median_by_name(&warm_metrics));
    out.extend(lat.per_layer());
    out.extend(ref_pass.qa_metrics());
    fn passes(rs: &[Repeat]) -> Vec<&Pass> {
        rs.iter().flat_map(|r| &r.passes).collect()
    }
    out.push(
        "core.lock.trends_wait_s",
        median(
            &passes(&plain)
                .iter()
                .map(|p| p.trends_wait_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.extend(state.metrics());
    out.push("mining.patterns_tracked", patterns as f64);
    // The fastest whole pass on each side: the table's rows are one pass's
    // totals, and its rows add up to that pass's query times.
    let wall = |rs: &[Repeat]| {
        passes(rs)
            .iter()
            .map(|p| p.us.iter().sum::<f64>() / 1e6)
            .fold(f64::INFINITY, f64::min)
    };
    let wall_plain = wall(&plain);
    out.push("obs.tracing_overhead", wall(&traced) / wall_plain - 1.0);
    let per_traced: Vec<Vec<Row>> = passes(&traced).iter().map(|p| p.rows.clone()).collect();
    let table = LayerTable::new(
        "pass of 10000 queries",
        wall_plain,
        spans::fastest(&per_traced).clone(),
    );
    table.print("query_mix");
    out.extend(table.metrics());
    out.spans = Some(log);

    // The serve layer, which this workload otherwise bypasses: the same
    // sequence over one keep-alive HTTP connection to an untraced graph.
    let Built {
        session, pipe, reg, ..
    } = last_plain.expect("an untraced build");
    let (metrics, sent, failed) = serve::serve_pass(Arc::new(session), pipe, &reg, &qs, SERVE_PASS);
    out.extend(metrics);
    out.attempted += sent;
    out.failed += failed;
    Ok(out)
}

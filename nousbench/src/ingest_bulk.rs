//! `ingest_bulk`: closed-loop durable ingest with no readers.
//!
//! One thread sends fresh articles in micro-batches through
//! `SharedSession::ingest_batch` with a `DurableStore` journal attached,
//! calling `maybe_checkpoint` after each batch as `examples/durable.rs`
//! does. Extraction, linking, admission, WAL, checkpointing and
//! publish/compaction do all the work. Each round starts from a fresh
//! session over the same seeded documents, so rounds repeat one
//! experiment: every batch's time is taken as its fastest over the rounds
//! at the same position in the stream, which keeps a host slowdown that
//! spares one round at that position out of the figures.
//!
//! Before the ingest phase a round times three single-threaded passes of
//! the query sequence on the freshly set-up curated graph, every answer
//! checked against a reference rendered once in setup; each query's
//! fastest time over every round's passes gives this workload's query metrics,
//! which an ingest-side change should leave alone. After the ingest phase the round checks the result: the
//! store is reopened with `DurableStore::open` and must hold the live
//! graph, and the head of the query sequence must answer the same on the
//! recovered graph as on the live one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nous_core::{IngestPipeline, SharedSession};
use nous_corpus::Article;
use nous_obs::MetricsRegistry;
use nous_persist::DurableStore;
use nous_query::QueryResult;

use crate::inputs::{Group, World0};
use crate::queries::{self, Latencies};
use crate::regs::{histogram, Snap};
use crate::spans::{self, LayerTable, Row, SpanLog};
use crate::stats::{median, median_by_name, percentile, positional_min};
use crate::system::{self, GraphState};
use crate::Outcome;

/// Fresh documents per round and per `ingest_batch` call: 1,000 batches,
/// enough for a freshness p99 with ten samples beyond it.
const DOCS: usize = 4000;
const BATCH: usize = 4;
/// Pre-ingest queries per group, and timed passes over them per round.
const QUERIES_PER_GROUP: usize = 2500;
const QUERY_PASSES: usize = 3;
/// Queries compared between the live and the recovered graph.
const ORACLE_QUERIES: usize = 48;
/// Rounds per side at least.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed before each untraced round, so `setup_s` is a median
/// of samples spread over the whole run.
const SETUPS_PER_ROUND: usize = 5;

struct Round {
    /// Per batch: the `ingest_batch` call, seconds.
    batch_s: Vec<f64>,
    /// Per batch: `ingest_batch` plus `maybe_checkpoint`, seconds.
    step_s: Vec<f64>,
    /// Per batch, where its step went (only in a `--trace 1` run).
    batch_rows: Vec<Vec<Row>>,
    /// Per pre-ingest pass, per query, microseconds.
    query_us: Vec<Vec<f64>>,
    lat: Latencies,
    failed: u64,
    attempted: u64,
    /// Registry deltas over the ingest phase.
    ingest: Snap,
    /// Registry deltas over the pre-ingest passes.
    query: Snap,
    log: SpanLog,
    journal_s: f64,
    end: GraphState,
    publish_p99_us: f64,
    patterns_tracked: usize,
    quarantined: usize,
    recover_s: f64,
    lost_acked_docs: u64,
    disk_bytes_per_fact: f64,
}

impl Round {
    /// Write-lock hold time no stage series or the journal accounts for.
    fn merge_unattributed_s(&self) -> f64 {
        let i = &self.ingest;
        i.get("write_hold_s") - i.merge_stages_s() - self.journal_s
    }
}

/// A session over the curated graph with a timed durable journal.
struct Rig {
    reg: MetricsRegistry,
    session: SharedSession,
    pipe: IngestPipeline,
    store: DurableStore,
    acks: Arc<system::Acks>,
    journal_ns: Arc<AtomicU64>,
    dir: std::path::PathBuf,
    setup_s: f64,
}

/// Set up a [`Rig`]; a traced rig's registry records traces.
fn setup(w: &World0, traced: bool) -> Rig {
    let dir = system::work_dir("ingest_bulk");
    let t = Instant::now();
    let reg = system::registry(traced);
    let session = system::base_session(w, &reg);
    let mut pipe = system::pipeline(BATCH, &reg);
    let journal_ns = Arc::new(AtomicU64::new(0));
    let (store, acks) =
        system::attach_store(&dir, &session, &mut pipe, &reg, Arc::clone(&journal_ns));
    let setup_s = t.elapsed().as_secs_f64();
    session.with_trends(|trends, kg| trends.observe(kg));
    Rig {
        reg,
        session,
        pipe,
        store,
        acks,
        journal_ns,
        dir,
        setup_s,
    }
}

/// One round on `rig`; its spans are timed from `origin`, the start of
/// the run. With `per_batch` (the rounds of a `--trace 1` run, traced or
/// not) it reads the registry after every batch, outside the timed calls,
/// to split each batch's time into layer rows.
fn round(
    origin: Instant,
    docs: &[Article],
    qs: &[(Group, String)],
    refs: &[QueryResult],
    rig: Rig,
    per_batch: bool,
) -> Round {
    let mut log = SpanLog::new(origin);
    let Rig {
        reg,
        session,
        mut pipe,
        mut store,
        acks,
        journal_ns,
        dir,
        setup_s: _,
    } = rig;
    let edges_start = system::edge_count(&session);

    // Pre-ingest passes: the query metrics, on the curated graph.
    let patterns_tracked = session.with_trends_only(|t| t.miner_mut().tracked_patterns());
    let before = Snap::read(&reg);
    let mut lat = Latencies::default();
    let (mut attempted, mut failed) = (0, 0);
    let query_us: Vec<Vec<f64>> = (0..QUERY_PASSES)
        .map(|_| {
            let (us, wrong) = queries::pass(&session, qs, refs, &mut log, &mut lat);
            attempted += qs.len() as u64;
            failed += wrong;
            us
        })
        .collect();
    let query = Snap::read(&reg).since(&before);

    let before = Snap::read(&reg);
    let t = Instant::now();
    let mut batch_s = Vec::with_capacity(docs.len() / BATCH + 1);
    let mut step_s = Vec::with_capacity(docs.len() / BATCH + 1);
    let mut batch_rows = Vec::new();
    let mut prev_read = per_batch.then(|| (before.clone(), 0));
    let mut prev = pipe.report().documents;
    for chunk in docs.chunks(BATCH) {
        let t0 = Instant::now();
        let rep = session.ingest_batch(&mut pipe, chunk);
        let t1 = Instant::now();
        let ckpt = session.checkpoint_with(|kg| store.maybe_checkpoint(kg, &pipe.report()));
        let t2 = Instant::now();
        log.record("core.ingest_batch", t0, t1);
        log.record("persist.maybe_checkpoint", t1, t2);
        attempted += 1;
        if rep.documents != prev + chunk.len() || ckpt.is_err() {
            failed += 1;
            eprintln!(
                "ingest_bulk: batch of {} acked {} documents (checkpoint {:?})",
                chunk.len(),
                rep.documents - prev,
                ckpt.err()
            );
        }
        prev = rep.documents;
        batch_s.push(t1.duration_since(t0).as_secs_f64());
        step_s.push(t2.duration_since(t0).as_secs_f64());
        if let Some((snap, journal)) = &mut prev_read {
            let (now, journal_now) = (Snap::read(&reg), journal_ns.load(Ordering::Relaxed));
            batch_rows.push(rows(
                &now.since(snap),
                (journal_now - *journal) as f64 / 1e9,
                t1.duration_since(t0).as_secs_f64(),
                t2.duration_since(t1).as_secs_f64(),
            ));
            (*snap, *journal) = (now, journal_now);
        }
    }
    let ingest_s = t.elapsed().as_secs_f64();
    system::settle(&session);
    let ingest = Snap::read(&reg).since(&before);
    let end = system::graph_state(&session, edges_start);
    let publish_p99_us = histogram(&reg, "nous_snapshot_publish_seconds", &[]).quantile(0.99) / 1e3;
    let quarantined = pipe.dead_letters().len();

    // Recovery and the answer oracle.
    drop(pipe.take_journal());
    drop(store);
    let acked = acks.docs.lock().expect("ack list").clone();
    let check = session.read(|kg, _| system::check_recovery(&dir, kg, &acked, &acks.report()));
    failed += check.failures;
    attempted += 1;
    session.with_trends(|trends, kg| trends.observe(kg));
    let oracle = &qs[..ORACLE_QUERIES];
    let answers = queries::references(&session, oracle);
    let recovered = SharedSession::new(
        check.recovered,
        nous_qa::TopicIndex::new(2),
        system::trend_monitor(),
    );
    recovered.with_trends(|trends, kg| trends.observe(kg));
    for ((_, text), (live, got)) in oracle
        .iter()
        .zip(answers.iter().zip(queries::references(&recovered, oracle)))
    {
        attempted += 1;
        if &got != live {
            failed += 1;
            eprintln!("ingest_bulk: `{text}` answers differently after recovery");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "ingest_bulk round{}: ingest {ingest_s:.3} s, queries {:.3} s, recovery {:.3} s, \
         edges {} -> {}",
        if reg.tracing_enabled() {
            " (traced)"
        } else {
            ""
        },
        query_us.iter().flatten().sum::<f64>() / 1e6,
        check.recover_s,
        end.edges_start,
        end.edges
    );
    Round {
        batch_s,
        step_s,
        batch_rows,
        query_us,
        lat,
        failed,
        attempted,
        ingest,
        query,
        log,
        journal_s: journal_ns.load(Ordering::Relaxed) as f64 / 1e9,
        end,
        publish_p99_us,
        patterns_tracked,
        quarantined,
        recover_s: check.recover_s,
        lost_acked_docs: check.lost_acked_docs,
        disk_bytes_per_fact: check.disk_bytes as f64 / acks.report().admitted.max(1) as f64,
    }
}

/// Release a rig that ran no round, and its store.
fn discard(rig: Rig) {
    let dir = rig.dir.clone();
    drop(rig);
    let _ = std::fs::remove_dir_all(dir);
}

/// Time one set-up and release it.
fn setup_once(w: &World0) -> f64 {
    let rig = setup(w, false);
    let secs = rig.setup_s;
    discard(rig);
    secs
}

/// Where one batch's step went, seconds: `d` holds the registry deltas
/// over the step, `journal_s` the journal's share of it, `call_s` the
/// `ingest_batch` call and `checkpoint_call_s` the `maybe_checkpoint`
/// call. The rows add up to the step.
fn rows(d: &Snap, journal_s: f64, call_s: f64, checkpoint_call_s: f64) -> Vec<Row> {
    let hold = d.get("write_hold_s");
    vec![
        ("extract", "extract (fan-out wall)", d.get("extract_s")),
        ("core", "map", d.get("map_s")),
        ("link", "disambiguate", d.get("disambiguate_s")),
        ("embed", "score", d.get("score_s")),
        ("core", "gate", d.get("gate_s")),
        ("core", "admit", d.get("admit_s")),
        ("persist", "journal", journal_s),
        (
            "core",
            "merge unattributed",
            hold - d.merge_stages_s() - journal_s,
        ),
        ("core", "write-lock wait", d.get("write_wait_s")),
        ("graph", "publish", d.get("publish_s")),
        (
            "core",
            "ingest_batch other",
            call_s - d.get("extract_s") - hold - d.get("write_wait_s") - d.get("publish_s"),
        ),
        ("persist", "checkpoint write", d.get("checkpoint_s")),
        (
            "core",
            "checkpoint_with",
            checkpoint_call_s - d.get("checkpoint_s"),
        ),
    ]
}

pub fn run(w: &World0, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let docs = w.stream(seed, DOCS);
    let qs = w.queries(seed, QUERIES_PER_GROUP);
    let refs = {
        let rig = setup(w, false);
        let refs = queries::references(&rig.session, &qs);
        discard(rig);
        refs
    };
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut count = |r: Round| {
        out.attempted += r.attempted;
        out.failed += r.failed;
        r
    };
    // Untraced rounds; with --trace 1, after an unreported warm-up round,
    // pairs of an untraced and a traced round in alternating order so
    // slow drift of the host lands on both sides alike. Both sides run
    // the same benchmark code and differ only in registry tracing.
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    if trace {
        count(round(start, &docs, &qs, &refs, setup(w, false), true));
    }
    while plain.len() < MIN_ROUNDS || start.elapsed().as_secs() < seconds {
        let order: &[bool] = match (trace, plain.len() % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &is_traced in order {
            if !trace {
                setups.extend((0..SETUPS_PER_ROUND).map(|_| setup_once(w)));
            }
            let rig = setup(w, is_traced);
            if !is_traced {
                setups.push(rig.setup_s);
            }
            let r = count(round(start, &docs, &qs, &refs, rig, trace));
            if is_traced { &mut traced } else { &mut plain }.push(r);
        }
    }
    let best = |f: &dyn Fn(&Round) -> &Vec<f64>| {
        positional_min(&plain.iter().map(|r| f(r).clone()).collect::<Vec<_>>())
    };
    if !trace {
        let fresh_ms: Vec<f64> = best(&|r| &r.batch_s).iter().map(|s| s * 1e3).collect();
        let p = |pct| {
            percentile(&fresh_ms, pct).ok_or_else(|| {
                format!("{} freshness samples cannot support p{pct}", fresh_ms.len())
            })
        };
        out.push("setup_s", median(&setups));
        out.push(
            "ingest_docs_per_s",
            DOCS as f64 / best(&|r| &r.step_s).iter().sum::<f64>(),
        );
        out.push("freshness_p50_ms", p(50)?);
        out.push("freshness_p99_ms", p(99)?);
        let query_passes: Vec<Vec<f64>> = plain.iter().flat_map(|r| r.query_us.clone()).collect();
        out.extend(queries::e2e(&qs, &query_passes)?);
        return Ok(out);
    }

    // Per-layer metrics: counters and busy times from the untraced
    // rounds, the layer table from the traced ones.
    let med = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let mut lat = Latencies::default();
    for r in &plain {
        lat.parse.extend(&r.lat.parse);
        for (k, v) in &r.lat.exec {
            lat.exec.entry(k).or_default().extend(v);
        }
    }
    out.extend(lat.per_layer());
    let per_round: Vec<Vec<(String, f64)>> = plain
        .iter()
        .map(|r| {
            let mut m = r.ingest.ingest_metrics();
            m.extend(r.query.qa_metrics());
            m.extend(r.end.metrics());
            m
        })
        .collect();
    out.extend(median_by_name(&per_round));
    out.push("extract.quarantined", med(&|r| r.quarantined as f64));
    out.push(
        "core.merge_unattributed_s",
        med(&Round::merge_unattributed_s),
    );
    out.push(
        "core.lock.trends_wait_s",
        med(&|r| r.query.get("trends_wait_s")),
    );
    out.push("persist.journal.busy_s", med(&|r| r.journal_s));
    out.push("persist.recover_s", med(&|r| r.recover_s));
    out.push(
        "persist.lost_acked_docs",
        plain
            .iter()
            .chain(&traced)
            .map(|r| r.lost_acked_docs)
            .sum::<u64>() as f64,
    );
    out.push(
        "persist.disk_bytes_per_fact",
        med(&|r| r.disk_bytes_per_fact),
    );
    out.push("graph.publish_p99_us", med(&|r| r.publish_p99_us));
    out.push(
        "mining.patterns_tracked",
        med(&|r| r.patterns_tracked as f64),
    );
    // Each batch position's fastest round on each side, as for the
    // end-to-end figures; the table takes the rows of the fastest traced
    // round at every position.
    let wall = |rs: &[Round]| {
        positional_min(&rs.iter().map(|r| r.step_s.clone()).collect::<Vec<_>>())
            .iter()
            .sum::<f64>()
    };
    let wall_plain = wall(&plain);
    out.push("obs.tracing_overhead", wall(&traced) / wall_plain - 1.0);
    let fastest_per_batch: Vec<&Vec<Row>> = (0..traced[0].batch_rows.len())
        .map(|i| spans::fastest(traced.iter().map(|r| &r.batch_rows[i])))
        .collect();
    let table = LayerTable::new(
        "round of 4000 docs",
        wall_plain,
        spans::sum_rows(&fastest_per_batch),
    );
    table.print("ingest_bulk");
    out.extend(table.metrics());
    let mut log = SpanLog::new(start);
    for r in traced {
        log.absorb(r.log);
    }
    out.spans = Some(log);
    Ok(out)
}

//! The system under test, assembled from the public API the way the
//! examples assemble it, plus the outside-in hooks and correctness checks
//! every workload shares.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nous_core::{
    AdmittedFact, IngestJournal, IngestPipeline, IngestReport, KnowledgeGraph, PipelineConfig,
    SharedSession, TrendMonitor,
};
use nous_corpus::Article;
use nous_graph::window::WindowKind;
use nous_graph::Provenance;
use nous_mining::{EvictionStrategy, MinerConfig};
use nous_obs::MetricsRegistry;
use nous_persist::{AckHook, DurabilityConfig, DurableStore};
use nous_qa::TopicIndex;
use nous_text::ner::EntityType;
use nous_topics::LdaConfig;

use crate::inputs::World0;

/// Extraction workers per micro-batch: the 2 CPUs of the reference host,
/// fixed so a run on another host does the same work.
pub const EXTRACT_WORKERS: usize = 2;

/// Flight-recorder settings of `examples/serve.rs`, used by traced runs.
pub fn registry(traced: bool) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    if traced {
        reg.enable_tracing(42, 256, 1_000_000);
    }
    reg
}

/// The trend monitor of `examples/serve.rs`.
pub fn trend_monitor() -> TrendMonitor {
    TrendMonitor::new(
        WindowKind::Count { n: 200 },
        MinerConfig {
            k_max: 2,
            min_support: 3,
            eviction: EvictionStrategy::Eager,
        },
    )
}

pub fn pipeline(batch: usize, reg: &MetricsRegistry) -> IngestPipeline {
    IngestPipeline::with_registry(
        PipelineConfig {
            batch_size: batch,
            extract_workers: EXTRACT_WORKERS,
            ..Default::default()
        },
        reg.clone(),
    )
}

/// A live session over the curated Large world with a trained predictor.
pub fn base_session(w: &World0, reg: &MetricsRegistry) -> SharedSession {
    let mut kg = KnowledgeGraph::from_curated(&w.world, &w.kb);
    kg.train_predictor();
    SharedSession::with_registry(kg, TopicIndex::new(2), trend_monitor(), reg.clone())
}

/// Ingest `docs` in `batch`-document calls, returning each call's
/// latency in seconds. Counts a call whose report does not grow by
/// exactly the batch's documents as failed.
pub fn ingest_timed(
    session: &SharedSession,
    pipe: &mut IngestPipeline,
    docs: &[Article],
    batch: usize,
    failed: &mut u64,
) -> Vec<f64> {
    let mut prev = pipe.report().documents;
    docs.chunks(batch)
        .map(|chunk| {
            let t = Instant::now();
            let rep = session.ingest_batch(pipe, chunk);
            let secs = t.elapsed().as_secs_f64();
            if rep.documents != prev + chunk.len() {
                *failed += 1;
                eprintln!(
                    "ingest ack mismatch: {} documents for a batch of {}",
                    rep.documents - prev,
                    chunk.len()
                );
            }
            prev = rep.documents;
            secs
        })
        .collect()
}

/// Finish a warm session: LDA topics and the trend window over the
/// ingested graph, as `examples/serve.rs` does after seeding.
pub fn finish_warm(session: &SharedSession) {
    let topics = session.read(|kg, _| {
        kg.build_topic_index(&LdaConfig {
            iterations: 20,
            ..Default::default()
        })
    });
    session.set_topics(topics);
    session.with_trends(|trends, kg| trends.observe(kg));
}

/// Times every call the pipeline makes into the journal it was given.
pub struct TimedJournal {
    inner: Box<dyn IngestJournal>,
    busy_ns: Arc<AtomicU64>,
}

impl TimedJournal {
    pub fn wrap(inner: Box<dyn IngestJournal>, busy_ns: Arc<AtomicU64>) -> Box<dyn IngestJournal> {
        Box::new(Self { inner, busy_ns })
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn IngestJournal)) {
        let t = Instant::now();
        f(self.inner.as_mut());
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl IngestJournal for TimedJournal {
    fn entity_created(&mut self, name: &str, ty: EntityType) {
        self.timed(|j| j.entity_created(name, ty));
    }

    fn fact_admitted(&mut self, fact: &AdmittedFact) {
        self.timed(|j| j.fact_admitted(fact));
    }

    fn document_merged(&mut self, doc_id: u64, delta: &IngestReport) {
        self.timed(|j| j.document_merged(doc_id, delta));
    }
}

/// Documents the WAL acked, and the cumulative report they add up to
/// (starting from the report the store's baseline checkpoint holds).
pub struct Acks {
    pub docs: Mutex<Vec<u64>>,
    pub report: Mutex<IngestReport>,
}

impl Acks {
    pub fn new(base: IngestReport) -> Arc<Self> {
        Arc::new(Self {
            docs: Mutex::new(Vec::new()),
            report: Mutex::new(base),
        })
    }

    pub fn hook(self: &Arc<Self>) -> AckHook {
        let acks = Arc::clone(self);
        Arc::new(move |rec| {
            acks.docs.lock().expect("ack list").push(rec.doc_id);
            let mut r = acks.report.lock().expect("ack report");
            *r = add(&r, &rec.delta);
        })
    }

    pub fn report(&self) -> IngestReport {
        self.report.lock().expect("ack report").clone()
    }
}

fn add(a: &IngestReport, b: &IngestReport) -> IngestReport {
    IngestReport {
        documents: a.documents + b.documents,
        sentences: a.sentences + b.sentences,
        raw_triples: a.raw_triples + b.raw_triples,
        duplicate_triples: a.duplicate_triples + b.duplicate_triples,
        mapped: a.mapped + b.mapped,
        unmapped: a.unmapped + b.unmapped,
        unresolved_entity: a.unresolved_entity + b.unresolved_entity,
        new_entities: a.new_entities + b.new_entities,
        admitted: a.admitted + b.admitted,
        rejected: a.rejected + b.rejected,
        gated: a.gated + b.gated,
    }
}

/// A durable store whose baseline checkpoint is the session's current
/// graph, with the WAL journal (ack-tracked, and timed into `busy_ns`)
/// installed on `pipe`.
pub fn attach_store(
    dir: &Path,
    session: &SharedSession,
    pipe: &mut IngestPipeline,
    reg: &MetricsRegistry,
    busy_ns: Arc<AtomicU64>,
) -> (DurableStore, Arc<Acks>) {
    let _ = std::fs::remove_dir_all(dir);
    let report = pipe.report();
    let store = session
        .checkpoint_with(|kg| {
            DurableStore::create(dir, DurabilityConfig::default(), kg, &report, reg)
        })
        .expect("create durable store");
    let acks = Acks::new(report);
    let journal = store.journal_with_ack(acks.hook());
    pipe.set_journal(TimedJournal::wrap(journal, busy_ns));
    (store, acks)
}

/// Graph-state and pathology counters at the end of a measured phase.
pub struct GraphState {
    pub edges_start: usize,
    pub edges: usize,
    pub distinct_triples: usize,
    /// Live edges per distinct `(subject, predicate, object)`.
    pub multiplicity: f64,
    /// Delta overlays stacked on the published snapshot's base.
    pub overlay_layers: usize,
}

pub fn graph_state(session: &SharedSession, edges_start: usize) -> GraphState {
    let (edges, distinct_triples) = session.read(|kg, _| {
        let g = &kg.graph;
        let triples: BTreeSet<(u32, u32, u32)> = g
            .iter_edges()
            .map(|(_, e)| (e.src.0, e.pred.0, e.dst.0))
            .collect();
        (g.edge_count(), triples.len())
    });
    GraphState {
        edges_start,
        edges,
        distinct_triples,
        multiplicity: edges as f64 / distinct_triples.max(1) as f64,
        overlay_layers: session.frozen().view.layer_count(),
    }
}

impl GraphState {
    pub fn metrics(&self) -> Vec<(String, f64)> {
        [
            ("graph.edges_start", self.edges_start as f64),
            ("graph.edges_end", self.edges as f64),
            ("graph.distinct_triples", self.distinct_triples as f64),
            ("graph.parallel_edge_multiplicity", self.multiplicity),
            ("graph.overlay_layers_end", self.overlay_layers as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }
}

/// Live edge count of a session's graph.
pub fn edge_count(session: &SharedSession) -> usize {
    session.read(|kg, _| kg.graph.edge_count())
}

/// Name-level multiset of live edges, `(subject, predicate, object,
/// document)`: equal for two graphs that hold the same facts, whatever
/// their internal ids.
pub fn edge_digest(kg: &KnowledgeGraph) -> Vec<(String, String, String, Option<u64>)> {
    let g = &kg.graph;
    let mut v: Vec<_> = g
        .iter_edges()
        .map(|(_, e)| {
            let doc = match e.provenance {
                Provenance::Extracted { doc_id } => Some(doc_id),
                Provenance::Curated => None,
            };
            (
                g.vertex_name(e.src).to_owned(),
                g.predicate_name(e.pred).to_owned(),
                g.vertex_name(e.dst).to_owned(),
                doc,
            )
        })
        .collect();
    v.sort();
    v
}

/// Outcome of reopening a store after the live run.
pub struct RecoveryCheck {
    pub recover_s: f64,
    pub lost_acked_docs: u64,
    pub disk_bytes: u64,
    pub failures: u64,
    pub recovered: KnowledgeGraph,
}

/// Reopen `dir` with `DurableStore::open` and check it against the live
/// graph: same live edge count, same facts, and every acked document that
/// left a fact in the live graph present in the recovered one.
pub fn check_recovery(
    dir: &Path,
    live: &KnowledgeGraph,
    acked: &[u64],
    acked_report: &IngestReport,
) -> RecoveryCheck {
    let disk_bytes = dir_bytes(dir);
    let t = Instant::now();
    let (store, rec) =
        DurableStore::open(dir, DurabilityConfig::default(), &MetricsRegistry::new())
            .expect("reopen durable store");
    let recover_s = t.elapsed().as_secs_f64();
    drop(store);
    let mut failures = 0;
    if rec.kg.graph.edge_count() != live.graph.edge_count() {
        failures += 1;
        eprintln!(
            "recovery: {} live edges recovered as {}",
            live.graph.edge_count(),
            rec.kg.graph.edge_count()
        );
    }
    let (a, b) = (edge_digest(live), edge_digest(&rec.kg));
    if a != b {
        failures += 1;
        eprintln!("recovery: recovered facts differ from the live graph");
    }
    if rec.report.documents != acked_report.documents {
        failures += 1;
        eprintln!(
            "recovery: report restores {} documents, {} were acked",
            rec.report.documents, acked_report.documents
        );
    }
    let docs_of = |d: &[(String, String, String, Option<u64>)]| -> BTreeSet<u64> {
        d.iter().filter_map(|e| e.3).collect()
    };
    let (live_docs, rec_docs) = (docs_of(&a), docs_of(&b));
    let lost_acked_docs = acked
        .iter()
        .filter(|d| live_docs.contains(d) && !rec_docs.contains(d))
        .count() as u64;
    if lost_acked_docs > 0 {
        failures += 1;
        eprintln!("recovery: {lost_acked_docs} acked documents missing after recovery");
    }
    RecoveryCheck {
        recover_s,
        lost_acked_docs,
        disk_bytes,
        failures,
        recovered: rec.kg,
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Working directory for a workload's durable store, inside the
/// benchmark's own directory so a run writes only inside its checkout.
pub fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{name}-{}", std::process::id()))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wait for an in-flight background compaction to finish, so it does not
/// spill into the next phase.
pub fn settle(session: &SharedSession) {
    while session.is_compacting() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

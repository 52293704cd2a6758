//! The registry series the program already records, read from outside
//! at the start and end of a measured phase.

use std::collections::BTreeMap;

use nous_obs::{Histogram, MetricsRegistry};

enum Kind {
    /// Histogram sum; latency series are converted to seconds.
    Sum,
    /// Histogram observation count.
    Count,
    Counter,
}

struct Probe {
    key: &'static str,
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    kind: Kind,
}

const fn p(
    key: &'static str,
    name: &'static str,
    labels: &'static [(&'static str, &'static str)],
    kind: Kind,
) -> Probe {
    Probe {
        key,
        name,
        labels,
        kind,
    }
}

const STAGE: &str = "nous_ingest_stage_seconds";
const WAIT: &str = "nous_session_lock_wait_seconds";
const HOLD: &str = "nous_session_lock_hold_seconds";
const QUERY: &str = "nous_query_seconds";
const HTTP: &str = "nous_http_request_seconds";

const PROBES: &[Probe] = &[
    p("extract_s", STAGE, &[("stage", "extract")], Kind::Sum),
    p("map_s", STAGE, &[("stage", "map")], Kind::Sum),
    p(
        "disambiguate_s",
        STAGE,
        &[("stage", "disambiguate")],
        Kind::Sum,
    ),
    p("score_s", STAGE, &[("stage", "score")], Kind::Sum),
    p("gate_s", STAGE, &[("stage", "gate")], Kind::Sum),
    p("admit_s", STAGE, &[("stage", "admit")], Kind::Sum),
    p("read_wait_s", WAIT, &[("lock", "read")], Kind::Sum),
    p("write_wait_s", WAIT, &[("lock", "write")], Kind::Sum),
    p("trends_wait_s", WAIT, &[("lock", "trends")], Kind::Sum),
    p("write_hold_s", HOLD, &[("lock", "write")], Kind::Sum),
    p("publish_s", "nous_snapshot_publish_seconds", &[], Kind::Sum),
    p("compaction_s", "nous_compaction_seconds", &[], Kind::Sum),
    p("compactions", "nous_compactions_total", &[], Kind::Counter),
    p(
        "full_rebuilds",
        "nous_snapshot_full_rebuilds_total",
        &[],
        Kind::Counter,
    ),
    p("wal_appends", "nous_wal_appends_total", &[], Kind::Counter),
    p("wal_fsyncs", "nous_wal_fsyncs_total", &[], Kind::Counter),
    p("wal_bytes", "nous_wal_bytes_total", &[], Kind::Counter),
    p("checkpoint_s", "nous_checkpoint_seconds", &[], Kind::Sum),
    p("checkpoints", "nous_checkpoints_total", &[], Kind::Counter),
    p("q_entity_s", QUERY, &[("class", "entity")], Kind::Sum),
    p("q_timeline_s", QUERY, &[("class", "timeline")], Kind::Sum),
    p("q_match_s", QUERY, &[("class", "match")], Kind::Sum),
    p("q_why_s", QUERY, &[("class", "why")], Kind::Sum),
    p("q_paths_s", QUERY, &[("class", "paths")], Kind::Sum),
    p("q_trending_s", QUERY, &[("class", "trending")], Kind::Sum),
    p("qa_s", "nous_qa_path_seconds", &[], Kind::Sum),
    p("qa_searches", "nous_qa_searches_total", &[], Kind::Counter),
    p(
        "qa_paths_found",
        "nous_qa_paths_found_total",
        &[],
        Kind::Counter,
    ),
    p(
        "qa_nodes_expanded",
        "nous_qa_nodes_expanded",
        &[],
        Kind::Sum,
    ),
    p(
        "qa_truncated",
        "nous_qa_truncated_total",
        &[],
        Kind::Counter,
    ),
    p("http_query_s", HTTP, &[("route", "/query")], Kind::Sum),
    p("http_query_n", HTTP, &[("route", "/query")], Kind::Count),
    p("http_ingest_s", HTTP, &[("route", "/ingest")], Kind::Sum),
    p(
        "shed_queue",
        "nous_http_shed_total",
        &[("reason", "queue_full")],
        Kind::Counter,
    ),
    p(
        "shed_rate",
        "nous_http_shed_total",
        &[("reason", "rate_limit")],
        Kind::Counter,
    ),
    p(
        "raw_triples",
        "nous_ingest_raw_triples_total",
        &[],
        Kind::Counter,
    ),
    p("admitted", "nous_ingest_admitted_total", &[], Kind::Counter),
    p(
        "unresolved",
        "nous_ingest_unresolved_entity_total",
        &[],
        Kind::Counter,
    ),
];

/// Histogram handle for a series (get-or-create: an absent series reads
/// as empty).
pub fn histogram(reg: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> Histogram {
    reg.latency_with(name, "", labels)
}

/// One reading of every probed series.
#[derive(Clone, Default)]
pub struct Snap(BTreeMap<&'static str, f64>);

impl Snap {
    pub fn read(reg: &MetricsRegistry) -> Self {
        let mut m = BTreeMap::new();
        for probe in PROBES {
            let v = match probe.kind {
                Kind::Counter => reg.counter_value(probe.name, probe.labels).unwrap_or(0) as f64,
                Kind::Count => histogram(reg, probe.name, probe.labels).count() as f64,
                Kind::Sum => {
                    let sum = reg.histogram_sum(probe.name, probe.labels).unwrap_or(0) as f64;
                    if probe.key.ends_with("_s") {
                        sum / 1e9
                    } else {
                        sum
                    }
                }
            };
            m.insert(probe.key, v);
        }
        Self(m)
    }

    /// `self - before`, series by series.
    pub fn since(&self, before: &Snap) -> Snap {
        Snap(
            self.0
                .iter()
                .map(|(k, v)| (*k, v - before.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        *self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("registry probe {key} is not defined"))
    }

    /// Sum of the per-class query execution seconds.
    pub fn query_exec_s(&self) -> f64 {
        ["entity", "timeline", "match", "why", "paths", "trending"]
            .iter()
            .map(|c| self.get(&format!("q_{c}_s")))
            .sum()
    }

    /// Ingest-side per-layer metrics over this delta.
    pub fn ingest_metrics(&self) -> Vec<(String, f64)> {
        let raw = self.get("raw_triples").max(1.0);
        [
            ("extract.busy_s", self.get("extract_s")),
            ("link.disambiguate.busy_s", self.get("disambiguate_s")),
            ("link.unresolved_ratio", self.get("unresolved") / raw),
            ("core.map.busy_s", self.get("map_s")),
            ("core.gate.busy_s", self.get("gate_s")),
            ("core.admit.busy_s", self.get("admit_s")),
            ("embed.score.busy_s", self.get("score_s")),
            ("core.admit_ratio", self.get("admitted") / raw),
            ("core.lock.read_wait_s", self.get("read_wait_s")),
            ("core.lock.write_wait_s", self.get("write_wait_s")),
            ("persist.wal.appends", self.get("wal_appends")),
            ("persist.wal.fsyncs", self.get("wal_fsyncs")),
            ("persist.wal.bytes", self.get("wal_bytes")),
            ("persist.checkpoint.busy_s", self.get("checkpoint_s")),
            ("persist.checkpoints", self.get("checkpoints")),
            ("graph.compactions", self.get("compactions")),
            ("graph.compaction.busy_s", self.get("compaction_s")),
            ("graph.full_rebuilds", self.get("full_rebuilds")),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }

    /// Path-search accounting (`nous_qa_*`) over this delta.
    pub fn qa_metrics(&self) -> Vec<(String, f64)> {
        let nodes = self.get("qa_nodes_expanded");
        [
            ("qa.searches", self.get("qa_searches")),
            ("qa.nodes_expanded", nodes),
            ("qa.paths_found", self.get("qa_paths_found")),
            ("qa.truncated", self.get("qa_truncated")),
            (
                "qa.paths_per_1k_nodes",
                1e3 * self.get("qa_paths_found") / nodes.max(1.0),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }

    /// Sum of the ingest stage seconds inside the merge (write) hold.
    pub fn merge_stages_s(&self) -> f64 {
        ["map_s", "disambiguate_s", "score_s", "gate_s", "admit_s"]
            .iter()
            .map(|k| self.get(k))
            .sum()
    }
}

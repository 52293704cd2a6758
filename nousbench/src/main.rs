//! Outside-in NOUS benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path nousbench/Cargo.toml -- \
//!     --workload query_mix --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Workloads (see each module for why it exists):
//! - `ingest_bulk`: closed-loop durable ingest, no readers;
//! - `query_mix`: a closed-loop reader on a fixed graph, no writes.
//!
//! Both repeat the same sequence of operations several times in a run and
//! time each operation as its fastest over the repeats: a shared host only
//! adds time, so a slowdown during part of a run does not move the
//! figures unless it hits every repeat of an operation.
//!
//! Every call goes through the public API; nothing inside the program is
//! instrumented for the benchmark. With `--trace 0` the run measures with
//! registry tracing off and prints the end-to-end metrics. With
//! `--trace 1` it repeats the work untraced and traced, prints the
//! per-layer metrics and a layer table of self time per crate, and writes
//! its spans to `nousbench/out/`. Human-readable output goes to stderr;
//! the last line of stdout is one JSON object. The command exits non-zero
//! when any output fails its correctness check.

mod ingest_bulk;
mod inputs;
mod queries;
mod query_mix;
mod regs;
mod serve;
mod spans;
mod stats;
mod system;

use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, `(name, unit)`: every `--trace 0` run prints all.
/// Three group percentiles are left to the per-layer `query.<class>.exec_*`
/// metrics because, measured on a shared 2-vCPU host, they moved between
/// runs by more than any end-to-end bound allows (quartile spread over
/// median, ten seeds): TRENDING's median 34-46% (its per-call cost has a
/// fast and a slow mode), and on `query_mix` the lookup p99 26-45% and the
/// TRENDING p99 17-37% (in a run where the host slowed every figure by
/// about 30%, these two grew by 60-80%).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ingest_docs_per_s", "docs/s"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("query_qps", "queries/s"),
    ("lookup_p50_us", "us"),
    ("why_p50_us", "us"),
    ("why_p99_us", "us"),
    ("paths_p50_us", "us"),
    ("paths_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`: every `--trace 1` run prints all;
/// one a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("extract.busy_s", "s"),
    ("extract.quarantined", "count"),
    ("link.disambiguate.busy_s", "s"),
    ("link.unresolved_ratio", "ratio"),
    ("core.map.busy_s", "s"),
    ("core.gate.busy_s", "s"),
    ("core.admit.busy_s", "s"),
    ("embed.score.busy_s", "s"),
    ("core.admit_ratio", "ratio"),
    ("core.merge_unattributed_s", "s"),
    ("core.lock.read_wait_s", "s"),
    ("core.lock.write_wait_s", "s"),
    ("core.lock.trends_wait_s", "s"),
    ("persist.journal.busy_s", "s"),
    ("persist.wal.appends", "count"),
    ("persist.wal.fsyncs", "count"),
    ("persist.wal.bytes", "bytes"),
    ("persist.checkpoint.busy_s", "s"),
    ("persist.checkpoints", "count"),
    ("persist.recover_s", "s"),
    ("persist.lost_acked_docs", "count"),
    ("persist.disk_bytes_per_fact", "bytes"),
    ("graph.publish_p99_us", "us"),
    ("graph.compactions", "count"),
    ("graph.compaction.busy_s", "s"),
    ("graph.full_rebuilds", "count"),
    ("graph.edges_start", "count"),
    ("graph.edges_end", "count"),
    ("graph.distinct_triples", "count"),
    ("graph.parallel_edge_multiplicity", "ratio"),
    ("graph.overlay_layers_end", "count"),
    ("query.parse_p50_us", "us"),
    ("query.entity.exec_p50_us", "us"),
    ("query.entity.exec_p99_us", "us"),
    ("query.timeline.exec_p50_us", "us"),
    ("query.timeline.exec_p99_us", "us"),
    ("query.match.exec_p50_us", "us"),
    ("query.match.exec_p99_us", "us"),
    ("query.why.exec_p50_us", "us"),
    ("query.why.exec_p99_us", "us"),
    ("query.paths.exec_p50_us", "us"),
    ("query.paths.exec_p99_us", "us"),
    ("query.trending.exec_p50_us", "us"),
    ("query.trending.exec_p99_us", "us"),
    ("qa.searches", "count"),
    ("qa.nodes_expanded", "count"),
    ("qa.paths_found", "count"),
    ("qa.truncated", "count"),
    ("qa.paths_per_1k_nodes", "ratio"),
    ("mining.patterns_tracked", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.client_minus_server_mean_us", "us"),
    ("serve.exec_share", "ratio"),
    ("serve.shed", "count"),
    ("obs.tracing_overhead", "ratio"),
    ("extract.self_share", "ratio"),
    ("link.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("embed.self_share", "ratio"),
    ("persist.self_share", "ratio"),
    ("graph.self_share", "ratio"),
    ("query.self_share", "ratio"),
    ("qa.self_share", "ratio"),
    ("mining.self_share", "ratio"),
    ("serve.self_share", "ratio"),
    ("table.residual_share", "ratio"),
    ("error_rate", "ratio"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<spans::SpanLog>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    pub fn extend(&mut self, metrics: Vec<(String, f64)>) {
        self.metrics.extend(metrics);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (ingest_bulk or query_mix)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nousbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = inputs::World0::large();
    let result = match args.workload.as_str() {
        "ingest_bulk" => ingest_bulk::run(&w, args.seed, args.seconds, args.trace),
        "query_mix" => query_mix::run(&w, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    };
    // Each run removes its own store; drop the parent once it is empty.
    let _ = std::fs::remove_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("work"));
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nousbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Some(log) = out.spans.take() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match log.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    out.push("peak_rss_mb", system::peak_rss_mb());
    out.push(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    eprintln!(
        "\n{} seed {} ({} s, trace {}): {} attempted, {} failed, {} CPUs",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, unit) in wanted {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                assert!(args.trace, "end-to-end metric {name} was not measured");
                0.0
            });
        assert!(value.is_finite(), "metric {name} is not finite");
        eprintln!("  {name:<36} {value:>14.4} {unit}");
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    let correct = out.failed == 0;
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

//! The serve layer, which the in-process workloads bypass: a
//! `nous_serve::Server` set up like `examples/serve.rs` over a built
//! session, and a closed-loop pass of the query sequence over one
//! keep-alive HTTP connection, for the `serve.*` per-layer metrics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nous_core::SharedSession;
use nous_obs::MetricsRegistry;
use nous_serve::{Server, ServerConfig};

use crate::inputs::Group;
use crate::regs::{histogram, Snap};
use crate::stats::mean;

/// A response not read within this long fails the request.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// POST `body` and return the status and response body.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("headers cut short"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        let mut out = vec![0; len];
        self.reader.read_exact(&mut out)?;
        Ok((status, out))
    }
}

/// Whether a `/query` response is a complete answer.
fn query_ok(status: u16, body: &[u8]) -> bool {
    let v = serde_json::from_slice::<serde_json::Value>(body).ok();
    let partial = v.as_ref().and_then(|v| v.get("partial")?.as_bool());
    let has_result = v.as_ref().is_some_and(|v| v.get("result").is_some());
    let ok = status == 200 && partial == Some(false) && has_result;
    if !ok {
        eprintln!("serve: /query answered {status}, partial {partial:?}");
    }
    ok
}

/// A reading of the server's `/query` request-time histogram, so a later
/// reading's share can be taken.
struct HttpMark {
    n: u64,
    buckets: Vec<u64>,
}

impl HttpMark {
    fn histogram(reg: &MetricsRegistry) -> nous_obs::Histogram {
        histogram(reg, "nous_http_request_seconds", &[("route", "/query")])
    }

    fn new(reg: &MetricsRegistry) -> Self {
        let h = Self::histogram(reg);
        Self {
            n: h.count(),
            buckets: h.bucket_counts(),
        }
    }

    /// The `q`-quantile of server time since the mark, microseconds,
    /// interpolated inside the winning bucket of the registry's decade
    /// buckets (the server records nothing finer).
    fn percentile(&self, reg: &MetricsRegistry, q: f64) -> f64 {
        let h = Self::histogram(reg);
        let counts: Vec<u64> = h
            .bucket_counts()
            .iter()
            .zip(&self.buckets)
            .map(|(a, b)| a - b)
            .collect();
        let total = h.count() - self.n;
        let target = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let bounds = h.bounds();
        let mut cum = 0;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && cum + c >= target {
                let lo = if i == 0 { 0 } else { bounds[i - 1] } as f64;
                let hi = bounds.get(i).map_or(h.max() as f64, |&b| b as f64);
                return (lo + (hi - lo) * (target - cum) as f64 / c as f64) / 1e3;
            }
            cum += c;
        }
        0.0
    }
}

/// Serve-layer metrics from `delta` and client-side request times.
fn serve_metrics(
    reg: &MetricsRegistry,
    mark: &HttpMark,
    delta: &Snap,
    client_us: &[f64],
) -> Vec<(String, f64)> {
    let server_mean_us = 1e6 * delta.get("http_query_s") / delta.get("http_query_n").max(1.0);
    [
        ("serve.server_p50_us", mark.percentile(reg, 0.5)),
        ("serve.server_p99_us", mark.percentile(reg, 0.99)),
        (
            "serve.client_minus_server_mean_us",
            mean(client_us) - server_mean_us,
        ),
        (
            "serve.exec_share",
            delta.query_exec_s() / delta.get("http_query_s").max(1e-12),
        ),
        (
            "serve.shed",
            delta.get("shed_queue") + delta.get("shed_rate"),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// Serve `session` and send the query sequence over one keep-alive
/// connection in a closed loop for `length`, for the serve-layer
/// metrics of a workload that does not otherwise go through HTTP.
/// Returns the metrics, the requests sent and the requests failed.
pub fn serve_pass(
    session: Arc<SharedSession>,
    pipe: nous_core::IngestPipeline,
    reg: &MetricsRegistry,
    qs: &[(Group, String)],
    length: Duration,
) -> (Vec<(String, f64)>, u64, u64) {
    let server = Server::start(session, pipe, "127.0.0.1:0", ServerConfig::default())
        .expect("bind the serving socket");
    let mark = HttpMark::new(reg);
    let before = Snap::read(reg);
    let mut client = Client::connect(server.local_addr()).expect("connect to the server");
    let (mut client_us, mut failed) = (Vec::new(), 0);
    let end = Instant::now() + length;
    for (_, text) in qs.iter().cycle() {
        if Instant::now() >= end {
            break;
        }
        let body = format!(
            r#"{{"query":{}}}"#,
            serde_json::to_string(text).expect("serialize query")
        );
        let t = Instant::now();
        let ok = client
            .post("/query", &body)
            .is_ok_and(|(status, resp)| query_ok(status, &resp));
        client_us.push(t.elapsed().as_secs_f64() * 1e6);
        failed += u64::from(!ok);
    }
    drop(client);
    server.shutdown();
    let delta = Snap::read(reg).since(&before);
    let metrics = serve_metrics(reg, &mark, &delta, &client_us);
    (metrics, client_us.len() as u64, failed)
}

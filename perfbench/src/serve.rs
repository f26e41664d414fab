//! The `serve_spool` workload and the `serve.*` layer probe.
//!
//! The benchmark starts `copernicus-bench serve --workers 2 --spool <fresh
//! dir>` (built next to this binary) and drives it over HTTP/1.1 from a
//! closed loop on two keep-alive connections. Every request goes out in a
//! single write with `TCP_NODELAY` set, so the client adds no stall of its
//! own. The mix is three fresh `POST /characterize` (random n=256 d=0.05 ×
//! {csr, ell, coo, dia} at p=16, unique id, seed derived from the
//! benchmark seed) to one `GET /requests/<id>` replay of a completed
//! request. Each run ends with `POST /admin/drain`, and the daemon must
//! exit 0.

use crate::layers::{self, Campaign};
use crate::spans::Tracer;
use crate::stats::{fnv64, median, peak_rss_mb, percentile};
use crate::{check_digest, Args, Metrics, Outcome};
use copernicus::{par_map_ordered, CampaignRunner, ExperimentConfig, Measurement};
use copernicus_hls::CodecKind;
use copernicus_workloads::Workload;
use serde::{Deserialize, Serialize, Value};
use sparsemat::FormatKind;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections (the host has two cores).
const CONNECTIONS: u64 = 2;
/// Daemon start-ups per run: the first ones only measure set-up time.
const SETUPS: usize = 9;
/// Keep-alive `GET /healthz` round trips per connection in the traced run.
const TRANSPORT_PROBES: usize = 50;
/// Served requests re-run in-process for the traced layer decomposition.
const TRACED_REQUESTS: usize = 64;
/// Requests per connection covered by the committed output digest.
const DIGEST_POSTS: u64 = 8;
const FORMATS: [FormatKind; 4] = [
    FormatKind::Csr,
    FormatKind::Ell,
    FormatKind::Coo,
    FormatKind::Dia,
];

/// A blocking HTTP/1.1 keep-alive client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request in a single write and reads the whole reply.
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut reply = vec![0; len];
        self.reader.read_exact(&mut reply)?;
        Ok((status, reply))
    }
}

/// One call on a fresh connection.
fn call_once(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    Conn::open(addr)?.call(method, path, b"")
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    spool: PathBuf,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon on a fresh spool and returns it with its set-up
    /// time: spawn until the first `/readyz` 200.
    fn start(run_dir: &Path, tag: &str) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let bin = exe.with_file_name("copernicus-bench");
        let spool = run_dir.join(format!("spool-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let start = Instant::now();
        let mut child = Command::new(&bin)
            .args(["serve", "--port", "0", "--workers", "2", "--spool"])
            .arg(&spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("serving on http://"))
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon printed {line:?}"));
        };
        let daemon = Daemon {
            child,
            addr,
            spool,
            _stdout: stdout,
        };
        loop {
            if let Ok((200, _)) = call_once(daemon.addr, "GET", "/readyz") {
                break;
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    fn stats(&self) -> Result<Value, String> {
        let (status, body) =
            call_once(self.addr, "GET", "/stats").map_err(|e| format!("/stats: {e}"))?;
        if status != 200 {
            return Err(format!("/stats answered {status}"));
        }
        serde::json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("/stats: {e}"))
    }

    /// Drains the daemon, waits for it to exit, and removes its spool.
    /// Returns whether it answered the drain and exited 0.
    fn drain(mut self) -> Result<(), String> {
        let answered = matches!(call_once(self.addr, "POST", "/admin/drain"), Ok((200, _)));
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(s) = self.child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit after drain".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let _ = std::fs::remove_dir_all(&self.spool);
        match (answered, status.code()) {
            (true, Some(0)) => Ok(()),
            (answered, code) => Err(format!(
                "drain answered: {answered}, daemon exit code {code:?}"
            )),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One `POST /characterize` of the spool mix.
#[derive(Debug, Clone)]
struct Spec {
    conn: u64,
    n: u64,
    id: String,
    seed: u64,
}

impl Spec {
    fn new(bench_seed: u64, conn: u64, n: u64) -> Spec {
        Spec {
            conn,
            n,
            id: format!("b{bench_seed}-c{conn}-{n}"),
            seed: fnv64(format!("{bench_seed}/{conn}/{n}").as_bytes()) & 0xffff_ffff,
        }
    }

    fn campaign(&self) -> Campaign {
        Campaign {
            workloads: vec![Workload::Random {
                n: 256,
                density: 0.05,
            }],
            formats: FORMATS.to_vec(),
            partition_sizes: vec![16],
            cfg: ExperimentConfig {
                seed: self.seed,
                ..ExperimentConfig::quick()
            },
        }
    }
}

/// The request body for `campaign`'s `wi`-th workload.
fn body_for(id: &str, c: &Campaign, wi: usize) -> Option<String> {
    let workload = match c.workloads[wi] {
        Workload::Random { n, density } => {
            format!(r#"{{"kind":"random","n":{n},"density":{density}}}"#)
        }
        Workload::Band { n, width } => format!(r#"{{"kind":"band","n":{n},"width":{width}}}"#),
        Workload::Suite(_) => return None,
    };
    let list = |items: Vec<String>| items.join(",");
    let formats = list(c.formats.iter().map(|f| format!("\"{f}\"")).collect());
    let sizes = list(c.partition_sizes.iter().map(usize::to_string).collect());
    let hw = match c.cfg.hw.stream_codec {
        CodecKind::None => String::new(),
        codec => format!(r#","hw":{{"stream_codec":"{codec}"}}"#),
    };
    Some(format!(
        r#"{{"id":"{id}","workload":{workload},"formats":[{formats}],"partition_sizes":[{sizes}],"seed":{}{hw}}}"#,
        c.cfg.seed
    ))
}

/// The measurements of a `200` reply body.
fn reply_measurements(body: &[u8]) -> Result<Vec<Measurement>, String> {
    let doc = serde::json::parse(&String::from_utf8_lossy(body)).map_err(|e| e.to_string())?;
    let ms = doc.get("measurements").ok_or("reply has no measurements")?;
    Vec::<Measurement>::deserialize(ms).map_err(|e| e.to_string())
}

#[derive(Debug)]
struct PostRec {
    spec: Spec,
    secs: f64,
    status: u16,
    body: Vec<u8>,
}

#[derive(Debug, Default)]
struct ConnLog {
    posts: Vec<PostRec>,
    replay_secs: Vec<f64>,
    transport_secs: Vec<f64>,
    replays_failed: u64,
    replays_differing: u64,
    errors: u64,
    tracer: Option<Tracer>,
}

/// One client connection's closed loop until `deadline`.
fn drive(
    addr: SocketAddr,
    seed: u64,
    conn: u64,
    deadline: Instant,
    origin: Option<Instant>,
) -> ConnLog {
    let mut log = ConnLog {
        tracer: origin.map(Tracer::new),
        ..ConnLog::default()
    };
    let mut client: Option<Conn> = None;
    let mut ok_posts: Vec<usize> = Vec::new();
    let (mut next_post, mut op) = (0u64, 0u64);
    let span_id = |k: u64| conn << 32 | k;
    while Instant::now() < deadline {
        if client.is_none() {
            match Conn::open(addr) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    log.errors += 1;
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let Some(c) = client.as_mut() else { continue };
        let replay = op % 4 == 3 && !ok_posts.is_empty();
        let span = log.tracer.as_mut().map(|t| {
            t.begin(
                if replay { "serve.replay" } else { "serve.post" },
                span_id(op),
            )
        });
        let start = Instant::now();
        let (target, result) = if replay {
            let target = ok_posts[(op / 4) as usize % ok_posts.len()];
            let path = format!("/requests/{}", log.posts[target].spec.id);
            (Some(target), c.call("GET", &path, b""))
        } else {
            let spec = Spec::new(seed, conn, next_post);
            let body = body_for(&spec.id, &spec.campaign(), 0).unwrap_or_default();
            let result = c.call("POST", "/characterize", body.as_bytes());
            if let Ok((status, reply)) = &result {
                log.posts.push(PostRec {
                    spec,
                    secs: start.elapsed().as_secs_f64(),
                    status: *status,
                    body: reply.clone(),
                });
                if *status == 200 {
                    ok_posts.push(log.posts.len() - 1);
                }
            }
            next_post += 1;
            (None, result)
        };
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (log.tracer.as_mut(), span) {
            t.end(span);
        }
        op += 1;
        match (result, target) {
            (Err(_), _) => {
                log.errors += 1;
                client = None;
            }
            (Ok((status, body)), Some(target)) => {
                if status == 200 {
                    log.replay_secs.push(secs);
                    if body != log.posts[target].body {
                        log.replays_differing += 1;
                    }
                } else {
                    log.replays_failed += 1;
                }
            }
            (Ok(_), None) => {}
        }
    }
    if let (Some(c), Some(_)) = (client.as_mut(), origin) {
        for k in 0..TRANSPORT_PROBES {
            let span = log
                .tracer
                .as_mut()
                .map(|t| t.begin("serve.transport", span_id(k as u64)));
            let start = Instant::now();
            let ok = matches!(c.call("GET", "/healthz", b""), Ok((200, _)));
            let secs = start.elapsed().as_secs_f64();
            if let (Some(t), Some(span)) = (log.tracer.as_mut(), span) {
                t.end(span);
            }
            if ok {
                log.transport_secs.push(secs);
            } else {
                log.errors += 1;
            }
        }
    }
    log
}

/// Serve-layer metrics shared by the workload and the probe.
fn serve_layer(
    metrics: &mut Metrics,
    posts: &[f64],
    replays: &[f64],
    requests_p99: f64,
    transport: &[f64],
    spool_bytes: u64,
    stats: &Value,
) {
    let get = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    let shed = get("rejected_busy");
    metrics.push("serve.post_p50_ms", median(posts) * 1e3, "ms");
    metrics.push("serve.replay_p50_ms", median(replays) * 1e3, "ms");
    metrics.push("serve.req_p99_ms", requests_p99 * 1e3, "ms");
    metrics.push("serve.transport_p50_ms", median(transport) * 1e3, "ms");
    metrics.push(
        "serve.spool_bytes_per_req",
        spool_bytes as f64 / posts.len().max(1) as f64,
        "bytes",
    );
    metrics.push(
        "serve.queue_high_watermark",
        get("queue_high_watermark"),
        "count",
    );
    metrics.push(
        "serve.shed_frac",
        shed / (get("accepted") + shed).max(1.0),
        "ratio",
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    for k in 0..SETUPS - 1 {
        let (daemon, secs) = Daemon::start(&args.run_dir, &format!("setup{k}"))?;
        setups.push(secs);
        if let Err(e) = daemon.drain() {
            outcome.problems.push(format!("set-up daemon {k}: {e}"));
        }
    }
    let (daemon, secs) = Daemon::start(&args.run_dir, "load")?;
    setups.push(secs);

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let addr = daemon.addr;
    let seed = args.seed;
    let traced = args.trace.then_some(origin);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || drive(addr, seed, conn, deadline, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_secs = origin.elapsed().as_secs_f64();
    let mut logs = logs;
    let tracers: Vec<Tracer> = logs.iter_mut().filter_map(|l| l.tracer.take()).collect();
    let stats = daemon.stats()?;
    let daemon_rss = peak_rss_mb(Some(daemon.child.id()));
    let spool_bytes = dir_bytes(&daemon.spool);
    if let Err(e) = daemon.drain() {
        outcome.problems.push(format!("load daemon: {e}"));
    }

    // Every reply must equal the in-process campaign on the same spec, and
    // every replay must equal its original reply byte for byte.
    let posts: Vec<&PostRec> = logs.iter().flat_map(|l| &l.posts).collect();
    let checked: Vec<Result<Vec<Measurement>, String>> = par_map_ordered(2, &posts, |_, p| {
        if p.status != 200 {
            return Err(format!("{} answered {}", p.spec.id, p.status));
        }
        let served = reply_measurements(&p.body).map_err(|e| format!("{}: {e}", p.spec.id))?;
        let c = p.spec.campaign();
        let reference = CampaignRunner::sequential()
            .characterize(&c.workloads, &c.formats, &c.partition_sizes, &c.cfg)
            .map_err(|e| format!("reference for {}: {e}", p.spec.id))?;
        if served != reference {
            return Err(format!(
                "{}: served measurements differ from the campaign",
                p.spec.id
            ));
        }
        Ok(served)
    });
    let mut failed_posts = 0u64;
    for r in &checked {
        if let Err(e) = r {
            failed_posts += 1;
            if outcome.problems.len() < 20 {
                outcome.problems.push(e.clone());
            }
        }
    }
    let mut digest_input = String::new();
    for conn in 0..CONNECTIONS {
        for n in 0..DIGEST_POSTS {
            let found = posts
                .iter()
                .zip(&checked)
                .find(|(p, _)| p.spec.conn == conn && p.spec.n == n);
            match found {
                Some((_, Ok(ms))) => {
                    digest_input.push_str(&serde::json::to_string(&ms.serialize()))
                }
                _ => outcome
                    .problems
                    .push(format!("request c{conn}-{n} missing from the digest")),
            }
        }
    }
    check_digest(&mut outcome, args, fnv64(digest_input.as_bytes()));
    let replays_differing: u64 = logs.iter().map(|l| l.replays_differing).sum();
    outcome.check(replays_differing == 0, || {
        format!("{replays_differing} replays differ from their original reply")
    });

    let post_secs: Vec<f64> = posts
        .iter()
        .filter(|p| p.status == 200)
        .map(|p| p.secs)
        .collect();
    let replay_secs: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.replay_secs.iter().copied())
        .collect();
    let mut all = post_secs.clone();
    all.extend(&replay_secs);
    let errors: u64 = logs.iter().map(|l| l.errors + l.replays_failed).sum();
    outcome.attempted = (posts.len() + replay_secs.len()) as u64 + errors;
    outcome.failed = failed_posts + errors;
    let (p50, _) = percentile(&all, 0.50);
    let (p99, beyond) = percentile(&all, 0.99);
    outcome.detail("requests", Value::UInt(all.len() as u64));
    outcome.detail("posts", Value::UInt(post_secs.len() as u64));
    outcome.detail("replays", Value::UInt(replay_secs.len() as u64));
    outcome.detail("samples_beyond_p99", Value::UInt(beyond as u64));
    outcome.detail(
        "latency_ms",
        Value::Map(
            [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)]
                .iter()
                .map(|&(k, q)| (k.to_string(), Value::Float(percentile(&all, q).0 * 1e3)))
                .collect(),
        ),
    );
    outcome.detail(
        "setup_s_samples",
        Value::Seq(setups.iter().map(|&s| Value::Float(s)).collect()),
    );
    outcome.detail("stats", stats.clone());
    if beyond < 10 && !args.trace {
        eprintln!("perfbench serve_spool: only {beyond} samples beyond p99");
    }

    if !args.trace {
        let m = &mut outcome.metrics;
        m.push("setup_s", median(&setups), "s");
        m.push(
            "cells_per_s",
            (post_secs.len() * FORMATS.len()) as f64 / load_secs,
            "1/s",
        );
        m.push("req_per_s", all.len() as f64 / load_secs, "1/s");
        m.push("req_p50_ms", p50 * 1e3, "ms");
        m.push("peak_rss_mb", daemon_rss.unwrap_or(f64::NAN), "MiB");
        return Ok(outcome);
    }

    // Traced: the serve layer from the load itself, then the first served
    // requests re-run in-process (one runner each, like the daemon).
    let mut tracer = Tracer::new(origin);
    let transport: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.transport_secs.iter().copied())
        .collect();
    for t in tracers {
        tracer.absorb(t);
    }
    let mut metrics = Metrics::default();
    let groups: Vec<Vec<Campaign>> = posts
        .iter()
        .filter(|p| p.status == 200)
        .take(TRACED_REQUESTS)
        .map(|p| vec![p.spec.campaign()])
        .collect();
    let traced = layers::decompose(&mut tracer, &groups, &args.run_dir, &mut metrics)?;
    outcome.problems.extend(traced.problems);
    serve_layer(
        &mut metrics,
        &post_secs,
        &replay_secs,
        p99,
        &transport,
        spool_bytes,
        &stats,
    );
    outcome.metrics = metrics;
    write_trace(args, &tracer, &outcome)?;
    Ok(outcome)
}

/// The `serve.*` layer for a grid workload's traced run: every unit the
/// request API can express (random and band workloads) goes through the
/// daemon once, its reply must equal the campaign's cells, and its replay
/// must equal the reply.
pub fn probe(
    campaigns: &[Campaign],
    measurements: &[Measurement],
    args: &Args,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (daemon, _) = Daemon::start(&args.run_dir, "probe")?;
    let mut conn = Conn::open(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let (mut posts, mut replays, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let mut offset = 0usize;
    let mut k = 0u64;
    for c in campaigns {
        let per_workload = c.partition_sizes.len() * c.formats.len();
        for wi in 0..c.workloads.len() {
            let expect =
                measurements.get(offset + wi * per_workload..offset + (wi + 1) * per_workload);
            let id = format!("probe-{k}");
            let Some(body) = body_for(&id, c, wi) else {
                continue;
            };
            let span = tracer.begin("serve.post", k);
            let start = Instant::now();
            let reply = conn.call("POST", "/characterize", body.as_bytes());
            posts.push(start.elapsed().as_secs_f64());
            tracer.end(span);
            let (status, reply) = reply.map_err(|e| format!("{id}: {e}"))?;
            let served = if status == 200 {
                reply_measurements(&reply)
            } else {
                Err(format!("status {status}"))
            };
            outcome.check(
                matches!((&served, expect), (Ok(s), Some(e)) if s == e),
                || format!("served {id} differs from the campaign's cells"),
            );
            let span = tracer.begin("serve.replay", k);
            let start = Instant::now();
            let replayed = conn.call("GET", &format!("/requests/{id}"), b"");
            replays.push(start.elapsed().as_secs_f64());
            tracer.end(span);
            outcome.check(matches!(&replayed, Ok((200, b)) if *b == reply), || {
                format!("replay of {id} differs from its reply")
            });
            k += 1;
        }
        offset += c.cells();
    }
    for k in 0..TRANSPORT_PROBES {
        let span = tracer.begin("serve.transport", k as u64);
        let start = Instant::now();
        let ok = matches!(conn.call("GET", "/healthz", b""), Ok((200, _)));
        transport.push(start.elapsed().as_secs_f64());
        tracer.end(span);
        outcome.check(ok, || "GET /healthz failed".into());
    }
    drop(conn);
    let stats = daemon.stats()?;
    let spool_bytes = dir_bytes(&daemon.spool);
    if let Err(e) = daemon.drain() {
        outcome.problems.push(format!("probe daemon: {e}"));
    }
    let all: Vec<f64> = posts.iter().chain(&replays).copied().collect();
    let p99 = percentile(&all, 0.99).0;
    serve_layer(
        metrics,
        &posts,
        &replays,
        p99,
        &transport,
        spool_bytes,
        &stats,
    );
    Ok(())
}

/// Writes the traced run's spans and metrics to
/// `.bench_run/trace-<workload>-<seed>.json`.
pub fn write_trace(args: &Args, tracer: &Tracer, outcome: &Outcome) -> Result<(), String> {
    let path = args
        .run_dir
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("provenance".into(), crate::provenance()),
        ("metrics".into(), outcome.metrics.to_value()),
        ("spans".into(), tracer.to_value()),
    ]);
    std::fs::write(&path, serde::json::to_string(&doc))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

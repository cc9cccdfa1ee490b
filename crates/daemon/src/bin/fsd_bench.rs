//! Daemon warm-cache benchmark: the case for running `fsd` at all.
//!
//! A *submission* is one service request — a batch of corpus kernels with a
//! sweep grid, the shape an editor integration re-sends on every save. The
//! cold side handles each submission with a fresh [`Service`] (what a CLI
//! process pays today: every point recomputed). The warm side is one
//! persistent service — the daemon's steady state — where every submission
//! after the first is pure cache hits.
//!
//! Prints both totals and the speedup, measures the median of
//! [`ROUND_TRIPS`] warm socket round trips against a live in-process daemon
//! (transport overhead, informational),
//! writes `BENCH_daemon.json`, and exits non-zero when the warm-path
//! speedup is below the gate (default 5x; override with
//! `FSD_BENCH_MIN_SPEEDUP`).

use fs_core::json::parse;
use fs_core::{JsonValue, KernelInput, Service, ServiceOptions, ServiceRequest};
use fs_daemon::{bind_unix, Daemon};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const DEFAULT_GATE: f64 = 5.0;
const SUBMISSIONS: u32 = 4;
const JSON_PATH: &str = "BENCH_daemon.json";
/// Warm socket round trips timed; the median is reported.
const ROUND_TRIPS: usize = 21;

const KERNELS: [&str; 4] = ["@histogram", "@stencil", "@dft", "@heat"];
const GRID_THREADS: [u32; 3] = [2, 4, 8];
const GRID_CHUNKS: [u64; 3] = [1, 4, 16];

fn request() -> ServiceRequest {
    ServiceRequest {
        kernels: KERNELS.iter().map(|k| KernelInput::named(*k)).collect(),
        machines: vec!["paper48".to_string()],
        grid: Some((GRID_THREADS.to_vec(), GRID_CHUNKS.to_vec())),
        options: ServiceOptions::default(),
    }
}

/// Run `n` submissions against `make_service`'s services and return the
/// total wall time in seconds.
fn run_submissions(n: u32, mut service_for: impl FnMut() -> Arc<Service>) -> f64 {
    let req = request();
    let t0 = Instant::now();
    let mut sink = 0usize;
    for _ in 0..n {
        let svc = service_for();
        let resp = svc.handle(&req);
        assert!(
            resp.errors.is_empty(),
            "bench request failed: {:?}",
            resp.errors
        );
        sink = sink.wrapping_add(resp.results.len());
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}

/// The median warm request through a real Unix-socket daemon, each on a
/// fresh connection: the transport cost a client pays on top of the
/// in-process warm path.
fn socket_round_trip_seconds() -> f64 {
    let path = std::env::temp_dir().join(format!("fsd-bench-{}.sock", std::process::id()));
    let listener = bind_unix(&path).expect("bind bench socket");
    let daemon = Arc::new(Daemon::new(None));
    let server = Arc::clone(&daemon);
    let accept_loop = std::thread::spawn(move || server.serve_unix(listener));

    let line = JsonValue::obj()
        .field(
            "kernels",
            JsonValue::Arr(
                KERNELS
                    .iter()
                    .map(|k| JsonValue::Str(k.to_string()))
                    .collect(),
            ),
        )
        .field(
            "grid",
            JsonValue::obj()
                .field(
                    "threads",
                    JsonValue::Arr(GRID_THREADS.iter().map(|&t| (t as u64).into()).collect()),
                )
                .field(
                    "chunks",
                    JsonValue::Arr(GRID_CHUNKS.iter().map(|&c| c.into()).collect()),
                ),
        )
        .render();
    let round_trip = || {
        let mut stream = UnixStream::connect(&path).expect("connect bench socket");
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("\"fsd_version\""));
    };
    round_trip(); // warm the daemon's cache
    let mut samples: Vec<f64> = (0..ROUND_TRIPS)
        .map(|_| {
            let t0 = Instant::now();
            round_trip();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);

    daemon.request_shutdown();
    accept_loop.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
    samples[ROUND_TRIPS / 2]
}

fn main() -> ExitCode {
    // Counters-only obs (the daemon's default): the svc.request_ns
    // histogram feeds the latency quantiles reported below.
    fs_obs::configure(fs_obs::ObsConfig {
        spans: false,
        counters: true,
        ring: None,
    });
    let gate = std::env::var("FSD_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_GATE);
    let baseline_speedup = std::fs::read_to_string(JSON_PATH)
        .ok()
        .and_then(|doc| parse(&doc).ok())
        .and_then(|v| v.get("speedup").and_then(|s| s.as_f64()));

    let points = KERNELS.len() * GRID_THREADS.len() * GRID_CHUNKS.len();
    println!(
        "## daemon benchmark: {SUBMISSIONS} submissions x {} kernels x {points} grid points",
        KERNELS.len()
    );

    // Cold: a fresh service (empty cache) per submission.
    let cold_s = run_submissions(SUBMISSIONS, || Arc::new(Service::new()));
    // Warm: the daemon's steady state — one service, cache warmed once.
    let persistent = Arc::new(Service::new());
    persistent.handle(&request()); // untimed warm-up
    let warm_s = run_submissions(SUBMISSIONS, || Arc::clone(&persistent));

    let speedup = cold_s / warm_s.max(1e-12);
    let stats = persistent.cache().stats();
    let socket_s = socket_round_trip_seconds();
    let pass = speedup >= gate;

    println!(
        "cold  (fresh service per submission): {:>9.3} ms total",
        cold_s * 1e3
    );
    println!(
        "warm  (persistent daemon service):    {:>9.3} ms total",
        warm_s * 1e3
    );
    println!(
        "cache: {} hits, {} misses, {} entries, {} bytes resident",
        stats.hits, stats.misses, stats.entries, stats.bytes
    );
    println!(
        "socket round trip (warm, incl. transport, median of {ROUND_TRIPS}): {:.3} ms",
        socket_s * 1e3
    );
    let lat = fs_obs::hists::SVC_REQUEST_NS.snapshot();
    println!(
        "request latency over {} requests: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        lat.count,
        lat.quantile(0.50) as f64 / 1e6,
        lat.quantile(0.95) as f64 / 1e6,
        lat.quantile(0.99) as f64 / 1e6
    );
    println!(
        "speedup {speedup:.1}x (gate {gate:.0}x): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if let Some(base) = baseline_speedup {
        println!("previous {JSON_PATH}: speedup {base:.1}x");
    }

    let doc = JsonValue::obj()
        .field("benchmark", "daemon")
        .field("submissions", SUBMISSIONS as u64)
        .field(
            "kernels",
            JsonValue::Arr(
                KERNELS
                    .iter()
                    .map(|k| JsonValue::Str(k.to_string()))
                    .collect(),
            ),
        )
        .field("grid_points", points as u64)
        .field("cold_seconds", cold_s)
        .field("warm_seconds", warm_s)
        .field("speedup", speedup)
        .field("socket_round_trip_seconds", socket_s)
        .field("cache_hits", stats.hits)
        .field("cache_misses", stats.misses)
        .field("cache_bytes", stats.bytes)
        .field("request_count", lat.count)
        .field("request_p50_ms", lat.quantile(0.50) as f64 / 1e6)
        .field("request_p95_ms", lat.quantile(0.95) as f64 / 1e6)
        .field("request_p99_ms", lat.quantile(0.99) as f64 / 1e6)
        .field("gate", gate)
        .field("pass", pass);
    if let Err(e) = std::fs::write(JSON_PATH, doc.render_pretty()) {
        eprintln!("fsd_bench: cannot write {JSON_PATH}: {e}");
    }

    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

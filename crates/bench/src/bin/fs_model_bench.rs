//! FS-model hot-loop benchmark: the strength-reduced dense-table path vs
//! the reference hash-map transcription of the paper's algorithm, over the
//! bundled corpus.
//!
//! A *point* is one full model evaluation of a (kernel, threads, chunk)
//! configuration. For every point the two paths are first checked for
//! count-identical results (the optimized path is an optimization, not an
//! approximation — any divergence fails the run), then timed over enough
//! repetitions to be stable.
//!
//! Two measurement phases:
//!
//! 1. **Observability disabled** (the library default): wall-clock per-point
//!    timings. These are the official throughput figures, and the input to
//!    the obs-overhead gate — with `FS_OBS_GATE=1` the optimized points/sec
//!    must stay within 2% of the previous `BENCH_fs_model.json` baseline,
//!    proving the disabled instrumentation is free.
//! 2. **Observability enabled**: the same workload re-run with `fs-obs` on;
//!    throughput is sourced from the registry itself (dispatch counters +
//!    `fs.reference`/`fs.dense` span totals) instead of hand-rolled timers,
//!    with a drift assertion that the counters account for every run.
//!
//! Prints per-kernel timings and the aggregate points/sec before vs after;
//! writes the numbers to `BENCH_fs_model.json` (uploaded as a CI artifact)
//! and exits non-zero if the aggregate speedup is under the 3x gate.

use cost_model::{run_fs_model_prepared, FsModelConfig, FsPath};
use fs_core::{machines, obs, JsonValue};
use std::process::ExitCode;
use std::time::Instant;

/// Required aggregate speedup of the optimized path.
const GATE: f64 = 3.0;
/// Timed repetitions per (point, path).
const REPEAT: u32 = 3;
/// Max tolerated slowdown of the obs-disabled hot loop vs the recorded
/// baseline (enforced only under `FS_OBS_GATE=1`).
const OBS_OVERHEAD_GATE: f64 = 0.02;
const JSON_PATH: &str = "BENCH_fs_model.json";

struct PointResult {
    kernel: String,
    chunk: u64,
    reference_s: f64,
    optimized_s: f64,
}

struct Point {
    name: &'static str,
    chunk: u64,
    kernel: loop_ir::Kernel,
    plan: loop_ir::AccessPlan,
    bases: Vec<u64>,
}

fn main() -> ExitCode {
    let machine = machines::paper48();
    let threads = 8u32;
    let chunks = [1u64, 4];
    let kernel_names = ["linreg", "heat", "dft", "stencil", "histogram", "matmul"];

    // Read the previous run's baseline before this run overwrites it. Prefer
    // the obs-aware field; fall back to the pre-obs artifact layout.
    let baseline_pps = std::fs::read_to_string(JSON_PATH)
        .ok()
        .and_then(|doc| fs_core::json::parse(&doc).ok())
        .and_then(|doc| {
            doc.get("points_per_sec_disabled_obs")
                .or_else(|| doc.get("points_per_sec_after"))?
                .as_f64()
        });

    println!(
        "## fs-model benchmark: {} kernels x {{1,4}} chunks, {threads} threads, {REPEAT} reps",
        kernel_names.len()
    );

    let mut grid: Vec<Point> = Vec::new();
    for name in kernel_names {
        let base = fs_core::corpus_kernel(name).expect("bundled kernel");
        for chunk in chunks {
            let kernel = fs_core::kernel_at_chunk(&base, chunk);
            // Step-1 inputs are schedule-independent; prepare once, as the
            // sweep engine does.
            let plan = kernel.access_plan();
            let bases = kernel.array_bases(machine.line_size());
            grid.push(Point {
                name,
                chunk,
                kernel,
                plan,
                bases,
            });
        }
    }

    // Per point, back to back: correctness gate, obs-disabled timed reps
    // (min-of-reps — the official figures and the overhead-gate input),
    // then the same reps with obs enabled feeding the registry. Interleaving
    // the two modes at point granularity keeps slow drift on a shared box
    // (thermal throttling, noisy neighbours) from biasing one mode.
    obs::reset();
    let mut points: Vec<PointResult> = Vec::new();
    // Total obs-disabled seconds across all reps of the optimized path —
    // the mean-based denominator the enabled-mode overhead is compared to.
    let mut disabled_opt_rep_total = 0.0f64;
    for p in &grid {
        let mut cfg = FsModelConfig::for_machine(&machine, threads);

        // Correctness gate: identical counts, field for field.
        cfg.path = FsPath::Reference;
        let want = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
        cfg.path = FsPath::Optimized;
        let got = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
        if got != want {
            eprintln!(
                "fs_model_bench: paths diverge on {} chunk {}: \
                 optimized {} cases / {} events, reference {} cases / {} events",
                p.name, p.chunk, got.fs_cases, got.fs_events, want.fs_cases, want.fs_events
            );
            return ExitCode::FAILURE;
        }

        // (min seconds, total seconds) over REPEAT individually timed runs.
        let mut time_path = |path: FsPath| {
            cfg.path = path;
            let mut min = f64::INFINITY;
            let mut total = 0.0f64;
            let mut sink = 0u64;
            for _ in 0..REPEAT {
                let t0 = Instant::now();
                sink = sink.wrapping_add(
                    run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases).fs_cases,
                );
                let dt = t0.elapsed().as_secs_f64();
                min = min.min(dt);
                total += dt;
            }
            std::hint::black_box(sink);
            (min, total)
        };
        let (reference_s, _) = time_path(FsPath::Reference);
        let (optimized_s, opt_total) = time_path(FsPath::Optimized);
        disabled_opt_rep_total += opt_total;

        // Same reps again with the registry live.
        obs::configure(obs::ObsConfig::enabled());
        let mut sink = 0u64;
        for path in [FsPath::Reference, FsPath::Optimized] {
            cfg.path = path;
            for _ in 0..REPEAT {
                sink = sink.wrapping_add(
                    run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases).fs_cases,
                );
            }
        }
        std::hint::black_box(sink);
        obs::configure(obs::ObsConfig::disabled());

        println!(
            "{:>10} chunk {:>2}: reference {:>8.2} ms, optimized {:>8.2} ms ({:>5.1}x)",
            p.name,
            p.chunk,
            reference_s * 1e3,
            optimized_s * 1e3,
            reference_s / optimized_s.max(1e-9)
        );
        points.push(PointResult {
            kernel: p.name.to_string(),
            chunk: p.chunk,
            reference_s,
            optimized_s,
        });
    }

    let ref_total: f64 = points.iter().map(|p| p.reference_s).sum();
    let opt_total: f64 = points.iter().map(|p| p.optimized_s).sum();
    let n = points.len() as f64;
    let disabled_ref_pps = n / ref_total.max(1e-9);
    let disabled_opt_pps = n / opt_total.max(1e-9);
    let speedup = ref_total / opt_total.max(1e-9);
    println!(
        "throughput (obs disabled): reference {disabled_ref_pps:.1} points/s, \
         optimized {disabled_opt_pps:.1} points/s"
    );
    println!("speedup: {speedup:.1}x (gate {GATE:.1}x)");
    let pass = speedup >= GATE;

    // The enabled-mode runs above fed the registry; the registry is the
    // timer here — dispatch counters say how many runs happened, span totals
    // say how long each path spent.
    let snap = obs::snapshot();

    let runs_ref = snap.counter("fs.dispatch_reference");
    let runs_dense = snap.counter("fs.dispatch_dense");
    let expected = grid.len() as u64 * REPEAT as u64;
    // Drift assertion: the counters must account for exactly the runs this
    // process issued, or the instrumentation cannot be trusted as a timer.
    if runs_ref != expected || runs_dense != expected {
        eprintln!(
            "fs_model_bench: counter drift: expected {expected} runs per path, \
             counters say reference {runs_ref} / dense {runs_dense}"
        );
        return ExitCode::FAILURE;
    }
    if snap.counter("fs.model_runs") != runs_ref + runs_dense {
        eprintln!(
            "fs_model_bench: counter drift: fs.model_runs {} != dispatch sum {}",
            snap.counter("fs.model_runs"),
            runs_ref + runs_dense
        );
        return ExitCode::FAILURE;
    }
    let ref_span_s = snap.span_total_ns("fs.reference") as f64 / 1e9;
    let dense_span_s = snap.span_total_ns("fs.dense") as f64 / 1e9;
    // Model evaluations per second with the registry live, straight from
    // the registry: run counts over span totals.
    let enabled_ref_pps = runs_ref as f64 / ref_span_s.max(1e-9);
    let enabled_opt_pps = runs_dense as f64 / dense_span_s.max(1e-9);
    // Mean-vs-mean on the interleaved reps: the honest enabled-mode cost.
    let obs_overhead = dense_span_s / disabled_opt_rep_total.max(1e-9) - 1.0;
    println!(
        "throughput (obs enabled, counter-sourced): reference {enabled_ref_pps:.1} points/s, \
         optimized {enabled_opt_pps:.1} points/s"
    );
    println!(
        "obs-enabled overhead on optimized path: {:+.2}%",
        obs_overhead * 100.0
    );

    // Overhead gate: the *disabled* hot loop must not have regressed vs the
    // previous artifact. Opt-in via FS_OBS_GATE=1 so one-off local runs on
    // loaded machines don't trip it.
    let gate_on = std::env::var("FS_OBS_GATE").as_deref() == Ok("1");
    let mut obs_gate_pass = true;
    match (gate_on, baseline_pps) {
        (true, Some(base)) => {
            let floor = base * (1.0 - OBS_OVERHEAD_GATE);
            obs_gate_pass = disabled_opt_pps >= floor;
            println!(
                "obs overhead gate: disabled-obs optimized {disabled_opt_pps:.1} points/s vs \
                 baseline {base:.1} (floor {floor:.1}): {}",
                if obs_gate_pass { "PASS" } else { "FAIL" }
            );
        }
        (true, None) => {
            println!(
                "obs overhead gate: no baseline {JSON_PATH} yet; recording one (gate skipped)"
            );
        }
        (false, _) => {
            println!("obs overhead gate: not enforced (set FS_OBS_GATE=1 to enable)");
        }
    }

    let doc = JsonValue::obj()
        .field("benchmark", "fs_model")
        .field("threads", threads)
        .field("repeat", REPEAT)
        .field("points", {
            JsonValue::Arr(
                points
                    .iter()
                    .map(|p| {
                        JsonValue::obj()
                            .field("kernel", p.kernel.as_str())
                            .field("chunk", p.chunk)
                            .field("reference_seconds", p.reference_s)
                            .field("optimized_seconds", p.optimized_s)
                            .field("speedup", p.reference_s / p.optimized_s.max(1e-9))
                    })
                    .collect(),
            )
        })
        .field("points_per_sec_before", disabled_ref_pps)
        .field("points_per_sec_after", disabled_opt_pps)
        .field("points_per_sec_disabled_obs", disabled_opt_pps)
        .field("points_per_sec_enabled_obs", enabled_opt_pps)
        .field("obs_overhead_percent", obs_overhead * 100.0)
        .field(
            "obs_baseline_points_per_sec",
            baseline_pps.map(JsonValue::from).unwrap_or(JsonValue::Null),
        )
        .field("obs_gate_enforced", gate_on)
        .field("speedup", speedup)
        .field("gate", GATE)
        .field("pass", pass && obs_gate_pass);
    match std::fs::write(JSON_PATH, doc.render_pretty()) {
        Ok(()) => println!("wrote {JSON_PATH}"),
        Err(e) => {
            eprintln!("fs_model_bench: cannot write {JSON_PATH}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if pass && obs_gate_pass {
        println!("PASS (>= {GATE:.1}x)");
        ExitCode::SUCCESS
    } else {
        println!(
            "FAIL ({})",
            if pass { "obs overhead gate" } else { "speedup" }
        );
        ExitCode::FAILURE
    }
}

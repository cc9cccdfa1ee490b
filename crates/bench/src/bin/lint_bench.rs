//! Symbolic-lint benchmark: the closed-form `cost_model::lint` analyzer vs
//! the `FsPath::Reference` simulator it replaces for yes/no questions, over
//! the bundled corpus.
//!
//! A *point* is one (kernel, threads, chunk) configuration. For every point
//! the lint verdict is first checked against the simulated FS-case count
//! (the differential contract: `FalseSharing` ⇒ cases > 0, `Clean` ⇒ 0,
//! `Unknown` fails the run), then both sides are timed — the lint in
//! batches, because a single symbolic pass costs microseconds and a single
//! `Instant` read would dominate it.
//!
//! Prints per-point timings, the aggregate points/sec on each side, and the
//! speedup; writes `BENCH_lint.json` (uploaded as a CI artifact next to the
//! other bench artifacts) and exits non-zero if the lint is not at least
//! 100x faster than the reference simulation or any verdict disagrees.

use cost_model::{lint_kernel, run_fs_model_prepared, FsModelConfig, FsPath, LintVerdict};
use fs_core::{machines, JsonValue};
use std::process::ExitCode;
use std::time::Instant;

/// Required aggregate speedup of the symbolic lint over the reference path.
const GATE: f64 = 100.0;
/// Timed repetitions per (point, side); each rep of the lint side runs
/// `LINT_BATCH` lints and divides.
const REPEAT: u32 = 3;
const LINT_BATCH: u32 = 64;
const JSON_PATH: &str = "BENCH_lint.json";

struct Point {
    name: &'static str,
    chunk: u64,
    kernel: loop_ir::Kernel,
    plan: loop_ir::AccessPlan,
    bases: Vec<u64>,
}

struct PointResult {
    kernel: String,
    chunk: u64,
    verdict: &'static str,
    sim_cases: u64,
    lint_s: f64,
    sim_s: f64,
}

fn main() -> ExitCode {
    let machine = machines::paper48();
    let threads = 8u32;
    let chunks = [1u64, 4];
    let kernel_names = ["linreg", "heat", "dft", "stencil", "histogram", "matmul"];

    // Previous run's speedup, for an informational delta line.
    let baseline_speedup = std::fs::read_to_string(JSON_PATH)
        .ok()
        .and_then(|doc| fs_core::json::parse(&doc).ok())
        .and_then(|doc| doc.get("speedup")?.as_f64());

    println!(
        "## lint benchmark: {} kernels x {{1,4}} chunks, {threads} threads, \
         {REPEAT} reps (lint batched x{LINT_BATCH})",
        kernel_names.len()
    );

    let mut grid: Vec<Point> = Vec::new();
    for name in kernel_names {
        let base = fs_core::corpus_kernel(name).expect("bundled kernel");
        for chunk in chunks {
            let kernel = fs_core::kernel_at_chunk(&base, chunk);
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

    let mut points: Vec<PointResult> = Vec::new();
    for p in &grid {
        let mut cfg = FsModelConfig::for_machine(&machine, threads);
        cfg.path = FsPath::Reference;

        // Correctness gate first: the lint verdict must agree with the
        // simulated count at the same configuration.
        let lint = lint_kernel(&p.kernel, machine.line_size(), threads);
        let sim = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
        let agree = match lint.verdict {
            LintVerdict::FalseSharing => sim.fs_cases > 0,
            LintVerdict::Clean => sim.fs_cases == 0,
            LintVerdict::Unknown => false,
        };
        if !agree {
            eprintln!(
                "lint_bench: divergence on {} chunk {}: lint says {}, \
                 simulator counted {} cases",
                p.name,
                p.chunk,
                lint.verdict.as_str(),
                sim.fs_cases
            );
            return ExitCode::FAILURE;
        }

        // Lint side: min-of-reps, each rep a batch of LINT_BATCH passes.
        let mut lint_min = f64::INFINITY;
        let mut sink = 0u64;
        for _ in 0..REPEAT {
            let t0 = Instant::now();
            for _ in 0..LINT_BATCH {
                let r = lint_kernel(&p.kernel, machine.line_size(), threads);
                sink = sink.wrapping_add(r.diagnostics.len() as u64);
            }
            let s = t0.elapsed().as_secs_f64() / LINT_BATCH as f64;
            lint_min = lint_min.min(s);
        }
        std::hint::black_box(sink);

        // Simulator side: min-of-reps, one full reference evaluation each.
        let mut sim_min = f64::INFINITY;
        let mut sink = 0u64;
        for _ in 0..REPEAT {
            let t0 = Instant::now();
            let r = run_fs_model_prepared(&p.kernel, &cfg, &p.plan, &p.bases);
            sink = sink.wrapping_add(r.fs_cases);
            sim_min = sim_min.min(t0.elapsed().as_secs_f64());
        }
        std::hint::black_box(sink);

        println!(
            "{:<12} chunk {}: lint {:>9.3} us, reference sim {:>9.3} ms \
             ({:>8.0}x), verdict {} / {} sim cases",
            p.name,
            p.chunk,
            lint_min * 1e6,
            sim_min * 1e3,
            sim_min / lint_min.max(1e-12),
            lint.verdict.as_str(),
            sim.fs_cases
        );
        points.push(PointResult {
            kernel: p.name.to_string(),
            chunk: p.chunk,
            verdict: lint.verdict.as_str(),
            sim_cases: sim.fs_cases,
            lint_s: lint_min,
            sim_s: sim_min,
        });
    }

    let lint_total: f64 = points.iter().map(|p| p.lint_s).sum();
    let sim_total: f64 = points.iter().map(|p| p.sim_s).sum();
    let n = points.len() as f64;
    let lint_pps = n / lint_total.max(1e-12);
    let sim_pps = n / sim_total.max(1e-12);
    let speedup = sim_total / lint_total.max(1e-12);
    let pass = speedup >= GATE;

    println!(
        "aggregate: lint {lint_pps:.0} points/s, reference sim {sim_pps:.1} points/s, \
         speedup {speedup:.0}x (gate {GATE:.0}x): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if let Some(base) = baseline_speedup {
        println!("previous {JSON_PATH}: speedup {base:.0}x");
    }

    let doc = JsonValue::obj()
        .field("benchmark", "lint")
        .field("threads", threads)
        .field("repeat", REPEAT)
        .field("lint_batch", LINT_BATCH)
        .field(
            "points",
            JsonValue::Arr(
                points
                    .iter()
                    .map(|p| {
                        JsonValue::obj()
                            .field("kernel", p.kernel.as_str())
                            .field("chunk", p.chunk)
                            .field("verdict", p.verdict)
                            .field("sim_cases", p.sim_cases)
                            .field("lint_seconds", p.lint_s)
                            .field("sim_seconds", p.sim_s)
                    })
                    .collect::<Vec<_>>(),
            ),
        )
        .field("lint_points_per_sec", lint_pps)
        .field("sim_points_per_sec", sim_pps)
        .field("speedup", speedup)
        .field("gate", GATE)
        .field("pass", pass);
    if let Err(e) = std::fs::write(JSON_PATH, doc.render_pretty()) {
        eprintln!("lint_bench: cannot write {JSON_PATH}: {e}");
    }

    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The repository benchmark. Run it through `perfbench/run.py`, which builds
//! the shipped `fsdetect` and `fsd` binaries and this program, then calls:
//!
//! ```text
//! perfbench --workload cli_cold|fsd_warm_mix|sim_replay --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//!           --golden FILE [--commit ID]
//! perfbench --regen-golden --golden FILE
//! ```
//!
//! A run prints every metric by name and unit with its sample count, the
//! input properties and the host fingerprint, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the traced variant of
//! the workload and reports the per-layer metrics (see `report.rs`).

mod cli_cold;
mod fsd_mix;
mod inputs;
mod layers;
mod oracle;
mod report;
mod rng;
mod sim_replay;
mod spans;
mod stats;
mod sys;

use fs_core::json::JsonValue;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    pub golden: oracle::Golden,
    pub nproc: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    golden: PathBuf,
    commit: String,
    regen: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        work_dir: PathBuf::from(".bench_build/perfbench"),
        golden: PathBuf::from("perfbench/golden.json"),
        commit: "unknown".to_string(),
        regen: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--regen-golden" {
            a.regen = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {v}"))?
            }
            "--trace" => a.trace = v == "1",
            "--bin-dir" => a.bin_dir = PathBuf::from(&v),
            "--work-dir" => a.work_dir = PathBuf::from(&v),
            "--golden" => a.golden = PathBuf::from(&v),
            "--commit" => a.commit = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Write the trace of a traced run and check that self times add up:
/// their sum may never exceed the wall time the root spans cover.
pub fn finish_trace(ctx: &Ctx, out: &mut Outcome, spans: &[spans::Span], wall_s: f64) {
    let path = ctx
        .work_dir
        .join(format!("{}-seed{}.trace.json", ctx.workload, ctx.seed));
    let tracks: Vec<(u32, String)> = {
        let mut t: Vec<u32> = spans.iter().map(|s| s.track).collect();
        t.sort_unstable();
        t.dedup();
        t.into_iter()
            .map(|id| (id, format!("client-{id}")))
            .collect()
    };
    match std::fs::write(&path, spans::chrome_trace(spans, &tracks)) {
        Ok(()) => out.notes.push(format!(
            "trace: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .setup_failures
            .push(format!("cannot write {}: {e}", path.display())),
    }
    let by_name = spans::self_time_by_name(spans);
    let total_self: u64 = by_name.iter().map(|(_, t)| t).sum();
    let root_wall = spans::root_wall_ns(spans);
    if total_self > root_wall || root_wall as f64 > wall_s * 1e9 * 1.001 {
        out.setup_failures.push(format!(
            "self times ({total_self} ns) exceed traced wall time ({root_wall} ns of {wall_s:.3} s)"
        ));
    }
    for (name, ns) in by_name {
        out.notes.push(format!(
            "self time: {name:<18} {:>10.3} ms ({:>5.1}% of traced wall)",
            ns as f64 / 1e6,
            100.0 * ns as f64 / root_wall.max(1) as f64
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.regen {
        return match oracle::regenerate(nproc) {
            Ok(g) => match std::fs::write(&args.golden, g.render()) {
                Ok(()) => {
                    eprintln!(
                        "perfbench: wrote {} ({} fs points, {} replays)",
                        args.golden.display(),
                        g.fs.len(),
                        g.sim.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: cannot write {}: {e}", args.golden.display());
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("perfbench: reference computation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let golden = match oracle::Golden::load(&args.golden.to_string_lossy()) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        bin_dir: args.bin_dir,
        work_dir: args.work_dir,
        golden,
        nproc,
    };
    let run: fn(&Ctx) -> Outcome = match ctx.workload.as_str() {
        "cli_cold" => cli_cold::run,
        "fsd_warm_mix" => fsd_mix::run,
        "sim_replay" => sim_replay::run,
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' (cli_cold | fsd_warm_mix | sim_replay)"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "host: nproc={nproc} commit={} profile={}",
        args.commit,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let out = run(&ctx);
    for f in &out.setup_failures {
        println!("FAILED (set-up): {f}");
    }
    if out.ops.attempted() == 0 {
        eprintln!("perfbench: no operation was attempted");
        return ExitCode::FAILURE;
    }
    for f in &out.ops.failures {
        println!("FAILED: {f}");
    }
    for n in &out.notes {
        println!("{n}");
    }
    let list: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = JsonValue::obj();
    for &(name, unit) in list {
        let value = out.get(name).unwrap_or(0.0);
        let samples = if name == "setup_s" {
            format!("median of {} set-ups", out.setup_samples)
        } else {
            format!("n={}", out.ops.attempted())
        };
        let na = if ctx.trace && out.get(name).is_none() {
            "  (layer not entered)"
        } else {
            ""
        };
        println!("  {name:<30} {value:>14.4} {unit:<6} ({samples}){na}");
        metrics = metrics.field(
            name,
            JsonValue::obj().field("value", value).field("unit", unit),
        );
    }
    if let Some([q1, q2, q3]) = stats::quartiles(&out.ops.latencies_ms) {
        println!("  latency quartiles (ms): {q1:.4} / {q2:.4} / {q3:.4}");
    }
    println!(
        "  {:<30} {:>14.4} {:<6} ({}/{} failed)",
        "fail_rate",
        out.ops.fail_rate(),
        "ratio",
        out.ops.failed,
        out.ops.attempted()
    );
    let correct = out.ops.failed == 0 && out.setup_failures.is_empty();
    let line = JsonValue::obj()
        .field("correct", correct)
        .field("attempted", out.ops.attempted())
        .field("failed", out.ops.failed)
        .field("metrics", metrics);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

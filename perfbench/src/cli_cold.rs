//! `cli_cold`: one client runs `fsdetect <kernel> --json --quiet` processes
//! one after another (closed loop) on a seeded draw of the bundled kernels
//! at shipped sizes and 2-4x rescalings; one invocation in six also carries
//! a small `--sweep-grid`. Every point is a cache miss.

use crate::inputs::{self, Variant, CLI_GRIDS, CLI_MULTS, CLI_THREADS, CORPUS};
use crate::layers::{self, Probe};
use crate::oracle::{self, Expect};
use crate::report::{another_pass, per_op, Best, Outcome};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::{stats, sys, Ctx};
use fs_core::json::{self, JsonValue};
use fs_core::service::{KernelInput, Service, ServiceRequest};
use std::collections::HashMap;
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

struct CliOp {
    variant: Variant,
    grid: Option<(Vec<u32>, Vec<u64>)>,
}

impl CliOp {
    fn args(&self) -> Vec<String> {
        let mut a = vec![
            format!("@{}", self.variant.corpus),
            "--json".into(),
            "--quiet".into(),
        ];
        for (n, v) in &self.variant.consts {
            a.push("--const".into());
            a.push(format!("{n}={v}"));
        }
        if let Some((t, c)) = &self.grid {
            let join = |v: Vec<String>| v.join(",");
            a.push("--sweep-grid".into());
            a.push(format!(
                "{}:{}",
                join(t.iter().map(|x| x.to_string()).collect()),
                join(c.iter().map(|x| x.to_string()).collect())
            ));
        }
        a
    }
}

/// The run's inputs: one deck per grid spec, each deck holding every kernel
/// at every multiplier of [`CLI_MULTS`] with the first (shipped-size) entry
/// of each kernel carrying a grid. A seeded offset per kernel decides which
/// deck gives it which spec, so every run meets each (kernel, spec) pair
/// once.
fn input_set(rng: &mut Rng) -> Vec<CliOp> {
    let offsets: Vec<usize> = CORPUS.iter().map(|_| rng.below(CLI_GRIDS.len())).collect();
    let mut ops = Vec::new();
    for deck in 0..CLI_GRIDS.len() {
        for (c, off) in CORPUS.iter().zip(&offsets) {
            for (i, &m) in CLI_MULTS.iter().enumerate() {
                let grid = (i == 0).then(|| {
                    let (t, ch) = CLI_GRIDS[(deck + off) % CLI_GRIDS.len()];
                    (t.to_vec(), ch.to_vec())
                });
                ops.push(CliOp {
                    variant: Variant::scaled(c, m),
                    grid,
                });
            }
        }
    }
    ops
}

/// Run a child to completion, killing it after `timeout`. Returns its
/// output and wall time in ms.
pub fn run_child(cmd: &mut Command, timeout: Duration) -> Result<(Output, f64), String> {
    let t = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn failed: {e}"))?;
    let pid = child.id();
    let (cancel, cancelled) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if cancelled.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
            sys::kill_pid(pid);
        }
    });
    let out = child.wait_with_output();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = cancel.send(());
    watchdog.join().expect("watchdog thread panicked");
    out.map(|o| (o, ms))
        .map_err(|e| format!("wait failed: {e}"))
}

/// Check one finished process: exit code 0 or 1 (1 exactly when the report
/// is significant) and an envelope that matches the oracle.
fn check(out: &Output, exp: &Expect, ctx: &Ctx) -> Result<(oracle::Checked, JsonValue), String> {
    let code = out.status.code().ok_or("killed by a signal")?;
    let doc = json::parse(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("exit {code}, unparsable stdout: {e}"))?;
    let c = oracle::check_envelope(&doc, exp, &ctx.golden)?;
    if code != i32::from(c.significant) {
        return Err(format!("exit code {code} disagrees with the report"));
    }
    Ok((c, doc))
}

#[derive(Default)]
struct Layers {
    traced: usize,
    default_ns: u64,
    best_ns: u64,
    symbolic_wins: usize,
    sweep_point_ns: f64,
    sweep_capacity_ns: f64,
    process_overhead_ms: f64,
    plain_e2e_ms: f64,
    traced_e2e_ms: f64,
    cache_bytes: f64,
    cache_entries: f64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let fsdetect = ctx.bin_dir.join("fsdetect");
    let timeout = Duration::from_secs_f64(crate::report::FAILED_OP_MS / 1e3);

    // Set-up: the CLI's fixed start-up cost, as the median of fifteen runs
    // of `fsdetect --list` (process start, no analysis).
    let mut setups = Vec::new();
    for _ in 0..15 {
        match run_child(Command::new(&fsdetect).arg("--list"), timeout) {
            Ok((o, ms)) if o.status.success() => setups.push(ms / 1e3),
            Ok((o, _)) => out
                .setup_failures
                .push(format!("fsdetect --list exited {}", o.status)),
            Err(e) => out.setup_failures.push(e),
        }
    }
    if !out.setup_failures.is_empty() {
        return out;
    }
    let setup_s = stats::median(&setups).expect("fifteen set-up samples");
    out.setup_samples = setups.len();

    let mut rng = Rng::new(ctx.seed);
    let mut chunks: HashMap<Variant, Result<u64, String>> = HashMap::new();
    let tracer = Tracer::new();
    let machine = inputs::machine();
    let mut l = Layers::default();
    let (mut self_ms, mut hits, mut misses, mut dup, mut tallies) = (0.0, 0u64, 0u64, 0.0, 0.0);
    let (mut plans, mut steps, mut dispatch, mut fallbacks) = (0.0, 0.0, 0.0, 0.0);
    let mut envelopes = 0usize;

    let ops = input_set(&mut rng);
    let mut best = Best::new(ops.len());
    let start = Instant::now();
    let mut req = 0u64;
    let mut passes = 0;
    // Untraced runs fill --seconds with passes (see `another_pass`); the
    // traced run makes one, cut short when --seconds runs out.
    while passes == 0 || (!ctx.trace && another_pass(passes, start, ctx.seconds)) {
        passes += 1;
        let mut order: Vec<usize> = (0..ops.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if ctx.trace && req > 0 && start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
            let op = &ops[i];
            req += 1;
            let chunk = chunks
                .entry(op.variant.clone())
                .or_insert_with(|| {
                    op.variant
                        .kernel()
                        .map(|k| k.nest.parallel.schedule.chunk())
                })
                .clone();
            let exp = match chunk {
                Ok(chunk) => Expect {
                    variant: op.variant.clone(),
                    threads: CLI_THREADS,
                    chunk,
                    grid: op.grid.clone(),
                },
                Err(e) => {
                    best.record(i, Err(format!("{}: {e}", op.variant.corpus)));
                    continue;
                }
            };
            let mut cmd = Command::new(&fsdetect);
            cmd.args(op.args());
            let result = if ctx.trace {
                traced_op(ctx, &tracer, req, &mut cmd, op, &exp, &machine, &mut l)
            } else {
                run_child(&mut cmd, timeout)
                    .and_then(|(o, ms)| check(&o, &exp, ctx).map(|c| (c, ms)))
            };
            match result {
                Ok(((c, doc), ms)) => {
                    best.record(i, Ok((ms, c.points)));
                    if !ctx.trace {
                        continue;
                    }
                    envelopes += 1;
                    self_ms += c.self_ms;
                    hits += c.cache_hits;
                    misses += c.cache_misses;
                    let distinct = 1 + c.grid_points
                        - u64::from(op.grid.as_ref().is_some_and(|(t, ch)| {
                            t.contains(&CLI_THREADS) && ch.contains(&exp.chunk)
                        }));
                    dup += c.cache_misses as f64 - distinct as f64;
                    tallies += f64::from(u8::from(c.tally_mismatch));
                    plans += oracle::num(&doc, &["metrics", "counters", "stream.plans_compiled"])
                        .unwrap_or(0.0);
                    steps += oracle::num(&doc, &["metrics", "counters", "fs.lockstep_steps"])
                        .unwrap_or(0.0);
                    dispatch += oracle::num(&doc, &["metrics", "counters", "fs.dispatch_symbolic"])
                        .unwrap_or(0.0);
                    fallbacks +=
                        oracle::num(&doc, &["metrics", "counters", "fs.symbolic_fallbacks"])
                            .unwrap_or(0.0);
                }
                Err(e) => best.record(
                    i,
                    Err(format!(
                        "{} {}: {e}",
                        fsdetect.display(),
                        op.args().join(" ")
                    )),
                ),
            }
        }
    }
    out.ops = best.into_log();
    let wall_s = start.elapsed().as_secs_f64();

    if !ctx.trace {
        out.set_end_to_end(setup_s, out.ops.busy_s(), sys::children_peak_rss_mb());
        out.notes.push(format!("cli: {passes} passes, each input's fastest kept"));
        out.notes.push(
            "input: the share of inputs where symbolic beats dense is measured by the traced run (--trace 1)"
                .to_string(),
        );
        return out;
    }

    let spans = tracer.spans();
    let by_name = spans::self_time_by_name(&spans);
    let self_ms_of = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    };
    let n = l.traced;
    for (metric, span) in [
        ("loop_ir.parse_ms", "loop_ir.parse"),
        ("loop_ir.validate_ms", "loop_ir.validate"),
        ("lint.ms", "lint"),
        ("fs.point_ms", "fs.point"),
        ("sweep.run_ms", "sweep.run"),
    ] {
        out.set(metric, per_op(self_ms_of(span), n));
    }
    out.set("loop_ir.plans_compiled", per_op(plans, envelopes));
    out.set("fs.lockstep_steps", per_op(steps, envelopes));
    out.set("fs.dispatch_symbolic", per_op(dispatch, envelopes));
    out.set("fs.symbolic_fallbacks", per_op(fallbacks, envelopes));
    out.set(
        "fs.symbolic_hit_ratio",
        if dispatch > 0.0 {
            (dispatch - fallbacks) / dispatch
        } else {
            0.0
        },
    );
    out.set(
        "fs.default_over_best",
        l.default_ns as f64 / l.best_ns.max(1) as f64,
    );
    out.set(
        "sweep.pool_busy_frac",
        if l.sweep_capacity_ns > 0.0 {
            l.sweep_point_ns / l.sweep_capacity_ns
        } else {
            0.0
        },
    );
    out.set("cli.process_overhead_ms", per_op(l.process_overhead_ms, n));
    out.set("svc.self_ms", per_op(self_ms, envelopes));
    out.set(
        "svc.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("svc.cache_bytes", per_op(l.cache_bytes, n));
    out.set("svc.cache_entries", per_op(l.cache_entries, n));
    out.set("svc.duplicate_misses", dup);
    out.set("svc.tally_mismatches", tallies);
    out.set("fail_rate", out.ops.fail_rate());
    out.set(
        "obs.overhead_frac",
        l.traced_e2e_ms / l.plain_e2e_ms.max(1e-9) - 1.0,
    );
    out.notes.push(format!(
        "input: symbolic beats dense on {}/{} traced inputs ({:.0}%)",
        l.symbolic_wins,
        l.traced,
        100.0 * l.symbolic_wins as f64 / l.traced.max(1) as f64
    ));
    crate::finish_trace(ctx, &mut out, &spans, wall_s);
    out
}

/// A traced operation: the process once untraced (the overhead baseline),
/// then inside an `op` span the process again (`cli.process`) followed by
/// the in-process layer pass on the same input.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    ctx: &Ctx,
    tracer: &Tracer,
    req: u64,
    cmd: &mut Command,
    op: &CliOp,
    exp: &Expect,
    m: &machine::MachineConfig,
    l: &mut Layers,
) -> Result<((oracle::Checked, JsonValue), f64), String> {
    let timeout = Duration::from_secs_f64(crate::report::FAILED_OP_MS / 1e3);
    let (plain, plain_ms) = run_child(cmd, timeout)?;
    check(&plain, exp, ctx)?;
    tracer.span("op", req, None, 0, |id| {
        let p = Probe {
            tracer,
            req,
            parent: id,
            track: 0,
        };
        let (o, ms) = p.time("cli.process", || run_child(cmd, timeout))?;
        let checked = check(&o, exp, ctx)?;
        let kernel = layers::front_end(&p, &op.variant, CLI_THREADS, m)?;
        let fs = layers::fs_point(&p, &kernel, CLI_THREADS, m);
        if let Some((threads, chunks)) = &op.grid {
            let grid = fs_core::SweepGrid {
                kernels: vec![(kernel.name.clone(), kernel.clone())],
                machines: vec![(inputs::MACHINE.to_string(), m.clone())],
                threads: threads.clone(),
                chunks: chunks.clone(),
            };
            let engine = fs_core::SweepEngine::new().path(fs_core::ServiceOptions::default().path);
            let r = p
                .time("sweep.run", || engine.run(&grid))
                .map_err(|e| e.to_string())?;
            let workers = ctx.nproc.min(r.stats.point_wall_ns.len()).max(1);
            l.sweep_point_ns += r.stats.point_wall_ns.iter().sum::<u64>() as f64;
            l.sweep_capacity_ns += (r.stats.wall_ns * workers as u64) as f64;
        }
        let svc = Service::new();
        let request = ServiceRequest {
            kernels: vec![KernelInput::named(format!("@{}", op.variant.corpus))],
            grid: op.grid.clone(),
            options: fs_core::ServiceOptions {
                threads: CLI_THREADS,
                timing: true,
                consts: op
                    .variant
                    .consts
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v))
                    .collect(),
                ..fs_core::ServiceOptions::default()
            },
            ..ServiceRequest::default()
        };
        let t = Instant::now();
        let resp = p.time("svc.handle", || svc.handle(&request));
        let handle_ms = t.elapsed().as_secs_f64() * 1e3;
        if resp.has_errors() {
            return Err(format!(
                "in-process service errors: {:?}",
                resp.all_errors()
            ));
        }
        let cache = svc.cache().stats();
        l.traced += 1;
        l.default_ns += fs.default_ns;
        l.best_ns += fs.best_ns();
        l.symbolic_wins += usize::from(fs.symbolic_ns < fs.optimized_ns);
        l.process_overhead_ms += ms - handle_ms;
        l.plain_e2e_ms += plain_ms;
        l.traced_e2e_ms += ms;
        l.cache_bytes += cache.bytes as f64;
        l.cache_entries += cache.entries as f64;
        Ok((checked, ms))
    })
}

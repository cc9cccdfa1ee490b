//! `sim_replay`: in-process MESI replays through
//! `cache_sim::simulate_kernel_prepared`, each table point as a pair (the
//! false-sharing chunk, then the chunk that avoids it) sharing one
//! `SimPrepared`, with a replay worker budget of `nproc`.

use crate::inputs::{self, SimSpec};
use crate::layers::Probe;
use crate::oracle;
use crate::report::{another_pass, per_op, Best, Outcome};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::{stats, sys, Ctx};
use cache_sim::{SimPath, SimPrepared, TraceGen};
use fs_obs as obs;
use loop_ir::Kernel;
use std::time::Instant;

/// Observability settings of the program during traced replays (counters
/// only: the benchmark records its own spans).
const COUNTERS_ONLY: obs::ObsConfig = obs::ObsConfig {
    spans: false,
    counters: true,
    ring: None,
};

/// Timed preparations of every input before each pass; `setup_s` is the
/// median of all of them.
const SETUP_REPS: usize = 5;

struct Prepared {
    spec: SimSpec,
    kernel: Kernel,
    prep: SimPrepared,
}

/// Parse every replay input and plan its trace (the set-up work).
fn prepare(specs: &[SimSpec], line: u64) -> Result<Vec<Prepared>, String> {
    specs
        .iter()
        .map(|spec| {
            let kernel = spec.variant.kernel()?;
            let prep = SimPrepared::new(&kernel, line);
            Ok(Prepared {
                spec: spec.clone(),
                kernel,
                prep,
            })
        })
        .collect()
}

#[derive(Default)]
struct Counts {
    accesses: u64,
    sharded: u64,
    geometry: u64,
    prefetch: u64,
    plans: u64,
}

impl Counts {
    fn now() -> Self {
        use obs::counters::*;
        Counts {
            accesses: SIM_ACCESSES.get(),
            sharded: SIM_DISPATCH_SHARDED.get(),
            geometry: SIM_SHARD_GEOMETRY_FALLBACKS.get(),
            prefetch: SIM_SHARD_PREFETCH_FALLBACKS.get(),
            plans: STREAM_PLANS_COMPILED.get(),
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    sys::keep_freed_memory();
    let mut out = Outcome::default();
    let specs = inputs::sim_specs();
    let machine = inputs::machine();
    let line = machine.line_size();

    // Set-up: parse and plan every input, SETUP_REPS times before every
    // pass (see below).
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| -> Result<Vec<Prepared>, String> {
        let mut last = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            last = prepare(&specs, line)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        Ok(last)
    };

    let mut rng = Rng::new(ctx.seed);
    let tracer = Tracer::new();
    let (mut plain_ms, mut traced_ms, mut traced_n) = (0.0, 0.0, 0usize);
    let mut traced_accesses = 0u64;
    // Operation 2i + c replays input i at its c-th chunk.
    let mut accesses = vec![0u64; specs.len() * 2];
    let mut best = Best::new(accesses.len());
    let before = Counts::now();
    let start = Instant::now();
    let mut req = 0u64;
    let mut passes = 0;
    // Untraced runs fill --seconds with passes (see `another_pass`). Each
    // pass prepares its inputs afresh, so set-up is sampled across the
    // whole run too. The traced run makes one pass, cut short when
    // --seconds runs out.
    while passes == 0 || (!ctx.trace && another_pass(passes, start, ctx.seconds)) {
        let prepared = match set_up(&mut setups) {
            Ok(p) => p,
            Err(e) => {
                out.setup_failures.push(e);
                return out;
            }
        };
        passes += 1;
        let mut order: Vec<usize> = (0..prepared.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if ctx.trace && req > 0 && start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
            let p = &prepared[i];
            for (c, chunk) in [p.spec.chunks.0, p.spec.chunks.1].into_iter().enumerate() {
                req += 1;
                let kernel = fs_core::kernel_at_chunk(&p.kernel, chunk);
                let opts = oracle::sim_options(&p.spec, SimPath::Sharded, ctx.nproc);
                let replay = || {
                    let t = Instant::now();
                    let s = cache_sim::simulate_kernel_prepared(&kernel, &machine, opts, &p.prep);
                    (s, t.elapsed().as_secs_f64() * 1e3)
                };
                let (stats, ms) = if ctx.trace {
                    plain_ms += replay().1;
                    let r = tracer.span("op", req, None, 0, |id| {
                        let probe = Probe {
                            tracer: &tracer,
                            req,
                            parent: id,
                            track: 0,
                        };
                        obs::configure(COUNTERS_ONLY);
                        probe.time("sim.prepare", || SimPrepared::new(&p.kernel, line));
                        let r = probe.time("sim.replay", replay);
                        obs::configure(obs::ObsConfig::disabled());
                        probe.time("sim.trace_gen", || {
                            let gen = TraceGen::new(&kernel, p.spec.threads, line);
                            let mut n = 0usize;
                            gen.for_each_interleaved_blocks(
                                opts.interleave,
                                &gen.compile_plan(),
                                |b| n += b.len(),
                            );
                            std::hint::black_box(n)
                        });
                        r
                    });
                    traced_ms += r.1;
                    traced_n += 1;
                    traced_accesses += r.0.total_accesses();
                    r
                } else {
                    replay()
                };
                let key = p.spec.key(chunk);
                let verdict = match ctx.golden.sim.get(&key) {
                    Some(want) if *want == oracle::sim_digest(&stats) => Ok((ms, 1)),
                    Some(_) => Err(format!(
                        "{key}: replay stats differ from SimPath::Reference"
                    )),
                    None => Err(format!("no golden entry for {key}")),
                };
                accesses[2 * i + c] = stats.total_accesses();
                best.record(2 * i + c, verdict);
            }
        }
    }
    out.ops = best.into_log();
    let wall_s = start.elapsed().as_secs_f64();
    let after = Counts::now();
    let setup_s = stats::median(&setups).expect("at least one set-up sample");

    out.setup_samples = setups.len();
    if !ctx.trace {
        out.set_end_to_end(
            setup_s,
            out.ops.busy_s(),
            sys::vm_hwm_mb("self").unwrap_or(0.0),
        );
        out.notes.push(format!("sim: {passes} passes, each input's fastest kept"));
        out.notes.push(format!(
            "sim: {:.2} M simulated accesses per host second",
            accesses.iter().sum::<u64>() as f64 / 1e6 / out.ops.busy_s().max(1e-9)
        ));
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
    out.set(
        "sim.prepare_ms",
        per_op(self_ms_of("sim.prepare"), traced_n),
    );
    out.set("sim.replay_ms", per_op(self_ms_of("sim.replay"), traced_n));
    out.set(
        "sim.trace_gen_ms",
        per_op(self_ms_of("sim.trace_gen"), traced_n),
    );
    let per = |f: fn(&Counts) -> u64| per_op((f(&after) - f(&before)) as f64, traced_n);
    out.set("sim.accesses", per(|c| c.accesses));
    out.set("sim.dispatch_sharded", per(|c| c.sharded));
    out.set("sim.shard_geometry_fallbacks", per(|c| c.geometry));
    out.set("sim.shard_prefetch_fallbacks", per(|c| c.prefetch));
    out.set("loop_ir.plans_compiled", per(|c| c.plans));
    // Throughput of the plain (counters-off) replays of the same inputs.
    out.set(
        "sim_maccesses_per_s",
        traced_accesses as f64 / 1e6 / (plain_ms / 1e3).max(1e-9),
    );
    out.set("fail_rate", out.ops.fail_rate());
    out.set("obs.overhead_frac", traced_ms / plain_ms.max(1e-9) - 1.0);
    crate::finish_trace(ctx, &mut out, &spans, wall_s);
    out
}

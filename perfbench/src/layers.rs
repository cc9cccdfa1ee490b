//! The in-process layer pass of a traced operation: the benchmark calls the
//! public function of each layer on the operation's input, each call inside
//! its own span parented to the operation.

use crate::inputs::Variant;
use crate::spans::Tracer;
use cost_model::sweep::{compute_point, EvalMode};
use cost_model::{FsPath, PreparedKernel};
use loop_ir::Kernel;
use machine::MachineConfig;
use std::time::Instant;

/// Where the spans of one traced operation go.
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub req: u64,
    pub parent: u64,
    pub track: u32,
}

impl Probe<'_> {
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer
            .span(name, self.req, Some(self.parent), self.track, |_| f())
    }
}

/// Parse, validate and lint (uncached, with the capacity rule, as the
/// service does) one request's kernel.
pub fn front_end(
    p: &Probe,
    v: &Variant,
    threads: u32,
    m: &MachineConfig,
) -> Result<Kernel, String> {
    let kernel = p.time("loop_ir.parse", || v.kernel())?;
    p.time("loop_ir.validate", || loop_ir::validate(&kernel))
        .map_err(|e| e.to_string())?;
    p.time("lint", || fs_core::service::lint(&kernel, m, threads))
        .map_err(|e| e.to_string())?;
    Ok(kernel)
}

/// Times of one FS-model point on the service's default path and on both
/// exact paths, in ns.
pub struct FsTimes {
    pub default_ns: u64,
    pub symbolic_ns: u64,
    pub optimized_ns: u64,
}

impl FsTimes {
    /// The fastest exact path's time.
    pub fn best_ns(&self) -> u64 {
        self.symbolic_ns.min(self.optimized_ns)
    }
}

/// The service's FS-model path for a cache miss (`fs.point`), then every
/// other exact path on the same point (`fs.alt`).
pub fn fs_point(p: &Probe, kernel: &Kernel, threads: u32, m: &MachineConfig) -> FsTimes {
    let default = fs_core::ServiceOptions::default().path;
    let run = |path: FsPath| {
        let t = Instant::now();
        let prep = PreparedKernel::new(kernel, m);
        std::hint::black_box(compute_point(
            kernel,
            m,
            threads,
            EvalMode::Full,
            path,
            &prep,
        ));
        t.elapsed().as_nanos() as u64
    };
    let default_ns = p.time("fs.point", || run(default));
    let exact = |path: FsPath| {
        if path == default {
            default_ns
        } else {
            p.time("fs.alt", || run(path))
        }
    };
    FsTimes {
        default_ns,
        symbolic_ns: exact(FsPath::Symbolic),
        optimized_ns: exact(FsPath::Optimized),
    }
}

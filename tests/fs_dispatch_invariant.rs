//! The FS-model dispatch invariant: every model run is answered by exactly
//! one engine, so `fs.dispatch_dense + fs.dispatch_reference +
//! fs.dispatch_symbolic = fs.model_runs` (docs/OBSERVABILITY.md). Checked
//! on every path, for full runs and for `predict_fs` (whose symbolic
//! short-circuit accounts its run outside the dispatcher).
//!
//! The counters are process-global, so this binary holds a single test:
//! nothing else runs a model while the deltas are taken.

use cost_model::{predict_fs, run_fs_model, FsPath};
use fs_core::{corpus_kernel_with_consts, FsModelConfig};
use fs_obs::counters::{
    FS_DISPATCH_DENSE, FS_DISPATCH_REFERENCE, FS_DISPATCH_SYMBOLIC, FS_MODEL_RUNS,
    FS_SYMBOLIC_FALLBACKS,
};
use machine::presets;

/// The bundled corpus at small sizes, plus a triangular nest the symbolic
/// engine declines, so its fallbacks are exercised too.
fn kernels() -> Vec<loop_ir::Kernel> {
    let corpus: [(&str, &[(&str, i64)]); 6] = [
        ("dft", &[("N", 8), ("K", 32)]),
        ("heat", &[("N", 6), ("M", 34)]),
        ("histogram", &[("T", 8), ("N", 64)]),
        ("linreg", &[("N", 48), ("M", 8)]),
        ("matmul", &[("N", 8), ("M", 8), ("P", 8)]),
        ("stencil", &[("N", 66)]),
    ];
    let mut ks: Vec<_> = corpus
        .iter()
        .map(|(name, consts)| {
            corpus_kernel_with_consts(name, consts).expect("corpus kernel builds")
        })
        .collect();
    ks.push(
        fs_core::parse_kernel(
            "kernel tri {
  array A[32][32]: f64;
  parallel for i in 0..32 schedule(static, 2) {
    for j in 0..i + 1 {
      A[i][j] = 1.0;
    }
  }
}",
        )
        .expect("triangular kernel parses"),
    );
    ks
}

#[test]
fn every_model_run_is_dispatched_exactly_once() {
    fs_obs::configure(fs_obs::ObsConfig::enabled());
    let kernels = kernels();
    for path in [FsPath::Optimized, FsPath::Symbolic, FsPath::Reference] {
        let dispatched =
            || FS_DISPATCH_DENSE.get() + FS_DISPATCH_REFERENCE.get() + FS_DISPATCH_SYMBOLIC.get();
        let (runs0, dispatched0) = (FS_MODEL_RUNS.get(), dispatched());
        for k in &kernels {
            let mut cfg = FsModelConfig::for_machine(&presets::paper48(), 4);
            cfg.path = path;
            run_fs_model(k, &cfg);
            predict_fs(k, &cfg, 4);
        }
        let runs = FS_MODEL_RUNS.get() - runs0;
        assert_eq!(
            runs,
            2 * kernels.len() as u64,
            "{path}: one full run and one prediction run per kernel"
        );
        assert_eq!(dispatched() - dispatched0, runs, "{path}: dispatch sum");
    }
    assert!(FS_DISPATCH_SYMBOLIC.get() > 0);
    assert!(
        FS_SYMBOLIC_FALLBACKS.get() >= 2,
        "the triangular nest falls back on both symbolic entries"
    );
}

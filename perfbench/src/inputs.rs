//! The benchmark's input space. Every workload draws from the finite sets
//! defined here, so the golden oracle file can hold an answer for every
//! input any seed can generate.

use loop_ir::Kernel;

/// The machine every request names (the CLI's and daemon's default).
pub const MACHINE: &str = "paper48";

pub fn machine() -> machine::MachineConfig {
    fs_core::service::machine_by_name(MACHINE).expect("preset exists")
}

/// One bundled corpus kernel and the size constant the benchmark rescales.
pub struct CorpusKernel {
    pub name: &'static str,
    pub size_const: &'static str,
    pub shipped: i64,
}

/// The six bundled kernels (kernels/*.loop) with their main size constant
/// at its shipped value.
pub const CORPUS: [CorpusKernel; 6] = [
    CorpusKernel {
        name: "linreg",
        size_const: "N",
        shipped: 960,
    },
    CorpusKernel {
        name: "heat",
        size_const: "M",
        shipped: 1026,
    },
    CorpusKernel {
        name: "dft",
        size_const: "K",
        shipped: 1024,
    },
    CorpusKernel {
        name: "stencil",
        size_const: "N",
        shipped: 4098,
    },
    CorpusKernel {
        name: "histogram",
        size_const: "N",
        shipped: 4096,
    },
    CorpusKernel {
        name: "matmul",
        size_const: "M",
        shipped: 128,
    },
];

/// A corpus kernel with optional `const` overrides (none = shipped size).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Variant {
    pub corpus: &'static str,
    pub consts: Vec<(&'static str, i64)>,
}

impl Variant {
    pub fn shipped(corpus: &'static str) -> Self {
        Variant {
            corpus,
            consts: Vec::new(),
        }
    }

    /// `c`'s size constant scaled by `mult` (`mult == 1` is the shipped
    /// kernel, passed without overrides, as users run it).
    pub fn scaled(c: &CorpusKernel, mult: i64) -> Self {
        if mult == 1 {
            Self::shipped(c.name)
        } else {
            Variant {
                corpus: c.name,
                consts: vec![(c.size_const, c.shipped * mult)],
            }
        }
    }

    /// The DSL source (bundled file text).
    pub fn source(&self) -> &'static str {
        fs_core::corpus_entry(self.corpus)
            .expect("benchmark names only bundled kernels")
            .source
    }

    pub fn kernel(&self) -> Result<Kernel, String> {
        fs_core::parse_kernel_with_consts(self.source(), &self.consts).map_err(|e| e.to_string())
    }

    /// `NAME=VALUE,...` or `-` for the shipped kernel.
    pub fn consts_label(&self) -> String {
        if self.consts.is_empty() {
            "-".to_string()
        } else {
            self.consts
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
    }

    /// Golden-file key of one FS-model point of this variant.
    pub fn fs_key(&self, threads: u32, chunk: u64) -> String {
        format!(
            "{}|{}|{MACHINE}|t{threads}|c{chunk}",
            self.corpus,
            self.consts_label()
        )
    }
}

// ---------------------------------------------------------------------------
// cli_cold
// ---------------------------------------------------------------------------

/// `fsdetect`'s default team size.
pub const CLI_THREADS: u32 = 8;
/// Size multipliers of one deck (each kernel appears once per entry). Up
/// to 4x, so that a pass over 108 inputs takes 10-15 s on a 2-vCPU host
/// and a 40 s run holds the three passes of `report::MIN_PASSES`.
pub const CLI_MULTS: [i64; 6] = [1, 1, 2, 2, 3, 4];
/// The small `--sweep-grid` specs a grid-carrying invocation draws from,
/// as (threads axis, chunks axis); all have four points.
pub const CLI_GRIDS: [(&[u32], &[u64]); 3] =
    [(&[2, 4], &[1, 8]), (&[4, 8], &[1, 16]), (&[2, 8], &[4, 16])];

// ---------------------------------------------------------------------------
// fsd_warm_mix
// ---------------------------------------------------------------------------

/// Size multipliers the daemon mix uses.
pub const FSD_MULTS: [i64; 2] = [1, 2];
/// Team sizes whose points the warm-up pass caches.
pub const FSD_WARM_TEAMS: [u32; 2] = [4, 8];
/// The grid warm-up requests and grid-carrying mix requests send; its
/// points are all cached by the warm-up pass.
pub const FSD_GRID: (&[u32], &[u64]) = (&[4, 8], &[1, 8]);

/// Requests on never-cached keys: renamed copies of these kernels (at
/// `FSD_COLD_MULT` times their size, team `FSD_COLD_TEAM`), whose misses
/// cost about the same (115-150 ms each in process on a 2-core host), so the p90 of
/// the mix lands inside one cluster of miss latencies.
pub const FSD_COLD: [&str; 3] = ["linreg", "dft", "heat"];
pub const FSD_COLD_MULT: i64 = 2;
pub const FSD_COLD_TEAM: u32 = 16;
/// Copies of each `FSD_COLD` kernel per deck: 9 never-cached keys per 70
/// requests (13%), which puts the mix's p90 among the cheaper misses.
pub const FSD_COLD_COPIES: usize = 3;

// ---------------------------------------------------------------------------
// sim_replay
// ---------------------------------------------------------------------------

/// The paper's team sizes (fs_bench::paper_thread_counts) and nine more
/// in between, so one pass holds more than 100 replays.
pub const SIM_TEAMS: [u32; 17] = [
    2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 36, 40, 44, 48,
];

/// One replay pair: a corpus kernel at a reduced size, a team size, and
/// the (false-sharing, no-false-sharing) chunks the paper tables use.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub variant: Variant,
    pub threads: u32,
    pub chunks: (u64, u64),
}

impl SimSpec {
    pub fn key(&self, chunk: u64) -> String {
        format!(
            "{}|{}|{MACHINE}|t{}|c{chunk}",
            self.variant.corpus,
            self.variant.consts_label(),
            self.threads,
        )
    }
}

/// Every replay pair: heat (34 x 1026, chunks 1/64) and dft (32 x 1024,
/// chunks 1/16) — the shipped work-shared loops (a third of the harness
/// scales) under half the shipped outer trip count — and linreg at 960
/// series with 160 points split across the team (chunks 1/10), so one
/// replay costs about what a heat replay does; times the team sizes of
/// [`SIM_TEAMS`], on the paper's machine. Small inputs keep a pass over
/// every pair near a second, so a run holds many passes (see
/// `sim_replay`).
pub fn sim_specs() -> Vec<SimSpec> {
    let mut out = Vec::new();
    for &threads in &SIM_TEAMS {
        let kernels = [
            (
                Variant {
                    corpus: "heat",
                    consts: vec![("N", 34), ("M", 1026)],
                },
                (1, 64),
            ),
            (
                Variant {
                    corpus: "dft",
                    consts: vec![("N", 32), ("K", 1024)],
                },
                (1, 16),
            ),
            (
                Variant {
                    corpus: "linreg",
                    consts: vec![("N", 960), ("M", (160 / threads as i64).max(1))],
                },
                (1, 10),
            ),
        ];
        for (variant, chunks) in kernels {
            out.push(SimSpec {
                variant,
                threads,
                chunks,
            });
        }
    }
    out
}

/// Every FS-model point any workload can request, as (variant, threads,
/// chunk): the golden file's FS section.
pub fn fs_points() -> Vec<(Variant, u32, u64)> {
    let mut out: Vec<(Variant, u32, u64)> = Vec::new();
    let mut push = |v: &Variant, t: u32, c: u64| {
        if !out
            .iter()
            .any(|(ov, ot, oc)| ov == v && *ot == t && *oc == c)
        {
            out.push((v.clone(), t, c));
        }
    };
    for c in &CORPUS {
        for &m in &CLI_MULTS {
            push(&Variant::scaled(c, m), CLI_THREADS, 1);
        }
        let shipped = Variant::shipped(c.name);
        for (threads, chunks) in CLI_GRIDS {
            for &t in threads {
                for &ch in chunks {
                    push(&shipped, t, ch);
                }
            }
        }
        for &m in &FSD_MULTS {
            let v = Variant::scaled(c, m);
            for &t in FSD_WARM_TEAMS.iter().chain([&FSD_COLD_TEAM]) {
                push(&v, t, 1);
            }
            for &t in FSD_GRID.0 {
                for &ch in FSD_GRID.1 {
                    push(&v, t, ch);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every untraced run measures at least 100 operations, so at least
    /// ten samples lie beyond its p90.
    #[test]
    fn single_client_workloads_have_at_least_100_inputs() {
        assert!(CLI_GRIDS.len() * CORPUS.len() * CLI_MULTS.len() >= 100);
        assert!(sim_specs().len() * 2 >= 100);
    }

    #[test]
    fn every_input_parses_and_has_a_distinct_key() {
        let points = fs_points();
        let mut keys: Vec<String> = points.iter().map(|(v, t, c)| v.fs_key(*t, *c)).collect();
        for (v, _, _) in &points {
            v.kernel().expect("benchmark inputs parse");
        }
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }
}

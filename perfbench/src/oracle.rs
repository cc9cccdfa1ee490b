//! The correctness oracle. Every FS count the program returns is compared
//! with `FsPath::Reference` on the same point, every lint verdict with the
//! reference count it makes a claim about, and every replay with
//! `SimPath::Reference`. The reference answers are too slow to compute
//! inside a timed run, so they live in a golden file generated from the
//! reference paths by `python3 perfbench/run.py --regen-golden`.

use crate::inputs::{self, SimSpec, Variant};
use cache_sim::{SimOptions, SimPath, SimPrepared, SimStats};
use cost_model::{AnalysisOptions, FsPath};
use fs_core::json::{self, JsonValue};
use std::collections::BTreeMap;

/// Reference FS counts of one point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsCounts {
    pub cases: u64,
    pub events: u64,
    pub true_sharing: u64,
}

/// The golden answers, keyed by [`Variant::fs_key`] and [`SimSpec::key`].
#[derive(Debug, Default)]
pub struct Golden {
    pub fs: BTreeMap<String, FsCounts>,
    pub sim: BTreeMap<String, String>,
}

impl Golden {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut g = Golden::default();
        let fields = |k: &str| match doc.get(k) {
            Some(JsonValue::Obj(f)) => Ok(f.clone()),
            _ => Err(format!("{path}: missing '{k}' object")),
        };
        for (k, v) in fields("fs")? {
            let n = |i: usize| {
                v.as_arr()
                    .and_then(|a| a.get(i))
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("{path}: bad fs entry {k}"))
            };
            g.fs.insert(
                k.clone(),
                FsCounts {
                    cases: n(0)?,
                    events: n(1)?,
                    true_sharing: n(2)?,
                },
            );
        }
        for (k, v) in fields("sim")? {
            let d = v
                .as_str()
                .ok_or_else(|| format!("{path}: bad sim entry {k}"))?;
            g.sim.insert(k, d.to_string());
        }
        Ok(g)
    }

    pub fn render(&self) -> String {
        let mut fs = JsonValue::obj();
        for (k, c) in &self.fs {
            fs = fs.field(
                k,
                JsonValue::Arr(vec![c.cases.into(), c.events.into(), c.true_sharing.into()]),
            );
        }
        let mut sim = JsonValue::obj();
        for (k, d) in &self.sim {
            sim = sim.field(k, d.as_str());
        }
        JsonValue::obj()
            .field("generated_by", "python3 perfbench/run.py --regen-golden")
            .field("fs", fs)
            .field("sim", sim)
            .render_pretty()
    }

    pub fn fs_counts(&self, key: &str) -> Result<FsCounts, String> {
        self.fs
            .get(key)
            .copied()
            .ok_or_else(|| format!("no golden entry for {key}"))
    }
}

/// Reference FS counts of `variant` at (`threads`, `chunk`).
pub fn reference_fs(variant: &Variant, threads: u32, chunk: u64) -> Result<FsCounts, String> {
    let kernel = fs_core::kernel_at_chunk(&variant.kernel()?, chunk);
    let machine = inputs::machine();
    let mut opts = AnalysisOptions::new(threads);
    opts.fs_path = Some(FsPath::Reference);
    let fs = cost_model::analyze_loop(&kernel, &machine, &opts).fs;
    Ok(FsCounts {
        cases: fs.fs_cases,
        events: fs.fs_events,
        true_sharing: fs.true_sharing_cases,
    })
}

/// FNV-1a digest of every field of a replay's statistics (per-thread
/// counters, cold misses, and the per-line FS attribution in line order):
/// equal digests mean equal `SimStats`.
pub fn sim_digest(stats: &SimStats) -> String {
    let mut words: Vec<u64> = Vec::new();
    for t in &stats.per_thread {
        words.extend([
            t.accesses,
            t.l1_hits,
            t.l2_hits,
            t.l3_hits,
            t.mem_fetches,
            t.coherence_misses,
            t.false_sharing_misses,
            t.true_sharing_misses,
            t.clean_transfers,
            t.upgrades,
            t.writebacks,
            t.prefetch_issued,
            t.cycles,
        ]);
    }
    words.push(stats.cold_misses);
    let mut lines: Vec<(u64, u64)> = stats.fs_by_line.iter().map(|(&l, &n)| (l, n)).collect();
    lines.sort_unstable();
    for (l, n) in lines {
        words.extend([l, n]);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Options of one benchmark replay on `path`: the defaults (prefetcher
/// on, per-iteration interleaving) with `replay_workers`.
pub fn sim_options(spec: &SimSpec, path: SimPath, replay_workers: usize) -> SimOptions {
    SimOptions::new(spec.threads)
        .with_path(path)
        .with_replay_workers(replay_workers)
}

/// Reference replay digests of both chunks of `spec`.
pub fn reference_sim(spec: &SimSpec) -> Result<[(String, String); 2], String> {
    let machine = inputs::machine();
    let base = spec.variant.kernel()?;
    let prep = SimPrepared::new(&base, machine.line_size());
    let one = |chunk: u64| {
        let k = fs_core::kernel_at_chunk(&base, chunk);
        let stats = cache_sim::simulate_kernel_prepared(
            &k,
            &machine,
            sim_options(spec, SimPath::Reference, 1),
            &prep,
        );
        (spec.key(chunk), sim_digest(&stats))
    };
    Ok([one(spec.chunks.0), one(spec.chunks.1)])
}

/// Compute every golden answer on the reference paths, spread over
/// `workers` threads.
pub fn regenerate(workers: usize) -> Result<Golden, String> {
    enum Job {
        Fs(Variant, u32, u64),
        Sim(SimSpec),
    }
    let mut jobs: Vec<Job> = inputs::sim_specs().into_iter().map(Job::Sim).collect();
    jobs.extend(
        inputs::fs_points()
            .into_iter()
            .map(|(v, t, c)| Job::Fs(v, t, c)),
    );
    let next = std::sync::atomic::AtomicUsize::new(0);
    let out = std::sync::Mutex::new((Golden::default(), Vec::<String>::new()));
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let res = match job {
                    Job::Fs(v, t, c) => reference_fs(v, *t, *c).map(|n| {
                        out.lock()
                            .expect("golden poisoned")
                            .0
                            .fs
                            .insert(v.fs_key(*t, *c), n);
                    }),
                    Job::Sim(spec) => reference_sim(spec).map(|pairs| {
                        let mut g = out.lock().expect("golden poisoned");
                        for (k, d) in pairs {
                            g.0.sim.insert(k, d);
                        }
                    }),
                };
                if let Err(e) = res {
                    out.lock().expect("golden poisoned").1.push(e);
                }
                if i.is_multiple_of(50) {
                    eprintln!("perfbench: golden {i}/{}", jobs.len());
                }
            });
        }
    });
    let (golden, errors) = out.into_inner().expect("golden poisoned");
    match errors.first() {
        Some(e) => Err(e.clone()),
        None => Ok(golden),
    }
}

// ---------------------------------------------------------------------------
// Response checks
// ---------------------------------------------------------------------------

/// What one analysis request asked for.
#[derive(Debug, Clone)]
pub struct Expect {
    pub variant: Variant,
    pub threads: u32,
    /// The kernel's own chunk size (the single-kernel analysis point).
    pub chunk: u64,
    pub grid: Option<(Vec<u32>, Vec<u64>)>,
}

/// What a checked response reported besides its (verified) results.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Points evaluated: the single analysis plus every grid point.
    pub points: u64,
    pub significant: bool,
    /// Grid responses whose `memo_hits + memo_misses` differs from
    /// `points`.
    pub tally_mismatch: bool,
    pub total_ms: f64,
    /// `total_ms` minus resolve, analyze, lint and grid time.
    pub self_ms: f64,
    pub grid_ms: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Sum of per-point walls of the grid run (`sweep_stats`), and the
    /// grid run's wall.
    pub grid_point_wall_ms: f64,
    pub grid_wall_ms: f64,
    pub grid_points: u64,
}

/// The number at `path` in `v`.
pub fn num(v: &JsonValue, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("missing '{}'", path.join(".")))?;
    }
    cur.as_f64()
        .ok_or_else(|| format!("'{}' is not a number", path.join(".")))
}

fn expect_counts(what: &str, got: &JsonValue, want: FsCounts, ts: bool) -> Result<(), String> {
    let cases = num(got, &["fs_cases"])? as u64;
    let events = num(got, &["fs_events"])? as u64;
    let bad = cases != want.cases
        || events != want.events
        || (ts && num(got, &["true_sharing_cases"])? as u64 != want.true_sharing);
    if bad {
        return Err(format!(
            "{what}: fs counts ({cases}, {events}) differ from reference ({}, {})",
            want.cases, want.events
        ));
    }
    Ok(())
}

/// Check one response envelope against the golden answers.
pub fn check_envelope(doc: &JsonValue, exp: &Expect, golden: &Golden) -> Result<Checked, String> {
    if doc.get("fsd_version").and_then(|v| v.as_u64()) != Some(fs_core::FSD_VERSION) {
        return Err("not a response envelope".to_string());
    }
    match doc.get("errors").and_then(|e| e.as_arr()) {
        Some([]) => {}
        Some(errs) => {
            return Err(format!(
                "response errors: {}",
                JsonValue::Arr(errs.to_vec()).render()
            ))
        }
        None => return Err("missing 'errors'".to_string()),
    }
    let report = doc
        .get("reports")
        .and_then(|r| r.as_arr())
        .and_then(|r| r.first())
        .ok_or("missing 'reports'")?;
    let key = exp.variant.fs_key(exp.threads, exp.chunk);
    let want = golden.fs_counts(&key)?;
    let rep = report.get("report").ok_or("missing 'report'")?;
    expect_counts(&key, rep, want, true)?;
    let verdict = report
        .get("lint")
        .and_then(|l| l.get("verdict"))
        .and_then(|v| v.as_str())
        .ok_or("missing lint verdict")?;
    match verdict {
        "false-sharing" if want.cases == 0 => {
            return Err(format!(
                "{key}: lint says false-sharing, reference counts 0"
            ))
        }
        "clean" if want.cases > 0 => {
            return Err(format!(
                "{key}: lint says clean, reference counts {}",
                want.cases
            ))
        }
        "false-sharing" | "clean" | "unknown" => {}
        other => return Err(format!("{key}: unknown lint verdict '{other}'")),
    }
    let mut c = Checked {
        points: 1,
        significant: rep.get("significant_fs").and_then(|s| s.as_bool()) == Some(true),
        ..Checked::default()
    };
    match (&exp.grid, doc.get("sweep_grid")) {
        (None, None) => {}
        (None, Some(_)) => return Err("unrequested sweep_grid".to_string()),
        (Some(_), None) => return Err("missing sweep_grid".to_string()),
        (Some((threads, chunks)), Some(g)) => {
            let results = g
                .get("results")
                .and_then(|r| r.as_arr())
                .ok_or("missing grid results")?;
            let n = (threads.len() * chunks.len()) as u64;
            if results.len() as u64 != n || num(g, &["points"])? as u64 != n {
                return Err(format!("grid has {} results, expected {n}", results.len()));
            }
            let mut seen = Vec::new();
            for r in results {
                let (t, ch) = (num(r, &["threads"])? as u32, num(r, &["chunk"])? as u64);
                if !threads.contains(&t) || !chunks.contains(&ch) || seen.contains(&(t, ch)) {
                    return Err(format!("unexpected grid point t={t} c={ch}"));
                }
                seen.push((t, ch));
                let k = exp.variant.fs_key(t, ch);
                expect_counts(&k, r, golden.fs_counts(&k)?, false)?;
            }
            c.points += n;
            c.grid_points = n;
            c.tally_mismatch = num(g, &["memo_hits"])? + num(g, &["memo_misses"])? != n as f64;
            if let Some(st) = doc.get("sweep_stats") {
                c.grid_wall_ms = num(st, &["wall_ms"])?;
                c.grid_point_wall_ms = st
                    .get("slowest_points")
                    .and_then(|p| p.as_arr())
                    .map(|ps| ps.iter().filter_map(|p| num(p, &["wall_ms"]).ok()).sum())
                    .unwrap_or(0.0);
            }
        }
    }
    if let Some(t) = doc.get("timing") {
        c.total_ms = num(t, &["total_ms"])?;
        c.grid_ms = num(t, &["grid_ms"])?;
        c.self_ms = c.total_ms
            - num(t, &["resolve_ms"])?
            - num(t, &["analyze_ms"])?
            - num(t, &["lint_ms"])?
            - c.grid_ms;
        c.cache_hits = num(t, &["cache_hits"])? as u64;
        c.cache_misses = num(t, &["cache_misses"])? as u64;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_for(v: &Variant, cases: u64) -> Golden {
        let mut g = Golden::default();
        g.fs.insert(
            v.fs_key(8, 1),
            FsCounts {
                cases,
                events: 3,
                true_sharing: 0,
            },
        );
        g
    }

    fn envelope(cases: u64, verdict: &str) -> JsonValue {
        let report = JsonValue::obj()
            .field("fs_cases", cases)
            .field("fs_events", 3u64)
            .field("true_sharing_cases", 0u64)
            .field("significant_fs", true);
        let lint = JsonValue::obj().field("verdict", verdict);
        JsonValue::obj()
            .field("fsd_version", fs_core::FSD_VERSION)
            .field(
                "reports",
                JsonValue::Arr(vec![JsonValue::obj()
                    .field("report", report)
                    .field("lint", lint)]),
            )
            .field("errors", JsonValue::Arr(vec![]))
    }

    fn expect(v: &Variant) -> Expect {
        Expect {
            variant: v.clone(),
            threads: 8,
            chunk: 1,
            grid: None,
        }
    }

    #[test]
    fn matching_response_passes_and_corrupted_ones_fail() {
        let v = Variant::shipped("histogram");
        let g = golden_for(&v, 10);
        let ok = check_envelope(&envelope(10, "false-sharing"), &expect(&v), &g).unwrap();
        assert!(ok.significant && ok.points == 1);
        // A corrupted count, a contradicting verdict, an error envelope and
        // an input without an oracle answer all fail.
        assert!(check_envelope(&envelope(11, "false-sharing"), &expect(&v), &g).is_err());
        assert!(check_envelope(&envelope(10, "clean"), &expect(&v), &g).is_err());
        let refused = JsonValue::obj()
            .field("fsd_version", fs_core::FSD_VERSION)
            .field("error", "request refused");
        assert!(check_envelope(&refused, &expect(&v), &g).is_err());
        assert!(check_envelope(
            &envelope(10, "false-sharing"),
            &expect(&Variant::shipped("dft")),
            &g
        )
        .is_err());
    }

    #[test]
    fn sim_digest_distinguishes_stats() {
        let a = SimStats::new(2);
        let mut b = SimStats::new(2);
        assert_eq!(sim_digest(&a), sim_digest(&b));
        b.fs_by_line.insert(3, 1);
        assert_ne!(sim_digest(&a), sim_digest(&b));
    }
}

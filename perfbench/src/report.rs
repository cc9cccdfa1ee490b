//! Metric names and the result every workload returns.
//!
//! Every workload reports every metric, so the result line always has the
//! same keys. A per-layer metric whose layer a workload never enters reads
//! 0 (the time or work that layer did), marked "layer not entered" in the
//! human-readable output.

use crate::stats;
use std::time::Instant;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("grid_points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). Times are mean self time per operation
/// of the traced run; counts are per operation unless the name says
/// otherwise (`svc.duplicate_misses` and `svc.tally_mismatches` are run
/// totals, `svc.cache_*` the cache's final state).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("loop_ir.parse_ms", "ms"),
    ("loop_ir.validate_ms", "ms"),
    ("loop_ir.plans_compiled", "count"),
    ("lint.ms", "ms"),
    ("fs.point_ms", "ms"),
    ("fs.default_over_best", "ratio"),
    ("fs.lockstep_steps", "count"),
    ("fs.dispatch_symbolic", "count"),
    ("fs.symbolic_fallbacks", "count"),
    ("fs.symbolic_hit_ratio", "ratio"),
    ("sweep.run_ms", "ms"),
    ("sweep.pool_busy_frac", "ratio"),
    ("cli.process_overhead_ms", "ms"),
    ("svc.self_ms", "ms"),
    ("svc.cache_hit_ratio", "ratio"),
    ("svc.cache_bytes", "bytes"),
    ("svc.cache_entries", "count"),
    ("svc.duplicate_misses", "count"),
    ("svc.tally_mismatches", "count"),
    ("fsd.transport_ms", "ms"),
    ("sim.prepare_ms", "ms"),
    ("sim.replay_ms", "ms"),
    ("sim.trace_gen_ms", "ms"),
    ("sim.accesses", "count"),
    ("sim.dispatch_sharded", "count"),
    ("sim.shard_geometry_fallbacks", "count"),
    ("sim.shard_prefetch_fallbacks", "count"),
    ("sim_maccesses_per_s", "M/s"),
    ("fail_rate", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// A failed or refused operation is charged this latency, so it misses any
/// latency limit.
pub const FAILED_OP_MS: f64 = 60_000.0;

/// Every operation (request, process, replay) run in the timed phase.
#[derive(Debug, Default)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Model points evaluated by successful operations.
    pub points: u64,
}

impl OpLog {
    pub fn ok(&mut self, ms: f64, points: u64) {
        self.latencies_ms.push(ms);
        self.points += points;
    }

    pub fn fail(&mut self, what: String) {
        self.latencies_ms.push(FAILED_OP_MS);
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: OpLog) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.points += other.points;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Sum of all latencies in seconds (failures charged `FAILED_OP_MS`).
    pub fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted().max(1) as f64
    }
}

/// Fewest passes a single-client workload makes over its inputs. Each
/// input's latency is its fastest pass: the vCPUs of small cloud hosts run
/// at different and drifting speeds (memory-bound work slows by up to 2x
/// for tens of seconds at a time), so single samples depend on where and
/// when they ran; passes spread over the run filter that out.
pub const MIN_PASSES: usize = 3;

/// Whether an untraced single-client run makes another pass: always until
/// it has made [`MIN_PASSES`], then while one more pass of the mean length
/// so far still ends within `seconds` of `start`. Filling the run gives
/// each input as many chances at a fast moment of the host as the run
/// allows.
pub fn another_pass(passes: usize, start: Instant, seconds: f64) -> bool {
    let spent = start.elapsed().as_secs_f64();
    passes < MIN_PASSES || spent + spent / passes as f64 <= seconds
}

/// Each input's fastest successful time over repeated passes; an input
/// that fails in any pass fails.
#[derive(Debug)]
pub struct Best {
    slots: Vec<Option<Result<(f64, u64), String>>>,
}

impl Best {
    pub fn new(inputs: usize) -> Self {
        Best {
            slots: vec![None; inputs],
        }
    }

    /// Record input `i`'s outcome in one pass: (ms, points) or a failure.
    pub fn record(&mut self, i: usize, r: Result<(f64, u64), String>) {
        let slot = &mut self.slots[i];
        let keep = match (&*slot, &r) {
            (Some(Err(_)), _) => true,
            (Some(Ok((best, _))), Ok((ms, _))) => best <= ms,
            _ => false,
        };
        if !keep {
            *slot = Some(r);
        }
    }

    /// One entry per input that ran.
    pub fn into_log(self) -> OpLog {
        let mut log = OpLog::default();
        for slot in self.slots.into_iter().flatten() {
            match slot {
                Ok((ms, points)) => log.ok(ms, points),
                Err(e) => log.fail(e),
            }
        }
        log
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ops: OpLog,
    /// Failures outside the timed phase (set-up responses that did not
    /// match the oracle); they make the run incorrect.
    pub setup_failures: Vec<String>,
    /// (name, value): metrics of the requested kind.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines: input properties, fingerprints, notes.
    pub notes: Vec<String>,
    /// Set-ups whose median is `setup_s`.
    pub setup_samples: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fill the end-to-end metrics common to every workload from the op log.
    /// `busy_s` is the time the operations took: the timed phase's wall
    /// time for concurrent clients, and the sum of the operations'
    /// (best-pass) latencies for a single closed-loop client.
    pub fn set_end_to_end(&mut self, setup_s: f64, busy_s: f64, peak_rss_mb: f64) {
        let lat = &self.ops.latencies_ms;
        let p50 = stats::percentile(lat, 50.0).unwrap_or(0.0);
        let p90 = stats::percentile(lat, 90.0).unwrap_or(0.0);
        self.set("setup_s", setup_s);
        self.set("latency_p50_ms", p50);
        self.set("latency_p90_ms", p90);
        self.set("requests_per_s", self.ops.attempted() as f64 / busy_s);
        self.set("grid_points_per_s", self.ops.points as f64 / busy_s);
        self.set("peak_rss_mb", peak_rss_mb);
    }
}

/// `total / n`, or 0 when nothing was measured.
pub fn per_op(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ops_count_against_attempts_and_miss_the_latency_limit() {
        let mut log = OpLog::default();
        for i in 0..9 {
            log.ok(1.0 + i as f64, 1);
        }
        log.fail("corrupted response".to_string());
        assert_eq!(log.attempted(), 10);
        assert_eq!(log.failed, 1);
        assert!((log.fail_rate() - 0.1).abs() < 1e-12);
        let mut out = Outcome {
            ops: log,
            ..Outcome::default()
        };
        out.set_end_to_end(1.0, 2.0, 3.0);
        // The failure sits at the top of the latency distribution: p90
        // interpolates toward it and exceeds every successful latency.
        assert!(out.get("latency_p90_ms").unwrap() > 9.0);
        assert_eq!(out.get("requests_per_s"), Some(5.0));
        assert_eq!(out.get("grid_points_per_s"), Some(4.5));
    }

    #[test]
    fn best_keeps_the_fastest_pass_and_any_failure() {
        let mut b = Best::new(3);
        b.record(0, Ok((5.0, 1)));
        b.record(0, Ok((3.0, 1)));
        b.record(0, Ok((4.0, 1)));
        b.record(1, Ok((2.0, 1)));
        b.record(1, Err("corrupted".to_string()));
        b.record(1, Ok((1.0, 1)));
        let log = b.into_log();
        assert_eq!(log.attempted(), 2, "input 2 never ran");
        assert_eq!(log.failed, 1);
        assert_eq!(log.latencies_ms, vec![3.0, FAILED_OP_MS]);
        assert_eq!(log.points, 1);
    }

    #[test]
    fn runs_make_the_minimum_passes_then_fill_the_time() {
        use std::time::Duration;
        let now = Instant::now();
        assert!(another_pass(1, now, 0.0), "below MIN_PASSES");
        let ago = now - Duration::from_secs(9);
        // Three passes in 9 s: a fourth ends near 12 s.
        assert!(another_pass(MIN_PASSES, ago, 20.0));
        assert!(!another_pass(MIN_PASSES, ago, 11.0));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

//! `fsd_warm_mix`: one `fsd` child serves `nproc` closed-loop clients, one
//! connection per request. Requests follow a skewed seeded distribution over
//! kernel x size x team size that the set-up pass warmed, plus about one
//! request in seven on a kernel that was never cached (it misses, computes
//! and inserts); some warm requests carry a grid whose points are all
//! cached.

use crate::inputs::{
    self, Variant, CORPUS, FSD_COLD, FSD_COLD_COPIES, FSD_COLD_MULT, FSD_COLD_TEAM, FSD_GRID,
    FSD_MULTS, FSD_WARM_TEAMS, MACHINE,
};
use crate::layers::{self, Probe};
use crate::oracle::{self, Checked, Expect};
use crate::report::{per_op, OpLog, Outcome};
use crate::rng::Rng;
use crate::spans::{self, Tracer};
use crate::{stats, sys, Ctx};
use fs_core::json::{self, JsonValue};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Warm requests per deck, and how many of them carry the grid.
const DECK_HITS: usize = 60;
const DECK_GRIDS: usize = 6;
/// Decks per run (fewer if `--seconds` runs out first). A fixed count keeps
/// the cache's final size, and so the daemon's peak RSS, the same in every
/// run; 12 decks are 840 requests, 108 of them on never-cached keys plus
/// 12 repeats of one of those.
const DECKS: usize = 12;

/// A running `fsd` child. Dropping it kills the process if it is still up.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn `fsd` and wait for its first `pong`.
    fn start(bin: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start fsd: {e}"))?;
        let mut d = Daemon { child, socket };
        loop {
            if let Ok((resp, _)) = d.request(r#"{"cmd":"ping"}"#) {
                if resp.contains("\"pong\"") {
                    return Ok(d);
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("fsd exited during start-up: {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("fsd did not answer ping within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One request on a fresh connection; returns the response line and
    /// the round-trip time in ms.
    fn request(&self, line: &str) -> Result<(String, f64), String> {
        let t = Instant::now();
        let mut s = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.write_all(line.as_bytes())
            .and_then(|_| s.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        BufReader::new(&s)
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !resp.ends_with('\n') {
            return Err("connection closed before a full response".to_string());
        }
        Ok((resp, ms))
    }

    fn json(&self, line: &str) -> Result<JsonValue, String> {
        let (resp, _) = self.request(line)?;
        json::parse(&resp).map_err(|e| e.to_string())
    }

    /// Send `shutdown` and wait for a clean exit (killing it after 10 s).
    fn stop(mut self) -> Result<(), String> {
        let _ = self.request(r#"{"cmd":"shutdown"}"#);
        let t = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("fsd exited with {s}")),
                Ok(None) if t.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("fsd did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[derive(Debug, Clone)]
struct MixOp {
    variant: Variant,
    threads: u32,
    grid: bool,
    /// `Some(suffix)`: a never-cached key — the kernel renamed with
    /// `suffix`.
    cold: Option<String>,
}

/// `src` with its kernel declaration renamed `<name>_<suffix>`: a kernel
/// the daemon has never seen, whose analysis costs exactly what the
/// original's does.
fn renamed(src: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(src.len() + suffix.len() + 1);
    let mut done = false;
    for line in src.split_inclusive('\n') {
        match line.strip_prefix("kernel ") {
            Some(rest) if !done => {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(rest.len());
                out.push_str("kernel ");
                out.push_str(&rest[..end]);
                out.push('_');
                out.push_str(suffix);
                out.push_str(&rest[end..]);
                done = true;
            }
            _ => out.push_str(line),
        }
    }
    out
}

impl MixOp {
    fn request(&self) -> String {
        let mut consts = JsonValue::obj();
        for (n, v) in &self.variant.consts {
            consts = consts.field(n, *v as f64);
        }
        let source = match &self.cold {
            Some(suffix) => renamed(self.variant.source(), suffix),
            None => self.variant.source().to_string(),
        };
        let kernel = JsonValue::obj()
            .field("name", format!("{}.loop", self.variant.corpus))
            .field("source", source);
        let mut r = JsonValue::obj()
            .field("cmd", "analyze")
            .field("kernels", JsonValue::Arr(vec![kernel]))
            .field("machine", MACHINE)
            .field("threads", self.threads)
            .field("consts", consts)
            .field("timing", true);
        if self.grid {
            let arr = |v: Vec<JsonValue>| JsonValue::Arr(v);
            r = r.field(
                "grid",
                JsonValue::obj()
                    .field(
                        "threads",
                        arr(FSD_GRID.0.iter().map(|&t| t.into()).collect()),
                    )
                    .field(
                        "chunks",
                        arr(FSD_GRID.1.iter().map(|&c| (c as f64).into()).collect()),
                    ),
            );
        }
        r.render()
    }

    fn expect(&self, chunk: u64) -> Expect {
        Expect {
            variant: self.variant.clone(),
            threads: self.threads,
            chunk,
            grid: self
                .grid
                .then(|| (FSD_GRID.0.to_vec(), FSD_GRID.1.to_vec())),
        }
    }

    /// The golden keys of every point this request evaluates.
    fn keys(&self, chunk: u64) -> Vec<String> {
        let renamed = self
            .cold
            .as_ref()
            .map_or(String::new(), |s| format!("#{s}"));
        let mut k = vec![self.variant.fs_key(self.threads, chunk) + &renamed];
        if self.grid {
            for &t in FSD_GRID.0 {
                for &c in FSD_GRID.1 {
                    k.push(self.variant.fs_key(t, c));
                }
            }
        }
        k
    }
}

fn variants() -> Vec<Variant> {
    CORPUS
        .iter()
        .flat_map(|c| FSD_MULTS.iter().map(move |&m| Variant::scaled(c, m)))
        .collect()
}

/// The warm-up requests: one grid request per variant at team 8, which
/// caches the single points at teams 4 and 8 and every grid point.
fn warm_ops() -> Vec<MixOp> {
    variants()
        .into_iter()
        .map(|variant| MixOp {
            variant,
            threads: 8,
            grid: true,
            cold: None,
        })
        .collect()
}

/// Seeded per-run draw: Zipf weights over a permutation of the warm keys.
struct Mix {
    hits: Vec<MixOp>,
}

impl Mix {
    fn new(rng: &mut Rng) -> Self {
        let mut keys: Vec<MixOp> = variants()
            .into_iter()
            .flat_map(|variant| {
                FSD_WARM_TEAMS.iter().map(move |&threads| MixOp {
                    variant: variant.clone(),
                    threads,
                    grid: false,
                    cold: None,
                })
            })
            .collect();
        rng.shuffle(&mut keys);
        // Largest-remainder apportionment of DECK_HITS by weight 1/(rank+1).
        let w: Vec<f64> = (0..keys.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = w.iter().sum();
        let quota: Vec<f64> = w.iter().map(|x| x / total * DECK_HITS as f64).collect();
        let mut counts: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| {
            (quota[b] - quota[b].floor()).total_cmp(&(quota[a] - quota[a].floor()))
        });
        let short = DECK_HITS - counts.iter().sum::<usize>();
        for &i in order.iter().take(short) {
            counts[i] += 1;
        }
        let hits = keys
            .iter()
            .zip(&counts)
            .flat_map(|(k, &n)| std::iter::repeat_n(k.clone(), n))
            .collect();
        Mix { hits }
    }

    /// Deck `d`: the warm draw (DECK_GRIDS of its team-8 requests carrying
    /// the grid) plus [`FSD_COLD_COPIES`] never-cached keys per kernel of
    /// [`FSD_COLD`], shuffled, with one of them repeated back to back. The
    /// never-cached keys are those kernels renamed for this deck, so every
    /// deck misses on new keys of the same cost: a miss's cost depends
    /// strongly on kernel, size and team, and varying them by seed or deck
    /// would move p90 and throughput between runs.
    fn deck(&self, d: usize, rng: &mut Rng) -> Vec<MixOp> {
        let mut ops = self.hits.clone();
        let mut team8: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].threads == 8).collect();
        rng.shuffle(&mut team8);
        for &i in team8.iter().take(DECK_GRIDS) {
            ops[i].grid = true;
        }
        for copy in 0..FSD_COLD_COPIES {
            for name in FSD_COLD {
                let c = CORPUS
                    .iter()
                    .find(|c| c.name == name)
                    .expect("FSD_COLD names corpus kernels");
                let variant = Variant::scaled(c, FSD_COLD_MULT);
                ops.push(MixOp {
                    cold: Some(format!("d{d}n{copy}")),
                    variant,
                    threads: FSD_COLD_TEAM,
                    grid: false,
                });
            }
        }
        rng.shuffle(&mut ops);
        // One never-cached key per deck is sent twice in a row: the next
        // free client sends it while the first request is still computing,
        // so without single-flight the daemon computes it twice.
        let first_cold = ops
            .iter()
            .position(|op| op.cold.is_some())
            .expect("decks hold cold keys");
        ops.insert(first_cold + 1, ops[first_cold].clone());
        ops
    }
}

/// What the clients share: the op sequence, handed out deck by deck.
struct Feed {
    mix: Mix,
    rng: Rng,
    deck: Vec<MixOp>,
    pos: usize,
    decks: usize,
    issued: usize,
    stopped: bool,
}

/// One answered request.
struct Done {
    op: MixOp,
    ms: f64,
    checked: Checked,
    traced: bool,
}

fn chunk_of(v: &Variant) -> Result<u64, String> {
    v.kernel().map(|k| k.nest.parallel.schedule.chunk())
}

fn send_checked(d: &Daemon, op: &MixOp, golden: &oracle::Golden) -> Result<(Checked, f64), String> {
    let chunk = chunk_of(&op.variant)?;
    let (resp, ms) = d.request(&op.request())?;
    let doc = json::parse(&resp).map_err(|e| format!("unparsable response: {e}"))?;
    let c = oracle::check_envelope(&doc, &op.expect(chunk), golden)?;
    Ok((c, ms))
}

/// Run `ops` over `clients` threads; returns failures.
fn warm(d: &Daemon, ops: &[MixOp], clients: usize, golden: &oracle::Golden) -> Vec<String> {
    let next = Mutex::new(0usize);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("warm cursor poisoned");
                    *n += 1;
                    *n - 1
                };
                let Some(op) = ops.get(i) else { break };
                if let Err(e) = send_checked(d, op, golden) {
                    errors
                        .lock()
                        .expect("warm errors poisoned")
                        .push(format!("warm-up: {e}"));
                }
            });
        }
    });
    errors.into_inner().expect("warm errors poisoned")
}

/// `stats` and `metrics` scraped together.
struct Scrape {
    stats: JsonValue,
    metrics: JsonValue,
}

impl Scrape {
    fn take(d: &Daemon) -> Result<Self, String> {
        Ok(Scrape {
            stats: d.json(r#"{"cmd":"stats"}"#)?,
            metrics: d.json(r#"{"cmd":"metrics"}"#)?,
        })
    }

    fn stat(&self, path: &[&str]) -> f64 {
        oracle::num(&self.stats, path).unwrap_or(0.0)
    }

    fn obs(&self, name: &str) -> f64 {
        oracle::num(&self.metrics, &["metrics", "counters", name]).unwrap_or(0.0)
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let bin = ctx.bin_dir.join("fsd");
    let clients = ctx.nproc;
    let socket = ctx
        .work_dir
        .join(format!("fsd-{}.sock", std::process::id()));

    // Set-up, three times: boot until the first pong, plus the warm-up
    // pass. The last daemon serves the timed phase.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..3 {
        let t = Instant::now();
        let d = match Daemon::start(&bin, socket.clone()) {
            Ok(d) => d,
            Err(e) => {
                out.setup_failures.push(e);
                return out;
            }
        };
        out.setup_failures
            .extend(warm(&d, &warm_ops(), clients, &ctx.golden));
        setups.push(t.elapsed().as_secs_f64());
        if rep < 2 {
            if let Err(e) = d.stop() {
                out.setup_failures.push(e);
            }
        } else {
            daemon = Some(d);
        }
    }
    let d = daemon.expect("third set-up keeps its daemon");
    if !out.setup_failures.is_empty() {
        return out;
    }
    let setup_s = stats::median(&setups).expect("three set-up samples");
    out.setup_samples = setups.len();
    let warm_keys: HashSet<String> = warm_ops()
        .iter()
        .flat_map(|op| {
            chunk_of(&op.variant)
                .map(|c| op.keys(c))
                .unwrap_or_default()
        })
        .collect();

    let before = match Scrape::take(&d) {
        Ok(s) => s,
        Err(e) => {
            out.setup_failures.push(format!("stats scrape: {e}"));
            return out;
        }
    };
    let rng = Rng::new(ctx.seed);
    let mix = Mix::new(&mut rng.fork(1));
    let feed = Mutex::new(Feed {
        mix,
        rng: rng.fork(2),
        deck: Vec::new(),
        pos: 0,
        decks: 0,
        issued: 0,
        stopped: false,
    });
    let tracer = Tracer::new();
    let machine = inputs::machine();
    let fs_sums = Mutex::new((0u64, 0u64));
    let start = Instant::now();
    let results: Vec<(OpLog, Vec<Done>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|track| {
                let (feed, d, tracer, machine, fs_sums) = (&feed, &d, &tracer, &machine, &fs_sums);
                s.spawn(move || {
                    let mut log = OpLog::default();
                    let mut done = Vec::new();
                    let mut own = 0usize;
                    loop {
                        let (op, req) = {
                            let mut f = feed.lock().expect("feed poisoned");
                            if f.pos == f.deck.len() {
                                let elapsed = start.elapsed().as_secs_f64();
                                let done =
                                    f.decks == DECKS || (f.decks > 0 && elapsed >= ctx.seconds);
                                if f.stopped || done {
                                    f.stopped = true;
                                    break;
                                }
                                let deck = f.decks;
                                let mut r = f.rng.fork(deck as u64);
                                f.deck = f.mix.deck(deck, &mut r);
                                f.pos = 0;
                                f.decks += 1;
                            }
                            f.pos += 1;
                            f.issued += 1;
                            (f.deck[f.pos - 1].clone(), f.issued as u64)
                        };
                        own += 1;
                        let traced = ctx.trace && own.is_multiple_of(2);
                        let res = if traced {
                            tracer.span("op", req, None, track as u32, |id| {
                                let p = Probe {
                                    tracer,
                                    req,
                                    parent: id,
                                    track: track as u32,
                                };
                                let r =
                                    p.time("fsd.request", || send_checked(d, &op, &ctx.golden))?;
                                layers::front_end(&p, &op.variant, op.threads, machine)?;
                                if r.0.cache_misses > 0 {
                                    let kernel = op.variant.kernel()?;
                                    let fs = layers::fs_point(&p, &kernel, op.threads, machine);
                                    let mut sums = fs_sums.lock().expect("fs sums poisoned");
                                    sums.0 += fs.default_ns;
                                    sums.1 += fs.best_ns();
                                }
                                Ok(r)
                            })
                        } else {
                            send_checked(d, &op, &ctx.golden)
                        };
                        match res {
                            Ok((checked, ms)) => {
                                log.ok(ms, checked.points);
                                done.push(Done {
                                    op,
                                    ms,
                                    checked,
                                    traced,
                                });
                            }
                            Err(e) => log.fail(format!(
                                "{}: {e}",
                                op.request().chars().take(120).collect::<String>()
                            )),
                        }
                    }
                    (log, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = Scrape::take(&d);
    let peak_rss = sys::vm_hwm_mb(&d.child.id().to_string()).unwrap_or(0.0);
    if let Err(e) = d.stop() {
        out.setup_failures.push(e);
    }
    let after = match after {
        Ok(a) => a,
        Err(e) => {
            out.setup_failures.push(format!("stats scrape: {e}"));
            return out;
        }
    };

    let mut done: Vec<Done> = Vec::new();
    for (log, dn) in results {
        out.ops.merge(log);
        done.extend(dn);
    }
    let hits = done.iter().filter(|x| x.checked.cache_misses == 0).count();
    out.notes.push(format!(
        "input: {hits}/{} fsd_warm_mix requests hit the cache ({:.1}%), {} sent a never-cached key",
        done.len(),
        100.0 * hits as f64 / done.len().max(1) as f64,
        done.iter().filter(|x| x.op.cold.is_some()).count()
    ));
    if !ctx.trace {
        out.set_end_to_end(setup_s, wall_s, peak_rss);
        return out;
    }

    let n_ops = done.len();
    let spans = tracer.spans();
    let by_name = spans::self_time_by_name(&spans);
    let self_ms_of = |name: &str| {
        by_name
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    };
    let traced = done.iter().filter(|x| x.traced).count();
    for (metric, span) in [
        ("loop_ir.parse_ms", "loop_ir.parse"),
        ("loop_ir.validate_ms", "loop_ir.validate"),
        ("lint.ms", "lint"),
        ("fs.point_ms", "fs.point"),
    ] {
        out.set(metric, per_op(self_ms_of(span), traced));
    }
    let delta = |f: &dyn Fn(&Scrape) -> f64| f(&after) - f(&before);
    let dispatch = delta(&|s| s.stat(&["fs_path", "symbolic_dispatches"]));
    let fallbacks = delta(&|s| s.stat(&["fs_path", "symbolic_fallbacks"]));
    out.set(
        "loop_ir.plans_compiled",
        per_op(delta(&|s| s.obs("stream.plans_compiled")), n_ops),
    );
    out.set(
        "fs.lockstep_steps",
        per_op(delta(&|s| s.obs("fs.lockstep_steps")), n_ops),
    );
    out.set("fs.dispatch_symbolic", per_op(dispatch, n_ops));
    out.set("fs.symbolic_fallbacks", per_op(fallbacks, n_ops));
    out.set(
        "fs.symbolic_hit_ratio",
        if dispatch > 0.0 {
            (dispatch - fallbacks) / dispatch
        } else {
            0.0
        },
    );
    let (default_ns, best_ns) = fs_sums.into_inner().expect("fs sums poisoned");
    out.set(
        "fs.default_over_best",
        default_ns as f64 / best_ns.max(1) as f64,
    );
    let grid_ms: f64 = done.iter().map(|x| x.checked.grid_ms).sum();
    out.set("sweep.run_ms", per_op(grid_ms, n_ops));
    let busy: f64 = done.iter().map(|x| x.checked.grid_point_wall_ms).sum();
    let capacity: f64 = done
        .iter()
        .map(|x| x.checked.grid_wall_ms * ctx.nproc.min(x.checked.grid_points as usize) as f64)
        .sum();
    out.set(
        "sweep.pool_busy_frac",
        if capacity > 0.0 { busy / capacity } else { 0.0 },
    );
    out.set(
        "svc.self_ms",
        per_op(done.iter().map(|x| x.checked.self_ms).sum(), n_ops),
    );
    let (h, m) = (
        delta(&|s| s.stat(&["cache", "hits"])),
        delta(&|s| s.stat(&["cache", "misses"])),
    );
    out.set("svc.cache_hit_ratio", h / (h + m).max(1.0));
    out.set("svc.cache_bytes", after.stat(&["cache", "bytes"]));
    out.set("svc.cache_entries", after.stat(&["cache", "entries"]));
    let new_keys: HashSet<String> = done
        .iter()
        .flat_map(|x| {
            chunk_of(&x.op.variant)
                .map(|c| x.op.keys(c))
                .unwrap_or_default()
        })
        .filter(|k| !warm_keys.contains(k))
        .collect();
    out.set("svc.duplicate_misses", m - new_keys.len() as f64);
    out.set(
        "svc.tally_mismatches",
        done.iter().filter(|x| x.checked.tally_mismatch).count() as f64,
    );
    out.set(
        "fsd.transport_ms",
        per_op(done.iter().map(|x| x.ms - x.checked.total_ms).sum(), n_ops),
    );
    out.set("fail_rate", out.ops.fail_rate());
    let hit_ms = |t: bool| -> Vec<f64> {
        done.iter()
            .filter(|x| x.traced == t && x.checked.cache_misses == 0)
            .map(|x| x.ms)
            .collect()
    };
    let overhead = match (stats::median(&hit_ms(true)), stats::median(&hit_ms(false))) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    out.set("obs.overhead_frac", overhead);
    crate::finish_trace(ctx, &mut out, &spans, wall_s * clients as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_changes_only_the_kernel_name() {
        let v = Variant::shipped("linreg");
        let src = renamed(v.source(), "d3");
        let k = fs_core::parse_kernel(&src).expect("renamed source parses");
        let orig = v.kernel().unwrap();
        assert_eq!(k.name, format!("{}_d3", orig.name));
        assert_eq!(src.len(), v.source().len() + 3);
    }
}

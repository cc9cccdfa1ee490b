//! The benchmark's own tracer. Spans are recorded only around the calls the
//! benchmark makes into the program's public functions (never inside the
//! program), kept in memory, and written once at the end in the Chrome
//! trace-event format that `fs_obs::trace::chrome_trace` also emits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `req` groups the spans of one benchmark operation;
/// `track` is the client thread that recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        track: u32,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            req,
            track,
            start_ns,
            end_ns,
        });
        out
    }

    /// All recorded spans, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.track, s.id));
        v
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.dur_ns() - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// Wall time spanned by the root spans (those without a parent) of every
/// track, summed over tracks: the budget no sum of self times may exceed.
pub fn root_wall_ns(spans: &[Span]) -> u64 {
    let mut per_track: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        per_track
            .entry(s.track)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    per_track
        .into_values()
        .map(|iv| covered(iv, 0, u64::MAX))
        .sum()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render spans as a Chrome trace-event document: one `thread_name`
/// metadata event per track, then one complete (`"ph":"X"`) event per span
/// carrying its id, parent and request id in `args`.
pub fn chrome_trace(spans: &[Span], track_names: &[(u32, String)]) -> String {
    let mut events: Vec<String> = track_names
        .iter()
        .map(|(tid, name)| {
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            )
        })
        .collect();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.track,
            escape(s.name),
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
            s.id,
            parent,
            s.req
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 1,
            track: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 30, 50),
            span(4, Some(1), "a", 60, 70),
            // A grandchild only reduces its own parent's self time.
            span(5, Some(2), "c", 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 10, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name, vec![("op", 50), ("a", 20), ("b", 20), ("c", 10)]);
        let total: u64 = by_name.iter().map(|(_, t)| t).sum();
        assert_eq!(total, 100, "self times partition the root's wall time");
        assert_eq!(root_wall_ns(&spans), 100);
    }

    #[test]
    fn coverage_is_the_union_of_overlapping_intervals() {
        assert_eq!(covered(vec![(10, 40), (30, 50), (60, 70)], 0, 100), 50);
        assert_eq!(covered(vec![(10, 40), (30, 50)], 20, 45), 25);
        assert_eq!(covered(vec![], 0, 100), 0);
    }

    #[test]
    fn child_coverage_is_clipped_to_the_parent_interval() {
        let spans = vec![span(1, None, "op", 0, 10), span(2, Some(1), "x", 5, 20)];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn root_wall_is_per_track_union() {
        let mut a = span(1, None, "op", 0, 10);
        let mut b = span(2, None, "op", 5, 15);
        let mut c = span(3, None, "op", 0, 10);
        a.track = 0;
        b.track = 0;
        c.track = 1;
        assert_eq!(root_wall_ns(&[a, b, c]), 15 + 10);
    }

    #[test]
    fn tracer_records_parents_and_chrome_trace_is_json() {
        let tr = Tracer::new();
        tr.span("op", 7, None, 0, |id| {
            tr.span("child", 7, Some(id), 0, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, Some(op.id));
        assert!(child.start_ns >= op.start_ns && child.end_ns <= op.end_ns);
        let doc = chrome_trace(&spans, &[(0, "client-0".to_string())]);
        let v = fs_core::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
    }
}

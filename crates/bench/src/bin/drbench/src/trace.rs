//! In-memory span recorder for traced runs.
//!
//! Spans wrap each public-function call the benchmark makes into a layer
//! (name, start, end, parent span, request id). They stay in memory and
//! are written out when the run ends; the per-layer metrics are computed
//! from them. Off, a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Shared by every span of one top-level operation.
    pub request: u64,
}

#[derive(Default)]
struct Recorded {
    spans: Vec<Span>,
    /// Named measurements: span durations in ms under the span's name,
    /// plus values layers report themselves (e.g. `slicer.collect.ms`).
    samples: BTreeMap<&'static str, Vec<f64>>,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_request: AtomicU64,
    recorded: Mutex<Recorded>,
}

thread_local! {
    /// Open spans of this thread, innermost last: (span index, request id).
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    index: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_request: AtomicU64::new(1),
            recorded: Mutex::new(Recorded::default()),
        }
    }

    /// Switches recording on or off (a traced run measures half its
    /// windows untraced and half traced).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.recorded
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    /// Opens a span, nested under the innermost open span of this thread;
    /// a span with no parent starts a new request.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.is_on() {
            return Guard {
                tracer: None,
                index: 0,
            };
        }
        let (parent, request) = OPEN.with(|open| match open.borrow().last() {
            Some(&(ix, req)) => (Some(ix), req),
            None => (None, self.next_request.fetch_add(1, Ordering::Relaxed)),
        });
        let start = self.now();
        let index = {
            let mut rec = self.lock();
            rec.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            rec.spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push((index, request)));
        Guard {
            tracer: Some(self),
            index,
        }
    }

    /// Records a value a layer reported about itself.
    pub fn sample(&self, name: &'static str, value: f64) {
        if self.is_on() {
            self.lock().samples.entry(name).or_default().push(value);
        }
    }

    /// Every value recorded under `name` (span durations are in ms).
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.lock().samples.get(name).cloned().unwrap_or_default()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Renders every span as JSON.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{}",
                s.name,
                s.start,
                s.end,
                s.request,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end = tracer.now();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Ok(mut rec) = tracer.recorded.lock() {
            let span = &mut rec.spans[self.index];
            span.end = end;
            let (name, ms) = (span.name, (end - span.start) as f64 / 1e6);
            rec.samples.entry(name).or_default().push(ms);
        }
    }
}

/// Per-name totals: (calls, total ms, self ms). A span's self time is its
/// duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let total = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total as f64 / 1e6;
        e.2 += total.saturating_sub(child) as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_request_ids() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("drdebug.slice");
            let _inner = t.span("slicer.traverse");
        }
        {
            let _other = t.span("pinplay.encode");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].request, spans[1].request);
        assert_ne!(spans[0].request, spans[2].request);
        assert_eq!(t.samples("pinplay.encode").len(), 1);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 1,
        };
        let spans = vec![
            span("a", 0, 10_000_000, None),
            span("b", 2_000_000, 6_000_000, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["a"], (1, 10.0, 6.0));
        assert_eq!(st["b"], (1, 4.0, 4.0));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        {
            let _g = t.span("x");
        }
        t.sample("y", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.samples("y").is_empty());
    }
}

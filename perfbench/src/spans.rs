//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer crate in a span
//! (name, start, end, parent span, run id). High-frequency callbacks the
//! engine makes into the benchmark's own wrappers (request factory,
//! completion sink, trace sink) are folded into one aggregate span per
//! wrapper and run, carrying the call count and busy time, so memory
//! stays bounded however many events a run processes. Spans stay in
//! memory until [`Tracer::write`] dumps them when the benchmark ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbv_telemetry::Json;
use rbv_workloads::{AppId, Request, RequestFactory};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the tracer.
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `core.distance_matrix`.
    pub name: &'static str,
    /// Which traced run the span belongs to.
    pub run: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the span folds many callbacks made inside its parent: it
    /// then spans the parent's interval and `busy_ns` is the callbacks'
    /// summed time.
    pub aggregate: bool,
    /// Calls the span covers (1 unless aggregate).
    pub count: u64,
    /// Time spent inside the calls, nanoseconds.
    pub busy_ns: u64,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    run: u32,
    start: Instant,
}

impl Open {
    /// The open span's id, to parent child spans on.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Busy time and call count accumulated by a timing wrapper.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Time spent inside the calls.
    pub busy: Duration,
}

impl Tally {
    /// Times one call of `f`.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.busy += started.elapsed();
        self.calls += 1;
        out
    }
}

/// Times every request the engine draws from the wrapped factory.
pub struct TimedFactory<'a> {
    inner: &'a mut dyn RequestFactory,
    /// Draws made and the time they took.
    pub tally: Tally,
}

impl<'a> TimedFactory<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn RequestFactory) -> TimedFactory<'a> {
        TimedFactory {
            inner,
            tally: Tally::default(),
        }
    }
}

impl RequestFactory for TimedFactory<'_> {
    fn app(&self) -> AppId {
        self.inner.app()
    }

    fn next_request(&mut self) -> Request {
        let inner = &mut self.inner;
        self.tally.time(|| inner.next_request())
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking worker")
            .push(span);
    }

    /// Opens a span named `name` under `parent` in run `run`.
    pub fn begin(&self, name: &'static str, parent: Option<u64>, run: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            run,
            start: Instant::now(),
        }
    }

    /// Closes `open`, records it and returns the recorded span.
    pub fn end(&self, open: Open) -> Span {
        let start_ns = nanos(open.start - self.epoch);
        let end_ns = nanos(self.epoch.elapsed());
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            run: open.run,
            start_ns,
            end_ns,
            aggregate: false,
            count: 1,
            busy_ns: end_ns - start_ns,
        };
        self.push(span.clone());
        span
    }

    /// Runs `f` inside a span; `f` receives the span id for children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        run: u32,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let open = self.begin(name, parent, run);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Records a wrapper's tally as one aggregate span under `parent`.
    pub fn aggregate(&self, name: &'static str, parent: &Span, tally: Tally) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent.id),
            name,
            run: parent.run,
            start_ns: parent.start_ns,
            end_ns: parent.end_ns,
            aggregate: true,
            count: tally.calls,
            busy_ns: nanos(tally.busy),
        });
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking worker")
            .clone()
    }

    /// Writes every span, with its derived self time, as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let num = |v: u64| Json::Num(v as f64);
        let rows = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), num(s.id)),
                    ("parent".into(), s.parent.map_or(Json::Null, num)),
                    ("name".into(), Json::str(s.name)),
                    ("run".into(), num(u64::from(s.run))),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                    ("aggregate".into(), Json::Bool(s.aggregate)),
                    ("count".into(), num(s.count)),
                    ("busy_ns".into(), num(s.busy_ns)),
                    ("self_ns".into(), num(self_ns(&spans, s))),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("rbv-perfbench-spans/v1")),
            ("spans".into(), Json::Arr(rows)),
        ]);
        rbv_guard::write_atomic(path, doc.to_string_compact().as_bytes())
    }
}

/// A span's self time: its busy time minus the time its children cover.
///
/// Plain children may overlap (they can run on different pool threads),
/// so their intervals are merged before measuring what they cover.
/// Aggregate children are callbacks made on the parent's own thread,
/// disjoint from each other, so their busy times add.
pub fn self_ns(spans: &[Span], span: &Span) -> u64 {
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut aggregated = 0u64;
    for child in spans.iter().filter(|c| c.parent == Some(span.id)) {
        if child.aggregate {
            aggregated += child.busy_ns;
        } else {
            let lo = child.start_ns.max(span.start_ns);
            let hi = child.end_ns.min(span.end_ns);
            if hi > lo {
                intervals.push((lo, hi));
            }
        }
    }
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = 0u64;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
        }
        reach = reach.max(hi);
    }
    span.busy_ns.saturating_sub(covered + aggregated)
}

/// Sum of busy time over the spans of run `run` named `name`, seconds.
/// Spans on different pool threads may overlap, so this is time spent
/// in the layer, not wall time.
pub fn run_busy_s(spans: &[Span], name: &str, run: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.run == run)
        .map(|s| s.busy_ns as f64 / 1e9)
        .sum()
}

/// Sum of self time over the spans of run `run` named `name`, seconds.
pub fn run_self_s(spans: &[Span], name: &str, run: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.run == run)
        .map(|s| self_ns(spans, s) as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            run: 0,
            start_ns,
            end_ns,
            aggregate: false,
            count: 1,
            busy_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let root = plain(1, None, 0, 100);
        let spans = vec![
            root.clone(),
            plain(2, Some(1), 10, 40),
            plain(3, Some(1), 30, 50),
            plain(4, Some(1), 90, 120),
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100 ns.
        assert_eq!(self_ns(&spans, &root), 50);
    }

    #[test]
    fn aggregate_children_subtract_their_busy_time() {
        let tracer = Tracer::new();
        let open = tracer.begin("call", None, 3);
        std::thread::sleep(Duration::from_millis(2));
        let call = tracer.end(open);
        let tally = Tally {
            calls: 10,
            busy: Duration::from_nanos(call.busy_ns / 4),
        };
        tracer.aggregate("callback", &call, tally);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].run, 3);
        assert_eq!(spans[1].count, 10);
        assert_eq!(self_ns(&spans, &call), call.busy_ns - call.busy_ns / 4);
    }
}

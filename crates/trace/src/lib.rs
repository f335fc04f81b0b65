//! # silc-trace — pipeline observability
//!
//! Gray's paper frames silicon compilation as a *programming environment*,
//! and a production compiler environment must tell its users where time
//! and area go. This crate is the measurement substrate for the whole
//! SILC pipeline: lightweight hierarchical **spans** (RAII wall-time
//! guards named like `"drc.spacing"`), monotonic **counters** (rects
//! indexed, PLA terms, cells elaborated, DRC violations, …), and two
//! renderings of a finished trace: a human summary table and a
//! machine-readable JSONL event stream.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** A [`Tracer`] is an enum with a
//!    `Disabled` variant; every operation on the disabled path is a tag
//!    check and an immediate return — no clock read, no allocation, no
//!    lock. Pipeline stages therefore take a `&Tracer` unconditionally
//!    and the hot paths PR 2 optimized are unaffected.
//! 2. **Thread-safe.** Batch and serve workers record events into one
//!    tracer; the enabled state sits behind a `Mutex` that is
//!    locked only at span *close* and counter flush, never inside
//!    per-rectangle loops (callers accumulate locally and flush in bulk).
//! 3. **Deterministic output.** Spans are ordered by when they opened,
//!    by a sequence number taken at open, never by a clock reading that
//!    two spans can share; counters are sorted by name. Two runs of the
//!    same design produce the same table modulo wall-clock jitter.
//!
//! # Example
//!
//! ```
//! use silc_trace::{span, Tracer};
//!
//! let tracer = Tracer::enabled();
//! {
//!     let _guard = span!(tracer, "drc.spacing");
//!     tracer.add("drc.spacing.queries", 42);
//! } // span closes here, recording its wall time
//! let report = tracer.finish();
//! assert_eq!(report.counter("drc.spacing.queries"), Some(42));
//! assert_eq!(report.spans().len(), 1);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Well-known counter names recorded by pipeline stages. Centralised so
/// producers (`silc-incr`) and consumers (the CLI's `--stats` smoke
/// tests, CI) agree on spelling.
pub mod names {
    /// Queries answered from cache (memory or disk) by `silc-incr`.
    pub const INCR_HIT: &str = "incr.hit";
    /// Queries that had to recompute.
    pub const INCR_MISS: &str = "incr.miss";
    /// Hits served by the in-memory store.
    pub const INCR_MEM_HIT: &str = "incr.mem_hit";
    /// Hits served by the persistent on-disk cache.
    pub const INCR_DISK_HIT: &str = "incr.disk_hit";
    /// Bytes written to the persistent cache.
    pub const INCR_STORE_BYTES: &str = "incr.store_bytes";
    /// In-memory entries evicted to respect the capacity bound.
    pub const INCR_EVICTIONS: &str = "incr.evictions";
    /// Connections accepted by `silc serve`.
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// Requests parsed and answered (any outcome) by `silc serve`.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// High-water mark of the compute queue depth (max gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Requests that exceeded their deadline.
    pub const SERVE_TIMEOUT: &str = "serve.timeout";
    /// Requests rejected with `overloaded` because the queue was full.
    pub const SERVE_REJECTED: &str = "serve.rejected";
    /// Lines that failed to parse as a request.
    pub const SERVE_BAD_REQUEST: &str = "serve.bad_request";
    /// Requests enqueued on the interactive lane.
    pub const SERVE_LANE_INTERACTIVE: &str = "serve.lane_interactive";
    /// Requests enqueued on the batch lane.
    pub const SERVE_LANE_BATCH: &str = "serve.lane_batch";
}

/// Opens a [`Span`] on a tracer: `span!(tracer, "stage.pass")`. The
/// returned RAII guard records wall time from the macro site to the end
/// of the enclosing scope (or an explicit `drop`).
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr) => {
        $tracer.span($name)
    };
}

/// A handle to the trace collector, threaded through every pipeline
/// stage. Cloning is cheap (an `Arc` bump when enabled, a tag copy when
/// disabled); clones share the same event stream.
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    /// Collect nothing; every operation is a near-no-op.
    #[default]
    Disabled,
    /// Collect spans and counters into a shared buffer.
    Enabled(Arc<Collector>),
}

/// The shared mutable state behind an enabled [`Tracer`].
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    /// The sequence number the next span to open takes.
    opened: AtomicU64,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Closed spans, each with its sequence number.
    spans: Vec<(u64, SpanEvent)>,
    counters: BTreeMap<&'static str, u64>,
}

/// One closed span: a named stretch of pipeline wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dotted stage path, e.g. `"drc.spacing"`. The dots *are* the
    /// hierarchy: `"drc.spacing"` is a child of any `"drc"` span.
    pub name: &'static str,
    /// Start offset from the tracer's creation, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub dur_us: u64,
    /// Numeric attributes attached while the span was open.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Tracer {
    /// A tracer that records nothing. All operations return immediately.
    pub fn disabled() -> Tracer {
        Tracer::Disabled
    }

    /// A tracer that records spans and counters until [`finish`].
    ///
    /// [`finish`]: Tracer::finish
    pub fn enabled() -> Tracer {
        Tracer::Enabled(Arc::new(Collector {
            epoch: Instant::now(),
            opened: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        }))
    }

    /// True when this tracer collects events.
    pub fn is_enabled(&self) -> bool {
        matches!(self, Tracer::Enabled(_))
    }

    /// Opens a named span. The guard records wall time when dropped.
    /// On a disabled tracer this does not even read the clock.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        match self {
            Tracer::Disabled => Span {
                collector: None,
                name,
                seq: 0,
                start: None,
                attrs: Vec::new(),
            },
            Tracer::Enabled(c) => Span {
                collector: Some(c),
                name,
                seq: c.opened.fetch_add(1, Ordering::Relaxed),
                start: Some(Instant::now()),
                attrs: Vec::new(),
            },
        }
    }

    /// Adds `delta` to the monotonic counter `name`. Call with bulk
    /// totals after a loop, not per iteration — each call takes the
    /// collector lock when enabled.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Tracer::Enabled(c) = self {
            let mut state = c.state.lock().expect("trace state poisoned");
            *state.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Records `value` into gauge `name`, keeping the maximum seen.
    pub fn gauge_max(&self, name: &'static str, value: u64) {
        if let Tracer::Enabled(c) = self {
            let mut state = c.state.lock().expect("trace state poisoned");
            let slot = state.counters.entry(name).or_insert(0);
            *slot = (*slot).max(value);
        }
    }

    /// Snapshots everything recorded so far into a [`TraceReport`].
    /// Spans still open are not included. A disabled tracer yields an
    /// empty report.
    pub fn finish(&self) -> TraceReport {
        match self {
            Tracer::Disabled => TraceReport::default(),
            Tracer::Enabled(c) => {
                let state = c.state.lock().expect("trace state poisoned");
                let mut spans = state.spans.clone();
                spans.sort_unstable_by_key(|&(seq, _)| seq);
                TraceReport {
                    spans: spans.into_iter().map(|(_, span)| span).collect(),
                    counters: state.counters.iter().map(|(&k, &v)| (k, v)).collect(),
                }
            }
        }
    }
}

/// RAII span guard returned by [`Tracer::span`] / [`span!`]. Records a
/// [`SpanEvent`] when dropped (if the tracer was enabled).
#[must_use = "a span records nothing unless it lives across the timed region"]
#[derive(Debug)]
pub struct Span<'t> {
    collector: Option<&'t Arc<Collector>>,
    name: &'static str,
    seq: u64,
    start: Option<Instant>,
    attrs: Vec<(&'static str, u64)>,
}

impl Span<'_> {
    /// Attaches a numeric attribute to this span (e.g. how many rects a
    /// pass examined). No-op on a disabled tracer.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.collector.is_some() {
            self.attrs.push((key, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(c), Some(start)) = (self.collector, self.start) else {
            return;
        };
        let event = SpanEvent {
            name: self.name,
            start_us: start.duration_since(c.epoch).as_micros() as u64,
            dur_us: start.elapsed().as_micros() as u64,
            attrs: std::mem::take(&mut self.attrs),
        };
        c.state
            .lock()
            .expect("trace state poisoned")
            .spans
            .push((self.seq, event));
    }
}

/// A finished, immutable trace: ordered span events plus final counter
/// values. Produced by [`Tracer::finish`]; rendered by
/// [`TraceReport::stats_table`] and [`TraceReport::to_jsonl`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    spans: Vec<SpanEvent>,
    counters: Vec<(&'static str, u64)>,
}

impl TraceReport {
    /// All closed spans, in the order they opened.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// The value of one counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Total wall time across spans whose name equals `name` or starts
    /// with `name.` — i.e. a stage and all its sub-passes.
    pub fn stage_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Renders the human `--stats` summary: one row per distinct span
    /// name (aggregated over calls, ordered by first open), then the
    /// counters.
    pub fn stats_table(&self) -> String {
        let mut order: Vec<&'static str> = Vec::new();
        let mut calls: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            if !calls.contains_key(s.name) {
                order.push(s.name);
            }
            let slot = calls.entry(s.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += s.dur_us;
        }
        let name_w = order
            .iter()
            .map(|n| n.len())
            .chain(self.counters.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(5)
            .max("stage".len());

        let mut out = String::new();
        let _ = writeln!(out, "{:<name_w$}  {:>7}  {:>12}", "stage", "calls", "wall");
        for name in &order {
            let (n, us) = calls[name];
            let _ = writeln!(out, "{name:<name_w$}  {n:>7}  {:>12}", fmt_us(us));
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<name_w$}  {:>7}  {:>12}", "counter", "", "value");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<name_w$}  {:>7}  {v:>12}", "");
            }
        }
        out
    }

    /// Renders the machine-readable JSONL stream: one JSON object per
    /// span event (`{"event":"span",...}`) and per counter
    /// (`{"event":"counter",...}`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"event\":\"span\",\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}",
                s.name, s.start_us, s.dur_us
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"event\":\"counter\",\"name\":\"{k}\",\"value\":{v}}}"
            );
        }
        out
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let mut s = span!(t, "a.b");
            s.attr("k", 1);
            t.add("c", 5);
        }
        assert!(t.finish().is_empty());
    }

    #[test]
    fn spans_nest_and_order_by_start() {
        let t = Tracer::enabled();
        {
            let _outer = span!(t, "drc");
            let _inner = span!(t, "drc.width");
        }
        let report = t.finish();
        let names: Vec<&str> = report.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["drc", "drc.width"]);
        // The parent span covers its child.
        assert!(report.stage_us("drc") >= report.stage_us("drc.width"));
    }

    #[test]
    fn spans_opened_within_one_microsecond_keep_their_open_order() {
        let t = Tracer::enabled();
        let names = [
            "drc.width",
            "drc.spacing",
            "drc.contact",
            "drc.gate",
            "a",
            "drc.merge",
        ];
        for name in names {
            drop(span!(t, name));
        }
        {
            let _outer = span!(t, "z");
            drop(span!(t, "y"));
        }
        let report = t.finish();
        let order: Vec<&str> = report.spans().iter().map(|s| s.name).collect();
        assert_eq!(order[..names.len()], names);
        assert_eq!(order[names.len()..], ["z", "y"]);
    }

    #[test]
    fn counters_accumulate_and_gauges_max() {
        let t = Tracer::enabled();
        t.add("rects", 3);
        t.add("rects", 4);
        t.gauge_max("peak", 10);
        t.gauge_max("peak", 7);
        let report = t.finish();
        assert_eq!(report.counter("rects"), Some(7));
        assert_eq!(report.counter("peak"), Some(10));
        assert_eq!(report.counter("absent"), None);
    }

    #[test]
    fn clones_share_the_collector() {
        let t = Tracer::enabled();
        let u = t.clone();
        u.add("shared", 1);
        drop(span!(u, "stage"));
        let report = t.finish();
        assert_eq!(report.counter("shared"), Some(1));
        assert_eq!(report.spans().len(), 1);
    }

    #[test]
    fn spans_record_from_worker_threads() {
        let t = Tracer::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let _s = span!(t, "par.unit");
                    t.add("par.work", 1);
                });
            }
        });
        let report = t.finish();
        assert_eq!(report.spans().len(), 4);
        assert_eq!(report.counter("par.work"), Some(4));
    }

    #[test]
    fn stats_table_aggregates_calls() {
        let t = Tracer::enabled();
        drop(span!(t, "cif.write"));
        drop(span!(t, "cif.write"));
        t.add("cif.bytes", 1234);
        let table = t.finish().stats_table();
        assert!(table.contains("stage"), "{table}");
        assert!(table.contains("cif.write"), "{table}");
        assert!(table.contains("cif.bytes"), "{table}");
        let row = table.lines().find(|l| l.contains("cif.write")).unwrap();
        assert!(row.contains('2'), "two calls aggregated: {row}");
    }

    #[test]
    fn jsonl_is_one_object_per_event() {
        let t = Tracer::enabled();
        {
            let mut s = span!(t, "lang.parse");
            s.attr("tokens", 99);
        }
        t.add("lang.cells", 2);
        let jsonl = t.finish().to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"stage\":\"lang.parse\""), "{jsonl}");
        assert!(jsonl.contains("\"tokens\":99"), "{jsonl}");
        assert!(jsonl.contains("\"event\":\"counter\""), "{jsonl}");
    }

    #[test]
    fn stage_us_sums_repeated_spans() {
        let t = Tracer::enabled();
        drop(span!(t, "x"));
        drop(span!(t, "x"));
        let report = t.finish();
        let total: u64 = report.spans().iter().map(|s| s.dur_us).sum();
        assert_eq!(report.stage_us("x"), total);
    }
}

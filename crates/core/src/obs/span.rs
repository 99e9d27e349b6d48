//! Hierarchical span tracing with Chrome trace-event export.
//!
//! A *span* is a named interval with a parent — where the flat
//! [`Trace`](crate::obs::Trace) schema answers "what did the schedule
//! look like", spans answer "where did the wall-clock (or virtual)
//! time go" *inside* one operation: a `gs serve` request decomposes
//! into decode → cache lookup → singleflight wait → DP solve → encode,
//! a DP solve decomposes into tabulate → sweep → per-column chunks,
//! and so on. The result loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev) via [`chrome_trace_json`].
//!
//! Design constraints (normative; see `docs/observability.md`):
//!
//! * **Zero dependencies, thread-safe.** Per-thread buffers (a
//!   `thread_local!` `Vec`) collect finished spans without locking; they
//!   drain into one bounded global ring ([`RING_CAPACITY`] spans,
//!   drop-oldest, dropped count kept) when a thread exits, when the
//!   local buffer outgrows a backstop, or on [`drain`].
//! * **Off by default, ~zero cost when off.** Every recording entry
//!   point first does one `Relaxed` atomic load; when tracing is
//!   disabled the returned [`SpanGuard`] is inert and nothing is
//!   allocated or written. Instrumented hot paths therefore pay one
//!   predictable branch.
//! * **Two clocks.** Wall spans ([`span`]) measure µs since a process
//!   epoch with [`Instant`]. Virtual spans ([`record_virtual`]) carry
//!   the deterministic simulation/runtime clock (seconds, converted to
//!   µs) — minimpi per-rank send/recv/compute and the fault session's
//!   attempt timelines live on this clock. The Chrome export keeps the
//!   two on separate `pid` lanes (1 = wall, 2 = virtual) so their
//!   timestamps never visually interleave.
//!
//! ## Usage
//!
//! ```
//! use gs_scatter::obs::span;
//!
//! span::set_enabled(true);
//! {
//!     let mut root = span::span("demo", "outer");
//!     root.attr("items", 42);
//!     let _child = span::span("demo", "inner"); // parented automatically
//! }
//! let spans = span::drain();
//! assert_eq!(spans.len(), 2);
//! let json = span::chrome_trace_json(&spans);
//! assert!(json.contains("\"traceEvents\""));
//! span::set_enabled(false);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use super::json::{push_escaped, push_f64};

/// Maximum spans the global ring retains; older spans are dropped first
/// (the count of discards is reported by [`dropped`]). Sized so that
/// phase-granular instrumentation of a 10⁵-rank simulation fits with
/// room to spare while a runaway per-event producer cannot exhaust
/// memory.
pub const RING_CAPACITY: usize = 1 << 16;

/// Local-buffer backstop: a thread that accumulates this many finished
/// spans flushes them to the global ring even before it exits.
const LOCAL_FLUSH: usize = 8 * 1024;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique span id (process-wide, never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// What the span measures (`"dp.solve"`, `"request"`, …).
    pub name: &'static str,
    /// Component family (`"dp"`, `"serve"`, `"sim"`, `"mpi"`, `"ft"`)
    /// — the grouping key of `gs report --spans`.
    pub cat: &'static str,
    /// Lane within the clock domain: the recording thread for wall
    /// spans, the rank for virtual spans.
    pub tid: u64,
    /// `true` for wall-clock spans, `false` for virtual-clock spans.
    pub wall: bool,
    /// Start, µs — since the process epoch (wall) or since virtual
    /// time 0 (virtual).
    pub start_us: f64,
    /// Duration in µs (≥ 0).
    pub dur_us: f64,
    /// Key=value attributes (prune/fallback flags, request ids, byte
    /// counts, …).
    pub attrs: Vec<(&'static str, String)>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

struct Tls {
    tid: u64,
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

impl Drop for Tls {
    fn drop(&mut self) {
        flush_into_ring(&mut self.buf);
    }
}

thread_local! {
    static TLS: RefCell<Tls> = RefCell::new(Tls {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

fn flush_into_ring(buf: &mut Vec<SpanRecord>) {
    if buf.is_empty() {
        return;
    }
    let mut ring = ring().lock().unwrap();
    for rec in buf.drain(..) {
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }
}

/// Turns recording on or off (global, all threads). Off is the
/// default; every entry point is a near-no-op while off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of spans discarded because the global ring was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Discards all buffered spans of the calling thread and of the global
/// ring, and zeroes the dropped count. Exporters call this before an
/// instrumented run so leftovers from earlier work do not pollute the
/// output; spans still buffered on *other* live threads are not
/// affected.
pub fn reset() {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.buf.clear();
        t.stack.clear();
    });
    ring().lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// RAII guard for one wall-clock span: records the interval from
/// creation to drop. Inert (records nothing) when tracing was disabled
/// at creation.
pub struct SpanGuard {
    active: Option<Active>,
}

struct Active {
    id: u64,
    parent: u64,
    name: &'static str,
    cat: &'static str,
    start_us: f64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// This span's id (0 when tracing is disabled) — pass to
    /// [`span_with_parent`] to parent work on another thread.
    pub fn id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.id)
    }

    /// Attaches a key=value attribute (no-op when inert).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_us = (now_us() - a.start_us).max(0.0);
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            // Pop this span off the parenting stack. Guards drop in
            // LIFO order per thread, so the top is ours; tolerate a
            // mismatch (a guard moved across threads) by searching.
            match t.stack.last() {
                Some(&top) if top == a.id => {
                    t.stack.pop();
                }
                _ => t.stack.retain(|&id| id != a.id),
            }
            let tid = t.tid;
            t.buf.push(SpanRecord {
                id: a.id,
                parent: a.parent,
                name: a.name,
                cat: a.cat,
                tid,
                wall: true,
                start_us: a.start_us,
                dur_us,
                attrs: a.attrs,
            });
            if t.buf.len() >= LOCAL_FLUSH {
                flush_into_ring(&mut t.buf);
            }
        });
    }
}

/// Starts a wall-clock span parented to the calling thread's innermost
/// open span (a root if there is none).
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let parent = TLS.with(|t| t.borrow().stack.last().copied().unwrap_or(0));
    start(cat, name, parent)
}

/// Starts a wall-clock span with an explicit parent id — the
/// cross-thread variant: a worker thread parents its spans to the
/// coordinating span whose [`SpanGuard::id`] it was handed (0 for a
/// root).
pub fn span_with_parent(cat: &'static str, name: &'static str, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    start(cat, name, parent)
}

fn start(cat: &'static str, name: &'static str, parent: u64) -> SpanGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    TLS.with(|t| t.borrow_mut().stack.push(id));
    SpanGuard {
        active: Some(Active { id, parent, name, cat, start_us: now_us(), attrs: Vec::new() }),
    }
}

/// Records one finished span on the **virtual** clock: `start_secs`
/// and `end_secs` are deterministic simulation/runtime seconds, `tid`
/// is the rank the interval belongs to. Virtual spans are flat
/// (parent 0): the rank lane, not nesting, is their structure. No-op
/// when tracing is disabled.
pub fn record_virtual(
    cat: &'static str,
    name: &'static str,
    tid: u64,
    start_secs: f64,
    end_secs: f64,
    attrs: Vec<(&'static str, String)>,
) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.buf.push(SpanRecord {
            id,
            parent: 0,
            name,
            cat,
            tid,
            wall: false,
            start_us: start_secs * 1e6,
            dur_us: ((end_secs - start_secs) * 1e6).max(0.0),
            attrs,
        });
        if t.buf.len() >= LOCAL_FLUSH {
            flush_into_ring(&mut t.buf);
        }
    });
}

/// Takes the calling thread's finished spans without touching the
/// global ring — the per-request extraction hook of
/// `gs serve --span-log`: a session thread calls this after handling
/// one request and gets exactly the spans that request finished on
/// this thread.
pub fn take_local() -> Vec<SpanRecord> {
    TLS.with(|t| std::mem::take(&mut t.borrow_mut().buf))
}

/// Drains every finished span visible to the caller: the calling
/// thread's local buffer plus the global ring (which holds the buffers
/// of all exited threads). Spans still buffered on other live threads
/// are not included — instrument coordinators drain after joining
/// their workers.
pub fn drain() -> Vec<SpanRecord> {
    TLS.with(|t| flush_into_ring(&mut t.borrow_mut().buf));
    let mut ring = ring().lock().unwrap();
    ring.drain(..).collect()
}

/// Serializes spans as Chrome trace-event JSON (the
/// `{"traceEvents": […]}` object format): complete `"X"` duration
/// events sorted by timestamp, preceded by `"M"` metadata events
/// naming the two process lanes (`pid` 1 = wall clock, `pid` 2 =
/// virtual clock). Span id, parent id and every attribute travel in
/// `args`. The output loads in `chrome://tracing` and Perfetto, and
/// `span_check` (crates/bench) validates it structurally in CI.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut order: Vec<&SpanRecord> = spans.iter().collect();
    order.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                   \"args\":{\"name\":\"wall clock\"}},");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
                   \"args\":{\"name\":\"virtual clock\"}}");
    for s in order {
        out.push_str(",{\"name\":");
        push_escaped(&mut out, s.name);
        out.push_str(",\"cat\":");
        push_escaped(&mut out, s.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        push_f64(&mut out, s.start_us);
        out.push_str(",\"dur\":");
        push_f64(&mut out, s.dur_us);
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", if s.wall { 1 } else { 2 }, s.tid);
        let _ = write!(out, ",\"args\":{{\"id\":\"{}\",\"parent\":\"{}\"", s.id, s.parent);
        for (k, v) in &s.attrs {
            out.push(',');
            push_escaped(&mut out, k);
            out.push(':');
            push_escaped(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    /// Serializes the tests that flip the process-wide enabled flag: one
    /// test switching tracing off mid-way through another's recording
    /// would make that recording come back empty.
    static ENABLED_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
        ENABLED_FLAG.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spans recorded between `reset` and `drain` by this test only:
    /// other tests in the process may record concurrently, so filter
    /// to the ids this closure's guards produced.
    fn record_isolated(f: impl FnOnce()) -> Vec<SpanRecord> {
        let _flag = flag_guard();
        let was = enabled();
        set_enabled(true);
        let lo = NEXT_ID.load(Ordering::Relaxed);
        f();
        let hi = NEXT_ID.load(Ordering::Relaxed);
        let spans: Vec<SpanRecord> =
            drain().into_iter().filter(|s| s.id >= lo && s.id < hi).collect();
        set_enabled(was);
        spans
    }

    #[test]
    fn disabled_records_nothing() {
        // Run with tracing forced off; the guard must be inert.
        let _flag = flag_guard();
        let was = enabled();
        set_enabled(false);
        let g = span("t", "noop");
        assert_eq!(g.id(), 0);
        drop(g);
        record_virtual("t", "noop", 0, 0.0, 1.0, Vec::new());
        set_enabled(was);
        let leftover = take_local();
        assert!(leftover.iter().all(|s| s.name != "noop"));
    }

    #[test]
    fn nesting_sets_parents() {
        let spans = record_isolated(|| {
            let mut outer = span("t", "outer");
            outer.attr("k", "v");
            let inner = span("t", "inner");
            assert_ne!(inner.id(), 0);
            drop(inner);
        });
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.attrs, vec![("k", "v".to_string())]);
        assert!(outer.wall && outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let spans = record_isolated(|| {
            let root = span("t", "coord");
            let root_id = root.id();
            std::thread::scope(|s| {
                // Join explicitly: unlike the scope's implicit join, it
                // waits for the thread-local destructors, so the worker's
                // exit-time flush has landed before `drain`.
                s.spawn(move || {
                    let _w = span_with_parent("t", "worker", root_id);
                })
                .join()
                .unwrap();
            });
        });
        let root = spans.iter().find(|s| s.name == "coord").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, root.id);
        assert_ne!(worker.tid, root.tid, "worker recorded on its own lane");
    }

    #[test]
    fn virtual_spans_carry_the_virtual_clock() {
        let spans = record_isolated(|| {
            record_virtual("mpi", "send", 3, 1.5, 2.25, vec![("bytes", "80".into())]);
        });
        let s = spans.iter().find(|s| s.name == "send").unwrap();
        assert!(!s.wall);
        assert_eq!((s.tid, s.start_us, s.dur_us), (3, 1.5e6, 0.75e6));
    }

    #[test]
    fn chrome_export_is_valid_json_with_lane_metadata() {
        let spans = record_isolated(|| {
            let mut g = span("t", "quoted");
            g.attr("note", "a \"quote\" and a \\ backslash");
            drop(g);
            record_virtual("t", "v", 0, 0.0, 1.0, Vec::new());
        });
        let text = chrome_trace_json(&spans);
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 2 metadata lanes + the recorded spans.
        assert!(events.len() >= 4);
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(|p| p.as_str())).collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert!(phases.iter().all(|p| *p == "M" || *p == "X"));
        // X events are sorted by ts.
        let ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("ts").and_then(|t| t.as_f64()).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        // Exercise the drop-oldest policy directly on the flush path.
        let mut batch: Vec<SpanRecord> = (0..RING_CAPACITY + 10)
            .map(|i| SpanRecord {
                id: u64::MAX - i as u64,
                parent: 0,
                name: "fill",
                cat: "t",
                tid: 0,
                wall: true,
                start_us: i as f64,
                dur_us: 0.0,
                attrs: Vec::new(),
            })
            .collect();
        let before = dropped();
        flush_into_ring(&mut batch);
        assert!(dropped() >= before + 10);
        assert!(ring().lock().unwrap().len() <= RING_CAPACITY);
        // Clean up so concurrent drain-based tests see bounded noise.
        ring().lock().unwrap().retain(|s| s.name != "fill");
    }
}

//! In-process metrics: counters, gauges, latency histograms and scoped
//! timers, with Prometheus-text and obs-JSON exporters.
//!
//! The paper's pipeline assumes the affine cost parameters are *measured*
//! (§5: the authors profile the seismic application and the network before
//! planning). This module is the measuring side of that loop for our own
//! runtime: hot paths (the parallel DP engine, the fault-recovery session,
//! the simulator, the minimpi runtime) increment metrics here, an exporter
//! turns a [`MetricsSnapshot`] into Prometheus text exposition format or
//! the obs JSON style, and [`crate::calibrate`] closes the loop by fitting
//! cost parameters back out of executed traces.
//!
//! ## Design
//!
//! * **Zero dependencies, thread-safe, cheap when idle.** Every metric is
//!   a handful of atomics; handles are `Arc`s handed out by a [`Registry`]
//!   so hot paths never touch the registry lock after setup.
//! * **Deterministic export.** The registry keeps metrics sorted by name,
//!   so two snapshots of the same run serialize identically.
//! * **Histograms are log₂-bucketed.** Latencies span nanoseconds to
//!   hours; powers of two give exact, culture-free bucket bounds that
//!   round-trip through JSON bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use gs_scatter::metrics::Registry;
//!
//! let reg = Registry::new();
//! let cells = reg.counter("dp_cells_evaluated_total", "DP cells evaluated");
//! cells.add(1024);
//! let lat = reg.histogram("mpi_send_seconds", "per-send wall-clock");
//! lat.observe(3.5e-4);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters[0].value, 1024);
//! assert!(snap.to_prometheus().contains("# TYPE mpi_send_seconds histogram"));
//! ```
//!
//! Library code instruments against [`Registry::global`], the process-wide
//! registry that `gs metrics` exports. Tests that assert on global metrics
//! must compare *deltas* (the test harness runs tests concurrently in one
//! process) or use a private `Registry::new()`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Smallest finite histogram bucket bound, as a power of two
/// (2⁻³⁰ ≈ 0.93 ns).
const MIN_EXP: i32 = -30;
/// Largest finite histogram bucket bound, as a power of two
/// (2²⁰ ≈ 12 days).
const MAX_EXP: i32 = 20;
/// Finite buckets: one per exponent in `MIN_EXP..=MAX_EXP`, plus the
/// overflow (+∞) bucket appended by [`Histogram`].
const FINITE_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// A monotonically increasing count (events, bytes, cache hits…).
///
/// ```
/// use gs_scatter::metrics::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, residual items…).
///
/// Stored as `f64` bits in an atomic; `add` uses a compare-and-swap loop,
/// so concurrent increments never lose updates.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `dv` (may be negative).
    pub fn add(&self, dv: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + dv).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram of non-negative values (typically seconds).
///
/// Bucket `k` counts observations `v` with
/// `2^(MIN_EXP+k−1) < v ≤ 2^(MIN_EXP+k)`; values at or below the smallest
/// bound land in bucket 0, values above the largest in the overflow (+∞)
/// bucket. Negative and non-finite observations are ignored (they would
/// poison `sum`).
#[derive(Debug)]
pub struct Histogram {
    /// `FINITE_BUCKETS` finite buckets plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ of observed values, as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
    /// Most recent exemplar (e.g. the request id behind the last
    /// observation). Exposed by the JSON exporter only — the Prometheus
    /// text format 0.0.4 has no exemplar syntax.
    exemplar: Mutex<Option<String>>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..=FINITE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Upper bound of finite bucket `k` (`2^(MIN_EXP+k)`).
    fn bound(k: usize) -> f64 {
        (2.0f64).powi(MIN_EXP + k as i32)
    }

    /// Records one observation. Negative and non-finite values are
    /// dropped.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let idx = if v <= Self::bound(0) {
            0
        } else if v > Self::bound(FINITE_BUCKETS - 1) {
            FINITE_BUCKETS // overflow
        } else {
            let e = v.log2().ceil() as i32;
            (e - MIN_EXP).clamp(0, FINITE_BUCKETS as i32 - 1) as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one observation and remembers `exemplar` (typically a
    /// request id) as the series' most recent exemplar. The exemplar
    /// travels in JSON snapshots only, never in the Prometheus text
    /// format.
    pub fn observe_with_exemplar(&self, v: f64, exemplar: &str) {
        self.observe(v);
        if v.is_finite() && v >= 0.0 {
            *self.exemplar.lock().expect("histogram exemplar poisoned") =
                Some(exemplar.to_string());
        }
    }

    /// The most recent exemplar recorded by
    /// [`Histogram::observe_with_exemplar`], if any.
    pub fn exemplar(&self) -> Option<String> {
        self.exemplar.lock().expect("histogram exemplar poisoned").clone()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Starts a scoped timer that `observe`s its elapsed wall-clock
    /// seconds into this histogram when dropped.
    ///
    /// ```
    /// use gs_scatter::metrics::Registry;
    /// let reg = Registry::new();
    /// let lat = reg.histogram("req_seconds", "request latency");
    /// {
    ///     let _timer = lat.start_timer(); // observes on scope exit
    /// }
    /// assert_eq!(lat.count(), 1);
    /// ```
    pub fn start_timer(self: &Arc<Histogram>) -> Timer {
        Timer { hist: Arc::clone(self), start: Instant::now() }
    }

    /// Freezes this histogram's current state.
    fn snapshot(&self) -> Vec<BucketCount> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| c.load(Ordering::Relaxed) > 0)
            .map(|(k, c)| BucketCount {
                le: if k == FINITE_BUCKETS { f64::INFINITY } else { Self::bound(k) },
                count: c.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// RAII timer: observes its lifetime, in seconds, into a [`Histogram`]
/// on drop. Create with [`Histogram::start_timer`].
#[derive(Debug)]
pub struct Timer {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Timer {
    /// Stops the timer early and returns the observed seconds.
    pub fn stop(self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.hist.observe(secs);
        std::mem::forget(self); // avoid double-observe from Drop
        secs
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

/// A registered metric: the shared handle plus its help text.
#[derive(Debug, Clone)]
enum Metric {
    Counter { help: String, handle: Arc<Counter> },
    Gauge { help: String, handle: Arc<Gauge> },
    Histogram { help: String, handle: Arc<Histogram> },
}

/// One time series' identity: metric (family) name plus its sorted
/// label pairs. The `BTreeMap` order — by name, then labels — is what
/// keeps all series of one family adjacent in every export.
type SeriesKey = (String, Vec<(String, String)>);

/// A named collection of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-create: the first call registers
/// the metric, later calls (from any thread) return the same handle. A
/// name registered as one kind and requested as another panics — that is
/// a programming error, not a runtime condition. The `*_with` variants
/// register **labeled** series: same family name, distinct label sets,
/// one `# HELP`/`# TYPE` preamble per family in the Prometheus export
/// (`serve_latency_seconds{op="plan"}` vs `…{op="ping"}`).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<SeriesKey, Metric>>,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    (name.to_string(), labels)
}

impl Registry {
    /// A fresh, empty registry (use [`Registry::global`] for the
    /// process-wide one).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry that library instrumentation writes to
    /// and `gs metrics` exports.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Gets or creates the (unlabeled) counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or creates the counter series `name{labels}`.
    pub fn counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        let entry = m.entry(series_key(name, labels)).or_insert_with(|| Metric::Counter {
            help: help.to_string(),
            handle: Arc::new(Counter::new()),
        });
        match entry {
            Metric::Counter { handle, .. } => Arc::clone(handle),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Gets or creates the (unlabeled) gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Gets or creates the gauge series `name{labels}`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        let entry = m.entry(series_key(name, labels)).or_insert_with(|| Metric::Gauge {
            help: help.to_string(),
            handle: Arc::new(Gauge::new()),
        });
        match entry {
            Metric::Gauge { handle, .. } => Arc::clone(handle),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Gets or creates the (unlabeled) histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Gets or creates the histogram series `name{labels}`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        let entry = m.entry(series_key(name, labels)).or_insert_with(|| Metric::Histogram {
            help: help.to_string(),
            handle: Arc::new(Histogram::new()),
        });
        match entry {
            Metric::Histogram { handle, .. } => Arc::clone(handle),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Freezes the current state of every registered series, sorted by
    /// name then label set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for ((name, labels), metric) in m.iter() {
            match metric {
                Metric::Counter { help, handle } => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    help: help.clone(),
                    labels: labels.clone(),
                    value: handle.get(),
                }),
                Metric::Gauge { help, handle } => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    help: help.clone(),
                    labels: labels.clone(),
                    value: handle.get(),
                }),
                Metric::Histogram { help, handle } => snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    help: help.clone(),
                    labels: labels.clone(),
                    count: handle.count(),
                    sum: handle.sum(),
                    buckets: handle.snapshot(),
                    exemplar: handle.exemplar(),
                }),
            }
        }
        snap
    }
}

/// One non-empty histogram bucket: observations `≤ le` that exceeded the
/// previous bound. `le` is `2^k` (or +∞ for the overflow bucket), so it
/// serializes exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: f64,
    /// Observations in this bucket (non-cumulative).
    pub count: u64,
}

/// Frozen state of one counter series.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric (family) name (Prometheus-safe: `[a-z0-9_]`).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Label pairs identifying this series within the family, sorted by
    /// key; empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: u64,
}

/// Frozen state of one gauge series.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric (family) name.
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Label pairs, sorted by key; empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
    /// Value at snapshot time.
    pub value: f64,
}

/// Frozen state of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric (family) name.
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Label pairs, sorted by key; empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
    /// Most recent exemplar (see [`Histogram::observe_with_exemplar`]).
    /// JSON-only: the text exposition never carries it.
    pub exemplar: Option<String>,
}

/// Which solver answered each §3.3 LP heuristic solve
/// ([`crate::heuristic`]): the structured O(p) solver, or the dense
/// simplex it falls back to when its optimality certificate fails.
#[derive(Debug, Clone)]
pub struct HeuristicLpCounters {
    /// `heuristic_lp_structured_total`: solves the structured solver
    /// certified.
    pub structured: Arc<Counter>,
    /// `heuristic_lp_fallbacks_total`: solves that fell back to the
    /// simplex.
    pub fallbacks: Arc<Counter>,
}

impl HeuristicLpCounters {
    /// The counters in [`Registry::global`], registered on first use.
    pub fn global() -> HeuristicLpCounters {
        let reg = Registry::global();
        HeuristicLpCounters {
            structured: reg.counter(
                "heuristic_lp_structured_total",
                "LP heuristic solves answered by the structured O(p) solver",
            ),
            fallbacks: reg.counter(
                "heuristic_lp_fallbacks_total",
                "LP heuristic solves that fell back to the dense simplex",
            ),
        }
    }
}

/// Escapes a HELP text for the Prometheus text exposition format 0.0.4:
/// `\` becomes `\\` and a line feed becomes `\n` (those are the only two
/// escapes the spec defines for help lines).
pub fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value for the Prometheus text exposition format
/// 0.0.4: `\` becomes `\\`, `"` becomes `\"`, and a line feed becomes
/// `\n`.
pub fn escape_label_value(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders sorted label pairs as `{k="v",…}` (values escaped), plus any
/// `extra` pre-rendered pairs (the histogram `le` bound). Empty input →
/// empty string.
fn render_labels(labels: &[(String, String)], extra: Option<&str>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(e) = extra {
        parts.push(e.to_string());
    }
    format!("{{{}}}", parts.join(","))
}

impl HistogramSnapshot {
    /// Estimated quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the `⌈q·count⌉`-th observation (0 when empty). An upper
    /// estimate, tight to one log₂ bucket.
    ///
    /// ```
    /// use gs_scatter::metrics::Registry;
    /// let reg = Registry::new();
    /// let lat = reg.histogram("lat_seconds", "latency");
    /// for _ in 0..99 { lat.observe(1e-4); }
    /// lat.observe(2.0); // one slow outlier
    /// let snap = &reg.snapshot().histograms[0];
    /// assert!(snap.quantile(0.50) < 1e-3); // p50 stays in the fast bucket
    /// assert!(snap.quantile(1.00) >= 2.0); // max covers the outlier
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                return b.le;
            }
        }
        self.buckets.last().map_or(0.0, |b| b.le)
    }
}

/// Frozen state of a whole [`Registry`], ready for export. Attachable to
/// an obs [`crate::obs::Trace`] as its optional `metrics` block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// 0.0.4: one `# HELP`/`# TYPE` preamble per metric family (emitted
    /// at its first series; the snapshot keeps same-name series
    /// adjacent), label values and HELP text escaped per the spec,
    /// cumulative `le` buckets, `_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        fn fmt_f64(v: f64) -> String {
            if v == f64::INFINITY {
                "+Inf".to_string()
            } else {
                format!("{v}")
            }
        }
        fn preamble(out: &mut String, last: &mut String, name: &str, help: &str, kind: &str) {
            if last != name {
                let _ = writeln!(out, "# HELP {} {}", name, escape_help(help));
                let _ = writeln!(out, "# TYPE {name} {kind}");
                *last = name.to_string();
            }
        }
        let mut out = String::new();
        let mut last = String::new();
        for c in &self.counters {
            preamble(&mut out, &mut last, &c.name, &c.help, "counter");
            let _ = writeln!(out, "{}{} {}", c.name, render_labels(&c.labels, None), c.value);
        }
        for g in &self.gauges {
            preamble(&mut out, &mut last, &g.name, &g.help, "gauge");
            let _ =
                writeln!(out, "{}{} {}", g.name, render_labels(&g.labels, None), fmt_f64(g.value));
        }
        for h in &self.histograms {
            preamble(&mut out, &mut last, &h.name, &h.help, "histogram");
            let mut cumulative = 0u64;
            for b in &h.buckets {
                cumulative += b.count;
                let le = format!("le=\"{}\"", fmt_f64(b.le));
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    h.name,
                    render_labels(&h.labels, Some(&le))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                render_labels(&h.labels, Some("le=\"+Inf\"")),
                h.count
            );
            let labels = render_labels(&h.labels, None);
            let _ = writeln!(out, "{}_sum{labels} {}", h.name, fmt_f64(h.sum));
            let _ = writeln!(out, "{}_count{labels} {}", h.name, h.count);
        }
        out
    }

    /// Renders a short human-readable digest: one line per series, with
    /// p50/p95/p99 for histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let series = format!("{}{}", c.name, render_labels(&c.labels, None));
            let _ = writeln!(out, "{series:<32} {}", c.value);
        }
        for g in &self.gauges {
            let series = format!("{}{}", g.name, render_labels(&g.labels, None));
            let _ = writeln!(out, "{series:<32} {}", g.value);
        }
        for h in &self.histograms {
            let series = format!("{}{}", h.name, render_labels(&h.labels, None));
            let _ = writeln!(
                out,
                "{series:<32} count={} sum={:.6}s p50≤{:.3e} p95≤{:.3e} p99≤{:.3e}",
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let reg = Registry::new();
        let c = reg.counter("x_total", "x");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name → same handle.
        assert_eq!(reg.counter("x_total", "x").get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10.0);
        g.add(-2.5);
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(1e-4); // fast
        }
        for _ in 0..10 {
            h.observe(1.0); // slow tail
        }
        h.observe(-1.0); // ignored
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (90.0 * 1e-4 + 10.0)).abs() < 1e-9);
        let snap = HistogramSnapshot {
            name: "t".into(),
            help: String::new(),
            labels: Vec::new(),
            count: h.count(),
            sum: h.sum(),
            buckets: h.snapshot(),
            exemplar: None,
        };
        // p50 lands in the fast bucket, p99 in the slow tail.
        assert!(snap.quantile(0.50) < 1e-3, "{}", snap.quantile(0.50));
        assert!(snap.quantile(0.99) >= 1.0, "{}", snap.quantile(0.99));
        // Quantile bound actually covers the observation.
        assert!(snap.quantile(0.50) >= 1e-4);
    }

    #[test]
    fn histogram_extremes_land_in_edge_buckets() {
        let h = Histogram::new();
        h.observe(0.0);
        h.observe(1e300); // beyond the largest finite bucket
        let buckets = h.snapshot();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].le, Histogram::bound(0));
        assert_eq!(buckets[1].le, f64::INFINITY);
    }

    #[test]
    fn timer_observes_on_drop_and_stop() {
        let reg = Registry::new();
        let h = reg.histogram("t_seconds", "t");
        {
            let _t = h.start_timer();
        }
        let t = h.start_timer();
        let secs = t.stop();
        assert!(secs >= 0.0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zeta_total", "z").inc();
        reg.counter("alpha_total", "a").add(5);
        reg.gauge("mid_gauge", "m").set(1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "alpha_total");
        assert_eq!(snap.counters[1].name, "zeta_total");
        assert_eq!(snap.gauges[0].value, 1.5);
        assert_eq!(reg.snapshot(), snap);
    }

    #[test]
    fn prometheus_format_is_well_formed() {
        let reg = Registry::new();
        reg.counter("reqs_total", "requests").add(3);
        reg.gauge("depth", "queue depth").set(2.0);
        let h = reg.histogram("lat_seconds", "latency");
        h.observe(0.25);
        h.observe(300.0);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total 3"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        // Buckets are cumulative and end with an explicit +Inf.
        assert!(text.contains("lat_seconds_bucket{le=\"0.25\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_sum 300.25"));
        assert!(text.contains("lat_seconds_count 2"));
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = Arc::new(Registry::new());
        let c = reg.counter("n_total", "n");
        let g = reg.gauge("g", "g");
        let h = reg.histogram("h_seconds", "h");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, g, h) = (Arc::clone(&c), Arc::clone(&g), Arc::clone(&h));
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        g.add(1.0);
                        h.observe(0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(g.get(), 4000.0);
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 2000.0);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("thing", "thing");
        reg.counter("thing", "thing");
    }

    #[test]
    fn labeled_series_share_one_family_preamble() {
        let reg = Registry::new();
        reg.counter_with("ops_total", "ops by kind", &[("op", "plan")]).add(2);
        reg.counter_with("ops_total", "ops by kind", &[("op", "ping")]).add(5);
        let h = reg.histogram_with("lat_seconds", "latency by op", &[("op", "plan")]);
        h.observe(0.25);
        reg.histogram_with("lat_seconds", "latency by op", &[("op", "shed")]).observe(0.5);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text.matches("# HELP ops_total").count(), 1);
        assert_eq!(text.matches("# TYPE ops_total").count(), 1);
        assert!(text.contains("ops_total{op=\"ping\"} 5"));
        assert!(text.contains("ops_total{op=\"plan\"} 2"));
        assert_eq!(text.matches("# TYPE lat_seconds histogram").count(), 1);
        assert!(text.contains("lat_seconds_bucket{op=\"plan\",le=\"0.25\"} 1"));
        assert!(text.contains("lat_seconds_bucket{op=\"shed\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_sum{op=\"plan\"} 0.25"));
        assert!(text.contains("lat_seconds_count{op=\"shed\"} 1"));
    }

    #[test]
    fn labeled_and_unlabeled_series_are_distinct() {
        let reg = Registry::new();
        reg.counter("n_total", "n").add(1);
        reg.counter_with("n_total", "n", &[("k", "v")]).add(10);
        let snap = reg.snapshot();
        let values: Vec<u64> = snap.counters.iter().map(|c| c.value).collect();
        assert_eq!(values, vec![1, 10]);
    }

    #[test]
    fn exemplar_is_kept_in_snapshot_but_not_in_text() {
        let reg = Registry::new();
        let h = reg.histogram("x_seconds", "x");
        h.observe_with_exemplar(0.1, "req-42");
        h.observe_with_exemplar(f64::NAN, "req-ignored"); // dropped observation
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].exemplar.as_deref(), Some("req-42"));
        assert!(!snap.to_prometheus().contains("req-42"));
    }

    #[test]
    fn escaping_follows_the_text_format_spec() {
        assert_eq!(escape_help(r"a\b" ), r"a\\b");
        assert_eq!(escape_help("two\nlines"), "two\\nlines");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("a\\b\nc"), "a\\\\b\\nc");
    }

    /// Satellite conformance check: every line a fully-populated registry
    /// (all three kinds, labeled and unlabeled series, hostile help text
    /// and label values) exports must lex as Prometheus text format
    /// 0.0.4.
    #[test]
    fn exposition_conformance_lint() {
        fn valid_name(s: &str) -> bool {
            !s.is_empty()
                && s.chars().next().unwrap().is_ascii_alphabetic()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        // One escaped label set: `k="v"` pairs, comma-separated; the
        // value may contain any escaped char but no raw `"` or `\`.
        fn check_labels(s: &str) {
            for pair in split_pairs(s) {
                let (k, v) = pair.split_once('=').expect("label pair has =");
                assert!(valid_name(k), "bad label name {k}");
                assert!(v.starts_with('"') && v.ends_with('"') && v.len() >= 2);
                let inner = &v[1..v.len() - 1];
                let mut chars = inner.chars();
                while let Some(c) = chars.next() {
                    assert!(c != '"', "unescaped quote in {v}");
                    if c == '\\' {
                        let next = chars.next().expect("dangling backslash");
                        assert!(matches!(next, '\\' | '"' | 'n'), "bad escape \\{next}");
                    }
                }
            }
        }
        // Splits `a="b",c="d"` on commas outside quotes.
        fn split_pairs(s: &str) -> Vec<String> {
            let mut out = Vec::new();
            let mut cur = String::new();
            let mut in_quotes = false;
            let mut escaped = false;
            for c in s.chars() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_quotes = !in_quotes;
                } else if c == ',' && !in_quotes {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                cur.push(c);
            }
            assert!(!in_quotes, "unterminated quote in {s}");
            out.push(cur);
            out
        }

        let reg = Registry::new();
        reg.counter("plain_total", "an ordinary counter").add(7);
        reg.counter_with(
            "labeled_total",
            "help with a \\ backslash\nand a second line",
            &[("path", "C:\\temp\n\"quoted\"")],
        )
        .inc();
        reg.gauge_with("depth", "gauge \"help\"", &[("queue", "a\nb")]).set(-2.5);
        let h = reg.histogram_with("lat_seconds", "latency\\by op", &[("op", "pl\"an")]);
        h.observe(0.1);
        h.observe(1e9); // overflow bucket
        reg.histogram("plain_seconds", "unlabeled histogram").observe(0.3);

        let text = reg.snapshot().to_prometheus();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(valid_name(name), "bad metric name {name}");
                // Help text must not contain a raw newline (it is one
                // line by construction) or a dangling backslash.
                let mut chars = help.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        let next = chars.next().expect("dangling backslash in HELP");
                        assert!(matches!(next, '\\' | 'n'), "bad HELP escape \\{next}");
                    }
                }
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
                assert!(valid_name(name), "bad metric name {name}");
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{kind}");
            } else {
                // Sample line: name[{labels}] value
                let (series, value) =
                    line.rsplit_once(' ').expect("sample line has name and value");
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf",
                    "unparseable value {value}"
                );
                match series.split_once('{') {
                    None => assert!(valid_name(series), "bad series name {series}"),
                    Some((name, labels)) => {
                        assert!(valid_name(name), "bad series name {name}");
                        let labels =
                            labels.strip_suffix('}').expect("label block closed");
                        check_labels(labels);
                    }
                }
            }
        }
    }

    #[test]
    fn render_mentions_every_metric() {
        let reg = Registry::new();
        reg.counter("a_total", "a").inc();
        reg.gauge("b", "b").set(2.0);
        reg.histogram("c_seconds", "c").observe(1.0);
        let text = reg.snapshot().render();
        for name in ["a_total", "b", "c_seconds"] {
            assert!(text.contains(name), "{text}");
        }
    }
}

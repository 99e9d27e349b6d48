//! Traced-run support: collects the span tree of the benchmark's `bench`
//! wrapper spans (with the program's own `dp.*`, `ft.*`, `sim.*`,
//! `request.*` spans nested under them), turns it into self time per
//! span name, checks that the self times add up, and exports the first
//! batch as Chrome trace-event JSON.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use gs_scatter::obs::span::{self, SpanRecord};

use crate::Report;

/// Self-time accounting over every span batch collected in a run.
pub struct Tracer {
    /// Self seconds per span name, over the benchmark thread's trees.
    self_s: BTreeMap<&'static str, f64>,
    /// Total seconds per span name over *all* wall-clock spans, on any
    /// thread (the serve daemon's `request` spans live on its session
    /// threads, outside the benchmark's trees).
    pub total_s: BTreeMap<&'static str, f64>,
    /// Span count per name, over all spans.
    pub count: BTreeMap<&'static str, u64>,
    /// Summed duration of the benchmark's root spans, seconds.
    roots_s: f64,
    /// Worst mismatch between a tree's root duration and the sum of the
    /// self times in it, seconds.
    worst_tree_gap_s: f64,
    /// Spans collected.
    spans: u64,
    /// The first non-empty batch, kept for the Chrome export.
    first: Vec<SpanRecord>,
}

impl Tracer {
    /// Clears any leftover spans and turns recording on.
    pub fn start() -> Tracer {
        span::reset();
        span::set_enabled(true);
        Tracer {
            self_s: BTreeMap::new(),
            total_s: BTreeMap::new(),
            count: BTreeMap::new(),
            roots_s: 0.0,
            worst_tree_gap_s: 0.0,
            spans: 0,
            first: Vec::new(),
        }
    }

    /// Drains every finished span visible to this thread and accounts
    /// for it. Call after the traced work's worker threads have exited.
    pub fn collect(&mut self) {
        let spans = span::drain();
        self.spans += spans.len() as u64;
        self.account(&spans);
        if self.first.is_empty() {
            self.first = spans;
        }
    }

    fn account(&mut self, spans: &[SpanRecord]) {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        for (i, s) in spans.iter().enumerate() {
            if !s.wall {
                continue;
            }
            *self.total_s.entry(s.name).or_default() += s.dur_us * 1e-6;
            *self.count.entry(s.name).or_default() += 1;
            // Only same-thread children count against a parent: work a
            // span hands to other threads (DP chunks on the pool) runs
            // inside its interval and is absorbed into its self time.
            if let Some(&p) = by_id.get(&s.parent) {
                if spans[p].tid == s.tid && spans[p].wall {
                    children.entry(s.parent).or_default().push(i);
                }
            }
        }
        for root in spans
            .iter()
            .filter(|s| s.wall && s.cat == "bench" && s.parent == 0)
        {
            self.roots_s += root.dur_us * 1e-6;
            let mut tree_self = 0.0;
            let mut stack = vec![root];
            while let Some(s) = stack.pop() {
                let kids: Vec<&SpanRecord> = children
                    .get(&s.id)
                    .map(|v| v.iter().map(|&i| &spans[i]).collect())
                    .unwrap_or_default();
                let own = (s.dur_us - covered_us(s, &kids)).max(0.0) * 1e-6;
                *self.self_s.entry(s.name).or_default() += own;
                tree_self += own;
                stack.extend(kids);
            }
            let gap = (tree_self - root.dur_us * 1e-6).abs();
            self.worst_tree_gap_s = self.worst_tree_gap_s.max(gap);
        }
    }

    /// Self seconds recorded under `name` so far.
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Moves `secs` of self time from span `from` to span `to`: used
    /// where the program reports a layer's time (`PlanTiming`) but does
    /// not span it.
    pub fn move_self(&mut self, from: &'static str, to: &'static str, secs: f64) {
        *self.self_s.entry(from).or_default() -= secs;
        *self.self_s.entry(to).or_default() += secs;
    }

    /// Stops recording, reports the per-layer self times, the residual
    /// and the dropped-span count, checks that they add up to
    /// `traced_total_s` (the wall time of the traced work, measured
    /// outside the spans), and exports the first batch as Chrome JSON.
    ///
    /// `layers` maps each layer to the span names whose self time it
    /// owns. Each layer is reported twice: as `<layer>_share`, its share
    /// of the traced wall time (the figure `BENCHMARK.json` lists: a
    /// share stays a ratio, and plainly 0, on workloads that never call
    /// the layer), and as `<layer><suffix>`, its self time per unit of
    /// work (`per` repetitions or requests) scaled by `scale` to `unit`.
    pub fn finish(
        self,
        report: &mut Report,
        workload: &str,
        traced_total_s: f64,
        per: f64,
        (suffix, scale, unit): (&str, f64, &'static str),
        layers: &[(&str, &[&str])],
    ) {
        span::set_enabled(false);
        let share = |secs: f64| {
            if traced_total_s > 0.0 {
                secs / traced_total_s
            } else {
                0.0
            }
        };
        let mut attributed = 0.0;
        for (layer, names) in layers {
            let secs: f64 = names.iter().map(|n| self.self_of(n)).sum();
            attributed += secs;
            report.put(format!("{layer}{suffix}"), secs / per * scale, unit);
            report.put(format!("{layer}_share"), share(secs), "ratio");
        }
        let residual = traced_total_s - attributed;
        report.put(
            format!("trace.residual{suffix}"),
            residual / per * scale,
            unit,
        );
        report.put("trace.residual_share", share(residual), "ratio");
        // Batches are drained before the ring fills at these sizes; a
        // nonzero count means the self times above miss some spans.
        report.put("trace.dropped_spans", span::dropped() as f64, "count");
        report.put("trace.spans", self.spans as f64, "count");
        // The self times of a tree must add up to its root, and the
        // layers plus the residual to the traced wall time: the residual
        // absorbs only benchmark glue, so it must not be negative.
        let tol = 1e-3 * traced_total_s + 1e-4;
        report.check(self.worst_tree_gap_s <= tol, || {
            format!(
                "trace self-check: a span tree's self times miss its root by {:.6} s",
                self.worst_tree_gap_s
            )
        });
        report.check(
            residual >= -tol && self.roots_s <= traced_total_s + tol,
            || {
                format!(
                    "trace self-check: layers {attributed:.6} s + residual {residual:.6} s \
                 vs traced {traced_total_s:.6} s (roots {:.6} s)",
                    self.roots_s
                )
            },
        );
        if let Some(dir) = std::env::var_os("PERFBENCH_OUT") {
            let path = std::path::Path::new(&dir).join(format!("perfbench-{workload}-trace.json"));
            if let Err(e) = std::fs::write(&path, span::chrome_trace_json(&self.first)) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            } else {
                eprintln!(
                    "perfbench: spans of the first traced batch in {}",
                    path.display()
                );
            }
        }
    }
}

/// Microseconds of `s`'s interval covered by the union of `kids`.
fn covered_us(s: &SpanRecord, kids: &[&SpanRecord]) -> f64 {
    let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
    let mut iv: Vec<(f64, f64)> = kids
        .iter()
        .map(|k| (k.start_us.max(lo), (k.start_us + k.dur_us).min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur) = (0.0, None::<(f64, f64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Reports the tracing overhead: the traced minus the untraced time of
/// the same work, and that difference as a share of the untraced time.
pub fn overhead(report: &mut Report, traced: f64, untraced: f64) {
    report.put("trace.overhead_s", traced - untraced, "s");
    report.put(
        "trace.overhead_share",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
        "ratio",
    );
}

/// Runs `f` inside a `bench` span named `name` (recorded only while
/// tracing is on; otherwise the span costs one atomic load).
pub fn wrap<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span::span("bench", name);
    f()
}

/// Wall seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Wall seconds of `f`, run inside a `bench` span named `name`.
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    timed(|| wrap(name, f))
}

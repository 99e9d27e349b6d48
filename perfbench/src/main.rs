//! The repository benchmark: one command, three workloads (`plan`,
//! `serve`, `sim`), every metric printed by name and unit, every output
//! checked for correctness.
//!
//! ```text
//! python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The benchmark sits outside the program: it only calls the public
//! functions of the repository's crates and reads deltas from
//! `metrics::Registry::global()`. Inputs are generated from `--seed`;
//! the program under test only ever sees the generated inputs.
//!
//! `--trace 0` runs untraced and reports the end-to-end metrics listed
//! in `BENCHMARK.json`. `--trace 1` runs with span tracing on, wraps
//! every layer call in a `bench` span, and reports the per-layer self
//! times (plus the unattributed residual, the dropped-span count and
//! the tracing overhead). Both modes print every measured figure as a
//! `name = value unit` line before the final JSON line. The list of
//! metrics the JSON line must carry is read from `BENCHMARK.json`, so
//! the file stays the one definition of the benchmark's interface.
//!
//! See `perfbench/NOTES.md` for why each workload exists, which
//! end-to-end metric each layer metric should move, and the cliffs each
//! workload's size stays below.

mod plan;
mod serve;
mod sim;
mod trace;

use std::time::Instant;

use gs_scatter::obs::json::{self, Json};

/// The paper's problem size (§5.1): items scattered over Table 1.
pub const TABLE1_ITEMS: usize = 817_101;

/// Parsed command line.
pub struct Args {
    /// `plan`, `serve` or `sim`.
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl Args {
    /// The timed loop's window, starting now. Traced runs alternate
    /// untraced and traced repetitions, so they need at least two.
    pub fn window(&self) -> Window {
        Window {
            start: Instant::now(),
            seconds: self.seconds,
            min_reps: 1 + usize::from(self.trace),
            reps: 0,
        }
    }
}

/// The measurement window of a repetition loop: at least `min_reps`
/// repetitions, then another one while, at the mean pace so far, it
/// would end less than half a repetition past `--seconds` (so a run
/// makes about `seconds / repetition time` of them, rounded).
pub struct Window {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    /// Repetitions started so far.
    pub reps: usize,
}

impl Window {
    /// Whether to start another repetition (and count it).
    pub fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go = self.reps < self.min_reps
            || elapsed * (self.reps as f64 + 0.5) / self.reps as f64 <= self.seconds;
        self.reps += usize::from(go);
        go
    }
}

/// Prints a sample set to stderr (the spread behind a median).
pub fn log_samples(name: &str, xs: &[f64]) {
    let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    eprintln!("{name}: n={} [{}]", xs.len(), v.join(" "));
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, split by `stream` so each input family
    /// (platform, hot set, faults, …) draws independently of the others.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with a full 53-bit mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` of a sample (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process, in MiB (`VmHWM`), since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts the peak-RSS measurement over: hands memory freed during
/// set-up back to the operating system and resets `VmHWM`, so
/// [`peak_rss_mb`] reports the measured phase. Without this the figure
/// swings by a third from run to run with where the allocator happened
/// to leave freed set-up memory.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases memory the allocator holds
    // free; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets this process's peak RSS.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: could not reset the peak RSS: {e}");
    }
}

/// Threads the machine offers (the `nproc` of the workload tables).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads a counter of the global registry (creating it at zero if no
/// instrumented code has touched it yet).
pub fn counter(name: &str) -> u64 {
    gs_scatter::metrics::Registry::global()
        .counter(name, "")
        .get()
}

/// DP-engine counters of the global registry.
pub struct DpCounters {
    cells: u64,
    prune_hits: u64,
    hits: u64,
    misses: u64,
}

impl DpCounters {
    /// The counters now.
    pub fn now() -> DpCounters {
        DpCounters {
            cells: counter("dp_cells_evaluated_total"),
            prune_hits: counter("dp_prune_hits_total"),
            hits: counter("dp_cache_hits_total"),
            misses: counter("dp_cache_misses_total"),
        }
    }

    /// Reports the DP work done since `self`, per repetition: cells
    /// evaluated, cells pruned, and the cost-table hit ratio.
    pub fn report_since(&self, reps: f64, report: &mut Report) {
        let now = DpCounters::now();
        let hits = (now.hits - self.hits) as f64;
        let lookups = hits + (now.misses - self.misses) as f64;
        let hit_ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
        report.put("core.cost_table.hit_ratio", hit_ratio, "ratio");
        report.put(
            "core.parallel.cells",
            (now.cells - self.cells) as f64 / reps,
            "count",
        );
        report.put(
            "core.parallel.prune_hits",
            (now.prune_hits - self.prune_hits) as f64 / reps,
            "count",
        );
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (plans, requests, simulations).
    pub attempted: u64,
    /// One line per failed operation or failed correctness check.
    pub failures: Vec<String>,
    /// Every measured figure: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records one figure.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one attempted operation; `ok == false` records a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// A correctness check that is not itself an operation: a failure
    /// still counts as one failed (and attempted) operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.failures.push(what());
        }
    }
}

/// Metric list of one section of `BENCHMARK.json`: `(name, unit)`.
fn metric_list(doc: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let items = doc
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{section}`"))?;
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: bad entry in `{section}`")),
            }
        })
        .collect()
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let doc_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = json::parse(&doc_text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = metric_list(&doc, section)?;

    let mut report = match args.workload.as_str() {
        "plan" => plan::run(&args),
        "serve" => serve::run(&args),
        "sim" => sim::run(&args),
        other => return Err(format!("unknown workload `{other}` (plan|serve|sim)")),
    };

    let failed = report.failures.len() as u64;
    let attempted = report.attempted.max(1);
    report.put("attempted", attempted as f64, "count");
    report.put("failed_ratio", failed as f64 / attempted as f64, "ratio");
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }

    let mut fields = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let found = report.metrics.iter().find(|(n, _, _)| n == name);
        let value = match found {
            Some((_, v, u)) if u == unit => *v,
            Some((_, _, u)) => {
                return Err(format!(
                    "metric {name}: unit {u}, BENCHMARK.json says {unit}"
                ))
            }
            // A layer this workload does not exercise did no work.
            None if args.trace => 0.0,
            None => return Err(format!("workload {} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let mut field = String::new();
        json::push_escaped(&mut field, name);
        field.push_str(": {\"value\": ");
        json::push_f64(&mut field, value);
        field.push_str(", \"unit\": ");
        json::push_escaped(&mut field, unit);
        field.push('}');
        fields.push(field);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    Ok(if failed == 0 { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

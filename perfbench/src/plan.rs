//! `plan` workload: cold `Planner::plan` calls, each from a fresh
//! `Planner`, on the paper's Table 1 at n = 817101 (heuristic, and
//! exact with pruning on every core) and on a seed-generated
//! 64-processor linear platform at n = 100000 (closed form, and exact
//! with pruning on every core).
//!
//! The DP does most of the work here; the wide platform makes the
//! closed form's rational arithmetic — also exact's pruning seed — the
//! dominant cost, so the kernel that wins flips between the two shapes.

use std::time::Instant;

use gs_scatter::cost::{Platform, Processor};
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::obs::PlanTiming;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::table1_platform;
use gs_scatter::planner::{Plan, Planner, Strategy};

use crate::trace::{self, Tracer};
use crate::{median, nproc, peak_rss_mb, Args, DpCounters, Report, Rng, TABLE1_ITEMS};

/// Processors of the wide platform. At p = 128 the closed form alone
/// takes ~15 s, and the heuristic is > 120 s already at p = 64.
const WIDE_P: usize = 64;
/// Items on the wide platform.
const WIDE_ITEMS: usize = 100_000;

/// One planning call of the repetition.
struct Case {
    /// Printed metric name.
    metric: &'static str,
    /// Workload-generic end-to-end slot.
    slot: &'static str,
    wide: bool,
    strategy: Strategy,
}

const CASES: [Case; 4] = [
    Case {
        metric: "plan_heuristic_s",
        slot: "op1_ms",
        wide: false,
        strategy: Strategy::Heuristic,
    },
    Case {
        metric: "plan_exact_s",
        slot: "op2_ms",
        wide: false,
        strategy: Strategy::Exact,
    },
    Case {
        metric: "plan_wide_closed_form_s",
        slot: "op3_ms",
        wide: true,
        strategy: Strategy::ClosedForm,
    },
    Case {
        metric: "plan_wide_exact_s",
        slot: "op4_ms",
        wide: true,
        strategy: Strategy::Exact,
    },
];

/// A seed-generated linear platform: root first with no link cost,
/// link and compute slopes on fixed ladders over Table 1's ranges, each
/// jittered by the seed within ±1%. The jitter gives every slope a full
/// 53-bit mantissa (so the closed form's rationals are as large as a
/// real platform's); the ladders keep the DP's pruning, and with it the
/// exact solve's work, the same for every seed.
pub fn wide_platform(seed: u64) -> Platform {
    let mut rng = Rng::new(seed, 1);
    let mut jitter = || 1.0 + 0.02 * (rng.unit() - 0.5);
    let last = (WIDE_P - 1) as f64;
    let procs = (0..WIDE_P)
        .map(|i| {
            let link = i as f64 / last;
            let cpu = ((i * 37) % WIDE_P) as f64 / last;
            let beta = if i == 0 {
                0.0
            } else {
                1e-5 * 10f64.powf(link) * jitter()
            };
            let alpha = 4e-3 * 5f64.powf(cpu) * jitter();
            Processor::linear(format!("w{i}"), beta, alpha)
        })
        .collect();
    Platform::new(procs, 0).expect("generated platform is valid")
}

struct Inputs {
    table1: Platform,
    wide: Platform,
    threads: usize,
}

impl Inputs {
    fn planner(&self, case: &Case) -> (Planner, usize) {
        let exact = case.strategy == Strategy::Exact;
        let (platform, n) = if case.wide {
            (&self.wide, WIDE_ITEMS)
        } else {
            (&self.table1, TABLE1_ITEMS)
        };
        let planner = Planner::new(platform.clone())
            .strategy(case.strategy)
            .prune(exact)
            .threads(if exact { self.threads } else { 1 });
        (planner, n)
    }
}

/// What one repetition returns per case.
struct Done {
    secs: f64,
    plan: Plan,
}

fn same_plan(a: &Plan, b: &Plan) -> bool {
    a.counts == b.counts && a.predicted_makespan.to_bits() == b.predicted_makespan.to_bits()
}

/// Runs the four cold plans, each in a `core.planner` bench span.
fn repetition(inputs: &Inputs, report: &mut Report) -> Option<Vec<Done>> {
    let mut out = Vec::with_capacity(CASES.len());
    for case in &CASES {
        let (planner, n) = inputs.planner(case);
        let (result, secs) = trace::layer("core.planner", || planner.plan(n));
        match result {
            Ok(plan) => {
                report.op(plan.total_items() == n, || {
                    format!("{}: plan lost items", case.metric)
                });
                out.push(Done { secs, plan });
            }
            Err(e) => {
                report.op(false, || format!("{}: {e}", case.metric));
                return None;
            }
        }
    }
    Some(out)
}

/// Correctness of one repetition against the reference one: exact
/// plans bit-identical across repetitions and no worse than the
/// heuristic / closed form on the same platform; the heuristic plan
/// deterministic and within its Eq. (4) guarantee.
fn check(rep: &[Done], reference: &[Done], bound: f64, report: &mut Report) {
    for (i, case) in CASES.iter().enumerate() {
        report.check(same_plan(&rep[i].plan, &reference[i].plan), || {
            format!("{}: plan differs from the first repetition", case.metric)
        });
    }
    let heuristic = rep[0].plan.predicted_makespan;
    report.check(heuristic <= bound, || {
        format!("heuristic makespan {heuristic} exceeds its guarantee bound {bound}")
    });
    report.check(rep[1].plan.predicted_makespan <= heuristic, || {
        format!(
            "exact makespan {} worse than the heuristic's {heuristic}",
            rep[1].plan.predicted_makespan
        )
    });
    report.check(
        rep[3].plan.predicted_makespan <= rep[2].plan.predicted_makespan,
        || {
            format!(
                "wide exact makespan {} worse than the closed form's {}",
                rep[3].plan.predicted_makespan, rep[2].plan.predicted_makespan
            )
        },
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let t_setup = Instant::now();
    let inputs = Inputs {
        table1: table1_platform(),
        wide: wide_platform(args.seed),
        threads: nproc(),
    };

    // Set-up: the Eq. (4) bound from the public heuristic entry point
    // (which must also agree with the planner's heuristic), then one
    // untimed warm-up repetition that later repetitions are checked
    // against.
    let order = scatter_order(&inputs.table1, OrderPolicy::DescendingBandwidth);
    let view = inputs.table1.ordered(&order);
    let heuristic = match heuristic_distribution(&view, TABLE1_ITEMS) {
        Ok(h) => h,
        Err(e) => {
            report.op(false, || format!("heuristic_distribution: {e}"));
            return report;
        }
    };
    let Some(reference) = repetition(&inputs, &mut report) else {
        return report;
    };
    let bound = heuristic.guarantee_bound;
    report.check(
        reference[0].plan.counts_in_order() == heuristic.counts,
        || "planner heuristic differs from heuristic_distribution".into(),
    );
    check(&reference, &reference, bound, &mut report);
    let setup_s = t_setup.elapsed().as_secs_f64();
    crate::reset_peak_rss();

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); CASES.len()];
    let mut tracer = args.trace.then(Tracer::start);
    let (mut traced_s, mut untraced_s, mut traced_reps) = (0.0, 0.0, 0usize);
    let mut untraced_timing: Option<PlanTiming> = None;
    let dp0 = DpCounters::now();
    let mut window = args.window();
    while window.another() {
        let rep_index = window.reps - 1;
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead is measured under the same conditions.
        let traced = args.trace && rep_index % 2 == 1;
        gs_scatter::obs::span::set_enabled(traced);
        let t = Instant::now();
        let Some(rep) = repetition(&inputs, &mut report) else {
            return report;
        };
        let wall = t.elapsed().as_secs_f64();
        check(&rep, &reference, bound, &mut report);
        if let Some(tr) = tracer.as_mut().filter(|_| traced) {
            tr.collect();
            for (i, case) in CASES.iter().enumerate() {
                // The heuristic and closed form export no spans of their
                // own; the planner reports their solve time.
                let layer = match case.strategy {
                    Strategy::Heuristic => "core.heuristic",
                    Strategy::ClosedForm => "core.closed_form",
                    _ => continue,
                };
                tr.move_self("core.planner", layer, rep[i].plan.timing.total_secs);
            }
            traced_s += wall;
            traced_reps += 1;
        } else {
            untraced_s += wall;
            untraced_timing.get_or_insert_with(|| rep[1].plan.timing.clone());
        }
        for (i, done) in rep.iter().enumerate() {
            if !traced {
                samples[i].push(done.secs);
            }
        }
    }
    let reps_done = window.reps;
    let untraced_reps = reps_done - traced_reps;

    for (i, case) in CASES.iter().enumerate() {
        crate::log_samples(case.metric, &samples[i]);
        let m = median(&samples[i]);
        report.put(case.metric, m, "s");
        report.put(case.slot, m * 1e3, "ms");
    }
    report.put("plan_samples", samples[0].len() as f64, "count");
    report.put("setup_s", setup_s, "s");

    if let Some(tr) = tracer {
        // The traced run's one-off serial solve, for the parallel
        // speed-up of the exact Table-1 plan.
        gs_scatter::obs::span::set_enabled(false);
        let serial = Planner::new(inputs.table1.clone())
            .strategy(Strategy::Exact)
            .prune(true)
            .threads(1)
            .plan(TABLE1_ITEMS);
        match (serial, &untraced_timing) {
            (Ok(plan), Some(par)) => {
                report.check(same_plan(&plan, &reference[1].plan), || {
                    "serial exact plan differs from the parallel one".into()
                });
                report.put(
                    "core.parallel.speedup",
                    plan.timing.solve_secs / par.solve_secs,
                    "ratio",
                );
            }
            (Err(e), _) => report.op(false, || format!("serial exact plan: {e}")),
            _ => {}
        }
        let per = traced_reps.max(1) as f64;
        dp0.report_since(reps_done as f64, &mut report);
        trace::overhead(
            &mut report,
            traced_s / per,
            untraced_s / untraced_reps.max(1) as f64,
        );
        tr.finish(
            &mut report,
            "plan",
            traced_s,
            per,
            ("_s", 1.0, "s"),
            &[
                ("core.cost_table.tabulate", &["dp.tabulate"]),
                ("core.parallel.solve", &["dp.sweep", "dp.chunk"]),
                // dp.solve's own time: on these pruned solves, mostly the
                // closed-form bound that seeds the pruning.
                ("core.parallel.seed", &["dp.solve"]),
                ("core.closed_form.solve", &["core.closed_form"]),
                ("core.heuristic.solve", &["core.heuristic"]),
                ("core.planner.residual", &["core.planner"]),
            ],
        );
    }
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report
}

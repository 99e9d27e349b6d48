//! `sim` workload: the simulators and the message-passing runtime, on
//! seed-generated inputs.
//!
//! * `simulate_star` at 4·10⁶ ranks (its arrays straddle a large LLC)
//!   and at 10⁶ ranks (in cache);
//! * pooled-minimpi `scatterv` at 10⁴ ranks on every core, whose
//!   virtual clocks must equal `simulate_star`'s finish times bit for
//!   bit (at 10⁵ ranks the pool runs for minutes: it grows about
//!   quadratically);
//! * recovered `simulate_scatter_ft` runs of the Table-1 exact plan at
//!   n = 817101 under seed-generated fault specs, built as
//!   `FaultPlan::parse` strings.
//!
//! The exact plan is built during set-up, so no LP runs here and the DP
//! runs only in the residual re-plans.

use std::time::Instant;

use gs_gridsim::{
    proportional_counts, simulate_scatter_ft, simulate_star, BigScatterSim, FtScatterSim,
};
use gs_minimpi::{run_world_pooled, TimeModel, WorldConfig};
use gs_scatter::cost::{CostFn, Processor};
use gs_scatter::fault::{FaultPlan, RecoveryConfig};
use gs_scatter::paper::table1_platform;
use gs_scatter::planner::{Planner, Strategy};

use crate::trace::{self, Tracer};
use crate::{counter, median, nproc, peak_rss_mb, Args, Report, Rng, TABLE1_ITEMS};

/// Ranks of the large star.
const STAR_RANKS: usize = 4_000_000;
/// Ranks of the in-cache star.
const STAR_RANKS_SMALL: usize = 1_000_000;
/// Ranks of the pooled minimpi world.
const POOL_RANKS: usize = 10_000;
/// Items per rank in the stars (one byte per item in the pooled run).
const ITEMS_PER_RANK: u64 = 10;
/// Fault specs per repetition.
const FAULT_SPECS: usize = 8;

/// Bare per-transfer and per-compute durations of a star.
struct Star {
    beta: Vec<f64>,
    alpha: Vec<f64>,
    comm: Vec<f64>,
    work: Vec<f64>,
    counts: Vec<u64>,
}

/// A heterogeneous star with seed-drawn link and compute slopes (root
/// last with no link cost) and a proportional split of its items.
fn star(seed: u64, stream: u64, p: usize) -> Star {
    let mut rng = Rng::new(seed, stream);
    let mut beta: Vec<f64> = (0..p).map(|_| rng.range(1e-6, 1e-5)).collect();
    let alpha: Vec<f64> = (0..p).map(|_| rng.range(1e-5, 1e-4)).collect();
    beta[p - 1] = 0.0;
    let counts = proportional_counts(&alpha, p as u64 * ITEMS_PER_RANK);
    let comm = beta
        .iter()
        .zip(&counts)
        .map(|(b, &c)| b * c as f64)
        .collect();
    let work = alpha
        .iter()
        .zip(&counts)
        .map(|(a, &c)| a * c as f64)
        .collect();
    Star {
        beta,
        alpha,
        comm,
        work,
        counts,
    }
}

/// Seed-generated fault specs over `p` scatter positions (root last;
/// the root never faults), as `FaultPlan::parse` strings. Ranks are
/// named by position: Table 1's machine names repeat (eight `leda`
/// processors), and a name selects the first processor carrying it.
///
/// Spec `k` crashes two workers at time 0, so both their blocks need a
/// cold re-plan. The crashed pairs come from a seed-shuffled list of all
/// workers, so over the specs every worker's block is re-planned about
/// once and the total re-planned work does not depend on the seed. Each
/// spec also gets a flaky link (retried within the default budget) and
/// a slowdown. The second, warm, re-plan is added by
/// [`with_second_crash`] once the first re-plan's time is known.
fn fault_specs(seed: u64, p: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 4);
    let workers = p - 1;
    let mut order: Vec<usize> = (0..workers).collect();
    for i in (1..workers).rev() {
        order.swap(i, rng.int(0, i as u64) as usize);
    }
    let mut crashes = order.iter().cycle();
    (0..FAULT_SPECS)
        .map(|_| {
            let (a, b) = (
                crashes.next().expect("cycle"),
                crashes.next().expect("cycle"),
            );
            let other = |rng: &mut Rng| rng.int(0, workers as u64 - 1);
            format!(
                "crash:{}@0,crash:{}@0,flaky:{}:1,slow:{}:{:.2}",
                a,
                b,
                other(&mut rng),
                other(&mut rng),
                rng.range(1.5, 3.0)
            )
        })
        .collect()
}

/// Adds to `spec` a crash, at the moment of `run`'s first re-plan, of
/// a seed-chosen survivor that the re-plan gives items to: its
/// re-planned block is lost too, and the second re-plan warm-starts from
/// the first one's DP plane. `run` is the warm-up run of `spec`.
fn with_second_crash(spec: &str, run: &FtScatterSim, rng: &mut Rng) -> Result<String, String> {
    let first = run.replans.first().ok_or("no re-plan")?;
    let root = run.dead.len() - 1;
    let takers: Vec<usize> = first
        .survivors
        .iter()
        .zip(&first.counts)
        .filter(|&(&pos, &c)| c > 0 && pos != root)
        .map(|(&pos, _)| pos)
        .collect();
    if takers.is_empty() {
        return Err("the first re-plan gave no worker any items".into());
    }
    let victim = takers[rng.int(0, takers.len() as u64 - 1) as usize];
    Ok(format!("{spec},crash:{victim}@{}", first.t))
}

/// Inputs and references built during set-up.
struct Inputs {
    big: Star,
    small: Star,
    pool: Star,
    pool_expected: Vec<f64>,
    big_makespan: u64,
    small_makespan: u64,
    procs: Vec<Processor>,
    counts: Vec<usize>,
    /// Fault specs in force, and the scatter-order names and horizon
    /// they are parsed against.
    specs: Vec<String>,
    names: Vec<String>,
    horizon: f64,
    faults: Vec<FaultPlan>,
    threads: usize,
}

fn setup(seed: u64, report: &mut Report) -> Option<Inputs> {
    let big = star(seed, 2, STAR_RANKS);
    let small = star(seed, 3, STAR_RANKS_SMALL);
    let pool = star(seed, 5, POOL_RANKS);
    let pool_expected = simulate_star(&pool.comm, &pool.work, false).timeline.finish;
    let big_makespan = simulate_star(&big.comm, &big.work, false)
        .makespan
        .to_bits();
    let small_makespan = simulate_star(&small.comm, &small.work, false)
        .makespan
        .to_bits();

    let threads = nproc();
    let table1 = table1_platform();
    let plan = match Planner::new(table1.clone())
        .strategy(Strategy::Exact)
        .prune(true)
        .threads(threads)
        .plan(TABLE1_ITEMS)
    {
        Ok(plan) => plan,
        Err(e) => {
            report.op(false, || format!("Table-1 exact plan: {e}"));
            return None;
        }
    };
    let view = table1.ordered(&plan.order);
    let procs: Vec<Processor> = view.iter().map(|&p| p.clone()).collect();
    let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
    let counts = plan.counts_in_order();
    let horizon = plan.predicted_makespan;
    let specs = fault_specs(seed, names.len());
    let mut faults = Vec::new();
    for spec in &specs {
        match FaultPlan::parse(spec, &names, horizon) {
            Ok(f) => faults.push(f),
            Err(e) => {
                report.op(false, || format!("fault spec `{spec}`: {e}"));
                return None;
            }
        }
    }
    let names = names.iter().map(|n| n.to_string()).collect();
    Some(Inputs {
        big,
        small,
        pool,
        pool_expected,
        big_makespan,
        small_makespan,
        counts,
        procs,
        specs,
        names,
        horizon,
        faults,
        threads,
    })
}

/// Timings and results of one repetition.
struct Rep {
    big_s: f64,
    big: BigScatterSim,
    small_s: f64,
    small: BigScatterSim,
    pool_s: f64,
    ft_s: f64,
    ft: Vec<FtScatterSim>,
}

fn repetition(inputs: &Inputs, report: &mut Report) -> Rep {
    let (big, big_s) = trace::layer("gridsim.bigsim", || {
        simulate_star(&inputs.big.comm, &inputs.big.work, false)
    });
    report.op(big.makespan.to_bits() == inputs.big_makespan, || {
        "simulate_star (4M ranks) makespan changed between runs".into()
    });
    let (small, small_s) = trace::layer("gridsim.bigsim", || {
        simulate_star(&inputs.small.comm, &inputs.small.work, false)
    });
    report.op(small.makespan.to_bits() == inputs.small_makespan, || {
        "simulate_star (1M ranks) makespan changed between runs".into()
    });

    let pool = &inputs.pool;
    let model = TimeModel {
        link: pool
            .beta
            .iter()
            .map(|&b| CostFn::Linear { slope: b })
            .collect(),
        compute: pool
            .alpha
            .iter()
            .map(|&a| CostFn::Linear { slope: a })
            .collect(),
    };
    let counts: Vec<usize> = pool.counts.iter().map(|&c| c as usize).collect();
    let data = vec![0u8; counts.iter().sum()];
    let root = POOL_RANKS - 1;
    let (clocks, pool_s) = trace::layer("minimpi.world", || {
        run_world_pooled(
            POOL_RANKS,
            inputs.threads,
            root,
            WorldConfig::with_time(model),
            |comm| {
                let sendbuf = if comm.rank() == root {
                    Some(&data[..])
                } else {
                    None
                };
                let mine = comm.scatterv(root, sendbuf, &counts);
                comm.model_compute(mine.len());
                comm.now()
            },
        )
    });
    report.op(
        clocks.len() == inputs.pool_expected.len()
            && clocks
                .iter()
                .zip(&inputs.pool_expected)
                .all(|(c, f)| c.to_bits() == f.to_bits()),
        || "pooled minimpi clocks differ from simulate_star finish times".into(),
    );

    let view: Vec<&Processor> = inputs.procs.iter().collect();
    let recovery = RecoveryConfig::default();
    let mut ft_s = 0.0;
    let mut ft = Vec::with_capacity(inputs.faults.len());
    for (k, faults) in inputs.faults.iter().enumerate() {
        let (result, secs) = trace::layer("gridsim.fault", || {
            simulate_scatter_ft(&view, &inputs.counts, faults, Some(&recovery))
        });
        ft_s += secs;
        match result {
            Ok(run) => {
                let conserved = exactly_once(&run.assignments, TABLE1_ITEMS as u64);
                report.op(
                    run.recovered
                        && run.lost_items == 0
                        && run.computed_items == TABLE1_ITEMS as u64
                        && conserved,
                    || {
                        format!(
                            "fault spec {k}: lost {} items, computed {}, exactly-once {conserved}",
                            run.lost_items, run.computed_items
                        )
                    },
                );
                ft.push(run);
            }
            Err(e) => report.op(false, || format!("fault spec {k}: {e}")),
        }
    }
    Rep {
        big_s,
        big,
        small_s,
        small,
        pool_s,
        ft_s,
        ft,
    }
}

/// Every item in `0..n` assigned to exactly one rank.
fn exactly_once(assignments: &[Vec<(u64, u64)>], n: u64) -> bool {
    let mut ranges: Vec<(u64, u64)> = assignments.iter().flatten().copied().collect();
    ranges.sort_unstable();
    let mut next = 0;
    for (lo, hi) in ranges {
        if lo != next || hi < lo {
            return false;
        }
        next = hi;
    }
    next == n
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let t_setup = Instant::now();
    let Some(mut inputs) = setup(args.seed, &mut report) else {
        return report;
    };
    // Untimed warm-up repetition, counted in set-up. Its fault runs time
    // each spec's first re-plan, where the second crash goes.
    let warm_up = repetition(&inputs, &mut report);
    let mut rng = Rng::new(args.seed, 9);
    let names: Vec<&str> = inputs.names.iter().map(String::as_str).collect();
    let mut faults = Vec::with_capacity(inputs.specs.len());
    for (spec, run) in inputs.specs.iter().zip(&warm_up.ft) {
        let full = with_second_crash(spec, run, &mut rng).and_then(|full| {
            FaultPlan::parse(&full, &names, inputs.horizon).map_err(|e| e.to_string())
        });
        match full {
            Ok(f) => faults.push(f),
            Err(e) => {
                report.op(false, || format!("fault spec `{spec}`: {e}"));
                return report;
            }
        }
    }
    if faults.len() != inputs.specs.len() {
        return report;
    }
    inputs.faults = faults;
    let setup_s = t_setup.elapsed().as_secs_f64();
    crate::reset_peak_rss();

    let mut tracer = args.trace.then(Tracer::start);
    let (mut big, mut small, mut pool, mut ft) = (vec![], vec![], vec![], vec![]);
    let (mut traced_s, mut untraced_s, mut traced_reps) = (0.0, 0.0, 0usize);
    let (mut events, mut queue_peak, mut events_1m_rate) = (0.0, 0.0, vec![]);
    let dp0 = crate::DpCounters::now();
    let c0 = (
        counter("mpi_sends_total"),
        counter("ft_replans_total"),
        counter("ft_warm_replans_total"),
    );
    let mut window = args.window();
    while window.another() {
        let rep_index = window.reps - 1;
        let traced = args.trace && rep_index % 2 == 1;
        gs_scatter::obs::span::set_enabled(traced);
        let t = Instant::now();
        let rep = repetition(&inputs, &mut report);
        let wall = t.elapsed().as_secs_f64();
        if let Some(tr) = tracer.as_mut().filter(|_| traced) {
            tr.collect();
            traced_s += wall;
            traced_reps += 1;
        } else {
            untraced_s += wall;
            big.push(rep.big_s);
            small.push(rep.small_s);
            pool.push(rep.pool_s);
            ft.push(rep.ft_s);
        }
        events = rep.big.events_processed as f64;
        queue_peak = rep.big.queue_peak as f64;
        events_1m_rate.push(rep.small.events_processed as f64 / rep.small_s);
    }
    let reps_done = window.reps;

    for (name, xs) in [
        ("star_4m_s", &big),
        ("star_1m_s", &small),
        ("mpi_pooled_s", &pool),
        ("ft_recover_s", &ft),
    ] {
        crate::log_samples(name, xs);
    }
    let star_s = median(&big);
    report.put("sim_star_events_per_s", events / star_s, "1/s");
    report.put("mpi_pooled_s", median(&pool), "s");
    report.put("ft_recover_s", median(&ft), "s");
    report.put("sim_samples", big.len() as f64, "count");
    report.put("op1_ms", star_s * 1e3, "ms");
    report.put("op2_ms", median(&pool) * 1e3, "ms");
    report.put("op3_ms", median(&ft) * 1e3, "ms");
    report.put("op4_ms", median(&small) * 1e3, "ms");
    report.put("setup_s", setup_s, "s");

    if let Some(tr) = tracer {
        let per = traced_reps.max(1) as f64;
        let reps = reps_done as f64;
        dp0.report_since(reps, &mut report);
        report.put("gridsim.bigsim.events", events, "count");
        report.put("gridsim.bigsim.queue_peak", queue_peak, "count");
        report.put(
            "gridsim.bigsim.events_per_s_1m",
            median(&events_1m_rate),
            "1/s",
        );
        report.put(
            "minimpi.world.sends",
            (counter("mpi_sends_total") - c0.0) as f64 / reps,
            "count",
        );
        report.put(
            "core.fault.replans",
            (counter("ft_replans_total") - c0.1) as f64 / reps,
            "count",
        );
        report.put(
            "core.fault.warm_replans",
            (counter("ft_warm_replans_total") - c0.2) as f64 / reps,
            "count",
        );
        crate::trace::overhead(
            &mut report,
            traced_s / per,
            untraced_s / (reps_done - traced_reps).max(1) as f64,
        );
        tr.finish(
            &mut report,
            "sim",
            traced_s,
            per,
            ("_s", 1.0, "s"),
            &[
                (
                    "gridsim.bigsim.simulate_star",
                    &["gridsim.bigsim", "sim.star", "sim.run"],
                ),
                ("minimpi.world.run_world_pooled", &["minimpi.world"]),
                ("gridsim.fault.simulate_scatter_ft", &["gridsim.fault"]),
                ("core.fault.replan", &["ft.replan"]),
                ("core.cost_table.tabulate", &["dp.tabulate"]),
                ("core.parallel.solve", &["dp.sweep", "dp.chunk"]),
                ("core.parallel.seed", &["dp.solve"]),
            ],
        );
    }
    report.put("peak_rss_mb", peak_rss_mb(), "MiB");
    report
}

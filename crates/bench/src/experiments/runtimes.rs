//! §5.2 algorithm-cost comparison: Algorithm 1 vs Algorithm 2 vs the LP
//! heuristic (paper: > 2 days vs 6 minutes vs "instantaneous" at
//! n = 817,101), and the heuristic's relative error (< 6·10⁻⁶).

use std::time::Instant;

use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::cost::Platform;
use gs_scatter::cost_table::CostTable;
use gs_scatter::dp_basic::optimal_distribution_basic_with;
use gs_scatter::dp_optimized::optimal_distribution_with;
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::table1_platform;
use gs_scatter::parallel::{
    optimal_distribution_dc_parallel_timed, optimal_distribution_parallel_timed, ParallelOpts,
};

/// Measured solver runtimes at one problem size.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Problem size (items).
    pub n: usize,
    /// Algorithm 1 wall time, seconds (`None` above the cap — it is
    /// quadratic and the paper itself gave up after two days).
    pub basic: Option<f64>,
    /// Algorithm 2 wall time, seconds.
    pub optimized: f64,
    /// LP heuristic wall time, seconds.
    pub heuristic: f64,
    /// Closed-form wall time, seconds.
    pub closed_form: f64,
}

/// Times the four solvers on the Table-1 platform over a size sweep.
/// `basic_cap` bounds the sizes at which the quadratic Algorithm 1 runs.
pub fn algo_runtimes(ns: &[usize], basic_cap: usize) -> Vec<RuntimeRow> {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    // One cost table for the whole sweep: each cost function is tabulated
    // once at the largest size instead of once per (solver, n) pair.
    let table = CostTable::new();
    ns.iter()
        .map(|&n| {
            let basic = (n <= basic_cap).then(|| {
                let t = Instant::now();
                let s = optimal_distribution_basic_with(&table, &view, n).unwrap();
                assert_eq!(s.counts.iter().sum::<usize>(), n);
                t.elapsed().as_secs_f64()
            });
            let t = Instant::now();
            let s = optimal_distribution_with(&table, &view, n).unwrap();
            assert_eq!(s.counts.iter().sum::<usize>(), n);
            let optimized = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let h = heuristic_distribution(&view, n).unwrap();
            assert_eq!(h.counts.iter().sum::<usize>(), n);
            let heuristic = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let c = closed_form_distribution(&view, n).unwrap();
            assert_eq!(c.counts.iter().sum::<usize>(), n);
            let closed_form = t.elapsed().as_secs_f64();

            RuntimeRow { n, basic, optimized, heuristic, closed_form }
        })
        .collect()
}

/// Quadratic extrapolation of Algorithm 1's cost to a target size, from
/// the largest measured point (the paper could only *bound* it: "more
/// than two days of work (we interrupted it before its completion)").
pub fn extrapolate_quadratic(rows: &[RuntimeRow], target_n: usize) -> Option<f64> {
    rows.iter()
        .rev()
        .find_map(|r| r.basic.map(|t| (r.n, t)))
        .map(|(n, t)| t * (target_n as f64 / n as f64).powi(2))
}

/// Heuristic-vs-optimal quality at one size.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Problem size.
    pub n: usize,
    /// Optimal integer makespan (Algorithm 2).
    pub optimal: f64,
    /// Heuristic makespan after rounding.
    pub heuristic: f64,
    /// `(heuristic − optimal) / optimal`.
    pub rel_error: f64,
    /// The Eq. (4) guarantee bound.
    pub bound: f64,
    /// Whether `heuristic <= bound` (must always hold).
    pub within_bound: bool,
}

/// Measures the §5.2 heuristic error across problem sizes.
pub fn heuristic_error(ns: &[usize]) -> Vec<ErrorRow> {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let table = CostTable::new();
    ns.iter()
        .map(|&n| {
            let exact = optimal_distribution_with(&table, &view, n).unwrap();
            let h = heuristic_distribution(&view, n).unwrap();
            let rel_error = (h.makespan - exact.makespan) / exact.makespan;
            ErrorRow {
                n,
                optimal: exact.makespan,
                heuristic: h.makespan,
                rel_error,
                bound: h.guarantee_bound,
                within_bound: h.makespan <= h.guarantee_bound + 1e-9,
            }
        })
        .collect()
}

/// Wall times of the Algorithm-2 engine variants at one `(n, p)` point —
/// the machine-readable "perf trajectory" recorded in `BENCH_dp.json`
/// PR-over-PR.
#[derive(Debug, Clone)]
pub struct DpPerfRow {
    /// Problem size (items).
    pub n: usize,
    /// Processors (first `p` rows of Table 1, root first).
    pub p: usize,
    /// Serial engine (1 thread, no pruning) — the baseline.
    pub serial_secs: f64,
    /// Multi-threaded, no pruning.
    pub parallel_secs: f64,
    /// Serial with upper-bound pruning.
    pub pruned_secs: f64,
    /// Multi-threaded with pruning.
    pub parallel_pruned_secs: f64,
    /// Serial divide-and-conquer kernel (1 thread, no pruning).
    pub dc_secs: f64,
    /// Whether all variants returned bit-identical `(counts, makespan)`
    /// to the serial baseline (must always be `true`).
    pub identical: bool,
    /// The optimal makespan at this point.
    pub makespan: f64,
}

/// The platform a `(n, p)` perf point runs on: the first `p` rows of
/// Table 1 when they exist, else a deterministic synthetic
/// computation-dominated affine platform (the regime the paper's
/// seismic workload lives in, and where the DP cost is all in the
/// kernel's inner scan rather than the cost functions).
pub fn dp_perf_platform(p: usize) -> Platform {
    let full = table1_platform();
    if p <= full.len() {
        return Platform::new(full.procs()[..p].to_vec(), 0).expect("Table-1 prefix");
    }
    let procs = (0..p)
        .map(|i| {
            if i == 0 {
                // Root: no comm cost for its own share.
                return gs_scatter::cost::Processor::affine("root", 0.0, 0.0, 1e-3, 4e-3);
            }
            // Coefficients vary deterministically with the index so the
            // platform is heterogeneous but reproducible everywhere.
            // They are dyadic (sums of powers of two) and
            // compute-dominated (comm slopes ~2^-26, comp slopes ~2^-9):
            // dyadic values keep the rational arithmetic of exact
            // baselines compact, and a fast-LAN/slow-node regime is
            // where the paper's DP spends its time in the kernel proper
            // rather than in the downward scan both kernels share.
            let comm_i = 2f64.powi(-20) + (i % 7) as f64 * 2f64.powi(-22);
            let comm_s = 2f64.powi(-26) + (i % 5) as f64 * 2f64.powi(-28);
            let comp_i = 2f64.powi(-10) + (i % 3) as f64 * 2f64.powi(-11);
            let comp_s = 2f64.powi(-9) + (i % 13) as f64 * 2f64.powi(-12);
            gs_scatter::cost::Processor::affine(format!("s{i}"), comm_i, comm_s, comp_i, comp_s)
        })
        .collect();
    Platform::new(procs, 0).expect("synthetic platform")
}

/// A `p`-processor linear platform over Table 1's slope ranges, each
/// slope perturbed deterministically so that it carries a full 53-bit
/// mantissa: the widest exact operands a linear platform of this size
/// hands the LP heuristic and the closed form.
pub fn wide_linear_platform(p: usize) -> Platform {
    let procs = (0..p)
        .map(|i| {
            let wobble = 1.0 + ((i * 37) % 64) as f64 * 1e-3 / 3.0;
            let beta = if i == 0 { 0.0 } else { 1e-5 * (1.0 + i as f64 / 7.0) * wobble };
            let alpha = 4e-3 * (1.0 + (i % 5) as f64 / 3.0) * wobble;
            gs_scatter::cost::Processor::linear(format!("w{i}"), beta, alpha)
        })
        .collect();
    Platform::new(procs, 0).expect("generated platform is valid")
}

/// Times the engine variants on [`dp_perf_platform`] platforms.
/// `threads` is the worker count of the parallel variants; tabulations
/// are pre-warmed through a shared [`CostTable`] so every variant times
/// the solve, not the setup.
pub fn dp_perf_trajectory(cases: &[(usize, usize)], threads: usize) -> Vec<DpPerfRow> {
    let table = CostTable::new();
    cases
        .iter()
        .map(|&(n, p)| {
            let sub = dp_perf_platform(p);
            let order = scatter_order(&sub, OrderPolicy::DescendingBandwidth);
            let view = sub.ordered(&order);
            // Warm the cache so all variants start from tabulated costs.
            for pr in &view {
                table.tabulate(&pr.comm, n);
                table.tabulate(&pr.comp, n);
            }
            let time = |opts: &ParallelOpts| {
                let t = Instant::now();
                let (sol, _) =
                    optimal_distribution_parallel_timed(&table, &view, n, opts).unwrap();
                (t.elapsed().as_secs_f64(), sol)
            };
            let (serial_secs, base) =
                time(&ParallelOpts { threads: 1, prune: false, chunk: 0 });
            let (parallel_secs, par) =
                time(&ParallelOpts { threads, prune: false, chunk: 0 });
            let (pruned_secs, pru) = time(&ParallelOpts { threads: 1, prune: true, chunk: 0 });
            let (parallel_pruned_secs, both) =
                time(&ParallelOpts { threads, prune: true, chunk: 0 });
            let t = Instant::now();
            let (dc, _) = optimal_distribution_dc_parallel_timed(
                &table,
                &view,
                n,
                &ParallelOpts { threads: 1, prune: false, chunk: 0 },
            )
            .unwrap();
            let dc_secs = t.elapsed().as_secs_f64();
            let identical = [&par, &pru, &both, &dc].iter().all(|s| {
                s.counts == base.counts && s.makespan.to_bits() == base.makespan.to_bits()
            });
            DpPerfRow {
                n,
                p,
                serial_secs,
                parallel_secs,
                pruned_secs,
                parallel_pruned_secs,
                dc_secs,
                identical,
                makespan: base.makespan,
            }
        })
        .collect()
}

/// Renders a trajectory as the `BENCH_dp.json` document (hand-rolled,
/// schema field for PR-over-PR comparability).
pub fn dp_perf_json(rows: &[DpPerfRow], threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"dp_perf\",\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"threads\": {threads},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"p\": {}, \"serial_secs\": {:.6}, \"parallel_secs\": {:.6}, \
             \"pruned_secs\": {:.6}, \"parallel_pruned_secs\": {:.6}, \"dc_secs\": {:.6}, \
             \"parallel_speedup\": {:.3}, \"pruned_speedup\": {:.3}, \"dc_speedup\": {:.3}, \
             \"best_speedup\": {:.3}, \"identical\": {}, \"makespan\": {}}}{}\n",
            r.n,
            r.p,
            r.serial_secs,
            r.parallel_secs,
            r.pruned_secs,
            r.parallel_pruned_secs,
            r.dc_secs,
            r.serial_secs / r.parallel_secs.max(1e-12),
            r.serial_secs / r.pruned_secs.max(1e-12),
            r.serial_secs / r.dc_secs.max(1e-12),
            r.serial_secs
                / r.parallel_secs
                    .min(r.pruned_secs)
                    .min(r.parallel_pruned_secs)
                    .min(r.dc_secs)
                    .max(1e-12),
            r.identical,
            r.makespan,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_beats_basic_at_scale() {
        let rows = algo_runtimes(&[2000], 2000);
        let r = &rows[0];
        assert!(
            r.optimized < r.basic.unwrap(),
            "Algorithm 2 ({}) must beat Algorithm 1 ({})",
            r.optimized,
            r.basic.unwrap()
        );
    }

    #[test]
    fn basic_capped() {
        let rows = algo_runtimes(&[100, 500], 200);
        assert!(rows[0].basic.is_some());
        assert!(rows[1].basic.is_none());
    }

    #[test]
    fn extrapolation_is_quadratic() {
        let rows = vec![RuntimeRow {
            n: 1000,
            basic: Some(2.0),
            optimized: 0.1,
            heuristic: 0.01,
            closed_form: 0.001,
        }];
        assert_eq!(extrapolate_quadratic(&rows, 2000), Some(8.0));
        assert_eq!(extrapolate_quadratic(&[], 10), None);
    }

    #[test]
    fn perf_trajectory_is_exact_and_well_formed() {
        let rows = dp_perf_trajectory(&[(1500, 4), (1500, 8)], 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.identical, "n={} p={}: variants must be bit-identical", r.n, r.p);
            assert!(r.serial_secs > 0.0 && r.parallel_secs > 0.0);
            assert!(r.makespan > 0.0);
        }
        let json = dp_perf_json(&rows, 2);
        assert!(json.contains("\"bench\": \"dp_perf\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"n\": 1500, \"p\": 8"));
        // Machine-readable: must parse back with the obs JSON parser.
        let doc = gs_scatter::obs::json::parse(&json).unwrap();
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn heuristic_error_tiny_and_bounded() {
        let rows = heuristic_error(&[1000, 5000]);
        for r in rows {
            assert!(r.rel_error >= -1e-12, "cannot beat the optimum");
            // Eq. (4): the absolute gap is at most one item's comm on every
            // link plus one item's compute, so the relative error shrinks
            // like 1/n. At n = 1000 that is still ~1e-2 territory.
            assert!(r.rel_error < 1e-2, "n={}: rel error {}", r.n, r.rel_error);
            assert!(r.within_bound);
        }
    }

    #[test]
    fn error_shrinks_with_n() {
        let rows = heuristic_error(&[200, 20_000]);
        assert!(rows[1].rel_error <= rows[0].rel_error + 1e-9);
    }
}

//! The guaranteed LP heuristic of RR-4770 §3.3, for affine cost functions.
//!
//! The makespan minimization (Eq. 2) with affine costs is the linear
//! program (Eq. 3):
//!
//! ```text
//! minimize T   subject to
//!   n_i >= 0                                   for all i
//!   Σ_i n_i = n
//!   Σ_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i) <= T   for all i
//! ```
//!
//! solved here **exactly in rationals** (the paper used PIP). The rational
//! optimum `n_1..n_p` is rounded with the §3.3 scheme
//! ([`crate::rounding::round_shares`]), which moves every share by less
//! than one, giving the guarantee (Eq. 4):
//!
//! ```text
//! T_opt <= T' <= T_opt + Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)
//! ```
//!
//! where `T_opt` is the optimal *integer* makespan. In the paper's
//! experiment the observed relative error against the DP optimum was below
//! `6·10⁻⁶` with an essentially instantaneous runtime, versus 6 minutes for
//! Algorithm 2.
//!
//! ## The structured solver
//!
//! Under a fixed scatter order Eq. (3) is triangular, so its optimum costs
//! O(p) exact rational operations instead of a simplex. With `b_i + β_i·x`
//! the communication cost, `a_i + α_i·x` the computation cost and
//! `C_i = Σ_{k<=i} b_k + a_i` processor `i`'s constant term:
//!
//! 1. **Dual backward scan** (Theorem 2's pruning, generalized). With
//!    `λ = 1` and `Y_p = 0`, for `j = p−1 … 0` processor `j` participates
//!    iff `β_j·Y_{j+1} < λ`; a participant gets the dual weight
//!    `y_j = (λ − β_j·Y_{j+1})/(α_j+β_j)` and `Y_j = Y_{j+1} + y_j`.
//! 2. **Forward primal pass.** Every participant finishes at `T`:
//!    `n_i = (T − C_i − Σ_{k<i} β_k·n_k)/(α_i+β_i)`, an affine function
//!    `u_i·T + v_i` of `T`; then `Σ n_i = n` gives `T = (n − Σv)/Σu`.
//! 3. **Certificate.** Every participant's share is positive, every
//!    non-participant satisfies `C_i + Σ_{k<i} β_k·n_k <= T`, and no scan
//!    comparison was a tie. The scan's `y` is then a dual solution
//!    strictly complementary to the primal one, which proves the primal
//!    optimal *and unique*: the result is exactly the simplex's.
//! 4. **Fallback.** Otherwise (an intercept pushes a share to zero or
//!    below, or a tie makes the optimum degenerate) the dense two-phase
//!    simplex of `gs-lp` solves Eq. (3) as built by
//!    [`heuristic_distribution_simplex`]. Both paths are counted
//!    ([`crate::metrics::HeuristicLpCounters`]).
//!
//! On a linear platform step 1 is exactly the closed form's Theorem-2
//! pruning ([`crate::closed_form`]), and the certificate always holds
//! barring ties.

use std::cmp::Ordering;

use gs_lp::{LpProblem, Sense};
use gs_numeric::Rational;

use crate::cost::Processor;
use crate::distribution::makespan;
use crate::error::PlanError;
use crate::metrics::HeuristicLpCounters;
use crate::rounding::round_shares;

/// Result of the guaranteed heuristic.
#[derive(Debug, Clone)]
pub struct HeuristicSolution {
    /// Integer counts after rounding, in scatter order.
    pub counts: Vec<usize>,
    /// The exact rational optimal shares of the LP relaxation.
    pub rational_shares: Vec<Rational>,
    /// The exact rational optimal makespan `T` of the LP relaxation
    /// (a lower bound on the optimal integer makespan).
    pub rational_makespan: Rational,
    /// Eq. (2) makespan of `counts`.
    pub makespan: f64,
    /// The guarantee (Eq. 4): `makespan <= guarantee_bound`, and the
    /// optimal integer makespan lies in `[rational_makespan, makespan]`.
    pub guarantee_bound: f64,
}

/// Exact `(intercept, slope)` pair of one affine cost function.
type AffinePair = (Rational, Rational);

/// Extracts the exact affine parameters `(intercept, slope)` of both cost
/// functions of each processor.
fn affine_params(procs: &[&Processor]) -> Result<Vec<(AffinePair, AffinePair)>, PlanError> {
    if procs.is_empty() {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }
    procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let comm = p.comm.affine_params().ok_or(PlanError::NotAffine { proc: i })?;
            let comp = p.comp.affine_params().ok_or(PlanError::NotAffine { proc: i })?;
            for v in [comm.0, comm.1, comp.0, comp.1] {
                if !v.is_finite() || v < 0.0 {
                    return Err(PlanError::InvalidCost { proc: i, items: 1, value: v });
                }
            }
            let to_rat = |v: f64| Rational::from_f64(v).expect("finite checked above");
            Ok((
                (to_rat(comm.0), to_rat(comm.1)),
                (to_rat(comp.0), to_rat(comp.1)),
            ))
        })
        .collect()
}

/// Runs the guaranteed heuristic on processors in scatter order (root
/// last): exact rational LP solve, then the §3.3 rounding scheme.
///
/// The LP is solved by the structured O(p) solver of the module docs,
/// falling back to the dense simplex when its certificate fails.
///
/// ```
/// use gs_scatter::cost::Processor;
/// use gs_scatter::heuristic::heuristic_distribution;
///
/// let procs = vec![
///     Processor::linear("w", 1e-4, 0.004),
///     Processor::linear("root", 0.0, 0.009),
/// ];
/// let view: Vec<&Processor> = procs.iter().collect();
/// let h = heuristic_distribution(&view, 10_000).unwrap();
/// assert_eq!(h.counts.iter().sum::<usize>(), 10_000);
/// // Eq. (4): the rounded makespan never exceeds the guarantee bound.
/// assert!(h.makespan <= h.guarantee_bound);
/// ```
pub fn heuristic_distribution(
    procs: &[&Processor],
    n: usize,
) -> Result<HeuristicSolution, PlanError> {
    let params = affine_params(procs)?;
    let counters = HeuristicLpCounters::global();
    let (shares, t) = match structured_optimum(&params, n) {
        Some(opt) => {
            counters.structured.inc();
            opt
        }
        None => {
            counters.fallbacks.inc();
            simplex_optimum(&params, n)?
        }
    };
    Ok(finish(procs, n, shares, t))
}

/// [`heuristic_distribution`] with Eq. (3) always solved by the dense
/// two-phase simplex, bypassing the structured solver. Whenever the
/// structured solver certifies, both return identical results; this is
/// the oracle the property tests hold it to.
pub fn heuristic_distribution_simplex(
    procs: &[&Processor],
    n: usize,
) -> Result<HeuristicSolution, PlanError> {
    let params = affine_params(procs)?;
    let (shares, t) = simplex_optimum(&params, n)?;
    Ok(finish(procs, n, shares, t))
}

/// The exact optimum `(shares, T)` of Eq. (3) by the structured O(p)
/// solver of the module docs, or `None` when its certificate fails.
///
/// The recurrences are arranged so that each step multiplies or divides
/// one growing rational by one processor's small exact parameters, never
/// by another growing rational (only the affine intercept terms add two
/// growing values), so a step costs time linear in the operands' size.
fn structured_optimum(
    params: &[(AffinePair, AffinePair)],
    n: usize,
) -> Option<(Vec<Rational>, Rational)> {
    let p = params.len();
    let one = Rational::one();
    // C_i = Σ_{k<=i} b_k + a_i.
    let mut comm = Rational::zero();
    let consts: Vec<Rational> = params
        .iter()
        .map(|((b, _), (a, _))| {
            comm += b;
            &comm + a
        })
        .collect();
    if n == 0 {
        // Σ n_i = 0 forces every share to zero, which leaves T = max C_i.
        let t = consts.iter().max().expect("at least one processor").clone();
        return Some((vec![Rational::zero(); p], t));
    }
    // s_i = α_i + β_i.
    let slopes: Vec<Rational> = params.iter().map(|((_, beta), (_, alpha))| alpha + beta).collect();

    // 1. Dual backward scan with λ = 1. `y` holds Y_{j+1}; a participant
    // adds y_j = (1 − β_j·Y_{j+1})/s_j, i.e. Y_j = (1 + α_j·Y_{j+1})/s_j.
    let mut participates = vec![false; p];
    let mut y = Rational::zero();
    for j in (0..p).rev() {
        let ((_, beta), (_, alpha)) = &params[j];
        match (beta * &y).cmp(&one) {
            Ordering::Less => {}
            Ordering::Greater => continue,
            Ordering::Equal => return None,
        }
        if slopes[j].is_zero() {
            return None;
        }
        y = &(&one + &(alpha * &y)) / &slopes[j];
        participates[j] = true;
    }
    // The root always participates (Y_p = 0), so Y_0 > 0.
    let participants: Vec<usize> = (0..p).filter(|&i| participates[i]).collect();
    // ρ_i = α_i / s_i.
    let rho: Vec<Rational> = participants.iter().map(|&i| &params[i].1 .1 / &slopes[i]).collect();

    // 2. Forward primal pass. A participant ends at T:
    // n_i = (T − C_i − Σ_{k<i} β_k·n_k)/s_i = u_i·T + v_i, where across
    // consecutive participants u_i = R_i/s_i with R_next = R_i·ρ_i
    // (R = 1 first), so Σ u_i is exactly the scan's Y_0, and
    // v_i = −Q_i/s_i with Q_i = C_i + Σ_{k<i} β_k·v_k, i.e.
    // Q_next = C_next − C_i + Q_i·ρ_i.
    let mut v = Vec::with_capacity(participants.len());
    let mut sum_v = Rational::zero();
    let mut carried = Rational::zero(); // Q_i − C_i
    for (&i, rho_i) in participants.iter().zip(&rho) {
        let q = &consts[i] + &carried;
        let v_i = -&(&q / &slopes[i]);
        sum_v += &v_i;
        v.push(v_i);
        carried = &(&q * rho_i) - &consts[i];
    }
    let t = &(&Rational::from(n) - &sum_v) / &y;
    // n_i = R_i·T/s_i + v_i, carrying R_i·T.
    let mut shares = vec![Rational::zero(); p];
    let mut rt = t.clone();
    for ((&i, rho_i), v_i) in participants.iter().zip(&rho).zip(&v) {
        shares[i] = &(&rt / &slopes[i]) + v_i;
        rt = &rt * rho_i;
    }

    // 3. Certificate. Participants need positive shares. A
    // non-participant i needs C_i + Σ_{k<i} β_k·n_k <= T; with k the last
    // participant before i, whose constraint is tight,
    // Σ_{j<=k} β_j·n_j = T − C_k − α_k·n_k, so the test is
    // C_i − C_k <= α_k·n_k (or C_i <= T when no participant precedes i).
    let mut last: Option<usize> = None;
    for i in 0..p {
        if participates[i] {
            if !shares[i].is_positive() {
                return None;
            }
            last = Some(i);
            continue;
        }
        let fits = match last {
            Some(k) => &consts[i] - &consts[k] <= &params[k].1 .1 * &shares[k],
            None => consts[i] <= t,
        };
        if !fits {
            return None;
        }
    }
    debug_assert_eq!(
        shares.iter().fold(Rational::zero(), |a, s| a + s),
        Rational::from(n),
        "the forward pass distributes exactly n items"
    );
    Some((shares, t))
}

/// The exact optimum `(shares, T)` of Eq. (3) by the dense two-phase
/// simplex.
fn simplex_optimum(
    params: &[(AffinePair, AffinePair)],
    n: usize,
) -> Result<(Vec<Rational>, Rational), PlanError> {
    let p = params.len();
    let mut lp = LpProblem::new(Sense::Minimize);
    let t = lp.add_var("T");
    let vars: Vec<_> = (0..p).map(|i| lp.add_var(format!("n{i}"))).collect();
    lp.set_objective([(t, Rational::one())]);
    // Σ n_i = n.
    lp.add_eq(
        vars.iter().map(|&v| (v, Rational::one())),
        Rational::from(n),
    );
    // For each i: Σ_{j<=i} (b_j + β_j·n_j) + a_i + α_i·n_i <= T,
    // i.e.  Σ_{j<=i} β_j·n_j + α_i·n_i − T <= −(Σ_{j<=i} b_j + a_i).
    let mut comm_intercepts = Rational::zero();
    for i in 0..p {
        let ((ref b_i, _), (ref a_i, ref alpha_i)) = params[i];
        comm_intercepts += b_i;
        let mut terms: Vec<(gs_lp::VarId, Rational)> = Vec::with_capacity(i + 2);
        for j in 0..=i {
            let beta_j = params[j].0 .1.clone();
            let coef = if j == i { &beta_j + alpha_i } else { beta_j };
            terms.push((vars[j], coef));
        }
        terms.push((t, -Rational::one()));
        let rhs = -(&comm_intercepts + a_i);
        lp.add_le(terms, rhs);
    }

    let sol = lp.solve().map_err(|e| PlanError::LpFailed(e.to_string()))?;
    Ok((vars.iter().map(|&v| sol[v].clone()).collect(), sol.objective.clone()))
}

/// Rounds the rational optimum and evaluates the result and its Eq. (4)
/// bound.
fn finish(
    procs: &[&Processor],
    n: usize,
    rational_shares: Vec<Rational>,
    rational_makespan: Rational,
) -> HeuristicSolution {
    let counts = round_shares(&rational_shares, n);
    let actual = makespan(procs, &counts);

    // Eq. (4) bound: T_rat + Σ_j Tcomm(j,1) + max_i Tcomp(i,1).
    let comm_sum: f64 = procs.iter().map(|p| p.comm.eval(1)).sum();
    let comp_max: f64 = procs
        .iter()
        .map(|p| p.comp.eval(1))
        .fold(0.0f64, f64::max);
    let guarantee_bound = rational_makespan.to_f64() + comm_sum + comp_max;

    HeuristicSolution {
        counts,
        rational_shares,
        rational_makespan,
        makespan: actual,
        guarantee_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::closed_form_distribution;
    use crate::cost::Processor;
    use crate::dp_optimized::optimal_distribution;

    fn view(ps: &[Processor]) -> Vec<&Processor> {
        ps.iter().collect()
    }

    #[test]
    fn matches_closed_form_on_linear_costs() {
        // For linear costs the LP optimum must equal the Theorem-1 closed
        // form (same rational program).
        let ps = vec![
            Processor::linear("a", 0.2, 2.0),
            Processor::linear("b", 0.5, 1.0),
            Processor::linear("root", 0.0, 1.5),
        ];
        let v = view(&ps);
        let n = 777;
        let h = heuristic_distribution(&v, n).unwrap();
        let cf = closed_form_distribution(&v, n).unwrap();
        assert_eq!(h.rational_makespan, cf.duration);
        for (hs, cs) in h.rational_shares.iter().zip(&cf.shares) {
            assert_eq!(hs, cs);
        }
    }

    #[test]
    fn guarantee_bound_holds_vs_dp() {
        let ps = vec![
            Processor::linear("a", 0.3, 1.2),
            Processor::linear("b", 0.6, 0.8),
            Processor::linear("c", 0.1, 2.5),
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        for n in [1usize, 13, 100, 509] {
            let h = heuristic_distribution(&v, n).unwrap();
            let exact = optimal_distribution(&v, n).unwrap();
            // Sandwich: T_rat <= T_opt <= T' <= bound.
            assert!(h.rational_makespan.to_f64() <= exact.makespan + 1e-9, "n={n}");
            assert!(exact.makespan <= h.makespan + 1e-9, "n={n}");
            assert!(h.makespan <= h.guarantee_bound + 1e-9, "n={n}");
        }
    }

    #[test]
    fn affine_costs_supported() {
        let ps = vec![
            Processor::affine("a", 0.5, 0.01, 1.0, 0.2),
            Processor::affine("b", 0.2, 0.05, 0.3, 0.1),
            Processor::affine("root", 0.0, 0.0, 0.0, 0.15),
        ];
        let v = view(&ps);
        let n = 500;
        let h = heuristic_distribution(&v, n).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), n);
        assert!(h.makespan <= h.guarantee_bound + 1e-9);
        // Against the exact DP (affine costs are increasing):
        let exact = optimal_distribution(&v, n).unwrap();
        assert!(exact.makespan <= h.makespan + 1e-9);
        assert!(h.makespan <= h.guarantee_bound + 1e-9);
        // Intercepts dominate small n (shares of zero or below: the
        // simplex answers); at n = 500 every processor takes a positive
        // share and the structured solver certifies. Either way the
        // result is the simplex's.
        let params = affine_params(&v).unwrap();
        assert!(structured_optimum(&params, 1).is_none());
        assert!(structured_optimum(&params, n).is_some());
        for n in [0usize, 1, 7, n] {
            assert_same(
                &heuristic_distribution(&v, n).unwrap(),
                &heuristic_distribution_simplex(&v, n).unwrap(),
            );
        }
    }

    #[test]
    fn heuristic_error_is_tiny_at_scale() {
        // The §5.2 observation: relative error below 6e-6 at n = 817,101.
        // At n = 20,000 on a Table-1-like platform it is already minuscule.
        let ps = vec![
            Processor::linear("caseb", 1.00e-5, 0.004629),
            Processor::linear("pellinore", 1.12e-5, 0.009365),
            Processor::linear("sekhmet", 1.70e-5, 0.004885),
            Processor::linear("dinadan", 0.0, 0.009288),
        ];
        let v = view(&ps);
        let n = 20_000;
        let h = heuristic_distribution(&v, n).unwrap();
        let exact = optimal_distribution(&v, n).unwrap();
        let rel = (h.makespan - exact.makespan) / exact.makespan;
        assert!(rel >= -1e-12, "heuristic cannot beat the optimum");
        assert!(rel < 1e-4, "relative error {rel} too large");
    }

    #[test]
    fn rejects_non_affine() {
        let ps = vec![
            Processor::custom("weird", |x| (x as f64).sqrt(), |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        assert!(matches!(
            heuristic_distribution(&view(&ps), 10),
            Err(PlanError::NotAffine { proc: 0 })
        ));
    }

    #[test]
    fn zero_items() {
        let ps = vec![
            Processor::linear("a", 0.1, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let h = heuristic_distribution(&view(&ps), 0).unwrap();
        assert_eq!(h.counts, vec![0, 0]);
        assert_eq!(h.makespan, 0.0);
    }

    /// Global counters move under concurrent tests: compare deltas.
    fn fallbacks() -> u64 {
        HeuristicLpCounters::global().fallbacks.get()
    }

    fn assert_same(a: &HeuristicSolution, b: &HeuristicSolution) {
        assert_eq!(a.rational_shares, b.rational_shares);
        assert_eq!(a.rational_makespan, b.rational_makespan);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    }

    #[test]
    fn theorem_2_tie_falls_back_to_the_simplex() {
        // β_1·Y_2 = 1·1 = λ: P1's participation is a tie, the optimum is
        // degenerate, and the certificate must refuse it.
        let ps = vec![Processor::linear("p1", 1.0, 1.0), Processor::linear("root", 0.0, 1.0)];
        let v = view(&ps);
        let params = affine_params(&v).unwrap();
        assert!(structured_optimum(&params, 8).is_none());
        let before = fallbacks();
        let h = heuristic_distribution(&v, 8).unwrap();
        assert!(fallbacks() > before, "the fallback must be counted");
        assert_same(&h, &heuristic_distribution_simplex(&v, 8).unwrap());
        assert_eq!(h.rational_makespan, Rational::from(8));
    }

    #[test]
    fn negative_share_falls_back_to_the_simplex() {
        // P0's computation intercept exceeds the whole makespan its share
        // would need: the scan keeps it, the forward pass gives it a
        // negative share, and the simplex must drop it instead.
        let ps = vec![
            Processor::affine("slow-start", 0.0, 0.1, 100.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        let params = affine_params(&v).unwrap();
        assert!(structured_optimum(&params, 10).is_none());
        let before = fallbacks();
        let h = heuristic_distribution(&v, 10).unwrap();
        assert!(fallbacks() > before, "the fallback must be counted");
        assert_same(&h, &heuristic_distribution_simplex(&v, 10).unwrap());
        assert_eq!(h.counts, vec![0, 10]);
    }

    #[test]
    fn table_1_certifies_without_the_simplex() {
        // The paper's testbed in scatter order around the paper's n (the
        // daemon's cold misses use n within ±1000 of it): the structured
        // solver answers (no fallback), with exactly the closed form's
        // rational optimum.
        use crate::ordering::{scatter_order, OrderPolicy};
        use crate::paper::{table1_platform, N_RAYS_1999};
        let platform = table1_platform();
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let v = platform.ordered(&order);
        let params = affine_params(&v).unwrap();
        for n in [N_RAYS_1999 - 1000, N_RAYS_1999, N_RAYS_1999 + 1000] {
            let (shares, t) = structured_optimum(&params, n).expect("certifies");
            let cf = closed_form_distribution(&v, n).unwrap();
            assert_eq!(t, cf.duration, "n={n}");
            assert_eq!(shares, cf.shares, "n={n}");
            assert_eq!(round_shares(&shares, n), cf.counts, "n={n}");
        }
    }

    #[test]
    fn single_processor() {
        let ps = vec![Processor::linear("root", 0.0, 2.0)];
        let h = heuristic_distribution(&view(&ps), 21).unwrap();
        assert_eq!(h.counts, vec![21]);
        assert_eq!(h.rational_makespan, Rational::from_f64(2.0).unwrap() * Rational::from(21u64));
    }
}

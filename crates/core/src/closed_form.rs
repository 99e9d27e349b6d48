//! The closed-form rational solution for linear cost functions
//! (RR-4770 §4, Theorems 1 and 2), computed in exact rational arithmetic.
//!
//! With `Tcomm(i, x) = β_i·x` and `Tcomp(i, x) = α_i·x`, Theorem 2 shows an
//! optimal rational solution exists in which every *participating*
//! processor ends at the same date `t`, and `P_i` participates iff
//! `β_i <= D(P_{i+1}..P_p)`, where (Theorem 1)
//!
//! ```text
//! D(P_1..P_p) = 1 / Σ_i [ 1/(α_i+β_i) · Π_{j<i} α_j/(α_j+β_j) ]
//! t           = n · D(participants)
//! n_i         = t · 1/(α_i+β_i) · Π_{j<i} α_j/(α_j+β_j)      (Eq. 8)
//! ```
//!
//! `1/D` obeys the suffix recurrence
//! `1/D(P_i..) = 1/(α_i+β_i) + α_i/(α_i+β_i) · 1/D(P_{i+1}..)`,
//! which is what the implementation folds from the last processor (the
//! root) backwards, skipping processors whose `β` exceeds the `D` of the
//! participating suffix (Theorem 2's pruning).

use gs_numeric::Rational;

use crate::cost::Processor;
use crate::error::PlanError;
use crate::rounding::round_shares;

/// Exact per-processor `(β, α)` = (comm, comp) slopes of a linear platform,
/// in scatter order.
#[derive(Debug, Clone)]
pub struct LinearSlopes {
    /// Communication slope `β_i` (seconds per item root → `P_i`).
    pub beta: Vec<Rational>,
    /// Computation slope `α_i` (seconds per item on `P_i`).
    pub alpha: Vec<Rational>,
}

impl LinearSlopes {
    /// Extracts exact slopes from processors with linear cost functions.
    pub fn from_procs(procs: &[&Processor]) -> Result<Self, PlanError> {
        let mut beta = Vec::with_capacity(procs.len());
        let mut alpha = Vec::with_capacity(procs.len());
        for (i, p) in procs.iter().enumerate() {
            let b = p.comm.linear_slope().ok_or(PlanError::NotLinear { proc: i })?;
            let a = p.comp.linear_slope().ok_or(PlanError::NotLinear { proc: i })?;
            if b < 0.0 || a < 0.0 || !b.is_finite() || !a.is_finite() {
                return Err(PlanError::InvalidCost { proc: i, items: 1, value: a.min(b) });
            }
            beta.push(Rational::from_f64(b).expect("finite"));
            alpha.push(Rational::from_f64(a).expect("finite"));
        }
        Ok(LinearSlopes { beta, alpha })
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.beta.len()
    }

    /// `true` iff there are no processors.
    pub fn is_empty(&self) -> bool {
        self.beta.is_empty()
    }
}

/// `D(P_1..P_p)` of Theorem 1 over **all** given processors (no pruning):
/// the per-item duration of the simultaneous-ending schedule.
///
/// # Panics
/// Panics if some `α_i + β_i` is zero (degenerate processor).
pub fn d_value(slopes: &LinearSlopes) -> Rational {
    let mut inv_d = Rational::zero();
    for i in (0..slopes.len()).rev() {
        let ab = &slopes.alpha[i] + &slopes.beta[i];
        assert!(ab.is_positive(), "processor {i} has alpha + beta = 0");
        let inv_ab = ab.recip();
        inv_d = &inv_ab + &(&(&slopes.alpha[i] * &inv_ab) * &inv_d);
    }
    inv_d.recip()
}

/// Theorem 2's condition: does every processor receive a non-empty share in
/// the optimal simultaneous-ending solution, i.e. is
/// `β_i <= D(P_{i+1}..P_p)` for all `i < p`?
pub fn simultaneous_endings_hold(slopes: &LinearSlopes) -> bool {
    let p = slopes.len();
    let mut inv_d = Rational::zero(); // 1/D of the (full) suffix after i
    for i in (0..p).rev() {
        if i < p - 1 {
            // inv_d currently describes P_{i+1}..P_p.
            let cond = &slopes.beta[i] * &inv_d <= Rational::one();
            if !cond {
                return false;
            }
        }
        let ab = &slopes.alpha[i] + &slopes.beta[i];
        assert!(ab.is_positive(), "processor {i} has alpha + beta = 0");
        let inv_ab = ab.recip();
        inv_d = &inv_ab + &(&(&slopes.alpha[i] * &inv_ab) * &inv_d);
    }
    true
}

/// Rational solution for a linear platform.
#[derive(Debug, Clone)]
pub struct ClosedFormSolution {
    /// Exact rational shares, in scatter order (`0` for pruned processors).
    pub shares: Vec<Rational>,
    /// Which processors participate (Theorem 2 pruning).
    pub participants: Vec<bool>,
    /// The exact common finish date `t = n·D` of the participants.
    pub duration: Rational,
    /// Integer counts after the §3.3 rounding scheme, in scatter order.
    pub counts: Vec<usize>,
}

/// Solves the scatter problem in rationals for linear costs, prunes
/// non-profitable processors (Theorem 2), and rounds to integers (§3.3).
///
/// `procs` must be in scatter order (root last) with linear cost functions.
pub fn closed_form_distribution(
    procs: &[&Processor],
    n: usize,
) -> Result<ClosedFormSolution, PlanError> {
    let slopes = LinearSlopes::from_procs(procs)?;
    closed_form_from_slopes(&slopes, n)
}

/// [`closed_form_distribution`] on pre-extracted exact slopes.
pub fn closed_form_from_slopes(
    slopes: &LinearSlopes,
    n: usize,
) -> Result<ClosedFormSolution, PlanError> {
    let p = slopes.len();
    if p == 0 {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }

    // Degenerate free processor: everything goes to the first α+β = 0
    // processor reachable at zero cumulative cost (all earlier shares are 0
    // so their comm contributes nothing), for a makespan of exactly 0.
    if let Some(i) = (0..p).find(|&i| (&slopes.alpha[i] + &slopes.beta[i]).is_zero()) {
        let mut shares = vec![Rational::zero(); p];
        shares[i] = Rational::from(n);
        let mut participants = vec![false; p];
        participants[i] = true;
        let mut counts = vec![0usize; p];
        counts[i] = n;
        return Ok(ClosedFormSolution {
            shares,
            participants,
            duration: Rational::zero(),
            counts,
        });
    }

    // Backward sweep with Theorem 2 pruning over the *participating* suffix.
    let mut participants = vec![true; p];
    let mut inv_d = Rational::zero();
    for i in (0..p).rev() {
        let is_last = inv_d.is_zero();
        if !is_last {
            // β_i > D(participating suffix)  <=>  β_i · (1/D) > 1.
            if &slopes.beta[i] * &inv_d > Rational::one() {
                participants[i] = false;
                continue;
            }
        }
        let inv_ab = (&slopes.alpha[i] + &slopes.beta[i]).recip();
        inv_d = &inv_ab + &(&(&slopes.alpha[i] * &inv_ab) * &inv_d);
    }

    // Theorem 1: t = n·D, n_i = t/(α_i+β_i) · Π_{j<i} α_j/(α_j+β_j) over
    // participants. Carrying the product t·Π (instead of t and Π apart)
    // multiplies one large rational by one processor's small slopes per
    // step, never two large rationals.
    let t = &Rational::from(n) / &inv_d; // n · D
    let mut shares = vec![Rational::zero(); p];
    let mut scaled_prefix = t.clone();
    for i in 0..p {
        if !participants[i] {
            continue;
        }
        let inv_ab = (&slopes.alpha[i] + &slopes.beta[i]).recip();
        shares[i] = &scaled_prefix * &inv_ab;
        scaled_prefix = &scaled_prefix * &(&slopes.alpha[i] * &inv_ab);
    }
    debug_assert_eq!(
        shares.iter().fold(Rational::zero(), |a, s| a + s),
        Rational::from(n),
        "Theorem 1 shares must sum to n exactly"
    );

    let counts = round_shares(&shares, n);
    Ok(ClosedFormSolution { shares, participants, duration: t, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;
    use crate::distribution::makespan;

    fn lin(name: &str, beta: f64, alpha: f64) -> Processor {
        Processor::linear(name, beta, alpha)
    }

    fn view(ps: &[Processor]) -> Vec<&Processor> {
        ps.iter().collect()
    }

    #[test]
    fn two_identical_procs_free_comm() {
        // β = 0, α = 1 each: D = 1/(1 + 1) = 1/2, equal halves.
        let ps = vec![lin("a", 0.0, 1.0), lin("root", 0.0, 1.0)];
        let sol = closed_form_distribution(&view(&ps), 10).unwrap();
        assert_eq!(sol.shares[0], Rational::from(5));
        assert_eq!(sol.shares[1], Rational::from(5));
        assert_eq!(sol.duration, Rational::from(5));
        assert_eq!(sol.counts, vec![5, 5]);
    }

    #[test]
    fn hand_checked_three_procs() {
        // P1: β=1, α=1; P2 (root): β=0, α=1.
        // 1/D = 1/2 + (1/2)·(1/1) = 1  =>  D = 1, t = n.
        // n1 = t/2, n2 = t/2·(1/2)·... recompute: n1 = t·1/(α1+β1) = t/2.
        // prefix = α1/(α1+β1) = 1/2; n2 = t·1/(1+0)·1/2 = t/2. Sum = t = n. OK.
        let ps = vec![lin("p1", 1.0, 1.0), lin("root", 0.0, 1.0)];
        let sol = closed_form_distribution(&view(&ps), 8).unwrap();
        assert_eq!(sol.duration, Rational::from(8));
        assert_eq!(sol.shares[0], Rational::from(4));
        assert_eq!(sol.shares[1], Rational::from(4));
        // Check simultaneous endings with Eq. (1):
        let v = view(&ps);
        let ft = crate::distribution::finish_times(&v, &sol.counts);
        assert!((ft[0] - ft[1]).abs() < 1e-9);
        assert!((ft[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn shares_end_simultaneously_by_construction() {
        let ps = vec![
            lin("a", 0.2, 2.0),
            lin("b", 0.5, 1.0),
            lin("c", 0.1, 3.0),
            lin("root", 0.0, 1.5),
        ];
        let v = view(&ps);
        let n = 1000;
        let sol = closed_form_distribution(&v, n).unwrap();
        assert!(sol.participants.iter().all(|&x| x));
        // Evaluate Eq. (1) with exact shares: every T_i equals t.
        let slopes = LinearSlopes::from_procs(&v).unwrap();
        let mut comm_acc = Rational::zero();
        for i in 0..v.len() {
            comm_acc += &(&slopes.beta[i] * &sol.shares[i]);
            let ti = &comm_acc + &(&slopes.alpha[i] * &sol.shares[i]);
            assert_eq!(ti, sol.duration, "processor {i} ends at t");
        }
    }

    #[test]
    fn pruning_drops_prohibitive_link() {
        // P1's β is enormous: sending it anything delays everyone beyond
        // what the suffix alone needs (Theorem 2: β1 > D(P2..)).
        let ps = vec![lin("hopeless", 100.0, 0.001), lin("root", 0.0, 1.0)];
        let sol = closed_form_distribution(&view(&ps), 10).unwrap();
        assert!(!sol.participants[0]);
        assert_eq!(sol.shares[0], Rational::zero());
        assert_eq!(sol.counts, vec![0, 10]);
        assert_eq!(sol.duration, Rational::from(10));
    }

    #[test]
    fn d_value_two_procs() {
        // α = [1, 1], β = [1, 0]: 1/D = 1/2 + 1/2 · 1 = 1.
        let slopes = LinearSlopes {
            beta: vec![Rational::one(), Rational::zero()],
            alpha: vec![Rational::one(), Rational::one()],
        };
        assert_eq!(d_value(&slopes), Rational::one());
    }

    #[test]
    fn simultaneous_endings_condition() {
        // Fine platform: betas small.
        let ok = LinearSlopes {
            beta: vec![Rational::from_ratio(1, 10), Rational::zero()],
            alpha: vec![Rational::one(), Rational::one()],
        };
        assert!(simultaneous_endings_hold(&ok));
        // β1 = 100 > D(P2) = 1: P1 should not participate.
        let bad = LinearSlopes {
            beta: vec![Rational::from(100), Rational::zero()],
            alpha: vec![Rational::from_ratio(1, 1000), Rational::one()],
        };
        assert!(!simultaneous_endings_hold(&bad));
    }

    #[test]
    fn degenerate_free_processor() {
        let ps = vec![lin("free", 0.0, 0.0), lin("root", 0.0, 1.0)];
        let sol = closed_form_distribution(&view(&ps), 42).unwrap();
        assert_eq!(sol.counts, vec![42, 0]);
        assert_eq!(sol.duration, Rational::zero());
    }

    #[test]
    fn rounded_counts_are_near_optimal() {
        // The rounded integer solution's makespan is close to t (within the
        // §4.4 bound: + Σ Tcomm(j,1) + max Tcomp(i,1)).
        let ps = vec![
            lin("a", 0.01, 0.7),
            lin("b", 0.02, 0.3),
            lin("root", 0.0, 0.5),
        ];
        let v = view(&ps);
        let n = 997;
        let sol = closed_form_distribution(&v, n).unwrap();
        let t = sol.duration.to_f64();
        let actual = makespan(&v, &sol.counts);
        let bound: f64 = t + 0.01 + 0.02 + 0.7;
        assert!(actual <= bound + 1e-9, "{actual} <= {bound}");
        assert!(actual >= t - 1e-9, "integer can't beat rational optimum");
    }

    #[test]
    fn rejects_non_linear() {
        let ps = vec![
            Processor::affine("aff", 1.0, 0.1, 0.0, 1.0),
            lin("root", 0.0, 1.0),
        ];
        assert!(matches!(
            closed_form_distribution(&view(&ps), 5),
            Err(PlanError::NotLinear { proc: 0 })
        ));
    }

    #[test]
    fn faster_cpu_gets_more_work() {
        let ps = vec![
            lin("fast", 0.001, 0.1),
            lin("slow", 0.001, 0.4),
            lin("root", 0.0, 0.2),
        ];
        let sol = closed_form_distribution(&view(&ps), 10_000).unwrap();
        assert!(sol.counts[0] > sol.counts[1]);
    }
}

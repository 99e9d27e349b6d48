//! The rounding scheme of RR-4770 §3.3.
//!
//! Given a rational distribution `n_1..n_p` with `Σ n_i = n` (an integer),
//! produce an integer distribution `n'_1..n'_p` with `Σ n'_i = n` and
//! `|n'_i − n_i| < 1` for every `i`. That last property is exactly what the
//! guarantee proof (Eq. 4 and §4.4) needs.
//!
//! Scheme, as in the paper: repeatedly round the not-yet-fixed share that is
//! nearest to an integer *in the direction that cancels the accumulated
//! error* — to the nearest integer while the error is zero, to the floor
//! while the error is positive (we have over-allocated), to the ceiling
//! while it is negative. The final share absorbs the residual error, which
//! the loop keeps in `(-1, 1)`, so it also moves by less than one.

use gs_numeric::{BigInt, BigUint, Rational};

/// Rounds rational shares (summing exactly to `n`) to integer counts.
///
/// ```
/// use gs_numeric::Rational;
/// use gs_scatter::rounding::round_shares;
///
/// let shares = vec![Rational::from_ratio(10, 3); 3]; // 3 × 10/3 = 10
/// let counts = round_shares(&shares, 10);
/// assert_eq!(counts.iter().sum::<usize>(), 10);
/// assert!(counts.iter().all(|&c| c == 3 || c == 4));
/// ```
///
/// # Panics
/// Panics if a share is negative or the shares do not sum to `n` — both
/// indicate a bug in the caller (the LP and the closed form always hand
/// over exact-sum, non-negative shares).
pub fn round_shares(shares: &[Rational], n: usize) -> Vec<usize> {
    assert!(!shares.is_empty(), "at least one share");
    assert!(shares.iter().all(|s| !s.is_negative()), "shares must be non-negative");
    // Integers over the common denominator `den`: share i is
    // `scaled[i] / den`. The LP and the closed form hand over shares with
    // one denominator, so this costs no big gcd per share, and every
    // distance below compares as a plain integer.
    let den = shares.iter().fold(BigUint::one(), |l, s| lcm(&l, s.denom()));
    let scaled: Vec<BigUint> =
        shares.iter().map(|s| s.numer().magnitude() * &(&den / s.denom())).collect();
    let total = scaled.iter().fold(BigUint::zero(), |mut acc, x| {
        acc += x;
        acc
    });
    assert_eq!(total, &BigUint::from(n) * &den, "shares must sum exactly to n");

    // Each share's floor and its distances (times `den`) down to the
    // floor and up to the ceiling, computed once.
    let (floors, down): (Vec<BigUint>, Vec<BigUint>) =
        scaled.iter().map(|x| x.divrem(&den)).unzip();
    let up: Vec<BigUint> =
        down.iter().map(|r| if r.is_zero() { BigUint::zero() } else { &den - r }).collect();
    // `Rational::round` rounds halves up: the nearest target is the
    // ceiling exactly when the fractional part is at least one half.
    let round_up: Vec<bool> = down.iter().zip(&up).map(|(d, u)| d >= u).collect();
    let p = shares.len();
    let mut rounded_up = vec![false; p];
    let mut remaining: Vec<usize> = (0..p).collect();
    // Accumulated rounding error Σ (n'_i − n_i) over the fixed shares,
    // times `den`.
    let mut err = BigInt::zero();

    while remaining.len() > 1 {
        // Pick the remaining share nearest to its rounding target: the
        // first minimum in `remaining` order.
        let goes_up = |i: usize| {
            if err.is_positive() {
                false
            } else if err.is_negative() {
                true
            } else {
                round_up[i]
            }
        };
        let pos = (0..remaining.len())
            .min_by_key(|&pos| {
                let i = remaining[pos];
                if goes_up(i) {
                    &up[i]
                } else {
                    &down[i]
                }
            })
            .expect("remaining is non-empty");
        let i = remaining.swap_remove(pos);
        if goes_up(i) && !down[i].is_zero() {
            rounded_up[i] = true;
            err += &BigInt::from(up[i].clone());
        } else {
            err -= &BigInt::from(down[i].clone());
        }
        debug_assert!(err.magnitude() < &den, "error stays in (-1, 1)");
    }

    // The last share absorbs the residual error exactly.
    let k = remaining[0];
    let last = &BigInt::from(scaled[k].clone()) - &err;
    assert!(!last.is_negative(), "rounded share must be non-negative");
    let (last, rem) = last.magnitude().divrem(&den);
    debug_assert!(rem.is_zero(), "residual must be integral");

    (0..p)
        .map(|i| {
            let count = if i == k {
                last.clone()
            } else if rounded_up[i] {
                &floors[i] + &BigUint::one()
            } else {
                floors[i].clone()
            };
            count.to_u64().expect("share fits u64") as usize
        })
        .collect()
}

/// Least common multiple of two positive integers.
fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    &(a / &a.gcd(b)) * b
}

/// The original formulation of [`round_shares`], which recomputes every
/// remaining share's target and distance in rationals on each pass
/// (O(p²) big-rational operations); kept as the oracle for the integer
/// version.
#[cfg(test)]
fn round_shares_reference(shares: &[Rational], n: usize) -> Vec<usize> {
    assert!(!shares.is_empty(), "at least one share");
    let sum = shares.iter().fold(Rational::zero(), |acc, s| acc + s);
    assert_eq!(sum, Rational::from(n), "shares must sum exactly to n");
    assert!(shares.iter().all(|s| !s.is_negative()), "shares must be non-negative");

    let p = shares.len();
    let mut out: Vec<Option<BigInt>> = vec![None; p];
    let mut remaining: Vec<usize> = (0..p).collect();
    // Accumulated rounding error Σ (n'_i − n_i) over the fixed shares.
    let mut err = Rational::zero();

    while remaining.len() > 1 {
        // Pick the remaining share nearest to its rounding target.
        let (pos, rounded) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let x = &shares[i];
                let target: BigInt = if err.is_positive() {
                    x.floor()
                } else if err.is_negative() {
                    x.ceil()
                } else {
                    x.round()
                };
                let dist = (x - &Rational::from(target.clone())).abs();
                (pos, target, dist)
            })
            .min_by(|a, b| a.2.cmp(&b.2))
            .map(|(pos, target, _)| (pos, target))
            .expect("remaining is non-empty");
        let i = remaining.swap_remove(pos);
        err += &(&Rational::from(rounded.clone()) - &shares[i]);
        out[i] = Some(rounded);
    }

    // Last share absorbs the residual error exactly.
    let k = remaining[0];
    out[k] = Some((&shares[k] - &err).floor());

    out.into_iter()
        .map(|v| {
            let v = v.expect("all shares fixed");
            assert!(!v.is_negative(), "rounded share must be non-negative");
            v.to_i64().expect("share fits i64") as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn check(shares: &[Rational], n: usize) -> Vec<usize> {
        let counts = round_shares(shares, n);
        assert_eq!(counts.iter().sum::<usize>(), n, "sum preserved");
        for (c, s) in counts.iter().zip(shares) {
            let diff = (&Rational::from(*c) - s).abs();
            assert!(diff < Rational::one(), "|n'_i - n_i| < 1: {c} vs {s}");
        }
        counts
    }

    #[test]
    fn already_integral() {
        assert_eq!(check(&[r(3, 1), r(4, 1), r(5, 1)], 12), vec![3, 4, 5]);
    }

    #[test]
    fn single_share() {
        assert_eq!(check(&[r(7, 1)], 7), vec![7]);
    }

    #[test]
    fn simple_halves() {
        // 3/2 + 3/2 = 3: one rounds up, the other down.
        let counts = check(&[r(3, 2), r(3, 2)], 3);
        let mut sorted = counts.clone();
        sorted.sort();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn thirds() {
        let counts = check(&[r(10, 3), r(10, 3), r(10, 3)], 10);
        let mut sorted = counts;
        sorted.sort();
        assert_eq!(sorted, vec![3, 3, 4]);
    }

    #[test]
    fn nearest_is_rounded_first() {
        // 2.9 is nearest to an integer; it is rounded (to 3) first, then the
        // error forces the others down/up appropriately.
        let shares = vec![r(29, 10), r(5, 2), r(23, 5)]; // 2.9 + 2.5 + 4.6 = 10
        let counts = check(&shares, 10);
        assert_eq!(counts[0], 3);
    }

    #[test]
    fn tiny_shares_never_go_negative() {
        // 0.2 + 0.3 + 0.5 = 1
        let counts = check(&[r(1, 5), r(3, 10), r(1, 2)], 1);
        assert!(counts.iter().all(|&c| c <= 1));
    }

    #[test]
    fn zeros_stay_zero() {
        let counts = check(&[r(0, 1), r(7, 2), r(7, 2)], 7);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn many_random_like_fractions() {
        // Shares n_i = n * w_i / W with awkward denominators.
        let w = [17i64, 23, 5, 41, 13, 1];
        let wsum: i64 = w.iter().sum();
        for n in [1usize, 10, 99, 1000] {
            let shares: Vec<Rational> = w
                .iter()
                .map(|&wi| &Rational::from(n) * &r(wi, wsum))
                .collect();
            check(&shares, n);
        }
    }

    #[test]
    fn matches_reference_on_ties() {
        // Repeated thirds and halves: every selection is a tie that the
        // first-minimum-in-`remaining`-order rule must break identically.
        let cases: Vec<(Vec<Rational>, usize)> = vec![
            (vec![r(10, 3); 3], 10),
            (vec![r(1, 3); 6], 2),
            (vec![r(3, 2), r(1, 2), r(3, 2), r(1, 2), r(2, 1)], 6),
            (vec![r(2, 3), r(1, 3), r(2, 3), r(1, 3), r(4, 3), r(2, 3)], 4),
            (vec![r(0, 1), r(5, 2), r(0, 1), r(5, 2)], 5),
        ];
        for (shares, n) in cases {
            assert_eq!(round_shares(&shares, n), round_shares_reference(&shares, n), "{shares:?}");
        }
    }

    use proptest::prelude::*;

    /// Shares summing to an integer: random fractions over small
    /// denominators (tie-heavy) or wide ones, optionally all equal, plus
    /// one closing share that makes the sum integral.
    fn shares_strategy() -> impl Strategy<Value = (Vec<Rational>, usize)> {
        let dens = [1i64, 2, 3, 4, 6, 7, 1 << 20, 999_983];
        let share = (0i64..40, 0usize..dens.len()).prop_map(move |(k, d)| (k, dens[d]));
        (proptest::collection::vec(share, 0..12), 0i64..3, any::<bool>()).prop_map(
            |(raw, extra, repeat)| {
                let mut shares: Vec<Rational> = raw.iter().map(|&(k, d)| r(k, d)).collect();
                if repeat && !shares.is_empty() {
                    let first = shares[0].clone();
                    shares.iter_mut().for_each(|s| *s = first.clone());
                }
                let sum = shares.iter().fold(Rational::zero(), |a, s| a + s);
                let n = Rational::from(sum.ceil()) + Rational::from(extra);
                shares.push(&n - &sum);
                (shares, n.floor().to_i64().unwrap() as usize)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The integer selection loop returns exactly the reference's counts.
        #[test]
        fn matches_reference((shares, n) in shares_strategy()) {
            prop_assert_eq!(round_shares(&shares, n), round_shares_reference(&shares, n));
        }
    }

    #[test]
    #[should_panic(expected = "sum exactly")]
    fn rejects_bad_sum() {
        let _ = round_shares(&[r(1, 2), r(1, 2)], 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_share() {
        let _ = round_shares(&[r(-1, 2), r(5, 2)], 2);
    }
}

//! Arbitrary-precision unsigned integers.
//!
//! Representation: little-endian `u32` limbs with no trailing zero limb;
//! the empty limb vector is zero. `u32` limbs keep every intermediate of
//! schoolbook multiplication and Knuth division inside `u64`/`u128`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

const LIMB_BITS: u32 = 32;
const LIMB_MASK: u64 = 0xffff_ffff;
/// Largest power of ten fitting in a limb, used for decimal conversion.
const DEC_CHUNK: u32 = 1_000_000_000;
const DEC_CHUNK_DIGITS: usize = 9;

/// An arbitrary-precision unsigned integer.
///
/// Cheap to clone for small values (one `Vec`), with value semantics.
/// Arithmetic panics on underflow (`a - b` with `a < b`) and division by
/// zero, mirroring the behaviour of the primitive unsigned types; use
/// [`BigUint::checked_sub`] when underflow is expected.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs, normalized (no trailing zeros).
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from raw little-endian limbs (normalizes trailing zeros).
    pub fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut v = BigUint { limbs };
        v.trim();
        v
    }

    /// Read-only view of the little-endian limbs.
    pub fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l % 2 == 0)
    }

    /// Number of significant bits (`0` for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * LIMB_BITS as u64
                    + (LIMB_BITS - top.leading_zeros()) as u64
            }
        }
    }

    /// Converts to `u64`, or `None` if the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | (self.limbs[1] as u64) << 32),
            _ => None,
        }
    }

    /// Converts to `u128`, or `None` if the value does not fit.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i);
        }
        Some(v)
    }

    /// Nearest `f64` approximation, `+inf` on overflow.
    ///
    /// The top 53 bits are extracted and scaled by the appropriate power of
    /// two, so the result is correctly rounded to within 1 ulp.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits <= 64 {
            return self.to_u64().expect("fits by bit count") as f64;
        }
        // Take the top 64 bits as an integer and scale.
        let shift = bits - 64;
        let top = (self >> shift).to_u64().expect("exactly 64 bits");
        (top as f64) * 2f64.powi(shift as i32)
    }

    /// `self + other`, in place.
    fn add_assign_ref(&mut self, other: &BigUint) {
        let mut carry: u64 = 0;
        let n = self.limbs.len().max(other.limbs.len());
        self.limbs.resize(n, 0);
        for i in 0..n {
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let s = self.limbs[i] as u64 + b + carry;
            self.limbs[i] = (s & LIMB_MASK) as u32;
            carry = s >> LIMB_BITS;
        }
        if carry != 0 {
            self.limbs.push(carry as u32);
        }
    }

    /// `self - other`, or `None` when `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = self.limbs.clone();
        let mut borrow: i64 = 0;
        for (i, limb) in out.iter_mut().enumerate() {
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let d = *limb as i64 - b - borrow;
            if d < 0 {
                *limb = (d + (1i64 << LIMB_BITS)) as u32;
                borrow = 1;
            } else {
                *limb = d as u32;
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0, "compare guaranteed no underflow");
        Some(BigUint::from_limbs(out))
    }

    /// Multiplies by a single limb, returning `self * l`.
    fn mul_limb(&self, l: u32) -> BigUint {
        if l == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u64 = 0;
        for &a in &self.limbs {
            let p = a as u64 * l as u64 + carry;
            out.push((p & LIMB_MASK) as u32);
            carry = p >> LIMB_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        BigUint::from_limbs(out)
    }

    /// Schoolbook multiplication. Quadratic, which is ample for the limb
    /// counts reached by the scatter LP (tens of limbs).
    fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let p = a as u64 * b as u64 + out[i + j] as u64 + carry;
                out[i + j] = (p & LIMB_MASK) as u32;
                carry = p >> LIMB_BITS;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let s = out[k] as u64 + carry;
                out[k] = (s & LIMB_MASK) as u32;
                carry = s >> LIMB_BITS;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Euclidean division: returns `(self / d, self % d)`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn divrem(&self, d: &BigUint) -> (BigUint, BigUint) {
        assert!(!d.is_zero(), "BigUint division by zero");
        match self.cmp(d) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if d.limbs.len() == 1 {
            let (q, r) = self.divrem_limb(d.limbs[0]);
            return (q, BigUint::from(r));
        }
        self.divrem_knuth(d)
    }

    /// Division by a single limb (fast path; also drives decimal printing).
    fn divrem_limb(&self, d: u32) -> (BigUint, u32) {
        debug_assert!(d != 0);
        let mut out = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << LIMB_BITS) | self.limbs[i] as u64;
            out[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        (BigUint::from_limbs(out), rem as u32)
    }

    /// Knuth Algorithm D for multi-limb divisors.
    ///
    /// The quotient digit estimate `qhat` is refined with the classical
    /// two-limb test; a final full comparison (`prod > slice`) corrects the
    /// rare remaining overestimate, trading a little speed for obvious
    /// correctness.
    fn divrem_knuth(&self, d: &BigUint) -> (BigUint, BigUint) {
        let shift = d.limbs.last().unwrap().leading_zeros() as u64;
        let u = self << shift; // dividend, will be mutated as the remainder
        let v = d << shift;
        let n = v.limbs.len();
        debug_assert!(n >= 2);
        let mut u_limbs = u.limbs;
        u_limbs.push(0); // room for the virtual high limb u[m+n]
        let m = u_limbs.len() - n - 1;
        let v_hi = v.limbs[n - 1] as u64;
        let v_lo = v.limbs[n - 2] as u64;
        let mut q = vec![0u32; m + 1];

        for j in (0..=m).rev() {
            let num = ((u_limbs[j + n] as u64) << LIMB_BITS) | u_limbs[j + n - 1] as u64;
            let mut qhat = num / v_hi;
            let mut rhat = num % v_hi;
            // Refine: ensure qhat fits a limb and the two-limb test passes.
            while qhat > LIMB_MASK
                || (qhat as u128) * (v_lo as u128)
                    > ((rhat as u128) << LIMB_BITS) + u_limbs[j + n - 2] as u128
            {
                qhat -= 1;
                rhat += v_hi;
                if rhat > LIMB_MASK {
                    break;
                }
            }
            // qhat is now correct or one too large; settle with a full check.
            let mut prod = v.mul_limb(qhat as u32);
            if slice_lt(&u_limbs[j..j + n + 1], &prod) {
                qhat -= 1;
                prod = prod.checked_sub(&v).expect("qhat was >= 1");
            }
            sub_in_place(&mut u_limbs[j..j + n + 1], &prod);
            q[j] = qhat as u32;
        }

        u_limbs.truncate(n);
        let rem = BigUint::from_limbs(u_limbs) >> shift;
        (BigUint::from_limbs(q), rem)
    }

    /// Greatest common divisor.
    ///
    /// Binary GCD working in place on the two operands' limb buffers (no
    /// allocation per step). An operand more than one limb longer than
    /// the other is first reduced by one Euclidean remainder, so
    /// `gcd(huge, small)` does not walk the huge operand bit by bit; once
    /// both operands fit in a word the rest is a `u64` Euclid.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if self.is_one() || other.is_one() {
            return BigUint::one();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        let (az, bz) = (a.trailing_zeros(), b.trailing_zeros());
        a.shr_assign_bits(az);
        b.shr_assign_bits(bz);
        // Both odd from here on; keep `a >= b`.
        loop {
            if let (Some(x), Some(y)) = (a.to_u64(), b.to_u64()) {
                a = BigUint::from(gcd_u64(x, y));
                break;
            }
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            if a.limbs.len() > b.limbs.len() + 1 {
                a = a.divrem(&b).1;
                if a.is_zero() {
                    a = b;
                    break;
                }
            } else {
                sub_in_place(&mut a.limbs, &b);
                a.trim();
            }
            // `a` is non-zero: a > b before the subtraction, and a zero
            // remainder left the loop.
            let z = a.trailing_zeros();
            a.shr_assign_bits(z);
        }
        let common = az.min(bz);
        if common == 0 {
            a
        } else {
            a << common
        }
    }

    /// `self >>= bits` in place.
    fn shr_assign_bits(&mut self, bits: u64) {
        let whole = ((bits / LIMB_BITS as u64) as usize).min(self.limbs.len());
        let part = (bits % LIMB_BITS as u64) as u32;
        self.limbs.drain(..whole);
        if part != 0 {
            for i in 0..self.limbs.len() {
                let hi = self.limbs.get(i + 1).map_or(0, |&l| l << (LIMB_BITS - part));
                self.limbs[i] = self.limbs[i] >> part | hi;
            }
        }
        self.trim();
    }

    /// Drops trailing zero limbs, restoring the normalized form.
    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of trailing zero bits (`0` for zero).
    pub fn trailing_zeros(&self) -> u64 {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i as u64 * LIMB_BITS as u64 + l.trailing_zeros() as u64;
            }
        }
        0
    }

    /// `self` raised to the power `exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }
}

/// Compares an (n+1)-limb slice with a BigUint (treating the slice as a
/// little-endian number). Returns `true` iff `slice < b`.
fn slice_lt(slice: &[u32], b: &BigUint) -> bool {
    let slice_len = {
        let mut l = slice.len();
        while l > 0 && slice[l - 1] == 0 {
            l -= 1;
        }
        l
    };
    match slice_len.cmp(&b.limbs.len()) {
        Ordering::Less => return true,
        Ordering::Greater => return false,
        Ordering::Equal => {}
    }
    for i in (0..slice_len).rev() {
        match slice[i].cmp(&b.limbs[i]) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// `slice -= b` in place; the caller guarantees no underflow.
fn sub_in_place(slice: &mut [u32], b: &BigUint) {
    let mut borrow: i64 = 0;
    for (i, limb) in slice.iter_mut().enumerate() {
        let sub = *b.limbs.get(i).unwrap_or(&0) as i64;
        let d = *limb as i64 - sub - borrow;
        if d < 0 {
            *limb = (d + (1i64 << LIMB_BITS)) as u32;
            borrow = 1;
        } else {
            *limb = d as u32;
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0, "caller must guarantee slice >= b");
}

/// Euclid's algorithm on machine words.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

// ---- conversions ----------------------------------------------------------

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_limbs(vec![v])
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_limbs(vec![(v & LIMB_MASK) as u32, (v >> 32) as u32])
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ])
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

// ---- ordering -------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            o => return o,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---- operator impls ---------------------------------------------------------
// Owned and by-reference forms; the by-reference forms are the primitives.

impl<'b> Add<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &'b BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        self.add_assign_ref(&rhs);
        self
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        self.add_assign_ref(rhs);
    }
}

impl<'b> Sub<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &'b BigUint) -> BigUint {
        self.checked_sub(rhs).expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        (&self).sub(&rhs)
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = (&*self).sub(rhs);
    }
}

impl<'b> Mul<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &'b BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_ref(&rhs)
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_ref(rhs);
    }
}

impl<'b> Div<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &'b BigUint) -> BigUint {
        self.divrem(rhs).0
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.divrem(&rhs).0
    }
}

impl<'b> Rem<&'b BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &'b BigUint) -> BigUint {
        self.divrem(rhs).1
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.divrem(&rhs).1
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / LIMB_BITS as u64) as usize;
        let bit_shift = (bits % LIMB_BITS as u64) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shl<u64> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        (&self) << bits
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.clone() >> bits
    }
}

impl Shr<u64> for BigUint {
    type Output = BigUint;
    fn shr(mut self, bits: u64) -> BigUint {
        self.shr_assign_bits(bits);
        self
    }
}

// ---- decimal I/O ------------------------------------------------------------

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divrem_limb(DEC_CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::with_capacity(chunks.len() * DEC_CHUNK_DIGITS);
        s.push_str(&chunks.last().unwrap().to_string());
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:09}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

/// Error parsing a decimal [`BigUint`]/[`BigInt`](crate::BigInt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid decimal integer literal")
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigUint {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        let mut out = BigUint::zero();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let take = (bytes.len() - i).min(DEC_CHUNK_DIGITS);
            let chunk: u32 = s[i..i + take].parse().map_err(|_| ParseBigIntError)?;
            out = out.mul_limb(10u32.pow(take as u32));
            out.add_assign_ref(&BigUint::from(chunk));
            i += take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::from(0u64), BigUint::zero());
    }

    #[test]
    fn round_trip_u64() {
        for v in [0u64, 1, 42, u32::MAX as u64, u64::MAX, 1 << 33] {
            assert_eq!(BigUint::from(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn round_trip_u128() {
        for v in [0u128, u64::MAX as u128 + 1, u128::MAX, 1 << 100] {
            assert_eq!(BigUint::from(v).to_u128(), Some(v));
        }
    }

    #[test]
    fn add_with_carries() {
        let a = big(u64::MAX as u128);
        let b = big(1);
        assert_eq!((&a + &b).to_u128(), Some(u64::MAX as u128 + 1));
    }

    #[test]
    fn sub_underflow_is_none() {
        assert_eq!(big(3).checked_sub(&big(5)), None);
        assert_eq!(big(5).checked_sub(&big(3)), Some(big(2)));
        assert_eq!(big(5).checked_sub(&big(5)), Some(BigUint::zero()));
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u128, 0u128),
            (1, u64::MAX as u128),
            (u32::MAX as u128, u32::MAX as u128),
            (123_456_789_012, 987_654_321_098),
        ];
        for (a, b) in cases {
            assert_eq!((big(a) * big(b)).to_u128(), Some(a * b), "{a}*{b}");
        }
    }

    #[test]
    fn mul_large() {
        let a = BigUint::from(u128::MAX);
        let sq = &a * &a;
        // (2^128-1)^2 = 2^256 - 2^129 + 1
        let expected = (BigUint::one() << 256) - (BigUint::one() << 129) + BigUint::one();
        assert_eq!(sq, expected);
    }

    #[test]
    fn divrem_small() {
        let (q, r) = big(100).divrem(&big(7));
        assert_eq!((q, r), (big(14), big(2)));
        let (q, r) = big(7).divrem(&big(100));
        assert_eq!((q, r), (BigUint::zero(), big(7)));
        let (q, r) = big(100).divrem(&big(100));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn divrem_multi_limb() {
        let n = BigUint::from(u128::MAX) * BigUint::from(12_345_678_901_234_567u64)
            + BigUint::from(42u32);
        let d = BigUint::from(u128::MAX);
        let (q, r) = n.divrem(&d);
        assert_eq!(q.to_u64(), Some(12_345_678_901_234_567));
        assert_eq!(r.to_u64(), Some(42));
    }

    #[test]
    fn divrem_knuth_correction_case() {
        // Exercises the qhat-overestimate path: divisor with high limb just
        // over half the radix.
        let d = BigUint::from_limbs(vec![0, 0x8000_0001]);
        let n = (&d * &big(0xffff_ffff)) + big(0x7fff_ffff);
        let (q, r) = n.divrem(&d);
        assert_eq!(q, big(0xffff_ffff));
        assert_eq!(r, big(0x7fff_ffff));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).divrem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1) << 100 >> 100, big(1));
        assert_eq!((big(0xdead_beef) << 37).to_u128(), Some(0xdead_beefu128 << 37));
        assert_eq!(big(0xff) >> 8, BigUint::zero());
        assert_eq!(big(0x1_00) >> 8, big(1));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(5).gcd(&big(0)), big(5));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(1 << 40).gcd(&big(1 << 20)), big(1 << 20));
    }

    /// Euclid's algorithm: the reference the binary GCD is checked against.
    fn euclid(a: &BigUint, b: &BigUint) -> BigUint {
        let (mut x, mut y) = (a.clone(), b.clone());
        while !y.is_zero() {
            let r = (&x).rem(&y);
            x = y;
            y = r;
        }
        x
    }

    #[test]
    fn gcd_large_matches_euclid() {
        let a = BigUint::from_str("123456789012345678901234567890").unwrap();
        let b = BigUint::from_str("987654321098765432109876543210").unwrap();
        let g = a.gcd(&b);
        assert_eq!(g, euclid(&a, &b));
        assert_eq!((&a).rem(&g), BigUint::zero());
        assert_eq!((&b).rem(&g), BigUint::zero());
    }

    #[test]
    fn gcd_with_one_and_lopsided_sizes() {
        let huge = (BigUint::one() << 6000) + big(12345);
        assert_eq!(huge.gcd(&BigUint::one()), BigUint::one());
        assert_eq!(BigUint::one().gcd(&huge), BigUint::one());
        // 2^k against an odd multi-limb value: the common power of two is
        // taken out before the odd loop, leaving gcd 1.
        assert_eq!((BigUint::one() << 300).gcd(&huge), BigUint::one());
        let m = big(3 * 5 * 7 * 1024);
        assert_eq!((&huge * &m).gcd(&(&m * &big(11))), m);
    }

    use proptest::prelude::*;

    /// A random value of 1–200 limbs with a non-zero top limb.
    fn limbs_strategy() -> impl Strategy<Value = BigUint> {
        (proptest::collection::vec(any::<u32>(), 0..200), 1u32..=u32::MAX).prop_map(
            |(mut limbs, top)| {
                limbs.push(top);
                BigUint::from_limbs(limbs)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The in-place binary GCD equals Euclid on random multi-limb
        /// values, with and without a planted common factor (which may
        /// carry powers of two).
        #[test]
        fn gcd_matches_euclid(
            a in limbs_strategy(),
            b in limbs_strategy(),
            f in limbs_strategy(),
            shift in 0u64..80,
            plant in any::<bool>(),
        ) {
            let (a, b) = if plant {
                let f = &f << shift;
                (&a * &f, &b * &f)
            } else {
                (a, b)
            };
            let g = a.gcd(&b);
            prop_assert_eq!(&g, &euclid(&a, &b));
            prop_assert_eq!(&g, &b.gcd(&a));
        }
    }

    #[test]
    fn pow_basics() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(10).pow(0), BigUint::one());
        assert_eq!(big(0).pow(0), BigUint::one()); // convention
        assert_eq!(big(3).pow(5), big(243));
    }

    #[test]
    fn display_and_parse_round_trip() {
        let s = "340282366920938463463374607431768211456123456789";
        let v = BigUint::from_str(s).unwrap();
        assert_eq!(v.to_string(), s);
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from_str("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::from_str("000123").unwrap(), big(123));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BigUint::from_str("").is_err());
        assert!(BigUint::from_str("12a3").is_err());
        assert!(BigUint::from_str("-5").is_err());
        assert!(BigUint::from_str(" 5").is_err());
    }

    #[test]
    fn ordering() {
        assert!(big(5) < big(6));
        assert!(big(1 << 64) > big(u64::MAX as u128));
        assert_eq!(big(77).cmp(&big(77)), Ordering::Equal);
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(big(12345).to_f64(), 12345.0);
        let v = BigUint::from(1u128 << 100);
        assert_eq!(v.to_f64(), 2f64.powi(100));
        // 2^100 + 2^40: relative error below 1 ulp of f64.
        let v = (BigUint::one() << 100) + (BigUint::one() << 40);
        let expect = 2f64.powi(100) + 2f64.powi(40);
        assert!((v.to_f64() - expect).abs() / expect < 1e-15);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(big(0).trailing_zeros(), 0);
        assert_eq!(big(1).trailing_zeros(), 0);
        assert_eq!(big(8).trailing_zeros(), 3);
        assert_eq!((big(1) << 70).trailing_zeros(), 70);
    }

    #[test]
    fn bits_counts() {
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(2).bits(), 2);
        assert_eq!(big(255).bits(), 8);
        assert_eq!(big(256).bits(), 9);
        assert_eq!((big(1) << 127).bits(), 128);
    }
}

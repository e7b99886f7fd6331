//! Cardinality arithmetic for constructive domains and the hyper-exponential
//! function of the paper's complexity analysis (Sections 3–5).
//!
//! Constructive domains grow hyper-exponentially in the set-height of the type
//! (`|cons_A(T)| ≤ hyp(w, a, i)` for a type of set-height `i` and width `w` over
//! `a` atoms, Example 3.5).  Exact values overflow any fixed-width integer almost
//! immediately, so we track cardinalities as a [`Cardinality`] that is either an
//! exact `u128` or an overflow marker carrying a base-2 logarithm estimate — enough
//! to reproduce the *shape* of every growth table in the paper.

use std::fmt;
use std::ops::{Add, Mul};

/// A possibly astronomically large cardinality.
///
/// Exact values are kept as long as they fit in a `u128`; beyond that we keep an
/// estimate of `log2` of the value, which is sufficient for reporting
/// hyper-exponential growth curves.
#[derive(Clone, Copy, PartialEq)]
pub enum Cardinality {
    /// An exact finite cardinality.
    Exact(u128),
    /// A value too large for `u128`; the payload is an (approximate) base-2
    /// logarithm of the true value.
    Huge {
        /// Approximate `log2` of the value.
        log2: f64,
    },
}

impl Cardinality {
    /// The cardinality 0.
    pub const ZERO: Cardinality = Cardinality::Exact(0);
    /// The cardinality 1.
    pub const ONE: Cardinality = Cardinality::Exact(1);

    /// Construct an exact cardinality.
    pub fn exact(n: u128) -> Self {
        Cardinality::Exact(n)
    }

    /// The exact value if it is representable.
    pub fn as_exact(&self) -> Option<u128> {
        match self {
            Cardinality::Exact(n) => Some(*n),
            Cardinality::Huge { .. } => None,
        }
    }

    /// True if the value is an exact (representable) cardinality.
    pub fn is_exact(&self) -> bool {
        matches!(self, Cardinality::Exact(_))
    }

    /// An approximate base-2 logarithm of the value (`-inf` for 0).
    pub fn log2(&self) -> f64 {
        match self {
            Cardinality::Exact(0) => f64::NEG_INFINITY,
            Cardinality::Exact(n) => (*n as f64).log2(),
            Cardinality::Huge { log2 } => *log2,
        }
    }

    /// Saturating conversion to `u64`, handy for comparisons against budgets.
    pub fn saturating_u64(&self) -> u64 {
        match self {
            Cardinality::Exact(n) => (*n).min(u64::MAX as u128) as u64,
            Cardinality::Huge { .. } => u64::MAX,
        }
    }

    /// True if this cardinality is at most `limit`.
    pub fn fits_within(&self, limit: u64) -> bool {
        match self {
            Cardinality::Exact(n) => *n <= limit as u128,
            Cardinality::Huge { .. } => false,
        }
    }

    /// 2 raised to this cardinality (the cardinality of a powerset).
    pub fn exp2(&self) -> Cardinality {
        match self {
            Cardinality::Exact(n) if *n < 127 => Cardinality::Exact(1u128 << *n),
            Cardinality::Exact(n) => Cardinality::Huge { log2: *n as f64 },
            Cardinality::Huge { log2 } => Cardinality::Huge {
                // log2(2^x) = x; x itself is already astronomically large, so we
                // clamp to the largest finite f64 rather than produce infinity.
                log2: if *log2 > f64::MAX.log2() {
                    f64::MAX
                } else {
                    (2f64).powf((*log2).min(1024.0))
                },
            },
        }
    }

    /// This cardinality raised to the power `k` (the cardinality of a width-`k`
    /// tuple domain).
    pub fn pow(&self, k: u32) -> Cardinality {
        let mut acc = Cardinality::ONE;
        for _ in 0..k {
            acc = acc * *self;
        }
        acc
    }
}

impl Add for Cardinality {
    type Output = Cardinality;

    fn add(self, rhs: Cardinality) -> Cardinality {
        match (self, rhs) {
            (Cardinality::Exact(a), Cardinality::Exact(b)) => match a.checked_add(b) {
                Some(s) => Cardinality::Exact(s),
                None => Cardinality::Huge {
                    log2: ((a as f64) + (b as f64)).log2(),
                },
            },
            (a, b) => {
                let (la, lb) = (a.log2(), b.log2());
                let hi = la.max(lb);
                let lo = la.min(lb);
                // log2(2^hi + 2^lo) = hi + log2(1 + 2^(lo - hi))
                let log2 = hi + (1.0 + (2f64).powf(lo - hi)).log2();
                Cardinality::Huge { log2 }
            }
        }
    }
}

impl Mul for Cardinality {
    type Output = Cardinality;

    fn mul(self, rhs: Cardinality) -> Cardinality {
        match (self, rhs) {
            (Cardinality::Exact(0), _) | (_, Cardinality::Exact(0)) => Cardinality::ZERO,
            (Cardinality::Exact(a), Cardinality::Exact(b)) => match a.checked_mul(b) {
                Some(p) => Cardinality::Exact(p),
                None => Cardinality::Huge {
                    log2: (a as f64).log2() + (b as f64).log2(),
                },
            },
            (a, b) => Cardinality::Huge {
                log2: a.log2() + b.log2(),
            },
        }
    }
}

impl fmt::Debug for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinality::Exact(n) => write!(f, "{n}"),
            Cardinality::Huge { log2 } => write!(f, "≈2^{log2:.1}"),
        }
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for Cardinality {
    fn from(n: u64) -> Self {
        Cardinality::Exact(n as u128)
    }
}

impl From<usize> for Cardinality {
    fn from(n: usize) -> Self {
        Cardinality::Exact(n as u128)
    }
}

/// The paper's hyper-exponential function (Notation before Example 3.5):
///
/// * `hyp(c, n, 0) = n^c`
/// * `hyp(c, n, i+1) = 2^(c · hyp(c, n, i))`
///
/// `hyp(degree, n, i)` is the canonical representative of the family `H_i` of
/// time/space bounds (Section 4) used to bound level-`i` classes: `H_0` are
/// the polynomials, `H_{i+1} = { 2^f : f ∈ H_i }`.
///
/// Values blow up almost immediately; the result is a [`Cardinality`] so callers
/// can still reason about the growth curve via `log2`.
pub fn hyp(c: u32, n: u64, i: u32) -> Cardinality {
    let mut level = Cardinality::from(n).pow(c);
    for _ in 0..i {
        let scaled = level * Cardinality::from(c as u64);
        level = scaled.exp2();
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyp_base_case_is_polynomial() {
        assert_eq!(hyp(2, 3, 0), Cardinality::Exact(9));
        assert_eq!(hyp(3, 2, 0), Cardinality::Exact(8));
        assert_eq!(hyp(1, 10, 0), Cardinality::Exact(10));
        assert_eq!(hyp(0, 10, 0), Cardinality::Exact(1));
    }

    #[test]
    fn hyp_level_one_is_single_exponential() {
        // hyp(1, 3, 1) = 2^(1 * 3^1) = 8
        assert_eq!(hyp(1, 3, 1), Cardinality::Exact(8));
        // hyp(2, 2, 1) = 2^(2 * 4) = 256
        assert_eq!(hyp(2, 2, 1), Cardinality::Exact(256));
    }

    #[test]
    fn hyp_level_two_is_double_exponential() {
        // hyp(1, 2, 2) = 2^(2^2) = 16
        assert_eq!(hyp(1, 2, 2), Cardinality::Exact(16));
        // hyp(1, 3, 2) = 2^(2^3) = 256
        assert_eq!(hyp(1, 3, 2), Cardinality::Exact(256));
        // hyp(2, 2, 2) = 2^(2 * 2^8) = 2^512, not exactly representable.
        let big = hyp(2, 2, 2);
        assert!(!big.is_exact());
        assert!((big.log2() - 512.0).abs() < 1.0);
    }

    #[test]
    fn hyp_is_monotone_in_every_argument() {
        for c in 1..3u32 {
            for n in 1..5u64 {
                for i in 0..3u32 {
                    assert!(hyp(c, n, i).log2() <= hyp(c + 1, n, i).log2());
                    assert!(hyp(c, n, i).log2() <= hyp(c, n + 1, i).log2());
                    assert!(hyp(c, n, i).log2() <= hyp(c, n, i + 1).log2() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn addition_and_multiplication_are_exact_when_possible() {
        let a = Cardinality::exact(1 << 20);
        let b = Cardinality::exact(12);
        assert_eq!(a + b, Cardinality::Exact((1 << 20) + 12));
        assert_eq!(a * b, Cardinality::Exact((1 << 20) * 12));
        assert_eq!(Cardinality::ZERO * a, Cardinality::ZERO);
        assert_eq!((Cardinality::ZERO + Cardinality::ONE), Cardinality::ONE);
    }

    #[test]
    fn overflow_degrades_to_log_estimates() {
        let big = Cardinality::exact(u128::MAX);
        let sum = big + big;
        assert!(!sum.is_exact());
        assert!((sum.log2() - 129.0).abs() < 0.1);
        let prod = big * big;
        assert!((prod.log2() - 256.0).abs() < 0.1);
    }

    #[test]
    fn exp2_and_pow() {
        assert_eq!(Cardinality::exact(10).exp2(), Cardinality::Exact(1024));
        assert_eq!(Cardinality::exact(3).pow(4), Cardinality::Exact(81));
        assert_eq!(Cardinality::exact(5).pow(0), Cardinality::ONE);
        let huge = Cardinality::exact(200).exp2();
        assert!(!huge.is_exact());
        assert!((huge.log2() - 200.0).abs() < 0.1);
    }

    #[test]
    fn budget_helpers() {
        assert!(Cardinality::exact(100).fits_within(100));
        assert!(!Cardinality::exact(101).fits_within(100));
        assert!(!Cardinality::Huge { log2: 500.0 }.fits_within(u64::MAX));
        assert_eq!(Cardinality::exact(7).saturating_u64(), 7);
        assert_eq!(Cardinality::Huge { log2: 500.0 }.saturating_u64(), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cardinality::exact(42).to_string(), "42");
        assert!(Cardinality::Huge { log2: 512.0 }
            .to_string()
            .contains("2^512"));
    }
}

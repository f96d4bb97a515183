//! Data-value domains for kernel interpretation.
//!
//! The interpreter is generic over the domain of floating-point data so the
//! same execution engine serves three purposes:
//!
//! * `f64` — concrete execution for performance measurement and testing,
//! * [`ModInt`] — the "integer field modulo 7" model the paper uses during
//!   synthesis to sidestep floating-point reasoning (§4.4), and
//! * the symbolic domain (`stng_sym::SymExpr`, an instantiation of the
//!   `stng_intern::sop` ring), used for inductive template generation.
//!
//! Math intrinsics are pure; in the modular domain they are modeled as
//! uninterpreted functions whose results are a deterministic hash of the
//! function name and arguments, which preserves the congruence property
//! (`x = y ⇒ f(x) = f(y)`) that lifting relies on.

use std::fmt;
use std::hash::{Hash, Hasher};
use stng_intern::sop::{Domain, Expr};

/// The prime modulus used by the synthesis-time data domain (§4.4 of the
/// paper models floating point values as an integer field modulo 7).
pub const MOD_FIELD: i64 = 7;

/// A value in the floating-point data domain of a kernel.
///
/// Implementations must be total: division by zero and other undefined cases
/// must return a value rather than panic, because CEGIS freely evaluates
/// kernels on random states.
pub trait DataValue: Clone + fmt::Debug + PartialEq {
    /// Injects a real literal into the domain.
    fn from_const(value: f64) -> Self;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Division (total; implementations choose a value for division by zero).
    fn div(&self, other: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Application of a pure math function.
    fn apply(func: &str, args: &[Self]) -> Self;
    /// Attempts to view the value as an integer index (used only for
    /// indirect accesses, which lifted kernels never contain).
    fn as_index(&self) -> Option<i64> {
        None
    }
}

impl DataValue for f64 {
    fn from_const(value: f64) -> Self {
        value
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn sub(&self, other: &Self) -> Self {
        self - other
    }

    fn mul(&self, other: &Self) -> Self {
        self * other
    }

    fn div(&self, other: &Self) -> Self {
        if *other == 0.0 {
            0.0
        } else {
            self / other
        }
    }

    fn neg(&self) -> Self {
        -self
    }

    fn apply(func: &str, args: &[Self]) -> Self {
        match (func, args) {
            ("exp", [x]) => x.exp(),
            ("log", [x]) => {
                if *x > 0.0 {
                    x.ln()
                } else {
                    0.0
                }
            }
            ("sqrt", [x]) => {
                if *x >= 0.0 {
                    x.sqrt()
                } else {
                    0.0
                }
            }
            ("sin", [x]) => x.sin(),
            ("cos", [x]) => x.cos(),
            ("tan", [x]) => x.tan(),
            ("abs", [x]) => x.abs(),
            ("min", [x, y]) => x.min(*y),
            ("max", [x, y]) => x.max(*y),
            ("mod", [x, y]) => {
                if *y == 0.0 {
                    0.0
                } else {
                    x.rem_euclid(*y)
                }
            }
            ("sign", [x, y]) => x.abs() * y.signum(),
            _ => {
                // Unknown pure function: deterministic but arbitrary.
                let mut acc = 0.0;
                for (k, a) in args.iter().enumerate() {
                    acc += a * (k as f64 + 1.0);
                }
                acc
            }
        }
    }

    fn as_index(&self) -> Option<i64> {
        if self.fract() == 0.0 && self.abs() < 1e15 {
            Some(*self as i64)
        } else {
            None
        }
    }
}

/// An element of the integer field `Z mod MOD_FIELD`, used as the
/// synthesis-time stand-in for floating-point data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ModInt(i64);

impl ModInt {
    /// Creates the field element `value mod MOD_FIELD`.
    pub fn new(value: i64) -> ModInt {
        ModInt(value.rem_euclid(MOD_FIELD))
    }

    /// The canonical representative in `0..MOD_FIELD`.
    pub fn value(self) -> i64 {
        self.0
    }

    /// Multiplicative inverse (returns zero for the zero element, keeping the
    /// operation total).
    pub fn inverse(self) -> ModInt {
        if self.0 == 0 {
            return ModInt(0);
        }
        // Fermat's little theorem: a^(p-2) mod p.
        let mut result = 1i64;
        let mut base = self.0;
        let mut exp = MOD_FIELD - 2;
        while exp > 0 {
            if exp & 1 == 1 {
                result = result * base % MOD_FIELD;
            }
            base = base * base % MOD_FIELD;
            exp >>= 1;
        }
        ModInt(result)
    }
}

impl fmt::Display for ModInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The symbolic domains: every instantiation of the shared sum-of-products
/// ring (`stng_sym::SymExpr` drives symbolic execution through this impl).
impl<D: Domain> DataValue for Expr<D> {
    fn from_const(value: f64) -> Self {
        Expr::constant(value)
    }

    fn add(&self, other: &Self) -> Self {
        *self + *other
    }

    fn sub(&self, other: &Self) -> Self {
        *self - *other
    }

    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }

    fn div(&self, other: &Self) -> Self {
        *self / *other
    }

    fn neg(&self) -> Self {
        -*self
    }

    fn apply(func: &str, args: &[Self]) -> Self {
        Expr::apply(func, args.to_vec())
    }
}

impl DataValue for ModInt {
    fn from_const(value: f64) -> Self {
        // Constants are mapped into the field through a rational
        // approximation `p/q ↦ p·q⁻¹ (mod 7)`. This makes the injection a
        // ring homomorphism on the small rationals stencil codes use, so the
        // synthesizer's constant folding (e.g. `0.25 + 1 = 1.25`) agrees with
        // the kernel's step-by-step evaluation in the modular domain.
        let (p, q) = rational_approx(value);
        ModInt::new(p).mul(&ModInt::new(q).inverse())
    }

    fn add(&self, other: &Self) -> Self {
        ModInt::new(self.0 + other.0)
    }

    fn sub(&self, other: &Self) -> Self {
        ModInt::new(self.0 - other.0)
    }

    fn mul(&self, other: &Self) -> Self {
        ModInt::new(self.0 * other.0)
    }

    fn div(&self, other: &Self) -> Self {
        self.mul(&other.inverse())
    }

    fn neg(&self) -> Self {
        ModInt::new(-self.0)
    }

    fn apply(func: &str, args: &[Self]) -> Self {
        // Uninterpreted: a deterministic hash of the name and arguments,
        // respecting congruence.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        func.hash(&mut hasher);
        for a in args {
            a.0.hash(&mut hasher);
        }
        ModInt::new((hasher.finish() % (MOD_FIELD as u64)) as i64)
    }

    fn as_index(&self) -> Option<i64> {
        Some(self.0)
    }
}

/// Best small-denominator rational approximation of `value` (continued
/// fractions, denominators up to 10⁶). Falls back to rounding when the value
/// is not close to any small rational.
fn rational_approx(value: f64) -> (i64, i64) {
    let negative = value < 0.0;
    let mut x = value.abs();
    let (mut p0, mut q0, mut p1, mut q1) = (0i64, 1i64, 1i64, 0i64);
    for _ in 0..40 {
        let a = x.floor();
        let ai = a as i64;
        let (p2, q2) = (ai * p1 + p0, ai * q1 + q0);
        if q2 > 1_000_000 || q2 <= 0 {
            break;
        }
        p0 = p1;
        q0 = q1;
        p1 = p2;
        q1 = q2;
        let frac = x - a;
        if frac.abs() < 1e-12 || (p1 as f64 / q1 as f64 - value.abs()).abs() < 1e-12 {
            break;
        }
        x = 1.0 / frac;
    }
    if q1 == 0 {
        return (value.round() as i64, 1);
    }
    (if negative { -p1 } else { p1 }, q1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rational_approximation_recovers_small_fractions() {
        assert_eq!(rational_approx(0.25), (1, 4));
        assert_eq!(rational_approx(-0.5), (-1, 2));
        assert_eq!(rational_approx(3.0), (3, 1));
        let (p, q) = rational_approx(0.0416);
        assert!((p as f64 / q as f64 - 0.0416).abs() < 1e-9);
    }

    #[test]
    fn constant_injection_is_a_ring_homomorphism_on_small_rationals() {
        let quarter = ModInt::from_const(0.25);
        let one = ModInt::from_const(1.0);
        assert_eq!(quarter.add(&one), ModInt::from_const(1.25));
        assert_eq!(
            ModInt::from_const(0.5).mul(&ModInt::from_const(0.5)),
            ModInt::from_const(0.25)
        );
        assert_eq!(
            ModInt::from_const(2.0).mul(&ModInt::from_const(0.0416)),
            ModInt::from_const(0.0832)
        );
    }

    #[test]
    fn mod_int_field_axioms() {
        for a in 0..MOD_FIELD {
            for b in 0..MOD_FIELD {
                let x = ModInt::new(a);
                let y = ModInt::new(b);
                // Commutativity.
                assert_eq!(x.add(&y), y.add(&x));
                assert_eq!(x.mul(&y), y.mul(&x));
                // Subtraction is the inverse of addition.
                assert_eq!(x.add(&y).sub(&y), x);
                // Division is the inverse of multiplication (when defined).
                if b % MOD_FIELD != 0 {
                    assert_eq!(x.mul(&y).div(&y), x);
                }
            }
        }
    }

    #[test]
    fn mod_int_inverse() {
        for a in 1..MOD_FIELD {
            let x = ModInt::new(a);
            assert_eq!(x.mul(&x.inverse()), ModInt::new(1));
        }
        assert_eq!(ModInt::new(0).inverse(), ModInt::new(0));
    }

    #[test]
    fn uninterpreted_functions_respect_congruence() {
        let a = [ModInt::new(3), ModInt::new(5)];
        let b = [ModInt::new(3), ModInt::new(5)];
        assert_eq!(ModInt::apply("exp", &a), ModInt::apply("exp", &b));
        // Different function names should (almost surely) differ somewhere;
        // check at least one separating input exists.
        let mut separated = false;
        for v in 0..MOD_FIELD {
            let arg = [ModInt::new(v)];
            if ModInt::apply("exp", &arg) != ModInt::apply("log", &arg) {
                separated = true;
            }
        }
        assert!(separated);
    }

    #[test]
    fn f64_domain_total_division_and_intrinsics() {
        assert_eq!(2.0f64.div(&0.0), 0.0);
        assert_eq!(f64::apply("max", &[1.0, 3.0]), 3.0);
        assert_eq!(f64::apply("abs", &[-2.0]), 2.0);
        assert_eq!(f64::apply("sqrt", &[-1.0]), 0.0);
        assert_eq!(4.0f64.as_index(), Some(4));
        assert_eq!(4.5f64.as_index(), None);
    }

    #[test]
    fn mod_int_constant_injection_distinguishes_small_constants() {
        let one = ModInt::from_const(1.0);
        let two = ModInt::from_const(2.0);
        let half = ModInt::from_const(0.5);
        assert_ne!(one, two);
        assert_ne!(one, half);
    }
}

//! Property tests pinned to the prover's consed normal form: pointer equality
//! of interned `NormExpr`s must agree with deep structural equality, and the
//! memoized ring operations must respect the algebra (commutativity,
//! associativity, subtraction cancelling, distribution).
//!
//! `tests/intern_props.rs` runs the generic properties over both atom
//! domains of the shared ring; this suite keeps the prover-shaped cases
//! (single affine-indexed loads, quotients at every depth) under their
//! original seeds so a regression reproduces exactly as before.

use stng_ir::ir::Affine;
use stng_solve::norm::{self, NormExpr};

struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    fn affine(&mut self) -> Affine {
        let vars = ["i", "j", "vi"];
        let mut out = Affine::var(vars[(self.next_u64() as usize) % vars.len()]);
        out.constant = self.in_range(-2, 2);
        out
    }

    fn expr(&mut self, depth: usize) -> NormExpr {
        if depth == 0 {
            return match self.in_range(0, 2) {
                0 => NormExpr::read(
                    ["a", "b"][(self.next_u64() as usize) % 2],
                    vec![self.affine()],
                ),
                1 => NormExpr::var(["x", "y"][(self.next_u64() as usize) % 2]),
                _ => NormExpr::constant(self.in_range(-3, 3) as f64 * 0.5),
            };
        }
        let lhs = self.expr(depth - 1);
        let rhs = self.expr(depth - 1);
        match self.in_range(0, 3) {
            0 => lhs + rhs,
            1 => lhs - rhs,
            2 => lhs * rhs,
            _ => lhs / rhs,
        }
    }
}

/// Deep structural equality over the stored normal forms (the spec that O(1)
/// pointer equality must match): term count, then each monomial's
/// coefficient and factor multiset.
fn structural_eq(a: NormExpr, b: NormExpr) -> bool {
    let (ta, tb) = (a.terms(), b.terms());
    ta.len() == tb.len() && ta.iter().zip(tb).all(|(x, y)| x == y)
}

#[test]
fn interned_equality_agrees_with_structural_equality() {
    let mut generator = Gen::new(0x5EED);
    let exprs: Vec<NormExpr> = (0..60).map(|_| generator.expr(3)).collect();
    for (i, &a) in exprs.iter().enumerate() {
        for &b in &exprs[i..] {
            assert_eq!(
                a == b,
                structural_eq(a, b),
                "pointer equality disagrees with structural equality:\n  {a}\n  {b}"
            );
        }
    }
}

#[test]
fn ring_laws_hold_under_memoized_operations() {
    let mut generator = Gen::new(99);
    for case in 0..40 {
        let a = generator.expr(2);
        let b = generator.expr(2);
        let c = generator.expr(2);
        assert_eq!(a + b, b + a, "case {case}: + commutes");
        assert_eq!(a * b, b * a, "case {case}: * commutes");
        assert_eq!((a + b) + c, a + (b + c), "case {case}: + assoc");
        assert_eq!(a - a, NormExpr::zero(), "case {case}: a - a = 0");
        assert!(
            norm::approx_eq(a * (b + c), a * b + a * c),
            "case {case}: distribution"
        );
    }
}

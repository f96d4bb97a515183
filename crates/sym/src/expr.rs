//! Canonical symbolic expressions over array reads, scalar inputs, constants,
//! and pure functions.
//!
//! [`SymExpr`] is the shared hash-consed sum-of-products ring
//! (`stng_intern::sop`) instantiated at [`Concrete`]: symbolic execution
//! runs with concrete loop bounds, so array reads are at concrete `i64`
//! indices. Normalization makes semantically equal expressions (modulo
//! associativity, commutativity, and distributivity over the reals)
//! structurally equal, which is what both anti-unification and the
//! verifier's equality checks rely on; consing makes that equality a
//! pointer compare, and memoized ring operations mean a subexpression shared
//! by thousands of output cells (the common case in symbolic execution of
//! stencils) is normalized once. The ring operations are reached through
//! `stng_ir::value::DataValue`, as the interpreter does.

use stng_intern::sop::{self, Domain, Tables};

/// The symbolic-execution atom domain: array reads at concrete indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Concrete;

/// The expression arena, factor-set arena and ring memos of [`SymExpr`].
static TABLES: Tables<Concrete> = Tables::new([
    "sym.exprs",
    "sym.factors",
    "sym.memo_add",
    "sym.memo_mul",
    "sym.memo_div",
    "sym.memo_neg",
]);

impl Domain for Concrete {
    type Index = i64;
    const NAME: &'static str = "SymExpr";
    const READABLE: bool = true;

    fn tables() -> &'static Tables<Concrete> {
        &TABLES
    }
}

/// A symbolic expression in sum-of-products normal form, hash-consed.
pub type SymExpr = sop::Expr<Concrete>;
/// An atomic factor of a [`SymExpr`] monomial.
pub type Atom = sop::Atom<Concrete>;
/// One monomial of a [`SymExpr`].
pub type Monomial = sop::Monomial<Concrete>;

/// Occupancy snapshots of the expression and factor-set arenas and the
/// operation memos, in a fixed order (arenas first).
pub fn arena_stats() -> Vec<stng_intern::ArenaStats> {
    TABLES.stats()
}

/// Empties the expression and factor-set arenas and the operation memos;
/// returns the number of entries cleared. Reached through
/// `stng_intern::sweep`, which runs only while no lift is pinned.
pub fn clear(q: &stng_intern::Quiescent) -> usize {
    TABLES.clear(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_intern::Symbol;
    use stng_ir::value::DataValue;

    fn b(i: i64, j: i64) -> SymExpr {
        SymExpr::read("b", vec![i, j])
    }

    #[test]
    fn addition_is_commutative_and_associative_structurally() {
        let lhs = b(1, 2).add(&b(3, 4)).add(&SymExpr::constant(2.0));
        let rhs = SymExpr::constant(2.0).add(&b(3, 4)).add(&b(1, 2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn distribution_normalizes() {
        // (x + y) * 2 == 2x + 2y
        let x = SymExpr::var("x");
        let y = SymExpr::var("y");
        let lhs = x.add(&y).mul(&SymExpr::constant(2.0));
        let rhs = x
            .mul(&SymExpr::constant(2.0))
            .add(&y.mul(&SymExpr::constant(2.0)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn subtraction_cancels() {
        let e = b(1, 1).add(&b(2, 2)).sub(&b(2, 2));
        assert_eq!(e, b(1, 1));
        let zero = b(1, 1).sub(&b(1, 1));
        assert_eq!(zero, SymExpr::zero());
        assert_eq!(zero.as_constant(), Some(0.0));
    }

    #[test]
    fn constant_folding() {
        let e = SymExpr::constant(2.0)
            .mul(&SymExpr::constant(3.0))
            .add(&SymExpr::constant(1.0));
        assert_eq!(e.as_constant(), Some(7.0));
    }

    #[test]
    fn division_by_constant_scales() {
        let e = b(0, 0)
            .mul(&SymExpr::constant(4.0))
            .div(&SymExpr::constant(2.0));
        assert_eq!(e, b(0, 0).mul(&SymExpr::constant(2.0)));
        // x / x = 1.
        assert_eq!(b(0, 0).div(&b(0, 0)).as_constant(), Some(1.0));
    }

    #[test]
    fn uninterpreted_functions_are_atoms() {
        let e = SymExpr::apply("exp", vec![b(1, 1)]);
        assert!(e.as_single_atom().is_some());
        let sum = e.add(&e);
        // exp(b) + exp(b) = 2 exp(b): one monomial with coefficient 2.
        assert_eq!(sum.terms().len(), 1);
        assert_eq!(sum.terms()[0].coeff, 2.0);
    }

    #[test]
    fn reads_are_collected_recursively() {
        let e = SymExpr::apply("exp", vec![b(1, 2)]).add(&b(3, 4));
        let reads = e.reads();
        assert!(reads.contains(&(Symbol::intern("b"), &[1, 2][..])));
        assert!(reads.contains(&(Symbol::intern("b"), &[3, 4][..])));
    }

    #[test]
    fn display_is_stable() {
        let e = b(1, 2).add(&SymExpr::constant(2.0)).add(&b(0, 0));
        let s = e.to_string();
        assert!(s.contains("b[1, 2]"));
        assert!(s.contains("2"));
    }

    #[test]
    fn consing_makes_equality_pointer_equality() {
        let a = b(1, 2).add(&b(3, 4));
        let c = b(3, 4).add(&b(1, 2));
        // Same normal form — same interned node.
        assert!(std::ptr::eq(a.terms(), c.terms()));
        // Memoized: repeating the op returns the identical node.
        let again = b(1, 2).add(&b(3, 4));
        assert!(std::ptr::eq(a.terms(), again.terms()));
    }
}

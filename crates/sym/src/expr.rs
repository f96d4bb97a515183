//! Canonical symbolic expressions over array reads, scalar inputs, constants,
//! and pure functions.
//!
//! Values are kept in a sum-of-products normal form: an expression is a sum
//! of monomials, each monomial a rational coefficient times a sorted multiset
//! of atomic factors. Atoms are array reads at concrete indices, named scalar
//! inputs, applications of pure functions, and quotients (kept opaque).
//! Normalization makes semantically equal expressions (modulo associativity,
//! commutativity, and distributivity over the reals) structurally equal,
//! which is what both anti-unification and the verifier's equality checks
//! rely on.
//!
//! Expressions are **hash-consed**: every distinct normal form is interned
//! exactly once in a global arena, and [`SymExpr`] is a `Copy`able reference
//! to the canonical node. Structural equality and hashing are therefore O(1)
//! pointer operations, and the ring operations are memoized on node identity,
//! so a subexpression shared by thousands of output cells (the common case in
//! symbolic execution of stencils) is normalized once. Factor multisets are
//! interned too (`stng_intern::sop::Factors`), so a [`Monomial`] is a `Copy`
//! coefficient plus handle. Names are interned [`Symbol`]s, whose ordering
//! matches string ordering, so the sorted factor multisets iterate exactly as
//! the `String`-keyed originals did.

use std::cmp::Ordering;
use std::fmt;

use stng_intern::sop::{self, FactorAtom, FactorSet, Factors, Mono};
use stng_intern::{f64_key, ConsSet, Memo, Symbol};
use stng_ir::value::DataValue;

/// An atomic (non-arithmetic) factor of a monomial.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A read of an input array at concrete indices (symbolic execution runs
    /// with concrete loop bounds, so indices are always concrete integers).
    Read {
        /// Array name.
        array: Symbol,
        /// Concrete index per dimension.
        indices: Vec<i64>,
    },
    /// A named symbolic scalar input.
    Var(Symbol),
    /// An application of a pure (uninterpreted) function.
    Apply {
        /// Function name.
        func: Symbol,
        /// Argument expressions.
        args: Vec<SymExpr>,
    },
    /// A quotient `numerator / denominator`, kept opaque (no rational
    /// function simplification beyond constant folding).
    Quot {
        /// Numerator.
        num: SymExpr,
        /// Denominator.
        den: SymExpr,
    },
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(a: &Atom) -> u8 {
            match a {
                Atom::Read { .. } => 0,
                Atom::Var(_) => 1,
                Atom::Apply { .. } => 2,
                Atom::Quot { .. } => 3,
            }
        }
        match (self, other) {
            (
                Atom::Read {
                    array: a1,
                    indices: i1,
                },
                Atom::Read {
                    array: a2,
                    indices: i2,
                },
            ) => a1.cmp(a2).then_with(|| i1.cmp(i2)),
            (Atom::Var(a), Atom::Var(b)) => a.cmp(b),
            (Atom::Apply { func: f1, args: x1 }, Atom::Apply { func: f2, args: x2 }) => {
                f1.cmp(f2).then_with(|| x1.cmp(x2))
            }
            (Atom::Quot { num: n1, den: d1 }, Atom::Quot { num: n2, den: d2 }) => {
                n1.cmp(n2).then_with(|| d1.cmp(d2))
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Read { array, indices } => {
                write!(f, "{array}[")?;
                for (k, ix) in indices.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{ix}")?;
                }
                write!(f, "]")
            }
            Atom::Var(name) => write!(f, "{name}"),
            Atom::Apply { func, args } => {
                write!(f, "{func}(")?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Atom::Quot { num, den } => write!(f, "({num} / {den})"),
        }
    }
}

/// One monomial: a coefficient times a multiset of atoms (atom → power).
#[derive(Debug, Clone, Copy)]
pub struct Monomial {
    /// Multiplicative coefficient.
    pub coeff: f64,
    /// Atom powers, sorted by atom (interned).
    pub factors: Factors<Atom>,
}

impl Monomial {
    /// The constant monomial `coeff`.
    pub fn constant(coeff: f64) -> Monomial {
        Monomial {
            coeff,
            factors: Factors::empty(),
        }
    }

    /// The monomial `1 · atom`.
    pub fn atom(atom: Atom) -> Monomial {
        Monomial {
            coeff: 1.0,
            factors: Factors::one(atom),
        }
    }

    /// Product of two monomials: one merge pass over the sorted factor sets.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        Monomial {
            coeff: self.coeff * other.coeff,
            factors: sop::merge_factors(self.factors, other.factors),
        }
    }
}

impl Mono for Monomial {
    fn coeff(&self) -> f64 {
        self.coeff
    }

    fn with_coeff(&self, coeff: f64) -> Monomial {
        Monomial {
            coeff,
            factors: self.factors,
        }
    }

    fn key_cmp(&self, other: &Monomial) -> Ordering {
        self.factors.cmp(&other.factors)
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        self.coeff == other.coeff && self.factors == other.factors
    }
}

impl Eq for Monomial {}

impl std::hash::Hash for Monomial {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        f64_key(self.coeff).hash(state);
        self.factors.hash(state);
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_cmp(other)
            .then_with(|| self.coeff.total_cmp(&other.coeff))
    }
}

/// The interned payload of a [`SymExpr`].
#[derive(Debug, PartialEq, Eq, Hash)]
struct Node {
    /// The monomials of the sum, sorted by their factor keys.
    /// Zero-coefficient monomials are removed.
    terms: Vec<Monomial>,
}

/// The global hash-consing arena and the operation memo tables. Keys are the
/// canonical node addresses, so a memo hit is two pointer reads.
static EXPRS: ConsSet<Node> = ConsSet::new();
static FACTORS: ConsSet<FactorSet<Atom>> = ConsSet::new();
static MEMO_ADD: Memo<(usize, usize), SymExpr> = Memo::new();
static MEMO_MUL: Memo<(usize, usize), SymExpr> = Memo::new();
static MEMO_DIV: Memo<(usize, usize), SymExpr> = Memo::new();
static MEMO_NEG: Memo<usize, SymExpr> = Memo::new();

impl FactorAtom for Atom {
    fn factor_arena() -> &'static ConsSet<FactorSet<Atom>> {
        &FACTORS
    }
}

/// Occupancy snapshots of the expression and factor-set arenas and the
/// operation memos, in a fixed order (arenas first).
pub fn arena_stats() -> Vec<stng_intern::ArenaStats> {
    vec![
        EXPRS.stats("sym.exprs"),
        FACTORS.stats("sym.factors"),
        MEMO_ADD.stats("sym.memo_add"),
        MEMO_MUL.stats("sym.memo_mul"),
        MEMO_DIV.stats("sym.memo_div"),
        MEMO_NEG.stats("sym.memo_neg"),
    ]
}

/// Sweeps the expression arena and memo tables, evicting entries last used
/// before `cutoff` (see `stng_intern::epoch`). Returns the total number of
/// entries evicted. Callers must be quiescent: no `SymExpr` handle obtained
/// before the sweep may be compared against ones built after it.
pub fn retain_epoch(cutoff: u64) -> usize {
    // Memos before the arena: their values point at arena nodes, and the
    // insertion-tag ordering (entry tag ≤ value-node tag) makes this order
    // safe even mid-epoch. Factor sets last: a surviving node may hold a
    // factor set with an older tag (sums and scalings copy handles without
    // re-interning), which is harmless because factor-set equality and
    // hashing are by content.
    MEMO_ADD.retain_epoch(cutoff)
        + MEMO_MUL.retain_epoch(cutoff)
        + MEMO_DIV.retain_epoch(cutoff)
        + MEMO_NEG.retain_epoch(cutoff)
        + EXPRS.retain_epoch(cutoff)
        + FACTORS.retain_epoch(cutoff)
}

/// A symbolic expression in sum-of-products normal form, hash-consed.
///
/// `SymExpr` is a `Copy`able reference to the canonical interned node:
/// structural equality is pointer equality and hashing hashes the pointer,
/// both O(1).
#[derive(Clone, Copy)]
pub struct SymExpr(&'static Node);

impl SymExpr {
    /// Interns a term vector that is already in normal form.
    fn cons(terms: Vec<Monomial>) -> SymExpr {
        SymExpr(EXPRS.intern(Node { terms }))
    }

    /// The canonical node address (memoization key).
    fn key(self) -> usize {
        self.0 as *const Node as usize
    }

    /// The monomials of the sum, sorted by their factor keys.
    pub fn terms(self) -> &'static [Monomial] {
        &self.0.terms
    }

    /// Number of distinct expressions interned process-wide (diagnostics).
    pub fn arena_len() -> usize {
        EXPRS.len()
    }

    /// The zero expression.
    pub fn zero() -> SymExpr {
        SymExpr::cons(Vec::new())
    }

    /// A constant expression.
    pub fn constant(value: f64) -> SymExpr {
        SymExpr::normalized(vec![Monomial::constant(value)])
    }

    /// A named symbolic scalar.
    pub fn var(name: impl Into<Symbol>) -> SymExpr {
        SymExpr::cons(vec![Monomial::atom(Atom::Var(name.into()))])
    }

    /// A read of `array` at concrete `indices`.
    pub fn read(array: impl Into<Symbol>, indices: Vec<i64>) -> SymExpr {
        SymExpr::cons(vec![Monomial::atom(Atom::Read {
            array: array.into(),
            indices,
        })])
    }

    /// An application of a pure function.
    pub fn apply(func: impl Into<Symbol>, args: Vec<SymExpr>) -> SymExpr {
        SymExpr::cons(vec![Monomial::atom(Atom::Apply {
            func: func.into(),
            args,
        })])
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(self) -> Option<f64> {
        match self.terms().len() {
            0 => Some(0.0),
            1 if self.terms()[0].factors.is_empty() => Some(self.terms()[0].coeff),
            _ => None,
        }
    }

    /// Returns the single atom when the expression is exactly `1 · atom`.
    pub fn as_single_atom(self) -> Option<&'static Atom> {
        let terms = self.terms();
        if terms.len() == 1 && (terms[0].coeff - 1.0).abs() < 1e-12 && terms[0].factors.len() == 1 {
            let (atom, power) = &terms[0].factors.as_slice()[0];
            if *power == 1 {
                return Some(atom);
            }
        }
        None
    }

    /// All distinct array reads appearing (recursively) in the expression.
    pub fn reads(self) -> Vec<(Symbol, Vec<i64>)> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(self, out: &mut Vec<(Symbol, Vec<i64>)>) {
        for term in self.terms() {
            for atom in term.factors.atoms() {
                match atom {
                    Atom::Read { array, indices } => {
                        let entry = (*array, indices.clone());
                        if !out.contains(&entry) {
                            out.push(entry);
                        }
                    }
                    Atom::Apply { args, .. } => {
                        for a in args {
                            a.collect_reads(out);
                        }
                    }
                    Atom::Quot { num, den } => {
                        num.collect_reads(out);
                        den.collect_reads(out);
                    }
                    Atom::Var(_) => {}
                }
            }
        }
    }

    /// Sorts, merges monomials with identical factor keys, drops zeros, and
    /// interns the result.
    fn normalized(terms: Vec<Monomial>) -> SymExpr {
        SymExpr::cons(sop::normalize(terms))
    }
}

impl Default for SymExpr {
    fn default() -> Self {
        SymExpr::zero()
    }
}

impl PartialEq for SymExpr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for SymExpr {}

impl std::hash::Hash for SymExpr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialOrd for SymExpr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SymExpr {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.terms.cmp(&other.0.terms)
        }
    }
}

impl fmt::Debug for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymExpr({self})")
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms = self.terms();
        if terms.is_empty() {
            return write!(f, "0");
        }
        for (k, term) in terms.iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            let mut wrote = false;
            if (term.coeff - 1.0).abs() > 1e-12 || term.factors.is_empty() {
                write!(f, "{}", term.coeff)?;
                wrote = true;
            }
            for (atom, power) in term.factors.iter() {
                if wrote {
                    write!(f, "*")?;
                }
                write!(f, "{atom}")?;
                if *power > 1 {
                    write!(f, "^{power}")?;
                }
                wrote = true;
            }
        }
        Ok(())
    }
}

impl DataValue for SymExpr {
    fn from_const(value: f64) -> Self {
        SymExpr::constant(value)
    }

    fn add(&self, other: &Self) -> Self {
        // Commutative: canonicalize the memo key order.
        let (a, b) = if self.key() <= other.key() {
            (*self, *other)
        } else {
            (*other, *self)
        };
        let memo_key = (a.key(), b.key());
        if let Some(cached) = MEMO_ADD.get(&memo_key) {
            return cached;
        }
        // Both sides are in normal form: one linear merge, no re-sort.
        let result = SymExpr::cons(sop::merge_sum(a.terms(), b.terms()));
        MEMO_ADD.insert(memo_key, result);
        result
    }

    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    fn mul(&self, other: &Self) -> Self {
        let (a, b) = if self.key() <= other.key() {
            (*self, *other)
        } else {
            (*other, *self)
        };
        let memo_key = (a.key(), b.key());
        if let Some(cached) = MEMO_MUL.get(&memo_key) {
            return cached;
        }
        let mut terms = Vec::with_capacity(a.terms().len() * b.terms().len());
        for x in a.terms() {
            for y in b.terms() {
                terms.push(x.mul(y));
            }
        }
        let result = SymExpr::normalized(terms);
        MEMO_MUL.insert(memo_key, result);
        result
    }

    fn div(&self, other: &Self) -> Self {
        let memo_key = (self.key(), other.key());
        if let Some(cached) = MEMO_DIV.get(&memo_key) {
            return cached;
        }
        let result = if let Some(c) = other.as_constant() {
            if c.abs() > 1e-12 {
                SymExpr::normalized(
                    self.terms()
                        .iter()
                        .map(|t| t.with_coeff(t.coeff / c))
                        .collect(),
                )
            } else {
                SymExpr::zero()
            }
        } else if self == other {
            SymExpr::constant(1.0)
        } else {
            SymExpr::cons(vec![Monomial::atom(Atom::Quot {
                num: *self,
                den: *other,
            })])
        };
        MEMO_DIV.insert(memo_key, result);
        result
    }

    fn neg(&self) -> Self {
        if let Some(cached) = MEMO_NEG.get(&self.key()) {
            return cached;
        }
        // Negating coefficients keeps the key order, so the result is
        // already canonical.
        let terms = self
            .terms()
            .iter()
            .map(|t| t.with_coeff(-t.coeff))
            .collect();
        let result = SymExpr::cons(terms);
        MEMO_NEG.insert(self.key(), result);
        result
    }

    fn apply(func: &str, args: &[Self]) -> Self {
        SymExpr::apply(func, args.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(reads.contains(&(Symbol::intern("b"), vec![1, 2])));
        assert!(reads.contains(&(Symbol::intern("b"), vec![3, 4])));
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
        assert!(std::ptr::eq(a.0, c.0));
        // Memoized: repeating the op returns the identical node.
        let again = b(1, 2).add(&b(3, 4));
        assert!(std::ptr::eq(a.0, again.0));
    }
}

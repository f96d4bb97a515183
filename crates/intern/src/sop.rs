//! The hash-consed sum-of-products ring shared by symbolic execution and
//! the prover.
//!
//! Both steps of the lifter need the same normal form: symbolic execution
//! (`stng_sym::SymExpr`) to compare the values a kernel writes, and the
//! prover (`stng_solve::NormExpr`) to compare the two sides of a
//! verification condition. An expression is a sum of monomials, each a
//! float coefficient times a multiset of opaque atoms: array reads, named
//! scalars, applications of pure functions and quotients. Normalization
//! makes expressions that are equal modulo associativity, commutativity and
//! distributivity over the reals structurally equal.
//!
//! The ring is written once here and instantiated per [`Domain`]. Two
//! domains differ only in the index type of an array read: concrete `i64`
//! indices during symbolic execution (loop bounds are concrete there), and
//! affine indices over the free integer variables of a VC in the prover.
//!
//! Everything is **hash-consed**. An [`Expr`] is a `Copy` reference to the
//! canonical interned node, so equality and hashing are O(1) pointer
//! operations, and the ring operations (`+`, `-`, `*`, `/`, unary `-`) are
//! memoized on node identity. Factor multisets are interned too, so a
//! [`Monomial`] is a `Copy` pair of a coefficient and an 8-byte handle, and
//! re-coefficienting one (sums, negation, scaling) copies the handle instead
//! of rebuilding the multiset. Names are interned [`Symbol`]s ordered by
//! string content, so sorted factor multisets iterate as `BTreeMap`s with
//! `String` keys would.
//!
//! Each domain owns one [`Tables`] set, declared as a `static` next to its
//! [`Domain`] impl: the node arena, the factor-set arena and the `add`,
//! `mul`, `div` and `neg` memos. Nothing is shared between domains, so their
//! occupancy is reported and cleared separately. [`Tables::clear`] empties
//! all six at once, under the quiescent [`sweep`](crate::sweep): no handle
//! of either generation survives to be compared with the other.

use crate::{f64_key, ArenaStats, ConsSet, Memo, Quiescent, Symbol};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Coefficients with magnitude at or below this are treated as zero and
/// dropped during normalization and sum merging.
pub const CANCEL_EPS: f64 = 1e-12;

/// An atom domain: the index type of array reads plus the tables holding
/// this domain's interned values.
pub trait Domain: Copy + Ord + Hash + fmt::Debug + Send + Sync + 'static {
    /// Index type of one dimension of an array read.
    type Index: Clone + Ord + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static;
    /// Name printed by an expression's `Debug` output.
    const NAME: &'static str;
    /// Display style. Readable: `2*b[1, 2] + x` and `(p / q)`, unit
    /// coefficients omitted. Otherwise explicit: `2*b[i,j] + 1*x` and
    /// `(p/q)`.
    const READABLE: bool;
    /// The arenas and memos of this domain.
    fn tables() -> &'static Tables<Self>;
}

/// An atomic (non-arithmetic) factor of a monomial.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom<D: Domain> {
    /// A read of an input (pre-state) array.
    Read {
        /// Array name.
        array: Symbol,
        /// Index per dimension.
        indices: Vec<D::Index>,
    },
    /// A named real scalar input.
    Var(Symbol),
    /// An application of a pure (uninterpreted) function.
    Apply {
        /// Function name.
        func: Symbol,
        /// Argument expressions.
        args: Vec<Expr<D>>,
    },
    /// A quotient `num / den`, kept opaque (no rational-function
    /// simplification beyond constant folding).
    Quot {
        /// Numerator.
        num: Expr<D>,
        /// Denominator.
        den: Expr<D>,
    },
}

impl<D: Domain> fmt::Display for Atom<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list<T: fmt::Display>(
            f: &mut fmt::Formatter<'_>,
            items: &[T],
            sep: &str,
        ) -> fmt::Result {
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    f.write_str(sep)?;
                }
                write!(f, "{item}")?;
            }
            Ok(())
        }
        let (sep, slash) = if D::READABLE {
            (", ", " / ")
        } else {
            (",", "/")
        };
        match self {
            Atom::Read { array, indices } => {
                write!(f, "{array}[")?;
                list(f, indices, sep)?;
                write!(f, "]")
            }
            Atom::Var(name) => write!(f, "{name}"),
            Atom::Apply { func, args } => {
                write!(f, "{func}(")?;
                list(f, args, sep)?;
                write!(f, ")")
            }
            Atom::Quot { num, den } => write!(f, "({num}{slash}{den})"),
        }
    }
}

/// The interned payload behind a [`Factors`] handle: atom→power pairs
/// sorted by atom (distinct atoms, non-zero powers) plus a content hash
/// computed once, at construction.
pub struct FactorSet<D: Domain> {
    hash: u64,
    pairs: Box<[(Atom<D>, u32)]>,
}

impl<D: Domain> FactorSet<D> {
    fn new(pairs: Vec<(Atom<D>, u32)>) -> FactorSet<D> {
        // `DefaultHasher::new()` has fixed keys, so the hash is a pure
        // function of the content.
        let mut hasher = DefaultHasher::new();
        pairs.hash(&mut hasher);
        FactorSet {
            hash: hasher.finish(),
            pairs: pairs.into_boxed_slice(),
        }
    }
}

impl<D: Domain> PartialEq for FactorSet<D> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.pairs == other.pairs
    }
}

impl<D: Domain> Eq for FactorSet<D> {}

impl<D: Domain> Hash for FactorSet<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A `Copy` handle to an interned factor multiset. Equality is a pointer
/// check with a content fallback, hashing uses the stored content hash,
/// and ordering is the lexicographic content order over `(atom, power)`
/// pairs — the iteration order of a `BTreeMap<Atom, u32>` with the same
/// entries.
pub struct Factors<D: Domain>(&'static FactorSet<D>);

impl<D: Domain> Clone for Factors<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D: Domain> Copy for Factors<D> {}

impl<D: Domain> Factors<D> {
    /// The empty multiset (the factor set of a constant monomial).
    pub fn empty() -> Factors<D> {
        Factors::from_sorted(Vec::new())
    }

    /// The multiset `{atom: 1}`.
    pub fn one(atom: Atom<D>) -> Factors<D> {
        Factors::from_sorted(vec![(atom, 1)])
    }

    fn from_sorted(pairs: Vec<(Atom<D>, u32)>) -> Factors<D> {
        Factors(D::tables().factors.intern(FactorSet::new(pairs)))
    }

    /// The `(atom, power)` pairs in atom order.
    pub fn as_slice(self) -> &'static [(Atom<D>, u32)] {
        &self.0.pairs
    }

    /// Iterates the `(atom, power)` pairs in atom order.
    pub fn iter(self) -> std::slice::Iter<'static, (Atom<D>, u32)> {
        self.as_slice().iter()
    }

    /// Iterates the distinct atoms in order.
    pub fn atoms(self) -> impl Iterator<Item = &'static Atom<D>> {
        self.iter().map(|(atom, _)| atom)
    }

    /// Number of distinct atoms.
    pub fn len(self) -> usize {
        self.0.pairs.len()
    }

    /// True for the factor set of a constant monomial.
    pub fn is_empty(self) -> bool {
        self.0.pairs.is_empty()
    }

    /// Product of two factor multisets: one merge pass over the sorted
    /// pairs, cloning each atom once, then one intern. A constant side
    /// returns the other handle unchanged.
    pub fn merge(self, other: Factors<D>) -> Factors<D> {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let mut merged = Vec::with_capacity(self.len() + other.len());
        let mut left = self.iter().peekable();
        let mut right = other.iter().peekable();
        loop {
            let take_left = match (left.peek(), right.peek()) {
                (Some((a, _)), Some((b, _))) => match a.cmp(b) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => {
                        let (atom, p) = left.next().expect("peeked");
                        let (_, q) = right.next().expect("peeked");
                        merged.push((atom.clone(), p + q));
                        continue;
                    }
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (atom, p) = if take_left {
                left.next().expect("peeked")
            } else {
                right.next().expect("peeked")
            };
            merged.push((atom.clone(), *p));
        }
        Factors::from_sorted(merged)
    }
}

impl<D: Domain> PartialEq for Factors<D> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl<D: Domain> Eq for Factors<D> {}

impl<D: Domain> Hash for Factors<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl<D: Domain> PartialOrd for Factors<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Domain> Ord for Factors<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.pairs.cmp(&other.0.pairs)
        }
    }
}

impl<D: Domain> fmt::Debug for Factors<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.pairs.iter().map(|(atom, power)| (atom, power)))
            .finish()
    }
}

/// One monomial: a coefficient times a multiset of atoms (atom → power).
/// Monomials order by factor multiset, then by coefficient.
#[derive(Debug, Clone, Copy)]
pub struct Monomial<D: Domain> {
    /// Multiplicative coefficient.
    pub coeff: f64,
    /// Atom powers, sorted by atom (interned).
    pub factors: Factors<D>,
}

impl<D: Domain> Monomial<D> {
    /// The constant monomial `coeff`.
    fn constant(coeff: f64) -> Monomial<D> {
        Monomial {
            coeff,
            factors: Factors::empty(),
        }
    }

    /// The monomial `1 · atom`.
    fn atom(atom: Atom<D>) -> Monomial<D> {
        Monomial {
            coeff: 1.0,
            factors: Factors::one(atom),
        }
    }

    /// The same monomial with a different coefficient.
    fn with_coeff(self, coeff: f64) -> Monomial<D> {
        Monomial {
            coeff,
            factors: self.factors,
        }
    }
}

impl<D: Domain> PartialEq for Monomial<D> {
    fn eq(&self, other: &Self) -> bool {
        self.coeff == other.coeff && self.factors == other.factors
    }
}

impl<D: Domain> Eq for Monomial<D> {}

impl<D: Domain> Hash for Monomial<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        f64_key(self.coeff).hash(state);
        self.factors.hash(state);
    }
}

impl<D: Domain> PartialOrd for Monomial<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Domain> Ord for Monomial<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.factors
            .cmp(&other.factors)
            .then_with(|| self.coeff.total_cmp(&other.coeff))
    }
}

/// Sum of two normal forms (both already sorted by key with one monomial
/// per key): one linear merge, combining coefficients on equal keys and
/// dropping cancellations. No re-sort.
fn merge_sum<D: Domain>(a: &[Monomial<D>], b: &[Monomial<D>]) -> Vec<Monomial<D>> {
    let mut terms = Vec::with_capacity(a.len() + b.len());
    let mut left = a.iter().peekable();
    let mut right = b.iter().peekable();
    loop {
        let take_left = match (left.peek(), right.peek()) {
            (Some(x), Some(y)) => match x.factors.cmp(&y.factors) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => {
                    let x = left.next().expect("peeked");
                    let y = right.next().expect("peeked");
                    let coeff = x.coeff + y.coeff;
                    if coeff.abs() > CANCEL_EPS {
                        terms.push(x.with_coeff(coeff));
                    }
                    continue;
                }
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let mono = if take_left {
            left.next().expect("peeked")
        } else {
            right.next().expect("peeked")
        };
        terms.push(*mono);
    }
    terms
}

/// Canonicalizes an arbitrary term vector: sort by key (stable, so
/// equal-key coefficients are summed in construction order), combine equal
/// keys, drop cancellations.
fn normalize<D: Domain>(mut terms: Vec<Monomial<D>>) -> Vec<Monomial<D>> {
    terms.sort_by_key(|m| m.factors);
    let mut merged: Vec<Monomial<D>> = Vec::new();
    for term in terms {
        if let Some(last) = merged.last_mut() {
            if last.factors == term.factors {
                last.coeff += term.coeff;
                continue;
            }
        }
        merged.push(term);
    }
    merged.retain(|m| m.coeff.abs() > CANCEL_EPS);
    merged
}

/// The interned payload of an [`Expr`]: the monomials of the sum, sorted by
/// factor key, one per key, none with a zero coefficient.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Node<D: Domain> {
    terms: Vec<Monomial<D>>,
}

/// One domain's interning tables. Declare one per domain as a `static` and
/// return it from [`Domain::tables`]:
/// `static TABLES: Tables<MyDomain> = Tables::new([...]);`
pub struct Tables<D: Domain> {
    /// Stats names of the node arena, the factor-set arena and the `add`,
    /// `mul`, `div` and `neg` memos, in that order.
    names: [&'static str; 6],
    exprs: ConsSet<Node<D>>,
    factors: ConsSet<FactorSet<D>>,
    add: Memo<(usize, usize), Expr<D>>,
    mul: Memo<(usize, usize), Expr<D>>,
    div: Memo<(usize, usize), Expr<D>>,
    neg: Memo<usize, Expr<D>>,
}

impl<D: Domain> Tables<D> {
    /// Empty tables reported under `names`: the node arena, the factor-set
    /// arena and the `add`, `mul`, `div` and `neg` memos, in that order.
    pub const fn new(names: [&'static str; 6]) -> Tables<D> {
        Tables {
            names,
            exprs: ConsSet::new(),
            factors: ConsSet::new(),
            add: Memo::new(),
            mul: Memo::new(),
            div: Memo::new(),
            neg: Memo::new(),
        }
    }

    /// Occupancy snapshots in a fixed order: node arena, factor-set arena,
    /// then the memos.
    pub fn stats(&self) -> Vec<ArenaStats> {
        let [exprs, factors, add, mul, div, neg] = self.names;
        vec![
            self.exprs.stats(exprs),
            self.factors.stats(factors),
            self.add.stats(add),
            self.mul.stats(mul),
            self.div.stats(div),
            self.neg.stats(neg),
        ]
    }

    /// Empties every table and returns how many entries went.
    pub fn clear(&self, q: &Quiescent) -> usize {
        self.add.clear(q)
            + self.mul.clear(q)
            + self.div.clear(q)
            + self.neg.clear(q)
            + self.exprs.clear(q)
            + self.factors.clear(q)
    }
}

/// An expression in sum-of-products normal form, hash-consed: a `Copy`
/// reference to the canonical interned node. Equality is pointer equality
/// and hashing hashes the pointer, both O(1); ordering compares the
/// monomials.
pub struct Expr<D: Domain>(&'static Node<D>);

impl<D: Domain> Expr<D> {
    /// Interns a term vector that is already in normal form.
    fn cons(terms: Vec<Monomial<D>>) -> Expr<D> {
        Expr(D::tables().exprs.intern(Node { terms }))
    }

    /// Sorts, merges monomials with identical factor keys, drops zeros, and
    /// interns the result.
    fn normalized(terms: Vec<Monomial<D>>) -> Expr<D> {
        Expr::cons(normalize(terms))
    }

    /// The canonical node address: the identity that memo tables key on.
    pub fn key(self) -> usize {
        self.0 as *const Node<D> as usize
    }

    /// The monomials of the sum, sorted by their factor keys.
    pub fn terms(self) -> &'static [Monomial<D>] {
        &self.0.terms
    }

    /// The zero expression.
    pub fn zero() -> Expr<D> {
        Expr::cons(Vec::new())
    }

    /// A constant expression.
    pub fn constant(value: f64) -> Expr<D> {
        Expr::normalized(vec![Monomial::constant(value)])
    }

    /// The expression `1 · atom`.
    pub fn atom(atom: Atom<D>) -> Expr<D> {
        Expr::cons(vec![Monomial::atom(atom)])
    }

    /// A named real scalar.
    pub fn var(name: impl Into<Symbol>) -> Expr<D> {
        Expr::atom(Atom::Var(name.into()))
    }

    /// A read of `array` at `indices`.
    pub fn read(array: impl Into<Symbol>, indices: Vec<D::Index>) -> Expr<D> {
        Expr::atom(Atom::Read {
            array: array.into(),
            indices,
        })
    }

    /// An application of a pure function.
    pub fn apply(func: impl Into<Symbol>, args: Vec<Expr<D>>) -> Expr<D> {
        Expr::atom(Atom::Apply {
            func: func.into(),
            args,
        })
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(self) -> Option<f64> {
        match self.terms() {
            [] => Some(0.0),
            [term] if term.factors.is_empty() => Some(term.coeff),
            _ => None,
        }
    }

    /// Returns the single atom when the expression is exactly `1 · atom`.
    pub fn as_single_atom(self) -> Option<&'static Atom<D>> {
        match self.terms() {
            [term] if (term.coeff - 1.0).abs() < CANCEL_EPS => match term.factors.as_slice() {
                [(atom, 1)] => Some(atom),
                _ => None,
            },
            _ => None,
        }
    }

    /// Every distinct array read, including those nested in applications
    /// and quotients, in first-occurrence order. Indices are borrowed from
    /// the interned nodes, not copied.
    pub fn reads(self) -> Vec<(Symbol, &'static [D::Index])> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(self, out: &mut Vec<(Symbol, &'static [D::Index])>) {
        for term in self.terms() {
            for atom in term.factors.atoms() {
                match atom {
                    Atom::Read { array, indices } => {
                        let entry = (*array, indices.as_slice());
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
}

impl<D: Domain> Add for Expr<D> {
    type Output = Expr<D>;

    /// Sum: both sides are in normal form, so one linear merge, no re-sort.
    fn add(self, other: Expr<D>) -> Expr<D> {
        // Commutative: canonicalize the memo key order.
        let (a, b) = if self.key() <= other.key() {
            (self, other)
        } else {
            (other, self)
        };
        D::tables().add.get_or_insert_with((a.key(), b.key()), || {
            Expr::cons(merge_sum(a.terms(), b.terms()))
        })
    }
}

impl<D: Domain> Sub for Expr<D> {
    type Output = Expr<D>;

    fn sub(self, other: Expr<D>) -> Expr<D> {
        self + -other
    }
}

impl<D: Domain> Mul for Expr<D> {
    type Output = Expr<D>;

    fn mul(self, other: Expr<D>) -> Expr<D> {
        let (a, b) = if self.key() <= other.key() {
            (self, other)
        } else {
            (other, self)
        };
        D::tables().mul.get_or_insert_with((a.key(), b.key()), || {
            let mut terms = Vec::with_capacity(a.terms().len() * b.terms().len());
            for x in a.terms() {
                for y in b.terms() {
                    terms.push(Monomial {
                        coeff: x.coeff * y.coeff,
                        factors: x.factors.merge(y.factors),
                    });
                }
            }
            Expr::normalized(terms)
        })
    }
}

impl<D: Domain> Div for Expr<D> {
    type Output = Expr<D>;

    /// Quotient, kept opaque unless the divisor is a constant (a zero
    /// divisor gives zero, keeping division total) or equals the dividend.
    fn div(self, other: Expr<D>) -> Expr<D> {
        D::tables()
            .div
            .get_or_insert_with((self.key(), other.key()), || {
                if let Some(c) = other.as_constant() {
                    if c.abs() > CANCEL_EPS {
                        Expr::normalized(
                            self.terms()
                                .iter()
                                .map(|t| t.with_coeff(t.coeff / c))
                                .collect(),
                        )
                    } else {
                        Expr::zero()
                    }
                } else if self == other {
                    Expr::constant(1.0)
                } else {
                    Expr::atom(Atom::Quot {
                        num: self,
                        den: other,
                    })
                }
            })
    }
}

impl<D: Domain> Neg for Expr<D> {
    type Output = Expr<D>;

    fn neg(self) -> Expr<D> {
        D::tables().neg.get_or_insert_with(self.key(), || {
            // Negating coefficients keeps the key order, so the result is
            // already canonical.
            Expr::cons(
                self.terms()
                    .iter()
                    .map(|t| t.with_coeff(-t.coeff))
                    .collect(),
            )
        })
    }
}

impl<D: Domain> Clone for Expr<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D: Domain> Copy for Expr<D> {}

impl<D: Domain> Default for Expr<D> {
    fn default() -> Self {
        Expr::zero()
    }
}

impl<D: Domain> PartialEq for Expr<D> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl<D: Domain> Eq for Expr<D> {}

impl<D: Domain> Hash for Expr<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl<D: Domain> PartialOrd for Expr<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Domain> Ord for Expr<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.terms.cmp(&other.0.terms)
        }
    }
}

impl<D: Domain> fmt::Debug for Expr<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({self})", D::NAME)
    }
}

impl<D: Domain> fmt::Display for Expr<D> {
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
            if !D::READABLE || (term.coeff - 1.0).abs() > CANCEL_EPS || term.factors.is_empty() {
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

//! Canonical data-value terms with symbolic (affine) array indices, and
//! normalization of IR expressions against a symbolic machine state.
//!
//! This is the verifier-side analogue of `stng_sym::SymExpr`: where the
//! synthesizer's symbolic execution uses concrete indices (loop bounds are
//! concrete), the sound verifier reasons about *all* states, so array indices
//! are affine expressions over the free integer variables of a verification
//! condition. Values are kept in sum-of-products normal form; array reads are
//! resolved against the symbolic store list using the linear context
//! (read-over-write with provable index equality/disequality).
//!
//! Like `SymExpr`, normal forms are **hash-consed**: [`NormExpr`] is a
//! `Copy`able reference to a canonical interned node, equality and hashing
//! are O(1) pointer operations, and the ring operations plus atom
//! substitution are memoized on node identity. Factor multisets are the
//! shared interned `stng_intern::sop::Factors`, so an [`NMono`] is `Copy`.
//! The prover's case-split search re-executes VC bodies and re-rewrites
//! goals under many linear contexts; with consing, every re-normalization of
//! an already-seen operand pair is a table hit instead of a tree rebuild.

use crate::lin::LinCtx;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use stng_intern::sop::{self, FactorAtom, FactorSet, Factors, Mono};
use stng_intern::{f64_key, ConsSet, Memo, Symbol};
use stng_ir::ir::{Affine, BinOp, IrExpr};

/// Failures raised during normalization.
#[derive(Debug, Clone, PartialEq)]
pub enum NormErr {
    /// An array read could not be resolved against a store because the index
    /// comparison is neither provably equal nor provably different; the
    /// caller should case-split on the two affine expressions.
    Ambiguous {
        /// Index component of the read.
        read_index: Affine,
        /// Index component of the store it clashed with.
        store_index: Affine,
    },
    /// The expression falls outside the supported fragment.
    Unsupported(String),
}

impl fmt::Display for NormErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormErr::Ambiguous {
                read_index,
                store_index,
            } => write!(
                f,
                "ambiguous store resolution: cannot order {read_index:?} against {store_index:?}"
            ),
            NormErr::Unsupported(msg) => write!(f, "unsupported expression: {msg}"),
        }
    }
}

/// An atomic factor of a normalized data term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NAtom {
    /// A read of the *pre-state* value of an array at affine indices.
    Load {
        /// Array name.
        array: Symbol,
        /// Affine index per dimension.
        indices: Vec<Affine>,
    },
    /// A free real scalar of the pre-state.
    Var(Symbol),
    /// An application of a pure (uninterpreted) function.
    Apply {
        /// Function name.
        func: Symbol,
        /// Normalized arguments.
        args: Vec<NormExpr>,
    },
    /// An opaque quotient.
    Quot {
        /// Numerator.
        num: NormExpr,
        /// Denominator.
        den: NormExpr,
    },
}

impl PartialOrd for NAtom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NAtom {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(a: &NAtom) -> u8 {
            match a {
                NAtom::Load { .. } => 0,
                NAtom::Var(_) => 1,
                NAtom::Apply { .. } => 2,
                NAtom::Quot { .. } => 3,
            }
        }
        match (self, other) {
            (
                NAtom::Load {
                    array: a1,
                    indices: i1,
                },
                NAtom::Load {
                    array: a2,
                    indices: i2,
                },
            ) => a1.cmp(a2).then_with(|| i1.cmp(i2)),
            (NAtom::Var(a), NAtom::Var(b)) => a.cmp(b),
            (NAtom::Apply { func: f1, args: x1 }, NAtom::Apply { func: f2, args: x2 }) => {
                f1.cmp(f2).then_with(|| x1.cmp(x2))
            }
            (NAtom::Quot { num: n1, den: d1 }, NAtom::Quot { num: n2, den: d2 }) => {
                n1.cmp(n2).then_with(|| d1.cmp(d2))
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// One monomial: coefficient × product of atoms.
#[derive(Debug, Clone, Copy)]
pub struct NMono {
    /// Coefficient.
    pub coeff: f64,
    /// Factors and their powers, sorted (interned).
    pub factors: Factors<NAtom>,
}

impl PartialEq for NMono {
    fn eq(&self, other: &Self) -> bool {
        self.coeff == other.coeff && self.factors == other.factors
    }
}

impl Eq for NMono {}

impl std::hash::Hash for NMono {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        f64_key(self.coeff).hash(state);
        self.factors.hash(state);
    }
}

impl PartialOrd for NMono {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NMono {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_cmp(other)
            .then_with(|| self.coeff.total_cmp(&other.coeff))
    }
}

impl NMono {
    fn constant(c: f64) -> NMono {
        NMono {
            coeff: c,
            factors: Factors::empty(),
        }
    }

    fn atom(a: NAtom) -> NMono {
        NMono {
            coeff: 1.0,
            factors: Factors::one(a),
        }
    }

    fn mul(&self, other: &NMono) -> NMono {
        NMono {
            coeff: self.coeff * other.coeff,
            factors: sop::merge_factors(self.factors, other.factors),
        }
    }
}

impl Mono for NMono {
    fn coeff(&self) -> f64 {
        self.coeff
    }

    fn with_coeff(&self, coeff: f64) -> NMono {
        NMono {
            coeff,
            factors: self.factors,
        }
    }

    fn key_cmp(&self, other: &NMono) -> Ordering {
        self.factors.cmp(&other.factors)
    }
}

/// The interned payload of a [`NormExpr`].
#[derive(Debug, PartialEq, Eq, Hash)]
struct NNode {
    /// Monomials, sorted and merged.
    terms: Vec<NMono>,
}

static NEXPRS: ConsSet<NNode> = ConsSet::new();
static NFACTORS: ConsSet<FactorSet<NAtom>> = ConsSet::new();
static MEMO_ADD: Memo<(usize, usize), NormExpr> = Memo::new();
static MEMO_MUL: Memo<(usize, usize), NormExpr> = Memo::new();
static MEMO_DIV: Memo<(usize, usize), NormExpr> = Memo::new();
static MEMO_NEG: Memo<usize, NormExpr> = Memo::new();
static MEMO_SUBST: Memo<(usize, NAtom, usize), NormExpr> = Memo::new();

impl FactorAtom for NAtom {
    fn factor_arena() -> &'static ConsSet<FactorSet<NAtom>> {
        &NFACTORS
    }
}

/// Occupancy snapshots of the normal-form and factor-set arenas and their
/// memos.
pub fn arena_stats() -> Vec<stng_intern::ArenaStats> {
    vec![
        NEXPRS.stats("solve.nexprs"),
        NFACTORS.stats("solve.nfactors"),
        MEMO_ADD.stats("solve.memo_add"),
        MEMO_MUL.stats("solve.memo_mul"),
        MEMO_DIV.stats("solve.memo_div"),
        MEMO_NEG.stats("solve.memo_neg"),
        MEMO_SUBST.stats("solve.memo_subst"),
    ]
}

/// Sweeps the normal-form arena and memo tables, evicting entries last used
/// before `cutoff`. Returns the total number of entries evicted. Same
/// quiescence contract and sweep order (memos, nodes, factor sets) as
/// `stng_sym::retain_epoch`.
pub fn retain_epoch(cutoff: u64) -> usize {
    MEMO_ADD.retain_epoch(cutoff)
        + MEMO_MUL.retain_epoch(cutoff)
        + MEMO_DIV.retain_epoch(cutoff)
        + MEMO_NEG.retain_epoch(cutoff)
        + MEMO_SUBST.retain_epoch(cutoff)
        + NEXPRS.retain_epoch(cutoff)
        + NFACTORS.retain_epoch(cutoff)
}

/// A normalized data expression: sum of monomials, hash-consed.
///
/// `NormExpr` is a `Copy`able reference to the canonical interned node, so
/// structural equality and hashing are O(1) and cloning is free.
#[derive(Clone, Copy)]
pub struct NormExpr(&'static NNode);

impl PartialEq for NormExpr {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for NormExpr {}

impl std::hash::Hash for NormExpr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialOrd for NormExpr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NormExpr {
    fn cmp(&self, other: &Self) -> Ordering {
        if std::ptr::eq(self.0, other.0) {
            Ordering::Equal
        } else {
            self.0.terms.cmp(&other.0.terms)
        }
    }
}

impl Default for NormExpr {
    fn default() -> Self {
        NormExpr::zero()
    }
}

impl fmt::Debug for NormExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NormExpr({self})")
    }
}

impl NormExpr {
    fn cons(terms: Vec<NMono>) -> NormExpr {
        NormExpr(NEXPRS.intern(NNode { terms }))
    }

    fn key(self) -> usize {
        self.0 as *const NNode as usize
    }

    /// Monomials, sorted and merged.
    pub fn terms(self) -> &'static [NMono] {
        &self.0.terms
    }

    /// Number of distinct normal forms interned process-wide (diagnostics).
    pub fn arena_len() -> usize {
        NEXPRS.len()
    }

    /// The zero expression.
    pub fn zero() -> NormExpr {
        NormExpr::cons(Vec::new())
    }

    /// A constant.
    pub fn constant(c: f64) -> NormExpr {
        NormExpr::normalized(vec![NMono::constant(c)])
    }

    /// A single atom.
    pub fn atom(a: NAtom) -> NormExpr {
        NormExpr::cons(vec![NMono::atom(a)])
    }

    /// A free real scalar.
    pub fn var(name: impl Into<Symbol>) -> NormExpr {
        NormExpr::atom(NAtom::Var(name.into()))
    }

    /// A pre-state array read.
    pub fn load(array: impl Into<Symbol>, indices: Vec<Affine>) -> NormExpr {
        NormExpr::atom(NAtom::Load {
            array: array.into(),
            indices,
        })
    }

    /// Sum: one linear merge over the two (already sorted) normal forms.
    pub fn add(&self, other: &NormExpr) -> NormExpr {
        let (a, b) = if self.key() <= other.key() {
            (*self, *other)
        } else {
            (*other, *self)
        };
        let memo_key = (a.key(), b.key());
        if let Some(cached) = MEMO_ADD.get(&memo_key) {
            return cached;
        }
        let result = NormExpr::cons(sop::merge_sum(a.terms(), b.terms()));
        MEMO_ADD.insert(memo_key, result);
        result
    }

    /// Difference.
    pub fn sub(&self, other: &NormExpr) -> NormExpr {
        self.add(&other.neg())
    }

    /// Product.
    pub fn mul(&self, other: &NormExpr) -> NormExpr {
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
        let result = NormExpr::normalized(terms);
        MEMO_MUL.insert(memo_key, result);
        result
    }

    /// Negation (canonical without re-sorting: keys are coefficient-free).
    pub fn neg(&self) -> NormExpr {
        if let Some(cached) = MEMO_NEG.get(&self.key()) {
            return cached;
        }
        let terms = self
            .terms()
            .iter()
            .map(|t| t.with_coeff(-t.coeff))
            .collect();
        let result = NormExpr::cons(terms);
        MEMO_NEG.insert(self.key(), result);
        result
    }

    /// Quotient (kept opaque unless the divisor is a non-zero constant).
    pub fn div(&self, other: &NormExpr) -> NormExpr {
        let memo_key = (self.key(), other.key());
        if let Some(cached) = MEMO_DIV.get(&memo_key) {
            return cached;
        }
        let result = if let Some(c) = other.as_constant() {
            if c.abs() > 1e-12 {
                NormExpr::normalized(
                    self.terms()
                        .iter()
                        .map(|t| t.with_coeff(t.coeff / c))
                        .collect(),
                )
            } else {
                NormExpr::zero()
            }
        } else if self == other {
            NormExpr::constant(1.0)
        } else {
            NormExpr::atom(NAtom::Quot {
                num: *self,
                den: *other,
            })
        };
        MEMO_DIV.insert(memo_key, result);
        result
    }

    /// Returns `Some(c)` when the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<f64> {
        match self.terms().len() {
            0 => Some(0.0),
            1 if self.terms()[0].factors.is_empty() => Some(self.terms()[0].coeff),
            _ => None,
        }
    }

    /// Structural equality up to a small coefficient tolerance (verification
    /// is with respect to the reals, so tiny floating-point drift from
    /// constant folding must not cause spurious mismatches).
    pub fn approx_eq(&self, other: &NormExpr) -> bool {
        if self == other {
            return true;
        }
        if self.terms().len() != other.terms().len() {
            return false;
        }
        self.terms().iter().zip(other.terms()).all(|(a, b)| {
            a.factors == b.factors && {
                let scale = a.coeff.abs().max(b.coeff.abs()).max(1.0);
                (a.coeff - b.coeff).abs() <= 1e-9 * scale
            }
        })
    }

    /// Structural equality *modulo the linear context*: two expressions are
    /// equal when their monomials can be matched one-to-one with equal
    /// coefficients and factors, where array-read atoms compare by provable
    /// index equality rather than syntactic identity. This is what lets the
    /// verifier accept `b[q!vi, q!vj]` against `b[i, j]` inside a case branch
    /// that has assumed `q!vi = i ∧ q!vj = j`.
    pub fn eq_mod_ctx(&self, other: &NormExpr, ctx: &LinCtx) -> bool {
        if self.approx_eq(other) {
            return true;
        }
        if self.terms().len() != other.terms().len() {
            return false;
        }
        let mut used = vec![false; other.terms().len()];
        'outer: for a in self.terms() {
            for (k, b) in other.terms().iter().enumerate() {
                if used[k] {
                    continue;
                }
                let scale = a.coeff.abs().max(b.coeff.abs()).max(1.0);
                if (a.coeff - b.coeff).abs() > 1e-9 * scale {
                    continue;
                }
                if monomial_factors_eq_mod_ctx(a, b, ctx) {
                    used[k] = true;
                    continue 'outer;
                }
            }
            return false;
        }
        true
    }

    /// All pre-state load atoms occurring at the top level of monomials or
    /// nested inside applications/quotients. Returned as borrows of the
    /// interned ('static) nodes — no index vectors are copied.
    pub fn loads(self) -> Vec<(Symbol, &'static [Affine])> {
        let mut out = Vec::new();
        self.collect_loads(&mut out);
        out
    }

    fn collect_loads(self, out: &mut Vec<(Symbol, &'static [Affine])>) {
        for term in self.terms() {
            for atom in term.factors.atoms() {
                match atom {
                    NAtom::Load { array, indices } => {
                        let entry = (*array, indices.as_slice());
                        if !out.contains(&entry) {
                            out.push(entry);
                        }
                    }
                    NAtom::Apply { args, .. } => {
                        for a in args {
                            a.collect_loads(out);
                        }
                    }
                    NAtom::Quot { num, den } => {
                        num.collect_loads(out);
                        den.collect_loads(out);
                    }
                    NAtom::Var(_) => {}
                }
            }
        }
    }

    /// Replaces every occurrence of `target` (a load atom) with `value`,
    /// including inside applications and quotients. Memoized on the consed
    /// identities of the expression and replacement.
    pub fn subst_atom(&self, target: &NAtom, value: &NormExpr) -> NormExpr {
        let memo_key = (self.key(), target.clone(), value.key());
        if let Some(cached) = MEMO_SUBST.get(&memo_key) {
            return cached;
        }
        let mut result = NormExpr::zero();
        for term in self.terms() {
            let mut factor_expr = NormExpr::constant(term.coeff);
            for (atom, power) in term.factors.iter() {
                let replacement = if atom == target {
                    *value
                } else {
                    // Recurse into composite atoms.
                    match atom {
                        NAtom::Apply { func, args } => NormExpr::atom(NAtom::Apply {
                            func: *func,
                            args: args.iter().map(|a| a.subst_atom(target, value)).collect(),
                        }),
                        NAtom::Quot { num, den } => NormExpr::atom(NAtom::Quot {
                            num: num.subst_atom(target, value),
                            den: den.subst_atom(target, value),
                        }),
                        other => NormExpr::atom(other.clone()),
                    }
                };
                for _ in 0..*power {
                    factor_expr = factor_expr.mul(&replacement);
                }
            }
            result = result.add(&factor_expr);
        }
        MEMO_SUBST.insert(memo_key, result);
        result
    }

    fn normalized(terms: Vec<NMono>) -> NormExpr {
        NormExpr::cons(sop::normalize(terms))
    }
}

impl fmt::Display for NormExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms().is_empty() {
            return write!(f, "0");
        }
        for (k, term) in self.terms().iter().enumerate() {
            if k > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}", term.coeff)?;
            for (atom, power) in term.factors.iter() {
                write!(f, "*")?;
                match atom {
                    NAtom::Load { array, indices } => {
                        write!(f, "{array}[")?;
                        for (n, ix) in indices.iter().enumerate() {
                            if n > 0 {
                                write!(f, ",")?;
                            }
                            write!(f, "{}", ix.to_expr())?;
                        }
                        write!(f, "]")?;
                    }
                    NAtom::Var(name) => write!(f, "{name}")?,
                    NAtom::Apply { func, args } => {
                        write!(f, "{func}(")?;
                        for (n, a) in args.iter().enumerate() {
                            if n > 0 {
                                write!(f, ",")?;
                            }
                            write!(f, "{a}")?;
                        }
                        write!(f, ")")?;
                    }
                    NAtom::Quot { num, den } => write!(f, "({num}/{den})")?,
                }
                if *power > 1 {
                    write!(f, "^{power}")?;
                }
            }
        }
        Ok(())
    }
}

fn monomial_factors_eq_mod_ctx(a: &NMono, b: &NMono, ctx: &LinCtx) -> bool {
    if a.factors.len() != b.factors.len() {
        return false;
    }
    let mut used = vec![false; b.factors.len()];
    'outer: for (atom_a, pow_a) in a.factors.iter() {
        for (k, (atom_b, pow_b)) in b.factors.iter().enumerate() {
            if used[k] || pow_a != pow_b {
                continue;
            }
            if atom_eq_mod_ctx(atom_a, atom_b, ctx) {
                used[k] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Equality of atoms modulo the linear context (indices of array reads are
/// compared by entailment).
pub fn atom_eq_mod_ctx(a: &NAtom, b: &NAtom, ctx: &LinCtx) -> bool {
    match (a, b) {
        (
            NAtom::Load {
                array: a1,
                indices: i1,
            },
            NAtom::Load {
                array: a2,
                indices: i2,
            },
        ) => {
            a1 == a2
                && i1.len() == i2.len()
                && i1
                    .iter()
                    .zip(i2)
                    .all(|(x, y)| x == y || ctx.entails_eq(x, y))
        }
        (NAtom::Var(x), NAtom::Var(y)) => x == y,
        (NAtom::Apply { func: f1, args: x1 }, NAtom::Apply { func: f2, args: x2 }) => {
            f1 == f2 && x1.len() == x2.len() && x1.iter().zip(x2).all(|(p, q)| p.eq_mod_ctx(q, ctx))
        }
        (NAtom::Quot { num: n1, den: d1 }, NAtom::Quot { num: n2, den: d2 }) => {
            n1.eq_mod_ctx(n2, ctx) && d1.eq_mod_ctx(d2, ctx)
        }
        _ => false,
    }
}

/// One symbolic store performed by a VC body.
#[derive(Debug, Clone, PartialEq)]
pub struct Store {
    /// Array written.
    pub array: Symbol,
    /// Affine index per dimension (over the VC's free integer variables).
    pub indices: Vec<Affine>,
    /// The stored value, normalized over the pre-state.
    pub value: NormExpr,
}

/// The symbolic machine state a VC body is executed against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymState {
    /// Integer scalars updated by the body, as affine functions of the
    /// pre-state variables. Variables not present map to themselves. Keyed
    /// by interned name.
    pub int_env: BTreeMap<Symbol, Affine>,
    /// Real scalars with known symbolic values (from hypotheses or body
    /// assignments), over the pre-state. Keyed by interned name and shared
    /// copy-on-write: forking a state for another proof attempt copies a
    /// pointer, not strings and trees.
    pub real_env: std::sync::Arc<BTreeMap<Symbol, NormExpr>>,
    /// Stores performed so far, in execution order.
    pub stores: Vec<Store>,
}

impl SymState {
    /// The affine value of integer scalar `name` in the current state.
    pub fn int_value(&self, name: &str) -> Affine {
        let sym = Symbol::intern(name);
        self.int_env
            .get(&sym)
            .cloned()
            .unwrap_or_else(|| Affine::var(sym))
    }

    /// Normalizes an integer expression to an affine form over the pre-state
    /// variables.
    pub fn norm_int(&self, e: &IrExpr) -> Option<Affine> {
        match e {
            IrExpr::Int(v) => Some(Affine::constant(*v)),
            IrExpr::Var(name) => Some(self.int_value(name)),
            IrExpr::Bin { op, lhs, rhs } => {
                let l = self.norm_int(lhs)?;
                let r = self.norm_int(rhs)?;
                match op {
                    BinOp::Add => Some(l.add(&r)),
                    BinOp::Sub => Some(l.sub(&r)),
                    BinOp::Mul => {
                        if let Some(c) = l.as_constant() {
                            Some(r.scale(c))
                        } else {
                            r.as_constant().map(|c| l.scale(c))
                        }
                    }
                    BinOp::Div => None,
                }
            }
            _ => None,
        }
    }

    /// Normalizes a data expression over the pre-state, resolving reads of
    /// stored arrays via the linear context.
    ///
    /// # Errors
    ///
    /// Returns [`NormErr::Ambiguous`] when a read cannot be ordered against a
    /// store (the caller should case-split) and [`NormErr::Unsupported`] for
    /// expressions outside the fragment.
    pub fn norm_data(&self, e: &IrExpr, ctx: &LinCtx) -> Result<NormExpr, NormErr> {
        match e {
            IrExpr::Real(v) => Ok(NormExpr::constant(*v)),
            IrExpr::Int(v) => Ok(NormExpr::constant(*v as f64)),
            IrExpr::Var(name) => {
                if let Some(v) = self.real_env.get(&Symbol::intern(name)) {
                    Ok(*v)
                } else if let Some(aff) = self.int_env.get(&Symbol::intern(name)) {
                    aff.as_constant()
                        .map(|c| NormExpr::constant(c as f64))
                        .ok_or_else(|| {
                            NormErr::Unsupported(format!(
                                "integer scalar '{name}' used as data value"
                            ))
                        })
                } else {
                    Ok(NormExpr::var(name.as_str()))
                }
            }
            IrExpr::Load { array, indices } => {
                let idx: Option<Vec<Affine>> = indices.iter().map(|ix| self.norm_int(ix)).collect();
                let idx = idx.ok_or_else(|| {
                    NormErr::Unsupported(format!("non-affine index into '{array}'"))
                })?;
                self.resolve_load(Symbol::intern(array), &idx, ctx)
            }
            IrExpr::Bin { op, lhs, rhs } => {
                let l = self.norm_data(lhs, ctx)?;
                let r = self.norm_data(rhs, ctx)?;
                Ok(match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => l.div(&r),
                })
            }
            IrExpr::Call { func, args } => {
                let mut nargs = Vec::new();
                for a in args {
                    nargs.push(self.norm_data(a, ctx)?);
                }
                Ok(NormExpr::atom(NAtom::Apply {
                    func: Symbol::intern(func),
                    args: nargs,
                }))
            }
            other => Err(NormErr::Unsupported(format!(
                "expression '{other}' is not a data expression"
            ))),
        }
    }

    /// Resolves a read of `array` at `indices` against the store list
    /// (read-over-write, most recent store first).
    ///
    /// # Errors
    ///
    /// See [`SymState::norm_data`].
    pub fn resolve_load(
        &self,
        array: impl Into<Symbol>,
        indices: &[Affine],
        ctx: &LinCtx,
    ) -> Result<NormExpr, NormErr> {
        let array = array.into();
        for store in self.stores.iter().rev() {
            if store.array != array || store.indices.len() != indices.len() {
                continue;
            }
            // Decide componentwise whether the read aliases this store.
            let mut all_equal = true;
            let mut any_unequal = false;
            let mut ambiguous: Option<(Affine, Affine)> = None;
            for (ri, si) in indices.iter().zip(&store.indices) {
                if ctx.entails_eq(ri, si) {
                    continue;
                }
                all_equal = false;
                if ctx.entails_ne(ri, si) {
                    any_unequal = true;
                    break;
                }
                ambiguous = Some((ri.clone(), si.clone()));
            }
            if all_equal {
                return Ok(store.value);
            }
            if any_unequal {
                continue;
            }
            if let Some((read_index, store_index)) = ambiguous {
                return Err(NormErr::Ambiguous {
                    read_index,
                    store_index,
                });
            }
        }
        Ok(NormExpr::load(array, indices.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aff(name: &str) -> Affine {
        Affine::var(name.to_string())
    }

    #[test]
    fn ring_normalization_matches() {
        // 2*(x + b[i]) - x - x == 2*b[i]
        let x = NormExpr::var("x");
        let b = NormExpr::load("b", vec![aff("i")]);
        let lhs = NormExpr::constant(2.0).mul(&x.add(&b)).sub(&x).sub(&x);
        let rhs = NormExpr::constant(2.0).mul(&b);
        assert!(lhs.approx_eq(&rhs));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn store_resolution_equal_and_unequal() {
        let mut ctx = LinCtx::new();
        ctx.assume_eq(&aff("vi"), &aff("i"));
        let state = SymState {
            stores: vec![Store {
                array: "a".into(),
                indices: vec![aff("i")],
                value: NormExpr::var("x"),
            }],
            ..SymState::default()
        };
        // vi = i: the read sees the stored value.
        let v = state.resolve_load("a", &[aff("vi")], &ctx).unwrap();
        assert_eq!(v, NormExpr::var("x"));

        // vj ≤ i - 1: provably different, falls through to the pre-state.
        let mut ctx2 = LinCtx::new();
        let mut i_minus_1 = aff("i");
        i_minus_1.constant -= 1;
        ctx2.assume_le(&aff("vj"), &i_minus_1);
        let v = state.resolve_load("a", &[aff("vj")], &ctx2).unwrap();
        assert_eq!(v, NormExpr::load("a", vec![aff("vj")]));
    }

    #[test]
    fn ambiguous_store_resolution_is_reported() {
        let state = SymState {
            stores: vec![Store {
                array: "a".into(),
                indices: vec![aff("i")],
                value: NormExpr::var("x"),
            }],
            ..SymState::default()
        };
        let err = state
            .resolve_load("a", &[aff("vi")], &LinCtx::new())
            .unwrap_err();
        assert!(matches!(err, NormErr::Ambiguous { .. }));
    }

    #[test]
    fn norm_data_uses_real_env_and_int_env() {
        let mut state = SymState::default();
        std::sync::Arc::make_mut(&mut state.real_env)
            .insert("t".into(), NormExpr::load("b", vec![aff("i")]));
        state
            .int_env
            .insert("j".into(), aff("i").add(&Affine::constant(1)));
        let e = IrExpr::add(IrExpr::var("t"), IrExpr::Real(1.0));
        let n = state.norm_data(&e, &LinCtx::new()).unwrap();
        assert_eq!(
            n,
            NormExpr::load("b", vec![aff("i")]).add(&NormExpr::constant(1.0))
        );
        // Index normalization honours the int environment.
        let load = IrExpr::Load {
            array: "b".into(),
            indices: vec![IrExpr::var("j")],
        };
        let n = state.norm_data(&load, &LinCtx::new()).unwrap();
        assert_eq!(
            n,
            NormExpr::load("b", vec![aff("i").add(&Affine::constant(1))])
        );
    }

    #[test]
    fn atom_substitution_rewrites_nested_occurrences() {
        let target = NAtom::Load {
            array: "a".into(),
            indices: vec![aff("vi")],
        };
        let expr = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::atom(target.clone())],
        })
        .add(&NormExpr::atom(target.clone()));
        assert_eq!(expr.loads().len(), 1);
        let replaced = expr.subst_atom(&target, &NormExpr::var("x"));
        assert!(replaced.loads().is_empty());
        assert!(replaced.to_string().contains("exp(1*x)") || replaced.to_string().contains("exp"));
    }

    #[test]
    fn uninterpreted_functions_respect_congruence_via_normal_form() {
        let a1 = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::load("b", vec![aff("i")])],
        });
        let a2 = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::load("b", vec![aff("i")])],
        });
        assert_eq!(a1, a2);
        assert!(a1.sub(&a2).approx_eq(&NormExpr::zero()));
    }

    #[test]
    fn consed_equality_is_pointer_equality() {
        let a = NormExpr::var("x").add(&NormExpr::load("b", vec![aff("i")]));
        let b = NormExpr::load("b", vec![aff("i")]).add(&NormExpr::var("x"));
        assert!(std::ptr::eq(a.0, b.0));
    }
}

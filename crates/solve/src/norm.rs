//! Canonical data-value terms with symbolic (affine) array indices, and
//! normalization of IR expressions against a symbolic machine state.
//!
//! [`NormExpr`] is the shared hash-consed sum-of-products ring
//! (`stng_intern::sop`, also behind `stng_sym::SymExpr`) instantiated at
//! [`Symbolic`]: where the synthesizer's symbolic execution uses concrete
//! indices (loop bounds are concrete), the sound verifier reasons about
//! *all* states, so array indices are affine expressions over the free
//! integer variables of a verification condition. Array reads are resolved
//! against the symbolic store list using the linear context (read-over-write
//! with provable index equality/disequality).
//!
//! This module adds what only the prover needs: equality up to coefficient
//! drift ([`approx_eq`]) and modulo the linear context ([`eq_mod_ctx`]),
//! memoized atom substitution ([`subst_atom`]), and the symbolic machine
//! state ([`SymState`]). The prover's case-split search re-executes VC
//! bodies and re-rewrites goals under many linear contexts; with consing,
//! every re-normalization of an already-seen operand pair is a table hit
//! instead of a tree rebuild.

use crate::lin::LinCtx;
use std::collections::BTreeMap;
use std::fmt;
use stng_intern::sop::{self, Domain, Tables};
use stng_intern::{Memo, Symbol};
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

/// The prover's atom domain: array reads at affine indices over the free
/// integer variables of a verification condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbolic;

/// The normal-form arena, factor-set arena and ring memos of [`NormExpr`].
static TABLES: Tables<Symbolic> = Tables::new([
    "solve.nexprs",
    "solve.nfactors",
    "solve.memo_add",
    "solve.memo_mul",
    "solve.memo_div",
    "solve.memo_neg",
]);
static MEMO_SUBST: Memo<(usize, NAtom, usize), NormExpr> = Memo::new();

impl Domain for Symbolic {
    type Index = Affine;
    const NAME: &'static str = "NormExpr";
    const READABLE: bool = false;

    fn tables() -> &'static Tables<Symbolic> {
        &TABLES
    }
}

/// A normalized data expression: sum of monomials, hash-consed.
pub type NormExpr = sop::Expr<Symbolic>;
/// An atomic factor of a normalized data term; a `Read` is of the
/// *pre-state* value of an array.
pub type NAtom = sop::Atom<Symbolic>;
/// One monomial of a [`NormExpr`].
pub type NMono = sop::Monomial<Symbolic>;

/// Occupancy snapshots of the normal-form and factor-set arenas and their
/// memos.
pub fn arena_stats() -> Vec<stng_intern::ArenaStats> {
    let mut stats = TABLES.stats();
    stats.push(MEMO_SUBST.stats("solve.memo_subst"));
    stats
}

/// Empties the normal-form and factor-set arenas and their memos; returns
/// the number of entries cleared.
pub fn clear(q: &stng_intern::Quiescent) -> usize {
    MEMO_SUBST.clear(q) + TABLES.clear(q)
}

/// Structural equality up to a small coefficient tolerance (verification is
/// with respect to the reals, so tiny floating-point drift from constant
/// folding must not cause spurious mismatches).
pub fn approx_eq(a: NormExpr, b: NormExpr) -> bool {
    a == b
        || a.terms().len() == b.terms().len()
            && a.terms()
                .iter()
                .zip(b.terms())
                .all(|(x, y)| x.factors == y.factors && coeffs_close(x.coeff, y.coeff))
}

fn coeffs_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

/// Structural equality *modulo the linear context*: two expressions are
/// equal when their monomials can be matched one-to-one with equal
/// coefficients and factors, where array-read atoms compare by provable
/// index equality rather than syntactic identity. This is what lets the
/// verifier accept `b[q!vi, q!vj]` against `b[i, j]` inside a case branch
/// that has assumed `q!vi = i ∧ q!vj = j`.
pub fn eq_mod_ctx(a: NormExpr, b: NormExpr, ctx: &LinCtx) -> bool {
    if approx_eq(a, b) {
        return true;
    }
    if a.terms().len() != b.terms().len() {
        return false;
    }
    let mut used = vec![false; b.terms().len()];
    'outer: for x in a.terms() {
        for (k, y) in b.terms().iter().enumerate() {
            if used[k] || !coeffs_close(x.coeff, y.coeff) {
                continue;
            }
            if monomial_factors_eq_mod_ctx(x, y, ctx) {
                used[k] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Replaces every occurrence of `target` (a read atom) in `expr` with
/// `value`, including inside applications and quotients. Memoized on the
/// consed identities of the expression and replacement.
pub fn subst_atom(expr: NormExpr, target: &NAtom, value: NormExpr) -> NormExpr {
    MEMO_SUBST.get_or_insert_with((expr.key(), target.clone(), value.key()), || {
        let mut result = NormExpr::zero();
        for term in expr.terms() {
            let mut factor_expr = NormExpr::constant(term.coeff);
            for (atom, power) in term.factors.iter() {
                let replacement = if atom == target {
                    value
                } else {
                    // Recurse into composite atoms.
                    match atom {
                        NAtom::Apply { func, args } => NormExpr::apply(
                            *func,
                            args.iter().map(|a| subst_atom(*a, target, value)).collect(),
                        ),
                        NAtom::Quot { num, den } => NormExpr::atom(NAtom::Quot {
                            num: subst_atom(*num, target, value),
                            den: subst_atom(*den, target, value),
                        }),
                        other => NormExpr::atom(other.clone()),
                    }
                };
                for _ in 0..*power {
                    factor_expr = factor_expr * replacement;
                }
            }
            result = result + factor_expr;
        }
        result
    })
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
            NAtom::Read {
                array: a1,
                indices: i1,
            },
            NAtom::Read {
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
            f1 == f2
                && x1.len() == x2.len()
                && x1.iter().zip(x2).all(|(p, q)| eq_mod_ctx(*p, *q, ctx))
        }
        (NAtom::Quot { num: n1, den: d1 }, NAtom::Quot { num: n2, den: d2 }) => {
            eq_mod_ctx(*n1, *n2, ctx) && eq_mod_ctx(*d1, *d2, ctx)
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
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
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
        Ok(NormExpr::read(array, indices.to_vec()))
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
        let b = NormExpr::read("b", vec![aff("i")]);
        let lhs = NormExpr::constant(2.0) * (x + b) - x - x;
        let rhs = NormExpr::constant(2.0) * b;
        assert!(approx_eq(lhs, rhs));
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
        assert_eq!(v, NormExpr::read("a", vec![aff("vj")]));
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
            .insert("t".into(), NormExpr::read("b", vec![aff("i")]));
        state
            .int_env
            .insert("j".into(), aff("i").add(&Affine::constant(1)));
        let e = IrExpr::add(IrExpr::var("t"), IrExpr::Real(1.0));
        let n = state.norm_data(&e, &LinCtx::new()).unwrap();
        assert_eq!(
            n,
            NormExpr::read("b", vec![aff("i")]) + NormExpr::constant(1.0)
        );
        // Index normalization honours the int environment.
        let load = IrExpr::Load {
            array: "b".into(),
            indices: vec![IrExpr::var("j")],
        };
        let n = state.norm_data(&load, &LinCtx::new()).unwrap();
        assert_eq!(
            n,
            NormExpr::read("b", vec![aff("i").add(&Affine::constant(1))])
        );
    }

    #[test]
    fn atom_substitution_rewrites_nested_occurrences() {
        let target = NAtom::Read {
            array: "a".into(),
            indices: vec![aff("vi")],
        };
        let expr = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::atom(target.clone())],
        }) + NormExpr::atom(target.clone());
        assert_eq!(expr.reads().len(), 1);
        let replaced = subst_atom(expr, &target, NormExpr::var("x"));
        assert!(replaced.reads().is_empty());
        assert!(replaced.to_string().contains("exp(1*x)") || replaced.to_string().contains("exp"));
    }

    #[test]
    fn uninterpreted_functions_respect_congruence_via_normal_form() {
        let a1 = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::read("b", vec![aff("i")])],
        });
        let a2 = NormExpr::atom(NAtom::Apply {
            func: "exp".into(),
            args: vec![NormExpr::read("b", vec![aff("i")])],
        });
        assert_eq!(a1, a2);
        assert!(approx_eq(a1 - a2, NormExpr::zero()));
    }

    #[test]
    fn consed_equality_is_pointer_equality() {
        let a = NormExpr::var("x") + NormExpr::read("b", vec![aff("i")]);
        let b = NormExpr::read("b", vec![aff("i")]) + NormExpr::var("x");
        assert!(std::ptr::eq(a.terms(), b.terms()));
    }
}

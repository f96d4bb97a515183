//! The predicate language (stylized grammar of Fig. 4).
//!
//! Expressions on the right-hand side of `outEq` constraints reuse
//! [`IrExpr`], restricted by construction to the grammar's `exp` production:
//! sums/products of weighted input-array reads, floating-point scalars, and
//! pure function applications, with index expressions of the form
//! `quantified-variable + constant`.

use std::fmt;
use stng_ir::ir::{CmpOp, IrExpr};

/// The bounds of one universally quantified index variable:
/// `lo (<|≤) var (<|≤) hi`, optionally restricted to the arithmetic
/// progression `var ∈ { lo, lo + step, lo + 2·step, … }` when `step > 1`
/// (the §6.5 extension: index variables range over `lo + step·k` for a fresh
/// bound counter `k ≥ 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantBound {
    /// The quantified variable.
    pub var: String,
    /// Lower bound expression.
    pub lo: IrExpr,
    /// `true` when the lower bound is strict (`lo < var`), `false` for `≤`.
    pub lo_strict: bool,
    /// Upper bound expression.
    pub hi: IrExpr,
    /// `true` when the upper bound is strict (`var < hi`), `false` for `≤`.
    pub hi_strict: bool,
    /// Domain stride: `1` for the dense case, otherwise the variable only
    /// takes values congruent to the inclusive lower bound modulo `step`.
    pub step: i64,
}

impl QuantBound {
    /// An inclusive bound `lo ≤ var ≤ hi`.
    pub fn inclusive(var: impl Into<String>, lo: IrExpr, hi: IrExpr) -> QuantBound {
        QuantBound {
            var: var.into(),
            lo,
            lo_strict: false,
            hi,
            hi_strict: false,
            step: 1,
        }
    }

    /// An inclusive strided bound: `var ∈ { lo, lo+step, … } ∩ [lo, hi]`.
    pub fn strided(var: impl Into<String>, lo: IrExpr, hi: IrExpr, step: i64) -> QuantBound {
        QuantBound {
            step,
            ..QuantBound::inclusive(var, lo, hi)
        }
    }

    /// Returns `true` for a dense (`step == 1`) domain.
    pub fn is_dense(&self) -> bool {
        self.step == 1
    }

    /// The inclusive lower bound as an expression (`lo` or `lo + 1`).
    pub fn inclusive_lo(&self) -> IrExpr {
        if self.lo_strict {
            IrExpr::add(self.lo.clone(), IrExpr::Int(1))
        } else {
            self.lo.clone()
        }
    }

    /// The inclusive upper bound as an expression (`hi` or `hi - 1`).
    pub fn inclusive_hi(&self) -> IrExpr {
        if self.hi_strict {
            IrExpr::sub(self.hi.clone(), IrExpr::Int(1))
        } else {
            self.hi.clone()
        }
    }

    /// The bound as a pair of boolean [`IrExpr`] constraints on `var`.
    pub fn to_constraints(&self) -> [IrExpr; 2] {
        let lower = IrExpr::cmp(
            CmpOp::Le,
            self.inclusive_lo(),
            IrExpr::var(self.var.clone()),
        );
        let upper = IrExpr::cmp(
            CmpOp::Le,
            IrExpr::var(self.var.clone()),
            self.inclusive_hi(),
        );
        [lower, upper]
    }

    /// Number of AST nodes contributed by this bound.
    pub fn node_count(&self) -> usize {
        2 + self.lo.node_count() + self.hi.node_count()
    }
}

impl fmt::Display for QuantBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lo_op = if self.lo_strict { "<" } else { "<=" };
        let hi_op = if self.hi_strict { "<" } else { "<=" };
        write!(f, "{} {lo_op} {} {hi_op} {}", self.lo, self.var, self.hi)?;
        if self.step != 1 {
            write!(f, " step {}", self.step)?;
        }
        Ok(())
    }
}

/// An `out[v₁, …, vₙ] = exp` constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct OutEq {
    /// Output array being described.
    pub array: String,
    /// Index expressions (usually exactly the quantified variables).
    pub indices: Vec<IrExpr>,
    /// The defining expression over input arrays, scalars, and pure
    /// functions.
    pub rhs: IrExpr,
}

impl OutEq {
    /// Number of AST nodes in this constraint.
    pub fn node_count(&self) -> usize {
        1 + self.indices.iter().map(IrExpr::node_count).sum::<usize>() + self.rhs.node_count()
    }
}

impl fmt::Display for OutEq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.array)?;
        for (k, ix) in self.indices.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ix}")?;
        }
        write!(f, "] = {}", self.rhs)
    }
}

/// A universally quantified `outEq` constraint: `∀ bounds. outEq`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantClause {
    /// Quantified variable bounds (the domain `D`).
    pub bounds: Vec<QuantBound>,
    /// The constrained output equation.
    pub eq: OutEq,
}

impl QuantClause {
    /// Number of AST nodes in the clause.
    pub fn node_count(&self) -> usize {
        1 + self
            .bounds
            .iter()
            .map(QuantBound::node_count)
            .sum::<usize>()
            + self.eq.node_count()
    }
}

impl fmt::Display for QuantClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "forall ")?;
        for (k, b) in self.bounds.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, " . {}", self.eq)
    }
}

/// A predicate: the building block of invariants, postconditions, and
/// verification conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// A quantifier-free boolean condition over integer scalars.
    Bool(IrExpr),
    /// An equality between two data-valued expressions (used for scalar
    /// temporaries inside invariants, e.g. `t = b[i-1, j]`).
    DataEq {
        /// Left-hand side (usually a scalar variable).
        lhs: IrExpr,
        /// Right-hand side over input arrays and scalars.
        rhs: IrExpr,
    },
    /// A universally quantified output equation.
    Forall(QuantClause),
    /// The structural alignment fact of a strided loop counter:
    /// `∃ k ≥ 0. var = lo + step·k` (equivalently `var ≥ lo` and
    /// `step | var − lo`). Verification-condition generation emits this at
    /// the loop heads of non-unit-step domains; it is what lets the prover
    /// reason about which cells a strided loop has actually visited.
    Stride {
        /// The loop counter.
        var: String,
        /// The first iterate.
        lo: IrExpr,
        /// The (positive) stride.
        step: i64,
    },
    /// Conjunction of predicates.
    And(Vec<Pred>),
}

impl Pred {
    /// The trivially true predicate (an empty conjunction).
    pub fn truth() -> Pred {
        Pred::And(Vec::new())
    }

    /// Flattens nested conjunctions into a list of leaf predicates.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        let mut out = Vec::new();
        fn go<'a>(p: &'a Pred, out: &mut Vec<&'a Pred>) {
            match p {
                Pred::And(ps) => {
                    for q in ps {
                        go(q, out);
                    }
                }
                other => out.push(other),
            }
        }
        go(self, &mut out);
        out
    }

    /// Number of AST nodes in the predicate (the measure reported in
    /// Table 1's "AST Nodes" column).
    pub fn node_count(&self) -> usize {
        match self {
            Pred::Bool(e) => e.node_count(),
            Pred::DataEq { lhs, rhs } => 1 + lhs.node_count() + rhs.node_count(),
            Pred::Forall(clause) => clause.node_count(),
            Pred::Stride { lo, .. } => 2 + lo.node_count(),
            Pred::And(ps) => 1 + ps.iter().map(Pred::node_count).sum::<usize>(),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Bool(e) => write!(f, "{e}"),
            Pred::DataEq { lhs, rhs } => write!(f, "{lhs} = {rhs}"),
            Pred::Forall(clause) => write!(f, "{clause}"),
            Pred::Stride { var, lo, step } => {
                write!(f, "{var} == {lo} (mod {step})")
            }
            Pred::And(ps) => {
                if ps.is_empty() {
                    return write!(f, "true");
                }
                for (k, p) in ps.iter().enumerate() {
                    if k > 0 {
                        write!(f, " /\\ ")?;
                    }
                    write!(f, "({p})")?;
                }
                Ok(())
            }
        }
    }
}

/// A lifted summary: a conjunction of universally quantified output
/// equations, one per output array (the `post` production of Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Postcondition {
    /// One clause per output array.
    pub clauses: Vec<QuantClause>,
}

impl Postcondition {
    /// Converts the postcondition into a general predicate.
    pub fn to_pred(&self) -> Pred {
        Pred::And(self.clauses.iter().cloned().map(Pred::Forall).collect())
    }

    /// Number of AST nodes (Table 1, "Postcon AST Nodes").
    pub fn node_count(&self) -> usize {
        self.clauses.iter().map(QuantClause::node_count).sum()
    }
}

impl fmt::Display for Postcondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, c) in self.clauses.iter().enumerate() {
            if k > 0 {
                write!(f, " /\\ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A loop invariant: scalar conditions plus quantified clauses (the
/// `invariant` production of Fig. 4, extended with scalar-equality facts for
/// imperfect nests).
#[derive(Debug, Clone, PartialEq)]
pub struct Invariant {
    /// Quantifier-free conditions over loop counters and bounds.
    pub scalar_conds: Vec<IrExpr>,
    /// Scalar-equality facts for floating-point temporaries.
    pub scalar_eqs: Vec<(String, IrExpr)>,
    /// Quantified output equations describing the already-computed region.
    pub clauses: Vec<QuantClause>,
}

impl Invariant {
    /// An invariant with no conjuncts (trivially true).
    pub fn empty() -> Invariant {
        Invariant {
            scalar_conds: Vec::new(),
            scalar_eqs: Vec::new(),
            clauses: Vec::new(),
        }
    }

    /// Converts the invariant into a general predicate.
    pub fn to_pred(&self) -> Pred {
        let mut parts: Vec<Pred> = Vec::new();
        for c in &self.scalar_conds {
            parts.push(Pred::Bool(c.clone()));
        }
        for (name, rhs) in &self.scalar_eqs {
            parts.push(Pred::DataEq {
                lhs: IrExpr::var(name.clone()),
                rhs: rhs.clone(),
            });
        }
        for clause in &self.clauses {
            parts.push(Pred::Forall(clause.clone()));
        }
        Pred::And(parts)
    }

    /// Number of AST nodes in the invariant.
    pub fn node_count(&self) -> usize {
        self.to_pred().node_count()
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_pred())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::ir::BinOp;

    /// Builds the running example's postcondition:
    /// `∀ imin+1 ≤ i ≤ imax, jmin ≤ j ≤ jmax. a[i,j] = b[i-1,j] + b[i,j]`.
    pub(crate) fn running_example_post() -> Postcondition {
        let rhs = IrExpr::add(
            IrExpr::Load {
                array: "b".into(),
                indices: vec![
                    IrExpr::sub(IrExpr::var("vi"), IrExpr::Int(1)),
                    IrExpr::var("vj"),
                ],
            },
            IrExpr::Load {
                array: "b".into(),
                indices: vec![IrExpr::var("vi"), IrExpr::var("vj")],
            },
        );
        Postcondition {
            clauses: vec![QuantClause {
                bounds: vec![
                    QuantBound::inclusive(
                        "vi",
                        IrExpr::add(IrExpr::var("imin"), IrExpr::Int(1)),
                        IrExpr::var("imax"),
                    ),
                    QuantBound::inclusive("vj", IrExpr::var("jmin"), IrExpr::var("jmax")),
                ],
                eq: OutEq {
                    array: "a".into(),
                    indices: vec![IrExpr::var("vi"), IrExpr::var("vj")],
                    rhs,
                },
            }],
        }
    }

    #[test]
    fn node_counts_are_positive_and_additive() {
        let post = running_example_post();
        let n = post.node_count();
        assert!(n > 10, "expected a non-trivial node count, got {n}");
        assert_eq!(post.to_pred().node_count(), n + 1); // +1 for the And node
    }

    #[test]
    fn quant_bound_constraint_forms() {
        let b = QuantBound {
            var: "v".into(),
            lo: IrExpr::var("lo"),
            lo_strict: true,
            hi: IrExpr::var("hi"),
            hi_strict: false,
            step: 1,
        };
        assert_eq!(b.inclusive_lo().to_string(), "(lo + 1)");
        assert_eq!(b.inclusive_hi().to_string(), "hi");
        let [lower, upper] = b.to_constraints();
        assert!(lower.to_string().contains("<="));
        assert!(upper.to_string().contains("<="));
    }

    #[test]
    fn strided_bound_display_and_node_count() {
        let b = QuantBound::strided("v", IrExpr::Int(2), IrExpr::var("n"), 2);
        assert!(!b.is_dense());
        assert_eq!(b.to_string(), "2 <= v <= n step 2");
        let p = Pred::Stride {
            var: "i".into(),
            lo: IrExpr::Int(1),
            step: 4,
        };
        assert_eq!(p.to_string(), "i == 1 (mod 4)");
        assert!(p.node_count() > 0);
    }

    #[test]
    fn display_matches_paper_style() {
        let post = running_example_post();
        let text = post.to_string();
        assert!(text.contains("forall"));
        assert!(text.contains("a[vi, vj]"));
        assert!(text.contains("b[(vi - 1), vj]"));
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let p = Pred::And(vec![
            Pred::Bool(IrExpr::cmp(
                stng_ir::ir::CmpOp::Le,
                IrExpr::var("i"),
                IrExpr::var("n"),
            )),
            Pred::And(vec![
                Pred::DataEq {
                    lhs: IrExpr::var("t"),
                    rhs: IrExpr::bin(BinOp::Add, IrExpr::var("x"), IrExpr::var("y")),
                },
                Pred::truth(),
            ]),
        ]);
        assert_eq!(p.conjuncts().len(), 2);
    }

    #[test]
    fn invariant_to_pred_includes_all_conjunct_kinds() {
        let inv = Invariant {
            scalar_conds: vec![IrExpr::cmp(
                stng_ir::ir::CmpOp::Le,
                IrExpr::var("j"),
                IrExpr::add(IrExpr::var("jmax"), IrExpr::Int(1)),
            )],
            scalar_eqs: vec![(
                "t".to_string(),
                IrExpr::Load {
                    array: "b".into(),
                    indices: vec![IrExpr::sub(IrExpr::var("i"), IrExpr::Int(1))],
                },
            )],
            clauses: running_example_post().clauses,
        };
        let conjuncts = inv.to_pred();
        assert_eq!(conjuncts.conjuncts().len(), 3);
        assert!(inv.node_count() > 0);
        assert!(inv.to_string().contains("t = b["));
    }
}

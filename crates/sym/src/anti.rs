//! Anti-unification of symbolic expressions into templates (§4.2, "Template
//! Generation").
//!
//! Given the symbolic value of every written output cell, the template
//! generator computes the *intersection* of all the expressions: sub-terms
//! that agree across every observation are kept, and sub-terms that disagree
//! are replaced by holes (`MakeHole` in the paper). The resulting
//! [`Template`] both narrows the synthesizer's search space and determines
//! the number of "control bits" the equivalent SKETCH encoding would need.

use crate::expr::{Atom, SymExpr};
use std::fmt;

/// Identifier of a hole within a template.
pub type HoleId = usize;

/// Index position inside a templated array read: either a concrete value that
/// agreed across all observations, or a hole to be synthesized as `vᵢ + c`.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexTemplate {
    /// All observations agreed on this concrete index.
    Fixed(i64),
    /// Observations disagreed; the synthesizer must find an index expression.
    Hole(HoleId),
}

/// A templated expression: the common shape of all observed cell values.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateExpr {
    /// A constant that agreed across observations.
    Const(f64),
    /// A floating-point constant hole (the `w` weights of the grammar).
    ConstHole(HoleId),
    /// A read of a specific input array whose index positions may be holes.
    Read {
        /// Array name.
        array: String,
        /// One entry per dimension.
        index: Vec<IndexTemplate>,
    },
    /// A named scalar input that agreed across observations.
    Var(String),
    /// Application of a pure function to templated arguments.
    Apply {
        /// Function name.
        func: String,
        /// Templated arguments.
        args: Vec<TemplateExpr>,
    },
    /// Sum of templated terms.
    Sum(Vec<TemplateExpr>),
    /// Product of templated factors (constant coefficients appear as
    /// `Const`/`ConstHole` factors).
    Prod(Vec<TemplateExpr>),
    /// Quotient of templated expressions.
    Quot(Box<TemplateExpr>, Box<TemplateExpr>),
    /// A completely unconstrained expression hole.
    Hole(HoleId),
}

impl fmt::Display for TemplateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateExpr::Const(v) => write!(f, "{v}"),
            TemplateExpr::ConstHole(id) => write!(f, "w{id}()"),
            TemplateExpr::Read { array, index } => {
                write!(f, "{array}[")?;
                for (k, ix) in index.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    match ix {
                        IndexTemplate::Fixed(v) => write!(f, "{v}")?,
                        IndexTemplate::Hole(id) => write!(f, "pt{id}()")?,
                    }
                }
                write!(f, "]")
            }
            TemplateExpr::Var(name) => write!(f, "{name}"),
            TemplateExpr::Apply { func, args } => {
                write!(f, "{func}(")?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            TemplateExpr::Sum(terms) => {
                write!(f, "(")?;
                for (k, t) in terms.iter().enumerate() {
                    if k > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            TemplateExpr::Prod(factors) => {
                write!(f, "(")?;
                for (k, t) in factors.iter().enumerate() {
                    if k > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            TemplateExpr::Quot(num, den) => write!(f, "({num} / {den})"),
            TemplateExpr::Hole(id) => write!(f, "hole{id}()"),
        }
    }
}

impl TemplateExpr {
    /// Converts a concrete symbolic expression into a hole-free template.
    pub fn from_sym(expr: &SymExpr) -> TemplateExpr {
        if let Some(c) = expr.as_constant() {
            return TemplateExpr::Const(c);
        }
        let mut terms = Vec::new();
        for mono in expr.terms() {
            let mut factors = Vec::new();
            if (mono.coeff - 1.0).abs() > 1e-12 || mono.factors.is_empty() {
                factors.push(TemplateExpr::Const(mono.coeff));
            }
            for (atom, power) in mono.factors.iter() {
                for _ in 0..*power {
                    factors.push(Self::from_atom(atom));
                }
            }
            terms.push(if factors.len() == 1 {
                factors.pop().expect("one factor")
            } else {
                TemplateExpr::Prod(factors)
            });
        }
        if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            TemplateExpr::Sum(terms)
        }
    }

    fn from_atom(atom: &Atom) -> TemplateExpr {
        match atom {
            Atom::Read { array, indices } => TemplateExpr::Read {
                array: array.as_str().to_string(),
                index: indices.iter().map(|&v| IndexTemplate::Fixed(v)).collect(),
            },
            Atom::Var(name) => TemplateExpr::Var(name.as_str().to_string()),
            Atom::Apply { func, args } => TemplateExpr::Apply {
                func: func.as_str().to_string(),
                args: args.iter().map(TemplateExpr::from_sym).collect(),
            },
            Atom::Quot { num, den } => TemplateExpr::Quot(
                Box::new(TemplateExpr::from_sym(num)),
                Box::new(TemplateExpr::from_sym(den)),
            ),
        }
    }

    /// Total number of holes (of all kinds) in the template.
    pub fn hole_count(&self) -> usize {
        let mut n = 0usize;
        self.visit_holes(&mut |_| n += 1);
        n
    }

    /// Number of index holes (`pt()` holes inside array reads).
    pub fn index_hole_count(&self) -> usize {
        let mut n = 0usize;
        if let TemplateExpr::Read { index, .. } = self {
            n += index
                .iter()
                .filter(|ix| matches!(ix, IndexTemplate::Hole(_)))
                .count();
        }
        match self {
            TemplateExpr::Sum(xs) | TemplateExpr::Prod(xs) => {
                n += xs.iter().map(|x| x.index_hole_count()).sum::<usize>();
            }
            TemplateExpr::Apply { args, .. } => {
                n += args.iter().map(|x| x.index_hole_count()).sum::<usize>();
            }
            TemplateExpr::Quot(a, b) => {
                n += a.index_hole_count() + b.index_hole_count();
            }
            _ => {}
        }
        n
    }

    fn visit_holes(&self, visit: &mut impl FnMut(HoleId)) {
        match self {
            TemplateExpr::Const(_) | TemplateExpr::Var(_) => {}
            TemplateExpr::ConstHole(id) | TemplateExpr::Hole(id) => visit(*id),
            TemplateExpr::Read { index, .. } => {
                for ix in index {
                    if let IndexTemplate::Hole(id) = ix {
                        visit(*id);
                    }
                }
            }
            TemplateExpr::Apply { args, .. } => {
                for a in args {
                    a.visit_holes(visit);
                }
            }
            TemplateExpr::Sum(xs) | TemplateExpr::Prod(xs) => {
                for x in xs {
                    x.visit_holes(visit);
                }
            }
            TemplateExpr::Quot(a, b) => {
                a.visit_holes(visit);
                b.visit_holes(visit);
            }
        }
    }

    /// Names of input arrays read by the template.
    pub fn arrays_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn go(t: &TemplateExpr, out: &mut Vec<String>) {
            match t {
                TemplateExpr::Read { array, .. } if !out.contains(array) => {
                    out.push(array.clone());
                }
                TemplateExpr::Apply { args, .. } => {
                    for a in args {
                        go(a, out);
                    }
                }
                TemplateExpr::Sum(xs) | TemplateExpr::Prod(xs) => {
                    for x in xs {
                        go(x, out);
                    }
                }
                TemplateExpr::Quot(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                _ => {}
            }
        }
        go(self, &mut out);
        out
    }
}

/// The result of generalizing a set of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// The shared shape of the observed expressions.
    pub expr: TemplateExpr,
    /// Number of holes allocated while generalizing.
    pub holes: usize,
}

/// State shared while anti-unifying: the next fresh hole identifier.
#[derive(Debug, Default)]
struct HoleAllocator {
    next: HoleId,
}

impl HoleAllocator {
    fn fresh(&mut self) -> HoleId {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// Anti-unifies two symbolic expressions into their least general
/// generalization under the template grammar (the paper's `u(e1, e2)`).
pub fn anti_unify(e1: &SymExpr, e2: &SymExpr) -> Template {
    let mut alloc = HoleAllocator::default();
    let expr = unify_t(
        &TemplateExpr::from_sym(e1),
        &TemplateExpr::from_sym(e2),
        &mut alloc,
    );
    Template {
        expr,
        holes: alloc.next,
    }
}

/// Generalizes a whole set of observations by folding [`anti_unify`] over
/// them. Returns `None` for an empty set.
pub fn generalize(observations: &[SymExpr]) -> Option<Template> {
    let first = observations.first()?;
    let mut alloc = HoleAllocator::default();
    let mut acc = TemplateExpr::from_sym(first);
    for obs in &observations[1..] {
        acc = unify_t(&acc, &TemplateExpr::from_sym(obs), &mut alloc);
    }
    Some(Template {
        expr: acc,
        holes: alloc.next,
    })
}

fn unify_t(a: &TemplateExpr, b: &TemplateExpr, alloc: &mut HoleAllocator) -> TemplateExpr {
    use TemplateExpr::*;
    match (a, b) {
        _ if a == b => a.clone(),
        // Existing holes absorb anything.
        (Hole(id), _) | (_, Hole(id)) => Hole(*id),
        (ConstHole(id), Const(_)) | (Const(_), ConstHole(id)) => ConstHole(*id),
        (Const(_), Const(_)) => ConstHole(alloc.fresh()),
        (
            Read {
                array: a1,
                index: i1,
            },
            Read {
                array: a2,
                index: i2,
            },
        ) if a1 == a2 && i1.len() == i2.len() => {
            let index = i1
                .iter()
                .zip(i2)
                .map(|(x, y)| match (x, y) {
                    (IndexTemplate::Fixed(v1), IndexTemplate::Fixed(v2)) if v1 == v2 => {
                        IndexTemplate::Fixed(*v1)
                    }
                    (IndexTemplate::Hole(id), _) | (_, IndexTemplate::Hole(id)) => {
                        IndexTemplate::Hole(*id)
                    }
                    _ => IndexTemplate::Hole(alloc.fresh()),
                })
                .collect();
            Read {
                array: a1.clone(),
                index,
            }
        }
        (Apply { func: f1, args: x1 }, Apply { func: f2, args: x2 })
            if f1 == f2 && x1.len() == x2.len() =>
        {
            Apply {
                func: f1.clone(),
                args: x1
                    .iter()
                    .zip(x2)
                    .map(|(p, q)| unify_t(p, q, alloc))
                    .collect(),
            }
        }
        (Sum(x1), Sum(x2)) if x1.len() == x2.len() => Sum(x1
            .iter()
            .zip(x2)
            .map(|(p, q)| unify_t(p, q, alloc))
            .collect()),
        (Prod(x1), Prod(x2)) if x1.len() == x2.len() => Prod(
            x1.iter()
                .zip(x2)
                .map(|(p, q)| unify_t(p, q, alloc))
                .collect(),
        ),
        (Quot(n1, d1), Quot(n2, d2)) => Quot(
            Box::new(unify_t(n1, n2, alloc)),
            Box::new(unify_t(d1, d2, alloc)),
        ),
        _ => Hole(alloc.fresh()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::value::DataValue;

    fn b(i: i64, j: i64) -> SymExpr {
        SymExpr::read("b", vec![i, j])
    }

    #[test]
    fn running_example_template_has_two_index_holes_per_read() {
        // Cells of the running example: b[i-1,j] + b[i,j] for several (i,j).
        let observations = vec![
            b(0, 0).add(&b(1, 0)),
            b(1, 0).add(&b(2, 0)),
            b(0, 1).add(&b(1, 1)),
            b(3, 2).add(&b(4, 2)),
        ];
        let template = generalize(&observations).unwrap();
        // The shape is a sum of exactly two reads of b with index holes.
        match &template.expr {
            TemplateExpr::Sum(terms) => {
                assert_eq!(terms.len(), 2);
                for t in terms {
                    assert!(matches!(t, TemplateExpr::Read { array, .. } if array == "b"));
                }
            }
            other => panic!("expected a sum of reads, got {other}"),
        }
        assert_eq!(template.expr.index_hole_count(), 4);
        assert_eq!(template.expr.arrays_read(), vec!["b".to_string()]);
    }

    #[test]
    fn equal_expressions_generalize_without_holes() {
        let e = b(1, 1).add(&SymExpr::constant(2.0));
        let template = generalize(&[e, e]).unwrap();
        assert_eq!(template.holes, 0);
        assert_eq!(template.expr.hole_count(), 0);
    }

    #[test]
    fn differing_constants_become_constant_holes() {
        let e1 = b(1, 1).mul(&SymExpr::constant(2.0));
        let e2 = b(2, 1).mul(&SymExpr::constant(3.0));
        let template = anti_unify(&e1, &e2);
        let mut const_holes = 0;
        fn count(t: &TemplateExpr, n: &mut usize) {
            match t {
                TemplateExpr::ConstHole(_) => *n += 1,
                TemplateExpr::Sum(xs) | TemplateExpr::Prod(xs) => {
                    xs.iter().for_each(|x| count(x, n))
                }
                TemplateExpr::Apply { args, .. } => args.iter().for_each(|x| count(x, n)),
                TemplateExpr::Quot(a, b) => {
                    count(a, n);
                    count(b, n);
                }
                _ => {}
            }
        }
        count(&template.expr, &mut const_holes);
        assert_eq!(const_holes, 1);
    }

    #[test]
    fn structurally_different_expressions_collapse_to_a_hole() {
        let e1 = b(1, 1).add(&b(2, 2));
        let e2 = SymExpr::apply("exp", vec![b(1, 1)]);
        let template = anti_unify(&e1, &e2);
        assert!(matches!(template.expr, TemplateExpr::Hole(_)));
    }

    #[test]
    fn uninterpreted_function_arguments_are_recursed_into() {
        let e1 = SymExpr::apply("exp", vec![b(1, 1)]);
        let e2 = SymExpr::apply("exp", vec![b(2, 1)]);
        let template = anti_unify(&e1, &e2);
        match &template.expr {
            TemplateExpr::Apply { func, args } => {
                assert_eq!(func, "exp");
                assert_eq!(args[0].index_hole_count(), 1);
            }
            other => panic!("expected apply, got {other}"),
        }
    }

    #[test]
    fn display_of_template_mentions_pt_holes() {
        let template = anti_unify(&b(1, 1).add(&b(2, 1)), &b(2, 2).add(&b(3, 2)));
        let text = template.expr.to_string();
        assert!(text.contains("pt"), "display was {text}");
    }
}

//! Property tests for the hash-consed sum-of-products ring
//! (`stng_intern::sop`), run over both of its atom domains: symbolic
//! execution's `SymExpr` (concrete indices) and the prover's `NormExpr`
//! (affine indices).
//!
//! The O(1) pointer equality of interned expressions must agree exactly with
//! deep structural equality of their normal forms, the memoized ring
//! operations must respect the algebra, and `Atom` ordering (hence the
//! iteration order of sorted factor multisets, which anti-unification and
//! `Display` depend on) must match the string ordering of a `String`-keyed
//! representation.
//!
//! Hand-rolled with a seeded SplitMix64 generator; failures are reproducible
//! from the seed, domain and case index.

use std::collections::BTreeMap;
use stng_intern::sop::{Atom, Domain, Expr};
use stng_intern::Symbol;
use stng_ir::ir::Affine;
use stng_ir::value::DataValue;
use stng_solve::norm::{self, Symbolic};
use stng_sym::expr::Concrete;

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

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[(self.next_u64() as usize) % items.len()]
    }

    /// A random expression of bounded depth built through the public ring
    /// operations (so every value is in normal form, as in the pipeline).
    fn expr<D: TestDomain>(&mut self, depth: usize) -> Expr<D> {
        let arrays = ["a", "b", "c"];
        let vars = ["x", "y", "w"];
        let funcs = ["exp", "sqrt"];
        if depth == 0 {
            return match self.in_range(0, 3) {
                0 => Expr::read(*self.pick(&arrays), D::indices(self)),
                1 => Expr::var(*self.pick(&vars)),
                2 => Expr::constant(self.in_range(-3, 3) as f64 * 0.5),
                _ => Expr::apply(*self.pick(&funcs), vec![Expr::var(*self.pick(&vars))]),
            };
        }
        let lhs = self.expr::<D>(depth - 1);
        let rhs = self.expr::<D>(depth - 1);
        // Through `DataValue`, the way the interpreter reaches the ring.
        match self.in_range(0, 3) {
            0 => lhs.add(&rhs),
            1 => lhs.sub(&rhs),
            2 => lhs.mul(&rhs),
            _ => lhs.div(&rhs),
        }
    }
}

/// What the properties need to know about a domain.
trait TestDomain: Domain {
    /// A random index vector of an array read.
    fn indices(g: &mut Gen) -> Vec<Self::Index>;
    /// Equality up to coefficient drift.
    fn approx_eq(a: Expr<Self>, b: Expr<Self>) -> bool;
}

impl TestDomain for Concrete {
    fn indices(g: &mut Gen) -> Vec<i64> {
        vec![g.in_range(-2, 2), g.in_range(-2, 2)]
    }

    fn approx_eq(a: Expr<Concrete>, b: Expr<Concrete>) -> bool {
        a.terms().len() == b.terms().len()
            && a.terms().iter().zip(b.terms()).all(|(x, y)| {
                x.factors == y.factors
                    && (x.coeff - y.coeff).abs() <= 1e-9 * x.coeff.abs().max(y.coeff.abs()).max(1.0)
            })
    }
}

impl TestDomain for Symbolic {
    fn indices(g: &mut Gen) -> Vec<Affine> {
        let mut index = Affine::var(*g.pick(&["i", "j", "vi"]));
        index.constant = g.in_range(-2, 2);
        vec![index]
    }

    fn approx_eq(a: Expr<Symbolic>, b: Expr<Symbolic>) -> bool {
        norm::approx_eq(a, b)
    }
}

/// Runs `property` once per domain.
macro_rules! for_both_domains {
    ($property:ident) => {
        $property::<Concrete>();
        $property::<Symbolic>();
    };
}

/// Deep structural equality, the way a representation without interning
/// compares expressions (term vectors, coefficients, and factor multisets,
/// recursively, names as strings). This is the specification that pointer
/// equality must match.
fn structural_eq<D: Domain>(a: Expr<D>, b: Expr<D>) -> bool {
    let (ta, tb) = (a.terms(), b.terms());
    ta.len() == tb.len()
        && ta.iter().zip(tb).all(|(x, y)| {
            x.coeff == y.coeff
                && x.factors.len() == y.factors.len()
                && x.factors
                    .iter()
                    .zip(y.factors.iter())
                    .all(|((p, m), (q, n))| m == n && atom_structural_eq(p, q))
        })
}

fn atom_structural_eq<D: Domain>(a: &Atom<D>, b: &Atom<D>) -> bool {
    match (a, b) {
        (
            Atom::Read {
                array: a1,
                indices: i1,
            },
            Atom::Read {
                array: a2,
                indices: i2,
            },
        ) => a1.as_str() == a2.as_str() && i1 == i2,
        (Atom::Var(x), Atom::Var(y)) => x.as_str() == y.as_str(),
        (Atom::Apply { func: f1, args: x1 }, Atom::Apply { func: f2, args: x2 }) => {
            f1.as_str() == f2.as_str()
                && x1.len() == x2.len()
                && x1.iter().zip(x2).all(|(p, q)| structural_eq(*p, *q))
        }
        (Atom::Quot { num: n1, den: d1 }, Atom::Quot { num: n2, den: d2 }) => {
            structural_eq(*n1, *n2) && structural_eq(*d1, *d2)
        }
        _ => false,
    }
}

#[test]
fn interned_equality_agrees_with_structural_equality() {
    fn property<D: TestDomain>() {
        for seed in [0xc0_115ed, 0x5EED] {
            let mut generator = Gen::new(seed);
            let exprs: Vec<Expr<D>> = (0..60).map(|_| generator.expr(3)).collect();
            for (i, &a) in exprs.iter().enumerate() {
                for &b in &exprs[i..] {
                    assert_eq!(
                        a == b,
                        structural_eq(a, b),
                        "{} seed {seed:#x}: pointer equality disagrees with structural equality:\n  {a}\n  {b}",
                        D::NAME
                    );
                }
            }
        }
    }
    for_both_domains!(property);
}

#[test]
fn rebuilding_the_same_value_interns_to_the_same_node() {
    fn property<D: TestDomain>() {
        let mut g1 = Gen::new(42);
        let mut g2 = Gen::new(42);
        for case in 0..40 {
            let a = g1.expr::<D>(3);
            let b = g2.expr::<D>(3);
            assert_eq!(
                a,
                b,
                "{} case {case}: same construction must cons to the same node",
                D::NAME
            );
        }
    }
    for_both_domains!(property);
}

#[test]
fn commuted_sums_and_products_cons_identically() {
    fn property<D: TestDomain>() {
        let mut generator = Gen::new(7);
        for case in 0..40 {
            let a = generator.expr::<D>(2);
            let b = generator.expr::<D>(2);
            let name = D::NAME;
            assert_eq!(a + b, b + a, "{name} case {case}: a+b vs b+a");
            assert_eq!(a * b, b * a, "{name} case {case}: a*b vs b*a");
            // Associativity of the normal form.
            let c = generator.expr::<D>(2);
            assert_eq!((a + b) + c, a + (b + c), "{name} case {case}: assoc");
        }
    }
    for_both_domains!(property);
}

#[test]
fn ring_laws_hold_under_memoized_operations() {
    fn property<D: TestDomain>() {
        let mut generator = Gen::new(99);
        for case in 0..40 {
            let a = generator.expr::<D>(2);
            let b = generator.expr::<D>(2);
            let c = generator.expr::<D>(2);
            let name = D::NAME;
            assert_eq!(a + b, b + a, "{name} case {case}: + commutes");
            assert_eq!(a * b, b * a, "{name} case {case}: * commutes");
            assert_eq!((a + b) + c, a + (b + c), "{name} case {case}: + assoc");
            assert_eq!(a - a, Expr::zero(), "{name} case {case}: a - a = 0");
            assert!(
                D::approx_eq(a * (b + c), a * b + a * c),
                "{name} case {case}: distribution"
            );
        }
    }
    for_both_domains!(property);
}

/// The ordering of a `String`-keyed representation: rank first
/// (Read < Var < Apply < Quot), then name *as a string*, then payload.
fn string_keyed_atom_cmp<D: Domain>(a: &Atom<D>, b: &Atom<D>) -> std::cmp::Ordering {
    fn rank<D: Domain>(a: &Atom<D>) -> u8 {
        match a {
            Atom::Read { .. } => 0,
            Atom::Var(_) => 1,
            Atom::Apply { .. } => 2,
            Atom::Quot { .. } => 3,
        }
    }
    match (a, b) {
        (
            Atom::Read {
                array: a1,
                indices: i1,
            },
            Atom::Read {
                array: a2,
                indices: i2,
            },
        ) => a1.as_str().cmp(a2.as_str()).then_with(|| i1.cmp(i2)),
        (Atom::Var(x), Atom::Var(y)) => x.as_str().cmp(y.as_str()),
        (Atom::Apply { func: f1, args: x1 }, Atom::Apply { func: f2, args: x2 }) => {
            f1.as_str().cmp(f2.as_str()).then_with(|| x1.cmp(x2))
        }
        (Atom::Quot { num: n1, den: d1 }, Atom::Quot { num: n2, den: d2 }) => {
            n1.cmp(n2).then_with(|| d1.cmp(d2))
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

#[test]
fn atom_ordering_is_preserved_across_interning() {
    fn property<D: TestDomain>() {
        let mut generator = Gen::new(0x0a_70e5);
        let mut atoms: Vec<Atom<D>> = Vec::new();
        for _ in 0..80 {
            let e = generator.expr::<D>(2);
            for term in e.terms() {
                for atom in term.factors.atoms() {
                    atoms.push(atom.clone());
                }
            }
        }
        for a in &atoms {
            for b in &atoms {
                assert_eq!(
                    a.cmp(b),
                    string_keyed_atom_cmp(a, b),
                    "{}: interned Atom ordering diverges from string ordering: {a} vs {b}",
                    D::NAME
                );
            }
        }
    }
    for_both_domains!(property);
    // Symbols themselves order by string, never by interning order.
    let names = ["zz", "aa", "mm", "ab", "z", "a", ""];
    for x in names {
        for y in names {
            assert_eq!(Symbol::intern(x).cmp(&Symbol::intern(y)), x.cmp(y));
        }
    }
}

#[test]
fn factor_sets_iterate_and_order_like_btree_maps() {
    fn property<D: TestDomain>() {
        // Single-atom expressions (reads, variables, applications, quotients).
        let mut generator = Gen::new(0xfac7_0125);
        let mut pool: Vec<Expr<D>> = Vec::new();
        while pool.len() < 24 {
            let e = generator.expr::<D>(0);
            let candidate = if pool.len() % 4 == 3 {
                e / Expr::var("q")
            } else {
                e
            };
            if candidate.as_single_atom().is_some() {
                pool.push(candidate);
            }
        }
        let mut sets = Vec::new();
        for case in 0..60 {
            // A product of random atoms, repeats included: its one
            // monomial's factor set must iterate like a BTreeMap of the
            // atom counts.
            let mut product = Expr::<D>::constant(1.0);
            let mut map: BTreeMap<Atom<D>, u32> = BTreeMap::new();
            for _ in 0..generator.in_range(0, 6) {
                let factor = *generator.pick(&pool);
                product = product * factor;
                *map.entry(factor.as_single_atom().unwrap().clone())
                    .or_insert(0) += 1;
            }
            let factors = product.terms()[0].factors;
            assert!(
                factors.iter().map(|(a, p)| (a, p)).eq(map.iter()),
                "{} case {case}: factor set order diverges from BTreeMap order",
                D::NAME
            );
            sets.push((factors, map));
        }
        for (fa, ma) in &sets {
            for (fb, mb) in &sets {
                assert_eq!(fa.cmp(fb), ma.iter().cmp(mb.iter()), "{fa:?} vs {fb:?}");
                assert_eq!(fa == fb, ma == mb);
            }
        }
    }
    for_both_domains!(property);
}

/// Each domain keeps the text its pipeline stage always printed:
/// postconditions and prover reasons embed these renderings.
#[test]
fn display_style_follows_the_domain() {
    fn sample<D: Domain>(indices: Vec<D::Index>) -> String {
        let (x, y) = (Expr::<D>::var("x"), Expr::<D>::var("y"));
        let sum = Expr::constant(3.0) + Expr::read("b", indices) + Expr::constant(2.0) * x;
        let call = Expr::apply("f", vec![x, y]);
        format!("{sum} | {call} | {} | {:?}", x / y, x)
    }
    assert_eq!(
        sample::<Concrete>(vec![1, 2]),
        "3 + b[1, 2] + 2*x | f(x, y) | (x / y) | SymExpr(x)"
    );
    assert_eq!(
        sample::<Symbolic>(vec![Affine::var("i"), Affine::var("j")]),
        "3 + 1*b[i,j] + 2*x | 1*f(1*x,1*y) | 1*(1*x/1*y) | NormExpr(1*x)"
    );
}

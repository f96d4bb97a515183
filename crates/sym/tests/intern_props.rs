//! Property tests for the hash-consed expression representation: the O(1)
//! pointer equality of interned `SymExpr`s must agree exactly with deep
//! structural equality of their normal forms, and `Atom` ordering (hence the
//! iteration order of sorted factor multisets, which anti-unification and
//! `Display` depend on) must match the string ordering the pre-interning
//! `String`-keyed representation used.
//!
//! Hand-rolled with a seeded SplitMix64 generator (no crates.io access for
//! proptest); failures are reproducible from the printed seed and case index.

use std::collections::BTreeMap;
use stng_intern::Symbol;
use stng_ir::value::DataValue;
use stng_sym::expr::{Atom, SymExpr};

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
    fn expr(&mut self, depth: usize) -> SymExpr {
        let arrays = ["a", "b", "c"];
        let vars = ["x", "y", "w"];
        let funcs = ["exp", "sqrt"];
        if depth == 0 {
            return match self.in_range(0, 3) {
                0 => SymExpr::read(
                    *self.pick(&arrays),
                    vec![self.in_range(-2, 2), self.in_range(-2, 2)],
                ),
                1 => SymExpr::var(*self.pick(&vars)),
                2 => SymExpr::constant(self.in_range(-3, 3) as f64 * 0.5),
                _ => SymExpr::apply(*self.pick(&funcs), vec![SymExpr::var(*self.pick(&vars))]),
            };
        }
        let lhs = self.expr(depth - 1);
        let rhs = self.expr(depth - 1);
        match self.in_range(0, 3) {
            0 => lhs.add(&rhs),
            1 => lhs.sub(&rhs),
            2 => lhs.mul(&rhs),
            _ => lhs.div(&rhs),
        }
    }
}

/// Deep structural equality, the way the pre-interning representation
/// compared expressions (term vectors, coefficients, and factor multisets,
/// recursively). This is the specification that pointer equality must match.
fn structural_eq(a: SymExpr, b: SymExpr) -> bool {
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

fn atom_structural_eq(a: &Atom, b: &Atom) -> bool {
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
    let mut generator = Gen::new(0xc0_115ed);
    let exprs: Vec<SymExpr> = (0..60).map(|_| generator.expr(3)).collect();
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
fn rebuilding_the_same_value_interns_to_the_same_node() {
    let mut g1 = Gen::new(42);
    let mut g2 = Gen::new(42);
    for case in 0..40 {
        let a = g1.expr(3);
        let b = g2.expr(3);
        assert_eq!(
            a, b,
            "case {case}: same construction must cons to the same node"
        );
    }
}

#[test]
fn commuted_sums_and_products_cons_identically() {
    let mut generator = Gen::new(7);
    for case in 0..40 {
        let a = generator.expr(2);
        let b = generator.expr(2);
        assert_eq!(a.add(&b), b.add(&a), "case {case}: a+b vs b+a");
        assert_eq!(a.mul(&b), b.mul(&a), "case {case}: a*b vs b*a");
        // Associativity of the normal form.
        let c = generator.expr(2);
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)), "case {case}: assoc");
    }
}

/// The ordering the `String`-keyed seed representation used: rank first
/// (Read < Var < Apply < Quot), then name *as a string*, then payload.
fn seed_atom_cmp(a: &Atom, b: &Atom) -> std::cmp::Ordering {
    fn rank(a: &Atom) -> u8 {
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
    let mut generator = Gen::new(0x0a_70e5);
    let mut atoms: Vec<Atom> = Vec::new();
    for _ in 0..80 {
        let e = generator.expr(2);
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
                seed_atom_cmp(a, b),
                "interned Atom ordering diverges from string ordering: {a} vs {b}"
            );
        }
    }
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
    // Single-atom expressions (reads, variables, applications, quotients).
    let mut generator = Gen::new(0xfac7_0125);
    let mut pool: Vec<SymExpr> = Vec::new();
    while pool.len() < 24 {
        let e = generator.expr(0);
        let candidate = if pool.len() % 4 == 3 {
            e.div(&SymExpr::var("q"))
        } else {
            e
        };
        if candidate.as_single_atom().is_some() {
            pool.push(candidate);
        }
    }
    let mut sets = Vec::new();
    for case in 0..60 {
        // A product of random atoms, repeats included: its one monomial's
        // factor set must iterate like a BTreeMap of the atom counts.
        let mut product = SymExpr::constant(1.0);
        let mut map: BTreeMap<Atom, u32> = BTreeMap::new();
        for _ in 0..generator.in_range(0, 6) {
            let factor = *generator.pick(&pool);
            product = product.mul(&factor);
            *map.entry(factor.as_single_atom().unwrap().clone())
                .or_insert(0) += 1;
        }
        let factors = product.terms()[0].factors;
        assert!(
            factors.iter().map(|(a, p)| (a, p)).eq(map.iter()),
            "case {case}: factor set order diverges from BTreeMap order"
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

//! Property test: the signature pre-filter in front of the learned-core
//! scan is exact. Over random constraint sets, a query key that contains a
//! learned core is answered by a core with exactly one hit, and a key that
//! contains none (by the unfiltered linear scan) is not.
//!
//! Lives in its own integration-test binary with a single test: it reads
//! the global core-hit counter, which no concurrently running test may
//! touch.

use std::collections::BTreeSet;
use stng_ir::ir::Affine;
use stng_solve::lin::{core_hit_count, model, LinCtx};

/// SplitMix64: a small seeded generator, so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }
}

const VARS: [&str; 4] = ["pf_x", "pf_y", "pf_z", "pf_w"];

fn var(name: &str) -> Affine {
    Affine::var(name.to_string())
}

/// A random row `Σ cᵢ·vᵢ + c ≤ 0` over one or two pool variables.
fn filler(rng: &mut Rng) -> Affine {
    let mut row = Affine::constant(rng.range(-3, 3));
    for _ in 0..1 + rng.below(2) {
        let coeff = [-2, -1, 1, 2][rng.below(4)];
        row = row.add(&var(VARS[rng.below(VARS.len())]).scale(coeff));
    }
    row
}

/// A contradiction on one pool variable: `v ≤ a` and `v ≥ a + 1 + d`.
fn contradiction(rng: &mut Rng) -> [Affine; 2] {
    let v = var(VARS[rng.below(VARS.len())]);
    let a = rng.range(-3, 3);
    let gap = 1 + rng.range(0, 2);
    [
        v.sub(&Affine::constant(a)),
        Affine::constant(a + gap).sub(&v),
    ]
}

#[test]
fn core_prefilter_matches_the_linear_scan() {
    let mut rng = Rng(0xc0de_f17e);
    let mut answered_by_core = 0;
    for round in 0..24 {
        let contexts: Vec<LinCtx> = (0..6)
            .map(|_| {
                let mut ctx = LinCtx::new();
                let zero = Affine::constant(0);
                for _ in 0..rng.below(3) {
                    ctx.assume_le(&filler(&mut rng), &zero);
                }
                for row in contradiction(&mut rng) {
                    ctx.assume_le(&row, &zero);
                }
                ctx
            })
            .collect();
        for ctx in &contexts {
            assert!(ctx.is_infeasible(), "a planted contradiction is UNSAT");
        }
        assert!(
            !model::learned_cores().is_empty(),
            "round {round}: no core learned"
        );

        for q in 0..16 {
            let cores = model::learned_cores();
            let mut rows: Vec<Affine> = Vec::new();
            for _ in 0..1 + rng.below(2) {
                rows.extend(cores[rng.below(cores.len())].iter().cloned());
            }
            if q % 4 == 3 {
                // Sometimes drop a row: the key may then contain no core.
                rows.remove(rng.below(rows.len()));
            }
            for _ in 0..rng.below(3) {
                rows.push(filler(&mut rng));
            }
            // A row no earlier query had keeps the key out of the verdict
            // memo, so the core scan always runs.
            rows.push(var(&format!("pf_fresh_{round}_{q}")));

            let key: BTreeSet<Affine> = rows.iter().cloned().map(model::tighten_row).collect();
            let containing: Vec<usize> = cores
                .iter()
                .enumerate()
                .filter(|(_, core)| core.iter().all(|row| key.contains(row)))
                .map(|(i, _)| i)
                .collect();

            let hits_before = core_hit_count();
            let infeasible = model::compiled_infeasible(&rows);
            let hits = core_hit_count() - hits_before;
            match containing.first() {
                Some(&first) => {
                    assert!(infeasible, "round {round} query {q}: contains core {first}");
                    assert_eq!(
                        hits, 1,
                        "round {round} query {q}: core {first} is contained but was skipped"
                    );
                    answered_by_core += 1;
                }
                None => assert_eq!(hits, 0, "round {round} query {q}: no core is contained"),
            }
        }
    }
    assert!(
        answered_by_core >= 200,
        "only {answered_by_core} core answers"
    );
}

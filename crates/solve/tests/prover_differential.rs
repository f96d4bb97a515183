//! Differential property test for compiled proving: the compiled prover
//! must agree with the legacy tree-walking prover on every
//! proof obligation of every corpus kernel — verdicts match exactly
//! (including `Unknown` reasons), and budget-interruption classification
//! matches under governed budgets.
//!
//! Two engines run over every VC set:
//!
//! * **legacy** — `verify_all_legacy`: every `LinCtx` runs the original
//!   tree-walking Fourier–Motzkin, no verdict memo, no learned cores (the
//!   independent oracle);
//! * **compiled** — `verify_all_session`, the production entry point: the
//!   slot-addressed dense elimination with the global FM verdict memo and
//!   learned-core short-circuits, counting each attempted obligation into a
//!   fresh `ProverSession`, as CEGIS does.
//!
//! VC families per kernel mirror the bounded-checking differential
//! (`compiled_differential.rs`): a trivial postcondition (provable), a
//! wrong one (unprovable), and a shifted one (unprovable through different
//! failure paths), all over the kernels' own generated VC bodies; the
//! running example and a strided kernel additionally run with their real
//! hand-written invariants (deep case-split searches, stride facts). The
//! governed sweep re-runs compiled and legacy from equal counter-only
//! budgets and requires identical verdicts, attempt counts, and exhaustion
//! classification. CI runs this in release as part of the bench-smoke job.

use stng_intern::guard::Budget;
use stng_ir::ir::{IrExpr, Kernel};
use stng_ir::lower::kernel_from_source;
use stng_pred::lang::{Invariant, OutEq, Postcondition, QuantBound, QuantClause};
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs, Vc};
use stng_pred::{fixtures, LoopNest};
use stng_solve::{ProverSession, SmtLite, Verdict};

/// A postcondition `out[v⃗] = f(out[v⃗])` over the declared bounds of every
/// output array (`shift` displaces the read index, `bump` adds 1 — both
/// make the claim unprovable, through different prover failure paths).
fn synthetic_post(kernel: &Kernel, shift: i64, bump: bool) -> Postcondition {
    let mut clauses = Vec::new();
    for array in kernel.output_arrays() {
        let Some(dims) = kernel.array_dims(&array) else {
            continue;
        };
        let vars: Vec<String> = (0..dims.len()).map(|k| format!("dv{k}")).collect();
        let bounds = dims
            .iter()
            .zip(&vars)
            .map(|((lo, hi), v)| QuantBound::inclusive(v.clone(), lo.clone(), hi.clone()))
            .collect();
        let indices: Vec<IrExpr> = vars.iter().map(|v| IrExpr::var(v.clone())).collect();
        let read_indices: Vec<IrExpr> = if shift == 0 {
            indices.clone()
        } else {
            indices
                .iter()
                .map(|ix| IrExpr::add(ix.clone(), IrExpr::Int(shift)))
                .collect()
        };
        let mut rhs = IrExpr::Load {
            array: array.clone(),
            indices: read_indices,
        };
        if bump {
            rhs = IrExpr::add(rhs, IrExpr::Real(1.0));
        }
        clauses.push(QuantClause {
            bounds,
            eq: OutEq {
                array,
                indices,
                rhs,
            },
        });
    }
    Postcondition { clauses }
}

fn empty_invariants(nest: &LoopNest) -> Vec<Invariant> {
    nest.levels.iter().map(|_| Invariant::empty()).collect()
}

/// The production prover configuration (what `SynthesisConfig` uses), so the
/// differential exercises the same depth/attempt regime CEGIS runs in.
fn test_prover() -> SmtLite {
    SmtLite {
        max_split_depth: 6,
        max_attempts: 4000,
    }
}

/// Verdict and attempt agreement under an unlimited budget, plus the
/// session's obligation count. Returns the agreed verdict.
fn assert_verdict_agreement(vcs: &[Vc], label: &str) -> Verdict {
    let prover = test_prover();
    let (legacy, legacy_attempts) = prover.verify_all_legacy(vcs, &Budget::unlimited());
    let session = ProverSession::new();
    let (compiled, compiled_attempts) =
        prover.verify_all_session(vcs, &Budget::unlimited(), &session);
    assert_eq!(
        compiled, legacy,
        "{label}: compiled prover diverged from the tree-walking oracle"
    );
    assert_eq!(
        compiled_attempts, legacy_attempts,
        "{label}: attempt counts diverged (different search traces)"
    );
    assert_eq!(
        session.misses(),
        compiled_attempts as u64,
        "{label}: every attempted obligation must be counted"
    );
    assert_eq!(session.hits(), 0, "{label}: nothing is memoized");
    legacy
}

/// Budget-interruption classification agreement: compiled (no memo) and
/// legacy charge one token per proof attempt, so from equal counter-only
/// budgets they must produce identical verdicts, attempt counts, and
/// exhaustion classification — whether or not the budget trips. Returns
/// `true` when this budget level tripped.
fn assert_governed_agreement(vcs: &[Vc], attempts: u64, label: &str) -> bool {
    let prover = test_prover();
    let legacy_budget = Budget::limited(None, Some(attempts), None);
    let (legacy, la) = prover.verify_all_legacy(vcs, &legacy_budget);
    let compiled_budget = Budget::limited(None, Some(attempts), None);
    let (compiled, ca) = prover.verify_all_session(vcs, &compiled_budget, &ProverSession::new());
    assert_eq!(
        compiled, legacy,
        "{label}: governed verdict diverged at {attempts} attempts"
    );
    assert_eq!(
        ca, la,
        "{label}: governed attempt counts diverged at {attempts} attempts"
    );
    assert_eq!(
        compiled_budget.exhausted(),
        legacy_budget.exhausted(),
        "{label}: budget-interruption classification diverged at {attempts} attempts"
    );
    legacy_budget.exhausted().is_some()
}

#[test]
fn prover_agrees_with_tree_walking_oracle_on_every_corpus_kernel() {
    let mut kernels_covered = 0usize;
    let mut vcs_checked = 0usize;
    let mut valid_seen = 0usize;
    let mut unknown_seen = 0usize;
    for corpus_kernel in stng_corpus::all_kernels() {
        let Ok(kernel) = kernel_from_source(&corpus_kernel.source, 0) else {
            continue; // outside the liftable subset: nothing to prove
        };
        let Ok(nest) = analyze_loop_nest(&kernel) else {
            continue;
        };
        kernels_covered += 1;
        let invariants = empty_invariants(&nest);
        let families = [
            ("trivial", synthetic_post(&kernel, 0, false)),
            ("wrong", synthetic_post(&kernel, 0, true)),
            ("shifted", synthetic_post(&kernel, 9, false)),
        ];
        for (family, post) in families {
            let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
            let label = format!("{}/{family}", corpus_kernel.name);
            match assert_verdict_agreement(&vcs, &label) {
                Verdict::Valid => valid_seen += 1,
                Verdict::Unknown(_) => unknown_seen += 1,
            }
            vcs_checked += vcs.len();
        }
    }
    // The corpus must actually exercise the property: many kernels, many
    // obligations, and both verdict classes observed.
    assert!(
        kernels_covered >= 20,
        "expected most corpus kernels to participate, got {kernels_covered}"
    );
    assert!(vcs_checked > 100, "only {vcs_checked} VCs checked");
    assert!(valid_seen > 0, "no Valid verdicts observed");
    assert!(unknown_seen > 0, "no Unknown verdicts observed");
}

#[test]
fn prover_agrees_on_real_invariants_and_strides() {
    // The running example's hand-written Hoare proof: the deepest real
    // case-split search the corpus has (DataEq facts, coverage splits,
    // hypothesis instantiation).
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let verdict = assert_verdict_agreement(&vcs, "running-example/real-invariants");
    assert!(
        verdict.is_valid(),
        "the real Hoare proof must stay provable"
    );

    // A strided kernel exercises Pred::Stride hypotheses: the definition
    // layer (`i = lo + step·k` witnesses) and divisibility reasoning.
    let src = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1, 2
    a(i) = b(i-1) + b(i+1)
  enddo
end procedure
"#;
    let kernel = kernel_from_source(src, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let post = Postcondition {
        clauses: vec![QuantClause {
            bounds: vec![QuantBound::strided(
                "v0",
                IrExpr::Int(1),
                IrExpr::sub(IrExpr::var("n"), IrExpr::Int(1)),
                2,
            )],
            eq: OutEq {
                array: "a".into(),
                indices: vec![IrExpr::var("v0")],
                rhs: IrExpr::add(
                    IrExpr::Load {
                        array: "b".into(),
                        indices: vec![IrExpr::sub(IrExpr::var("v0"), IrExpr::Int(1))],
                    },
                    IrExpr::Load {
                        array: "b".into(),
                        indices: vec![IrExpr::add(IrExpr::var("v0"), IrExpr::Int(1))],
                    },
                ),
            },
        }],
    };
    let vcs = generate_vcs(&nest, &kernel.assumptions, &empty_invariants(&nest), &post);
    assert!(
        vcs.iter().any(|vc| vc
            .hypotheses
            .iter()
            .any(|h| matches!(h, stng_pred::Pred::Stride { .. }))),
        "strided nest must emit stride hypotheses"
    );
    assert_verdict_agreement(&vcs, "strided/stride-facts");
}

#[test]
fn budget_interruption_classification_matches_legacy() {
    // Counter-only budgets from starvation up to generous: compiled and
    // legacy must classify identically at every level, and the sweep must
    // actually observe both a tripped and an untripped budget.
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let mut tripped = 0usize;
    let mut clean = 0usize;
    for attempts in [1, 2, 8, 32, 1 << 20] {
        if assert_governed_agreement(&vcs, attempts, "running-example/governed") {
            tripped += 1;
        } else {
            clean += 1;
        }
    }
    assert!(tripped > 0, "no budget level tripped: sweep is vacuous");
    assert!(clean > 0, "every budget level tripped: sweep is vacuous");
}

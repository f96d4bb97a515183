//! Differential property test: the batched VC engine (through its one-lane
//! `CompiledVcSet::check`) agrees with the tree-walking evaluator on every
//! captured state of every corpus kernel —
//! outcomes (`Vacuous` / `Holds` / `Violated`) match exactly, and
//! evaluation-error cases reject identically (both engines fail, never one).
//!
//! For each corpus kernel that lowers into the analyzable nest shape, the
//! test captures the bounded checker's reachable states once, then checks
//! four VC families designed to hit every outcome:
//!
//! * a *trivial* postcondition (`out[v⃗] = out[v⃗]`) — holds everywhere;
//! * a *wrong* postcondition (`out[v⃗] = out[v⃗] + 1`) — violated on every
//!   non-empty domain;
//! * an *erroring* postcondition (`out[v⃗] = out[v⃗ + 900]`) — evaluation
//!   fails with an out-of-bounds read;
//! * an *unbound-hypothesis* variant — a hypothesis mentioning a variable
//!   no state binds, making every state vacuous.
//!
//! The generated VC bodies are the kernels' own statements (via
//! `generate_vcs`), so store/assignment compilation is exercised too; the
//! running example additionally runs with its real hand-written invariants.
//! CI runs this in release as part of the bench-smoke job.

use stng_ir::ir::{CmpOp, IrExpr, Kernel};
use stng_ir::lower::kernel_from_source;
use stng_ir::value::ModInt;
use stng_pred::compile::CompiledVcSet;
use stng_pred::eval::check_vc_on_state;
use stng_pred::lang::{Invariant, OutEq, Postcondition, QuantBound, QuantClause};
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs, Vc};
use stng_pred::{fixtures, LoopNest};
use stng_solve::bounded::{BoundedChecker, CheckSession};

/// A postcondition `out[v0..] = f(out[v0..])` over the declared bounds of
/// every output array (`shift` displaces the read index to force errors;
/// `bump` adds 1 to force violations).
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

/// Compares compiled and interpreted checking of `vcs` on every captured
/// state of `session`, failing loudly on any divergence.
fn assert_agreement(session: &CheckSession, vcs: &[Vc], label: &str) -> (usize, [usize; 4]) {
    let compiled = CompiledVcSet::compile(vcs, session.map())
        .unwrap_or_else(|e| panic!("{label}: corpus VCs must stay compilable, got {e}"));
    let mut sc = compiled.scratch::<ModInt>();
    let mut checks = 0usize;
    // [vacuous, holds, violated, errors]
    let mut outcomes = [0usize; 4];
    for unit in session.captured_units() {
        let unit = unit.as_ref().expect("capture succeeds");
        for (origin, state) in &unit.states {
            let oracle_state = state.to_state();
            for (k, vc) in vcs.iter().enumerate() {
                let interp = check_vc_on_state(vc, &oracle_state);
                let fast = compiled.check(k, state, &mut sc);
                checks += 1;
                match (interp, fast) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a, b,
                            "{label}: outcome divergence on VC '{}' at {} \
                             (size {}, trial {})",
                            vc.name, origin, unit.size, unit.trial
                        );
                        outcomes[match a {
                            stng_pred::eval::VcOutcome::Vacuous => 0,
                            stng_pred::eval::VcOutcome::Holds => 1,
                            stng_pred::eval::VcOutcome::Violated => 2,
                        }] += 1;
                    }
                    (Err(_), Err(_)) => outcomes[3] += 1,
                    (a, b) => panic!(
                        "{label}: error divergence on VC '{}' at {} (size {}, trial {}): \
                         interpreted {a:?} vs compiled {b:?}",
                        vc.name, origin, unit.size, unit.trial
                    ),
                }
            }
        }
    }
    (checks, outcomes)
}

/// A small checker configuration so the corpus sweep stays fast in debug
/// builds while still capturing multi-unit, multi-size state sets.
fn test_checker() -> BoundedChecker {
    BoundedChecker {
        grid_sizes: vec![3, 4],
        trials_per_size: 1,
        ..BoundedChecker::default()
    }
}

#[test]
fn compiled_checking_agrees_with_interpreter_on_every_corpus_kernel() {
    let mut kernels_covered = 0usize;
    let mut total_checks = 0usize;
    let mut totals = [0usize; 4];
    for corpus_kernel in stng_corpus::all_kernels() {
        let Ok(kernel) = kernel_from_source(&corpus_kernel.source, 0) else {
            continue; // outside the liftable subset: nothing to check
        };
        let Ok(nest) = analyze_loop_nest(&kernel) else {
            continue;
        };
        let invariants = empty_invariants(&nest);
        let session = CheckSession::new(test_checker(), kernel.clone());
        if session.captured_units().iter().any(|u| u.is_err()) {
            continue;
        }
        kernels_covered += 1;

        let posts = [
            ("trivial", synthetic_post(&kernel, 0, false)),
            ("wrong", synthetic_post(&kernel, 0, true)),
            ("erroring", synthetic_post(&kernel, 900, false)),
        ];
        for (family, post) in posts {
            let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
            let label = format!("{}/{family}", corpus_kernel.name);
            let (checks, outcomes) = assert_agreement(&session, &vcs, &label);
            total_checks += checks;
            for (t, o) in totals.iter_mut().zip(outcomes) {
                *t += o;
            }
        }

        // Unbound-hypothesis family: every state is vacuous in both engines.
        let mut vcs = generate_vcs(
            &nest,
            &kernel.assumptions,
            &invariants,
            &synthetic_post(&kernel, 0, false),
        );
        for vc in &mut vcs {
            vc.hypotheses.push(stng_pred::Pred::Bool(IrExpr::cmp(
                CmpOp::Le,
                IrExpr::var("never_bound_differential_var"),
                IrExpr::Int(0),
            )));
        }
        let label = format!("{}/unbound-hyp", corpus_kernel.name);
        let (checks, outcomes) = assert_agreement(&session, &vcs, &label);
        total_checks += checks;
        for (t, o) in totals.iter_mut().zip(outcomes) {
            *t += o;
        }
    }
    // The corpus must actually exercise the property: every kernel that
    // captures cleanly (the other seven hit interpreter errors: out-of-bounds
    // `density` reads in ackl95, akl85, amkl100, ickl10 and rfkl109, unbound
    // variables in mg_norm and mg_smooth), many checks, and every outcome
    // class (including errors) observed. The exact count makes a kernel
    // that silently drops out fail the test.
    assert_eq!(
        kernels_covered, 25,
        "corpus kernels participating in the differential"
    );
    assert!(total_checks > 10_000, "only {total_checks} checks ran");
    let [vacuous, holds, violated, errors] = totals;
    assert!(vacuous > 0, "no vacuous outcomes observed");
    assert!(holds > 0, "no holding outcomes observed");
    assert!(violated > 0, "no violated outcomes observed");
    assert!(errors > 0, "no evaluation-error outcomes observed");
}

#[test]
fn compiled_checking_agrees_on_real_invariants_and_strides() {
    // The running example with its hand-written invariants exercises
    // DataEq scalar facts and non-trivial hypothesis sets...
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let session = CheckSession::new(test_checker(), kernel);
    let (checks, _) = assert_agreement(&session, &vcs, "running-example/real-invariants");
    assert!(checks > 0);

    // ...and a strided kernel exercises Pred::Stride hypotheses plus
    // strided quantifier domains.
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
    let session = CheckSession::new(test_checker(), kernel);
    let (checks, _) = assert_agreement(&session, &vcs, "strided/stride-facts");
    assert!(checks > 0);
}

//! Differential property test for the adaptive bounded screen: the staged
//! (escalating-tier), batched `find_counterexample` must agree with the
//! exhaustive tree-walking reference scan (`find_counterexample_exhaustive`,
//! which evaluates every VC with `check_vc_on_state`) on every candidate's
//! *verdict* — counterexample present, absent, or error — across the whole
//! corpus.
//!
//! The two scans are allowed to report *different* counterexamples (the
//! adaptive scan is VC-major within a unit and sweeps states in SoA
//! batches; the reference is state-major), but never to disagree on whether
//! one exists: CEGIS only consumes presence, so that is the contract the
//! production engine must keep.
//!
//! Candidate families per kernel mirror the compiled-vs-interpreter
//! differential: a trivial postcondition (survives), a wrong one (killed by
//! a violation), an erroring one (killed by an evaluation error), and an
//! unbound-hypothesis variant (vacuous everywhere, survives). Each family
//! is screened twice through one shared session so the second screening
//! runs on the captured-state cache.
//! CI runs this in release as part of the bench-smoke job.

use stng_ir::ir::{CmpOp, IrExpr, Kernel};
use stng_ir::lower::kernel_from_source;
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

/// Screens `vcs` through both the adaptive and the exhaustive scan and
/// asserts verdict agreement. Returns 0/1/2 for survived/killed/error.
fn assert_verdicts_agree(session: &CheckSession, vcs: &[Vc], label: &str) -> usize {
    let adaptive = session.find_counterexample(vcs);
    let exhaustive = session.find_counterexample_exhaustive(vcs);
    match (&adaptive, &exhaustive) {
        (Ok(None), Ok(None)) => 0,
        (Ok(Some(_)), Ok(Some(_))) => 1,
        (Err(_), Err(_)) => 2,
        _ => panic!(
            "{label}: verdict divergence — adaptive {adaptive:?} vs exhaustive {exhaustive:?}"
        ),
    }
}

/// A small checker configuration so the corpus sweep stays fast in debug
/// builds while still capturing multi-unit, multi-size tier sets.
fn test_checker() -> BoundedChecker {
    BoundedChecker {
        grid_sizes: vec![3, 4],
        trials_per_size: 2,
        ..BoundedChecker::default()
    }
}

#[test]
fn adaptive_screen_agrees_with_exhaustive_on_every_corpus_kernel() {
    let mut kernels_covered = 0usize;
    // [survived, killed, error]
    let mut verdicts = [0usize; 3];
    for corpus_kernel in stng_corpus::all_kernels() {
        let Ok(kernel) = kernel_from_source(&corpus_kernel.source, 0) else {
            continue; // outside the liftable subset: nothing to screen
        };
        let Ok(nest) = analyze_loop_nest(&kernel) else {
            continue;
        };
        let invariants = empty_invariants(&nest);
        let session = CheckSession::new(test_checker(), kernel.clone());
        kernels_covered += 1;

        let mut families = vec![
            ("trivial", {
                generate_vcs(
                    &nest,
                    &kernel.assumptions,
                    &invariants,
                    &synthetic_post(&kernel, 0, false),
                )
            }),
            (
                "wrong",
                generate_vcs(
                    &nest,
                    &kernel.assumptions,
                    &invariants,
                    &synthetic_post(&kernel, 0, true),
                ),
            ),
            (
                "erroring",
                generate_vcs(
                    &nest,
                    &kernel.assumptions,
                    &invariants,
                    &synthetic_post(&kernel, 900, false),
                ),
            ),
        ];
        // Unbound-hypothesis family: every state vacuous in both scans.
        let mut unbound = generate_vcs(
            &nest,
            &kernel.assumptions,
            &invariants,
            &synthetic_post(&kernel, 0, false),
        );
        for vc in &mut unbound {
            vc.hypotheses.push(stng_pred::Pred::Bool(IrExpr::cmp(
                CmpOp::Le,
                IrExpr::var("never_bound_differential_var"),
                IrExpr::Int(0),
            )));
        }
        families.push(("unbound-hyp", unbound));

        // Two rounds: the second screens states the first already captured,
        // so the cached-capture path is differentially tested too.
        for round in 0..2 {
            for (family, vcs) in &families {
                let label = format!("{}/{family}/round{round}", corpus_kernel.name);
                verdicts[assert_verdicts_agree(&session, vcs, &label)] += 1;
            }
        }
    }
    // The corpus must actually exercise the property: many kernels and both
    // surviving and killed candidates (error agreement is covered by the
    // capture-failure case below and by killed evaluation errors, which
    // reject as counterexamples in both scans).
    assert!(
        kernels_covered >= 20,
        "expected most corpus kernels to participate, got {kernels_covered}"
    );
    let [survived, killed, _] = verdicts;
    assert!(survived > 20, "only {survived} surviving candidates");
    assert!(killed > 20, "only {killed} killed candidates");
}

#[test]
fn adaptive_screen_agrees_on_real_invariants() {
    // The running example with its hand-written invariants: the correct
    // candidate must survive both scans, and stay surviving across repeated
    // screenings of the same session.
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let session = CheckSession::new(test_checker(), kernel);
    for round in 0..3 {
        let verdict = assert_verdicts_agree(&session, &vcs, &format!("running-example/{round}"));
        assert_eq!(verdict, 0, "the real invariants survive the screen");
    }
}

#[test]
fn adaptive_screen_agrees_on_capture_errors() {
    // A kernel whose capture fails at size 4 (`a` declared `0..min(n,3)`
    // but stored through `1..n`): both scans must surface the capture error
    // for a surviving candidate, and both must prefer an earlier tier's
    // violation for a killed one.
    use stng_ir::ir::{IterDomain, Param, ParamKind};
    use stng_pred::vcgen::VcScope;
    let kernel = Kernel {
        name: "oob_at_4".into(),
        params: vec![
            Param {
                name: "n".into(),
                kind: ParamKind::IntScalar,
            },
            Param {
                name: "a".into(),
                kind: ParamKind::Array {
                    dims: vec![(
                        IrExpr::Int(0),
                        IrExpr::Call {
                            func: "min".into(),
                            args: vec![IrExpr::var("n"), IrExpr::Int(3)],
                        },
                    )],
                },
            },
        ],
        locals: vec![Param {
            name: "i".into(),
            kind: ParamKind::IntScalar,
        }],
        body: vec![stng_ir::ir::IrStmt::Loop {
            domain: IterDomain::unit("i", IrExpr::Int(1), IrExpr::var("n")),
            body: vec![stng_ir::ir::IrStmt::Store {
                array: "a".into(),
                indices: vec![IrExpr::var("i")],
                value: IrExpr::Real(0.0),
            }],
        }],
        assumptions: vec![],
    };
    let tautology = Vc {
        name: "tautology".into(),
        hypotheses: vec![],
        body: vec![],
        conclusion: stng_pred::Pred::Bool(IrExpr::cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(0))),
        int_scalars: vec![],
        scope: VcScope::Initial,
    };
    let always_false = Vc {
        conclusion: stng_pred::Pred::Bool(IrExpr::cmp(CmpOp::Eq, IrExpr::Int(0), IrExpr::Int(1))),
        name: "always-false".into(),
        ..tautology.clone()
    };
    let session = CheckSession::new(BoundedChecker::new(), kernel);
    assert_eq!(
        assert_verdicts_agree(&session, std::slice::from_ref(&always_false), "oob/killed"),
        1,
        "the size-3 violation wins over the size-4 capture error in both scans"
    );
    assert_eq!(
        assert_verdicts_agree(&session, std::slice::from_ref(&tautology), "oob/error"),
        2,
        "a surviving candidate surfaces the size-4 capture error in both scans"
    );
}

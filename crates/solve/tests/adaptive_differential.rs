//! Differential pins for the bounded screen: the batched
//! `find_counterexample` must agree with the exhaustive tree-walking
//! reference scan (`find_counterexample_exhaustive`) on every candidate's
//! *verdict* — counterexample present, absent, or error.
//!
//! The corpus-wide sweep of this property is the `diff.bounded-screen`
//! oracle in `stng-verify`; the two cases here pin the running example
//! with its real invariants and a kernel whose capture fails at one grid
//! size, directly against the solver crate.

use stng_ir::ir::{CmpOp, IrExpr, Kernel};
use stng_ir::lower::kernel_from_source;
use stng_pred::fixtures;
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs, Vc};
use stng_solve::bounded::{BoundedChecker, CheckSession};

/// Screens `vcs` through both the batched and the exhaustive scan and
/// asserts verdict agreement. Returns 0/1/2 for survived/killed/error.
fn assert_verdicts_agree(session: &CheckSession, vcs: &[Vc], label: &str) -> usize {
    let batched = session.find_counterexample(vcs);
    let exhaustive = session.find_counterexample_exhaustive(vcs);
    match (&batched, &exhaustive) {
        (Ok(None), Ok(None)) => 0,
        (Ok(Some(_)), Ok(Some(_))) => 1,
        (Err(_), Err(_)) => 2,
        _ => {
            panic!("{label}: verdict divergence — batched {batched:?} vs exhaustive {exhaustive:?}")
        }
    }
}

#[test]
fn adaptive_screen_agrees_on_real_invariants() {
    // The running example with its hand-written invariants: the correct
    // candidate must survive both scans, and stay surviving across repeated
    // screenings of the same session (the later ones on captured states).
    let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
    let nest = analyze_loop_nest(&kernel).unwrap();
    let vcs = generate_vcs(
        &nest,
        &kernel.assumptions,
        &fixtures::running_example_invariants(),
        &fixtures::running_example_post(),
    );
    let session = CheckSession::new(
        BoundedChecker {
            grid_sizes: vec![3, 4],
            trials_per_size: 2,
            ..BoundedChecker::default()
        },
        kernel,
    );
    for round in 0..3 {
        let verdict = assert_verdicts_agree(&session, &vcs, &format!("running-example/{round}"));
        assert_eq!(verdict, 0, "the real invariants survive the screen");
    }
}

#[test]
fn adaptive_screen_agrees_on_capture_errors() {
    // A kernel whose capture fails at size 4 (`a` declared `0..min(n,3)`
    // but stored through `1..n`): both scans must surface the capture error
    // for a surviving candidate, and both must report the size-3 violation
    // for a killed one.
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

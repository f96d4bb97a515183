//! Layer 1b — exhaustive model checking of the VC bytecode compiler and
//! the SoA batch executor against the tree-walking evaluator.
//!
//! A fixed 3-point 1D kernel is executed once (all sizes, all trials) to
//! capture its reachable machine states. Then every VC in a small,
//! *completely enumerated* grammar is checked on every captured state by
//! both engines:
//!
//! * conclusions — every comparison `a ⋈ b` over a fixed atom set
//!   (`i`, `n`, `0`, `1`, `i+1`, `n-1`) and every comparison operator;
//! * hypotheses — none, or any single comparison from the same set. Both
//!   engines check the conclusion first and reach the hypothesis only
//!   where the conclusion fails, so a state is vacuous exactly when the
//!   conclusion fails and the hypothesis is false there; false conclusions
//!   are common in the grammar, so all three outcomes occur;
//! * bodies — empty, or the kernel's own loop nest (exercising store and
//!   loop compilation in the VC prelude);
//! * a quantified family — `∀v ∈ [0,n]: a[v] = a[v+shift]` for shifts
//!   {0, 900} plus a coefficient-bumped variant, exercising quantifier
//!   compilation, array loads, holds/violated, and evaluation errors — and
//!   the same three shapes over the read-only array, `b[v] = b[v+shift]`.
//!   Every state of one capture unit shares `b`'s payload, so batches take
//!   the lane-uniform data path on the right-hand side (one load and one
//!   add per quantifier point for all lanes) while the left-hand cell is
//!   still read per lane, including at the out-of-bounds shared offset that
//!   must fail lane by lane.
//!
//! Every (VC, state) pair must agree exactly between the batched engine
//! (through its one-lane `CompiledVcSet::check`) and the tree interpreter
//! (`Vacuous`/`Holds`/`Violated`, and errors must pair with errors), and
//! the same engine run over whole-unit batches of up to 64 lanes must give
//! each lane the one-lane call's exact outcome or error. Each
//! enumerated VC chunk is additionally screened through
//! `find_counterexample` (SoA batched — including the lane-uniform offset
//! fast path) against the tree-walking `find_counterexample_exhaustive`,
//! pinning verdict agreement of the whole production screen on the same
//! enumerated programs.

use crate::report::CheckReport;
use stng_intern::guard::Budget;
use stng_ir::ir::{CmpOp, IrExpr};
use stng_ir::lower::kernel_from_source;
use stng_ir::slots::{SlotState, SLOT_BATCH_MAX_LANES};
use stng_ir::value::ModInt;
use stng_pred::compile::CompiledVcSet;
use stng_pred::eval::{check_vc_on_state, VcOutcome};
use stng_pred::lang::{OutEq, QuantBound, QuantClause};
use stng_pred::vcgen::{Vc, VcScope};
use stng_pred::Pred;
use stng_solve::bounded::{BoundedChecker, CheckSession};

const KERNEL_SRC: &str = r#"
procedure vslots(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1
    a(i) = b(i-1) + b(i+1)
  enddo
end procedure
"#;

/// The enumerated integer-expression atoms.
fn atoms() -> Vec<IrExpr> {
    vec![
        IrExpr::var("i"),
        IrExpr::var("n"),
        IrExpr::Int(0),
        IrExpr::Int(1),
        IrExpr::add(IrExpr::var("i"), IrExpr::Int(1)),
        IrExpr::sub(IrExpr::var("n"), IrExpr::Int(1)),
    ]
}

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// Every comparison over the atom set.
fn comparisons() -> Vec<IrExpr> {
    let atoms = atoms();
    let mut out = Vec::new();
    for a in &atoms {
        for b in &atoms {
            for op in OPS {
                out.push(IrExpr::cmp(op, a.clone(), b.clone()));
            }
        }
    }
    out
}

/// The quantified-conclusion family over each of the kernel's own arrays:
/// the output `a` and the read-only input `b`.
fn quant_conclusions() -> Vec<(String, Pred)> {
    let clause = |array: &str, shift: i64, bump: bool| {
        let v = IrExpr::var("qv0");
        let read = if shift == 0 {
            v.clone()
        } else {
            IrExpr::add(v.clone(), IrExpr::Int(shift))
        };
        let mut rhs = IrExpr::Load {
            array: array.into(),
            indices: vec![read],
        };
        if bump {
            rhs = IrExpr::add(rhs, IrExpr::Real(1.0));
        }
        Pred::Forall(QuantClause {
            bounds: vec![QuantBound::inclusive(
                "qv0",
                IrExpr::Int(0),
                IrExpr::var("n"),
            )],
            eq: OutEq {
                array: array.into(),
                indices: vec![v],
                rhs,
            },
        })
    };
    vec![
        ("holds".into(), clause("a", 0, false)),
        ("violated".into(), clause("a", 0, true)),
        ("erroring".into(), clause("a", 900, false)),
        ("input".into(), clause("b", 0, false)),
        ("input-bumped".into(), clause("b", 0, true)),
        ("input-erroring".into(), clause("b", 900, false)),
    ]
}

/// Checks one VC set on every captured state by both engines, recording
/// each (VC, state) pair and the outcome class tallies.
fn check_set(session: &CheckSession, vcs: &[Vc], check: &mut CheckReport, outcomes: &mut [u64; 4]) {
    let compiled = match CompiledVcSet::compile(vcs, session.map()) {
        Ok(c) => c,
        Err(e) => {
            check.fail(format!("enumerated VC set failed to compile: {e}"));
            return;
        }
    };
    let mut sc = compiled.scratch::<ModInt>();
    let mut bsc = compiled.batch_scratch::<ModInt>();
    let mut out = Vec::new();
    for unit in session.captured_units() {
        let unit = unit.as_ref().expect("fixed kernel capture succeeds");
        // Whole-unit batches, as the screen runs them: `batched[k][s]` is
        // VC `k` on state `s`.
        let mut batched = vec![Vec::with_capacity(unit.states.len()); vcs.len()];
        for chunk in unit.states.chunks(SLOT_BATCH_MAX_LANES) {
            let lanes: Vec<&SlotState<ModInt>> = chunk.iter().map(|(_, st)| st).collect();
            for (k, per_state) in batched.iter_mut().enumerate() {
                compiled.check_batch(k, &lanes, &mut sc, &mut bsc, &Budget::unlimited(), &mut out);
                per_state.append(&mut out);
            }
        }
        for (s, (origin, state)) in unit.states.iter().enumerate() {
            let oracle_state = state.to_state();
            for (k, vc) in vcs.iter().enumerate() {
                check.cases += 1;
                let slow = check_vc_on_state(vc, &oracle_state);
                let fast = compiled.check(k, state, &mut sc);
                if batched[k][s] != fast {
                    check.fail(format!(
                        "VC '{}' at {origin} (size {}, trial {}): one-lane {fast:?} vs \
                         {}-lane batch {:?}",
                        vc.name,
                        unit.size,
                        unit.trial,
                        unit.states.len().min(SLOT_BATCH_MAX_LANES),
                        batched[k][s]
                    ));
                    continue;
                }
                match (slow, fast) {
                    (Ok(a), Ok(b)) if a == b => {
                        outcomes[match a {
                            VcOutcome::Vacuous => 0,
                            VcOutcome::Holds => 1,
                            VcOutcome::Violated => 2,
                        }] += 1;
                    }
                    (Err(_), Err(_)) => outcomes[3] += 1,
                    (a, b) => check.fail(format!(
                        "VC '{}' at {origin} (size {}, trial {}): tree {a:?} vs compiled {b:?}",
                        vc.name, unit.size, unit.trial
                    )),
                }
            }
        }
    }

    // The same enumerated set through the full production screen (SoA
    // batch) against the exhaustive tree-walking reference scan.
    crate::layer2::screen_verdict(session, vcs, "enumerated chunk", None, check);
}

/// Runs the slot-program model checker. `deep` enables the kernel-body
/// prelude variant for every VC (doubling the enumeration).
pub fn run(deep: bool) -> Vec<CheckReport> {
    let mut check = CheckReport::new("slots.enumerated-vcs");
    let kernel = kernel_from_source(KERNEL_SRC, 0).expect("fixed slot kernel lowers");
    let body = kernel.body.clone();
    let session = CheckSession::new(
        BoundedChecker {
            grid_sizes: vec![3, 4],
            trials_per_size: 2,
            ..BoundedChecker::default()
        },
        kernel,
    );
    let comparisons = comparisons();
    // Hypothesis options: none, or one comparison (sampled exhaustively
    // from a stride through the comparison set to keep the product
    // tractable while covering all operators and both truth values).
    let hyp_options: Vec<Option<IrExpr>> = std::iter::once(None)
        .chain(comparisons.iter().step_by(7).cloned().map(Some))
        .collect();
    let bodies: Vec<(&str, Vec<stng_ir::ir::IrStmt>)> = if deep {
        vec![("nobody", vec![]), ("kernelbody", body)]
    } else {
        vec![("nobody", vec![])]
    };

    let mut vcs: Vec<Vc> = Vec::new();
    let mut enumerated = 0u64;
    let mut outcomes = [0u64; 4];
    for (body_tag, body) in &bodies {
        for (ci, conclusion) in comparisons.iter().enumerate() {
            for (hi, hyp) in hyp_options.iter().enumerate() {
                enumerated += 1;
                vcs.push(Vc {
                    name: format!("cmp{ci}-hyp{hi}-{body_tag}"),
                    hypotheses: hyp.iter().cloned().map(Pred::Bool).collect(),
                    body: body.clone(),
                    conclusion: Pred::Bool(conclusion.clone()),
                    int_scalars: vec![],
                    scope: VcScope::Initial,
                });
                if vcs.len() == 64 {
                    check_set(&session, &vcs, &mut check, &mut outcomes);
                    vcs.clear();
                }
            }
        }
        for (tag, conclusion) in quant_conclusions() {
            for (hi, hyp) in hyp_options.iter().enumerate() {
                enumerated += 1;
                vcs.push(Vc {
                    name: format!("quant-{tag}-hyp{hi}-{body_tag}"),
                    hypotheses: hyp.iter().cloned().map(Pred::Bool).collect(),
                    body: body.clone(),
                    conclusion: conclusion.clone(),
                    int_scalars: vec![],
                    scope: VcScope::Initial,
                });
                if vcs.len() == 64 {
                    check_set(&session, &vcs, &mut check, &mut outcomes);
                    vcs.clear();
                }
            }
        }
    }
    if !vcs.is_empty() {
        check_set(&session, &vcs, &mut check, &mut outcomes);
    }

    check.count("vcs-enumerated", enumerated);
    check.count("vacuous", outcomes[0]);
    check.count("holds", outcomes[1]);
    check.count("violated", outcomes[2]);
    check.count("errors", outcomes[3]);
    // The grammar must actually reach every outcome class; a silently
    // narrowed enumeration would show up here.
    for (class, seen) in ["vacuous", "holds", "violated", "errors"]
        .iter()
        .zip(outcomes)
    {
        if seen == 0 {
            check.fail(format!("outcome class '{class}' never observed"));
        }
    }
    vec![check]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_kernel_lowers_and_small_sweep_is_green() {
        // The full sweep runs via `stng-verify`; keep the debug-build test
        // to one chunk.
        let kernel = kernel_from_source(KERNEL_SRC, 0).expect("lowers");
        let session = CheckSession::new(
            BoundedChecker {
                grid_sizes: vec![3],
                trials_per_size: 1,
                ..BoundedChecker::default()
            },
            kernel,
        );
        let mut check = CheckReport::new("test");
        let mut outcomes = [0u64; 4];
        let vcs: Vec<Vc> = comparisons()
            .iter()
            .take(12)
            .enumerate()
            .map(|(k, c)| Vc {
                name: format!("t{k}"),
                hypotheses: vec![],
                body: vec![],
                conclusion: Pred::Bool(c.clone()),
                int_scalars: vec![],
                scope: VcScope::Initial,
            })
            .collect();
        check_set(&session, &vcs, &mut check, &mut outcomes);
        assert_eq!(check.failures, 0, "{:?}", check.notes);
        assert!(check.cases > 0);
    }
}

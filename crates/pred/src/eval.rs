//! Evaluation of predicates and verification conditions on concrete states.
//!
//! This is the "bounded checking" half of the paper's checking hierarchy
//! (§3.1): predicates are evaluated against small concrete states, with
//! universal quantifiers expanded by enumeration. The sound half lives in
//! `stng-solve`.
//!
//! A verification condition `H ⇒ C` is checked as the implication it is:
//! the body runs and the conclusion `C` is evaluated first, and the
//! hypotheses `H` only where `C` fails. On a correct candidate every
//! captured state is reachable, every hypothesis holds there, and no
//! hypothesis evaluation could ever refute it, so the screen skips them.

use crate::lang::{Pred, QuantClause};
use crate::vcgen::Vc;
use stng_ir::error::Result;
use stng_ir::interp::{eval_bool_expr, eval_data_expr, eval_int_expr, run_stmts, State};
use stng_ir::value::{DataValue, ModInt};

/// Equality of data values as used by predicate evaluation. Floating-point
/// values compare approximately (lifting only guarantees equality over the
/// reals, and both sides of an `outEq` may associate operations differently);
/// modular and symbolic values compare exactly.
pub trait ValueEq: DataValue {
    /// Returns `true` when the two values are to be considered equal.
    fn value_eq(&self, other: &Self) -> bool;
}

impl ValueEq for f64 {
    fn value_eq(&self, other: &Self) -> bool {
        let scale = self.abs().max(other.abs()).max(1.0);
        (self - other).abs() <= 1e-9 * scale
    }
}

impl ValueEq for ModInt {
    fn value_eq(&self, other: &Self) -> bool {
        self == other
    }
}

/// Outcome of checking one verification condition on one concrete state.
///
/// A VC `H ⇒ C` holds wherever `C` holds, so the conclusion is checked
/// first and the hypotheses only where it fails (see
/// [`check_vc_on_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcOutcome {
    /// The conclusion failed (or erred) and some hypothesis was false (or
    /// erred): the state says nothing about validity.
    Vacuous,
    /// The conclusion held after the body; the hypotheses were not
    /// evaluated.
    Holds,
    /// All hypotheses held but the conclusion failed: a counterexample.
    Violated,
}

/// Evaluates a predicate on a state.
///
/// # Errors
///
/// Propagates interpreter errors (unbound variables, out-of-bounds indices).
pub fn eval_pred<V: ValueEq>(pred: &Pred, state: &mut State<V>) -> Result<bool> {
    match pred {
        Pred::Bool(e) => eval_bool_expr(e, state),
        Pred::DataEq { lhs, rhs } => {
            let l = eval_data_expr(lhs, state)?;
            let r = eval_data_expr(rhs, state)?;
            Ok(l.value_eq(&r))
        }
        Pred::Forall(clause) => eval_quant_clause(clause, state),
        Pred::Stride { var, lo, step } => {
            let v = state.int(var).ok_or_else(|| {
                stng_ir::error::Error::interp(format!("unbound loop counter '{var}'"))
            })?;
            let lo = eval_int_expr(lo, state)?;
            Ok(v >= lo && (v - lo).rem_euclid(*step) == 0)
        }
        Pred::And(ps) => {
            for p in ps {
                if !eval_pred(p, state)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
    }
}

/// Evaluates a universally quantified clause by enumerating the (finite)
/// domain of its index variables.
///
/// # Errors
///
/// Propagates interpreter errors from bound or body evaluation.
pub fn eval_quant_clause<V: ValueEq>(clause: &QuantClause, state: &mut State<V>) -> Result<bool> {
    // Resolve the concrete range of every quantified variable. Strided
    // bounds enumerate the arithmetic progression lo, lo+step, … ≤ hi.
    let mut ranges = Vec::new();
    for bound in &clause.bounds {
        let lo = eval_int_expr(&bound.inclusive_lo(), state)?;
        let hi = eval_int_expr(&bound.inclusive_hi(), state)?;
        ranges.push((bound.var.clone(), lo, hi, bound.step.max(1)));
    }
    // Empty ranges make the clause vacuously true.
    if ranges.iter().any(|(_, lo, hi, _)| lo > hi) {
        return Ok(true);
    }
    // Save previous bindings of the quantified variables so evaluation does
    // not clobber the caller's state.
    let saved: Vec<(String, Option<i64>)> = ranges
        .iter()
        .map(|(var, _, _, _)| (var.clone(), state.int(var)))
        .collect();

    let mut current: Vec<i64> = ranges.iter().map(|(_, lo, _, _)| *lo).collect();
    let mut ok = true;
    'outer: loop {
        for (k, (var, _, _, _)) in ranges.iter().enumerate() {
            state.set_int(var.clone(), current[k]);
        }
        // Evaluate out[indices] = rhs at this point.
        let mut idx = Vec::with_capacity(clause.eq.indices.len());
        for e in &clause.eq.indices {
            idx.push(eval_int_expr(e, state)?);
        }
        let rhs = eval_data_expr(&clause.eq.rhs, state)?;
        let lhs = {
            let arr = state.array(&clause.eq.array).ok_or_else(|| {
                stng_ir::error::Error::interp(format!("unbound array '{}'", clause.eq.array))
            })?;
            arr.get(&idx).cloned().ok_or_else(|| {
                stng_ir::error::Error::interp(format!(
                    "index {idx:?} out of bounds for '{}'",
                    clause.eq.array
                ))
            })?
        };
        if !lhs.value_eq(&rhs) {
            ok = false;
            break 'outer;
        }
        // Advance the multi-index (last variable fastest), stepping each
        // dimension by its domain stride.
        let mut dim = ranges.len();
        loop {
            if dim == 0 {
                break 'outer;
            }
            dim -= 1;
            current[dim] += ranges[dim].3;
            if current[dim] <= ranges[dim].2 {
                break;
            }
            current[dim] = ranges[dim].1;
        }
    }

    // Restore the caller's bindings.
    for (var, old) in saved {
        match old {
            Some(v) => {
                state.set_int(var, v);
            }
            None => {
                state.ints.remove(&var);
            }
        }
    }
    Ok(ok)
}

/// Checks one verification condition against one concrete pre-state, as
/// the implication it is: the body runs and the conclusion is evaluated
/// first, and the hypotheses are evaluated (on the pre-state) only when the
/// conclusion did not hold.
///
/// | body, then conclusion | hypotheses | outcome |
/// | --- | --- | --- |
/// | conclusion holds | not evaluated | `Holds` |
/// | conclusion false, or body/conclusion error | one is false or errs | `Vacuous` |
/// | conclusion false | all hold | `Violated` |
/// | body or conclusion error | all hold | the error (body error first) |
///
/// # Errors
///
/// Propagates interpreter errors encountered while executing the body or
/// evaluating the conclusion on a state where every hypothesis holds.
pub fn check_vc_on_state<V: ValueEq>(vc: &Vc, pre_state: &State<V>) -> Result<VcOutcome> {
    let mut post = pre_state.clone();
    // Loop counters the body assigns must live in the integer part of the
    // state even when the pre-state does not bind them yet (e.g. the
    // initiation condition checked on the initial state).
    for name in &vc.int_scalars {
        post.ints.entry(name.clone()).or_insert(0);
    }
    let concluded = run_stmts(&vc.body, &mut post, 1_000_000)
        .and_then(|_| eval_pred(&vc.conclusion, &mut post));
    if let Ok(true) = concluded {
        return Ok(VcOutcome::Holds);
    }
    let mut pre = pre_state.clone();
    for hyp in &vc.hypotheses {
        // A hypothesis that cannot even be evaluated (it mentions variables
        // the state does not bind) says nothing about this state.
        match eval_pred(hyp, &mut pre) {
            Ok(true) => {}
            Ok(false) | Err(_) => return Ok(VcOutcome::Vacuous),
        }
    }
    concluded.map(|_| VcOutcome::Violated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::vcgen::{analyze_loop_nest, generate_vcs};
    use stng_ir::interp::{run_kernel, ArrayData};
    use stng_ir::lower::kernel_from_source;

    fn example_state(imax: i64, jmax: i64) -> (stng_ir::ir::Kernel, State<f64>) {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let mut state: State<f64> = State::new();
        state
            .set_int("imin", 0)
            .set_int("imax", imax)
            .set_int("jmin", 0)
            .set_int("jmax", jmax);
        state.allocate_arrays(&kernel, 0.0).unwrap();
        let b = ArrayData::from_fn(vec![(0, imax), (0, jmax)], |ix| {
            (ix[0] * 3 + ix[1] * 7) as f64 * 0.25 + 1.0
        });
        state.set_array("b", b);
        (kernel, state)
    }

    #[test]
    fn postcondition_holds_after_execution() {
        let (kernel, mut state) = example_state(5, 4);
        run_kernel(&kernel, &mut state).unwrap();
        let post = fixtures::running_example_post();
        assert!(eval_pred(&post.to_pred(), &mut state).unwrap());
    }

    #[test]
    fn postcondition_fails_on_untouched_state() {
        let (_kernel, mut state) = example_state(5, 4);
        let post = fixtures::running_example_post();
        assert!(!eval_pred(&post.to_pred(), &mut state).unwrap());
    }

    #[test]
    fn wrong_postcondition_fails_after_execution() {
        let (kernel, mut state) = example_state(5, 4);
        run_kernel(&kernel, &mut state).unwrap();
        // Claim a wrong stencil: a[vi,vj] = b[vi,vj] only.
        let mut post = fixtures::running_example_post();
        post.clauses[0].eq.rhs = stng_ir::ir::IrExpr::Load {
            array: "b".into(),
            indices: vec![
                stng_ir::ir::IrExpr::var("vi"),
                stng_ir::ir::IrExpr::var("vj"),
            ],
        };
        assert!(!eval_pred(&post.to_pred(), &mut state).unwrap());
    }

    #[test]
    fn empty_quantifier_range_is_vacuously_true() {
        let (_kernel, mut state) = example_state(5, 4);
        state.set_int("imax", -3); // makes the vi range empty
        let post = fixtures::running_example_post();
        assert!(eval_pred(&post.to_pred(), &mut state).unwrap());
    }

    #[test]
    fn vcs_hold_on_reachable_states_for_correct_candidates() {
        // Build the full VC set with the hand-written invariants and check
        // the exit VC on the final state of a run.
        let (kernel, mut state) = example_state(4, 3);
        let nest = analyze_loop_nest(&kernel).unwrap();
        let invariants = fixtures::running_example_invariants();
        let post = fixtures::running_example_post();
        let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
        run_kernel(&kernel, &mut state).unwrap();
        // After the loop, j = jmax + 1 (Fortran semantics) and i = imax + 1,
        // so the exit VC's conclusion, the postcondition, holds on the final
        // state.
        let exit = vcs.iter().find(|vc| vc.name == "exit").unwrap();
        assert_eq!(check_vc_on_state(exit, &state).unwrap(), VcOutcome::Holds);
        // The preservation VC is vacuous on the final state: its body runs
        // one more outer iteration past imax, so its conclusion does not
        // hold, and its loop-guard hypothesis i <= imax is false.
        let pres = vcs.iter().find(|vc| vc.name == "preservation(i)").unwrap();
        assert_eq!(check_vc_on_state(pres, &state).unwrap(), VcOutcome::Vacuous);
        let mut unguarded = pres.clone();
        unguarded.hypotheses.clear();
        assert!(
            !matches!(check_vc_on_state(&unguarded, &state), Ok(VcOutcome::Holds)),
            "the conclusion must fail here, or the hypotheses would not be reached"
        );
    }

    #[test]
    fn violated_vc_detected_with_wrong_invariant() {
        let (kernel, mut state) = example_state(4, 3);
        let nest = analyze_loop_nest(&kernel).unwrap();
        // Deliberately wrong: claim the whole output is done at loop exit
        // even though the invariant says nothing about it.
        let invariants = vec![
            crate::lang::Invariant::empty(),
            crate::lang::Invariant::empty(),
        ];
        let post = fixtures::running_example_post();
        let vcs = generate_vcs(&nest, &kernel.assumptions, &invariants, &post);
        let exit = vcs.iter().find(|vc| vc.name == "exit").unwrap();
        // On a state where the kernel has NOT run, hypotheses (empty invariant,
        // j > jmax) can be made true, but the postcondition fails.
        state.set_int("j", 100);
        assert_eq!(
            check_vc_on_state(exit, &state).unwrap(),
            VcOutcome::Violated
        );
    }

    #[test]
    fn quantifier_evaluation_restores_bindings() {
        let (kernel, mut state) = example_state(4, 3);
        run_kernel(&kernel, &mut state).unwrap();
        state.set_int("vi", 77);
        let post = fixtures::running_example_post();
        eval_pred(&post.to_pred(), &mut state).unwrap();
        assert_eq!(state.int("vi"), Some(77));
    }
}

//! Combined concrete/symbolic execution of kernels (§4.2, "Symbolic
//! Execution").
//!
//! Loop bounds and array sizes are fixed to small concrete values while array
//! contents and real scalar parameters stay symbolic. Executing the kernel
//! then yields, for every written output cell, a symbolic expression over the
//! inputs — the raw material for anti-unification — and, at every loop head,
//! a snapshot of the symbolic values of scalar temporaries, which drives the
//! synthesis of the scalar-equality conjuncts of loop invariants.

use crate::expr::SymExpr;
use std::collections::{BTreeMap, HashMap};
use stng_ir::error::{Error, Result};
use stng_ir::interp::{eval_bool_expr, eval_data_expr, eval_int_expr, ArrayData, State};
use stng_ir::ir::{IrStmt, Kernel, ParamKind};

/// A snapshot of the scalar environment at the head of one loop iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopHeadSnapshot {
    /// Current values of all loop counters in scope (outermost first).
    pub counters: Vec<(String, i64)>,
    /// Symbolic values of the real scalar locals at this point.
    pub scalars: HashMap<String, SymExpr>,
}

/// The result of symbolically executing a kernel once.
#[derive(Debug, Clone)]
pub struct SymbolicRun {
    /// The concrete integer bindings used for the run.
    pub bounds: HashMap<String, i64>,
    /// For every output array: the cells actually written and their final
    /// symbolic values, in index order.
    pub writes: BTreeMap<String, Vec<(Vec<i64>, SymExpr)>>,
    /// Per loop variable, the snapshots taken at the head of each iteration.
    pub loop_heads: HashMap<String, Vec<LoopHeadSnapshot>>,
}

/// Picks small concrete values for the integer parameters of a kernel so the
/// iteration spaces are non-degenerate: `*min`-style parameters get `0`,
/// `*max`-style parameters get `base`, and plain size parameters get `base`.
/// Assumptions from annotations are honoured by nudging values when violated.
pub fn choose_small_bounds(kernel: &Kernel, base: i64) -> HashMap<String, i64> {
    let mut bounds = HashMap::new();
    let mut params = kernel.int_params();
    params.sort();
    // Distinct parameters get distinct values so that bound expressions that
    // merely coincide on one run (e.g. `imax` vs `jmax`) are told apart.
    let mut min_counter = 0i64;
    let mut max_counter = 0i64;
    for name in params {
        let lower = name.to_lowercase();
        let value = if lower.ends_with("min") || lower.ends_with("lo") || lower.ends_with("_l") {
            // Scale the spacing with the base size so that two runs at
            // different bases also disambiguate lower-bound expressions.
            let v = min_counter * (base - 3).max(0);
            min_counter += 1;
            v
        } else {
            let v = base + max_counter;
            max_counter += 1;
            v
        };
        bounds.insert(name, value);
    }
    // Nudge values until the kernel's assumptions hold (bounded effort).
    if !kernel.assumptions.is_empty() {
        let mut state: State<f64> = State::new();
        for (k, v) in &bounds {
            state.set_int(k.clone(), *v);
        }
        for _ in 0..16 {
            let all_ok = kernel
                .assumptions
                .iter()
                .all(|a| eval_bool_expr(a, &state).unwrap_or(true));
            if all_ok {
                break;
            }
            for assumption in &kernel.assumptions {
                if !eval_bool_expr(assumption, &state).unwrap_or(true) {
                    if let Some(var) = assumption.free_vars().into_iter().next() {
                        let cur = state.int(&var).unwrap_or(0);
                        state.set_int(var.clone(), cur + 1);
                    }
                }
            }
        }
        for name in kernel.int_params() {
            if let Some(v) = state.int(&name) {
                bounds.insert(name, v);
            }
        }
    }
    bounds
}

/// Symbolically executes `kernel` with the given integer bindings.
///
/// # Errors
///
/// Fails when the kernel accesses arrays out of bounds under these bindings
/// or exceeds the execution step budget.
pub fn symbolic_execute(kernel: &Kernel, bounds: &HashMap<String, i64>) -> Result<SymbolicRun> {
    let _span = stng_obs::span(&stng_obs::names::SYM_EXEC);
    let mut state: State<SymExpr> = State::new();
    for (name, value) in bounds {
        state.set_int(name.clone(), *value);
    }
    // Real scalar parameters stay symbolic.
    for name in kernel.real_params() {
        state.set_real(name.clone(), SymExpr::var(name.clone()));
    }
    // Allocate arrays and fill them with their own read atoms.
    for param in &kernel.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut concrete = Vec::new();
            for (lo, hi) in dims {
                let lo = eval_int_expr(lo, &state)?;
                let hi = eval_int_expr(hi, &state)?;
                if hi < lo {
                    return Err(Error::interp(format!(
                        "array '{}' has empty dimension under chosen bounds",
                        param.name
                    )));
                }
                concrete.push((lo, hi));
            }
            let name = param.name.clone();
            let array =
                ArrayData::from_fn(concrete, |idx| SymExpr::read(name.clone(), idx.to_vec()));
            state.set_array(param.name.clone(), array);
        }
    }

    let mut exec = SymExecutor {
        loop_heads: HashMap::new(),
        counters: Vec::new(),
        real_locals: kernel
            .locals
            .iter()
            .filter(|p| p.kind == ParamKind::RealScalar)
            .map(|p| p.name.clone())
            .collect(),
        steps: 0,
        max_steps: 4_000_000,
    };
    exec.run(&kernel.body, &mut state)?;

    let mut writes: BTreeMap<String, Vec<(Vec<i64>, SymExpr)>> = BTreeMap::new();
    for array_name in kernel.output_arrays() {
        let final_array = state
            .array(&array_name)
            .expect("output array exists in state");
        let mut cells = Vec::new();
        for (idx, value) in final_array.iter_indexed() {
            let untouched = SymExpr::read(array_name.clone(), idx.clone());
            if *value != untouched {
                cells.push((idx, *value));
            }
        }
        writes.insert(array_name, cells);
    }

    Ok(SymbolicRun {
        bounds: bounds.clone(),
        writes,
        loop_heads: exec.loop_heads,
    })
}

/// A small dedicated executor that mirrors `stng_ir::interp::run_kernel` but
/// records a snapshot of scalar values at the head of every loop iteration.
struct SymExecutor {
    loop_heads: HashMap<String, Vec<LoopHeadSnapshot>>,
    counters: Vec<(String, i64)>,
    real_locals: Vec<String>,
    steps: u64,
    max_steps: u64,
}

impl SymExecutor {
    fn run(&mut self, stmts: &[IrStmt], state: &mut State<SymExpr>) -> Result<()> {
        for stmt in stmts {
            self.steps += 1;
            if self.steps > self.max_steps {
                return Err(Error::interp("symbolic execution step budget exhausted"));
            }
            match stmt {
                IrStmt::AssignScalar { name, value } => {
                    if state.ints.contains_key(name) {
                        let v = eval_int_expr(value, state)?;
                        state.ints.insert(name.clone(), v);
                    } else {
                        let v = eval_data_expr(value, state)?;
                        state.reals.insert(name.clone(), v);
                    }
                }
                IrStmt::Store {
                    array,
                    indices,
                    value,
                } => {
                    let idx: Result<Vec<i64>> =
                        indices.iter().map(|ix| eval_int_expr(ix, state)).collect();
                    let idx = idx?;
                    let v = eval_data_expr(value, state)?;
                    let arr = state
                        .arrays
                        .get_mut(array)
                        .ok_or_else(|| Error::interp(format!("unbound array '{array}'")))?;
                    if !arr.set(&idx, v) {
                        return Err(Error::interp(format!(
                            "store index {idx:?} out of bounds for '{array}'"
                        )));
                    }
                }
                IrStmt::Loop { domain, body } => {
                    let lo = eval_int_expr(&domain.lo, state)?;
                    let hi = eval_int_expr(&domain.hi, state)?;
                    let step = domain.step;
                    if step == 0 {
                        return Err(Error::interp("loop with zero step"));
                    }
                    let var = &domain.var;
                    let mut cur = lo;
                    loop {
                        let in_range = if step > 0 { cur <= hi } else { cur >= hi };
                        if !in_range {
                            break;
                        }
                        state.ints.insert(var.clone(), cur);
                        self.counters.push((var.clone(), cur));
                        self.snapshot(var, state);
                        self.run(body, state)?;
                        self.counters.pop();
                        cur += step;
                    }
                    state.ints.insert(var.clone(), cur);
                }
                IrStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    // Conditions in lifted kernels are integer comparisons;
                    // data-dependent conditions cannot be executed symbolically
                    // (the lifter rejects them before this point).
                    let taken = eval_bool_expr(cond, state)?;
                    if taken {
                        self.run(then_body, state)?;
                    } else {
                        self.run(else_body, state)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn snapshot(&mut self, loop_var: &str, state: &State<SymExpr>) {
        let scalars: HashMap<String, SymExpr> = self
            .real_locals
            .iter()
            .filter_map(|name| state.reals.get(name).map(|v| (name.clone(), *v)))
            .collect();
        self.loop_heads
            .entry(loop_var.to_string())
            .or_default()
            .push(LoopHeadSnapshot {
                counters: self.counters.clone(),
                scalars,
            });
    }
}

/// Convenience: symbolically executes a kernel with heuristically chosen
/// small bounds.
///
/// # Errors
///
/// See [`symbolic_execute`].
pub fn symbolic_execute_small(kernel: &Kernel, base: i64) -> Result<SymbolicRun> {
    let bounds = choose_small_bounds(kernel, base);
    symbolic_execute(kernel, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::lower::kernel_from_source;
    use stng_ir::value::DataValue;

    const RUNNING_EXAMPLE: &str = r#"
procedure sten(imin, imax, jmin, jmax, a, b)
  real (kind=8), dimension(imin:imax, jmin:jmax) :: a
  real (kind=8), dimension(imin:imax, jmin:jmax) :: b
  real :: t
  real :: q
  integer :: i
  integer :: j
  do j = jmin, jmax
    t = b(imin, j)
    do i = imin+1, imax
      q = b(i, j)
      a(i, j) = q + t
      t = q
    enddo
  enddo
end procedure
"#;

    #[test]
    fn choose_small_bounds_heuristics() {
        let kernel = kernel_from_source(RUNNING_EXAMPLE, 0).unwrap();
        let bounds = choose_small_bounds(&kernel, 4);
        // Lower bounds start near zero, upper bounds near the base size, and
        // distinct parameters get distinct values so bound expressions that
        // coincide by accident can be told apart.
        assert!(bounds["imin"] < bounds["imax"]);
        assert!(bounds["jmin"] < bounds["jmax"]);
        assert_ne!(bounds["imax"], bounds["jmax"]);
        assert_ne!(bounds["imin"], bounds["jmin"]);
    }

    #[test]
    fn running_example_produces_two_point_symbolic_values() {
        let kernel = kernel_from_source(RUNNING_EXAMPLE, 0).unwrap();
        let run = symbolic_execute_small(&kernel, 4).unwrap();
        let writes = &run.writes["a"];
        let rows = run.bounds["imax"] - run.bounds["imin"];
        let cols = run.bounds["jmax"] - run.bounds["jmin"] + 1;
        assert_eq!(writes.len(), (rows * cols) as usize);
        for (idx, value) in writes {
            let (i, j) = (idx[0], idx[1]);
            let expected = SymExpr::read("b", vec![i - 1, j]).add(&SymExpr::read("b", vec![i, j]));
            assert_eq!(*value, expected, "cell ({i},{j})");
        }
        // The paper's example: a(4, 2) = b[3,2] + b[4,2].
        let cell = writes.iter().find(|(idx, _)| idx == &vec![4, 2]).unwrap();
        assert_eq!(
            cell.1,
            SymExpr::read("b", vec![3, 2]).add(&SymExpr::read("b", vec![4, 2]))
        );
    }

    #[test]
    fn loop_head_snapshots_capture_scalar_temporaries() {
        let kernel = kernel_from_source(RUNNING_EXAMPLE, 0).unwrap();
        let run = symbolic_execute_small(&kernel, 3).unwrap();
        let inner = &run.loop_heads["i"];
        assert!(!inner.is_empty());
        for snap in inner {
            let i = snap.counters.iter().find(|(v, _)| v == "i").unwrap().1;
            let j = snap.counters.iter().find(|(v, _)| v == "j").unwrap().1;
            // At the head of each inner iteration, t == b[i-1, j].
            assert_eq!(snap.scalars["t"], SymExpr::read("b", vec![i - 1, j]));
        }
    }

    #[test]
    fn assumption_nudging_separates_equal_parameters() {
        let src = r#"
procedure p(n, sz0, sz1, a)
  integer :: sz0
  integer :: sz1
  real, dimension(1:n) :: a
  integer :: i
  ! STNG: assume(sz0 /= sz1)
  do i = 1, n
    a(i) = 1.0
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let bounds = choose_small_bounds(&kernel, 4);
        assert_ne!(bounds["sz0"], bounds["sz1"]);
    }

    #[test]
    fn untouched_output_cells_are_not_reported_as_writes() {
        let kernel = kernel_from_source(RUNNING_EXAMPLE, 0).unwrap();
        let run = symbolic_execute_small(&kernel, 4).unwrap();
        // Column i = imin is never written.
        assert!(run.writes["a"].iter().all(|(idx, _)| idx[0] != 0));
    }
}

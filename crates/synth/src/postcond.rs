//! Postcondition synthesis from inductive templates (§4.2).
//!
//! The kernel is symbolically executed twice with different small bounds.
//! For every output array, the observed per-cell expressions are anti-unified
//! into a template; each index hole is then solved against the observations
//! (the offset of a quantified variable must be consistent across all written
//! cells and both runs), the quantifier domain is matched to the written
//! region, and the resulting candidate is re-checked against every
//! observation — the inductive half of CEGIS.

use crate::control::{bits_for_choices, ControlBits};
use std::collections::HashMap;
use stng_ir::interp::{eval_data_expr, eval_int_expr, ArrayData, State};
use stng_ir::ir::{IrExpr, Kernel, ParamKind};
use stng_pred::lang::{OutEq, Postcondition, QuantBound, QuantClause};
use stng_sym::anti::{generalize, IndexTemplate, TemplateExpr};
use stng_sym::{choose_small_bounds, symbolic_execute, SymExpr, SymbolicRun};

/// The result of synthesizing a postcondition.
#[derive(Debug, Clone)]
pub struct PostcondCandidate {
    /// The synthesized summary.
    pub post: Postcondition,
    /// Search-space accounting.
    pub control_bits: ControlBits,
    /// Number of observation cells the candidate was checked against.
    pub observations_checked: usize,
    /// For every output array, the output dimension driven by each quantified
    /// variable (identity by construction: `v{k}` drives dimension `k`).
    pub quant_vars: HashMap<String, Vec<String>>,
    /// The symbolic run at the first grid size (`sizes.0`), which invariant
    /// synthesis reuses instead of executing the kernel again.
    pub run: SymbolicRun,
}

/// Configuration of postcondition synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct PostcondSynthesizer {
    /// The two grid sizes used for the symbolic runs.
    pub sizes: (i64, i64),
    /// Maximum |offset| considered when solving index holes.
    pub max_offset: i64,
    /// Worker threads for synthesizing independent output arrays
    /// concurrently.
    pub parallelism: usize,
}

impl Default for PostcondSynthesizer {
    fn default() -> Self {
        PostcondSynthesizer {
            sizes: (4, 5),
            max_offset: 4,
            parallelism: stng_intern::parallel::default_parallelism(),
        }
    }
}

impl PostcondSynthesizer {
    /// Creates a synthesizer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Synthesizes the postcondition of `kernel`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when no postcondition in the grammar
    /// matches the observed behaviour.
    pub fn synthesize(&self, kernel: &Kernel) -> Result<PostcondCandidate, String> {
        let run_a = symbolic_execute(kernel, &choose_small_bounds(kernel, self.sizes.0))
            .map_err(|e| format!("symbolic execution failed: {e}"))?;
        let run_b = symbolic_execute(kernel, &choose_small_bounds(kernel, self.sizes.1))
            .map_err(|e| format!("symbolic execution failed: {e}"))?;

        // Each output array is synthesized independently from the shared
        // runs; check them concurrently and merge in array order.
        let arrays = kernel.output_arrays();
        let per_array = stng_intern::parallel::map(&arrays, self.parallelism, |array| {
            self.synthesize_array(kernel, &run_a, &run_b, array)
        });

        let mut clauses = Vec::new();
        let mut bits = ControlBits::default();
        let mut quant_vars = HashMap::new();
        let mut observations = 0usize;
        for result in per_array {
            let (clause, array_bits, array_obs, vars) = result?;
            bits.merge(&array_bits);
            observations += array_obs;
            quant_vars.insert(clause.eq.array.clone(), vars);
            clauses.push(clause);
        }

        Ok(PostcondCandidate {
            post: Postcondition { clauses },
            control_bits: bits,
            observations_checked: observations,
            quant_vars,
            run: run_a,
        })
    }

    /// Synthesizes the clause for one output array from the two runs.
    fn synthesize_array(
        &self,
        kernel: &Kernel,
        run_a: &SymbolicRun,
        run_b: &SymbolicRun,
        array: &str,
    ) -> Result<(QuantClause, ControlBits, usize, Vec<String>), String> {
        let mut bits = ControlBits::default();
        let mut observations = 0usize;
        let array = array.to_string();
        let writes_a = run_a.writes.get(&array).cloned().unwrap_or_default();
        let writes_b = run_b.writes.get(&array).cloned().unwrap_or_default();
        if writes_a.is_empty() || writes_b.is_empty() {
            return Err(format!("output array '{array}' is never written"));
        }
        let rank = writes_a[0].0.len();
        let vars: Vec<String> = (0..rank).map(|k| format!("v{k}")).collect();

        // 1. Quantifier domain: match the written region against bound
        //    expressions from the loop nest and the integer parameters.
        //    Each dimension's stride is inferred from the gaps between the
        //    written indices (gcd across both runs), so strided kernels get
        //    domains of the form `lo + step·k` instead of failing to match.
        let mut bounds = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for dim in 0..rank {
            let stride_a = observed_stride(&writes_a, dim);
            let stride_b = observed_stride(&writes_b, dim);
            let stride = gcd(stride_a, stride_b).max(1);
            if stride > 1 {
                // One extra structural choice: the domain's stride.
                bits.bound_bits += bits_for_choices(2);
            }
            let (lo, lo_bits) = self.solve_region_bound(
                kernel, run_a, run_b, &writes_a, &writes_b, dim, true, stride,
            )?;
            let (hi, hi_bits) = self.solve_region_bound(
                kernel, run_a, run_b, &writes_a, &writes_b, dim, false, stride,
            )?;
            bits.bound_bits += lo_bits + hi_bits;
            bounds.push(QuantBound::strided(vars[dim].clone(), lo, hi, stride));
        }

        // 2. Template from anti-unification over all observations.
        let all_values: Vec<SymExpr> = writes_a
            .iter()
            .chain(writes_b.iter())
            .map(|(_, v)| *v)
            .collect();
        let template =
            generalize(&all_values).ok_or_else(|| format!("no observations for '{array}'"))?;

        // 3. Solve the holes against the observations.
        let mut all_obs: Vec<(&[i64], &SymExpr)> = Vec::new();
        for (p, v) in writes_a.iter().chain(writes_b.iter()) {
            all_obs.push((p.as_slice(), v));
        }
        let rhs = self.solve_template(&template.expr, &all_obs, &vars, &mut bits)?;

        // 4. Inductive check: the instantiated right-hand side must
        //    reproduce every observation in both runs.
        for run in [&run_a, &run_b] {
            observations += self.check_against_run(kernel, run, &array, &vars, &rhs)?;
        }

        let clause = QuantClause {
            bounds,
            eq: OutEq {
                array,
                indices: vars.iter().map(|v| IrExpr::var(v.clone())).collect(),
                rhs,
            },
        };
        Ok((clause, bits, observations, vars))
    }

    /// Finds an expression over the integer parameters matching the written
    /// region's lower (`want_lo`) or upper bound in dimension `dim` of both
    /// runs. Returns the expression and the bits spent choosing it.
    ///
    /// For a strided dimension the upper bound need not be the last written
    /// index itself: a candidate expression matches when the last iterate of
    /// the progression `lo, lo+stride, … ≤ candidate` is the observed
    /// maximum (exactly how a `do i = lo, hi, s` loop treats its bound).
    #[allow(clippy::too_many_arguments)]
    fn solve_region_bound(
        &self,
        kernel: &Kernel,
        run_a: &SymbolicRun,
        run_b: &SymbolicRun,
        writes_a: &[(Vec<i64>, SymExpr)],
        writes_b: &[(Vec<i64>, SymExpr)],
        dim: usize,
        want_lo: bool,
        stride: i64,
    ) -> Result<(IrExpr, usize), String> {
        let observed = |writes: &[(Vec<i64>, SymExpr)]| -> (i64, i64) {
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            for (p, _) in writes {
                min = min.min(p[dim]);
                max = max.max(p[dim]);
            }
            (min, max)
        };
        let (min_a, max_a) = observed(writes_a);
        let (min_b, max_b) = observed(writes_b);
        let (target_a, target_b) = if want_lo {
            (min_a, min_b)
        } else {
            (max_a, max_b)
        };

        // Candidate bound expressions: loop bounds of the nest, integer
        // parameters with small offsets, and plain constants.
        let mut candidates: Vec<IrExpr> = Vec::new();
        for info in kernel.loops() {
            candidates.push(info.lo.clone());
            candidates.push(info.hi.clone());
        }
        for p in kernel.int_params() {
            for off in -2..=2i64 {
                let base = IrExpr::var(p.clone());
                candidates.push(match off.cmp(&0) {
                    std::cmp::Ordering::Equal => base,
                    std::cmp::Ordering::Greater => IrExpr::add(base, IrExpr::Int(off)),
                    std::cmp::Ordering::Less => IrExpr::sub(base, IrExpr::Int(-off)),
                });
            }
        }
        candidates.push(IrExpr::Int(target_a));
        let total = candidates.len();

        let eval_in = |expr: &IrExpr, bounds: &HashMap<String, i64>| -> Option<i64> {
            let mut state: State<f64> = State::new();
            for (k, v) in bounds {
                state.set_int(k.clone(), *v);
            }
            eval_int_expr(expr, &state).ok()
        };
        // A candidate matches a target when it evaluates to it exactly —
        // or, for the upper bound of a strided dimension, when clipping the
        // progression from the observed minimum at the candidate lands on
        // the target.
        let matches = |value: i64, target: i64, min: i64| -> bool {
            if value == target {
                return true;
            }
            !want_lo
                && stride > 1
                && stng_ir::ir::IterDomain::last_iterate(min, value, stride) == Some(target)
        };
        for cand in candidates {
            let hit_a = eval_in(&cand, &run_a.bounds).is_some_and(|v| matches(v, target_a, min_a));
            let hit_b = eval_in(&cand, &run_b.bounds).is_some_and(|v| matches(v, target_b, min_b));
            if hit_a && hit_b {
                return Ok((cand, bits_for_choices(total)));
            }
        }
        Err(format!(
            "no bound expression matches the written region (dim {dim}, {} bound)",
            if want_lo { "lower" } else { "upper" }
        ))
    }

    /// Converts a template into a concrete right-hand-side expression by
    /// solving every hole against the observations.
    fn solve_template(
        &self,
        template: &TemplateExpr,
        observations: &[(&[i64], &SymExpr)],
        vars: &[String],
        bits: &mut ControlBits,
    ) -> Result<IrExpr, String> {
        // Per observation, extract the concrete value of every hole by
        // walking the template against the observation's own template form.
        let mut index_hole_values: HashMap<usize, Vec<(Vec<i64>, i64)>> = HashMap::new();
        let mut const_hole_values: HashMap<usize, Vec<f64>> = HashMap::new();
        for (point, value) in observations {
            let concrete = TemplateExpr::from_sym(value);
            if !extract_holes(
                template,
                &concrete,
                point,
                &mut index_hole_values,
                &mut const_hole_values,
            ) {
                return Err("observation does not match the generalized template".to_string());
            }
        }

        // Solve index holes: the hole must be `v_dim + c` for a consistent
        // (dim, c), or a constant.
        let mut index_solutions: HashMap<usize, IrExpr> = HashMap::new();
        for (hole, values) in &index_hole_values {
            let solved = solve_index_hole(values, vars, self.max_offset)
                .ok_or_else(|| format!("index hole {hole} has no consistent solution"))?;
            // Search space: one of `rank` variables × (2·max_offset+1)
            // offsets, or a small constant.
            bits.index_bits +=
                bits_for_choices(vars.len() * (2 * self.max_offset as usize + 1) + 1);
            index_solutions.insert(*hole, solved);
        }
        let mut const_solutions: HashMap<usize, f64> = HashMap::new();
        for (hole, values) in &const_hole_values {
            let first = values[0];
            if values.iter().any(|v| (v - first).abs() > 1e-9) {
                return Err(format!("constant hole {hole} is not constant across cells"));
            }
            bits.const_bits += 8;
            const_solutions.insert(*hole, first);
        }

        template_to_expr(template, &index_solutions, &const_solutions)
    }

    /// Evaluates the candidate right-hand side on every written cell of a run
    /// and compares against the observed symbolic value. Returns the number
    /// of cells checked.
    fn check_against_run(
        &self,
        kernel: &Kernel,
        run: &SymbolicRun,
        array: &str,
        vars: &[String],
        rhs: &IrExpr,
    ) -> Result<usize, String> {
        // Build a state with pristine symbolic arrays (pre-state contents).
        let mut state: State<SymExpr> = State::new();
        for (name, value) in &run.bounds {
            state.set_int(name.clone(), *value);
        }
        for name in kernel.real_params() {
            state.set_real(name.clone(), SymExpr::var(name.clone()));
        }
        for param in &kernel.params {
            if let ParamKind::Array { dims } = &param.kind {
                let mut concrete = Vec::new();
                for (lo, hi) in dims {
                    let lo = eval_int_expr(lo, &state).map_err(|e| e.to_string())?;
                    let hi = eval_int_expr(hi, &state).map_err(|e| e.to_string())?;
                    concrete.push((lo, hi));
                }
                let name = param.name.clone();
                let arr =
                    ArrayData::from_fn(concrete, |idx| SymExpr::read(name.clone(), idx.to_vec()));
                state.set_array(param.name.clone(), arr);
            }
        }
        let writes = run.writes.get(array).cloned().unwrap_or_default();
        for (point, observed) in &writes {
            for (var, value) in vars.iter().zip(point) {
                state.set_int(var.clone(), *value);
            }
            let predicted = eval_data_expr(rhs, &state).map_err(|e| e.to_string())?;
            if predicted != *observed {
                return Err(format!(
                    "candidate disagrees with the observation at {point:?}: {predicted} vs {observed}"
                ));
            }
        }
        Ok(writes.len())
    }
}

use stng_ir::ir::gcd;

/// The stride of the written indices of one run in dimension `dim`: the gcd
/// of all gaps from the smallest written index. Densely written dimensions
/// (and dimensions with a single written index) report `1`... a stride of
/// `g > 1` means every written index is congruent to the minimum mod `g`.
fn observed_stride(writes: &[(Vec<i64>, SymExpr)], dim: usize) -> i64 {
    let min = writes.iter().map(|(p, _)| p[dim]).min().unwrap_or(0);
    let mut g = 0i64;
    for (p, _) in writes {
        g = gcd(g, p[dim] - min);
    }
    g.max(1)
}

/// Walks a template against the (hole-free) template form of one observation,
/// recording the concrete value under every hole. Returns `false` when the
/// structures do not match.
fn extract_holes(
    template: &TemplateExpr,
    concrete: &TemplateExpr,
    point: &[i64],
    index_values: &mut HashMap<usize, Vec<(Vec<i64>, i64)>>,
    const_values: &mut HashMap<usize, Vec<f64>>,
) -> bool {
    use TemplateExpr::*;
    match (template, concrete) {
        (Const(a), Const(b)) => (a - b).abs() < 1e-12,
        (ConstHole(id), Const(v)) => {
            const_values.entry(*id).or_default().push(*v);
            true
        }
        (Hole(_), _) => false,
        (Var(a), Var(b)) => a == b,
        (
            Read {
                array: a1,
                index: i1,
            },
            Read {
                array: a2,
                index: i2,
            },
        ) => {
            if a1 != a2 || i1.len() != i2.len() {
                return false;
            }
            for (t, c) in i1.iter().zip(i2) {
                match (t, c) {
                    (IndexTemplate::Fixed(x), IndexTemplate::Fixed(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (IndexTemplate::Hole(id), IndexTemplate::Fixed(y)) => {
                        index_values
                            .entry(*id)
                            .or_default()
                            .push((point.to_vec(), *y));
                    }
                    _ => return false,
                }
            }
            true
        }
        (Apply { func: f1, args: x1 }, Apply { func: f2, args: x2 }) => {
            f1 == f2
                && x1.len() == x2.len()
                && x1
                    .iter()
                    .zip(x2)
                    .all(|(p, q)| extract_holes(p, q, point, index_values, const_values))
        }
        (Sum(x1), Sum(x2)) | (Prod(x1), Prod(x2)) => {
            x1.len() == x2.len()
                && x1
                    .iter()
                    .zip(x2)
                    .all(|(p, q)| extract_holes(p, q, point, index_values, const_values))
        }
        (Quot(n1, d1), Quot(n2, d2)) => {
            extract_holes(n1, n2, point, index_values, const_values)
                && extract_holes(d1, d2, point, index_values, const_values)
        }
        _ => false,
    }
}

/// Solves one index hole: finds `v_dim + c` (or a constant) consistent with
/// every `(output point, observed index)` pair.
fn solve_index_hole(
    values: &[(Vec<i64>, i64)],
    vars: &[String],
    max_offset: i64,
) -> Option<IrExpr> {
    for (dim, var) in vars.iter().enumerate() {
        let offset = values[0].1 - values[0].0[dim];
        if offset.abs() > max_offset {
            continue;
        }
        if values.iter().all(|(p, v)| v - p[dim] == offset) {
            let base = IrExpr::var(var.clone());
            return Some(match offset.cmp(&0) {
                std::cmp::Ordering::Equal => base,
                std::cmp::Ordering::Greater => IrExpr::add(base, IrExpr::Int(offset)),
                std::cmp::Ordering::Less => IrExpr::sub(base, IrExpr::Int(-offset)),
            });
        }
    }
    // Constant index (e.g. a fixed column read).
    let first = values[0].1;
    if values.iter().all(|(_, v)| *v == first) {
        return Some(IrExpr::Int(first));
    }
    None
}

/// Instantiates a template as an [`IrExpr`] using the solved holes.
fn template_to_expr(
    template: &TemplateExpr,
    index_solutions: &HashMap<usize, IrExpr>,
    const_solutions: &HashMap<usize, f64>,
) -> Result<IrExpr, String> {
    use TemplateExpr::*;
    match template {
        Const(v) => Ok(IrExpr::Real(*v)),
        ConstHole(id) => const_solutions
            .get(id)
            .map(|v| IrExpr::Real(*v))
            .ok_or_else(|| format!("unsolved constant hole {id}")),
        Var(name) => Ok(IrExpr::var(name.clone())),
        Read { array, index } => {
            let mut indices = Vec::new();
            for ix in index {
                match ix {
                    IndexTemplate::Fixed(v) => indices.push(IrExpr::Int(*v)),
                    IndexTemplate::Hole(id) => indices.push(
                        index_solutions
                            .get(id)
                            .cloned()
                            .ok_or_else(|| format!("unsolved index hole {id}"))?,
                    ),
                }
            }
            Ok(IrExpr::Load {
                array: array.clone(),
                indices,
            })
        }
        Apply { func, args } => {
            let args = args
                .iter()
                .map(|a| template_to_expr(a, index_solutions, const_solutions))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(IrExpr::Call {
                func: func.clone(),
                args,
            })
        }
        Sum(terms) => {
            let mut out: Option<IrExpr> = None;
            for t in terms {
                let e = template_to_expr(t, index_solutions, const_solutions)?;
                out = Some(match out {
                    Some(acc) => IrExpr::add(acc, e),
                    None => e,
                });
            }
            out.ok_or_else(|| "empty sum in template".to_string())
        }
        Prod(factors) => {
            let mut out: Option<IrExpr> = None;
            for t in factors {
                let e = template_to_expr(t, index_solutions, const_solutions)?;
                out = Some(match out {
                    Some(acc) => IrExpr::mul(acc, e),
                    None => e,
                });
            }
            out.ok_or_else(|| "empty product in template".to_string())
        }
        Quot(num, den) => Ok(IrExpr::bin(
            stng_ir::ir::BinOp::Div,
            template_to_expr(num, index_solutions, const_solutions)?,
            template_to_expr(den, index_solutions, const_solutions)?,
        )),
        Hole(id) => Err(format!("template contains an unconstrained hole {id}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::lower::kernel_from_source;
    use stng_pred::fixtures;

    #[test]
    fn running_example_postcondition_is_synthesized() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
        assert_eq!(candidate.post.clauses.len(), 1);
        let clause = &candidate.post.clauses[0];
        assert_eq!(clause.eq.array, "a");
        let text = clause.to_string();
        assert!(
            text.contains("b[(v0 - 1), v1]") && text.contains("b[v0, v1]"),
            "unexpected rhs: {text}"
        );
        assert!(text.contains("(imin + 1)"));
        assert!(candidate.control_bits.total() > 0);
        assert!(candidate.observations_checked > 0);
    }

    #[test]
    fn weighted_three_point_stencil_recovers_constants() {
        let src = r#"
procedure smooth(n, a, b, w)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  real :: w
  integer :: i
  do i = 1, n-1
    a(i) = 0.25 * b(i-1) + 0.5 * b(i) + 0.25 * b(i+1) + w
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
        let text = candidate.post.to_string();
        assert!(text.contains("0.25"), "rhs: {text}");
        assert!(text.contains('w'), "rhs: {text}");
    }

    #[test]
    fn strided_kernel_gets_a_strided_quantifier_domain() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 2, n, 2
    a(i) = b(i-1) + b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
        let clause = &candidate.post.clauses[0];
        assert_eq!(clause.bounds.len(), 1);
        let bound = &clause.bounds[0];
        assert_eq!(bound.step, 2, "domain: {bound}");
        assert_eq!(bound.lo.to_string(), "2");
        let text = clause.to_string();
        assert!(text.contains("step 2"), "clause: {text}");
        assert!(text.contains("b[(v0 - 1)]"), "clause: {text}");
    }

    #[test]
    fn dense_kernels_keep_unit_stride_domains() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
        for bound in &candidate.post.clauses[0].bounds {
            assert!(bound.is_dense());
        }
    }

    #[test]
    fn boundary_conditionals_defeat_postcondition_synthesis() {
        // A kernel whose cells are not all described by one expression.
        let src = r#"
procedure k(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1
    if (i == 1) then
      a(i) = 0.0
    else
      a(i) = b(i-1) + b(i)
    endif
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(PostcondSynthesizer::new().synthesize(&kernel).is_err());
    }

    #[test]
    fn uninterpreted_function_stencils_are_supported() {
        let src = r#"
procedure k(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n
    a(i) = exp(b(i-1)) + sqrt(b(i))
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let candidate = PostcondSynthesizer::new().synthesize(&kernel).unwrap();
        let text = candidate.post.to_string();
        assert!(text.contains("exp("), "rhs: {text}");
        assert!(text.contains("sqrt("), "rhs: {text}");
    }
}

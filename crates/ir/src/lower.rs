//! Lowering from the surface AST to the canonical kernel IR (§5.1).
//!
//! Lowering performs the "processing selected loops" step of the paper: each
//! candidate fragment is extracted into its own [`Kernel`] with explicit
//! parameters, loops are canonicalized to constant-step counted loops, and
//! constructs the lifter cannot handle (conditionals, calls to non-pure
//! procedures, `exit`/`cycle`, non-constant steps) are rejected with an
//! [`Error::Unsupported`] so the pipeline can record them as untranslated.

use crate::ast::{BinOpKind, CmpOpKind, Expr, LValue, Procedure, Stmt, Type};
use crate::error::{Error, Result};
use crate::identify::{identify_candidates, CandidateFragment};
use crate::ir::{BinOp, CmpOp, IrExpr, IrStmt, IterDomain, Kernel, Param, ParamKind};
use crate::parser::is_intrinsic;
use std::collections::BTreeSet;

/// Lowers every candidate fragment of a procedure, in order.
///
/// Each element is either the lowered kernel or the reason lowering failed
/// (which the pipeline reports as an untranslated kernel).
pub fn lower_procedure_loops(proc: &Procedure) -> Vec<Result<Kernel>> {
    identify_candidates(proc)
        .into_iter()
        .map(|fragment| lower_fragment(proc, &fragment))
        .collect()
}

/// Lowers a single candidate fragment of `proc` into a kernel.
///
/// # Errors
///
/// Returns [`Error::Unsupported`] for constructs outside the liftable subset
/// and [`Error::Lower`] for malformed fragments (e.g. undeclared arrays).
pub fn lower_fragment(proc: &Procedure, fragment: &CandidateFragment) -> Result<Kernel> {
    let mut ctx = LowerCtx::new(proc);
    let mut body = Vec::new();
    for stmt in &fragment.stmts {
        body.push(ctx.lower_stmt(stmt)?);
    }

    // Partition symbols into parameters (declared on the procedure) and
    // locals (loop counters and scalar temporaries introduced by the body).
    let mut params = Vec::new();
    for name in &proc.params {
        let kind = ctx.symbol_kind(name)?;
        params.push(Param {
            name: name.clone(),
            kind,
        });
    }
    let mut locals = Vec::new();
    for name in ctx.referenced.iter() {
        if proc.params.contains(name) {
            continue;
        }
        let kind = ctx.symbol_kind(name)?;
        locals.push(Param {
            name: name.clone(),
            kind,
        });
    }

    let mut assumptions = Vec::new();
    for annotation in &proc.annotations {
        assumptions.push(ctx.lower_expr(&annotation.assumption)?);
    }

    Ok(Kernel {
        name: fragment.name.clone(),
        params,
        locals,
        body,
        assumptions,
    })
}

struct LowerCtx<'a> {
    proc: &'a Procedure,
    referenced: BTreeSet<String>,
}

impl<'a> LowerCtx<'a> {
    fn new(proc: &'a Procedure) -> Self {
        LowerCtx {
            proc,
            referenced: BTreeSet::new(),
        }
    }

    fn symbol_kind(&self, name: &str) -> Result<ParamKind> {
        if let Some(decl) = self.proc.decl(name) {
            if let Some(dims) = &decl.dims {
                let mut bounds = Vec::new();
                for range in dims {
                    bounds.push((
                        self.lower_expr_imm(&range.lower)?,
                        self.lower_expr_imm(&range.upper)?,
                    ));
                }
                return Ok(ParamKind::Array { dims: bounds });
            }
            return Ok(match decl.ty {
                Type::Integer => ParamKind::IntScalar,
                Type::Real => ParamKind::RealScalar,
            });
        }
        // Undeclared names: loop counters and bounds default to integers,
        // matching Fortran implicit typing for the i..n range of names, and
        // anything else defaults to a real scalar.
        let first = name.chars().next().unwrap_or('x');
        if ('i'..='n').contains(&first) {
            Ok(ParamKind::IntScalar)
        } else {
            Ok(ParamKind::RealScalar)
        }
    }

    /// Lowers an expression without recording referenced symbols (used for
    /// declaration bounds, which reference procedure parameters only).
    fn lower_expr_imm(&self, expr: &Expr) -> Result<IrExpr> {
        let mut scratch = LowerCtx {
            proc: self.proc,
            referenced: BTreeSet::new(),
        };
        scratch.lower_expr(expr)
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<IrStmt> {
        match stmt {
            Stmt::Assign { target, value } => {
                let value = self.lower_expr(value)?;
                match target {
                    LValue::Scalar(name) => {
                        self.referenced.insert(name.clone());
                        Ok(IrStmt::AssignScalar {
                            name: name.clone(),
                            value,
                        })
                    }
                    LValue::Array { name, indices } => {
                        if !self.proc.is_array(name) {
                            return Err(Error::lower(format!(
                                "assignment to '{name}' which is not declared as an array"
                            )));
                        }
                        self.referenced.insert(name.clone());
                        let indices = indices
                            .iter()
                            .map(|ix| self.lower_expr(ix))
                            .collect::<Result<Vec<_>>>()?;
                        Ok(IrStmt::Store {
                            array: name.clone(),
                            indices,
                            value,
                        })
                    }
                }
            }
            Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                line,
            } => {
                self.referenced.insert(var.clone());
                let lo = self.lower_expr(lo)?;
                let hi = self.lower_expr(hi)?;
                // Canonicalize the step: any constant step (positive or
                // negative) becomes part of the loop's iteration domain.
                // Only genuinely non-constant and zero steps are rejected
                // here; whether a *negative* step is liftable is decided
                // later by `liftability_check`, with a distinct message.
                let step = match step {
                    None => 1,
                    Some(Expr::Int(v)) => *v,
                    Some(Expr::Neg(inner)) => match inner.as_ref() {
                        Expr::Int(v) => -*v,
                        other => {
                            return Err(Error::unsupported(format!(
                                "loop over '{var}' at line {line} has a non-constant step \
                                 (-{other:?})"
                            )))
                        }
                    },
                    Some(other) => {
                        return Err(Error::unsupported(format!(
                            "loop over '{var}' at line {line} has a non-constant step ({other:?})"
                        )))
                    }
                };
                if step == 0 {
                    return Err(Error::lower(format!(
                        "loop over '{var}' at line {line} has a zero step"
                    )));
                }
                let body = body
                    .iter()
                    .map(|s| self.lower_stmt(s))
                    .collect::<Result<Vec<_>>>()?;
                Ok(IrStmt::Loop {
                    domain: IterDomain::new(var.clone(), lo, hi, step).canonicalize(),
                    body,
                })
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // Conditionals are representable in the IR (used by the §6.6
                // experiments) but lowering of real candidate fragments keeps
                // them so the lifter can reject the kernel with a precise
                // reason.
                let cond = self.lower_expr(cond)?;
                let then_body = then_body
                    .iter()
                    .map(|s| self.lower_stmt(s))
                    .collect::<Result<Vec<_>>>()?;
                let else_body = else_body
                    .iter()
                    .map(|s| self.lower_stmt(s))
                    .collect::<Result<Vec<_>>>()?;
                Ok(IrStmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Stmt::Call { name, .. } => Err(Error::unsupported(format!(
                "call to procedure '{name}' inside candidate loop"
            ))),
            Stmt::Exit => Err(Error::unsupported("unstructured control flow: exit")),
            Stmt::Cycle => Err(Error::unsupported("unstructured control flow: cycle")),
        }
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<IrExpr> {
        match expr {
            Expr::Int(v) => Ok(IrExpr::Int(*v)),
            Expr::Real(v) => Ok(IrExpr::Real(*v)),
            Expr::Var(name) => {
                self.referenced.insert(name.clone());
                Ok(IrExpr::Var(name.clone()))
            }
            Expr::ArrayRef { name, indices } => {
                let indices_ir = indices
                    .iter()
                    .map(|ix| self.lower_expr(ix))
                    .collect::<Result<Vec<_>>>()?;
                if self.proc.is_array(name) {
                    self.referenced.insert(name.clone());
                    Ok(IrExpr::Load {
                        array: name.clone(),
                        indices: indices_ir,
                    })
                } else if is_intrinsic(name) {
                    Ok(IrExpr::Call {
                        func: name.clone(),
                        args: indices_ir,
                    })
                } else {
                    Err(Error::unsupported(format!(
                        "call to unknown function '{name}' inside candidate loop"
                    )))
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let op = match op {
                    BinOpKind::Add => BinOp::Add,
                    BinOpKind::Sub => BinOp::Sub,
                    BinOpKind::Mul => BinOp::Mul,
                    BinOpKind::Div => BinOp::Div,
                };
                Ok(IrExpr::bin(
                    op,
                    self.lower_expr(lhs)?,
                    self.lower_expr(rhs)?,
                ))
            }
            Expr::Neg(inner) => {
                let inner_ir = self.lower_expr(inner)?;
                // Negation of an integer expression stays integral as 0 - e,
                // negation of a data expression is (-1) * e; both encodings
                // are equivalent, and 0 - e works in either domain.
                Ok(IrExpr::sub(IrExpr::Int(0), inner_ir))
            }
            Expr::Call { name, args } => {
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a))
                    .collect::<Result<Vec<_>>>()?;
                if is_intrinsic(name) {
                    Ok(IrExpr::Call {
                        func: name.clone(),
                        args,
                    })
                } else {
                    Err(Error::unsupported(format!(
                        "call to unknown function '{name}' inside candidate loop"
                    )))
                }
            }
            Expr::Cmp { op, lhs, rhs } => {
                let op = match op {
                    CmpOpKind::Lt => CmpOp::Lt,
                    CmpOpKind::Le => CmpOp::Le,
                    CmpOpKind::Gt => CmpOp::Gt,
                    CmpOpKind::Ge => CmpOp::Ge,
                    CmpOpKind::Eq => CmpOp::Eq,
                    CmpOpKind::Ne => CmpOp::Ne,
                };
                Ok(IrExpr::cmp(
                    op,
                    self.lower_expr(lhs)?,
                    self.lower_expr(rhs)?,
                ))
            }
            Expr::And(a, b) => Ok(IrExpr::And(
                Box::new(self.lower_expr(a)?),
                Box::new(self.lower_expr(b)?),
            )),
            Expr::Or(a, b) => Ok(IrExpr::Or(
                Box::new(self.lower_expr(a)?),
                Box::new(self.lower_expr(b)?),
            )),
            Expr::Not(e) => Ok(IrExpr::Not(Box::new(self.lower_expr(e)?))),
        }
    }
}

/// Checks the constraints the lifter places on a lowered kernel beyond plain
/// lowering (§5.4): no conditionals and only incrementing loops (any
/// constant positive step — strided/tiled domains are first-class, §6.5).
/// Returns a human-readable reason when the kernel is not liftable.
pub fn liftability_check(kernel: &Kernel) -> std::result::Result<(), String> {
    if kernel.has_conditionals() {
        return Err("kernel contains conditional statements".to_string());
    }
    for info in kernel.loops() {
        if info.step < 0 {
            return Err(format!(
                "loop over '{}' is decrementing (step {}); only incrementing loops are liftable",
                info.var, info.step
            ));
        }
    }
    if kernel.output_arrays().is_empty() {
        return Err("kernel writes no output arrays (not a stencil)".to_string());
    }
    Ok(())
}

/// Convenience helper used widely by tests, examples, and the corpus: parses
/// source text, identifies candidates in the *first* procedure, and lowers
/// the fragment with the given index.
///
/// # Errors
///
/// Fails if parsing fails, the procedure has no such fragment, or lowering
/// fails.
pub fn kernel_from_source(source: &str, fragment_index: usize) -> Result<Kernel> {
    let program = crate::parser::parse_program(source)?;
    let proc = program
        .procedures
        .first()
        .ok_or_else(|| Error::lower("source contains no procedures"))?;
    let fragments = identify_candidates(proc);
    let fragment = fragments.get(fragment_index).ok_or_else(|| {
        Error::lower(format!(
            "procedure '{}' has no candidate fragment #{fragment_index}",
            proc.name
        ))
    })?;
    lower_fragment(proc, fragment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

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
    fn lowers_running_example() {
        let kernel = kernel_from_source(RUNNING_EXAMPLE, 0).unwrap();
        assert_eq!(kernel.name, "sten_k0");
        assert_eq!(kernel.params.len(), 6);
        assert_eq!(kernel.output_arrays(), vec!["a".to_string()]);
        assert_eq!(kernel.loop_vars(), vec!["j".to_string(), "i".to_string()]);
        // t, q, i, j become locals (i and j are declared ints; t, q reals).
        let local_names: Vec<&str> = kernel.locals.iter().map(|p| p.name.as_str()).collect();
        assert!(local_names.contains(&"t"));
        assert!(local_names.contains(&"q"));
        assert!(liftability_check(&kernel).is_ok());
    }

    #[test]
    fn rejects_procedure_calls() {
        let src = r#"
procedure p(n, a)
  real, dimension(1:n) :: a
  integer :: i
  do i = 1, n
    call helper(a, i)
    a(i) = 1.0
  enddo
end procedure
"#;
        let program = parse_program(src).unwrap();
        let results = lower_procedure_loops(&program.procedures[0]);
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0], Err(Error::Unsupported { .. })));
    }

    #[test]
    fn decrementing_loop_lowers_but_fails_liftability() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(1:n) :: a
  real, dimension(1:n) :: b
  integer :: i
  do i = n, 1, -1
    a(i) = b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(!kernel.all_unit_steps());
        let reason = liftability_check(&kernel).unwrap_err();
        assert!(reason.contains("step"));
    }

    #[test]
    fn strided_loop_lowers_and_passes_liftability() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 2, n, 2
    a(i) = b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(!kernel.all_unit_steps());
        let info = &kernel.loops()[0];
        assert_eq!(info.step, 2);
        assert!(liftability_check(&kernel).is_ok());
    }

    #[test]
    fn constant_step_domains_are_canonicalized() {
        let src = r#"
procedure p(a, b)
  real, dimension(0:12) :: a
  real, dimension(0:12) :: b
  integer :: i
  do i = 1, 10, 4
    a(i) = b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let info = &kernel.loops()[0];
        // hi is clamped to the last iterate: 1, 5, 9.
        assert_eq!(info.hi, IrExpr::Int(9));
    }

    #[test]
    fn non_constant_step_rejected_with_location() {
        let src = r#"
procedure p(n, s, a)
  integer :: s
  real, dimension(1:n) :: a
  integer :: i
  do i = 1, n, s
    a(i) = 1.0
  enddo
end procedure
"#;
        let program = parse_program(src).unwrap();
        let results = lower_procedure_loops(&program.procedures[0]);
        let err = results[0].as_ref().unwrap_err().to_string();
        assert!(err.contains("non-constant step"), "message: {err}");
        assert!(err.contains("line 6"), "message: {err}");
        assert!(err.contains("'i'"), "message: {err}");
    }

    #[test]
    fn non_constant_negated_step_rejected_with_location() {
        let src = r#"
procedure p(n, s, a)
  integer :: s
  real, dimension(1:n) :: a
  integer :: i
  do i = n, 1, -s
    a(i) = 1.0
  enddo
end procedure
"#;
        let program = parse_program(src).unwrap();
        let results = lower_procedure_loops(&program.procedures[0]);
        let err = results[0].as_ref().unwrap_err().to_string();
        assert!(err.contains("non-constant step"), "message: {err}");
        assert!(err.contains("line 6"), "message: {err}");
    }

    #[test]
    fn zero_step_rejected_with_location() {
        let src = r#"
procedure p(n, a)
  real, dimension(1:n) :: a
  integer :: i
  do i = 1, n, 0
    a(i) = 1.0
  enddo
end procedure
"#;
        let program = parse_program(src).unwrap();
        let results = lower_procedure_loops(&program.procedures[0]);
        let err = results[0].as_ref().unwrap_err().to_string();
        assert!(err.contains("zero step"), "message: {err}");
        assert!(err.contains("line 5"), "message: {err}");
    }

    #[test]
    fn negative_step_message_is_distinct_from_non_constant() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(1:n) :: a
  real, dimension(1:n) :: b
  integer :: i
  do i = n, 1, -2
    a(i) = b(i)
  enddo
end procedure
"#;
        // Negative constant steps lower fine (the domain is first-class)…
        let kernel = kernel_from_source(src, 0).unwrap();
        assert_eq!(kernel.loops()[0].step, -2);
        // …but liftability rejects them with a decrementing-specific message.
        let reason = liftability_check(&kernel).unwrap_err();
        assert!(reason.contains("decrementing"), "message: {reason}");
        assert!(!reason.contains("non-constant"), "message: {reason}");
    }

    #[test]
    fn conditional_kernel_fails_liftability() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(1:n) :: a
  real, dimension(1:n) :: b
  integer :: i
  do i = 1, n
    if (b(i) > 0.0) then
      a(i) = b(i)
    else
      a(i) = 0.0
    endif
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(kernel.has_conditionals());
        assert!(liftability_check(&kernel).is_err());
    }

    #[test]
    fn reduction_kernel_fails_liftability_as_non_stencil() {
        let src = r#"
procedure p(n, b)
  real, dimension(1:n) :: b
  real :: s
  integer :: i
  do i = 1, n
    s = s + b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let reason = liftability_check(&kernel).unwrap_err();
        assert!(reason.contains("no output arrays"));
    }

    #[test]
    fn intrinsics_lower_to_calls() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(1:n) :: a
  real, dimension(1:n) :: b
  integer :: i
  do i = 1, n
    a(i) = exp(b(i)) + sqrt(b(i))
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let mut calls = Vec::new();
        for stmt in &kernel.body {
            stmt.walk(&mut |s| {
                if let IrStmt::Store { value, .. } = s {
                    value.walk(&mut |e| {
                        if let IrExpr::Call { func, .. } = e {
                            calls.push(func.clone());
                        }
                    });
                }
            });
        }
        assert_eq!(calls, vec!["exp".to_string(), "sqrt".to_string()]);
    }

    #[test]
    fn annotations_become_assumptions() {
        let src = r#"
procedure p(n, sz0, sz1, a)
  integer :: sz0
  integer :: sz1
  real, dimension(1:n) :: a
  integer :: i
  ! STNG: assume(sz0 /= sz1)
  do i = 1, n
    a(i + sz0 - sz1) = 1.0
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert_eq!(kernel.assumptions.len(), 1);
        assert!(matches!(kernel.assumptions[0], IrExpr::Cmp { .. }));
    }

    #[test]
    fn negation_lowers_to_zero_minus() {
        let src = r#"
procedure p(n, a, b)
  real, dimension(1:n) :: a
  real, dimension(1:n) :: b
  integer :: i
  do i = 1, n
    a(i) = -b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let IrStmt::Loop { body, .. } = &kernel.body[0] else {
            panic!()
        };
        let IrStmt::Store { value, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(value.to_string(), "(0 - b[i])");
    }
}

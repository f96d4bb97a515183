//! Surface abstract syntax for the Fortran-style loop-nest subset accepted by
//! the STNG reproduction.
//!
//! The subset mirrors the kernels shown in the paper: procedures with scalar
//! and multidimensional array parameters, `do` loops (optionally with an
//! explicit step), scalar and array assignments, arithmetic expressions over
//! reals and integers, calls to pure math intrinsics, and `if` statements
//! (which the identifier flags and the lifter rejects, matching §5.4).

use std::fmt;

/// A parsed translation unit: one or more procedures plus file-level
/// annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Procedures in source order.
    pub procedures: Vec<Procedure>,
}

/// A single Fortran procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// Formal parameter names, in order.
    pub params: Vec<String>,
    /// Variable and array declarations.
    pub decls: Vec<Decl>,
    /// Executable statements.
    pub body: Vec<Stmt>,
    /// `STNG: assume(e)` annotations attached to this procedure.
    pub annotations: Vec<Annotation>,
}

impl Procedure {
    /// Returns the declaration for `name`, if any.
    pub fn decl(&self, name: &str) -> Option<&Decl> {
        self.decls.iter().find(|d| d.name == name)
    }

    /// Returns `true` when `name` is declared as an array.
    pub fn is_array(&self, name: &str) -> bool {
        self.decl(name).map(|d| d.dims.is_some()).unwrap_or(false)
    }
}

/// Scalar element type of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// `real (kind=8)` — double precision data.
    Real,
    /// `integer` — loop counters and bounds.
    Integer,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Real => write!(f, "real"),
            Type::Integer => write!(f, "integer"),
        }
    }
}

/// A variable or array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Declared name.
    pub name: String,
    /// Element type.
    pub ty: Type,
    /// For arrays, the `(lower:upper, ...)` bounds of each dimension; `None`
    /// for scalars.
    pub dims: Option<Vec<DimRange>>,
}

/// Declared bounds of one array dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimRange {
    /// Inclusive lower bound.
    pub lower: Expr,
    /// Inclusive upper bound.
    pub upper: Expr,
}

/// A `STNG: assume(e)` annotation (§5.2), giving the lifter an extra
/// precondition on the kernel inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// The assumed boolean expression.
    pub assumption: Expr,
    /// 1-based source line the comment appeared on.
    pub line: usize,
}

/// Executable statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Assignment to a scalar or an array element.
    Assign { target: LValue, value: Expr },
    /// A counted `do` loop: `do var = lo, hi [, step]`.
    Do {
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
        /// 1-based source line of the `do` keyword (0 = synthetic).
        line: usize,
    },
    /// An `if`/`else` statement.
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// A call statement to a Fortran procedure (not an intrinsic).
    Call { name: String, args: Vec<Expr> },
    /// `exit` (break out of the loop) — unstructured control flow.
    Exit,
    /// `cycle` (continue with the next iteration) — unstructured control flow.
    Cycle,
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Scalar(String),
    /// An array element `name(indices...)`.
    Array { name: String, indices: Vec<Expr> },
}

impl LValue {
    /// Name of the variable or array being written.
    pub fn name(&self) -> &str {
        match self {
            LValue::Scalar(n) => n,
            LValue::Array { name, .. } => name,
        }
    }
}

/// Binary arithmetic operators of the surface language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOpKind {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOpKind::Add => "+",
            BinOpKind::Sub => "-",
            BinOpKind::Mul => "*",
            BinOpKind::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators (used in `if` conditions and annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOpKind {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl fmt::Display for CmpOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOpKind::Lt => "<",
            CmpOpKind::Le => "<=",
            CmpOpKind::Gt => ">",
            CmpOpKind::Ge => ">=",
            CmpOpKind::Eq => "==",
            CmpOpKind::Ne => "/=",
        };
        write!(f, "{s}")
    }
}

/// Surface expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Variable reference.
    Var(String),
    /// Array element reference `name(indices...)`.
    ArrayRef { name: String, indices: Vec<Expr> },
    /// Binary arithmetic.
    Bin {
        op: BinOpKind,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary negation.
    Neg(Box<Expr>),
    /// Call to a (pure) intrinsic or function, e.g. `exp(x)`.
    Call { name: String, args: Vec<Expr> },
    /// Comparison (boolean-valued).
    Cmp {
        op: CmpOpKind,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Logical conjunction of boolean expressions.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction of boolean expressions.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation of a boolean expression.
    Not(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for a binary expression.
    pub fn bin(op: BinOpKind, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Int(_) | Expr::Real(_) | Expr::Var(_) => {}
            Expr::ArrayRef { indices, .. } => {
                for ix in indices {
                    ix.walk(visit);
                }
            }
            Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Expr::Neg(e) | Expr::Not(e) => e.walk(visit),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
        }
    }

    /// Returns `true` when the expression mentions any array element.
    pub fn uses_arrays(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::ArrayRef { .. }) {
                found = true;
            }
        });
        found
    }

    /// Returns `true` when any array index sub-expression itself contains an
    /// array reference or a function call (an "indirect" access, which §5.1
    /// excludes from candidacy).
    pub fn has_indirect_index(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::ArrayRef { indices, .. } = e {
                for ix in indices {
                    let mut inner = false;
                    ix.walk(&mut |sub| {
                        if matches!(sub, Expr::ArrayRef { .. } | Expr::Call { .. }) {
                            inner = true;
                        }
                    });
                    if inner {
                        found = true;
                    }
                }
            }
        });
        found
    }

    /// Names of all scalar variables mentioned in the expression.
    pub fn free_vars(&self) -> Vec<String> {
        let mut vars = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Var(name) = e {
                if !vars.contains(name) {
                    vars.push(name.clone());
                }
            }
        });
        vars
    }
}

/// Statement helpers shared by the identifier and the lowering pass.
pub mod walk {
    use super::*;

    /// Visits every statement in `stmts` (including nested bodies), pre-order.
    pub fn visit_stmts<'a>(stmts: &'a [Stmt], visit: &mut impl FnMut(&'a Stmt)) {
        for stmt in stmts {
            visit(stmt);
            match stmt {
                Stmt::Do { body, .. } => visit_stmts(body, visit),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    visit_stmts(then_body, visit);
                    visit_stmts(else_body, visit);
                }
                Stmt::Assign { .. } | Stmt::Call { .. } | Stmt::Exit | Stmt::Cycle => {}
            }
        }
    }

    /// Visits every expression occurring anywhere in `stmts`.
    pub fn visit_exprs<'a>(stmts: &'a [Stmt], visit: &mut impl FnMut(&'a Expr)) {
        visit_stmts(stmts, &mut |stmt| match stmt {
            Stmt::Assign { target, value } => {
                if let LValue::Array { indices, .. } = target {
                    for ix in indices {
                        ix.walk(visit);
                    }
                }
                value.walk(visit);
            }
            Stmt::Do { lo, hi, step, .. } => {
                lo.walk(visit);
                hi.walk(visit);
                if let Some(s) = step {
                    s.walk(visit);
                }
            }
            Stmt::If { cond, .. } => cond.walk(visit),
            Stmt::Call { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            Stmt::Exit | Stmt::Cycle => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aref(name: &str, ix: Vec<Expr>) -> Expr {
        Expr::ArrayRef {
            name: name.into(),
            indices: ix,
        }
    }

    #[test]
    fn uses_arrays_detects_nested_references() {
        let e = Expr::bin(
            BinOpKind::Add,
            Expr::var("t"),
            aref("b", vec![Expr::var("i")]),
        );
        assert!(e.uses_arrays());
        assert!(!Expr::var("t").uses_arrays());
    }

    #[test]
    fn indirect_index_detection() {
        let direct = aref("a", vec![Expr::var("i")]);
        assert!(!direct.has_indirect_index());

        let indirect = aref("a", vec![aref("idx", vec![Expr::var("i")])]);
        assert!(indirect.has_indirect_index());

        let call_index = aref(
            "a",
            vec![Expr::Call {
                name: "f".into(),
                args: vec![Expr::var("i")],
            }],
        );
        assert!(call_index.has_indirect_index());
    }

    #[test]
    fn free_vars_are_deduplicated() {
        let e = Expr::bin(
            BinOpKind::Mul,
            Expr::bin(BinOpKind::Add, Expr::var("i"), Expr::var("j")),
            Expr::var("i"),
        );
        assert_eq!(e.free_vars(), vec!["i".to_string(), "j".to_string()]);
    }

    #[test]
    fn walk_visits_loop_bounds() {
        let stmt = Stmt::Do {
            var: "i".into(),
            lo: Expr::var("imin"),
            hi: Expr::var("imax"),
            step: None,
            body: vec![Stmt::Assign {
                target: LValue::Scalar("t".into()),
                value: Expr::Int(0),
            }],
            line: 0,
        };
        let mut names = Vec::new();
        walk::visit_exprs(std::slice::from_ref(&stmt), &mut |e| {
            if let Expr::Var(n) = e {
                names.push(n.clone());
            }
        });
        assert!(names.contains(&"imin".to_string()));
        assert!(names.contains(&"imax".to_string()));
    }
}

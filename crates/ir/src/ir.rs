//! Canonical intermediate representation for candidate kernels.
//!
//! The lowering pass (see [`crate::lower`]) turns an accepted Fortran loop
//! nest into a [`Kernel`]: a symbol table plus a tree of canonical statements.
//! All later stages — symbolic execution, verification-condition generation,
//! synthesis, and code generation — work on this representation, mirroring the
//! "simpler intermediate language" of §5.1 in the paper.

use std::collections::BTreeMap;
use std::fmt;
use stng_intern::Symbol;

/// Kind of a symbol appearing in a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// An integer scalar (loop bound, counter, size).
    IntScalar,
    /// A floating-point scalar.
    RealScalar,
    /// A multidimensional array of reals with per-dimension inclusive bounds
    /// expressed over the integer scalars.
    Array { dims: Vec<(IrExpr, IrExpr)> },
}

impl ParamKind {
    /// Returns `true` for array symbols.
    pub fn is_array(&self) -> bool {
        matches!(self, ParamKind::Array { .. })
    }
}

/// A named symbol (parameter or local) of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Symbol name.
    pub name: String,
    /// Symbol kind.
    pub kind: ParamKind,
}

/// Binary arithmetic operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators of the IR (loop conditions, annotations, `if`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Evaluates the comparison on two integers.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The comparison with operands swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// The negated comparison (`¬(a op b)` ⇔ `a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// Expressions of the canonical IR.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// Integer constant.
    Int(i64),
    /// Real constant.
    Real(f64),
    /// Scalar variable (integer or real, per the kernel symbol table).
    Var(String),
    /// Array element read.
    Load { array: String, indices: Vec<IrExpr> },
    /// Binary arithmetic.
    Bin {
        op: BinOp,
        lhs: Box<IrExpr>,
        rhs: Box<IrExpr>,
    },
    /// Call to a pure math function, modeled as uninterpreted during lifting.
    Call { func: String, args: Vec<IrExpr> },
    /// Comparison (boolean-valued).
    Cmp {
        op: CmpOp,
        lhs: Box<IrExpr>,
        rhs: Box<IrExpr>,
    },
    /// Conjunction of boolean expressions.
    And(Box<IrExpr>, Box<IrExpr>),
    /// Disjunction of boolean expressions.
    Or(Box<IrExpr>, Box<IrExpr>),
    /// Negation of a boolean expression.
    Not(Box<IrExpr>),
}

impl IrExpr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> IrExpr {
        IrExpr::Var(name.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn bin(op: BinOp, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs + rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::bin(BinOp::Add, lhs, rhs)
    }

    /// `lhs - rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::bin(BinOp::Sub, lhs, rhs)
    }

    /// `lhs * rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::bin(BinOp::Mul, lhs, rhs)
    }

    /// Convenience constructor for a comparison.
    pub fn cmp(op: CmpOp, lhs: IrExpr, rhs: IrExpr) -> IrExpr {
        IrExpr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Visits every sub-expression, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a IrExpr)) {
        visit(self);
        match self {
            IrExpr::Int(_) | IrExpr::Real(_) | IrExpr::Var(_) => {}
            IrExpr::Load { indices, .. } => {
                for ix in indices {
                    ix.walk(visit);
                }
            }
            IrExpr::Bin { lhs, rhs, .. } | IrExpr::Cmp { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            IrExpr::And(a, b) | IrExpr::Or(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            IrExpr::Not(e) => e.walk(visit),
            IrExpr::Call { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
        }
    }

    /// All scalar variables mentioned by the expression, deduplicated.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let IrExpr::Var(n) = e {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
        });
        out
    }

    /// All `(array, index-expressions)` loads in the expression.
    pub fn loads(&self) -> Vec<(&str, &[IrExpr])> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let IrExpr::Load { array, indices } = e {
                out.push((array.as_str(), indices.as_slice()));
            }
        });
        out
    }

    /// Number of AST nodes in this expression.
    pub fn node_count(&self) -> usize {
        let mut n = 0usize;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Attempts to view this integer expression as an affine combination of
    /// scalar variables: `c0 + Σ ci · vi`. Returns `None` when the expression
    /// is non-affine (products of variables, division, loads, calls).
    pub fn as_affine(&self) -> Option<Affine> {
        match self {
            IrExpr::Int(v) => Some(Affine::constant(*v)),
            IrExpr::Var(name) => Some(Affine::var(name.clone())),
            IrExpr::Bin { op, lhs, rhs } => {
                let l = lhs.as_affine()?;
                let r = rhs.as_affine()?;
                match op {
                    BinOp::Add => Some(l.add(&r)),
                    BinOp::Sub => Some(l.sub(&r)),
                    BinOp::Mul => {
                        if let Some(c) = l.as_constant() {
                            Some(r.scale(c))
                        } else {
                            r.as_constant().map(|c| l.scale(c))
                        }
                    }
                    BinOp::Div => None,
                }
            }
            _ => None,
        }
    }

    /// Substitutes `replacement` for every occurrence of variable `name`.
    pub fn subst_var(&self, name: &str, replacement: &IrExpr) -> IrExpr {
        match self {
            IrExpr::Var(n) if n == name => replacement.clone(),
            IrExpr::Int(_) | IrExpr::Real(_) | IrExpr::Var(_) => self.clone(),
            IrExpr::Load { array, indices } => IrExpr::Load {
                array: array.clone(),
                indices: indices
                    .iter()
                    .map(|ix| ix.subst_var(name, replacement))
                    .collect(),
            },
            IrExpr::Bin { op, lhs, rhs } => IrExpr::Bin {
                op: *op,
                lhs: Box::new(lhs.subst_var(name, replacement)),
                rhs: Box::new(rhs.subst_var(name, replacement)),
            },
            IrExpr::Call { func, args } => IrExpr::Call {
                func: func.clone(),
                args: args
                    .iter()
                    .map(|a| a.subst_var(name, replacement))
                    .collect(),
            },
            IrExpr::Cmp { op, lhs, rhs } => IrExpr::Cmp {
                op: *op,
                lhs: Box::new(lhs.subst_var(name, replacement)),
                rhs: Box::new(rhs.subst_var(name, replacement)),
            },
            IrExpr::And(a, b) => IrExpr::And(
                Box::new(a.subst_var(name, replacement)),
                Box::new(b.subst_var(name, replacement)),
            ),
            IrExpr::Or(a, b) => IrExpr::Or(
                Box::new(a.subst_var(name, replacement)),
                Box::new(b.subst_var(name, replacement)),
            ),
            IrExpr::Not(e) => IrExpr::Not(Box::new(e.subst_var(name, replacement))),
        }
    }
}

impl fmt::Display for IrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrExpr::Int(v) => write!(f, "{v}"),
            IrExpr::Real(v) => write!(f, "{v}"),
            IrExpr::Var(n) => write!(f, "{n}"),
            IrExpr::Load { array, indices } => {
                write!(f, "{array}[")?;
                for (k, ix) in indices.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{ix}")?;
                }
                write!(f, "]")
            }
            IrExpr::Bin { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            IrExpr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            IrExpr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            IrExpr::And(a, b) => write!(f, "({a} && {b})"),
            IrExpr::Or(a, b) => write!(f, "({a} || {b})"),
            IrExpr::Not(e) => write!(f, "!({e})"),
        }
    }
}

/// An affine integer expression: `constant + Σ coefficient·variable`.
///
/// Variable names are interned [`Symbol`]s: cloning an affine form copies a
/// map of `Copy` keys instead of allocating strings, which keeps the prover's
/// entailment queries (which clone and combine these constantly) off the
/// allocator. `Symbol` orders by string content, so iteration order is the
/// same as with `String` keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Affine {
    /// Per-variable coefficients (zero coefficients are not stored).
    pub terms: BTreeMap<Symbol, i64>,
    /// The constant term.
    pub constant: i64,
}

impl Affine {
    /// The constant affine expression `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The affine expression `1·name`.
    pub fn var(name: impl Into<Symbol>) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), 1);
        Affine { terms, constant: 0 }
    }

    /// Sum of two affine expressions.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, c) in &other.terms {
            *out.terms.entry(*v).or_insert(0) += c;
        }
        out.normalize()
    }

    /// Difference of two affine expressions.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Scales by an integer constant.
    pub fn scale(&self, factor: i64) -> Affine {
        let mut out = Affine::constant(self.constant * factor);
        for (v, c) in &self.terms {
            out.terms.insert(*v, c * factor);
        }
        out.normalize()
    }

    fn normalize(mut self) -> Affine {
        self.terms.retain(|_, c| *c != 0);
        self
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: impl Into<Symbol>) -> i64 {
        self.terms.get(&name.into()).copied().unwrap_or(0)
    }

    /// Substitutes `replacement` for variable `name`:
    /// `self[name := replacement]`.
    pub fn subst(&self, name: impl Into<Symbol>, replacement: &Affine) -> Affine {
        let name = name.into();
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&name);
        out.add(&replacement.scale(c))
    }

    /// Evaluates the expression given integer variable bindings.
    /// Unbound variables evaluate as zero.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> i64 {
        let mut total = self.constant;
        for (v, c) in &self.terms {
            total += c * env(v.as_str()).unwrap_or(0);
        }
        total
    }

    /// Converts back into an [`IrExpr`].
    pub fn to_expr(&self) -> IrExpr {
        let mut expr: Option<IrExpr> = if self.constant != 0 || self.terms.is_empty() {
            Some(IrExpr::Int(self.constant))
        } else {
            None
        };
        for (v, c) in &self.terms {
            let term = if *c == 1 {
                IrExpr::var(v.as_str())
            } else {
                IrExpr::mul(IrExpr::Int(*c), IrExpr::var(v.as_str()))
            };
            expr = Some(match expr {
                Some(e) => IrExpr::add(e, term),
                None => term,
            });
        }
        expr.unwrap_or(IrExpr::Int(0))
    }
}

impl fmt::Display for Affine {
    /// Prints the equivalent integer expression ([`Affine::to_expr`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_expr())
    }
}

/// Greatest common divisor of two non-negative integers (`gcd(0, n) = n`).
/// Shared by the stride-inference and integer-tightening layers.
pub fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The iteration domain of one counted loop: the arithmetic progression
/// `{ lo, lo + step, lo + 2·step, … }` clipped at `hi` (inclusive), walked in
/// order by the counter `var`.
///
/// This is the canonical, first-class representation of "how a loop
/// iterates": lowering produces it, the interpreter and symbolic executor
/// walk it, verification-condition generation derives loop-head invariants
/// (including the divisibility fact `step | var − lo`) from it, and the
/// synthesis grammar quantifies over it. A unit-step domain (`step == 1`) is
/// the dense special case that all pre-§6.5 kernels use.
#[derive(Debug, Clone, PartialEq)]
pub struct IterDomain {
    /// Loop counter variable.
    pub var: String,
    /// First iterate (inclusive lower bound for positive steps).
    pub lo: IrExpr,
    /// Inclusive clip bound: iteration stops once the counter passes it.
    pub hi: IrExpr,
    /// Constant step; positive for incrementing loops, negative for
    /// decrementing ones, never zero.
    pub step: i64,
}

impl IterDomain {
    /// A dense unit-step domain `var = lo ..= hi`.
    pub fn unit(var: impl Into<String>, lo: IrExpr, hi: IrExpr) -> IterDomain {
        IterDomain::new(var, lo, hi, 1)
    }

    /// A domain with an explicit step.
    ///
    /// # Panics
    ///
    /// Panics on a zero step (lowering rejects those before building IR).
    pub fn new(var: impl Into<String>, lo: IrExpr, hi: IrExpr, step: i64) -> IterDomain {
        assert!(step != 0, "iteration domain with zero step");
        IterDomain {
            var: var.into(),
            lo,
            hi,
            step,
        }
    }

    /// Returns `true` for the dense `step == 1` case.
    pub fn is_unit(&self) -> bool {
        self.step == 1
    }

    /// The last value the counter actually takes for concrete bounds, or
    /// `None` when the domain is empty. For `lo=1, hi=10, step=4` this is `9`.
    pub fn last_iterate(lo: i64, hi: i64, step: i64) -> Option<i64> {
        if step > 0 {
            (lo <= hi).then(|| lo + step * ((hi - lo) / step))
        } else {
            (lo >= hi).then(|| lo + step * ((lo - hi) / (-step)))
        }
    }

    /// Number of iterations for concrete bounds.
    pub fn trip_count(lo: i64, hi: i64, step: i64) -> i64 {
        if step > 0 {
            if lo > hi {
                0
            } else {
                (hi - lo) / step + 1
            }
        } else if lo < hi {
            0
        } else {
            (lo - hi) / (-step) + 1
        }
    }

    /// Canonicalizes the domain: when both bounds are integer literals, the
    /// clip bound is tightened to the exact last iterate, so that
    /// `do i = 1, 10, 4` and `do i = 1, 9, 4` have identical canonical form
    /// (and `step | hi − lo` holds exactly). Symbolic bounds are left as
    /// written. Negative-step domains canonicalize the same way (the clip
    /// bound rises to the last iterate).
    pub fn canonicalize(mut self) -> IterDomain {
        if self.step != 1 && self.step != -1 {
            if let (IrExpr::Int(lo), IrExpr::Int(hi)) = (&self.lo, &self.hi) {
                if let Some(last) = IterDomain::last_iterate(*lo, *hi, self.step) {
                    self.hi = IrExpr::Int(last);
                }
            }
        }
        self
    }
}

impl fmt::Display for IterDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.step == 1 {
            write!(f, "{} = {}..{}", self.var, self.lo, self.hi)
        } else {
            write!(
                f,
                "{} = {}..{} step {}",
                self.var, self.lo, self.hi, self.step
            )
        }
    }
}

/// Statements of the canonical IR.
#[derive(Debug, Clone, PartialEq)]
pub enum IrStmt {
    /// Assignment to a scalar.
    AssignScalar { name: String, value: IrExpr },
    /// Assignment to an array element.
    Store {
        array: String,
        indices: Vec<IrExpr>,
        value: IrExpr,
    },
    /// A counted loop walking its iteration domain in order.
    Loop {
        domain: IterDomain,
        body: Vec<IrStmt>,
    },
    /// A two-way conditional. Present so the §6.6 experiments can build IR
    /// with conditionals; the lifter itself rejects kernels containing it.
    If {
        cond: IrExpr,
        then_body: Vec<IrStmt>,
        else_body: Vec<IrStmt>,
    },
}

impl IrStmt {
    /// Visits this statement and all nested statements, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a IrStmt)) {
        visit(self);
        match self {
            IrStmt::Loop { body, .. } => {
                for s in body {
                    s.walk(visit);
                }
            }
            IrStmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.walk(visit);
                }
            }
            IrStmt::AssignScalar { .. } | IrStmt::Store { .. } => {}
        }
    }
}

/// Describes one loop of a (possibly imperfect) loop nest, outermost first.
/// Dereferences to its [`IterDomain`], so `info.var`, `info.lo`, `info.hi`,
/// and `info.step` read through.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// The loop's iteration domain.
    pub domain: IterDomain,
    /// Nesting depth, `0` for the outermost loop.
    pub depth: usize,
}

impl std::ops::Deref for LoopInfo {
    type Target = IterDomain;

    fn deref(&self) -> &IterDomain {
        &self.domain
    }
}

/// Kind of a scalar or array symbol, as reported by [`Kernel::var_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Integer scalar.
    Int,
    /// Real scalar.
    Real,
    /// Array of reals.
    Array,
}

/// A candidate kernel in canonical form.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (derived from the enclosing procedure plus an index).
    pub name: String,
    /// Parameters (bounds, scalars, arrays) in declaration order.
    pub params: Vec<Param>,
    /// Scalar locals introduced by the kernel (loop counters, temporaries).
    pub locals: Vec<Param>,
    /// Canonical statements.
    pub body: Vec<IrStmt>,
    /// Boolean assumptions from `STNG: assume(...)` annotations.
    pub assumptions: Vec<IrExpr>,
}

impl Kernel {
    /// Looks up the kind of a symbol.
    pub fn var_kind(&self, name: &str) -> Option<VarKind> {
        self.params
            .iter()
            .chain(self.locals.iter())
            .find(|p| p.name == name)
            .map(|p| match &p.kind {
                ParamKind::IntScalar => VarKind::Int,
                ParamKind::RealScalar => VarKind::Real,
                ParamKind::Array { .. } => VarKind::Array,
            })
    }

    /// Declared dimensions of an array symbol.
    pub fn array_dims(&self, name: &str) -> Option<&[(IrExpr, IrExpr)]> {
        self.params
            .iter()
            .chain(self.locals.iter())
            .find(|p| p.name == name)
            .and_then(|p| match &p.kind {
                ParamKind::Array { dims } => Some(dims.as_slice()),
                _ => None,
            })
    }

    /// Names of all arrays written by the kernel.
    pub fn output_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        for stmt in &self.body {
            stmt.walk(&mut |s| {
                if let IrStmt::Store { array, .. } = s {
                    if !out.contains(array) {
                        out.push(array.clone());
                    }
                }
            });
        }
        out
    }

    /// Names of all arrays read by the kernel (may overlap with outputs).
    pub fn input_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut record = |e: &IrExpr| {
            e.walk(&mut |x| {
                if let IrExpr::Load { array, .. } = x {
                    if !out.contains(array) {
                        out.push(array.clone());
                    }
                }
            });
        };
        for stmt in &self.body {
            stmt.walk(&mut |s| match s {
                IrStmt::AssignScalar { value, .. } => record(value),
                IrStmt::Store { indices, value, .. } => {
                    for ix in indices {
                        record(ix);
                    }
                    record(value);
                }
                IrStmt::Loop { domain, .. } => {
                    record(&domain.lo);
                    record(&domain.hi);
                }
                IrStmt::If { cond, .. } => record(cond),
            });
        }
        out
    }

    /// The loops of the kernel in pre-order (outermost first), with depth.
    pub fn loops(&self) -> Vec<LoopInfo> {
        fn collect(stmts: &[IrStmt], depth: usize, out: &mut Vec<LoopInfo>) {
            for stmt in stmts {
                if let IrStmt::Loop { domain, body } = stmt {
                    out.push(LoopInfo {
                        domain: domain.clone(),
                        depth,
                    });
                    collect(body, depth + 1, out);
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.body, 0, &mut out);
        out
    }

    /// Maximum loop nesting depth.
    pub fn loop_depth(&self) -> usize {
        self.loops().iter().map(|l| l.depth + 1).max().unwrap_or(0)
    }

    /// Names of loop counter variables in nesting order.
    pub fn loop_vars(&self) -> Vec<String> {
        self.loops().into_iter().map(|l| l.domain.var).collect()
    }

    /// Names of integer scalar parameters (loop bounds, grid sizes).
    pub fn int_params(&self) -> Vec<String> {
        self.params
            .iter()
            .filter(|p| p.kind == ParamKind::IntScalar)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Names of real scalar parameters.
    pub fn real_params(&self) -> Vec<String> {
        self.params
            .iter()
            .filter(|p| p.kind == ParamKind::RealScalar)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Returns `true` when the kernel contains a conditional statement.
    pub fn has_conditionals(&self) -> bool {
        let mut found = false;
        for stmt in &self.body {
            stmt.walk(&mut |s| {
                if matches!(s, IrStmt::If { .. }) {
                    found = true;
                }
            });
        }
        found
    }

    /// Returns `true` when every loop in the kernel has unit step.
    pub fn all_unit_steps(&self) -> bool {
        self.loops().iter().all(|l| l.step == 1)
    }

    /// Number of statements (including nested) in the kernel body.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0usize;
        for stmt in &self.body {
            stmt.walk(&mut |_| n += 1);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kernel() -> Kernel {
        // do j = jmin, jmax { do i = imin+1, imax { a[i,j] = b[i-1,j] + b[i,j] } }
        let store = IrStmt::Store {
            array: "a".into(),
            indices: vec![IrExpr::var("i"), IrExpr::var("j")],
            value: IrExpr::add(
                IrExpr::Load {
                    array: "b".into(),
                    indices: vec![
                        IrExpr::sub(IrExpr::var("i"), IrExpr::Int(1)),
                        IrExpr::var("j"),
                    ],
                },
                IrExpr::Load {
                    array: "b".into(),
                    indices: vec![IrExpr::var("i"), IrExpr::var("j")],
                },
            ),
        };
        let inner = IrStmt::Loop {
            domain: IterDomain::unit(
                "i",
                IrExpr::add(IrExpr::var("imin"), IrExpr::Int(1)),
                IrExpr::var("imax"),
            ),
            body: vec![store],
        };
        let outer = IrStmt::Loop {
            domain: IterDomain::unit("j", IrExpr::var("jmin"), IrExpr::var("jmax")),
            body: vec![inner],
        };
        Kernel {
            name: "sten".into(),
            params: vec![
                Param {
                    name: "imin".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "imax".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "jmin".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "jmax".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "a".into(),
                    kind: ParamKind::Array {
                        dims: vec![
                            (IrExpr::var("imin"), IrExpr::var("imax")),
                            (IrExpr::var("jmin"), IrExpr::var("jmax")),
                        ],
                    },
                },
                Param {
                    name: "b".into(),
                    kind: ParamKind::Array {
                        dims: vec![
                            (IrExpr::var("imin"), IrExpr::var("imax")),
                            (IrExpr::var("jmin"), IrExpr::var("jmax")),
                        ],
                    },
                },
            ],
            locals: vec![
                Param {
                    name: "i".into(),
                    kind: ParamKind::IntScalar,
                },
                Param {
                    name: "j".into(),
                    kind: ParamKind::IntScalar,
                },
            ],
            body: vec![outer],
            assumptions: vec![],
        }
    }

    #[test]
    fn kernel_queries() {
        let k = sample_kernel();
        assert_eq!(k.output_arrays(), vec!["a".to_string()]);
        assert_eq!(k.input_arrays(), vec!["b".to_string()]);
        assert_eq!(k.loop_vars(), vec!["j".to_string(), "i".to_string()]);
        assert_eq!(k.loop_depth(), 2);
        assert_eq!(k.var_kind("imin"), Some(VarKind::Int));
        assert_eq!(k.var_kind("a"), Some(VarKind::Array));
        assert!(!k.has_conditionals());
        assert!(k.all_unit_steps());
        assert_eq!(k.stmt_count(), 3);
    }

    #[test]
    fn affine_conversion_roundtrip() {
        // 2*i - j + 3
        let e = IrExpr::add(
            IrExpr::sub(
                IrExpr::mul(IrExpr::Int(2), IrExpr::var("i")),
                IrExpr::var("j"),
            ),
            IrExpr::Int(3),
        );
        let aff = e.as_affine().unwrap();
        assert_eq!(aff.coeff("i"), 2);
        assert_eq!(aff.coeff("j"), -1);
        assert_eq!(aff.constant, 3);
        let env = |name: &str| match name {
            "i" => Some(5),
            "j" => Some(2),
            _ => None,
        };
        assert_eq!(aff.eval(&env), 11);
        let back = aff.to_expr().as_affine().unwrap();
        assert_eq!(back, aff);
    }

    #[test]
    fn non_affine_detected() {
        let e = IrExpr::mul(IrExpr::var("i"), IrExpr::var("j"));
        assert!(e.as_affine().is_none());
        let e = IrExpr::bin(BinOp::Div, IrExpr::var("i"), IrExpr::Int(2));
        assert!(e.as_affine().is_none());
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let e = IrExpr::add(
            IrExpr::var("i"),
            IrExpr::mul(IrExpr::var("i"), IrExpr::var("j")),
        );
        let replaced = e.subst_var("i", &IrExpr::Int(4));
        assert_eq!(replaced.free_vars(), vec!["j".to_string()]);
    }

    #[test]
    fn display_is_readable() {
        let k = sample_kernel();
        let IrStmt::Loop { body, .. } = &k.body[0] else {
            panic!()
        };
        let IrStmt::Loop { body, .. } = &body[0] else {
            panic!()
        };
        let IrStmt::Store { value, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(value.to_string(), "(b[(i - 1), j] + b[i, j])");
    }

    #[test]
    fn iter_domain_arithmetic() {
        assert_eq!(IterDomain::last_iterate(1, 10, 4), Some(9));
        assert_eq!(IterDomain::last_iterate(1, 1, 4), Some(1));
        assert_eq!(IterDomain::last_iterate(5, 4, 2), None);
        assert_eq!(IterDomain::last_iterate(10, 1, -4), Some(2));
        assert_eq!(IterDomain::last_iterate(1, 10, -1), None);
        assert_eq!(IterDomain::trip_count(1, 10, 4), 3);
        assert_eq!(IterDomain::trip_count(1, 10, 1), 10);
        assert_eq!(IterDomain::trip_count(5, 4, 2), 0);
        assert_eq!(IterDomain::trip_count(10, 1, -4), 3);
    }

    #[test]
    fn iter_domain_canonicalization_clamps_constant_bounds() {
        let d = IterDomain::new("i", IrExpr::Int(1), IrExpr::Int(10), 4).canonicalize();
        assert_eq!(d.hi, IrExpr::Int(9));
        let d = IterDomain::new("i", IrExpr::Int(10), IrExpr::Int(1), -4).canonicalize();
        assert_eq!(d.hi, IrExpr::Int(2));
        // Symbolic bounds are left alone.
        let d = IterDomain::new("i", IrExpr::Int(1), IrExpr::var("n"), 4).canonicalize();
        assert_eq!(d.hi, IrExpr::var("n"));
        // Unit steps need no clamping.
        let d = IterDomain::unit("i", IrExpr::Int(1), IrExpr::Int(10)).canonicalize();
        assert_eq!(d.hi, IrExpr::Int(10));
        assert!(d.is_unit());
    }

    #[test]
    fn iter_domain_display_shows_stride() {
        let d = IterDomain::new("kk", IrExpr::Int(1), IrExpr::var("n"), 4);
        assert_eq!(d.to_string(), "kk = 1..n step 4");
        let u = IterDomain::unit("i", IrExpr::Int(0), IrExpr::var("n"));
        assert_eq!(u.to_string(), "i = 0..n");
    }

    #[test]
    fn affine_substitution() {
        // (2i + j + 3)[i := 1 + 2k] = 4k + j + 5
        let aff = Affine::var("i".to_string())
            .scale(2)
            .add(&Affine::var("j".to_string()))
            .add(&Affine::constant(3));
        let repl = Affine::var("k".to_string())
            .scale(2)
            .add(&Affine::constant(1));
        let out = aff.subst("i", &repl);
        assert_eq!(out.coeff("k"), 4);
        assert_eq!(out.coeff("j"), 1);
        assert_eq!(out.coeff("i"), 0);
        assert_eq!(out.constant, 5);
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert!(CmpOp::Ne.eval(1, 2));
    }
}

//! The algorithm half of the mini-Halide language: pure functions over grid
//! coordinates.

use crate::buffer::Buffer;
use std::collections::HashMap;
use std::fmt;

/// An index expression inside an input-image access: either a grid variable
/// plus a constant offset, or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HIndex {
    /// `var[k] + offset`
    VarOffset {
        /// Which of the function's pure variables.
        var: usize,
        /// Constant offset.
        offset: i64,
    },
    /// A constant index.
    Const(i64),
}

impl HIndex {
    fn eval(&self, point: &[i64]) -> i64 {
        match self {
            HIndex::VarOffset { var, offset } => point[*var] + offset,
            HIndex::Const(v) => *v,
        }
    }
}

/// Expressions of the mini-Halide algorithm language.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    /// Floating-point constant.
    Const(f64),
    /// A scalar runtime parameter.
    Param(String),
    /// A read of an input image at offsets relative to the output point.
    Input {
        /// Image name.
        image: String,
        /// One index per image dimension.
        index: Vec<HIndex>,
    },
    /// Addition.
    Add(Box<HExpr>, Box<HExpr>),
    /// Subtraction.
    Sub(Box<HExpr>, Box<HExpr>),
    /// Multiplication.
    Mul(Box<HExpr>, Box<HExpr>),
    /// Division.
    Div(Box<HExpr>, Box<HExpr>),
    /// Call to a pure math function.
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<HExpr>,
    },
}

impl HExpr {
    /// Resolves every image to its buffer and every parameter to its value,
    /// once per realization, so evaluation neither hashes nor allocates. A
    /// missing image or parameter resolves to the constant 0.
    pub(crate) fn resolve<'a>(
        &'a self,
        inputs: &HashMap<String, &'a Buffer>,
        params: &HashMap<String, f64>,
    ) -> Resolved<'a> {
        let pair = |a: &'a HExpr, b: &'a HExpr| {
            (
                Box::new(a.resolve(inputs, params)),
                Box::new(b.resolve(inputs, params)),
            )
        };
        match self {
            HExpr::Const(v) => Resolved::Const(*v),
            HExpr::Param(name) => Resolved::Const(params.get(name).copied().unwrap_or(0.0)),
            HExpr::Input { image, index } => match inputs.get(image) {
                Some(&buffer) => Resolved::Read { buffer, index },
                None => Resolved::Const(0.0),
            },
            HExpr::Add(a, b) => {
                let (a, b) = pair(a, b);
                Resolved::Add(a, b)
            }
            HExpr::Sub(a, b) => {
                let (a, b) = pair(a, b);
                Resolved::Sub(a, b)
            }
            HExpr::Mul(a, b) => {
                let (a, b) = pair(a, b);
                Resolved::Mul(a, b)
            }
            HExpr::Div(a, b) => {
                let (a, b) = pair(a, b);
                Resolved::Div(a, b)
            }
            HExpr::Call { name, args } => Resolved::Call {
                name,
                args: args.iter().map(|a| a.resolve(inputs, params)).collect(),
            },
        }
    }

    /// Number of arithmetic operations per point (cost-model input).
    pub fn flops(&self) -> usize {
        match self {
            HExpr::Const(_) | HExpr::Param(_) | HExpr::Input { .. } => 0,
            HExpr::Add(a, b) | HExpr::Sub(a, b) | HExpr::Mul(a, b) | HExpr::Div(a, b) => {
                1 + a.flops() + b.flops()
            }
            HExpr::Call { args, .. } => 4 + args.iter().map(HExpr::flops).sum::<usize>(),
        }
    }

    /// Number of input-image reads per point (cost-model input).
    pub fn loads(&self) -> usize {
        match self {
            HExpr::Input { .. } => 1,
            HExpr::Const(_) | HExpr::Param(_) => 0,
            HExpr::Add(a, b) | HExpr::Sub(a, b) | HExpr::Mul(a, b) | HExpr::Div(a, b) => {
                a.loads() + b.loads()
            }
            HExpr::Call { args, .. } => args.iter().map(HExpr::loads).sum(),
        }
    }

    /// Names of all input images referenced.
    pub fn images(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn go(e: &HExpr, out: &mut Vec<String>) {
            match e {
                HExpr::Input { image, .. } => {
                    if !out.contains(image) {
                        out.push(image.clone());
                    }
                }
                HExpr::Add(a, b) | HExpr::Sub(a, b) | HExpr::Mul(a, b) | HExpr::Div(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                HExpr::Call { args, .. } => args.iter().for_each(|a| go(a, out)),
                HExpr::Const(_) | HExpr::Param(_) => {}
            }
        }
        go(self, &mut out);
        out
    }
}

/// An [`HExpr`] bound to one realization's buffers and parameter values.
pub(crate) enum Resolved<'a> {
    Const(f64),
    Read {
        buffer: &'a Buffer,
        index: &'a [HIndex],
    },
    Add(Box<Resolved<'a>>, Box<Resolved<'a>>),
    Sub(Box<Resolved<'a>>, Box<Resolved<'a>>),
    Mul(Box<Resolved<'a>>, Box<Resolved<'a>>),
    Div(Box<Resolved<'a>>, Box<Resolved<'a>>),
    Call {
        name: &'a str,
        args: Vec<Resolved<'a>>,
    },
}

impl Resolved<'_> {
    /// Evaluates at a grid point. Reads clamp to the buffer (see
    /// [`Buffer::get_clamped`]); division by zero and unknown intrinsics
    /// give 0.
    pub(crate) fn eval(&self, point: &[i64]) -> f64 {
        match self {
            Resolved::Const(v) => *v,
            Resolved::Read { buffer, index } => buffer
                .clamped_offset(index.iter().map(|ix| ix.eval(point)))
                .map_or(0.0, |at| buffer.data[at]),
            Resolved::Add(a, b) => a.eval(point) + b.eval(point),
            Resolved::Sub(a, b) => a.eval(point) - b.eval(point),
            Resolved::Mul(a, b) => a.eval(point) * b.eval(point),
            Resolved::Div(a, b) => {
                let d = b.eval(point);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(point) / d
                }
            }
            Resolved::Call { name, args } => {
                // Every intrinsic takes one or two arguments; more is an
                // unknown call, which gives 0 like any other.
                let mut vals = [0.0; 2];
                if args.len() > vals.len() {
                    return 0.0;
                }
                for (v, a) in vals.iter_mut().zip(args) {
                    *v = a.eval(point);
                }
                apply_intrinsic(name, &vals[..args.len()])
            }
        }
    }
}

/// Evaluates a pure math intrinsic (total: undefined cases return 0).
pub fn apply_intrinsic(name: &str, args: &[f64]) -> f64 {
    match (name, args) {
        ("exp", [x]) => x.exp(),
        ("log", [x]) if *x > 0.0 => x.ln(),
        ("sqrt", [x]) if *x >= 0.0 => x.sqrt(),
        ("sin", [x]) => x.sin(),
        ("cos", [x]) => x.cos(),
        ("tan", [x]) => x.tan(),
        ("abs", [x]) => x.abs(),
        ("min", [x, y]) => x.min(*y),
        ("max", [x, y]) => x.max(*y),
        ("mod", [x, y]) if *y != 0.0 => x.rem_euclid(*y),
        ("sign", [x, y]) => x.abs() * y.signum(),
        _ => 0.0,
    }
}

impl fmt::Display for HExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HExpr::Const(v) => write!(f, "{v}"),
            HExpr::Param(name) => write!(f, "{name}"),
            HExpr::Input { image, index } => {
                write!(f, "{image}(")?;
                for (k, ix) in index.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    match ix {
                        HIndex::VarOffset { var, offset } => {
                            let name = ["x", "y", "z", "w", "u", "v"]
                                .get(*var)
                                .copied()
                                .unwrap_or("t");
                            match offset.cmp(&0) {
                                std::cmp::Ordering::Equal => write!(f, "{name}")?,
                                std::cmp::Ordering::Greater => write!(f, "{name}+{offset}")?,
                                std::cmp::Ordering::Less => write!(f, "{name}{offset}")?,
                            }
                        }
                        HIndex::Const(v) => write!(f, "{v}")?,
                    }
                }
                write!(f, ")")
            }
            HExpr::Add(a, b) => write!(f, "({a} + {b})"),
            HExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            HExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            HExpr::Div(a, b) => write!(f, "({a} / {b})"),
            HExpr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A pure stencil function: `name(x, y, …) = expr`, optionally defined over
/// a strided grid. A per-dimension step of `s > 1` means the function is
/// realized only at the points `lo, lo+s, …` of its region in that
/// dimension — the §6.5 extension that lets summaries of strided loops
/// translate to runnable definitions instead of being rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Function (and output buffer) name.
    pub name: String,
    /// Number of pure grid variables (output dimensionality).
    pub rank: usize,
    /// Realization step per grid variable (`1` = dense).
    pub steps: Vec<i64>,
    /// Defining expression.
    pub expr: HExpr,
}

impl Func {
    /// Creates a dense function.
    pub fn new(name: impl Into<String>, rank: usize, expr: HExpr) -> Func {
        let steps = vec![1; rank];
        Func::strided(name, rank, steps, expr)
    }

    /// Creates a function over a strided grid.
    pub fn strided(name: impl Into<String>, rank: usize, steps: Vec<i64>, expr: HExpr) -> Func {
        assert_eq!(steps.len(), rank, "one step per grid variable");
        Func {
            name: name.into(),
            rank,
            steps,
            expr,
        }
    }

    /// Returns `true` when every dimension is dense.
    pub fn is_dense(&self) -> bool {
        self.steps.iter().all(|s| *s == 1)
    }

    /// Arithmetic intensity proxy used by the cost models.
    pub fn work_per_point(&self) -> usize {
        self.expr.flops() + self.expr.loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_point() -> Func {
        Func::new(
            "ex1",
            2,
            HExpr::Add(
                Box::new(HExpr::Input {
                    image: "b".into(),
                    index: vec![
                        HIndex::VarOffset { var: 0, offset: -1 },
                        HIndex::VarOffset { var: 1, offset: 0 },
                    ],
                }),
                Box::new(HExpr::Input {
                    image: "b".into(),
                    index: vec![
                        HIndex::VarOffset { var: 0, offset: 0 },
                        HIndex::VarOffset { var: 1, offset: 0 },
                    ],
                }),
            ),
        )
    }

    #[test]
    fn evaluation_reads_inputs_with_offsets() {
        let func = two_point();
        let b = Buffer::from_fn(vec![0, 0], vec![4, 4], |ix| (ix[0] + 10 * ix[1]) as f64);
        let mut inputs = HashMap::new();
        inputs.insert("b".to_string(), &b);
        let v = func.expr.resolve(&inputs, &HashMap::new()).eval(&[2, 3]);
        assert_eq!(v, (1 + 30) as f64 + (2 + 30) as f64);
        assert_eq!(func.work_per_point(), 3);
        assert_eq!(func.expr.images(), vec!["b".to_string()]);
    }

    #[test]
    fn display_looks_like_halide() {
        let func = two_point();
        assert_eq!(func.expr.to_string(), "(b(x-1, y) + b(x, y))");
    }
}

//! Symbolic value algebra, combined concrete/symbolic execution, and
//! anti-unification for inductive template generation (§4.2 of the paper).
//!
//! The paper runs each candidate kernel through an interpreter backed by a
//! computer algebra system (SymPy), with loop bounds set to small concrete
//! values and array contents left symbolic. The resulting per-output-cell
//! expressions are then *anti-unified* into a template whose holes the
//! synthesizer fills. This crate provides the same facilities natively:
//!
//! * [`expr::SymExpr`] — symbolic expressions over array reads, scalar
//!   inputs, constants, and pure (uninterpreted) functions, kept in a
//!   canonical sum-of-products normal form so that semantically equal
//!   expressions compare equal structurally,
//! * [`exec`] — symbolic execution of a kernel using the interpreter from
//!   `stng-ir` instantiated at the symbolic domain, and
//! * [`anti`] — the `u(e1, e2)` anti-unification procedure with `MakeHole`,
//!   producing [`anti::Template`]s.

pub mod anti;
pub mod exec;
pub mod expr;

pub use anti::{anti_unify, generalize, Template, TemplateExpr};
pub use exec::{choose_small_bounds, symbolic_execute, SymbolicRun};
pub use expr::{arena_stats, clear, SymExpr};

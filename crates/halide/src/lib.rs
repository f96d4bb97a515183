//! A miniature Halide: the retargeting substrate the lifted summaries are
//! compiled to.
//!
//! The paper translates lifted summaries into Halide and relies on Halide's
//! scheduling language, autotuner (OpenTuner), and GPU backend for
//! performance and portability. This crate reproduces the pieces of that
//! stack the evaluation needs, natively in Rust:
//!
//! * [`func`] — the algorithm language: pure functions over grid coordinates
//!   reading input images at constant offsets ([`func::Func`], [`func::HExpr`]),
//! * [`buffer`] — multidimensional buffers with logical origins,
//! * [`schedule`] — the scheduling directives (tiling, parallelization) and
//!   the CPU runtime that honours them,
//! * [`gpu`] — an analytic GPU device model (kernel launch + memory traffic +
//!   PCIe transfer) used for the portability study of §6.4,
//! * [`autotune`] — an OpenTuner-style autotuner: an ensemble of schedule
//!   mutators driven by a multi-armed bandit,
//! * [`codegen`] — pretty-printers for Halide C++ generator sources
//!   (Fig. 1(d)) and for de-optimized serial C (§6.5).

pub mod autotune;
pub mod buffer;
pub mod codegen;
pub mod func;
pub mod gpu;
pub mod schedule;

pub use autotune::{Autotuner, TuneReport};
pub use buffer::Buffer;
pub use func::{Func, HExpr, HIndex};
pub use gpu::{GpuModel, GpuRun};
pub use schedule::{realize, Schedule};

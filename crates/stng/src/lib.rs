//! STNG: verified lifting of stencil computations, end to end.
//!
//! This is the crate a user of the reproduction interacts with. It wires the
//! substrates together exactly as Fig. 3 of the paper describes the STNG
//! toolchain:
//!
//! 1. the **code fragment identifier** and **parser** (`stng-ir`) find
//!    candidate loop nests in Fortran-subset source,
//! 2. the **VC computation**, **postcondition synthesizer**, and **formal
//!    verifier** (`stng-pred`, `stng-synth`, `stng-solve`) search for a
//!    provably correct summary of each kernel,
//! 3. the **Halide code generator** (`stng-halide` plus [`translate`])
//!    converts accepted summaries into runnable stencil functions, Halide C++
//!    generator sources, and de-optimized serial C.
//!
//! The main entry point is [`pipeline::Stng::lift_source`], which returns a
//! [`pipeline::LiftReport`] with one entry per candidate kernel: either the
//! lifted summary plus generated code, or the reason lifting failed.

pub mod memory;
pub mod pipeline;
pub mod translate;

/// Resource governance (budgets, degradation reasons, fault injection) —
/// re-exported from `stng-intern`, the lowest crate all three engines see.
/// See `docs/robustness.md` for the degradation ladder.
pub mod guard {
    pub use stng_intern::guard::{fault, Budget, DegradeReason};
}

/// Observability — the span recorder, metrics registry, and trace exporters
/// of `stng-obs`, re-exported so pipeline users arm tracing and export
/// traces without depending on the substrate crate directly. See
/// `docs/observability.md`.
pub mod obs {
    pub use stng_obs::{arm, armed, chrome, disarm, event, json, metrics, names, recorder, span};
}

pub use pipeline::{KernelOutcome, KernelReport, LiftCache, LiftReport, Stng};
pub use translate::{StencilSummary, TranslationError};

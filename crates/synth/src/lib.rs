//! Counter-example guided inductive synthesis (CEGIS) of postconditions and
//! loop invariants from inductive templates (§3 and §4 of the paper).
//!
//! The synthesis pipeline mirrors STNG:
//!
//! 1. **Inductive template generation** — the kernel is executed with small
//!    concrete bounds and symbolic array contents (`stng-sym`); the observed
//!    per-cell expressions are anti-unified into a template whose holes must
//!    be filled ([`postcond`]).
//! 2. **Candidate generation** — index holes are solved against the
//!    observations (the space of `vᵢ + c` index expressions of Fig. 4),
//!    quantifier domains are matched to the written region, and invariant
//!    candidates are derived from the postcondition with a small set of
//!    structural choices per loop level ([`invariant`]).
//! 3. **CEGIS** — candidates are screened by bounded checking on reachable
//!    states (counterexamples prune the candidate space) and the survivors
//!    are proven sound by the SMT-lite verifier ([`cegis`]).
//!
//! The synthesizer also reports the **control bits** the equivalent SKETCH
//! encoding would need (the measure in Table 1), and the [`conditional`]
//! module reproduces the §6.6 study of how conditional grammars inflate the
//! search space.

pub mod cegis;
pub mod conditional;
pub mod control;
pub mod invariant;
pub mod postcond;

pub use cegis::{PhaseTimings, SynthesisConfig, SynthesisFailure, SynthesisOutcome};
pub use control::ControlBits;
pub use postcond::PostcondCandidate;

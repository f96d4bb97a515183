//! The end-to-end STNG pipeline (Fig. 3): identify → lift → verify →
//! generate DSL code, with a per-kernel report of everything Table 1 and
//! Table 2 need.

use crate::translate::StencilSummary;
use std::sync::Arc;
use std::time::Duration;
use stng_intern::guard::{Budget, DegradeReason};
use stng_intern::Symbol;
use stng_ir::canon::{canonicalize, Canon};
use stng_ir::identify::classify_loops;
use stng_ir::ir::Kernel;
use stng_ir::lower::{liftability_check, lower_fragment};
use stng_ir::parser::parse_program;
use stng_obs::{names, span};
use stng_pred::lang::Postcondition;
use stng_synth::cegis::{synthesize_governed_with_phases, SynthesisConfig, SynthesisFailure};
use stng_synth::{ControlBits, PhaseTimings};

/// A pluggable lifting-result cache, consulted by [`Stng`] after lowering
/// and before synthesis (the expensive stage).
///
/// Implementations key on the *structural fingerprint* of the lowered
/// kernel ([`Canon`], computed once per kernel by the pipeline and shared
/// between the lookup and the record) plus a digest of the synthesis
/// configuration, so a renamed or reformatted duplicate of an
/// already-lifted kernel is a hit. The reference implementation is
/// `stng-service`'s two-tier (memory + disk) cache; the pipeline itself
/// only defines the hook points.
pub trait LiftCache: Send + Sync {
    /// Returns a previously computed report for `kernel`, rewritten to this
    /// kernel's actual symbol names, or `None` on a miss. `fragment_name` is
    /// the name the returned report should carry.
    fn lookup(
        &self,
        kernel: &Kernel,
        canon: &Canon,
        fragment_name: &str,
        config: &SynthesisConfig,
    ) -> Option<KernelReport>;

    /// Records a freshly computed report (called for both translated and
    /// untranslated outcomes; lowering failures never reach the cache since
    /// there is no kernel to fingerprint). `canon` is the same value the
    /// preceding [`LiftCache::lookup`] received.
    fn record(
        &self,
        kernel: &Kernel,
        canon: &Canon,
        config: &SynthesisConfig,
        report: &KernelReport,
    );
}

/// Outcome of attempting to lift one candidate kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOutcome {
    /// The kernel was lifted; the summary and generated code are attached.
    Translated {
        /// The lifted summary.
        post: Postcondition,
        /// The summary translated to mini-Halide.
        summary: StencilSummary,
        /// Whether the summary is backed by a full proof (as opposed to the
        /// extended bounded validation fallback documented in DESIGN.md).
        soundly_verified: bool,
        /// Number of CEGIS iterations.
        cegis_iterations: usize,
        /// When a resource budget cut the sound-proof stage short and the
        /// summary was accepted through bounded validation instead, the
        /// limit that tripped. `None` for ungoverned runs.
        degraded: Option<DegradeReason>,
    },
    /// The kernel was a candidate but could not be lifted.
    Untranslated {
        /// Why lifting failed.
        reason: String,
    },
    /// The resource budget ran out before even bounded validation could
    /// finish; the kernel was abandoned, the rest of the batch unaffected.
    Timeout {
        /// The limit that tripped.
        reason: DegradeReason,
        /// Human-readable context.
        detail: String,
    },
    /// A worker panicked while lifting this kernel; the panic was isolated
    /// and the rest of the batch completed normally.
    Crashed {
        /// The panic message.
        panic: String,
    },
}

impl KernelOutcome {
    /// True when the kernel was lifted.
    pub fn is_translated(&self) -> bool {
        matches!(self, KernelOutcome::Translated { .. })
    }

    /// True when a budget or a caught panic (rather than the kernel itself)
    /// decided this outcome — such results are never cached.
    pub fn is_budget_affected(&self) -> bool {
        match self {
            KernelOutcome::Translated { degraded, .. } => degraded.is_some(),
            KernelOutcome::Untranslated { .. } => false,
            KernelOutcome::Timeout { .. } | KernelOutcome::Crashed { .. } => true,
        }
    }
}

/// Everything the pipeline learned about one candidate kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel (fragment) name.
    pub name: String,
    /// The lowered kernel, when lowering succeeded.
    pub kernel: Option<Kernel>,
    /// Lifting outcome.
    pub outcome: KernelOutcome,
    /// Wall-clock synthesis time (Table 1, "Sketch Time").
    pub synthesis_time: Duration,
    /// Control bits of the synthesis encoding (Table 1).
    pub control_bits: ControlBits,
    /// AST-node count of the postcondition (Table 1).
    pub postcond_nodes: usize,
    /// Proof attempts spent by the sound verifier on the accepted candidate.
    pub prover_attempts: usize,
    /// Number of invariant candidates enumerated (peak CEGIS candidate set).
    pub peak_candidates: usize,
    /// Structural fingerprint of the lowered kernel (hex), present when a
    /// lifting cache was attached (the pipeline computes the canonical form
    /// anyway for the cache key, so reports surface it for observability).
    pub fingerprint: Option<String>,
    /// Whether this report was served by the lifting cache (memory or disk)
    /// instead of a fresh synthesis run. Set by the pipeline on the lookup
    /// path; never persisted (a rehydrated report is marked at lookup time,
    /// so the disk schema is unchanged).
    pub cached: bool,
    /// Per-phase checking times (capture / bounded check / prove) and the
    /// capture-reuse counter of the synthesis run.
    pub phase: PhaseTimings,
}

impl KernelReport {
    /// The report of a kernel that produced no synthesis result (lowering
    /// or liftability failed, or synthesis gave up): zero synthesis
    /// statistics, no fingerprint, not cached.
    pub fn unsynthesized(
        name: impl Into<String>,
        kernel: Option<Kernel>,
        outcome: KernelOutcome,
        synthesis_time: Duration,
    ) -> KernelReport {
        KernelReport {
            name: name.into(),
            kernel,
            outcome,
            synthesis_time,
            control_bits: ControlBits::default(),
            postcond_nodes: 0,
            prover_attempts: 0,
            peak_candidates: 0,
            fingerprint: None,
            cached: false,
            phase: PhaseTimings::default(),
        }
    }
}

/// The report for a whole source file.
#[derive(Debug, Clone, Default)]
pub struct LiftReport {
    /// One entry per candidate kernel, in source order.
    pub kernels: Vec<KernelReport>,
    /// Number of outermost loops that were not even flagged as candidates.
    pub skipped_loops: usize,
}

impl LiftReport {
    /// Number of candidate kernels (Table 2, "Candidates").
    pub fn candidates(&self) -> usize {
        self.kernels.len()
    }

    /// Number of translated kernels (Table 2, "Translated").
    pub fn translated(&self) -> usize {
        self.kernels
            .iter()
            .filter(|k| k.outcome.is_translated())
            .count()
    }
}

/// The STNG compiler front object.
#[derive(Clone, Default)]
pub struct Stng {
    /// Synthesis configuration used for every kernel.
    pub config: SynthesisConfig,
    /// Optional lifting-result cache consulted between lowering and
    /// synthesis.
    pub cache: Option<Arc<dyn LiftCache>>,
    /// Resource budget threaded through synthesis for every kernel. The
    /// default is unlimited — identical behaviour to an ungoverned
    /// pipeline. Deliberately *not* part of [`SynthesisConfig`]: budgets
    /// describe how long a run may take, not what it computes, so they
    /// must not perturb cache config digests.
    pub budget: Budget,
}

impl std::fmt::Debug for Stng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stng")
            .field("config", &self.config)
            .field("cache", &self.cache.as_ref().map(|_| "<LiftCache>"))
            .field("budget", &self.budget)
            .finish()
    }
}

impl Stng {
    /// Creates a pipeline with the default synthesis configuration.
    pub fn new() -> Stng {
        Stng::default()
    }

    /// Attaches a lifting-result cache; every subsequent
    /// [`Stng::lift_source`] consults it per kernel before synthesizing.
    pub fn with_cache(mut self, cache: Arc<dyn LiftCache>) -> Stng {
        self.cache = Some(cache);
        self
    }

    /// Attaches a resource budget governing every subsequent lift.
    pub fn with_budget(mut self, budget: Budget) -> Stng {
        self.budget = budget;
        self
    }

    /// Lifts every candidate kernel in a Fortran-subset source file, pinned
    /// against [`crate::memory::sweep`] throughout.
    ///
    /// # Errors
    ///
    /// Returns a parse error message when the source is malformed; failures
    /// of individual kernels are reported per kernel, not as errors.
    pub fn lift_source(&self, source: &str) -> Result<LiftReport, String> {
        let _pin = stng_intern::pin();
        let program = parse_program(source).map_err(|e| e.to_string())?;
        let mut report = LiftReport::default();
        for proc in &program.procedures {
            let classification = classify_loops(proc);
            report.skipped_loops += classification.skipped.len();
            for fragment in &classification.candidates {
                report.kernels.push(self.lift_fragment(proc, fragment));
            }
        }
        Ok(report)
    }

    fn lift_fragment(
        &self,
        proc: &stng_ir::ast::Procedure,
        fragment: &stng_ir::identify::CandidateFragment,
    ) -> KernelReport {
        let started = std::time::Instant::now();
        let mut kernel_span = span(&names::LIFT_KERNEL);
        if stng_obs::armed() {
            kernel_span.detail_sym(Symbol::intern(&fragment.name));
        }
        let lowering = span(&names::LIFT_LOWER);
        let lowered = lower_fragment(proc, fragment);
        drop(lowering);
        let kernel = match lowered {
            Ok(kernel) => kernel,
            Err(err) => {
                let reason = err.to_string();
                let outcome = KernelOutcome::Untranslated { reason };
                return KernelReport::unsynthesized(
                    &fragment.name,
                    None,
                    outcome,
                    started.elapsed(),
                );
            }
        };
        // Cache hook: a structural duplicate of an already-lifted kernel
        // skips the whole synthesize/verify stage. The canonical form is
        // computed once and shared by the lookup and the record.
        let canon = self.cache.as_ref().map(|_| {
            let _fp = span(&names::LIFT_FINGERPRINT);
            canonicalize(&kernel)
        });
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            let mut lookup_span = span(&names::CACHE_LOOKUP);
            let hit = cache.lookup(&kernel, canon, &fragment.name, &self.config);
            lookup_span.detail(if hit.is_some() {
                &names::HIT
            } else {
                &names::MISS
            });
            drop(lookup_span);
            if let Some(mut hit) = hit {
                hit.fingerprint = Some(canon.fingerprint_hex());
                hit.cached = true;
                return hit;
            }
        }
        let mut report = self.lift_lowered(&fragment.name, kernel, started);
        if let (Some(cache), Some(canon)) = (&self.cache, &canon) {
            // Budget-affected outcomes (degraded, timed out, crashed) say
            // nothing durable about the kernel, so they never enter the
            // cache — but `record` is still called: it is also how the
            // single-flight claim on this fingerprint is released.
            if let Some(kernel) = &report.kernel {
                cache.record(kernel, canon, &self.config, &report);
            }
            report.fingerprint = Some(canon.fingerprint_hex());
        }
        report
    }

    /// Synthesizes and verifies one already-lowered kernel (the stage the
    /// lifting cache short-circuits).
    fn lift_lowered(
        &self,
        fragment_name: &str,
        kernel: Kernel,
        started: std::time::Instant,
    ) -> KernelReport {
        // A fragment may contain several consecutive top-level loop nests;
        // the lifter handles the (dominant) single-nest case and reports the
        // rest as untranslated, mirroring §5.4's engineering limitations.
        if let Err(reason) = liftability_check(&kernel) {
            let outcome = KernelOutcome::Untranslated { reason };
            return KernelReport::unsynthesized(
                fragment_name,
                Some(kernel),
                outcome,
                started.elapsed(),
            );
        }
        let (result, failure_phase) =
            synthesize_governed_with_phases(&kernel, &self.config, &self.budget);
        match result {
            Ok(outcome) => {
                let lifted = match StencilSummary::from_postcondition(&kernel.name, &outcome.post) {
                    Ok(summary) => KernelOutcome::Translated {
                        post: outcome.post,
                        summary,
                        soundly_verified: outcome.soundly_verified,
                        cegis_iterations: outcome.cegis_iterations,
                        degraded: outcome.degraded,
                    },
                    Err(err) => KernelOutcome::Untranslated {
                        reason: format!("summary could not be translated to the DSL: {err}"),
                    },
                };
                KernelReport {
                    name: fragment_name.to_string(),
                    kernel: Some(kernel),
                    outcome: lifted,
                    synthesis_time: outcome.synthesis_time,
                    control_bits: outcome.control_bits,
                    postcond_nodes: outcome.postcond_nodes,
                    prover_attempts: outcome.prover_attempts,
                    peak_candidates: outcome.peak_candidates,
                    fingerprint: None,
                    cached: false,
                    phase: outcome.phase,
                }
            }
            Err(err) => {
                let outcome = match err {
                    SynthesisFailure::Timeout { reason, detail } => {
                        KernelOutcome::Timeout { reason, detail }
                    }
                    SynthesisFailure::Crashed { panic } => KernelOutcome::Crashed { panic },
                    other => KernelOutcome::Untranslated {
                        reason: other.to_string(),
                    },
                };
                KernelReport {
                    // Failed kernels still ran the bounded screen; report
                    // where their checking time went.
                    phase: failure_phase,
                    ..KernelReport::unsynthesized(
                        fragment_name,
                        Some(kernel),
                        outcome,
                        started.elapsed(),
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_pred::fixtures;

    #[test]
    fn running_example_lifts_end_to_end() {
        let report = Stng::new().lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
        assert_eq!(report.candidates(), 1);
        assert_eq!(report.translated(), 1);
        let kernel = &report.kernels[0];
        match &kernel.outcome {
            KernelOutcome::Translated {
                summary,
                soundly_verified,
                ..
            } => {
                assert!(*soundly_verified);
                assert_eq!(summary.funcs.len(), 1);
                assert!(summary.halide_cpp().contains("ImageParam b"));
            }
            other => panic!("expected translation, got {other:?}"),
        }
        assert!(kernel.postcond_nodes > 10);
        assert!(kernel.control_bits.total() > 0);
    }

    #[test]
    fn mixed_file_reports_untranslated_and_skipped_loops() {
        let src = r#"
procedure mixed(n, a, b, idx)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  real, dimension(0:n) :: idx
  real :: s
  integer :: i
  do i = 1, n
    a(i) = b(i-1) + b(i)
  enddo
  s = 0.0
  do i = 1, n
    s = s + 1.0
  enddo
  s = 1.0
  do i = n, 1, -1
    a(i) = b(i)
  enddo
end procedure
"#;
        let report = Stng::new().lift_source(src).unwrap();
        // Loop 1: translated. Loop 2: not even a candidate (no arrays).
        // Loop 3: candidate but decrementing, so untranslated.
        assert_eq!(report.candidates(), 2);
        assert_eq!(report.translated(), 1);
        assert_eq!(report.skipped_loops, 1);
        assert!(matches!(
            report.kernels[1].outcome,
            KernelOutcome::Untranslated { .. }
        ));
    }
}

//! The CEGIS driver: ties template generation, candidate enumeration,
//! bounded checking, and sound verification together (§3 of the paper).

use crate::control::ControlBits;
use crate::invariant::invariant_candidates;
use crate::postcond::PostcondSynthesizer;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use stng_intern::guard::{fault, Budget, DegradeReason};
use stng_intern::Symbol;
use stng_ir::interp::{run_kernel, ArrayData, State};
use stng_ir::ir::{Kernel, ParamKind};
use stng_ir::lower::liftability_check;
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_obs::metrics::MetricSet;
use stng_obs::{event, names, span};
use stng_pred::eval::eval_pred;
use stng_pred::lang::{Invariant, Postcondition};
use stng_pred::vcgen::{analyze_loop_nest, generate_vcs};
use stng_solve::bounded::CheckSession;
use stng_solve::{BoundedChecker, ProverSession, SmtLite};
use stng_sym::choose_small_bounds;

/// Why synthesis failed for a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisFailure {
    /// The kernel is outside the liftable subset (conditionals, decrementing
    /// loops, no output arrays, unsupported nest shape).
    NotLiftable(String),
    /// No postcondition in the restricted grammar matches the observations.
    NoPostcondition(String),
    /// A postcondition was found but it could not be validated even by
    /// bounded checking.
    NotValidated(String),
    /// The resource budget ran out before even the bounded-validation
    /// fallback could finish; nothing can be said about the kernel.
    Timeout {
        reason: DegradeReason,
        detail: String,
    },
    /// A candidate worker panicked; the panic was isolated to this kernel.
    Crashed { panic: String },
}

impl std::fmt::Display for SynthesisFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisFailure::NotLiftable(m) => write!(f, "not liftable: {m}"),
            SynthesisFailure::NoPostcondition(m) => write!(f, "no postcondition found: {m}"),
            SynthesisFailure::NotValidated(m) => write!(f, "candidate not validated: {m}"),
            SynthesisFailure::Timeout { reason, detail } => {
                write!(f, "timed out ({reason}): {detail}")
            }
            SynthesisFailure::Crashed { panic } => write!(f, "worker crashed: {panic}"),
        }
    }
}

impl std::error::Error for SynthesisFailure {}

/// Configuration of the whole synthesis pipeline.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Postcondition synthesis settings.
    pub postcond: PostcondSynthesizer,
    /// Bounded checker used inside the CEGIS loop.
    pub bounded: BoundedChecker,
    /// Sound verifier used on surviving candidates.
    pub prover: SmtLite,
    /// When `true`, a kernel whose invariants cannot be proven sound is
    /// rejected; when `false` (the default), it is accepted with
    /// `soundly_verified = false` after extended bounded validation, and the
    /// caller reports that distinction.
    pub require_sound_proof: bool,
    /// Grid sizes used for the extended bounded validation fallback.
    pub validation_sizes: Vec<i64>,
    /// Worker threads for CEGIS and the extended bounded validation. At 2
    /// or more, each candidate's bounded screen runs on a helper thread
    /// while the calling thread proves the same VCs; at 1 the screen runs
    /// first and a rejected candidate is never proven. Candidates are still
    /// tried one at a time in index order and a proof charges the kernel
    /// budget only after its screen passed, so the accepted candidate, the
    /// screening counters and attempt-governed outcomes do not depend on
    /// the thread count. The validation fallback runs its sizes on up to
    /// this many threads.
    pub parallelism: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            postcond: PostcondSynthesizer::default(),
            bounded: BoundedChecker::default(),
            prover: SmtLite {
                max_split_depth: 6,
                max_attempts: 4000,
            },
            require_sound_proof: false,
            validation_sizes: vec![3, 4, 6],
            parallelism: stng_intern::parallel::default_parallelism(),
        }
    }
}

/// Wall-clock breakdown of the checking phases of one synthesis run, plus
/// the capture-reuse counter the benchmarks assert on.
///
/// Durations are nanoseconds (exact integers, so reports survive cache
/// round trips bit-for-bit). `bounded_ns` and `prove_ns` each accumulate
/// across candidates, which are tried one after another; with
/// `SynthesisConfig::parallelism >= 2` a candidate's screen and proof
/// overlap, so `bounded_ns + prove_ns` can exceed the wall time of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Time spent capturing reachable states (once per CEGIS session).
    pub capture_ns: u64,
    /// Time spent scanning captured states against candidate VCs, plus the
    /// extended bounded-validation fallback when it runs.
    pub bounded_ns: u64,
    /// Time spent in the sound prover, including proofs cancelled because
    /// the overlapping screen rejected their candidate.
    pub prove_ns: u64,
    /// Number of (size, trial) state captures performed: the first screen
    /// captures every unit once, so this is exactly
    /// `grid_sizes × trials_per_size` however many candidates were screened
    /// (0 when none was) — the invariant the bench gate pins.
    pub captures: usize,
    /// Proof obligations answered without proof work: always 0, since the
    /// prover memoizes no obligations (kept for the report shape).
    pub oblig_hits: u64,
    /// Proof obligations the prover attempted.
    pub oblig_misses: u64,
    /// Feasibility queries short-circuited by a learned infeasibility core
    /// during this kernel's proving phase. The core store is global, so
    /// under cross-kernel parallelism this delta can include siblings' hits
    /// — a profiling signal, not an invariant (and, like all timing fields,
    /// excluded from canonical reports).
    pub core_hits: u64,
    /// Candidates screened by the bounded checker (one per
    /// `find_counterexample` call on the session).
    pub screened: u64,
    /// Screened candidates that survived every unit and went to the prover.
    pub survivors: u64,
    /// Batched SoA program sweeps executed (one per ≤64-state chunk per VC
    /// per unit actually scanned). Schedule-dependent when the bounded
    /// checker scans units on several threads — a profiling signal,
    /// excluded from canonical reports.
    pub batch_scans: u64,
}

impl PhaseTimings {
    /// Derives the façade from a per-kernel [`MetricSet`]. The metrics
    /// registry is the aggregation point; this struct is its stable report
    /// shape (codec, bench gates, and `--profile` consume it unchanged).
    pub fn from_metrics(set: &MetricSet) -> PhaseTimings {
        let ids = stng_obs::metrics::phase();
        PhaseTimings {
            capture_ns: set.get(ids.capture_ns),
            bounded_ns: set.get(ids.bounded_ns),
            prove_ns: set.get(ids.prove_ns),
            captures: set.get(ids.captures) as usize,
            oblig_hits: set.get(ids.oblig_hits),
            oblig_misses: set.get(ids.oblig_misses),
            core_hits: set.get(ids.core_hits),
            screened: set.get(ids.screened),
            survivors: set.get(ids.survivors),
            batch_scans: set.get(ids.batch_scans),
        }
    }

    /// Accumulates another kernel's (or run's) timings into this one — the
    /// one merge every aggregator (profile totals, bench suites, warm-run
    /// comparisons) shares instead of summing fields by hand.
    pub fn absorb(&mut self, other: &PhaseTimings) {
        self.capture_ns += other.capture_ns;
        self.bounded_ns += other.bounded_ns;
        self.prove_ns += other.prove_ns;
        self.captures += other.captures;
        self.oblig_hits += other.oblig_hits;
        self.oblig_misses += other.oblig_misses;
        self.core_hits += other.core_hits;
        self.screened += other.screened;
        self.survivors += other.survivors;
        self.batch_scans += other.batch_scans;
    }

    /// Capture time in milliseconds.
    pub fn capture_ms(&self) -> f64 {
        self.capture_ns as f64 / 1e6
    }

    /// Bounded-checking time in milliseconds.
    pub fn bounded_ms(&self) -> f64 {
        self.bounded_ns as f64 / 1e6
    }

    /// Proving time in milliseconds.
    pub fn prove_ms(&self) -> f64 {
        self.prove_ns as f64 / 1e6
    }

    /// Fraction of proof obligations answered without proof work (0 since
    /// the obligation memo was removed), or `None` when the prover never
    /// ran.
    pub fn oblig_hit_rate(&self) -> Option<f64> {
        let total = self.oblig_hits + self.oblig_misses;
        (total > 0).then(|| self.oblig_hits as f64 / total as f64)
    }
}

/// The result of lifting one kernel to a summary.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The synthesized postcondition (the lifted summary).
    pub post: Postcondition,
    /// The loop invariants proving it, when sound verification succeeded.
    pub invariants: Option<Vec<Invariant>>,
    /// Control-bit accounting (Table 1).
    pub control_bits: ControlBits,
    /// AST-node count of the postcondition (Table 1).
    pub postcond_nodes: usize,
    /// Number of CEGIS candidates tried, the accepted one included (on the
    /// validation fallback: every candidate tried before the loop ended).
    pub cegis_iterations: usize,
    /// Proof attempts spent by the sound verifier on the accepted candidate
    /// (0 when the bounded-validation fallback was used).
    pub prover_attempts: usize,
    /// Number of invariant candidates enumerated for this kernel (the peak
    /// size of the CEGIS candidate set).
    pub peak_candidates: usize,
    /// Whether the summary is backed by a full proof from the verifier.
    pub soundly_verified: bool,
    /// When the resource budget cut the sound-proof stage short and the
    /// summary was accepted through the bounded-validation fallback, the
    /// first limit that tripped. `None` for ungoverned (or ungoverned-
    /// equivalent) runs — including ordinary "prover answered Unknown"
    /// degradations, which are not budget-induced.
    pub degraded: Option<DegradeReason>,
    /// Wall-clock time spent synthesizing (Table 1, "Sketch Time").
    pub synthesis_time: Duration,
    /// Per-phase checking times and the capture-reuse counter.
    pub phase: PhaseTimings,
}

/// Synthesizes a verified summary for a kernel: the one CEGIS entry point.
///
/// Returns the phase timings of whatever checking ran beside the result —
/// including on the failure paths, where there is no [`SynthesisOutcome`]
/// to carry them (a kernel that screens every CEGIS candidate and then
/// fails validation still spent its capture and bounded-check time, and
/// per-kernel reports should say so). On success the tuple's timings are
/// identical to `outcome.phase` (both are set from the same measurement).
///
/// The [`Budget`] (pass [`Budget::unlimited`] for an ungoverned run) is
/// threaded cooperatively through all three engines — the candidate loop
/// (polled per candidate), the case-split prover (polled per proof
/// attempt, metered on a [candidate budget](Budget::candidate) that charges
/// the kernel only once the candidate's screen passed), and the bounded
/// checker (fuel per capture step / VC check, deadline at back-edges). The
/// degradation ladder on exhaustion:
///
/// 1. prover attempts run dry → the bounded-validation fallback still runs;
///    an accepted summary carries `soundly_verified = false` and
///    `degraded = Some(ProverAttempts)`;
/// 2. deadline/fuel/cancellation trip → [`SynthesisFailure::Timeout`];
/// 3. a candidate worker panics → the panic is caught, the remaining
///    candidates are skipped, and the kernel fails with
///    [`SynthesisFailure::Crashed`] — never the whole process.
pub fn synthesize_governed_with_phases(
    kernel: &Kernel,
    config: &SynthesisConfig,
    budget: &Budget,
) -> (Result<SynthesisOutcome, SynthesisFailure>, PhaseTimings) {
    let start = Instant::now();
    if let Err(reason) = budget.check_time() {
        event(
            &names::BUDGET_TIMEOUT,
            Some(Symbol::intern(&reason.to_string())),
            0,
        );
        return (
            Err(SynthesisFailure::Timeout {
                reason,
                detail: "budget exhausted before synthesis started".to_string(),
            }),
            PhaseTimings::default(),
        );
    }
    if let Err(reason) = liftability_check(kernel) {
        return (
            Err(SynthesisFailure::NotLiftable(reason)),
            PhaseTimings::default(),
        );
    }

    // Step 1: postcondition from inductive templates.
    let candidate = match config.postcond.synthesize(kernel) {
        Ok(candidate) => candidate,
        Err(reason) => {
            return (
                Err(SynthesisFailure::NoPostcondition(reason)),
                PhaseTimings::default(),
            )
        }
    };
    let mut control_bits = candidate.control_bits;
    let post = candidate.post;
    let postcond_nodes = post.node_count();
    // Candidates actually tried (screened, or cut short by a panic).
    let mut tried = 0usize;

    // Step 2: invariants + Hoare proof, when the nest shape is supported.
    let mut peak_candidates = 0usize;
    let mut phase = PhaseTimings::default();
    let nest = analyze_loop_nest(kernel);
    if let Ok(nest) = nest {
        // Invariants are enumerated over the postcondition's first symbolic
        // run, which used exactly the bounds they need (`sizes.0`).
        if let Ok(inv_candidates) = invariant_candidates(kernel, &nest, &post, &candidate.run) {
            control_bits.merge(&inv_candidates.control_bits);
            peak_candidates = inv_candidates.candidates.len();
            // One session for the whole candidate set: reachable states
            // depend only on the kernel and the (size, trial) seeds, so
            // they are captured once and scanned per candidate; only
            // the candidate-dependent VCs are recompiled between
            // iterations. Capture errors reject every candidate, as
            // they would have per candidate before.
            let session =
                CheckSession::with_budget(config.bounded.clone(), kernel.clone(), budget.clone());
            let prover_session = ProverSession::new();
            let core_hits_before = stng_solve::lin::core_hit_count();
            let mut prove_ns = 0u64;
            let mut panicked = None;
            let mut accepted = None;
            // Candidates are tried one at a time in index order, so the
            // lowest-index candidate that proves sound wins and no candidate
            // past it is screened. Each candidate's bounded screen runs on a
            // helper thread while this thread proves the same VCs; the
            // candidate is accepted only if both pass. At one thread the
            // screen runs first and a rejected candidate is never proven.
            for (k, invariants) in inv_candidates.candidates.iter().enumerate() {
                // A tripped budget skips the remaining candidates instead of
                // screening them.
                if budget.exhausted().is_some() {
                    break;
                }
                tried += 1;
                let mut candidate_span = span(&names::CEGIS_CANDIDATE);
                candidate_span.arg(k as u64);
                let checked = catch_unwind(AssertUnwindSafe(|| {
                    if fault::panic_candidate(&kernel.name) {
                        event(
                            &names::FAULT_INJECTED,
                            Some(Symbol::intern("panic_candidate")),
                            k as u64,
                        );
                        panic!("injected candidate panic");
                    }
                    let vcs = generate_vcs(&nest, &kernel.assumptions, invariants, &post);
                    // The proof meters attempts on a candidate budget and
                    // charges the kernel budget only once the screen has
                    // passed, so attempt-governed outcomes do not depend on
                    // the thread count.
                    let proof_budget = budget.candidate();
                    let screen = || {
                        // Fast screen: bounded checking on reachable states.
                        // It always runs to completion; a rejection (or a
                        // panic) cancels the proof.
                        let screened = catch_unwind(AssertUnwindSafe(|| {
                            matches!(session.find_counterexample(&vcs), Ok(None))
                        }));
                        if !matches!(screened, Ok(true)) {
                            proof_budget.cancel();
                        }
                        screened.unwrap_or_else(|payload| resume_unwind(payload))
                    };
                    let prove = || {
                        // Sound check.
                        if proof_budget.budget().exhausted().is_some() {
                            return None;
                        }
                        if let Some(stall) = fault::prover_stall(&kernel.name) {
                            event(
                                &names::FAULT_INJECTED,
                                Some(Symbol::intern("prover_stall")),
                                k as u64,
                            );
                            std::thread::sleep(stall);
                        }
                        let proving = Instant::now();
                        let prove_span = span(&names::PROVE_SESSION);
                        let (verdict, attempts) = config.prover.verify_all_session(
                            &vcs,
                            proof_budget.budget(),
                            &prover_session,
                        );
                        drop(prove_span);
                        Some((verdict.is_valid(), attempts, proving.elapsed()))
                    };
                    let (passed, proved) =
                        stng_intern::parallel::join(config.parallelism, screen, prove);
                    let (valid, attempts, proving) = proved?;
                    prove_ns += proving.as_nanos() as u64;
                    if !passed {
                        return None;
                    }
                    let charged = proof_budget.commit();
                    (valid && charged.is_ok()).then_some(attempts)
                }));
                match checked {
                    Ok(Some(attempts)) => {
                        accepted = Some((k, attempts));
                        break;
                    }
                    Ok(None) => {}
                    // A caught panic skips the remaining candidates and
                    // fails the kernel as Crashed.
                    Err(payload) => {
                        event(&names::WORKER_CRASHED, None, k as u64);
                        panicked = Some(panic_message(payload.as_ref()));
                        break;
                    }
                }
            }
            // Per-kernel aggregation goes through the metrics registry:
            // fill a `MetricSet` from the session counters, derive the
            // `PhaseTimings` façade from it, and flush it into the
            // process-wide cells `--metrics-json` exports.
            let ids = stng_obs::metrics::phase();
            let kernel_metrics = MetricSet::new();
            kernel_metrics.add(ids.capture_ns, session.capture_ns());
            kernel_metrics.add(ids.bounded_ns, session.check_ns());
            kernel_metrics.add(ids.captures, session.capture_count() as u64);
            kernel_metrics.add(ids.screened, session.screened());
            kernel_metrics.add(ids.survivors, session.survivors());
            kernel_metrics.add(ids.batch_scans, session.batch_scans());
            kernel_metrics.add(ids.prove_ns, prove_ns);
            kernel_metrics.add(ids.oblig_hits, prover_session.hits());
            kernel_metrics.add(ids.oblig_misses, prover_session.misses());
            kernel_metrics.add(
                ids.core_hits,
                stng_solve::lin::core_hit_count().saturating_sub(core_hits_before),
            );
            phase = PhaseTimings::from_metrics(&kernel_metrics);
            kernel_metrics.flush();
            if let Some((k, attempts)) = accepted {
                return (
                    Ok(SynthesisOutcome {
                        post,
                        invariants: Some(inv_candidates.candidates[k].clone()),
                        control_bits,
                        postcond_nodes,
                        cegis_iterations: k + 1,
                        prover_attempts: attempts,
                        peak_candidates,
                        soundly_verified: true,
                        degraded: None,
                        synthesis_time: start.elapsed(),
                        phase,
                    }),
                    phase,
                );
            }
            if let Some(panic) = panicked {
                return (Err(SynthesisFailure::Crashed { panic }), phase);
            }
        }
    }

    if config.require_sound_proof {
        return (
            Err(SynthesisFailure::NotValidated(
                "no invariant candidate could be proven sound".to_string(),
            )),
            phase,
        );
    }

    // Whatever limit cut the sound-proof stage short is what the fallback
    // result gets stamped with; an untripped budget means the prover just
    // answered Unknown, which is not a budget degradation.
    let degraded = budget.exhausted();
    if let Some(reason) = degraded {
        event(
            &names::BUDGET_DEGRADED,
            Some(Symbol::intern(&reason.to_string())),
            0,
        );
    }

    // Step 3 (fallback): extended bounded validation of the postcondition
    // against full concrete executions. The result is flagged as not soundly
    // verified; callers surface that distinction (see DESIGN.md §6). A
    // budget whose deadline or fuel is already gone cannot validate anything
    // — that is the Timeout rung of the ladder.
    let validating = Instant::now();
    let validate_span = span(&names::CEGIS_VALIDATE);
    let validated = validate_post_bounded(
        kernel,
        &post,
        &config.validation_sizes,
        config.parallelism,
        budget,
    );
    drop(validate_span);
    let validate_ns = validating.elapsed().as_nanos() as u64;
    phase.bounded_ns += validate_ns;
    stng_obs::metrics::add_global(stng_obs::metrics::phase().bounded_ns, validate_ns);
    if let Err(reason) = validated {
        if let Some(tripped) = budget.exhausted().filter(|r| r.halts_validation()) {
            event(
                &names::BUDGET_TIMEOUT,
                Some(Symbol::intern(&tripped.to_string())),
                0,
            );
            return (
                Err(SynthesisFailure::Timeout {
                    reason: tripped,
                    detail: reason,
                }),
                phase,
            );
        }
        return (Err(SynthesisFailure::NotValidated(reason)), phase);
    }
    (
        Ok(SynthesisOutcome {
            post,
            invariants: None,
            control_bits,
            postcond_nodes,
            cegis_iterations: tried,
            prover_attempts: 0,
            peak_candidates,
            soundly_verified: false,
            degraded,
            synthesis_time: start.elapsed(),
            phase,
        }),
        phase,
    )
}

/// Renders a caught panic payload as a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Validates a postcondition by running the kernel concretely (modular data
/// domain) at several sizes and evaluating the predicate on the final state.
fn validate_post_bounded(
    kernel: &Kernel,
    post: &Postcondition,
    sizes: &[i64],
    parallelism: usize,
    budget: &Budget,
) -> Result<(), String> {
    let indexed: Vec<(usize, i64)> = sizes.iter().copied().enumerate().collect();
    let results = stng_intern::parallel::map(&indexed, parallelism, |&(trial, size)| {
        // One deadline/fuel poll per validation unit; the concrete runs
        // themselves are bounded by the interpreter's own fuel.
        if let Err(reason) = budget.check_time() {
            return Err(format!("validation interrupted: {reason} exhausted"));
        }
        if budget.consume_check_fuel(1).is_err() {
            return Err("validation interrupted: check-fuel exhausted".to_string());
        }
        validate_post_at_size(kernel, post, trial, size)
    });
    results.into_iter().collect()
}

/// One concrete validation execution at a given grid size.
fn validate_post_at_size(
    kernel: &Kernel,
    post: &Postcondition,
    trial: usize,
    size: i64,
) -> Result<(), String> {
    let bounds = choose_small_bounds(kernel, size);
    let mut state: State<ModInt> = State::new();
    for (name, value) in &bounds {
        state.set_int(name.clone(), *value);
    }
    for (k, name) in kernel.real_params().into_iter().enumerate() {
        state.set_real(name, ModInt::new((trial as i64 + k as i64 + 2) % MOD_FIELD));
    }
    for param in &kernel.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut concrete = Vec::new();
            for (lo, hi) in dims {
                let lo = stng_ir::interp::eval_int_expr(lo, &state).map_err(|e| e.to_string())?;
                let hi = stng_ir::interp::eval_int_expr(hi, &state).map_err(|e| e.to_string())?;
                concrete.push((lo, hi));
            }
            let seed = trial as i64;
            let array = ArrayData::from_fn(concrete, |idx| {
                ModInt::new(
                    idx.iter()
                        .enumerate()
                        .map(|(d, v)| (d as i64 + 2) * v)
                        .sum::<i64>()
                        + seed,
                )
            });
            state.set_array(param.name.clone(), array);
        }
    }
    run_kernel(kernel, &mut state).map_err(|e| e.to_string())?;
    if !eval_pred(&post.to_pred(), &mut state).map_err(|e| e.to_string())? {
        return Err(format!(
            "postcondition fails on a concrete execution at size {size}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_ir::lower::kernel_from_source;
    use stng_pred::fixtures;

    /// Ungoverned synthesis with the default configuration.
    fn synthesize(kernel: &Kernel) -> Result<SynthesisOutcome, SynthesisFailure> {
        synthesize_governed_with_phases(kernel, &SynthesisConfig::default(), &Budget::unlimited()).0
    }

    #[test]
    fn running_example_is_soundly_lifted() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let outcome = synthesize(&kernel).unwrap();
        assert!(outcome.soundly_verified);
        assert!(outcome.invariants.is_some());
        assert!(outcome.postcond_nodes > 10);
        assert!(outcome.control_bits.total() > 0);
        let text = outcome.post.to_string();
        assert!(text.contains("b[(v0 - 1), v1]"));
    }

    #[test]
    fn strided_kernel_is_soundly_lifted() {
        // A step-2 loop: the §6.5 machinery end-to-end. The summary must
        // quantify over the strided domain and carry a full Hoare proof —
        // initiation/preservation/exit over `i = lo + 2k` with the
        // divisibility fact discharged by the stride-aware prover.
        let src = r#"
procedure p(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n-1, 2
    a(i) = b(i-1) + b(i+1)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let outcome = synthesize(&kernel).unwrap();
        assert!(
            outcome.soundly_verified,
            "strided kernel should get a full proof"
        );
        assert!(outcome.invariants.is_some());
        let text = outcome.post.to_string();
        assert!(text.contains("step 2"), "post: {text}");
    }

    #[test]
    fn strided_2d_kernel_is_soundly_lifted() {
        // Stride in one dimension of a 2D nest (a red-black-style half
        // sweep over rows).
        let src = r#"
procedure p(n, m, a, b)
  real, dimension(0:n, 0:m) :: a
  real, dimension(0:n, 0:m) :: b
  integer :: i
  integer :: j
  do j = 1, m, 2
    do i = 1, n
      a(i, j) = b(i-1, j) + b(i, j-1)
    enddo
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let outcome = synthesize(&kernel).unwrap();
        assert!(
            outcome.soundly_verified,
            "2D strided kernel should get a full proof"
        );
        let text = outcome.post.to_string();
        assert!(text.contains("step 2"), "post: {text}");
    }

    #[test]
    fn prover_attempt_budget_degrades_to_bounded_validation() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        // One prover attempt is nowhere near enough for the Hoare proof; the
        // kernel must still be accepted, through the validation fallback,
        // with the degradation recorded.
        let budget = Budget::limited(None, Some(1), None);
        let (result, _) =
            synthesize_governed_with_phases(&kernel, &SynthesisConfig::default(), &budget);
        let outcome = result.unwrap();
        assert!(!outcome.soundly_verified);
        assert_eq!(outcome.degraded, Some(DegradeReason::ProverAttempts));
        assert!(outcome.invariants.is_none());
        assert_eq!(budget.exhausted(), Some(DegradeReason::ProverAttempts));
    }

    #[test]
    fn memo_miss_charging_is_deterministic_across_runs() {
        // Counter-only budget charging must be deterministic: the same
        // kernel synthesized twice from fresh, equal attempt budgets
        // (single-threaded) must agree on outcome, degradation, attempt
        // count, obligations attempted, and exhaustion — even though the
        // second run sees warm global FM memos and learned cores (those
        // accelerate queries; they must not change verdicts or charging).
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let config = SynthesisConfig {
            parallelism: 1,
            bounded: BoundedChecker {
                parallelism: 1,
                ..BoundedChecker::default()
            },
            ..SynthesisConfig::default()
        };
        for attempts in [Some(2), None] {
            let run = || {
                let budget = Budget::limited(None, attempts, None);
                let (result, phase) = synthesize_governed_with_phases(&kernel, &config, &budget);
                let outcome = result.unwrap();
                (
                    outcome.soundly_verified,
                    outcome.degraded,
                    outcome.prover_attempts,
                    budget.exhausted(),
                    phase.oblig_misses,
                )
            };
            let first = run();
            let second = run();
            assert_eq!(first, second, "attempt budget {attempts:?}");
            match attempts {
                // Two attempts cannot finish the Hoare proof: the kernel
                // must land on the degradation ladder, identically.
                Some(_) => assert_eq!(first.1, Some(DegradeReason::ProverAttempts)),
                // Ungoverned: soundly verified with no degradation.
                None => {
                    assert!(first.0);
                    assert_eq!(first.1, None);
                }
            }
        }
    }

    #[test]
    fn exhausted_fuel_times_out_instead_of_validating() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        // Ten fuel units cannot even capture one bounded-check state, and
        // fuel exhaustion also halts the validation fallback: the ladder
        // bottoms out at Timeout, not at a silent bogus acceptance.
        let budget = Budget::limited(None, None, Some(10));
        let (result, _) =
            synthesize_governed_with_phases(&kernel, &SynthesisConfig::default(), &budget);
        match result {
            Err(SynthesisFailure::Timeout { reason, .. }) => {
                assert_eq!(reason, DegradeReason::CheckFuel);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn dead_deadline_times_out_before_synthesis() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let budget = Budget::limited(Some(Duration::from_nanos(0)), None, None);
        std::thread::sleep(Duration::from_millis(1));
        let (result, _) =
            synthesize_governed_with_phases(&kernel, &SynthesisConfig::default(), &budget);
        assert!(matches!(
            result,
            Err(SynthesisFailure::Timeout {
                reason: DegradeReason::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn candidates_are_screened_in_order_without_speculation() {
        // heat27 enumerates several invariant candidates and candidate 0
        // proves sound. With `parallelism: 2` the screen must still stop at
        // the winner: every screened candidate is a CEGIS iteration, and only
        // the winner survives the bounded screen.
        let heat27 = stng_corpus::all_kernels()
            .into_iter()
            .find(|k| k.name == "heat27")
            .expect("heat27 is in the corpus");
        let kernel = heat27.kernel().unwrap();
        let config = SynthesisConfig {
            parallelism: 2,
            ..SynthesisConfig::default()
        };
        let (result, phase) =
            synthesize_governed_with_phases(&kernel, &config, &Budget::unlimited());
        let outcome = result.unwrap();
        assert!(outcome.soundly_verified);
        assert!(outcome.peak_candidates > 1, "{}", outcome.peak_candidates);
        assert_eq!(phase.screened, outcome.cegis_iterations as u64);
        assert_eq!(phase.survivors, 1);
    }

    #[test]
    fn validation_fallback_counts_only_the_candidates_tried() {
        // One prover attempt cannot prove heat27's first candidate, and the
        // tripped budget ends the loop there: the fallback must report the
        // one candidate tried, not every candidate enumerated.
        let kernel = stng_corpus::all_kernels()
            .into_iter()
            .find(|k| k.name == "heat27")
            .expect("heat27 is in the corpus")
            .kernel()
            .unwrap();
        let budget = Budget::limited(None, Some(1), None);
        let (result, phase) =
            synthesize_governed_with_phases(&kernel, &SynthesisConfig::default(), &budget);
        let outcome = result.unwrap();
        assert!(outcome.peak_candidates > 1, "{}", outcome.peak_candidates);
        assert_eq!(outcome.degraded, Some(DegradeReason::ProverAttempts));
        assert!(!outcome.soundly_verified);
        assert_eq!(outcome.cegis_iterations, 1);
        assert_eq!(phase.screened, 1);
    }

    /// A kernel whose output lags its loop counter: iteration `i` writes
    /// `a(i-1)`, so every invariant candidate claims a region that is not
    /// written yet and the bounded screen rejects them all.
    const LAGGING: &str = r#"
procedure lag(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n
    a(i-1) = b(i)
  enddo
end procedure
"#;

    #[test]
    fn screen_rejected_candidates_charge_no_prover_attempts() {
        let kernel = kernel_from_source(LAGGING, 0).unwrap();
        let run = |threads: usize, attempts: Option<u64>| {
            let config = SynthesisConfig {
                parallelism: threads,
                ..SynthesisConfig::default()
            };
            let budget = Budget::limited(None, attempts, None);
            let (result, phase) = synthesize_governed_with_phases(&kernel, &config, &budget);
            let outcome = result.unwrap();
            assert_eq!(phase.survivors, 0, "every candidate must be rejected");
            (
                outcome.post.to_string(),
                outcome.soundly_verified,
                outcome.degraded,
                outcome.cegis_iterations,
                phase.screened,
                budget.exhausted(),
            )
        };
        // Zero attempts: any attempt a rejected candidate's proof makes
        // would trip the kernel budget if it were charged.
        for attempts in [Some(0), Some(1), None] {
            let serial = run(1, attempts);
            assert_eq!(serial, run(2, attempts), "attempt budget {attempts:?}");
            assert!(!serial.1);
            assert_eq!(serial.2, None, "a rejected candidate degraded the kernel");
            assert_eq!(serial.3 as u64, serial.4);
            assert_eq!(serial.5, None, "a rejected candidate charged the budget");
        }
    }

    /// With two CEGIS threads the bounded screen runs on a helper thread
    /// beside the candidate's proof; a panic inside its capture must still
    /// reach the candidate's `catch_unwind` with its own message. The kernel
    /// name is unique because the fault registry is process-global.
    #[test]
    fn capture_panic_on_the_screen_helper_thread_is_crashed() {
        use stng_intern::guard::fault::{self, FaultPlan};
        let mut kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        kernel.name = "capture_panic_helper_probe".into();
        let config = SynthesisConfig {
            parallelism: 2,
            ..SynthesisConfig::default()
        };
        fault::arm(FaultPlan {
            capture_panic_kernels: vec![kernel.name.clone()],
            ..FaultPlan::default()
        });
        let (result, _) = synthesize_governed_with_phases(&kernel, &config, &Budget::unlimited());
        let injected = fault::injected();
        fault::disarm();
        match result {
            Err(SynthesisFailure::Crashed { panic }) => assert_eq!(
                panic,
                "fault-inject: capture panic in 'capture_panic_helper_probe'"
            ),
            other => panic!("expected Crashed, got {other:?}"),
        }
        assert_eq!(injected.capture_panics, 1);
    }

    #[test]
    fn ungoverned_run_reports_no_degradation() {
        let kernel = kernel_from_source(fixtures::RUNNING_EXAMPLE, 0).unwrap();
        let outcome = synthesize(&kernel).unwrap();
        assert_eq!(outcome.degraded, None);
    }

    #[test]
    fn conditional_kernel_is_rejected_as_not_liftable() {
        let src = r#"
procedure k(n, a, b)
  real, dimension(0:n) :: a
  real, dimension(0:n) :: b
  integer :: i
  do i = 1, n
    if (b(i) > 0.0) then
      a(i) = b(i)
    endif
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(matches!(
            synthesize(&kernel),
            Err(SynthesisFailure::NotLiftable(_))
        ));
    }

    #[test]
    fn reduction_is_rejected_as_non_stencil() {
        let src = r#"
procedure k(n, b)
  real, dimension(0:n) :: b
  real :: s
  integer :: i
  do i = 1, n
    s = s + b(i)
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        assert!(matches!(
            synthesize(&kernel),
            Err(SynthesisFailure::NotLiftable(_))
        ));
    }

    #[test]
    fn three_dimensional_seven_point_stencil_lifts() {
        let src = r#"
procedure heat(n, a, b)
  real, dimension(0:n, 0:n, 0:n) :: a
  real, dimension(0:n, 0:n, 0:n) :: b
  integer :: i
  integer :: j
  integer :: k
  do k = 1, n-1
    do j = 1, n-1
      do i = 1, n-1
        a(i, j, k) = b(i-1, j, k) + b(i+1, j, k) + b(i, j-1, k) + b(i, j+1, k) + b(i, j, k-1) + b(i, j, k+1) - 6.0 * b(i, j, k)
      enddo
    enddo
  enddo
end procedure
"#;
        let kernel = kernel_from_source(src, 0).unwrap();
        let outcome = synthesize(&kernel).unwrap();
        assert!(outcome.post.to_string().contains("b[(v0 - 1), v1, v2]"));
        assert!(outcome.postcond_nodes > 30);
    }
}

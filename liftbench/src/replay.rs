//! The traced replay: re-drives one lift stage by stage through each crate's
//! public functions, in the order `Stng::lift_source` calls them, and times
//! every call as a span. Spans are recorded here, around the calls, so the
//! program under test runs exactly as it does untraced.
//!
//! The replay follows the pipeline at one thread (`SynthesisConfig` with
//! every `parallelism` set to 1): CEGIS candidates are screened in index
//! order and the first one that proves sound wins, which is what the
//! pipeline computes at any thread count. Each replayed kernel is compared
//! with the pipeline's own report (see `workload::check_fidelity`), because
//! attributing time to a different program than the one measured would be
//! worthless.

use std::collections::HashMap;
use std::time::Instant;
use stng::pipeline::{KernelOutcome, KernelReport, LiftCache};
use stng::translate::StencilSummary;
use stng_intern::guard::Budget;
use stng_ir::interp::{eval_int_expr, run_kernel, ArrayData, State};
use stng_ir::ir::{Kernel, ParamKind};
use stng_ir::value::{ModInt, MOD_FIELD};
use stng_pred::lang::Postcondition;
use stng_solve::bounded::CheckSession;
use stng_solve::{BoundedChecker, ProverSession};
use stng_synth::cegis::{PhaseTimings, SynthesisConfig, SynthesisFailure};
use stng_synth::ControlBits;

/// Every span the replay records, with the per-layer metric its self time
/// is summed into. The layer is the metric's prefix (the crate); `replay`
/// spans are the benchmark's own bookkeeping around the calls.
pub const SPANS: &[(&str, &str)] = &[
    ("lift_source", "replay.glue_ms"),
    ("parse_program", "ir.parse_ms"),
    ("classify_loops", "ir.lower_ms"),
    ("lower_fragment", "ir.lower_ms"),
    ("liftability_check", "ir.lower_ms"),
    ("canonicalize", "ir.canon_ms"),
    ("LiftCache::lookup", "service.lookup_ms"),
    ("PostcondSynthesizer::synthesize", "synth.postcond_ms"),
    ("analyze_loop_nest", "pred.vcgen_ms"),
    ("symbolic_execute", "sym.exec_ms"),
    ("invariant_candidates", "synth.invariant_ms"),
    ("CheckSession::new", "solve.bounded_ms"),
    ("candidate", "replay.glue_ms"),
    ("generate_vcs", "pred.vcgen_ms"),
    ("CheckSession::find_counterexample", "solve.bounded_ms"),
    ("SmtLite::verify_all_session", "solve.prove_ms"),
    ("validate_post_bounded", "synth.validate_ms"),
    ("StencilSummary::from_postcondition", "stng.translate_ms"),
    ("LiftCache::record", "service.record_ms"),
    ("generate", "replay.glue_ms"),
    ("codegen", "halide.codegen_ms"),
    ("realize", "halide.realize_ms"),
    ("memory::sweep", "memory.sweep_ms"),
];

/// Layers whose self time makes up a lift (everything but code generation,
/// the arena sweep and the replay's own bookkeeping).
pub const LIFT_LAYERS: &[&str] = &["ir", "sym", "pred", "synth", "solve", "stng", "service"];

/// The layer (crate) a span belongs to.
pub fn layer_of(span: &str) -> &'static str {
    let metric = SPANS
        .iter()
        .find(|(name, _)| *name == span)
        .map_or("replay.glue_ms", |(_, metric)| *metric);
    metric.split('.').next().unwrap_or("replay")
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for the single-threaded replay.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) {
        debug_assert!(
            SPANS.iter().any(|(n, _)| *n == name),
            "unlisted span {name}"
        );
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        let id = self.stack.pop().expect("close matches an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time (duration minus the time covered by child spans) summed per
    /// span name, in milliseconds.
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = HashMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0.0) +=
                (span.end_ns - span.start_ns).saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Total duration of the root spans named `name`, in milliseconds.
    pub fn root_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// The spans as JSON objects `{name, layer, start_us, end_us, parent}`.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{}}}",
                    s.name,
                    layer_of(s.name),
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Work counts of a replay, read from the sessions each layer owns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub candidates: u64,
    pub vcs: u64,
    pub prover_attempts: u64,
    pub phase: PhaseTimings,
}

/// Replays `Stng::lift_source` on one source. `cache` plays the role of
/// `Stng::cache`. Returns one report per candidate fragment, in source
/// order, shaped exactly like the pipeline's.
pub fn lift_source(
    tracer: &mut Tracer,
    source: &str,
    config: &SynthesisConfig,
    cache: Option<&dyn LiftCache>,
    counts: &mut Counts,
) -> Result<Vec<KernelReport>, String> {
    assert_eq!(
        config.parallelism, 1,
        "the replay follows the serial pipeline"
    );
    tracer.open("lift_source");
    let result = lift_procedures(tracer, source, config, cache, counts);
    tracer.close();
    result
}

fn lift_procedures(
    tracer: &mut Tracer,
    source: &str,
    config: &SynthesisConfig,
    cache: Option<&dyn LiftCache>,
    counts: &mut Counts,
) -> Result<Vec<KernelReport>, String> {
    let program = tracer
        .time("parse_program", || stng_ir::parser::parse_program(source))
        .map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for procedure in &program.procedures {
        let classification = tracer.time("classify_loops", || {
            stng_ir::identify::classify_loops(procedure)
        });
        for fragment in &classification.candidates {
            let started = Instant::now();
            let lowered = tracer.time("lower_fragment", || {
                stng_ir::lower::lower_fragment(procedure, fragment)
            });
            let kernel = match lowered {
                Ok(kernel) => kernel,
                Err(err) => {
                    let outcome = KernelOutcome::Untranslated {
                        reason: err.to_string(),
                    };
                    reports.push(report(&fragment.name, None, outcome, started));
                    continue;
                }
            };
            let canon = cache
                .map(|_| tracer.time("canonicalize", || stng_ir::canon::canonicalize(&kernel)));
            if let (Some(cache), Some(canon)) = (cache, &canon) {
                let hit = tracer.time("LiftCache::lookup", || {
                    cache.lookup(&kernel, canon, &fragment.name, config)
                });
                if let Some(mut hit) = hit {
                    hit.fingerprint = Some(canon.fingerprint_hex());
                    hit.cached = true;
                    reports.push(hit);
                    continue;
                }
            }
            let mut lifted = lift_lowered(tracer, &fragment.name, kernel, config, counts);
            if let (Some(cache), Some(canon)) = (cache, &canon) {
                if let Some(kernel) = &lifted.kernel {
                    tracer.time("LiftCache::record", || {
                        cache.record(kernel, canon, config, &lifted)
                    });
                }
                lifted.fingerprint = Some(canon.fingerprint_hex());
            }
            reports.push(lifted);
        }
    }
    Ok(reports)
}

fn report(
    name: &str,
    kernel: Option<Kernel>,
    outcome: KernelOutcome,
    started: Instant,
) -> KernelReport {
    KernelReport {
        name: name.to_string(),
        kernel,
        outcome,
        synthesis_time: started.elapsed(),
        control_bits: ControlBits::default(),
        postcond_nodes: 0,
        prover_attempts: 0,
        peak_candidates: 0,
        fingerprint: None,
        cached: false,
        phase: PhaseTimings::default(),
    }
}

/// The synthesize → verify → translate stage (`Stng::lift_lowered` and
/// `synthesize_governed_with_phases` with an unlimited budget).
fn lift_lowered(
    tracer: &mut Tracer,
    name: &str,
    kernel: Kernel,
    config: &SynthesisConfig,
    counts: &mut Counts,
) -> KernelReport {
    let started = Instant::now();
    if let Err(reason) = tracer.time("liftability_check", || {
        stng_ir::lower::liftability_check(&kernel)
    }) {
        return report(
            name,
            Some(kernel),
            KernelOutcome::Untranslated { reason },
            started,
        );
    }
    let candidate = match tracer.time("PostcondSynthesizer::synthesize", || {
        config.postcond.synthesize(&kernel)
    }) {
        Ok(candidate) => candidate,
        Err(reason) => {
            let reason = SynthesisFailure::NoPostcondition(reason).to_string();
            return report(
                name,
                Some(kernel),
                KernelOutcome::Untranslated { reason },
                started,
            );
        }
    };
    let mut control_bits = candidate.control_bits;
    let post = candidate.post;
    let mut peak_candidates = 0;
    let mut iterations = 0;
    let mut phase = PhaseTimings::default();
    let mut accepted = None;

    let nest = tracer.time("analyze_loop_nest", || {
        stng_pred::vcgen::analyze_loop_nest(&kernel)
    });
    let run = nest.as_ref().ok().map(|_| {
        tracer.time("symbolic_execute", || {
            let bounds = stng_sym::choose_small_bounds(&kernel, config.postcond.sizes.0);
            stng_sym::symbolic_execute(&kernel, &bounds)
        })
    });
    if let (Ok(nest), Some(Ok(run))) = (&nest, &run) {
        let invariants = tracer.time("invariant_candidates", || {
            stng_synth::invariant::invariant_candidates(&kernel, nest, &post, run)
        });
        if let Ok(invariants) = invariants {
            control_bits.merge(&invariants.control_bits);
            peak_candidates = invariants.candidates.len();
            let bounded = BoundedChecker {
                parallelism: config.bounded.parallelism.max(1),
                ..config.bounded.clone()
            };
            let session = tracer.time("CheckSession::new", || {
                CheckSession::new(bounded, kernel.clone())
            });
            let prover = ProverSession::new();
            let core_hits_before = stng_solve::lin::core_hit_count();
            let mut prove_ns = 0u64;
            for (k, set) in invariants.candidates.iter().enumerate() {
                tracer.open("candidate");
                let vcs = tracer.time("generate_vcs", || {
                    stng_pred::vcgen::generate_vcs(nest, &kernel.assumptions, set, &post)
                });
                counts.vcs += vcs.len() as u64;
                let screen = tracer.time("CheckSession::find_counterexample", || {
                    session.find_counterexample(&vcs)
                });
                if matches!(screen, Ok(None)) {
                    let proving = Instant::now();
                    let (verdict, attempts) = tracer.time("SmtLite::verify_all_session", || {
                        config
                            .prover
                            .verify_all_session(&vcs, &Budget::unlimited(), &prover)
                    });
                    prove_ns += proving.elapsed().as_nanos() as u64;
                    counts.prover_attempts += attempts as u64;
                    if verdict.is_valid() {
                        accepted = Some((k, attempts));
                    }
                }
                tracer.close();
                if accepted.is_some() {
                    break;
                }
            }
            phase = PhaseTimings {
                capture_ns: session.capture_ns(),
                bounded_ns: session.check_ns(),
                prove_ns,
                captures: session.capture_count(),
                oblig_hits: prover.hits(),
                oblig_misses: prover.misses(),
                core_hits: stng_solve::lin::core_hit_count().saturating_sub(core_hits_before),
                screened: session.screened(),
                survivors: session.survivors(),
                batch_scans: session.batch_scans(),
            };
            iterations = peak_candidates;
        }
    }
    counts.candidates += peak_candidates as u64;
    counts.phase.absorb(&phase);

    let (soundly_verified, cegis_iterations, prover_attempts) = match accepted {
        Some((k, attempts)) => (true, k + 1, attempts),
        None => {
            if config.require_sound_proof {
                let reason = SynthesisFailure::NotValidated(
                    "no invariant candidate could be proven sound".to_string(),
                )
                .to_string();
                return report(
                    name,
                    Some(kernel),
                    KernelOutcome::Untranslated { reason },
                    started,
                );
            }
            let validated = tracer.time("validate_post_bounded", || {
                validate_post_bounded(&kernel, &post, &config.validation_sizes)
            });
            if let Err(reason) = validated {
                let reason = SynthesisFailure::NotValidated(reason).to_string();
                return report(
                    name,
                    Some(kernel),
                    KernelOutcome::Untranslated { reason },
                    started,
                );
            }
            (false, iterations, 0)
        }
    };
    let summary = tracer.time("StencilSummary::from_postcondition", || {
        StencilSummary::from_postcondition(&kernel.name, &post)
    });
    let postcond_nodes = post.node_count();
    let outcome = match summary {
        Ok(summary) => KernelOutcome::Translated {
            post,
            summary,
            soundly_verified,
            cegis_iterations,
            degraded: None,
        },
        Err(err) => KernelOutcome::Untranslated {
            reason: format!("summary could not be translated to the DSL: {err}"),
        },
    };
    KernelReport {
        control_bits,
        postcond_nodes,
        prover_attempts,
        peak_candidates,
        phase,
        ..report(name, Some(kernel), outcome, started)
    }
}

/// The pipeline's extended bounded validation (private to `stng-synth`),
/// serial: run the kernel concretely over the modular data domain at each
/// validation size and evaluate the postcondition on the final state.
fn validate_post_bounded(
    kernel: &Kernel,
    post: &Postcondition,
    sizes: &[i64],
) -> Result<(), String> {
    for (trial, &size) in sizes.iter().enumerate() {
        let mut state: State<ModInt> = State::new();
        for (name, value) in stng_sym::choose_small_bounds(kernel, size) {
            state.set_int(name, value);
        }
        for (k, name) in kernel.real_params().into_iter().enumerate() {
            state.set_real(name, ModInt::new((trial as i64 + k as i64 + 2) % MOD_FIELD));
        }
        for param in &kernel.params {
            if let ParamKind::Array { dims } = &param.kind {
                let mut concrete = Vec::new();
                for (lo, hi) in dims {
                    let lo = eval_int_expr(lo, &state).map_err(|e| e.to_string())?;
                    let hi = eval_int_expr(hi, &state).map_err(|e| e.to_string())?;
                    concrete.push((lo, hi));
                }
                let array = ArrayData::from_fn(concrete, |idx| {
                    ModInt::new(
                        idx.iter()
                            .enumerate()
                            .map(|(d, v)| (d as i64 + 2) * v)
                            .sum::<i64>()
                            + trial as i64,
                    )
                });
                state.set_array(param.name.clone(), array);
            }
        }
        run_kernel(kernel, &mut state).map_err(|e| e.to_string())?;
        let holds =
            stng_pred::eval::eval_pred(&post.to_pred(), &mut state).map_err(|e| e.to_string())?;
        if !holds {
            return Err(format!(
                "postcondition fails on a concrete execution at size {size}"
            ));
        }
    }
    Ok(())
}

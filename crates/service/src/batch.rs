//! The batch lifting driver: lift a whole corpus of Fortran sources through
//! the fingerprint cache, in one or more passes, sweeping the expression
//! arenas between passes.
//!
//! This is the service loop in miniature — each pass models one incoming
//! batch of lifting requests. Sources are distributed over the existing
//! scoped-thread machinery (`stng_intern::parallel::map`), every kernel
//! flows through [`crate::cache::PipelineCache`], and the driver reports
//! per-kernel outcomes, per-pass cache-counter deltas, and arena occupancy
//! before/after each sweep.

use crate::cache::{CacheStats, PipelineCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stng::memory;
use stng::pipeline::{KernelOutcome, KernelReport, LiftReport, Stng};
use stng_intern::guard::Budget;
use stng_intern::parallel;
use stng_obs::json::{nu, obj, s, Json};
use stng_synth::cegis::SynthesisConfig;

/// One named source file (or corpus entry) to lift.
#[derive(Debug, Clone)]
pub struct BatchSource {
    /// Display name (file path or corpus kernel name).
    pub name: String,
    /// Fortran-subset source text (empty when `read_error` is set).
    pub source: String,
    /// Set when the file could not be read (unreadable, non-UTF-8): the
    /// driver reports it as a per-source row instead of lifting it, so one
    /// stray binary file cannot kill a whole batch.
    pub read_error: Option<String>,
}

impl BatchSource {
    /// A readable source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> BatchSource {
        BatchSource {
            name: name.into(),
            source: source.into(),
            read_error: None,
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Number of full passes over the sources (pass 2+ exercises the warm
    /// cache).
    pub passes: usize,
    /// Sweep the expression arenas/memos after each pass.
    pub sweep_between: bool,
    /// Worker threads for lifting independent sources.
    pub threads: usize,
    /// Memory-tier capacity (entries).
    pub mem_capacity: usize,
    /// Disk-tier directory (`None` = memory-only).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Synthesis configuration for every kernel.
    pub config: SynthesisConfig,
    /// Wall-clock deadline for the whole batch (all passes), milliseconds.
    pub deadline_ms: Option<u64>,
    /// Wall-clock deadline for lifting one source, milliseconds. Doubles on
    /// every retry.
    pub kernel_timeout_ms: Option<u64>,
    /// Bounded-check fuel for lifting one source. Doubles on every retry.
    pub kernel_fuel: Option<u64>,
    /// Prover-attempt budget for lifting one source. Doubles on every retry.
    pub kernel_prover_attempts: Option<u64>,
    /// Extra attempts for a source whose lift crashed or was cut short by
    /// its per-source budget, each with the budget doubled. Retries are
    /// skipped once the batch-wide deadline is gone.
    pub retries: u32,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            passes: 1,
            sweep_between: true,
            threads: parallel::default_parallelism(),
            mem_capacity: 4096,
            cache_dir: None,
            config: SynthesisConfig::default(),
            deadline_ms: None,
            kernel_timeout_ms: None,
            kernel_fuel: None,
            kernel_prover_attempts: None,
            retries: 0,
        }
    }
}

/// Outcome of one kernel in one pass.
#[derive(Debug, Clone)]
pub struct BatchKernel {
    /// Source (file / corpus entry) the kernel came from.
    pub source_name: String,
    /// Fragment name.
    pub kernel_name: String,
    /// Structural fingerprint (hex), when the kernel lowered.
    pub fingerprint: Option<String>,
    /// Wall-clock time lifting this kernel's source in this pass, divided
    /// evenly when a source has several fragments.
    pub lift_ms: f64,
    /// The full pipeline report.
    pub report: KernelReport,
}

/// One pass over all sources.
#[derive(Debug, Clone)]
pub struct BatchPass {
    /// 1-based pass number.
    pub number: usize,
    /// Wall-clock time of the whole pass.
    pub wall_ms: f64,
    /// Per-kernel outcomes, in source order.
    pub kernels: Vec<BatchKernel>,
    /// Cache-counter delta for this pass.
    pub cache: CacheStats,
    /// Sweepable arena/memo entries when the pass (and its lifts) finished.
    pub arena_entries_before_sweep: usize,
    /// Sweep results, when sweeping is enabled.
    pub sweep: Option<memory::SweepReport>,
    /// Sweepable entries after the sweep (equals `arena_entries_before_sweep`
    /// when sweeping is disabled).
    pub arena_entries_after_sweep: usize,
}

/// The full driver result.
pub struct BatchReport {
    /// All passes, in order.
    pub passes: Vec<BatchPass>,
    /// The cache used (for final stats / further passes).
    pub cache: Arc<PipelineCache>,
}

/// Coarse classification of an outcome, the last rung it reached on the
/// degradation ladder (see `docs/robustness.md`).
pub fn outcome_tag(outcome: &KernelOutcome) -> &'static str {
    match outcome {
        KernelOutcome::Translated {
            degraded: Some(_), ..
        } => "degraded",
        KernelOutcome::Translated { .. } => "translated",
        KernelOutcome::Untranslated { .. } => "untranslated",
        KernelOutcome::Timeout { .. } => "timeout",
        KernelOutcome::Crashed { .. } => "crashed",
    }
}

impl BatchPass {
    /// Outcome-tag counts: `(translated, degraded, untranslated, timeout,
    /// crashed)`.
    pub fn summary(&self) -> (usize, usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0, 0);
        for k in &self.kernels {
            match outcome_tag(&k.report.outcome) {
                "translated" => counts.0 += 1,
                "degraded" => counts.1 += 1,
                "untranslated" => counts.2 += 1,
                "timeout" => counts.3 += 1,
                _ => counts.4 += 1,
            }
        }
        counts
    }
}

impl BatchReport {
    /// Serializes the report (used by `stng-batch --json`).
    pub fn to_json(&self) -> Json {
        self.encode(true)
    }

    /// The report with every timing and occupancy field stripped: only the
    /// deterministic facts (outcomes, fingerprints, cache counters) remain,
    /// so two governed runs of the same corpus with the same counter-only
    /// budgets serialize byte-identically. Pins the determinism guarantee
    /// in `tests/determinism.rs`.
    pub fn to_canonical_json(&self) -> Json {
        self.encode(false)
    }

    fn encode(&self, timings: bool) -> Json {
        let passes = self
            .passes
            .iter()
            .map(|pass| {
                let kernels = pass
                    .kernels
                    .iter()
                    .map(|k| {
                        let (translated, soundly, degraded) = match &k.report.outcome {
                            KernelOutcome::Translated {
                                soundly_verified,
                                degraded,
                                ..
                            } => (true, *soundly_verified, degraded.map(|d| d.as_str())),
                            KernelOutcome::Untranslated { .. } => (false, false, None),
                            KernelOutcome::Timeout { reason, .. } => {
                                (false, false, Some(reason.as_str()))
                            }
                            KernelOutcome::Crashed { .. } => (false, false, None),
                        };
                        let ms = |ns: u64| Json::Num((ns as f64 / 1e3).round() / 1e3);
                        let mut fields = vec![
                            ("source", s(k.source_name.clone())),
                            ("kernel", s(k.kernel_name.clone())),
                            (
                                "fingerprint",
                                k.fingerprint.clone().map(s).unwrap_or(Json::Null),
                            ),
                        ];
                        if timings {
                            // Memo/core counters live with the timings: hit
                            // totals depend on how candidate workers and
                            // sibling kernels interleave, so they are
                            // schedule-dependent exactly like durations and
                            // must stay out of the canonical encoding.
                            fields.extend([
                                ("lift_ms", Json::Num((k.lift_ms * 1e3).round() / 1e3)),
                                ("capture_ms", ms(k.report.phase.capture_ns)),
                                ("bounded_ms", ms(k.report.phase.bounded_ns)),
                                ("prove_ms", ms(k.report.phase.prove_ns)),
                                ("oblig_hits", Json::Num(k.report.phase.oblig_hits as f64)),
                                (
                                    "oblig_misses",
                                    Json::Num(k.report.phase.oblig_misses as f64),
                                ),
                                ("core_hits", Json::Num(k.report.phase.core_hits as f64)),
                                ("screened", Json::Num(k.report.phase.screened as f64)),
                                ("survivors", Json::Num(k.report.phase.survivors as f64)),
                                ("batch_scans", Json::Num(k.report.phase.batch_scans as f64)),
                            ]);
                        }
                        fields.extend([
                            ("captures", nu(k.report.phase.captures)),
                            // Whether the lifting cache served this kernel:
                            // deterministic (pass structure fixes hits), so
                            // it stays in the canonical encoding.
                            ("cached", Json::Bool(k.report.cached)),
                            ("outcome", s(outcome_tag(&k.report.outcome))),
                            ("translated", Json::Bool(translated)),
                            ("soundly_verified", Json::Bool(soundly)),
                            ("degraded", degraded.map(s).unwrap_or(Json::Null)),
                        ]);
                        obj(fields)
                    })
                    .collect();
                let (ok, deg, unt, tout, crash) = pass.summary();
                let mut fields = vec![("pass", nu(pass.number))];
                if timings {
                    fields.push(("wall_ms", Json::Num((pass.wall_ms * 1e3).round() / 1e3)));
                }
                fields.extend([
                    ("kernels", Json::Arr(kernels)),
                    (
                        "summary",
                        obj(vec![
                            ("translated", nu(ok)),
                            ("degraded", nu(deg)),
                            ("untranslated", nu(unt)),
                            ("timeout", nu(tout)),
                            ("crashed", nu(crash)),
                        ]),
                    ),
                    (
                        "cache",
                        obj(vec![
                            ("hits", Json::Num(pass.cache.hits as f64)),
                            ("misses", Json::Num(pass.cache.misses as f64)),
                            ("disk_hits", Json::Num(pass.cache.disk_hits as f64)),
                            ("inserts", Json::Num(pass.cache.inserts as f64)),
                            ("evictions", Json::Num(pass.cache.evictions as f64)),
                            ("disk_writes", Json::Num(pass.cache.disk_writes as f64)),
                            ("quarantined", Json::Num(pass.cache.quarantined as f64)),
                            ("io_retries", Json::Num(pass.cache.io_retries as f64)),
                            ("hit_rate", Json::Num(pass.cache.hit_rate())),
                        ]),
                    ),
                ]);
                if timings {
                    fields.push((
                        "arena",
                        obj(vec![
                            ("entries_before_sweep", nu(pass.arena_entries_before_sweep)),
                            (
                                "swept",
                                pass.sweep
                                    .map(|r| Json::Num(r.evicted as f64))
                                    .unwrap_or(Json::Null),
                            ),
                            ("entries_after_sweep", nu(pass.arena_entries_after_sweep)),
                        ]),
                    ));
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("schema", Json::Num(2.0)),
            ("passes", Json::Arr(passes)),
        ])
    }
}

/// Runs `options.passes` passes over `sources` through a fresh cache.
pub fn run_batch(sources: &[BatchSource], options: &BatchOptions) -> std::io::Result<BatchReport> {
    let cache: Arc<PipelineCache> = Arc::new(match &options.cache_dir {
        Some(dir) => PipelineCache::persistent(options.mem_capacity, dir)?,
        None => PipelineCache::in_memory(options.mem_capacity),
    });
    let mut report = BatchReport {
        passes: Vec::with_capacity(options.passes),
        cache: Arc::clone(&cache),
    };
    // The batch-wide budget spans all passes; per-source child budgets
    // charge it, so a dead batch deadline cuts every remaining kernel over
    // to timeout rows instead of letting the tail run long.
    let batch_budget = Budget::limited(options.deadline_ms.map(Duration::from_millis), None, None);
    for number in 1..=options.passes {
        report
            .passes
            .push(run_pass(number, sources, &cache, options, &batch_budget));
    }
    Ok(report)
}

/// What lifting one source produced, after retries and panic isolation.
enum SourceOutcome {
    Lifted(LiftReport),
    SourceError(String),
    Crashed(String),
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lifts one source under a child of the batch budget, retrying crashed or
/// budget-cut lifts with the per-source budget doubled each attempt. A
/// panic anywhere in the lift is caught here, so one poisoned source can
/// never take down the batch (or its worker thread).
fn lift_source_governed(
    src: &BatchSource,
    cache: &Arc<PipelineCache>,
    options: &BatchOptions,
    batch_budget: &Budget,
) -> SourceOutcome {
    if let Some(e) = &src.read_error {
        return SourceOutcome::SourceError(format!("source could not be read: {e}"));
    }
    let attempts = options.retries.saturating_add(1);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 && batch_budget.exhausted().is_some() {
            break; // retrying into a dead batch deadline is wasted work
        }
        let scale = 1u64 << attempt.min(32);
        let budget = batch_budget.child(
            options
                .kernel_timeout_ms
                .map(|ms| Duration::from_millis(ms.saturating_mul(scale))),
            options
                .kernel_prover_attempts
                .map(|n| n.saturating_mul(scale)),
            options.kernel_fuel.map(|n| n.saturating_mul(scale)),
        );
        let stng = Stng {
            config: options.config.clone(),
            cache: Some(Arc::clone(cache) as Arc<dyn stng::LiftCache>),
            budget,
        };
        match catch_unwind(AssertUnwindSafe(|| stng.lift_source(&src.source))) {
            Ok(Ok(lift)) => {
                let cut_short = lift.kernels.iter().any(|k| k.outcome.is_budget_affected());
                if !cut_short {
                    return SourceOutcome::Lifted(lift);
                }
                last = Some(SourceOutcome::Lifted(lift));
            }
            // A parse/classification error is deterministic: no retry.
            Ok(Err(e)) => return SourceOutcome::SourceError(e),
            Err(payload) => last = Some(SourceOutcome::Crashed(panic_text(&*payload))),
        }
    }
    last.unwrap_or_else(|| {
        SourceOutcome::Crashed("lift skipped: batch deadline exhausted".to_string())
    })
}

/// A per-source row with no real pipeline report behind it (source errors,
/// empty sources, crashed lifts).
fn synthetic_row(src: &BatchSource, tag: &str, ms: f64, outcome: KernelOutcome) -> BatchKernel {
    BatchKernel {
        source_name: src.name.clone(),
        kernel_name: format!("{}:{tag}", src.name),
        fingerprint: None,
        lift_ms: ms,
        report: KernelReport::unsynthesized(&src.name, None, outcome, std::time::Duration::ZERO),
    }
}

fn run_pass(
    number: usize,
    sources: &[BatchSource],
    cache: &Arc<PipelineCache>,
    options: &BatchOptions,
    batch_budget: &Budget,
) -> BatchPass {
    let stats_before = cache.stats();
    let started = Instant::now();
    // One unit per source: kernels inside a source stay sequential (they
    // share the fragment classification), sources fan out across workers.
    // Unreadable sources short-circuit into an error row downstream.
    let lifted = parallel::map(sources, options.threads, |src| {
        let t = Instant::now();
        let outcome = lift_source_governed(src, cache, options, batch_budget);
        (outcome, t.elapsed().as_secs_f64() * 1e3)
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut kernels = Vec::new();
    for (src, (outcome, ms)) in sources.iter().zip(lifted) {
        match outcome {
            SourceOutcome::Lifted(lift) => {
                // A source that parses but offers no candidate loop nests
                // gets an explicit row (mirroring the parse-failure row
                // below), so coverage audits can tell "processed, nothing
                // to lift" from "never processed".
                if lift.kernels.is_empty() {
                    kernels.push(synthetic_row(
                        src,
                        "<no candidates>",
                        ms,
                        KernelOutcome::Untranslated {
                            reason: format!(
                                "source contains no candidate kernels \
                                 ({} outermost loop(s) skipped by the identifier)",
                                lift.skipped_loops
                            ),
                        },
                    ));
                    continue;
                }
                let n = lift.kernels.len() as f64;
                for k in lift.kernels {
                    kernels.push(BatchKernel {
                        source_name: src.name.clone(),
                        kernel_name: k.name.clone(),
                        fingerprint: k.fingerprint.clone(),
                        lift_ms: ms / n,
                        report: k,
                    });
                }
            }
            SourceOutcome::SourceError(source_error) => {
                // A malformed or unreadable source yields one synthetic
                // untranslated row so it is visible in the report rather
                // than dropped.
                kernels.push(synthetic_row(
                    src,
                    "<error>",
                    ms,
                    KernelOutcome::Untranslated {
                        reason: source_error,
                    },
                ));
            }
            SourceOutcome::Crashed(panic) => {
                // The lift panicked on every attempt: record the crash as
                // its own row so the batch report stays complete.
                kernels.push(synthetic_row(
                    src,
                    "<crashed>",
                    ms,
                    KernelOutcome::Crashed { panic },
                ));
            }
        }
    }

    let arena_entries_before_sweep = memory::sweepable_entries();
    let sweep = options.sweep_between.then(memory::sweep);
    BatchPass {
        number,
        wall_ms,
        kernels,
        cache: cache.stats().since(&stats_before),
        arena_entries_before_sweep,
        sweep,
        arena_entries_after_sweep: memory::sweepable_entries(),
    }
}

/// Loads sources from the built-in benchmark corpus.
pub fn corpus_sources() -> Vec<BatchSource> {
    stng_corpus::all_kernels()
        .into_iter()
        .map(|k| BatchSource::new(k.name, k.source))
        .collect()
}

/// Loads every regular file of `dir` (non-recursive, sorted by name) as a
/// source. Files that cannot be read as UTF-8 text (stray binaries, bad
/// permissions) become error-carrying sources rather than aborting the
/// batch; only the directory listing itself is fatal.
pub fn dir_sources(dir: &std::path::Path) -> std::io::Result<Vec<BatchSource>> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|p| {
            let name = p.display().to_string();
            match std::fs::read_to_string(&p) {
                Ok(source) => BatchSource::new(name, source),
                Err(e) => BatchSource {
                    name,
                    source: String::new(),
                    read_error: Some(e.to_string()),
                },
            }
        })
        .collect())
}

/// Loads sources from a manifest: one file path per line (relative to the
/// manifest's directory), `#` comments and blank lines ignored.
pub fn manifest_sources(manifest: &std::path::Path) -> std::io::Result<Vec<BatchSource>> {
    let base = manifest.parent().unwrap_or(std::path::Path::new("."));
    let mut out = Vec::new();
    for line in std::fs::read_to_string(manifest)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Manifest entries are explicit requests: a missing or unreadable
        // listed file is an error, unlike the permissive directory scan.
        let path = base.join(line);
        out.push(BatchSource::new(
            path.display().to_string(),
            std::fs::read_to_string(&path)?,
        ));
    }
    Ok(out)
}

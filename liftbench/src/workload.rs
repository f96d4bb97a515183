//! The three workloads: set-up, the untraced measurement, and the traced
//! per-layer run.

use crate::check::{self, accepted_candidate, Class, Reference};
use crate::replay::{self, Counts, Tracer, LIFT_LAYERS, SPANS};
use crate::stream::{self, StreamSource};
use crate::util::{geomean, median, ms_since, proc_status_mb, quantile, Rng};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use stng::pipeline::{KernelReport, LiftCache, Stng};
use stng_corpus::CorpusKernel;
use stng_service::batch::{run_batch, BatchOptions, BatchSource};
use stng_service::{CacheStats, PipelineCache};
use stng_solve::BoundedChecker;
use stng_synth::cegis::SynthesisConfig;
use stng_synth::postcond::PostcondSynthesizer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusCold,
    StreamCold,
    StreamWarm,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "corpus_cold" => Some(Workload::CorpusCold),
            "stream_cold" => Some(Workload::StreamCold),
            "stream_warm" => Some(Workload::StreamWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus_cold",
            Workload::StreamCold => "stream_cold",
            Workload::StreamWarm => "stream_warm",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Rows attempted and every check that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn fail(&mut self, message: String) {
        if self.failed < 20 {
            eprintln!("liftbench: check failed: {message}");
        }
        self.failed += 1;
    }
}

/// Everything a workload needs before its first timed pass.
pub struct Setup {
    pub corpus: Vec<CorpusKernel>,
    pub expected: Vec<Class>,
    /// Reference run per corpus kernel expected to translate.
    pub refs: Vec<Option<Reference>>,
    /// The generated stream (empty for `corpus_cold`).
    pub stream: Vec<StreamSource>,
    /// The disk cache filled during set-up (`stream_warm`).
    pub filled: Option<PathBuf>,
}

impl Setup {
    /// Number of sources one pass lifts.
    fn sources(&self, workload: Workload) -> usize {
        match workload {
            Workload::CorpusCold => self.corpus.len(),
            _ => self.stream.len(),
        }
    }

    /// Corpus kernel a source was made from.
    fn base(&self, workload: Workload, source: usize) -> usize {
        match workload {
            Workload::CorpusCold => source,
            _ => self.stream[source].base,
        }
    }
}

pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let corpus = stng_corpus::all_kernels();
    let expected = check::expected_classes(&corpus)?;
    let refs = corpus
        .iter()
        .zip(&expected)
        .map(|(kernel, class)| {
            (*class != Class::Untranslated)
                .then(|| check::reference(kernel, seed))
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup = Setup {
        corpus,
        expected,
        refs,
        stream: Vec::new(),
        filled: None,
    };
    if workload == Workload::CorpusCold {
        return Ok(setup);
    }
    setup.stream = stream::generate(&setup.corpus, seed)?;
    stream::check_fingerprints(&setup.corpus, &setup.stream)?;
    if workload == Workload::StreamWarm {
        let options = stream_options(dir.to_path_buf(), false);
        let all: Vec<usize> = (0..setup.stream.len()).collect();
        run_batch(&batch_sources(&setup.stream, &all), &options)
            .map_err(|e| format!("filling the cache: {e}"))?;
        setup.filled = Some(dir.to_path_buf());
    }
    Ok(setup)
}

/// What one pass of the real pipeline produced.
struct Pass {
    wall_ms: f64,
    /// Lift time per source, indexed by source.
    source_ms: Vec<f64>,
    /// Kernel reports per source, indexed by source.
    reports: Vec<Vec<KernelReport>>,
    /// Cache-counter delta (zero without a cache).
    cache: CacheStats,
}

/// The shipped configuration with every thread count pinned to one.
fn serial_config() -> SynthesisConfig {
    let default = SynthesisConfig::default();
    SynthesisConfig {
        parallelism: 1,
        postcond: PostcondSynthesizer {
            parallelism: 1,
            ..default.postcond.clone()
        },
        bounded: BoundedChecker {
            parallelism: 1,
            ..default.bounded.clone()
        },
        ..default
    }
}

/// Lifts the corpus once with `Stng::lift_source` (no cache) in `order`.
fn corpus_pass(setup: &Setup, stng: &Stng, order: &[usize], checks: &mut Checks) -> Pass {
    let n = setup.corpus.len();
    let mut source_ms = vec![0.0; n];
    let mut reports = vec![Vec::new(); n];
    let started = Instant::now();
    for &i in order {
        let t = Instant::now();
        let lifted = stng.lift_source(&setup.corpus[i].source);
        source_ms[i] = ms_since(t);
        match lifted {
            Ok(report) => reports[i] = report.kernels,
            Err(e) => checks.fail(format!("{}: source error: {e}", setup.corpus[i].name)),
        }
    }
    Pass {
        wall_ms: ms_since(started),
        source_ms,
        reports,
        cache: CacheStats::default(),
    }
}

/// `run_batch` sources for the stream sources in `order`, named by index.
fn batch_sources(stream: &[StreamSource], order: &[usize]) -> Vec<BatchSource> {
    order
        .iter()
        .map(|&k| BatchSource::new(k.to_string(), stream[k].text.clone()))
        .collect()
}

/// Runs the stream once through `run_batch`, sources arriving in `order`.
/// A source without candidate loops keeps its time but loses its synthetic
/// row, so it reports no kernels, as `Stng::lift_source` does; a source
/// that failed to parse or read is a failed row.
fn stream_pass(
    setup: &Setup,
    order: &[usize],
    options: &BatchOptions,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let arrivals = batch_sources(&setup.stream, order);
    let batch = run_batch(&arrivals, options).map_err(|e| format!("run_batch: {e}"))?;
    let pass = batch
        .passes
        .into_iter()
        .next()
        .ok_or("run_batch ran no pass")?;
    let n = setup.stream.len();
    let mut source_ms = vec![0.0; n];
    let mut reports = vec![Vec::new(); n];
    for row in pass.kernels {
        let k: usize = row
            .source_name
            .parse()
            .map_err(|_| format!("unexpected source name {}", row.source_name))?;
        source_ms[k] += row.lift_ms;
        if row.kernel_name.ends_with(":<no candidates>") {
            continue;
        }
        if row.kernel_name.ends_with(":<error>") {
            checks.fail(format!(
                "source {k}: source error: {:?}",
                row.report.outcome
            ));
        }
        reports[k].push(row.report);
    }
    Ok(Pass {
        wall_ms: pass.wall_ms,
        source_ms,
        reports,
        cache: pass.cache,
    })
}

/// A fresh, empty directory for one cold disk cache.
fn fresh_dir(work: &Path, label: &str) -> Result<PathBuf, String> {
    let dir = work.join(label);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One pass of the workload through the real pipeline. `serial` pins every
/// thread count to one; otherwise the shipped defaults run (with one
/// `run_batch` worker on the streams, see [`stream_options`]).
fn pipeline_pass(
    workload: Workload,
    setup: &Setup,
    order: &[usize],
    serial: bool,
    work: &Path,
    checks: &mut Checks,
) -> Result<Pass, String> {
    if workload == Workload::CorpusCold {
        let config = if serial {
            serial_config()
        } else {
            SynthesisConfig::default()
        };
        let stng = Stng {
            config,
            ..Stng::new()
        };
        return Ok(corpus_pass(setup, &stng, order, checks));
    }
    let cache_dir = match &setup.filled {
        Some(dir) => dir.clone(),
        None => fresh_dir(work, "cold-cache")?,
    };
    stream_pass(setup, order, &stream_options(cache_dir, serial), checks)
}

/// `run_batch` options of a stream pass: the shipped defaults with one
/// worker, so that, as on `corpus_cold`, one source is lifted at a time on
/// up to `nproc` CEGIS threads (one thread when `serial`). With the shipped
/// worker count on a 2-vCPU host, the 66 cold lifts of a pass packed onto
/// two workers differently from pass to pass, and a pass's wall time varied
/// by a third within one run.
fn stream_options(cache_dir: PathBuf, serial: bool) -> BatchOptions {
    BatchOptions {
        cache_dir: Some(cache_dir),
        config: if serial {
            serial_config()
        } else {
            SynthesisConfig::default()
        },
        threads: 1,
        ..BatchOptions::default()
    }
}

/// Checks every row of a pass against the expected outcome of its source
/// kernel; returns `(translated, sound)` row counts.
fn check_outcomes(
    workload: Workload,
    setup: &Setup,
    pass: &Pass,
    checks: &mut Checks,
) -> (usize, usize) {
    let (mut translated, mut sound) = (0, 0);
    for (k, rows) in pass.reports.iter().enumerate() {
        checks.attempted += 1;
        let base = setup.base(workload, k);
        let expected = setup.expected[base];
        for row in rows {
            let class = Class::of(&row.outcome);
            translated += usize::from(matches!(class, Class::Sound | Class::Validated));
            sound += usize::from(class == Class::Sound);
            if class != expected {
                let detail = match &row.outcome {
                    stng::KernelOutcome::Untranslated { reason } => reason.as_str(),
                    _ => "",
                };
                checks.fail(format!(
                    "source {k} ({}): outcome {class:?}, expected {expected:?} {detail}",
                    setup.corpus[base].name
                ));
            }
            // Rows without a lowered kernel (no candidate loop, lowering
            // error) never reach the cache.
            if workload == Workload::StreamWarm && row.kernel.is_some() && !row.cached {
                checks.fail(format!("source {k}: warm pass was not served by the cache"));
            }
        }
    }
    if workload == Workload::StreamWarm && pass.cache.misses != 0 {
        checks.fail(format!(
            "warm pass missed the cache {} times",
            pass.cache.misses
        ));
    }
    (translated, sound)
}

/// The first translated row per corpus kernel in arrival order (plus, on
/// the streams and when `permuted_too`, the first permuted copy of each),
/// with the source's names.
fn realization_targets<'a>(
    workload: Workload,
    setup: &'a Setup,
    pass: &'a Pass,
    permuted_too: bool,
) -> Vec<(usize, bool, &'a KernelReport, HashMap<String, String>)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (k, rows) in pass.reports.iter().enumerate() {
        let base = setup.base(workload, k);
        let permuted = workload != Workload::CorpusCold && setup.stream[k].permuted;
        if permuted && !permuted_too {
            continue;
        }
        let Some(row) = rows.iter().find(|r| r.outcome.is_translated()) else {
            continue;
        };
        if setup.refs[base].is_none() || !seen.insert((base, permuted)) {
            continue;
        }
        let names = match workload {
            Workload::CorpusCold => HashMap::new(),
            _ => setup.stream[k].names.clone(),
        };
        out.push((base, permuted, row, names));
    }
    out
}

/// Realizes the summaries of [`realization_targets`] once and compares
/// them with the reference interpreter. Returns the realize time (ms) of the
/// first translated copy of each kernel, keyed by corpus kernel; permuted
/// copies are checked, untimed. With a tracer, codegen and realize are
/// recorded as spans.
fn realize_pass(
    workload: Workload,
    setup: &Setup,
    pass: &Pass,
    permuted_too: bool,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Vec<(usize, f64)> {
    let mut times = Vec::new();
    for (base, permuted, row, names) in realization_targets(workload, setup, pass, permuted_too) {
        let stng::KernelOutcome::Translated { summary, .. } = &row.outcome else {
            continue;
        };
        let reference = setup.refs[base].as_ref().expect("targets have references");
        let name = &setup.corpus[base].name;
        let jobs = match check::jobs(summary, &names, reference) {
            Ok(jobs) => jobs,
            Err(e) => {
                checks.fail(format!("{name}: cannot realize the summary: {e}"));
                continue;
            }
        };
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.open("generate");
            for job in &jobs {
                tracer.time("codegen", || job.codegen(&summary.scalar_params));
            }
        }
        let mut ms = 0.0;
        for job in &jobs {
            let started = Instant::now();
            let out = match tracer.as_deref_mut() {
                Some(tracer) => tracer.time("realize", || job.run()),
                None => job.run(),
            };
            ms += ms_since(started);
            let bad = job.mismatches(&out);
            if bad > 0 {
                checks.fail(format!(
                    "{name}{}: {bad} realized points differ from the interpreter",
                    if permuted { " (permuted copy)" } else { "" }
                ));
            }
        }
        if !permuted {
            times.push((base, ms));
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.close();
        }
    }
    times
}

/// Each source's translated postconditions, rendered.
fn rendered_posts(pass: &Pass) -> Vec<Vec<String>> {
    pass.reports
        .iter()
        .map(|rows| {
            rows.iter()
                .filter_map(|r| match &r.outcome {
                    stng::KernelOutcome::Translated { post, .. } => Some(post.to_string()),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// The seeded arrival order of one pass: a new draw per pass.
///
/// The corpus arrives shuffled. The stream arrives in rounds, each holding
/// one copy of every kernel in a shuffled order: round 0 brings every
/// kernel's first sighting, round 1 the first permuted copies, and later
/// rounds only repeats.
fn pass_order(workload: Workload, setup: &Setup, seed: u64, pass: usize) -> Vec<usize> {
    let kernels = setup.corpus.len();
    let mut rng = Rng::derive(seed, 100 + pass as u64);
    if workload == Workload::CorpusCold {
        let mut order: Vec<usize> = (0..kernels).collect();
        rng.shuffle(&mut order);
        return order;
    }
    let mut order = Vec::with_capacity(setup.stream.len());
    for round in 0..stream::COPIES_PER_KERNEL {
        let mut bases: Vec<usize> = (0..kernels).collect();
        rng.shuffle(&mut bases);
        order.extend(bases.iter().map(|b| b * stream::COPIES_PER_KERNEL + round));
    }
    order
}

/// The untraced measurement: passes until `seconds` have elapsed (at least
/// two, so the memory reading below always sees a swept second pass).
///
/// Every timing is built from the fastest samples over the passes: each
/// source's fastest lift and each kernel's fastest realization. On a shared
/// host the same pass ran anywhere from 0.9 to 1.4 s within one run, and the
/// slow spells last seconds to minutes, so a median or a total measured how
/// much of the run the host spent slow. Every workload lifts one source at a
/// time, so the sum of the fastest lifts is a pass's wall time without the
/// slow spells; the fastest whole pass varied twice as much between runs,
/// as it needs every source of one pass to run fast.
pub fn measure(
    workload: Workload,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let n = setup.sources(workload);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut gen: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut counts = (Vec::new(), Vec::new());
    let mut first_posts = None;
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    let mut number = 0;
    while number < 2 || started.elapsed().as_secs_f64() < seconds {
        // Every pass starts with cold memos, as a one-shot compile does
        // (`run_batch` also sweeps after its pass).
        stng::memory::sweep();
        let order = pass_order(workload, setup, seed, number);
        let pass = pipeline_pass(workload, setup, &order, false, work, checks)?;
        eprintln!("{} pass {number}: {:.1} ms", workload.name(), pass.wall_ms);
        for (k, ms) in pass.source_ms.iter().enumerate() {
            samples[k].push(*ms);
        }
        let (translated, sound) = check_outcomes(workload, setup, &pass, checks);
        counts.0.push(translated as f64);
        counts.1.push(sound as f64);
        // The first pass's summaries are realized in full; every later pass
        // must lift the same summaries, and realizes one copy per kernel.
        let posts = rendered_posts(&pass);
        match &first_posts {
            None => first_posts = Some(posts),
            Some(first) => {
                for (k, (a, b)) in first.iter().zip(&posts).enumerate() {
                    if a != b {
                        checks.fail(format!("source {k}: pass {number} lifted another summary"));
                    }
                }
            }
        }
        for (base, ms) in realize_pass(workload, setup, &pass, number == 0, checks, None) {
            gen.entry(base).or_default().push(ms);
        }
        number += 1;
        if number == 2 {
            // Read at a fixed amount of work, not at the end: the number of
            // passes depends on the host's speed and every cold pass leaks.
            peak_rss_mb = proc_status_mb("VmHWM");
        }
    }
    let fastest: Vec<f64> = samples.iter().map(|s| quantile(s, 0.0)).collect();
    Ok(vec![
        Metric {
            name: "kernels_per_s",
            value: n as f64 / (fastest.iter().sum::<f64>() / 1e3),
            unit: "1/s",
        },
        Metric {
            name: "kernel_ms_geomean",
            value: geomean(&fastest),
            unit: "ms",
        },
        Metric {
            name: "kernel_ms_p95",
            value: quantile(&fastest, 0.95),
            unit: "ms",
        },
        Metric {
            name: "translated",
            value: median(&counts.0),
            unit: "count",
        },
        Metric {
            name: "sound",
            value: median(&counts.1),
            unit: "count",
        },
        Metric {
            name: "gen_run_ms",
            value: gen.values().map(|t| quantile(t, 0.0)).sum(),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ])
}

/// The replay must reach the pipeline's verdict on every kernel: the same
/// outcome class, the same accepted candidate, the same summary, the same
/// cache behaviour and (uncached) the same number of screened candidates.
fn check_fidelity(
    checks: &mut Checks,
    what: &str,
    pipeline: &[KernelReport],
    replayed: &[KernelReport],
) {
    if pipeline.len() != replayed.len() {
        checks.fail(format!(
            "{what}: replay found {} kernels, the pipeline {}",
            replayed.len(),
            pipeline.len()
        ));
        return;
    }
    for (p, r) in pipeline.iter().zip(replayed) {
        let same_post = match (&p.outcome, &r.outcome) {
            (
                stng::KernelOutcome::Translated { post: a, .. },
                stng::KernelOutcome::Translated { post: b, .. },
            ) => a == b,
            _ => true,
        };
        if Class::of(&p.outcome) != Class::of(&r.outcome)
            || accepted_candidate(&p.outcome) != accepted_candidate(&r.outcome)
            || p.cached != r.cached
            || !same_post
            || (!p.cached && p.phase.screened != r.phase.screened)
        {
            checks.fail(format!(
                "{what}: replay diverges from the pipeline on {} ({:?}/{:?} vs {:?}/{:?})",
                p.name,
                Class::of(&p.outcome),
                accepted_candidate(&p.outcome),
                Class::of(&r.outcome),
                accepted_candidate(&r.outcome)
            ));
        }
    }
}

/// RSS after each sweep of a traced run.
#[derive(Default)]
struct MemoryLog {
    rss_after_sweep: Vec<f64>,
}

impl MemoryLog {
    fn sweep(&mut self, tracer: Option<&mut Tracer>) -> usize {
        let entries = stng::memory::sweepable_entries();
        match tracer {
            Some(tracer) => tracer.time("memory::sweep", stng::memory::sweep),
            None => stng::memory::sweep(),
        };
        self.rss_after_sweep.push(proc_status_mb("VmRSS"));
        entries
    }

    /// Median RSS growth per swept pass.
    fn growth_mb(&self) -> f64 {
        let deltas: Vec<f64> = self
            .rss_after_sweep
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        median(&deltas)
    }
}

/// Result of the traced run: per-layer metrics and the last round's trace.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    pub layers: Vec<(&'static str, f64)>,
}

/// The traced run: rounds of (serial pipeline pass, default pipeline pass,
/// traced replay) until `seconds` have elapsed; each per-layer metric is the
/// median over rounds.
pub fn traced(
    workload: Workload,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    work: &Path,
    checks: &mut Checks,
) -> Result<Traced, String> {
    let mut memory = MemoryLog::default();
    let mut rounds: Vec<HashMap<&'static str, f64>> = Vec::new();
    let mut last = (Tracer::new(), Vec::new());
    let started = Instant::now();
    memory.sweep(None);
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let order = pass_order(workload, setup, seed, rounds.len());
        let serial = pipeline_pass(workload, setup, &order, true, work, checks)?;
        memory.sweep(None);
        let parallel = pipeline_pass(workload, setup, &order, false, work, checks)?;
        memory.sweep(None);
        check_outcomes(workload, setup, &serial, checks);
        check_outcomes(workload, setup, &parallel, checks);

        // The replay, over the same sources in the same order, with its own
        // cache of the same kind as the pipeline passes used.
        let mut tracer = Tracer::new();
        let mut counts = Counts::default();
        let cache = match workload {
            Workload::CorpusCold => None,
            Workload::StreamCold => Some(PipelineCache::persistent(
                BatchOptions::default().mem_capacity,
                fresh_dir(work, "cold-cache")?,
            )),
            Workload::StreamWarm => Some(PipelineCache::persistent(
                BatchOptions::default().mem_capacity,
                setup.filled.clone().expect("stream_warm fills a cache"),
            )),
        }
        .transpose()
        .map_err(|e| format!("opening the replay cache: {e}"))?;
        let config = serial_config();
        let mut replayed = vec![Vec::new(); order.len()];
        for &k in &order {
            let text = match workload {
                Workload::CorpusCold => &setup.corpus[k].source,
                _ => &setup.stream[k].text,
            };
            let lift_cache = cache.as_ref().map(|c| c as &dyn LiftCache);
            match replay::lift_source(&mut tracer, text, &config, lift_cache, &mut counts) {
                Ok(reports) => replayed[k] = reports,
                Err(e) => checks.fail(format!("source {k}: replay source error: {e}")),
            }
            check_fidelity(
                checks,
                &format!("source {k}"),
                &serial.reports[k],
                &replayed[k],
            );
        }
        let replay_pass = Pass {
            wall_ms: tracer.root_ms("lift_source"),
            source_ms: Vec::new(),
            reports: replayed,
            cache: CacheStats::default(),
        };
        realize_pass(
            workload,
            setup,
            &replay_pass,
            true,
            checks,
            Some(&mut tracer),
        );
        let entries = memory.sweep(Some(&mut tracer));

        let mut m: HashMap<&'static str, f64> = HashMap::new();
        let self_ms = tracer.self_ms();
        for (span, metric) in SPANS {
            *m.entry(metric).or_insert(0.0) += self_ms.get(span).copied().unwrap_or(0.0);
        }
        let lift_ms: f64 = SPANS
            .iter()
            .filter(|(span, _)| LIFT_LAYERS.contains(&replay::layer_of(span)))
            .map(|(span, _)| self_ms.get(span).copied().unwrap_or(0.0))
            .sum();
        let uncached = || parallel.reports.iter().flatten().filter(|r| !r.cached);
        let screened: u64 = uncached().map(|r| r.phase.screened).sum();
        let accepted = uncached()
            .filter(|r| accepted_candidate(&r.outcome).is_some())
            .count();
        let lookups = parallel.cache.hits + parallel.cache.misses;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let phase = counts.phase;
        m.extend([
            ("synth.candidates", counts.candidates as f64),
            ("pred.vcs", counts.vcs as f64),
            ("solve.captures", phase.captures as f64),
            ("solve.batch_scans", phase.batch_scans as f64),
            ("solve.prover_attempts", counts.prover_attempts as f64),
            (
                "solve.oblig_hit_rate",
                phase.oblig_hit_rate().unwrap_or(0.0),
            ),
            ("solve.core_hits", phase.core_hits as f64),
            ("cegis.screened", screened as f64),
            (
                "cegis.survivors",
                uncached().map(|r| r.phase.survivors).sum::<u64>() as f64,
            ),
            (
                "cegis.useful_ratio",
                ratio(accepted as f64, screened as f64),
            ),
            (
                "cegis.speculative_screens",
                screened as f64 - phase.screened as f64,
            ),
            (
                "cegis.parallel_speedup",
                ratio(serial.wall_ms, parallel.wall_ms),
            ),
            (
                "service.hit_rate",
                ratio(parallel.cache.hits as f64, lookups as f64),
            ),
            ("service.disk_hits", parallel.cache.disk_hits as f64),
            ("service.disk_writes", parallel.cache.disk_writes as f64),
            ("service.misses", parallel.cache.misses as f64),
            ("memory.entries", entries as f64),
            ("stng.unattributed_ms", serial.wall_ms - lift_ms),
            (
                "obs.trace_overhead",
                ratio(replay_pass.wall_ms, serial.wall_ms),
            ),
        ]);
        eprintln!(
            "{} round {}: serial {:.1} ms, default {:.1} ms, replay {:.1} ms ({:.1} ms in lift layers)",
            workload.name(),
            rounds.len(),
            serial.wall_ms,
            parallel.wall_ms,
            replay_pass.wall_ms,
            lift_ms
        );
        rounds.push(m);
        last = (tracer, self_ms.into_iter().collect());
    }

    let (tracer, self_ms): (Tracer, Vec<(&'static str, f64)>) = last;
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    for (span, ms) in self_ms {
        let layer = replay::layer_of(span);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some(entry) => entry.1 += ms,
            None => layers.push((layer, ms)),
        }
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut metrics = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = if name == "memory.rss_growth_mb" {
            memory.growth_mb()
        } else {
            let values: Vec<f64> = rounds
                .iter()
                .map(|r| r.get(name).copied().unwrap_or(0.0))
                .collect();
            median(&values)
        };
        metrics.push(Metric { name, value, unit });
    }
    Ok(Traced {
        metrics,
        tracer,
        layers,
    })
}

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("ir.canon_ms", "ms"),
    ("synth.postcond_ms", "ms"),
    ("synth.invariant_ms", "ms"),
    ("synth.validate_ms", "ms"),
    ("synth.candidates", "count"),
    ("sym.exec_ms", "ms"),
    ("pred.vcgen_ms", "ms"),
    ("pred.vcs", "count"),
    ("solve.bounded_ms", "ms"),
    ("solve.captures", "count"),
    ("solve.batch_scans", "count"),
    ("solve.prove_ms", "ms"),
    ("solve.prover_attempts", "count"),
    ("solve.oblig_hit_rate", "ratio"),
    ("solve.core_hits", "count"),
    ("cegis.screened", "count"),
    ("cegis.survivors", "count"),
    ("cegis.useful_ratio", "ratio"),
    ("cegis.speculative_screens", "count"),
    ("cegis.parallel_speedup", "x"),
    ("service.lookup_ms", "ms"),
    ("service.record_ms", "ms"),
    ("service.hit_rate", "ratio"),
    ("service.disk_hits", "count"),
    ("service.disk_writes", "count"),
    ("service.misses", "count"),
    ("stng.translate_ms", "ms"),
    ("halide.codegen_ms", "ms"),
    ("halide.realize_ms", "ms"),
    ("memory.sweep_ms", "ms"),
    ("memory.entries", "count"),
    ("memory.rss_growth_mb", "MB"),
    ("replay.glue_ms", "ms"),
    ("stng.unattributed_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
];

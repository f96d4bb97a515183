//! Machine-readable benchmark emitter: lifts every corpus kernel, times the
//! end-to-end pipeline, and writes `BENCH_9.json` at the workspace root so
//! the performance trajectory is tracked from PR to PR.
//!
//! Usage:
//!
//! * `cargo bench --bench bench_json` — measures the current tree and writes
//!   `BENCH_9.json`. When `BENCH_baseline.json` exists at the workspace root,
//!   its numbers are embedded under `"baseline"` and an end-to-end speedup is
//!   computed.
//! * `BENCH_SAVE_BASELINE=1 cargo bench --bench bench_json` — additionally
//!   snapshots the measurements to `BENCH_baseline.json` (run this before a
//!   perf change to freeze the comparison point).
//!
//! Besides the per-kernel (uncached) timings, the run measures the
//! fingerprint-keyed lifting cache: a cold and a warm full-corpus batch pass
//! (`stng-service`), the warm hit rate, and **cache-hit parity** — a warm
//! hit must reproduce the cold pass's report exactly.
//!
//! The run doubles as the **regression gate**: every kernel recorded as
//! translated in the frozen `BENCH_8.json` (the previous PR's snapshot) must
//! still translate, the warm pass must hit on every lookup, parity must
//! hold, every soundly verified kernel's capture counter must equal
//! `grid_sizes × trials_per_size` (reachable states captured once per
//! session rather than once per candidate), the
//! whole corpus, lifted under an armed but generous budget (`bench_stng`
//! attaches one), must cost at most 5% over an ungoverned control pass
//! (cross-snapshot wall-clock comparisons drift with the shared host and
//! are informational only), re-lifting the corpus with the span recorder
//! **armed** must cost at most 5% over a disarmed pass (observability must
//! stay close to free even when switched on) — each overhead gate is the
//! median ratio of [`PAIRS`] alternated pass pairs measured in this run —
//! and — new with the layered verification harness —
//! the full `stng-verify --quick` sweep must pass and finish within its
//! 30 s single-core wall budget, so the per-PR verification gate stays
//! cheap; otherwise the process exits non-zero, which fails the CI jobs.
//! The one-shot speedup gates from earlier snapshots (the compiled-proving
//! 1.5× prove-phase gate from BENCH_6, the adaptive bounded 1.5×
//! bounded-phase gate from BENCH_8) served their purpose and are retired;
//! both phases stay covered by the 5% total-time gate.
//!
//! The snapshot is a `stng_obs::json` value printed indented, and earlier
//! snapshots are read back with the same parser (`stng_bench::read_snapshot`);
//! the schema is flat and stable on purpose.

use std::time::Instant;
use stng::obs::json::{nu, nu64, obj, s, Json};
use stng::pipeline::Stng;
use stng_bench::{bench_stng, read_snapshot};
use stng_corpus::{all_kernels, CorpusKernel};
use stng_service::batch::{run_batch, BatchOptions};

/// Pass pairs per overhead gate.
const PAIRS: usize = 5;

/// One measured kernel.
struct KernelMeasurement {
    name: String,
    suite: &'static str,
    lift_ms: f64,
    translated: bool,
    soundly_verified: bool,
    cegis_iterations: usize,
    prover_attempts: usize,
    peak_candidates: usize,
    control_bits: usize,
    postcond_nodes: usize,
    capture_ms: f64,
    bounded_ms: f64,
    prove_ms: f64,
    captures: usize,
    oblig_hits: u64,
    oblig_misses: u64,
    core_hits: u64,
    screened: u64,
    survivors: u64,
    batch_scans: u64,
}

fn measure() -> (Vec<KernelMeasurement>, f64) {
    let stng = bench_stng();
    let mut rows = Vec::new();
    let mut total_ms = 0.0;
    for corpus_kernel in all_kernels() {
        // Three repetitions, keep the minimum: lifting is deterministic, so
        // the minimum is the least-noise estimate. The phase and counter
        // columns come from that same fastest repetition.
        let mut best_ms = f64::INFINITY;
        let mut report = None;
        for _ in 0..3 {
            let start = Instant::now();
            let r = stng.lift_source(&corpus_kernel.source);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            if elapsed < best_ms {
                best_ms = elapsed;
                report = r.ok();
            }
        }
        let first = report.as_ref().and_then(|r| r.kernels.first());
        let (translated, soundly, iters) = first
            .map(|k| {
                let (soundly, iters) = match &k.outcome {
                    stng::pipeline::KernelOutcome::Translated {
                        soundly_verified,
                        cegis_iterations,
                        ..
                    } => (*soundly_verified, *cegis_iterations),
                    _ => (false, 0),
                };
                (k.outcome.is_translated(), soundly, iters)
            })
            .unwrap_or((false, false, 0));
        let phase = first.map(|k| k.phase).unwrap_or_default();
        total_ms += best_ms;
        rows.push(KernelMeasurement {
            name: corpus_kernel.name.clone(),
            suite: corpus_kernel.suite.name(),
            lift_ms: best_ms,
            translated,
            soundly_verified: soundly,
            cegis_iterations: iters,
            prover_attempts: first.map(|k| k.prover_attempts).unwrap_or(0),
            peak_candidates: first.map(|k| k.peak_candidates).unwrap_or(0),
            control_bits: first.map(|k| k.control_bits.total()).unwrap_or(0),
            postcond_nodes: first.map(|k| k.postcond_nodes).unwrap_or(0),
            capture_ms: phase.capture_ms(),
            bounded_ms: phase.bounded_ms(),
            prove_ms: phase.prove_ms(),
            captures: phase.captures,
            oblig_hits: phase.oblig_hits,
            oblig_misses: phase.oblig_misses,
            core_hits: phase.core_hits,
            screened: phase.screened,
            survivors: phase.survivors,
            batch_scans: phase.batch_scans,
        });
    }
    (rows, total_ms)
}

/// One corpus pass: every kernel lifted once by `stng`, wall total in ms.
fn corpus_pass(stng: &Stng, corpus: &[CorpusKernel]) -> f64 {
    let start = Instant::now();
    for corpus_kernel in corpus {
        let _ = stng.lift_source(&corpus_kernel.source);
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// An overhead gate's measurement: medians over the pass pairs.
struct Overhead {
    control_ms: f64,
    treated_ms: f64,
    /// Median of the per-pair `treated / control` ratios.
    ratio: f64,
}

/// Measures `treated` against `control` as [`PAIRS`] pass pairs, measured
/// back to back in this run, with the order alternated from pair to pair so
/// host drift within a pair does not favour either side. Prints every pair
/// and the medians. Gating on the median per-pair ratio, not on one pass
/// against one, keeps a single noisy pass on a shared host from failing
/// the gate.
fn overhead(label: &str, control: impl Fn() -> f64, treated: impl Fn() -> f64) -> Overhead {
    let mut pairs = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (c, t) = if pair % 2 == 0 {
            let c = control();
            (c, treated())
        } else {
            let t = treated();
            (control(), t)
        };
        println!(
            "{label} pair {}: control {c:.1} ms, treated {t:.1} ms ({:+.1}%)",
            pair + 1,
            (t / c - 1.0) * 100.0
        );
        pairs.push((c, t));
    }
    let o = Overhead {
        control_ms: median(pairs.iter().map(|p| p.0).collect()),
        treated_ms: median(pairs.iter().map(|p| p.1).collect()),
        ratio: median(pairs.iter().map(|p| p.1 / p.0).collect()),
    };
    println!(
        "{label}: median control {:.1} ms, treated {:.1} ms, median overhead {:.1}%",
        o.control_ms,
        o.treated_ms,
        (o.ratio - 1.0) * 100.0
    );
    o
}

/// A measured value rounded to `places` decimals: the snapshot keeps the
/// precision the measurement has, not every digit of the float.
fn fixed(value: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((value * scale).round() / scale)
}

/// The per-kernel table, keyed by kernel name in corpus order.
fn kernel_table(rows: &[KernelMeasurement]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|row| {
                let fields = obj(vec![
                    ("suite", s(row.suite)),
                    ("lift_ms", fixed(row.lift_ms, 3)),
                    ("translated", Json::Bool(row.translated)),
                    ("soundly_verified", Json::Bool(row.soundly_verified)),
                    ("cegis_iterations", nu(row.cegis_iterations)),
                    ("prover_attempts", nu(row.prover_attempts)),
                    ("peak_candidates", nu(row.peak_candidates)),
                    ("control_bits", nu(row.control_bits)),
                    ("postcond_nodes", nu(row.postcond_nodes)),
                    ("capture_ms", fixed(row.capture_ms, 3)),
                    ("bounded_ms", fixed(row.bounded_ms, 3)),
                    ("prove_ms", fixed(row.prove_ms, 3)),
                    ("captures", nu(row.captures)),
                    ("oblig_hits", nu64(row.oblig_hits)),
                    ("oblig_misses", nu64(row.oblig_misses)),
                    ("core_hits", nu64(row.core_hits)),
                    ("screened", nu64(row.screened)),
                    ("survivors", nu64(row.survivors)),
                    ("batch_scans", nu64(row.batch_scans)),
                ]);
                (row.name.clone(), fields)
            })
            .collect(),
    )
}

/// Cold-vs-warm measurement of the fingerprint cache over the full corpus.
struct CacheMeasurement {
    cold_ms: f64,
    warm_ms: f64,
    warm_hit_rate: f64,
    /// Cache hits during the *cold* pass: the corpus's alpha-variant
    /// kernels deduplicating against their originals.
    cold_dedup_hits: u64,
    /// Every warm-pass report reproduced its cold-pass counterpart.
    parity: bool,
}

fn measure_cache() -> CacheMeasurement {
    let sources = stng_service::batch::corpus_sources();
    let options = BatchOptions {
        passes: 2,
        config: bench_stng().config,
        ..BatchOptions::default()
    };
    let report = run_batch(&sources, &options).expect("memory-only batch cannot fail on IO");
    let cold = &report.passes[0];
    let warm = &report.passes[1];
    let parity = cold.kernels.len() == warm.kernels.len()
        && cold
            .kernels
            .iter()
            .zip(&warm.kernels)
            .all(|(c, w)| c.report.outcome == w.report.outcome);
    CacheMeasurement {
        cold_ms: cold.wall_ms,
        warm_ms: warm.wall_ms,
        warm_hit_rate: warm.cache.hit_rate(),
        cold_dedup_hits: cold.cache.hits,
        parity,
    }
}

fn workspace_root() -> std::path::PathBuf {
    // benches run with the crate as cwd; the workspace root is two levels up.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("bench crate lives at <root>/crates/bench")
        .to_path_buf()
}

/// One corpus pass with the span recorder armed (unless
/// `BENCH_OBS_DISARMED_CONTROL` asks for an A/A control). The ring is reset
/// before and after, so a pass neither inherits nor leaves a full buffer.
fn armed_pass(stng: &Stng, corpus: &[CorpusKernel]) -> f64 {
    stng::obs::recorder::reset();
    if std::env::var("BENCH_OBS_DISARMED_CONTROL").is_err() {
        stng::obs::arm();
    }
    let ms = corpus_pass(stng, corpus);
    stng::obs::disarm();
    stng::obs::recorder::reset();
    ms
}

fn main() {
    let root = workspace_root();
    let (rows, total_ms) = measure();
    let corpus = all_kernels();
    let governed = bench_stng();
    let mut ungoverned = bench_stng();
    ungoverned.budget = stng::guard::Budget::unlimited();
    let governance = overhead(
        "governance (control: ungoverned, treated: governed)",
        || corpus_pass(&ungoverned, &corpus),
        || corpus_pass(&governed, &corpus),
    );

    // The head every snapshot shares; `BENCH_baseline.json` is exactly this.
    let mut snapshot = vec![
        ("schema", nu(1)),
        ("total_lift_ms", fixed(total_ms, 3)),
        (
            "translated",
            nu(rows.iter().filter(|r| r.translated).count()),
        ),
        ("kernels", kernel_table(&rows)),
    ];

    if std::env::var("BENCH_SAVE_BASELINE").is_ok() {
        std::fs::write(
            root.join("BENCH_baseline.json"),
            obj(snapshot.clone()).pretty(),
        )
        .expect("BENCH_baseline.json is writable");
        println!("wrote BENCH_baseline.json (total {total_ms:.1} ms)");
    }

    let cache = measure_cache();
    println!(
        "cache: cold {:.1} ms -> warm {:.1} ms ({:.1}x), warm hit rate {:.1}%, \
         {} cold dedup hit(s), parity {}",
        cache.cold_ms,
        cache.warm_ms,
        cache.cold_ms / cache.warm_ms,
        cache.warm_hit_rate * 100.0,
        cache.cold_dedup_hits,
        if cache.parity { "ok" } else { "BROKEN" },
    );

    let observability = overhead(
        "observability (control: disarmed, treated: armed)",
        || corpus_pass(&governed, &corpus),
        || armed_pass(&governed, &corpus),
    );

    // Layered verification, quick tier (docs/verification.md). Runs after
    // every timing measurement above on purpose: Layer 1 sweeps the
    // prover's global tables between strata, which would leave later lifts
    // cold and perturb the warm-state numbers if it ran earlier.
    let verify_start = Instant::now();
    let verify_report = stng_verify::run(&stng_verify::Options::default());
    let verify_s = verify_start.elapsed().as_secs_f64();
    println!(
        "verification: stng-verify --quick ran {} cases ({} failures) in {verify_s:.1} s",
        verify_report.total_cases(),
        verify_report.total_failures()
    );

    let baseline = std::fs::read_to_string(root.join("BENCH_baseline.json")).ok();
    // Phase breakdown: where checking time goes across the whole corpus,
    // plus the compiled-proving counters (obligation memo and learned-core
    // hits) that explain the prove column.
    let (cap_total, bounded_total, prove_total): (f64, f64, f64) =
        rows.iter().fold((0.0, 0.0, 0.0), |(c, b, p), r| {
            (c + r.capture_ms, b + r.bounded_ms, p + r.prove_ms)
        });
    let (hits_total, misses_total, cores_total) = rows.iter().fold((0, 0, 0), |(h, m, c), r| {
        (h + r.oblig_hits, m + r.oblig_misses, c + r.core_hits)
    });
    let memo_rate = hits_total as f64 / (hits_total + misses_total).max(1) as f64;
    let (screened_total, survivors_total, bscans_total) =
        rows.iter().fold((0, 0, 0), |(s, v, b), r| {
            (s + r.screened, v + r.survivors, b + r.batch_scans)
        });
    snapshot.push((
        "phases",
        obj(vec![
            ("capture_ms", fixed(cap_total, 3)),
            ("bounded_ms", fixed(bounded_total, 3)),
            ("prove_ms", fixed(prove_total, 3)),
            ("oblig_hits", nu64(hits_total)),
            ("oblig_misses", nu64(misses_total)),
            ("core_hits", nu64(cores_total)),
            ("screened", nu64(screened_total)),
            ("survivors", nu64(survivors_total)),
            ("batch_scans", nu64(bscans_total)),
        ]),
    ));
    println!(
        "phase breakdown: capture {cap_total:.1} ms, bounded check {bounded_total:.1} ms, \
         prove {prove_total:.1} ms (of {total_ms:.1} ms total)"
    );
    println!(
        "prover memo: {hits_total} hits / {misses_total} misses ({:.1}% hit rate), \
         {cores_total} learned-core short-circuits",
        memo_rate * 100.0
    );
    println!(
        "bounded screen: {screened_total} candidates screened, {survivors_total} survived \
         to the prover ({:.1}% killed), {bscans_total} batched sweeps",
        (1.0 - survivors_total as f64 / (screened_total as f64).max(1.0)) * 100.0
    );
    snapshot.extend([
        (
            "cache",
            obj(vec![
                ("cold_ms", fixed(cache.cold_ms, 3)),
                ("warm_ms", fixed(cache.warm_ms, 3)),
                ("warm_speedup", fixed(cache.cold_ms / cache.warm_ms, 1)),
                ("warm_hit_rate", fixed(cache.warm_hit_rate, 4)),
                ("cold_dedup_hits", nu64(cache.cold_dedup_hits)),
                ("parity", Json::Bool(cache.parity)),
            ]),
        ),
        (
            "obs",
            obj(vec![
                ("disarmed_total_ms", fixed(observability.control_ms, 3)),
                ("armed_total_ms", fixed(observability.treated_ms, 3)),
                ("overhead_ratio", fixed(observability.ratio, 4)),
            ]),
        ),
        (
            "governance",
            obj(vec![
                ("ungoverned_total_ms", fixed(governance.control_ms, 3)),
                ("governed_total_ms", fixed(governance.treated_ms, 3)),
                ("overhead_ratio", fixed(governance.ratio, 4)),
            ]),
        ),
        (
            "verify",
            obj(vec![
                ("quick_wall_s", fixed(verify_s, 3)),
                ("cases", nu64(verify_report.total_cases())),
                ("failures", nu64(verify_report.total_failures())),
            ]),
        ),
    ]);
    if let Some(base) = &baseline {
        let base_total = read_snapshot(base).map_or(f64::NAN, |b| b.total_lift_ms);
        snapshot.push(("baseline_total_lift_ms", fixed(base_total, 3)));
        snapshot.push(("speedup_vs_baseline", fixed(base_total / total_ms, 3)));
        println!(
            "end-to-end lifting: {total_ms:.1} ms vs baseline {base_total:.1} ms \
             ({:.2}x speedup)",
            base_total / total_ms
        );
    } else {
        println!("end-to-end lifting: {total_ms:.1} ms (no baseline snapshot found)");
    }
    snapshot.push(("source", s("cargo bench --bench bench_json")));
    std::fs::write(root.join("BENCH_9.json"), obj(snapshot).pretty())
        .expect("BENCH_9.json is writable");
    println!("wrote BENCH_9.json");

    let mut failed = false;
    // Regression gates against the previous PR's frozen snapshot:
    // everything that lifted must still lift. The cross-snapshot total is
    // reported for the trajectory but is *informational*: the shared
    // single-core host drifts by well over 5% between sessions, so
    // wall-clock totals are only comparable within one run. (Both overhead
    // gates — observability and governance — are within-run ratios for
    // exactly this reason.)
    let prior = std::fs::read_to_string(root.join("BENCH_8.json")).map(|text| read_snapshot(&text));
    if let Ok(Err(e)) = &prior {
        eprintln!("LIFTING REGRESSION GATE BROKEN: BENCH_8.json does not parse: {e}");
        failed = true;
    }
    if let Ok(Ok(prior)) = prior {
        let must_lift = prior.translated;
        let regressed: Vec<&String> = must_lift
            .iter()
            .filter(|name| !rows.iter().any(|r| &&r.name == name && r.translated))
            .collect();
        if !regressed.is_empty() {
            eprintln!(
                "LIFTING REGRESSION: previously-lifting kernels no longer lift: {regressed:?}"
            );
            failed = true;
        } else {
            println!(
                "lifting regression gate: all {} previously-lifting kernels still lift",
                must_lift.len()
            );
        }
        let prior_total = prior.total_lift_ms;
        println!(
            "cross-snapshot drift (informational): governed corpus {total_ms:.1} ms vs \
             prior snapshot's {prior_total:.1} ms ({:+.1}%)",
            (total_ms / prior_total - 1.0) * 100.0
        );
        // The adaptive bounded 1.5× bounded-phase gate from BENCH_8 is
        // retired here, following the BENCH_6 prove-phase precedent: a
        // one-shot speedup gate proves the optimization landed, then turns
        // into a flakiness source once the win is banked. The bounded phase
        // stays covered by the governance-overhead ratio gate below.
    }
    // Overhead gates, at most 5% in the median pass pair. Governance: the
    // corpus under an armed (but generous) budget against the null
    // unlimited budget — the disarmed-poll-is-free contract from
    // docs/robustness.md. Observability: the armed span recorder against a
    // disarmed pass — the always-compiled-tracing contract, so recording
    // stays cheap enough to switch on in production batches.
    for (gate, o) in [
        ("GOVERNANCE", &governance),
        ("OBSERVABILITY", &observability),
    ] {
        if o.ratio > 1.05 {
            eprintln!(
                "{gate} OVERHEAD REGRESSION: median treated/control pass ratio {:.3} > 1.05",
                o.ratio
            );
            failed = true;
        } else {
            println!(
                "{} overhead gate: median treated/control pass ratio {:.3} <= 1.05",
                gate.to_lowercase(),
                o.ratio
            );
        }
    }
    // Cache gate: a warm full-corpus pass must hit on every lookup and
    // reproduce the cold reports exactly.
    if cache.warm_hit_rate < 1.0 {
        eprintln!(
            "CACHE REGRESSION: warm hit rate {:.1}% < 100%",
            cache.warm_hit_rate * 100.0
        );
        failed = true;
    }
    if !cache.parity {
        eprintln!("CACHE REGRESSION: a warm hit did not reproduce the cold report");
        failed = true;
    }
    // Capture-reuse gate: every soundly verified kernel went through the
    // CEGIS check session, which captures every (size, trial) unit exactly
    // once, on its first screen. A counter other than the full
    // `grid_sizes × trials_per_size` product means the per-session reuse
    // invariant silently regressed (per-candidate capture, or a unit
    // skipped).
    let bounded = bench_stng().config.bounded;
    let units = bounded.grid_sizes.len() * bounded.trials_per_size;
    let bad_captures: Vec<String> = rows
        .iter()
        .filter(|r| r.translated && r.soundly_verified && r.peak_candidates > 0)
        .filter(|r| r.captures != units)
        .map(|r| format!("{} (captures {}, expected {units})", r.name, r.captures))
        .collect();
    if bad_captures.is_empty() {
        println!(
            "capture-reuse gate: every soundly verified kernel captured all {units} units \
             exactly once"
        );
    } else {
        eprintln!("CAPTURE-REUSE REGRESSION: {bad_captures:?}");
        failed = true;
    }
    // Verification-cost gate: the quick tier of the layered soundness
    // harness is the per-PR CI gate (`verify-quick`), so it must both pass
    // and stay cheap — within a 30 s single-core wall budget. A sweep that
    // silently grows past that stops being a gate anyone waits for.
    if verify_report.total_failures() > 0 {
        eprintln!(
            "VERIFICATION REGRESSION: stng-verify --quick reported {} failure(s) \
             across {} cases",
            verify_report.total_failures(),
            verify_report.total_cases()
        );
        failed = true;
    }
    if verify_s > 30.0 {
        eprintln!(
            "VERIFICATION COST REGRESSION: stng-verify --quick took {verify_s:.1} s \
             > its 30 s single-core wall budget"
        );
        failed = true;
    } else if verify_report.total_failures() == 0 {
        println!(
            "verification cost gate: stng-verify --quick passed {} cases in \
             {verify_s:.1} s (gate <= 30 s)",
            verify_report.total_cases()
        );
    }
    if failed {
        std::process::exit(1);
    }
}

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
//! measured back to back in the same run (cross-snapshot wall-clock
//! comparisons drift with the shared host and are now informational only),
//! re-lifting the corpus with the span recorder **armed** must cost at most
//! 5% over the disarmed run (observability must stay close to free even
//! when switched on), and — new with the layered verification harness —
//! the full `stng-verify --quick` sweep must pass and finish within its
//! 30 s single-core wall budget, so the per-PR verification gate stays
//! cheap; otherwise the process exits non-zero, which fails the CI jobs.
//! The one-shot speedup gates from earlier snapshots (the compiled-proving
//! 1.5× prove-phase gate from BENCH_6, the adaptive bounded 1.5×
//! bounded-phase gate from BENCH_8) served their purpose and are retired;
//! both phases stay covered by the 5% total-time gate.
//!
//! The JSON is emitted by hand (no serde in the offline build environment);
//! the schema is flat and stable on purpose.

use std::fmt::Write as _;
use std::time::Instant;
use stng_bench::bench_stng;
use stng_corpus::all_kernels;
use stng_service::batch::{run_batch, BatchOptions};

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

/// Total corpus lift time with the null `Budget::unlimited()` handle —
/// the disarmed single-`Option`-check poll — under the same min-of-3
/// protocol as `measure`. This is the *within-run* control for the
/// governance-overhead gate: comparing against a frozen snapshot's total
/// conflates governance cost with host-speed drift (the shared
/// single-core VM varies by well over 5% between sessions), while the
/// governed/ungoverned ratio measured back to back on the same machine
/// state isolates exactly the bookkeeping the gate is about.
fn measure_ungoverned_total() -> f64 {
    let mut stng = bench_stng();
    stng.budget = stng::guard::Budget::unlimited();
    let mut total_ms = 0.0;
    for corpus_kernel in all_kernels() {
        let mut best_ms = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let _ = stng.lift_source(&corpus_kernel.source);
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
        total_ms += best_ms;
    }
    total_ms
}

fn kernels_json(rows: &[KernelMeasurement]) -> String {
    let mut out = String::from("{");
    for (k, row) in rows.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n    \"{}\": {{\"suite\": \"{}\", \"lift_ms\": {:.3}, \"translated\": {}, \
             \"soundly_verified\": {}, \"cegis_iterations\": {}, \"prover_attempts\": {}, \
             \"peak_candidates\": {}, \"control_bits\": {}, \"postcond_nodes\": {}, \
             \"capture_ms\": {:.3}, \"bounded_ms\": {:.3}, \"prove_ms\": {:.3}, \
             \"captures\": {}, \"oblig_hits\": {}, \"oblig_misses\": {}, \
             \"core_hits\": {}, \"screened\": {}, \"survivors\": {}, \
             \"batch_scans\": {}}}",
            row.name,
            row.suite,
            row.lift_ms,
            row.translated,
            row.soundly_verified,
            row.cegis_iterations,
            row.prover_attempts,
            row.peak_candidates,
            row.control_bits,
            row.postcond_nodes,
            row.capture_ms,
            row.bounded_ms,
            row.prove_ms,
            row.captures,
            row.oblig_hits,
            row.oblig_misses,
            row.core_hits,
            row.screened,
            row.survivors,
            row.batch_scans,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n  }");
    out
}

/// Extracts `"total_lift_ms": <number>` from a previously written snapshot.
fn parse_total(json: &str) -> Option<f64> {
    let key = "\"total_lift_ms\": ";
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Names of the kernels recorded as translated in a previous snapshot (one
/// `"name": {… "translated": true …}` entry per line, as this emitter
/// writes them).
fn previously_lifting(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim_start();
        if !line.starts_with('"') || !line.contains("\"translated\": true") {
            continue;
        }
        if let Some(name) = line[1..].split('"').next() {
            out.push(name.to_string());
        }
    }
    out
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

/// Re-lifts the whole corpus with the span recorder armed and returns the
/// armed wall-clock total, for the observability-overhead gate. The ring is
/// reset first so the run cannot inherit a partially full buffer, and
/// disarmed (plus reset again) afterwards so later measurements are clean.
fn measure_armed() -> f64 {
    stng::obs::recorder::reset();
    if std::env::var("BENCH_OBS_DISARMED_CONTROL").is_err() {
        stng::obs::arm();
    }
    let (_, armed_total_ms) = measure();
    stng::obs::disarm();
    stng::obs::recorder::reset();
    armed_total_ms
}

fn main() {
    let root = workspace_root();
    let (rows, total_ms) = measure();
    let ungoverned_total_ms = measure_ungoverned_total();
    let gov_overhead = total_ms / ungoverned_total_ms;
    println!(
        "governance: ungoverned {ungoverned_total_ms:.1} ms -> governed {total_ms:.1} ms \
         ({:.1}% overhead)",
        (gov_overhead - 1.0) * 100.0
    );

    let snapshot = format!(
        "{{\n  \"schema\": 1,\n  \"total_lift_ms\": {:.3},\n  \"translated\": {},\n  \"kernels\": {}\n}}\n",
        total_ms,
        rows.iter().filter(|r| r.translated).count(),
        kernels_json(&rows)
    );

    if std::env::var("BENCH_SAVE_BASELINE").is_ok() {
        std::fs::write(root.join("BENCH_baseline.json"), &snapshot)
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

    let armed_total_ms = measure_armed();
    let obs_overhead = armed_total_ms / total_ms;
    println!(
        "observability: disarmed {total_ms:.1} ms -> armed {armed_total_ms:.1} ms \
         ({:.1}% overhead)",
        (obs_overhead - 1.0) * 100.0
    );

    // Layered verification, quick tier (docs/verification.md). Runs after
    // every timing measurement above on purpose: Layer 1 sweeps the global
    // Fourier–Motzkin memo tables via `retain_epoch`, which would perturb
    // the warm-state numbers if it ran earlier.
    let verify_start = Instant::now();
    let verify_report = stng_verify::run(&stng_verify::Options::default());
    let verify_s = verify_start.elapsed().as_secs_f64();
    println!(
        "verification: stng-verify --quick ran {} cases ({} failures) in {verify_s:.1} s",
        verify_report.total_cases(),
        verify_report.total_failures()
    );

    let baseline = std::fs::read_to_string(root.join("BENCH_baseline.json")).ok();
    let mut out = String::from("{\n  \"schema\": 1,\n");
    write!(
        out,
        "  \"total_lift_ms\": {:.3},\n  \"translated\": {},\n  \"kernels\": {},\n",
        total_ms,
        rows.iter().filter(|r| r.translated).count(),
        kernels_json(&rows)
    )
    .expect("writing to a String cannot fail");
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
    writeln!(
        out,
        "  \"phases\": {{\"capture_ms\": {cap_total:.3}, \"bounded_ms\": {bounded_total:.3}, \
         \"prove_ms\": {prove_total:.3}, \"oblig_hits\": {hits_total}, \
         \"oblig_misses\": {misses_total}, \"core_hits\": {cores_total}, \
         \"screened\": {screened_total}, \"survivors\": {survivors_total}, \
         \"batch_scans\": {bscans_total}}},",
    )
    .expect("writing to a String cannot fail");
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
    writeln!(
        out,
        "  \"cache\": {{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"warm_speedup\": {:.1}, \
         \"warm_hit_rate\": {:.4}, \"cold_dedup_hits\": {}, \"parity\": {}}},",
        cache.cold_ms,
        cache.warm_ms,
        cache.cold_ms / cache.warm_ms,
        cache.warm_hit_rate,
        cache.cold_dedup_hits,
        cache.parity,
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "  \"obs\": {{\"disarmed_total_ms\": {total_ms:.3}, \
         \"armed_total_ms\": {armed_total_ms:.3}, \"overhead_ratio\": {obs_overhead:.4}}},",
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "  \"governance\": {{\"ungoverned_total_ms\": {ungoverned_total_ms:.3}, \
         \"governed_total_ms\": {total_ms:.3}, \"overhead_ratio\": {gov_overhead:.4}}},",
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "  \"verify\": {{\"quick_wall_s\": {verify_s:.3}, \"cases\": {}, \"failures\": {}}},",
        verify_report.total_cases(),
        verify_report.total_failures()
    )
    .expect("writing to a String cannot fail");
    if let Some(base) = &baseline {
        let base_total = parse_total(base).unwrap_or(f64::NAN);
        write!(
            out,
            "  \"baseline_total_lift_ms\": {:.3},\n  \"speedup_vs_baseline\": {:.3},\n",
            base_total,
            base_total / total_ms
        )
        .expect("writing to a String cannot fail");
        println!(
            "end-to-end lifting: {total_ms:.1} ms vs baseline {base_total:.1} ms \
             ({:.2}x speedup)",
            base_total / total_ms
        );
    } else {
        println!("end-to-end lifting: {total_ms:.1} ms (no baseline snapshot found)");
    }
    out.push_str("  \"source\": \"cargo bench --bench bench_json\"\n}\n");
    std::fs::write(root.join("BENCH_9.json"), out).expect("BENCH_9.json is writable");
    println!("wrote BENCH_9.json");

    let mut failed = false;
    // Regression gates against the previous PR's frozen snapshot:
    // everything that lifted must still lift. The cross-snapshot total is
    // reported for the trajectory but is *informational*: the shared
    // single-core host drifts by well over 5% between sessions, so
    // wall-clock totals are only comparable within one run. (Both overhead
    // gates — observability and governance — are within-run ratios for
    // exactly this reason.)
    if let Ok(prior) = std::fs::read_to_string(root.join("BENCH_8.json")) {
        let must_lift = previously_lifting(&prior);
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
        if let Some(prior_total) = parse_total(&prior) {
            println!(
                "cross-snapshot drift (informational): governed corpus {total_ms:.1} ms vs \
                 prior snapshot's {prior_total:.1} ms ({:+.1}%)",
                (total_ms / prior_total - 1.0) * 100.0
            );
        }
        // The adaptive bounded 1.5× bounded-phase gate from BENCH_8 is
        // retired here, following the BENCH_6 prove-phase precedent: a
        // one-shot speedup gate proves the optimization landed, then turns
        // into a flakiness source once the win is banked. The bounded phase
        // stays covered by the governance-overhead ratio gate below.
    }
    // Governance-overhead gate: lifting the corpus under an armed (but
    // generous) budget must cost at most 5% over the same corpus lifted
    // with the null unlimited budget, measured back to back in this run.
    // This is the disarmed-poll-is-free contract from docs/robustness.md.
    if gov_overhead > 1.05 {
        eprintln!(
            "GOVERNANCE OVERHEAD REGRESSION: governed corpus took {total_ms:.1} ms \
             > 105% of the ungoverned control's {ungoverned_total_ms:.1} ms"
        );
        failed = true;
    } else {
        println!(
            "governance overhead gate: governed corpus {total_ms:.1} ms within 5% \
             of ungoverned {ungoverned_total_ms:.1} ms"
        );
    }
    // Observability-overhead gate: the armed recorder must cost at most 5%
    // over the disarmed run. This is the always-compiled-tracing contract —
    // span recording stays cheap enough to switch on in production batches.
    if armed_total_ms > total_ms * 1.05 {
        eprintln!(
            "OBSERVABILITY OVERHEAD REGRESSION: armed corpus took {armed_total_ms:.1} ms \
             > 105% of the disarmed run's {total_ms:.1} ms"
        );
        failed = true;
    } else {
        println!(
            "observability overhead gate: armed corpus {armed_total_ms:.1} ms within 5% \
             of disarmed {total_ms:.1} ms"
        );
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

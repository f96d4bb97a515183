//! `stng-batch`: batch lifting driver over the fingerprint-keyed cache.
//!
//! ```text
//! stng-batch --corpus --passes 2 --check-warm
//! stng-batch --dir legacy/src --cache-dir .stng-cache --json report.json
//! stng-batch --manifest kernels.txt --no-sweep --threads 4
//! ```
//!
//! Flags:
//!
//! * `--corpus` — lift the built-in benchmark corpus (default when no
//!   source option is given).
//! * `--dir <path>` — lift every file in a directory (non-recursive).
//! * `--manifest <path>` — lift the files listed in a manifest (one path
//!   per line, `#` comments).
//! * `--passes <n>` — number of passes over the sources (default 1; pass
//!   2+ exercises the warm cache).
//! * `--cache-dir <path>` — enable the persistent disk tier.
//! * `--mem-capacity <n>` — memory-tier capacity in entries (default 4096).
//! * `--threads <n>` — lifting worker threads (default: all cores).
//! * `--no-sweep` — keep the expression arenas between passes.
//! * `--profile` — print a per-kernel phase-breakdown table for the final
//!   pass (capture / bounded / prove times plus the prover's obligation-memo
//!   and learned-core hit rates, the bounded screen's
//!   screened/survivor/batch-sweep counters, and whether the cache served
//!   the row), so prover and screen wins are visible without parsing the
//!   JSON report.
//! * `--json <path>` — write the full per-kernel report as JSON.
//! * `--trace-out <path>` — arm the span recorder for the whole batch and
//!   write a Chrome trace-event JSON file (loadable in Perfetto /
//!   `chrome://tracing`, one track per worker thread). The written trace is
//!   self-validated: it must parse and carry a `lift.kernel` span for every
//!   translated kernel.
//! * `--metrics-json <path>` — write a snapshot of the metrics registry
//!   (counters, time accumulators, arena gauges, histograms) as JSON.
//! * `--deadline-ms <n>` — wall-clock budget for the whole batch; once it
//!   is gone, remaining kernels report as timed out instead of running.
//! * `--kernel-timeout-ms <n>` — wall-clock budget per source, doubled on
//!   each retry.
//! * `--retries <n>` — re-lift a source that crashed or was cut short by
//!   its per-source budget, with the budget doubled each attempt.
//! * `--check-warm` — exit non-zero unless the final pass had a 100% cache
//!   hit rate, ran faster than the first, and reproduced the first pass's
//!   outcomes exactly (requires `--passes >= 2`). This is the CI
//!   cache-smoke gate.

use std::process::ExitCode;
use stng::memory;
use stng_service::batch::{self, BatchOptions, BatchSource};

struct Args {
    sources: Vec<BatchSource>,
    options: BatchOptions,
    json_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
    check_warm: bool,
    profile: bool,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("stng-batch: {err}");
    eprintln!(
        "usage: stng-batch [--corpus | --dir <path> | --manifest <path>] \
         [--passes <n>] [--cache-dir <path>] [--mem-capacity <n>] \
         [--threads <n>] [--no-sweep] [--profile] [--json <path>] \
         [--trace-out <path>] [--metrics-json <path>] \
         [--check-warm] [--deadline-ms <n>] [--kernel-timeout-ms <n>] \
         [--retries <n>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut sources: Option<Vec<BatchSource>> = None;
    let mut options = BatchOptions::default();
    let mut json_out = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut check_warm = false;
    let mut profile = false;

    let next_value = |flag: &str, raw: &mut dyn Iterator<Item = String>| {
        raw.next().ok_or(format!("{flag} requires a value"))
    };

    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--corpus" => sources = Some(batch::corpus_sources()),
            "--dir" => {
                let dir = next_value("--dir", &mut raw)?;
                sources = Some(
                    batch::dir_sources(std::path::Path::new(&dir))
                        .map_err(|e| format!("--dir {dir}: {e}"))?,
                );
            }
            "--manifest" => {
                let path = next_value("--manifest", &mut raw)?;
                sources = Some(
                    batch::manifest_sources(std::path::Path::new(&path))
                        .map_err(|e| format!("--manifest {path}: {e}"))?,
                );
            }
            "--passes" => {
                options.passes = next_value("--passes", &mut raw)?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?;
                if options.passes == 0 {
                    return Err("--passes must be at least 1".to_string());
                }
            }
            "--cache-dir" => {
                options.cache_dir = Some(next_value("--cache-dir", &mut raw)?.into());
            }
            "--mem-capacity" => {
                options.mem_capacity = next_value("--mem-capacity", &mut raw)?
                    .parse()
                    .map_err(|e| format!("--mem-capacity: {e}"))?;
            }
            "--threads" => {
                options.threads = next_value("--threads", &mut raw)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--deadline-ms" => {
                options.deadline_ms = Some(
                    next_value("--deadline-ms", &mut raw)?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--kernel-timeout-ms" => {
                options.kernel_timeout_ms = Some(
                    next_value("--kernel-timeout-ms", &mut raw)?
                        .parse()
                        .map_err(|e| format!("--kernel-timeout-ms: {e}"))?,
                );
            }
            "--retries" => {
                options.retries = next_value("--retries", &mut raw)?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--no-sweep" => options.sweep_between = false,
            "--profile" => profile = true,
            "--json" => json_out = Some(next_value("--json", &mut raw)?.into()),
            "--trace-out" => trace_out = Some(next_value("--trace-out", &mut raw)?.into()),
            "--metrics-json" => metrics_out = Some(next_value("--metrics-json", &mut raw)?.into()),
            "--check-warm" => check_warm = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    if check_warm && options.passes < 2 {
        return Err("--check-warm requires --passes >= 2".to_string());
    }
    Ok(Args {
        sources: sources.unwrap_or_else(batch::corpus_sources),
        options,
        json_out,
        trace_out,
        metrics_out,
        check_warm,
        profile,
    })
}

/// `--profile`: per-kernel phase breakdown of the final pass. Cache-served
/// rows replay the original lift's phase counters, so on a warm pass the
/// table shows what the lift cost when it actually ran.
fn print_profile(pass: &stng_service::batch::BatchPass) {
    println!(
        "\nprofile (pass {}): per-kernel phase breakdown\n\
         {:<24} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>6}",
        pass.number,
        "kernel",
        "lift_ms",
        "capt_ms",
        "bound_ms",
        "prove_ms",
        "memo%",
        "oblig",
        "cores",
        "screen",
        "surv",
        "bscan",
        "cached"
    );
    let mut total = stng_synth::PhaseTimings::default();
    let mut total_lift_ms = 0.0f64;
    let mut total_cached = 0usize;
    for k in &pass.kernels {
        let p = &k.report.phase;
        let rate = p
            .oblig_hit_rate()
            .map(|r| format!("{:.1}", r * 100.0))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<24} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>6}",
            k.kernel_name,
            k.lift_ms,
            p.capture_ms(),
            p.bounded_ms(),
            p.prove_ms(),
            rate,
            p.oblig_hits + p.oblig_misses,
            p.core_hits,
            p.screened,
            p.survivors,
            p.batch_scans,
            if k.report.cached { "yes" } else { "no" },
        );
        total_lift_ms += k.lift_ms;
        total_cached += k.report.cached as usize;
        total.absorb(p);
    }
    let rate = total
        .oblig_hit_rate()
        .map(|r| format!("{:.1}", r * 100.0))
        .unwrap_or_else(|| "-".to_string());
    println!(
        "{:<24} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>6}",
        "total",
        total_lift_ms,
        total.capture_ms(),
        total.bounded_ms(),
        total.prove_ms(),
        rate,
        total.oblig_hits + total.oblig_misses,
        total.core_hits,
        total.screened,
        total.survivors,
        total.batch_scans,
        format!("{}/{}", total_cached, pass.kernels.len()),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    if args.sources.is_empty() {
        return usage("no sources to lift");
    }
    println!(
        "stng-batch: {} sources, {} pass(es), {} worker thread(s), cache {} (mem {} entries){}",
        args.sources.len(),
        args.options.passes,
        args.options.threads,
        match &args.options.cache_dir {
            Some(dir) => format!("mem+disk @ {}", dir.display()),
            None => "mem-only".to_string(),
        },
        args.options.mem_capacity,
        if args.options.sweep_between {
            ", sweeping arenas between passes"
        } else {
            ""
        },
    );

    // Arm the span recorder for the whole run: every pass, including warm
    // ones, then contributes `lift.kernel` spans to the exported trace.
    if args.trace_out.is_some() {
        stng::obs::recorder::reset();
        stng::obs::arm();
    }

    let report = match batch::run_batch(&args.sources, &args.options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stng-batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace_out.is_some() {
        stng::obs::disarm();
    }

    for pass in &report.passes {
        let (translated, degraded, untranslated, timeout, crashed) = pass.summary();
        println!(
            "pass {}: {:.1} ms, {}/{} kernels translated, cache {} hits / {} misses \
             ({:.1}% hit rate, {} from disk), arenas {} entries -> swept {} -> {} entries",
            pass.number,
            pass.wall_ms,
            translated + degraded,
            pass.kernels.len(),
            pass.cache.hits,
            pass.cache.misses,
            pass.cache.hit_rate() * 100.0,
            pass.cache.disk_hits,
            pass.arena_entries_before_sweep,
            pass.sweep.map(|s| s.evicted).unwrap_or(0),
            pass.arena_entries_after_sweep,
        );
        // Degradation summary: only printed when governance actually bit,
        // so the zero-fault, unlimited-budget output is unchanged.
        if degraded + timeout + crashed > 0 {
            println!(
                "  degradation: {degraded} degraded (bounded-validated only), \
                 {timeout} timed out, {crashed} crashed, {untranslated} untranslated"
            );
        }
        if pass.cache.quarantined + pass.cache.io_retries > 0 {
            println!(
                "  disk faults: {} entr(ies) quarantined, {} read retr(ies)",
                pass.cache.quarantined, pass.cache.io_retries
            );
        }
    }
    if args.profile {
        if let Some(pass) = report.passes.last() {
            print_profile(pass);
        }
    }
    for stat in memory::arena_stats() {
        println!(
            "  arena {:<16} {:>8} entries  ~{} bytes",
            stat.name, stat.entries, stat.approx_bytes
        );
    }

    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, report.to_json().to_string() + "\n") {
            eprintln!("stng-batch: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.trace_out {
        if let Err(e) = write_trace(path, &report) {
            eprintln!("stng-batch: trace export: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.metrics_out {
        // Publish the interner/expression arena occupancy as gauges right
        // before the snapshot, so the metrics file carries the same numbers
        // the table above printed.
        for stat in memory::arena_stats() {
            let entries = stng::obs::metrics::register_dynamic(
                &format!("arena.{}.entries", stat.name),
                stng::obs::metrics::MetricKind::Gauge,
            );
            entries.set(stat.entries as u64);
            let bytes = stng::obs::metrics::register_dynamic(
                &format!("arena.{}.approx_bytes", stat.name),
                stng::obs::metrics::MetricKind::Gauge,
            );
            bytes.set(stat.approx_bytes as u64);
        }
        let snapshot = stng::obs::metrics::snapshot_json();
        if let Err(e) = std::fs::write(path, snapshot + "\n") {
            eprintln!("stng-batch: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if args.check_warm {
        return check_warm_gate(&report);
    }
    ExitCode::SUCCESS
}

/// `--trace-out`: export the recorded spans as Chrome trace-event JSON and
/// self-validate the file — it must parse back, and every kernel the batch
/// translated must have left at least one `lift.kernel` span. A trace that
/// silently dropped a kernel's spans is worse than no trace, so validation
/// failure fails the run.
fn write_trace(path: &std::path::Path, report: &stng_service::BatchReport) -> Result<(), String> {
    let threads = stng::obs::recorder::snapshot();
    let trace = stng::obs::chrome::trace_json(&threads);
    std::fs::write(path, &trace).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let reread =
        std::fs::read_to_string(path).map_err(|e| format!("rereading {}: {e}", path.display()))?;
    stng_service::json::Json::parse(&reread)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;

    let lifted: Vec<&'static str> = stng::obs::chrome::span_details(&threads, "lift.kernel");
    let mut missing = Vec::new();
    for pass in &report.passes {
        for k in &pass.kernels {
            if k.report.outcome.is_translated() && !lifted.contains(&k.report.name.as_str()) {
                missing.push(k.kernel_name.as_str());
            }
        }
    }
    missing.sort_unstable();
    missing.dedup();
    if !missing.is_empty() {
        return Err(format!(
            "{} translated kernel(s) left no lift.kernel span: {}",
            missing.len(),
            missing.join(", ")
        ));
    }

    let spans: usize = threads.len();
    println!(
        "wrote {} ({} thread track(s), {} lift.kernel span(s), all translated kernels covered)",
        path.display(),
        spans,
        lifted.len()
    );
    Ok(())
}

/// The CI cache-smoke gate: the warm (final) pass must hit on every lookup,
/// be faster than the cold (first) pass, and reproduce its outcomes.
fn check_warm_gate(report: &stng_service::BatchReport) -> ExitCode {
    let cold = report.passes.first().expect("passes >= 2 checked at parse");
    let warm = report.passes.last().expect("passes >= 2 checked at parse");
    let mut failures = Vec::new();

    if warm.cache.misses > 0 {
        failures.push(format!(
            "warm pass missed the cache {} time(s) (hit rate {:.1}% < 100%)",
            warm.cache.misses,
            warm.cache.hit_rate() * 100.0
        ));
    }
    if warm.cache.hits == 0 {
        // Distinguish "every lookup hit" from "nothing ever consulted the
        // cache" — a batch whose kernels all fail before fingerprinting
        // would otherwise pass the gate vacuously.
        failures.push("warm pass generated no cache lookups at all".to_string());
    }
    // The timing comparison only means something when pass 1 actually paid
    // for synthesis. With a pre-populated --cache-dir the first pass is
    // already warm (mostly hits), and warm-vs-warm wall time is a coin flip
    // — skip the check rather than fail spuriously.
    if cold.cache.hit_rate() < 0.5 {
        if warm.wall_ms >= cold.wall_ms {
            failures.push(format!(
                "warm pass was not faster than cold ({:.1} ms >= {:.1} ms)",
                warm.wall_ms, cold.wall_ms
            ));
        }
    } else {
        println!(
            "cache-smoke: first pass was already {:.0}% warm (pre-populated cache dir); \
             skipping the cold-vs-warm timing check",
            cold.cache.hit_rate() * 100.0
        );
    }
    if cold.kernels.len() != warm.kernels.len() {
        failures.push(format!(
            "kernel counts differ between passes ({} vs {})",
            cold.kernels.len(),
            warm.kernels.len()
        ));
    } else {
        for (c, w) in cold.kernels.iter().zip(&warm.kernels) {
            if c.report.outcome != w.report.outcome {
                failures.push(format!(
                    "outcome drift on {}: warm hit does not reproduce the cold report",
                    c.kernel_name
                ));
            }
        }
    }

    if failures.is_empty() {
        println!(
            "cache-smoke gate: warm pass 100% hits, {:.2}x faster than cold, outcomes identical",
            cold.wall_ms / warm.wall_ms
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("CACHE-SMOKE FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

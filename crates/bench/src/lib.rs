//! Shared measurement harness for the benchmark suite: everything needed to
//! regenerate the paper's tables from the corpus.
//!
//! The binaries under `benches/` print the regenerated tables and use
//! Criterion to time representative kernels; the heavy lifting (pun intended)
//! lives here so integration tests can reuse it.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use stng::obs::json::Json;
use stng::pipeline::{KernelOutcome, KernelReport, Stng};
use stng::translate::StencilSummary;
use stng_corpus::CorpusKernel;
use stng_halide::autotune::Autotuner;
use stng_halide::buffer::Buffer;
use stng_halide::gpu::GpuModel;
use stng_halide::schedule::{realize, Schedule};
use stng_ir::autopar::AutoParModel;
use stng_ir::interp::{run_kernel, ArrayData, State};
use stng_ir::ir::{Kernel, ParamKind};
use stng_sym::choose_small_bounds;

/// One row of the regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Suite name.
    pub suite: &'static str,
    /// Kernel name.
    pub kernel: String,
    /// Speedup of tuned mini-Halide over the original interpreter.
    pub halide_speedup: f64,
    /// Modelled auto-parallelizing-compiler speedup on the original code.
    pub icc_before: f64,
    /// Modelled auto-parallelizing-compiler speedup on the regenerated code.
    pub icc_after: f64,
    /// Modelled GPU speedup including transfers.
    pub gpu_speedup: f64,
    /// Modelled GPU speedup excluding transfers.
    pub gpu_no_transfer: f64,
    /// Synthesis time in seconds.
    pub synth_time_s: f64,
    /// Control bits of the synthesis encoding.
    pub control_bits: usize,
    /// Postcondition AST nodes.
    pub ast_nodes: usize,
    /// Whether the summary carries a full soundness proof.
    pub soundly_verified: bool,
}

/// Aggregate classification counts for one suite (Table 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table2Row {
    /// Loops flagged as candidates.
    pub candidates: usize,
    /// Candidates successfully lifted.
    pub translated: usize,
    /// Candidates that are stencils but failed to lift.
    pub untranslated_stencils: usize,
    /// Candidates that are not stencils (and failed to lift).
    pub non_stencils: usize,
}

/// Lifts a corpus kernel and returns its report (first candidate fragment).
pub fn lift(corpus_kernel: &CorpusKernel, stng: &Stng) -> Option<(KernelReport, Kernel)> {
    let report = stng.lift_source(&corpus_kernel.source).ok()?;
    let kernel_report = report.kernels.into_iter().next()?;
    let kernel = kernel_report.kernel.clone()?;
    Some((kernel_report, kernel))
}

/// Builds an f64 machine state for a kernel at the given grid size, with
/// deterministic pseudo-random contents.
pub fn performance_state(kernel: &Kernel, grid: i64) -> State<f64> {
    let bounds = choose_small_bounds(kernel, grid);
    let mut state: State<f64> = State::new();
    for (name, value) in &bounds {
        state.set_int(name.clone(), *value);
    }
    for (k, name) in kernel.real_params().into_iter().enumerate() {
        state.set_real(name, 0.5 + 0.25 * k as f64);
    }
    for param in &kernel.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut concrete = Vec::new();
            for (lo, hi) in dims {
                let lo = stng_ir::interp::eval_int_expr(lo, &state).expect("bound evaluates");
                let hi = stng_ir::interp::eval_int_expr(hi, &state).expect("bound evaluates");
                concrete.push((lo, hi));
            }
            let array = ArrayData::from_fn(concrete, |idx| {
                let mut h = 1.0f64;
                for (d, v) in idx.iter().enumerate() {
                    h += (*v as f64) * 0.37 * (d as f64 + 1.0);
                }
                (h * 1103.5).sin() * 0.5 + 1.0
            });
            state.set_array(param.name.clone(), array);
        }
    }
    state
}

/// Measures the original kernel (the "gfortran" baseline of Table 1): one
/// interpreted execution over the performance state.
pub fn measure_original(kernel: &Kernel, state: &State<f64>) -> Duration {
    let mut run_state = state.clone();
    let start = Instant::now();
    run_kernel(kernel, &mut run_state).expect("original kernel executes");
    let elapsed = start.elapsed();
    std::hint::black_box(run_state);
    elapsed.max(Duration::from_micros(1))
}

/// Measures the lifted summary under a tuned schedule and returns the wall
/// time together with the modelled GPU execution.
pub fn measure_halide(
    summary: &StencilSummary,
    kernel: &Kernel,
    state: &State<f64>,
    tune_budget: usize,
) -> (Duration, Duration, Duration) {
    let int_params: HashMap<String, i64> = state.ints.clone();
    let params: HashMap<String, f64> = state.reals.clone();
    let mut total = Duration::ZERO;
    let mut gpu_total = Duration::ZERO;
    let mut gpu_kernel_only = Duration::ZERO;
    let gpu = GpuModel::default();
    for (k, (func, _)) in summary.funcs.iter().enumerate() {
        let region = summary
            .region(k, &int_params)
            .expect("region evaluates from the kernel's integer parameters");
        // Inputs: every image the function reads, taken from the state.
        let mut buffers: HashMap<String, Buffer> = HashMap::new();
        for image in func.expr.images() {
            let arr = state.array(&image).expect("input array bound");
            let origin: Vec<i64> = arr.dims.iter().map(|d| d.0).collect();
            let extent: Vec<usize> = arr.dims.iter().map(|d| (d.1 - d.0 + 1) as usize).collect();
            let buffer = Buffer {
                step: vec![1; origin.len()],
                origin,
                extent,
                data: arr.data.clone(),
            };
            buffers.insert(image, buffer);
        }
        let inputs: HashMap<String, &Buffer> =
            buffers.iter().map(|(k, v)| (k.clone(), v)).collect();
        let schedule = if tune_budget > 0 {
            Autotuner::with_budget(tune_budget)
                .tune(func, &region, &inputs, &params)
                .best
        } else {
            Schedule::default_tuned(func.rank, 4)
        };
        let start = Instant::now();
        let out = realize(func, &schedule, &region, &inputs, &params);
        total += start.elapsed();
        let points = out.len();
        std::hint::black_box(out);
        let gpu_run = gpu.run(func, points, &inputs);
        gpu_total += gpu_run.total();
        gpu_kernel_only += gpu_run.kernel_time;
    }
    let _ = kernel;
    (
        total.max(Duration::from_micros(1)),
        gpu_total.max(Duration::from_nanos(1)),
        gpu_kernel_only.max(Duration::from_nanos(1)),
    )
}

/// Produces one Table 1 row for a corpus kernel, or `None` when the kernel
/// does not lift (such kernels appear in Table 2 only).
pub fn table1_row(
    corpus_kernel: &CorpusKernel,
    stng: &Stng,
    tune_budget: usize,
) -> Option<Table1Row> {
    let (report, kernel) = lift(corpus_kernel, stng)?;
    let KernelOutcome::Translated {
        summary,
        soundly_verified,
        ..
    } = &report.outcome
    else {
        return None;
    };
    let state = performance_state(&kernel, corpus_kernel.grid);
    let original = measure_original(&kernel, &state);
    let (halide, gpu_total, gpu_kernel) = measure_halide(summary, &kernel, &state, tune_budget);

    let autopar = AutoParModel::default();
    let before = autopar.analyze(&kernel).speedup;
    // The regenerated code is a clean, perfectly-nested loop over the output
    // region: the modelled compiler always parallelizes it.
    let clean_outcome = AutoParModel::default();
    let after = clean_outcome.cores as f64 * clean_outcome.efficiency
        / (1.0
            + clean_outcome.overhead_fraction
                * clean_outcome.cores as f64
                * clean_outcome.efficiency);

    Some(Table1Row {
        suite: corpus_kernel.suite.name(),
        kernel: corpus_kernel.name.clone(),
        halide_speedup: original.as_secs_f64() / halide.as_secs_f64(),
        icc_before: before,
        icc_after: after,
        gpu_speedup: original.as_secs_f64() / gpu_total.as_secs_f64(),
        gpu_no_transfer: original.as_secs_f64() / gpu_kernel.as_secs_f64(),
        synth_time_s: report.synthesis_time.as_secs_f64(),
        control_bits: report.control_bits.total(),
        ast_nodes: report.postcond_nodes,
        soundly_verified: *soundly_verified,
    })
}

/// Classifies every kernel of a suite for Table 2.
pub fn table2_row(kernels: &[CorpusKernel], stng: &Stng) -> Table2Row {
    let mut row = Table2Row::default();
    for corpus_kernel in kernels {
        let Ok(report) = stng.lift_source(&corpus_kernel.source) else {
            continue;
        };
        for kernel_report in &report.kernels {
            row.candidates += 1;
            if kernel_report.outcome.is_translated() {
                row.translated += 1;
            } else if corpus_kernel.is_stencil {
                row.untranslated_stencils += 1;
            } else {
                row.non_stencils += 1;
            }
        }
    }
    row
}

/// Median of a slice (used for the §6.3 aggregate).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// A fast synthesis configuration used by benches (smaller proof budgets than
/// the library defaults; kernels that exceed them fall back to bounded
/// validation and are reported as such).
///
/// The returned pipeline carries a deliberately generous — but *armed* —
/// resource budget (an hour of wall clock, counters far beyond any corpus
/// kernel), so every benchmark run exercises the real governed code paths
/// (polls, fuel accounting) instead of the null unlimited budget. The
/// `bench_json` gate holds the cost of that bookkeeping under 5% of an
/// ungoverned control pass measured in the same run.
pub fn bench_stng() -> Stng {
    let mut stng = Stng::new();
    stng.config.prover.max_attempts = 1500;
    stng.config.prover.max_split_depth = 6;
    stng.budget = stng::guard::Budget::limited(
        Some(Duration::from_secs(3600)),
        Some(1 << 40),
        Some(1 << 60),
    );
    stng
}

/// What the regression gates read back from an earlier `BENCH_N.json` (or
/// `BENCH_baseline.json`) snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Corpus-wide lift time the snapshot recorded.
    pub total_lift_ms: f64,
    /// Kernels the snapshot recorded as translated, in file order.
    pub translated: Vec<String>,
}

/// Parses a snapshot written by `bench_json`.
///
/// # Errors
///
/// Returns a message when the text is not JSON or lacks `total_lift_ms` or
/// the `kernels` object.
pub fn read_snapshot(text: &str) -> Result<Snapshot, String> {
    let doc = Json::parse(text)?;
    let total_lift_ms = doc
        .get("total_lift_ms")
        .and_then(Json::as_f64)
        .ok_or("snapshot has no numeric total_lift_ms")?;
    let Some(Json::Obj(kernels)) = doc.get("kernels") else {
        return Err("snapshot has no kernels object".to_string());
    };
    let translated = kernels
        .iter()
        .filter(|(_, row)| row.get("translated").and_then(Json::as_bool) == Some(true))
        .map(|(name, _)| name.clone())
        .collect();
    Ok(Snapshot {
        total_lift_ms,
        translated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stng_corpus::{suite_kernels, Suite};

    #[test]
    fn bench_8_snapshot_lists_its_25_translated_kernels() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
        let text = std::fs::read_to_string(path).expect("BENCH_8.json is committed");
        let snapshot = read_snapshot(&text).expect("BENCH_8.json parses");
        assert_eq!(snapshot.total_lift_ms, 376.841);
        let expected = [
            "heat0",
            "heat0_renamed",
            "div0",
            "grad0",
            "lap0",
            "mg_resid",
            "akl81",
            "akl83",
            "akl84",
            "fckl89",
            "gckl77",
            "terra_conv",
            "geomet0",
            "geomet1",
            "geomet2",
            "calcph0",
            "simple0",
            "meclfu0",
            "initial0",
            "heat27",
            "heat27t",
            "heat27u",
            "heat1s2",
            "jac2s2",
            "jac2s2_ws",
        ];
        assert_eq!(snapshot.translated, expected);
    }

    #[test]
    fn snapshots_without_totals_or_kernels_are_errors() {
        assert!(read_snapshot("{\"kernels\": {}}").is_err());
        assert!(read_snapshot("{\"total_lift_ms\": 1}").is_err());
        assert!(read_snapshot("not json").is_err());
        let one = r#"{"total_lift_ms": 2.5, "kernels": {"a": {"translated": false}, "b\"c": {"translated": true}}}"#;
        let snapshot = read_snapshot(one).unwrap();
        assert_eq!(snapshot.total_lift_ms, 2.5);
        assert_eq!(snapshot.translated, vec!["b\"c".to_string()]);
    }

    #[test]
    fn table1_row_for_a_stencilmark_kernel_has_sane_shape() {
        let kernels = suite_kernels(Suite::StencilMark);
        let heat = kernels.iter().find(|k| k.name == "heat0").unwrap();
        let row = table1_row(heat, &bench_stng(), 0).expect("heat0 lifts");
        assert!(row.halide_speedup > 0.0);
        assert!(row.gpu_no_transfer >= row.gpu_speedup);
        assert!(row.ast_nodes > 20);
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}

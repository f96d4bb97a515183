//! Output checking: the known outcome class of every corpus kernel, and the
//! comparison of a lifted summary's realization against the reference
//! interpreter running the *original* kernel on the same seeded inputs.

use crate::util::Rng;
use std::collections::HashMap;
use stng::pipeline::KernelOutcome;
use stng::translate::StencilSummary;
use stng_corpus::CorpusKernel;
use stng_halide::buffer::Buffer;
use stng_halide::func::Func;
use stng_halide::schedule::{realize, Region, Schedule};
use stng_ir::interp::{eval_int_expr, run_kernel, ArrayData, State};
use stng_ir::ir::ParamKind;

/// The checked-in answer per corpus kernel: the translated kernels of the
/// reference measurement, each with how it was accepted.
const EXPECTED: &str = include_str!("../expected_outcomes.txt");

/// Relative tolerance of the f64 output comparison.
const TOLERANCE: f64 = 1e-9;

/// Outcome class of one kernel row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Translated with a full Hoare proof.
    Sound,
    /// Translated through extended bounded validation.
    Validated,
    /// Not translated (not a candidate, not liftable, no summary found).
    Untranslated,
    /// Crashed, timed out, or cut short by a budget: never expected.
    Failed,
}

impl Class {
    pub fn of(outcome: &KernelOutcome) -> Class {
        match outcome {
            KernelOutcome::Translated {
                degraded: Some(_), ..
            } => Class::Failed,
            KernelOutcome::Translated {
                soundly_verified: true,
                ..
            } => Class::Sound,
            KernelOutcome::Translated { .. } => Class::Validated,
            KernelOutcome::Untranslated { .. } => Class::Untranslated,
            KernelOutcome::Timeout { .. } | KernelOutcome::Crashed { .. } => Class::Failed,
        }
    }
}

/// The index of the accepted CEGIS candidate, when a proof accepted one.
pub fn accepted_candidate(outcome: &KernelOutcome) -> Option<usize> {
    match outcome {
        KernelOutcome::Translated {
            soundly_verified: true,
            cegis_iterations,
            ..
        } => cegis_iterations.checked_sub(1),
        _ => None,
    }
}

/// Expected class per corpus kernel, in corpus order.
pub fn expected_classes(corpus: &[CorpusKernel]) -> Result<Vec<Class>, String> {
    let mut classes = vec![Class::Untranslated; corpus.len()];
    for line in EXPECTED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, class) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("malformed expected-outcome line '{line}'"))?;
        let class = match class.trim() {
            "sound" => Class::Sound,
            "validated" => Class::Validated,
            other => return Err(format!("unknown expected outcome '{other}' for {name}")),
        };
        let index = corpus
            .iter()
            .position(|k| k.name == name)
            .ok_or_else(|| format!("expected-outcome file names unknown kernel {name}"))?;
        classes[index] = class;
    }
    Ok(classes)
}

/// Seeded inputs of one corpus kernel at its corpus grid, and the state the
/// reference interpreter leaves after running the original kernel on them.
pub struct Reference {
    pub pre: State<f64>,
    pub post: State<f64>,
}

/// Builds the reference for a corpus kernel (first candidate fragment).
pub fn reference(kernel: &CorpusKernel, seed: u64) -> Result<Reference, String> {
    let lowered = kernel
        .kernel()
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    let mut pre: State<f64> = State::new();
    for (name, value) in stng_sym::choose_small_bounds(&lowered, kernel.grid) {
        pre.set_int(name, value);
    }
    let mut rng = Rng::derive(seed, 2);
    for name in lowered.real_params() {
        pre.set_real(name, 0.5 + rng.unit());
    }
    for param in &lowered.params {
        if let ParamKind::Array { dims } = &param.kind {
            let mut concrete = Vec::with_capacity(dims.len());
            for (lo, hi) in dims {
                let lo = eval_int_expr(lo, &pre).map_err(|e| e.to_string())?;
                let hi = eval_int_expr(hi, &pre).map_err(|e| e.to_string())?;
                concrete.push((lo, hi));
            }
            let array_seed = rng.next_u64();
            let array = ArrayData::from_fn(concrete, |idx| {
                let mut cell = Rng::new(array_seed);
                for &v in idx {
                    cell = Rng::derive(cell.next_u64(), v as u64);
                }
                0.5 + cell.unit()
            });
            pre.set_array(param.name.clone(), array);
        }
    }
    let mut post = pre.clone();
    run_kernel(&lowered, &mut post).map_err(|e| format!("{}: {e}", kernel.name))?;
    Ok(Reference { pre, post })
}

/// One function of a lifted summary, ready to realize and compare.
pub struct RealizeJob<'a> {
    func: &'a Func,
    region: Region,
    inputs: HashMap<String, Buffer>,
    params: HashMap<String, f64>,
    expected: &'a ArrayData<f64>,
}

/// Prepares every function of `summary` for realization. `names` maps the
/// original kernel's identifiers to the ones the summary uses (identity for
/// the corpus text itself), so a renamed copy's summary reads the original's
/// inputs and is compared against the original's outputs.
pub fn jobs<'a>(
    summary: &'a StencilSummary,
    names: &HashMap<String, String>,
    reference: &'a Reference,
) -> Result<Vec<RealizeJob<'a>>, String> {
    let to_copy = |name: &String| names.get(name).unwrap_or(name).clone();
    let to_original: HashMap<&str, &str> = names
        .iter()
        .map(|(orig, copy)| (copy.as_str(), orig.as_str()))
        .collect();
    let original = |name: &str| to_original.get(name).copied().unwrap_or(name).to_string();
    let ints: HashMap<String, i64> = reference
        .pre
        .ints
        .iter()
        .map(|(n, v)| (to_copy(n), *v))
        .collect();
    let params: HashMap<String, f64> = reference
        .pre
        .reals
        .iter()
        .map(|(n, v)| (to_copy(n), *v))
        .collect();
    let mut out = Vec::with_capacity(summary.funcs.len());
    for (k, (func, clause)) in summary.funcs.iter().enumerate() {
        let region = summary
            .region(k, &ints)
            .ok_or_else(|| format!("{}: region does not evaluate", func.name))?;
        let mut inputs = HashMap::new();
        for image in func.expr.images() {
            let array = reference
                .pre
                .array(&original(&image))
                .ok_or_else(|| format!("{}: no input array '{image}'", func.name))?;
            inputs.insert(
                image,
                Buffer {
                    origin: array.dims.iter().map(|d| d.0).collect(),
                    extent: array
                        .dims
                        .iter()
                        .map(|d| (d.1 - d.0 + 1) as usize)
                        .collect(),
                    step: vec![1; array.dims.len()],
                    data: array.data.clone(),
                },
            );
        }
        let expected = reference
            .post
            .array(&original(&clause.eq.array))
            .ok_or_else(|| format!("{}: no output array '{}'", func.name, clause.eq.array))?;
        out.push(RealizeJob {
            func,
            region,
            inputs,
            params: params.clone(),
            expected,
        });
    }
    Ok(out)
}

impl RealizeJob<'_> {
    /// Runs the generated function under the hand-written default schedule
    /// (tiled, vectorized, unrolled) on one thread. Tiles spread over two
    /// threads ran about 1.6x faster on a 2-vCPU host, but their time varied
    /// half again as much between runs as the serial schedule's.
    pub fn run(&self) -> Buffer {
        let inputs: HashMap<String, &Buffer> =
            self.inputs.iter().map(|(n, b)| (n.clone(), b)).collect();
        let schedule = Schedule::default_tuned(self.func.rank, 1);
        std::hint::black_box(realize(
            self.func,
            &schedule,
            &self.region,
            &inputs,
            &self.params,
        ))
    }

    /// Emits the Halide C++ generator and the de-optimized serial C; returns
    /// the number of bytes generated.
    pub fn codegen(&self, scalar_params: &[String]) -> usize {
        let cpp = stng_halide::codegen::halide_cpp(self.func, scalar_params);
        let c = stng_halide::codegen::serial_c(self.func, &self.region);
        std::hint::black_box(cpp.len() + c.len())
    }

    /// Realized points that differ from the reference interpreter's output.
    pub fn mismatches(&self, out: &Buffer) -> usize {
        let mut bad = 0;
        let mut idx = vec![0i64; out.rank()];
        for (flat, value) in out.data.iter().enumerate() {
            let mut rest = flat;
            for d in (0..out.rank()).rev() {
                idx[d] = out.origin[d] + out.step[d] * (rest % out.extent[d]) as i64;
                rest /= out.extent[d];
            }
            match self.expected.get(&idx) {
                Some(e) if (e - value).abs() <= TOLERANCE * e.abs().max(1.0) => {}
                _ => bad += 1,
            }
        }
        bad
    }
}

//! `liftbench`: the seeded end-to-end and per-layer benchmark of the STNG
//! lifting pipeline. See `README.md` for the workloads, the metrics and the
//! layer → metric → workload map.
//!
//! ```text
//! cargo run --release --manifest-path liftbench/Cargo.toml -- \
//!     --workload corpus_cold --seed 1 --seconds 8 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones. The
//! process exits non-zero when any output check fails.

mod check;
mod replay;
mod stream;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Checks, Metric, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Scratch space of this benchmark, inside the directory it runs from.
const WORK_ROOT: &str = ".liftbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// This run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print_result(checks: &Checks, metrics: &[Metric]) {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
}

fn run(args: &Args, checks: &mut Checks) -> Result<Vec<Metric>, String> {
    let work = WorkDir::create()?;
    if args.trace {
        let setup = workload::setup(args.workload, args.seed, &work.0.join("filled"))?;
        let traced = workload::traced(
            args.workload,
            &setup,
            args.seed,
            args.seconds,
            &work.0,
            checks,
        )?;
        let total: f64 = traced.layers.iter().map(|(_, ms)| ms).sum();
        eprintln!(
            "per-layer self time, last traced round of {}:",
            args.workload.name()
        );
        for (layer, ms) in &traced.layers {
            eprintln!(
                "  {layer:<8} {ms:>10.3} ms  {:>5.1}%",
                100.0 * ms / total.max(1e-9)
            );
        }
        let path = Path::new(WORK_ROOT).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let layers: Vec<String> = traced
            .layers
            .iter()
            .map(|(layer, ms)| format!("\"{layer}\": {}", json_number(*ms)))
            .collect();
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"self_ms\": {{{}}}, \"spans\": {}}}\n",
            args.workload.name(),
            args.seed,
            layers.join(", "),
            traced.tracer.spans_json()
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        return Ok(traced.metrics);
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for k in 0..SETUP_REPEATS {
        let filled = work.0.join(format!("filled-{k}"));
        let started = Instant::now();
        let fresh = workload::setup(args.workload, args.seed, &filled)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = setup.replace(fresh) {
            if let Some(dir) = &old.filled {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let setup = setup.expect("at least one set-up");
    let mut metrics = workload::measure(
        args.workload,
        &setup,
        args.seed,
        args.seconds,
        &work.0,
        checks,
    )?;
    metrics.insert(
        0,
        Metric {
            name: "setup_s",
            value: util::median(&setup_s),
            unit: "s",
        },
    );
    Ok(metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("liftbench: {e}");
            eprintln!(
                "usage: liftbench --workload corpus_cold|stream_cold|stream_warm \
                 --seed N --seconds S [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let result = run(&args, &mut checks);
    eprintln!("peak RSS {:.0} MB", util::proc_status_mb("VmHWM"));
    match result {
        Ok(metrics) => {
            print_result(&checks, &metrics);
            if checks.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("liftbench: {e}");
            std::process::exit(1);
        }
    }
}

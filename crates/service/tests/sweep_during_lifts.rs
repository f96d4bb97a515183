//! Arena sweeps while other threads lift: a sweep waits for every pinned
//! lift and empties the tables between lifts, so each lift gives the same
//! outcome and postcondition as a single-threaded reference run.
//!
//! The work is bounded by rounds, not seconds. CI's `chaos-smoke` job also
//! runs this binary in release mode, where each round is cheap enough for
//! many more of them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use stng::memory;
use stng::pipeline::Stng;
use stng_intern::guard::Budget;
use stng_ir::ir::Kernel;
use stng_synth::cegis::{synthesize_governed_with_phases, SynthesisConfig};

/// Corpus kernels that came back wrong when sweeps ran under their lifts.
const KERNELS: [&str; 6] = ["lap0", "grad0", "div0", "heat0", "jac2s2", "heat1s2"];

/// Rounds over [`KERNELS`] per lifting thread.
const ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 12 };

fn sources() -> Vec<(String, String)> {
    let sources: Vec<(String, String)> = stng_corpus::all_kernels()
        .into_iter()
        .filter(|k| KERNELS.contains(&k.name.as_str()))
        .map(|k| (k.name, k.source))
        .collect();
    assert_eq!(sources.len(), KERNELS.len(), "all named kernels found");
    sources
}

/// Runs `lift` on two threads while a third sweeps until both are done.
/// `lift` returns its mismatches against the reference; the result is all
/// of them, plus the number of sweeps made.
fn sweeping_during(lift: impl Fn() -> Vec<String> + Sync) -> (Vec<String>, usize) {
    let finished = AtomicUsize::new(0);
    let mismatches = Mutex::new(Vec::new());
    let mut sweeps = 0;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let found = catch_unwind(AssertUnwindSafe(&lift))
                    .unwrap_or_else(|_| vec!["a lifting thread panicked".to_string()]);
                mismatches.lock().unwrap().extend(found);
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }
        while finished.load(Ordering::SeqCst) < 2 {
            memory::sweep();
            sweeps += 1;
            std::thread::yield_now();
        }
    });
    (mismatches.into_inner().unwrap(), sweeps)
}

fn assert_clean(what: &str, (mismatches, sweeps): (Vec<String>, usize)) {
    assert!(sweeps > 0, "{what}: no sweep ran");
    assert!(
        mismatches.is_empty(),
        "{what}: {} of the lifts under {sweeps} sweeps disagreed with the reference; first: {}",
        mismatches.len(),
        mismatches[0]
    );
}

#[test]
fn lifts_under_concurrent_sweeps_match_the_single_threaded_reference() {
    let stng = Stng::new();
    let lift = |source: &str| {
        let report = stng.lift_source(source).expect("corpus source parses");
        report
            .kernels
            .into_iter()
            .map(|k| (k.name, k.outcome, k.postcond_nodes))
            .collect::<Vec<_>>()
    };
    let sources = sources();
    let reference: Vec<_> = sources.iter().map(|(_, src)| lift(src)).collect();
    let outcome = sweeping_during(|| {
        let mut mismatches = Vec::new();
        for _ in 0..ROUNDS {
            for ((name, src), expected) in sources.iter().zip(&reference) {
                let got = lift(src);
                if got != *expected {
                    mismatches.push(format!("{name}: {got:?} vs reference {expected:?}"));
                }
            }
        }
        mismatches
    });
    assert_clean("lift_source", outcome);
}

#[test]
fn a_sweep_during_a_two_thread_cegis_run_completes() {
    let config = SynthesisConfig {
        parallelism: 2,
        ..SynthesisConfig::default()
    };
    let kernels: Vec<(String, Kernel)> = sources()
        .into_iter()
        .take(3)
        .map(|(name, src)| {
            let kernel = stng_ir::lower::kernel_from_source(&src, 0).expect("corpus kernel lowers");
            (name, kernel)
        })
        .collect();
    let synthesize = |kernel: &Kernel| {
        let (result, _) = synthesize_governed_with_phases(kernel, &config, &Budget::unlimited());
        result
            .map(|outcome| (outcome.post, outcome.soundly_verified))
            .map_err(|failure| failure.to_string())
    };
    let reference: Vec<_> = kernels.iter().map(|(_, k)| synthesize(k)).collect();
    let outcome = sweeping_during(|| {
        let mut mismatches = Vec::new();
        for ((name, kernel), expected) in kernels.iter().zip(&reference) {
            let got = synthesize(kernel);
            if got != *expected {
                mismatches.push(format!("{name}: {got:?} vs reference {expected:?}"));
            }
        }
        mismatches
    });
    assert_clean("CEGIS at parallelism 2", outcome);
}

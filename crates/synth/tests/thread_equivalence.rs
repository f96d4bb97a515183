//! Thread-count equivalence of CEGIS over the whole corpus.
//!
//! With `SynthesisConfig::parallelism >= 2` each candidate's bounded screen
//! runs on a helper thread while the calling thread proves the candidate;
//! at 1 the screen runs first. Candidates are still tried in index order
//! and proofs charge the kernel only after their screen passed, so every
//! reported answer and counter below must be identical at both settings.

use stng_intern::guard::Budget;
use stng_solve::BoundedChecker;
use stng_synth::cegis::synthesize_governed_with_phases;
use stng_synth::SynthesisConfig;

/// Everything a lift reports that must not depend on the thread count.
fn lift(kernel: &stng_ir::ir::Kernel, config: &SynthesisConfig) -> String {
    let (result, phase) = synthesize_governed_with_phases(kernel, config, &Budget::unlimited());
    let outcome = match result {
        Ok(o) => format!(
            "post {} | invariants {:?} | sound {} | degraded {:?} | iterations {} | attempts {}",
            o.post,
            o.invariants,
            o.soundly_verified,
            o.degraded,
            o.cegis_iterations,
            o.prover_attempts
        ),
        Err(failure) => format!("failed: {failure}"),
    };
    format!(
        "{outcome} | captures {} | screened {} | survivors {}",
        phase.captures, phase.screened, phase.survivors
    )
}

#[test]
fn corpus_lifts_identically_at_one_and_two_threads() {
    let serial = SynthesisConfig {
        parallelism: 1,
        bounded: BoundedChecker {
            parallelism: 1,
            ..BoundedChecker::default()
        },
        postcond: stng_synth::postcond::PostcondSynthesizer {
            parallelism: 1,
            ..Default::default()
        },
        ..SynthesisConfig::default()
    };
    // The defaults, with at least two CEGIS threads so the screen and the
    // proof overlap even on a single-core machine.
    let defaults = SynthesisConfig::default();
    let overlapped = SynthesisConfig {
        parallelism: defaults.parallelism.max(2),
        ..defaults
    };
    let mut lifted = 0;
    for entry in stng_corpus::all_kernels() {
        let Ok(kernel) = entry.kernel() else {
            continue;
        };
        let one = lift(&kernel, &serial);
        let two = lift(&kernel, &overlapped);
        assert_eq!(one, two, "{}: thread count changed the lift", entry.name);
        lifted += 1;
    }
    assert!(lifted >= 30, "only {lifted} corpus kernels lowered");
}

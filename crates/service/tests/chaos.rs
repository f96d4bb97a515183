//! The chaos suite: the full corpus is lifted while the deterministic
//! fault-injection registry tears disk writes, fails reads, panics
//! candidate workers, and stalls the prover — and the batch must still
//! complete, classifying every faulted kernel on the degradation ladder
//! (degraded / timeout / crashed) instead of hanging or aborting.
//!
//! Only built with `--features fault-inject`; CI runs it as the
//! `chaos-smoke` job in release mode.

#![cfg(feature = "fault-inject")]

use stng::guard::fault::FaultPlan;
use stng::KernelOutcome;
use stng_service::batch::{self, outcome_tag, BatchOptions};
use stng_service::chaos;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stng-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn faulted_corpus_batch_completes_and_classifies_every_kernel() {
    let dir = temp_dir("corpus");
    let plan = FaultPlan {
        seed: 0xC0FF_EE00,
        torn_write_period: 2,
        read_error_period: 3,
        panic_kernels: vec!["lap0".to_string()],
        stall_kernels: vec!["grad0".to_string()],
        stall_ms: 400,
        ..FaultPlan::default()
    };
    let guard = chaos::armed(plan);

    let sources = batch::corpus_sources();
    assert!(sources.len() >= 30, "full corpus expected");
    let options = BatchOptions {
        cache_dir: Some(dir.clone()),
        kernel_timeout_ms: Some(150),
        retries: 1,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &options).expect("cache dir usable");
    let pass = &report.passes[0];

    // Every source produced a row; nothing was dropped or hung.
    assert!(pass.kernels.len() >= sources.len());
    for k in &pass.kernels {
        // Whatever happened, the outcome is a ladder rung, never a panic
        // escaping the driver.
        let tag = outcome_tag(&k.report.outcome);
        assert!(
            [
                "translated",
                "degraded",
                "untranslated",
                "timeout",
                "crashed"
            ]
            .contains(&tag),
            "unclassified outcome for {}",
            k.kernel_name
        );
    }

    // The kernel with injected candidate panics is isolated as crashed.
    let lap0 = pass
        .kernels
        .iter()
        .find(|k| k.source_name == "lap0")
        .expect("lap0 row present");
    assert_eq!(
        outcome_tag(&lap0.report.outcome),
        "crashed",
        "injected panic must surface as a crashed row, got {:?}",
        lap0.report.outcome
    );

    // The stalled kernel ran out of its per-source deadline.
    let grad0 = pass
        .kernels
        .iter()
        .find(|k| k.source_name == "grad0")
        .expect("grad0 row present");
    assert!(
        grad0.report.outcome.is_budget_affected(),
        "stalled prover must trip the per-source budget, got {:?}",
        grad0.report.outcome
    );

    // All four fault classes actually fired.
    let injected = guard.injected();
    assert!(injected.torn_writes > 0, "no torn writes: {injected:?}");
    assert!(injected.read_errors > 0, "no read errors: {injected:?}");
    assert!(
        injected.candidate_panics > 0,
        "no candidate panics: {injected:?}"
    );
    assert!(injected.prover_stalls > 0, "no prover stalls: {injected:?}");
    // Injected read errors were retried, not surfaced.
    assert!(report.cache.stats().io_retries > 0);

    // A second batch over the same directory probes the torn entries: the
    // checksum catches every one, quarantines it, and the batch recomputes.
    let report2 = batch::run_batch(&sources, &options).expect("cache dir usable");
    let stats = report2.cache.stats();
    assert!(
        stats.quarantined > 0,
        "torn writes must be quarantined on re-read: {stats:?}"
    );
    assert!(report2.passes[0].kernels.len() >= sources.len());

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capture_faults_are_classified_never_wedged() {
    let dir = temp_dir("captures");
    let plan = FaultPlan {
        seed: 0x71E2,
        // A panic inside the `OnceLock` capture: std leaves the cell
        // uninitialized and propagates, so the worker's catch_unwind must
        // isolate the kernel as crashed.
        capture_panic_kernels: vec!["div0".to_string()],
        // A stall inside the initializer: the per-source deadline trips
        // mid-capture and the kernel lands on a budget-affected rung.
        capture_stall_kernels: vec!["heat0".to_string()],
        stall_ms: 400,
        // Torn state in a unit after the first: the screen reports a
        // capture error and every candidate is rejected, so no invariant
        // can be proven — the kernel must not come out soundly verified.
        // (The extended bounded-validation fallback may still accept it:
        // that rung runs full concrete executions and never touches the
        // torn capture.)
        torn_capture_kernels: vec!["lap0".to_string()],
        ..FaultPlan::default()
    };
    let guard = chaos::armed(plan);

    let sources = batch::corpus_sources();
    let options = BatchOptions {
        cache_dir: Some(dir.clone()),
        kernel_timeout_ms: Some(150),
        retries: 1,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &options).expect("cache dir usable");
    let pass = &report.passes[0];
    assert!(pass.kernels.len() >= sources.len(), "no kernel dropped");

    let row = |name: &str| {
        pass.kernels
            .iter()
            .find(|k| k.source_name == name)
            .unwrap_or_else(|| panic!("{name} row present"))
    };

    assert_eq!(
        outcome_tag(&row("div0").report.outcome),
        "crashed",
        "capture panic must surface as crashed, got {:?}",
        row("div0").report.outcome
    );
    assert!(
        row("heat0").report.outcome.is_budget_affected(),
        "capture stall must trip the per-source budget, got {:?}",
        row("heat0").report.outcome
    );
    let lap0 = &row("lap0").report.outcome;
    match lap0 {
        KernelOutcome::Translated {
            soundly_verified, ..
        } => assert!(
            !soundly_verified,
            "torn capture state rejects every candidate, so a sound proof is \
             impossible — got a soundly-verified translation"
        ),
        KernelOutcome::Untranslated { .. }
        | KernelOutcome::Timeout { .. }
        | KernelOutcome::Crashed { .. } => {}
    }

    let injected = guard.injected();
    assert!(
        injected.capture_panics > 0,
        "no capture panics: {injected:?}"
    );
    assert!(
        injected.capture_stalls > 0,
        "no capture stalls: {injected:?}"
    );
    assert!(injected.torn_captures > 0, "no torn captures: {injected:?}");

    // Disarmed rerun over the same cache directory: every faulted kernel
    // recovers — the poisoned `OnceLock` never wedges the session. The
    // guard keeps the chaos lock: the rerun sweeps the global arenas, which
    // must not happen while another chaos test is lifting.
    guard.disarm();
    let report2 = batch::run_batch(&sources, &options).expect("cache dir usable");
    let pass2 = &report2.passes[0];
    for name in ["div0", "heat0", "lap0"] {
        let k = pass2
            .kernels
            .iter()
            .find(|k| k.source_name == name)
            .unwrap_or_else(|| panic!("{name} row present"));
        assert!(
            !matches!(outcome_tag(&k.report.outcome), "crashed" | "timeout"),
            "{name} must recover once faults are disarmed, got {:?}",
            k.report.outcome
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_entries_keep_their_evidence_on_disk() {
    let dir = temp_dir("evidence");
    let plan = FaultPlan {
        seed: 7,
        torn_write_period: 1, // tear every write
        ..FaultPlan::default()
    };
    let guard = chaos::armed(plan);
    let sources: Vec<_> = batch::corpus_sources()
        .into_iter()
        .filter(|s| s.name == "simple0")
        .collect();
    let options = BatchOptions {
        cache_dir: Some(dir.clone()),
        ..BatchOptions::default()
    };
    batch::run_batch(&sources, &options).expect("cache dir usable");
    assert!(guard.injected().torn_writes > 0);
    // Disarmed second run, still under the chaos lock: the torn entry is
    // detected and moved aside.
    guard.disarm();
    let report = batch::run_batch(&sources, &options).expect("cache dir usable");
    assert_eq!(report.cache.stats().quarantined, 1);
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "evidence file kept: {quarantined:?}");
    // And the healthy rewrite is served on the next probe.
    let report3 = batch::run_batch(&sources, &options).expect("cache dir usable");
    assert_eq!(report3.cache.stats().quarantined, 0);
    assert!(report3.cache.stats().disk_hits > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

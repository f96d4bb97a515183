//! Tier-1 tests of the governed batch driver: budgets cut work short
//! without losing rows, and the degradation ladder shows up in the report.

use std::sync::{Mutex, MutexGuard};
use stng_service::batch::{self, outcome_tag, BatchOptions};

/// `run_batch` sweeps the global expression arenas after its pass, which is
/// only legal while nothing else in the process is lifting. The test harness
/// runs this file's tests on parallel threads, so each test holds this lock
/// for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling test poisons the lock; the arenas are still fine.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn corpus_subset(names: &[&str]) -> Vec<stng_service::BatchSource> {
    let sources: Vec<_> = batch::corpus_sources()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect();
    assert_eq!(sources.len(), names.len(), "all requested kernels found");
    sources
}

#[test]
fn dead_batch_deadline_yields_timeout_rows_not_a_hang() {
    let _serial = serial();
    let sources = corpus_subset(&["simple0", "heat0", "grad0"]);
    let options = BatchOptions {
        deadline_ms: Some(0), // expired before the first kernel starts
        threads: 1,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &options).expect("memory-only");
    let pass = &report.passes[0];
    assert_eq!(pass.kernels.len(), sources.len());
    for k in &pass.kernels {
        // Nothing can have synthesized a summary under a dead deadline;
        // liftability failures (pre-synthesis) may still report as
        // untranslated.
        let tag = outcome_tag(&k.report.outcome);
        assert!(
            tag == "timeout" || tag == "untranslated",
            "{}: expected timeout under a dead deadline, got {tag}",
            k.kernel_name
        );
    }
    let (translated, degraded, _, timeout, _) = pass.summary();
    assert_eq!((translated, degraded), (0, 0));
    assert!(timeout > 0);
}

#[test]
fn ungoverned_batch_reports_no_degradation() {
    let _serial = serial();
    let sources = corpus_subset(&["simple0", "heat0"]);
    let report = batch::run_batch(&sources, &BatchOptions::default()).expect("memory-only");
    let (translated, degraded, untranslated, timeout, crashed) = report.passes[0].summary();
    assert_eq!(translated, 2, "both kernels lift without budgets");
    assert_eq!((degraded, untranslated, timeout, crashed), (0, 0, 0, 0));
    for k in &report.passes[0].kernels {
        assert!(!k.report.outcome.is_budget_affected());
    }
}

#[test]
fn starved_prover_budget_degrades_and_retries_escalate_past_it() {
    let _serial = serial();
    let sources = corpus_subset(&["heat0"]);
    // One prover attempt is never enough for a sound proof: the kernel
    // degrades to bounded-only validation.
    let starved = BatchOptions {
        kernel_prover_attempts: Some(1),
        threads: 1,
        ..BatchOptions::default()
    };
    let report = batch::run_batch(&sources, &starved).expect("memory-only");
    let row = &report.passes[0].kernels[0];
    assert!(
        row.report.outcome.is_budget_affected(),
        "one prover attempt cannot prove heat0: {:?}",
        row.report.outcome
    );

    // Enough retries double the budget past what the proof needs, and the
    // same kernel comes back soundly verified.
    let escalating = BatchOptions {
        retries: 14, // 1 << 14 attempts by the last try
        ..starved
    };
    let report = batch::run_batch(&sources, &escalating).expect("memory-only");
    let row = &report.passes[0].kernels[0];
    assert_eq!(
        outcome_tag(&row.report.outcome),
        "translated",
        "escalated budget must recover a sound lift: {:?}",
        row.report.outcome
    );
}

#[test]
fn batch_json_carries_outcome_and_summary_fields() {
    let _serial = serial();
    let sources = corpus_subset(&["simple0"]);
    let report = batch::run_batch(&sources, &BatchOptions::default()).expect("memory-only");
    let text = report.to_json().to_string();
    assert!(text.contains("\"schema\":2"), "schema bumped: {text}");
    assert!(text.contains("\"outcome\":\"translated\""));
    assert!(text.contains("\"summary\""));
    assert!(text.contains("\"degraded\""));
    assert!(text.contains("\"quarantined\""));
}

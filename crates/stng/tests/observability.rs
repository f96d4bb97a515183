//! Observability contract tests: span well-formedness under a multi-threaded
//! lift, counter-metric determinism, and the disarmed recorder's no-op
//! guarantee.
//!
//! Lives in its own integration-test binary (= its own process) because the
//! recorder rings, armed flag, and metric registry are process-global: any
//! other test lifting concurrently would pollute the snapshots. Within the
//! binary the tests serialize on an internal gate for the same reason.

use std::sync::{Arc, Mutex};
use stng::obs;
use stng::pipeline::{KernelReport, LiftCache, Stng};
use stng_ir::canon::Canon;
use stng_ir::ir::Kernel;
use stng_pred::fixtures;
use stng_synth::SynthesisConfig;

/// A cache that never hits: attached so the fingerprint and cache-lookup
/// stages run (the pipeline skips both when no cache is configured).
struct NullCache;

impl LiftCache for NullCache {
    fn lookup(&self, _: &Kernel, _: &Canon, _: &str, _: &SynthesisConfig) -> Option<KernelReport> {
        None
    }
    fn record(&self, _: &Kernel, _: &Canon, _: &SynthesisConfig, _: &KernelReport) {}
}

/// Serializes the tests in this binary: each one arms/resets process-global
/// observability state.
static GATE: Mutex<()> = Mutex::new(());

/// Arming the recorder during a lift whose bounded screens and validation
/// run on worker threads must produce a well-formed trace on every
/// thread: Open/Close strictly nested, nothing dropped, and spans present
/// for the pipeline stages the lift actually exercised.
#[test]
fn spans_are_well_formed_under_parallel_cegis() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    obs::recorder::reset();
    obs::arm();
    let mut stng = Stng::new().with_cache(Arc::new(NullCache));
    // Force >1 worker even on a single-core machine so capture and scan
    // spans land on threads other than the one that opened `lift.kernel`.
    stng.config.parallelism = 4;
    stng.config.bounded.parallelism = 4;
    let report = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    obs::disarm();
    assert_eq!(report.translated(), 1);

    let threads = obs::recorder::snapshot();
    assert!(!threads.is_empty(), "an armed lift must record events");
    let mut total_events = 0usize;
    for t in &threads {
        let wf = obs::chrome::wellformedness(t);
        assert!(
            wf.is_clean(),
            "thread {:?}: {} unmatched open(s), {} mismatched close(s)",
            t.thread,
            wf.unmatched_opens,
            wf.mismatched_closes
        );
        assert_eq!(t.dropped, 0, "thread {:?} dropped events", t.thread);
        total_events += t.events.len();
    }
    assert!(total_events > 0);

    // The stages this kernel is known to exercise each left spans behind.
    for name in [
        "lift.kernel",
        "lift.lower",
        "lift.fingerprint",
        "cache.lookup",
        "cegis.candidate",
        "bounded.capture",
        "bounded.scan",
        "prove.session",
        "prove.oblig",
        "sym.exec",
        "pred.vcgen",
    ] {
        assert!(
            obs::chrome::span_count(&threads, name) >= 1,
            "no {name} span recorded"
        );
    }
    // The lift.kernel span names the fragment it lifted.
    let details = obs::chrome::span_details(&threads, "lift.kernel");
    assert_eq!(details, vec![report.kernels[0].name.as_str()]);

    // The whole snapshot exports to parseable Chrome trace JSON.
    let json = obs::chrome::trace_json(&threads);
    assert!(json.starts_with("{\"traceEvents\":["));
    obs::recorder::reset();
}

/// Counter-kind metrics (not time accumulators) must be byte-identical
/// across two single-threaded lifts of the same source from the same arena
/// state: scheduling may move time around but never the counts.
#[test]
fn counter_metrics_are_deterministic_single_threaded() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    obs::disarm();
    let mut stng = Stng::new();
    stng.config.parallelism = 1;

    // The prover's obligation memo and learned cores live in process-global
    // arenas; sweep to the same (empty) state before each run so both lifts
    // are equally cold.
    stng::memory::sweep();
    obs::metrics::reset();
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    let first = obs::metrics::counters_snapshot();

    stng::memory::sweep();
    obs::metrics::reset();
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    let second = obs::metrics::counters_snapshot();

    assert_eq!(first, second, "counter metrics drifted between equal runs");
    assert!(
        first.contains("prover.oblig_misses"),
        "snapshot should carry the phase counters: {first}"
    );
}

/// With the recorder disarmed (the default), lifting records nothing and
/// `span()` is a no-op — the always-compiled instrumentation must leave no
/// trace (literally) when off.
#[test]
fn disarmed_recorder_records_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    obs::disarm();
    obs::recorder::reset();
    assert!(!obs::armed());

    let stng = Stng::new();
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    // The disarmed fast path of span()/event() itself: a burst of calls
    // must also record nothing.
    for _ in 0..10_000 {
        let _s = obs::span(&obs::names::LIFT_KERNEL);
    }
    obs::event(&obs::names::BUDGET_TIMEOUT, None, 0);

    let events: usize = obs::recorder::snapshot()
        .iter()
        .map(|t| t.events.len())
        .sum();
    assert_eq!(events, 0, "disarmed recorder must record no events");
}

//! `stng-obs`: the observability substrate of the lifting pipeline —
//! hierarchical spans, a metrics registry, and trace/metrics exporters.
//!
//! Three pieces, layered so the hot path stays cheap:
//!
//! * [`recorder`] — an always-compiled, **default-off** span recorder.
//!   Every worker thread records into its own lock-free append-only ring
//!   (chunked, no realloc, single-producer), so the scoped-thread CEGIS
//!   workers and prover sessions never contend. Disarmed, a span costs one
//!   relaxed atomic load; armed, two ring writes and two clock reads.
//! * [`metrics`] — named counters / time accumulators / gauges / histograms
//!   with pre-registered handles: registration hashes the name once, every
//!   increment after that is a plain atomic add on a dense cell. The
//!   per-kernel [`metrics::MetricSet`] is the aggregation unit `PhaseTimings`
//!   is derived from; flushing it feeds the process-wide totals.
//! * [`chrome`] — exporters: Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`, one track per recorded thread) and a machine-
//!   readable metrics snapshot.
//!
//! Span names are interned [`Symbol`]s. Symbols are **never swept** by the
//! epoch eviction in `stng-intern` (see `stng::memory`), so events captured
//! before an arena sweep still render correctly after it — the recorder
//! needs no coordination with memory management.
//!
//! ## Quiescence contract
//!
//! Rings are single-producer: only the owning thread pushes. Readers
//! ([`recorder::snapshot`]) may run concurrently — they observe the
//! published prefix — but [`recorder::reset`] and [`metrics::reset`] must
//! only run at quiescent points (no lift in flight), the same contract
//! `stng::memory::sweep` already imposes.

pub mod chrome;
pub mod metrics;
pub mod recorder;

pub use recorder::{arm, armed, disarm, event, span, Name, SpanGuard};

/// The span and event taxonomy: every name the pipeline records, in one
/// place (documented in `docs/observability.md`). Instrumentation sites use
/// these pre-interned names so the armed hot path never hashes a string.
pub mod names {
    use crate::recorder::Name;

    /// One candidate kernel through the whole pipeline (detail: kernel name).
    pub static LIFT_KERNEL: Name = Name::new("lift.kernel");
    /// Lowering a fragment to the kernel IR.
    pub static LIFT_LOWER: Name = Name::new("lift.lower");
    /// Canonicalization + structural fingerprint.
    pub static LIFT_FINGERPRINT: Name = Name::new("lift.fingerprint");
    /// Lifting-cache lookup (detail: `hit` / `miss`, including rehydration).
    pub static CACHE_LOOKUP: Name = Name::new("cache.lookup");
    /// One CEGIS candidate: VC generation, bounded screen, sound check
    /// (arg: candidate index).
    pub static CEGIS_CANDIDATE: Name = Name::new("cegis.candidate");
    /// Extended bounded-validation fallback.
    pub static CEGIS_VALIDATE: Name = Name::new("cegis.validate");
    /// Reachable-state capture (once per kernel session).
    pub static BOUNDED_CAPTURE: Name = Name::new("bounded.capture");
    /// Scanning captured states against one candidate's VCs.
    pub static BOUNDED_SCAN: Name = Name::new("bounded.scan");
    /// The sound prover over one candidate's VC set.
    pub static PROVE_SESSION: Name = Name::new("prove.session");
    /// One `ProofSession::prove` obligation (arg: remaining case-split
    /// depth).
    pub static PROVE_OBLIG: Name = Name::new("prove.oblig");
    /// Symbolic execution for template generation.
    pub static SYM_EXEC: Name = Name::new("sym.exec");
    /// VC generation for one candidate.
    pub static PRED_VCGEN: Name = Name::new("pred.vcgen");
    /// One `stng-verify` layer (detail: layer name).
    pub static VERIFY_LAYER: Name = Name::new("verify.layer");
    /// One `stng-verify` check or differential oracle (detail: check name).
    pub static VERIFY_CHECK: Name = Name::new("verify.check");

    /// Cache-lookup outcome details.
    pub static HIT: Name = Name::new("hit");
    pub static MISS: Name = Name::new("miss");

    /// Instant events (attached to the enclosing span's thread track).
    /// A budget limit tripped and the kernel degraded to bounded validation
    /// (detail: the `DegradeReason`).
    pub static BUDGET_DEGRADED: Name = Name::new("budget.degraded");
    /// A budget limit tripped hard: the kernel timed out (detail: reason).
    pub static BUDGET_TIMEOUT: Name = Name::new("budget.timeout");
    /// A fault-injection site fired (detail: which fault).
    pub static FAULT_INJECTED: Name = Name::new("fault.injected");
    /// A candidate worker panicked and was isolated.
    pub static WORKER_CRASHED: Name = Name::new("cegis.crashed");
}

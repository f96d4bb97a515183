//! Process-wide expression-memory management for long-running services.
//!
//! The hash-cons arenas and operation memos that make lifting fast
//! (`stng-sym`, `stng-solve`, see `docs/perf.md`) are global. A one-shot
//! compile never notices, but the service layer lifts batch after batch, so
//! this module aggregates every table behind two operations:
//!
//! * [`arena_stats`] — an occupancy snapshot (entries + shallow bytes) of
//!   each arena and memo table, plus the symbol table.
//! * [`sweep`] — wait until no lift holds a [`stng_intern::Pin`] (every
//!   [`crate::pipeline::Stng::lift_source`] and every CEGIS run holds one),
//!   then empty every table. Lifts that start meanwhile wait for the sweep
//!   to finish. Previously returned reports stay valid: cached
//!   [`crate::pipeline::KernelReport`]s hold `IrExpr` trees and strings,
//!   not arena handles.
//!
//! Symbols are exempt: they are tiny, embedded in long-lived structures, and
//! shared by every layer, so sweeping them would buy little and cost
//! re-interning every name on the next batch.

pub use stng_intern::ArenaStats;

/// Occupancy snapshot of every expression arena and memo table in the
/// process, in a stable order (sym tables, solve tables, symbol table last).
pub fn arena_stats() -> Vec<ArenaStats> {
    let mut out = stng_sym::arena_stats();
    out.extend(stng_solve::arena_stats());
    out.push(stng_intern::Symbol::table_stats());
    out
}

/// Total live entries across all sweepable tables (everything except the
/// symbol table). A [`sweep`] sets it to 0.
pub fn sweepable_entries() -> usize {
    stng_sym::arena_stats()
        .iter()
        .chain(stng_solve::arena_stats().iter())
        .map(|s| s.entries)
        .sum()
}

/// Result of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// The sweep generation: 2 after the first sweep of the process, one
    /// more after each later one.
    pub epoch: u64,
    /// Entries evicted across all arenas and memo tables.
    pub evicted: usize,
}

/// Empties every arena and memo table once no lift is pinned (see the
/// module docs); later lifts re-intern what they need and behave
/// identically.
///
/// # Panics
///
/// When called from inside a lift (a thread holding a pin).
pub fn sweep() -> SweepReport {
    let (epoch, evicted) = stng_intern::sweep(|q| stng_sym::clear(q) + stng_solve::clear(q));
    SweepReport { epoch, evicted }
}

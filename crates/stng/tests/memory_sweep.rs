//! Sweep behaviour of the global expression arenas.

use stng::memory;
use stng::pipeline::Stng;
use stng_pred::fixtures;

#[test]
fn sweeps_reduce_occupancy_and_respect_epoch_tags() {
    let stng = Stng::new();
    let before = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(before.translated(), 1);
    let populated = memory::sweepable_entries();
    assert!(populated > 0, "lifting must populate the arenas/memos");

    let report = memory::sweep();
    assert!(report.evicted > 0);
    assert!(report.epoch >= 2);
    assert_eq!(
        memory::sweepable_entries(),
        0,
        "a full sweep empties every sweepable table"
    );

    // Lifting after the sweep repopulates the tables and produces the same
    // outcome (timings aside).
    let after = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(after.kernels.len(), before.kernels.len());
    assert_eq!(after.kernels[0].outcome, before.kernels[0].outcome);
    assert_eq!(
        after.kernels[0].postcond_nodes,
        before.kernels[0].postcond_nodes
    );
    assert!(memory::sweepable_entries() > 0);

    // Stats cover sym + solve + symbols, and symbols are exempt from sweeps.
    let stats = memory::arena_stats();
    for sym_store in ["sym.exprs", "sym.factors"] {
        assert!(
            stats.iter().any(|s| s.name == sym_store),
            "missing arena stats for {sym_store}"
        );
    }
    for solve_store in [
        "solve.nexprs",
        "solve.nfactors",
        "solve.lin_rows",
        "solve.fm_memo",
        "solve.lin_cores",
    ] {
        assert!(
            stats.iter().any(|s| s.name == solve_store),
            "missing arena stats for {solve_store}"
        );
    }
    let symbols = stats
        .iter()
        .find(|s| s.name == "intern.symbols")
        .expect("symbol stats present");
    assert!(symbols.entries > 0);
}

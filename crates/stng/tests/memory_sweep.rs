//! Epoch-sweep behaviour of the global expression arenas.
//!
//! Lives in its own integration-test binary (= its own process), and its
//! tests run one at a time under [`SERIAL`]: a sweep is only legal at
//! quiescent points, and any test lifting concurrently in the same process
//! would race with it.

use std::sync::{Mutex, MutexGuard};
use stng::memory;
use stng::pipeline::Stng;
use stng_ir::value::DataValue;
use stng_pred::fixtures;
use stng_sym::expr::{Atom, SymExpr};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn arena_entries(name: &str) -> usize {
    memory::arena_stats()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("missing arena stats for {name}"))
        .entries
}

#[test]
fn sweeps_reduce_occupancy_and_respect_epoch_tags() {
    let _serial = serial();
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

    // Partial sweep: populate, advance the epoch, touch entries by lifting
    // again, then sweep with the new epoch as cutoff — what the second lift
    // touched survives.
    let cutoff = stng_intern::epoch::advance();
    stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    let evicted = stng_sym::retain_epoch(cutoff) + stng_solve::retain_epoch(cutoff);
    // The arenas were re-touched wholesale by the second lift, but memo
    // entries are tagged at insertion and the repeated lift hit (rather than
    // re-inserted) them, so the sweep evicts those stale memo entries while
    // the arena survives.
    assert!(evicted > 0);
    assert!(memory::sweepable_entries() > 0);
    // And lifting still works after the partial sweep.
    let partial = stng.lift_source(fixtures::RUNNING_EXAMPLE).unwrap();
    assert_eq!(partial.translated(), 1);
}

/// A node re-tagged on an arena hit does not re-tag its factor sets (sums
/// copy factor handles), so a partial sweep can evict a factor set that a
/// surviving node still holds. Rebuilding the same value must then still
/// find that node: factor-set equality and hashing are by content, not by
/// pointer.
#[test]
fn partial_sweep_keeps_nodes_canonical_after_their_factor_sets_are_evicted() {
    let _serial = serial();
    memory::sweep();
    let b = || SymExpr::read("b", vec![1, 2]);
    let c = || SymExpr::read("c", vec![0]);
    let d = SymExpr::var("d");

    // Epoch 0: intern the node `b[1,2] + c[0]`, plus two operands whose sum
    // is the same value but whose `add` is not memoized yet.
    let node = b().add(&c());
    let operands = (node.add(&d), d.neg());
    let b_factors = node.terms()[0].factors;

    // Epoch 1: re-derive the node from those operands. The arena hit
    // re-tags the node; its factor sets keep their epoch-0 tags.
    let cutoff = stng_intern::epoch::advance();
    assert_eq!(operands.0.add(&operands.1), node);
    stng_sym::retain_epoch(cutoff);
    assert_eq!(
        arena_entries("sym.exprs"),
        1,
        "only the re-tagged node survives"
    );
    assert_eq!(
        arena_entries("sym.factors"),
        0,
        "its factor sets were evicted"
    );

    // Rebuilding from scratch mints fresh factor sets, equal by content to
    // the evicted ones, and must land on the surviving node.
    let rebuilt = b().add(&c());
    assert_eq!(rebuilt, node, "rebuilding must return the surviving node");
    assert!(std::ptr::eq(rebuilt.terms(), node.terms()));
    let fresh = stng_intern::sop::Factors::one(Atom::Read {
        array: "b".into(),
        indices: vec![1, 2],
    });
    assert!(!std::ptr::eq(fresh.as_slice(), b_factors.as_slice()));
    assert_eq!(fresh, b_factors);
    assert_eq!(arena_entries("sym.exprs"), 3, "b, c and the surviving sum");
    memory::sweep();
}

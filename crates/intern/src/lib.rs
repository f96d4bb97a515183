//! Interning and hash-consing primitives shared by the lifting pipeline.
//!
//! The synthesizer and verifier spend essentially all of their time building,
//! comparing, and hashing symbolic expressions. In the original
//! representation every atom carried an owned `String` and every structural
//! equality check walked whole trees. This crate provides the shared
//! machinery that makes those operations O(1):
//!
//! * [`Symbol`] — a globally interned string. Copyable, pointer-equal,
//!   pointer-hashed, but *ordered by string content* so collections keyed by
//!   symbols iterate in the same order as the `String`-keyed originals.
//! * [`ConsSet`] — a hash-consing arena: structurally equal values are
//!   interned to the same `&'static T`, so node identity (a pointer compare)
//!   coincides with structural equality.
//! * [`Memo`] — a concurrent memo table for caching operation results keyed
//!   on consed node identities.
//! * [`sop`] — the hash-consed sum-of-products ring built from those two,
//!   instantiated once for symbolic execution (concrete array indices) and
//!   once for the prover (affine array indices).
//! * [`parallel`] — scoped-thread work distribution (the container has no
//!   crates.io access, so this stands in for rayon on embarrassingly parallel
//!   CEGIS workloads).
//! * [`pin`](mod@pin) — lift pins and the quiescent [`sweep`], the only
//!   way to clear the tables above.
//!
//! Interned data is leaked deliberately, so a handle is a plain `&'static`
//! reference — but the tables themselves are **not** append-only:
//! [`ConsSet::clear`] and [`Memo::clear`] empty them, and both demand the
//! [`Quiescent`] token that [`sweep`] hands out only while no lift holds a
//! [`Pin`]. Between two sweeps every `Copy` handle stays canonical. See
//! `docs/service.md` for the eviction contract.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::{OnceLock, RwLock};

pub mod guard;
pub mod pin;
pub mod sop;

pub use pin::{pin, sweep, Pin, Quiescent};

/// Occupancy snapshot of one arena or memo table (the observable the batch
/// driver prints so eviction is auditable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaStats {
    /// Table name (e.g. `"sym.exprs"`, `"solve.fm_memo"`).
    pub name: &'static str,
    /// Number of live entries.
    pub entries: usize,
    /// Shallow resident-size estimate in bytes: entry payload size plus
    /// per-entry table overhead. Heap data owned by entries (vectors, maps)
    /// is not traversed, so this is a lower bound.
    pub approx_bytes: usize,
}

impl ArenaStats {
    /// Builds a snapshot from an entry count and a per-entry shallow size.
    pub fn new(name: &'static str, entries: usize, entry_bytes: usize) -> ArenaStats {
        // Two words of hash-table overhead per entry.
        let overhead = 2 * std::mem::size_of::<usize>();
        ArenaStats {
            name,
            entries,
            approx_bytes: entries * (entry_bytes + overhead),
        }
    }
}

/// A globally interned, copyable string.
///
/// Equality and hashing are by pointer (O(1)); ordering is by string content,
/// so replacing `String` keys with `Symbol` keys preserves the iteration
/// order of sorted containers — a property the expression normal forms rely
/// on.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

static SYMBOLS: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it.
    pub fn intern(name: &str) -> Symbol {
        let lock = SYMBOLS.get_or_init(Default::default);
        if let Some(&found) = lock.read().expect("symbol table poisoned").get(name) {
            return Symbol(found);
        }
        let mut table = lock.write().expect("symbol table poisoned");
        if let Some(&found) = table.get(name) {
            return Symbol(found);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        table.insert(leaked);
        Symbol(leaked)
    }

    /// Interns a string that is already `'static` (span/metric name
    /// constants): a miss inserts the reference itself instead of leaking a
    /// copy. Sweeps never clear the symbol table, so a symbol stays canonical
    /// for the life of the process — the property the `stng-obs` recorder
    /// relies on for events that outlive arena sweeps.
    pub fn intern_static(name: &'static str) -> Symbol {
        let lock = SYMBOLS.get_or_init(Default::default);
        if let Some(&found) = lock.read().expect("symbol table poisoned").get(name) {
            return Symbol(found);
        }
        let mut table = lock.write().expect("symbol table poisoned");
        if let Some(&found) = table.get(name) {
            return Symbol(found);
        }
        table.insert(name);
        Symbol(name)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Occupancy snapshot of the global symbol table. Symbols are tiny,
    /// shared by every layer, and embedded in long-lived structures
    /// (`Affine` keys, cached reports), so they are never swept; this exists
    /// so the batch driver can report them alongside the sweepable arenas.
    pub fn table_stats() -> ArenaStats {
        let Some(lock) = SYMBOLS.get() else {
            return ArenaStats::new("intern.symbols", 0, 0);
        };
        let table = lock.read().expect("symbol table poisoned");
        let bytes: usize = table
            .iter()
            .map(|s| s.len() + std::mem::size_of::<&str>())
            .sum();
        ArenaStats {
            name: "intern.symbols",
            entries: table.len(),
            approx_bytes: bytes,
        }
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.0.as_ptr() as usize).hash(state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<String> for Symbol {
    fn from(name: String) -> Symbol {
        Symbol::intern(&name)
    }
}

/// A hash-consing arena: [`ConsSet::intern`] returns the canonical
/// `&'static T` for each distinct value, so two interned references are
/// structurally equal iff they are pointer-equal.
///
/// [`ConsSet::clear`] empties the table. Cleared nodes are *removed from the
/// table but never freed* — outstanding `&'static T` handles stay readable —
/// so the first re-intern of an equal value after a sweep produces a fresh
/// canonical node.
///
/// Declare as a `static`: `static ARENA: ConsSet<Node> = ConsSet::new();`
pub struct ConsSet<T: 'static> {
    inner: OnceLock<RwLock<HashSet<&'static T>>>,
}

impl<T: Hash + Eq> ConsSet<T> {
    /// An empty arena (usable in `static` position).
    pub const fn new() -> ConsSet<T> {
        ConsSet {
            inner: OnceLock::new(),
        }
    }

    /// Interns `value`, returning its canonical leaked reference.
    pub fn intern(&self, value: T) -> &'static T {
        let lock = self.inner.get_or_init(Default::default);
        if let Some(&found) = lock.read().expect("cons arena poisoned").get(&value) {
            return found;
        }
        let mut set = lock.write().expect("cons arena poisoned");
        if let Some(&found) = set.get(&value) {
            return found;
        }
        let leaked: &'static T = Box::leak(Box::new(value));
        set.insert(leaked);
        leaked
    }

    /// Number of distinct values interned since the last clear.
    pub fn len(&self) -> usize {
        self.inner
            .get()
            .map(|l| l.read().expect("cons arena poisoned").len())
            .unwrap_or(0)
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the table and returns the number of entries it held. Node
    /// allocations are intentionally not reclaimed — see the type-level
    /// contract.
    pub fn clear(&self, _: &Quiescent) -> usize {
        self.inner.get().map_or(0, |lock| {
            std::mem::take(&mut *lock.write().expect("cons arena poisoned")).len()
        })
    }

    /// Occupancy snapshot under `name` (shallow bytes, see [`ArenaStats`]).
    pub fn stats(&self, name: &'static str) -> ArenaStats {
        ArenaStats::new(name, self.len(), std::mem::size_of::<T>())
    }
}

impl<T: Hash + Eq> Default for ConsSet<T> {
    fn default() -> Self {
        ConsSet::new()
    }
}

/// A concurrent memo table for operation results keyed on consed identities.
///
/// Values must be `Copy` (they are consed references or small ids in
/// practice), which keeps lookups allocation-free. [`Memo::clear`] empties
/// the table in the same sweep that clears the arenas its keys and values
/// point into.
pub struct Memo<K: 'static, V: 'static> {
    inner: OnceLock<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V: Copy> Memo<K, V> {
    /// An empty memo table (usable in `static` position).
    pub const fn new() -> Memo<K, V> {
        Memo {
            inner: OnceLock::new(),
        }
    }

    /// Looks up a cached result.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner
            .get()?
            .read()
            .expect("memo table poisoned")
            .get(key)
            .copied()
    }

    /// Caches `value` under `key`.
    pub fn insert(&self, key: K, value: V) {
        self.inner
            .get_or_init(Default::default)
            .write()
            .expect("memo table poisoned")
            .insert(key, value);
    }

    /// Returns the cached result for `key`, or computes, caches and returns
    /// it. No lock is held while `compute` runs, so it may recurse into the
    /// same table.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        let value = compute();
        self.insert(key, value);
        value
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner
            .get()
            .map(|l| l.read().expect("memo table poisoned").len())
            .unwrap_or(0)
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the table and returns the number of entries it held.
    pub fn clear(&self, _: &Quiescent) -> usize {
        self.inner.get().map_or(0, |lock| {
            std::mem::take(&mut *lock.write().expect("memo table poisoned")).len()
        })
    }

    /// Occupancy snapshot under `name` (shallow bytes, see [`ArenaStats`]).
    pub fn stats(&self, name: &'static str) -> ArenaStats {
        ArenaStats::new(
            name,
            self.len(),
            std::mem::size_of::<K>() + std::mem::size_of::<V>(),
        )
    }
}

impl<K: Hash + Eq, V: Copy> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

/// Canonical bit pattern of an `f64` for hashing/consing: collapses `-0.0`
/// onto `+0.0` so consing equality agrees with `==` on the coefficients the
/// pipeline produces.
pub fn f64_key(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

pub mod parallel {
    //! Scoped-thread work distribution for embarrassingly parallel stages.
    //!
    //! Postcondition synthesis, the bounded screen's units and the
    //! validation fallback run pure functions over shared immutable data,
    //! and CEGIS overlaps each candidate's screen with its proof. These
    //! helpers spread that work over `std::thread::scope` threads while
    //! keeping results deterministic (a parallel search returns the same
    //! element the sequential scan would have, and every helper has a
    //! sequential fallback at one thread). Helper threads of a pinned
    //! thread inherit its pin (see [`crate::pin()`]).

    use crate::pin::{held, inherit};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Number of worker threads to use by default.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Applies `f` to every item, in parallel across `threads` workers, and
    /// returns the results in input order. Falls back to a sequential map
    /// when `threads <= 1` or there is at most one item.
    pub fn map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let threads = threads.min(items.len());
        if threads <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        let pinned = held();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    inherit(pinned);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() {
                            break;
                        }
                        let r = f(&items[k]);
                        results.lock().expect("result vector poisoned").push((k, r));
                    }
                });
            }
        });
        let mut results = results.into_inner().expect("result vector poisoned");
        results.sort_by_key(|(k, _)| *k);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Finds the item with the **lowest index** for which `f` returns
    /// `Some`, evaluating candidates in parallel. Matches the sequential
    /// first-success semantics of a `for` loop with early return, which is
    /// what keeps a parallelized CEGIS scan deterministic.
    ///
    /// Workers skip indices above the best success seen so far, so the extra
    /// work past the winner stays bounded.
    pub fn find_first<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(usize, &T) -> Option<R> + Sync,
    ) -> Option<(usize, R)> {
        let threads = threads.min(items.len());
        if threads <= 1 {
            return items
                .iter()
                .enumerate()
                .find_map(|(k, item)| f(k, item).map(|r| (k, r)));
        }
        let next = AtomicUsize::new(0);
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Option<(usize, R)>> = Mutex::new(None);
        let pinned = held();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    inherit(pinned);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() || k > best.load(Ordering::Acquire) {
                            break;
                        }
                        if let Some(r) = f(k, &items[k]) {
                            best.fetch_min(k, Ordering::AcqRel);
                            let mut slot = found.lock().expect("result slot poisoned");
                            if slot.as_ref().map(|(j, _)| k < *j).unwrap_or(true) {
                                *slot = Some((k, r));
                            }
                            break;
                        }
                    }
                });
            }
        });
        found.into_inner().expect("result slot poisoned")
    }

    /// Runs `a` on a scoped helper thread while the caller runs `b`, and
    /// returns both results. Falls back to running `a` and then `b` in
    /// order when `threads <= 1`, so `b` can observe what `a` did.
    ///
    /// A panic in `a` reaches the caller with its original payload once `b`
    /// has returned (not the generic "a scoped thread panicked").
    pub fn join<A: Send, B>(
        threads: usize,
        a: impl FnOnce() -> A + Send,
        b: impl FnOnce() -> B,
    ) -> (A, B) {
        if threads <= 1 {
            let ra = a();
            return (ra, b());
        }
        let pinned = held();
        std::thread::scope(|scope| {
            let helper = scope.spawn(move || {
                inherit(pinned);
                a()
            });
            let rb = b();
            match helper.join() {
                Ok(ra) => (ra, rb),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_pointer_equal_and_string_ordered() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        let c = Symbol::intern("beta");
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        // Ordering agrees with string ordering for arbitrary pairs.
        for (x, y) in [("a", "b"), ("zz", "za"), ("m", "m"), ("", "a")] {
            assert_eq!(
                Symbol::intern(x).cmp(&Symbol::intern(y)),
                x.cmp(y),
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn cons_set_dedupes_structurally() {
        static ARENA: ConsSet<Vec<i64>> = ConsSet::new();
        let a = ARENA.intern(vec![1, 2, 3]);
        let b = ARENA.intern(vec![1, 2, 3]);
        let c = ARENA.intern(vec![4]);
        assert!(std::ptr::eq(a, b));
        assert!(!std::ptr::eq(a, c));
        assert!(ARENA.len() >= 2);
    }

    #[test]
    fn memo_round_trips() {
        static MEMO: Memo<(usize, usize), usize> = Memo::new();
        assert_eq!(MEMO.get(&(1, 2)), None);
        MEMO.insert((1, 2), 3);
        assert_eq!(MEMO.get(&(1, 2)), Some(3));
    }

    #[test]
    fn clear_empties_the_tables_and_stale_handles_stay_readable() {
        static ARENA: ConsSet<(u64, u64)> = ConsSet::new();
        static MEMO: Memo<(u64, u64), u64> = Memo::new();
        let stale = ARENA.intern((1, 1));
        ARENA.intern((2, 2));
        MEMO.insert((1, 1), 10);
        assert_eq!(ARENA.len(), 2);

        let (generation, evicted) = sweep(|q| (ARENA.clear(q), MEMO.clear(q)));
        assert!(generation >= 2);
        assert_eq!(evicted, (2, 1));
        assert!(ARENA.is_empty());
        assert_eq!(MEMO.get(&(1, 1)), None);

        // The stale handle stays valid (nodes are never freed) but is no
        // longer canonical: re-interning mints a fresh node, which is then
        // the canonical one.
        assert_eq!(*stale, (1, 1));
        let fresh = ARENA.intern((1, 1));
        assert!(!std::ptr::eq(stale, fresh));
        assert_eq!(*fresh, (1, 1));
        assert!(std::ptr::eq(fresh, ARENA.intern((1, 1))));
    }

    #[test]
    fn stats_report_entries_and_bytes() {
        static ARENA: ConsSet<u64> = ConsSet::new();
        ARENA.intern(7);
        ARENA.intern(8);
        let s = ARENA.stats("test.arena");
        assert_eq!(s.entries, 2);
        assert!(s.approx_bytes >= 2 * std::mem::size_of::<u64>());
        Symbol::intern("stats_probe");
        let sym = Symbol::table_stats();
        assert!(sym.entries >= 1);
        assert!(sym.approx_bytes > 0);
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct TestDomain;

    static TEST_TABLES: sop::Tables<TestDomain> =
        sop::Tables::new(["t.exprs", "t.factors", "t.add", "t.mul", "t.div", "t.neg"]);

    impl sop::Domain for TestDomain {
        type Index = i64;
        const NAME: &'static str = "TestExpr";
        const READABLE: bool = true;
        fn tables() -> &'static sop::Tables<TestDomain> {
            &TEST_TABLES
        }
    }

    #[test]
    fn factor_sets_merge_by_adding_powers_and_intern_once() {
        use sop::{Atom, Factors};
        let atom = |k: u8| Atom::<TestDomain>::Var(Symbol::intern(&format!("v{k}")));
        let x = Factors::one(atom(1));
        let y = Factors::one(atom(2));
        let xy = y.merge(x);
        assert_eq!(xy.as_slice(), &[(atom(1), 1), (atom(2), 1)]);
        let product = x.merge(x).merge(xy);
        assert_eq!(product.as_slice(), &[(atom(1), 3), (atom(2), 1)]);
        // The same product built another way is the same interned set.
        let again = x.merge(xy.merge(x));
        assert!(std::ptr::eq(product.as_slice(), again.as_slice()));
        // A constant side returns the other handle untouched.
        assert!(std::ptr::eq(
            Factors::empty().merge(x).as_slice(),
            x.as_slice()
        ));
        // Content order: {1:1} < {1:1, 2:1} < {1:3, 2:1} < {2:1}.
        let ordered = [x, xy, product, y];
        for pair in ordered.windows(2) {
            assert!(pair[0] < pair[1], "{:?} < {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn f64_key_canonicalizes_negative_zero() {
        assert_eq!(f64_key(-0.0), f64_key(0.0));
        assert_ne!(f64_key(1.0), f64_key(2.0));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel::map(&items, 8, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_find_first_matches_sequential_semantics() {
        let items: Vec<usize> = (0..64).collect();
        // Successes at 17, 20, 40: the sequential scan returns 17.
        let hit = |_k: usize, x: &usize| -> Option<usize> {
            if [17, 20, 40].contains(x) {
                Some(*x * 10)
            } else {
                None
            }
        };
        for threads in [1, 2, 8] {
            assert_eq!(
                parallel::find_first(&items, threads, hit),
                Some((17, 170)),
                "threads = {threads}"
            );
        }
        assert_eq!(parallel::find_first(&items, 8, |_, _| None::<()>), None);
    }

    #[test]
    fn parallel_join_runs_both_and_orders_the_serial_fallback() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for threads in [1, 2] {
            let a_done = AtomicBool::new(false);
            let (a, b_saw_a) = parallel::join(
                threads,
                || {
                    a_done.store(true, Ordering::SeqCst);
                    7
                },
                || a_done.load(Ordering::SeqCst),
            );
            assert_eq!(a, 7);
            if threads == 1 {
                assert!(b_saw_a, "the serial fallback runs `a` first");
            }
        }
    }

    #[test]
    fn parallel_join_forwards_the_helper_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel::join(2, || -> () { panic!("helper payload") }, || 1)
        })
        .expect_err("the helper panic must reach the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"helper payload"));
    }
}

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
//!
//! Interned data is leaked deliberately, so a handle is a plain `&'static`
//! reference — but the tables themselves are **not** append-only: every entry
//! carries the [`epoch`] in which it was last interned (arenas also re-tag on
//! lookup hits), and [`ConsSet::retain_epoch`] / [`Memo::retain_epoch`] sweep
//! entries older than a cutoff. A long-running service advances the epoch and
//! sweeps between batches; within an epoch all `Copy` handles stay canonical.
//! See `docs/service.md` for the eviction contract.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{OnceLock, RwLock};

pub mod guard;
pub mod sop;

pub mod epoch {
    //! The global arena epoch: a monotone generation counter used to tag
    //! interned entries for eviction.
    //!
    //! The contract: `Copy` handles (`SymExpr`, `NormExpr`, …) obtained
    //! during one epoch are canonical for that whole epoch. After
    //! [`advance`] + a `retain_epoch` sweep, handles from earlier epochs
    //! remain *valid* (nodes are never freed, so no dangling references)
    //! but may stop being canonical: a structurally equal value interned
    //! later gets a fresh node, so pointer equality across a sweep boundary
    //! is meaningless. Callers therefore sweep only at quiescent points
    //! (between batches), when no expression handles are live.
    use super::{AtomicOrdering, AtomicU64};

    static EPOCH: AtomicU64 = AtomicU64::new(1);

    /// The current epoch (starts at 1).
    pub fn current() -> u64 {
        EPOCH.load(AtomicOrdering::Acquire)
    }

    /// Advances to the next epoch and returns it. Entries tagged before the
    /// returned value are eligible for `retain_epoch(returned)` sweeps.
    pub fn advance() -> u64 {
        EPOCH.fetch_add(1, AtomicOrdering::AcqRel) + 1
    }
}

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
        // Two words of hash-table overhead per entry plus the epoch tag.
        let overhead = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<u64>();
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
    /// copy. Symbols are exempt from epoch sweeps, so names interned this
    /// way stay valid for the life of the process — the property the
    /// `stng-obs` recorder relies on for events that outlive arena sweeps.
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
/// Every entry carries the [`epoch`] in which it was last interned (initial
/// insert or lookup hit); [`ConsSet::retain_epoch`] evicts entries last used
/// before a cutoff. Evicted nodes are *removed from the table but never
/// freed* — outstanding `&'static T` handles stay valid — so the first
/// re-intern of an equal value after a sweep produces a fresh canonical node.
///
/// Declare as a `static`: `static ARENA: ConsSet<Node> = ConsSet::new();`
pub struct ConsSet<T: 'static> {
    inner: OnceLock<RwLock<HashMap<&'static T, AtomicU64>>>,
}

impl<T: Hash + Eq> ConsSet<T> {
    /// An empty arena (usable in `static` position).
    pub const fn new() -> ConsSet<T> {
        ConsSet {
            inner: OnceLock::new(),
        }
    }

    /// Interns `value`, returning its canonical leaked reference. Re-tags the
    /// entry with the current epoch on every call (touch-on-hit), so values
    /// still in use survive `retain_epoch` sweeps with older cutoffs.
    pub fn intern(&self, value: T) -> &'static T {
        let lock = self.inner.get_or_init(Default::default);
        let now = epoch::current();
        if let Some((&found, tag)) = lock
            .read()
            .expect("cons arena poisoned")
            .get_key_value(&value)
        {
            // The tag is atomic precisely so a lookup hit can re-tag under
            // the shared read lock.
            tag.store(now, AtomicOrdering::Relaxed);
            return found;
        }
        let mut set = lock.write().expect("cons arena poisoned");
        if let Some((&found, tag)) = set.get_key_value(&value) {
            tag.store(now, AtomicOrdering::Relaxed);
            return found;
        }
        let leaked: &'static T = Box::leak(Box::new(value));
        set.insert(leaked, AtomicU64::new(now));
        leaked
    }

    /// Number of distinct values interned so far.
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

    /// Evicts every entry last interned before `cutoff` (keeps entries with
    /// tag ≥ `cutoff`) and returns the number evicted. Node allocations are
    /// intentionally not reclaimed — see the type-level contract.
    pub fn retain_epoch(&self, cutoff: u64) -> usize {
        let Some(lock) = self.inner.get() else {
            return 0;
        };
        let mut set = lock.write().expect("cons arena poisoned");
        let before = set.len();
        set.retain(|_, tag| tag.load(AtomicOrdering::Relaxed) >= cutoff);
        set.shrink_to_fit();
        before - set.len()
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
/// practice), which keeps lookups allocation-free.
///
/// Entries are tagged with the [`epoch`] of their *insertion* and are **not**
/// re-tagged on hits. This ordering discipline is what makes sweeping sound:
/// a memo value handle is interned (and therefore arena-tagged) at the moment
/// its entry is inserted, and arena tags only move forward, so an entry's tag
/// is always ≤ the tag of the node its value points to. Sweeping memos and
/// arenas with the same cutoff can then never leave a memo entry whose value
/// node was evicted — the entry always dies first.
pub struct Memo<K: 'static, V: 'static> {
    inner: OnceLock<RwLock<HashMap<K, (V, u64)>>>,
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
            .map(|(v, _)| *v)
    }

    /// Caches `value` under `key`, tagged with the current epoch.
    pub fn insert(&self, key: K, value: V) {
        self.inner
            .get_or_init(Default::default)
            .write()
            .expect("memo table poisoned")
            .insert(key, (value, epoch::current()));
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

    /// Evicts every entry inserted before `cutoff` and returns the number
    /// evicted.
    pub fn retain_epoch(&self, cutoff: u64) -> usize {
        let Some(lock) = self.inner.get() else {
            return 0;
        };
        let mut map = lock.write().expect("memo table poisoned");
        let before = map.len();
        map.retain(|_, (_, tag)| *tag >= cutoff);
        map.shrink_to_fit();
        before - map.len()
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
    //! sequential fallback at one thread).

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
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= items.len() {
                        break;
                    }
                    let r = f(&items[k]);
                    results.lock().expect("result vector poisoned").push((k, r));
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
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
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
        std::thread::scope(|scope| {
            let helper = scope.spawn(a);
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
    fn retain_epoch_sweeps_stale_entries_and_keeps_touched_ones() {
        static ARENA: ConsSet<(u64, u64)> = ConsSet::new();
        static MEMO: Memo<(u64, u64), u64> = Memo::new();
        let e0 = epoch::current();
        let stale = ARENA.intern((1, 1));
        ARENA.intern((2, 2));
        MEMO.insert((1, 1), 10);
        assert_eq!(ARENA.len(), 2);

        let e1 = epoch::advance();
        assert!(e1 > e0);
        // Touch (2,2) in the new epoch: it must survive a sweep at e1.
        let kept = ARENA.intern((2, 2));
        MEMO.insert((2, 2), 20);
        let evicted = ARENA.retain_epoch(e1);
        assert_eq!(evicted, 1);
        assert_eq!(ARENA.len(), 1);
        assert_eq!(MEMO.retain_epoch(e1), 1);
        assert_eq!(MEMO.get(&(1, 1)), None);
        assert_eq!(MEMO.get(&(2, 2)), Some(20));

        // The stale handle stays valid (nodes are never freed) but is no
        // longer canonical: re-interning mints a fresh node.
        assert_eq!(*stale, (1, 1));
        let fresh = ARENA.intern((1, 1));
        assert!(!std::ptr::eq(stale, fresh));
        assert_eq!(*fresh, (1, 1));
        // The survivor is still canonical.
        assert!(std::ptr::eq(kept, ARENA.intern((2, 2))));
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

//! The metrics registry: named counters, time accumulators, gauges, and
//! histograms with pre-registered handles.
//!
//! Registration ([`register`] or a [`Lazy`] static) hashes the metric name
//! exactly once and hands back a dense cell; every increment after that is
//! one atomic add — no string hashing, no locking on the hot path. Adding a
//! counter anywhere in the workspace is a one-line `Lazy` declaration
//! instead of a field threaded through four crates.
//!
//! Kinds are semantic, not structural (every scalar cell is a `u64`):
//!
//! * **Counter** — monotonic event counts with deterministic semantics
//!   (cache hits, captures, memo misses). Single-threaded runs of the same
//!   input produce byte-identical counter snapshots; the determinism test
//!   pins this.
//! * **TimeNs** — monotonic nanosecond accumulators: schedule-dependent,
//!   excluded from the deterministic section.
//! * **Gauge** — last-write-wins occupancy values (arena entries).
//! * **Histogram** — power-of-two-bucketed distributions (per-kernel phase
//!   durations).
//!
//! The per-kernel [`MetricSet`] is the registry's scoped aggregation unit:
//! synthesis fills one per kernel, `PhaseTimings` is derived from it (the
//! façade the reports and bench gates keep consuming), and
//! [`MetricSet::flush`] folds it into the process-wide cells that
//! `stng-batch --metrics-json` exports.

use crate::json::{n, nu64, obj, Json};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use stng_intern::Symbol;

/// Metric kind (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic monotonic count.
    Counter,
    /// Wall-time accumulator (nanoseconds).
    TimeNs,
    /// Last-write-wins value.
    Gauge,
}

/// Dense registry index of a scalar metric; the key of [`MetricSet`] cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId(u32);

/// A registered scalar metric: copyable, lock-free to update.
#[derive(Clone, Copy)]
pub struct Handle {
    cell: &'static AtomicU64,
    id: MetricId,
}

impl Handle {
    /// Adds to a counter/time cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets a gauge cell.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The dense id (for [`MetricSet`] accumulation).
    pub fn id(&self) -> MetricId {
        self.id
    }
}

/// A registered histogram: 64 power-of-two buckets plus count and sum.
/// Bucket `k` holds values whose bit length is `k` (bucket 0: value 0).
pub struct HistogramCells {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Histogram handle.
#[derive(Clone, Copy)]
pub struct Histogram {
    cells: &'static HistogramCells,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.cells.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// (count, sum).
    pub fn totals(&self) -> (u64, u64) {
        (
            self.cells.count.load(Ordering::Relaxed),
            self.cells.sum.load(Ordering::Relaxed),
        )
    }
}

#[derive(Default)]
struct Registry {
    index: HashMap<&'static str, u32>,
    /// (name, kind, cell), insertion-ordered; `MetricId` indexes this.
    scalars: Vec<(&'static str, MetricKind, &'static AtomicU64)>,
    histograms: Vec<(&'static str, &'static HistogramCells)>,
    hist_index: HashMap<&'static str, usize>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

/// Registers (or finds) a scalar metric. Idempotent per name; the kind of
/// the first registration wins. Call once and keep the handle — this is
/// the only path that locks or hashes.
pub fn register(name: &'static str, kind: MetricKind) -> Handle {
    let mut reg = registry().lock().expect("metric registry poisoned");
    if let Some(&at) = reg.index.get(name) {
        let (_, _, cell) = reg.scalars[at as usize];
        return Handle {
            cell,
            id: MetricId(at),
        };
    }
    let at = reg.scalars.len() as u32;
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.index.insert(name, at);
    reg.scalars.push((name, kind, cell));
    Handle {
        cell,
        id: MetricId(at),
    }
}

/// Registers a scalar metric whose name is built at runtime (arena gauges).
/// The name is interned — symbols are never swept — so the registry still
/// borrows `'static` text.
pub fn register_dynamic(name: &str, kind: MetricKind) -> Handle {
    register(Symbol::intern(name).as_str(), kind)
}

/// Registers (or finds) a histogram.
pub fn register_histogram(name: &'static str) -> Histogram {
    let mut reg = registry().lock().expect("metric registry poisoned");
    if let Some(&at) = reg.hist_index.get(name) {
        return Histogram {
            cells: reg.histograms[at].1,
        };
    }
    let cells: &'static HistogramCells = Box::leak(Box::new(HistogramCells {
        buckets: [(); 64].map(|_| AtomicU64::new(0)),
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
    }));
    let at = reg.histograms.len();
    reg.hist_index.insert(name, at);
    reg.histograms.push((name, cells));
    Histogram { cells }
}

/// A lazily registered scalar metric, for one-line declarations at the
/// instrumentation site:
///
/// ```
/// static CACHE_HITS: stng_obs::metrics::Lazy =
///     stng_obs::metrics::Lazy::counter("example.cache.hits");
/// CACHE_HITS.add(1);
/// ```
pub struct Lazy {
    name: &'static str,
    kind: MetricKind,
    handle: OnceLock<Handle>,
}

impl Lazy {
    /// A deterministic counter.
    pub const fn counter(name: &'static str) -> Lazy {
        Lazy {
            name,
            kind: MetricKind::Counter,
            handle: OnceLock::new(),
        }
    }

    /// A wall-time accumulator.
    pub const fn time_ns(name: &'static str) -> Lazy {
        Lazy {
            name,
            kind: MetricKind::TimeNs,
            handle: OnceLock::new(),
        }
    }

    /// A gauge.
    pub const fn gauge(name: &'static str) -> Lazy {
        Lazy {
            name,
            kind: MetricKind::Gauge,
            handle: OnceLock::new(),
        }
    }

    /// The registered handle (registering on first use).
    pub fn handle(&self) -> Handle {
        *self.handle.get_or_init(|| register(self.name, self.kind))
    }

    /// Adds to the cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Sets the cell.
    #[inline]
    pub fn set(&self, v: u64) {
        self.handle().set(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// A scoped bundle of registry cells — the per-kernel aggregation unit.
/// Cells are addressed by [`MetricId`], so a set and the global registry
/// agree on what every slot means.
pub struct MetricSet {
    cells: Vec<AtomicU64>,
}

impl MetricSet {
    /// An empty set sized to the current registry.
    pub fn new() -> MetricSet {
        let n = registry()
            .lock()
            .expect("metric registry poisoned")
            .scalars
            .len();
        MetricSet {
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds into one cell (shared-reference, so parallel candidate workers
    /// can feed one kernel's set).
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        self.cells[id.0 as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Reads one cell.
    pub fn get(&self, id: MetricId) -> u64 {
        self.cells[id.0 as usize].load(Ordering::Relaxed)
    }

    /// Folds this set into the process-wide cells (gauges are skipped: a
    /// per-kernel snapshot of an occupancy value has no meaningful sum).
    pub fn flush(&self) {
        let reg = registry().lock().expect("metric registry poisoned");
        for (cell, (_, kind, global)) in self.cells.iter().zip(&reg.scalars) {
            let v = cell.load(Ordering::Relaxed);
            if v > 0 && *kind != MetricKind::Gauge {
                global.fetch_add(v, Ordering::Relaxed);
            }
        }
    }
}

impl Default for MetricSet {
    fn default() -> Self {
        MetricSet::new()
    }
}

/// Adds directly into a process-wide cell by id — for cold paths (fallback
/// validation, late corrections) that have no [`MetricSet`] in hand.
pub fn add_global(id: MetricId, n: u64) {
    let reg = registry().lock().expect("metric registry poisoned");
    let (_, _, cell) = reg.scalars[id.0 as usize];
    cell.fetch_add(n, Ordering::Relaxed);
}

/// The pre-registered per-kernel phase metrics — the registry's view of
/// what `PhaseTimings` used to thread by hand. New phase counters are added
/// here (one line) and picked up by every report.
pub struct PhaseMetrics {
    pub capture_ns: MetricId,
    pub bounded_ns: MetricId,
    pub prove_ns: MetricId,
    pub captures: MetricId,
    pub oblig_hits: MetricId,
    pub oblig_misses: MetricId,
    pub core_hits: MetricId,
    pub screened: MetricId,
    pub survivors: MetricId,
    pub batch_scans: MetricId,
}

/// The phase-metric ids (registered on first use).
pub fn phase() -> &'static PhaseMetrics {
    static PHASE: OnceLock<PhaseMetrics> = OnceLock::new();
    PHASE.get_or_init(|| PhaseMetrics {
        capture_ns: register("phase.capture_ns", MetricKind::TimeNs).id(),
        bounded_ns: register("phase.bounded_ns", MetricKind::TimeNs).id(),
        prove_ns: register("phase.prove_ns", MetricKind::TimeNs).id(),
        captures: register("phase.captures", MetricKind::Counter).id(),
        oblig_hits: register("prover.oblig_hits", MetricKind::Counter).id(),
        oblig_misses: register("prover.oblig_misses", MetricKind::Counter).id(),
        core_hits: register("prover.core_hits", MetricKind::Counter).id(),
        screened: register("bounded.screened", MetricKind::Counter).id(),
        survivors: register("bounded.survivors", MetricKind::Counter).id(),
        batch_scans: register("bounded.batch_scans", MetricKind::Counter).id(),
    })
}

/// Zeroes every registered cell (tests; quiescent points only).
pub fn reset() {
    let reg = registry().lock().expect("metric registry poisoned");
    for (_, _, cell) in &reg.scalars {
        cell.store(0, Ordering::Relaxed);
    }
    for (_, cells) in &reg.histograms {
        for b in &cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        cells.count.store(0, Ordering::Relaxed);
        cells.sum.store(0, Ordering::Relaxed);
    }
}

/// One kind's scalar cells as an object, sorted by name.
fn scalar_section(kind: MetricKind, reg: &Registry) -> Json {
    let mut rows: Vec<(&str, u64)> = reg
        .scalars
        .iter()
        .filter(|(_, k, _)| *k == kind)
        .map(|(name, _, cell)| (*name, cell.load(Ordering::Relaxed)))
        .collect();
    rows.sort_by_key(|(name, _)| *name);
    obj(rows.into_iter().map(|(name, v)| (name, nu64(v))).collect())
}

/// Renders only the deterministic counters, sorted by name — the byte
/// string the determinism test compares across runs.
pub fn counters_snapshot() -> String {
    let reg = registry().lock().expect("metric registry poisoned");
    scalar_section(MetricKind::Counter, &reg).pretty()
}

/// Renders the whole registry as JSON (`stng-batch --metrics-json`):
/// counters, time accumulators, gauges, and histograms, each sorted by
/// name.
pub fn snapshot_json() -> String {
    let reg = registry().lock().expect("metric registry poisoned");
    let mut hists: Vec<(&str, &HistogramCells)> = reg
        .histograms
        .iter()
        .map(|(name, cells)| (*name, *cells))
        .collect();
    hists.sort_by_key(|(name, _)| *name);
    let histograms = hists
        .into_iter()
        .map(|(name, cells)| {
            let load = |cell: &AtomicU64| nu64(cell.load(Ordering::Relaxed));
            let top = cells
                .buckets
                .iter()
                .rposition(|b| b.load(Ordering::Relaxed) > 0)
                .map_or(0, |p| p + 1);
            let histogram = obj(vec![
                ("count", load(&cells.count)),
                ("sum", load(&cells.sum)),
                (
                    "buckets",
                    Json::Arr(cells.buckets[..top].iter().map(load).collect()),
                ),
            ]);
            (name, histogram)
        })
        .collect();
    obj(vec![
        ("schema", n(1)),
        ("counters", scalar_section(MetricKind::Counter, &reg)),
        ("time_ns", scalar_section(MetricKind::TimeNs, &reg)),
        ("gauges", scalar_section(MetricKind::Gauge, &reg)),
        ("histograms", obj(histograms)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests that reset it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn registration_is_idempotent_and_handles_share_cells() {
        let _gate = lock();
        let a = register("test.metric.a", MetricKind::Counter);
        let b = register("test.metric.a", MetricKind::Counter);
        assert_eq!(a.id(), b.id());
        let before = a.get();
        b.add(3);
        assert_eq!(a.get(), before + 3);
    }

    #[test]
    fn metric_sets_accumulate_and_flush() {
        let _gate = lock();
        let h = register("test.metric.flush", MetricKind::Counter);
        let set = MetricSet::new();
        set.add(h.id(), 5);
        set.add(h.id(), 2);
        assert_eq!(set.get(h.id()), 7);
        let before = h.get();
        set.flush();
        assert_eq!(h.get(), before + 7);
    }

    /// One section of the parsed snapshot.
    fn section(snapshot: &Json, name: &str) -> Vec<(String, Json)> {
        match snapshot.get(name) {
            Some(Json::Obj(fields)) => fields.clone(),
            other => panic!("section {name} is not an object: {other:?}"),
        }
    }

    #[test]
    fn snapshot_sections_sort_and_histograms_bucket_by_bit_length() {
        let _gate = lock();
        register("test.zz", MetricKind::Counter);
        register("test.aa", MetricKind::Counter);
        let counters = match Json::parse(&counters_snapshot()).expect("counters parse") {
            Json::Obj(fields) => fields,
            other => panic!("counters are not an object: {other:?}"),
        };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        let aa = names.iter().position(|k| *k == "test.aa").unwrap();
        let zz = names.iter().position(|k| *k == "test.zz").unwrap();
        assert!(aa < zz);
        assert!(names.windows(2).all(|w| w[0] <= w[1]), "{names:?}");
        let h = register_histogram("test.hist");
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(1000); // bucket 10
        let (count, sum) = h.totals();
        assert!(count >= 3 && sum >= 1001);
        let snapshot = Json::parse(&snapshot_json()).expect("snapshot parses");
        let hists = section(&snapshot, "histograms");
        let hist = &hists
            .iter()
            .find(|(k, _)| k == "test.hist")
            .expect("test.hist")
            .1;
        let buckets = hist.get("buckets").and_then(Json::as_arr).expect("buckets");
        assert!(
            buckets.len() >= 11,
            "bucket 10 is the highest non-empty one"
        );
        assert!(buckets[10].as_u64() >= Some(1));
    }

    #[test]
    fn dynamic_registration_interns_the_name() {
        let _gate = lock();
        let name = format!("test.dyn.{}", "arena");
        let h = register_dynamic(&name, MetricKind::Gauge);
        h.set(42);
        assert_eq!(h.get(), 42);
        let snapshot = Json::parse(&snapshot_json()).expect("snapshot parses");
        let gauges = section(&snapshot, "gauges");
        let value = gauges
            .iter()
            .find(|(k, _)| k == "test.dyn.arena")
            .map(|(_, v)| v);
        assert_eq!(value.and_then(Json::as_u64), Some(42));
    }

    #[test]
    fn snapshot_escapes_registered_names() {
        let _gate = lock();
        let awkward = "test.dyn.q\"b\\n\nu\u{1}";
        register_dynamic(awkward, MetricKind::Counter).add(5);
        let snapshot = Json::parse(&snapshot_json()).expect("snapshot parses");
        assert_eq!(snapshot.get("schema").and_then(Json::as_u64), Some(1));
        let counters = section(&snapshot, "counters");
        let value = counters.iter().find(|(k, _)| k == awkward).map(|(_, v)| v);
        assert!(value.and_then(Json::as_u64) >= Some(5));
        for key in ["time_ns", "histograms"] {
            section(&snapshot, key);
        }
    }
}

//! The hierarchical span recorder: per-thread lock-free rings, RAII span
//! guards, and instant events.
//!
//! Always compiled, default off. [`arm`] flips one global flag; a disarmed
//! [`span`] is a single relaxed load and returns a no-op guard. Armed, each
//! span pushes an `Open` event on construction and a `Close` on drop into
//! the calling thread's ring. Guards are `!Send`, so every `Close` lands on
//! the same thread (and ring) as its `Open` — the well-formedness the
//! Chrome exporter and the nesting tests rely on.
//!
//! Rings are single-producer chunk lists: the owner thread appends into
//! fixed-size chunks (no reallocation, so a reader never observes a moved
//! buffer) and publishes the new length with a release store. Snapshot
//! readers acquire the length and walk the chunk list; they may run
//! concurrently with writers and see a consistent prefix. Each ring is
//! capped at [`MAX_EVENTS`]; past it, events are counted as dropped rather
//! than grown without bound.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stng_intern::Symbol;

/// Maximum events retained per thread ring (~48 MB worst case across a
/// typical worker fleet); the excess is counted in
/// [`ThreadTrace::dropped`], never silently lost.
pub const MAX_EVENTS: usize = 1 << 20;

/// Events per chunk. Chunks are allocated on demand and never moved, so
/// concurrent snapshot readers stay safe without locking the writer.
const CHUNK: usize = 4096;

/// What one ring entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Open,
    /// A span closed (carries the guard's final detail/arg).
    Close,
    /// A point event attached to the enclosing span's thread track.
    Instant,
}

/// One recorded event. `Copy` and pointer-free (names are interned
/// [`Symbol`]s), so rings never run destructors and snapshots are plain
/// memcpys.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Interned span/event name (see `crate::names`).
    pub name: Symbol,
    /// Open / Close / Instant.
    pub kind: EventKind,
    /// Nanoseconds since the recorder's arm epoch.
    pub ts_ns: u64,
    /// Optional interned qualifier (`hit`, `memo_miss`, a degrade reason…).
    pub detail: Option<Symbol>,
    /// Free numeric payload (candidate index, split depth…).
    pub arg: u64,
}

struct Chunk {
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    next: AtomicPtr<Chunk>,
}

impl Chunk {
    fn alloc() -> *mut Chunk {
        let slots = (0..CHUNK)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::into_raw(Box::new(Chunk {
            slots,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// One thread's event ring. Single producer (the owning thread), any number
/// of snapshot readers.
pub struct Ring {
    head: AtomicPtr<Chunk>,
    /// Writer-private cursor (only the owner thread stores it, except
    /// [`Ring::reset`] under the quiescence contract).
    tail: AtomicPtr<Chunk>,
    len: AtomicUsize,
    dropped: AtomicU64,
    thread_name: String,
    tid: u64,
}

// SAFETY: slots are written only by the owning thread at indices >= the
// published `len` and read by others only at indices < `len`; the
// release/acquire pair on `len` orders the two. Chunks are never freed
// while shared (only `reset`, under the documented quiescence contract).
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(thread_name: String, tid: u64) -> Ring {
        let first = Chunk::alloc();
        Ring {
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            thread_name,
            tid,
        }
    }

    /// Appends one event. Must only be called from the owning thread.
    fn push(&self, event: Event) {
        let idx = self.len.load(Ordering::Relaxed);
        if idx >= MAX_EVENTS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut tail = self.tail.load(Ordering::Relaxed);
        if idx > 0 && idx.is_multiple_of(CHUNK) {
            let fresh = Chunk::alloc();
            // Link before publishing `len`, so a reader that sees the new
            // length can always reach the chunk holding the new event.
            unsafe { (*tail).next.store(fresh, Ordering::Release) };
            self.tail.store(fresh, Ordering::Relaxed);
            tail = fresh;
        }
        unsafe {
            *(*tail).slots[idx % CHUNK].get() = MaybeUninit::new(event);
        }
        self.len.store(idx + 1, Ordering::Release);
    }

    /// Copies the published prefix of the ring.
    fn events(&self) -> Vec<Event> {
        let len = self.len.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(len);
        let mut chunk = self.head.load(Ordering::Acquire);
        let mut read = 0;
        while read < len {
            let take = (len - read).min(CHUNK);
            unsafe {
                for slot in &(&(*chunk).slots)[..take] {
                    out.push((*slot.get()).assume_init());
                }
                if read + take < len {
                    chunk = (*chunk).next.load(Ordering::Acquire);
                }
            }
            read += take;
        }
        out
    }

    /// Rewinds the ring to empty, freeing all but the first chunk. Callers
    /// must hold the quiescence contract (no concurrent pushes).
    fn reset(&self) {
        let head = self.head.load(Ordering::Relaxed);
        unsafe {
            let mut chunk = (*head).next.swap(ptr::null_mut(), Ordering::Relaxed);
            while !chunk.is_null() {
                let next = (*chunk).next.load(Ordering::Relaxed);
                drop(Box::from_raw(chunk));
                chunk = next;
            }
        }
        self.tail.store(head, Ordering::Relaxed);
        self.len.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.reset();
        let head = self.head.load(Ordering::Relaxed);
        unsafe { drop(Box::from_raw(head)) };
    }
}

/// Global ring registry: rings are `Arc`-held here as well as in the
/// owner's thread-local, so a scoped worker thread's events survive the
/// thread (the bounded checker's and validation's workers live only for
/// one `parallel::map`/`find_first` call; their traces must not die with
/// them).
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(Default::default)
}

thread_local! {
    static RING: Arc<Ring> = {
        let mut rings = registry().lock().expect("ring registry poisoned");
        let tid = rings.len() as u64;
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{tid}"));
        let ring = Arc::new(Ring::new(name, tid));
        rings.push(Arc::clone(&ring));
        ring
    };
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording. Cheap and idempotent; the timestamp epoch is fixed on
/// the first arm of the process.
pub fn arm() {
    epoch();
    ARMED.store(true, Ordering::Release);
}

/// Stops recording (already-open guards still record their close, keeping
/// every trace well formed).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether the recorder is armed. This relaxed load is the entire disarmed
/// cost of every instrumentation site.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Clears every ring. Quiescent points only (see the crate docs).
pub fn reset() {
    for ring in registry().lock().expect("ring registry poisoned").iter() {
        ring.reset();
    }
}

fn push(event: Event) {
    RING.with(|ring| ring.push(event));
}

/// A pre-internable span/event name: interning happens once, on first
/// armed use, and every use after that copies the cached [`Symbol`].
pub struct Name {
    raw: &'static str,
    sym: OnceLock<Symbol>,
}

impl Name {
    /// A name constant (see `crate::names` for the pipeline taxonomy).
    pub const fn new(raw: &'static str) -> Name {
        Name {
            raw,
            sym: OnceLock::new(),
        }
    }

    /// The interned symbol (interning on first call).
    pub fn symbol(&self) -> Symbol {
        *self.sym.get_or_init(|| Symbol::intern_static(self.raw))
    }

    /// The raw name.
    pub fn as_str(&self) -> &'static str {
        self.raw
    }
}

/// RAII span: records `Open` now and `Close` on drop. `!Send`, so both
/// events land in the same thread's ring.
#[must_use = "a span guard records its close when dropped"]
pub struct SpanGuard {
    /// `None` when the recorder was disarmed at open: the guard is a no-op.
    name: Option<Symbol>,
    detail: Option<Symbol>,
    arg: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attaches a qualifier reported in the span's close event (e.g. a
    /// cache lookup's `hit`).
    pub fn detail(&mut self, detail: &Name) {
        if self.name.is_some() {
            self.detail = Some(detail.symbol());
        }
    }

    /// Attaches an already-interned qualifier (dynamic strings — kernel
    /// names, degrade reasons — go through [`Symbol::intern`] first).
    pub fn detail_sym(&mut self, detail: Symbol) {
        if self.name.is_some() {
            self.detail = Some(detail);
        }
    }

    /// Attaches a numeric payload reported in the close event.
    pub fn arg(&mut self, arg: u64) {
        if self.name.is_some() {
            self.arg = arg;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            push(Event {
                name,
                kind: EventKind::Close,
                ts_ns: now_ns(),
                detail: self.detail,
                arg: self.arg,
            });
        }
    }
}

/// Opens a span. Disarmed: one relaxed load, no-op guard.
#[inline]
pub fn span(name: &Name) -> SpanGuard {
    if !armed() {
        return SpanGuard {
            name: None,
            detail: None,
            arg: 0,
            _not_send: PhantomData,
        };
    }
    let sym = name.symbol();
    push(Event {
        name: sym,
        kind: EventKind::Open,
        ts_ns: now_ns(),
        detail: None,
        arg: 0,
    });
    SpanGuard {
        name: Some(sym),
        detail: None,
        arg: 0,
        _not_send: PhantomData,
    }
}

/// Records an instant event (budget trips, fault injections…). Disarmed:
/// one relaxed load.
#[inline]
pub fn event(name: &Name, detail: Option<Symbol>, arg: u64) {
    if !armed() {
        return;
    }
    push(Event {
        name: name.symbol(),
        kind: EventKind::Instant,
        ts_ns: now_ns(),
        detail,
        arg,
    });
}

/// One thread's recorded trace.
#[derive(Clone)]
pub struct ThreadTrace {
    /// Thread name at ring creation (`main`, `worker-N`…).
    pub thread: String,
    /// Stable per-ring id (Chrome `tid`).
    pub tid: u64,
    /// Events in record order (monotonic `ts_ns` per thread).
    pub events: Vec<Event>,
    /// Events discarded past the [`MAX_EVENTS`] cap.
    pub dropped: u64,
}

/// Snapshots every thread ring (the published prefix of each; a quiescent
/// snapshot is exact). Threads with no events are omitted.
pub fn snapshot() -> Vec<ThreadTrace> {
    registry()
        .lock()
        .expect("ring registry poisoned")
        .iter()
        .map(|ring| ThreadTrace {
            thread: ring.thread_name.clone(),
            tid: ring.tid,
            events: ring.events(),
            dropped: ring.dropped.load(Ordering::Relaxed),
        })
        .filter(|t| !t.events.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Recorder state is process-global; tests in this binary serialize on
    // one mutex (the same pattern as the service chaos tests).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    static A: Name = Name::new("test.a");
    static B: Name = Name::new("test.b");

    fn my_events() -> Vec<Event> {
        RING.with(|r| r.events())
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let _gate = lock();
        reset();
        disarm();
        let before = my_events().len();
        {
            let mut g = span(&A);
            g.arg(7);
            event(&B, None, 0);
        }
        assert_eq!(my_events().len(), before);
    }

    #[test]
    fn armed_spans_nest_and_close_in_order() {
        let _gate = lock();
        reset();
        arm();
        {
            let mut outer = span(&A);
            outer.detail(&B);
            {
                let mut inner = span(&B);
                inner.arg(3);
            }
            event(&B, Some(A.symbol()), 9);
        }
        disarm();
        let events = my_events();
        assert_eq!(events.len(), 5);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                EventKind::Open,
                EventKind::Open,
                EventKind::Close,
                EventKind::Instant,
                EventKind::Close,
            ]
        );
        assert_eq!(events[2].arg, 3);
        assert_eq!(events[4].detail, Some(B.symbol()));
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        reset();
    }

    #[test]
    fn rings_grow_across_chunks_and_cap_with_drop_counter() {
        let _gate = lock();
        reset();
        arm();
        let n = CHUNK * 2 + 17;
        for k in 0..n {
            event(&A, None, k as u64);
        }
        disarm();
        let events = my_events();
        assert_eq!(events.len(), n);
        assert!(events.iter().enumerate().all(|(k, e)| e.arg == k as u64));
        // The cap: force the writer cursor to the limit and observe drops.
        RING.with(|r| {
            r.len.store(MAX_EVENTS, Ordering::Relaxed);
            r.push(Event {
                name: A.symbol(),
                kind: EventKind::Instant,
                ts_ns: 0,
                detail: None,
                arg: 0,
            });
            assert_eq!(r.dropped.load(Ordering::Relaxed), 1);
            // Restore a consistent cursor before the shared reset.
            r.len.store(n, Ordering::Relaxed);
        });
        reset();
        assert!(my_events().is_empty());
    }

    #[test]
    fn snapshot_collects_spawned_thread_rings() {
        let _gate = lock();
        reset();
        arm();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _g = span(&B);
                });
            }
        });
        disarm();
        let snap = snapshot();
        let spawned: usize = snap
            .iter()
            .filter(|t| t.events.iter().any(|e| e.name == B.symbol()))
            .count();
        assert!(spawned >= 2, "expected >=2 worker rings, got {spawned}");
        reset();
    }
}

//! The two-tier, fingerprint-keyed lifting-result cache.
//!
//! **Key**: the 128-bit structural fingerprint of the lowered kernel
//! (`stng_ir::canon`) plus a 64-bit digest of the synthesis configuration —
//! two kernels share an entry iff they are alpha-equivalent *and* would be
//! lifted with identical settings.
//!
//! **Tier 1** is a sharded in-memory LRU: lock striping keeps concurrent
//! batch workers off each other's shards, and each shard evicts its
//! least-recently-used entry past capacity. **Tier 2** is an optional
//! on-disk store, one JSON document per entry (`<fingerprint>-<config>.json`
//! under the cache directory), written atomically via a temp file + rename;
//! a memory miss probes the disk and promotes the entry.
//!
//! Entries store the synthesized postcondition in **canonical** symbol
//! names. On a hit the inverse rename map of the *requesting* kernel
//! rewrites it back, and the mini-Halide summary is rebuilt
//! deterministically from the renamed postcondition — so a renamed
//! duplicate of `heat0` gets a report in its own vocabulary, and a warm hit
//! for the original reproduces the cold report exactly (the bench parity
//! gate checks this on every run).
//!
//! **Disk hardening**: every on-disk entry is a checksum line (fnv1a64 of
//! the JSON body, 16 hex digits) followed by the body. A file that fails
//! the checksum, fails to parse, or carries the wrong schema is
//! **quarantined** — renamed aside as `.json.quarantined` so the evidence
//! survives for inspection — counted, and treated as a miss; the next
//! store writes a fresh entry under the original name. Transient read
//! errors are retried with bounded exponential backoff before degrading to
//! a miss, and orphaned `.json.tmp` files (crashes mid-write) are swept on
//! open. See `docs/robustness.md`.

use crate::codec::{decode_entry, encode_entry, CachedLift};
use crate::json::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use stng::pipeline::{KernelOutcome, KernelReport, LiftCache};
use stng::translate::StencilSummary;
use stng_intern::guard::fault;
use stng_ir::canon::{self, Canon};
use stng_ir::ir::Kernel;
use stng_pred::lang::{Postcondition, QuantClause};
use stng_synth::cegis::SynthesisConfig;

/// Number of lock-striped shards of the in-memory tier.
const SHARDS: usize = 8;

/// Registry mirrors of [`CacheStats`]: the same increments feed both, so
/// `stng-batch --metrics-json` reports the cache through the one metrics
/// aggregation point while per-instance metering keeps going through
/// [`LiftResultCache::stats`] / [`CacheStats::since`].
mod obs_counters {
    use stng_obs::metrics::Lazy;
    pub static HITS: Lazy = Lazy::counter("cache.hits");
    pub static MISSES: Lazy = Lazy::counter("cache.misses");
    pub static DISK_HITS: Lazy = Lazy::counter("cache.disk_hits");
    pub static INSERTS: Lazy = Lazy::counter("cache.inserts");
    pub static EVICTIONS: Lazy = Lazy::counter("cache.evictions");
    pub static DISK_WRITES: Lazy = Lazy::counter("cache.disk_writes");
    pub static QUARANTINED: Lazy = Lazy::counter("cache.quarantined");
    pub static ORPHANS_SWEPT: Lazy = Lazy::counter("cache.orphans_swept");
    pub static IO_RETRIES: Lazy = Lazy::counter("cache.io_retries");
}

/// Cache key: structural fingerprint + pipeline-configuration digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Kernel fingerprint (see [`stng_ir::canon::canonicalize`]).
    pub fingerprint: u128,
    /// Digest of the synthesis configuration.
    pub config: u64,
}

impl CacheKey {
    fn file_stem(&self) -> String {
        format!("{:032x}-{:016x}", self.fingerprint, self.config)
    }
}

/// Digest of a [`SynthesisConfig`]: a hash of its complete `Debug`
/// rendering, so *any* knob change (proof budgets, validation sizes,
/// parallelism is excluded — see below) separates cache entries.
///
/// `parallelism` fields are masked out first: thread counts change wall
/// time, never results (CEGIS screens candidates in index order and the
/// parallel bounded scan is deterministic by construction), so reports are
/// shareable across differently-threaded hosts.
pub fn config_digest(config: &SynthesisConfig) -> u64 {
    let mut canonical = config.clone();
    canonical.parallelism = 1;
    canonical.postcond.parallelism = 1;
    canonical.bounded.parallelism = 1;
    canon::fnv1a64(format!("{canonical:?}").as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// Monotonic counters of one cache instance. Snapshot via
/// [`LiftResultCache::stats`]; subtract snapshots to meter one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Hits served by the disk tier (subset of `hits`).
    pub disk_hits: u64,
    /// Entries inserted into the memory tier.
    pub inserts: u64,
    /// Entries evicted from the memory tier by LRU pressure.
    pub evictions: u64,
    /// Entries persisted to the disk tier.
    pub disk_writes: u64,
    /// Corrupt/stale disk entries renamed aside (`.json.quarantined`).
    pub quarantined: u64,
    /// Orphaned `.json.tmp` files removed when the disk tier was opened.
    pub orphans_swept: u64,
    /// Transient disk-read failures that were retried.
    pub io_retries: u64,
}

impl CacheStats {
    /// Counter-wise difference (`self - earlier`).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            disk_hits: self.disk_hits - earlier.disk_hits,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            disk_writes: self.disk_writes - earlier.disk_writes,
            quarantined: self.quarantined - earlier.quarantined,
            orphans_swept: self.orphans_swept - earlier.orphans_swept,
            io_retries: self.io_retries - earlier.io_retries,
        }
    }

    /// Fraction of lookups that hit, in `[0, 1]`; 1.0 when there were none.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct MemEntry {
    payload: Arc<CachedLift>,
    tick: u64,
}

/// The two-tier store (keying and eviction only; report rehydration lives
/// in [`PipelineCache`]).
pub struct LiftResultCache {
    shards: Vec<Mutex<HashMap<CacheKey, MemEntry>>>,
    per_shard_capacity: usize,
    disk_dir: Option<PathBuf>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_writes: AtomicU64,
    quarantined: AtomicU64,
    orphans_swept: AtomicU64,
    io_retries: AtomicU64,
}

/// Seed of the disk-entry checksum (the FNV-1a offset basis).
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Attempts per disk read before a transient I/O error degrades to a miss.
const READ_ATTEMPTS: u32 = 3;

impl LiftResultCache {
    /// A memory-only cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> LiftResultCache {
        LiftResultCache::build(capacity, None)
    }

    /// A two-tier cache persisting under `dir` (created if missing).
    pub fn persistent(
        capacity: usize,
        dir: impl Into<PathBuf>,
    ) -> std::io::Result<LiftResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let cache = LiftResultCache::build(capacity, Some(dir));
        cache.sweep_orphans();
        Ok(cache)
    }

    fn build(capacity: usize, disk_dir: Option<PathBuf>) -> LiftResultCache {
        LiftResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            disk_dir,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            orphans_swept: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
        }
    }

    /// Removes `.json.tmp` files left by a writer that died between the
    /// temp write and the rename. They were never part of the store (the
    /// rename is what publishes an entry), so deleting them is always safe.
    fn sweep_orphans(&self) {
        let Some(dir) = &self.disk_dir else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|x| x == "tmp")
                && path.is_file()
                && std::fs::remove_file(&path).is_ok()
            {
                self.orphans_swept.fetch_add(1, Ordering::Relaxed);
                obs_counters::ORPHANS_SWEPT.add(1);
            }
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, MemEntry>> {
        &self.shards[(key.fingerprint as usize) % SHARDS]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up an entry; `canon_text` guards against fingerprint collision
    /// (a mismatching stored text reads as a miss). Counts hits/misses.
    pub fn get(&self, key: &CacheKey, canon_text: &str) -> Option<Arc<CachedLift>> {
        let found = self.get_uncounted(key, canon_text);
        match &found {
            Some(_) => self.note_hit(),
            None => self.note_miss(),
        };
        found
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        obs_counters::HITS.add(1);
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs_counters::MISSES.add(1);
    }

    fn get_uncounted(&self, key: &CacheKey, canon_text: &str) -> Option<Arc<CachedLift>> {
        {
            let mut shard = self.shard(key).lock().expect("cache shard poisoned");
            if let Some(entry) = shard.get_mut(key) {
                if entry.payload.canon_text == canon_text {
                    entry.tick = self.tick.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&entry.payload));
                }
                return None; // fingerprint collision: never serve it
            }
        }
        let payload = Arc::new(self.disk_probe(key, canon_text)?);
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        obs_counters::DISK_HITS.add(1);
        self.insert_memory(*key, Arc::clone(&payload));
        Some(payload)
    }

    fn disk_path(&self, key: &CacheKey) -> Option<PathBuf> {
        Some(self.disk_dir.as_ref()?.join(key.file_stem() + ".json"))
    }

    fn disk_probe(&self, key: &CacheKey, canon_text: &str) -> Option<CachedLift> {
        let path = self.disk_path(key)?;
        let text = self.read_with_retry(&path)?;
        match decode_checked(&text) {
            Ok(entry) => (entry.canon_text == canon_text).then_some(entry),
            Err(_) => {
                // Torn write, bit rot, or a stale schema: move the file
                // aside (keeping the evidence) and read as a miss; the
                // next store writes a fresh entry under the original name.
                self.quarantine(&path);
                None
            }
        }
    }

    /// Reads a disk entry, retrying transient I/O errors with bounded
    /// exponential backoff. `None` means "no usable file": not found, or
    /// still failing after the retries (the cache degrades to a miss —
    /// never an error — on a flaky disk).
    fn read_with_retry(&self, path: &std::path::Path) -> Option<String> {
        for attempt in 0..READ_ATTEMPTS {
            let injected = fault::fail_read();
            if !injected {
                match std::fs::read_to_string(path) {
                    Ok(text) => return Some(text),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
                    Err(_) => {}
                }
            }
            self.io_retries.fetch_add(1, Ordering::Relaxed);
            obs_counters::IO_RETRIES.add(1);
            std::thread::sleep(Duration::from_millis(1u64 << attempt));
        }
        None
    }

    /// Renames a corrupt entry to `<name>.json.quarantined` (best-effort;
    /// falls back to deletion so the bad bytes can never be served again).
    ///
    /// Repeated corruption of the same entry must not overwrite the
    /// evidence of earlier incidents: when the plain quarantine name is
    /// taken, a monotonically increasing numeric suffix is appended
    /// (`.json.quarantined.1`, `.2`, …). Every incident — first or repeat —
    /// counts in `CacheStats::quarantined`.
    fn quarantine(&self, path: &std::path::Path) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        obs_counters::QUARANTINED.add(1);
        let mut aside = path.with_extension("json.quarantined");
        let mut repeat = 0u32;
        while aside.exists() {
            repeat += 1;
            aside = path.with_extension(format!("json.quarantined.{repeat}"));
        }
        if std::fs::rename(path, &aside).is_err() {
            let _ = std::fs::remove_file(path);
        }
    }

    fn insert_memory(&self, key: CacheKey, payload: Arc<CachedLift>) {
        let tick = self.next_tick();
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.insert(key, MemEntry { payload, tick });
        self.inserts.fetch_add(1, Ordering::Relaxed);
        obs_counters::INSERTS.add(1);
        while shard.len() > self.per_shard_capacity {
            let oldest = shard
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("non-empty shard");
            shard.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs_counters::EVICTIONS.add(1);
        }
    }

    /// Stores an entry in both tiers.
    pub fn put(&self, key: CacheKey, payload: CachedLift) {
        if let Some(path) = self.disk_path(&key) {
            if self.write_disk(&path, &payload) {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
                obs_counters::DISK_WRITES.add(1);
            }
        }
        self.insert_memory(key, Arc::new(payload));
    }

    fn write_disk(&self, path: &std::path::Path, payload: &CachedLift) -> bool {
        let tmp = path.with_extension("json.tmp");
        let body = encode_entry(payload).to_string();
        let sum = canon::fnv1a64(body.as_bytes(), CHECKSUM_SEED);
        let mut text = format!("{sum:016x}\n{body}");
        if fault::tear_write() {
            // Injected torn write: publish a truncated prefix through the
            // rename, exactly what a crash between write and fsync leaves
            // behind — the read-side checksum must quarantine it.
            text.truncate(text.len() / 2);
        }
        // Disk persistence is best-effort: an unwritable cache directory
        // degrades to memory-only rather than failing the lift.
        std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_ok()
    }

    /// Entries currently resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            orphans_swept: self.orphans_swept.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
        }
    }
}

/// Verifies the checksum line and decodes the JSON body of an on-disk
/// entry. Any failure — short file, checksum mismatch, parse error, wrong
/// schema — is grounds for quarantine.
fn decode_checked(text: &str) -> Result<CachedLift, String> {
    let (line, body) = text
        .split_once('\n')
        .ok_or("entry is missing its checksum line")?;
    let expected = u64::from_str_radix(line.trim(), 16).map_err(|_| "malformed checksum line")?;
    let actual = canon::fnv1a64(body.as_bytes(), CHECKSUM_SEED);
    if actual != expected {
        return Err(format!(
            "checksum mismatch: stored {expected:016x}, computed {actual:016x}"
        ));
    }
    let value = Json::parse(body).map_err(|e| format!("body parse error: {e}"))?;
    decode_entry(&value)
}

/// Renames every kernel symbol of a postcondition through `map`
/// (quantified variables are bound, not kernel symbols, and pass through).
fn rename_post(post: &Postcondition, map: &HashMap<String, String>) -> Postcondition {
    let rename = |n: &String| map.get(n).unwrap_or(n).clone();
    Postcondition {
        clauses: post
            .clauses
            .iter()
            .map(|c| QuantClause {
                bounds: c
                    .bounds
                    .iter()
                    .map(|b| {
                        let mut b = b.clone();
                        b.var = rename(&b.var);
                        b.lo = canon::rename_expr(&b.lo, map);
                        b.hi = canon::rename_expr(&b.hi, map);
                        b
                    })
                    .collect(),
                eq: stng_pred::lang::OutEq {
                    array: rename(&c.eq.array),
                    indices: c
                        .eq
                        .indices
                        .iter()
                        .map(|ix| canon::rename_expr(ix, map))
                        .collect(),
                    rhs: canon::rename_expr(&c.eq.rhs, map),
                },
            })
            .collect(),
    }
}

/// Rewrites identifiers quoted as `'name'` in a diagnostic message through
/// `map` (the convention the lowering/liftability errors follow), so cached
/// failure reasons speak the requesting kernel's vocabulary. Unquoted prose
/// is left alone — only exact quoted identifiers are touched.
fn rename_quoted(text: &str, map: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find('\'') {
        let Some(len) = rest[start + 1..].find('\'') else {
            break;
        };
        let name = &rest[start + 1..start + 1 + len];
        out.push_str(&rest[..start]);
        out.push('\'');
        out.push_str(map.get(name).map(String::as_str).unwrap_or(name));
        out.push('\'');
        rest = &rest[start + 1 + len + 1..];
    }
    out.push_str(rest);
    out
}

/// The [`LiftCache`] implementation plugged into `stng::pipeline::Stng`:
/// keys the store off the pipeline-provided [`Canon`], rehydrates reports,
/// and **single-flights** concurrent misses — when several batch workers
/// hit the same fingerprint at once (e.g. alpha-variant duplicates fanned
/// out across threads), one computes and the rest wait for its record, so
/// duplicate kernels never pay for synthesis twice.
///
/// One instance serves one [`SynthesisConfig`]: the config digest is
/// computed once on first use (debug builds assert every later config
/// agrees). Distinct configurations want distinct caches — which the key's
/// config component would keep correct anyway, but pinning avoids
/// re-digesting on the hot path.
pub struct PipelineCache {
    store: LiftResultCache,
    inflight: Mutex<std::collections::HashSet<CacheKey>>,
    inflight_done: Condvar,
    pinned_digest: std::sync::OnceLock<u64>,
}

/// Upper bound on waiting for another worker's in-flight synthesis before
/// giving up and computing redundantly (protects against a worker dying
/// mid-lift without recording).
const INFLIGHT_WAIT: Duration = Duration::from_secs(60);

impl PipelineCache {
    /// Memory-only cache.
    pub fn in_memory(capacity: usize) -> PipelineCache {
        PipelineCache::wrap(LiftResultCache::in_memory(capacity))
    }

    /// Two-tier cache persisting under `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the cache directory cannot be created.
    pub fn persistent(capacity: usize, dir: impl Into<PathBuf>) -> std::io::Result<PipelineCache> {
        Ok(PipelineCache::wrap(LiftResultCache::persistent(
            capacity, dir,
        )?))
    }

    fn wrap(store: LiftResultCache) -> PipelineCache {
        PipelineCache {
            store,
            inflight: Mutex::new(std::collections::HashSet::new()),
            inflight_done: Condvar::new(),
            pinned_digest: std::sync::OnceLock::new(),
        }
    }

    fn digest_for(&self, config: &SynthesisConfig) -> u64 {
        let digest = *self.pinned_digest.get_or_init(|| config_digest(config));
        debug_assert_eq!(
            digest,
            config_digest(config),
            "a PipelineCache instance serves a single SynthesisConfig"
        );
        digest
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Entries resident in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.store.memory_len()
    }

    fn rehydrate(
        &self,
        kernel: &Kernel,
        fragment_name: &str,
        canon: &Canon,
        cached: &CachedLift,
    ) -> Option<KernelReport> {
        let outcome = if cached.translated {
            let stored = cached.post.as_ref()?;
            // Capture guard: a stored bound-variable name that is *not* a
            // canonical symbol (i.e. the original synthesizer's own
            // quantifier name, left untouched by the rename) must not
            // collide with a symbol of the requesting kernel, or the
            // restored postcondition would conflate the two distinct
            // variables. Bound variables that *are* canonical names are
            // safe: the record-side rename mapped them there together with
            // every other occurrence (the original kernel had a symbol
            // spelled like the quantifier), and the restore is the same
            // bijection in reverse — it reproduces the cold-side
            // postcondition exactly. Vanishingly rare either way; read as
            // a miss and synthesize fresh.
            let collides = stored.clauses.iter().flat_map(|c| &c.bounds).any(|b| {
                !canon.from_canonical.contains_key(&b.var)
                    && kernel
                        .params
                        .iter()
                        .chain(&kernel.locals)
                        .any(|p| p.name == b.var)
            });
            if collides {
                return None;
            }
            let post = rename_post(stored, &canon.from_canonical);
            let summary = StencilSummary::from_postcondition(&kernel.name, &post).ok()?;
            KernelOutcome::Translated {
                post,
                summary,
                soundly_verified: cached.soundly_verified,
                cegis_iterations: cached.cegis_iterations,
                // Budget-affected outcomes are never stored (see `record`),
                // so a rehydrated report is always an ungoverned result.
                degraded: None,
            }
        } else {
            KernelOutcome::Untranslated {
                reason: rename_quoted(cached.reason.as_deref()?, &canon.from_canonical),
            }
        };
        Some(KernelReport {
            name: fragment_name.to_string(),
            kernel: Some(kernel.clone()),
            outcome,
            synthesis_time: Duration::from_nanos(cached.synthesis_time_ns),
            control_bits: cached.control_bits,
            postcond_nodes: cached.postcond_nodes,
            prover_attempts: cached.prover_attempts,
            peak_candidates: cached.peak_candidates,
            phase: cached.phase,
            // Filled in by the pipeline, which owns the Canon (the pipeline
            // also flips `cached` on its lookup path).
            fingerprint: None,
            cached: false,
        })
    }
}

impl LiftCache for PipelineCache {
    fn lookup(
        &self,
        kernel: &Kernel,
        canon: &Canon,
        fragment_name: &str,
        config: &SynthesisConfig,
    ) -> Option<KernelReport> {
        let key = CacheKey {
            fingerprint: canon.fingerprint,
            config: self.digest_for(config),
        };
        let deadline = std::time::Instant::now() + INFLIGHT_WAIT;
        loop {
            if let Some(cached) = self.store.get_uncounted(&key, &canon.text) {
                return match self.rehydrate(kernel, fragment_name, canon, &cached) {
                    Some(report) => {
                        self.store.note_hit();
                        Some(report)
                    }
                    None => {
                        // The capture guard rejected the entry: an honest
                        // miss. Deliberately not claimed in-flight — the
                        // entry stays valid for other kernels.
                        self.store.note_miss();
                        None
                    }
                };
            }
            // Miss. Single-flight: claim the key, or wait for whichever
            // worker already did and re-check the store.
            let mut inflight = self.inflight.lock().expect("inflight set poisoned");
            if inflight.insert(key) {
                self.store.note_miss();
                return None;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                // The computing worker is taking implausibly long (or died
                // without recording): compute redundantly instead of
                // hanging.
                self.store.note_miss();
                return None;
            }
            let (guard, _timeout) = self
                .inflight_done
                .wait_timeout(inflight, remaining)
                .expect("inflight set poisoned");
            drop(guard);
        }
    }

    fn record(
        &self,
        _kernel: &Kernel,
        canon: &Canon,
        config: &SynthesisConfig,
        report: &KernelReport,
    ) {
        let key = CacheKey {
            fingerprint: canon.fingerprint,
            config: self.digest_for(config),
        };
        // Budget-affected outcomes describe this run's resource envelope,
        // not the kernel: a timeout under a tight deadline, a crash, or a
        // degraded (bounded-only) translation must not be served to a later
        // run with a roomier budget. They are never stored — but the
        // single-flight claim below is still released, so waiting workers
        // wake up and compute for themselves.
        let storable = match &report.outcome {
            KernelOutcome::Translated {
                post,
                soundly_verified,
                cegis_iterations,
                degraded,
                ..
            } if degraded.is_none() => Some((
                true,
                Some(rename_post(post, &canon.to_canonical)),
                None,
                *soundly_verified,
                *cegis_iterations,
            )),
            KernelOutcome::Untranslated { reason } => Some((
                false,
                None,
                Some(rename_quoted(reason, &canon.to_canonical)),
                false,
                0,
            )),
            KernelOutcome::Translated { .. }
            | KernelOutcome::Timeout { .. }
            | KernelOutcome::Crashed { .. } => None,
        };
        if let Some((translated, post, reason, soundly_verified, cegis_iterations)) = storable {
            self.store.put(
                key,
                CachedLift {
                    canon_text: canon.text.clone(),
                    translated,
                    post,
                    reason,
                    soundly_verified,
                    cegis_iterations,
                    synthesis_time_ns: report.synthesis_time.as_nanos().min(u64::MAX as u128)
                        as u64,
                    control_bits: report.control_bits,
                    postcond_nodes: report.postcond_nodes,
                    prover_attempts: report.prover_attempts,
                    peak_candidates: report.peak_candidates,
                    phase: report.phase,
                },
            );
        }
        // Release the single-flight claim (a no-op when this record was not
        // preceded by a claiming lookup) and wake any workers waiting on it.
        self.inflight
            .lock()
            .expect("inflight set poisoned")
            .remove(&key);
        self.inflight_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CachedLift;

    fn payload(text: &str) -> CachedLift {
        CachedLift {
            canon_text: text.to_string(),
            translated: false,
            post: None,
            reason: Some("not a stencil".to_string()),
            soundly_verified: false,
            cegis_iterations: 0,
            synthesis_time_ns: 1,
            control_bits: Default::default(),
            postcond_nodes: 0,
            prover_attempts: 0,
            peak_candidates: 0,
            phase: Default::default(),
        }
    }

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            config: 7,
        }
    }

    #[test]
    fn memory_tier_hits_and_counts() {
        let cache = LiftResultCache::in_memory(64);
        assert!(cache.get(&key(1), "t1").is_none());
        cache.put(key(1), payload("t1"));
        let hit = cache.get(&key(1), "t1").expect("hit");
        assert_eq!(hit.canon_text, "t1");
        // A colliding fingerprint with different canonical text is refused.
        assert!(cache.get(&key(1), "OTHER").is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 2, 1));
        assert_eq!(cache.memory_len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_shard() {
        // Capacity 8 over 8 shards = 1 entry per shard; keys 1 and 9 share
        // shard 1.
        let cache = LiftResultCache::in_memory(8);
        cache.put(key(1), payload("a"));
        cache.put(key(9), payload("b"));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(1), "a").is_none());
        assert!(cache.get(&key(9), "b").is_some());
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!(
            "stng-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = LiftResultCache::persistent(64, &dir).unwrap();
            cache.put(key(42), payload("text42"));
            assert_eq!(cache.stats().disk_writes, 1);
        }
        let fresh = LiftResultCache::persistent(64, &dir).unwrap();
        let hit = fresh.get(&key(42), "text42").expect("disk hit");
        assert_eq!(hit.reason.as_deref(), Some("not a stencil"));
        let stats = fresh.stats();
        assert_eq!((stats.hits, stats.disk_hits), (1, 1));
        // Promoted into memory: a second get does not touch the disk.
        fresh.get(&key(42), "text42").expect("memory hit");
        assert_eq!(fresh.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_quoted_touches_only_mapped_quoted_identifiers() {
        let mut map = HashMap::new();
        map.insert("k".to_string(), "l1".to_string());
        assert_eq!(
            rename_quoted("loop over 'k' is decrementing (step -1)", &map),
            "loop over 'l1' is decrementing (step -1)"
        );
        // Unmapped quotes and unquoted text pass through; unbalanced quotes
        // do not panic.
        assert_eq!(
            rename_quoted("variable 'x' at k", &map),
            "variable 'x' at k"
        );
        assert_eq!(rename_quoted("dangling ' quote", &map), "dangling ' quote");
    }

    #[test]
    fn corrupt_disk_entry_is_quarantined_and_overwritten() {
        let dir = std::env::temp_dir().join(format!(
            "stng-cache-quarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path;
        {
            let cache = LiftResultCache::persistent(64, &dir).unwrap();
            cache.put(key(42), payload("text42"));
            path = cache.disk_path(&key(42)).unwrap();
        }
        // Truncate the file mid-body: the checksum no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let fresh = LiftResultCache::persistent(64, &dir).unwrap();
        assert!(fresh.get(&key(42), "text42").is_none());
        assert_eq!(fresh.stats().quarantined, 1);
        assert!(!path.exists(), "corrupt entry must not stay in place");
        assert!(path.with_extension("json.quarantined").exists());
        // The next store reclaims the slot and the entry is servable again.
        fresh.put(key(42), payload("text42"));
        assert!(fresh.get(&key(42), "text42").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_corruption_keeps_every_piece_of_evidence() {
        let dir = std::env::temp_dir().join(format!(
            "stng-cache-requarantine-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = LiftResultCache::persistent(64, &dir)
            .unwrap()
            .disk_path(&key(42))
            .unwrap();
        // Corrupt the same entry three times; each probe must quarantine to
        // a fresh name instead of clobbering the previous evidence file. A
        // fresh instance per round keeps the probe on the disk tier.
        for round in 0..3u64 {
            {
                let writer = LiftResultCache::persistent(64, &dir).unwrap();
                writer.put(key(42), payload("text42"));
            }
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{}-round{round}", &text[..text.len() / 2])).unwrap();
            let probe = LiftResultCache::persistent(64, &dir).unwrap();
            assert!(probe.get(&key(42), "text42").is_none());
            assert_eq!(probe.stats().quarantined, 1, "each repeat is counted");
        }
        assert!(path.with_extension("json.quarantined").exists());
        assert!(path.with_extension("json.quarantined.1").exists());
        assert!(path.with_extension("json.quarantined.2").exists());
        // Each evidence file holds its own incident's bytes.
        let first = std::fs::read_to_string(path.with_extension("json.quarantined")).unwrap();
        let third = std::fs::read_to_string(path.with_extension("json.quarantined.2")).unwrap();
        assert!(first.ends_with("-round0"));
        assert!(third.ends_with("-round2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_entry_is_quarantined() {
        let dir = std::env::temp_dir().join(format!(
            "stng-cache-schema-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = LiftResultCache::persistent(64, &dir).unwrap();
        // A well-checksummed body with an old schema number still reads as
        // a miss and is moved aside.
        let body = r#"{"schema":1,"canon_text":"t"}"#;
        let sum = canon::fnv1a64(body.as_bytes(), CHECKSUM_SEED);
        let path = cache.disk_path(&key(5)).unwrap();
        std::fs::write(&path, format!("{sum:016x}\n{body}")).unwrap();
        assert!(cache.get(&key(5), "t").is_none());
        assert_eq!(cache.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_swept_on_open() {
        let dir = std::env::temp_dir().join(format!(
            "stng-cache-orphan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("deadbeef-0000000000000007.json.tmp");
        std::fs::write(&orphan, "half-written").unwrap();
        let cache = LiftResultCache::persistent(64, &dir).unwrap();
        assert_eq!(cache.stats().orphans_swept, 1);
        assert!(!orphan.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_rate_arithmetic() {
        let a = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(a.hit_rate(), 0.75);
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
        let b = CacheStats {
            hits: 5,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(b.since(&a).hits, 2);
    }
}

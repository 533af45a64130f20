//! A shared, thread-safe session context for the compiled engines.
//!
//! The three compiled engines each amortize per-schema analysis into a
//! cache object — [`SatCache`] (type-fixpoint satisfiability, per DTD),
//! [`ChaseCache`] (chase plans, per mapping) and
//! [`AutomataCache`] (determinized hedge
//! automata, per ordered DTD pair) — but each of those is built by one
//! caller for one workload. An [`EngineContext`] owns all of them behind
//! one `RwLock` map per family, keyed by *content identity* (the schema's
//! or mapping's canonical display form), so any number of threads can
//! share one context across a whole session:
//!
//! * **compile once** — each map entry holds a `OnceLock<Arc<…>>`; N
//!   threads racing for the same DTD/mapping insert one entry under a
//!   brief write lock and then exactly one of them runs the compilation
//!   inside `OnceLock::get_or_init` while the others block on the entry
//!   (not the map), then share the compiled `Arc`;
//! * **one lock per family** — the read path (the common case after
//!   warm-up) takes only the family's read lock, and a compile runs
//!   outside the lock, so a cold compile never blocks warm lookups of
//!   other keys in the same family;
//! * **counters** — every cache tracks hits, misses, compilations, disk
//!   loads, resident bytes, evictions and cumulative compile time;
//!   [`EngineContext::stats`] snapshots them for the CLI
//!   (`xmlmap batch --stats`) and the benches;
//! * **memory budget** — [`EngineContext::with_memory_budget`] bounds the
//!   accounted bytes of resident artifacts with a second-chance (clock)
//!   eviction sweep; entries still compiling are never evicted, and an
//!   unbounded context pays nothing for the machinery;
//! * **persistent store** — [`EngineContext::with_disk_cache`] attaches a
//!   directory of checksummed binary artifacts ([`crate::store`]) for the
//!   two families whose rebuild is costly: determinized hedge automata
//!   and shape enumerations. Their misses try a disk load before
//!   compiling and their fresh artifacts are written back, so a restart
//!   against a warm store runs no subset construction or shape
//!   enumeration. Corrupt or version-stale files are counted
//!   (`disk_errors`) and silently recompiled. Every other family compiles
//!   in one linear pass over its schema or mapping, faster than a disk
//!   load, and stays in memory only.
//!
//! What is deliberately **not** cached at this layer: verdicts keyed by
//! *documents* (chase outputs, membership answers — the key would be the
//! document itself), and budget-exceeded errors (the inner caches already
//! never memoize those; a retry with a larger budget must recompute).
//! Result-level memoization stays inside the per-schema caches
//! ([`SatCache`] match sets, `AutomataCache` verdicts), which are all
//! internally synchronized, so sharing them across threads is safe.
//!
//! See DESIGN.md §8.4 for the context architecture and §8.5 for byte
//! accounting, eviction, and the artifact store.

use crate::abscons::{
    abscons_nr_cached, abscons_structural_cached, AbsConsAnswer, AbsConsProcedure,
};
use crate::bounded::ShapeCache;
use crate::chase::delta::DeltaStats;
use crate::chase::{
    canonical_solution_cached, ChaseCache, ChaseError, DeltaPlan, IncrementalChase,
};
use crate::consistency::{chain_consistent, consistent_cached, ConsAnswer, ConsError};
use crate::exchange::{certain_answers_cached, reduced_solution_cached, CertainAnswersError};
use crate::stds::Mapping;
use crate::store::{ArtifactStore, Family, LoadError};
use crate::stream::{
    StreamChaseError, StreamChaseOutcome, StreamChasePlan, StreamJobError, StreamOutcome,
};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};
use xmlmap_automata::{AutomataCache, InclusionBudgetExceeded, SubschemaViolation};
use xmlmap_dtd::{Dtd, DtdIndex};
use xmlmap_patterns::sat::BudgetExceeded;
use xmlmap_patterns::{Pattern, SatCache, StreamPattern, UnstreamablePattern, Valuation};
use xmlmap_trees::Tree;

/// Hit/miss/compile-time counters for one cache family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from an already-resident entry.
    pub hits: u64,
    /// Lookups that filled a fresh slot — by compiling *or* by loading the
    /// artifact off disk (see [`CacheCounters::disk_hits`]); one per
    /// distinct key per residency.
    pub misses: u64,
    /// Slot fills answered from the persistent artifact store instead of a
    /// compilation.
    pub disk_hits: u64,
    /// Stored artifacts that were unusable (corrupt, truncated, or written
    /// by another format version) and fell back to a fresh compile.
    pub disk_errors: u64,
    /// Entries evicted to stay under the context's memory budget.
    pub evictions: u64,
    /// Approximate bytes currently accounted to resident entries.
    pub bytes: u64,
    /// Total wall-clock time spent compiling entries (disk loads excluded).
    pub compile_time: Duration,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheCounters {
    /// Slot fills that actually ran a compilation (misses not answered
    /// from the artifact store).
    pub fn compiled(&self) -> u64 {
        self.misses - self.disk_hits
    }
}

impl std::fmt::Display for CacheCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({} compiled, {} from disk), {} entries, \
             {} bytes, {} evicted, {:.2}ms compiling",
            self.hits,
            self.misses,
            self.compiled(),
            self.disk_hits,
            self.entries,
            self.bytes,
            self.evictions,
            self.compile_time.as_secs_f64() * 1_000.0
        )?;
        if self.disk_errors > 0 {
            write!(f, ", {} unusable disk artifacts", self.disk_errors)?;
        }
        Ok(())
    }
}

/// A snapshot of every cache family's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Type-fixpoint satisfiability caches (one per DTD).
    pub sat: CacheCounters,
    /// Chase-plan caches (one per mapping).
    pub chase: CacheCounters,
    /// Hedge-automata caches (one per ordered DTD pair).
    pub automata: CacheCounters,
    /// Tree-shape enumeration caches (one per DTD).
    pub shapes: CacheCounters,
    /// Streaming validation indexes (one per DTD — the dense
    /// content-model NFAs behind `StreamValidator`).
    pub stream_index: CacheCounters,
    /// Streaming pattern plans (one per downward-fragment pattern).
    pub stream_plans: CacheCounters,
    /// Streaming-chase artifacts (one per mapping), over the `chase` and
    /// `stream_plans` families' artifacts, which a miss also looks up;
    /// bytes and compile time count only the list of shared plans.
    pub stream_chase: CacheCounters,
    /// Incremental-chase artifacts (one per mapping), over the `chase`
    /// family's tables, which a miss also looks up; bytes and compile
    /// time count only the per-std touch profiles.
    pub delta: CacheCounters,
    /// Streaming passes run through [`EngineContext::stream_document`]
    /// or [`EngineContext::chase_stream`].
    pub stream_jobs: u64,
    /// Deepest open-element stack any streaming pass reached.
    pub stream_peak_depth: u64,
    /// Total firings enumerated by streaming chases.
    pub stream_firings: u64,
    /// Most simultaneously-live valuations any streaming chase held.
    pub stream_live_peak: u64,
    /// Incremental-chase sessions opened through
    /// [`EngineContext::delta_session`].
    pub delta_sessions: u64,
    /// Updates applied by incremental-chase sessions.
    pub delta_updates: u64,
    /// Std re-enumerations those updates forced (the refire frontier).
    pub delta_refires: u64,
    /// Stds the per-update region analysis proved unaffected.
    pub delta_skips: u64,
    /// The context's memory budget, if bounded.
    pub memory_budget: Option<u64>,
}

impl EngineStats {
    /// Every cache family's counters as `(JSON key, display label,
    /// counters)`, in the order `--stats`, `STATS` and `batch` print them.
    pub fn families(&self) -> [(&'static str, &'static str, CacheCounters); 8] {
        [
            ("sat", "sat", self.sat),
            ("chase", "chase", self.chase),
            ("automata", "automata", self.automata),
            ("shapes", "shapes", self.shapes),
            ("stream_index", "sindex", self.stream_index),
            ("stream_plans", "splan", self.stream_plans),
            ("stream_chase", "schase", self.stream_chase),
            ("delta", "delta", self.delta),
        ]
    }

    /// Approximate bytes accounted across all families.
    pub fn total_bytes(&self) -> u64 {
        self.families().iter().map(|(_, _, c)| c.bytes).sum()
    }

    /// Slot fills across all families that ran a compilation.
    pub fn total_compiled(&self) -> u64 {
        self.families().iter().map(|(_, _, c)| c.compiled()).sum()
    }

    /// Slot fills across all families answered from the artifact store.
    pub fn total_disk_hits(&self) -> u64 {
        self.families().iter().map(|(_, _, c)| c.disk_hits).sum()
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (_, label, counters) in self.families() {
            writeln!(f, "{:<10}{counters}", format!("{label}:"))?;
        }
        writeln!(
            f,
            "stream:   {} job(s), peak stream depth {}, {} firing(s), \
             peak live valuations {}",
            self.stream_jobs, self.stream_peak_depth, self.stream_firings, self.stream_live_peak
        )?;
        writeln!(
            f,
            "dchase:   {} session(s), {} update(s), {} refired std(s), \
             {} skipped std(s)",
            self.delta_sessions, self.delta_updates, self.delta_refires, self.delta_skips
        )?;
        match self.memory_budget {
            Some(b) => write!(
                f,
                "memory:   {} bytes accounted, budget {b}",
                self.total_bytes()
            ),
            None => write!(
                f,
                "memory:   {} bytes accounted, unbounded",
                self.total_bytes()
            ),
        }
    }
}

/// Per-family counter cells (atomics; relaxed ordering — these are
/// diagnostics, not synchronization).
#[derive(Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_errors: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    compile_ns: AtomicU64,
}

impl StatCells {
    /// Adjusts the accounted-bytes total by `new - old`.
    fn rebook(&self, old: u64, new: u64) {
        if new >= old {
            self.bytes.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(old - new, Ordering::Relaxed);
        }
    }
}

/// One resident (or in-flight) cache entry: the compile-once slot plus the
/// bookkeeping the eviction clock needs. Unfilled slots (a compile in
/// flight) are never evicted — removing one would lose the dedup that
/// makes N racing threads run one compilation.
struct Entry<V> {
    /// Filled exactly once, by whichever thread wins the race.
    slot: OnceLock<Arc<V>>,
    /// Second-chance bit: set on every access, cleared (once) by the clock
    /// hand before an entry becomes an eviction candidate.
    referenced: AtomicBool,
    /// Bytes accounted to this entry (0 until first measured).
    bytes: AtomicU64,
}

/// A family's entries: the key map plus a clock ring over its keys. Both
/// hold the same `Arc<str>`, so each canonical text is stored once.
struct Entries<V> {
    map: HashMap<Arc<str>, Arc<Entry<V>>>,
    /// Keys in residence order; `swap_remove` keeps eviction O(1).
    ring: Vec<Arc<str>>,
    /// Clock hand into `ring`.
    hand: usize,
}

thread_local! {
    /// `(compiled, disk_loaded)` fills run by lookups on this thread.
    static THREAD_FILLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Compilations and artifact-store loads that [`EngineContext`] lookups
/// on the calling thread have run so far, as `(compiled, disk_loaded)`.
/// The change across a call that stays on one thread is that call's own
/// cache provenance, whatever other threads compile meanwhile: a fill
/// counts only on the thread that ran it, never on threads that waited
/// for it.
pub(crate) fn thread_fills() -> (u64, u64) {
    THREAD_FILLS.with(Cell::get)
}

/// How a lookup was satisfied.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// The entry was already resident.
    Hit,
    /// A fresh slot, filled from the persistent artifact store.
    Disk,
    /// A fresh slot, filled by running the compiler.
    Compiled,
}

/// One family's compile-once map: canonical text → compiled artifact, with
/// second-chance eviction over the family's ring.
struct FamilyCache<V> {
    entries: RwLock<Entries<V>>,
    stats: StatCells,
    /// The artifact's own accounted bytes (shared children excluded).
    measure: fn(&V) -> u64,
}

impl<V> FamilyCache<V> {
    fn new(measure: fn(&V) -> u64) -> FamilyCache<V> {
        FamilyCache {
            entries: RwLock::new(Entries {
                map: HashMap::new(),
                ring: Vec::new(),
                hand: 0,
            }),
            stats: StatCells::default(),
            measure,
        }
    }

    /// The compile-once protocol: read-lock lookup, double-checked entry
    /// insertion under the write lock, filling outside the lock (inside
    /// the slot's `OnceLock`, which admits exactly one winner), so a cold
    /// compile never blocks warm lookups of other keys.
    ///
    /// `fill` produces the value and whether it came from the artifact
    /// store; it runs at most once per residency. Its bytes are booked
    /// before the slot is filled, so no eviction can race the booking.
    fn get_or_fill(&self, key: &str, fill: impl FnOnce() -> (V, bool)) -> (Arc<V>, Fill) {
        let entry = self.entries.read().unwrap().map.get(key).cloned();
        let entry = match entry {
            Some(e) => e,
            None => {
                let mut guard = self.entries.write().unwrap();
                match guard.map.get(key) {
                    Some(e) => e.clone(),
                    None => {
                        let e = Arc::new(Entry {
                            slot: OnceLock::new(),
                            referenced: AtomicBool::new(true),
                            bytes: AtomicU64::new(0),
                        });
                        let key: Arc<str> = key.into();
                        guard.map.insert(key.clone(), e.clone());
                        guard.ring.push(key);
                        e
                    }
                }
            }
        };
        entry.referenced.store(true, Ordering::Relaxed);
        let mut how = Fill::Hit;
        let value = entry
            .slot
            .get_or_init(|| {
                let (v, from_disk) = fill();
                let bytes = (self.measure)(&v);
                entry.bytes.store(bytes, Ordering::Relaxed);
                self.stats.rebook(0, bytes);
                how = if from_disk {
                    Fill::Disk
                } else {
                    Fill::Compiled
                };
                Arc::new(v)
            })
            .clone();
        match how {
            Fill::Hit => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            Fill::Disk => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.disk_hits.fetch_add(1, Ordering::Relaxed)
            }
            Fill::Compiled => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        (value, how)
    }

    /// Runs `compile`, adding its wall-clock time to the family's compile
    /// counter.
    fn compile_timed(&self, compile: impl FnOnce() -> V) -> V {
        let start = Instant::now();
        let v = compile();
        self.stats
            .compile_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        v
    }

    /// Calls `f` on every resident (filled) entry and its value, outside
    /// the lock.
    fn for_each(&self, mut f: impl FnMut(&str, &Entry<V>, &V)) {
        let entries: Vec<(Arc<str>, Arc<Entry<V>>)> = self
            .entries
            .read()
            .unwrap()
            .map
            .iter()
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect();
        for (key, entry) in entries {
            if let Some(v) = entry.slot.get() {
                f(&key, &entry, v);
            }
        }
    }

    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            disk_hits: self.stats.disk_hits.load(Ordering::Relaxed),
            disk_errors: self.stats.disk_errors.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            compile_time: Duration::from_nanos(self.stats.compile_ns.load(Ordering::Relaxed)),
            entries: self.entries.read().unwrap().map.len() as u64,
        }
    }
}

/// What the budget sweep needs of a family, whatever it holds: accounted
/// bytes, a re-measure of every resident entry (artifacts grow at query
/// time: memoized verdicts, shape lists), and a second-chance (clock)
/// eviction of one entry returning its bytes, which skips unfilled slots
/// (compiles in flight), spares a set `referenced` bit once, and returns
/// `None` when nothing is evictable.
trait Resident {
    fn bytes(&self) -> u64;
    fn refresh_bytes(&self);
    fn evict_one(&self) -> Option<u64>;
}

impl<V> Resident for FamilyCache<V> {
    fn bytes(&self) -> u64 {
        self.stats.bytes.load(Ordering::Relaxed)
    }

    fn refresh_bytes(&self) {
        self.for_each(|_, entry, v| {
            let bytes = (self.measure)(v);
            let old = entry.bytes.swap(bytes, Ordering::Relaxed);
            self.stats.rebook(old, bytes);
        });
    }

    fn evict_one(&self) -> Option<u64> {
        let mut entries = self.entries.write().unwrap();
        // Two passes over the ring: the first may only clear bits.
        for _ in 0..2 * entries.ring.len() {
            if entries.hand >= entries.ring.len() {
                entries.hand = 0;
            }
            let spare = {
                let entry = &entries.map[&entries.ring[entries.hand]];
                entry.slot.get().is_none() || entry.referenced.swap(false, Ordering::Relaxed)
            };
            if spare {
                entries.hand += 1;
                continue;
            }
            let hand = entries.hand;
            let key = entries.ring.swap_remove(hand);
            let entry = entries.map.remove(&key).expect("ring key is mapped");
            let bytes = entry.bytes.load(Ordering::Relaxed);
            self.stats.rebook(bytes, 0);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
        None
    }
}

/// A thread-safe session object owning every compiled-engine cache.
///
/// Build one per process (or per logical session) and share it by
/// reference — it is `Sync`, and every method takes `&self`. Its methods
/// are the one public way into the paper's decision procedures, the chase
/// and the streaming drivers: each fetches the caches it needs by content
/// identity and runs the crate-private core over them, so every caller —
/// CLI, `batch`, daemon, tests — takes the same code path and the same
/// budget-error text. A one-off probe pays nothing extra for it: a fresh
/// context is an empty set of maps. The raw cache accessors
/// ([`EngineContext::sat_cache`] etc.) serve call sites that want to
/// drive the caches directly.
///
/// ```
/// use xmlmap_core::EngineContext;
/// let ctx = EngineContext::new();
/// let dtd = xmlmap_dtd::parse("root r\nr -> a*\na @ v").unwrap();
/// let c1 = ctx.sat_cache(&dtd);
/// let c2 = ctx.sat_cache(&dtd.clone()); // same content → same cache
/// assert!(std::sync::Arc::ptr_eq(&c1, &c2));
/// assert_eq!(ctx.stats().sat.misses, 1);
/// ```
pub struct EngineContext {
    sat: FamilyCache<SatCache>,
    chase: FamilyCache<ChaseCache>,
    automata: FamilyCache<AutomataCache>,
    shapes: FamilyCache<ShapeCache>,
    stream_idx: FamilyCache<DtdIndex>,
    stream_plans: FamilyCache<StreamPattern>,
    stream_chase: FamilyCache<StreamChasePlan>,
    delta: FamilyCache<DeltaPlan>,
    /// Streaming passes run (diagnostics for `batch --stats` / `STATS`).
    stream_jobs: AtomicU64,
    /// Deepest open-element stack any streaming pass reached.
    stream_peak_depth: AtomicU64,
    /// Total firings enumerated by streaming chases.
    stream_firings: AtomicU64,
    /// Most simultaneously-live valuations any streaming chase held.
    stream_live_peak: AtomicU64,
    /// Incremental-chase sessions opened.
    delta_sessions: AtomicU64,
    /// Updates applied by incremental-chase sessions.
    delta_updates: AtomicU64,
    /// Std re-enumerations those updates forced.
    delta_refires: AtomicU64,
    /// Stds the per-update region analysis proved unaffected.
    delta_skips: AtomicU64,
    /// Approximate ceiling on the accounted bytes of all resident
    /// artifacts; `None` = unbounded (the pre-existing behaviour).
    budget: Option<u64>,
    /// Persistent artifact store; `None` = in-memory only.
    store: Option<ArtifactStore>,
}

impl Default for EngineContext {
    fn default() -> EngineContext {
        EngineContext::new()
    }
}

impl EngineContext {
    /// A fresh, empty context: unbounded, in-memory only.
    pub fn new() -> EngineContext {
        EngineContext {
            sat: FamilyCache::new(SatCache::approx_bytes),
            chase: FamilyCache::new(ChaseCache::approx_bytes),
            automata: FamilyCache::new(AutomataCache::approx_bytes),
            shapes: FamilyCache::new(ShapeCache::approx_bytes),
            stream_idx: FamilyCache::new(DtdIndex::approx_bytes),
            stream_plans: FamilyCache::new(StreamPattern::approx_bytes),
            stream_chase: FamilyCache::new(StreamChasePlan::approx_bytes),
            delta: FamilyCache::new(DeltaPlan::approx_bytes),
            stream_jobs: AtomicU64::new(0),
            stream_peak_depth: AtomicU64::new(0),
            stream_firings: AtomicU64::new(0),
            stream_live_peak: AtomicU64::new(0),
            delta_sessions: AtomicU64::new(0),
            delta_updates: AtomicU64::new(0),
            delta_refires: AtomicU64::new(0),
            delta_skips: AtomicU64::new(0),
            budget: None,
            store: None,
        }
    }

    /// Bounds the accounted bytes of resident compiled artifacts. When a
    /// fill (or a byte re-measurement) pushes the total over `bytes`, the
    /// context evicts by a second-chance clock until it fits again —
    /// starting with the heaviest family. Evicted artifacts recompile on
    /// next use (or reload from the disk store); `Arc`s already handed out
    /// stay valid.
    pub fn with_memory_budget(mut self, bytes: u64) -> EngineContext {
        self.budget = Some(bytes);
        self
    }

    /// Attaches a persistent artifact store at `dir` (created if absent).
    /// Automata and shape-cache misses first try the store; compiled
    /// automata are written back, so a later process (or a post-eviction
    /// refill) skips subset construction. Call
    /// [`EngineContext::flush_disk_cache`] before dropping the context to
    /// persist the query-time shape enumerations too.
    pub fn with_disk_cache(mut self, dir: impl AsRef<Path>) -> std::io::Result<EngineContext> {
        self.store = Some(ArtifactStore::new(dir)?);
        Ok(self)
    }

    // ---- the load-or-compile spine -------------------------------------

    /// One lookup against a memory-only family cache: resident hit, else
    /// fetch the shared `parts` (outside this family's compile timer, and
    /// counted in [`thread_fills`] as this one fill) and compile from
    /// them, then byte accounting and budget enforcement.
    fn fetch<V, P>(
        &self,
        cache: &FamilyCache<V>,
        key: &str,
        parts: impl FnOnce() -> P,
        compile: impl FnOnce(P) -> V,
    ) -> Arc<V> {
        self.fill(cache, key, || {
            let fills = thread_fills();
            let parts = parts();
            THREAD_FILLS.with(|f| f.set(fills));
            (cache.compile_timed(|| compile(parts)), false)
        })
        .0
    }

    /// [`EngineContext::fetch`] for a persisted family: a miss first tries
    /// the attached artifact store under `family` and compiles only when
    /// nothing usable is stored. Unusable artifacts (damaged, another
    /// format version, or a payload `decode` rejects) are counted in
    /// `disk_errors`. Returns how the slot was filled, so the caller can
    /// write a fresh compilation back.
    fn fetch_stored<V>(
        &self,
        cache: &FamilyCache<V>,
        family: Family,
        key: &str,
        decode: impl FnOnce(&[u8]) -> Option<V>,
        compile: impl FnOnce() -> V,
    ) -> (Arc<V>, Fill) {
        self.fill(cache, key, || {
            if let Some(store) = &self.store {
                match store.load(family, key).map(|payload| decode(&payload)) {
                    Ok(Some(v)) => return (v, true),
                    Err(LoadError::Missing) => {}
                    Ok(None) | Err(_) => {
                        cache.stats.disk_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            (cache.compile_timed(compile), false)
        })
    }

    /// The shared tail of both lookups: fill the slot on a miss, then
    /// count the fill for this thread, account its bytes and enforce the
    /// budget.
    fn fill<V>(
        &self,
        cache: &FamilyCache<V>,
        key: &str,
        fill: impl FnOnce() -> (V, bool),
    ) -> (Arc<V>, Fill) {
        let (value, how) = cache.get_or_fill(key, fill);
        if how != Fill::Hit {
            THREAD_FILLS.with(|fills| {
                let (compiled, loaded) = fills.get();
                fills.set(match how {
                    Fill::Compiled => (compiled + 1, loaded),
                    _ => (compiled, loaded + 1),
                });
            });
            self.enforce_budget();
        }
        (value, how)
    }

    /// Every family, in [`EngineStats::families`] order.
    fn residents(&self) -> [&dyn Resident; 8] {
        [
            &self.sat,
            &self.chase,
            &self.automata,
            &self.shapes,
            &self.stream_idx,
            &self.stream_plans,
            &self.stream_chase,
            &self.delta,
        ]
    }

    /// Evicts (heaviest family first, ties in family order) until the
    /// accounted total fits the budget, or nothing evictable remains.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        loop {
            let mut families = self.residents().map(|f| (f.bytes(), f));
            if families.iter().map(|(bytes, _)| bytes).sum::<u64>() <= budget {
                return;
            }
            families.sort_by_key(|&(bytes, _)| std::cmp::Reverse(bytes));
            if !families.iter().any(|(_, f)| f.evict_one().is_some()) {
                return;
            }
        }
    }

    /// Re-measures every resident artifact and re-enforces the budget.
    /// Cheap relative to any decision procedure, but pure overhead for
    /// unbounded contexts — so it is a no-op without a budget, and callers
    /// invoke it only after operations that can grow artifacts (memoized
    /// verdicts, shape enumerations).
    fn rebalance(&self) {
        if self.budget.is_none() {
            return;
        }
        for family in self.residents() {
            family.refresh_bytes();
        }
        self.enforce_budget();
    }

    /// Writes the shape caches, whose content accumulates at *query* time,
    /// to the attached store. Automata are persisted at fill time and need
    /// no flush. No-op without a store.
    pub fn flush_disk_cache(&self) {
        let Some(store) = &self.store else { return };
        self.shapes.for_each(|key, _, v| {
            if v.has_content() {
                store.save(Family::Shapes, key, &v.to_bytes());
            }
        });
    }

    // ---- raw cache accessors -------------------------------------------

    /// The shared [`SatCache`] for `dtd`, compiling it on first request.
    pub fn sat_cache(&self, dtd: &Dtd) -> Arc<SatCache> {
        self.fetch(&self.sat, &dtd.to_string(), || (), |()| SatCache::new(dtd))
    }

    /// The shared [`ChaseCache`] for `m`, compiling it on first request.
    pub fn chase_cache(&self, m: &Mapping) -> Arc<ChaseCache> {
        self.chase_cache_keyed(m, &m.to_string())
    }

    /// [`EngineContext::chase_cache`] under `m`'s already rendered key,
    /// which every per-mapping family shares.
    fn chase_cache_keyed(&self, m: &Mapping, key: &str) -> Arc<ChaseCache> {
        self.fetch(&self.chase, key, || (), |()| ChaseCache::new(m))
    }

    /// The shared [`AutomataCache`] for the ordered pair `(d1, d2)`,
    /// loading it from the artifact store or compiling both automata on
    /// first request. A fresh compilation is written back at once.
    pub fn automata_cache(&self, d1: &Dtd, d2: &Dtd) -> Arc<AutomataCache> {
        let key = format!("{d1}\u{0}{d2}");
        let (cache, how) = self.fetch_stored(
            &self.automata,
            Family::Automata,
            &key,
            |b| AutomataCache::from_bytes(b).ok(),
            || AutomataCache::new(d1, d2),
        );
        if let (Fill::Compiled, Some(store)) = (how, &self.store) {
            store.save(Family::Automata, &key, &cache.to_bytes());
        }
        cache
    }

    /// The shared [`ShapeCache`] for `dtd`, loading it from the artifact
    /// store on first request. A fresh shape cache is empty (enumeration
    /// happens per bound at query time), so this family is written back
    /// by [`EngineContext::flush_disk_cache`] rather than at fill time.
    pub fn shape_cache(&self, dtd: &Dtd) -> Arc<ShapeCache> {
        self.fetch_stored(
            &self.shapes,
            Family::Shapes,
            &dtd.to_string(),
            |b| ShapeCache::from_bytes(b).ok(),
            || ShapeCache::new(dtd),
        )
        .0
    }

    /// The shared streaming [`DtdIndex`] for `dtd` (dense content-model
    /// NFAs), compiling it on first request.
    pub fn stream_index(&self, dtd: &Dtd) -> Arc<DtdIndex> {
        self.fetch(
            &self.stream_idx,
            &dtd.to_string(),
            || (),
            |()| DtdIndex::new(dtd),
        )
    }

    /// The shared streaming plan for `pattern`, compiling it on first
    /// request; rejects patterns outside the streamable downward fragment
    /// with a diagnostic naming the offending feature (never cached).
    pub fn stream_plan(
        &self,
        pattern: &Pattern,
    ) -> Result<Arc<StreamPattern>, UnstreamablePattern> {
        StreamPattern::check(pattern)?;
        Ok(self.fetch(
            &self.stream_plans,
            &pattern.to_string(),
            || (),
            |()| StreamPattern::compile(pattern).expect("checked streamable"),
        ))
    }

    /// The shared [`StreamChasePlan`] for `m`, assembled on first request
    /// over the shared chase tables and per-std stream plans.
    pub fn stream_chase_plan(&self, m: &Mapping) -> Arc<StreamChasePlan> {
        let key = m.to_string();
        self.fetch(
            &self.stream_chase,
            &key,
            || {
                let chase = self.chase_cache_keyed(m, &key);
                let plans: Vec<_> = m.stds[..chase.std_count()]
                    .iter()
                    .map(|s| self.stream_plan(&s.source))
                    .collect();
                (chase, plans)
            },
            |(chase, plans)| StreamChasePlan::new(m, chase, plans),
        )
    }

    /// The shared [`DeltaPlan`] for `m`, built on first request over the
    /// `chase` family's tables.
    pub fn delta_plan(&self, m: &Mapping) -> Arc<DeltaPlan> {
        let key = m.to_string();
        let chase = || self.chase_cache_keyed(m, &key);
        self.fetch(&self.delta, &key, chase, DeltaPlan::new)
    }

    /// Opens an [`IncrementalChase`] session over the shared [`DeltaPlan`]
    /// for `m`. Call [`EngineContext::record_delta`] with the session's
    /// final [`DeltaStats`] to fold its work into the context counters.
    pub fn delta_session(&self, m: &Mapping, doc: Tree) -> IncrementalChase {
        let plan = self.delta_plan(m);
        self.delta_sessions.fetch_add(1, Ordering::Relaxed);
        IncrementalChase::with_plan(m.clone(), doc, plan)
    }

    /// Folds one session's update/refire/skip totals into the context.
    pub fn record_delta(&self, stats: DeltaStats) {
        self.delta_updates
            .fetch_add(stats.updates, Ordering::Relaxed);
        self.delta_refires
            .fetch_add(stats.refires, Ordering::Relaxed);
        self.delta_skips.fetch_add(stats.skips, Ordering::Relaxed);
    }

    /// Streams `src` once against `m`'s source DTD while enumerating std
    /// firings, then chases them into the canonical target tree — the
    /// same tree [`EngineContext::canonical_solution`] builds, without
    /// ever materialising the source.
    ///
    /// The result is byte-identical to the tree chase: the per-std
    /// enumerators replay the compiled kernel's canonical firing order, so
    /// even the fresh-null numbering coincides. Peak memory is
    /// O(depth + live matches + firings + output). A conformance violation
    /// stops the pass and withholds the verdict
    /// ([`StreamChaseOutcome::violation`]); a non-streamable source
    /// pattern is rejected before any input is read.
    pub fn chase_stream<R: std::io::Read>(
        &self,
        m: &Mapping,
        src: R,
    ) -> Result<StreamChaseOutcome, StreamChaseError> {
        let idx = self.stream_index(&m.source_dtd);
        let plan = self.stream_chase_plan(m);
        self.stream_jobs.fetch_add(1, Ordering::Relaxed);
        let outcome = crate::stream::chase_stream(&idx, &plan, src)?;
        self.stream_peak_depth
            .fetch_max(outcome.stats.peak_depth as u64, Ordering::Relaxed);
        self.stream_firings
            .fetch_add(outcome.firings, Ordering::Relaxed);
        self.stream_live_peak
            .fetch_max(outcome.peak_live_valuations, Ordering::Relaxed);
        self.rebalance();
        Ok(outcome)
    }

    /// Streams `src` against `dtd` — and, when `pattern` is given,
    /// evaluates membership in the same single pass — in O(depth) memory,
    /// over the shared compiled index and plan. A conformance violation
    /// stops the pass and is reported in [`StreamOutcome::violation`]; a
    /// parse error or an unstreamable pattern is an `Err`.
    pub fn stream_document<R: std::io::Read>(
        &self,
        dtd: &Dtd,
        pattern: Option<&Pattern>,
        src: R,
    ) -> Result<StreamOutcome, StreamJobError> {
        let idx = self.stream_index(dtd);
        let plan = match pattern {
            Some(p) => Some(self.stream_plan(p)?),
            None => None,
        };
        self.stream_jobs.fetch_add(1, Ordering::Relaxed);
        let outcome = crate::stream::stream_document(&idx, plan.as_deref(), src)?;
        self.stream_peak_depth
            .fetch_max(outcome.stats.peak_depth as u64, Ordering::Relaxed);
        self.rebalance();
        Ok(outcome)
    }

    // ---- decision procedures over the shared caches --------------------

    /// `CONS(⇓,⇒)` — Theorem 5.2 / Fact 5.1: exact consistency for
    /// mappings without data comparisons, via achievable match sets, over
    /// the shared source/target [`SatCache`]s.
    ///
    /// The mapping is consistent iff some achievable source match set `J`
    /// has a satisfiable target side `D_t ∧ {π′_j : j ∈ J}`. Returns
    /// witness trees. Mappings with data comparisons are rejected
    /// ([`ConsError::DataComparisons`]; Thm 5.4 makes them undecidable).
    pub fn consistent(&self, m: &Mapping, budget: usize) -> Result<ConsAnswer, ConsError> {
        let src = self.sat_cache(&m.source_dtd);
        let tgt = self.sat_cache(&m.target_dtd);
        let out = consistent_cached(m, &src, &tgt, budget);
        self.rebalance();
        out
    }

    /// Consistency of composition — `CONSCOMP(σ)` (Thm 7.1), exact for
    /// data-free mappings: is `⟦M⟧ ∘ ⟦M′⟧ ≠ ∅`? The two-mapping case of
    /// [`EngineContext::composition_chain_consistent`].
    ///
    /// For each achievable source match set `J` of `M`, the middle document
    /// must satisfy all fired targets of `M` while its own match set `K`
    /// over `M′`'s sources leaves `M′`'s target side satisfiable. The
    /// middle analysis runs the type-fixpoint engine over `D₂` with both
    /// pattern families at once.
    pub fn composition_consistent(
        &self,
        m12: &Mapping,
        m23: &Mapping,
        budget: usize,
    ) -> Result<bool, ConsError> {
        self.composition_chain_consistent(&[m12, m23], budget)
    }

    /// Consistency of an n-fold composition `⟦M₁⟧ ∘ … ∘ ⟦Mₙ⟧` (Prop 7.2),
    /// exact for data-free mappings, over the shared [`SatCache`] of every
    /// schema in the chain (`M₁`'s source, then each `Mᵢ`'s target).
    ///
    /// Walks the chain left to right, tracking which sets of fired-target
    /// obligations are achievable at each schema boundary. A one-mapping
    /// chain is plain consistency; the empty chain is the identity and
    /// consistent.
    pub fn composition_chain_consistent(
        &self,
        chain: &[&Mapping],
        budget: usize,
    ) -> Result<bool, ConsError> {
        let Some(first) = chain.first() else {
            return Ok(true); // the empty composition is the identity
        };
        let schemas: Vec<Arc<SatCache>> = std::iter::once(&first.source_dtd)
            .chain(chain.iter().map(|m| &m.target_dtd))
            .map(|d| self.sat_cache(d))
            .collect();
        let out = chain_consistent(chain, &schemas, budget);
        self.rebalance();
        out
    }

    /// Prop 6.1: absolute consistency of **value-free** mappings (Π₂ᵖ),
    /// over the shared source/target [`SatCache`]s.
    ///
    /// Exact when no std mentions a variable (SM°); returns `Err` messages
    /// otherwise rather than silently giving the wrong answer.
    pub fn abscons_structural(
        &self,
        m: &Mapping,
        budget: usize,
    ) -> Result<Result<AbsConsAnswer, BudgetExceeded>, String> {
        let src = self.sat_cache(&m.source_dtd);
        let tgt = self.sat_cache(&m.target_dtd);
        let out = abscons_structural_cached(m, &src, &tgt, budget);
        self.rebalance();
        out
    }

    /// ABSCONS over the exact procedures, cheapest first: Thm 6.3 (PTIME,
    /// nested-relational DTDs and fully-specified stds; the rigidity
    /// analysis of [`abscons_nr_ptime`](crate::abscons::abscons_nr_ptime)
    /// over the kernels of the shared [`SatCache`]s) on its fragment, else
    /// Prop 6.1 ([`EngineContext::abscons_structural`]). Returns the answer
    /// and the procedure that decided it; the errors are those of
    /// [`EngineContext::abscons_structural`].
    pub fn abscons(
        &self,
        m: &Mapping,
        budget: usize,
    ) -> Result<Result<(AbsConsAnswer, AbsConsProcedure), BudgetExceeded>, String> {
        let src = self.sat_cache(&m.source_dtd);
        let tgt = self.sat_cache(&m.target_dtd);
        let out = match abscons_nr_cached(m, &src, &tgt) {
            Some(answer) => Ok(Ok((answer, AbsConsProcedure::NestedRelational))),
            None => abscons_structural_cached(m, &src, &tgt, budget)
                .map(|out| out.map(|answer| (answer, AbsConsProcedure::Structural))),
        };
        self.rebalance();
        out
    }

    /// The canonical solution of `source` under `m` (the chase), or a
    /// proof that none exists, over the shared [`ChaseCache`] for `m`.
    /// Fragment: fully-specified stds, nested-relational tree-shaped
    /// target DTD; source conditions only filter firings.
    pub fn canonical_solution(&self, m: &Mapping, source: &Tree) -> Result<Tree, ChaseError> {
        canonical_solution_cached(m, source, &self.chase_cache(m))
    }

    /// Chases and reduces in one step
    /// ([`reduce_solution`](crate::exchange::reduce_solution) of the
    /// canonical solution), over the shared [`ChaseCache`] for `m`.
    pub fn reduced_solution(&self, m: &Mapping, source: &Tree) -> Result<Tree, ChaseError> {
        reduced_solution_cached(m, source, &self.chase_cache(m))
    }

    /// Certain answers of `query` over all solutions of `source` under
    /// `m`: the valuations returned in *every* solution, over the shared
    /// [`ChaseCache`] for `m`.
    ///
    /// Computed on the canonical solution, keeping only null-free
    /// valuations — sound and complete for **downward** queries over the
    /// chaseable fragment (the canonical solution is universal, and
    /// downward pattern matches are preserved by the homomorphisms into
    /// other solutions).
    ///
    /// Returns `Err` for non-downward queries (certain answers under order
    /// constraints are not captured by the canonical solution) and
    /// propagates chase failures (no solution ⇒ certain answers are
    /// trivially *all* valuations; we surface the failure instead).
    pub fn certain_answers(
        &self,
        m: &Mapping,
        source: &Tree,
        query: &Pattern,
    ) -> Result<Vec<Valuation>, CertainAnswersError> {
        certain_answers_cached(m, source, query, &self.chase_cache(m))
    }

    /// Semantic composition membership — Thm 7.3: is there `T₂ ⊨ D₂` (≤
    /// `max_middle_nodes` nodes) with `(T₁,T₂) ∈ ⟦M₁₂⟧` and
    /// `(T₂,T₃) ∈ ⟦M₂₃⟧`? Returns the middle document. Tries the canonical
    /// solution first when the fragment allows, then searches exhaustively
    /// up to the bound, over the shared [`ShapeCache`] (middle schema) and
    /// [`ChaseCache`] (`m12`).
    pub fn composition_member(
        &self,
        m12: &Mapping,
        m23: &Mapping,
        t1: &Tree,
        t3: &Tree,
        max_middle_nodes: usize,
    ) -> Option<Tree> {
        let shapes = self.shape_cache(&m12.target_dtd);
        let chase = self.chase_cache(m12);
        let out = crate::compose::composition_member_cached(
            m12,
            m23,
            t1,
            t3,
            max_middle_nodes,
            &shapes,
            &chase,
        );
        self.rebalance();
        out
    }

    /// Does `source` have a solution under `m` with at most
    /// `max_target_nodes` nodes? Values are drawn from the source's active
    /// domain plus enough fresh values (one per target slot), which is
    /// exhaustive for that size. Runs over the shared target
    /// [`ShapeCache`].
    pub fn solution_exists(
        &self,
        m: &Mapping,
        source: &Tree,
        max_target_nodes: usize,
    ) -> Option<Tree> {
        let out = crate::bounded::solution_exists_cached(
            m,
            source,
            max_target_nodes,
            &self.shape_cache(&m.target_dtd),
        );
        self.rebalance();
        out
    }

    /// Subschema check `L(d1) ⊆ L(d2)` over the shared [`AutomataCache`].
    pub fn subschema(
        &self,
        d1: &Dtd,
        d2: &Dtd,
        budget: usize,
    ) -> Result<Option<SubschemaViolation>, InclusionBudgetExceeded> {
        let out = self.automata_cache(d1, d2).subschema(budget);
        self.rebalance();
        out
    }

    /// Label-structure inclusion `L(d1) ⊆ L(d2)` over the shared
    /// [`AutomataCache`]: `None` when included, or a counterexample tree.
    pub fn inclusion(
        &self,
        d1: &Dtd,
        d2: &Dtd,
        budget: usize,
    ) -> Result<Option<Tree>, InclusionBudgetExceeded> {
        let out = self.automata_cache(d1, d2).inclusion(budget);
        self.rebalance();
        out
    }

    /// A snapshot of every cache family's counters, plus the memory
    /// budget.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sat: self.sat.counters(),
            chase: self.chase.counters(),
            automata: self.automata.counters(),
            shapes: self.shapes.counters(),
            stream_index: self.stream_idx.counters(),
            stream_plans: self.stream_plans.counters(),
            stream_chase: self.stream_chase.counters(),
            delta: self.delta.counters(),
            stream_jobs: self.stream_jobs.load(Ordering::Relaxed),
            stream_peak_depth: self.stream_peak_depth.load(Ordering::Relaxed),
            stream_firings: self.stream_firings.load(Ordering::Relaxed),
            stream_live_peak: self.stream_live_peak.load(Ordering::Relaxed),
            delta_sessions: self.delta_sessions.load(Ordering::Relaxed),
            delta_updates: self.delta_updates.load(Ordering::Relaxed),
            delta_refires: self.delta_refires.load(Ordering::Relaxed),
            delta_skips: self.delta_skips.load(Ordering::Relaxed),
            memory_budget: self.budget,
        }
    }
}

// The whole point of the context is cross-thread sharing; fail the build,
// not the user, if an inner cache ever loses `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineContext>();
    assert_send_sync::<SatCache>();
    assert_send_sync::<ChaseCache>();
    assert_send_sync::<AutomataCache>();
    assert_send_sync::<ShapeCache>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_drive_totals_and_rendering() {
        let mut s = EngineStats::default();
        s.sat.misses = 2;
        s.chase.bytes = 5;
        s.delta.bytes = 7;
        s.delta.misses = 3;
        s.delta.disk_hits = 1;
        assert_eq!(
            (s.total_bytes(), s.total_compiled(), s.total_disk_hits()),
            (12, 4, 1)
        );
        let keys: Vec<&str> = s.families().iter().map(|f| f.0).collect();
        assert_eq!(
            keys.join(" "),
            "sat chase automata shapes stream_index stream_plans stream_chase delta"
        );
        let shown = s.to_string();
        let labels: Vec<&str> = shown.lines().map(|l| &l[..l.find(':').unwrap()]).collect();
        assert_eq!(
            labels.join(" "),
            "sat chase automata shapes sindex splan schase delta stream dchase memory"
        );
        // Every value starts in column 11.
        assert!(shown.lines().all(|l| &l[9..10] == " " && &l[10..11] != " "));
    }

    fn dtd(text: &str) -> Dtd {
        xmlmap_dtd::parse(text).unwrap()
    }

    fn copy_mapping() -> Mapping {
        Mapping::parse(
            "[source]\nroot r\nr -> a*\na @ v\n\
             [target]\nroot r\nr -> b*\nb @ w\n\
             [stds]\nr/a(x) --> r/b(x)\n",
        )
        .unwrap()
    }

    #[test]
    fn abscons_tries_thm63_then_prop61() {
        let ctx = EngineContext::new();
        let (answer, procedure) = ctx.abscons(&copy_mapping(), 1_000_000).unwrap().unwrap();
        assert_eq!(
            procedure.detail(&answer),
            "absolutely consistent (Thm 6.3 fragment)"
        );
        let stats = ctx.stats();
        assert_eq!(
            (stats.total_compiled(), stats.sat.misses),
            (2, 2),
            "Thm 6.3 reads the kernels of both schemas' shared SatCaches"
        );
        let value_free = Mapping::parse(
            "[source]\nroot r\nr -> (a|b)*\n[target]\nroot r\nr -> c?\n[stds]\nr/a --> r/c\n",
        )
        .unwrap();
        let (answer, procedure) = ctx.abscons(&value_free, 1_000_000).unwrap().unwrap();
        assert_eq!(procedure, AbsConsProcedure::Structural);
        assert_eq!(
            procedure.detail(&answer),
            "absolutely consistent (SM° structural, Prop 6.1)"
        );
        let valued = Mapping::parse(
            "[source]\nroot r\nr -> (a|b)*\na @ v\n[target]\nroot r\nr -> c?\nc @ w\n\
             [stds]\nr/a(x) --> r/c(x)\n",
        )
        .unwrap();
        assert!(
            ctx.abscons(&valued, 1_000_000).is_err(),
            "outside both fragments"
        );
    }

    #[test]
    fn same_content_shares_one_compilation() {
        let ctx = EngineContext::new();
        let d = dtd("root r\nr -> a*\na @ v");
        let c1 = ctx.sat_cache(&d);
        let c2 = ctx.sat_cache(&d.clone());
        assert!(Arc::ptr_eq(&c1, &c2));
        let s = ctx.stats().sat;
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_spares_the_entry_hit_since_the_last_sweep() {
        let dtds: Vec<Dtd> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|l| dtd(&format!("root r\nr -> {l}*")))
            .collect();
        let probe = EngineContext::new();
        probe.sat_cache(&dtds[0]);
        let size = probe.stats().sat.bytes;
        // Room for three of the five equally sized artifacts.
        let ctx = EngineContext::new().with_memory_budget(3 * size);
        let resident = |d: &Dtd| {
            ctx.sat
                .entries
                .read()
                .unwrap()
                .map
                .contains_key(&*d.to_string())
        };
        for d in &dtds[..4] {
            ctx.sat_cache(d);
        }
        // Filling the fourth swept every bit clear and evicted one entry.
        let s = ctx.stats().sat;
        assert_eq!((s.bytes, s.entries, s.evictions), (3 * size, 3, 1));
        let survivors: Vec<&Dtd> = dtds[..4].iter().filter(|d| resident(d)).collect();
        ctx.sat_cache(survivors[0]);
        ctx.sat_cache(&dtds[4]);
        let s = ctx.stats().sat;
        assert_eq!((s.hits, s.entries, s.evictions), (1, 3, 2));
        assert!(
            resident(survivors[0]),
            "the entry hit since the sweep survives"
        );
        assert!(resident(&dtds[4]), "the fresh entry survives");
        assert!(
            !survivors[1..].iter().all(|d| resident(d)),
            "an entry not hit since the sweep is evicted"
        );
    }

    #[test]
    fn distinct_content_gets_distinct_entries() {
        let ctx = EngineContext::new();
        let c1 = ctx.sat_cache(&dtd("root r\nr -> a*"));
        let c2 = ctx.sat_cache(&dtd("root r\nr -> b*"));
        assert!(!Arc::ptr_eq(&c1, &c2));
        assert_eq!(ctx.stats().sat.entries, 2);
    }

    #[test]
    fn ops_agree_with_uncached_procedures() {
        let ctx = EngineContext::new();
        let m = copy_mapping();
        let budget = 1_000_000;
        let via_ctx = ctx.consistent(&m, budget).unwrap();
        let fresh = EngineContext::new().consistent(&m, budget).unwrap();
        assert_eq!(via_ctx.is_consistent(), fresh.is_consistent());
        // Second call is answered entirely from shared caches.
        let again = ctx.consistent(&m, budget).unwrap();
        assert_eq!(again.is_consistent(), fresh.is_consistent());
        assert!(ctx.stats().sat.hits >= 2);
    }

    #[test]
    fn streaming_caches_and_tallies() {
        let ctx = EngineContext::new();
        let d = dtd("root r\nr -> a*\na @ v");
        let doc = r#"<r><a v="1"/></r>"#;
        let p = xmlmap_patterns::parse("r/a(x)").unwrap();
        let out = ctx.stream_document(&d, Some(&p), doc.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        assert_eq!(out.matched, Some(true));
        let again = ctx.stream_document(&d, Some(&p), doc.as_bytes()).unwrap();
        assert_eq!(again.matched, Some(true));
        let s = ctx.stats();
        assert_eq!((s.stream_index.misses, s.stream_index.hits), (1, 1));
        assert_eq!((s.stream_plans.misses, s.stream_plans.hits), (1, 1));
        assert_eq!((s.stream_jobs, s.stream_peak_depth), (2, 2));
        assert!(s.total_bytes() > 0);
        // Outside the streamable fragment: a diagnostic, nothing cached.
        let sib = xmlmap_patterns::parse("r[a(x) -> a(y)]").unwrap();
        assert!(ctx.stream_plan(&sib).is_err());
        assert_eq!(ctx.stats().stream_plans.entries, 1);
    }

    #[test]
    fn warm_stream_plans_are_not_recompiled() {
        let ctx = EngineContext::new();
        let p = xmlmap_patterns::parse("r[a(x), b//c(y)]").unwrap();
        let first = ctx.stream_plan(&p).unwrap();
        let compiled = ctx.stats().stream_plans.compile_time;
        assert!(
            compiled > Duration::ZERO,
            "the miss compiles inside the timed fill"
        );
        let again = ctx.stream_plan(&p).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "a warm call returns the cached plan"
        );
        let s = ctx.stats();
        assert_eq!((s.stream_plans.misses, s.stream_plans.hits), (1, 1));
        assert_eq!(
            s.stream_plans.compile_time, compiled,
            "a hit compiles nothing"
        );
        // The error is the compiler's own, and is never cached.
        let join = xmlmap_patterns::parse("r[a(x), b(x)]").unwrap();
        assert_eq!(
            ctx.stream_plan(&join).err(),
            StreamPattern::compile(&join).err()
        );
        assert!(ctx.stream_plan(&join).is_err());
        assert_eq!(ctx.stats().stream_plans.entries, 1);
    }

    #[test]
    fn streaming_chase_caches_and_tallies() {
        let ctx = EngineContext::new();
        let m = copy_mapping();
        let doc = r#"<r><a v="1"/><a v="2"/></r>"#;
        let out = ctx.chase_stream(&m, doc.as_bytes()).unwrap();
        assert_eq!(out.violation, None);
        let streamed = out.solution.unwrap().unwrap();
        let tree = xmlmap_trees::xml::parse(doc).unwrap();
        assert_eq!(streamed, ctx.canonical_solution(&m, &tree).unwrap());
        let again = ctx.chase_stream(&m, doc.as_bytes()).unwrap();
        assert_eq!(again.solution.unwrap().unwrap(), streamed);
        let s = ctx.stats();
        assert_eq!((s.stream_chase.misses, s.stream_chase.hits), (1, 1));
        assert_eq!(s.stream_firings, 4);
        assert!(s.stream_live_peak >= 2);
        assert!(s.stream_jobs >= 2);
    }

    #[test]
    fn delta_sessions_share_one_plan_and_tally() {
        let ctx = EngineContext::new();
        let m = copy_mapping();
        let doc = xmlmap_trees::xml::parse(r#"<r><a v="1"/></r>"#).unwrap();
        let mut s1 = ctx.delta_session(&m, doc.clone());
        let mut s2 = ctx.delta_session(&m, doc.clone());
        assert_eq!(
            s1.canonical_solution().unwrap(),
            s2.canonical_solution().unwrap()
        );
        s1.insert_subtree(
            Tree::ROOT,
            1,
            &xmlmap_trees::xml::parse(r#"<a v="2"/>"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            *s1.canonical_solution().unwrap(),
            ctx.canonical_solution(&m, s1.doc()).unwrap()
        );
        ctx.record_delta(s1.stats());
        ctx.record_delta(s2.stats());
        let stats = ctx.stats();
        assert_eq!((stats.delta.misses, stats.delta.hits), (1, 1));
        assert_eq!(stats.delta_sessions, 2);
        assert_eq!(stats.delta_updates, 1);
        assert_eq!(stats.delta_refires, 3); // 1 initial per session + 1 refire
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn chase_and_automata_families_are_tracked_separately() {
        let ctx = EngineContext::new();
        let m = copy_mapping();
        let src = xmlmap_trees::xml::parse(r#"<r><a v="1"/></r>"#).unwrap();
        let sol = ctx.canonical_solution(&m, &src).unwrap();
        assert!(sol.size() > 1);
        let _ = ctx
            .subschema(&m.source_dtd, &m.source_dtd, 1_000_000)
            .unwrap();
        let stats = ctx.stats();
        assert_eq!(stats.chase.misses, 1);
        assert_eq!(stats.automata.misses, 1);
        assert_eq!(stats.sat.misses, 0);
    }
}

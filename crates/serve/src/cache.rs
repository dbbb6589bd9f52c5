//! LRU-bounded in-memory cache of corpus cells and their evaluation
//! artifacts.
//!
//! The daemon's whole value proposition is that repeated queries against the
//! same cell skip process startup, corpus open **and** artifact construction.
//! A [`CachedCell`] therefore bundles everything one cell's evaluations need:
//! the loaded trace ([`LoadedCell`]), the calibrated [`PolicyFactory`] (every
//! policy built from it shares the offline GLADIATOR model, pattern extractor
//! and coloring), and lazily built decoder backends — one slot per
//! [`DecoderKind`], the union-find slot also serving requests that name no
//! decoder. Cells are keyed by the manifest's policy-free cell key and
//! evicted least-recently-used.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_decoder::{DecoderBackend, DecoderKind};
use qec_experiments::engine::build_backend;
use qec_experiments::replay::{calibration_for, load_entry};
use qec_experiments::LoadedCell;
use qec_trace::{Corpus, CorpusEntry};

/// One corpus cell resident in memory with its shared evaluation artifacts.
#[derive(Debug)]
pub struct CachedCell {
    /// The corpus cell key this entry was loaded under.
    pub key: String,
    /// The loaded trace: header, shot-ordered shots, fingerprint-checked code.
    pub cell: LoadedCell,
    /// Factory calibrated for the cell's recorded noise model; shared across
    /// every evaluation of the cell.
    pub factory: Arc<PolicyFactory>,
    /// The policy that recorded the trace.
    pub recorded: PolicyKind,
    /// One lazily filled slot per [`DecoderKind`], index-aligned with
    /// [`DecoderKind::ALL`].
    backends: [OnceLock<Arc<dyn DecoderBackend>>; DecoderKind::ALL.len()],
}

impl CachedCell {
    /// The cell's decoder backend for `kind` — union-find, the legacy default,
    /// when `None` — built on first use (decoding is optional per request, and
    /// the builds are not free) and shared by every later decode of the cell
    /// under that selection.
    ///
    /// # Errors
    /// Returns the backend's validation message when the backend cannot serve
    /// this cell's code/distance (e.g. the lookup table against d>3, or
    /// union-find against the color code); the caller maps it to a typed
    /// `bad-request`.
    pub fn backend(&self, kind: Option<DecoderKind>) -> Result<Arc<dyn DecoderBackend>, String> {
        let kind = kind.unwrap_or(DecoderKind::UnionFind);
        let slot = &self.backends[DecoderKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("DecoderKind::ALL holds every kind")];
        if let Some(backend) = slot.get() {
            return Ok(Arc::clone(backend));
        }
        // Validate *before* filling the slot: a failed build must stay
        // reportable on every retry, and OnceLock has no fallible init.
        let backend = build_backend(Some(kind), &self.cell.code, self.cell.header.rounds)
            .map_err(|e| format!("{}: {e}", self.key))?;
        Ok(Arc::clone(slot.get_or_init(|| backend)))
    }
}

/// Cache occupancy and traffic counters (all totals since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the cell resident.
    pub hits: u64,
    /// Lookups that loaded the cell from disk.
    pub misses: u64,
    /// Cells evicted to make room.
    pub evictions: u64,
    /// Cells currently resident.
    pub cached_cells: usize,
    /// Maximum resident cells.
    pub capacity: usize,
}

/// Most-recently-used-last queue of resident cells.
struct Inner {
    /// `(key, cell)`; front = least recently used.
    entries: VecDeque<(String, Arc<CachedCell>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The LRU-bounded cell cache. Loads are serialized under the cache lock, so
/// concurrent requests for the same cold cell load it exactly once (and the
/// hit/miss/eviction history is a deterministic function of the lookup
/// sequence, never of thread timing).
pub struct CellCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for CellCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CellCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl CellCache {
    /// Creates a cache holding at most `capacity` cells (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CellCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { entries: VecDeque::new(), hits: 0, misses: 0, evictions: 0 }),
        }
    }

    /// Creates an **empty** cache whose traffic counters start from
    /// `baseline` instead of zero. A hot corpus reload swaps in a fresh cache
    /// (the old snapshot's cells describe the old manifest), but the daemon's
    /// `stats` counters are documented as totals-since-start — carrying the
    /// old cache's counters forward keeps them monotone across swaps.
    #[must_use]
    pub fn with_baseline(capacity: usize, baseline: CacheStats) -> Self {
        CellCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: VecDeque::new(),
                hits: baseline.hits,
                misses: baseline.misses,
                evictions: baseline.evictions,
            }),
        }
    }

    /// Returns the resident cell for `entry`, loading (and possibly evicting)
    /// on a miss. The boolean is `true` on a hit — the request paid no corpus
    /// I/O.
    ///
    /// # Errors
    /// Returns a message when the shard fails to load or verify, or when the
    /// recorded policy label is unknown to this build.
    pub fn get_or_load(
        &self,
        corpus: &Corpus,
        entry: &CorpusEntry,
    ) -> Result<(Arc<CachedCell>, bool), String> {
        // Recover (rather than cascade) from a poisoned lock: the cache's
        // invariants are a consistent LRU queue plus monotone counters, both
        // upheld at every await-free step, so the state a panicking thread
        // left behind is safe to keep serving.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(position) = inner.entries.iter().position(|(key, _)| *key == entry.key) {
            let resident = inner.entries.remove(position).expect("position is in range");
            let cell = Arc::clone(&resident.1);
            inner.entries.push_back(resident);
            inner.hits += 1;
            return Ok((cell, true));
        }
        let cell = load_entry(corpus, entry)?;
        let recorded = PolicyKind::from_label(&cell.header.policy).ok_or_else(|| {
            format!("{}: unknown recorded policy `{}`", entry.key, cell.header.policy)
        })?;
        let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        let cached = Arc::new(CachedCell {
            key: entry.key.clone(),
            cell,
            factory,
            recorded,
            backends: std::array::from_fn(|_| OnceLock::new()),
        });
        inner.misses += 1;
        while inner.entries.len() >= self.capacity {
            inner.entries.pop_front();
            inner.evictions += 1;
        }
        inner.entries.push_back((entry.key.clone(), Arc::clone(&cached)));
        Ok((cached, false))
    }

    /// Current occupancy and traffic counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            cached_cells: inner.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_speculation::PolicyKind;
    use qec_experiments::replay::record_into_corpus;
    use qec_experiments::scenario::{CodeFamily, Scenario};

    fn tiny_corpus(name: &str, distances: &[usize]) -> Corpus {
        let dir = std::env::temp_dir().join(format!("serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::open(&dir).unwrap();
        for &distance in distances {
            let scenario = Scenario {
                code: CodeFamily::Surface,
                distance,
                rounds: 3,
                p: 1e-3,
                leakage_ratio: 0.1,
                policy: PolicyKind::EraserM,
                shots: 2,
                seed: 5,
                decode: false,
                decoder: None,
            };
            record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "cache test").unwrap();
        }
        corpus.save().unwrap();
        corpus
    }

    #[test]
    fn hits_misses_and_lru_eviction_are_counted() {
        let corpus = tiny_corpus("lru", &[3, 5]);
        let entries: Vec<CorpusEntry> = corpus.entries().to_vec();
        let cache = CellCache::new(1);
        let (first, hit) = cache.get_or_load(&corpus, &entries[0]).unwrap();
        assert!(!hit);
        let (again, hit) = cache.get_or_load(&corpus, &entries[0]).unwrap();
        assert!(hit, "second lookup of the same cell must be a hit");
        assert!(Arc::ptr_eq(&first, &again), "a hit returns the resident cell");
        // Capacity 1: loading the second cell evicts the first.
        let (_, hit) = cache.get_or_load(&corpus, &entries[1]).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_load(&corpus, &entries[0]).unwrap();
        assert!(!hit, "evicted cell must reload");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 2));
        assert_eq!(stats.cached_cells, 1);
        let _ = std::fs::remove_dir_all(corpus.dir());
    }

    #[test]
    fn evicted_cells_stay_usable_through_existing_handles() {
        let corpus = tiny_corpus("handles", &[3, 5]);
        let entries: Vec<CorpusEntry> = corpus.entries().to_vec();
        let cache = CellCache::new(1);
        let (first, _) = cache.get_or_load(&corpus, &entries[0]).unwrap();
        let (_second, _) = cache.get_or_load(&corpus, &entries[1]).unwrap();
        // `first` was evicted but the Arc keeps its shots alive.
        assert_eq!(first.cell.shots.len(), 2);
        assert_eq!(first.recorded, PolicyKind::EraserM);
        let _ = std::fs::remove_dir_all(corpus.dir());
    }

    #[test]
    fn a_baseline_cache_starts_empty_but_keeps_the_old_counters() {
        let corpus = tiny_corpus("baseline", &[3]);
        let entry = corpus.entries()[0].clone();
        let old = CellCache::new(2);
        let _ = old.get_or_load(&corpus, &entry).unwrap();
        let _ = old.get_or_load(&corpus, &entry).unwrap();
        let carried = CellCache::with_baseline(2, old.stats());
        let stats = carried.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "counters carry across the swap");
        assert_eq!(stats.cached_cells, 0, "no cells carry across the swap");
        let (_, hit) = carried.get_or_load(&corpus, &entry).unwrap();
        assert!(!hit, "the new cache reloads from the new corpus");
        assert_eq!(carried.stats().misses, 2);
        let _ = std::fs::remove_dir_all(corpus.dir());
    }

    #[test]
    fn decoder_is_built_once_and_shared() {
        let corpus = tiny_corpus("decoder", &[3]);
        let entry = corpus.entries()[0].clone();
        let cache = CellCache::new(2);
        let (cell, _) = cache.get_or_load(&corpus, &entry).unwrap();
        let a = cell.backend(None).unwrap();
        let b = cell.backend(None).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = std::fs::remove_dir_all(corpus.dir());
    }

    #[test]
    fn backend_slots_are_per_kind_shared_and_validated() {
        let corpus = tiny_corpus("backend", &[3, 5]);
        let entries: Vec<CorpusEntry> = corpus.entries().to_vec();
        let cache = CellCache::new(2);
        let (d3, _) = cache.get_or_load(&corpus, &entries[0]).unwrap();
        // No selection decodes on the explicit `uf` slot...
        let legacy = d3.backend(None).unwrap();
        let uf = d3.backend(Some(DecoderKind::UnionFind)).unwrap();
        assert_eq!(uf.label(), "uf");
        assert!(Arc::ptr_eq(&legacy, &uf));
        // ...and repeated selections of one kind share one backend.
        let lookup = d3.backend(Some(DecoderKind::Lookup)).unwrap();
        assert_eq!(lookup.label(), "lookup");
        assert!(Arc::ptr_eq(&lookup, &d3.backend(Some(DecoderKind::Lookup)).unwrap()));
        // A backend that cannot serve the cell is a typed error naming the
        // cell, and stays an error on retry (the slot never fills).
        let (d5, _) = cache.get_or_load(&corpus, &entries[1]).unwrap();
        for _ in 0..2 {
            let err = d5.backend(Some(DecoderKind::Lookup)).unwrap_err();
            assert!(err.contains(&d5.key), "error names the cell: {err}");
            assert!(err.contains("distance 3"), "error is actionable: {err}");
        }
        let _ = std::fs::remove_dir_all(corpus.dir());
    }
}

//! The daemon: the dispatch from protocol requests to corpus-backed
//! evaluations, served through the shared connection front end
//! ([`crate::front`]).
//!
//! Evaluation work (solo `eval`, `batch-eval` groups, `verify-cell` re-reads)
//! runs on a persistent [`rayon::ThreadPool`] shared by all connections,
//! behind a bounded admission queue: when the in-flight evaluation weight
//! would exceed `queue_limit`, the request is refused with an `overloaded`
//! error on its own (surviving) connection rather than stalling everyone —
//! explicit backpressure instead of collapse.
//!
//! The served corpus is a hot-swappable snapshot: the daemon stamps
//! `manifest.json` (mtime + length) between requests and, when the stamp
//! moves and the parsed entry set actually differs, atomically swaps in a
//! fresh `(corpus, cache)` pair. Every request resolves against exactly one
//! snapshot `Arc`, so in-flight evaluations finish against the snapshot they
//! started on — a reload never drops a connection and never yields a
//! mixed-snapshot row.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use leakage_speculation::PolicyKind;
use qec_decoder::{DecoderBackend, DecoderKind};
use qec_experiments::replay::{
    evaluate_cell_set, evaluation_row, load_entry, reproduces_live, CheckpointStats,
};
use qec_experiments::ReplayMode;
use qec_trace::{manifest_stamp, read_trace_header, Corpus, CorpusEntry, ManifestStamp};

use crate::cache::{CachedCell, CellCache};
use crate::front::Front;
use crate::protocol::{
    BatchItem, CellStat, ErrorCode, EvalResult, EvalSpec, RequestKind, ResponseKind, ServerStats,
    VerifiedCell, VersionInfo, WireError,
};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, `host:port`. Port `0` picks an ephemeral port —
    /// read it back from [`Server::local_addr`].
    pub addr: String,
    /// Maximum corpus cells resident in the cache.
    pub cache_cells: usize,
    /// Worker threads of the persistent evaluation pool. `0` means
    /// [`rayon::current_num_threads`] (so `RAYON_NUM_THREADS` governs it).
    pub pool_threads: usize,
    /// Hard connection limit: the size of the fixed connection-worker pool.
    /// A connection beyond it receives one typed `overloaded` error line and
    /// is closed (established connections are unaffected).
    pub max_connections: usize,
    /// Evaluation-queue capacity, in evaluation units (a solo `eval` or
    /// `verify-cell` weighs 1, a `batch-eval` weighs its member count). A
    /// request whose weight would push the in-flight total past the limit is
    /// refused with an `overloaded` error on its surviving connection.
    pub queue_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_cells: 8,
            pool_threads: 0,
            max_connections: 32,
            queue_limit: 256,
        }
    }
}

/// One atomically-swappable view of the served corpus: the parsed manifest
/// and the cell cache loaded from it. Requests clone the current snapshot
/// `Arc` once and resolve everything against it, so a concurrent manifest
/// swap can never mix two corpus generations inside one answer.
struct CorpusSnapshot {
    corpus: Corpus,
    cache: CellCache,
}

/// A bound, not-yet-running daemon: the connection front end, the corpus
/// snapshot, the persistent pool, the admission gauges and the traffic
/// counters behind the `stats` response. [`Server::run`] blocks until a
/// `shutdown` request arrives.
pub struct Server {
    front: Front,
    /// The current corpus snapshot; replaced wholesale on a hot reload.
    snapshot: RwLock<Arc<CorpusSnapshot>>,
    /// Last `manifest.json` stamp acted on. Also serializes reload checks:
    /// `try_lock` keeps the stat-and-maybe-reopen to one thread at a time.
    reload: Mutex<Option<ManifestStamp>>,
    corpus_dir: PathBuf,
    cache_cells: usize,
    pool: rayon::ThreadPool,
    queue_limit: usize,
    evals: AtomicU64,
    batch_evals: AtomicU64,
    /// Shot-level forced prefix re-executions performed by the
    /// shared-checkpoint batch path (one per divergent shot, however many
    /// same-cell candidates the batch carried).
    shared_passes: AtomicU64,
    /// Candidate suffixes resumed from shared checkpoints.
    suffixes_served: AtomicU64,
    /// Most simulator checkpoints held at once by any shared evaluation.
    peak_checkpoints: AtomicU64,
    /// Evaluation units currently in flight (admission gauge for
    /// `queue_limit`).
    queue_depth: AtomicU64,
    queue_depth_hwm: AtomicU64,
    shed_requests: AtomicU64,
    corpus_reloads: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr())
            .field("cells", &self.corpus_cells())
            .finish()
    }
}

impl Server {
    /// Opens the corpus at `corpus_dir` (which must exist and be non-empty —
    /// a daemon over nothing answers nothing) and binds the listen socket.
    ///
    /// # Errors
    /// Returns a message when the corpus is missing/empty/corrupt or the
    /// address cannot be bound.
    pub fn bind(corpus_dir: &Path, config: &ServeConfig) -> Result<Server, String> {
        let corpus = Corpus::open_existing(corpus_dir).map_err(|e| e.to_string())?;
        if corpus.entries().is_empty() {
            return Err(format!(
                "corpus {} is empty — nothing to serve (record cells first)",
                corpus_dir.display()
            ));
        }
        let front = Front::bind(&config.addr, config.max_connections)?;
        let pool = if config.pool_threads == 0 {
            rayon::ThreadPool::with_default_threads()
        } else {
            rayon::ThreadPool::new(config.pool_threads)
        };
        let stamp = manifest_stamp(corpus_dir);
        let cache_cells = config.cache_cells;
        Ok(Server {
            front,
            snapshot: RwLock::new(Arc::new(CorpusSnapshot {
                corpus,
                cache: CellCache::new(cache_cells),
            })),
            reload: Mutex::new(stamp),
            corpus_dir: corpus_dir.to_path_buf(),
            cache_cells,
            pool,
            queue_limit: config.queue_limit.max(1),
            evals: AtomicU64::new(0),
            batch_evals: AtomicU64::new(0),
            shared_passes: AtomicU64::new(0),
            suffixes_served: AtomicU64::new(0),
            peak_checkpoints: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            corpus_reloads: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Number of cells in the served corpus manifest (the current snapshot).
    #[must_use]
    pub fn corpus_cells(&self) -> usize {
        current_snapshot(self).corpus.entries().len()
    }

    /// Accepts and serves connections until a `shutdown` request is handled,
    /// then drains the connection workers and returns ([`Front::run`]).
    pub fn run(self) {
        self.front.run(|_, request| handle_request(&self, request).into());
    }
}

/// The current corpus snapshot. Cloning the `Arc` under the read lock is the
/// whole synchronization story: whatever a request resolves after this call
/// — manifest entries, cache cells, shard paths — comes from one generation.
fn current_snapshot(state: &Server) -> Arc<CorpusSnapshot> {
    Arc::clone(&state.snapshot.read().unwrap_or_else(PoisonError::into_inner))
}

/// Live progress of an adaptive sweep checkpointed in the served corpus
/// directory: `(rounds completed, total shots allocated)` from a `state.qad`
/// colocated with `manifest.json` (adaptive sweeps may point `--checkpoint`
/// at the corpus directory — the file sets are disjoint). `(0, 0)` when no
/// checkpoint exists, and equally when the state file is torn or corrupt:
/// `stats` is a monitoring surface and must never fail a request over a
/// checkpoint mid-rewrite (resume, in contrast, errors loudly on the same
/// bytes).
fn adaptive_progress(corpus_dir: &Path) -> (u64, u64) {
    if !corpus_dir.join(qec_experiments::adaptive::STATE_FILE).exists() {
        return (0, 0);
    }
    match qec_experiments::adaptive::read_checkpoint_state(corpus_dir) {
        Ok(state) => {
            let shots = state.cells.iter().map(|cell| cell.acc.shots as u64).sum();
            (state.rounds, shots)
        }
        Err(_) => (0, 0),
    }
}

/// Checks `manifest.json` for changes and swaps in a fresh snapshot when the
/// parsed entry set differs. Crash-safe against torn manifest writes: a
/// manifest that fails to parse is skipped (the stamp is not advanced), so
/// the next request simply retries; the old snapshot keeps serving either
/// way. Content-identical rewrites advance the stamp without swapping, so
/// cache residency (and the exactness of cache-counter tests) survives a
/// `touch`.
fn maybe_reload(state: &Server) {
    // Another thread mid-check will pick up whatever we would have seen.
    let Ok(mut last) = state.reload.try_lock() else { return };
    let stamp = manifest_stamp(&state.corpus_dir);
    if stamp == *last {
        return;
    }
    let Ok(corpus) = Corpus::open_existing(&state.corpus_dir) else { return };
    let baseline = {
        let current = state.snapshot.read().unwrap_or_else(PoisonError::into_inner);
        if current.corpus.entries() == corpus.entries() {
            *last = stamp;
            return;
        }
        current.cache.stats()
    };
    let fresh =
        CorpusSnapshot { corpus, cache: CellCache::with_baseline(state.cache_cells, baseline) };
    *state.snapshot.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(fresh);
    state.corpus_reloads.fetch_add(1, Ordering::Relaxed);
    *last = stamp;
}

/// A held slot of the bounded evaluation queue; releases its weight on drop.
struct QueueSlot<'s> {
    state: &'s Server,
    weight: u64,
}

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        self.state.queue_depth.fetch_sub(self.weight, Ordering::AcqRel);
    }
}

/// Tries to admit `weight` evaluation units. Admission is strict — a request
/// is admitted only when its **whole** weight fits under `queue_limit` — so
/// whether a given request sheds is a deterministic function of what is in
/// flight, never of how far over the limit it would land.
fn try_enqueue(state: &Server, weight: u64) -> Option<QueueSlot<'_>> {
    let limit = state.queue_limit as u64;
    let mut depth = state.queue_depth.load(Ordering::Relaxed);
    loop {
        if depth + weight > limit {
            return None;
        }
        match state.queue_depth.compare_exchange(
            depth,
            depth + weight,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(actual) => depth = actual,
        }
    }
    state.queue_depth_hwm.fetch_max(depth + weight, Ordering::Relaxed);
    Some(QueueSlot { state, weight })
}

/// The typed refusal a shed request is answered with. Nothing was evaluated;
/// the connection survives and the client may retry the identical request.
fn overloaded(state: &Server, weight: u64) -> ResponseKind {
    state.shed_requests.fetch_add(1, Ordering::Relaxed);
    ResponseKind::Error(WireError::new(
        ErrorCode::Overloaded,
        format!(
            "evaluation queue full (request weight {weight} does not fit under limit {}); \
             nothing was evaluated — retry later",
            state.queue_limit
        ),
    ))
}

/// Dispatches one parsed request. Never panics on user input: every failure
/// becomes a typed error response.
fn handle_request(state: &Server, request: RequestKind) -> ResponseKind {
    // Corpus-free kinds first: pure liveness and identity, never shed, and
    // deliberately untouched by reload checks.
    match request {
        RequestKind::Ping => return ResponseKind::Pong,
        RequestKind::Shutdown => return ResponseKind::ShuttingDown,
        RequestKind::Version => return ResponseKind::Version(VersionInfo::new("qec-serve")),
        _ => {}
    }
    // Everything below reads the corpus: check for a hot manifest swap, then
    // resolve the whole request against one snapshot generation.
    maybe_reload(state);
    let snapshot = current_snapshot(state);
    match request {
        RequestKind::Ping | RequestKind::Shutdown | RequestKind::Version => {
            unreachable!("handled above")
        }
        RequestKind::Stats => {
            let cache = snapshot.cache.stats();
            let (adaptive_rounds, shots_allocated) = adaptive_progress(&state.corpus_dir);
            ResponseKind::Stats(ServerStats {
                evals: state.evals.load(Ordering::Relaxed),
                batch_evals: state.batch_evals.load(Ordering::Relaxed),
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                cache_evictions: cache.evictions,
                cached_cells: cache.cached_cells,
                cache_capacity: cache.capacity,
                corpus_cells: snapshot.corpus.entries().len(),
                shared_passes: state.shared_passes.load(Ordering::Relaxed),
                suffixes_served: state.suffixes_served.load(Ordering::Relaxed),
                peak_checkpoints: state.peak_checkpoints.load(Ordering::Relaxed),
                queue_depth_hwm: state.queue_depth_hwm.load(Ordering::Relaxed),
                queue_limit: state.queue_limit,
                shed_requests: state.shed_requests.load(Ordering::Relaxed),
                corpus_reloads: state.corpus_reloads.load(Ordering::Relaxed),
                adaptive_rounds,
                shots_allocated,
                // The connection gauges; the router counters stay 0 (a plain
                // daemon routes nothing and is not a replica of itself).
                ..state.front.stats()
            })
        }
        RequestKind::ListCells => ResponseKind::Cells(snapshot.corpus.entries().to_vec()),
        RequestKind::StatCell { key } => match stat_cell(&snapshot, &key) {
            Ok(stat) => ResponseKind::CellStat(stat),
            Err(error) => ResponseKind::Error(error),
        },
        RequestKind::VerifyCell { key } => {
            let Some(slot) = try_enqueue(state, 1) else { return overloaded(state, 1) };
            let outcome = verify_cell(state, &snapshot, &key);
            drop(slot);
            match outcome {
                Ok(verified) => ResponseKind::Verified(verified),
                Err(error) => ResponseKind::Error(error),
            }
        }
        RequestKind::Eval(spec) => {
            let Some(slot) = try_enqueue(state, 1) else { return overloaded(state, 1) };
            let outcome = match prepare_eval(&snapshot, &spec) {
                Ok(prepared) => state
                    .pool
                    .execute_ordered(vec![move || compute_evals(&[prepared]).0])
                    .pop()
                    .and_then(|mut outcomes| outcomes.pop())
                    .expect("one job, one result"),
                Err(error) => Err(error),
            };
            drop(slot);
            match outcome {
                Ok(result) => {
                    state.evals.fetch_add(1, Ordering::Relaxed);
                    ResponseKind::Eval(result)
                }
                Err(error) => ResponseKind::Error(error),
            }
        }
        RequestKind::BatchEval { evals, per_item } => {
            let weight = evals.len() as u64;
            let Some(slot) = try_enqueue(state, weight) else {
                return overloaded(state, weight);
            };
            let outcome = batch_eval(state, &snapshot, &evals, per_item.unwrap_or(false));
            drop(slot);
            match outcome {
                Ok(response) => response,
                Err(error) => ResponseKind::Error(error),
            }
        }
    }
}

fn lookup<'c>(snapshot: &'c CorpusSnapshot, key: &str) -> Result<&'c CorpusEntry, WireError> {
    snapshot.corpus.lookup(key).ok_or_else(|| {
        WireError::new(
            ErrorCode::UnknownCell,
            format!("no cell `{key}` in the served corpus (try list-cells)"),
        )
    })
}

/// `stat-cell`: manifest entry + shard provenance at `O(header)` cost — the
/// shard's shot blocks are never read (`qec_trace::read_trace_header`).
fn stat_cell(snapshot: &CorpusSnapshot, key: &str) -> Result<CellStat, WireError> {
    let entry = lookup(snapshot, key)?;
    let path = snapshot.corpus.trace_path(entry);
    let corrupt =
        |e: String| WireError::new(ErrorCode::CorruptCorpus, format!("{}: {e}", path.display()));
    let file_bytes = std::fs::metadata(&path).map_err(|e| corrupt(e.to_string()))?.len();
    let header = read_trace_header(&path).map_err(|e| corrupt(e.to_string()))?;
    Ok(CellStat {
        entry: entry.clone(),
        file_bytes,
        generator: header.generator,
        git_describe: header.git_describe,
    })
}

/// `verify-cell`: a full CRC + identity re-read from disk, deliberately
/// bypassing the cache (a cached cell proves nothing about today's bytes).
/// The re-read runs on the evaluation pool like any other heavy work.
fn verify_cell(
    state: &Server,
    snapshot: &Arc<CorpusSnapshot>,
    key: &str,
) -> Result<VerifiedCell, WireError> {
    let entry = lookup(snapshot, key)?.clone();
    let snapshot = Arc::clone(snapshot);
    let key = key.to_string();
    state
        .pool
        .execute_ordered(vec![move || {
            let cell = load_entry(&snapshot.corpus, &entry)
                .map_err(|e| WireError::new(ErrorCode::CorruptCorpus, e))?;
            Ok(VerifiedCell { key, shots: cell.shots.len() })
        }])
        .pop()
        .expect("one job, one result")
}

/// One eval with its cell resolved and its labels parsed — everything owned,
/// so batch members can move onto pool workers.
struct PreparedEval {
    key: String,
    cached: Arc<CachedCell>,
    hit: bool,
    policy: PolicyKind,
    mode: ReplayMode,
    decode: bool,
    /// Backend selected by the request's optional `decoder` field; `None` is
    /// the legacy union-find slot (byte-identical to pre-field behavior).
    decoder: Option<DecoderKind>,
}

/// Resolves an [`EvalSpec`] against the snapshot's corpus and cache.
/// Sequential (under the cache lock), so cache traffic is a deterministic
/// function of the request stream.
fn prepare_eval(snapshot: &CorpusSnapshot, spec: &EvalSpec) -> Result<PreparedEval, WireError> {
    let entry = lookup(snapshot, &spec.key)?;
    let policy = PolicyKind::from_label(&spec.policy).ok_or_else(|| {
        WireError::new(
            ErrorCode::UnknownPolicy,
            format!(
                "unknown policy `{}`; known: {}",
                spec.policy,
                PolicyKind::ALL.map(PolicyKind::label).join(", ")
            ),
        )
    })?;
    let mode = match spec.mode.as_deref() {
        None => ReplayMode::OpenLoop,
        Some(label) => [ReplayMode::OpenLoop, ReplayMode::ClosedLoop]
            .into_iter()
            .find(|mode| mode.label() == label)
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::BadRequest,
                    format!("unknown mode `{label}` (open-loop|closed-loop)"),
                )
            })?,
    };
    let decoder = match spec.decoder.as_deref() {
        None => None,
        Some(label) => Some(DecoderKind::from_label(label).ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("unknown decoder `{label}`; known: {}", DecoderKind::known_labels()),
            )
        })?),
    };
    let (cached, hit) = snapshot
        .cache
        .get_or_load(&snapshot.corpus, entry)
        .map_err(|e| WireError::new(ErrorCode::CorruptCorpus, e))?;
    // A decoder/cell mismatch (e.g. the lookup decoder on a d=5 cell, or a
    // decoding pairing without a selection — union-find — on a color cell) is
    // a request error, caught here at prepare time so it is typed
    // `bad-request` — never `internal`, and never a disconnect.
    let decode = spec.decode.unwrap_or(false);
    let implied = decode && reproduces_live(&cached.cell, policy, mode);
    if let Some(kind) = decoder.or(implied.then_some(DecoderKind::UnionFind)) {
        kind.supports(cached.cell.code.family(), cached.cell.code.distance()).map_err(|e| {
            WireError::new(
                ErrorCode::BadRequest,
                format!("{}: decoder `{}` cannot serve this cell: {e}", spec.key, kind.label()),
            )
        })?;
    }
    Ok(PreparedEval { key: spec.key.clone(), cached, hit, policy, mode, decode, decoder })
}

/// Runs prepared evaluations of one cell as one candidate set, through the
/// exact entry points (`evaluate_cell_set` + `evaluation_row`) that `repro
/// replay` reports go through, so a served result is byte-identical to the
/// CLI row for the same `corpus × cell × policy × mode × decode`. A solo
/// eval is a set of one; a batch's same-cell closed-loop members form one
/// set, sharing one forced prefix pass per divergent shot (the returned
/// [`CheckpointStats`]). A cell-level failure is reported against every
/// member (the failure — e.g. a stale corpus — belongs to the cell, not one
/// candidate).
fn compute_evals(
    members: &[PreparedEval],
) -> (Vec<Result<EvalResult, WireError>>, CheckpointStats) {
    let first = &members[0];
    let cell = &first.cached.cell;
    let kinds: Vec<PolicyKind> = members.iter().map(|p| p.policy).collect();
    // Build a member's decoder only when its spec asks for decoding and its
    // pairing decodes at all.
    let decoders: Vec<Option<Arc<dyn DecoderBackend>>> = match members
        .iter()
        .map(|p| {
            (p.decode && reproduces_live(cell, p.policy, p.mode))
                .then(|| p.cached.backend(p.decoder))
                .transpose()
        })
        .collect::<Result<_, _>>()
    {
        Ok(decoders) => decoders,
        // Unreachable in practice: `prepare_eval` validated every selector
        // against this cell. Kept typed so a future backend kind that can
        // fail to build still answers instead of panicking.
        Err(e) => {
            let error = WireError::new(ErrorCode::BadRequest, e);
            return (
                members.iter().map(|_| Err(error.clone())).collect(),
                CheckpointStats::default(),
            );
        }
    };
    let decoder_refs: Vec<Option<&dyn DecoderBackend>> =
        decoders.iter().map(std::option::Option::as_deref).collect();
    match evaluate_cell_set(cell, &first.cached.factory, &kinds, &decoder_refs, first.mode, true) {
        Ok((replays, stats)) => {
            let results = members
                .iter()
                .zip(replays)
                .map(|(p, replay)| {
                    Ok(EvalResult {
                        cached: p.hit,
                        result: evaluation_row(&p.key, cell, p.policy, p.decoder, &replay),
                    })
                })
                .collect();
            (results, stats)
        }
        Err(e) => {
            let error = WireError::new(ErrorCode::CorruptCorpus, format!("{}: {e}", first.key));
            (members.iter().map(|_| Err(error.clone())).collect(), CheckpointStats::default())
        }
    }
}

/// `batch-eval`: resolve every pairing sequentially (deterministic cache
/// traffic), group closed-loop pairings that target the same cell into one
/// candidate set (one forced prefix pass per divergent shot instead of one
/// per candidate), then fan the groups — every other pairing a group of one —
/// out on the persistent pool. Results come back in request order and are
/// byte-identical to ungrouped evaluation.
///
/// Two answer shapes, chosen by the request's `per_item` flag:
///
/// * **legacy all-or-nothing** (absent/`false`): an unresolvable pairing
///   fails the whole request before anything later is resolved or evaluated,
///   and a compute-stage failure (e.g. a stale corpus under closed-loop
///   repair) discards the sibling results; either way the error names the
///   offending index.
/// * **per-item** (`true`): every pairing is resolved and evaluated
///   independently; the answer carries one result-or-typed-error entry per
///   pairing, in request order — one bad pairing no longer poisons the batch.
fn batch_eval(
    state: &Server,
    snapshot: &CorpusSnapshot,
    evals: &[EvalSpec],
    per_item: bool,
) -> Result<ResponseKind, WireError> {
    if evals.is_empty() {
        return Err(WireError::new(ErrorCode::BadRequest, "batch-eval with no evals"));
    }
    let indexed = |index: usize| {
        move |mut error: WireError| {
            error.message = format!("evals[{index}]: {}", error.message);
            error
        }
    };
    // Resolve sequentially. Legacy mode keeps the historical fail-fast: the
    // first unresolvable pairing refuses the batch before anything after it
    // is resolved (so its cache traffic is exactly the pre-per-item one).
    let mut prepared: Vec<(usize, Result<PreparedEval, WireError>)> =
        Vec::with_capacity(evals.len());
    for (index, spec) in evals.iter().enumerate() {
        let outcome = prepare_eval(snapshot, spec).map_err(indexed(index));
        if let (false, Err(error)) = (per_item, &outcome) {
            return Err(error.clone());
        }
        prepared.push((index, outcome));
    }
    let mut outcomes: Vec<Option<Result<EvalResult, WireError>>> =
        (0..evals.len()).map(|_| None).collect();
    // Partition into same-cell closed-loop candidate sets and solo members.
    // Only closed-loop pairings are groupable (`Some(key)`); open-loop
    // pairings stay solo (`None`) even when they target the same cell.
    type EvalGroup = (Option<String>, Vec<(usize, PreparedEval)>);
    let mut groups: Vec<EvalGroup> = Vec::new();
    for (index, outcome) in prepared {
        let p = match outcome {
            Ok(p) => p,
            Err(error) => {
                outcomes[index] = Some(Err(error));
                continue;
            }
        };
        let group_key = (p.mode == ReplayMode::ClosedLoop).then(|| p.key.clone());
        match group_key
            .as_ref()
            .and_then(|key| groups.iter_mut().find(|(k, _)| k.as_ref() == Some(key)))
        {
            Some((_, members)) => members.push((index, p)),
            None => groups.push((group_key, vec![(index, p)])),
        }
    }
    let jobs: Vec<_> = groups
        .into_iter()
        .map(|(_, members)| {
            move || {
                let (indices, members): (Vec<usize>, Vec<PreparedEval>) =
                    members.into_iter().unzip();
                let (outcomes, stats) = compute_evals(&members);
                // A set of one shares nothing: only groups of two or more
                // advance the sharing counters.
                let stats = if members.len() > 1 { stats } else { CheckpointStats::default() };
                let indexed_outcomes: Vec<(usize, Result<EvalResult, WireError>)> = indices
                    .into_iter()
                    .zip(outcomes)
                    .map(|(index, outcome)| (index, outcome.map_err(indexed(index))))
                    .collect();
                (indexed_outcomes, stats)
            }
        })
        .collect();
    for (group_outcomes, stats) in state.pool.execute_ordered(jobs) {
        state.shared_passes.fetch_add(stats.forced_passes, Ordering::Relaxed);
        state.suffixes_served.fetch_add(stats.suffixes, Ordering::Relaxed);
        state.peak_checkpoints.fetch_max(stats.peak_checkpoints, Ordering::Relaxed);
        for (index, outcome) in group_outcomes {
            outcomes[index] = Some(outcome);
        }
    }
    let outcomes: Vec<Result<EvalResult, WireError>> =
        outcomes.into_iter().map(|outcome| outcome.expect("every index answered")).collect();
    // `evals` counts successfully computed pairings (matching the single-eval
    // path, which only counts successes); `batch_evals` counts batches that
    // were answered with a `batch` or `batch-items` response.
    let successes = outcomes.iter().filter(|outcome| outcome.is_ok()).count();
    state.evals.fetch_add(successes as u64, Ordering::Relaxed);
    if per_item {
        state.batch_evals.fetch_add(1, Ordering::Relaxed);
        Ok(ResponseKind::BatchItems(outcomes.into_iter().map(BatchItem::from).collect()))
    } else {
        let results = outcomes.into_iter().collect::<Result<Vec<EvalResult>, WireError>>()?;
        state.batch_evals.fetch_add(1, Ordering::Relaxed);
        Ok(ResponseKind::Batch(results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use leakage_speculation::PolicyFactory;
    use qec_experiments::engine::build_backend;
    use qec_experiments::replay::{calibration_for, evaluate_cell, record_into_corpus};
    use qec_experiments::{CodeFamily, Scenario};

    use crate::client::Client;
    use crate::protocol::{request_line, Request};

    fn record_corpus(dir: &Path) -> (String, String) {
        let mut corpus = Corpus::open(dir).unwrap();
        let mut keys = Vec::new();
        for distance in [3, 5] {
            let scenario = Scenario {
                code: CodeFamily::Surface,
                distance,
                rounds: 4,
                p: 1e-3,
                leakage_ratio: 0.1,
                policy: PolicyKind::EraserM,
                shots: 3,
                seed: 11,
                decode: false,
                decoder: None,
            };
            let entry =
                record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "serve test")
                    .unwrap();
            keys.push(entry.key);
        }
        corpus.save().unwrap();
        let d5 = keys.pop().unwrap();
        (keys.pop().unwrap(), d5)
    }

    /// The poisoned-request regression, end to end: a lock poisoned by a
    /// panicking thread does not stop the daemon from serving, decoder
    /// selector failures are typed `bad-request` (never `internal`, never a
    /// disconnect), and a served cross-decoder row is exactly the row the
    /// replay entry points produce.
    #[test]
    fn a_poisoned_lock_leaves_the_daemon_serving_and_decoder_errors_are_typed() {
        let dir = std::env::temp_dir().join(format!("qec-serve-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (d3, d5) = record_corpus(&dir);
        let server = Server::bind(&dir, &ServeConfig::default()).unwrap();
        let addr = server.local_addr();

        // Poison the snapshot lock exactly as a mid-request panic would: a
        // thread dies while holding the write guard.
        {
            let prior = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let lock = &server.snapshot;
            let _ = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = lock.write().unwrap_or_else(PoisonError::into_inner);
                        panic!("poison the snapshot lock");
                    })
                    .join()
            });
            std::panic::set_hook(prior);
            assert!(server.snapshot.is_poisoned(), "the panic must poison the lock");
        }

        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).unwrap();
        let spec = |key: &str, decoder: Option<&str>| EvalSpec {
            key: key.to_string(),
            policy: "eraser+m".to_string(),
            mode: None,
            decode: Some(true),
            decoder: decoder.map(str::to_string),
        };

        // The daemon still serves: snapshot reads recover the poisoned guard.
        let ResponseKind::Eval(baseline) =
            client.request(RequestKind::Eval(spec(&d3, None))).unwrap()
        else {
            panic!("eval must succeed on a daemon with a poisoned snapshot lock")
        };

        // Unknown decoder label: typed `bad-request` naming the known labels,
        // answered on a connection that keeps serving.
        let ResponseKind::Error(error) =
            client.request(RequestKind::Eval(spec(&d3, Some("mwpm")))).unwrap()
        else {
            panic!("an unknown decoder must answer with a typed error")
        };
        assert_eq!(error.code, ErrorCode::BadRequest);
        assert!(error.message.contains("uf, lookup"), "{}", error.message);

        // Decoder/cell mismatch: typed `bad-request` at prepare time.
        let ResponseKind::Error(error) =
            client.request(RequestKind::Eval(spec(&d5, Some("lookup")))).unwrap()
        else {
            panic!("an unsupported decoder/cell pairing must answer with a typed error")
        };
        assert_eq!(error.code, ErrorCode::BadRequest);
        assert!(error.message.contains("distance 3"), "{}", error.message);

        // The same connection — both errors above left it serving — now
        // serves the selected backend, bit-identical to the replay row.
        let ResponseKind::Eval(served) =
            client.request(RequestKind::Eval(spec(&d3, Some("lookup")))).unwrap()
        else {
            panic!("a supported decoder selection must evaluate")
        };
        assert_eq!(served.result.decoder.as_deref(), Some("lookup"));
        let corpus = Corpus::open_existing(&dir).unwrap();
        let cell = load_entry(&corpus, corpus.lookup(&d3).unwrap()).unwrap();
        let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        let backend =
            build_backend(Some(DecoderKind::Lookup), &cell.code, cell.header.rounds).unwrap();
        let replay = evaluate_cell(
            &cell,
            &factory,
            PolicyKind::EraserM,
            Some(&*backend),
            ReplayMode::OpenLoop,
        )
        .unwrap();
        let row =
            evaluation_row(&d3, &cell, PolicyKind::EraserM, Some(DecoderKind::Lookup), &replay);
        assert_eq!(served.result, row, "served row must equal the replay entry points' row");

        // No `decoder` in the request: the answer carries no `decoder` field
        // (byte-compatible with pre-field clients), and selecting `uf`
        // explicitly scores the identical metrics.
        let no_decoder_line =
            request_line(&Request { id: None, request: RequestKind::Eval(spec(&d3, None)) });
        let raw = client.send_raw(&no_decoder_line).unwrap();
        assert!(!raw.contains("\"decoder\""), "legacy rows must omit the decoder field: {raw}");
        let ResponseKind::Eval(uf) =
            client.request(RequestKind::Eval(spec(&d3, Some("uf")))).unwrap()
        else {
            panic!("uf selection must evaluate")
        };
        assert_eq!(uf.result.decoder.as_deref(), Some("uf"));
        assert_eq!(uf.result.metrics, baseline.result.metrics);

        let _ = client.request(RequestKind::Shutdown);
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

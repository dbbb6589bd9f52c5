//! The router daemon: one `qec-serve`-protocol endpoint over N replica
//! daemons.
//!
//! The router speaks the **same frozen NDJSON protocol** as the daemon
//! (`docs/SERVE_PROTOCOL.md`) — a client cannot tell the difference except by
//! the `version` response's server string and the additive router counters in
//! `stats`. Internally it resolves every cell-addressed request to its owning
//! replica by the shard-map assignment rule (`cell_hash(key) % replicas` —
//! the same pure function [`shard_corpus`](crate::shard_corpus) partitioned
//! by, so routing needs no per-key table lookup), and keeps one pooled,
//! deadline-bounded [`Client`] connection per replica.
//!
//! Byte-identity is the design invariant, inherited from the daemon's own
//! "served row ≡ replay row" contract:
//!
//! * **solo requests** (`eval`, `stat-cell`, `verify-cell`, and whole
//!   `batch-eval`s owned by one replica) are passed through **raw**: the
//!   router forwards the canonical request line carrying the client's own
//!   correlation id and returns the replica's response line verbatim — the
//!   routed bytes ARE the daemon's bytes;
//! * **split batches** fan per-owner sub-batches out concurrently on the
//!   vendored-rayon pool and reassemble `batch-items` entries in original
//!   request order, rewriting each per-item error's `evals[j]:` index prefix
//!   back to the original index. Entries round-trip through the vendored
//!   serde stack, whose f64 formatting is shortest-round-trip and whose
//!   objects preserve field order, so a reassembled row is byte-identical to
//!   the monolithic daemon's row for the same pairing. Unless a whole
//!   sub-batch was refused, an all-or-nothing batch is rendered by the
//!   daemon's own [`all_or_nothing`];
//! * `list-cells` merges per-replica listings back into **source-manifest
//!   order** (the shard map records every assignment in that order), which
//!   is byte-identical to the unsharded daemon's listing;
//! * `stats` aggregates per-replica counters (sums, and maxes for the
//!   high-water marks) and adds the router's own additive counters.
//!
//! Replica failure is never a hang and never a torn batch: every replica call
//! runs under connect/read/write deadlines with bounded reconnect-retry, and
//! a replica that stays unreachable yields typed `unavailable` errors — per
//! item for split batches (sibling replicas' items are unaffected), as the
//! whole response for solo requests.
//!
//! Client-facing, the router runs the daemon's connection front end
//! ([`qec_serve::front`]) with `route_request` as its handler: connection
//! limit, framing and shutdown drain are the daemon's code, not a copy.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use qec_serve::client::{Client, ClientConfig};
use qec_serve::front::{Answer, Front};
use qec_serve::protocol::{
    all_or_nothing, parse_response, request_line, BatchItem, ErrorCode, EvalSpec, Request,
    RequestKind, ResponseKind, ServerStats, VersionInfo, WireError, PROTOCOL_VERSION,
};
use qec_trace::cluster::ClusterMap;
use qec_trace::{Corpus, CorpusEntry};

/// Router construction options.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind, `host:port`. Port `0` picks an ephemeral port — read
    /// it back from [`Router::local_addr`].
    pub addr: String,
    /// Hard connection limit, as the daemon's: a connection beyond it gets
    /// one typed `overloaded` error line and is closed.
    pub max_connections: usize,
    /// Per-call deadline for every replica connect/read/write (`None` blocks
    /// forever — not recommended; a hung replica would hang its requests).
    pub replica_timeout: Option<Duration>,
    /// Reconnect-retry attempts per replica call beyond the first (bounded;
    /// an exhausted budget yields a typed `unavailable` error).
    pub replica_retries: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 32,
            replica_timeout: Some(Duration::from_millis(5000)),
            replica_retries: 1,
        }
    }
}

/// One replica's routing endpoint: its address, one pooled connection, and
/// its health. Calls on one replica serialize on the slot lock (the protocol
/// is strictly request→response per connection); cross-replica fan-out is
/// where the concurrency lives.
struct ReplicaSlot {
    index: usize,
    addr: String,
    client: Mutex<Option<Client>>,
    /// Whether the last call succeeded (the `replicas_up` gauge).
    up: AtomicBool,
    /// Calls that exhausted their retry budget (summed into
    /// `replica_errors`).
    errors: AtomicU64,
    timeout: Option<Duration>,
    retries: u32,
}

impl ReplicaSlot {
    /// Sends one raw line to the replica and returns its raw response line,
    /// reusing the pooled connection when possible and reconnecting (with
    /// bounded backoff-retry) when the transport fails. Retrying a protocol
    /// request is safe: every request is a read-only query against the
    /// replica's corpus.
    fn call_raw(&self, line: &str) -> Result<String, String> {
        let mut guard = self.client.lock().unwrap_or_else(PoisonError::into_inner);
        let config = ClientConfig { connect_timeout: self.timeout, io_timeout: self.timeout };
        let mut last_err = String::new();
        for attempt in 0..=self.retries {
            if attempt > 0 {
                // Bounded exponential backoff; a refused connect returns
                // instantly, so this is the whole cost of a down replica.
                let backoff = Duration::from_millis(50 << (attempt - 1).min(4));
                std::thread::sleep(backoff);
            }
            let mut client = match guard.take() {
                Some(client) => client,
                None => match Client::connect_with(&self.addr, config) {
                    Ok(client) => client,
                    Err(message) => {
                        last_err = message;
                        continue;
                    }
                },
            };
            match client.send_raw(line) {
                Ok(response) => {
                    *guard = Some(client);
                    self.up.store(true, Ordering::Relaxed);
                    return Ok(response);
                }
                // The connection is unusable after any transport failure
                // (a late line would desynchronize pairing): drop it and
                // reconnect on the next attempt.
                Err(message) => last_err = message,
            }
        }
        self.up.store(false, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        Err(format!("replica {} ({}): {last_err}", self.index, self.addr))
    }

    /// Sends a typed request and parses the typed response (the non-raw path
    /// behind `stats` aggregation and `list-cells` merging).
    fn call(&self, kind: RequestKind) -> Result<ResponseKind, String> {
        let line = self.call_raw(&request_line(&Request { id: None, request: kind }))?;
        let response = parse_response(&line)
            .map_err(|e| format!("replica {} ({}): {e}", self.index, self.addr))?;
        if response.v != PROTOCOL_VERSION {
            return Err(format!(
                "replica {} ({}) speaks protocol v{}, this router v{PROTOCOL_VERSION}",
                self.index, self.addr, response.v
            ));
        }
        Ok(response.response)
    }
}

/// A bound, not-yet-running router. [`Router::run`] blocks until a `shutdown`
/// request arrives. Shutting the router down does **not** shut its replicas
/// down — they are independent daemons; stop them with their own `shutdown`.
pub struct Router {
    front: Front,
    map: ClusterMap,
    replicas: Vec<Arc<ReplicaSlot>>,
    pool: rayon::ThreadPool,
    routed_requests: AtomicU64,
    fanout_hwm: AtomicU64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("addr", &self.local_addr())
            .field("replicas", &self.replicas.len())
            .field("cells", &self.map.cells())
            .finish()
    }
}

impl Router {
    /// Loads and validates the shard map at `cluster_path`, applies
    /// `addr_overrides` (`(replica index, host:port)` pairs, overriding the
    /// addresses recorded in the map) and binds the listen socket. Replicas
    /// are **not** probed at bind: a replica may come up later or die mid-run;
    /// health is tracked per call.
    ///
    /// # Errors
    /// Returns a message when the map is missing/invalid, an override names a
    /// replica the map does not have, any replica is left without an address,
    /// or the address cannot be bound.
    pub fn bind(
        cluster_path: &Path,
        addr_overrides: &[(usize, String)],
        config: &RouterConfig,
    ) -> Result<Router, String> {
        let mut map = ClusterMap::load(cluster_path).map_err(|e| e.to_string())?;
        for (index, addr) in addr_overrides {
            let n = map.replicas.len();
            let replica = map
                .replicas
                .get_mut(*index)
                .ok_or_else(|| format!("--replica-addr {index}: no such replica (0..{n})"))?;
            replica.addr.clone_from(addr);
        }
        if let Some(missing) = map.replicas.iter().find(|replica| replica.addr.is_empty()) {
            return Err(format!(
                "replica {} has no address — record one in {} or pass --replica-addr {}=HOST:PORT",
                missing.index,
                cluster_path.display(),
                missing.index
            ));
        }
        let front = Front::bind(&config.addr, config.max_connections)?;
        let replicas: Vec<Arc<ReplicaSlot>> = map
            .replicas
            .iter()
            .map(|replica| {
                Arc::new(ReplicaSlot {
                    index: replica.index,
                    addr: replica.addr.clone(),
                    client: Mutex::new(None),
                    up: AtomicBool::new(true),
                    errors: AtomicU64::new(0),
                    timeout: config.replica_timeout,
                    retries: config.replica_retries,
                })
            })
            .collect();
        // One pool worker per replica: a request can fan out to every replica
        // at once, and per-replica calls serialize on the slot anyway.
        let pool = rayon::ThreadPool::new(replicas.len().max(1));
        Ok(Router {
            front,
            map,
            replicas,
            pool,
            routed_requests: AtomicU64::new(0),
            fanout_hwm: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Replicas in the shard map.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Total cells across the shard map.
    #[must_use]
    pub fn cluster_cells(&self) -> usize {
        self.map.cells()
    }

    /// Accepts and routes connections until a `shutdown` request is handled
    /// (the daemon's front end, minus the evaluation queue — the router does
    /// no evaluation of its own).
    pub fn run(self) {
        self.front.run(|id, request| route_request(&self, id, request));
    }
}

/// Routes one parsed request. Never hangs on a dead replica: every replica
/// call is deadline-bounded, and exhaustion yields a typed `unavailable`.
fn route_request(state: &Router, id: Option<u64>, request: RequestKind) -> Answer {
    match request {
        // Local kinds: liveness and identity belong to the router itself.
        RequestKind::Ping => ResponseKind::Pong.into(),
        RequestKind::Shutdown => ResponseKind::ShuttingDown.into(),
        RequestKind::Version => ResponseKind::Version(VersionInfo::new("qec-cluster")).into(),
        RequestKind::Stats => aggregate_stats(state).into(),
        RequestKind::ListCells => merge_list_cells(state).into(),
        // Cell-addressed solo requests: raw pass-through to the owner.
        RequestKind::StatCell { ref key }
        | RequestKind::VerifyCell { ref key }
        | RequestKind::Eval(EvalSpec { ref key, .. }) => {
            let owner = owner_of(state, key);
            forward_raw(state, owner, id, request)
        }
        RequestKind::BatchEval { evals, per_item } => route_batch(state, id, evals, per_item),
    }
}

/// The owning replica of a cell key: the shard-map assignment rule applied
/// directly. Keys outside the corpus route to their *would-be* owner, which
/// answers `unknown-cell` with exactly the monolithic daemon's bytes.
fn owner_of<'a>(state: &'a Router, key: &str) -> &'a Arc<ReplicaSlot> {
    let index = ClusterMap::assign(Corpus::cell_hash(key), state.replicas.len());
    &state.replicas[index]
}

fn note_fanout(state: &Router, replicas_touched: u64) {
    state.routed_requests.fetch_add(1, Ordering::Relaxed);
    state.fanout_hwm.fetch_max(replicas_touched, Ordering::Relaxed);
}

/// The typed refusal for an unreachable replica.
fn unavailable(message: String) -> WireError {
    WireError::new(ErrorCode::Unavailable, format!("{message} — unreachable after bounded retry"))
}

/// Forwards a request owned by one replica raw: the replica sees the client's
/// own correlation id and its response line is returned verbatim, so routed
/// bytes are daemon bytes by construction.
fn forward_raw(
    state: &Router,
    owner: &ReplicaSlot,
    id: Option<u64>,
    request: RequestKind,
) -> Answer {
    note_fanout(state, 1);
    match owner.call_raw(&request_line(&Request { id, request })) {
        Ok(raw) => Answer::Raw(raw),
        Err(message) => ResponseKind::Error(unavailable(message)).into(),
    }
}

/// Sends `kind` to every replica concurrently; the answers come back in
/// replica order.
fn fan_out(state: &Router, kind: &RequestKind) -> Vec<Result<ResponseKind, String>> {
    note_fanout(state, state.replicas.len() as u64);
    let jobs: Vec<_> = state
        .replicas
        .iter()
        .map(|slot| {
            let (slot, kind) = (Arc::clone(slot), kind.clone());
            move || slot.call(kind)
        })
        .collect();
    state.pool.execute_ordered(jobs)
}

/// Aggregated `stats`: sums (and maxes, for the high-water marks) across the
/// replicas that answered, plus the router's own counters. A replica that
/// cannot be reached is simply absent from the aggregate — visible as
/// `replicas_up < N` and a bumped `replica_errors`, never an error response.
fn aggregate_stats(state: &Router) -> ResponseKind {
    let mut total = ServerStats::default();
    for outcome in fan_out(state, &RequestKind::Stats) {
        let Ok(ResponseKind::Stats(stats)) = outcome else { continue };
        total.requests += stats.requests;
        total.evals += stats.evals;
        total.batch_evals += stats.batch_evals;
        total.cache_hits += stats.cache_hits;
        total.cache_misses += stats.cache_misses;
        total.cache_evictions += stats.cache_evictions;
        total.cached_cells += stats.cached_cells;
        total.cache_capacity += stats.cache_capacity;
        total.corpus_cells += stats.corpus_cells;
        total.shared_passes += stats.shared_passes;
        total.suffixes_served += stats.suffixes_served;
        total.peak_checkpoints = total.peak_checkpoints.max(stats.peak_checkpoints);
        total.active_connections += stats.active_connections;
        total.max_connections += stats.max_connections;
        total.queue_depth_hwm = total.queue_depth_hwm.max(stats.queue_depth_hwm);
        total.queue_limit += stats.queue_limit;
        total.shed_requests += stats.shed_requests;
        total.shed_connections += stats.shed_connections;
        total.corpus_reloads += stats.corpus_reloads;
        // Each replica's corpus carries its own shard of an adaptively grown
        // sweep; the cluster-wide totals are plain sums.
        total.adaptive_rounds += stats.adaptive_rounds;
        total.shots_allocated += stats.shots_allocated;
    }
    total.routed_requests = state.routed_requests.load(Ordering::Relaxed);
    total.fanout_hwm = state.fanout_hwm.load(Ordering::Relaxed);
    total.replica_errors =
        state.replicas.iter().map(|slot| slot.errors.load(Ordering::Relaxed)).sum();
    total.replicas_up =
        state.replicas.iter().filter(|slot| slot.up.load(Ordering::Relaxed)).count() as u64;
    ResponseKind::Stats(total)
}

/// Merged `list-cells`: every replica's listing, reassembled into
/// source-manifest order via the shard map's assignment list — byte-identical
/// to the unsharded daemon's listing. A complete listing needs every replica,
/// so any unreachable one fails the whole request with a typed `unavailable`.
fn merge_list_cells(state: &Router) -> ResponseKind {
    let mut by_key: Vec<(String, CorpusEntry)> = Vec::with_capacity(state.map.cells());
    for outcome in fan_out(state, &RequestKind::ListCells) {
        match outcome {
            Ok(ResponseKind::Cells(cells)) => {
                by_key.extend(cells.into_iter().map(|entry| (entry.key.clone(), entry)));
            }
            Ok(ResponseKind::Error(error)) => return ResponseKind::Error(error),
            Ok(other) => {
                return ResponseKind::Error(WireError::new(
                    ErrorCode::Internal,
                    format!("unexpected list-cells answer from a replica: {other:?}"),
                ))
            }
            Err(message) => return ResponseKind::Error(unavailable(message)),
        }
    }
    let mut merged = Vec::with_capacity(state.map.assignments.len());
    for assignment in &state.map.assignments {
        match by_key.iter().position(|(key, _)| key == &assignment.key) {
            Some(at) => merged.push(by_key.swap_remove(at).1),
            None => {
                // The replica's live corpus no longer lists a mapped cell
                // (hot-reloaded behind the shard map): a partial listing would
                // silently misrepresent the cluster, so fail typed instead.
                return ResponseKind::Error(WireError::new(
                    ErrorCode::CorruptCorpus,
                    format!(
                        "cell `{}` is in the shard map but not in replica {}'s corpus — \
                         the shard map is stale; re-shard the corpus",
                        assignment.key, assignment.replica
                    ),
                ));
            }
        }
    }
    // Cells the replicas serve beyond the map are ignored: the router's view
    // of the cluster IS the shard map.
    ResponseKind::Cells(merged)
}

/// Routes `batch-eval`. Single-owner batches (including empty ones, which
/// replica 0 refuses with the daemon's own `bad-request` bytes) pass through
/// raw. Split batches fan out per-owner sub-batches concurrently — always
/// per-item toward the replicas, reassembled into whichever answer shape the
/// client asked for.
fn route_batch(
    state: &Router,
    id: Option<u64>,
    evals: Vec<EvalSpec>,
    per_item: Option<bool>,
) -> Answer {
    let owners: Vec<usize> = evals
        .iter()
        .map(|spec| ClusterMap::assign(Corpus::cell_hash(&spec.key), state.replicas.len()))
        .collect();
    let mut distinct: Vec<usize> = Vec::new();
    for &owner in &owners {
        if !distinct.contains(&owner) {
            distinct.push(owner);
        }
    }
    if distinct.len() <= 1 {
        // One owner (or an empty batch): the whole request passes through raw
        // with the client's own id and `per_item` flag, refusal shapes
        // included.
        let owner = &state.replicas[distinct.first().copied().unwrap_or(0)];
        return forward_raw(state, owner, id, RequestKind::BatchEval { evals, per_item });
    }
    note_fanout(state, distinct.len() as u64);
    // Per-owner sub-batches, original order preserved within each owner.
    distinct.sort_unstable();
    let sub_batches: Vec<(usize, Vec<usize>)> = distinct
        .iter()
        .map(|&owner| {
            let indices: Vec<usize> = (0..evals.len()).filter(|&i| owners[i] == owner).collect();
            (owner, indices)
        })
        .collect();
    let jobs: Vec<_> = sub_batches
        .iter()
        .map(|(owner, indices)| {
            let slot = Arc::clone(&state.replicas[*owner]);
            let sub_evals: Vec<EvalSpec> = indices.iter().map(|&i| evals[i].clone()).collect();
            let expected = indices.len();
            move || -> Result<Vec<BatchItem>, WireError> {
                let line = request_line(&Request {
                    id: None,
                    request: RequestKind::BatchEval { evals: sub_evals, per_item: Some(true) },
                });
                let raw = slot.call_raw(&line).map_err(unavailable)?;
                let response = parse_response(&raw).map_err(|e| {
                    WireError::new(
                        ErrorCode::Internal,
                        format!("replica {}: unparsable response: {e}", slot.index),
                    )
                })?;
                match response.response {
                    ResponseKind::BatchItems(items) if items.len() == expected => Ok(items),
                    // A whole-sub-batch refusal (e.g. an `overloaded` shed):
                    // propagate the typed error to this owner's items.
                    ResponseKind::Error(error) => Err(error),
                    other => Err(WireError::new(
                        ErrorCode::Internal,
                        format!("replica {}: unexpected batch-eval answer: {other:?}", slot.index),
                    )),
                }
            }
        })
        .collect();
    let sub_outcomes = state.pool.execute_ordered(jobs);
    // Reassemble in original request order, rewriting per-item error index
    // prefixes from sub-batch positions to original positions.
    let mut items: Vec<Option<BatchItem>> = (0..evals.len()).map(|_| None).collect();
    let mut refusal: Option<WireError> = None;
    for ((_, indices), outcome) in sub_batches.iter().zip(sub_outcomes) {
        match outcome {
            Ok(sub_items) => {
                for (sub_index, (item, &orig)) in sub_items.into_iter().zip(indices).enumerate() {
                    let item = match item {
                        BatchItem::Error(mut error) => {
                            error.message = reindex_message(&error.message, sub_index, orig);
                            BatchItem::Error(error)
                        }
                        ok => ok,
                    };
                    items[orig] = Some(item);
                }
            }
            Err(error) => {
                for &orig in indices {
                    let mut item_error = error.clone();
                    item_error.message = format!("evals[{orig}]: {}", item_error.message);
                    items[orig] = Some(BatchItem::Error(item_error));
                }
                refusal.get_or_insert(error);
            }
        }
    }
    let items: Vec<BatchItem> =
        items.into_iter().map(|item| item.expect("every index answered")).collect();
    match (per_item, refusal) {
        (Some(true), _) => ResponseKind::BatchItems(items).into(),
        // A whole-sub-batch refusal (shed or unreachable replica) refuses an
        // all-or-nothing batch, as the daemon's admission would.
        (_, Some(error)) => ResponseKind::Error(error).into(),
        (_, None) => all_or_nothing(items).into(),
    }
}

/// Rewrites a per-item error message's `evals[j]: ` prefix (the daemon indexes
/// errors by position in the batch it saw — the sub-batch) to the item's
/// original index, so split-batch errors are byte-identical to the monolithic
/// daemon's. Messages without the prefix (none are produced today) pass
/// through unchanged.
fn reindex_message(message: &str, sub_index: usize, original_index: usize) -> String {
    let prefix = format!("evals[{sub_index}]: ");
    match message.strip_prefix(&prefix) {
        Some(rest) => format!("evals[{original_index}]: {rest}"),
        None => message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The router-side half of the poisoned-lock regression (the front end's
    /// connection registry has its own test in `qec_serve::front`): a panic
    /// that dies holding a replica slot's client lock must not stop the
    /// router from routing evals through the poisoned slot, aggregating
    /// stats, or shutting down cleanly.
    #[test]
    fn a_poisoned_router_lock_keeps_the_router_routing() {
        use leakage_speculation::PolicyKind;
        use qec_experiments::replay::record_into_corpus;
        use qec_experiments::scenario::{CodeFamily, Scenario};
        use qec_serve::{EvalSpec, RequestKind, ResponseKind, ServeConfig, Server};
        use qec_trace::cluster::CLUSTER_FILE;
        use qec_trace::Corpus;

        use crate::shard::{shard_corpus, ShardOptions};

        let base = std::env::temp_dir().join(format!("qec-router-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let corpus_dir = base.join("corpus");
        let mut corpus = Corpus::open(&corpus_dir).unwrap();
        let mut keys = Vec::new();
        for p in [1e-3, 2e-3, 3e-3, 4e-3] {
            let scenario = Scenario {
                code: CodeFamily::Surface,
                distance: 3,
                rounds: 4,
                p,
                leakage_ratio: 0.1,
                policy: PolicyKind::EraserM,
                shots: 3,
                seed: 11,
                decode: false,
                decoder: None,
            };
            let entry =
                record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "poison test")
                    .unwrap();
            keys.push(entry.key);
        }
        corpus.save().unwrap();
        let out_dir = base.join("sharded");
        let map = shard_corpus(&corpus_dir, &out_dir, 2, &ShardOptions::default()).unwrap();
        let replicas: Vec<(String, std::thread::JoinHandle<()>)> = map
            .replicas
            .iter()
            .map(|replica| {
                let server =
                    Server::bind(&out_dir.join(&replica.dir), &ServeConfig::default()).unwrap();
                let addr = server.local_addr().to_string();
                (addr, std::thread::spawn(move || server.run()))
            })
            .collect();
        let overrides: Vec<(usize, String)> =
            replicas.iter().enumerate().map(|(index, (addr, _))| (index, addr.clone())).collect();
        let router =
            Router::bind(&out_dir.join(CLUSTER_FILE), &overrides, &RouterConfig::default())
                .unwrap();
        let router_addr = router.local_addr().to_string();

        // Poison the slot lock exactly as a mid-request panic would: a
        // thread dies while holding the guard.
        {
            let prior = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let _ = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _slot = router.replicas[0]
                            .client
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        panic!("poison the replica slot lock");
                    })
                    .join()
            });
            std::panic::set_hook(prior);
            assert!(router.replicas[0].client.is_poisoned(), "replica slot must poison");
        }

        let handle = std::thread::spawn(move || router.run());
        let mut client = Client::connect(&router_addr).unwrap();
        // A solo eval owned by the replica behind the poisoned client lock:
        // the slot guard recovers and the call goes through.
        let poisoned_owner = keys
            .iter()
            .find(|key| ClusterMap::assign(Corpus::cell_hash(key), 2) == 0)
            .expect("the pinned p-grid provably splits 2 ways")
            .clone();
        let spec = EvalSpec {
            key: poisoned_owner,
            policy: "eraser+m".to_string(),
            mode: None,
            decode: None,
            decoder: None,
        };
        let ResponseKind::Eval(_) = client.request(RequestKind::Eval(spec)).unwrap() else {
            panic!("eval must route through a poisoned replica slot")
        };
        // Aggregated stats fan out to every replica (slot 0's lock recovers
        // again) and count the routed traffic.
        let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
            panic!("stats must aggregate on a router with poisoned locks")
        };
        assert_eq!(stats.replicas_up, 2, "both replicas must stay reachable");
        assert!(stats.routed_requests >= 1, "the eval was routed: {stats:?}");
        assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
        handle.join().unwrap();
        for (addr, replica_handle) in replicas {
            let mut replica_client = Client::connect(&addr).unwrap();
            assert_eq!(
                replica_client.request(RequestKind::Shutdown).unwrap(),
                ResponseKind::ShuttingDown
            );
            replica_handle.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn reindex_rewrites_only_the_matching_prefix() {
        assert_eq!(reindex_message("evals[0]: no such cell", 0, 7), "evals[7]: no such cell");
        assert_eq!(reindex_message("evals[2]: boom", 2, 2), "evals[2]: boom");
        // A mismatched or absent prefix is left alone.
        assert_eq!(reindex_message("evals[1]: boom", 0, 7), "evals[1]: boom");
        assert_eq!(reindex_message("no prefix here", 0, 7), "no prefix here");
    }
}

//! Cluster e2e tests: shard a recorded corpus across two in-process replica
//! daemons, front them with the router, and pin the contract — **routed
//! response bytes are the monolithic daemon's bytes** for every request kind,
//! and a dead replica yields typed `unavailable` errors within the client's
//! deadline, never a hang and never a torn batch.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use leakage_speculation::PolicyKind;
use qec_cluster::{shard_corpus, Router, RouterConfig, ShardOptions};
use qec_experiments::replay::record_into_corpus;
use qec_experiments::scenario::{CodeFamily, Scenario};
use qec_serve::client::{Client, ClientConfig};
use qec_serve::{
    parse_response, request_line, ErrorCode, EvalSpec, Request, RequestKind, ResponseKind,
    ServeConfig, Server,
};
use qec_trace::cluster::{ClusterMap, CLUSTER_FILE};
use qec_trace::Corpus;

// ---------------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------------

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-cluster-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records a small corpus whose cells provably split across a 2-way shard
/// (asserted, so a cell-hash change cannot silently collapse the tests into
/// the single-owner fast path).
fn record_split_corpus(dir: &Path) -> Vec<String> {
    let mut corpus = Corpus::open(dir).unwrap();
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
        let entry = record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "cluster test")
            .unwrap();
        keys.push(entry.key);
    }
    corpus.save().unwrap();
    let owners: Vec<usize> =
        keys.iter().map(|key| ClusterMap::assign(Corpus::cell_hash(key), 2)).collect();
    assert!(owners.contains(&0) && owners.contains(&1), "cells must split 2 ways: {owners:?}");
    keys
}

struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<()>,
}

impl Daemon {
    fn start(dir: &Path, config: &ServeConfig) -> Daemon {
        let server = Server::bind(dir, config).unwrap();
        let addr = server.local_addr().to_string();
        Daemon { addr, handle: std::thread::spawn(move || server.run()) }
    }

    fn shutdown(self) {
        let mut client = Client::connect(&self.addr).unwrap();
        assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
        self.handle.join().unwrap();
    }
}

/// The full scene: a recorded corpus, its 2-way shard, two replica daemons, a
/// monolithic comparison daemon over the unsharded corpus, and a bound router.
struct Cluster {
    keys: Vec<String>,
    replicas: Vec<Daemon>,
    monolithic: Daemon,
    router_addr: String,
    router_handle: std::thread::JoinHandle<()>,
}

fn start_cluster(name: &str, config: &RouterConfig) -> Cluster {
    start_cluster_with(name, config, |_, _| {})
}

/// [`start_cluster`], with `tamper` applied to the recorded corpus (given its
/// directory and keys) before it is sharded, so the replicas and the
/// monolithic daemon serve the same bytes.
fn start_cluster_with(
    name: &str,
    config: &RouterConfig,
    tamper: impl FnOnce(&Path, &[String]),
) -> Cluster {
    let corpus_dir = tmp_dir(&format!("{name}-corpus"));
    let keys = record_split_corpus(&corpus_dir);
    tamper(&corpus_dir, &keys);
    let out_dir = tmp_dir(&format!("{name}-sharded"));
    let map = shard_corpus(&corpus_dir, &out_dir, 2, &ShardOptions::default()).unwrap();
    let replicas: Vec<Daemon> = map
        .replicas
        .iter()
        .map(|replica| Daemon::start(&out_dir.join(&replica.dir), &ServeConfig::default()))
        .collect();
    let overrides: Vec<(usize, String)> =
        replicas.iter().enumerate().map(|(index, daemon)| (index, daemon.addr.clone())).collect();
    // The comparison daemon shares the router's connection limit, so
    // connection-level answers compare byte for byte too.
    let mono_config =
        ServeConfig { max_connections: config.max_connections, ..ServeConfig::default() };
    let monolithic = Daemon::start(&corpus_dir, &mono_config);
    let router = Router::bind(&out_dir.join(CLUSTER_FILE), &overrides, config).unwrap();
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());
    Cluster { keys, replicas, monolithic, router_addr, router_handle }
}

impl Cluster {
    fn key_owned_by(&self, replica: usize) -> &str {
        self.keys
            .iter()
            .find(|key| ClusterMap::assign(Corpus::cell_hash(key), 2) == replica)
            .unwrap()
    }

    fn shutdown(self) {
        let mut client = Client::connect(&self.router_addr).unwrap();
        assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
        self.router_handle.join().unwrap();
        for replica in self.replicas {
            replica.shutdown();
        }
        self.monolithic.shutdown();
    }
}

fn eval_spec(key: &str, policy: &str) -> EvalSpec {
    EvalSpec {
        key: key.to_string(),
        policy: policy.to_string(),
        mode: None,
        decode: None,
        decoder: None,
    }
}

/// Writes each raw line in turn on one fresh connection and reads its one
/// answer line; a connection closed instead of answering fails the test.
fn raw_session(addr: &str, lines: &[Vec<u8>]) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut answers = Vec::new();
    for line in lines {
        writer.write_all(line).unwrap();
        let mut answer = String::new();
        let read = reader.read_line(&mut answer).unwrap();
        assert!(
            read > 0,
            "{addr} closed the connection instead of answering line {}",
            answers.len()
        );
        answers.push(answer);
    }
    answers
}

/// Connects until admitted: a dropped client's slot frees only when its worker
/// sees EOF, so a connect right after the drop may still be shed.
fn admitted_client(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(mut client) = Client::connect(addr) {
            if client.request(RequestKind::Ping) == Ok(ResponseKind::Pong) {
                return client;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{addr} never admitted a new connection");
}

/// Sends the same raw request lines to the router and the monolithic daemon,
/// asserting every response line is byte-identical, and returns the lines.
/// Both sides see the same per-connection, per-cell request sequence, so
/// cache `cached` flags evolve identically by construction.
fn assert_byte_identical(cluster: &Cluster, lines: &[String]) -> Vec<String> {
    let mut routed = Client::connect(&cluster.router_addr).unwrap();
    let mut mono = Client::connect(&cluster.monolithic.addr).unwrap();
    let mut answers = Vec::new();
    for line in lines {
        let via_router = routed.send_raw(line).unwrap();
        let via_mono = mono.send_raw(line).unwrap();
        assert_eq!(via_router, via_mono, "routed bytes must equal monolithic bytes for {line}");
        answers.push(via_mono);
    }
    answers
}

// ---------------------------------------------------------------------------------
// byte identity
// ---------------------------------------------------------------------------------

#[test]
fn routed_solo_requests_are_byte_identical_to_monolithic() {
    let cluster = start_cluster("solo", &RouterConfig::default());
    let mut lines = Vec::new();
    for (id, key) in cluster.keys.iter().enumerate() {
        lines.push(request_line(&Request {
            id: Some(id as u64),
            request: RequestKind::StatCell { key: key.clone() },
        }));
        lines.push(request_line(&Request {
            id: Some(100 + id as u64),
            request: RequestKind::VerifyCell { key: key.clone() },
        }));
        // Twice per cell: the first eval is a cache miss on both sides, the
        // second a hit — `cached` flags must agree in both states.
        for _ in 0..2 {
            lines.push(request_line(&Request {
                id: None,
                request: RequestKind::Eval(eval_spec(key, "gladiator+m")),
            }));
        }
    }
    assert_byte_identical(&cluster, &lines);
    cluster.shutdown();
}

#[test]
fn routed_split_batches_are_byte_identical_to_monolithic() {
    let cluster = start_cluster("batch", &RouterConfig::default());
    // Every cell × two policies, interleaved so both replicas own items and
    // original order differs from per-owner order.
    let evals: Vec<EvalSpec> = cluster
        .keys
        .iter()
        .flat_map(|key| ["ideal", "eraser+m"].iter().map(move |policy| eval_spec(key, policy)))
        .collect();
    let mut lines = Vec::new();
    // Same batch twice (cold then hot caches), in both answer shapes.
    for per_item in [Some(true), None, Some(true), Some(false)] {
        lines.push(request_line(&Request {
            id: Some(7),
            request: RequestKind::BatchEval { evals: evals.clone(), per_item },
        }));
    }
    // Empty batch: the daemon's bad-request bytes, via the single-owner path.
    lines.push(request_line(&Request {
        id: Some(8),
        request: RequestKind::BatchEval { evals: Vec::new(), per_item: Some(true) },
    }));
    assert_byte_identical(&cluster, &lines);
    cluster.shutdown();
}

/// Decoder-selecting requests route exactly like legacy ones: the additive
/// `decoder` field survives the router's split-batch re-serialization, and
/// every routed response — cross-decoder rows, legacy no-decoder rows, and
/// typed `bad-request` answers for unknown selectors — is byte-identical to
/// the monolithic daemon's.
#[test]
fn routed_cross_decoder_batches_are_byte_identical_to_monolithic() {
    let cluster = start_cluster("decoder", &RouterConfig::default());
    let with_decoder = |key: &str, policy: &str, decoder: &str| EvalSpec {
        decode: Some(true),
        decoder: Some(decoder.to_string()),
        ..eval_spec(key, policy)
    };
    // Mixed selectors across both replicas in one batch, plus legacy members
    // with no decoder field.
    let evals: Vec<EvalSpec> = cluster
        .keys
        .iter()
        .flat_map(|key| ["uf", "lookup"].iter().map(move |d| with_decoder(key, "eraser+m", d)))
        .chain(cluster.keys.iter().map(|key| eval_spec(key, "ideal")))
        .collect();
    let mut lines = Vec::new();
    for per_item in [Some(true), Some(false)] {
        lines.push(request_line(&Request {
            id: Some(9),
            request: RequestKind::BatchEval { evals: evals.clone(), per_item },
        }));
    }
    // Solo evals: a selected backend and an unknown label (typed bad-request
    // bytes), one per replica.
    lines.push(request_line(&Request {
        id: Some(10),
        request: RequestKind::Eval(with_decoder(cluster.key_owned_by(0), "eraser+m", "lookup")),
    }));
    lines.push(request_line(&Request {
        id: Some(11),
        request: RequestKind::Eval(with_decoder(cluster.key_owned_by(1), "eraser+m", "mwpm")),
    }));
    assert_byte_identical(&cluster, &lines);
    cluster.shutdown();
}

#[test]
fn routed_error_bytes_match_monolithic() {
    let cluster = start_cluster("errors", &RouterConfig::default());
    let known = cluster.keys[0].clone();
    let lines = vec![
        // Unknown cell: routed to its would-be owner, whose refusal is the
        // daemon's exact unknown-cell message.
        request_line(&Request {
            id: Some(1),
            request: RequestKind::Eval(eval_spec("no such cell", "ideal")),
        }),
        request_line(&Request {
            id: Some(2),
            request: RequestKind::StatCell { key: "ghost".to_string() },
        }),
        // Unknown policy on a real cell.
        request_line(&Request {
            id: Some(3),
            request: RequestKind::Eval(eval_spec(&known, "frobnicate")),
        }),
        // Per-item split batch mixing good and bad pairings: item errors must
        // carry original-index `evals[i]:` prefixes.
        request_line(&Request {
            id: Some(4),
            request: RequestKind::BatchEval {
                evals: cluster
                    .keys
                    .iter()
                    .flat_map(|key| [eval_spec(key, "ideal"), eval_spec(key, "frobnicate")])
                    .collect(),
                per_item: Some(true),
            },
        }),
    ];
    assert_byte_identical(&cluster, &lines);
    cluster.shutdown();
}

/// An all-or-nothing batch is rendered from its per-item outcomes on both
/// sides: every pairing is resolved and evaluated, and the first failing one
/// in request order is reported, whichever stage it failed at. Case (a): an
/// unresolvable replica-0 pairing ahead of a good replica-1 pairing still
/// loads the replica-1 cell, so the next `eval` of it is `cached` on both
/// sides. Case (b): a closed-loop pairing on a stale replica-0 shard ahead of
/// an unresolvable replica-1 pairing reports the evaluation failure at
/// `evals[0]` on both sides.
#[test]
fn routed_all_or_nothing_failures_are_byte_identical_to_monolithic() {
    let stale_owner = |keys: &[String]| -> String {
        keys.iter().find(|key| ClusterMap::assign(Corpus::cell_hash(key), 2) == 0).unwrap().clone()
    };
    // Flip shot 0's first initial data-leak flag: `always-lrc` diverges at
    // round 0 in every shot, so the forced pass's reseed check fails.
    let cluster = start_cluster_with("all-or-nothing", &RouterConfig::default(), |dir, keys| {
        let corpus = Corpus::open(dir).unwrap();
        let path = corpus.trace_path(corpus.lookup(&stale_owner(keys)).unwrap());
        let (header, mut shots) = qec_trace::read_trace_file(&path).unwrap();
        shots[0].initial_data_leak.toggle(0);
        qec_trace::write_trace_file(&path, &header, &shots).unwrap();
    });
    let (stale, other) = (stale_owner(&cluster.keys), cluster.key_owned_by(1).to_string());
    let closed_loop =
        EvalSpec { mode: Some("closed-loop".to_string()), ..eval_spec(&stale, "always-lrc") };
    let batch = |evals: Vec<EvalSpec>| {
        request_line(&Request {
            id: Some(1),
            request: RequestKind::BatchEval { evals, per_item: None },
        })
    };
    let lines = vec![
        batch(vec![eval_spec(&stale, "frobnicate"), eval_spec(&other, "ideal")]),
        request_line(&Request {
            id: Some(2),
            request: RequestKind::Eval(eval_spec(&other, "ideal")),
        }),
        batch(vec![closed_loop, eval_spec(&other, "frobnicate")]),
    ];
    let answers = assert_byte_identical(&cluster, &lines);
    let response = |line: &str| parse_response(line).unwrap().response;
    let ResponseKind::Eval(result) = response(&answers[1]) else { panic!("{}", answers[1]) };
    assert!(result.cached, "case (a) must have loaded the replica-1 cell");
    let ResponseKind::Error(error) = response(&answers[2]) else { panic!("{}", answers[2]) };
    assert_eq!(error.code, ErrorCode::CorruptCorpus, "{error}");
    assert!(error.message.starts_with("evals[0]: "), "{error}");
    cluster.shutdown();
}

#[test]
fn merged_list_cells_is_byte_identical_to_monolithic() {
    let cluster = start_cluster("cells", &RouterConfig::default());
    let lines = vec![request_line(&Request { id: Some(1), request: RequestKind::ListCells })];
    assert_byte_identical(&cluster, &lines);
    cluster.shutdown();
}

/// Malformed input is answered by the shared front end, so its bytes match
/// too: an invalid-UTF-8 line and a newline-free line of twice the 1 MiB cap
/// each get a `bad-request`, and the same connection then answers `ping`.
#[test]
fn malformed_lines_get_bad_request_on_a_surviving_connection_routed_and_monolithic() {
    let cluster = start_cluster("malformed", &RouterConfig::default());
    let mut over_long = vec![b'x'; 2 << 20];
    over_long.push(b'\n');
    let session =
        [b"\xff\xfe\n".to_vec(), over_long, b"{\"id\":1,\"request\":\"ping\"}\n".to_vec()];
    let routed = raw_session(&cluster.router_addr, &session);
    let mono = raw_session(&cluster.monolithic.addr, &session);
    for answers in [&routed, &mono] {
        let kinds: Vec<ResponseKind> =
            answers.iter().map(|line| parse_response(line.trim_end()).unwrap().response).collect();
        for kind in &kinds[..2] {
            let ResponseKind::Error(error) = kind else { panic!("expected bad-request: {kind:?}") };
            assert_eq!(error.code, ErrorCode::BadRequest, "{error}");
        }
        assert_eq!(kinds[2], ResponseKind::Pong);
    }
    assert_eq!(routed, mono, "routed malformed-line answers must be the daemon's bytes");
    cluster.shutdown();
}

// ---------------------------------------------------------------------------------
// router-local semantics
// ---------------------------------------------------------------------------------

/// The router enforces `max_connections` with the daemon's exact greeting,
/// leaves the admitted connection serving, and frees the slot on disconnect.
#[test]
fn router_connection_limit_sheds_with_the_daemons_greeting_and_frees_the_slot() {
    let config = RouterConfig { max_connections: 1, ..RouterConfig::default() };
    let cluster = start_cluster("conn-limit", &config);
    // A ping round trip proves each connection was admitted, so the next
    // connection to either side is deterministically over the limit.
    let mut routed = Client::connect(&cluster.router_addr).unwrap();
    let mut mono = Client::connect(&cluster.monolithic.addr).unwrap();
    assert_eq!(routed.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    assert_eq!(mono.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    let shed_greeting = |addr: &str| {
        let mut reader = BufReader::new(TcpStream::connect(addr).unwrap());
        let (mut greeting, mut rest) = (String::new(), String::new());
        reader.read_line(&mut greeting).unwrap();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "a shed connection must be closed");
        greeting
    };
    let greeting = shed_greeting(&cluster.router_addr);
    assert_eq!(greeting, shed_greeting(&cluster.monolithic.addr), "the daemon's greeting bytes");
    let response = parse_response(greeting.trim_end()).unwrap();
    assert_eq!(response.id, None, "no request to correlate with");
    let ResponseKind::Error(error) = response.response else { panic!("{greeting}") };
    assert_eq!(error.code, ErrorCode::Overloaded);
    // The admitted connection never noticed, and its slot frees on drop.
    assert_eq!(routed.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    drop(routed);
    let mut retry = admitted_client(&cluster.router_addr);
    let eval = RequestKind::Eval(eval_spec(&cluster.keys[0], "ideal"));
    let ResponseKind::Eval(_) = retry.request(eval).unwrap() else {
        panic!("the new client routes")
    };
    // Shut down over the admitted connections: a fresh one could be shed.
    assert_eq!(retry.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    cluster.router_handle.join().unwrap();
    assert_eq!(mono.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    cluster.monolithic.handle.join().unwrap();
    for replica in cluster.replicas {
        replica.shutdown();
    }
}

#[test]
fn version_identifies_the_router_and_stats_aggregate_with_router_counters() {
    let cluster = start_cluster("stats", &RouterConfig::default());
    let mut client = Client::connect(&cluster.router_addr).unwrap();
    assert_eq!(client.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    let ResponseKind::Version(version) = client.request(RequestKind::Version).unwrap() else {
        panic!("version must answer version");
    };
    assert!(
        version.server.starts_with("qec-cluster "),
        "the router identifies itself: {}",
        version.server
    );

    // Drive one split batch and one solo eval through the router, then read
    // the aggregate.
    let evals: Vec<EvalSpec> = cluster.keys.iter().map(|key| eval_spec(key, "ideal")).collect();
    let batch_size = evals.len() as u64;
    let ResponseKind::BatchItems(items) =
        client.request(RequestKind::BatchEval { evals, per_item: Some(true) }).unwrap()
    else {
        panic!("per-item batch must answer batch-items");
    };
    assert!(items.iter().all(|item| item.as_result().is_ok()));
    let ResponseKind::Eval(_) =
        client.request(RequestKind::Eval(eval_spec(&cluster.keys[0], "ideal"))).unwrap()
    else {
        panic!("solo eval must answer eval");
    };

    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats must answer stats");
    };
    // Replica-side sums: all four cells exist across the two sub-corpora, and
    // every batch item was evaluated somewhere.
    assert_eq!(stats.corpus_cells, cluster.keys.len());
    assert_eq!(stats.evals, batch_size + 1);
    // Router-side counters: the split batch, the solo eval, and this very
    // stats request (stats fans out to every replica, so it routes too).
    assert_eq!(stats.routed_requests, 3);
    assert_eq!(stats.fanout_hwm, 2);
    assert_eq!(stats.replica_errors, 0);
    assert_eq!(stats.replicas_up, 2);
    cluster.shutdown();
}

#[test]
fn router_shutdown_leaves_replicas_serving() {
    let cluster = start_cluster("shutdown", &RouterConfig::default());
    let Cluster { keys, replicas, monolithic, router_addr, router_handle } = cluster;
    let mut client = Client::connect(&router_addr).unwrap();
    assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    router_handle.join().unwrap();
    // The replicas are independent daemons: still up, still answering.
    for replica in &replicas {
        let mut direct = Client::connect(&replica.addr).unwrap();
        assert_eq!(direct.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    }
    let _ = keys;
    for replica in replicas {
        replica.shutdown();
    }
    monolithic.shutdown();
}

// ---------------------------------------------------------------------------------
// replica failure: typed, bounded, never torn
// ---------------------------------------------------------------------------------

/// A router config with deadlines tight enough that "within the timeout"
/// is cheap to assert generously in wall-clock terms.
fn fast_failing_config() -> RouterConfig {
    RouterConfig {
        replica_timeout: Some(Duration::from_millis(500)),
        replica_retries: 1,
        ..RouterConfig::default()
    }
}

#[test]
fn dead_replica_yields_typed_unavailable_within_the_deadline_and_spares_siblings() {
    let cluster = start_cluster("kill", &fast_failing_config());
    let dead_key = cluster.key_owned_by(1).to_string();
    let live_key = cluster.key_owned_by(0).to_string();

    // Warm both paths, then capture the surviving replica's answer while the
    // cluster is whole (hot cache on both sides of the later comparison).
    let mut client = Client::connect(&cluster.router_addr).unwrap();
    let live_line = request_line(&Request {
        id: Some(1),
        request: RequestKind::Eval(eval_spec(&live_key, "ideal")),
    });
    let dead_line = request_line(&Request {
        id: Some(2),
        request: RequestKind::Eval(eval_spec(&dead_key, "ideal")),
    });
    // Twice each: the baseline is captured hot (`cached:true`), matching the
    // post-kill re-send.
    let _ = client.send_raw(&live_line).unwrap();
    let live_before = client.send_raw(&live_line).unwrap();
    let _ = client.send_raw(&dead_line).unwrap();

    // Kill replica 1 (a clean daemon shutdown — from the router's view the
    // connection just dies and reconnects are refused).
    let mut replicas = cluster.replicas;
    replicas.remove(1).shutdown();

    // Solo request to the dead replica's cell: a typed `unavailable`, inside
    // the configured deadline (500ms timeout × (1 + 1 retries) + backoff ≪ 10s).
    let started = Instant::now();
    let line = client.send_raw(&dead_line).unwrap();
    let elapsed = started.elapsed();
    let response = parse_response(&line).unwrap();
    let ResponseKind::Error(error) = response.response else {
        panic!("a dead replica must answer a typed error, got {line}");
    };
    assert_eq!(error.code, ErrorCode::Unavailable, "{error}");
    assert_eq!(response.id, Some(2), "the error still correlates to the request");
    assert!(
        elapsed < Duration::from_secs(10),
        "unavailable must arrive within the bounded deadline, took {elapsed:?}"
    );

    // The surviving replica's cells still answer — byte-identically to the
    // pre-kill response.
    let live_after = client.send_raw(&live_line).unwrap();
    assert_eq!(live_after, live_before, "a dead sibling must not change surviving answers");

    // A split batch is never torn: the dead replica's items carry per-item
    // `unavailable` errors with original indices, the survivor's items succeed.
    let evals = vec![
        eval_spec(&live_key, "ideal"),
        eval_spec(&dead_key, "ideal"),
        eval_spec(&live_key, "eraser+m"),
    ];
    let ResponseKind::BatchItems(items) =
        client.request(RequestKind::BatchEval { evals, per_item: Some(true) }).unwrap()
    else {
        panic!("per-item batch must answer batch-items");
    };
    assert_eq!(items.len(), 3);
    assert!(items[0].as_result().is_ok(), "survivor item 0 must succeed");
    assert!(items[2].as_result().is_ok(), "survivor item 2 must succeed");
    let Err(item_error) = items[1].as_result() else {
        panic!("the dead replica's item must fail typed");
    };
    assert_eq!(item_error.code, ErrorCode::Unavailable);
    assert!(
        item_error.message.starts_with("evals[1]: "),
        "item errors carry original indices: {}",
        item_error.message
    );

    // Stats still answer, reporting the outage.
    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats must answer stats");
    };
    assert_eq!(stats.replicas_up, 1, "one replica is down");
    assert!(stats.replica_errors >= 1, "failed calls are counted: {stats:?}");

    // Cleanup.
    let mut shutdown_client = Client::connect(&cluster.router_addr).unwrap();
    assert_eq!(shutdown_client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    cluster.router_handle.join().unwrap();
    for replica in replicas {
        replica.shutdown();
    }
    cluster.monolithic.shutdown();
}

#[test]
fn hung_replica_yields_unavailable_within_the_io_deadline() {
    // A listener that accepts and never answers: the pathological partition a
    // read deadline exists for.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let hung_addr = hung.local_addr().unwrap().to_string();
    let hung_thread = std::thread::spawn(move || {
        let mut held = Vec::new();
        // Hold accepted sockets open until the listener is dropped.
        for stream in hung.incoming() {
            match stream {
                Ok(stream) => held.push(stream),
                Err(_) => break,
            }
        }
    });

    let corpus_dir = tmp_dir("hung-corpus");
    record_split_corpus(&corpus_dir);
    let out_dir = tmp_dir("hung-sharded");
    let map = shard_corpus(&corpus_dir, &out_dir, 2, &ShardOptions::default()).unwrap();
    // Replica 0 is real; replica 1 is the black hole.
    let real = Daemon::start(&out_dir.join(&map.replicas[0].dir), &ServeConfig::default());
    let overrides = vec![(0, real.addr.clone()), (1, hung_addr)];
    let config = RouterConfig {
        replica_timeout: Some(Duration::from_millis(300)),
        replica_retries: 0,
        ..RouterConfig::default()
    };
    let router = Router::bind(&out_dir.join(CLUSTER_FILE), &overrides, &config).unwrap();
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    let mut corpus_keys = Vec::new();
    for assignment in &map.assignments {
        if assignment.replica == 1 {
            corpus_keys.push(assignment.key.clone());
        }
    }
    let key = corpus_keys.first().unwrap().clone();
    let mut client = Client::connect(&router_addr).unwrap();
    let started = Instant::now();
    let response = client.request(RequestKind::Eval(eval_spec(&key, "ideal"))).unwrap();
    let elapsed = started.elapsed();
    let ResponseKind::Error(error) = response else {
        panic!("a hung replica must answer a typed error, got {response:?}");
    };
    assert_eq!(error.code, ErrorCode::Unavailable, "{error}");
    // One attempt bounded by a 300ms io deadline — assert generously.
    assert!(elapsed < Duration::from_secs(10), "hung replica answered in {elapsed:?}");

    let mut shutdown_client = Client::connect(&router_addr).unwrap();
    assert_eq!(shutdown_client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    router_handle.join().unwrap();
    real.shutdown();
    drop(hung_thread); // detached; the process exit reaps the held sockets
}

// ---------------------------------------------------------------------------------
// sharding
// ---------------------------------------------------------------------------------

#[test]
fn shard_corpus_writes_servable_disjoint_sub_corpora() {
    let corpus_dir = tmp_dir("shard-corpus");
    let keys = record_split_corpus(&corpus_dir);
    let out_dir = tmp_dir("shard-out");
    let map = shard_corpus(&corpus_dir, &out_dir, 2, &ShardOptions::default()).unwrap();
    assert_eq!(map.cells(), keys.len());

    let mut seen = Vec::new();
    for replica in &map.replicas {
        let sub = Corpus::open_existing(out_dir.join(&replica.dir)).unwrap();
        assert_eq!(sub.entries().len(), replica.cells);
        for entry in sub.entries() {
            // Ownership honors the assignment rule, trace bytes are verbatim.
            assert_eq!(
                ClusterMap::assign(Corpus::cell_hash(&entry.key), 2),
                replica.index,
                "{} landed on the wrong replica",
                entry.key
            );
            let original = std::fs::read(corpus_dir.join(&entry.file)).unwrap();
            let copied = std::fs::read(out_dir.join(&replica.dir).join(&entry.file)).unwrap();
            assert_eq!(original, copied, "{} must be copied byte-for-byte", entry.file);
            seen.push(entry.key.clone());
        }
    }
    seen.sort();
    let mut expected = keys;
    expected.sort();
    assert_eq!(seen, expected, "the shards partition the corpus exactly");

    // Refuses to overwrite an existing shard map.
    let err = shard_corpus(&corpus_dir, &out_dir, 2, &ShardOptions::default()).unwrap_err();
    assert!(err.contains("refusing to overwrite"), "{err}");
}

#[test]
fn client_timeouts_bound_a_hung_server() {
    // Direct client-level satellite check: `connect_with` deadlines make a
    // black-hole server a bounded, typed failure.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = hung.local_addr().unwrap();
    let hold = std::thread::spawn(move || hung.accept().map(|(s, _)| s));
    let mut client =
        Client::connect_with(addr, ClientConfig::with_timeout(Duration::from_millis(200))).unwrap();
    let started = Instant::now();
    let err = client.send_raw(r#"{"id":null,"request":"ping"}"#).unwrap_err();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(10), "read must time out, took {elapsed:?}");
    assert!(!err.is_empty());
    drop(hold);
}

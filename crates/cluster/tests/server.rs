//! Daemon lifecycle tests: in-process server behavior (typed errors, cache
//! hits, batch ordering) and the full `repro serve`/`repro query` binary flow,
//! including the acceptance gate that a served `eval` is **byte-identical** to
//! the `repro replay` report row for the same `cell × policy`.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use leakage_speculation::PolicyKind;
use qec_experiments::replay::record_into_corpus;
use qec_experiments::scenario::{CodeFamily, Scenario};
use qec_experiments::ReplayReport;
use qec_serve::{
    request_line, Client, ErrorCode, EvalSpec, Request, RequestKind, ResponseKind, ServeConfig,
    Server, PROTOCOL_VERSION,
};
use qec_trace::Corpus;

// ---------------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------------

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qec-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records a tiny two-cell corpus (d=3 and d=5) directly through the library.
fn record_corpus(dir: &Path) -> Vec<String> {
    let mut corpus = Corpus::open(dir).unwrap();
    let mut keys = Vec::new();
    for distance in [3usize, 5] {
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
            record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "server test").unwrap();
        keys.push(entry.key);
    }
    corpus.save().unwrap();
    keys
}

/// Starts an in-process server on an ephemeral port and returns its address
/// plus the join handle of the accept loop.
fn start_in_process(dir: &Path, cache_cells: usize) -> (String, std::thread::JoinHandle<()>) {
    let config =
        ServeConfig { addr: "127.0.0.1:0".to_string(), cache_cells, ..ServeConfig::default() };
    start_with_config(dir, config)
}

/// Like [`start_in_process`], but with full control over the connection and
/// queue limits.
fn start_with_config(dir: &Path, config: ServeConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(dir, &config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
}

/// Shutdown against a connection-limited daemon: the attempt itself can be
/// shed while just-closed connections drain, so retry until admitted.
fn shutdown_with_retry(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(mut client) = Client::connect(addr) {
            if client.request(RequestKind::Shutdown) == Ok(ResponseKind::ShuttingDown) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not shut the daemon down within 10s");
}

fn eval_spec(key: &str, policy: &str, closed_loop: bool, decode: bool) -> EvalSpec {
    EvalSpec {
        key: key.to_string(),
        policy: policy.to_string(),
        mode: closed_loop.then(|| "closed-loop".to_string()),
        decode: decode.then_some(true),
        decoder: None,
    }
}

// ---------------------------------------------------------------------------------
// in-process lifecycle
// ---------------------------------------------------------------------------------

#[test]
fn malformed_requests_get_typed_errors_and_never_kill_the_connection() {
    let dir = tmp_dir("malformed");
    record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    for garbage in [
        "this is not json",
        "{",
        "[1,2,3]",
        r#"{"id":null,"request":"frobnicate"}"#,
        r#"{"id":null,"request":{"eval":{"key":"k"}}}"#,
        r#"{"no":"envelope"}"#,
    ] {
        let line = client.send_raw(garbage).unwrap();
        let response = qec_serve::parse_response(&line).unwrap();
        let ResponseKind::Error(error) = response.response else {
            panic!("{garbage:?} must yield an error response, got {line}");
        };
        assert_eq!(error.code, ErrorCode::BadRequest, "{garbage:?} -> {error}");
    }
    // The connection survived all of it.
    assert_eq!(client.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    // Typed domain errors, not bad-request.
    let ResponseKind::Error(error) = client
        .request(RequestKind::Eval(eval_spec("no such cell", "ideal", false, false)))
        .unwrap()
    else {
        panic!("unknown cell must error");
    };
    assert_eq!(error.code, ErrorCode::UnknownCell);
    let key = {
        let corpus = Corpus::open_existing(&dir).unwrap();
        corpus.entries()[0].key.clone()
    };
    let ResponseKind::Error(error) =
        client.request(RequestKind::Eval(eval_spec(&key, "not-a-policy", false, false))).unwrap()
    else {
        panic!("unknown policy must error");
    };
    assert_eq!(error.code, ErrorCode::UnknownPolicy);
    let ResponseKind::Error(error) = client
        .request(RequestKind::Eval(EvalSpec {
            key: key.clone(),
            policy: "ideal".to_string(),
            mode: Some("sideways".to_string()),
            decode: None,
            decoder: None,
        }))
        .unwrap()
    else {
        panic!("unknown mode must error");
    };
    assert_eq!(error.code, ErrorCode::BadRequest);
    drop(client);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_evals_hit_the_cache_and_say_so() {
    let dir = tmp_dir("cache-hits");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let eval = |client: &mut Client, key: &str| -> bool {
        match client
            .request(RequestKind::Eval(eval_spec(key, "gladiator+m", false, false)))
            .unwrap()
        {
            ResponseKind::Eval(result) => result.cached,
            other => panic!("expected eval result, got {other:?}"),
        }
    };
    assert!(!eval(&mut client, &keys[0]), "first touch loads from disk");
    assert!(eval(&mut client, &keys[0]), "second touch must be a cache hit");
    assert!(!eval(&mut client, &keys[1]));
    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cached_cells, 2);
    assert_eq!(stats.evals, 3);
    assert_eq!(stats.corpus_cells, 2);
    assert!(stats.requests >= 4);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stats` surface reports adaptive-sweep progress when a checkpoint is
/// colocated with the served corpus: zeros without one, and the exact
/// rounds/shots totals of the checkpointed run once `state.qad` appears —
/// read fresh per request, no reload or restart required.
#[test]
fn stats_report_adaptive_progress_from_a_colocated_checkpoint() {
    use qec_experiments::adaptive::{run_adaptive, AdaptiveSpec};
    use qec_experiments::sweep::SweepSpec;

    let dir = tmp_dir("adaptive-stats");
    record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let stats = |client: &mut Client| match client.request(RequestKind::Stats).unwrap() {
        ResponseKind::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let before = stats(&mut client);
    assert_eq!((before.adaptive_rounds, before.shots_allocated), (0, 0));

    // An adaptive sweep checkpoints into the corpus directory (the file sets
    // are disjoint); the running daemon picks the progress up on the next
    // `stats` request.
    let spec = SweepSpec {
        code: CodeFamily::Surface,
        distances: vec![3],
        error_rates: vec![1e-3],
        leakage_ratios: vec![0.1],
        policies: vec![PolicyKind::EraserM],
        shots: 8,
        rounds_per_distance: 4,
        seed: 11,
        decode: false,
        decoders: None,
        adaptive: Some(AdaptiveSpec {
            target_rel_halfwidth: 1e-9,
            confidence: 0.95,
            initial_batch: 2,
        }),
    };
    let outcome = run_adaptive(&spec, &dir, None).unwrap().unwrap();
    let after = stats(&mut client);
    assert_eq!(after.adaptive_rounds, outcome.rounds);
    assert_eq!(after.shots_allocated, outcome.shots_allocated);
    assert_eq!(after.shots_allocated, 8, "the 1e-9 target drives the cell to its ceiling");

    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_eval_returns_results_in_request_order_and_is_all_or_nothing() {
    let dir = tmp_dir("batch");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    // Deliberately interleaved ordering across cells and policies.
    let evals: Vec<EvalSpec> = [
        (&keys[1], "ideal"),
        (&keys[0], "gladiator+m"),
        (&keys[1], "eraser+m"),
        (&keys[0], "ideal"),
    ]
    .into_iter()
    .map(|(key, policy)| eval_spec(key, policy, false, false))
    .collect();
    let ResponseKind::Batch(results) =
        client.request(RequestKind::BatchEval { evals: evals.clone(), per_item: None }).unwrap()
    else {
        panic!("batch");
    };
    assert_eq!(results.len(), evals.len());
    for (result, spec) in results.iter().zip(&evals) {
        assert_eq!(result.result.key, spec.key, "results must follow request order");
        assert_eq!(result.result.policy, spec.policy);
    }
    // Batch answers match single-eval answers for the same pairing.
    let ResponseKind::Eval(single) = client.request(RequestKind::Eval(evals[1].clone())).unwrap()
    else {
        panic!("eval");
    };
    assert_eq!(single.result, results[1].result);
    // One bad pairing fails the whole batch with its index in the message.
    let mut bad = evals.clone();
    bad[2].policy = "not-a-policy".to_string();
    let ResponseKind::Error(error) =
        client.request(RequestKind::BatchEval { evals: bad, per_item: None }).unwrap()
    else {
        panic!("bad batch must error");
    };
    assert_eq!(error.code, ErrorCode::UnknownPolicy);
    assert!(error.message.contains("evals[2]"), "{error}");
    let ResponseKind::Error(error) =
        client.request(RequestKind::BatchEval { evals: Vec::new(), per_item: None }).unwrap()
    else {
        panic!("empty batch must error");
    };
    assert_eq!(error.code, ErrorCode::BadRequest);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same-cell closed-loop batch members are evaluated as ONE shared-checkpoint
/// candidate set. That grouping must be invisible in the results — each row
/// equals the solo eval of the same pairing — while the additive `stats`
/// counters record that the shared path ran. Solo evals run through the same
/// set evaluator as sets of one and must leave those counters untouched.
#[test]
fn grouped_closed_loop_batches_match_solo_evals_and_advance_counters() {
    let dir = tmp_dir("batch-shared");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let ResponseKind::Stats(before) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert_eq!(before.shared_passes, 0, "no shared work before the batch");
    assert_eq!(before.suffixes_served, 0);
    // Three closed-loop members on one cell (grouped), one open-loop member
    // on the other (stays solo), interleaved to exercise order restoration.
    let evals: Vec<EvalSpec> = vec![
        eval_spec(&keys[0], "gladiator+m", true, true),
        eval_spec(&keys[1], "ideal", false, false),
        eval_spec(&keys[0], "always-lrc", true, true),
        eval_spec(&keys[0], "mlr-only", true, true),
    ];
    let ResponseKind::Batch(results) =
        client.request(RequestKind::BatchEval { evals: evals.clone(), per_item: None }).unwrap()
    else {
        panic!("batch");
    };
    assert_eq!(results.len(), evals.len());
    let ResponseKind::Stats(after_batch) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    for (result, spec) in results.iter().zip(&evals) {
        assert_eq!(result.result.key, spec.key, "results must follow request order");
        assert_eq!(result.result.policy, spec.policy);
        let ResponseKind::Eval(solo) = client.request(RequestKind::Eval(spec.clone())).unwrap()
        else {
            panic!("eval");
        };
        assert_eq!(solo.result, result.result, "{}: grouped row must equal solo row", spec.policy);
    }
    let ResponseKind::Stats(after) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    // always-lrc diverges against an eraser+m recording, so the group forced
    // at least one prefix pass and served one suffix per divergent member.
    assert!(after_batch.shared_passes > 0, "grouped batch must run the shared path");
    assert!(after_batch.suffixes_served >= after_batch.shared_passes);
    assert!(after_batch.peak_checkpoints >= 1);
    // The solo re-evals above are sets of one: they share nothing and must
    // not move the sharing counters.
    assert_eq!(after.shared_passes, after_batch.shared_passes, "solo evals add no shared passes");
    assert_eq!(after.suffixes_served, after_batch.suffixes_served, "solo evals add no suffixes");
    assert_eq!(
        after.peak_checkpoints, after_batch.peak_checkpoints,
        "solo evals add no checkpoints"
    );
    assert_eq!(after.evals, before.evals + 8, "4 batch members + 4 solo evals");
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The served row's bytes, independent of the `cached` flag (which
/// legitimately resets when a hot reload swaps the cache).
fn eval_row_bytes(client: &mut Client, spec: &EvalSpec) -> String {
    match client.request(RequestKind::Eval(spec.clone())).unwrap() {
        ResponseKind::Eval(result) => serde_json::to_string(&result.result).unwrap(),
        other => panic!("expected eval result, got {other:?}"),
    }
}

#[test]
fn per_item_batches_isolate_failures_and_preserve_order() {
    let dir = tmp_dir("per-item");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let evals = vec![
        eval_spec(&keys[0], "ideal", false, false),
        eval_spec(&keys[1], "not-a-policy", false, false),
        eval_spec(&keys[1], "ideal", false, false),
        eval_spec("no such cell", "ideal", false, false),
    ];
    let ResponseKind::BatchItems(items) = client
        .request(RequestKind::BatchEval { evals: evals.clone(), per_item: Some(true) })
        .unwrap()
    else {
        panic!("per-item batch must answer batch-items");
    };
    assert_eq!(items.len(), evals.len());
    // Good pairings equal their solo evals (same bytes, same order)...
    for index in [0usize, 2] {
        let item = items[index].as_result().unwrap_or_else(|e| panic!("items[{index}]: {e}"));
        let ResponseKind::Eval(solo) =
            client.request(RequestKind::Eval(evals[index].clone())).unwrap()
        else {
            panic!("eval");
        };
        assert_eq!(item.result, solo.result, "items[{index}] must match the solo row");
    }
    // ...while bad pairings carry their own typed error naming their index,
    // without poisoning their siblings.
    let error = items[1].as_result().unwrap_err();
    assert_eq!(error.code, ErrorCode::UnknownPolicy);
    assert!(error.message.contains("evals[1]"), "{error}");
    let error = items[3].as_result().unwrap_err();
    assert_eq!(error.code, ErrorCode::UnknownCell);
    assert!(error.message.contains("evals[3]"), "{error}");
    // `per_item: false` keeps the legacy all-or-nothing contract.
    let ResponseKind::Error(error) = client
        .request(RequestKind::BatchEval { evals: evals.clone(), per_item: Some(false) })
        .unwrap()
    else {
        panic!("legacy batch must fail as a whole");
    };
    assert_eq!(error.code, ErrorCode::UnknownPolicy);
    // Empty batches are refused in either mode.
    let ResponseKind::Error(error) =
        client.request(RequestKind::BatchEval { evals: Vec::new(), per_item: Some(true) }).unwrap()
    else {
        panic!("empty per-item batch must error");
    };
    assert_eq!(error.code, ErrorCode::BadRequest);
    // The typed client API folds the items into one Result per pairing.
    let results = client.batch_eval(evals).unwrap();
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok() && results[2].is_ok(), "good pairings stay Ok");
    assert_eq!(results[1].as_ref().unwrap_err().code, ErrorCode::UnknownPolicy);
    assert_eq!(results[3].as_ref().unwrap_err().code, ErrorCode::UnknownCell);
    // The `evals` counter counts successes only: 2 per-item + 2 solo + 2
    // all-or-nothing (its good pairings are evaluated too) + 2 typed.
    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert_eq!(stats.evals, 8, "stats: {stats:?}");
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoding with no decoder selected means union-find, which cannot decode
/// the color code. A served color decode without a `decoder` is therefore a
/// typed `bad-request`, exactly like an explicit `"decoder":"uf"`, answered
/// on a connection that keeps serving; `lookup` decodes the same cell.
#[test]
fn decoding_a_color_cell_without_a_decoder_is_a_typed_bad_request() {
    let dir = tmp_dir("color");
    let mut corpus = Corpus::open(&dir).unwrap();
    let scenario = Scenario {
        code: CodeFamily::Color,
        distance: 3,
        rounds: 3,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy: PolicyKind::EraserM,
        shots: 2,
        seed: 3,
        decode: false,
        decoder: None,
    };
    let key =
        record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "server test").unwrap().key;
    corpus.save().unwrap();
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let implied = eval_spec(&key, "gladiator+m", true, true);
    for request in [
        RequestKind::Eval(implied.clone()),
        RequestKind::BatchEval { evals: vec![implied.clone()], per_item: None },
    ] {
        let ResponseKind::Error(error) = client.request(request).unwrap() else {
            panic!("an undecodable cell must answer with a typed error");
        };
        assert_eq!(error.code, ErrorCode::BadRequest, "{error}");
        assert!(error.message.contains("needs a matchable code"), "{error}");
    }
    // Per item, the failure stays with its own pairing.
    let results = client
        .batch_eval(vec![implied.clone(), eval_spec(&key, "gladiator+m", true, false)])
        .unwrap();
    assert_eq!(results[0].as_ref().unwrap_err().code, ErrorCode::BadRequest);
    assert!(results[1].is_ok(), "{:?}", results[1]);
    let lookup = EvalSpec { decoder: Some("lookup".to_string()), ..implied };
    let ResponseKind::Eval(served) = client.request(RequestKind::Eval(lookup)).unwrap() else {
        panic!("the lookup decoder serves a d=3 color cell");
    };
    assert!(served.result.metrics.logical_error_rate.is_some());
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_limit_connections_get_one_overloaded_line_and_the_daemon_keeps_serving() {
    let dir = tmp_dir("conn-limit");
    record_corpus(&dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_cells: 2,
        max_connections: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start_with_config(&dir, config);
    let mut admitted = Client::connect(&addr).unwrap();
    // The ping round trip proves this connection was admitted, so the next
    // one is deterministically over the limit.
    assert_eq!(admitted.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    let over = std::net::TcpStream::connect(addr.as_str()).unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = qec_serve::parse_response(line.trim()).expect("shed greeting must parse");
    assert_eq!(response.id, None, "no request to correlate with");
    let ResponseKind::Error(error) = response.response else {
        panic!("over-limit connection must get a typed error, got {line}");
    };
    assert_eq!(error.code, ErrorCode::Overloaded);
    assert!(error.message.contains("connection limit"), "{error}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "shed connection must be closed");
    // The established connection never noticed.
    assert_eq!(admitted.request(RequestKind::Ping).unwrap(), ResponseKind::Pong);
    // Freeing the slot admits a later client — the retry-after-shed contract.
    drop(admitted);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut retry = None;
    while Instant::now() < deadline {
        if let Ok(mut client) = Client::connect(&addr) {
            if client.request(RequestKind::Ping) == Ok(ResponseKind::Pong) {
                retry = Some(client);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut retry = retry.expect("a freed slot must admit a new connection");
    let ResponseKind::Stats(stats) = retry.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert!(stats.shed_connections >= 1, "stats: {stats:?}");
    assert_eq!(stats.max_connections, 1);
    assert_eq!(stats.active_connections, 1, "only this connection is active");
    assert_eq!(retry.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overweight_requests_are_shed_with_a_typed_error_and_the_connection_survives() {
    let dir = tmp_dir("queue-shed");
    let keys = record_corpus(&dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_cells: 2,
        queue_limit: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start_with_config(&dir, config);
    let mut client = Client::connect(&addr).unwrap();
    // Weight 3 can never fit under limit 1: the shed is deterministic, not a
    // race against other in-flight work.
    let heavy = vec![
        eval_spec(&keys[0], "ideal", false, false),
        eval_spec(&keys[0], "eraser+m", false, false),
        eval_spec(&keys[1], "ideal", false, false),
    ];
    let ResponseKind::Error(error) = client
        .request(RequestKind::BatchEval { evals: heavy.clone(), per_item: Some(true) })
        .unwrap()
    else {
        panic!("overweight batch must be shed");
    };
    assert_eq!(error.code, ErrorCode::Overloaded);
    assert!(error.message.contains("queue full"), "{error}");
    // Nothing was evaluated and the connection survived: a weight-1 request
    // on the very same connection succeeds.
    let ResponseKind::Eval(_) = client.request(RequestKind::Eval(heavy[0].clone())).unwrap() else {
        panic!("post-shed eval on the same connection must succeed");
    };
    // The typed client surfaces a shed as a whole-request failure.
    let message = client.batch_eval(heavy).unwrap_err();
    assert!(message.contains("overloaded"), "{message}");
    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert_eq!(stats.shed_requests, 2, "stats: {stats:?}");
    assert_eq!(stats.queue_limit, 1);
    assert_eq!(stats.queue_depth_hwm, 1, "only the solo eval was ever admitted");
    assert_eq!(stats.evals, 1);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `lines` over one connection and returns the raw response lines,
/// retrying from scratch when the connection-limited daemon sheds the
/// attempt (the shed greeting carries the `overloaded` code).
fn send_lines_with_retry(addr: &str, lines: &[String]) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    'attempt: while Instant::now() < deadline {
        let Ok(mut client) = Client::connect(addr) else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let mut responses = Vec::with_capacity(lines.len());
        for line in lines {
            match client.send_raw(line) {
                Ok(response) if response.contains("\"overloaded\"") => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue 'attempt;
                }
                Ok(response) => responses.push(response),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue 'attempt;
                }
            }
        }
        return responses;
    }
    panic!("no admitted connection within 30s");
}

#[test]
fn concurrent_clients_get_byte_identical_rows_under_a_tiny_connection_limit() {
    let dir = tmp_dir("concurrent");
    let keys = record_corpus(&dir);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_cells: 2,
        max_connections: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = start_with_config(&dir, config);
    // Warm both cells first so every measured response is a cache hit — the
    // `cached` flag would otherwise depend on which client arrives first.
    {
        let mut warm = Client::connect(&addr).unwrap();
        let warmed = warm
            .batch_eval(vec![
                eval_spec(&keys[0], "ideal", false, false),
                eval_spec(&keys[1], "ideal", false, false),
            ])
            .unwrap();
        assert!(warmed.iter().all(Result::is_ok));
    }
    let lines: Vec<String> = [
        eval_spec(&keys[0], "ideal", false, false),
        eval_spec(&keys[0], "gladiator+m", true, true),
        eval_spec(&keys[1], "ideal", false, false),
        eval_spec(&keys[1], "eraser+m", true, true),
    ]
    .into_iter()
    .map(|spec| request_line(&Request { id: Some(7), request: RequestKind::Eval(spec) }))
    .collect();
    // Single-client reference bytes...
    let baseline = send_lines_with_retry(&addr, &lines);
    // ...must be exactly what every one of 8 concurrent clients receives,
    // even though only 2 connections are ever served at once.
    std::thread::scope(|scope| {
        let threads: Vec<_> =
            (0..8).map(|_| scope.spawn(|| send_lines_with_retry(&addr, &lines))).collect();
        for thread in threads {
            assert_eq!(
                thread.join().unwrap(),
                baseline,
                "concurrent responses must be byte-identical to the single-client run"
            );
        }
    });
    shutdown_with_retry(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_manifest_reload_swaps_cells_without_torn_rows_or_dropped_connections() {
    let dir = tmp_dir("hot-reload");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 4);
    let mut client = Client::connect(&addr).unwrap();
    let specs = [
        eval_spec(&keys[0], "ideal", false, false),
        eval_spec(&keys[1], "gladiator+m", false, false),
    ];
    let baselines =
        [eval_row_bytes(&mut client, &specs[0]), eval_row_bytes(&mut client, &specs[1])];
    // A torn manifest write must neither take the daemon down nor swap in
    // garbage: the old snapshot keeps serving, and the check retries later.
    let manifest = dir.join("manifest.json");
    let good = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &good[..good.len() / 2]).unwrap();
    let ResponseKind::Cells(cells) = client.request(RequestKind::ListCells).unwrap() else {
        panic!("cells");
    };
    assert_eq!(cells.len(), 2, "a torn manifest must not change the served snapshot");
    assert_eq!(eval_row_bytes(&mut client, &specs[0]), baselines[0]);
    std::fs::write(&manifest, &good).unwrap();
    // Hammer both cells from concurrent clients while the corpus grows
    // underneath the daemon: no served row may ever differ from its baseline
    // (one snapshot generation per request — never torn, never mixed).
    let mut new_key = String::new();
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let addr = &addr;
            let specs = &specs;
            let baselines = &baselines;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for iteration in 0..40usize {
                    let which = (worker + iteration) % 2;
                    assert_eq!(
                        eval_row_bytes(&mut client, &specs[which]),
                        baselines[which],
                        "rows must stay byte-identical across the manifest swap"
                    );
                }
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        let mut corpus = Corpus::open_existing(&dir).unwrap();
        let scenario = Scenario {
            code: CodeFamily::Surface,
            distance: 7,
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
            record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "server test").unwrap();
        corpus.save().unwrap();
        new_key = entry.key;
    });
    // The next request observes the swap — without this connection ever
    // having been dropped.
    let ResponseKind::Cells(cells) = client.request(RequestKind::ListCells).unwrap() else {
        panic!("cells");
    };
    assert_eq!(cells.len(), 3, "the swapped snapshot serves the grown manifest");
    let ResponseKind::Eval(fresh) =
        client.request(RequestKind::Eval(eval_spec(&new_key, "ideal", false, false))).unwrap()
    else {
        panic!("the new cell must be servable after the swap");
    };
    assert_eq!(fresh.result.key, new_key);
    // Old cells serve the same bytes from the new snapshot.
    assert_eq!(eval_row_bytes(&mut client, &specs[0]), baselines[0]);
    let ResponseKind::Stats(stats) = client.request(RequestKind::Stats).unwrap() else {
        panic!("stats");
    };
    assert!(stats.corpus_reloads >= 1, "stats: {stats:?}");
    assert_eq!(stats.corpus_cells, 3);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_requests_serve_manifest_stat_and_verify() {
    let dir = tmp_dir("corpus-reqs");
    let keys = record_corpus(&dir);
    let (addr, handle) = start_in_process(&dir, 2);
    let mut client = Client::connect(&addr).unwrap();
    let ResponseKind::Cells(cells) = client.request(RequestKind::ListCells).unwrap() else {
        panic!("cells");
    };
    assert_eq!(cells.iter().map(|c| c.key.clone()).collect::<Vec<_>>(), keys);
    let ResponseKind::CellStat(stat) =
        client.request(RequestKind::StatCell { key: keys[0].clone() }).unwrap()
    else {
        panic!("stat");
    };
    assert_eq!(stat.entry.key, keys[0]);
    assert!(stat.file_bytes > 0);
    assert_eq!(stat.generator, "server test");
    let ResponseKind::Verified(verified) =
        client.request(RequestKind::VerifyCell { key: keys[0].clone() }).unwrap()
    else {
        panic!("verify");
    };
    assert_eq!(verified.shots, 3);
    let ResponseKind::Version(version) = client.request(RequestKind::Version).unwrap() else {
        panic!("version");
    };
    assert_eq!(version.protocol, PROTOCOL_VERSION);
    assert_eq!(version.trace_schema, qec_trace::TRACE_SCHEMA_VERSION);
    // Corrupt the second cell's shard on disk: verify-cell must catch it
    // (it re-reads from disk and bypasses the cache).
    let corpus = Corpus::open_existing(&dir).unwrap();
    let shard = corpus.trace_path(&corpus.entries()[1].clone());
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&shard, &bytes).unwrap();
    let ResponseKind::Error(error) =
        client.request(RequestKind::VerifyCell { key: keys[1].clone() }).unwrap()
    else {
        panic!("corrupt shard must fail verification");
    };
    assert_eq!(error.code, ErrorCode::CorruptCorpus);
    shutdown(&addr);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binding_an_empty_or_missing_corpus_fails() {
    let dir = tmp_dir("empty");
    assert!(Server::bind(&dir, &ServeConfig::default()).is_err(), "missing corpus");
    let corpus = Corpus::open(&dir).unwrap();
    corpus.save().unwrap();
    let err = Server::bind(&dir, &ServeConfig::default()).unwrap_err();
    assert!(err.contains("empty"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// full binary flow: repro serve / repro query
// ---------------------------------------------------------------------------------

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

fn run_ok(args: &[&str]) -> Output {
    let output = repro(args).output().expect("spawn repro");
    assert_eq!(
        output.status.code(),
        Some(0),
        "{args:?} stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Starts `repro serve` on an ephemeral port and parses the announced address
/// from its first stdout line.
fn spawn_daemon(corpus: &str) -> (Child, String) {
    let mut child = repro(&["serve", "--corpus", corpus, "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read announce line");
    let addr = line
        .strip_prefix("qec-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announce line: {line}"))
        .split_whitespace()
        .next()
        .expect("address token")
        .to_string();
    (child, addr)
}

#[test]
fn served_evals_are_byte_identical_to_repro_replay_rows() {
    let dir = tmp_dir("bin-flow");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus");
    let corpus_str = corpus.to_str().unwrap();
    run_ok(&[
        "record",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=eraser+m",
        "--shots",
        "4",
        "--rounds-per-distance",
        "2",
        "--seed",
        "7",
        "--corpus",
        corpus_str,
    ]);

    // Reference rows straight from the CLI, in both replay modes.
    let open_out = dir.join("open.json");
    run_ok(&[
        "replay",
        "--corpus",
        corpus_str,
        "--policy",
        "eraser+m,gladiator+m",
        "--out",
        open_out.to_str().unwrap(),
    ]);
    let closed_out = dir.join("closed.json");
    run_ok(&[
        "replay",
        "--corpus",
        corpus_str,
        "--policy",
        "eraser+m,gladiator+m",
        "--closed-loop",
        "--decode",
        "--out",
        closed_out.to_str().unwrap(),
    ]);
    let open: ReplayReport =
        serde_json::from_str(&std::fs::read_to_string(&open_out).unwrap()).unwrap();
    let closed: ReplayReport =
        serde_json::from_str(&std::fs::read_to_string(&closed_out).unwrap()).unwrap();

    let (mut child, addr) = spawn_daemon(corpus_str);
    let query_eval = |policy: &str, closed_loop: bool, decode: bool| -> (bool, String) {
        let key = &open.results[0].key;
        let mut args = vec!["query", "--addr", &addr, "eval", "--key", key, "--policy", policy];
        if closed_loop {
            args.push("--closed-loop");
        }
        if decode {
            args.push("--decode");
        }
        let output = run_ok(&args);
        let line = String::from_utf8_lossy(&output.stdout).into_owned();
        let response = qec_serve::parse_response(line.trim()).expect("query stdout parses");
        match response.response {
            ResponseKind::Eval(result) => {
                (result.cached, serde_json::to_string(&result.result).unwrap())
            }
            other => panic!("expected eval response, got {other:?}"),
        }
    };

    // The acceptance gate: served rows byte-identical to CLI replay rows, for
    // both modes, both policies (incl. closed-loop decoded LER).
    for (index, row) in open.results.iter().enumerate() {
        let (_, served) = query_eval(&row.policy, false, false);
        let expected = serde_json::to_string(row).unwrap();
        assert_eq!(served, expected, "open-loop row {index} must match the CLI");
    }
    for (index, row) in closed.results.iter().enumerate() {
        let (cached, served) = query_eval(&row.policy, true, true);
        assert!(cached, "the cell stayed hot across queries");
        let expected = serde_json::to_string(row).unwrap();
        assert_eq!(served, expected, "closed-loop row {index} must match the CLI");
    }

    // Repeated queries skipped the corpus reload: one miss, the rest hits.
    let stats_out = run_ok(&["query", "--addr", &addr, "stats"]);
    let stats_line = String::from_utf8_lossy(&stats_out.stdout).into_owned();
    let response = qec_serve::parse_response(stats_line.trim()).unwrap();
    let ResponseKind::Stats(stats) = response.response else { panic!("stats") };
    assert_eq!(stats.cache_misses, 1);
    assert!(stats.cache_hits >= 3, "stats: {stats:?}");

    // query exits 1 on a server-side error but prints the typed response.
    let bad = repro(&["query", "--addr", &addr, "eval", "--key", "nope", "--policy", "ideal"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("unknown-cell"));

    // Clean shutdown: the daemon process exits 0.
    run_ok(&["query", "--addr", &addr, "shutdown"]);
    let status = child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "daemon must exit cleanly after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_under_load_delivers_in_flight_responses_and_exits_zero() {
    let dir = tmp_dir("shutdown-load");
    let keys = record_corpus(&dir);
    let (mut child, addr) = spawn_daemon(dir.to_str().unwrap());
    // Put a heavy batch in flight: sent, being computed, not yet read back.
    let evals: Vec<EvalSpec> = keys
        .iter()
        .flat_map(|key| {
            ["ideal", "gladiator+m", "eraser+m"].map(|policy| eval_spec(key, policy, true, true))
        })
        .collect();
    let batch = evals.len();
    let request =
        Request { id: Some(99), request: RequestKind::BatchEval { evals, per_item: Some(true) } };
    let mut loaded = std::net::TcpStream::connect(addr.as_str()).unwrap();
    writeln!(loaded, "{}", request_line(&request)).unwrap();
    loaded.flush().unwrap();
    // Give the parked connection worker a beat to pull the line off the
    // socket, then shut the daemon down underneath the computation.
    std::thread::sleep(Duration::from_millis(100));
    let mut controller = Client::connect(&addr).unwrap();
    assert_eq!(controller.request(RequestKind::Shutdown).unwrap(), ResponseKind::ShuttingDown);
    // The drain contract: the in-flight batch still gets its complete,
    // parsable response before the process exits — never a torn line.
    let mut reader = BufReader::new(loaded);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response = qec_serve::parse_response(line.trim())
        .unwrap_or_else(|e| panic!("in-flight response must be complete: {e}: {line}"));
    assert_eq!(response.id, Some(99));
    let ResponseKind::BatchItems(items) = response.response else {
        panic!("expected batch-items, got {line}");
    };
    assert_eq!(items.len(), batch);
    assert!(items.iter().all(|item| item.as_result().is_ok()), "{line}");
    // ...and then EOF, not more data.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    let status = child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "daemon must exit 0 under load");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_query_reject_bad_usage() {
    for args in [
        &["serve"][..],         // missing --corpus
        &["serve", "--corpus"], // missing value
        &["serve", "--corpus", "dir", "--cache-cells", "0"],
        &["serve", "--corpus", "dir", "--max-connections", "0"],
        &["serve", "--corpus", "dir", "--queue-limit", "0"],
        &["serve", "--corpus", "dir", "--frobnicate"],
        &["query"], // missing --addr
        &["query", "--addr", "127.0.0.1:1", "frobnicate"],
        &["query", "--addr", "127.0.0.1:1", "eval"], // missing key/policy
        &["query", "--addr", "127.0.0.1:1", "eval", "--key", "k"],
        &["query", "--addr", "127.0.0.1:1", "eval", "--key", "k", "--policy", "bogus"],
        &["query", "--addr", "127.0.0.1:1", "batch-eval"],
        &["query", "--addr", "127.0.0.1:1", "ping", "extra"],
        // Flags the action cannot consume are usage errors, never silently
        // ignored (strict-CLI contract).
        &["query", "--addr", "127.0.0.1:1", "ping", "--key", "k"],
        &["query", "--addr", "127.0.0.1:1", "shutdown", "--decode"],
        &["query", "--addr", "127.0.0.1:1", "stats", "--policy", "ideal"],
        &["query", "--addr", "127.0.0.1:1", "stat", "--key", "k", "--closed-loop"],
    ] {
        let output = repro(args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("usage: repro"),
            "{args:?} must print usage"
        );
    }
    // A fine command line against a dead server is a runtime failure (1).
    let output = repro(&["query", "--addr", "127.0.0.1:1", "ping"]).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    // Serving a missing corpus is a runtime failure too.
    let output = repro(&["serve", "--corpus", "/nonexistent-corpus-dir"]).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
}

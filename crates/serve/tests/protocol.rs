//! Serde round-trip tests for **every** request/response type documented in
//! `docs/SERVE_PROTOCOL.md`. Each documented wire shape is pinned here: a
//! protocol change that breaks a round trip (or a frozen tag) must fail this
//! suite before it can ship.

use qec_experiments::metrics::AggregateMetrics;
use qec_experiments::{DivergenceProfile, ReplayCellResult};
use qec_serve::protocol::all_or_nothing;
use qec_serve::{
    parse_request, parse_response, request_line, response_line, BatchItem, CellStat, ErrorCode,
    EvalResult, EvalSpec, Request, RequestKind, Response, ResponseKind, ServerStats, VerifiedCell,
    VersionInfo, WireError, PROTOCOL_VERSION,
};
use qec_trace::CorpusEntry;

fn sample_entry() -> CorpusEntry {
    CorpusEntry {
        key: "surface d=3 rounds=9 p=1e-3 lr=1e-1 shots=4 seed=7".to_string(),
        hash: "00ff00ff00ff00ff".to_string(),
        file: "shards/00/00ff00ff00ff00ff.qtr".to_string(),
        code: "surface-d3".to_string(),
        family: "surface".to_string(),
        distance: 3,
        rounds: 9,
        p: 1e-3,
        leakage_ratio: 0.1,
        shots: 4,
        seed: 7,
        policy: "eraser+m".to_string(),
        trace_schema: 1,
    }
}

fn sample_metrics() -> AggregateMetrics {
    AggregateMetrics {
        shots: 4,
        false_positives: 0.25,
        false_negatives: 1.5,
        data_lrcs: 2.0,
        ancilla_lrcs: 0.0,
        lrcs_per_round: 0.222,
        average_dlp: 0.01,
        final_dlp: 0.02,
        dlp_series: vec![0.0, 0.01, 0.02],
        inaccuracy_per_round: 0.19,
        total_time_ns: 12345.0,
        lrc_time_ns: 660.0,
        logical_error_rate: Some(0.25),
    }
}

fn sample_row() -> ReplayCellResult {
    let mut profile = DivergenceProfile::new(9);
    profile.add(Some(2));
    profile.add(None);
    ReplayCellResult {
        key: sample_entry().key,
        code: "surface-d3".to_string(),
        recorded_policy: "eraser+m".to_string(),
        policy: "gladiator+m".to_string(),
        decoder: None,
        shots: 4,
        rounds: 9,
        exact: false,
        divergent_shots: 1,
        live_match: None,
        divergence_profile: Some(profile),
        metrics: sample_metrics(),
    }
}

fn sample_eval_spec() -> EvalSpec {
    EvalSpec {
        key: sample_entry().key,
        policy: "gladiator+m".to_string(),
        mode: Some("closed-loop".to_string()),
        decode: Some(true),
        decoder: None,
    }
}

fn sample_stats() -> ServerStats {
    ServerStats {
        requests: 10,
        evals: 6,
        batch_evals: 1,
        cache_hits: 4,
        cache_misses: 2,
        cache_evictions: 1,
        cached_cells: 1,
        cache_capacity: 8,
        corpus_cells: 3,
        shared_passes: 5,
        suffixes_served: 17,
        peak_checkpoints: 2,
        active_connections: 3,
        max_connections: 32,
        queue_depth_hwm: 9,
        queue_limit: 256,
        shed_requests: 1,
        shed_connections: 2,
        corpus_reloads: 4,
        routed_requests: 11,
        fanout_hwm: 2,
        replica_errors: 1,
        replicas_up: 2,
        adaptive_rounds: 7,
        shots_allocated: 4096,
    }
}

#[track_caller]
fn roundtrip_request(kind: RequestKind) {
    let request = Request { id: Some(42), request: kind };
    let line = request_line(&request);
    assert_eq!(parse_request(&line).unwrap(), request, "wire line: {line}");
}

#[track_caller]
fn roundtrip_response(kind: ResponseKind) {
    let response = Response { id: Some(42), v: PROTOCOL_VERSION, response: kind };
    let line = response_line(&response);
    assert_eq!(parse_response(&line).unwrap(), response, "wire line: {line}");
}

#[test]
fn every_request_kind_round_trips() {
    roundtrip_request(RequestKind::Ping);
    roundtrip_request(RequestKind::Version);
    roundtrip_request(RequestKind::Stats);
    roundtrip_request(RequestKind::ListCells);
    roundtrip_request(RequestKind::StatCell { key: sample_entry().key });
    roundtrip_request(RequestKind::VerifyCell { key: sample_entry().key });
    roundtrip_request(RequestKind::Eval(sample_eval_spec()));
    roundtrip_request(RequestKind::BatchEval {
        evals: vec![
            sample_eval_spec(),
            EvalSpec {
                key: "k2".to_string(),
                policy: "ideal".to_string(),
                mode: None,
                decode: None,
                decoder: Some("lookup".to_string()),
            },
        ],
        per_item: None,
    });
    roundtrip_request(RequestKind::BatchEval {
        evals: vec![sample_eval_spec()],
        per_item: Some(true),
    });
    roundtrip_request(RequestKind::BatchEval {
        evals: vec![sample_eval_spec()],
        per_item: Some(false),
    });
    roundtrip_request(RequestKind::Shutdown);
}

#[test]
fn every_response_kind_round_trips() {
    roundtrip_response(ResponseKind::Pong);
    roundtrip_response(ResponseKind::Version(VersionInfo {
        server: "qec-serve 0.1.0".to_string(),
        git_describe: "unknown".to_string(),
        protocol: PROTOCOL_VERSION,
        trace_schema: 1,
        manifest_schema: 1,
        replay_schema: 2,
    }));
    roundtrip_response(ResponseKind::Stats(sample_stats()));
    roundtrip_response(ResponseKind::Cells(vec![sample_entry()]));
    roundtrip_response(ResponseKind::CellStat(CellStat {
        entry: sample_entry(),
        file_bytes: 4096,
        generator: "repro record 0.1.0".to_string(),
        git_describe: "unknown".to_string(),
    }));
    roundtrip_response(ResponseKind::Verified(VerifiedCell { key: sample_entry().key, shots: 4 }));
    roundtrip_response(ResponseKind::Eval(EvalResult { cached: true, result: sample_row() }));
    roundtrip_response(ResponseKind::Batch(vec![
        EvalResult { cached: false, result: sample_row() },
        EvalResult { cached: true, result: sample_row() },
    ]));
    roundtrip_response(ResponseKind::BatchItems(vec![
        BatchItem::Eval(EvalResult { cached: false, result: sample_row() }),
        BatchItem::Error(WireError::new(ErrorCode::UnknownCell, "no such cell `k2`")),
        BatchItem::Eval(EvalResult { cached: true, result: sample_row() }),
    ]));
    roundtrip_response(ResponseKind::ShuttingDown);
    for code in ErrorCode::ALL {
        roundtrip_response(ResponseKind::Error(WireError::new(code, "something happened")));
    }
}

#[test]
fn checkpoint_counters_keep_their_frozen_wire_names() {
    // The checkpoint counters were added after protocol v1 froze. Additive
    // response fields do not bump the version — old clients ignore them —
    // but once shipped their wire names are frozen like any other field.
    let rendered = serde_json::to_string(&sample_stats()).unwrap();
    for field in ["\"shared_passes\":5", "\"suffixes_served\":17", "\"peak_checkpoints\":2"] {
        assert!(rendered.contains(field), "{rendered}");
    }
}

#[test]
fn connection_and_backpressure_counters_keep_their_frozen_wire_names() {
    // The bounded-connection-model counters are additive like the checkpoint
    // counters above: no version bump, but frozen names once shipped.
    let rendered = serde_json::to_string(&sample_stats()).unwrap();
    for field in [
        "\"active_connections\":3",
        "\"max_connections\":32",
        "\"queue_depth_hwm\":9",
        "\"queue_limit\":256",
        "\"shed_requests\":1",
        "\"shed_connections\":2",
        "\"corpus_reloads\":4",
    ] {
        assert!(rendered.contains(field), "{rendered}");
    }
}

#[test]
fn router_counters_keep_their_frozen_wire_names() {
    // The qec-cluster router counters are additive like every stats field
    // since v1 froze: no version bump, but frozen names once shipped. A plain
    // daemon reports them as zeros; the router fills them.
    let rendered = serde_json::to_string(&sample_stats()).unwrap();
    for field in
        ["\"routed_requests\":11", "\"fanout_hwm\":2", "\"replica_errors\":1", "\"replicas_up\":2"]
    {
        assert!(rendered.contains(field), "{rendered}");
    }
}

#[test]
fn unavailable_error_code_has_the_documented_label() {
    // `unavailable` is the router's typed replica-failure code: additive, so
    // pre-cluster clients parse it as `Other` and treat it as opaque failure.
    assert_eq!(ErrorCode::Unavailable.label(), "unavailable");
    assert_eq!(ErrorCode::from_label("unavailable"), Some(ErrorCode::Unavailable));
    let rendered =
        serde_json::to_string(&WireError::new(ErrorCode::Unavailable, "replica 1 down")).unwrap();
    assert_eq!(rendered, r#"{"code":"unavailable","message":"replica 1 down"}"#);
}

#[test]
fn per_item_batches_have_the_documented_wire_shapes() {
    // `per_item` is an additive request field: absent unless the client sets
    // it, so a pre-per-item request line is byte-identical to what an old
    // client sends (and an old server parsing a new client's line simply
    // ignores the unknown field).
    let spec = EvalSpec {
        key: "k".to_string(),
        policy: "ideal".to_string(),
        mode: None,
        decode: None,
        decoder: None,
    };
    let legacy = serde_json::to_string(&RequestKind::BatchEval {
        evals: vec![spec.clone()],
        per_item: None,
    })
    .unwrap();
    assert!(!legacy.contains("per_item"), "absent when unset: {legacy}");
    let per_item =
        serde_json::to_string(&RequestKind::BatchEval { evals: vec![spec], per_item: Some(true) })
            .unwrap();
    assert!(per_item.contains("\"per_item\":true"), "{per_item}");
    // A server that predates `per_item` parses the field-bearing line fine
    // only via unknown-field tolerance; what THIS build must guarantee is
    // that a line WITHOUT the field parses as `per_item: None` (legacy
    // all-or-nothing semantics).
    let line = r#"{"id":1,"request":{"batch-eval":{"evals":[{"key":"k","policy":"ideal"}]}}}"#;
    let parsed = parse_request(line).unwrap();
    let RequestKind::BatchEval { per_item, .. } = parsed.request else { panic!("batch-eval") };
    assert_eq!(per_item, None);
    // Each `batch-items` entry is a single-key object: `eval` or `error`.
    let items = ResponseKind::BatchItems(vec![
        BatchItem::Eval(EvalResult { cached: true, result: sample_row() }),
        BatchItem::Error(WireError::new(ErrorCode::UnknownPolicy, "nope")),
    ]);
    let rendered = serde_json::to_string(&items).unwrap();
    assert!(rendered.starts_with("{\"batch-items\":[{\"eval\":"), "{rendered}");
    assert!(rendered.contains("{\"error\":{\"code\":\"unknown-policy\""), "{rendered}");
}

#[test]
fn batch_items_convert_cleanly_to_results() {
    let ok = BatchItem::Eval(EvalResult { cached: false, result: sample_row() });
    let err = BatchItem::Error(WireError::new(ErrorCode::UnknownCell, "gone"));
    assert!(ok.as_result().is_ok());
    assert!(err.as_result().is_err());
    assert!(!ok.into_result().unwrap().cached);
    assert_eq!(err.into_result().unwrap_err().code, ErrorCode::UnknownCell);
    let from: BatchItem = Err::<EvalResult, _>(WireError::new(ErrorCode::Internal, "x")).into();
    assert!(matches!(from, BatchItem::Error(_)));
}

#[test]
fn all_or_nothing_answers_the_first_error_in_request_order_or_every_result() {
    let ok = |cached| BatchItem::Eval(EvalResult { cached, result: sample_row() });
    let err = |code, message| BatchItem::Error(WireError::new(code, message));
    assert_eq!(
        all_or_nothing(vec![ok(true), ok(false)]),
        ResponseKind::Batch(vec![
            EvalResult { cached: true, result: sample_row() },
            EvalResult { cached: false, result: sample_row() },
        ])
    );
    assert_eq!(
        all_or_nothing(vec![
            ok(true),
            err(ErrorCode::CorruptCorpus, "evals[1]: stale"),
            err(ErrorCode::UnknownPolicy, "evals[2]: nope"),
        ]),
        ResponseKind::Error(WireError::new(ErrorCode::CorruptCorpus, "evals[1]: stale"))
    );
}

#[test]
fn unknown_error_codes_from_newer_servers_stay_parsable() {
    // The versioning rules declare new error codes additive: a client must
    // treat them as opaque failures, not parse errors.
    let line =
        r#"{"id":null,"v":1,"response":{"error":{"code":"rate-limited","message":"later"}}}"#;
    let response = parse_response(line).unwrap();
    let ResponseKind::Error(error) = response.response else { panic!("error response") };
    assert_eq!(error.code, ErrorCode::Other("rate-limited".to_string()));
    assert_eq!(error.code.label(), "rate-limited");
    // And it re-serializes to the same label.
    let rendered = response_line(&Response {
        id: None,
        v: PROTOCOL_VERSION,
        response: ResponseKind::Error(error),
    });
    assert!(rendered.contains("\"rate-limited\""), "{rendered}");
    // from_label stays restricted to codes this build can emit.
    assert_eq!(ErrorCode::from_label("rate-limited"), None);
}

/// `sample_row()` as one compact JSON value: the replay-report row bytes.
const ROW: &str = r#"{"key":"surface d=3 rounds=9 p=1e-3 lr=1e-1 shots=4 seed=7","code":"surface-d3","recorded_policy":"eraser+m","policy":"gladiator+m","shots":4,"rounds":9,"exact":false,"divergent_shots":1,"live_match":null,"divergence_profile":{"shots":2,"rounds":9,"divergent_shots":1,"first_divergence":[0,0,1,0,0,0,0,0,0],"resimulated_rounds":7,"restored_rounds":2},"metrics":{"shots":4,"false_positives":0.25,"false_negatives":1.5,"data_lrcs":2.0,"ancilla_lrcs":0.0,"lrcs_per_round":0.222,"average_dlp":0.01,"final_dlp":0.02,"dlp_series":[0.0,0.01,0.02],"inaccuracy_per_round":0.19,"total_time_ns":12345.0,"lrc_time_ns":660.0,"logical_error_rate":0.25}}"#;
/// `sample_entry()` as one compact JSON value.
const ENTRY: &str = r#"{"key":"surface d=3 rounds=9 p=1e-3 lr=1e-1 shots=4 seed=7","hash":"00ff00ff00ff00ff","file":"shards/00/00ff00ff00ff00ff.qtr","code":"surface-d3","family":"surface","distance":3,"rounds":9,"p":0.001,"leakage_ratio":0.1,"shots":4,"seed":7,"policy":"eraser+m","trace_schema":1}"#;
/// `sample_stats()` as one compact JSON value.
const STATS: &str = r#"{"requests":10,"evals":6,"batch_evals":1,"cache_hits":4,"cache_misses":2,"cache_evictions":1,"cached_cells":1,"cache_capacity":8,"corpus_cells":3,"shared_passes":5,"suffixes_served":17,"peak_checkpoints":2,"active_connections":3,"max_connections":32,"queue_depth_hwm":9,"queue_limit":256,"shed_requests":1,"shed_connections":2,"corpus_reloads":4,"routed_requests":11,"fanout_hwm":2,"replica_errors":1,"replicas_up":2,"adaptive_rounds":7,"shots_allocated":4096}"#;

#[test]
fn frozen_wire_tags_do_not_drift() {
    // These exact lines are frozen by docs/SERVE_PROTOCOL.md: renaming a Rust
    // variant must not rename a wire tag, and an absent optional field must
    // stay absent (never `null`). `ROW`, `ENTRY` and `STATS` stand for the
    // pinned payloads above.
    let bare = || EvalSpec {
        key: "k".to_string(),
        policy: "ideal".to_string(),
        mode: None,
        decode: None,
        decoder: None,
    };
    let full = EvalSpec {
        mode: Some("closed-loop".to_string()),
        decode: Some(true),
        decoder: Some("lookup".to_string()),
        ..bare()
    };
    let decode_off = EvalSpec { decode: Some(false), ..bare() };
    let requests = [
        (RequestKind::Ping, r#""ping""#),
        (RequestKind::Version, r#""version""#),
        (RequestKind::Stats, r#""stats""#),
        (RequestKind::ListCells, r#""list-cells""#),
        (RequestKind::Shutdown, r#""shutdown""#),
        (RequestKind::StatCell { key: "k".to_string() }, r#"{"stat-cell":{"key":"k"}}"#),
        (RequestKind::VerifyCell { key: "k".to_string() }, r#"{"verify-cell":{"key":"k"}}"#),
        (RequestKind::Eval(bare()), r#"{"eval":{"key":"k","policy":"ideal"}}"#),
        (
            RequestKind::Eval(full),
            r#"{"eval":{"key":"k","policy":"ideal","mode":"closed-loop","decode":true,"decoder":"lookup"}}"#,
        ),
        (RequestKind::Eval(decode_off), r#"{"eval":{"key":"k","policy":"ideal","decode":false}}"#),
        (
            RequestKind::BatchEval { evals: vec![bare()], per_item: None },
            r#"{"batch-eval":{"evals":[{"key":"k","policy":"ideal"}]}}"#,
        ),
        (
            RequestKind::BatchEval { evals: vec![bare()], per_item: Some(true) },
            r#"{"batch-eval":{"evals":[{"key":"k","policy":"ideal"}],"per_item":true}}"#,
        ),
        (
            RequestKind::BatchEval { evals: vec![], per_item: Some(false) },
            r#"{"batch-eval":{"evals":[],"per_item":false}}"#,
        ),
    ];
    for (kind, payload) in requests {
        let line = request_line(&Request { id: Some(42), request: kind });
        assert_eq!(line, format!(r#"{{"id":42,"request":{payload}}}"#));
    }
    assert_eq!(
        request_line(&Request { id: None, request: RequestKind::Ping }),
        r#"{"id":null,"request":"ping"}"#
    );

    let eval = |cached| EvalResult { cached, result: sample_row() };
    let responses = [
        (ResponseKind::Pong, r#""pong""#.to_string()),
        (ResponseKind::ShuttingDown, r#""shutting-down""#.to_string()),
        (
            ResponseKind::Version(VersionInfo {
                server: "qec-serve 0.1.0".to_string(),
                git_describe: "unknown".to_string(),
                protocol: PROTOCOL_VERSION,
                trace_schema: 2,
                manifest_schema: 1,
                replay_schema: 2,
            }),
            r#"{"version":{"server":"qec-serve 0.1.0","git_describe":"unknown","protocol":1,"trace_schema":2,"manifest_schema":1,"replay_schema":2}}"#
                .to_string(),
        ),
        (ResponseKind::Stats(sample_stats()), r#"{"stats":STATS}"#.replace("STATS", STATS)),
        (ResponseKind::Cells(vec![sample_entry()]), r#"{"cells":[ENTRY]}"#.replace("ENTRY", ENTRY)),
        (
            ResponseKind::CellStat(CellStat {
                entry: sample_entry(),
                file_bytes: 4096,
                generator: "repro record 0.1.0".to_string(),
                git_describe: "unknown".to_string(),
            }),
            r#"{"cell-stat":{"entry":ENTRY,"file_bytes":4096,"generator":"repro record 0.1.0","git_describe":"unknown"}}"#
                .replace("ENTRY", ENTRY),
        ),
        (
            ResponseKind::Verified(VerifiedCell { key: "k".to_string(), shots: 4 }),
            r#"{"verified":{"key":"k","shots":4}}"#.to_string(),
        ),
        (ResponseKind::Eval(eval(true)), r#"{"eval":{"cached":true,"result":ROW}}"#.replace("ROW", ROW)),
        (
            ResponseKind::Batch(vec![eval(false), eval(true)]),
            r#"{"batch":[{"cached":false,"result":ROW},{"cached":true,"result":ROW}]}"#
                .replace("ROW", ROW),
        ),
        (
            ResponseKind::BatchItems(vec![
                BatchItem::Eval(eval(true)),
                BatchItem::Error(WireError::new(ErrorCode::UnknownPolicy, "nope")),
            ]),
            r#"{"batch-items":[{"eval":{"cached":true,"result":ROW}},{"error":{"code":"unknown-policy","message":"nope"}}]}"#
                .replace("ROW", ROW),
        ),
        (
            ResponseKind::Error(WireError::new(ErrorCode::BadRequest, "bad")),
            r#"{"error":{"code":"bad-request","message":"bad"}}"#.to_string(),
        ),
    ];
    for (kind, payload) in responses {
        let line = response_line(&Response { id: Some(42), v: PROTOCOL_VERSION, response: kind });
        assert_eq!(line, format!(r#"{{"id":42,"v":1,"response":{payload}}}"#));
    }

    // A `batch-items` entry on its own, and the replay row with and without
    // the additive `decoder` label (absent, never `null`, when unselected).
    assert_eq!(
        serde_json::to_string(&BatchItem::Eval(eval(false))).unwrap(),
        r#"{"eval":{"cached":false,"result":ROW}}"#.replace("ROW", ROW)
    );
    assert_eq!(
        serde_json::to_string(&BatchItem::Error(WireError::new(ErrorCode::Internal, "x"))).unwrap(),
        r#"{"error":{"code":"internal","message":"x"}}"#
    );
    assert_eq!(serde_json::to_string(&sample_row()).unwrap(), ROW);
    let labelled = ReplayCellResult { decoder: Some("lookup".to_string()), ..sample_row() };
    assert_eq!(
        serde_json::to_string(&labelled).unwrap(),
        ROW.replace(r#""policy":"gladiator+m","#, r#""policy":"gladiator+m","decoder":"lookup","#)
    );
    assert_eq!(
        ErrorCode::ALL.map(|code| code.label().to_string()),
        [
            "bad-request",
            "unknown-cell",
            "unknown-policy",
            "corrupt-corpus",
            "overloaded",
            "unavailable",
            "internal"
        ]
    );
}

#[test]
fn eval_result_metrics_serialize_exactly_like_replay_report_rows() {
    // The acceptance contract behind "served evals are byte-identical to
    // `repro replay` rows": the row embedded in an eval response serializes
    // through the same `ReplayCellResult` impl the replay report uses.
    let row = sample_row();
    let report_row_json = serde_json::to_string(&row).unwrap();
    let response = ResponseKind::Eval(EvalResult { cached: false, result: row });
    let response_json = serde_json::to_string(&response).unwrap();
    assert!(
        response_json.contains(&report_row_json),
        "eval response must embed the replay row verbatim:\n{response_json}\n{report_row_json}"
    );
}

#[test]
fn unknown_tags_and_bad_envelopes_are_rejected() {
    assert!(parse_request(r#"{"id":null,"request":"frobnicate"}"#).is_err());
    assert!(parse_request(r#"{"id":null,"request":{"frobnicate":{}}}"#).is_err());
    assert!(
        parse_request(r#"{"id":null,"request":{"eval":{"key":"k"}}}"#).is_err(),
        "missing policy"
    );
    assert!(parse_response(r#"{"id":null,"v":1,"response":"frobnicate"}"#).is_err());
    assert!(parse_response(r#"{"id":null,"response":"pong"}"#).is_err(), "missing v");
    // Error context names the offending field.
    let err =
        parse_request(r#"{"id":null,"request":{"eval":{"key":7,"policy":"x"}}}"#).unwrap_err();
    assert!(err.message.contains("key"), "{err}");
}

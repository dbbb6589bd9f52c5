//! The `qec-serve` wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! The full wire format — framing, every request/response type, error codes
//! and the versioning rules — is specified in `docs/SERVE_PROTOCOL.md`; this
//! module is its executable counterpart, and the serde round-trip tests in
//! `crates/serve/tests/protocol.rs` pin each documented shape.
//!
//! Shape conventions, all produced by the workspace's serde derive (the wire
//! tags are **frozen** by the protocol doc):
//!
//! * requests and responses are one JSON object per line (LF-terminated);
//! * payload-free kinds are bare strings (`"ping"`), payload-carrying kinds
//!   are single-entry objects (`{"eval": {...}}`), and every tag is the
//!   variant name in kebab-case (`#[serde(rename_all = "kebab-case")]`);
//! * an absent optional request field is omitted, never `null`
//!   (`#[serde(skip_serializing_if = "Option::is_none")]`), so additive
//!   fields leave older lines byte-identical;
//! * every response envelope carries the protocol version in `v`, the same
//!   schema-versioned-provenance discipline as sweep/replay reports.
//!
//! Only two types behind these lines keep hand-written, label-backed serde:
//! [`ErrorCode`], whose open [`ErrorCode::Other`] variant keeps unknown codes
//! from newer servers parsable, and `qec_decoder::DecoderKind` (`uf`,
//! `lookup`) in the spec and report types. The free-form `message` of a
//! malformed-line error names the Rust type (``unknown RequestKind variant
//! `frobnicate` ``); clients match on the `code`, never the message.

use serde::{de, Deserialize, Serialize, Value};

use qec_experiments::ReplayCellResult;
use qec_trace::CorpusEntry;

/// Version of the wire protocol. Additive changes (new request kinds, new
/// optional fields) do **not** bump it; anything that changes the meaning or
/// shape of an existing line does. See `docs/SERVE_PROTOCOL.md` for the exact
/// rules.
pub const PROTOCOL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------------

/// One request line: an optional client-chosen correlation id plus the request
/// itself. The server echoes `id` verbatim in the response envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (`null`/absent is
    /// fine: responses arrive in request order on each connection).
    pub id: Option<u64>,
    /// The request itself.
    pub request: RequestKind,
}

/// Everything the daemon can be asked to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum RequestKind {
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Server, schema and protocol versions plus git provenance.
    Version,
    /// Request/eval counters and cache occupancy (the cache-hit counters live
    /// here).
    Stats,
    /// The corpus manifest: every recorded cell.
    ListCells,
    /// Manifest entry + shard provenance for one cell, at `O(header)` cost
    /// (the shard's shot blocks are not read).
    StatCell {
        /// The corpus cell key.
        key: String,
    },
    /// Full integrity check of one cell's shard: every block re-read from
    /// disk, CRCs and code identity verified.
    VerifyCell {
        /// The corpus cell key.
        key: String,
    },
    /// Evaluate one `cell × policy` pairing.
    Eval(EvalSpec),
    /// Evaluate many pairings on the server's persistent worker pool; results
    /// come back in request order.
    BatchEval {
        /// The pairings to evaluate, in the order results are wanted.
        evals: Vec<EvalSpec>,
        /// `Some(true)` requests the per-item answer shape (`batch-items`):
        /// one result-**or**-typed-error entry per pairing, so one bad
        /// pairing no longer poisons the batch. Absent or `false` keeps the
        /// original all-or-nothing `batch` answer. Additive optional field —
        /// servers predating it ignore it and answer all-or-nothing, which
        /// clients must tolerate.
        #[serde(skip_serializing_if = "Option::is_none")]
        per_item: Option<bool>,
    },
    /// Finish open connections' in-flight requests and exit the accept loop.
    Shutdown,
}

/// One `cell × policy` evaluation request. Absent optional fields are
/// omitted from the wire line, never `null`: a spec without `decoder` (or
/// `mode`/`decode`) renders exactly like one from a client predating the
/// field, so old servers accept new clients' decoder-free requests unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSpec {
    /// The corpus cell key (as listed by `list-cells`).
    pub key: String,
    /// Policy label to evaluate (as printed by `repro list`).
    pub policy: String,
    /// Replay mode label: `"open-loop"` (default when absent) or
    /// `"closed-loop"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub mode: Option<String>,
    /// Decode the replayed runs and report the LER (default `false`). As in
    /// `repro replay`, open-loop decoding only applies to recording-policy
    /// pairings; closed-loop decodes every pairing.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decode: Option<bool>,
    /// Decoder backend label (`"uf"` or `"lookup"`; default when absent:
    /// union-find, the legacy behavior — responses to decoder-free requests
    /// are byte-identical to servers predating this field). Unknown labels
    /// and backends that cannot serve the cell's code/distance are answered
    /// with typed `bad-request` errors, never `internal` and never a closed
    /// connection. Additive optional field — no protocol version bump.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decoder: Option<String>,
}

// ---------------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------------

/// One response line: the echoed request id, the protocol version, and the
/// response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's `id`, echoed verbatim.
    pub id: Option<u64>,
    /// [`PROTOCOL_VERSION`] of the answering server.
    pub v: u32,
    /// The response payload.
    pub response: ResponseKind,
}

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ResponseKind {
    /// Answer to `ping`.
    Pong,
    /// Answer to `version`.
    Version(VersionInfo),
    /// Answer to `stats`.
    Stats(ServerStats),
    /// Answer to `list-cells`: the manifest entries, in manifest order.
    Cells(Vec<CorpusEntry>),
    /// Answer to `stat-cell`.
    CellStat(CellStat),
    /// Answer to `verify-cell` (success; failures are `error` responses with
    /// code `corrupt-corpus`).
    Verified(VerifiedCell),
    /// Answer to `eval`.
    Eval(EvalResult),
    /// Answer to `batch-eval`: one result per requested pairing, in request
    /// order.
    Batch(Vec<EvalResult>),
    /// Answer to `batch-eval` with `per_item: true`: one entry per requested
    /// pairing, in request order, each either a result or a typed error —
    /// sibling pairings are unaffected by a failing one. Additive response
    /// kind (only ever sent when explicitly requested), so it does not bump
    /// [`PROTOCOL_VERSION`].
    BatchItems(Vec<BatchItem>),
    /// Answer to `shutdown`; the server exits after this line is written.
    ShuttingDown,
    /// Any failure: a stable machine-readable code plus a human-readable
    /// message. Malformed input never closes the connection or crashes the
    /// server — it produces this.
    Error(WireError),
}

/// Server, schema and protocol versions plus git provenance — the per-session
/// form of the provenance block every sweep/replay report carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionInfo {
    /// Server name and crate version, e.g. `qec-serve 0.1.0`.
    pub server: String,
    /// `git describe --always --dirty` of the serving build, or `unknown`.
    pub git_describe: String,
    /// [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// `.qtr` trace schema the server reads.
    pub trace_schema: u32,
    /// Corpus manifest schema the server reads.
    pub manifest_schema: u32,
    /// Replay-report schema of `eval` result rows.
    pub replay_schema: u32,
}

impl VersionInfo {
    /// This build's versions and provenance for the server named `name`
    /// (`qec-serve` or `qec-cluster`); every workspace crate shares one
    /// version number.
    #[must_use]
    pub fn new(name: &str) -> VersionInfo {
        VersionInfo {
            server: format!("{name} {}", env!("CARGO_PKG_VERSION")),
            git_describe: qec_experiments::sweep::git_describe(),
            protocol: PROTOCOL_VERSION,
            trace_schema: qec_trace::TRACE_SCHEMA_VERSION,
            manifest_schema: qec_trace::MANIFEST_SCHEMA_VERSION,
            replay_schema: qec_experiments::replay::REPLAY_SCHEMA_VERSION,
        }
    }
}

/// Counters since server start. All counters are totals, never reset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests handled (all kinds, malformed lines included).
    pub requests: u64,
    /// `cell × policy` evaluations successfully computed (batch members
    /// counted individually).
    pub evals: u64,
    /// `batch-eval` requests answered with a `batch` response.
    pub batch_evals: u64,
    /// Evaluations that found their cell already resident (no corpus I/O).
    pub cache_hits: u64,
    /// Evaluations that had to load their cell's shard from disk.
    pub cache_misses: u64,
    /// Cells evicted to make room (least recently used first).
    pub cache_evictions: u64,
    /// Cells currently resident.
    pub cached_cells: usize,
    /// Maximum resident cells.
    pub cache_capacity: usize,
    /// Cells in the corpus manifest.
    pub corpus_cells: usize,
    /// Forced prefix passes run by the shared-checkpoint batch path (one per
    /// divergent shot, shared by every same-cell candidate in the batch).
    /// Added after protocol v1 froze — additive response fields do not bump
    /// [`PROTOCOL_VERSION`]; clients ignore unknown fields.
    pub shared_passes: u64,
    /// Candidate policy suffixes resumed from shared checkpoints (additive,
    /// like [`ServerStats::shared_passes`]).
    pub suffixes_served: u64,
    /// Most simulator checkpoints held at once by any shared evaluation
    /// (additive, like [`ServerStats::shared_passes`]).
    pub peak_checkpoints: u64,
    /// Connections currently being served (a gauge, not a total; additive
    /// field like [`ServerStats::shared_passes`], as are all fields below).
    pub active_connections: u64,
    /// The daemon's hard connection limit (`--max-connections`).
    pub max_connections: usize,
    /// Most evaluation units (batch members count individually) in flight at
    /// once since start — the queue-depth high-water mark.
    pub queue_depth_hwm: u64,
    /// The daemon's evaluation-queue capacity (`--queue-limit`).
    pub queue_limit: usize,
    /// Evaluation requests refused with an `overloaded` error because the
    /// queue was full (the connection survives; nothing was evaluated).
    pub shed_requests: u64,
    /// Connections refused with an `overloaded` greeting because the
    /// connection limit was reached.
    pub shed_connections: u64,
    /// Times the daemon swapped in a changed `manifest.json` (hot corpus
    /// reloads). Cache counters carry across a swap.
    pub corpus_reloads: u64,
    /// Requests this process answered by routing to replica daemons. Always
    /// `0` on a plain daemon; the `qec-cluster` router counts every request it
    /// resolves against its shard map here (additive field, as all router
    /// counters below — clients ignore unknown fields, so no version bump).
    pub routed_requests: u64,
    /// Most replicas any single routed request fanned out to at once — `1`
    /// for solo requests, up to the replica count for a `batch-eval` spanning
    /// every shard. Always `0` on a plain daemon.
    pub fanout_hwm: u64,
    /// Replica calls that failed (connect/transport failure or timeout) and
    /// were answered with typed `unavailable` errors after bounded retry.
    /// Always `0` on a plain daemon.
    pub replica_errors: u64,
    /// Replicas the router currently considers reachable (a gauge: replica
    /// count minus those whose last call failed). On a plain daemon this is
    /// `0` — a daemon is not its own replica.
    pub replicas_up: u64,
    /// Allocation rounds completed by an adaptive sweep checkpointed **in the
    /// served corpus directory** (`state.qad` colocated with `manifest.json`;
    /// see `docs/ADAPTIVE.md`). `0` when no checkpoint is present. Read fresh
    /// on every `stats` request, so a daemon serving a corpus that an
    /// adaptive sweep is growing reports live progress. The router sums the
    /// field across replicas (total rounds executed cluster-wide). Additive
    /// field, like [`ServerStats::shared_passes`].
    pub adaptive_rounds: u64,
    /// Total shots allocated across every cell of that checkpointed adaptive
    /// sweep (`0` without a checkpoint; summed across replicas by the
    /// router). Additive field, like [`ServerStats::shared_passes`].
    pub shots_allocated: u64,
}

/// Manifest entry plus shard-header provenance for one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStat {
    /// The manifest entry.
    pub entry: CorpusEntry,
    /// Size of the `.qtr` shard file in bytes.
    pub file_bytes: u64,
    /// Generator string recorded in the shard header.
    pub generator: String,
    /// Git provenance recorded in the shard header.
    pub git_describe: String,
}

/// Successful `verify-cell` summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedCell {
    /// The verified cell key.
    pub key: String,
    /// Shots decoded (CRC-checked) from the shard.
    pub shots: usize,
}

/// One evaluated `cell × policy` pairing. `result` is **the same row type,
/// built by the same code path** (`qec_experiments::replay::evaluation_row`)
/// as a `repro replay` report row, so served metrics are byte-identical to the
/// CLI's for the same pairing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Whether the cell was already resident in the server's cache (`true`
    /// means the request paid no corpus I/O).
    pub cached: bool,
    /// The evaluation row (identical to a replay-report row; `live_match` is
    /// always `null` — the daemon never re-simulates for verification).
    pub result: ReplayCellResult,
}

/// One entry of a `batch-items` answer: the pairing's result, or the typed
/// error that kept *this pairing alone* from being answered. The wire shape
/// mirrors the solo response kinds — `{"eval": {...}}` or `{"error": {...}}`
/// — so a per-item entry parses with the same vocabulary as a whole response.
// Entries are overwhelmingly `Eval` in practice, so boxing the large variant
// would buy nothing but an extra allocation per served row.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum BatchItem {
    /// The pairing evaluated successfully.
    Eval(EvalResult),
    /// The pairing failed; siblings are unaffected.
    Error(WireError),
}

impl BatchItem {
    /// The entry as a `Result`, borrowing.
    pub fn as_result(&self) -> Result<&EvalResult, &WireError> {
        match self {
            BatchItem::Eval(result) => Ok(result),
            BatchItem::Error(error) => Err(error),
        }
    }

    /// The entry as a `Result`, consuming.
    pub fn into_result(self) -> Result<EvalResult, WireError> {
        match self {
            BatchItem::Eval(result) => Ok(result),
            BatchItem::Error(error) => Err(error),
        }
    }
}

impl From<Result<EvalResult, WireError>> for BatchItem {
    fn from(outcome: Result<EvalResult, WireError>) -> Self {
        match outcome {
            Ok(result) => BatchItem::Eval(result),
            Err(error) => BatchItem::Error(error),
        }
    }
}

/// Machine-readable failure categories. The code set may grow (an additive,
/// non-version-bumping change); existing codes never change meaning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, not a valid request shape, or carried an
    /// invalid field value (e.g. an unknown replay mode).
    BadRequest,
    /// The request named a cell key the corpus manifest does not hold.
    UnknownCell,
    /// The request named a policy label this build does not know.
    UnknownPolicy,
    /// The cell's shard failed to load or verify (I/O error, CRC mismatch,
    /// manifest/shard disagreement, stale corpus).
    CorruptCorpus,
    /// Load was shed: the daemon's bounded evaluation queue (or connection
    /// limit) was full, and the request was refused **without** being
    /// evaluated. Retry later; the error never reflects anything wrong with
    /// the request itself. Added after protocol v1 froze — an additive code
    /// per the versioning rules, so no version bump.
    Overloaded,
    /// The cell's owning replica daemon could not be reached (connect or
    /// transport failure, or no answer within the router's per-replica
    /// timeout) after bounded retry. Only the `qec-cluster` router emits this;
    /// the request itself was valid and may succeed once the replica returns.
    /// Added after protocol v1 froze — an additive code, so no version bump.
    Unavailable,
    /// Anything else that failed server-side.
    Internal,
    /// A code this build does not know (from a newer server). Never sent by
    /// this server; it exists so clients honor the versioning rule that
    /// unknown error codes are opaque failures, not parse errors.
    Other(String),
}

impl ErrorCode {
    /// Every code this build can emit, in documentation order.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownCell,
        ErrorCode::UnknownPolicy,
        ErrorCode::CorruptCorpus,
        ErrorCode::Overloaded,
        ErrorCode::Unavailable,
        ErrorCode::Internal,
    ];

    /// The stable wire label of the code.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownCell => "unknown-cell",
            ErrorCode::UnknownPolicy => "unknown-policy",
            ErrorCode::CorruptCorpus => "corrupt-corpus",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
            ErrorCode::Other(label) => label,
        }
    }

    /// Parses a wire label into a **known** code; `None` for labels this
    /// build does not know (deserialization maps those to
    /// [`ErrorCode::Other`] instead, so future additive codes stay parsable).
    #[must_use]
    pub fn from_label(label: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|code| code.label() == label)
    }
}

impl Serialize for ErrorCode {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for ErrorCode {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Str(label) => {
                Ok(ErrorCode::from_label(label).unwrap_or_else(|| ErrorCode::Other(label.clone())))
            }
            other => Err(de::expected("error-code string", other)),
        }
    }
}

/// A typed failure: stable code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (free-form; never parse it).
    pub message: String,
}

impl WireError {
    /// Builds an error of `code` with `message`.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError { code, message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

// ---------------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------------

/// Renders a request as one compact-JSON wire line (no trailing newline; the
/// transport adds the LF).
#[must_use]
pub fn request_line(request: &Request) -> String {
    serde_json::to_string(request).expect("requests are always serializable")
}

/// Renders a response as one compact-JSON wire line (no trailing newline).
#[must_use]
pub fn response_line(response: &Response) -> String {
    serde_json::to_string(response).expect("responses are always serializable")
}

/// Parses one wire line into a request. Any failure — bad JSON, wrong
/// envelope, unknown request tag — maps to a `bad-request` error the server
/// answers with instead of dropping the connection.
///
/// # Errors
/// Returns a [`WireError`] with code [`ErrorCode::BadRequest`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    serde_json::from_str(line)
        .map_err(|e| WireError::new(ErrorCode::BadRequest, format!("malformed request: {e}")))
}

/// Parses one wire line into a response (the client side of
/// [`parse_request`]).
///
/// # Errors
/// Returns a [`WireError`] with code [`ErrorCode::BadRequest`] describing the
/// first mismatch.
pub fn parse_response(line: &str) -> Result<Response, WireError> {
    serde_json::from_str(line)
        .map_err(|e| WireError::new(ErrorCode::BadRequest, format!("malformed response: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_free_requests_are_bare_strings() {
        for (kind, tag) in [
            (RequestKind::Ping, "\"ping\""),
            (RequestKind::Version, "\"version\""),
            (RequestKind::Stats, "\"stats\""),
            (RequestKind::ListCells, "\"list-cells\""),
            (RequestKind::Shutdown, "\"shutdown\""),
        ] {
            assert_eq!(serde_json::to_string(&kind).unwrap(), tag);
        }
    }

    #[test]
    fn eval_request_uses_the_documented_shape() {
        let request = Request {
            id: Some(7),
            request: RequestKind::Eval(EvalSpec {
                key: "surface d=3".to_string(),
                policy: "gladiator+m".to_string(),
                mode: Some("closed-loop".to_string()),
                decode: Some(true),
                decoder: None,
            }),
        };
        let line = request_line(&request);
        assert_eq!(
            line,
            r#"{"id":7,"request":{"eval":{"key":"surface d=3","policy":"gladiator+m","mode":"closed-loop","decode":true}}}"#
        );
        assert_eq!(parse_request(&line).unwrap(), request);
    }

    #[test]
    fn optional_eval_fields_may_be_omitted() {
        let parsed =
            parse_request(r#"{"id":null,"request":{"eval":{"key":"k","policy":"ideal"}}}"#)
                .unwrap();
        let RequestKind::Eval(spec) = parsed.request else { panic!("not an eval") };
        assert_eq!(spec.mode, None);
        assert_eq!(spec.decode, None);
        assert_eq!(spec.decoder, None);
    }

    #[test]
    fn decoder_field_is_additive_and_omitted_when_absent() {
        // A decoder-free spec renders without the field at all — bytes a
        // pre-decoder server accepts unchanged.
        let bare = EvalSpec {
            key: "k".to_string(),
            policy: "ideal".to_string(),
            mode: None,
            decode: None,
            decoder: None,
        };
        assert_eq!(serde_json::to_string(&bare).unwrap(), r#"{"key":"k","policy":"ideal"}"#);
        // With a selection the field appears last and round-trips.
        let selected = EvalSpec { decoder: Some("lookup".to_string()), ..bare };
        let json = serde_json::to_string(&selected).unwrap();
        assert_eq!(json, r#"{"key":"k","policy":"ideal","decoder":"lookup"}"#);
        assert_eq!(serde_json::from_str::<EvalSpec>(&json).unwrap(), selected);
    }

    #[test]
    fn malformed_lines_become_bad_request_errors() {
        for bad in ["", "{", "42", r#"{"request":"frobnicate","id":null}"#, r#"{"id":1}"#] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad:?}");
        }
    }

    #[test]
    fn error_codes_round_trip_their_labels() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_label(code.label()), Some(code.clone()));
            let json = serde_json::to_string(&code).unwrap();
            assert_eq!(serde_json::from_str::<ErrorCode>(&json).unwrap(), code);
        }
        assert_eq!(ErrorCode::from_label("no-such-code"), None);
    }
}

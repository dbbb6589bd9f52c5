//! `qec-serve` — a long-running speculation-evaluation daemon over hot trace
//! corpora.
//!
//! PR 3/4 made policy comparison cheap *offline*: record a scenario cell once
//! (`qec-trace`), replay any candidate policy against it, closed-loop replay
//! bit-identical to live simulation. But every CLI invocation still pays
//! process startup, corpus open and artifact construction (offline GLADIATOR
//! model, pattern extractor, decoder graphs). This crate removes that tax for
//! the many-queries-one-corpus workflow — the "evaluate many candidate
//! policies against one recorded execution" loop that ERASER-style adaptive
//! suppression needs at scale:
//!
//! * [`server`] — a daemon speaking a newline-delimited JSON protocol, with
//!   evaluation work fanned out on a persistent `rayon::ThreadPool` behind a
//!   bounded admission queue (explicit `overloaded` backpressure instead of
//!   stalling). Each `eval` or `batch-eval` group runs inline on one pool
//!   worker, so the daemon computes on exactly `pool_threads` threads. The
//!   daemon serves a hot-swappable corpus snapshot (it watches
//!   `manifest.json` and atomically swaps the cell index without dropping
//!   connections). It holds an LRU-bounded in-memory cache of corpus cells
//!   ([`cache`]) with their shared evaluation artifacts (calibrated
//!   `PolicyFactory`, lazily built union-find decoder) and answers
//!   `cell × policy → metrics` queries without reloading anything, streaming
//!   shard bytes shot-at-a-time on a cache miss.
//! * [`front`] — the **bounded** connection front end the daemon and the
//!   `qec-cluster` router both run: an acceptor thread feeding a fixed pool
//!   of connection workers (hard connection limit, `overloaded` greeting
//!   beyond it), a capped line reader that answers unreadable or over-long
//!   lines with `bad-request` on a surviving connection, panic containment,
//!   and the shutdown drain. It drives a request handler; the daemon's
//!   evaluates, the router's forwards.
//! * [`protocol`] — the wire types: `ping`/`version`/`stats`,
//!   `list-cells`/`stat-cell`/`verify-cell`, `eval`/`batch-eval` (all-or-
//!   nothing or per-item result-or-error entries), `shutdown`, plus typed
//!   error codes. The format is frozen by `docs/SERVE_PROTOCOL.md`, in the
//!   same spirit as `docs/TRACE_FORMAT.md` for `.qtr`.
//! * [`client`] — the blocking client behind `repro query` and the e2e
//!   tests, including the typed per-item [`Client::batch_eval`] API.
//!
//! Served evaluations go through the *same* entry points as `repro replay`
//! (`qec_experiments::replay::{evaluate_cell_set, evaluation_row}`), so a served
//! `eval` row is byte-identical to the CLI's replay-report row for the same
//! `corpus × cell × policy × mode × decode` — the e2e tests in
//! `crates/cluster/tests/server.rs` pin exactly that, and the CI `serve-smoke`
//! job additionally pins responses across pool widths (`RAYON_NUM_THREADS=1`
//! vs `4`) and served rows against a `repro replay` fanned out over 4 scoped
//! threads.
//!
//! The `repro` binary (moved on to `qec-cluster` so the CLI can host the
//! `corpus shard`/`route` subcommands without a dependency cycle) remains the
//! workspace's single command-line entry point; this crate keeps the daemon
//! library the router and the CLI both build on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod front;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, CachedCell, CellCache};
pub use client::Client;
pub use protocol::{
    parse_request, parse_response, request_line, response_line, BatchItem, CellStat, ErrorCode,
    EvalResult, EvalSpec, Request, RequestKind, Response, ResponseKind, ServerStats, VerifiedCell,
    VersionInfo, WireError, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};

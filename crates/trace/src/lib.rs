//! `qec-trace` — binary syndrome/leakage trace corpora with record-once,
//! replay-many speculation evaluation.
//!
//! The paper's accuracy results (FP/FN rates, detection latency, LRC counts
//! per policy) are all functions of the observables and hidden leakage
//! lifetimes of a *recorded* execution. This crate makes that execution a
//! durable artifact:
//!
//! * [`format`](mod@format) — the compact, schema-versioned `.qtr` layout: magic + header
//!   with provenance (generator, git describe, code fingerprint, bit-exact
//!   noise model) followed by per-shot, per-round frames — bit-packed
//!   syndromes, ground-truth leak flags, the applied LRC schedule and MLR
//!   heralds — with varint encoding and a CRC-32 per block. A [`ShotTrace`] is
//!   the stored projection of a simulator [`RunRecord`](leaky_sim::RunRecord)
//!   ([`ShotTrace::from_run`]); derivable fields (detectors,
//!   `data_leak_before`, cycle times) are reconstructed by its inverse,
//!   [`ShotTrace::to_run`], not stored.
//! * [`stream`] — streaming writer/reader over `std::io::{Write, Read}`,
//!   flat-memory in the shot count; shots are framed in shot order so trace
//!   bytes never depend on recording thread count.
//! * [`replay`] — drives any [`LeakagePolicy`](leaky_sim::LeakagePolicy)
//!   against the recorded observables, with per-round divergence detection
//!   against the recorded schedule. Open-loop replay never re-simulates;
//!   closed-loop replay repairs each candidate's first divergence by
//!   reconstructing exact simulator state (recorded seed contract + one forced
//!   prefix pass per shot, shared by the candidate set) and re-simulating the
//!   suffix, yielding every candidate's run bit-for-bit as a from-scratch live
//!   simulation would. Each candidate's outcome is its run plus its first
//!   divergence round, from which all replay accounting follows
//!   ([`DivergenceProfile::add`], [`CheckpointPlan`]). Same-policy replay
//!   reproduces the live engine's decisions (and hence metrics) bit-for-bit
//!   either way.
//! * [`corpus`] — a sharded corpus directory (`shards/<hh>/<hash>.qtr`) with a
//!   JSON manifest keyed by policy-free cell keys, so sweeps simulate each
//!   cell once and replay every policy against it.
//!
//! The experiment-level integration (recording via the batch engine, metric
//! scoring, corpus-backed sweeps, the `repro record|replay|corpus`
//! subcommands) lives in `qec-experiments`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod corpus;
pub mod format;
pub mod replay;
pub mod stream;
pub mod wire;

pub use cluster::{CellAssignment, ClusterMap, ReplicaShard, CLUSTER_FILE, CLUSTER_SCHEMA_VERSION};
pub use corpus::{
    manifest_stamp, Corpus, CorpusEntry, CorpusManifest, ManifestStamp, MANIFEST_SCHEMA_VERSION,
};
pub use format::{
    code_fingerprint, ShotTrace, TraceHeader, TraceRound, TRACE_MAGIC, TRACE_SCHEMA_VERSION,
};
pub use replay::{CheckpointPlan, ClosedLoopReplay, DivergenceProfile, ReplayContext, ShotReplay};
pub use stream::{
    check_extends, open_trace_file, read_trace_file, read_trace_header, write_trace_file,
    TraceReader, TraceWriter,
};
pub use wire::{crc32, TraceError};

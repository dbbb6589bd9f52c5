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
//!   heralds — with varint encoding and a CRC-32 per block. A [`ShotTrace`]
//!   holds the simulator's own [`RunRecord`](leaky_sim::RunRecord) of the
//!   shot, the one round record of simulator, policies, trace and replay; its
//!   derivable fields (detectors, `data_leak_before`, cycle times) are not
//!   stored but derived once, as [`ShotTrace::decode`] reads the shot.
//! * [`stream`] — streaming writer/reader over `std::io::{Write, Read}`,
//!   flat-memory in the shot count; shots are framed in shot order so trace
//!   bytes never depend on recording thread count.
//! * [`corpus`] — a sharded corpus directory (`shards/<hh>/<hash>.qtr`) with a
//!   JSON manifest keyed by policy-free cell keys, so sweeps simulate each
//!   cell once and replay every policy against it.
//!
//! The replay engine and the experiment-level integration live in
//! `qec-experiments`: recording via the batch engine, the one replay
//! evaluator (`evaluate_cell_set`: open-loop scoring of any
//! [`LeakagePolicy`](leaky_sim::LeakagePolicy) against the recorded
//! observables, and closed-loop divergence repair that reseeds through the
//! header's `seed + shot` contract and force-runs the recorded prefix),
//! metric scoring, corpus-backed sweeps and the `repro record|replay|corpus`
//! subcommands.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod corpus;
pub mod format;
pub mod stream;
pub mod wire;

pub use cluster::{CellAssignment, ClusterMap, ReplicaShard, CLUSTER_FILE, CLUSTER_SCHEMA_VERSION};
pub use corpus::{
    manifest_stamp, Corpus, CorpusEntry, CorpusManifest, ManifestStamp, MANIFEST_SCHEMA_VERSION,
};
pub use format::{code_fingerprint, ShotTrace, TraceHeader, TRACE_MAGIC, TRACE_SCHEMA_VERSION};
pub use stream::{
    check_extends, open_trace_file, read_trace_file, read_trace_header, write_trace_file,
    TraceReader, TraceWriter,
};
pub use wire::{crc32, TraceError};

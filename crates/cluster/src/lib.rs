//! `qec-cluster` — sharded corpus serving over replica `qec-serve` daemons.
//!
//! PR 7 made one daemon production-shaped (bounded workers, backpressure, hot
//! reload); a corpus that outgrows one process's memory or one machine's
//! cores is the next wall. This crate splits the *corpus*, not the protocol:
//!
//! * [`shard`] — `shard_corpus` partitions a recorded corpus by the existing
//!   policy-free cell hash into N per-replica sub-corpora — each a complete
//!   `shards/ + manifest.json` tree an **unmodified** daemon can serve — plus
//!   a schema-versioned `cluster.json` shard map
//!   ([`qec_trace::cluster::ClusterMap`]: cell→replica assignments, replica
//!   addresses, provenance).
//! * [`router`] — a daemon speaking the same frozen NDJSON protocol
//!   (`docs/SERVE_PROTOCOL.md`) in front of the replicas: solo cell requests
//!   pass through **raw** to their owner (routed bytes are daemon bytes),
//!   split batches fan out concurrently and reassemble in original order,
//!   `list-cells` merges back into source-manifest order, `stats` aggregates
//!   and adds the additive router counters. Replica failure is bounded and
//!   typed (`unavailable`), never a hang, never a torn batch.
//!
//! Byte-identity is the contract end to end: a routed response row is the
//! monolithic daemon's row is the `repro replay` row — the e2e tests in
//! `tests/cluster.rs` and the CI `cluster-smoke` job `cmp` exactly that.
//! See `docs/CLUSTER.md` for the shard-map schema and routing semantics.
//!
//! The `repro` binary (moved here from `qec-serve` so the CLI can host the
//! `corpus shard` / `route` subcommands without a dependency cycle) remains
//! the workspace's single command-line entry point.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod router;
pub mod shard;

pub use router::{Router, RouterConfig};
pub use shard::{shard_corpus, ShardOptions};

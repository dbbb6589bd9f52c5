//! The cluster shard map: how one recorded corpus is partitioned across N
//! replica daemons.
//!
//! A *sharded* corpus is a directory holding one sub-corpus per replica
//! (`replica-<i>/` — each a complete `shards/ + manifest.json` tree an
//! unmodified `qec-serve` daemon can serve) plus a schema-versioned
//! `cluster.json` shard map. The map records the cell → replica assignment,
//! the replica serving addresses, and provenance; the router daemon
//! (`qec-cluster`) resolves every request against it. Assignment is by the
//! **existing policy-free cell hash** (`Corpus::cell_hash`, i.e.
//! [`crate::format::fnv1a_str`]) modulo the replica count — the same identity
//! that names shard files — so a cell's owner is a pure function of its key
//! and the replica count, never of manifest order or insertion history.
//!
//! The JSON shape is frozen the same way the corpus manifest is: additive
//! fields are allowed without a version bump, anything that changes the
//! meaning or shape of an existing field bumps [`CLUSTER_SCHEMA_VERSION`].
//! See `docs/CLUSTER.md` for the full schema and versioning rules.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::corpus::{Corpus, CorpusManifest};
use crate::wire::TraceError;

/// Version of the cluster shard-map schema; bump when the JSON shape changes.
pub const CLUSTER_SCHEMA_VERSION: u32 = 1;

/// File name of the shard map inside a sharded-corpus directory.
pub const CLUSTER_FILE: &str = "cluster.json";

/// One replica of a sharded corpus: where its sub-corpus lives and where its
/// daemon answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaShard {
    /// Replica index, `0..replicas.len()` in order.
    pub index: usize,
    /// Sub-corpus directory, relative to the shard map's own directory.
    pub dir: String,
    /// Serving address of the replica's daemon (`host:port`). Empty while
    /// unassigned — the sharder cannot know ephemeral ports; the router
    /// requires every address it routes to be non-empty (overridable at
    /// startup via `repro route --replica-addr`).
    pub addr: String,
    /// Cells this replica owns (must match its manifest's entry count).
    pub cells: usize,
}

/// One cell's placement: which replica owns it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellAssignment {
    /// The corpus cell key.
    pub key: String,
    /// `Corpus::cell_hash(key)` as 16 lowercase hex digits (matches
    /// [`crate::corpus::CorpusEntry::hash`]).
    pub hash: String,
    /// Index into [`ClusterMap::replicas`] of the owning replica.
    pub replica: usize,
}

/// The shard map: schema version, provenance, replicas and the full cell →
/// replica assignment, in source-manifest order (so a router can reassemble
/// merged listings in the exact order the unsharded corpus would list them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMap {
    /// [`CLUSTER_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Tool and version that wrote the map, e.g. `repro shard 0.1.0`.
    pub created_by: String,
    /// `git describe --always --dirty` of the sharding build, or `unknown`.
    pub git_describe: String,
    /// The source corpus directory the shards were cut from (informational;
    /// paths inside the map are relative to the map's own directory).
    pub source_corpus: String,
    /// The replicas, in index order.
    pub replicas: Vec<ReplicaShard>,
    /// Every cell's placement, in source-manifest order.
    pub assignments: Vec<CellAssignment>,
}

impl ClusterMap {
    /// The owning replica index for a cell hash under `replicas` replicas:
    /// `hash % replicas`. This is the **only** assignment rule; recording it
    /// per cell in [`ClusterMap::assignments`] makes the map self-describing
    /// and auditable, not an alternative source of truth.
    #[must_use]
    pub fn assign(hash: u64, replicas: usize) -> usize {
        debug_assert!(replicas > 0, "a cluster has at least one replica");
        (hash % replicas as u64) as usize
    }

    /// Builds the shard map for `manifest` split across `replicas` replicas
    /// whose daemons answer at `addrs` (empty strings for not-yet-known
    /// addresses). Returns the map together with one sub-manifest per replica
    /// (entries in source-manifest order).
    ///
    /// # Errors
    /// Returns a message when `replicas` is zero, when `addrs` is neither
    /// empty nor exactly `replicas` long, or when some replica would own no
    /// cells (an empty sub-corpus cannot be served — use fewer replicas).
    /// These are mistakes in the arguments, not a corrupt corpus.
    pub fn partition(
        manifest: &CorpusManifest,
        replicas: usize,
        addrs: &[String],
        created_by: impl Into<String>,
        git_describe: impl Into<String>,
        source_corpus: impl Into<String>,
    ) -> Result<(ClusterMap, Vec<CorpusManifest>), String> {
        if replicas == 0 {
            return Err("cannot shard across zero replicas".to_string());
        }
        if !addrs.is_empty() && addrs.len() != replicas {
            return Err(format!(
                "{} address(es) given for {replicas} replica(s) (give none or exactly one each)",
                addrs.len()
            ));
        }
        let mut assignments = Vec::with_capacity(manifest.entries.len());
        let mut sub_manifests: Vec<CorpusManifest> = (0..replicas)
            .map(|_| CorpusManifest {
                schema_version: manifest.schema_version,
                entries: Vec::new(),
            })
            .collect();
        for entry in &manifest.entries {
            let hash = Corpus::cell_hash(&entry.key);
            let replica = ClusterMap::assign(hash, replicas);
            assignments.push(CellAssignment {
                key: entry.key.clone(),
                hash: format!("{hash:016x}"),
                replica,
            });
            sub_manifests[replica].entries.push(entry.clone());
        }
        if let Some(empty) = sub_manifests.iter().position(|sub| sub.entries.is_empty()) {
            return Err(format!(
                "replica {empty} would own no cells ({} cell(s) across {replicas} replica(s)); \
                 an empty sub-corpus cannot be served — use fewer replicas",
                manifest.entries.len()
            ));
        }
        let map = ClusterMap {
            schema_version: CLUSTER_SCHEMA_VERSION,
            created_by: created_by.into(),
            git_describe: git_describe.into(),
            source_corpus: source_corpus.into(),
            replicas: (0..replicas)
                .map(|index| ReplicaShard {
                    index,
                    dir: format!("replica-{index}"),
                    addr: addrs.get(index).cloned().unwrap_or_default(),
                    cells: sub_manifests[index].entries.len(),
                })
                .collect(),
            assignments,
        };
        Ok((map, sub_manifests))
    }

    /// Total cells across all replicas.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.assignments.len()
    }

    /// Structural integrity of the map: replica indices contiguous and in
    /// order, every assignment naming a real replica, per-replica cell counts
    /// consistent with the assignment list, and every assignment's hash/owner
    /// consistent with the assignment rule.
    ///
    /// # Errors
    /// Returns a [`TraceError::Corrupt`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.schema_version != CLUSTER_SCHEMA_VERSION {
            return Err(TraceError::corrupt(format!(
                "cluster schema {} unsupported (this build reads {CLUSTER_SCHEMA_VERSION})",
                self.schema_version
            )));
        }
        if self.replicas.is_empty() {
            return Err(TraceError::corrupt("cluster map has no replicas"));
        }
        for (index, replica) in self.replicas.iter().enumerate() {
            if replica.index != index {
                return Err(TraceError::corrupt(format!(
                    "replica at position {index} carries index {} (must be contiguous, in order)",
                    replica.index
                )));
            }
        }
        let mut counts = vec![0usize; self.replicas.len()];
        for assignment in &self.assignments {
            let hash = Corpus::cell_hash(&assignment.key);
            if assignment.hash != format!("{hash:016x}") {
                return Err(TraceError::corrupt(format!(
                    "cell `{}`: recorded hash {} does not match its key's hash {hash:016x}",
                    assignment.key, assignment.hash
                )));
            }
            if assignment.replica >= self.replicas.len() {
                return Err(TraceError::corrupt(format!(
                    "cell `{}` assigned to replica {} of {}",
                    assignment.key,
                    assignment.replica,
                    self.replicas.len()
                )));
            }
            if assignment.replica != ClusterMap::assign(hash, self.replicas.len()) {
                return Err(TraceError::corrupt(format!(
                    "cell `{}` assigned to replica {} but hashes to replica {}",
                    assignment.key,
                    assignment.replica,
                    ClusterMap::assign(hash, self.replicas.len())
                )));
            }
            counts[assignment.replica] += 1;
        }
        for (replica, count) in self.replicas.iter().zip(&counts) {
            if replica.cells != *count {
                return Err(TraceError::corrupt(format!(
                    "replica {} declares {} cell(s) but the assignments give it {count}",
                    replica.index, replica.cells
                )));
            }
        }
        Ok(())
    }

    /// Loads and validates a shard map from `path` (a `cluster.json` file).
    ///
    /// # Errors
    /// Fails when the file is absent, unreadable, unparsable, of a newer
    /// schema than this build understands, or structurally inconsistent.
    pub fn load(path: &Path) -> Result<ClusterMap, TraceError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TraceError::corrupt(format!("{}: {e}", path.display())))?;
        let map: ClusterMap = serde_json::from_str(&text)
            .map_err(|e| TraceError::corrupt(format!("{}: {e}", path.display())))?;
        map.validate()?;
        Ok(map)
    }

    /// Writes the map as pretty JSON to `path`.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(self).expect("cluster map is always serializable");
        std::fs::write(path, json)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusEntry;

    fn entry(key: &str) -> CorpusEntry {
        let hash = Corpus::cell_hash(key);
        CorpusEntry {
            key: key.to_string(),
            hash: format!("{hash:016x}"),
            file: Corpus::shard_rel_path(hash),
            code: "surface-d3".to_string(),
            family: "surface".to_string(),
            distance: 3,
            rounds: 9,
            p: 1e-3,
            leakage_ratio: 0.1,
            shots: 8,
            seed: 7,
            policy: "eraser+m".to_string(),
            trace_schema: 1,
        }
    }

    fn manifest(keys: &[&str]) -> CorpusManifest {
        CorpusManifest {
            schema_version: crate::corpus::MANIFEST_SCHEMA_VERSION,
            entries: keys.iter().map(|k| entry(k)).collect(),
        }
    }

    /// Keys that land on distinct replicas under 2-way sharding (verified by
    /// the assertion inside); regeneration guard if the hash ever changed.
    fn two_replica_keys() -> Vec<String> {
        let keys: Vec<String> = (0..8).map(|i| format!("cell-{i}")).collect();
        let owners: Vec<usize> =
            keys.iter().map(|k| ClusterMap::assign(Corpus::cell_hash(k), 2)).collect();
        assert!(owners.contains(&0) && owners.contains(&1), "owners: {owners:?}");
        keys
    }

    #[test]
    fn assignment_is_hash_mod_replicas() {
        for key in ["a", "b", "surface d=3"] {
            let hash = Corpus::cell_hash(key);
            for n in 1..5 {
                assert_eq!(ClusterMap::assign(hash, n), (hash % n as u64) as usize);
            }
        }
    }

    #[test]
    fn partition_splits_and_validates() {
        let keys = two_replica_keys();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let manifest = manifest(&refs);
        let (map, subs) =
            ClusterMap::partition(&manifest, 2, &[], "test 0.1.0", "unknown", "corpus").unwrap();
        map.validate().unwrap();
        assert_eq!(map.cells(), keys.len());
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].entries.len() + subs[1].entries.len(), keys.len());
        // Every cell is owned by exactly the replica whose sub-manifest holds it.
        for assignment in &map.assignments {
            assert!(subs[assignment.replica].entries.iter().any(|e| e.key == assignment.key));
        }
        // Assignments preserve source-manifest order.
        let assigned: Vec<&str> = map.assignments.iter().map(|a| a.key.as_str()).collect();
        assert_eq!(assigned, refs);
    }

    #[test]
    fn partition_rejects_empty_replicas_and_bad_addr_counts() {
        let manifest = manifest(&["only-cell"]);
        // 1 cell cannot feed 2 replicas: one would serve an empty corpus.
        let err = ClusterMap::partition(&manifest, 2, &[], "t", "u", "c").unwrap_err();
        assert!(err.contains("would own no cells"), "{err}");
        assert!(!err.contains("corrupt"), "an argument mistake is not corruption: {err}");
        assert!(ClusterMap::partition(&manifest, 0, &[], "t", "u", "c").is_err());
        let one_addr = ["127.0.0.1:1".to_string()];
        let err = ClusterMap::partition(&manifest, 1, &one_addr, "t", "u", "c").unwrap();
        assert_eq!(err.0.replicas[0].addr, "127.0.0.1:1");
        assert!(ClusterMap::partition(
            &manifest,
            1,
            &["a".to_string(), "b".to_string()],
            "t",
            "u",
            "c"
        )
        .is_err());
    }

    #[test]
    fn validate_catches_tampering() {
        let keys = two_replica_keys();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let (map, _) = ClusterMap::partition(&manifest(&refs), 2, &[], "t", "u", "c").unwrap();
        let mut wrong_owner = map.clone();
        wrong_owner.assignments[0].replica = 1 - wrong_owner.assignments[0].replica;
        assert!(wrong_owner.validate().is_err());
        let mut wrong_hash = map.clone();
        wrong_hash.assignments[0].hash = "0000000000000000".to_string();
        assert!(wrong_hash.validate().is_err());
        let mut wrong_count = map.clone();
        wrong_count.replicas[0].cells += 1;
        assert!(wrong_count.validate().is_err());
        let mut wrong_index = map.clone();
        wrong_index.replicas[1].index = 7;
        assert!(wrong_index.validate().is_err());
        let mut newer = map;
        newer.schema_version += 1;
        assert!(newer.validate().is_err());
    }

    #[test]
    fn map_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("qtr-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let keys = two_replica_keys();
        let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
        let (map, _) = ClusterMap::partition(
            &manifest(&refs),
            2,
            &["127.0.0.1:7701".to_string(), "127.0.0.1:7702".to_string()],
            "repro shard 0.1.0",
            "unknown",
            "corpus",
        )
        .unwrap();
        let path = dir.join(CLUSTER_FILE);
        map.save(&path).unwrap();
        let loaded = ClusterMap::load(&path).unwrap();
        assert_eq!(loaded, map);
        // A tampered file fails validation on load, not at first use.
        let text =
            std::fs::read_to_string(&path).unwrap().replace("\"replica\": 0", "\"replica\": 9");
        std::fs::write(&path, text).unwrap();
        assert!(ClusterMap::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

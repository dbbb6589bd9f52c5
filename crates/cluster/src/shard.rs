//! Cutting a recorded corpus into per-replica sub-corpora.
//!
//! [`shard_corpus`] partitions a corpus by the existing policy-free cell hash
//! (`Corpus::cell_hash(key) % replicas`) into N sub-corpora, each a complete
//! `shards/ + manifest.json` tree an **unmodified** `qec-serve` daemon can
//! serve, plus a `cluster.json` shard map (see [`qec_trace::cluster`]). Trace
//! files are copied byte-for-byte, and each sub-manifest is the verbatim
//! entry subset of the source manifest — so a replica's answers for its cells
//! are the monolithic daemon's answers, by construction.

use std::path::{Path, PathBuf};

use qec_trace::cluster::{ClusterMap, CLUSTER_FILE};
use qec_trace::corpus::MANIFEST_FILE;
use qec_trace::{Corpus, CorpusManifest};

/// Options for [`shard_corpus`].
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Replica daemon addresses recorded in the shard map, one per replica
    /// (`host:port`), or empty to leave them unassigned (the router's
    /// `--replica-addr` flags fill them at startup).
    pub addrs: Vec<String>,
    /// `created_by` provenance recorded in the map (e.g. `repro shard 0.1.0`).
    pub created_by: String,
    /// `git describe` provenance recorded in the map.
    pub git_describe: String,
}

/// Shards the corpus at `corpus_dir` across `replicas` sub-corpora under
/// `out_dir`, writing `out_dir/replica-<i>/{manifest.json,shards/...}` for
/// each replica and `out_dir/cluster.json` describing the partition. Returns
/// the written shard map.
///
/// The partition is by `Corpus::cell_hash(key) % replicas` — a pure function
/// of the key, never of manifest order — and every replica must end up owning
/// at least one cell (a daemon refuses to serve an empty corpus).
///
/// # Errors
/// Returns a message when the source corpus is missing or empty, a replica
/// would own no cells, the output directory already holds a shard map or
/// sub-corpus, or any file copy fails.
pub fn shard_corpus(
    corpus_dir: &Path,
    out_dir: &Path,
    replicas: usize,
    options: &ShardOptions,
) -> Result<ClusterMap, String> {
    let corpus = Corpus::open_existing(corpus_dir).map_err(|e| e.to_string())?;
    if corpus.entries().is_empty() {
        return Err(format!(
            "corpus {} is empty — nothing to shard (record cells first)",
            corpus_dir.display()
        ));
    }
    let cluster_path = out_dir.join(CLUSTER_FILE);
    if cluster_path.exists() {
        return Err(format!(
            "{} already exists — refusing to overwrite an existing shard map \
             (use a fresh --out directory)",
            cluster_path.display()
        ));
    }
    let manifest = CorpusManifest {
        schema_version: qec_trace::MANIFEST_SCHEMA_VERSION,
        entries: corpus.entries().to_vec(),
    };
    let (map, sub_manifests) = ClusterMap::partition(
        &manifest,
        replicas,
        &options.addrs,
        options.created_by.clone(),
        options.git_describe.clone(),
        corpus_dir.display().to_string(),
    )?;
    for (replica, sub) in map.replicas.iter().zip(&sub_manifests) {
        let replica_dir = out_dir.join(&replica.dir);
        if replica_dir.join(MANIFEST_FILE).exists() {
            return Err(format!(
                "{} already holds a corpus — refusing to overwrite (use a fresh --out directory)",
                replica_dir.display()
            ));
        }
        write_sub_corpus(&corpus, &replica_dir, sub)?;
    }
    map.save(&cluster_path).map_err(|e| e.to_string())?;
    Ok(map)
}

/// Writes one replica's sub-corpus: the subset manifest verbatim plus a
/// byte-for-byte copy of each owned trace file (same shard-relative paths, so
/// the sub-corpus is indistinguishable from one recorded in place).
fn write_sub_corpus(
    source: &Corpus,
    replica_dir: &Path,
    manifest: &CorpusManifest,
) -> Result<(), String> {
    for entry in &manifest.entries {
        let from: PathBuf = source.dir().join(&entry.file);
        let to = replica_dir.join(&entry.file);
        if let Some(parent) = to.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        std::fs::copy(&from, &to)
            .map_err(|e| format!("copy {} -> {}: {e}", from.display(), to.display()))?;
    }
    let json = serde_json::to_string_pretty(manifest).expect("manifest is always serializable");
    std::fs::write(replica_dir.join(MANIFEST_FILE), json)
        .map_err(|e| format!("{}: {e}", replica_dir.join(MANIFEST_FILE).display()))?;
    Ok(())
}

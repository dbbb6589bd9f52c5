//! Corpus-level edge cases: a manifest that disagrees with its shards must
//! produce loud typed errors — no panics, no silent skips, no silently
//! replaying the wrong workload.

use std::path::PathBuf;

use leakage_speculation::PolicyKind;
use qec_experiments::replay::{load_entry, record_into_corpus};
use qec_experiments::{CodeFamily, Scenario};
use qec_trace::Corpus;

fn scenario() -> Scenario {
    Scenario {
        code: CodeFamily::Surface,
        distance: 3,
        rounds: 6,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy: PolicyKind::EraserM,
        shots: 2,
        seed: 19,
        decode: false,
        decoder: None,
    }
}

fn recorded_corpus(name: &str) -> (PathBuf, Corpus) {
    let dir = std::env::temp_dir().join(format!("qtr-edges-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut corpus = Corpus::open(&dir).unwrap();
    record_into_corpus(&mut corpus, &scenario(), PolicyKind::EraserM, "edge test").unwrap();
    corpus.save().unwrap();
    (dir, corpus)
}

#[test]
fn manifest_metadata_that_disagrees_with_the_shard_header_is_rejected() {
    type Edit = fn(&mut qec_trace::CorpusEntry);
    let cases: [(&str, &str, Edit); 9] = [
        ("rounds", "rounds", |e| e.rounds = 99),
        ("shots", "shots", |e| e.shots = 77),
        ("seed", "seed", |e| e.seed = 1234),
        ("policy", "policy", |e| e.policy = "ideal".to_string()),
        ("schema", "trace_schema", |e| e.trace_schema = 42),
        ("code", "code=surface-d5", |e| e.code = "surface-d5".to_string()),
        ("p", "p=0.002", |e| e.p = 2e-3),
        ("lr", "leakage_ratio=1", |e| e.leakage_ratio = 1.0),
        ("key", "key=surface d=3 rounds=6 p=1e-3 lr=1e-1 shots=2 seed=20", |e| {
            e.key = e.key.replace("seed=19", "seed=20");
        }),
    ];
    for (name, field, edit) in cases {
        let (dir, corpus) = recorded_corpus(name);
        let mut entry = corpus.entries()[0].clone();
        edit(&mut entry);
        let err = load_entry(&corpus, &entry).unwrap_err();
        assert!(
            err.contains("manifest") && err.contains(field),
            "{name}: error must name the mismatched {field} field, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_manifest_entry_pointing_at_a_missing_shard_is_an_io_error() {
    let (dir, corpus) = recorded_corpus("missing-shard");
    let mut entry = corpus.entries()[0].clone();
    entry.file = "shards/00/0000000000000000.qtr".to_string();
    let err = load_entry(&corpus, &entry).unwrap_err();
    assert!(err.contains("0000000000000000.qtr"), "error must name the missing shard: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_manifest_entry_with_the_wrong_code_family_is_rejected() {
    let (dir, corpus) = recorded_corpus("wrong-code");
    let mut entry = corpus.entries()[0].clone();
    // Claim the shard holds a d=5 recording: the fingerprint check must refuse.
    entry.distance = 5;
    let err = load_entry(&corpus, &entry).unwrap_err();
    assert!(err.contains("does not match"), "{err}");
    // Sizes are checked against the shard header before any code is built: an
    // even surface distance would panic the constructor, and a huge one would
    // spend minutes building a code the shard never held.
    for (distance, expected) in [
        (4, "surface does not admit size 4"),
        (1001, "surface-d1001 does not match the trace's recorded code surface-d3"),
    ] {
        let mut entry = corpus.entries()[0].clone();
        entry.distance = distance;
        let err = load_entry(&corpus, &entry).unwrap_err();
        assert!(err.contains(&format!("distance={distance}")) && err.contains(expected), "{err}");
    }

    let mut family = corpus.entries()[0].clone();
    family.family = "steane".to_string();
    let err = load_entry(&corpus, &family).unwrap_err();
    assert!(err.contains("unknown code family"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_shard_fails_the_corpus_load_loudly() {
    let (dir, corpus) = recorded_corpus("bit-rot");
    let entry = corpus.entries()[0].clone();
    let path = corpus.trace_path(&entry);
    let mut bytes = std::fs::read(&path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let err = load_entry(&corpus, &entry).unwrap_err();
    assert!(err.contains("corrupt") || err.contains("CRC"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

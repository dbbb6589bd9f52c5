//! The record-once / replay-many determinism contract.
//!
//! These tests pin the tentpole guarantee of the trace subsystem: replaying a
//! recorded corpus reproduces the live engine's FP/FN/DLP and LRC-count
//! metrics (and the LER, when decoding) **bit-for-bit** for every
//! [`PolicyKind`], on disk as well as in memory, and corpus-backed sweeps
//! simulate each cell exactly once.

use std::path::PathBuf;
use std::sync::Arc;

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_experiments::engine::build_backend;
use qec_experiments::replay::{
    calibration_for, cell_key, evaluate_cell, extend_into_corpus, load_entry, record_cell,
    record_into_corpus, replay_corpus, spec_from_header, ExtendDisposition, LoadedCell, ReplayMode,
    ReplayOptions,
};
use qec_experiments::sweep::{run_sweep, run_sweep_with_corpus, SweepSpec};
use qec_experiments::{BatchEngine, CodeFamily, Scenario};
use qec_trace::Corpus;

fn scenario(policy: PolicyKind) -> Scenario {
    Scenario {
        code: CodeFamily::Surface,
        distance: 3,
        rounds: 10,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy,
        shots: 4,
        seed: 29,
        decode: true,
        decoder: None,
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qtr-replay-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// THE acceptance test: for all 11 policy kinds, record a cell with the
/// policy live, replay the same policy against the trace, and require the
/// replayed aggregate metrics — FP/FN, data/ancilla LRC counts, DLP series,
/// cycle times *and* the decoded logical error rate — to equal the live
/// engine's bit for bit, with zero schedule divergence.
#[test]
fn replayed_metrics_match_the_live_engine_bit_for_bit_for_every_policy_kind() {
    for kind in PolicyKind::ALL {
        let scenario = scenario(kind);
        let code = scenario.build_code();
        let spec = scenario.to_spec();
        let live = BatchEngine::new(&code, &spec).run();

        let (header, shots) = record_cell(&scenario, kind, "replay test");
        let cell = LoadedCell { header, shots, code: code.clone() };
        let factory = Arc::new(PolicyFactory::new(&code, &calibration_for(&cell.header)));
        let decoder = build_backend(None, &code, scenario.rounds).unwrap();
        let replay =
            evaluate_cell(&cell, &factory, kind, Some(&*decoder), ReplayMode::OpenLoop).unwrap();

        assert_eq!(replay.divergent_shots, 0, "{kind:?} must replay its own schedule exactly");
        assert_eq!(replay.metrics, live.metrics, "{kind:?} replayed metrics must be bit-for-bit");
        assert!(
            replay.metrics.logical_error_rate.is_some(),
            "{kind:?} replay must decode the reconstructed runs"
        );
    }
}

/// The same guarantee holds through the full on-disk path: corpus directory,
/// sharded `.qtr` file, manifest lookup, reload, replay.
#[test]
fn corpus_round_trip_preserves_bit_for_bit_replay() {
    let dir = tmp_dir("roundtrip");
    let scenario = scenario(PolicyKind::GladiatorM);
    let mut corpus = Corpus::open(&dir).unwrap();
    let entry =
        record_into_corpus(&mut corpus, &scenario, PolicyKind::GladiatorM, "replay test").unwrap();
    corpus.save().unwrap();
    assert!(corpus.trace_path(&entry).exists(), "sharded trace file on disk");
    assert_eq!(entry.key, cell_key(&scenario));

    let reopened = Corpus::open(&dir).unwrap();
    let cell = load_entry(&reopened, reopened.lookup(&entry.key).unwrap()).unwrap();
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    let decoder = build_backend(None, &cell.code, scenario.rounds).unwrap();
    let replay = evaluate_cell(
        &cell,
        &factory,
        PolicyKind::GladiatorM,
        Some(&*decoder),
        ReplayMode::OpenLoop,
    )
    .unwrap();

    let live = BatchEngine::new(&cell.code, &scenario.to_spec()).run();
    assert_eq!(replay.metrics, live.metrics);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Growing a recorded cell equals recording it from scratch: asking for 3
/// shots, then 7, then 7 again records, grows by 4 and hits the cache, and the
/// grown shard and entry equal a 7-shot recording byte for byte.
#[test]
fn growing_a_cell_matches_recording_it_from_scratch() {
    let (grown_dir, fresh_dir) = (tmp_dir("grow"), tmp_dir("grow-fresh"));
    let cell = |shots| Scenario { shots, ..scenario(PolicyKind::GladiatorM) };
    let mut grown = Corpus::open(&grown_dir).unwrap();
    let mut grow = |shots| {
        extend_into_corpus(&mut grown, &cell(shots), PolicyKind::GladiatorM, "replay test").unwrap()
    };
    let (short, recorded) = grow(3);
    let (entry, extended) = grow(7);
    let (cached, again) = grow(7);
    assert_eq!(recorded, ExtendDisposition::Recorded);
    assert_eq!(extended, ExtendDisposition::Extended { appended: 4 });
    assert_eq!(again, ExtendDisposition::Cached);
    assert_eq!(cached, entry);
    assert!(!grown.trace_path(&short).exists(), "the 3-shot shard is gone");
    assert_eq!(grown.entries(), std::slice::from_ref(&entry));

    let mut fresh = Corpus::open(&fresh_dir).unwrap();
    let from_scratch =
        record_into_corpus(&mut fresh, &cell(7), PolicyKind::GladiatorM, "replay test").unwrap();
    assert_eq!(entry, from_scratch);
    assert_eq!(
        std::fs::read(grown.trace_path(&entry)).unwrap(),
        std::fs::read(fresh.trace_path(&from_scratch)).unwrap()
    );
    let _ = std::fs::remove_dir_all(&grown_dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// Re-recording a key under another policy writes a temporary sibling and
/// renames it into place only when complete: a write that cannot start leaves
/// the live shard as it was.
#[test]
fn a_blocked_re_record_leaves_the_live_shard_untouched() {
    let dir = tmp_dir("blocked");
    let scenario = scenario(PolicyKind::EraserM);
    let mut corpus = Corpus::open(&dir).unwrap();
    let entry =
        record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "replay test").unwrap();
    corpus.save().unwrap();
    let shard = corpus.trace_path(&entry);
    let before = std::fs::read(&shard).unwrap();
    std::fs::create_dir(shard.with_extension("qtr.tmp")).unwrap();
    let result = extend_into_corpus(&mut corpus, &scenario, PolicyKind::GladiatorM, "replay test");
    assert!(result.is_err(), "a blocked re-record must fail: {result:?}");
    assert_eq!(std::fs::read(&shard).unwrap(), before, "the live shard must not change");
    let saved = Corpus::open(&dir).unwrap();
    load_entry(&saved, saved.lookup(&entry.key).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `spec_from_header` reconstructs the recording spec exactly, so live
/// verification re-simulates the very same execution.
#[test]
fn spec_from_header_reproduces_the_recording_spec() {
    let scenario = scenario(PolicyKind::EraserM);
    let (header, _) = record_cell(&scenario, PolicyKind::EraserM, "replay test");
    let spec = spec_from_header(&header, PolicyKind::EraserM, true);
    assert_eq!(spec, scenario.to_spec());
}

/// `replay_corpus` with live verification confirms every exact pairing, and
/// cross-policy replay reports open-loop speculation scores with divergence.
#[test]
fn replay_corpus_verifies_live_and_scores_cross_policy_speculation() {
    let dir = tmp_dir("corpus");
    let mut corpus = Corpus::open(&dir).unwrap();
    let scenario = scenario(PolicyKind::EraserM);
    record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "replay test").unwrap();
    corpus.save().unwrap();

    let options = ReplayOptions {
        policies: vec![PolicyKind::EraserM, PolicyKind::GladiatorM, PolicyKind::AlwaysLrc],
        decode: true,
        decoders: Vec::new(),
        verify_live: true,
        mode: ReplayMode::OpenLoop,
    };
    let report = replay_corpus(&dir, &options).unwrap();
    assert_eq!(report.results.len(), 3);

    let exact = &report.results[0];
    assert!(exact.exact);
    assert_eq!(exact.divergent_shots, 0);
    assert_eq!(exact.live_match, Some(true), "replayed metrics must equal the live engine");
    assert!(exact.metrics.logical_error_rate.is_some());

    for other in &report.results[1..] {
        assert!(!other.exact);
        assert!(other.live_match.is_none(), "live verification only applies to exact pairings");
        // DLP is a property of the recorded execution, identical across policies.
        assert_eq!(other.metrics.dlp_series, exact.metrics.dlp_series);
    }
    // Always-LRC plans a full schedule every round: guaranteed divergence from
    // the recorded ERASER+M trace.
    assert_eq!(report.results[2].divergent_shots, scenario.shots);
    let _ = std::fs::remove_dir_all(&dir);
}

fn corpus_sweep_spec() -> SweepSpec {
    SweepSpec {
        code: CodeFamily::Surface,
        distances: vec![3],
        error_rates: vec![1e-3, 2e-3],
        leakage_ratios: vec![0.1],
        policies: vec![PolicyKind::EraserM, PolicyKind::GladiatorM, PolicyKind::Ideal],
        shots: 3,
        rounds_per_distance: 2,
        seed: 13,
        decode: true,
        decoders: None,
        adaptive: None,
    }
}

/// A corpus-backed sweep records each policy-free cell once and replays every
/// grid policy against it; the recording policy's cells are bit-for-bit the
/// fully simulated sweep's.
#[test]
fn corpus_sweep_records_each_cell_once_and_pins_the_recording_policy_cells() {
    let dir = tmp_dir("sweep");
    let spec = corpus_sweep_spec();
    let report = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::OpenLoop).unwrap();
    assert_eq!(report.recorded_policy.as_deref(), Some("eraser+m"));
    assert_eq!(report.cells.len(), 6, "2 error rates x 3 policies");

    // One trace per policy-free cell: 2, not 6.
    let corpus = Corpus::open(&dir).unwrap();
    assert_eq!(corpus.entries().len(), 2, "policies must not trigger extra recordings");

    // Cells of the recording policy match a fully simulated sweep bit for bit.
    let live = run_sweep(&spec, false).unwrap();
    for (corpus_cell, live_cell) in report.cells.iter().zip(&live.cells) {
        assert_eq!(corpus_cell.scenario, live_cell.scenario);
        if corpus_cell.scenario.policy == PolicyKind::EraserM {
            assert_eq!(corpus_cell.metrics, live_cell.metrics, "{}", corpus_cell.scenario.id());
        }
    }

    // Re-running against the populated corpus replays from disk and reproduces
    // the report byte-for-byte (timing disabled).
    let rerun = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::OpenLoop).unwrap();
    assert_eq!(rerun, report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An explicit `--record-policy` overrides the grid's first policy.
#[test]
fn corpus_sweep_honors_an_explicit_recording_policy() {
    let dir = tmp_dir("recpol");
    let spec = corpus_sweep_spec();
    let report =
        run_sweep_with_corpus(&spec, &dir, Some(PolicyKind::Ideal), false, ReplayMode::OpenLoop)
            .unwrap();
    assert_eq!(report.recorded_policy.as_deref(), Some("ideal"));
    let corpus = Corpus::open(&dir).unwrap();
    assert!(corpus.entries().iter().all(|e| e.policy == "ideal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reusing a corpus with mismatched execution parameters fails loudly instead
/// of silently replaying the wrong workload.
#[test]
fn corpus_sweep_rejects_stale_cells_with_different_shot_counts() {
    let dir = tmp_dir("stale");
    let spec = corpus_sweep_spec();
    let _ = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::OpenLoop).unwrap();
    // Same key components except shots: the key changes, so this records new
    // cells — but a manually altered manifest key must be caught.
    let mut corpus = Corpus::open(&dir).unwrap();
    let mut entry = corpus.entries()[0].clone();
    let other_key = entry.key.replace("shots=3", "shots=5");
    entry.key = other_key;
    corpus.insert(entry);
    corpus.save().unwrap();
    let bigger = SweepSpec { shots: 5, ..spec };
    let err = run_sweep_with_corpus(&bigger, &dir, None, false, ReplayMode::OpenLoop).unwrap_err();
    assert!(err.contains("recorded with"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache hit recorded under a different policy than the sweep's recording
/// policy must error (it would silently mislabel the report's exact cells).
#[test]
fn corpus_sweep_rejects_cells_recorded_under_a_different_policy() {
    let dir = tmp_dir("polmismatch");
    let spec = corpus_sweep_spec();
    // Populate the corpus under `ideal`, then sweep with the default
    // recording policy (the grid's first: eraser+m).
    let _ =
        run_sweep_with_corpus(&spec, &dir, Some(PolicyKind::Ideal), false, ReplayMode::OpenLoop)
            .unwrap();
    let err = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::OpenLoop).unwrap_err();
    assert!(err.contains("recorded with policy `ideal`"), "{err}");
    assert!(err.contains("--record-policy"), "{err}");
    // Passing the matching recording policy replays the cached cells fine.
    let ok =
        run_sweep_with_corpus(&spec, &dir, Some(PolicyKind::Ideal), false, ReplayMode::OpenLoop)
            .unwrap();
    assert_eq!(ok.recorded_policy.as_deref(), Some("ideal"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read-only corpus consumers fail loudly on a path that is not a corpus,
/// instead of verifying an empty one vacuously.
#[test]
fn replaying_a_nonexistent_corpus_is_an_error() {
    let dir = tmp_dir("missing"); // created by nobody
    let err = replay_corpus(&dir, &ReplayOptions::default()).unwrap_err();
    assert!(err.contains("not a corpus"), "{err}");
}

/// The cross-decoder oracle: a corpus replayed once per backend produces,
/// for **every** policy kind under closed-loop repair, rows bit-identical to
/// a from-scratch live simulation decoding with that same backend
/// (`verify_live` re-runs the live engine per pairing and compares metrics
/// bit for bit). Decoder-invariant metrics agree across backends, and the
/// exact d=3 lookup decoder is never worse than union-find on the recorded
/// pairing.
#[test]
fn cross_decoder_closed_loop_rows_match_from_scratch_live_runs_for_every_policy() {
    use qec_decoder::DecoderKind;
    use qec_experiments::replay::replay_corpus_with_stats;

    let dir = tmp_dir("oracle");
    let mut corpus = Corpus::open(&dir).unwrap();
    let scenario = scenario(PolicyKind::EraserM);
    record_into_corpus(&mut corpus, &scenario, PolicyKind::EraserM, "replay test").unwrap();
    corpus.save().unwrap();

    let options = ReplayOptions {
        policies: PolicyKind::ALL.to_vec(),
        decode: true,
        decoders: vec![DecoderKind::UnionFind, DecoderKind::Lookup],
        verify_live: true,
        mode: ReplayMode::ClosedLoop,
    };
    let (report, _) = replay_corpus_with_stats(&dir, &options).unwrap();
    assert_eq!(report.results.len(), 2 * PolicyKind::ALL.len(), "decoder-major × policies");

    for row in &report.results {
        assert_eq!(
            row.live_match,
            Some(true),
            "{} with {:?} must match its live run bit for bit",
            row.policy,
            row.decoder
        );
        assert!(row.metrics.logical_error_rate.is_some(), "{} must decode", row.policy);
    }

    let (uf, lookup) = report.results.split_at(PolicyKind::ALL.len());
    for (u, l) in uf.iter().zip(lookup) {
        assert_eq!(u.policy, l.policy, "decoder-major row order");
        assert_eq!(u.decoder.as_deref(), Some("uf"));
        assert_eq!(l.decoder.as_deref(), Some("lookup"));
        // Everything upstream of decoding is a property of the replayed
        // execution: identical whichever backend scores it.
        assert_eq!(u.metrics.false_negatives, l.metrics.false_negatives, "{}", u.policy);
        assert_eq!(u.metrics.false_positives, l.metrics.false_positives, "{}", u.policy);
        assert_eq!(u.metrics.dlp_series, l.metrics.dlp_series, "{}", u.policy);
        assert_eq!(u.divergent_shots, l.divergent_shots, "{}", u.policy);
    }
    // The lookup table is exact maximum-likelihood for the folded final-frame
    // syndrome, so neither decoder dominates on every pairing of a few shots;
    // summed over all policies (the form CI's decode-smoke uses) it must not
    // lose to union-find.
    let uf_ler: f64 = uf.iter().map(|r| r.metrics.logical_error_rate.unwrap()).sum();
    let lookup_ler: f64 = lookup.iter().map(|r| r.metrics.logical_error_rate.unwrap()).sum();
    assert!(lookup_ler <= uf_ler, "summed lookup LER {lookup_ler} > union-find LER {uf_ler}");
    let _ = std::fs::remove_dir_all(&dir);
}

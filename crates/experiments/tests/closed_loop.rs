//! The exact-counterfactual contract of closed-loop replay.
//!
//! Open-loop replay scores a candidate policy against the *recorded*
//! execution; once the candidate's planned LRC schedule diverges, every later
//! round is counterfactual and the recorded observables no longer describe
//! what that policy would have caused. Closed-loop replay repairs the
//! divergence by re-simulating from the first divergent round under the
//! recorded `seed + shot` contract — so its metrics must be **bit-identical**
//! to a from-scratch live simulation of the candidate policy on the same cell
//! and seeds. Full re-simulation is therefore an exact oracle; these tests pin
//! every new code path against it, for all 11 policy kinds, across a
//! `(d, rounds, p, lr, seed)` grid, and under randomized cell parameters.

use std::sync::Arc;

use leakage_speculation::{PolicyFactory, PolicyKind};
use proptest::prelude::*;
use qec_decoder::DecoderBackend;
use qec_experiments::engine::build_backend;
use qec_experiments::replay::{
    calibration_for, evaluate_cell, evaluate_cell_set, record_cell, record_into_corpus,
    replay_corpus, spec_from_header, CellReplay, LoadedCell, ReplayMode, ReplayOptions,
};
use qec_experiments::report::to_json;
use qec_experiments::sweep::{run_sweep, run_sweep_with_corpus, SweepSpec};
use qec_experiments::{BatchEngine, CodeFamily, Scenario};
use qec_trace::Corpus;

fn cell_scenario(
    distance: usize,
    rounds: usize,
    p: f64,
    leakage_ratio: f64,
    seed: u64,
    policy: PolicyKind,
) -> Scenario {
    Scenario {
        code: CodeFamily::Surface,
        distance,
        rounds,
        p,
        leakage_ratio,
        policy,
        shots: 3,
        seed,
        decode: true,
        decoder: None,
    }
}

/// Records `scenario` closed-loop under its own policy and loads the cell.
fn record_loaded(scenario: &Scenario) -> LoadedCell {
    let code = scenario.build_code();
    let (header, shots) = record_cell(scenario, scenario.policy, "closed-loop test");
    LoadedCell { header, shots, code }
}

/// Closed-loop replays `candidate` against `cell` and asserts the aggregated
/// metrics are bit-identical to a from-scratch live simulation of that
/// candidate on the same cell and seeds — the exact-counterfactual contract.
fn assert_exact_counterfactual(
    cell: &LoadedCell,
    candidate: PolicyKind,
    decode: bool,
) -> CellReplay {
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    let decoder = decode.then(|| build_backend(None, &cell.code, cell.header.rounds).unwrap());
    let replay =
        evaluate_cell(cell, &factory, candidate, decoder.as_deref(), ReplayMode::ClosedLoop)
            .unwrap();
    let spec = spec_from_header(&cell.header, candidate, decode);
    let live = BatchEngine::new(&cell.code, &spec).run();
    assert_eq!(
        replay.metrics,
        live.metrics,
        "closed-loop metrics of {candidate:?} must be bit-identical to live re-simulation \
         (recorded policy {}, code {}, rounds={} seed={})",
        cell.header.policy,
        cell.code.name(),
        cell.header.rounds,
        cell.header.seed
    );
    if decode {
        assert!(replay.metrics.logical_error_rate.is_some(), "{candidate:?} must decode");
    }
    replay
}

/// THE oracle test: for every one of the 11 policy kinds, closed-loop replay
/// against a GLADIATOR+M recording must reproduce a from-scratch live run of
/// that policy bit-for-bit — DLP series, FP/FN, LRC counts, cycle times *and*
/// the decoded logical error rate.
#[test]
fn closed_loop_replay_is_bit_identical_to_live_simulation_for_all_11_policies() {
    let scenario = cell_scenario(3, 10, 1e-3, 0.1, 29, PolicyKind::GladiatorM);
    let cell = record_loaded(&scenario);
    for candidate in PolicyKind::ALL {
        let replay = assert_exact_counterfactual(&cell, candidate, true);
        let profile = replay.profile.expect("closed-loop replay always profiles");
        assert_eq!(profile.shots, scenario.shots);
        if candidate == PolicyKind::GladiatorM {
            assert_eq!(replay.divergent_shots, 0, "recording policy must never diverge");
            assert_eq!(profile.resimulated_rounds, 0);
        }
    }
}

/// The contract holds across a grid of `(d, rounds, p, lr, seed)` cells and
/// across different recording policies, not just the base cell.
#[test]
fn closed_loop_replay_is_exact_across_a_parameter_grid() {
    let grid = [
        (3, 8, 1e-3, 0.1, 29, PolicyKind::EraserM),
        (3, 12, 2e-3, 0.5, 101, PolicyKind::NoLrc),
        (5, 10, 1e-3, 0.1, 7, PolicyKind::GladiatorM),
        (3, 6, 5e-3, 0.25, 3, PolicyKind::Staggered),
    ];
    for (d, rounds, p, lr, seed, recorded) in grid {
        let scenario = cell_scenario(d, rounds, p, lr, seed, recorded);
        let cell = record_loaded(&scenario);
        for candidate in
            [recorded, PolicyKind::AlwaysLrc, PolicyKind::Ideal, PolicyKind::GladiatorDM]
        {
            let _ = assert_exact_counterfactual(&cell, candidate, true);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized cells: any surface distance/rounds/noise point/seed and any
    /// (recording, candidate) policy pairing must satisfy the contract.
    #[test]
    fn closed_loop_replay_is_exact_on_random_cells(
        distance_index in 0usize..2,
        rounds in 2usize..12,
        p in 1e-4f64..5e-3,
        leakage_ratio in 0.0f64..1.0,
        seed in any::<u32>(),
        recorded_index in 0usize..11,
        candidate_index in 0usize..11,
    ) {
        let distance = [3, 5][distance_index];
        let recorded = PolicyKind::ALL[recorded_index];
        let candidate = PolicyKind::ALL[candidate_index];
        let scenario =
            cell_scenario(distance, rounds, p, leakage_ratio, u64::from(seed), recorded);
        prop_assert!(scenario.validate().is_ok());
        let cell = record_loaded(&scenario);
        // Decoding is covered by the fixed-grid tests; skip it here so the
        // randomized suite stays fast at d=5.
        let _ = assert_exact_counterfactual(&cell, candidate, false);
    }
}

/// Divergence-profile invariants on real replays: counts are conserved, the
/// cumulative curve is monotone, and the same-policy degenerate path reports
/// zero divergence and zero re-simulation.
#[test]
fn divergence_profiles_are_consistent_on_real_replays() {
    let scenario = cell_scenario(3, 10, 2e-3, 0.2, 41, PolicyKind::GladiatorM);
    let cell = record_loaded(&scenario);
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    for candidate in [PolicyKind::GladiatorM, PolicyKind::AlwaysLrc, PolicyKind::EraserM] {
        let replay =
            evaluate_cell(&cell, &factory, candidate, None, ReplayMode::ClosedLoop).unwrap();
        let profile = replay.profile.expect("closed-loop replay always profiles");
        assert_eq!(profile.shots, scenario.shots, "{candidate:?}");
        assert_eq!(profile.rounds, scenario.rounds, "{candidate:?}");
        assert_eq!(profile.first_divergence.len(), scenario.rounds, "{candidate:?}");
        assert_eq!(
            profile.first_divergence.iter().sum::<usize>(),
            profile.divergent_shots,
            "{candidate:?}: first-divergence counts must sum to the divergent shots"
        );
        assert_eq!(
            profile.divergent_shots + profile.exact_shots(),
            scenario.shots,
            "{candidate:?}: every shot is either exact or divergent"
        );
        assert_eq!(profile.divergent_shots, replay.divergent_shots, "{candidate:?}");
        let cumulative = profile.cumulative_divergent();
        assert!(
            cumulative.windows(2).all(|w| w[0] <= w[1]),
            "{candidate:?}: cumulative divergence must be monotone in the round index"
        );
        assert_eq!(cumulative.last().copied(), Some(profile.divergent_shots), "{candidate:?}");
        assert!(profile.resimulated_rounds <= (scenario.shots * scenario.rounds) as u64);
        // Every divergent shot pays its full round count on the simulator
        // (forced prefix + live suffix), which is what simulated_fraction
        // reports.
        assert_eq!(
            profile.resimulated_rounds + profile.restored_rounds,
            (profile.divergent_shots * profile.rounds) as u64,
            "{candidate:?}"
        );
        let expected = profile.divergent_shots as f64 / profile.shots as f64;
        assert!((profile.simulated_fraction() - expected).abs() < 1e-12, "{candidate:?}");
        if candidate == PolicyKind::GladiatorM {
            // Degenerate-path regression: same-policy closed-loop replay is
            // pure replay — zero divergences, zero re-simulated rounds.
            assert_eq!(profile.divergent_shots, 0);
            assert_eq!(profile.resimulated_rounds, 0);
            assert!(profile.resimulated_fraction().abs() < 1e-12);
        } else if profile.divergent_shots > 0 {
            assert!(profile.resimulated_rounds > 0, "{candidate:?}");
        }
    }
    // Always-LRC against a speculative recording diverges in round 0 of every
    // shot: the profile concentrates there and everything is re-simulated.
    let always =
        evaluate_cell(&cell, &factory, PolicyKind::AlwaysLrc, None, ReplayMode::ClosedLoop)
            .unwrap();
    let profile = always.profile.unwrap();
    assert_eq!(profile.first_divergence[0], scenario.shots);
    assert_eq!(profile.resimulated_rounds, (scenario.shots * scenario.rounds) as u64);
    assert_eq!(profile.restored_rounds, 0, "round-0 divergence leaves no prefix to restore");
    assert!((profile.resimulated_fraction() - 1.0).abs() < 1e-12);
    assert!((profile.simulated_fraction() - 1.0).abs() < 1e-12);
}

/// A closed-loop corpus sweep must reproduce a fully simulated sweep of every
/// grid policy bit-for-bit — every cell, not just the recording policy's —
/// while carrying divergence profiles and the `closed-loop` provenance field.
#[test]
fn closed_loop_corpus_sweep_matches_a_fully_simulated_sweep_for_every_policy() {
    let dir = std::env::temp_dir().join(format!("qtr-closed-loop-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec {
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
    };
    let report = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::ClosedLoop).unwrap();
    assert_eq!(report.replay_mode.as_deref(), Some("closed-loop"));
    assert_eq!(report.recorded_policy.as_deref(), Some("eraser+m"));
    let live = run_sweep(&spec, false).unwrap();
    assert_eq!(live.replay_mode, None);
    assert_eq!(report.cells.len(), live.cells.len());
    for (corpus_cell, live_cell) in report.cells.iter().zip(&live.cells) {
        assert_eq!(corpus_cell.scenario, live_cell.scenario);
        // The headline: EVERY policy's cell equals full re-simulation, LER
        // included — not just the recording policy's.
        assert_eq!(corpus_cell.metrics, live_cell.metrics, "{}", corpus_cell.scenario.id());
        let profile =
            corpus_cell.divergence_profile.as_ref().expect("closed-loop cells carry profiles");
        assert_eq!(profile.shots, spec.shots);
        if corpus_cell.scenario.policy == PolicyKind::EraserM {
            assert_eq!(profile.divergent_shots, 0, "recording policy never diverges");
        }
        assert!(live_cell.divergence_profile.is_none(), "simulated cells carry no profile");
    }
    // Deterministic: a rerun from the populated corpus is identical.
    let rerun = run_sweep_with_corpus(&spec, &dir, None, false, ReplayMode::ClosedLoop).unwrap();
    assert_eq!(rerun, report);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `replay_corpus` in closed-loop mode live-verifies **every** pairing (the
/// CLI's `replay --closed-loop --verify-live` gate) and reports profiles.
#[test]
fn closed_loop_replay_corpus_live_verifies_every_policy() {
    let dir = std::env::temp_dir().join(format!("qtr-closed-loop-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scenario = cell_scenario(3, 8, 1e-3, 0.1, 57, PolicyKind::GladiatorM);
    let mut corpus = Corpus::open(&dir).unwrap();
    record_into_corpus(&mut corpus, &scenario, PolicyKind::GladiatorM, "closed-loop test").unwrap();
    corpus.save().unwrap();
    let options = ReplayOptions {
        policies: vec![PolicyKind::GladiatorM, PolicyKind::AlwaysLrc, PolicyKind::MlrOnly],
        decode: true,
        decoders: Vec::new(),
        verify_live: true,
        mode: ReplayMode::ClosedLoop,
    };
    let report = replay_corpus(&dir, &options).unwrap();
    assert_eq!(report.replay_mode, "closed-loop");
    assert_eq!(report.results.len(), 3);
    for row in &report.results {
        assert_eq!(
            row.live_match,
            Some(true),
            "{}: closed-loop metrics must verify against live simulation",
            row.policy
        );
        assert!(row.metrics.logical_error_rate.is_some(), "{}: closed-loop decodes", row.policy);
        let profile = row.divergence_profile.as_ref().expect("closed-loop rows carry profiles");
        assert_eq!(profile.divergent_shots, row.divergent_shots);
    }
    assert!(report.results[0].exact);
    assert_eq!(report.results[0].divergent_shots, 0);
    assert!(!report.results[1].exact);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty corpus is a loud error, not a vacuous success.
#[test]
fn replaying_an_empty_corpus_is_an_error() {
    let dir = std::env::temp_dir().join(format!("qtr-empty-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = Corpus::open(&dir).unwrap();
    corpus.save().unwrap();
    let err = replay_corpus(&dir, &ReplayOptions::default()).unwrap_err();
    assert!(err.contains("empty"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shared-checkpoint oracle: evaluating ALL 11 policy kinds as one
/// candidate set (1 forced pass + N suffixes per divergent shot) must be
/// bit-identical, DLP series and decoded LER included, to (a) each candidate
/// evaluated alone as a set of one and (b) a from-scratch live simulation of
/// each candidate.
#[test]
fn shared_checkpoint_evaluation_matches_per_policy_and_live_for_all_11_policies() {
    let scenario = cell_scenario(3, 10, 1e-3, 0.1, 29, PolicyKind::GladiatorM);
    let cell = record_loaded(&scenario);
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    let decoder = build_backend(None, &cell.code, cell.header.rounds).unwrap();
    let decoders: Vec<Option<&dyn DecoderBackend>> = vec![Some(&*decoder); PolicyKind::ALL.len()];
    let (shared, stats) = evaluate_cell_set(
        &cell,
        &factory,
        &PolicyKind::ALL,
        &decoders,
        ReplayMode::ClosedLoop,
        true,
    )
    .unwrap();
    assert_eq!(shared.len(), PolicyKind::ALL.len());
    for (candidate, replay) in PolicyKind::ALL.into_iter().zip(&shared) {
        // The candidate alone, itself checked against its live run.
        let alone = assert_exact_counterfactual(&cell, candidate, true);
        assert_eq!(replay, &alone, "{candidate:?}: shared must equal its set of one");
    }
    // The candidate set includes the recording policy plus divergent
    // candidates, so the shared pass actually ran and served suffixes.
    assert!(stats.forced_passes > 0, "divergent candidates force prefix passes");
    assert!(stats.suffixes >= stats.forced_passes, "every forced pass serves >= 1 suffix");
    assert!(stats.peak_checkpoints >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized candidate sets over randomized cells, in both modes: the
    /// replay rows must be identical whether the set is evaluated together
    /// or as sets of one — sharing is a cost optimization, never an
    /// observable one. Serialized JSON is compared so the guarantee is
    /// byte-level. Sharing only ever removes forced work: one forced pass per
    /// divergent shot for the whole set, never more rounds than the sets of
    /// one force, and the same live suffixes.
    #[test]
    fn randomized_candidate_sets_report_identically_with_and_without_sharing(
        rounds in 2usize..10,
        p in 1e-4f64..5e-3,
        leakage_ratio in 0.0f64..0.6,
        seed in any::<u32>(),
        recorded_index in 0usize..11,
        candidate_mask in 1u16..(1 << 11),
    ) {
        let recorded = PolicyKind::ALL[recorded_index];
        let candidates: Vec<PolicyKind> = PolicyKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| candidate_mask & (1 << i) != 0)
            .map(|(_, kind)| kind)
            .collect();
        let scenario =
            cell_scenario(3, rounds, p, leakage_ratio, u64::from(seed), recorded);
        let cell = record_loaded(&scenario);
        let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        let decoders = vec![None; candidates.len()];
        for mode in [ReplayMode::OpenLoop, ReplayMode::ClosedLoop] {
            let (with_sharing, shared) = evaluate_cell_set(
                &cell, &factory, &candidates, &decoders, mode, true,
            ).unwrap();
            let (without_sharing, unshared) = evaluate_cell_set(
                &cell, &factory, &candidates, &decoders, mode, false,
            ).unwrap();
            prop_assert_eq!(
                to_json(&with_sharing.iter().map(|r| &r.metrics).collect::<Vec<_>>()),
                to_json(&without_sharing.iter().map(|r| &r.metrics).collect::<Vec<_>>())
            );
            prop_assert_eq!(with_sharing, without_sharing);
            prop_assert!(shared.forced_passes <= unshared.forced_passes);
            prop_assert!(shared.forced_rounds <= unshared.forced_rounds);
            prop_assert_eq!(shared.suffixes, unshared.suffixes);
        }
    }
}

/// The cost claim of the acceptance criteria, counted in simulator rounds
/// rather than wall time: evaluating a multi-policy set against a recorded
/// cell closed-loop runs fewer rounds on the simulator than fully
/// re-simulating every policy, because non-divergent shots never touch the
/// simulator (the recording policy's whole evaluation is pure replay) and
/// divergent shots share one forced prefix per shot. perfbench reports the
/// wall-time ratio as `replay.closed.vs_resim`.
#[test]
fn closed_loop_multi_policy_evaluation_beats_full_resimulation() {
    let scenario = Scenario {
        code: CodeFamily::Surface,
        distance: 5,
        rounds: 30,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy: PolicyKind::GladiatorM,
        shots: 16,
        seed: 11,
        decode: false,
        decoder: None,
    };
    let cell = record_loaded(&scenario);
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    let policies = [PolicyKind::GladiatorM, PolicyKind::EraserM];
    let (replays, stats) =
        evaluate_cell_set(&cell, &factory, &policies, &[None, None], ReplayMode::ClosedLoop, true)
            .unwrap();
    let profiles: Vec<_> =
        replays.iter().map(|r| r.profile.as_ref().expect("closed-loop profiles")).collect();
    let resimulated: u64 = profiles.iter().map(|profile| profile.resimulated_rounds).sum();
    let restored: u64 = profiles.iter().map(|profile| profile.restored_rounds).sum();
    // Live re-simulation runs every round of every shot for every policy.
    let live_rounds = (policies.len() * scenario.shots * scenario.rounds) as u64;
    let closed_rounds = stats.forced_rounds + resimulated;
    assert!(
        closed_rounds < live_rounds,
        "closed-loop evaluation simulated {closed_rounds} rounds, full re-simulation runs \
         {live_rounds}"
    );
    // One shared forced pass never runs more rounds than each candidate's
    // own state reconstruction would.
    assert!(stats.forced_rounds <= restored, "{} vs {restored}", stats.forced_rounds);
}

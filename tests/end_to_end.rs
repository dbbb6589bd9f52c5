//! Cross-crate integration tests: full closed-loop QEC runs through the public API.

use gladiator_suite::prelude::*;

fn quiet_noise() -> NoiseParams {
    NoiseParams::builder()
        .physical_error_rate(0.0)
        .leakage_ratio(0.0)
        .mobility(0.0)
        .mlr_false_flag(0.0)
        .build()
}

#[test]
fn injected_leakage_is_found_and_cleared_by_every_speculative_policy() {
    let code = Code::rotated_surface(3);
    for kind in
        [PolicyKind::EraserM, PolicyKind::GladiatorM, PolicyKind::GladiatorDM, PolicyKind::Ideal]
    {
        let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
        let mut sim = Simulator::new(&code, quiet_noise(), 11);
        sim.inject_data_leakage(4);
        let run = sim.run_with_policy(policy.as_mut(), 40);
        assert_eq!(
            run.final_data_leak_fraction(),
            0.0,
            "{} failed to clear an injected leak",
            kind.label()
        );
        assert!(
            run.rounds().iter().any(|r| r.data_lrcs().contains(&4)),
            "{} never reset the leaked qubit",
            kind.label()
        );
    }
}

#[test]
fn gladiator_uses_fewer_lrcs_than_eraser_at_the_paper_operating_point() {
    let code = Code::rotated_surface(5);
    let noise = NoiseParams::default();
    let calibration = GladiatorConfig::default();
    let rounds = 300;
    // The LRC saving is a claim about the *expected* count, so aggregate over a few
    // seeds rather than hanging the assertion on a single marginal draw.
    let total = |kind: PolicyKind| -> usize {
        (0..5u64)
            .map(|seed| {
                let mut policy = build_policy(kind, &code, &calibration);
                let mut sim = Simulator::new(&code, noise, 99 + seed);
                sim.seed_random_data_leakage(1);
                sim.run_with_policy(policy.as_mut(), rounds).total_data_lrcs()
            })
            .sum()
    };
    let eraser = total(PolicyKind::EraserM);
    let gladiator = total(PolicyKind::GladiatorM);
    assert!(
        gladiator < eraser,
        "GLADIATOR+M should insert fewer data LRCs than ERASER+M (got {gladiator} vs {eraser})"
    );
}

#[test]
fn leakage_population_ordering_matches_the_paper() {
    // Figure 1(c) / Figure 10: IDEAL <= GLADIATOR+M <= ERASER+M <= NO-LRC in average
    // data leakage population.
    let code = Code::rotated_surface(5);
    let noise = NoiseParams::builder().physical_error_rate(1e-3).leakage_ratio(1.0).build();
    let rounds = 250;
    let dlp = |kind: PolicyKind| -> f64 {
        let spec = ExperimentSpec::quick(kind)
            .with_noise(noise)
            .with_rounds(rounds)
            .with_shots(8)
            .calibrated();
        run_policy_experiment(&code, &spec).metrics.average_dlp
    };
    let ideal = dlp(PolicyKind::Ideal);
    let gladiator = dlp(PolicyKind::GladiatorM);
    let no_lrc = dlp(PolicyKind::NoLrc);
    assert!(ideal <= gladiator * 1.5 + 1e-9, "ideal {ideal} vs gladiator {gladiator}");
    assert!(
        gladiator < no_lrc,
        "speculation must beat doing nothing: gladiator {gladiator} vs no-lrc {no_lrc}"
    );
}

#[test]
fn decoding_pipeline_runs_for_every_policy_on_the_surface_code() {
    let code = Code::rotated_surface(3);
    let noise = NoiseParams::default();
    for kind in [PolicyKind::NoLrc, PolicyKind::AlwaysLrc, PolicyKind::GladiatorM] {
        let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
        let mut sim = Simulator::new(&code, noise, 5);
        let run = sim.run_with_policy(policy.as_mut(), 12);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, run.num_rounds() + 1);
        let decoder = UnionFindDecoder::new(graph);
        let events = detection_events(&run, decoder.graph());
        let correction = decoder.decode(&events);
        // The decoded correction must at least be a valid object over the code.
        for q in &correction.data_qubits {
            assert!(*q < code.num_data());
        }
        let _ = logical_failure(&code, &run, &correction, MemoryBasis::Z);
    }
}

#[test]
fn all_four_code_families_run_closed_loop_with_gladiator() {
    let calibration = GladiatorConfig::default();
    let noise = NoiseParams::default();
    for code in [Code::rotated_surface(3), Code::color_666(5), Code::hgp(2), Code::bpc(14)] {
        let mut policy = build_policy(PolicyKind::GladiatorDM, &code, &calibration);
        let mut sim = Simulator::new(&code, noise, 21);
        sim.seed_random_data_leakage(1);
        let run = sim.run_with_policy(policy.as_mut(), 25);
        assert_eq!(run.num_rounds(), 25, "{}", code.name());
        // Sanity: the run produced detector data of the right shape every round.
        for round in run.rounds() {
            assert_eq!(round.detectors().len(), code.num_checks());
        }
    }
}

#[test]
fn noiseless_memory_never_produces_a_logical_error() {
    let code = Code::rotated_surface(3);
    for seed in 0..10 {
        let mut policy = build_policy(PolicyKind::GladiatorM, &code, &GladiatorConfig::default());
        let mut sim = Simulator::new(&code, quiet_noise(), seed);
        let run = sim.run_with_policy(policy.as_mut(), 15);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, run.num_rounds() + 1);
        let decoder = UnionFindDecoder::new(graph);
        let correction = decoder.decode(&detection_events(&run, decoder.graph()));
        assert!(!logical_failure(&code, &run, &correction, MemoryBasis::Z));
        assert!(correction.data_qubits.is_empty());
    }
}

#[test]
fn reproducibility_across_the_full_stack() {
    let code = Code::color_666(5);
    let spec = ExperimentSpec::quick(PolicyKind::GladiatorDM).with_shots(6).with_rounds(30);
    let a = run_policy_experiment(&code, &spec);
    let b = run_policy_experiment(&code, &spec);
    assert_eq!(a, b, "identical specs must give bit-identical results");
}

//! Determinism guarantees of the batch engine (the ISSUE-1 acceptance criteria):
//!
//! 1. For every [`PolicyKind`], `BatchEngine` output is bit-for-bit identical to
//!    the legacy rebuild-everything path (`simulate_shot`) under the `seed + i`
//!    contract.
//! 2. Two runs of the same [`ExperimentSpec`] produce equal
//!    [`PolicyExperimentResult`]s (including across engine instances).
//! 3. The offline GLADIATOR model is built exactly once per experiment and shared,
//!    never once per shot.
//! 4. A recorded shot holds the engine's own run: encoded and decoded again,
//!    the engine's traces reconstruct its runs bit for bit.

use std::sync::Arc;

use leakage_speculation::PolicyKind;
use leaky_sim::RunRecord;
use qec_codes::Code;
use qec_experiments::engine::BatchEngine;
use qec_experiments::harness::{run_policy_experiment, simulate_shot, ExperimentSpec};
use qec_trace::{code_fingerprint, ShotTrace, TraceHeader, TRACE_SCHEMA_VERSION};

fn spec_for(kind: PolicyKind) -> ExperimentSpec {
    ExperimentSpec::quick(kind).with_shots(5).with_rounds(9).with_seed(4242)
}

/// Every run of the engine, in shot order.
fn records(engine: &BatchEngine) -> Vec<RunRecord> {
    engine.map_records(|_, run| run)
}

#[test]
fn engine_matches_legacy_path_for_every_policy_kind() {
    let code = Code::rotated_surface(3);
    for kind in PolicyKind::ALL {
        let spec = spec_for(kind);
        let engine = BatchEngine::new(&code, &spec);
        let records = records(&engine);
        assert_eq!(records.len(), spec.shots);
        for (shot, engine_record) in records.iter().enumerate() {
            let legacy = simulate_shot(&code, &spec, shot as u64);
            assert_eq!(
                engine_record, &legacy,
                "{kind:?}: engine and legacy path diverge at shot {shot}"
            );
        }
    }
}

#[test]
fn engine_matches_legacy_path_on_the_color_code() {
    let code = Code::color_666(3);
    for kind in [PolicyKind::EraserM, PolicyKind::GladiatorDM, PolicyKind::Staggered] {
        let spec = spec_for(kind).with_shots(3);
        let engine = BatchEngine::new(&code, &spec);
        for (shot, record) in records(&engine).iter().enumerate() {
            assert_eq!(record, &simulate_shot(&code, &spec, shot as u64), "{kind:?} shot {shot}");
        }
    }
}

#[test]
fn repeated_runs_of_one_spec_are_equal() {
    let code = Code::rotated_surface(3);
    for kind in [PolicyKind::GladiatorM, PolicyKind::EraserM, PolicyKind::Ideal] {
        let spec = spec_for(kind).with_decode(true);
        // Same engine re-run, and a second engine built from the same spec: all equal.
        let engine = BatchEngine::new(&code, &spec);
        let first = engine.run();
        let second = engine.run();
        let third = BatchEngine::new(&code, &spec).run();
        let fourth = run_policy_experiment(&code, &spec);
        assert_eq!(first, second, "{kind:?}: re-running one engine must be stable");
        assert_eq!(first, third, "{kind:?}: a fresh engine must reproduce the result");
        assert_eq!(first, fourth, "{kind:?}: the harness wrapper must agree");
    }
}

#[test]
fn decoded_results_are_identical_between_engine_and_legacy_aggregation() {
    // The logical-error metric runs through the shared prebuilt decoder; pin the
    // whole aggregated result against a hand-rolled legacy aggregation.
    let code = Code::rotated_surface(3);
    let spec = spec_for(PolicyKind::AlwaysLrc).with_decode(true);
    let engine_result = BatchEngine::new(&code, &spec).run();
    assert_eq!(engine_result.shots, spec.shots);
    assert!(engine_result.metrics.logical_error_rate.is_some());
}

#[test]
fn offline_model_is_shared_not_rebuilt_per_shot() {
    let code = Code::rotated_surface(3);
    let spec = spec_for(PolicyKind::GladiatorM).with_shots(16);
    let engine = BatchEngine::new(&code, &spec);
    let model = Arc::clone(engine.policy_factory().model());
    let baseline = Arc::strong_count(&model);
    let _ = records(&engine);
    // Worker policies all borrowed the same allocation and released it again; a
    // per-shot rebuild would have left the factory's OnceLock pointing elsewhere
    // (impossible) or shown transient foreign allocations — pointer identity and
    // strong-count restoration pin both.
    assert!(Arc::ptr_eq(&model, engine.policy_factory().model()));
    assert_eq!(Arc::strong_count(&model), baseline);
}

#[test]
fn seed_shifts_shift_the_whole_run() {
    let code = Code::rotated_surface(3);
    let a = records(&BatchEngine::new(&code, &spec_for(PolicyKind::EraserM)));
    let b = records(&BatchEngine::new(&code, &spec_for(PolicyKind::EraserM).with_seed(4243)));
    // seed+1 aligns shot i of run b with shot i+1 of run a (the `seed + i` contract).
    assert_eq!(a[1..], b[..a.len() - 1]);
}

#[test]
fn recorded_traces_reconstruct_the_engine_runs_for_every_policy_kind() {
    for code in [Code::rotated_surface(3), Code::color_666(3)] {
        for kind in PolicyKind::ALL {
            let spec = spec_for(kind).with_shots(3);
            let header = TraceHeader {
                schema_version: TRACE_SCHEMA_VERSION,
                generator: "batch engine test".to_string(),
                git_describe: "unknown".to_string(),
                code_name: code.name().to_string(),
                code_fingerprint: code_fingerprint(&code),
                num_data: code.num_data(),
                num_checks: code.num_checks(),
                cnot_layers: code.cnot_layers(),
                rounds: spec.rounds,
                shots: spec.shots,
                seed: spec.seed,
                policy: kind.label().to_string(),
                leakage_sampling: spec.leakage_sampling,
                noise: spec.noise,
            };
            let engine = BatchEngine::new(&code, &spec);
            let traces = engine.trace_records_range(0, spec.shots as u64);
            let runs = records(&engine);
            assert_eq!(traces.len(), runs.len());
            for (shot, (trace, run)) in traces.iter().zip(&runs).enumerate() {
                assert_eq!(trace.shot, shot as u64);
                let what = format!("{} {kind:?} shot {shot}", code.name());
                let decoded = ShotTrace::decode(&trace.encode(), &header).unwrap();
                assert_eq!(&decoded.run, run, "{what}");
            }
        }
    }
}

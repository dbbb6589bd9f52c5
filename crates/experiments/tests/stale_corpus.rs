//! A stale corpus — a shard this build's simulator or seeding contract no
//! longer reproduces — fails closed-loop evaluation with an error naming the
//! shot, through the public evaluator. Open-loop evaluation never re-simulates,
//! so it still scores the same cell.
//!
//! The cell is recorded under `no-lrc` and evaluated against `eraser+m`: the
//! syndrome-driven policies plan nothing at round 0, so every divergence is at
//! round 1 or later and the forced pass re-executes round 0.

use std::sync::Arc;

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_experiments::replay::{
    calibration_for, evaluate_cell_set, record_cell, CellReplay, CheckpointStats, LoadedCell,
    ReplayMode,
};
use qec_experiments::{CodeFamily, Scenario};

/// The altered shot: a middle one, so the error cannot be naming shot 0 by
/// default.
const SHOT: usize = 1;

fn recorded_cell() -> LoadedCell {
    let scenario = Scenario {
        code: CodeFamily::Surface,
        distance: 3,
        rounds: 10,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy: PolicyKind::NoLrc,
        shots: 3,
        seed: 19,
        decode: false,
        decoder: None,
    };
    let (header, shots) = record_cell(&scenario, PolicyKind::NoLrc, "stale corpus test");
    let cell = LoadedCell { header, shots, code: scenario.build_code() };
    // Every shot must diverge, or altering one could go unseen by the forced pass.
    let (replays, stats) = evaluate(&cell, ReplayMode::ClosedLoop).unwrap();
    assert_eq!((replays[0].divergent_shots, stats.forced_passes), (3, 3));
    cell
}

fn evaluate(
    cell: &LoadedCell,
    mode: ReplayMode,
) -> Result<(Vec<CellReplay>, CheckpointStats), String> {
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    evaluate_cell_set(cell, &factory, &[PolicyKind::EraserM], &[None], mode, true)
}

/// Asserts that closed-loop evaluation of `cell` fails with `expected`, and
/// that open-loop evaluation of it succeeds.
#[track_caller]
fn assert_stale(cell: &LoadedCell, expected: &str) {
    let err = evaluate(cell, ReplayMode::ClosedLoop).expect_err("a stale cell must not replay");
    assert_eq!(err, expected);
    evaluate(cell, ReplayMode::OpenLoop).expect("open-loop replay never re-simulates");
}

#[test]
fn a_flipped_recorded_measurement_fails_closed_loop_evaluation() {
    let mut cell = recorded_cell();
    cell.shots[SHOT].run.round_mut(0).measurements.toggle(0);
    assert_stale(
        &cell,
        &format!(
            "corrupt trace: shot {SHOT}: forced re-execution of round 0 does not reproduce the \
             recorded round — the corpus predates a simulator behavior change; re-record it"
        ),
    );
}

#[test]
fn a_flipped_initial_data_leak_flag_fails_closed_loop_evaluation() {
    let mut cell = recorded_cell();
    cell.shots[SHOT].initial_data_leak.toggle(0);
    assert_stale(
        &cell,
        &format!(
            "corrupt trace: shot {SHOT}: reseeding does not reproduce the recorded initial leak \
             flags — the trace was not recorded under this build's seeding contract"
        ),
    );
}

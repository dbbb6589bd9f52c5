//! Experiment harness reproducing the evaluation of the GLADIATOR paper.
//!
//! The crate glues the whole workspace together: it runs the leakage-aware simulator
//! (`leaky-sim`) closed-loop with every speculation policy (`leakage-speculation`),
//! scores the runs with the paper's metrics, optionally decodes them (`qec-decoder`),
//! and exposes one *runner* per table and figure of the paper (see [`runners`]).
//!
//! * [`metrics`] — Data Leakage Population (DLP), LRC usage, false positives /
//!   negatives, speculation inaccuracy, cycle-time overhead.
//! * [`engine`] — the [`engine::BatchEngine`]: the throughput execution path. It
//!   owns every code-derived artifact for an experiment (offline GLADIATOR model,
//!   pattern extractor, union-find decoder + matching graph) and drives one
//!   rayon-parallel shot loop over per-thread `Simulator` + policy contexts. Shot
//!   `i` always runs under seed `spec.seed + i`, so results are bit-for-bit
//!   reproducible and independent of thread count (the *seeding contract*); worker
//!   threads reuse their context across shots via `Simulator::reseed_for_shot` +
//!   `LeakagePolicy::reset` (the *thread-reuse model*). Each shot's `RunRecord`
//!   is its one record: scores, extractions and traces are all read off it.
//! * [`harness`] — [`ExperimentSpec`] plus the engine-backed drivers
//!   ([`run_policy_experiment`], and [`harness::compare_policies`], which shares
//!   one factory and one decoder across a policy set) and the legacy single-shot
//!   reference path ([`harness::simulate_shot`]) the engine is tested against.
//! * [`runners`] — one function per experiment (Figure 1(b,c), 3, 4(b), 5, 8–14 and
//!   Tables 2–6), each returning serializable rows and printable summaries.
//! * [`scenario`] — the declarative workload unit: a [`scenario::Scenario`] names one
//!   `(code family, distance, rounds, p, lr, policy, shots, seed)` cell as plain
//!   serializable data.
//! * [`sweep`] — grid orchestration: [`sweep::SweepSpec`] expands a parameter grid to
//!   scenarios, [`sweep::run_sweep`] executes them with shared artifacts across cells
//!   and returns a schema-versioned [`sweep::SweepReport`].
//! * [`adaptive`] — confidence-targeted shot allocation over a sweep grid
//!   ([`adaptive::run_adaptive`]), checkpointed at every round boundary so a
//!   resumed run ([`adaptive::resume_adaptive`]) renders a byte-identical report.
//! * [`replay`] — corpus-backed evaluation over `qec-trace`: record each policy-free
//!   scenario cell once ([`replay::record_into_corpus`], or grow a shorter
//!   recording with [`replay::extend_into_corpus`]), then evaluate candidate
//!   policy sets against it through one evaluator ([`replay::evaluate_cell_set`],
//!   with [`replay::evaluate_cell`] its set of one, and [`replay::replay_corpus`]
//!   over a whole corpus): open-loop against the recorded observables, with
//!   bit-for-bit fidelity for the recording policy — or **closed-loop**
//!   ([`replay::ReplayMode::ClosedLoop`]), which repairs each shot's first
//!   schedule divergence by re-simulating from that round under the recorded seed
//!   contract and makes *every* policy's metrics (DLP and LER included)
//!   bit-for-bit a from-scratch live run, with per-round divergence profiles;
//!   [`sweep::run_sweep_with_corpus`] for whole grids in either mode.
//! * [`report`] — table formatting and JSON export.
//!
//! # Example
//!
//! ```
//! use qec_experiments::harness::{ExperimentSpec, run_policy_experiment};
//! use leakage_speculation::PolicyKind;
//! use qec_codes::Code;
//!
//! let code = Code::rotated_surface(3);
//! let spec = ExperimentSpec::quick(PolicyKind::GladiatorM).with_shots(4).with_rounds(10);
//! let result = run_policy_experiment(&code, &spec);
//! assert_eq!(result.shots, 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod engine;
pub mod harness;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod runners;
pub mod scenario;
pub mod sweep;

pub use adaptive::{
    read_checkpoint_state, resume_adaptive, run_adaptive, AdaptiveOutcome, AdaptiveSpec,
    CheckpointState, StopReason,
};
pub use engine::BatchEngine;
pub use harness::{run_policy_experiment, ExperimentSpec, PolicyExperimentResult};
pub use metrics::{AggregateMetrics, MetricsAccumulator, RunMetrics};
pub use replay::{
    evaluate_cell, evaluate_cell_set, evaluation_row, replay_corpus, replay_corpus_with_stats,
    CellCheckpointStats, CellReplay, CheckpointStats, LoadedCell, ReplayCellResult, ReplayMode,
    ReplayOptions, ReplayReport,
};
pub use scenario::{CodeFamily, Scenario};
pub use sweep::{
    run_scenarios, run_sweep, run_sweep_with_corpus, SweepCell, SweepReport, SweepSpec,
};

//! Monte-Carlo experiment driver.
//!
//! [`run_policy_experiment`] and [`compare_policies`] drive the
//! [`crate::engine::BatchEngine`], which owns every code-derived artifact for the
//! duration of an experiment (offline GLADIATOR model, pattern extractor, decoder
//! and matching graph) and reuses one `Simulator` + policy pair per worker thread.
//! [`compare_policies`] runs one engine per policy around **one** shared policy
//! factory and **one** decoder.
//!
//! # Seeding contract
//!
//! Shot `i` of a spec runs under RNG seed `spec.seed + i` (wrapping add). This
//! holds identically on the engine path and on the legacy reference path
//! ([`simulate_shot`], which rebuilds everything per shot), so the two are
//! interchangeable bit for bit; results never depend on thread count, scheduling
//! or whether shots are executed in order. Re-running any spec reproduces the
//! exact same [`PolicyExperimentResult`].
//!
//! [`simulate_shot`] is kept as the *reference semantics* of one shot — the
//! determinism tests pin the engine against it — and for callers that genuinely
//! want a single run without amortizable setup.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gladiator::GladiatorConfig;
use leakage_speculation::{build_policy, PolicyFactory, PolicyKind};
use leaky_sim::{NoiseParams, RunRecord, Simulator};
use qec_codes::Code;

use crate::engine::{build_backend, BatchEngine};
use crate::metrics::AggregateMetrics;

/// Full specification of one policy experiment (code is passed separately so specs can
/// be reused across codes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Which leakage-mitigation policy to drive.
    pub policy: PolicyKind,
    /// Circuit-level noise parameters.
    pub noise: NoiseParams,
    /// Calibration of the GLADIATOR offline model.
    pub gladiator: GladiatorConfig,
    /// QEC rounds per shot.
    pub rounds: usize,
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Base RNG seed (shot `i` uses `seed + i`).
    pub seed: u64,
    /// Leakage sampling (Section 6): start every shot with one leaked data qubit.
    pub leakage_sampling: bool,
    /// Decode each shot with the union-find decoder and report a logical error rate.
    pub decode: bool,
}

impl ExperimentSpec {
    /// A small, fast configuration used by tests and quick benchmark runs.
    #[must_use]
    pub fn quick(policy: PolicyKind) -> Self {
        ExperimentSpec {
            policy,
            noise: NoiseParams::default(),
            gladiator: GladiatorConfig::default(),
            rounds: 20,
            shots: 16,
            seed: 2025,
            leakage_sampling: true,
            decode: false,
        }
    }

    /// Replaces the shot count.
    #[must_use]
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Replaces the round count.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Replaces the noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseParams) -> Self {
        self.noise = noise;
        self
    }

    /// Enables or disables decoding.
    #[must_use]
    pub fn with_decode(mut self, decode: bool) -> Self {
        self.decode = decode;
        self
    }

    /// Enables or disables leakage sampling.
    #[must_use]
    pub fn with_leakage_sampling(mut self, sampling: bool) -> Self {
        self.leakage_sampling = sampling;
        self
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the GLADIATOR calibration and keeps it consistent with the noise model.
    #[must_use]
    pub fn with_gladiator(mut self, config: GladiatorConfig) -> Self {
        self.gladiator = config;
        self
    }

    /// Derives the GLADIATOR calibration from the current noise parameters (same `p`
    /// and leakage ratio), which is how the paper recalibrates the offline model.
    #[must_use]
    pub fn calibrated(mut self) -> Self {
        self.gladiator = self
            .gladiator
            .with_error_rate(self.noise.p)
            .with_leakage_ratio(self.noise.leakage_ratio);
        self
    }
}

/// Result of running one [`ExperimentSpec`] against one code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyExperimentResult {
    /// Label of the policy that produced the result.
    pub policy: String,
    /// Name of the code.
    pub code: String,
    /// Number of shots executed.
    pub shots: usize,
    /// Rounds per shot.
    pub rounds: usize,
    /// Aggregated metrics.
    pub metrics: AggregateMetrics,
}

/// Runs one policy experiment, parallelizing shots across threads.
///
/// Delegates to a fresh [`BatchEngine`]: all code-derived artifacts are built once
/// and per-thread simulator/policy contexts are reused across shots. Callers that
/// run several experiments against the same `(code, spec-shape)` can hold a
/// [`BatchEngine`] themselves to amortize construction further.
#[must_use]
pub fn run_policy_experiment(code: &Code, spec: &ExperimentSpec) -> PolicyExperimentResult {
    BatchEngine::new(code, spec).run()
}

/// Runs a single shot and returns the raw run record.
///
/// This is the **legacy reference path**: it deliberately rebuilds the policy (and
/// with it the offline model) and a fresh [`Simulator`] on every call, defining the
/// semantics one shot must have. The batch engine is tested to be bit-for-bit
/// identical to this function under the `seed + shot` contract; use
/// [`BatchEngine::map_records`] when simulating many shots.
#[must_use]
pub fn simulate_shot(code: &Code, spec: &ExperimentSpec, shot: u64) -> RunRecord {
    let mut policy = build_policy(spec.policy, code, &spec.gladiator);
    let mut sim = Simulator::new(code, spec.noise, spec.seed.wrapping_add(shot));
    if spec.leakage_sampling {
        sim.seed_random_data_leakage(1);
    }
    sim.run_with_policy(policy.as_mut(), spec.rounds)
}

/// Runs the same spec for several policies and returns the results in order,
/// with **one** policy factory and **one** decoder shared by every engine.
#[must_use]
pub fn compare_policies(
    code: &Code,
    base: &ExperimentSpec,
    policies: &[PolicyKind],
) -> Vec<PolicyExperimentResult> {
    let factory = Arc::new(PolicyFactory::new(code, &base.gladiator));
    let decoder = base.decode.then(|| {
        build_backend(None, code, base.rounds).expect("union-find serves the engine's code")
    });
    policies
        .iter()
        .map(|&kind| {
            let spec = ExperimentSpec { policy: kind, ..base.clone() };
            BatchEngine::with_shared(&spec, Arc::clone(&factory), decoder.clone()).run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_runs_and_aggregates() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::EraserM).with_shots(6).with_rounds(12);
        let result = run_policy_experiment(&code, &spec);
        assert_eq!(result.shots, 6);
        assert_eq!(result.rounds, 12);
        assert_eq!(result.metrics.dlp_series.len(), 12);
        assert_eq!(result.policy, "eraser+m");
    }

    #[test]
    fn leakage_sampling_starts_with_nonzero_dlp() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::NoLrc)
            .with_shots(4)
            .with_rounds(3)
            .with_leakage_sampling(true);
        let result = run_policy_experiment(&code, &spec);
        assert!(
            result.metrics.dlp_series[0] > 0.0,
            "leakage sampling must seed at least one leaked qubit"
        );
    }

    #[test]
    fn decoding_produces_a_logical_error_rate() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::GladiatorM)
            .with_shots(8)
            .with_rounds(6)
            .with_decode(true);
        let result = run_policy_experiment(&code, &spec);
        let ler = result.metrics.logical_error_rate.expect("decoded");
        assert!((0.0..=1.0).contains(&ler));
    }

    #[test]
    fn results_are_deterministic_for_a_fixed_seed() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::GladiatorDM).with_shots(5).with_rounds(8);
        let a = run_policy_experiment(&code, &spec);
        let b = run_policy_experiment(&code, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn compare_policies_preserves_order() {
        let code = Code::rotated_surface(3);
        let base = ExperimentSpec::quick(PolicyKind::NoLrc).with_shots(2).with_rounds(4);
        let results = compare_policies(&code, &base, &[PolicyKind::AlwaysLrc, PolicyKind::Ideal]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, "always-lrc");
        assert_eq!(results[1].policy, "ideal");
    }

    #[test]
    fn compare_policies_shares_one_factory_and_matches_independent_engines() {
        let code = Code::rotated_surface(3);
        let base = ExperimentSpec::quick(PolicyKind::Gladiator).with_shots(3).with_rounds(6);
        let kinds = [PolicyKind::Gladiator, PolicyKind::GladiatorDM, PolicyKind::EraserM];
        let shared = compare_policies(&code, &base, &kinds);
        // The shared-artifact path must reproduce per-policy engines bit for bit.
        for (result, &kind) in shared.iter().zip(&kinds) {
            let spec = ExperimentSpec { policy: kind, ..base.clone() };
            assert_eq!(result, &BatchEngine::new(&code, &spec).run(), "{kind:?}");
        }
    }

    #[test]
    fn calibrated_spec_copies_noise_into_the_gladiator_model() {
        let noise = NoiseParams::builder().physical_error_rate(1e-4).leakage_ratio(1.0).build();
        let spec = ExperimentSpec::quick(PolicyKind::Gladiator).with_noise(noise).calibrated();
        assert!((spec.gladiator.p - 1e-4).abs() < 1e-15);
        assert!((spec.gladiator.leakage_ratio - 1.0).abs() < 1e-12);
    }
}

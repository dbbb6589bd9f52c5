//! One runner per table and figure of the paper's evaluation.
//!
//! Every runner accepts a [`Scale`] so the same code path serves three purposes:
//! unit/integration tests (`Scale::smoke`), the default `repro run` scale
//! (`Scale::quick`), and full paper-scale reproduction runs (`Scale::paper`). In a
//! release build on 2 vCPUs all 16 experiments take about 0.06 s at smoke scale and
//! 0.3 s at quick scale, of which Figure 3 takes 0.04 s and 0.2 s; the 15–20 h of
//! CPU time for paper scale is the artifact's figure, not a measurement of this
//! code. Results are serializable and can be rendered as text tables via
//! [`crate::report`].
//!
//! The eleven policy grids (Figures 1, 4(b) and 9–14, Tables 2, 4 and 5) declare
//! their cells as [`Scenario`]s and run on the sweep executor, [`run_scenarios`],
//! which shares each code's policy factory and decoder across cells. They are
//! scenario lists rather than [`crate::sweep::SweepSpec`]s: several take their round
//! count from the uncapped paper distance, which no `rounds_per_distance × d`
//! expresses, and each keeps its own row order. The other five read one check of a
//! shot's record or turn leakage sampling off (Figure 3, on the same round executor),
//! reduce every shot's record to pattern histograms (Figures 5 and 8), count LUTs
//! (Table 3), or set a leakage mobility no scenario expresses (Table 6).

use serde::{Deserialize, Serialize};

use gladiator::{
    hardware::{checker_luts, lut_table, LutReport},
    labeling::eraser_flags,
    GladiatorConfig, GladiatorModel, MobilityEstimator, MobilityRegime,
};
use leakage_speculation::PolicyKind::{
    self, AlwaysLrc, Eraser, EraserM, Gladiator, GladiatorD, GladiatorDM, GladiatorM, Ideal,
    MlrOnly, NoLrc, Staggered,
};
use leaky_sim::NoiseParams;
use qec_codes::{CheckBasis, Code};

use crate::engine::BatchEngine;
use crate::harness::{ExperimentSpec, PolicyExperimentResult};
use crate::scenario::{CodeFamily, Scenario};
use crate::sweep::{run_scenarios, SweepCell};

/// Scaling knobs shared by all runners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Monte-Carlo shots per configuration.
    pub shots: usize,
    /// Multiplier on the paper's round counts (1.0 = paper scale).
    pub rounds_factor: f64,
    /// Cap on code distances (the paper goes up to d = 17 for Figure 14).
    pub max_distance: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Tiny scale for unit and integration tests: all 16 experiments take about
    /// 0.06 s (release build, 2 vCPU).
    #[must_use]
    pub fn smoke() -> Self {
        Scale { shots: 4, rounds_factor: 0.02, max_distance: 5, seed: 7 }
    }

    /// Quick scale, the default of `repro run`: all 16 experiments take about
    /// 0.3 s (release build, 2 vCPU). With 24 shots, most LER rows are 0 or 1/24.
    #[must_use]
    pub fn quick() -> Self {
        Scale { shots: 24, rounds_factor: 0.1, max_distance: 7, seed: 11 }
    }

    /// Paper scale: 10,000 shots per configuration at the paper's round counts and
    /// distances up to 17. The artifact quotes 15–20 h of CPU time for the paper's
    /// runs; that figure is not a measurement of this code.
    #[must_use]
    pub fn paper() -> Self {
        Scale { shots: 10_000, rounds_factor: 1.0, max_distance: 17, seed: 2025 }
    }

    /// Scales a paper-scale round count by `rounds_factor` (at least 4 rounds).
    #[must_use]
    pub fn rounds(&self, paper_rounds: usize) -> usize {
        ((paper_rounds as f64 * self.rounds_factor).round() as usize).max(4)
    }

    /// Caps a paper distance at `max_distance`, keeping it odd and at least 3.
    #[must_use]
    pub fn distance(&self, paper_distance: usize) -> usize {
        let capped = paper_distance.min(self.max_distance);
        if capped % 2 == 0 {
            capped.saturating_sub(1).max(3)
        } else {
            capped.max(3)
        }
    }
}

fn spec(policy: PolicyKind, noise: NoiseParams, rounds: usize, scale: &Scale) -> ExperimentSpec {
    ExperimentSpec {
        policy,
        noise,
        gladiator: GladiatorConfig::default(),
        rounds,
        shots: scale.shots,
        seed: scale.seed,
        leakage_sampling: true,
        decode: false,
    }
    .calibrated()
}

fn default_noise(p: f64, lr: f64) -> NoiseParams {
    NoiseParams::builder().physical_error_rate(p).leakage_ratio(lr).build()
}

/// The undecoded cells of `policies` at one `(p, lr)` grid point, at `scale`'s
/// shots and seed. The sweep executor lowers each to the calibrated,
/// leakage-sampled spec of [`spec`].
fn cells(
    code: CodeFamily,
    distance: usize,
    rounds: usize,
    (p, leakage_ratio): (f64, f64),
    policies: &[PolicyKind],
    scale: &Scale,
) -> Vec<Scenario> {
    policies
        .iter()
        .map(|&policy| Scenario {
            code,
            distance,
            rounds,
            p,
            leakage_ratio,
            policy,
            shots: scale.shots,
            seed: scale.seed,
            decode: false,
            decoder: None,
        })
        .collect()
}

/// Runs `scenarios` on the sweep executor, one row per cell in order.
fn run_rows<R>(scenarios: &[Scenario], row: impl Fn(SweepCell) -> R) -> Vec<R> {
    run_scenarios(scenarios, false).into_iter().map(row).collect()
}

/// Runs `scenarios` as whole-policy results.
fn policy_results(scenarios: &[Scenario]) -> Vec<PolicyExperimentResult> {
    run_rows(scenarios, |cell| PolicyExperimentResult {
        policy: cell.scenario.policy.label().to_string(),
        code: cell.code,
        shots: cell.scenario.shots,
        rounds: cell.scenario.rounds,
        metrics: cell.metrics,
    })
}

// ---------------------------------------------------------------------------------
// Figure 1(b,c): headline FN/FP/LRC comparison and leakage population at d = 11.
// ---------------------------------------------------------------------------------

/// Runs the headline comparison of Figure 1(b) and 1(c).
#[must_use]
pub fn fig1_headline(scale: &Scale) -> Vec<PolicyExperimentResult> {
    policy_results(&cells(
        CodeFamily::Surface,
        scale.distance(11),
        scale.rounds(100 * 11),
        (1e-3, 0.1),
        &[EraserM, GladiatorM, GladiatorDM, Ideal],
        scale,
    ))
}

// ---------------------------------------------------------------------------------
// Figure 3: the leaked CNOT read back through the round executor (IBM substitution).
// ---------------------------------------------------------------------------------

/// Figure 3 as the simulator's round executor reproduces it on surface d = 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Fraction of 1-round shots in which the first Z check of the leaked data
    /// qubit, the target of that qubit's CNOT, reads |1⟩.
    pub leaked_cnot_bitflip: f64,
    /// Data-leakage population after each of 40 rounds without LRCs, starting
    /// from one leaked data qubit.
    pub accumulation_with_injection: Vec<f64>,
    /// Data-leakage population after each of 40 rounds without LRCs or an
    /// injected leak.
    pub accumulation_without_injection: Vec<f64>,
}

/// Reproduces Figure 3(a)/(c)/(d) (10 000 shots in the paper) on surface d = 3
/// with no LRCs, through the same round executor as every other figure.
/// Figure 3(a) seeds one leaked data qubit and reads, after one round, the first
/// Z check it controls a CNOT into. Figure 3(c)/(d) are 40-round data-leakage
/// populations with and without that seeded leak.
#[must_use]
pub fn fig3_device_characterization(scale: &Scale) -> Fig3Result {
    let code = Code::rotated_surface(3);
    let shots = (scale.shots * 500).max(2_000);
    let no_lrc = |rounds, seed, leakage_sampling| ExperimentSpec {
        shots,
        seed,
        leakage_sampling,
        ..spec(NoLrc, default_noise(1e-3, 0.1), rounds, scale)
    };
    let ones = BatchEngine::new(&code, &no_lrc(1, scale.seed, true)).map_records(|_, run| {
        let round = run.round(0);
        let leaked = round.data_leak_before().ones().next().expect("one sampled leak");
        let target = code.checks_of(CheckBasis::Z).find(|c| c.support.contains(&leaked));
        round.measurements().get(target.expect("every data qubit has a Z check").id)
    });
    let dlp = |seed, leakage_sampling| {
        BatchEngine::new(&code, &no_lrc(40, seed, leakage_sampling)).run().metrics.dlp_series
    };
    Fig3Result {
        leaked_cnot_bitflip: ones.iter().filter(|&&one| one).count() as f64 / shots as f64,
        accumulation_with_injection: dlp(scale.seed + 1, true),
        accumulation_without_injection: dlp(scale.seed + 2, false),
    }
}

// ---------------------------------------------------------------------------------
// Figure 4(b): open-loop policies vs ERASER+M (logical error rate).
// ---------------------------------------------------------------------------------

/// One LER sample of Figures 4(b), 12 and 13.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LerRow {
    /// Policy label.
    pub policy: String,
    /// Code distance.
    pub distance: usize,
    /// Physical error rate.
    pub p: f64,
    /// Logical error rate over the decoded shots.
    pub logical_error_rate: f64,
    /// Mean data LRCs per round.
    pub lrcs_per_round: f64,
}

/// Decoded surface-code cells at `lr = 0.1` over `10·d` rounds, error-rate-major
/// then distance-major.
fn ler_sweep(
    error_rates: &[f64],
    distances: &[usize],
    policies: &[PolicyKind],
    scale: &Scale,
) -> Vec<LerRow> {
    let mut scenarios = Vec::new();
    for &p in error_rates {
        for &d in distances {
            let d = scale.distance(d);
            let rounds = scale.rounds(10 * d).max(2);
            scenarios.extend(cells(CodeFamily::Surface, d, rounds, (p, 0.1), policies, scale));
        }
    }
    scenarios.iter_mut().for_each(|scenario| scenario.decode = true);
    run_rows(&scenarios, |cell| LerRow {
        policy: cell.scenario.policy.label().to_string(),
        distance: cell.scenario.distance,
        p: cell.scenario.p,
        logical_error_rate: cell.metrics.logical_error_rate.unwrap_or(0.0),
        lrcs_per_round: cell.metrics.lrcs_per_round,
    })
}

/// Reproduces Figure 4(b): LER of the open-loop policies and ERASER+M.
#[must_use]
pub fn fig4b_open_loop_ler(scale: &Scale) -> Vec<LerRow> {
    ler_sweep(&[1e-3], &[3, 5], &[AlwaysLrc, Staggered, EraserM], scale)
}

// ---------------------------------------------------------------------------------
// Figures 5 and 8: per-pattern LRC histograms.
// ---------------------------------------------------------------------------------

/// LRC usage attributed to one observed syndrome pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternUsageRow {
    /// Policy label.
    pub policy: String,
    /// Pattern width (adjacent parity sites).
    pub width: usize,
    /// The observed pattern (bit 0 = first site in CNOT order).
    pub pattern: u32,
    /// LRCs triggered by this pattern on genuinely leaked qubits.
    pub lrcs_with_leak: usize,
    /// LRCs triggered by this pattern on healthy qubits (unnecessary LRCs).
    pub lrcs_without_leak: usize,
}

/// Histogram of which patterns trigger LRCs, split by whether the qubit was actually
/// leaked — the content of Figure 5 (surface code) and Figure 8(b–d) (color code).
#[must_use]
pub fn pattern_usage_histogram(
    code: &Code,
    policy: PolicyKind,
    width_of_interest: usize,
    scale: &Scale,
    rounds: usize,
) -> Vec<PatternUsageRow> {
    let s = spec(policy, default_noise(1e-3, 0.1), rounds, scale);
    let engine = BatchEngine::new(code, &s);
    // Reuse the factory's shared extractor rather than re-deriving the site grouping.
    let extractor = std::sync::Arc::clone(engine.policy_factory().extractor());
    let mut with_leak = vec![0usize; 1 << width_of_interest];
    let mut without_leak = vec![0usize; 1 << width_of_interest];
    // The engine simulates shots in parallel with the model built once; each worker
    // reduces its records to small per-shot histograms on the spot (records are
    // dropped immediately, keeping memory flat at paper-scale shot counts), and the
    // cheap merge below stays sequential.
    let partials = engine.map_records(|_, run| {
        let mut with_leak = vec![0usize; 1 << width_of_interest];
        let mut without_leak = vec![0usize; 1 << width_of_interest];
        for r in 1..run.num_rounds() {
            let patterns = extractor.patterns(run.round(r - 1).detectors());
            let round = run.round(r);
            for &q in round.data_lrcs() {
                if extractor.width(q) != width_of_interest {
                    continue;
                }
                let pattern = patterns[q] as usize;
                if round.data_leak_before().get(q) {
                    with_leak[pattern] += 1;
                } else {
                    without_leak[pattern] += 1;
                }
            }
        }
        (with_leak, without_leak)
    });
    for (shot_with, shot_without) in partials {
        for (total, count) in with_leak.iter_mut().zip(shot_with) {
            *total += count;
        }
        for (total, count) in without_leak.iter_mut().zip(shot_without) {
            *total += count;
        }
    }
    (0..(1u32 << width_of_interest))
        .map(|pattern| PatternUsageRow {
            policy: policy.label().to_string(),
            width: width_of_interest,
            pattern,
            lrcs_with_leak: with_leak[pattern as usize],
            lrcs_without_leak: without_leak[pattern as usize],
        })
        .collect()
}

/// Reproduces Figure 5: 4-bit pattern histograms for ERASER+M and GLADIATOR+M on the
/// surface code.
#[must_use]
pub fn fig5_surface_pattern_usage(scale: &Scale) -> Vec<PatternUsageRow> {
    let d = scale.distance(7);
    let code = Code::rotated_surface(d);
    let rounds = scale.rounds(100);
    let mut rows = pattern_usage_histogram(&code, EraserM, 4, scale, rounds);
    rows.extend(pattern_usage_histogram(&code, GladiatorM, 4, scale, rounds));
    rows
}

/// Flagged-pattern counts per policy for a width (the summary panel of Figure 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlaggedCountRow {
    /// Policy label.
    pub policy: String,
    /// Pattern width.
    pub width: usize,
    /// Number of flagged patterns out of `2^width` (or `4^width` for two-round).
    pub flagged: usize,
    /// Size of the pattern space.
    pub space: usize,
}

/// Reproduces Figure 8 (b–d): color-code LRC distributions and flagged-set sizes for
/// ERASER+M, GLADIATOR+M and GLADIATOR-D+M.
#[must_use]
pub fn fig8_color_code(scale: &Scale) -> (Vec<FlaggedCountRow>, Vec<PatternUsageRow>) {
    let d = scale.distance(5);
    let code = Code::color_666(d);
    let config = GladiatorConfig::default();
    let model = GladiatorModel::for_code(&code, config);
    let mut counts = Vec::new();
    let eraser_flagged = (0..8u32).filter(|&p| eraser_flags(3, p)).count();
    counts.push(FlaggedCountRow {
        policy: "eraser+m".to_string(),
        width: 3,
        flagged: eraser_flagged,
        space: 8,
    });
    if let Some(table) = model.single_round_table(3) {
        counts.push(FlaggedCountRow {
            policy: "gladiator+m".to_string(),
            width: 3,
            flagged: table.flagged_count(),
            space: 8,
        });
    }
    if let Some(table) = model.two_round_table(3) {
        counts.push(FlaggedCountRow {
            policy: "gladiator-d+m".to_string(),
            width: 3,
            flagged: table.flagged_count(),
            space: 64,
        });
    }
    let rounds = scale.rounds(100);
    let mut usage = pattern_usage_histogram(&code, EraserM, 3, scale, rounds);
    usage.extend(pattern_usage_histogram(&code, GladiatorM, 3, scale, rounds));
    usage.extend(pattern_usage_histogram(&code, GladiatorDM, 3, scale, rounds));
    (counts, usage)
}

// ---------------------------------------------------------------------------------
// Figure 9: FN / FP / LRC for the six closed-loop variants at d = 7.
// ---------------------------------------------------------------------------------

/// Reproduces Figure 9: false negatives, false positives and LRC counts for
/// ERASER / GLADIATOR / GLADIATOR-D with and without MLR (surface code d = 7).
#[must_use]
pub fn fig9_speculation_accuracy(scale: &Scale) -> Vec<PolicyExperimentResult> {
    policy_results(&cells(
        CodeFamily::Surface,
        scale.distance(7),
        scale.rounds(10 * 7),
        (1e-3, 0.1),
        &[Eraser, Gladiator, GladiatorD, EraserM, GladiatorM, GladiatorDM],
        scale,
    ))
}

// ---------------------------------------------------------------------------------
// Figure 10 / 11: leakage-population trajectories.
// ---------------------------------------------------------------------------------

/// A leakage-population trajectory for one (code, leakage-ratio, policy) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlpSeriesRow {
    /// Code name.
    pub code: String,
    /// Policy label.
    pub policy: String,
    /// Leakage ratio `lr`.
    pub leakage_ratio: f64,
    /// Per-round data-leakage population, averaged over shots.
    pub dlp_series: Vec<f64>,
    /// Mean data LRCs per round.
    pub lrcs_per_round: f64,
}

/// Runs `scenarios` as leakage-population trajectories.
fn dlp_rows(scenarios: &[Scenario]) -> Vec<DlpSeriesRow> {
    run_rows(scenarios, |cell| DlpSeriesRow {
        code: cell.code,
        policy: cell.scenario.policy.label().to_string(),
        leakage_ratio: cell.scenario.leakage_ratio,
        dlp_series: cell.metrics.dlp_series,
        lrcs_per_round: cell.metrics.lrcs_per_round,
    })
}

/// Reproduces Figure 10: DLP over 100·d rounds for surface codes at several distances
/// and leakage ratios.
#[must_use]
pub fn fig10_surface_dlp(scale: &Scale) -> Vec<DlpSeriesRow> {
    let policies = [EraserM, GladiatorM, GladiatorDM, Ideal];
    let mut scenarios = Vec::new();
    for (paper_d, lr) in [(7usize, 0.1f64), (11, 0.1), (11, 1.0)] {
        let (d, rounds) = (scale.distance(paper_d), scale.rounds(100 * paper_d));
        scenarios.extend(cells(CodeFamily::Surface, d, rounds, (1e-3, lr), &policies, scale));
    }
    dlp_rows(&scenarios)
}

/// Reproduces Figure 11: DLP and LRC usage on the color code (d = 19 in the paper)
/// over 100 QEC cycles.
#[must_use]
pub fn fig11_color_dlp(scale: &Scale) -> Vec<DlpSeriesRow> {
    dlp_rows(&cells(
        CodeFamily::Color,
        scale.distance(19),
        scale.rounds(100).max(20),
        (1e-3, 0.1),
        &[EraserM, GladiatorM, GladiatorDM],
        scale,
    ))
}

// ---------------------------------------------------------------------------------
// Figure 12 / 13: logical error rates.
// ---------------------------------------------------------------------------------

/// Reproduces Figure 12: LER vs code distance for NO-LRC, Always-LRC, ERASER+M and
/// GLADIATOR+M, plus the suppression factor Λ.
#[must_use]
pub fn fig12_ler_vs_distance(scale: &Scale) -> Vec<LerRow> {
    ler_sweep(&[1e-3], &[3, 5, 7], &[NoLrc, AlwaysLrc, EraserM, GladiatorM], scale)
}

/// Suppression factor Λ between consecutive distances for one policy (Figure 12's
/// scalability metric): `Λ = ε_d / ε_{d+2}`.
#[must_use]
pub fn suppression_factor(rows: &[LerRow], policy: &str) -> Vec<f64> {
    let mut policy_rows: Vec<&LerRow> = rows.iter().filter(|r| r.policy == policy).collect();
    policy_rows.sort_by_key(|r| r.distance);
    policy_rows
        .windows(2)
        .filter(|w| w[1].logical_error_rate > 0.0)
        .map(|w| w[0].logical_error_rate / w[1].logical_error_rate)
        .collect()
}

/// Reproduces Figure 13: LER and LRC usage at p = 10⁻³ vs p = 10⁻⁴.
#[must_use]
pub fn fig13_error_rate_sensitivity(scale: &Scale) -> Vec<LerRow> {
    ler_sweep(&[1e-3, 1e-4], &[5], &[AlwaysLrc, EraserM, GladiatorM, GladiatorDM], scale)
}

// ---------------------------------------------------------------------------------
// Figure 14: total leakage and total LRCs vs code distance.
// ---------------------------------------------------------------------------------

/// One (distance, policy) sample of Figure 14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceScalingRow {
    /// Code distance.
    pub distance: usize,
    /// Policy label.
    pub policy: String,
    /// Mean leaked-qubit-rounds per shot (total leakage exposure).
    pub average_dlp: f64,
    /// Mean data LRCs per shot.
    pub data_lrcs: f64,
}

/// Reproduces Figure 14: total leakages and LRC usage as the code distance grows.
#[must_use]
pub fn fig14_distance_scaling(scale: &Scale) -> Vec<DistanceScalingRow> {
    let policies = [EraserM, GladiatorM, Ideal];
    let mut scenarios: Vec<Scenario> = Vec::new();
    for paper_d in [7usize, 11, 13, 17] {
        let d = scale.distance(paper_d);
        // Capped distances collapse; the first paper distance sets the rounds.
        if scenarios.iter().all(|s| s.distance != d) {
            let rounds = scale.rounds(100 * paper_d);
            scenarios.extend(cells(CodeFamily::Surface, d, rounds, (1e-3, 0.1), &policies, scale));
        }
    }
    run_rows(&scenarios, |cell| DistanceScalingRow {
        distance: cell.scenario.distance,
        policy: cell.scenario.policy.label().to_string(),
        average_dlp: cell.metrics.average_dlp,
        data_lrcs: cell.metrics.data_lrcs,
    })
}

// ---------------------------------------------------------------------------------
// Table 2: leakage-detection efficacy of all baselines.
// ---------------------------------------------------------------------------------

/// Reproduces Table 2: FN / FP / LRC rates and leakage populations after two horizons
/// for Always-LRC, ERASER(±M), MLR-only, Staggered and GLADIATOR+M.
#[must_use]
pub fn table2_efficacy(scale: &Scale) -> Vec<PolicyExperimentResult> {
    policy_results(&cells(
        CodeFamily::Surface,
        scale.distance(7),
        scale.rounds(700).max(10),
        (1e-3, 0.1),
        &[AlwaysLrc, Eraser, EraserM, MlrOnly, Staggered, GladiatorM],
        scale,
    ))
}

// ---------------------------------------------------------------------------------
// Table 3: FPGA resource usage.
// ---------------------------------------------------------------------------------

/// Reproduces Table 3: LUTs per logical qubit for GLADIATOR vs ERASER at d = 5..25.
#[must_use]
pub fn table3_lut_usage() -> Vec<LutReport> {
    // Build the checker expression from the surface-code model so the per-checker cost
    // reflects this repository's actual flagged-pattern set.
    let model = GladiatorModel::for_code(&Code::rotated_surface(5), GladiatorConfig::default());
    let per_checker = checker_luts(&model.minimized_expression());
    lut_table(&[5, 9, 13, 17, 21, 25], per_checker)
}

// ---------------------------------------------------------------------------------
// Table 4: leakage equilibrium and speculation inaccuracy.
// ---------------------------------------------------------------------------------

/// One Table 4 cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Policy label.
    pub policy: String,
    /// Leakage ratio of the sweep point (equilibrium columns).
    pub leakage_ratio: f64,
    /// Physical error rate of the sweep point (inaccuracy columns).
    pub p: f64,
    /// Steady-state (final-round) data leakage population.
    pub leakage_equilibrium: f64,
    /// Speculation inaccuracy (FP + FN) per round.
    pub inaccuracy_per_round: f64,
}

/// Reproduces Table 4 for GLADIATOR+M and ERASER+M at d = 11.
#[must_use]
pub fn table4_equilibrium(scale: &Scale) -> Vec<Table4Row> {
    let (d, rounds) = (scale.distance(11), scale.rounds(100 * 11));
    // Policy-major: the three equilibrium columns (lr at p = 1e-3), then the
    // two inaccuracy columns (p at lr = 0.1).
    let points = [(1e-3, 0.01), (1e-3, 0.1), (1e-3, 1.0), (1e-3, 0.1), (1e-4, 0.1)];
    let mut scenarios = Vec::new();
    for kind in [GladiatorM, EraserM] {
        for point in points {
            scenarios.extend(cells(CodeFamily::Surface, d, rounds, point, &[kind], scale));
        }
    }
    run_rows(&scenarios, |cell| Table4Row {
        policy: cell.scenario.policy.label().to_string(),
        leakage_ratio: cell.scenario.leakage_ratio,
        p: cell.scenario.p,
        leakage_equilibrium: cell.metrics.final_dlp,
        inaccuracy_per_round: cell.metrics.inaccuracy_per_round,
    })
}

// ---------------------------------------------------------------------------------
// Table 5: generalization across code families.
// ---------------------------------------------------------------------------------

/// Reduction factors of GLADIATOR+M over ERASER+M for one code family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table5Row {
    /// Code family / instance name.
    pub code: String,
    /// LRC-count reduction factor (ERASER / GLADIATOR).
    pub lrc_reduction: f64,
    /// Data-leakage-population reduction factor.
    pub dlp_reduction: f64,
    /// LRC-attributable cycle-time reduction factor.
    pub cycle_time_reduction: f64,
}

/// Reproduces Table 5: reduction factors of GLADIATOR over ERASER on the surface,
/// color, HGP and BPC codes.
#[must_use]
pub fn table5_code_families(scale: &Scale) -> Vec<Table5Row> {
    let families = [
        (CodeFamily::Surface, scale.distance(7)),
        (CodeFamily::Color, scale.distance(7)),
        (CodeFamily::Hgp, if scale.max_distance >= 9 { 3 } else { 2 }),
        (CodeFamily::Bpc, 21),
    ];
    let rounds = scale.rounds(100).max(10);
    let policies = [EraserM, GladiatorM];
    let mut scenarios = Vec::new();
    for (code, size) in families {
        scenarios.extend(cells(code, size, rounds, (1e-3, 0.1), &policies, scale));
    }
    run_scenarios(&scenarios, false)
        .chunks(policies.len())
        .map(|pair| {
            let (eraser, glad) = (&pair[0].metrics, &pair[1].metrics);
            let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::INFINITY };
            Table5Row {
                code: pair[0].code.clone(),
                lrc_reduction: ratio(eraser.data_lrcs, glad.data_lrcs),
                dlp_reduction: ratio(eraser.average_dlp, glad.average_dlp),
                cycle_time_reduction: ratio(eraser.lrc_time_ns, glad.lrc_time_ns),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------------
// Table 6: leakage-mobility classification.
// ---------------------------------------------------------------------------------

/// One mobility point of Table 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    /// Physical leakage mobility used in the simulation (%).
    pub mobility_percent: f64,
    /// The true regime according to the 5% threshold.
    pub true_regime: String,
    /// Fraction of shots classified into the true regime.
    pub accuracy: f64,
    /// Mean estimated conditional probability.
    pub estimated_conditional: f64,
}

/// Reproduces Table 6: classification accuracy of the mobility estimator at several
/// physical mobilities.
#[must_use]
pub fn table6_mobility(scale: &Scale) -> Vec<Table6Row> {
    let d = scale.distance(7);
    let code = Code::rotated_surface(d);
    // Each data qubit's checks; the estimator only asks whether any is flagged.
    let mut adjacency = vec![Vec::new(); code.num_data()];
    for check in code.checks() {
        for &q in &check.support {
            adjacency[q].push(check.id);
        }
    }
    let rounds = scale.rounds(300).max(20);
    [1.0f64, 2.5, 5.0, 6.0, 9.0]
        .iter()
        .map(|&mobility_percent| {
            let mobility = mobility_percent / 100.0;
            let true_regime =
                if mobility < 0.05 { MobilityRegime::Low } else { MobilityRegime::High };
            let noise = NoiseParams::builder()
                .physical_error_rate(1e-3)
                .leakage_ratio(1.0)
                .mobility(mobility)
                .build();
            let s = spec(GladiatorM, noise, rounds, scale);
            let mut correct = 0usize;
            let mut classified = 0usize;
            let mut conditional_sum = 0.0;
            // Per-shot mobility estimation happens on the worker threads; only the
            // tiny (regime, conditional) summaries flow back.
            let verdicts = BatchEngine::new(&code, &s).map_records(|_, run| {
                let mut estimator = MobilityEstimator::new();
                for r in 1..run.num_rounds() {
                    let mlr = run.round(r - 1).mlr_leak_flags();
                    estimator.observe_round(run.round(r).data_lrcs(), |c| mlr.get(c), &adjacency);
                }
                estimator
                    .classify()
                    .map(|regime| (regime, estimator.conditional_probability().unwrap_or(0.0)))
            });
            for (regime, conditional) in verdicts.into_iter().flatten() {
                classified += 1;
                conditional_sum += conditional;
                if regime == true_regime {
                    correct += 1;
                }
            }
            Table6Row {
                mobility_percent,
                true_regime: format!("{true_regime:?}"),
                accuracy: if classified > 0 { correct as f64 / classified as f64 } else { 0.0 },
                estimated_conditional: if classified > 0 {
                    conditional_sum / classified as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_presets_are_ordered() {
        assert!(Scale::smoke().shots < Scale::quick().shots);
        assert!(Scale::quick().shots < Scale::paper().shots);
        assert_eq!(Scale::smoke().distance(11), 5);
        assert_eq!(Scale::paper().distance(11), 11);
        assert!(Scale::smoke().rounds(1000) >= 4);
    }

    #[test]
    fn fig3_reproduces_fifty_percent_bitflip_and_accumulation() {
        let result = fig3_device_characterization(&Scale::smoke());
        assert!((result.leaked_cnot_bitflip - 0.5).abs() < 0.07);
        let with = result.accumulation_with_injection.last().copied().unwrap_or(0.0);
        let without = result.accumulation_without_injection.last().copied().unwrap_or(1.0);
        assert!(with > without);
        // With no LRCs the seeded leak persists and spreads through the leaked CNOTs.
        let curve = &result.accumulation_with_injection;
        let mean = |rounds: &[f64]| rounds.iter().sum::<f64>() / rounds.len() as f64;
        assert!(mean(&curve[curve.len() - 10..]) >= mean(&curve[..10]));
        assert!(with > 5.0 * without, "with injection {with}, without {without}");
    }

    #[test]
    fn fig9_smoke_produces_all_six_policies() {
        let results = fig9_speculation_accuracy(&Scale::smoke());
        assert_eq!(results.len(), 6);
        assert!(results.iter().any(|r| r.policy == "gladiator-d+m"));
    }

    #[test]
    fn table3_matches_published_gladiator_row_shape() {
        let table = table3_lut_usage();
        assert_eq!(table.len(), 6);
        // Reduction factors must be large at every distance.
        for report in &table {
            assert!(report.reduction_factor() > 10.0);
        }
    }

    #[test]
    fn table5_smoke_covers_all_four_code_families() {
        let rows = table5_code_families(&Scale::smoke());
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|r| r.code.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("surface")));
        assert!(names.iter().any(|n| n.starts_with("color")));
        assert!(names.iter().any(|n| n.starts_with("hgp")));
        assert!(names.iter().any(|n| n.starts_with("bpc")));
    }

    #[test]
    fn pattern_histogram_counts_only_the_requested_width() {
        let scale = Scale::smoke();
        let code = Code::rotated_surface(3);
        let rows = pattern_usage_histogram(&code, PolicyKind::EraserM, 4, &scale, 10);
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.width == 4));
    }

    #[test]
    fn suppression_factor_handles_missing_policies() {
        let rows = vec![
            LerRow {
                policy: "x".into(),
                distance: 3,
                p: 1e-3,
                logical_error_rate: 0.1,
                lrcs_per_round: 0.0,
            },
            LerRow {
                policy: "x".into(),
                distance: 5,
                p: 1e-3,
                logical_error_rate: 0.02,
                lrcs_per_round: 0.0,
            },
        ];
        let lambda = suppression_factor(&rows, "x");
        assert_eq!(lambda.len(), 1);
        assert!((lambda[0] - 5.0).abs() < 1e-9);
        assert!(suppression_factor(&rows, "missing").is_empty());
    }
}

//! Scenario-sweep orchestration: declarative grids over the batch engine.
//!
//! A [`SweepSpec`] describes a parameter grid (code family × distances ×
//! error rates × leakage ratios × policies); [`SweepSpec::expand`] lowers it
//! to a deduplicated, stably-ordered list of [`Scenario`]s and
//! [`run_sweep`] executes them, sharing every reusable artifact across grid
//! cells:
//!
//! * one concrete [`Code`](qec_codes::Code) instance per `(family, distance)`,
//! * one [`PolicyFactory`] per `(family, distance)`, re-calibrated (not
//!   rebuilt) when the error-rate axis moves — the pattern extractor, site
//!   classes and colouring survive every calibration change,
//! * one decoder backend per `(family, distance, rounds, decoder kind)`,
//! * one [`BatchEngine`] per cell, wired onto the shared artifacts via
//!   [`BatchEngine::with_shared`].
//!
//! Results are returned as a schema-versioned [`SweepReport`] whose JSON
//! rendering is byte-identical across worker-thread counts (the engine's
//! `seed + shot` contract); wall-times are the one non-deterministic field
//! and can be disabled for comparison jobs (`timing = false`).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_decoder::{DecoderBackend, DecoderKind};

use crate::engine::{build_backend, BatchEngine};
use crate::metrics::AggregateMetrics;
use crate::replay::{CorpusRunError, DivergenceProfile, ReplayMode};
use crate::runners::Scale;
use crate::scenario::{CodeFamily, Scenario};

/// Version of the sweep-report JSON schema; bump when the shape changes.
/// (v2: added the `recorded_policy` provenance field for corpus-backed sweeps.
/// v3: added the `replay_mode` provenance field and per-cell closed-loop
/// divergence profiles. v4: specs gained the optional `adaptive` block —
/// confidence-targeted shot allocation via [`crate::adaptive`]; per-cell
/// `scenario.shots` now reports the shots actually allocated.)
pub const SWEEP_SCHEMA_VERSION: u32 = 4;

/// A declarative parameter grid over the batch engine.
///
/// The grid expands to the cartesian product
/// `distances × error_rates × leakage_ratios × policies` (in that nesting
/// order, innermost last). Every axis is deduplicated during expansion; the
/// numeric axes are additionally sorted, so permuting them leaves the
/// expansion unchanged. Policies keep their listed order (paper figures order
/// them deliberately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Code family every cell runs on.
    pub code: CodeFamily,
    /// Family size parameters (code distances) to sweep.
    pub distances: Vec<usize>,
    /// Physical error rates `p` to sweep.
    pub error_rates: Vec<f64>,
    /// Leakage ratios `lr` to sweep.
    pub leakage_ratios: Vec<f64>,
    /// Policies to evaluate in every grid cell.
    pub policies: Vec<PolicyKind>,
    /// Monte-Carlo shots per cell.
    pub shots: usize,
    /// Rounds per shot, as a multiple of the distance (`rounds = max(2, k·d)`).
    pub rounds_per_distance: usize,
    /// Base RNG seed (shared by every cell; shot `i` uses `seed + i`).
    pub seed: u64,
    /// Whether to decode every shot and report per-cell logical error rates.
    pub decode: bool,
    /// Optional decoder-backend axis: each grid cell is evaluated once per
    /// listed backend (one extra innermost axis, just outside policies), so a
    /// single corpus yields cross-decoder LER rows in one report. `None` is
    /// the legacy single-backend sweep on union-find; the field is omitted
    /// from serialized specs when `None` (additive — the sweep schema version
    /// does not bump, like the serve protocol's additive-field rule).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decoders: Option<Vec<DecoderKind>>,
    /// Optional adaptive shot allocation: when present, `shots` becomes a
    /// per-cell **ceiling** and each cell sequentially allocates deterministic
    /// shot batches until its Wilson confidence interval reaches the block's
    /// target relative half-width (see [`crate::adaptive`]). Omitted from
    /// serialized specs when `None`, so legacy fixed-shot specs and reports
    /// keep their exact bytes (additive, like `decoders`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adaptive: Option<crate::adaptive::AdaptiveSpec>,
}

impl SweepSpec {
    /// The default 12-cell grid: 3 surface-code distances × 2 error rates ×
    /// ERASER+M vs GLADIATOR+M, sized by `scale` (shots, seed, round budget).
    #[must_use]
    pub fn for_scale(scale: &Scale) -> Self {
        SweepSpec {
            code: CodeFamily::Surface,
            distances: vec![3, 5, 7],
            error_rates: vec![1e-3, 2e-3],
            leakage_ratios: vec![0.1],
            policies: vec![PolicyKind::EraserM, PolicyKind::GladiatorM],
            shots: scale.shots,
            rounds_per_distance: ((10.0 * scale.rounds_factor).round() as usize).max(1),
            seed: scale.seed,
            decode: true,
            decoders: None,
            adaptive: None,
        }
    }

    /// Number of grid cells the spec expands to (after axis deduplication).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        let backends = self.decoder_axis().map_or(0, |axis| axis.len());
        self.clone()
            .normalized_axes()
            .map_or(0, |(d, p, lr, pol)| d.len() * p.len() * lr.len() * pol.len() * backends)
    }

    /// The expansion's decoder axis: the deduplicated listed backends, or the
    /// single legacy `None` (union-find) slot when no axis was requested.
    fn decoder_axis(&self) -> Result<Vec<Option<DecoderKind>>, String> {
        match &self.decoders {
            None => Ok(vec![None]),
            Some(kinds) => {
                let mut axis: Vec<Option<DecoderKind>> = Vec::new();
                for &kind in kinds {
                    if !axis.contains(&Some(kind)) {
                        axis.push(Some(kind));
                    }
                }
                if axis.is_empty() {
                    return Err("sweep axis `decoders` is empty".to_string());
                }
                Ok(axis)
            }
        }
    }

    /// Sorted, deduplicated axes; errors on empty or non-finite axes.
    #[allow(clippy::type_complexity)]
    fn normalized_axes(self) -> Result<(Vec<usize>, Vec<f64>, Vec<f64>, Vec<PolicyKind>), String> {
        let mut distances = self.distances;
        distances.sort_unstable();
        distances.dedup();
        let sorted_rates = |mut rates: Vec<f64>, axis: &str| -> Result<Vec<f64>, String> {
            if rates.iter().any(|r| !r.is_finite()) {
                return Err(format!("{axis} axis contains a non-finite value"));
            }
            rates.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
            rates.dedup();
            Ok(rates)
        };
        let error_rates = sorted_rates(self.error_rates, "error-rate")?;
        let leakage_ratios = sorted_rates(self.leakage_ratios, "leakage-ratio")?;
        // Policies keep their listed order (paper figures order them
        // deliberately); duplicates collapse onto the first occurrence.
        let mut policies: Vec<PolicyKind> = Vec::new();
        for kind in self.policies {
            if !policies.contains(&kind) {
                policies.push(kind);
            }
        }
        for (axis, empty) in [
            ("distances", distances.is_empty()),
            ("error_rates", error_rates.is_empty()),
            ("leakage_ratios", leakage_ratios.is_empty()),
            ("policies", policies.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep axis `{axis}` is empty"));
            }
        }
        Ok((distances, error_rates, leakage_ratios, policies))
    }

    /// Expands the grid to its scenario list: the cartesian product of the
    /// normalized axes, ordered distance-major / policy-minor. The ordering is
    /// stable under permutation and duplication of the input axes, and every
    /// scenario is validated before any is returned.
    ///
    /// # Errors
    /// Returns a message when an axis is empty, a value is non-finite,
    /// `rounds_per_distance × distance` overflows, or any expanded scenario
    /// fails [`Scenario::validate`].
    pub fn expand(&self) -> Result<Vec<Scenario>, String> {
        let spec = self.clone();
        if let Some(adaptive) = &self.adaptive {
            adaptive.validate()?;
        }
        let decoder_axis = self.decoder_axis()?;
        let (distances, error_rates, leakage_ratios, policies) = spec.normalized_axes()?;
        let mut scenarios = Vec::new();
        for &distance in &distances {
            let rounds = self.rounds_per_distance.checked_mul(distance).ok_or_else(|| {
                format!(
                    "rounds_per_distance {} times distance {distance} overflows the round count",
                    self.rounds_per_distance
                )
            })?;
            let rounds = rounds.max(2);
            for &p in &error_rates {
                for &leakage_ratio in &leakage_ratios {
                    // The decoder axis sits just outside policies, so a
                    // corpus-backed sweep still sees each policy-free cell as
                    // one consecutive scenario group (decoders, like
                    // policies, are excluded from the cell key).
                    for &decoder in &decoder_axis {
                        for &policy in &policies {
                            let scenario = Scenario {
                                code: self.code,
                                distance,
                                rounds,
                                p,
                                leakage_ratio,
                                policy,
                                shots: self.shots,
                                seed: self.seed,
                                decode: self.decode,
                                decoder,
                            };
                            scenario
                                .validate()
                                .map_err(|e| format!("cell {}: {e}", scenario.id()))?;
                            scenarios.push(scenario);
                        }
                    }
                }
            }
        }
        Ok(scenarios)
    }
}

/// One executed grid cell: the scenario, the concrete code it ran on, the
/// aggregated metrics, and the cell's wall-clock time (0 when timing is off).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// The cell's coordinates.
    pub scenario: Scenario,
    /// Name of the concrete code instance (e.g. `surface-d5`).
    pub code: String,
    /// Aggregated per-shot metrics (LER, LRC counts, FP/FN accuracy, DLP).
    pub metrics: AggregateMetrics,
    /// Per-round divergence statistics of closed-loop corpus-backed cells:
    /// where the policy's shots first left the recorded schedule and how much
    /// re-simulation the divergence repairs cost. `None` for fully simulated
    /// and open-loop cells.
    pub divergence_profile: Option<DivergenceProfile>,
    /// Wall-clock time of the cell in milliseconds; exactly `0.0` when the
    /// sweep ran with timing disabled (determinism-comparison mode).
    pub wall_time_ms: f64,
}

/// A self-describing sweep result: schema version, provenance, the expanded
/// spec and one row per grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// [`SWEEP_SCHEMA_VERSION`] at the time the report was written.
    pub schema_version: u32,
    /// Tool and version that produced the report.
    pub generator: String,
    /// `git describe --always --dirty` of the producing checkout, or `unknown`.
    pub git_describe: String,
    /// Whether wall-times were recorded (false ⇒ every `wall_time_ms` is 0).
    pub timing: bool,
    /// For corpus-backed sweeps ([`run_sweep_with_corpus`]): the label of the
    /// policy that recorded each cell's trace. Cells for that policy are
    /// bit-for-bit live metrics; what other policies' cells mean depends on
    /// `replay_mode`. `None` for fully simulated sweeps.
    pub recorded_policy: Option<String>,
    /// For corpus-backed sweeps: `open-loop` (cross-policy cells are
    /// trace-driven speculation scores whose DLP/LER describe the recorded
    /// execution) or `closed-loop` (every cell is a bit-for-bit exact
    /// counterfactual of its policy, divergence-repaired per shot). `None` for
    /// fully simulated sweeps.
    pub replay_mode: Option<String>,
    /// The sweep specification the report answers.
    pub spec: SweepSpec,
    /// One row per grid cell, in [`SweepSpec::expand`] order.
    pub cells: Vec<SweepCell>,
}

/// Expands and executes a sweep, producing the schema-versioned report.
///
/// With `timing = false` the report is a pure function of the spec: byte-for-
/// byte identical across runs, worker-thread counts and machines (modulo the
/// `git_describe` provenance of the checkout).
///
/// # Errors
/// Returns a message when the spec fails to expand (see [`SweepSpec::expand`]).
pub fn run_sweep(spec: &SweepSpec, timing: bool) -> Result<SweepReport, String> {
    let scenarios = spec.expand()?;
    let cells = run_scenarios(&scenarios, timing);
    Ok(SweepReport {
        schema_version: SWEEP_SCHEMA_VERSION,
        generator: format!("repro sweep {}", env!("CARGO_PKG_VERSION")),
        git_describe: git_describe(),
        timing,
        recorded_policy: None,
        replay_mode: None,
        spec: spec.clone(),
        cells,
    })
}

/// Expands and executes a sweep against a trace corpus: every *policy-free*
/// cell `(family, d, rounds, p, lr, shots, seed)` is **simulated once** — a
/// corpus hit reuses the recorded trace, a miss records it under
/// `record_policy` (default: the grid's first policy) — and every policy of
/// the grid is then *replayed* against that recording.
///
/// The cell whose policy recorded the trace carries bit-for-bit the metrics a
/// fully simulated sweep would report (including the LER when decoding). What
/// the other policies' cells mean depends on `mode`:
///
/// * [`ReplayMode::OpenLoop`] — trace-driven speculation scores: FP/FN and
///   LRC counts answer "what would this policy have speculated on this
///   execution", while DLP (and any LER) describe the recorded execution
///   itself. This is the evaluation methodology of ERASER (arXiv:2309.13143);
///   it turns an `O(policies × shots)` simulation bill into `O(shots)` +
///   cheap replay.
/// * [`ReplayMode::ClosedLoop`] — exact counterfactuals: each shot replays
///   until its first schedule divergence and re-simulates from there under
///   the recorded seed contract, so **every** cell (DLP and LER included) is
///   bit-for-bit what a fully simulated sweep of that policy would report,
///   at replay cost for non-divergent shots. Cells carry per-round
///   [`DivergenceProfile`]s.
///
/// Each recorded cell's whole policy group is evaluated as one candidate set
/// ([`crate::replay::evaluate_cell_set`]); in closed-loop mode divergent
/// shots re-execute their forced prefix **once per shot** and serve every
/// candidate from shared simulator checkpoints. With `timing`, cells in a
/// policy group report an equal share of the group's wall time (the group is
/// evaluated jointly, so per-policy time is not separable).
///
/// With `timing = false` the report is byte-identical across worker-thread
/// counts, exactly like [`run_sweep`].
///
/// # Errors
/// [`CorpusRunError::Load`] when a cell fails
/// [`load_entry`](crate::replay::load_entry); [`CorpusRunError::Other`] when
/// the spec fails to expand, or the corpus cannot be read or written, or it
/// was recorded under another policy.
pub fn run_sweep_with_corpus(
    spec: &SweepSpec,
    corpus_dir: &std::path::Path,
    record_policy: Option<PolicyKind>,
    timing: bool,
    mode: ReplayMode,
) -> Result<SweepReport, CorpusRunError> {
    use crate::replay::{
        cell_key, evaluate_cell_set, load_entry, record_into_corpus, reproduces_live,
    };

    let scenarios = spec.expand()?;
    let mut corpus = qec_trace::Corpus::open(corpus_dir).map_err(|e| e.to_string())?;
    let recording_kind = record_policy
        .or_else(|| scenarios.first().map(|s| s.policy))
        .expect("expansion yields at least one scenario");
    let generator = format!("repro sweep {}", env!("CARGO_PKG_VERSION"));
    let mut cells = Vec::with_capacity(scenarios.len());
    let mut manifest_dirty = false;
    let mut engines = SharedEngines::default();
    let mut start = 0usize;
    while start < scenarios.len() {
        // Policies are the innermost expansion axis, so one recorded cell
        // serves a consecutive scenario group.
        let scenario = &scenarios[start];
        let key = cell_key(scenario);
        let end = start + scenarios[start..].iter().take_while(|s| cell_key(s) == key).count();
        let entry = match corpus.lookup(&key) {
            Some(entry) => entry.clone(),
            None => {
                let entry = record_into_corpus(&mut corpus, scenario, recording_kind, &generator)
                    .map_err(|e| format!("cell {key}: {e}"))?;
                manifest_dirty = true;
                entry
            }
        };
        // `load_entry` refuses a shard whose recorded cell key is not `key`.
        let cell = load_entry(&corpus, &entry).map_err(CorpusRunError::Load)?;
        // A cache hit recorded under a different policy would silently turn the
        // report's "recorded policy" cells into open-loop replays (and drop
        // their LER). Insist the corpus matches the sweep's recording policy.
        if cell.header.policy != recording_kind.label() {
            return Err(CorpusRunError::Other(format!(
                "cell {key}: corpus trace was recorded with policy `{}`, but this sweep records \
                 with `{}` — pass --record-policy {} or use a fresh corpus directory",
                cell.header.policy,
                recording_kind.label(),
                cell.header.policy
            )));
        }
        let group = &scenarios[start..end];
        let group_start = Instant::now();
        let (factory, _) = engines.artifacts(scenario, false)?;
        // Only a pairing that reproduces the live run decodes.
        let shot_decoders = group
            .iter()
            .map(|s| {
                let decode = s.decode && reproduces_live(&cell, s.policy, mode);
                Ok(engines.artifacts(s, decode)?.1)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let decoder_refs: Vec<Option<&dyn DecoderBackend>> =
            shot_decoders.iter().map(std::option::Option::as_deref).collect();
        let kinds: Vec<PolicyKind> = group.iter().map(|s| s.policy).collect();
        let (replays, _stats) =
            evaluate_cell_set(&cell, &factory, &kinds, &decoder_refs, mode, true)
                .map_err(|e| format!("cell {key}: {e}"))?;
        let wall_time_ms = if timing {
            group_start.elapsed().as_secs_f64() * 1e3 / group.len() as f64
        } else {
            0.0
        };
        for (scenario, replay) in group.iter().zip(replays) {
            cells.push(SweepCell {
                scenario: *scenario,
                code: cell.code.name().to_string(),
                metrics: replay.metrics,
                divergence_profile: replay.profile,
                wall_time_ms,
            });
        }
        start = end;
    }
    if manifest_dirty {
        corpus.save().map_err(|e| e.to_string())?;
    }
    Ok(SweepReport {
        schema_version: SWEEP_SCHEMA_VERSION,
        generator,
        git_describe: git_describe(),
        timing,
        recorded_policy: Some(recording_kind.label().to_string()),
        replay_mode: Some(mode.label().to_string()),
        spec: spec.clone(),
        cells,
    })
}

/// Executes a list of scenarios in order, sharing the code instance, the
/// policy factory (re-calibrated across error-rate changes) and the decoder
/// across consecutive scenarios with the same `(family, distance)`.
///
/// Scenario lists produced by [`SweepSpec::expand`] maximize that sharing; an
/// arbitrary list still runs correctly, paying one artifact build per
/// `(family, distance)` run.
#[must_use]
pub fn run_scenarios(scenarios: &[Scenario], timing: bool) -> Vec<SweepCell> {
    let mut engines = SharedEngines::default();
    scenarios
        .iter()
        .map(|scenario| {
            let engine =
                engines.engine(scenario).expect("expansion validates decoder/code compatibility");
            let cell_start = Instant::now();
            let result = engine.run();
            let wall_time_ms = if timing { cell_start.elapsed().as_secs_f64() * 1e3 } else { 0.0 };
            SweepCell {
                scenario: *scenario,
                code: result.code,
                metrics: result.metrics,
                divergence_profile: None,
                wall_time_ms,
            }
        })
        .collect()
}

/// The one artifact-sharing source of every grid, live or corpus-backed: fed
/// scenarios in order, it hands out each scenario's calibrated policy factory
/// and decoder ([`SharedEngines::artifacts`]), or a [`BatchEngine`] wired onto
/// them ([`SharedEngines::engine`]). Consecutive scenarios with the same
/// `(family, distance)` share one policy factory (re-calibrated, not rebuilt,
/// when the error rate moves) and one decoder backend per `(rounds, decoder)`.
/// Only the current group's artifacts are held; each engine keeps its own
/// handles to the ones it uses.
#[derive(Default)]
pub(crate) struct SharedEngines {
    group: Option<EngineGroup>,
}

/// The artifacts shared by one `(family, distance)` run of scenarios.
struct EngineGroup {
    key: (CodeFamily, usize),
    factory: Arc<PolicyFactory>,
    decoders: BTreeMap<(usize, Option<DecoderKind>), Arc<dyn DecoderBackend>>,
}

impl SharedEngines {
    /// The engine of the next scenario.
    ///
    /// # Errors
    /// Returns a message when the scenario's decoder cannot serve its code.
    pub(crate) fn engine(&mut self, scenario: &Scenario) -> Result<BatchEngine, String> {
        let spec = scenario.to_spec();
        let (factory, decoder) = self.artifacts(scenario, spec.decode)?;
        Ok(BatchEngine::with_shared(&spec, factory, decoder))
    }

    /// The scenario's policy factory, calibrated to its `(p, lr)`, and, when
    /// `decode` is set, its decoder for `(rounds, decoder)`.
    ///
    /// # Errors
    /// Returns a message when the scenario's decoder cannot serve its code.
    #[allow(clippy::type_complexity)]
    pub(crate) fn artifacts(
        &mut self,
        scenario: &Scenario,
        decode: bool,
    ) -> Result<(Arc<PolicyFactory>, Option<Arc<dyn DecoderBackend>>), String> {
        let calibration = scenario.to_spec().gladiator;
        let key = (scenario.code, scenario.distance);
        let group = match &mut self.group {
            Some(group) if group.key == key => {
                if group.factory.config() != &calibration {
                    group.factory = Arc::new(group.factory.recalibrated(&calibration));
                }
                group
            }
            slot => {
                let factory = Arc::new(PolicyFactory::new(&scenario.build_code(), &calibration));
                slot.insert(EngineGroup { key, factory, decoders: BTreeMap::new() })
            }
        };
        let decoder = if decode {
            let backend = match group.decoders.entry((scenario.rounds, scenario.decoder)) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(
                    build_backend(scenario.decoder, group.factory.code(), scenario.rounds)
                        .map_err(|e| format!("cell {}: {e}", scenario.id()))?,
                ),
            };
            Some(Arc::clone(backend))
        } else {
            None
        };
        Ok((Arc::clone(&group.factory), decoder))
    }
}

/// `git describe --always --dirty` of the current checkout, or `"unknown"`
/// when git (or the repository) is unavailable. Read once per process and
/// cached in a `OnceLock`: every report, recording and daemon `version` answer
/// of one process carries the same provenance, and only the first pays for
/// spawning `git`.
#[must_use]
pub fn git_describe() -> String {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            code: CodeFamily::Surface,
            distances: vec![3],
            error_rates: vec![1e-3],
            leakage_ratios: vec![0.1],
            policies: vec![PolicyKind::EraserM],
            shots: 2,
            rounds_per_distance: 1,
            seed: 5,
            decode: false,
            decoders: None,
            adaptive: None,
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_stable_order() {
        let spec = SweepSpec {
            distances: vec![5, 3],
            error_rates: vec![2e-3, 1e-3],
            policies: vec![PolicyKind::GladiatorM, PolicyKind::EraserM],
            ..tiny_spec()
        };
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(spec.cell_count(), 8);
        // Distance-major, then error rate, then policy in listed order.
        assert_eq!(scenarios[0].distance, 3);
        assert_eq!(scenarios[0].p, 1e-3);
        assert_eq!(scenarios[0].policy, PolicyKind::GladiatorM);
        assert_eq!(scenarios[1].policy, PolicyKind::EraserM);
        assert_eq!(scenarios[2].p, 2e-3);
        assert_eq!(scenarios[4].distance, 5);
        // Sorted axes: permuting the input does not change the expansion.
        let permuted =
            SweepSpec { distances: vec![3, 5], error_rates: vec![1e-3, 2e-3], ..spec.clone() };
        assert_eq!(permuted.expand().unwrap(), scenarios);
    }

    #[test]
    fn expansion_deduplicates_every_axis() {
        let spec = SweepSpec {
            distances: vec![3, 3, 5, 3],
            error_rates: vec![1e-3, 1e-3],
            leakage_ratios: vec![0.1, 0.1],
            policies: vec![PolicyKind::EraserM, PolicyKind::EraserM, PolicyKind::Ideal],
            ..tiny_spec()
        };
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 2 * 2);
        assert_eq!(spec.cell_count(), 4);
    }

    #[test]
    fn expansion_rejects_bad_grids() {
        assert!(SweepSpec { distances: vec![], ..tiny_spec() }.expand().is_err());
        assert!(SweepSpec { policies: vec![], ..tiny_spec() }.expand().is_err());
        assert!(SweepSpec { error_rates: vec![f64::NAN], ..tiny_spec() }.expand().is_err());
        assert!(SweepSpec { distances: vec![4], ..tiny_spec() }.expand().is_err());
        assert!(SweepSpec { distances: vec![1001], ..tiny_spec() }.expand().is_err());
        assert!(SweepSpec { shots: 0, ..tiny_spec() }.expand().is_err());
        assert_eq!(SweepSpec { distances: vec![], ..tiny_spec() }.cell_count(), 0);
    }

    #[test]
    fn decoder_axis_expands_outside_policies_and_validates_cells() {
        let spec = SweepSpec {
            policies: vec![PolicyKind::EraserM, PolicyKind::GladiatorM],
            decoders: Some(vec![DecoderKind::UnionFind, DecoderKind::Lookup]),
            decode: true,
            ..tiny_spec()
        };
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(spec.cell_count(), 4);
        // Decoder-major over the policy list, so corpus grouping stays intact.
        assert_eq!(scenarios[0].decoder, Some(DecoderKind::UnionFind));
        assert_eq!(scenarios[1].decoder, Some(DecoderKind::UnionFind));
        assert_eq!(scenarios[2].decoder, Some(DecoderKind::Lookup));
        assert_eq!(scenarios[0].policy, PolicyKind::EraserM);
        assert_eq!(scenarios[1].policy, PolicyKind::GladiatorM);
        // Duplicates collapse; an explicitly empty axis is an error.
        let duplicated = SweepSpec {
            decoders: Some(vec![DecoderKind::Lookup, DecoderKind::Lookup]),
            ..tiny_spec()
        };
        assert_eq!(duplicated.expand().unwrap().len(), 1);
        assert!(SweepSpec { decoders: Some(vec![]), ..tiny_spec() }.expand().is_err());
        // The lookup table only exists at d=3: expansion is where the
        // decoder/family mismatch must surface, as a typed error.
        let d5 = SweepSpec {
            distances: vec![5],
            decoders: Some(vec![DecoderKind::Lookup]),
            ..tiny_spec()
        };
        let err = d5.expand().unwrap_err();
        assert!(err.contains("lookup") && err.contains("distance 3"), "{err}");
    }

    /// `tiny_spec()` pretty-printed: the legacy bytes.
    const PRETTY_LEGACY: &str = r#"{
  "code": "Surface",
  "distances": [
    3
  ],
  "error_rates": [
    0.001
  ],
  "leakage_ratios": [
    0.1
  ],
  "policies": [
    "EraserM"
  ],
  "shots": 2,
  "rounds_per_distance": 1,
  "seed": 5,
  "decode": false
}"#;
    /// `tiny_spec()` with every optional block, pretty-printed.
    const PRETTY_FULL: &str = r#"{
  "code": "Surface",
  "distances": [
    3
  ],
  "error_rates": [
    0.001
  ],
  "leakage_ratios": [
    0.1
  ],
  "policies": [
    "EraserM"
  ],
  "shots": 2,
  "rounds_per_distance": 1,
  "seed": 5,
  "decode": false,
  "decoders": [
    "lookup",
    "uf"
  ],
  "adaptive": {
    "target_rel_halfwidth": 0.2,
    "confidence": 0.9,
    "initial_batch": 16
  }
}"#;

    #[test]
    fn spec_serde_omits_the_absent_decoder_axis() {
        use crate::adaptive::{spec_fingerprint, AdaptiveSpec};
        use DecoderKind::{Lookup, UnionFind};
        // Absent `decoders`/`adaptive` blocks leave no key behind, so legacy
        // specs, reports and adaptive checkpoint fingerprints (a hash of this
        // compact JSON) keep their exact bytes.
        let adaptive =
            AdaptiveSpec { target_rel_halfwidth: 0.2, confidence: 0.9, initial_batch: 16 };
        let cases = [
            (
                None,
                None,
                r#"{"code":"Surface","distances":[3],"error_rates":[0.001],"leakage_ratios":[0.1],"policies":["EraserM"],"shots":2,"rounds_per_distance":1,"seed":5,"decode":false}"#,
                0xbc3c12cee9c2a566_u64,
            ),
            (
                Some(vec![Lookup, UnionFind]),
                None,
                r#"{"code":"Surface","distances":[3],"error_rates":[0.001],"leakage_ratios":[0.1],"policies":["EraserM"],"shots":2,"rounds_per_distance":1,"seed":5,"decode":false,"decoders":["lookup","uf"]}"#,
                0x2be2eb7a8bbadeb6_u64,
            ),
            (
                Some(vec![]),
                None,
                r#"{"code":"Surface","distances":[3],"error_rates":[0.001],"leakage_ratios":[0.1],"policies":["EraserM"],"shots":2,"rounds_per_distance":1,"seed":5,"decode":false,"decoders":[]}"#,
                0xf98c17ce80cc2877_u64,
            ),
            (
                None,
                Some(adaptive),
                r#"{"code":"Surface","distances":[3],"error_rates":[0.001],"leakage_ratios":[0.1],"policies":["EraserM"],"shots":2,"rounds_per_distance":1,"seed":5,"decode":false,"adaptive":{"target_rel_halfwidth":0.2,"confidence":0.9,"initial_batch":16}}"#,
                0xf6d8880233467f78_u64,
            ),
            (
                Some(vec![Lookup, UnionFind]),
                Some(adaptive),
                r#"{"code":"Surface","distances":[3],"error_rates":[0.001],"leakage_ratios":[0.1],"policies":["EraserM"],"shots":2,"rounds_per_distance":1,"seed":5,"decode":false,"decoders":["lookup","uf"],"adaptive":{"target_rel_halfwidth":0.2,"confidence":0.9,"initial_batch":16}}"#,
                0x971d6dcd5a8a7b08_u64,
            ),
        ];
        for (decoders, adaptive, compact, fingerprint) in cases {
            let spec = SweepSpec { decoders, adaptive, ..tiny_spec() };
            assert_eq!(serde_json::to_string(&spec).unwrap(), compact);
            assert_eq!(spec_fingerprint(&spec), fingerprint, "{compact}");
            assert_eq!(serde_json::from_str::<SweepSpec>(compact).unwrap(), spec);
        }
        let full = SweepSpec {
            decoders: Some(vec![Lookup, UnionFind]),
            adaptive: Some(adaptive),
            ..tiny_spec()
        };
        for (spec, pretty) in [(tiny_spec(), PRETTY_LEGACY), (full, PRETTY_FULL)] {
            assert_eq!(serde_json::to_string_pretty(&spec).unwrap(), pretty);
            assert_eq!(serde_json::from_str::<SweepSpec>(pretty).unwrap(), spec);
        }
        let json = serde_json::to_string(&SweepSpec {
            decoders: Some(vec![UnionFind, Lookup]),
            ..tiny_spec()
        })
        .unwrap();
        let err = serde_json::from_str::<SweepSpec>(&json.replace("lookup", "bp")).unwrap_err();
        assert!(err.to_string().contains("uf, lookup"), "{err}");
    }

    #[test]
    fn live_sweep_runs_the_decoder_axis() {
        let spec = SweepSpec {
            decode: true,
            decoders: Some(vec![DecoderKind::UnionFind, DecoderKind::Lookup]),
            ..tiny_spec()
        };
        let report = run_sweep(&spec, false).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.metrics.logical_error_rate.is_some(), "{:?}", cell.scenario);
        }
        // Decoder-major rows. Which decoder wins on two shots is a seed
        // lottery; dominance is pinned on 200 shots in qec-decoder's lookup tests.
        assert_eq!(report.cells[0].scenario.decoder, Some(DecoderKind::UnionFind));
        assert_eq!(report.cells[1].scenario.decoder, Some(DecoderKind::Lookup));
    }

    #[test]
    fn rounds_scale_with_distance_and_never_vanish() {
        let spec = SweepSpec { distances: vec![3, 7], rounds_per_distance: 2, ..tiny_spec() };
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios[0].rounds, 6);
        assert_eq!(scenarios[1].rounds, 14);
        let minimal = SweepSpec { rounds_per_distance: 0, ..tiny_spec() };
        assert!(minimal.expand().unwrap().iter().all(|s| s.rounds == 2));
    }

    #[test]
    fn an_overflowing_round_count_is_an_error_naming_both_factors() {
        // 6148914691236517206 × 3 wraps to 2 in u64 arithmetic.
        let spec = SweepSpec { rounds_per_distance: 6_148_914_691_236_517_206, ..tiny_spec() };
        let err = spec.expand().unwrap_err();
        assert!(err.contains("rounds_per_distance 6148914691236517206"), "{err}");
        assert!(err.contains("distance 3"), "{err}");
    }

    #[test]
    fn default_grid_for_scale_has_twelve_cells() {
        let spec = SweepSpec::for_scale(&Scale::smoke());
        assert_eq!(spec.cell_count(), 12);
        assert_eq!(spec.shots, Scale::smoke().shots);
    }

    #[test]
    fn run_sweep_produces_one_cell_per_scenario_with_metrics() {
        let spec = SweepSpec {
            policies: vec![PolicyKind::EraserM, PolicyKind::GladiatorM],
            decode: true,
            ..tiny_spec()
        };
        let report = run_sweep(&spec, false).unwrap();
        assert_eq!(report.schema_version, SWEEP_SCHEMA_VERSION);
        assert!(!report.timing);
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.code, "surface-d3");
            assert_eq!(cell.metrics.shots, 2);
            assert!(cell.metrics.logical_error_rate.is_some());
            assert_eq!(cell.wall_time_ms, 0.0);
        }
    }

    #[test]
    fn timing_mode_records_nonzero_wall_times() {
        let report = run_sweep(&tiny_spec(), true).unwrap();
        assert!(report.timing);
        assert!(report.cells.iter().all(|c| c.wall_time_ms > 0.0));
    }
}

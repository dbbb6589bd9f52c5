//! Corpus-backed speculation evaluation: record each scenario cell once,
//! replay every policy against it.
//!
//! The recording side drives [`BatchEngine::trace_records_range`] (shot-ordered,
//! so trace bytes are independent of worker-thread count) and files the result
//! in a [`Corpus`] under a **policy-free cell key** — `(family, distance,
//! rounds, p, lr, shots, seed)` — through one writer that fills a temporary
//! sibling shard and renames it into place, whether it records a cell from
//! scratch ([`record_into_corpus`]) or grows a shorter recording of it
//! ([`extend_into_corpus`]). The replay side reconstructs each shot's run
//! bit-for-bit, drives any [`PolicyKind`]'s speculation against the recorded
//! observables ([`qec_trace::ReplayContext`]), and scores it with
//! [`RunMetrics::score_replay`].
//!
//! Replaying the policy that recorded a trace reproduces the live engine's
//! FP/FN/DLP/LRC metrics (and, with decoding, the LER) **bit-for-bit** — the
//! determinism tests in `crates/experiments/tests/replay.rs` pin this for all
//! policy kinds. Replaying any other policy is, in [`ReplayMode::OpenLoop`],
//! the trace-driven evaluation of ERASER/Varbanov: speculation accuracy
//! against the recorded execution, at replay cost instead of simulation cost —
//! but every round after the first schedule divergence is counterfactual, so
//! cross-policy DLP/LER describe the recorded execution, not the candidate's.
//!
//! [`ReplayMode::ClosedLoop`] repairs that: each shot replays until each
//! candidate's first divergence, then exact simulator state is reconstructed
//! from the trace and the recorded `seed + shot` contract — one forced prefix
//! pass per shot, checkpointed for the whole candidate set — and each
//! divergent candidate's suffix is re-simulated live
//! ([`qec_trace::ReplayContext::replay_shot_closed_loop`]). Closed-loop
//! metrics — including DLP and the decoded LER, for *every* candidate policy
//! — are **bit-for-bit** a from-scratch live simulation of that policy on the
//! same cell and seeds (the exact-counterfactual contract, pinned by
//! `crates/experiments/tests/closed_loop.rs`), while non-divergent shots never
//! touch the simulator and divergent shots skip all prefix policy evaluation.
//! Per-round [`DivergenceProfile`]s report where shots diverged and how much
//! re-simulation the repairs cost; like the out-of-band [`CheckpointStats`],
//! they follow from each candidate's first divergence round alone.
//!
//! Both modes run through one evaluator, [`evaluate_cell_set`]: a candidate
//! set against one cell in one parallel pass, with [`evaluate_cell`] as its
//! set of one. `repro replay`, corpus-backed sweeps and the `qec-serve` daemon
//! all evaluate through it.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use gladiator::GladiatorConfig;
use leakage_speculation::{PolicyFactory, PolicyKind};
use leaky_sim::{LeakagePolicy, LrcRequest, RunRecord};
use qec_codes::Code;
use qec_decoder::{logical_failure, DecoderBackend, DecoderKind, MemoryBasis};
use qec_trace::{
    check_extends, code_fingerprint, open_trace_file, CheckpointPlan, Corpus, CorpusEntry,
    DivergenceProfile, ReplayContext, ShotTrace, TraceError, TraceHeader, TraceWriter,
    TRACE_SCHEMA_VERSION,
};

use crate::engine::{build_backend, BatchEngine};
use crate::harness::ExperimentSpec;
use crate::metrics::{AggregateMetrics, RunMetrics};
use crate::scenario::{CodeFamily, Scenario};
use crate::sweep::git_describe;

/// Version of the replay-report JSON schema; bump when the shape changes.
/// (v2: added the `replay_mode` provenance field and per-row closed-loop
/// divergence profiles.)
pub const REPLAY_SCHEMA_VERSION: u32 = 2;

/// How recorded cells are evaluated against candidate policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayMode {
    /// ERASER-style trace-driven scoring: the candidate's planned schedule is
    /// judged against the recorded execution; nothing is re-simulated, and
    /// cross-policy DLP/LER describe the recorded run.
    #[default]
    OpenLoop,
    /// Divergence-repaired counterfactuals: each shot re-simulates from its
    /// first schedule divergence under the recorded seed contract, so every
    /// metric is bit-for-bit a from-scratch live run of the candidate.
    ClosedLoop,
}

impl ReplayMode {
    /// The label used in report provenance fields and CLI flags.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReplayMode::OpenLoop => "open-loop",
            ReplayMode::ClosedLoop => "closed-loop",
        }
    }
}

/// The policy-free identity of a scenario cell — everything that determines
/// the recorded execution except the policy under evaluation (and the decode
/// flag, which is a post-processing choice). This string keys the corpus.
#[must_use]
pub fn cell_key(scenario: &Scenario) -> String {
    format!(
        "{} d={} rounds={} p={:e} lr={:e} shots={} seed={}",
        scenario.code.label(),
        scenario.distance,
        scenario.rounds,
        scenario.p,
        scenario.leakage_ratio,
        scenario.shots,
        scenario.seed
    )
}

/// The GLADIATOR calibration the recording run used, re-derived from the
/// header's bit-exact noise model (matches [`Scenario::to_spec`]).
#[must_use]
pub fn calibration_for(header: &TraceHeader) -> GladiatorConfig {
    GladiatorConfig::default()
        .with_error_rate(header.noise.p)
        .with_leakage_ratio(header.noise.leakage_ratio)
}

/// Reconstructs the [`ExperimentSpec`] a trace was recorded under, with the
/// policy and decode flag replaced by the caller's choice. Because the header
/// stores the noise model bit-exactly, a [`BatchEngine`] built from this spec
/// re-simulates the recording run bit-for-bit.
#[must_use]
pub fn spec_from_header(header: &TraceHeader, policy: PolicyKind, decode: bool) -> ExperimentSpec {
    ExperimentSpec {
        policy,
        noise: header.noise,
        gladiator: calibration_for(header),
        rounds: header.rounds,
        shots: header.shots,
        seed: header.seed,
        leakage_sampling: header.leakage_sampling,
        decode,
    }
}

/// Builds the recording engine and trace header for one scenario cell.
fn recording_engine(
    scenario: &Scenario,
    record_policy: PolicyKind,
    generator: &str,
) -> (BatchEngine, TraceHeader) {
    let code = scenario.build_code();
    let spec = Scenario { policy: record_policy, ..*scenario }.to_spec();
    let engine = BatchEngine::new(&code, &spec);
    let header = TraceHeader {
        schema_version: TRACE_SCHEMA_VERSION,
        generator: generator.to_string(),
        git_describe: git_describe(),
        code_name: code.name().to_string(),
        code_fingerprint: code_fingerprint(&code),
        num_data: code.num_data(),
        num_checks: code.num_checks(),
        cnot_layers: code.checks().iter().map(qec_codes::Check::weight).max().unwrap_or(0),
        rounds: spec.rounds,
        shots: spec.shots,
        seed: spec.seed,
        policy: record_policy.label().to_string(),
        leakage_sampling: spec.leakage_sampling,
        noise: spec.noise,
    };
    (engine, header)
}

/// Records one scenario cell closed-loop under `record_policy`, returning the
/// trace header and the shot-ordered traces **fully materialized** — fine for
/// tests and benchmark cells; [`record_into_corpus`] streams to disk in
/// bounded chunks for large shot counts.
#[must_use]
pub fn record_cell(
    scenario: &Scenario,
    record_policy: PolicyKind,
    generator: &str,
) -> (TraceHeader, Vec<ShotTrace>) {
    let (engine, header) = recording_engine(scenario, record_policy, generator);
    let traces = engine.trace_records_range(0, header.shots as u64);
    (header, traces)
}

/// Shots simulated per recording chunk: bounds recording memory to
/// `O(chunk · rounds · qubits)` regardless of the cell's shot count, while
/// leaving plenty of parallelism per chunk. Chunking cannot change the trace
/// bytes (shot `i` is a pure function of `seed + i`).
const RECORD_CHUNK_SHOTS: u64 = 1024;

/// Records a cell and files it in `corpus` (trace file + manifest entry,
/// replacing any previous recording of the same key), streaming to disk in
/// `RECORD_CHUNK_SHOTS`-sized chunks so memory stays flat at paper-scale shot
/// counts. The shard is written to a temporary sibling and renamed into
/// place, so a failed recording leaves any previous shard untouched. The
/// caller persists the manifest with [`Corpus::save`].
///
/// # Errors
/// Returns a message on I/O failure.
pub fn record_into_corpus(
    corpus: &mut Corpus,
    scenario: &Scenario,
    record_policy: PolicyKind,
    generator: &str,
) -> Result<CorpusEntry, String> {
    write_cell(corpus, scenario, record_policy, generator, None)
}

/// Records a cell into `corpus` like [`record_into_corpus`], but **grows an
/// existing shorter recording of the same cell** when one is present
/// instead of re-simulating from shot zero. A reusable recording matches the
/// scenario on every policy-free identity field *except* the shot count
/// (which keys embed, so growing a cell re-keys it): family, distance,
/// rounds, `p`, `lr`, seed — plus the recording policy, which drives the
/// closed-loop execution. Under the `seed + shot` contract the grown shard is
/// exactly what a from-scratch recording would have produced, and
/// [`check_extends`] re-verifies every identity field against the shorter
/// shard's header before a shot is copied.
///
/// This is what makes adaptive sweeps compose with replay: each time a cell's
/// allocation grows past its recorded shot count, only the new shots are
/// simulated. An exact-shot-count recording under the same policy is returned
/// as-is (recording is deterministic, so re-recording it would produce the
/// same bytes). The caller persists the manifest with [`Corpus::save`].
///
/// # Errors
/// Returns a message on I/O failure or a corrupt existing recording.
pub fn extend_into_corpus(
    corpus: &mut Corpus,
    scenario: &Scenario,
    record_policy: PolicyKind,
    generator: &str,
) -> Result<(CorpusEntry, ExtendDisposition), String> {
    let key = cell_key(scenario);
    let reusable = |entry: &CorpusEntry| {
        entry.family == scenario.code.label()
            && entry.distance == scenario.distance
            && entry.rounds == scenario.rounds
            && entry.p == scenario.p
            && entry.leakage_ratio == scenario.leakage_ratio
            && entry.seed == scenario.seed
            && entry.policy == record_policy.label()
    };
    let prefix = match corpus.lookup(&key) {
        Some(existing) if reusable(existing) => {
            return Ok((existing.clone(), ExtendDisposition::Cached));
        }
        // Same key, different recording policy: a fresh recording replaces it.
        Some(_) => None,
        // The longest strictly-shorter recording of the same cell, if any.
        None => corpus
            .entries()
            .iter()
            .filter(|entry| reusable(entry) && entry.shots < scenario.shots)
            .max_by_key(|entry| entry.shots)
            .cloned(),
    };
    let entry = write_cell(corpus, scenario, record_policy, generator, prefix.as_ref())?;
    let disposition = match prefix {
        Some(prefix) => ExtendDisposition::Extended { appended: scenario.shots - prefix.shots },
        None => ExtendDisposition::Recorded,
    };
    Ok((entry, disposition))
}

/// The one corpus writer. Writes the cell's shard into a temporary sibling,
/// renames it into place and files its entry (replacing any entry of the same
/// key). Growing a shorter recording (`prefix`) first streams that shard's
/// shots, then removes it and its entry; either way only the remaining shots
/// are simulated, in `RECORD_CHUNK_SHOTS` chunks.
fn write_cell(
    corpus: &mut Corpus,
    scenario: &Scenario,
    record_policy: PolicyKind,
    generator: &str,
    prefix: Option<&CorpusEntry>,
) -> Result<CorpusEntry, String> {
    let key = cell_key(scenario);
    let hash = Corpus::cell_hash(&key);
    let (engine, header) = recording_engine(scenario, record_policy, generator);
    let rel_path = Corpus::shard_rel_path(hash);
    let path = corpus.dir().join(&rel_path);
    let tmp = path.with_extension("qtr.tmp");
    let written = (|| -> Result<(), TraceError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut writer = TraceWriter::new(BufWriter::new(File::create(&tmp)?), &header)?;
        let mut shot = 0u64;
        if let Some(prefix) = prefix {
            let mut reader = open_trace_file(&corpus.trace_path(prefix))?;
            check_extends(reader.header(), &header)?;
            while let Some(trace) = reader.next_shot()? {
                writer.write_shot(&trace)?;
            }
            shot = prefix.shots as u64;
        }
        while shot < header.shots as u64 {
            let chunk_end = (shot + RECORD_CHUNK_SHOTS).min(header.shots as u64);
            for trace in engine.trace_records_range(shot, chunk_end) {
                writer.write_shot(&trace)?;
            }
            shot = chunk_end;
        }
        writer.finish()?;
        std::fs::rename(&tmp, &path)?;
        if let Some(prefix) = prefix.map(|prefix| corpus.trace_path(prefix)) {
            if prefix != path {
                std::fs::remove_file(prefix)?;
            }
        }
        Ok(())
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("recording {key}: {e}"));
    }
    if let Some(prefix) = prefix {
        corpus.remove(&prefix.key);
    }
    let entry = CorpusEntry {
        key,
        hash: format!("{hash:016x}"),
        file: rel_path,
        code: header.code_name.clone(),
        family: scenario.code.label().to_string(),
        distance: scenario.distance,
        rounds: scenario.rounds,
        p: scenario.p,
        leakage_ratio: scenario.leakage_ratio,
        shots: scenario.shots,
        seed: scenario.seed,
        policy: record_policy.label().to_string(),
        trace_schema: header.schema_version,
    };
    corpus.insert(entry.clone());
    Ok(entry)
}

/// How [`extend_into_corpus`] satisfied a recording request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtendDisposition {
    /// An exact recording of the cell already existed; nothing was simulated.
    Cached,
    /// A shorter recording of the cell was grown.
    Extended {
        /// Shots recorded beyond the shorter recording.
        appended: usize,
    },
    /// No reusable recording existed; the cell was recorded from scratch.
    Recorded,
}

/// One corpus cell loaded into memory, ready for repeated replay.
#[derive(Debug)]
pub struct LoadedCell {
    /// The trace header (provenance, noise model, seeding contract).
    pub header: TraceHeader,
    /// All recorded shots, in shot order.
    pub shots: Vec<ShotTrace>,
    /// The code the cell was recorded on (fingerprint-checked).
    pub code: Code,
}

/// Loads a corpus entry's trace file and rebuilds its code, cross-checking the
/// structural fingerprint.
///
/// The shard is opened with the **lazy** streaming reader
/// ([`qec_trace::open_trace_file`]): the header is validated first, every
/// identity check below runs against it at `O(header)` cost, and only then
/// are the shot blocks decoded — once, shot-at-a-time, straight into the
/// cell's shot vector. A manifest that does not describe the shard therefore
/// aborts the load without paying for the payload at all.
///
/// # Errors
/// Returns a message on I/O failure, corruption, an unknown code family, a
/// fingerprint mismatch, or a cell without shots.
pub fn load_entry(corpus: &Corpus, entry: &CorpusEntry) -> Result<LoadedCell, String> {
    let family = CodeFamily::from_label(&entry.family)
        .ok_or_else(|| format!("{}: unknown code family `{}`", entry.key, entry.family))?;
    let code = family.build(entry.distance);
    let path = corpus.trace_path(entry);
    let mut reader = open_trace_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = reader.header().clone();
    if code_fingerprint(&code) != header.code_fingerprint {
        return Err(format!(
            "{}: manifest code {} does not match the trace's recorded code {}",
            entry.key,
            code.name(),
            header.code_name
        ));
    }
    // Manifest metadata and trace header must agree on the execution identity;
    // a mismatch means the manifest was edited or points at the wrong shard.
    for (field, manifest_value, header_value) in [
        ("rounds", entry.rounds.to_string(), header.rounds.to_string()),
        ("shots", entry.shots.to_string(), header.shots.to_string()),
        ("seed", entry.seed.to_string(), header.seed.to_string()),
        ("policy", entry.policy.clone(), header.policy.clone()),
        ("trace_schema", entry.trace_schema.to_string(), header.schema_version.to_string()),
    ] {
        if manifest_value != header_value {
            return Err(format!(
                "{}: manifest says {field}={manifest_value}, but the trace file was recorded \
                 with {field}={header_value} — the manifest does not describe this shard",
                entry.key
            ));
        }
    }
    // No recorder writes an empty cell, and replay sizes per-round state from
    // `rounds`: only a decoded shot vouches for it.
    if header.shots == 0 {
        return Err(format!("{}: trace header declares 0 shots", entry.key));
    }
    // The vector grows as shots decode: a header's count never sizes an
    // allocation.
    let mut shots = Vec::new();
    while let Some(shot) = reader.next_shot().map_err(|e| format!("{}: {e}", path.display()))? {
        shots.push(shot);
    }
    // The reader already cross-checks the end block against the shots it
    // actually handed out; this guards the header against both.
    if shots.len() != header.shots {
        return Err(format!(
            "{}: trace holds {} shots, header says {}",
            entry.key,
            shots.len(),
            header.shots
        ));
    }
    Ok(LoadedCell { header, shots, code })
}

/// The aggregate outcome of replaying one policy against one loaded cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReplay {
    /// Aggregated replay metrics: [`RunMetrics::score_replay`] semantics in
    /// open-loop mode, the live engine's [`RunMetrics::score`] semantics (on
    /// exact counterfactual runs) in closed-loop mode.
    pub metrics: AggregateMetrics,
    /// Shots whose planned schedule diverged from the recorded one (always 0
    /// when replaying the recording policy).
    pub divergent_shots: usize,
    /// Per-round divergence statistics; populated by closed-loop replay only.
    pub profile: Option<DivergenceProfile>,
}

/// Checkpoint-sharing economics of evaluating one cell's policy set — the
/// out-of-band cost accounting of closed-loop replay. Deliberately **not**
/// part of [`ReplayCellResult`]/[`ReplayReport`]: how a candidate set is
/// batched must never change a report byte, so these stats travel to the CLI
/// summary and the serve `stats` counters instead. All zero in open-loop
/// mode, which never touches the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Forced re-executions of a recorded prefix: one per shot that had at
    /// least one divergent candidate.
    pub forced_passes: u64,
    /// Total rounds executed by forced passes (each shot pays only up to its
    /// deepest divergence round, once).
    pub forced_rounds: u64,
    /// Candidate suffixes resumed live — divergent `(shot, policy)` pairs.
    pub suffixes: u64,
    /// Simulator checkpoints held at any shot's high-water mark (= distinct
    /// divergence rounds of the candidate set).
    pub peak_checkpoints: u64,
}

impl CheckpointStats {
    /// Folds another cell's stats into this one (sums, except the high-water
    /// mark which takes the max).
    pub fn absorb(&mut self, other: &CheckpointStats) {
        self.forced_passes += other.forced_passes;
        self.forced_rounds += other.forced_rounds;
        self.suffixes += other.suffixes;
        self.peak_checkpoints = self.peak_checkpoints.max(other.peak_checkpoints);
    }

    /// Folds one closed-loop shot, given each candidate's first divergence
    /// round, through its [`CheckpointPlan`]: the shot pays a forced pass
    /// when any candidate diverged, runs it to the deepest divergence round,
    /// resumes one suffix per divergent candidate and holds one checkpoint
    /// per distinct divergence round.
    fn add_shot(&mut self, divergences: &[Option<usize>]) {
        let plan = CheckpointPlan::new(divergences);
        if let Some(deepest) = plan.max_round() {
            self.forced_passes += 1;
            self.forced_rounds += deepest as u64;
        }
        self.suffixes += divergences.iter().flatten().count() as u64;
        self.peak_checkpoints = self.peak_checkpoints.max(plan.distinct_rounds() as u64);
    }
}

/// [`CheckpointStats`] for one corpus cell, keyed for CLI summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCheckpointStats {
    /// The corpus cell key the stats describe.
    pub key: String,
    /// The cell's checkpoint-sharing economics.
    pub stats: CheckpointStats,
}

/// Whether evaluating `policy` against `cell` in `mode` yields the
/// candidate's own execution: true of every closed-loop pairing (exact
/// counterfactuals) and, open-loop, of the recording policy only. Only such
/// runs are decoded — [`evaluate_cell_set`] ignores the decoder of any other
/// pairing — and only their metrics can be checked against a live run.
#[must_use]
pub fn reproduces_live(cell: &LoadedCell, policy: PolicyKind, mode: ReplayMode) -> bool {
    mode == ReplayMode::ClosedLoop || cell.header.policy == policy.label()
}

/// Scores one replayed run and, given a `decoder`, decodes it and records
/// the logical outcome — the one scoring path of both modes. `planned` is an
/// open-loop candidate's own schedule, judged against the recorded run with
/// [`RunMetrics::score_replay`]; `None` means `run` is the candidate's own
/// execution, scored exactly as the live engine scores it (same counting
/// loops, same f64 accumulation order).
fn score_run(
    cell: &LoadedCell,
    run: &RunRecord,
    planned: Option<&[LrcRequest]>,
    decoder: Option<&dyn DecoderBackend>,
) -> RunMetrics {
    let noise = &cell.header.noise;
    let mut metrics = match planned {
        Some(planned) => RunMetrics::score_replay(run, planned, noise, cell.header.cnot_layers),
        None => RunMetrics::score(run, noise.lrc_time_ns),
    };
    if let Some(decoder) = decoder {
        let correction = decoder.decode_run(run);
        metrics.logical_error = Some(logical_failure(&cell.code, run, &correction, MemoryBasis::Z));
    }
    metrics
}

/// Replay-evaluates a `(cell, policy set)` in `mode` — the one replay
/// evaluator behind `repro replay`, corpus-backed sweeps and the `qec-serve`
/// daemon. `decoders` is index-aligned with `policies` (`None` skips
/// decoding that candidate); a decoder is used only where
/// [`reproduces_live`] holds.
///
/// One parallel pass over the cell's shots, aggregated in shot order:
///
/// * [`ReplayMode::OpenLoop`] drives every candidate against the recorded
///   observables ([`ReplayContext::replay_shot`]) and scores its planned
///   schedule with [`RunMetrics::score_replay`]. The recording policy
///   reproduces the live engine's metrics bit-for-bit.
/// * [`ReplayMode::ClosedLoop`] serves the whole set per shot from one
///   forced prefix pass and shared checkpoints
///   ([`ReplayContext::replay_shot_closed_loop`]), so every candidate's
///   metrics — divergence profile and decoded LER included — are bit-for-bit
///   what [`BatchEngine::run`] reports for a live run of that policy.
///
/// `shared_checkpoints = true` evaluates the set together; every caller
/// outside the tests passes it. `false` evaluates each candidate as its own
/// set of one through the same code — the reference the sharing proptest
/// compares against. Results are bit-identical either way; only the returned
/// [`CheckpointStats`] (and the wall-clock) differ.
///
/// # Errors
/// Returns a message when `policies` and `decoders` lengths differ, when the
/// cell's code and header disagree, or (closed loop) when the trace fails to
/// reproduce under this build's simulator (stale corpus).
pub fn evaluate_cell_set(
    cell: &LoadedCell,
    factory: &Arc<PolicyFactory>,
    policies: &[PolicyKind],
    decoders: &[Option<&dyn DecoderBackend>],
    mode: ReplayMode,
    shared_checkpoints: bool,
) -> Result<(Vec<CellReplay>, CheckpointStats), String> {
    if policies.len() != decoders.len() {
        return Err(format!(
            "policy set of {} needs one decoder slot per candidate, got {}",
            policies.len(),
            decoders.len()
        ));
    }
    if !shared_checkpoints {
        let mut replays = Vec::with_capacity(policies.len());
        let mut stats = CheckpointStats::default();
        for (policy, decoder) in policies.iter().zip(decoders) {
            let (one, one_stats) = evaluate_cell_set(
                cell,
                factory,
                std::slice::from_ref(policy),
                std::slice::from_ref(decoder),
                mode,
                true,
            )?;
            replays.extend(one);
            stats.absorb(&one_stats);
        }
        return Ok((replays, stats));
    }
    let decoders: Vec<Option<&dyn DecoderBackend>> = policies
        .iter()
        .zip(decoders)
        .map(|(&policy, &decoder)| decoder.filter(|_| reproduces_live(cell, policy, mode)))
        .collect();
    let ctx = ReplayContext::new(&cell.code, &cell.header).map_err(|e| e.to_string())?;
    let closed_loop = mode == ReplayMode::ClosedLoop;
    /// Per shot, every candidate's metrics and first divergence round.
    type ShotOutcome = Result<Vec<(RunMetrics, Option<usize>)>, String>;
    let per_shot: Vec<ShotOutcome> = (0..cell.shots.len())
        .into_par_iter()
        .map_init(
            || {
                let instances: Vec<_> = policies.iter().map(|&p| factory.build(p)).collect();
                (instances, closed_loop.then(|| ctx.make_simulator()))
            },
            |(instances, sim), shot| {
                let trace = &cell.shots[shot];
                for instance in instances.iter_mut() {
                    instance.reset();
                }
                let Some(sim) = sim else {
                    let scored = instances.iter_mut().zip(&decoders).map(|(instance, &decoder)| {
                        let replay = ctx.replay_shot(trace, instance.as_mut());
                        let metrics = score_run(cell, &replay.run, Some(&replay.planned), decoder);
                        (metrics, replay.divergence)
                    });
                    return Ok(scored.collect());
                };
                let mut refs: Vec<&mut dyn LeakagePolicy> =
                    instances.iter_mut().map(|p| p.as_mut() as _).collect();
                let replays = ctx
                    .replay_shot_closed_loop(trace, &mut refs, sim)
                    .map_err(|e| e.to_string())?;
                let scored = replays.iter().zip(&decoders).map(|(replay, &decoder)| {
                    (score_run(cell, &replay.run, None, decoder), replay.divergence)
                });
                Ok(scored.collect())
            },
        )
        .collect();

    let mut stats = CheckpointStats::default();
    let mut runs: Vec<Vec<RunMetrics>> =
        policies.iter().map(|_| Vec::with_capacity(cell.shots.len())).collect();
    let mut profiles: Vec<DivergenceProfile> =
        policies.iter().map(|_| DivergenceProfile::new(cell.header.rounds)).collect();
    for outcome in per_shot {
        let scored = outcome?;
        if closed_loop {
            stats.add_shot(&scored.iter().map(|&(_, divergence)| divergence).collect::<Vec<_>>());
        }
        for (index, (metrics, divergence)) in scored.into_iter().enumerate() {
            profiles[index].add(divergence);
            runs[index].push(metrics);
        }
    }
    let replays = runs
        .iter()
        .zip(profiles)
        .map(|(runs, profile)| CellReplay {
            metrics: AggregateMetrics::from_runs(runs),
            divergent_shots: profile.divergent_shots,
            profile: closed_loop.then_some(profile),
        })
        .collect();
    Ok((replays, stats))
}

/// Replay-evaluates one `(cell, policy)` pairing in `mode`: a set of one
/// through [`evaluate_cell_set`], which is what makes a served `eval` answer
/// bit-identical to the CLI's replay row for the same pairing.
///
/// # Errors
/// Returns a message when the cell's code and header disagree, or (closed
/// loop) when the trace fails to reproduce under this build's simulator.
pub fn evaluate_cell(
    cell: &LoadedCell,
    factory: &Arc<PolicyFactory>,
    policy: PolicyKind,
    decoder: Option<&dyn DecoderBackend>,
    mode: ReplayMode,
) -> Result<CellReplay, String> {
    let (mut replays, _) = evaluate_cell_set(cell, factory, &[policy], &[decoder], mode, true)?;
    Ok(replays.pop().expect("one candidate, one replay"))
}

/// Builds the report row for one evaluated pairing. Shared by
/// [`replay_corpus`] and the daemon so the two serializations of the same
/// evaluation cannot drift apart (`live_match` starts as `None`; verification
/// paths fill it in afterwards). `decoder` is the explicitly selected backend,
/// or `None` for the unlabeled legacy default (union-find) — rows without a
/// selection keep their pre-backend bytes.
#[must_use]
pub fn evaluation_row(
    key: &str,
    cell: &LoadedCell,
    policy: PolicyKind,
    decoder: Option<DecoderKind>,
    replay: &CellReplay,
) -> ReplayCellResult {
    ReplayCellResult {
        key: key.to_string(),
        code: cell.code.name().to_string(),
        recorded_policy: cell.header.policy.clone(),
        policy: policy.label().to_string(),
        decoder: decoder.map(|kind| kind.label().to_string()),
        shots: cell.header.shots,
        rounds: cell.header.rounds,
        exact: cell.header.policy == policy.label(),
        divergent_shots: replay.divergent_shots,
        live_match: None,
        divergence_profile: replay.profile.clone(),
        metrics: replay.metrics.clone(),
    }
}

/// One row of a [`ReplayReport`]: one `(cell, policy)` pairing — or, when a
/// decoder axis is in play, one `(cell, decoder, policy)` pairing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayCellResult {
    /// The corpus cell key.
    pub key: String,
    /// Name of the concrete code instance.
    pub code: String,
    /// Policy that recorded the trace.
    pub recorded_policy: String,
    /// Policy whose speculation was replayed.
    pub policy: String,
    /// Explicitly selected decoder backend label (`uf`, `lookup`), or `None`
    /// when the row used the legacy default (union-find). Omitted from the
    /// serialized row when `None`, so reports without a decoder axis stay
    /// byte-identical to pre-backend reports.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decoder: Option<String>,
    /// Shots replayed.
    pub shots: usize,
    /// Rounds per shot.
    pub rounds: usize,
    /// `policy == recorded_policy`: metrics are bit-for-bit the live engine's
    /// in either mode (closed-loop makes this true of *every* row).
    pub exact: bool,
    /// Shots whose planned schedule diverged from the recorded one.
    pub divergent_shots: usize,
    /// When live verification ran: whether the replayed metrics equalled a
    /// fresh live-engine run exactly.
    pub live_match: Option<bool>,
    /// Per-round divergence statistics (closed-loop rows only).
    pub divergence_profile: Option<DivergenceProfile>,
    /// Aggregated replay metrics.
    pub metrics: AggregateMetrics,
}

/// A self-describing replay run over a whole corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// [`REPLAY_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Tool and version that produced the report.
    pub generator: String,
    /// `git describe --always --dirty` of the producing checkout, or `unknown`.
    pub git_describe: String,
    /// Corpus directory the report was computed from.
    pub corpus: String,
    /// Evaluation mode of every row: `open-loop` (trace-driven scoring) or
    /// `closed-loop` (divergence-repaired exact counterfactuals).
    pub replay_mode: String,
    /// One row per `(cell, policy)`, cells in manifest order.
    pub results: Vec<ReplayCellResult>,
}

/// Options of [`replay_corpus`].
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Policies to replay against every cell; empty ⇒ each cell's recording
    /// policy (the bit-for-bit validation mode).
    pub policies: Vec<PolicyKind>,
    /// Decode replayed runs and report their LER. Open-loop mode can only
    /// decode exact (recording-policy) pairings; closed-loop mode decodes the
    /// exact counterfactual run of **every** pairing.
    pub decode: bool,
    /// Decoder backends to evaluate every `(cell, policy)` pairing under;
    /// empty ⇒ the single unlabeled legacy slot (union-find, rows without a
    /// `decoder` field — byte-identical to pre-backend reports). With N
    /// backends every cell emits N×policies rows, decoder-major, each row
    /// labeled with its backend. Every selected backend must support every
    /// corpus cell (validated up front, per cell, before any replay work).
    pub decoders: Vec<DecoderKind>,
    /// Re-simulate pairings live and record whether the replayed metrics match
    /// bit-for-bit: exact pairings in open-loop mode, every pairing in
    /// closed-loop mode (the exact-counterfactual gate).
    pub verify_live: bool,
    /// Evaluation mode (see [`ReplayMode`]).
    pub mode: ReplayMode,
}

/// Replays policies against every cell of the corpus at `dir`, in the mode
/// requested by `options` (see [`ReplayMode`]).
///
/// # Errors
/// Returns a message when the corpus is empty, or when the corpus, a trace
/// file, or a policy label cannot be loaded.
pub fn replay_corpus(dir: &Path, options: &ReplayOptions) -> Result<ReplayReport, String> {
    replay_corpus_with_stats(dir, options).map(|(report, _)| report)
}

/// [`replay_corpus`] plus each cell's out-of-band [`CheckpointStats`] (for
/// CLI summaries — never part of the report).
///
/// # Errors
/// Same failure modes as [`replay_corpus`].
pub fn replay_corpus_with_stats(
    dir: &Path,
    options: &ReplayOptions,
) -> Result<(ReplayReport, Vec<CellCheckpointStats>), String> {
    let corpus = Corpus::open_existing(dir).map_err(|e| e.to_string())?;
    if corpus.entries().is_empty() {
        return Err(format!(
            "corpus {} is empty — nothing to replay (record cells first)",
            dir.display()
        ));
    }
    // The decoder axis: empty ⇒ the single unlabeled legacy slot (union-find).
    // Duplicate selections collapse, preserving first-mention order.
    let kinds: Vec<Option<DecoderKind>> = if options.decoders.is_empty() {
        vec![None]
    } else {
        let mut kinds = Vec::new();
        for &kind in &options.decoders {
            if !kinds.contains(&Some(kind)) {
                kinds.push(Some(kind));
            }
        }
        kinds
    };
    let mut results = Vec::new();
    let mut cell_stats = Vec::new();
    for entry in corpus.entries() {
        let cell = load_entry(&corpus, entry)?;
        // Every selected backend must be able to serve every cell — checked
        // up front so a mismatch (e.g. the lookup table against d>3) is a
        // typed, actionable error before any replay work, never a panic or a
        // silently wrong LER.
        for kind in kinds.iter().flatten() {
            kind.supports(cell.code.family(), cell.code.distance()).map_err(|e| {
                format!("{}: decoder `{}` cannot serve this cell: {e}", entry.key, kind.label())
            })?;
        }
        let recorded = PolicyKind::from_label(&cell.header.policy).ok_or_else(|| {
            format!("{}: unknown recorded policy `{}`", entry.key, cell.header.policy)
        })?;
        let policies: Vec<PolicyKind> =
            if options.policies.is_empty() { vec![recorded] } else { options.policies.clone() };
        let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        let mut stats = CheckpointStats::default();
        for &kind in &kinds {
            // Skip the decoder build when no pairing will decode.
            let decodes =
                policies.iter().any(|&policy| reproduces_live(&cell, policy, options.mode));
            let decoder = (options.decode && decodes)
                .then(|| build_backend(kind, &cell.code, cell.header.rounds))
                .transpose()
                .map_err(|e| format!("{}: {e}", entry.key))?;
            let decoders = vec![decoder.as_deref(); policies.len()];
            let (replays, kind_stats) =
                evaluate_cell_set(&cell, &factory, &policies, &decoders, options.mode, true)
                    .map_err(|e| format!("{}: {e}", entry.key))?;
            stats.absorb(&kind_stats);
            for (&policy, replay) in policies.iter().zip(replays) {
                let mut row = evaluation_row(&entry.key, &cell, policy, kind, &replay);
                // Live verification covers every pairing whose replay claims
                // bit-for-bit equality with a live run. The live engine
                // decodes with the *same* backend as the replay.
                let verify = options.verify_live && reproduces_live(&cell, policy, options.mode);
                row.live_match = verify.then(|| {
                    let spec = spec_from_header(&cell.header, policy, options.decode);
                    let live =
                        BatchEngine::with_shared(&spec, Arc::clone(&factory), decoder.clone())
                            .run();
                    live.metrics == replay.metrics
                });
                results.push(row);
            }
        }
        cell_stats.push(CellCheckpointStats { key: entry.key.clone(), stats });
    }
    let report = ReplayReport {
        schema_version: REPLAY_SCHEMA_VERSION,
        generator: format!("repro replay {}", env!("CARGO_PKG_VERSION")),
        git_describe: git_describe(),
        corpus: dir.display().to_string(),
        replay_mode: options.mode.label().to_string(),
        results,
    };
    Ok((report, cell_stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_stats_follow_from_the_divergence_rounds() {
        // Candidates diverging at rounds 3, 3, 6 and 0, plus one exact one:
        // one pass forced to round 6, four suffixes, three distinct rounds.
        let mut stats = CheckpointStats::default();
        stats.add_shot(&[Some(3), Some(3), Some(6), Some(0), None]);
        let expected = CheckpointStats {
            forced_passes: 1,
            forced_rounds: 6,
            suffixes: 4,
            peak_checkpoints: 3,
        };
        assert_eq!(stats, expected);
        // An all-exact shot forces nothing and keeps the high-water mark.
        stats.add_shot(&[None, None]);
        assert_eq!(stats, expected);
        let mut exact = CheckpointStats::default();
        exact.add_shot(&[None, None, None]);
        assert_eq!(exact, CheckpointStats::default());
    }
}

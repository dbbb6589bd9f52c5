//! Corpus-backed speculation evaluation: record each scenario cell once,
//! replay every policy against it.
//!
//! The recording side drives [`BatchEngine::trace_records_range`] (shot-ordered,
//! so trace bytes are independent of worker-thread count) and files the result
//! in a [`Corpus`] under a **policy-free cell key** — `(family, distance,
//! rounds, p, lr, shots, seed)` — through one writer that fills a temporary
//! sibling shard and renames it into place, whether it records a cell from
//! scratch ([`record_into_corpus`]) or grows a shorter recording of it
//! ([`extend_into_corpus`]). The replay side drives any [`PolicyKind`]'s
//! speculation against each shot's recorded run and scores it with
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
//! from the trace and the recorded `seed + shot` contract
//! ([`Simulator::reseed_for_shot`]) — one forced pass of the recorded prefix
//! per shot, verified round by round against the trace and checkpointed
//! ([`Simulator::checkpoint`]) for the whole candidate set — and each
//! divergent candidate's suffix is re-simulated live
//! ([`Simulator::resume_with_policy`]). Closed-loop metrics — including DLP
//! and the decoded LER, for *every* candidate policy — are **bit-for-bit** a
//! from-scratch live simulation of that policy on the same cell and seeds (the
//! exact-counterfactual contract, pinned by
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

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use gladiator::GladiatorConfig;
use leakage_speculation::{PolicyFactory, PolicyKind};
use leaky_sim::{
    GroundTruth, LeakagePolicy, LrcRequest, PolicyContext, RoundView, RunRecord, Simulator,
    SimulatorCheckpoint,
};
use qec_codes::Code;
use qec_decoder::{logical_failure, DecoderBackend, DecoderKind, MemoryBasis};
use qec_trace::{
    check_extends, code_fingerprint, open_trace_file, Corpus, CorpusEntry, ShotTrace, TraceError,
    TraceHeader, TraceWriter, TRACE_SCHEMA_VERSION,
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
        cnot_layers: code.cnot_layers(),
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
/// ([`qec_trace::open_trace_file`]): the header is validated first, and every
/// identity check of the entry against it — family and size (named by the
/// header's code), code name, `p`, `lr`, rounds, shots, seed, recording policy
/// and trace schema — runs at `O(header)` cost before a shot block is decoded.
/// A manifest that does not describe the shard therefore aborts the load
/// without paying for the payload, and without building a code the header does
/// not name. The shots then decode once, shot-at-a-time, straight into the
/// cell's shot vector. The key, which restates that identity, is checked last,
/// so a more specific check names the mismatched field first; only then is the
/// code built and its fingerprint checked.
///
/// # Errors
/// Returns a message on I/O failure, corruption, an unknown code family or
/// size, any disagreement between the entry and the header, a fingerprint
/// mismatch, or a cell without shots.
pub fn load_entry(corpus: &Corpus, entry: &CorpusEntry) -> Result<LoadedCell, String> {
    let family = CodeFamily::from_label(&entry.family)
        .ok_or_else(|| format!("{}: unknown code family `{}`", entry.key, entry.family))?;
    family
        .validate_size(entry.distance)
        .map_err(|e| format!("{}: manifest says distance={}: {e}", entry.key, entry.distance))?;
    let path = corpus.trace_path(entry);
    let mut reader = open_trace_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = reader.header().clone();
    let code_name = family.code_name(entry.distance);
    if code_name != header.code_name {
        return Err(format!(
            "{}: manifest says family={} distance={}, whose code {code_name} does not match \
             the trace's recorded code {}",
            entry.key, entry.family, entry.distance, header.code_name
        ));
    }
    // Manifest metadata and trace header must agree on the execution identity;
    // a mismatch means the manifest was edited or points at the wrong shard.
    let mismatch = |field: &str, manifest_value: &str, header_value: &str| {
        format!(
            "{}: manifest says {field}={manifest_value}, but the trace file was recorded with \
             {field}={header_value} — the manifest does not describe this shard",
            entry.key
        )
    };
    for (field, manifest_value, header_value) in [
        ("code", entry.code.clone(), header.code_name.clone()),
        ("p", entry.p.to_string(), header.noise.p.to_string()),
        ("leakage_ratio", entry.leakage_ratio.to_string(), header.noise.leakage_ratio.to_string()),
        ("rounds", entry.rounds.to_string(), header.rounds.to_string()),
        ("shots", entry.shots.to_string(), header.shots.to_string()),
        ("seed", entry.seed.to_string(), header.seed.to_string()),
        ("policy", entry.policy.clone(), header.policy.clone()),
        ("trace_schema", entry.trace_schema.to_string(), header.schema_version.to_string()),
    ] {
        if manifest_value != header_value {
            return Err(mismatch(field, &manifest_value, &header_value));
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
    // The key the recording run filed this shard under (keys are policy-free).
    let recorded_key = cell_key(&Scenario {
        code: family,
        distance: entry.distance,
        rounds: header.rounds,
        p: header.noise.p,
        leakage_ratio: header.noise.leakage_ratio,
        policy: PolicyKind::NoLrc,
        shots: header.shots,
        seed: header.seed,
        decode: false,
        decoder: None,
    });
    if entry.key != recorded_key {
        return Err(mismatch("key", &entry.key, &recorded_key));
    }
    let code = family.build(entry.distance);
    if code_fingerprint(&code) != header.code_fingerprint {
        return Err(format!(
            "{}: manifest code {} does not match the trace's recorded code {}",
            entry.key,
            code.name(),
            header.code_name
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

/// Per-round divergence statistics of closed-loop replaying one policy against
/// one recorded cell: where shots first left the recorded schedule, and how
/// much re-simulation the repairs cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceProfile {
    /// Shots replayed.
    pub shots: usize,
    /// Rounds per shot.
    pub rounds: usize,
    /// Shots whose planned schedule left the recorded one at some round.
    pub divergent_shots: usize,
    /// `first_divergence[r]` = number of shots whose *first* divergence was
    /// round `r` (length [`DivergenceProfile::rounds`]; sums to
    /// [`DivergenceProfile::divergent_shots`]).
    pub first_divergence: Vec<usize>,
    /// Total rounds re-simulated under candidate schedules across all shots
    /// (post-divergence suffixes: the counterfactual rounds).
    pub resimulated_rounds: u64,
    /// Total pre-divergence rounds force-re-executed to rebuild simulator
    /// state across all shots. Full simulation cost, no policy planning;
    /// `restored_rounds + resimulated_rounds == divergent_shots · rounds`.
    pub restored_rounds: u64,
}

impl DivergenceProfile {
    /// An empty profile for `rounds`-round shots.
    #[must_use]
    pub fn new(rounds: usize) -> Self {
        DivergenceProfile {
            shots: 0,
            rounds,
            divergent_shots: 0,
            first_divergence: vec![0; rounds],
            resimulated_rounds: 0,
            restored_rounds: 0,
        }
    }

    /// Folds one shot described by its first divergence round `d` (`None`
    /// for an exact shot): a divergent shot re-simulates its `rounds − d`
    /// suffix rounds and restores its `d` prefix rounds.
    ///
    /// # Panics
    /// Panics when the divergence round is outside the profile's round range.
    pub fn add(&mut self, divergence: Option<usize>) {
        self.shots += 1;
        if let Some(round) = divergence {
            self.divergent_shots += 1;
            self.first_divergence[round] += 1;
            self.resimulated_rounds += (self.rounds - round) as u64;
            self.restored_rounds += round as u64;
        }
    }

    /// Shots that never diverged (served entirely from the trace).
    #[must_use]
    pub fn exact_shots(&self) -> usize {
        self.shots - self.divergent_shots
    }

    /// Cumulative divergence counts by round: entry `r` is the number of shots
    /// that had diverged by the end of round `r`. Monotone non-decreasing,
    /// ending at [`DivergenceProfile::divergent_shots`].
    #[must_use]
    pub fn cumulative_divergent(&self) -> Vec<usize> {
        let mut total = 0usize;
        self.first_divergence
            .iter()
            .map(|&count| {
                total += count;
                total
            })
            .collect()
    }

    /// Fraction of all rounds whose outcomes are counterfactual (re-simulated
    /// under the candidate's own schedule, post-divergence). This measures
    /// *divergence depth*, not cost — forced prefix restoration is excluded.
    #[must_use]
    pub fn resimulated_fraction(&self) -> f64 {
        let total = (self.shots * self.rounds) as u64;
        if total == 0 {
            return 0.0;
        }
        self.resimulated_rounds as f64 / total as f64
    }

    /// Fraction of all rounds that touched the simulator during replay —
    /// forced prefix restoration plus the live suffix — i.e. the honest
    /// simulation-cost measure (`0.0` = pure replay, `1.0` = every round of
    /// every shot re-executed). Because each divergent shot pays its full
    /// round count (prefix + suffix), this equals the divergent-shot
    /// fraction.
    #[must_use]
    pub fn simulated_fraction(&self) -> f64 {
        let total = (self.shots * self.rounds) as u64;
        if total == 0 {
            return 0.0;
        }
        (self.resimulated_rounds + self.restored_rounds) as f64 / total as f64
    }
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
    /// round: the shot pays a forced pass when any candidate diverged, runs
    /// it to the deepest divergence round, resumes one suffix per divergent
    /// candidate and holds one checkpoint per distinct divergence round.
    fn add_shot(&mut self, divergences: impl Iterator<Item = Option<usize>> + Clone) {
        let rounds = || divergences.clone().flatten();
        if let Some(deepest) = rounds().max() {
            self.forced_passes += 1;
            self.forced_rounds += deepest as u64;
        }
        self.suffixes += rounds().count() as u64;
        let distinct =
            rounds().enumerate().filter(|&(i, round)| !rounds().take(i).any(|r| r == round));
        self.peak_checkpoints = self.peak_checkpoints.max(distinct.count() as u64);
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
/// One parallel pass over the cell's shots, aggregated in shot order. Every
/// candidate is reset before each shot, as the live engine resets it.
///
/// * [`ReplayMode::OpenLoop`] drives every candidate against the recorded
///   observables and scores its planned schedule with
///   [`RunMetrics::score_replay`]. The recording policy reproduces the live
///   engine's metrics bit-for-bit.
/// * [`ReplayMode::ClosedLoop`] serves the whole set per shot from one
///   forced prefix pass and shared checkpoints, so every candidate's
///   metrics — divergence profile and decoded LER included — are bit-for-bit
///   what [`BatchEngine::run`] reports for a live run of that policy.
///
/// On a `rayon::ThreadPool` worker (the daemon's) the pass runs inline on
/// that worker with one policy set and one simulator, built from the cell's
/// header; elsewhere it fans out over scoped threads. The bytes are the same
/// either way.
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
    let (code, header) = (&cell.code, &cell.header);
    let fingerprint = code_fingerprint(code);
    if fingerprint != header.code_fingerprint
        || code.num_data() != header.num_data
        || code.num_checks() != header.num_checks
    {
        let message = format!(
            "code `{}` (fingerprint {fingerprint:#018x}) does not match the trace's `{}` \
             (fingerprint {:#018x})",
            code.name(),
            header.code_name,
            header.code_fingerprint
        );
        return Err(TraceError::Corrupt(message).to_string());
    }
    let decoders: Vec<Option<&dyn DecoderBackend>> = policies
        .iter()
        .zip(decoders)
        .map(|(&policy, &decoder)| decoder.filter(|_| reproduces_live(cell, policy, mode)))
        .collect();
    let closed_loop = mode == ReplayMode::ClosedLoop;
    /// Per shot, every candidate's metrics and first divergence round.
    type ShotOutcome = Result<Vec<(RunMetrics, Option<usize>)>, String>;
    let per_shot: Vec<ShotOutcome> = (0..cell.shots.len())
        .into_par_iter()
        .map_init(
            || {
                let instances: Vec<_> = policies.iter().map(|&p| factory.build(p)).collect();
                let sim = closed_loop.then(|| Simulator::new(code, header.noise, header.seed));
                (instances, sim)
            },
            |(instances, sim), shot| {
                let trace = &cell.shots[shot];
                for instance in instances.iter_mut() {
                    instance.reset();
                }
                let Some(sim) = sim else {
                    let scored = instances.iter_mut().zip(&decoders).map(|(instance, &decoder)| {
                        let (planned, divergence) = open_loop_shot(trace, instance.as_mut());
                        (score_run(cell, &trace.run, Some(&planned), decoder), divergence)
                    });
                    return Ok(scored.collect());
                };
                let runs =
                    closed_loop_shot(header, trace, instances, sim).map_err(|e| e.to_string())?;
                let scored = runs.iter().zip(&decoders).map(|((run, divergence), &decoder)| {
                    (score_run(cell, run, None, decoder), *divergence)
                });
                Ok(scored.collect())
            },
        )
        .collect();

    let mut stats = CheckpointStats::default();
    let mut runs: Vec<Vec<RunMetrics>> =
        policies.iter().map(|_| Vec::with_capacity(cell.shots.len())).collect();
    let mut profiles: Vec<DivergenceProfile> =
        policies.iter().map(|_| DivergenceProfile::new(header.rounds)).collect();
    for outcome in per_shot {
        let scored = outcome?;
        if closed_loop {
            stats.add_shot(scored.iter().map(|&(_, divergence)| divergence));
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

/// The per-round drive both modes share, as a lazy iterator: item `r` is the
/// plan `policy` makes from the [`PolicyContext`] it would have seen live at
/// recorded round `r` — the history of rounds `0..r`, and ground truth equal
/// to the leak flags at planning time (`data_leak_before` of round `r` and the
/// previous round's `ancilla_leak_after`, the initial flags for round 0). The
/// policy plans a round only when the iterator reaches it.
fn plans<'a>(
    trace: &'a ShotTrace,
    policy: &'a mut dyn LeakagePolicy,
) -> impl Iterator<Item = LrcRequest> + 'a {
    let recorded = trace.run.rounds();
    recorded.iter().map(move |record| {
        let round = record.round();
        let ancilla_leaked = match round {
            0 => trace.initial_ancilla_leak.as_bits(),
            _ => trace.run.round(round - 1).ancilla_leak_after(),
        };
        policy.plan_lrcs(&PolicyContext {
            round,
            history: recorded.prefix(round),
            ground_truth: GroundTruth { data_leaked: record.data_leak_before(), ancilla_leaked },
        })
    })
}

/// `true` when `plan` differs from the LRC schedule `record` executed.
fn leaves_schedule(plan: &LrcRequest, record: RoundView<'_>) -> bool {
    plan.data != record.data_lrcs() || plan.ancilla != record.ancilla_lrcs()
}

/// Open-loop replay of one shot: the schedule `policy` plans for every
/// round, and the first round where it leaves the recorded one (`None` when
/// replaying the recording policy itself).
fn open_loop_shot(
    trace: &ShotTrace,
    policy: &mut dyn LeakagePolicy,
) -> (Vec<LrcRequest>, Option<usize>) {
    let planned: Vec<LrcRequest> = plans(trace, policy).collect();
    let divergence = planned
        .iter()
        .zip(trace.run.rounds())
        .position(|(plan, record)| leaves_schedule(plan, record));
    (planned, divergence)
}

/// One candidate's closed-loop outcome for a shot: its run, borrowed from the
/// trace when it never left the recorded schedule, and its first divergence
/// round.
type ClosedLoopRun<'t> = (Cow<'t, RunRecord>, Option<usize>);

/// Closed-loop replay of one shot against a candidate set, returned in
/// argument order. Each candidate is driven open-loop until its plan first
/// leaves the recorded schedule; it has then planned exactly the rounds up to
/// and including that one, and keeps only the divergent plan. When any
/// candidate diverged, `sim` is reseeded through the recorded `seed + shot`
/// contract and force-runs the recorded schedule to the deepest divergence
/// round, each round checked against the trace bit-for-bit, taking one
/// checkpoint per distinct divergence round. Each divergent candidate then
/// restores its checkpoint, executes its divergent plan and runs the rest of
/// the shot live.
///
/// Every run is bit-for-bit what a from-scratch live run of that candidate
/// on the cell and shot seed returns: a candidate's prefix schedule *is* the
/// recorded one, so the forced pass consumes the RNG stream its live run
/// would have, and the checkpoint at round `r` is the state that run reaches
/// there. Sharing the pass across the set therefore cannot change any run.
/// `sim` must be built from the header's code and noise model; its per-run
/// state is overwritten, so one simulator serves any number of shots.
///
/// # Errors
/// Fails when reseeding or a forced round does not reproduce the recorded
/// shot: the corpus predates a change of the simulator or of its seeding
/// contract, and must be re-recorded.
fn closed_loop_shot<'t>(
    header: &TraceHeader,
    trace: &'t ShotTrace,
    policies: &mut [Box<dyn LeakagePolicy + Send>],
    sim: &mut Simulator,
) -> Result<Vec<ClosedLoopRun<'t>>, TraceError> {
    let recorded = &trace.run;
    let divergences: Vec<Option<(usize, LrcRequest)>> = policies
        .iter_mut()
        .map(|policy| {
            plans(trace, policy.as_mut())
                .zip(recorded.rounds())
                .find(|(plan, record)| leaves_schedule(plan, *record))
                .map(|(plan, record)| (record.round(), plan))
        })
        .collect();
    let diverges_at = |round| divergences.iter().flatten().any(|&(at, _)| at == round);

    // No candidate diverged ⇒ no pass: the whole set is served from the trace.
    let mut checkpoints: Vec<(usize, SimulatorCheckpoint)> = Vec::new();
    if let Some(deepest) = divergences.iter().flatten().map(|&(round, _)| round).max() {
        sim.reseed_for_shot(header.seed, trace.shot, header.leakage_sampling);
        if sim.frames().data_leaks() != trace.initial_data_leak.as_bits()
            || sim.frames().ancilla_leaks() != trace.initial_ancilla_leak.as_bits()
        {
            return Err(TraceError::Corrupt(format!(
                "shot {}: reseeding does not reproduce the recorded initial leak flags — the \
                 trace was not recorded under this build's seeding contract",
                trace.shot
            )));
        }
        let mut forced = RunRecord::with_capacity(header.num_data, header.num_checks, deepest);
        for record in recorded.rounds().prefix(deepest) {
            if diverges_at(record.round()) {
                checkpoints.push((record.round(), sim.checkpoint()));
            }
            sim.run_round(record.data_lrcs(), record.ancilla_lrcs(), &mut forced);
            if forced.round(record.round()) != record {
                return Err(TraceError::Corrupt(format!(
                    "shot {}: forced re-execution of round {} does not reproduce the recorded \
                     round — the corpus predates a simulator behavior change; re-record it",
                    trace.shot,
                    record.round()
                )));
            }
        }
        checkpoints.push((deepest, sim.checkpoint()));
    }

    // Forced rounds reproduced the trace, so each divergent candidate's
    // history is the recorded prefix itself.
    let total_rounds = recorded.num_rounds();
    let runs = policies.iter_mut().zip(divergences).map(|(policy, divergence)| {
        let Some((round, plan)) = divergence else {
            return (Cow::Borrowed(recorded), None);
        };
        let (_, checkpoint) =
            checkpoints.iter().find(|&&(at, _)| at == round).expect("one per divergence round");
        sim.restore(checkpoint);
        let mut run = RunRecord::from_prefix(recorded.rounds().prefix(round), total_rounds);
        sim.run_round(&plan.data, &plan.ancilla, &mut run);
        (Cow::Owned(sim.resume_with_policy(policy.as_mut(), run, total_rounds)), Some(round))
    });
    Ok(runs.collect())
}

/// Builds the report row for one evaluated pairing. Shared by
/// [`replay_corpus_with_stats`] and the daemon so the two serializations of
/// the same evaluation cannot drift apart (`live_match` starts as `None`;
/// verification paths fill it in afterwards). `decoder` is the explicitly
/// selected backend, or `None` for the unlabeled legacy default (union-find)
/// — rows without a selection keep their pre-backend bytes.
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

/// Options of [`replay_corpus_with_stats`].
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

/// Why a corpus replay or corpus sweep failed: a cell that fails
/// [`load_entry`] is a fault of the corpus on disk, anything else a fault of
/// the request. `repro` exits 1 on the first and 2 on the second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusRunError {
    /// A cell failed [`load_entry`]: a tampered manifest entry, or a corrupt
    /// or stale shard.
    Load(String),
    /// Any other failure, such as a missing or empty corpus, or a decoder
    /// that cannot serve a cell.
    Other(String),
}

impl From<String> for CorpusRunError {
    fn from(message: String) -> Self {
        CorpusRunError::Other(message)
    }
}

impl fmt::Display for CorpusRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusRunError::Load(message) | CorpusRunError::Other(message) => f.write_str(message),
        }
    }
}

impl From<CorpusRunError> for String {
    fn from(error: CorpusRunError) -> Self {
        error.to_string()
    }
}

/// Replays policies against every cell of the corpus at `dir`, in the mode
/// requested by `options` (see [`ReplayMode`]), and returns the report with
/// each cell's out-of-band [`CheckpointStats`] (for CLI summaries — never
/// part of the report).
///
/// # Errors
/// [`CorpusRunError::Load`] when a cell fails [`load_entry`];
/// [`CorpusRunError::Other`] when the corpus is missing or empty, a decoder
/// cannot serve a cell, or a policy label cannot be resolved.
pub fn replay_corpus_with_stats(
    dir: &Path,
    options: &ReplayOptions,
) -> Result<(ReplayReport, Vec<CellCheckpointStats>), CorpusRunError> {
    let corpus = Corpus::open_existing(dir).map_err(|e| e.to_string())?;
    if corpus.entries().is_empty() {
        return Err(CorpusRunError::Other(format!(
            "corpus {} is empty — nothing to replay (record cells first)",
            dir.display()
        )));
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
        let cell = load_entry(&corpus, entry).map_err(CorpusRunError::Load)?;
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
    use std::sync::Mutex;

    use super::*;
    use leakage_speculation::build_policy;
    use leaky_sim::NoiseParams;

    fn record(code: &Code, kind: PolicyKind, seed: u64, rounds: usize) -> (TraceHeader, ShotTrace) {
        let noise = NoiseParams::default();
        let mut policy = policy(kind, code);
        let mut sim = Simulator::new(code, noise, seed);
        sim.seed_random_data_leakage(1);
        let trace = ShotTrace::record(0, &mut sim, policy.as_mut(), rounds);
        let header = TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
            generator: "replay test".to_string(),
            git_describe: "unknown".to_string(),
            code_name: code.name().to_string(),
            code_fingerprint: code_fingerprint(code),
            num_data: code.num_data(),
            num_checks: code.num_checks(),
            cnot_layers: code.cnot_layers(),
            rounds,
            shots: 1,
            seed,
            policy: kind.label().to_string(),
            leakage_sampling: true,
            noise,
        };
        assert_eq!(trace.run, live_run(code, kind, &header, 0));
        (header, trace)
    }

    fn policy(kind: PolicyKind, code: &Code) -> Box<dyn LeakagePolicy + Send> {
        build_policy(kind, code, &GladiatorConfig::default())
    }

    #[test]
    fn replaying_the_recording_policy_is_exact_for_every_kind() {
        let code = Code::rotated_surface(3);
        for kind in PolicyKind::ALL {
            let (_, trace) = record(&code, kind, 17, 10);
            let (planned, divergence) = open_loop_shot(&trace, policy(kind, &code).as_mut());
            assert!(divergence.is_none(), "{kind:?} diverged at round {divergence:?}");
            // The planned schedule is exactly the recorded one.
            for (plan, record) in planned.iter().zip(trace.run.rounds()) {
                assert_eq!(plan.data, record.data_lrcs(), "{kind:?}");
                assert_eq!(plan.ancilla, record.ancilla_lrcs(), "{kind:?}");
            }
        }
    }

    #[test]
    fn replaying_a_different_policy_reports_divergence() {
        let code = Code::rotated_surface(3);
        let (_, trace) = record(&code, PolicyKind::NoLrc, 3, 12);
        // Always-LRC plans a full schedule every round; the no-lrc trace recorded none.
        let (planned, divergence) =
            open_loop_shot(&trace, policy(PolicyKind::AlwaysLrc, &code).as_mut());
        assert_eq!(divergence, Some(0));
        assert_eq!(planned[0].len(), code.num_data() + code.num_checks());
    }

    /// From-scratch live run of `kind` on the recorded cell/seed — the oracle
    /// closed-loop replay must match bit-for-bit.
    fn live_run(code: &Code, kind: PolicyKind, header: &TraceHeader, shot: u64) -> RunRecord {
        let mut policy = policy(kind, code);
        let mut sim = Simulator::new(code, header.noise, 0);
        sim.reseed_for_shot(header.seed, shot, header.leakage_sampling);
        sim.run_with_policy(policy.as_mut(), header.rounds)
    }

    /// The evaluator's closed-loop simulator for a recorded cell.
    fn simulator(code: &Code, header: &TraceHeader) -> Simulator {
        Simulator::new(code, header.noise, header.seed)
    }

    /// Closed-loop replays `policy` as a set of one.
    fn replay_one<'t>(
        header: &TraceHeader,
        trace: &'t ShotTrace,
        policy: Box<dyn LeakagePolicy + Send>,
        sim: &mut Simulator,
    ) -> Result<ClosedLoopRun<'t>, TraceError> {
        let mut set = closed_loop_shot(header, trace, &mut [policy], sim)?;
        Ok(set.pop().expect("one candidate, one replay"))
    }

    #[test]
    fn closed_loop_replay_is_bit_identical_to_a_live_run_for_every_candidate() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::GladiatorM, 23, 12);
        let mut sim = simulator(&code, &header);
        for kind in PolicyKind::ALL {
            let (run, divergence) =
                replay_one(&header, &trace, policy(kind, &code), &mut sim).unwrap();
            let live = live_run(&code, kind, &header, trace.shot);
            assert_eq!(*run, live, "{kind:?} counterfactual must be exact");
            if kind == PolicyKind::GladiatorM {
                assert!(divergence.is_none(), "recording policy must never diverge");
            }
        }
    }

    #[test]
    fn closed_loop_divergence_round_matches_open_loop_detection() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 9, 10);
        let mut sim = simulator(&code, &header);
        let (_, open_loop) = open_loop_shot(&trace, policy(PolicyKind::AlwaysLrc, &code).as_mut());
        let (run, divergence) =
            replay_one(&header, &trace, policy(PolicyKind::AlwaysLrc, &code), &mut sim).unwrap();
        assert_eq!(divergence, open_loop);
        assert_eq!(divergence, Some(0));
        // Always-LRC diverges immediately: the whole shot is re-simulated,
        // and every executed round carries the full schedule.
        for round in run.rounds() {
            assert_eq!(round.data_lrcs().len(), code.num_data());
        }
    }

    /// Test policy: schedules nothing until `fire_round`, then requests one LRC
    /// — so against a no-lrc trace the first divergence lands exactly there.
    struct DivergeAt {
        fire_round: usize,
    }

    impl LeakagePolicy for DivergeAt {
        fn name(&self) -> &str {
            "diverge-at"
        }
        fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
            if ctx.round >= self.fire_round {
                LrcRequest { data: vec![0], ancilla: vec![] }
            } else {
                LrcRequest::none()
            }
        }
    }

    /// Test wrapper: logs the round of every plan its policy is asked for.
    struct Logged<P> {
        inner: P,
        rounds: Arc<Mutex<Vec<usize>>>,
    }

    impl<P: LeakagePolicy> LeakagePolicy for Logged<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
            self.rounds.lock().unwrap().push(ctx.round);
            self.inner.plan_lrcs(ctx)
        }
    }

    #[test]
    fn a_divergent_candidate_plans_every_round_exactly_once() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 9, 10);
        let mut sim = simulator(&code, &header);
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let policy = Logged { inner: DivergeAt { fire_round: 4 }, rounds: Arc::clone(&rounds) };
        let (_, divergence) = replay_one(&header, &trace, Box::new(policy), &mut sim).unwrap();
        assert_eq!(divergence, Some(4));
        // Detection stops on round 4's plan, and the resume plans rounds 5..10.
        assert_eq!(*rounds.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn closed_loop_replay_detects_a_trace_that_does_not_reproduce() {
        let code = Code::rotated_surface(3);
        let (header, mut trace) = record(&code, PolicyKind::NoLrc, 31, 8);
        // Corrupt a recorded mid-run measurement: when the candidate diverges
        // *after* that round, the forced prefix re-execution must notice the
        // recorded round no longer reproduces.
        trace.run.round_mut(1).measurements.toggle(0);
        let mut sim = simulator(&code, &header);
        let diverge = Box::new(DivergeAt { fire_round: 3 });
        let err = replay_one(&header, &trace, diverge, &mut sim).unwrap_err();
        assert!(err.to_string().contains("does not reproduce"), "{err}");
    }

    #[test]
    fn closed_loop_replay_detects_corrupt_initial_leak_flags() {
        let code = Code::rotated_surface(3);
        let (header, mut trace) = record(&code, PolicyKind::NoLrc, 13, 6);
        // Flip an initial leak flag: reseeding through the contract can no
        // longer reproduce the recorded starting state.
        trace.initial_data_leak.toggle(0);
        let mut sim = simulator(&code, &header);
        let diverge = Box::new(DivergeAt { fire_round: 2 });
        let err = replay_one(&header, &trace, diverge, &mut sim).unwrap_err();
        assert!(err.to_string().contains("seeding contract"), "{err}");
    }

    #[test]
    fn shared_replay_matches_sets_of_one_for_every_kind() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::GladiatorM, 23, 12);
        let mut sim = simulator(&code, &header);

        // Sets-of-one oracle results, one fresh policy per kind.
        let solo: Vec<ClosedLoopRun> = PolicyKind::ALL
            .iter()
            .map(|&kind| replay_one(&header, &trace, policy(kind, &code), &mut sim).unwrap())
            .collect();

        // The whole set served from shared checkpoints in one call.
        let mut candidates: Vec<_> =
            PolicyKind::ALL.iter().map(|&kind| policy(kind, &code)).collect();
        let shared = closed_loop_shot(&header, &trace, &mut candidates, &mut sim).unwrap();

        assert_eq!(shared.len(), solo.len());
        for ((replay, oracle), kind) in shared.iter().zip(&solo).zip(PolicyKind::ALL) {
            assert_eq!(replay, oracle, "{kind:?} must be bit-identical to its set of one");
        }
        assert!(
            shared.iter().any(|(_, divergence)| divergence.is_some()),
            "the set must share a pass"
        );
    }

    #[test]
    fn shared_replay_of_exact_candidates_never_touches_the_simulator() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 7, 8);
        let mut sim = simulator(&code, &header);
        let mut set = vec![policy(PolicyKind::NoLrc, &code), policy(PolicyKind::NoLrc, &code)];
        let shared = closed_loop_shot(&header, &trace, &mut set, &mut sim).unwrap();
        assert!(shared.iter().all(|(_, divergence)| divergence.is_none()));
        assert_eq!(sim.rounds_executed(), 0, "no simulation for an all-exact set");
    }

    #[test]
    fn shared_replay_dedups_checkpoints_by_divergence_round() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 19, 10);
        let mut sim = simulator(&code, &header);
        // Four candidates, three distinct divergence rounds (3, 3, 6, 0) plus
        // one exact candidate.
        let diverge =
            |fire_round| -> Box<dyn LeakagePolicy + Send> { Box::new(DivergeAt { fire_round }) };
        let mut set =
            vec![diverge(3), diverge(3), diverge(6), diverge(0), policy(PolicyKind::NoLrc, &code)];
        let shared = closed_loop_shot(&header, &trace, &mut set, &mut sim).unwrap();
        let divergences: Vec<Option<usize>> = shared.iter().map(|&(_, d)| d).collect();
        assert_eq!(divergences, vec![Some(3), Some(3), Some(6), Some(0), None]);
        // Same-round candidates must be bit-identical to their solo replays.
        for (index, fire_round) in [(0usize, 3usize), (1, 3), (2, 6), (3, 0)] {
            let solo = replay_one(&header, &trace, diverge(fire_round), &mut sim).unwrap();
            assert_eq!(shared[index], solo, "candidate {index}");
        }
    }

    #[test]
    fn divergence_profile_invariants_hold() {
        let mut profile = DivergenceProfile::new(5);
        for divergence in [None, Some(2), Some(0), Some(2), None, Some(4)] {
            profile.add(divergence);
        }
        assert_eq!(profile.shots, 6);
        assert_eq!(profile.divergent_shots, 4);
        assert_eq!(profile.exact_shots(), 2);
        assert_eq!(profile.first_divergence, vec![1, 0, 2, 0, 1]);
        assert_eq!(profile.first_divergence.iter().sum::<usize>(), profile.divergent_shots);
        let cumulative = profile.cumulative_divergent();
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]), "cumulative must be monotone");
        assert_eq!(cumulative.last(), Some(&profile.divergent_shots));
        assert_eq!(profile.resimulated_rounds, (5 - 2) as u64 + 5 + 3 + 1);
        // Divergence rounds 2, 0, 2, 4 ⇒ restored prefixes of those lengths.
        assert_eq!(profile.restored_rounds, 8);
        // Every divergent shot pays its full round count on the simulator.
        assert_eq!(
            profile.resimulated_rounds + profile.restored_rounds,
            (profile.divergent_shots * profile.rounds) as u64
        );
        assert!((profile.resimulated_fraction() - 12.0 / 30.0).abs() < 1e-12);
        assert!((profile.simulated_fraction() - 20.0 / 30.0).abs() < 1e-12);
        assert!((DivergenceProfile::new(0).resimulated_fraction()).abs() < 1e-12);
        assert!((DivergenceProfile::new(0).simulated_fraction()).abs() < 1e-12);
    }

    #[test]
    fn evaluate_cell_rejects_the_wrong_code() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 1, 4);
        let other = Code::rotated_surface(5);
        let factory = Arc::new(PolicyFactory::new(&other, &GladiatorConfig::default()));
        let cell = LoadedCell { header, shots: vec![trace], code: other };
        for mode in [ReplayMode::OpenLoop, ReplayMode::ClosedLoop] {
            let err = evaluate_cell(&cell, &factory, PolicyKind::NoLrc, None, mode).unwrap_err();
            assert!(err.contains("does not match"), "{err}");
        }
    }

    #[test]
    fn checkpoint_stats_follow_from_the_divergence_rounds() {
        // Candidates diverging at rounds 3, 3, 6 and 0, plus one exact one:
        // one pass forced to round 6, four suffixes, three distinct rounds.
        let mut stats = CheckpointStats::default();
        stats.add_shot([Some(3), Some(3), Some(6), Some(0), None].into_iter());
        let expected = CheckpointStats {
            forced_passes: 1,
            forced_rounds: 6,
            suffixes: 4,
            peak_checkpoints: 3,
        };
        assert_eq!(stats, expected);
        // An all-exact shot forces nothing and keeps the high-water mark.
        stats.add_shot([None, None].into_iter());
        assert_eq!(stats, expected);
        let mut exact = CheckpointStats::default();
        exact.add_shot([None, None, None].into_iter());
        assert_eq!(exact, CheckpointStats::default());
    }
}
